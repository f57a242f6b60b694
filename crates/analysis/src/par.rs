//! A dependency-free parallel sweep harness.
//!
//! Every experiment in this workspace is a list of *independent*
//! simulated machines (one per protocol, PE count, bus shape, …) whose
//! results are rendered as a table in case order. [`run_cases`] fans
//! such a list over `std::thread::scope` workers and reassembles the
//! results **in input order**, so a ported experiment prints exactly
//! the bytes the sequential loop printed — only faster. Simulated
//! machines are deterministic (seeded in-tree RNG, no wall clock), so
//! parallel execution cannot perturb any measured statistic.
//!
//! Worker count defaults to the machine's available parallelism,
//! capped by the number of cases; `DECACHE_BENCH_THREADS` overrides it
//! (set it to `1` to force the sequential path, e.g. when timing the
//! simulator itself).
//!
//! [`supervise`] is the fault-tolerant generalization for long
//! campaigns: the same pool, but each case runs under a panic guard, a
//! per-case cycle budget, and a bounded retry policy, and the harness
//! returns a [`CaseOutcome`] per case instead of tearing the whole
//! sweep down when one case misbehaves.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The number of worker threads for `cases` cases: available
/// parallelism (or the `DECACHE_BENCH_THREADS` override), never more
/// than one per case.
fn thread_count(cases: usize) -> usize {
    let workers = match std::env::var("DECACHE_BENCH_THREADS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("DECACHE_BENCH_THREADS={v} is not a number")),
        Err(_) => std::thread::available_parallelism().map_or(1, usize::from),
    };
    workers.clamp(1, cases.max(1))
}

/// Runs `run` over every case on a pool of scoped worker threads and
/// returns the results **in input order**. Cases are claimed from a
/// shared counter, so long and short cases balance across workers.
/// With one worker (single-core machine, one case, or
/// `DECACHE_BENCH_THREADS=1`) the cases run inline on the caller's
/// thread.
///
/// # Panics
///
/// If `run` panics for any case, the panic propagates to the caller,
/// with the worker's own payload, once all workers have stopped.
///
/// # Examples
///
/// ```
/// let squares = decache_analysis::par::run_cases(&[1, 2, 3], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn run_cases<T, R, F>(cases: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = thread_count(cases.len());
    if threads <= 1 {
        return cases.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cases.iter().map(|_| Mutex::new(None)).collect();
    // Join every worker inside the scope and keep the first panic
    // payload: a worker left unjoined makes the scope re-panic with a
    // generic "a scoped thread panicked", losing the worker's message.
    let panic = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(case) = cases.get(i) else { break };
                    let result = run(case);
                    *slots[i].lock().unwrap() = Some(result);
                })
            })
            .collect();
        let mut first = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every case slot is filled before the scope ends")
        })
        .collect()
}

/// The supervision policy for a [`supervise`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervisor {
    /// The per-case cycle budget handed to every attempt. A case that
    /// cannot finish within it reports [`CaseOutcome::TimedOut`]; since
    /// simulated machines are deterministic, budget exhaustion is a
    /// verdict, not a transient, and is **not** retried.
    pub cycle_budget: u64,
    /// How many times a *panicked* attempt is re-run (with the same
    /// case, hence the same seed) before the case is quarantined as
    /// [`CaseOutcome::Panicked`].
    pub max_retries: u32,
    /// The pause before the first retry; doubled per attempt.
    pub backoff: Duration,
    /// The ceiling the doubling backoff saturates at.
    pub backoff_cap: Duration,
}

impl Default for Supervisor {
    /// Ten million cycles (the budget the bench bins already pass to
    /// `run_to_completion`), two retries, 10 ms base backoff capped at
    /// 500 ms.
    fn default() -> Self {
        Supervisor {
            cycle_budget: 10_000_000,
            max_retries: 2,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl Supervisor {
    /// The pause before retry number `attempt` (1-based): the base
    /// backoff doubled per prior attempt, saturating at the cap.
    fn pause(&self, attempt: u32) -> Duration {
        let doubled = self
            .backoff
            .checked_mul(2u32.saturating_pow(attempt.saturating_sub(1)))
            .unwrap_or(self.backoff_cap);
        doubled.min(self.backoff_cap)
    }
}

/// What became of one case of a [`supervise`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome<R> {
    /// The case completed on its first attempt.
    Ok(R),
    /// The case completed, but only after retrying panicked attempts.
    Retried {
        /// The completed result.
        result: R,
        /// How many failed attempts preceded it.
        attempts: u32,
    },
    /// Every attempt panicked; the case is quarantined.
    Panicked {
        /// The final panic's payload, when it was a string.
        message: String,
    },
    /// The case did not finish within the supervisor's cycle budget.
    TimedOut {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl<R> CaseOutcome<R> {
    /// The completed result, if the case produced one.
    pub fn result(&self) -> Option<&R> {
        match self {
            CaseOutcome::Ok(r) | CaseOutcome::Retried { result: r, .. } => Some(r),
            CaseOutcome::Panicked { .. } | CaseOutcome::TimedOut { .. } => None,
        }
    }

    /// `true` iff the case produced a result (first try or retried).
    pub fn is_success(&self) -> bool {
        self.result().is_some()
    }
}

/// Renders a caught panic payload for [`CaseOutcome::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case under the supervision policy: panic guard, cycle
/// budget, bounded seed-preserving retries with capped doubling
/// backoff.
fn run_supervised<T, R, F>(config: &Supervisor, case: &T, run: &F) -> CaseOutcome<R>
where
    F: Fn(&T, u64) -> Option<R>,
{
    let mut attempt = 0u32;
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| run(case, config.cycle_budget))) {
            Ok(Some(result)) => {
                return if attempt == 0 {
                    CaseOutcome::Ok(result)
                } else {
                    CaseOutcome::Retried {
                        result,
                        attempts: attempt,
                    }
                };
            }
            Ok(None) => {
                return CaseOutcome::TimedOut {
                    budget: config.cycle_budget,
                };
            }
            Err(payload) => {
                attempt += 1;
                if attempt > config.max_retries {
                    return CaseOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    };
                }
                std::thread::sleep(config.pause(attempt));
            }
        }
    }
}

/// Runs `run` over every case on the same ordered worker pool as
/// [`run_cases`], but supervised: each attempt runs under a panic
/// guard, receives the supervisor's per-case cycle budget, and
/// panicked attempts are retried (same case, same seed) up to the
/// bounded retry limit with capped doubling backoff between attempts.
/// One misbehaving case is quarantined as its own
/// [`CaseOutcome::Panicked`] / [`CaseOutcome::TimedOut`] verdict;
/// every other case's result is exactly what the unsupervised pool
/// would have produced.
///
/// `run` receives the case and the cycle budget and returns `Some`
/// result, or `None` if the case could not complete within the budget
/// (e.g. `run_to_completion` hit its cycle cap).
///
/// # Examples
///
/// ```
/// use decache_analysis::par::{supervise, CaseOutcome, Supervisor};
///
/// let outcomes = supervise(&[1u64, 2, 3], &Supervisor::default(), |&x, budget| {
///     (x < budget).then_some(x * x)
/// });
/// assert_eq!(outcomes[1], CaseOutcome::Ok(4));
/// ```
pub fn supervise<T, R, F>(cases: &[T], config: &Supervisor, run: F) -> Vec<CaseOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> Option<R> + Sync,
{
    run_cases(cases, |case| run_supervised(config, case, &run))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let cases: Vec<usize> = (0..100).collect();
        // Uneven work so fast cases finish before slow earlier ones.
        let results = run_cases(&cases, |&i| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i * 2
        });
        assert_eq!(results, cases.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_case_lists_work() {
        let none: Vec<u32> = run_cases(&[], |&x: &u32| x);
        assert!(none.is_empty());
        assert_eq!(run_cases(&[5], |&x| x + 1), vec![6]);
    }

    #[test]
    fn captures_borrowed_state() {
        let offset = 10;
        let results = run_cases(&[1, 2, 3], |&x| x + offset);
        assert_eq!(results, vec![11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = run_cases(&[0, 1], |&x| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn payload_survives_when_every_worker_panics() {
        let _ = run_cases(&[0, 1, 2, 3], |&x: &u32| -> u32 { panic!("boom {x}") });
    }

    /// A deliberately panicking case is quarantined as its own
    /// [`CaseOutcome::Panicked`]; every other case's result is exactly
    /// what the unsupervised pool produces for the same work.
    #[test]
    fn panicking_case_is_quarantined_without_perturbing_others() {
        let cases: Vec<u64> = (0..16).collect();
        let work = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let config = Supervisor {
            max_retries: 0,
            backoff: Duration::ZERO,
            ..Supervisor::default()
        };
        let supervised = supervise(&cases, &config, |&x, _budget| {
            assert!(x != 11, "case 11 detonates");
            Some(work(x))
        });
        let unsupervised = run_cases(&cases, |&x| work(x));
        for (i, outcome) in supervised.iter().enumerate() {
            if i == 11 {
                let CaseOutcome::Panicked { message } = outcome else {
                    panic!("case 11 should be quarantined, got {outcome:?}");
                };
                assert!(message.contains("detonates"), "{message}");
            } else {
                assert_eq!(outcome, &CaseOutcome::Ok(unsupervised[i]));
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_a_timeout_verdict() {
        let config = Supervisor {
            cycle_budget: 100,
            ..Supervisor::default()
        };
        let outcomes = supervise(&[50u64, 200], &config, |&needs, budget| {
            (needs <= budget).then_some(needs)
        });
        assert_eq!(outcomes[0], CaseOutcome::Ok(50));
        assert_eq!(outcomes[1], CaseOutcome::TimedOut { budget: 100 });
    }

    #[test]
    fn transient_panics_are_retried_with_the_same_case() {
        use std::sync::atomic::AtomicU32;
        let flaky_attempts = AtomicU32::new(0);
        let config = Supervisor {
            max_retries: 3,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            ..Supervisor::default()
        };
        let outcomes = supervise(&[7u64, 8], &config, |&x, _budget| {
            if x == 8 && flaky_attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient");
            }
            Some(x * 10)
        });
        assert_eq!(outcomes[0], CaseOutcome::Ok(70));
        assert_eq!(
            outcomes[1],
            CaseOutcome::Retried {
                result: 80,
                attempts: 2
            }
        );
        assert!(outcomes[1].is_success());
        assert_eq!(outcomes[1].result(), Some(&80));
    }

    #[test]
    fn backoff_doubles_and_saturates_at_the_cap() {
        let config = Supervisor {
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(25),
            ..Supervisor::default()
        };
        assert_eq!(config.pause(1), Duration::from_millis(10));
        assert_eq!(config.pause(2), Duration::from_millis(20));
        assert_eq!(config.pause(3), Duration::from_millis(25));
        assert_eq!(config.pause(30), Duration::from_millis(25));
    }
}
