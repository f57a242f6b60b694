//! Live conformance oracle: replays the simulator's observed protocol
//! steps against the Section 4 product model.
//!
//! A [`Refinement`] subscribes to a [`Machine`]'s structured
//! [`Observer`](decache_machine::Observer) stream and maintains a
//! *shadow* per-address state vector — one `Option<LineState>` per PE,
//! exactly the product checker's cells. Every observation is checked
//! against what the protocol's compiled rule table — the same
//! [`AnyProtocol`] the machine runs — allows from the shadow state, and
//! the shadow is advanced by the same table entries. Any
//! simulator step the model does not allow (a hit where the table says
//! miss, a missing interrupt-and-supply, a wrong writeback decision, an
//! illegal configuration after a completion) is recorded as a
//! [`ConformanceError`].
//!
//! The oracle is **pure**: it observes but never influences the
//! machine, so attaching it cannot perturb any simulated statistic —
//! the fingerprint suite asserts exactly that.
//!
//! # Examples
//!
//! ```
//! use decache_core::ProtocolKind;
//! use decache_machine::{MachineBuilder, Script};
//! use decache_mem::{Addr, Word};
//! use decache_verify::Refinement;
//!
//! let oracle = Refinement::new(ProtocolKind::Rb, 2);
//! let mut machine = MachineBuilder::new(ProtocolKind::Rb)
//!     .processor(Script::new().write(Addr::new(0), Word::ONE).build())
//!     .processor(Script::new().read(Addr::new(0)).build())
//!     .observer(oracle.observer())
//!     .build();
//! machine.run_to_completion(1_000);
//! oracle.assert_clean();
//! ```

use decache_core::{
    AnyProtocol, Configuration, CpuOutcome, LineState, Protocol, ProtocolKind, SnoopEvent,
};
use decache_machine::{CpuDecision, Observation, Observer};
use decache_mem::Word;
use std::fmt;
use std::sync::{Arc, Mutex};

/// How many errors the oracle keeps before it stops recording (the
/// first is almost always the interesting one; the rest are cascade).
const MAX_ERRORS: usize = 32;

/// One simulator step the product model does not allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceError {
    /// The bus cycle of the offending observation.
    pub cycle: u64,
    /// What the model expected versus what the machine did.
    pub message: String,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {:>5}] {}", self.cycle, self.message)
    }
}

/// The shared oracle state: the shadow cache model and the error log.
#[derive(Debug)]
struct Inner {
    protocol: AnyProtocol,
    allow_intermediate: bool,
    n: usize,
    /// Shadow line states per address: `lines[addr][pe]`, `None` = NP.
    /// Absent addresses are all-NP.
    lines: std::collections::HashMap<u64, Vec<Option<LineState>>>,
    errors: Vec<ConformanceError>,
    steps: u64,
}

impl Inner {
    fn cells(&mut self, addr: u64) -> &mut Vec<Option<LineState>> {
        let n = self.n;
        self.lines.entry(addr).or_insert_with(|| vec![None; n])
    }

    fn fail(&mut self, cycle: u64, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(ConformanceError { cycle, message });
        }
    }

    /// Checks the lemma's configuration half on the shadow states of
    /// one address after a completion.
    fn check_configuration(&mut self, cycle: u64, addr: u64) {
        let held: Vec<LineState> = self
            .lines
            .get(&addr)
            .map(|cells| cells.iter().flatten().copied().collect())
            .unwrap_or_default();
        let config = Configuration::classify(&held);
        let legal = if self.allow_intermediate {
            config.is_rwb_legal()
        } else {
            config.is_rb_legal()
        };
        if !legal {
            let name = self.protocol.name();
            self.fail(
                cycle,
                format!("{name}: illegal configuration {config} at addr {addr} ({held:?})"),
            );
        }
    }

    /// Applies a snoop event to every holder except the listed PEs.
    fn snoop_others(&mut self, addr: u64, event: SnoopEvent, except: &[usize]) {
        let protocol = &self.protocol;
        let cells = {
            let n = self.n;
            self.lines.entry(addr).or_insert_with(|| vec![None; n])
        };
        for (j, cell) in cells.iter_mut().enumerate() {
            if except.contains(&j) {
                continue;
            }
            if let Some(st) = *cell {
                *cell = Some(protocol.snoop(st, event).next);
            }
        }
    }

    fn observe(&mut self, cycle: u64, observation: &Observation) {
        self.steps += 1;
        // Snoop decisions ignore the bus payload, so a zero probe is
        // exact for state tracking.
        let probe = Word::ZERO;
        match *observation {
            Observation::CpuAccess {
                pe,
                addr,
                write,
                decision,
            } => {
                let addr = addr.index();
                let state = self.cells(addr)[pe];
                let expected = if write {
                    self.protocol.cpu_write(state)
                } else {
                    self.protocol.cpu_read(state)
                };
                let kind = if write { "write" } else { "read" };
                match (expected, decision) {
                    (CpuOutcome::Hit { next }, CpuDecision::Hit) => {
                        self.cells(addr)[pe] = Some(next);
                    }
                    (CpuOutcome::Miss { intent }, CpuDecision::Miss(observed))
                        if intent == observed => {}
                    (expected, observed) => {
                        let name = self.protocol.name();
                        self.fail(
                            cycle,
                            format!(
                                "{name}: P{pe} CPU {kind} at addr {addr} in {state:?}: \
                                 model says {expected:?}, machine did {observed:?}"
                            ),
                        );
                    }
                }
            }
            Observation::LockedReadIssued { .. } => {
                // Always a bus operation; nothing to check at issue time.
            }
            Observation::Supplied {
                supplier,
                initiator,
                addr,
            } => {
                let addr = addr.index();
                let state = self.cells(addr)[supplier];
                match state {
                    Some(st) if self.protocol.supplies_on_snoop_read(st) => {
                        self.cells(addr)[supplier] = Some(self.protocol.after_supply(st));
                        // The substituted bus write is snooped by the
                        // other holders (the initiator's read retries).
                        self.snoop_others(addr, SnoopEvent::Write(probe), &[supplier, initiator]);
                    }
                    _ => {
                        let name = self.protocol.name();
                        self.fail(
                            cycle,
                            format!(
                                "{name}: P{supplier} supplied addr {addr} from {state:?}, \
                                 which the model says cannot supply"
                            ),
                        );
                    }
                }
            }
            Observation::ReadCompleted { pe, addr, locked } => {
                let addr = addr.index();
                // If any other holder still owes a supply, the machine
                // let a read complete from stale memory.
                let cells = self.cells(addr).clone();
                let skipped = cells.iter().enumerate().find(|&(j, cell)| {
                    j != pe && cell.is_some_and(|st| self.protocol.supplies_on_snoop_read(st))
                });
                if let Some((j, _)) = skipped {
                    let name = self.protocol.name();
                    self.fail(
                        cycle,
                        format!(
                            "{name}: P{pe} read of addr {addr} completed while P{j} \
                             still owes an interrupt-and-supply"
                        ),
                    );
                }
                // The sharer bit for guarded fills: any *other* holder
                // still readable, sampled post-supply (any Supplied
                // observation already replayed) and pre-broadcast —
                // exactly where the machine samples it.
                let shared = cells
                    .iter()
                    .enumerate()
                    .any(|(j, cell)| j != pe && cell.is_some_and(LineState::is_readable_locally));
                let event = if locked {
                    SnoopEvent::LockedRead(probe)
                } else {
                    SnoopEvent::Read(probe)
                };
                self.snoop_others(addr, event, &[pe]);
                let state = self.cells(addr)[pe];
                let next = if locked {
                    self.protocol.own_locked_read_complete(state)
                } else {
                    self.protocol
                        .own_complete_shared(state, decache_core::BusIntent::Read, shared)
                };
                self.cells(addr)[pe] = Some(next);
                self.check_configuration(cycle, addr);
            }
            Observation::WriteCompleted { pe, addr, unlock } => {
                let addr = addr.index();
                let event = if unlock {
                    SnoopEvent::UnlockWrite(probe)
                } else {
                    SnoopEvent::Write(probe)
                };
                self.snoop_others(addr, event, &[pe]);
                let state = self.cells(addr)[pe];
                let next = if unlock {
                    self.protocol.own_unlock_write_complete(state)
                } else {
                    self.protocol
                        .own_complete(state, decache_core::BusIntent::Write)
                };
                self.cells(addr)[pe] = Some(next);
                self.check_configuration(cycle, addr);
            }
            Observation::InvalidateCompleted { pe, addr } => {
                let addr = addr.index();
                self.snoop_others(addr, SnoopEvent::Invalidate, &[pe]);
                let state = self.cells(addr)[pe];
                let next = self
                    .protocol
                    .own_complete(state, decache_core::BusIntent::Invalidate);
                self.cells(addr)[pe] = Some(next);
                self.check_configuration(cycle, addr);
            }
            Observation::BroadcastSatisfied { pe, addr } => {
                let addr = addr.index();
                // The snoop that satisfied the read already ran via
                // ReadCompleted/WriteCompleted; the line must now be
                // locally readable or the machine returned garbage.
                let state = self.cells(addr)[pe];
                let readable = state.is_some_and(LineState::is_readable_locally);
                if !readable {
                    let name = self.protocol.name();
                    self.fail(
                        cycle,
                        format!(
                            "{name}: P{pe} read of addr {addr} satisfied by broadcast \
                             but its shadow line is {state:?}"
                        ),
                    );
                }
            }
            Observation::Evicted {
                pe,
                addr,
                writeback,
            } => {
                let addr = addr.index();
                let state = self.cells(addr)[pe];
                match state {
                    Some(st) => {
                        let expected = self.protocol.writeback_on_evict(st);
                        if expected != writeback {
                            let name = self.protocol.name();
                            self.fail(
                                cycle,
                                format!(
                                    "{name}: P{pe} evicted addr {addr} in {st} with \
                                     writeback={writeback}, model says {expected}"
                                ),
                            );
                        }
                        self.cells(addr)[pe] = None;
                    }
                    None => {
                        let name = self.protocol.name();
                        self.fail(
                            cycle,
                            format!("{name}: P{pe} evicted addr {addr} it does not hold"),
                        );
                    }
                }
            }
            Observation::FaultInjected { .. } | Observation::FaultDetected { .. } => {
                // Injection touches data and parity, never protocol
                // state; detection is pure bookkeeping.
            }
            Observation::MemoryRepaired { .. } | Observation::BroadcastHealed { .. } => {
                // Repair restores a data word; no line changes state.
            }
            Observation::LineScrubbed { pe, addr, .. } => {
                // The corrupted line is invalidated out of the cache:
                // the shadow copy is gone too, so the refetch is
                // checked as an ordinary miss.
                let addr = addr.index();
                self.cells(addr)[pe] = None;
            }
            Observation::PeFailStopped { pe, .. } => {
                // The dead PE's cache goes dark: clear its column in
                // every shadow vector. Whatever it owned is forfeit
                // (drained to memory or lost), which every protocol's
                // configuration lemma tolerates — fewer holders is
                // always legal.
                for cells in self.lines.values_mut() {
                    cells[pe] = None;
                }
            }
        }
    }
}

/// The observer adapter handed to the machine; forwards every
/// observation into the shared [`Inner`].
#[derive(Debug)]
struct RefinementObserver {
    inner: Arc<Mutex<Inner>>,
}

impl Observer for RefinementObserver {
    fn observe(&mut self, cycle: u64, observation: &Observation) {
        self.inner
            .lock()
            .expect("conformance oracle poisoned")
            .observe(cycle, observation);
    }
}

/// A live refinement check: the simulator's observed steps must all be
/// allowed by the product model of the protocol.
///
/// Create one per machine, attach [`Refinement::observer`] via the
/// builder, run the machine, then inspect [`Refinement::violations`]
/// (or call [`Refinement::assert_clean`]).
#[derive(Debug, Clone)]
pub struct Refinement {
    inner: Arc<Mutex<Inner>>,
}

impl Refinement {
    /// Creates an oracle for `n` PEs under `kind`'s protocol tables.
    pub fn new(kind: ProtocolKind, n: usize) -> Self {
        let allow_intermediate = crate::static_check::allow_intermediate(kind);
        Self::from_table(kind.build(), allow_intermediate, n)
    }

    /// Creates an oracle with an explicit (possibly mismatched) compiled
    /// table as its model — for testing that the oracle itself has
    /// teeth.
    pub fn from_table(protocol: AnyProtocol, allow_intermediate: bool, n: usize) -> Self {
        Refinement {
            inner: Arc::new(Mutex::new(Inner {
                protocol,
                allow_intermediate,
                n,
                lines: std::collections::HashMap::new(),
                errors: Vec::new(),
                steps: 0,
            })),
        }
    }

    /// A boxed observer to attach to the machine under check. Multiple
    /// observers from one `Refinement` share the same shadow model.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(RefinementObserver {
            inner: Arc::clone(&self.inner),
        })
    }

    /// The conformance violations recorded so far (capped at an
    /// internal limit; the first is the interesting one).
    pub fn violations(&self) -> Vec<ConformanceError> {
        self.inner
            .lock()
            .expect("conformance oracle poisoned")
            .errors
            .clone()
    }

    /// How many observations the oracle has replayed.
    pub fn checked_steps(&self) -> u64 {
        self.inner
            .lock()
            .expect("conformance oracle poisoned")
            .steps
    }

    /// `true` iff no violations were recorded.
    pub fn is_clean(&self) -> bool {
        self.inner
            .lock()
            .expect("conformance oracle poisoned")
            .errors
            .is_empty()
    }

    /// Panics with the recorded violations unless the run conformed.
    ///
    /// # Panics
    ///
    /// Panics if any observed step diverged from the product model, or
    /// if no steps were observed at all (a mis-wired observer would
    /// otherwise pass vacuously).
    pub fn assert_clean(&self) {
        let inner = self.inner.lock().expect("conformance oracle poisoned");
        assert!(
            inner.steps > 0,
            "conformance oracle observed nothing — is the observer attached?"
        );
        assert!(
            inner.errors.is_empty(),
            "conformance violations:\n{}",
            inner
                .errors
                .iter()
                .map(|e| format!("  {e}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_check::ANALYZED_KINDS as KINDS;
    use decache_machine::{MachineBuilder, MemOp, Script};
    use decache_mem::Addr;

    fn sharing_machine(kind: ProtocolKind, oracle: &Refinement) -> decache_machine::Machine {
        let a = Addr::new(3);
        let b = Addr::new(17);
        MachineBuilder::new(kind)
            .processor(
                Script::new()
                    .write(a, Word::new(1))
                    .read(b)
                    .write(a, Word::new(2))
                    .read(a)
                    .build(),
            )
            .processor(
                Script::new()
                    .read(a)
                    .write(b, Word::new(3))
                    .read(a)
                    .write(a, Word::new(4))
                    .build(),
            )
            .processor(Script::new().read(b).read(a).read(b).build())
            .observer(oracle.observer())
            .build()
    }

    #[test]
    fn all_kinds_conform_on_a_sharing_script() {
        for kind in KINDS {
            let oracle = Refinement::new(kind, 3);
            let mut machine = sharing_machine(kind, &oracle);
            machine.run_to_completion(10_000);
            assert!(oracle.checked_steps() > 0);
            assert!(oracle.is_clean(), "{kind}: {:?}", oracle.violations());
        }
    }

    #[test]
    fn test_and_set_contention_conforms() {
        use decache_machine::LoopProcessor;
        for kind in KINDS {
            let lock = Addr::new(0);
            let oracle = Refinement::new(kind, 2);
            let mut machine = MachineBuilder::new(kind)
                .processor(Box::new(LoopProcessor::new(
                    vec![
                        MemOp::test_and_set(lock, Word::ONE),
                        MemOp::write(lock, Word::ZERO),
                    ],
                    4,
                )))
                .processor(Box::new(LoopProcessor::new(
                    vec![MemOp::test_and_set(lock, Word::ONE), MemOp::read(lock)],
                    4,
                )))
                .observer(oracle.observer())
                .build();
            machine.run_to_completion(50_000);
            oracle.assert_clean();
        }
    }

    #[test]
    fn a_mismatched_model_is_detected() {
        // Attach a write-through shadow model to an RB machine: RB's
        // write-miss installs an owning copy and later *hits* locally,
        // which the write-through table (every write is a miss) rejects.
        let oracle = Refinement::from_table(ProtocolKind::WriteThrough.build(), true, 2);
        let a = Addr::new(5);
        let mut machine = MachineBuilder::new(ProtocolKind::Rb)
            .processor(
                Script::new()
                    .write(a, Word::new(1))
                    .write(a, Word::new(2))
                    .build(),
            )
            .processor(Script::new().read(a).build())
            .observer(oracle.observer())
            .build();
        machine.run_to_completion(10_000);
        assert!(!oracle.is_clean(), "oracle failed to flag a model mismatch");
    }

    #[test]
    fn assert_clean_rejects_an_unattached_oracle() {
        let oracle = Refinement::new(ProtocolKind::Rb, 2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| oracle.assert_clean()));
        assert!(err.is_err());
    }
}
