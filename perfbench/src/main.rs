//! Host-throughput benchmark of the decache simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fanout_1024|warm_64x16|tts_lock_64|resume_32> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each repetition builds the workload's machine and warms its caches
//! (set-up), runs the timed phase single-threaded, checks every
//! simulated statistic, and round-trips a checkpoint. Repetitions
//! continue until `--seconds` have passed; the metrics are medians over
//! repetitions. The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod check;
mod probes;
mod spec;
mod trace;

use check::Fingerprint;
use decache_machine::Machine;
use decache_telemetry::{checkpoint_from_json, checkpoint_to_json, Json, MetricsSnapshot};
use spec::{Warm, Workload, BUDGET};
use std::time::Instant;
use trace::Tracer;

/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;
/// Cycles per timed chunk (and per span) in traced repetitions.
const CHUNK: u64 = 10_000;
/// Host seconds of checkpoint round trips per repetition (at least one).
const TRIP_TIME: f64 = 0.15;

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&mut values.collect::<Vec<_>>())
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The simulated counters of a repetition's timed phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    work_units: u64,
    sharer_visits: u64,
    tag_probes: u64,
    queue_scans: u64,
    hit_ratio: f64,
    transactions: u64,
    util: f64,
    lock_rejections: u64,
}

impl Counts {
    fn of(machine: &Machine) -> Counts {
        let m = machine.stats();
        let traffic = machine.traffic();
        Counts {
            work_units: m.work_units(),
            sharer_visits: m.sharer_visits,
            tag_probes: m.tag_probes,
            queue_scans: m.queue_scans,
            hit_ratio: machine.total_cache_stats().hit_ratio(),
            transactions: traffic.total_transactions(),
            util: traffic.utilization(),
            lock_rejections: m.lock_rejections,
        }
    }
}

/// One repetition's measurements.
struct Rep {
    traced: bool,
    setup_s: f64,
    run_s: f64,
    refs: u64,
    /// One entry per checkpoint round trip of the repetition.
    checkpoint_s: Vec<f64>,
    restore_s: Vec<f64>,
    ckpt_bytes: usize,
    counts: Counts,
}

impl Rep {
    fn refs_per_s(&self) -> f64 {
        self.refs as f64 / self.run_s
    }
}

/// One checkpoint round trip: the restored machine and the host time
/// of each half.
struct Trip {
    fresh: Machine,
    checkpoint_s: f64,
    restore_s: f64,
    bytes: usize,
}

struct Bench {
    w: &'static Workload,
    seed: u64,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    /// The statistics every finished run must reproduce: the pinned
    /// value for a pinned seed, else the first finished run's.
    expected: Option<Fingerprint>,
}

impl Bench {
    /// Counts one checked operation.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {}/{what}: {e}", self.w.name);
        }
    }

    fn check_fingerprint(&mut self, what: &str, observed: Fingerprint) {
        let expected = *self.expected.get_or_insert(observed);
        let result = if observed == expected {
            Ok(())
        } else {
            Err(format!("observed {observed:?}, expected {expected:?}"))
        };
        self.check(what, result);
    }

    /// Builds the machine and runs the warm-up that fills its caches.
    fn setup(&mut self) -> (Machine, Warm) {
        let (w, seed) = (self.w, self.seed);
        let mut machine = self.tracer.span("machine.build", || w.build(seed));
        let done = self
            .tracer
            .span("machine.warmup", || machine.run(w.warm_cycles));
        let warm = Warm::of(&machine);
        machine.reset_stats();
        let result = if done {
            Err("workload finished during warm-up".to_string())
        } else {
            Ok(())
        };
        self.check("warm-up", result);
        (machine, warm)
    }

    /// Runs for at most `cycles`; returns whether the machine is done
    /// and the host seconds the run took. Traced repetitions run in
    /// spans of `CHUNK` cycles.
    fn run(&mut self, machine: &mut Machine, cycles: u64, traced: bool) -> (bool, f64) {
        let t = Instant::now();
        let open = self.tracer.enter("machine.run");
        let done = if traced {
            let end = machine.cycles() + cycles;
            loop {
                let step = CHUNK.min(end - machine.cycles());
                let done = self.tracer.span("machine.run_chunk", || machine.run(step));
                if done || machine.cycles() >= end {
                    break done;
                }
            }
        } else {
            machine.run(cycles)
        };
        self.tracer.exit(open);
        (done, t.elapsed().as_secs_f64())
    }

    /// Checkpoints `machine` to JSON text and restores it into a fresh
    /// machine. The text is parsed back only when `parse` is set.
    fn round_trip(&mut self, machine: &Machine, parse: bool) -> Option<Trip> {
        let (w, seed) = (self.w, self.seed);
        let t = Instant::now();
        let ck = match self
            .tracer
            .span("machine.checkpoint", || machine.checkpoint())
        {
            Ok(ck) => ck,
            Err(e) => {
                self.check("checkpoint", Err(e.to_string()));
                return None;
            }
        };
        let (json, text) = self.tracer.span("telemetry.encode", || {
            let json = checkpoint_to_json(&ck);
            let text = json.to_string();
            (json, text)
        });
        let checkpoint_s = t.elapsed().as_secs_f64();
        drop(ck);

        let t = Instant::now();
        let parsed = if parse {
            match self.tracer.span("telemetry.parse", || Json::parse(&text)) {
                Ok(parsed) => Some(parsed),
                Err(e) => {
                    self.check("parse", Err(e));
                    return None;
                }
            }
        } else {
            None
        };
        let decoded = self.tracer.span("telemetry.decode", || {
            checkpoint_from_json(parsed.as_ref().unwrap_or(&json))
        });
        let mut fresh = self.tracer.span("machine.rebuild", || w.build(seed));
        let restored = match decoded {
            Ok(ck) => self
                .tracer
                .span("machine.restore", || fresh.restore(&ck))
                .map_err(|e| e.to_string()),
            Err(e) => Err(e),
        };
        let restore_s = t.elapsed().as_secs_f64();
        let ok = restored.is_ok();
        self.check("restore", restored);
        ok.then_some(Trip {
            fresh,
            checkpoint_s,
            restore_s,
            bytes: text.len(),
        })
    }

    /// Finishes a timed run: the outcome must be complete and every
    /// statistic as expected.
    fn finish(&mut self, machine: &mut Machine, warm: &Warm) {
        let outcome = machine.run_outcome(0);
        let result = if outcome.is_complete() {
            self.w.check_finished(machine, warm)
        } else {
            Err(format!("incomplete run: {outcome}"))
        };
        self.check("run", result);
        self.check_fingerprint("statistics", Fingerprint::of(machine));
    }

    fn snapshot(&mut self, machine: &Machine) {
        self.tracer.span("telemetry.snapshot", || {
            std::hint::black_box(MetricsSnapshot::from_machine(machine).to_json().to_string());
        });
    }

    fn rep(&mut self, traced: bool) -> Option<Rep> {
        let rep = self.tracer.enter("rep");
        let t = Instant::now();
        let (mut machine, warm) = self.setup();
        let setup_s = t.elapsed().as_secs_f64();
        let out = match self.w.resume_at {
            None => self.rep_through(machine, &warm, setup_s, traced),
            Some(at) => {
                // Run to the midpoint, round-trip through JSON text,
                // finish on the restored machine.
                let (done, first_s) = self.run(&mut machine, at, traced);
                if done {
                    self.check("resume", Err("finished before the checkpoint".into()));
                }
                let trip = self.round_trip(&machine, true)?;
                drop(machine);
                let mut fresh = trip.fresh;
                let (_, second_s) = self.run(&mut fresh, BUDGET, traced);
                let run_s = first_s + second_s;
                self.finish(&mut fresh, &warm);
                if traced {
                    self.snapshot(&fresh);
                }
                Some(Rep {
                    traced,
                    setup_s,
                    run_s,
                    refs: fresh.total_cache_stats().total_references(),
                    checkpoint_s: vec![trip.checkpoint_s],
                    restore_s: vec![trip.restore_s],
                    ckpt_bytes: trip.bytes,
                    counts: Counts::of(&fresh),
                })
            }
        };
        self.tracer.exit(rep);
        out
    }

    /// A repetition of a throughput workload: run to completion, then
    /// round-trip the finished machine's checkpoint (without the text
    /// parse) and require identical statistics from the restored copy.
    /// Untraced, small machines round-trip repeatedly, for `TRIP_TIME`
    /// in all; traced repetitions make one round trip, so each span is
    /// one call.
    fn rep_through(
        &mut self,
        mut machine: Machine,
        warm: &Warm,
        setup_s: f64,
        traced: bool,
    ) -> Option<Rep> {
        let (_, run_s) = self.run(&mut machine, BUDGET, traced);
        self.finish(&mut machine, warm);
        if traced {
            self.snapshot(&machine);
        }
        let original = Fingerprint::of(&machine);
        let mut rep = Rep {
            traced,
            setup_s,
            run_s,
            refs: machine.total_cache_stats().total_references(),
            checkpoint_s: Vec::new(),
            restore_s: Vec::new(),
            ckpt_bytes: 0,
            counts: Counts::of(&machine),
        };
        let start = Instant::now();
        while rep.checkpoint_s.is_empty() || (!traced && start.elapsed().as_secs_f64() < TRIP_TIME)
        {
            let trip = self.round_trip(&machine, false)?;
            let restored = Fingerprint::of(&trip.fresh);
            let result = if restored == original {
                Ok(())
            } else {
                Err(format!("restored {restored:?}, original {original:?}"))
            };
            self.check("restored statistics", result);
            rep.checkpoint_s.push(trip.checkpoint_s);
            rep.restore_s.push(trip.restore_s);
            rep.ckpt_bytes = trip.bytes;
        }
        Some(rep)
    }
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::object(vec![
            ("value", Json::F64(value)),
            ("unit", Json::Str(unit.into())),
        ]),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut bench = Bench {
        w,
        seed: args.seed,
        tracer: Tracer::new(),
        attempted: 0,
        failed: 0,
        expected: check::pinned(w.name, args.seed),
    };

    // resume_32 must finish exactly where one uninterrupted run does.
    if w.resume_at.is_some() {
        let (mut machine, warm) = bench.setup();
        let _ = bench.run(&mut machine, BUDGET, false);
        bench.finish(&mut machine, &warm);
    }

    let start = Instant::now();
    let min_reps = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut reps = Vec::new();
    let mut index = 0u32;
    let mut last_rep_s = 0.0;
    // Stop before a repetition that would end past `--seconds`.
    while reps.len() < min_reps || start.elapsed().as_secs_f64() + last_rep_s < args.seconds {
        let t = Instant::now();
        // The traced run alternates untraced and traced repetitions, so
        // the two rates it compares share the host's drift.
        let traced = args.trace && index % 2 == 1;
        bench.tracer.set(traced, index);
        match bench.rep(traced) {
            Some(rep) => reps.push(rep),
            None => break,
        }
        last_rep_s = t.elapsed().as_secs_f64();
        index += 1;
    }
    bench.tracer.set(false, 0);

    let mut metrics: Vec<(String, Json)> = Vec::new();
    if args.trace {
        metrics = per_layer(&mut bench, &reps, args.seed);
    } else {
        metrics.push(metric(
            "refs_per_s",
            median_of(reps.iter().map(Rep::refs_per_s)),
            "1/s",
        ));
        metrics.push(metric(
            "setup_s",
            median_of(reps.iter().map(|r| r.setup_s)),
            "s",
        ));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
        metrics.push(metric(
            "checkpoint_s",
            median_of(reps.iter().flat_map(|r| r.checkpoint_s.iter().copied())),
            "s",
        ));
        metrics.push(metric(
            "restore_s",
            median_of(reps.iter().flat_map(|r| r.restore_s.iter().copied())),
            "s",
        ));
    }
    eprintln!(
        "{} seed {}: {} repetitions in {:.1} s, expected statistics {:?}",
        w.name,
        args.seed,
        reps.len(),
        start.elapsed().as_secs_f64(),
        bench.expected
    );
    let correct = bench.failed == 0 && !reps.is_empty();
    let out = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(bench.attempted.max(1))),
        ("failed".into(), Json::U64(bench.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{out}");
}

/// The traced run's per-layer metrics: counters of the timed phase,
/// span self times, standalone probes, and the tracing overhead.
fn per_layer(bench: &mut Bench, reps: &[Rep], seed: u64) -> Vec<(String, Json)> {
    let w = bench.w;
    let inputs = match probes::capture(w, seed) {
        Ok(inputs) => Some(inputs),
        Err(e) => {
            bench.check("probe capture", Err(e));
            None
        }
    };
    if let Some(inputs) = &inputs {
        bench.check_fingerprint("capture statistics", inputs.fingerprint);
    }
    bench.tracer.set(true, u32::MAX);
    let times = inputs
        .as_ref()
        .map(|inputs| probes::run(w, seed, inputs, &mut bench.tracer));
    bench.tracer.set(false, 0);

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let counts = reps.last().map_or_else(Counts::default, |r| r.counts);
    let rate_untraced = median_of(untraced.iter().map(|r| r.refs_per_s()));
    let rate_traced = median_of(traced.iter().map(|r| r.refs_per_s()));

    let self_times = bench.tracer.self_times();
    let span_median = |name: &str| {
        median_of(traced.iter().enumerate().map(|(i, _)| {
            // Traced repetitions carry the odd run ids.
            let run = 2 * i as u32 + 1;
            self_times.get(&(name, run)).copied().unwrap_or(0.0)
        }))
    };
    let probe = |f: fn(&probes::ProbeTimes) -> f64| times.as_ref().map_or(0.0, f);

    let mut m = vec![
        metric("machine.work_units", counts.work_units as f64, "count"),
        metric(
            "machine.host_ns_per_wu",
            median_of(
                untraced
                    .iter()
                    .map(|r| r.run_s * 1e9 / r.counts.work_units.max(1) as f64),
            ),
            "ns",
        ),
        metric(
            "machine.sharer_visits",
            counts.sharer_visits as f64,
            "count",
        ),
        metric("machine.build_s", span_median("machine.build"), "s"),
        metric("machine.warmup_s", span_median("machine.warmup"), "s"),
        metric("machine.run_s", span_median("machine.run_chunk"), "s"),
        metric(
            "machine.checkpoint_s",
            span_median("machine.checkpoint"),
            "s",
        ),
        metric("machine.rebuild_s", span_median("machine.rebuild"), "s"),
        metric("machine.restore_s", span_median("machine.restore"), "s"),
        metric("cache.tag_probes", counts.tag_probes as f64, "count"),
        metric("cache.hit_ratio", counts.hit_ratio, "ratio"),
        metric("cache.probe_ns", probe(|t| t.probe_ns), "ns"),
        metric("cache.broadcast_ns", probe(|t| t.broadcast_ns), "ns"),
        metric("core.transition_ns", probe(|t| t.transition_ns), "ns"),
        metric(
            "core.table_transition_ns",
            probe(|t| t.table_transition_ns),
            "ns",
        ),
        metric("workloads.next_op_ns", probe(|t| t.next_op_ns), "ns"),
        metric("bus.transactions", counts.transactions as f64, "count"),
        metric("bus.queue_scans", counts.queue_scans as f64, "count"),
        metric("bus.util", counts.util, "ratio"),
        metric(
            "bus.acquire_wait_mean",
            inputs.as_ref().map_or(0.0, |i| i.acquire_wait_mean),
            "cycles",
        ),
        metric("bus.grant_ns", probe(|t| t.grant_ns), "ns"),
        metric(
            "mem.lock_rejections",
            counts.lock_rejections as f64,
            "count",
        ),
        metric(
            "sync.ts_spin_mean",
            inputs.as_ref().map_or(0.0, |i| i.ts_spin_mean),
            "cycles",
        ),
        metric("telemetry.encode_s", span_median("telemetry.encode"), "s"),
        metric("telemetry.parse_s", span_median("telemetry.parse"), "s"),
        metric("telemetry.decode_s", span_median("telemetry.decode"), "s"),
        metric(
            "telemetry.ckpt_bytes",
            reps.last().map_or(0, |r| r.ckpt_bytes) as f64,
            "bytes",
        ),
        metric(
            "telemetry.snapshot_s",
            span_median("telemetry.snapshot"),
            "s",
        ),
        metric("trace.refs_per_s_untraced", rate_untraced, "1/s"),
        metric("trace.refs_per_s_traced", rate_traced, "1/s"),
        metric(
            "trace.overhead_pct",
            (1.0 - rate_traced / rate_untraced) * 100.0,
            "%",
        ),
    ];
    m.sort_by(|a, b| a.0.cmp(&b.0));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, bench.tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    m
}
