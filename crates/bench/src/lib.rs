//! # decache-bench
//!
//! Experiment harnesses regenerating every table and figure of Rudolph &
//! Segall (1984), one binary per artifact (see DESIGN.md's experiment
//! index), plus dependency-free micro-benchmarks of the simulator
//! itself (`cargo bench -p decache-bench`, plain timing harnesses).
//!
//! Run any experiment with `cargo run -p decache-bench --bin <name>`:
//!
//! | binary | artifact |
//! |---|---|
//! | `table_1_1` | Table 1-1, Cm* emulated cache results |
//! | `figure_3_1` / `figure_5_1` | RB / RWB state transition diagrams |
//! | `proof_check` | Section 4 product-machine lemma/theorem |
//! | `figure_6_1` / `figure_6_2` / `figure_6_3` | synchronization tables |
//! | `hotspot_sweep` | Section 6 hot-spot traffic, quantified |
//! | `bandwidth` | Section 7 SBB bound and worked example |
//! | `figure_7_1` | multiple shared buses |
//! | `array_init` | Section 5 array-initialization claim |
//! | `cyclic_sharing` | Section 5 cyclic sharing claim |
//! | `protocol_compare` | RB vs RWB vs write-once vs write-through |
//! | `ablation_k` / `ablation_arbiter` / `ablation_broadcast` | ablations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use decache_analysis::par;

use decache_machine::{Machine, MachineBuilder};
use decache_telemetry::{Json, MetricsSnapshot, PerfettoTrace};
use std::path::PathBuf;

/// Crash-safe per-case progress checkpointing for the long campaign
/// bins (`section7`, `fault_campaign`), behind two CLI flags:
///
/// * `--checkpoint-dir <dir>` — after each completed case, its result
///   is written to `<dir>/<case>.json` atomically (tmp + rename), so a
///   `SIGKILL` mid-sweep leaves only whole case files behind.
/// * `--resume` — completed cases found in the checkpoint directory
///   are loaded instead of recomputed; the sweep continues from where
///   the killed run stopped and prints exactly the bytes an
///   uninterrupted run prints (results are raw counters, so replaying
///   a case from disk is indistinguishable from re-simulating it).
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    dir: Option<PathBuf>,
    resume: bool,
}

impl Campaign {
    /// Parses `--checkpoint-dir <dir>` and `--resume` from the
    /// process's command line.
    ///
    /// # Panics
    ///
    /// If `--checkpoint-dir` is given without a directory, or
    /// `--resume` without `--checkpoint-dir`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let dir = args.iter().position(|a| a == "--checkpoint-dir").map(|at| {
            PathBuf::from(
                args.get(at + 1)
                    .filter(|a| !a.starts_with("--"))
                    .unwrap_or_else(|| panic!("--checkpoint-dir needs a directory")),
            )
        });
        let resume = args.iter().any(|a| a == "--resume");
        assert!(
            dir.is_some() || !resume,
            "--resume needs --checkpoint-dir <dir>"
        );
        Campaign { dir, resume }
    }

    /// The on-disk file for a case, with the key sanitized to a safe
    /// file name.
    fn case_path(&self, case: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let name: String = case
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(format!("{name}.json")))
    }

    /// The stored result for `case`, when resuming and the case file
    /// exists and parses. A corrupt file is ignored (the case is
    /// recomputed) — atomic writes mean that only happens if someone
    /// edited it by hand.
    pub fn load(&self, case: &str) -> Option<Json> {
        if !self.resume {
            return None;
        }
        let path = self.case_path(case)?;
        let text = std::fs::read_to_string(path).ok()?;
        Json::parse(&text).ok()
    }

    /// Records a completed case crash-safely (no-op without
    /// `--checkpoint-dir`).
    ///
    /// # Panics
    ///
    /// If the checkpoint directory is not writable.
    pub fn store(&self, case: &str, value: &Json) {
        let Some(path) = self.case_path(case) else {
            return;
        };
        let mut text = value.to_string();
        text.push('\n');
        decache_telemetry::write_atomic(&path, text.as_bytes())
            .unwrap_or_else(|e| panic!("checkpointing {case} to {}: {e}", path.display()));
    }

    /// Runs `case` through the checkpoint store: replays the stored
    /// result when resuming (decoded by `decode`), otherwise computes
    /// it with `compute` and stores its `encode`d form before
    /// returning.
    pub fn case<R>(
        &self,
        case: &str,
        decode: impl FnOnce(&Json) -> Result<R, String>,
        compute: impl FnOnce() -> R,
        encode: impl FnOnce(&R) -> Json,
    ) -> R {
        if let Some(stored) = self.load(case) {
            match decode(&stored) {
                Ok(result) => return result,
                Err(e) => eprintln!("checkpoint for {case} ignored: {e}"),
            }
        }
        let result = compute();
        self.store(case, &encode(&result));
        result
    }
}

/// Prints an experiment banner: title and the paper artifact it
/// regenerates.
pub fn banner(title: &str, artifact: &str) {
    println!("=== {title}");
    println!("    regenerates: {artifact}");
    println!();
}

/// Appends one JSON line to the file named by `DECACHE_BENCH_JSON`, if
/// set. All bench records go through this single writer (and the
/// canonical `decache_telemetry::Json` serializer), so the file is
/// uniformly parseable line-by-line. The append is crash-safe
/// (tmp + rename via `decache_telemetry::append_line_atomic`): a bench
/// bin killed mid-record leaves the file with whole lines only.
fn record_line(value: Json) {
    let Ok(path) = std::env::var("DECACHE_BENCH_JSON") else {
        return;
    };
    decache_telemetry::append_line_atomic(&path, &value.to_string())
        .unwrap_or_else(|e| panic!("DECACHE_BENCH_JSON={path}: {e}"));
}

/// The spread of one bench case's per-iteration times, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    mean: f64,
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// The spread of a non-empty set of samples.
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Spread {
            mean: sorted.iter().sum::<f64>() / n as f64,
            median,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// Appends one `{"name", "ns_per_iter", "iters", "median_ns", "min_ns",
/// "max_ns"}` record to the file named by `DECACHE_BENCH_JSON`, if set.
/// `ns_per_iter` is the mean, as in the older records.
fn record_json(name: &str, spread: Spread, iters: u32) {
    // Keep the historical one-decimal rendering of BENCH_simulator.json
    // (`Json::F64` would print the full shortest-round-trip form).
    let ns = |nanos: f64| Json::F64((nanos * 10.0).round() / 10.0);
    record_line(Json::object(vec![
        ("name", Json::Str(name.to_owned())),
        ("ns_per_iter", ns(spread.mean)),
        ("iters", Json::U64(u64::from(iters))),
        ("median_ns", ns(spread.median)),
        ("min_ns", ns(spread.min)),
        ("max_ns", ns(spread.max)),
    ]));
}

/// Appends one JSON record of named numeric metrics to the file named
/// by `DECACHE_BENCH_JSON`, if set: `{"name": …, "<key>": <value>, …}`.
/// The non-timing counterpart of [`time_case`]'s records, for derived
/// quantities (rates, means) that are not raw counters. For full
/// counter dumps, prefer [`record_snapshot`].
pub fn record_metrics(name: &str, fields: &[(&str, f64)]) {
    let mut obj = vec![("name", Json::Str(name.to_owned()))];
    obj.extend(fields.iter().map(|&(key, value)| (key, Json::F64(value))));
    record_line(Json::object(obj));
}

/// Appends one `{"name": …, "snapshot": <MetricsSnapshot>}` record to
/// the file named by `DECACHE_BENCH_JSON`, if set — the one schema for
/// experiment statistics: every counter the machine exposes, in the
/// versioned [`MetricsSnapshot`] form, serialized by the same canonical
/// writer as everything else.
pub fn record_snapshot(name: &str, snapshot: &MetricsSnapshot) {
    record_line(Json::object(vec![
        ("name", Json::Str(name.to_owned())),
        ("snapshot", snapshot.to_json()),
    ]));
}

/// Attaches a Perfetto trace recorder to `builder` iff the
/// `DECACHE_TRACE=<path>` environment knob is set. Pair with
/// [`save_env_trace`] after the run.
pub fn env_trace(builder: &mut MachineBuilder) -> Option<PerfettoTrace> {
    decache_telemetry::env_trace_path()?;
    let trace = PerfettoTrace::with_default_capacity();
    builder.observer(trace.observer());
    Some(trace)
}

/// Writes a trace captured via [`env_trace`] to the `DECACHE_TRACE`
/// path and prints where it went. No-op when `trace` is `None`.
pub fn save_env_trace(trace: &Option<PerfettoTrace>, machine: &Machine) {
    let (Some(trace), Some(path)) = (trace, decache_telemetry::env_trace_path()) else {
        return;
    };
    trace
        .save(machine, &path)
        .unwrap_or_else(|e| panic!("DECACHE_TRACE={}: {e}", path.display()));
    println!(
        "perfetto trace ({} events{}) written to {}",
        trace.len(),
        if trace.dropped() > 0 {
            format!(", {} dropped", trace.dropped())
        } else {
            String::new()
        },
        path.display()
    );
}

/// Times `body` over `iters` iterations after one warmup call, each
/// iteration on its own clock, and prints a `name  median [min–max]`
/// line; the dependency-free stand-in for the former Criterion
/// harness. Returns the mean nanoseconds per iteration so callers can
/// assert coarse regressions if they want.
///
/// Two environment knobs:
///
/// * `DECACHE_BENCH_ITERS=<n>` overrides every case's iteration count —
///   CI smoke runs set it to `1` to type-check and exercise the bench
///   bins without paying for statistics.
/// * `DECACHE_BENCH_JSON=<path>` appends one JSON line per case
///   (`{"name": …, "ns_per_iter": <mean>, "iters": …, "median_ns": …,
///   "min_ns": …, "max_ns": …}`) to `<path>`, so sweeps can be diffed
///   across commits (see `BENCH_simulator.json`).
pub fn time_case<T>(name: &str, iters: u32, mut body: impl FnMut() -> T) -> f64 {
    let iters = match std::env::var("DECACHE_BENCH_ITERS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("DECACHE_BENCH_ITERS={v} is not a number")),
        Err(_) => iters,
    };
    assert!(iters > 0, "at least one iteration");
    std::hint::black_box(body());
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(body());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    let spread = Spread::of(&samples);
    record_json(name, spread, iters);
    let (scale, unit) = if spread.median >= 1_000_000.0 {
        (1_000_000.0, "ms")
    } else if spread.median >= 1_000.0 {
        (1_000.0, "us")
    } else {
        (1.0, "ns")
    };
    println!(
        "{name:<44} {:>10.2} {unit}/iter [{:.2}–{:.2}] ({iters} iters)",
        spread.median / scale,
        spread.min / scale,
        spread.max / scale
    );
    spread.mean
}

#[cfg(test)]
mod tests {
    use super::Spread;

    #[test]
    fn banner_prints() {
        super::banner("test", "artifact");
    }

    #[test]
    fn spread_takes_the_middle_and_the_extremes() {
        let odd = Spread::of(&[5.0, 1.0, 3.0]);
        assert_eq!(
            odd,
            Spread {
                mean: 3.0,
                median: 3.0,
                min: 1.0,
                max: 5.0
            }
        );
        let even = Spread::of(&[4.0, 1.0, 10.0, 2.0]);
        assert_eq!((even.median, even.min, even.max), (3.0, 1.0, 10.0));
        assert_eq!(even.mean, 4.25);
    }

    /// The one test that sets `DECACHE_BENCH_JSON`, so no other test's
    /// cases land in its file.
    #[test]
    fn time_case_records_mean_median_min_and_max() {
        let path = std::env::temp_dir().join(format!("decache-bench-{}.json", std::process::id()));
        std::env::set_var("DECACHE_BENCH_JSON", &path);
        let mut calls = 0u32;
        let mean = super::time_case("sleepy", 4, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(u64::from(calls) * 200));
        });
        std::env::remove_var("DECACHE_BENCH_JSON");
        let text = std::fs::read_to_string(&path).expect("the record was written");
        std::fs::remove_file(&path).expect("temp file removable");
        let record = decache_telemetry::Json::parse(text.trim()).expect("one JSON record");
        let field = |key: &str| record.get(key).and_then(decache_telemetry::Json::as_f64);
        assert_eq!(
            record.get("name").and_then(decache_telemetry::Json::as_str),
            Some("sleepy")
        );
        assert_eq!(field("iters"), Some(4.0));
        let (min, median, max) = (
            field("min_ns").expect("min_ns"),
            field("median_ns").expect("median_ns"),
            field("max_ns").expect("max_ns"),
        );
        // The record rounds to one decimal, and the shortest-round-trip
        // text parses back to that rounded value exactly.
        let recorded_mean = field("ns_per_iter").expect("ns_per_iter");
        assert_eq!(recorded_mean, (mean * 10.0).round() / 10.0, "mean {mean}");
        // Five calls (one warm-up) sleeping 200 µs more each time: the
        // timed four sleep 0.4–1.0 ms.
        assert!(
            400_000.0 <= min && min < median && median < max,
            "{min} {median} {max}"
        );
        assert!(min <= mean && mean <= max);
    }
}
