//! The work-unit regression gate: deterministic engine-work counters
//! (`tag_probes`, `sharer_visits`, `queue_scans`) per fixed scenario,
//! compared against the committed goldens in `WORKUNITS.json`.
//!
//! Wall-clock gates are too flaky for CI; work units are exact — the
//! counters are deterministic per scenario and identical across every
//! engine path (scanned or deferred broadcast) by construction. A change that makes the simulated
//! machine do more work (more misses, more sharer fan-out, more
//! arbitration) moves them; a pure engine optimization does not.
//!
//! * `cargo run -p decache-bench --bin workunit_gate` — check: fail if
//!   any scenario's total exceeds its golden by more than 5% (or is
//!   missing from the goldens).
//! * `… --bin workunit_gate -- --update` — rewrite `WORKUNITS.json`
//!   from the current engine.

use decache_bench::banner;
use decache_core::ProtocolKind::{self, Rb, Rwb};
use decache_machine::{MachineBuilder, MachineStats};
use decache_mem::{Addr, AddrRange};
use decache_telemetry::Json;
use decache_workloads::{MixConfig, MixWorkload};
use std::path::PathBuf;

/// Allowed relative growth of a scenario's work units before the gate
/// fails.
const TOLERANCE: f64 = 0.05;

/// How a scenario's PEs reach memory.
#[derive(Clone, Copy)]
enum Buses {
    /// `n` buses interleaved on the low address bits (1 = one bus).
    Interleaved(usize),
    /// A global bus for the shared words plus `n` cluster buses.
    Clustered(usize),
}

/// The fixed gate scenarios: the mixed workload at three machine sizes
/// for the two headline protocols on one bus (same shapes as
/// `rb_scaling` and `section7_128pe`), RWB over Figure 7-1's sixteen
/// interleaved buses (the `warm_64x16` benchmark's shape), and RB on a
/// four-cluster hierarchy.
const SCENARIOS: &[(&str, ProtocolKind, usize, Buses)] = &[
    ("mix_8pe/RB", Rb, 8, Buses::Interleaved(1)),
    ("mix_8pe/RWB", Rwb, 8, Buses::Interleaved(1)),
    ("mix_32pe/RB", Rb, 32, Buses::Interleaved(1)),
    ("mix_32pe/RWB", Rwb, 32, Buses::Interleaved(1)),
    ("mix_128pe/RB", Rb, 128, Buses::Interleaved(1)),
    ("mix_128pe/RWB", Rwb, 128, Buses::Interleaved(1)),
    ("mix_64pe_16bus/RWB", Rwb, 64, Buses::Interleaved(16)),
    ("mix_32pe_4cluster/RB", Rb, 32, Buses::Clustered(4)),
];

/// References per PE in every scenario.
const OPS_PER_PE: u64 = 300;

/// The shared words, and on clustered machines the global region.
const SHARED_WORDS: u64 = 64;

fn run_scenario(kind: ProtocolKind, pes: usize, buses: Buses) -> (MachineStats, u64) {
    let shared = AddrRange::with_len(Addr::new(0), SHARED_WORDS);
    let config = MixConfig {
        ops_per_pe: OPS_PER_PE,
        ..MixConfig::default()
    };
    let memory_words = (1u64 << 14).max((1088 + pes as u64 * 256).next_power_of_two());
    let mut builder = MachineBuilder::new(kind);
    builder.memory_words(memory_words).cache_lines(256);
    match buses {
        Buses::Interleaved(n) => {
            builder.buses(n).processors(pes, |pe| {
                Box::new(MixWorkload::new(config, shared, pe as u64))
            });
        }
        Buses::Clustered(clusters) => {
            // Each PE's private words lie in its own cluster's region.
            let cluster_words = (memory_words - SHARED_WORDS) / clusters as u64;
            let per_cluster = pes / clusters;
            builder
                .clusters(clusters, SHARED_WORDS)
                .processors(pes, |pe| {
                    let base = SHARED_WORDS + (pe / per_cluster) as u64 * cluster_words;
                    let slot = (pe % per_cluster) as u64;
                    let private = AddrRange::with_len(Addr::new(base + slot * 256), 256);
                    Box::new(MixWorkload::with_private_region(
                        config, shared, private, pe as u64,
                    ))
                });
        }
    }
    let mut machine = builder.build();
    let cycles = machine.run_to_completion(100_000_000);
    (machine.stats(), cycles)
}

fn goldens_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../WORKUNITS.json")
}

fn main() {
    banner(
        "work-unit gate",
        "deterministic engine-work counters vs WORKUNITS.json",
    );
    let update = std::env::args().any(|a| a == "--update");
    let path = goldens_path();

    let mut rows = Vec::new();
    for &(name, kind, pes, buses) in SCENARIOS {
        let (stats, cycles) = run_scenario(kind, pes, buses);
        println!(
            "{name:<20} cycles={:>7} tag_probes={:>9} sharer_visits={:>9} queue_scans={:>7} total={:>10}",
            cycles,
            stats.tag_probes,
            stats.sharer_visits,
            stats.queue_scans,
            stats.work_units()
        );
        rows.push((name, stats));
    }

    if update {
        let entries = rows
            .iter()
            .map(|(name, stats)| {
                Json::object(vec![
                    ("name", Json::Str((*name).to_owned())),
                    ("tag_probes", Json::U64(stats.tag_probes)),
                    ("sharer_visits", Json::U64(stats.sharer_visits)),
                    ("queue_scans", Json::U64(stats.queue_scans)),
                    ("work_units", Json::U64(stats.work_units())),
                ])
            })
            .collect();
        std::fs::write(&path, format!("{}\n", Json::Array(entries)))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("\ngoldens rewritten: {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with --update to create the goldens",
            path.display()
        )
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let Json::Array(entries) = &doc else {
        panic!("{}: expected a JSON array", path.display());
    };
    let golden_total = |name: &str| -> Option<u64> {
        entries.iter().find_map(|e| {
            (e.get("name").and_then(Json::as_str) == Some(name))
                .then(|| e.get("work_units").and_then(Json::as_u64))
                .flatten()
        })
    };

    let mut failures = Vec::new();
    println!();
    for (name, stats) in &rows {
        let total = stats.work_units();
        match golden_total(name) {
            None => failures.push(format!("{name}: no golden (run --update)")),
            Some(golden) => {
                let limit = (golden as f64 * (1.0 + TOLERANCE)).floor() as u64;
                let delta = 100.0 * (total as f64 - golden as f64) / golden as f64;
                println!("{name:<20} golden={golden:>10} current={total:>10} ({delta:+.2}%)");
                if total > limit {
                    failures.push(format!(
                        "{name}: {total} work units exceeds golden {golden} by {delta:.2}% (> {:.0}%)",
                        TOLERANCE * 100.0
                    ));
                }
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("\nwork-unit gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nwork-unit gate passed ({} scenarios)", rows.len());
}
