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
use decache_core::ProtocolKind;
use decache_machine::{MachineBuilder, MachineStats};
use decache_mem::{Addr, AddrRange};
use decache_telemetry::Json;
use decache_workloads::{MixConfig, MixWorkload};
use std::path::PathBuf;

/// Allowed relative growth of a scenario's work units before the gate
/// fails.
const TOLERANCE: f64 = 0.05;

/// The fixed gate scenarios: the mixed workload at three machine sizes
/// for the two headline protocols, same shapes as `rb_scaling` and
/// `section7_128pe`.
const SCENARIOS: &[(&str, ProtocolKind, usize, u64)] = &[
    ("mix_8pe/RB", ProtocolKind::Rb, 8, 300),
    ("mix_8pe/RWB", ProtocolKind::Rwb, 8, 300),
    ("mix_32pe/RB", ProtocolKind::Rb, 32, 300),
    ("mix_32pe/RWB", ProtocolKind::Rwb, 32, 300),
    ("mix_128pe/RB", ProtocolKind::Rb, 128, 300),
    ("mix_128pe/RWB", ProtocolKind::Rwb, 128, 300),
];

fn run_scenario(kind: ProtocolKind, pes: usize, ops: u64) -> (MachineStats, u64) {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: ops,
        ..MixConfig::default()
    };
    let memory_words = (1u64 << 14).max((1088 + pes as u64 * 256).next_power_of_two());
    let mut machine = MachineBuilder::new(kind)
        .memory_words(memory_words)
        .cache_lines(256)
        .processors(pes, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        })
        .build();
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
    for &(name, kind, pes, ops) in SCENARIOS {
        let (stats, cycles) = run_scenario(kind, pes, ops);
        println!(
            "{name:<16} cycles={:>7} tag_probes={:>9} sharer_visits={:>9} queue_scans={:>7} total={:>10}",
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
                println!("{name:<16} golden={golden:>10} current={total:>10} ({delta:+.2}%)");
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
