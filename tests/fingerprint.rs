//! Machine-fingerprint golden test: pins the *complete observable
//! behaviour* of the cycle engine so performance work cannot change a
//! single simulated statistic.
//!
//! For a grid of seeded scenarios × all seven [`ProtocolKind`] variants,
//! the test runs the machine to completion and folds every statistic the
//! machine exposes — elapsed cycles, per-bus traffic by transaction
//! type, per-PE cache hit/miss counters by access kind and reference
//! class, the machine counters (broadcast-satisfied, write-backs,
//! Test-and-Set successes/failures, lock rejections), and a checksum of
//! final memory contents — into one FNV-1a fingerprint. The golden
//! values below were captured from the engine *before* the sharer-index
//! fast path landed; the fast path must be invisible to every one of
//! them.
//!
//! To regenerate after an *intentional* behavioural change, run
//! `DECACHE_FINGERPRINT_PRINT=1 cargo test --test fingerprint -- --nocapture`
//! and paste the printed table.

use decache::cache::{AccessKind, RefClass};
use decache::core::ProtocolKind;
use decache::machine::{Machine, MachineBuilder, Script};
use decache::mem::{Addr, AddrRange, Word};
use decache::workloads::{MixConfig, MixWorkload};

/// The seven protocol variants, in fingerprint order.
const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
];

/// FNV-1a over the rendered statistics dump.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders every statistic of a finished machine into one stable string.
fn dump(machine: &Machine, cycles: u64) -> String {
    use decache::bus::BusOpKind;
    use std::fmt::Write as _;

    let mut out = String::new();
    writeln!(out, "cycles={cycles}").unwrap();
    let per_bus = machine.traffic_per_bus();
    for bus in 0..per_bus.bus_count() {
        let t = per_bus.bus(bus);
        writeln!(
            out,
            "bus{bus}: BR={} BW={} BI={} BRL={} BWU={} aborts={} retries={} busy={} idle={}",
            t.count(BusOpKind::Read),
            t.count(BusOpKind::Write),
            t.count(BusOpKind::Invalidate),
            t.count(BusOpKind::ReadWithLock),
            t.count(BusOpKind::WriteWithUnlock),
            t.aborted_reads,
            t.retries,
            t.busy_cycles,
            t.idle_cycles,
        )
        .unwrap();
    }
    for pe in 0..machine.pe_count() {
        let s = machine.cache_stats(pe);
        write!(out, "pe{pe}:").unwrap();
        for kind in [AccessKind::Read, AccessKind::Write] {
            for class in RefClass::ALL {
                write!(out, " {}/{}", s.hits(kind, class), s.misses(kind, class)).unwrap();
            }
        }
        writeln!(out).unwrap();
    }
    let m = machine.stats();
    writeln!(
        out,
        "machine: bcast={} wb={} ts_ok={} ts_fail={} lockrej={}",
        m.broadcast_satisfied, m.writebacks, m.ts_successes, m.ts_failures, m.lock_rejections
    )
    .unwrap();
    // Memory contents checksum: position-sensitive fold over every word.
    let mut mem_hash = 0xcbf2_9ce4_8422_2325u64;
    for addr in 0..machine.memory().size() {
        let w = machine.memory().peek(Addr::new(addr)).unwrap();
        mem_hash ^= w.value().rotate_left((addr % 63) as u32);
        mem_hash = mem_hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    writeln!(out, "memory={mem_hash:016x}").unwrap();
    out
}

/// One scenario: a named machine constructor.
struct Scenario {
    name: &'static str,
    build: fn(ProtocolKind) -> Machine,
}

/// 8 PEs on the default mixed workload, single bus, small caches so
/// conflict evictions (and write-backs) occur.
fn mix_single_builder(kind: ProtocolKind) -> MachineBuilder {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: 400,
        ..MixConfig::default()
    };
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(1 << 12)
        .cache_lines(64)
        .processors(8, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    builder
}

fn mix_single(kind: ProtocolKind) -> Machine {
    mix_single_builder(kind).build()
}

/// 8 PEs over two interleaved buses.
fn mix_dualbus_builder(kind: ProtocolKind) -> MachineBuilder {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: 300,
        ..MixConfig::default()
    };
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(1 << 12)
        .cache_lines(128)
        .buses(2)
        .processors(8, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    builder
}

fn mix_dualbus(kind: ProtocolKind) -> Machine {
    mix_dualbus_builder(kind).build()
}

/// 8 PEs in 2 clusters: shared refs on the global bus, private refs on
/// the cluster buses.
fn mix_clustered_builder(kind: ProtocolKind) -> MachineBuilder {
    const GLOBAL: u64 = 64;
    let shared = AddrRange::with_len(Addr::new(0), GLOBAL);
    let config = MixConfig {
        ops_per_pe: 300,
        ..MixConfig::default()
    };
    let memory_words = 1u64 << 13;
    let clusters = 2usize;
    let pes = 8usize;
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(memory_words)
        .cache_lines(64)
        .clusters(clusters, GLOBAL);
    builder.processors(pes, |pe| {
        let per_cluster = pes / clusters;
        let cluster_words = (memory_words - GLOBAL) / clusters as u64;
        let base = GLOBAL + (pe / per_cluster) as u64 * cluster_words;
        let slot = (pe % per_cluster) as u64;
        let private = AddrRange::with_len(Addr::new(base + slot * 128), 128);
        Box::new(MixWorkload::with_private_region(
            config, shared, private, pe as u64,
        ))
    });
    builder
}

fn mix_clustered(kind: ProtocolKind) -> Machine {
    mix_clustered_builder(kind).build()
}

/// 4 PEs hammering one lock word with Test-and-Set while touching a few
/// shared words — exercises locked reads, unlocking writes, lock
/// rejections, and TS failures.
fn ts_contention_builder(kind: ProtocolKind) -> MachineBuilder {
    let lock = Addr::new(0);
    let mut builder = MachineBuilder::new(kind);
    builder.memory_words(64).cache_lines(16);
    for pe in 0..4usize {
        let mut script = Script::new();
        for round in 0..6u64 {
            script = script
                .test_and_set(lock, Word::ONE)
                .read(Addr::new(1 + (pe as u64 + round) % 8))
                .write(Addr::new(1 + round % 8), Word::new(pe as u64 * 100 + round))
                .write(lock, Word::ZERO);
        }
        builder.processor(script.build());
    }
    builder
}

fn ts_contention(kind: ProtocolKind) -> Machine {
    ts_contention_builder(kind).build()
}

/// 4 PEs with tiny caches cycling through a region larger than the
/// cache — eviction- and write-back-heavy, with heavy line migration.
fn eviction_churn_builder(kind: ProtocolKind) -> MachineBuilder {
    let mut builder = MachineBuilder::new(kind);
    builder.memory_words(256).cache_lines(8);
    for pe in 0..4usize {
        let mut script = Script::new();
        for i in 0..48u64 {
            let a = Addr::new((i * 7 + pe as u64 * 3) % 64);
            script = if i % 3 == 0 {
                script.write(a, Word::new(i + pe as u64))
            } else {
                script.read(a)
            };
        }
        builder.processor(script.build());
    }
    builder
}

fn eviction_churn(kind: ProtocolKind) -> Machine {
    eviction_churn_builder(kind).build()
}

/// 128 PEs on the mixed workload over one bus — the paper's §7 scale.
/// Large-n coverage for the deferred broadcast path (every other
/// scenario is small-n).
fn mix_128pe(kind: ProtocolKind) -> Machine {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: 60,
        ..MixConfig::default()
    };
    // Memory must cover every PE's private region (see MixWorkload::new).
    let memory_words = (1u64 << 14).max((1088 + 128u64 * 256).next_power_of_two());
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(memory_words)
        .cache_lines(256)
        .processors(128, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    builder.build()
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "mix_single",
        build: mix_single,
    },
    Scenario {
        name: "mix_dualbus",
        build: mix_dualbus,
    },
    Scenario {
        name: "mix_clustered",
        build: mix_clustered,
    },
    Scenario {
        name: "ts_contention",
        build: ts_contention,
    },
    Scenario {
        name: "eviction_churn",
        build: eviction_churn,
    },
    Scenario {
        name: "mix_128pe",
        build: mix_128pe,
    },
];

/// Golden fingerprints captured from the pre-optimization engine
/// (rows: scenario; columns: the seven protocols in `PROTOCOLS` order).
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 7]); 6] = [
    ("mix_single", [0x636d5a182cc03c6c, 0x0dcfcc4b752adba9, 0xac24686ff847893c, 0x4398f6f33868cb32, 0x457c0946a3ec3baa, 0x69eca5b8cf8e6847, 0x734b3f48eeeec781]),
    ("mix_dualbus", [0x19c17eb2a87033c0, 0x3f8e376bdfc16e89, 0xc6a406c794b2b991, 0x11f01a82e70a7482, 0x6c3a98743900fa3a, 0xf52cb474e4d6c471, 0x569af8055d022000]),
    ("mix_clustered", [0x9fcfb04e0dfd63b2, 0x3cbc8fb1e23a3055, 0xcca416d13c172d5d, 0x328f83a224abe505, 0x315dc7ba6093e22f, 0x3c0291232dfe0544, 0x4111bbb37c0bc4dd]),
    ("ts_contention", [0xa73bbda14da1f1b4, 0xa73bbda14da1f1b4, 0xfb6d0ccb464e2e25, 0xbda95245f6865ec2, 0x66be13973f1cac59, 0x66be13973f1cac59, 0x66be13973f1cac59]),
    ("eviction_churn", [0xc4351197056304ec, 0xc4351197056304ec, 0x0b15d5de758b6bf4, 0x1016366c2f145d1d, 0x0b15d5de758b6bf4, 0x0b15d5de758b6bf4, 0x0b15d5de758b6bf4]),
    ("mix_128pe", [0xec9052056162eda5, 0xf065c988e81804ff, 0x6b680dfd553494e8, 0x9eab946c3805b74f, 0x1ca71498e80f7161, 0x9b7086944ffaafa1, 0xc87b4e3389d3bcb9]),
];

/// Golden fingerprints for the table-driven MESI (rows: scenario).
/// Kept separate from [`GOLDEN`]: those columns pin the pre-optimization
/// engine and must never be regenerated for a protocol addition.
/// Captured the same way, with
/// `DECACHE_FINGERPRINT_PRINT=1 cargo test --test fingerprint -- --nocapture`.
#[rustfmt::skip]
const MESI_GOLDEN: [(&str, u64); 6] = [
    ("mix_single", 0xdaaedc3b8cded7bb),
    ("mix_dualbus", 0xf7786afab9ed5e2f),
    ("mix_clustered", 0xc0437050a5e398f5),
    ("ts_contention", 0x8fa3b6f530112c19),
    ("eviction_churn", 0x0b15d5de758b6bf4),
    ("mix_128pe", 0x6d194f5bebc80ce7),
];

/// The non-default service disciplines, in discipline-golden column
/// order. The default (per-cycle) columns are pinned by [`GOLDEN`].
const DISCIPLINES: [decache::bus::ServiceDiscipline; 3] = [
    decache::bus::ServiceDiscipline::Fcfs,
    decache::bus::ServiceDiscipline::Batched,
    decache::bus::ServiceDiscipline::Split,
];

/// A scenario constructor that stops at the builder, so the discipline
/// tests can set the service discipline before building.
type BuilderFn = fn(ProtocolKind) -> MachineBuilder;

/// The builder-returning scenarios the discipline goldens run (RWB
/// only — the headline protocol; the full protocol grid under the
/// default discipline is already pinned above).
const DISCIPLINE_SCENARIOS: [(&str, BuilderFn); 5] = [
    ("mix_single", mix_single_builder),
    ("mix_dualbus", mix_dualbus_builder),
    ("mix_clustered", mix_clustered_builder),
    ("ts_contention", ts_contention_builder),
    ("eviction_churn", eviction_churn_builder),
];

/// Golden fingerprints per discipline (rows: scenario; columns: the
/// disciplines in [`DISCIPLINES`] order), captured with
/// `DECACHE_FINGERPRINT_PRINT=1 cargo test --test fingerprint -- --nocapture`.
#[rustfmt::skip]
const DISCIPLINE_GOLDEN: [(&str, [u64; 3]); 5] = [
    ("mix_single", [0x9751aa1f8008f4ad, 0xf3c09c65ccdfbdc1, 0x1941adb885cfa5ce]),
    ("mix_dualbus", [0x81989da7033c6c4e, 0xb1357106a9049459, 0xddba787b37ca9b94]),
    ("mix_clustered", [0xed647a2eb5b88a65, 0x5f9569007fb0b36d, 0x311055238a6670b6]),
    ("ts_contention", [0xb66010c7d7c5826a, 0xb66010c7d7c5826a, 0xf5af4dc29f8e9d89]),
    ("eviction_churn", [0xb49e96fe8be783c6, 0xb49e96fe8be783c6, 0x96192ce7e74efc00]),
];

fn fingerprint(scenario: &Scenario, kind: ProtocolKind) -> (u64, String) {
    let mut machine = (scenario.build)(kind);
    let cycles = machine.run_to_completion(50_000_000);
    let text = dump(&machine, cycles);
    (fnv1a(&text), text)
}

/// Attaching the conformance oracle must not move a single statistic:
/// observers are pure, so the oracle-instrumented run reproduces the
/// exact same golden fingerprints — and conforms to the product model.
#[test]
fn conformance_oracle_is_invisible_to_fingerprints() {
    use decache::verify::Refinement;
    // The two single-bus scenarios with the densest protocol activity
    // (locked reads, unlocking writes, evictions, write-backs).
    for (scenario, golden) in SCENARIOS.iter().zip(GOLDEN.iter()) {
        if !matches!(scenario.name, "ts_contention" | "eviction_churn") {
            continue;
        }
        for (&kind, &expect) in PROTOCOLS.iter().zip(golden.1.iter()) {
            let mut machine = (scenario.build)(kind);
            let oracle = Refinement::new(kind, machine.pe_count());
            machine.attach_observer(oracle.observer());
            let cycles = machine.run_to_completion(50_000_000);
            let text = dump(&machine, cycles);
            assert_eq!(
                fnv1a(&text),
                expect,
                "the oracle perturbed scenario '{}' under {kind:?};\nfull dump:\n{text}",
                scenario.name
            );
            assert!(oracle.checked_steps() > 0);
            oracle.assert_clean();
        }
    }
}

/// A zero-rate [`FaultPlan`] must be free: the fault engine is armed
/// but never draws, so the instrumented run is bit-identical to the
/// golden fingerprints.
#[test]
fn inert_fault_plan_is_invisible_to_fingerprints() {
    use decache::machine::FaultPlan;
    for (scenario_name, builder_fn) in [
        (
            "ts_contention",
            ts_contention_builder as fn(ProtocolKind) -> MachineBuilder,
        ),
        ("eviction_churn", eviction_churn_builder),
    ] {
        let golden = GOLDEN
            .iter()
            .find(|(name, _)| *name == scenario_name)
            .expect("scenario present in the golden table");
        for (&kind, &expect) in PROTOCOLS.iter().zip(golden.1.iter()) {
            let mut builder = builder_fn(kind);
            builder.fault_plan(FaultPlan::new(0xFEED));
            let mut machine = builder.build();
            let cycles = machine.run_to_completion(50_000_000);
            let text = dump(&machine, cycles);
            assert_eq!(
                fnv1a(&text),
                expect,
                "an inert fault plan perturbed scenario '{scenario_name}' \
                 under {kind:?};\nfull dump:\n{text}"
            );
            assert_eq!(machine.fault_stats().total_injected(), 0);
        }
    }
}

/// Enabling telemetry must not move a single statistic: histogram
/// recording is pure observation behind the builder gate, so the
/// telemetry-enabled run reproduces the exact golden fingerprints —
/// while the cycle-attribution histograms populate and the unified
/// snapshot passes its conservation audit.
#[test]
fn telemetry_is_invisible_to_fingerprints() {
    use decache::telemetry::MetricsSnapshot;
    for (scenario_name, builder_fn) in [
        (
            "ts_contention",
            ts_contention_builder as fn(ProtocolKind) -> MachineBuilder,
        ),
        ("eviction_churn", eviction_churn_builder),
    ] {
        let golden = GOLDEN
            .iter()
            .find(|(name, _)| *name == scenario_name)
            .expect("scenario present in the golden table");
        for (&kind, &expect) in PROTOCOLS.iter().zip(golden.1.iter()) {
            let mut builder = builder_fn(kind);
            builder.telemetry();
            let mut machine = builder.build();
            let cycles = machine.run_to_completion(50_000_000);
            let text = dump(&machine, cycles);
            assert_eq!(
                fnv1a(&text),
                expect,
                "telemetry perturbed scenario '{scenario_name}' under \
                 {kind:?};\nfull dump:\n{text}"
            );
            let hist = machine.histograms().expect("telemetry is enabled");
            assert!(hist.bus_acquire_wait.count() > 0, "histograms populated");
            let snapshot = MetricsSnapshot::from_machine(&machine);
            snapshot.check_conservation().unwrap_or_else(|violations| {
                panic!(
                    "conservation violated in '{scenario_name}' under \
                     {kind:?}:\n  {}",
                    violations.join("\n  ")
                )
            });
        }
    }
}

/// The table-driven MESI — executed by the generic rule interpreter
/// from pure IR data — is deterministic across the full scenario grid,
/// pinned by its own golden table so interpreter work cannot silently
/// change a MESI statistic.
#[test]
fn mesi_fingerprints_match_seeded_goldens() {
    let print_mode = std::env::var("DECACHE_FINGERPRINT_PRINT").is_ok();
    for (scenario, golden) in SCENARIOS.iter().zip(MESI_GOLDEN.iter()) {
        assert_eq!(
            scenario.name, golden.0,
            "scenario/MESI-golden tables out of sync"
        );
        let (hash, text) = fingerprint(scenario, ProtocolKind::Mesi);
        if print_mode {
            println!("    (\"{}\", 0x{hash:016x}),", scenario.name);
            continue;
        }
        assert_eq!(
            hash, golden.1,
            "MESI fingerprint drift in scenario '{}' \
             (got 0x{hash:016x}, want 0x{:016x});\nfull dump:\n{text}",
            scenario.name, golden.1
        );
    }
}

/// Each non-default service discipline is deterministic and pinned by
/// its own golden table; the default-discipline goldens above stay
/// bit-identical, so this table only moves when a discipline's own
/// semantics intentionally change.
#[test]
fn discipline_fingerprints_match_seeded_goldens() {
    let print_mode = std::env::var("DECACHE_FINGERPRINT_PRINT").is_ok();
    for ((name, builder_fn), golden) in DISCIPLINE_SCENARIOS.iter().zip(DISCIPLINE_GOLDEN.iter()) {
        assert_eq!(
            *name, golden.0,
            "scenario/discipline-golden tables out of sync"
        );
        let mut row = Vec::new();
        for (&discipline, &expect) in DISCIPLINES.iter().zip(golden.1.iter()) {
            let mut builder = builder_fn(ProtocolKind::Rwb);
            // Two-cycle transactions create the contention windows in
            // which the disciplines actually order grants differently.
            builder.discipline(discipline).transaction_cycles(2);
            let mut machine = builder.build();
            let cycles = machine.run_to_completion(50_000_000);
            let text = dump(&machine, cycles);
            let hash = fnv1a(&text);
            row.push(format!("0x{hash:016x}"));
            if !print_mode {
                assert_eq!(
                    hash, expect,
                    "discipline fingerprint drift in '{name}' under {discipline};\nfull dump:\n{text}"
                );
            }
        }
        if print_mode {
            println!("    (\"{name}\", [{}]),", row.join(", "));
        }
    }
}

/// The conformance oracle stays invisible — and clean — under every
/// non-default discipline: arbitration order and split phasing change
/// *when* transactions happen, never *what* the protocol does, so the
/// instrumented run reproduces the discipline goldens exactly and
/// refines the product model.
#[test]
fn conformance_oracle_is_invisible_under_disciplines() {
    use decache::verify::Refinement;
    let golden = DISCIPLINE_GOLDEN
        .iter()
        .find(|(name, _)| *name == "ts_contention")
        .expect("scenario present in the discipline-golden table");
    for (&discipline, &expect) in DISCIPLINES.iter().zip(golden.1.iter()) {
        let mut builder = ts_contention_builder(ProtocolKind::Rwb);
        builder.discipline(discipline).transaction_cycles(2);
        let mut machine = builder.build();
        let oracle = Refinement::new(ProtocolKind::Rwb, machine.pe_count());
        machine.attach_observer(oracle.observer());
        let cycles = machine.run_to_completion(50_000_000);
        let text = dump(&machine, cycles);
        assert_eq!(
            fnv1a(&text),
            expect,
            "the oracle perturbed ts_contention under {discipline};\nfull dump:\n{text}"
        );
        assert!(oracle.checked_steps() > 0);
        oracle.assert_clean();
    }
}

#[test]
fn machine_fingerprints_match_pre_optimization_goldens() {
    let print_mode = std::env::var("DECACHE_FINGERPRINT_PRINT").is_ok();
    for (scenario, golden) in SCENARIOS.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            scenario.name, golden.0,
            "scenario/golden tables out of sync"
        );
        if print_mode {
            let prints: Vec<String> = PROTOCOLS
                .iter()
                .map(|&kind| format!("0x{:016x}", fingerprint(scenario, kind).0))
                .collect();
            println!("    (\"{}\", [{}]),", scenario.name, prints.join(", "));
            continue;
        }
        for (&kind, &expect) in PROTOCOLS.iter().zip(golden.1.iter()) {
            let (hash, text) = fingerprint(scenario, kind);
            assert_eq!(
                hash, expect,
                "fingerprint drift in scenario '{}' under {kind:?} \
                 (got 0x{hash:016x}, want 0x{expect:016x});\nfull dump:\n{text}",
                scenario.name
            );
        }
    }
}
