//! Seeded randomized invariant tests for the cycle engine's fast
//! paths: at any point during any run, the sharer/supplier indexes
//! must equal the sets recomputed by a brute-force scan of all tag
//! stores, the scheduler's idle/done/pending-read bookkeeping must
//! match the PE statuses it summarizes, the bus queues' lane
//! invariants must hold, and the wake schedule must be sane
//! ([`Machine::assert_fast_path_invariants`] performs the brute-force
//! comparison). A second test pins the wake schedule's *semantics*:
//! a run that bulk-skips dead cycles must be indistinguishable —
//! cycle count, every statistic, every cache line, all of memory —
//! from the same machine single-stepped. The rest pin the deferred
//! broadcast path to the per-sharer scan it replaces.
//!
//! Runs under `decache_rng::testing::check`, so a divergence prints a
//! replayable seed (`DECACHE_TEST_SEED=<seed>`); `DECACHE_TEST_CASES`
//! widens the corpus when hunting rare interleavings.

use decache_bus::ServiceDiscipline;
use decache_core::ProtocolKind;
use decache_machine::{FaultPlan, Machine, MachineBuilder, Script};
use decache_mem::{Addr, Word};
use decache_rng::Rng;

const PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

const MEMORY_WORDS: u64 = 256;
const GLOBAL_WORDS: u64 = 64;

/// The bus shapes a random machine may take.
#[derive(Clone, Copy)]
enum Shape {
    Single,
    Interleaved(usize),
    Clustered(usize),
}

/// A random address the given PE is allowed to touch under `shape`
/// (clustered machines impose the hierarchy's region discipline:
/// global words plus the PE's own cluster slice).
fn random_addr(rng: &mut Rng, shape: Shape, pe: usize, pes: usize) -> Addr {
    match shape {
        Shape::Single | Shape::Interleaved(_) => {
            if rng.gen_bool(0.7) {
                // Hot shared region: forces migration and invalidation.
                Addr::new(rng.gen_range(0..GLOBAL_WORDS))
            } else {
                Addr::new(rng.gen_range(0..MEMORY_WORDS))
            }
        }
        Shape::Clustered(clusters) => {
            if rng.gen_bool(0.5) {
                Addr::new(rng.gen_range(0..GLOBAL_WORDS))
            } else {
                let cluster = pe / (pes / clusters);
                let cluster_words = (MEMORY_WORDS - GLOBAL_WORDS) / clusters as u64;
                let base = GLOBAL_WORDS + cluster as u64 * cluster_words;
                Addr::new(base + rng.gen_range(0..cluster_words))
            }
        }
    }
}

/// Builds a machine with random protocol, PE count, bus shape, cache
/// size, and per-PE scripts mixing reads, writes, and Test-and-Set.
fn build_random(rng: &mut Rng) -> Machine {
    build_random_config(rng, None)
}

/// [`build_random`] with an optional seeded fault storm (memory/cache
/// flips, bus losses, fail stops) layered on the same drawn
/// configuration — the RNG draw sequence is untouched, so one seed
/// pins one machine under every engine path.
fn build_random_config(rng: &mut Rng, fault_seed: Option<u64>) -> Machine {
    let kind = *rng.choose(&PROTOCOLS);
    let shape = *rng.choose(&[
        Shape::Single,
        Shape::Interleaved(2),
        Shape::Interleaved(4),
        Shape::Clustered(2),
    ]);
    let pes = match shape {
        Shape::Clustered(clusters) => clusters * rng.gen_range(1usize..4),
        _ => rng.gen_range(1usize..9),
    };
    // Tiny caches so conflict evictions churn the sharer index.
    let cache_lines = *rng.choose(&[4usize, 8, 16]);
    // Multi-cycle transactions create bus-held dead spans, the case
    // the wake schedule bulk-skips.
    let transaction_cycles = rng.gen_range(1u64..5);
    // Every service discipline, so the equivalence corpora cover the
    // FCFS arrival lane, batched grant gating, and split in-flight
    // phases alongside the default per-cycle arbitration.
    let discipline = *rng.choose(&ServiceDiscipline::ALL);

    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(MEMORY_WORDS)
        .cache_lines(cache_lines)
        .transaction_cycles(transaction_cycles)
        .discipline(discipline);
    match shape {
        Shape::Single => {}
        Shape::Interleaved(buses) => {
            builder.buses(buses);
        }
        Shape::Clustered(clusters) => {
            builder.clusters(clusters, GLOBAL_WORDS);
        }
    }
    for pe in 0..pes {
        let ops = rng.gen_range(10u64..60);
        let mut script = Script::new();
        for i in 0..ops {
            let addr = random_addr(rng, shape, pe, pes);
            script = match rng.gen_range(0..10u32) {
                0 => script.test_and_set(addr, Word::ONE),
                1..=4 => script.write(addr, Word::new(pe as u64 * 1000 + i)),
                _ => script.read(addr),
            };
        }
        builder.processor(script.build());
    }
    if let Some(seed) = fault_seed {
        builder.fault_plan(
            FaultPlan::new(seed)
                .memory_flip_rate(0.01)
                .cache_flip_rate(0.01)
                .bus_loss_rate(0.005)
                .fail_stop_rate(0.002),
        );
    }
    builder.build()
}

/// Asserts two finished machines agree on everything observable:
/// cycle count, machine/fault/cache/traffic statistics (per bus and
/// per PE, work-unit counters included via `MachineStats`'s equality),
/// every cache line, and all of memory.
fn assert_observably_identical(a: &Machine, b: &Machine, what: &str, seed: u64) {
    assert_eq!(a.cycles(), b.cycles(), "{what}: cycles (seed {seed})");
    assert_eq!(a.stats(), b.stats(), "{what}: machine stats (seed {seed})");
    assert_eq!(
        a.fault_stats(),
        b.fault_stats(),
        "{what}: fault stats (seed {seed})"
    );
    assert_eq!(a.traffic(), b.traffic(), "{what}: traffic (seed {seed})");
    for bus in 0..a.bus_count() {
        assert_eq!(
            a.traffic_per_bus().bus(bus),
            b.traffic_per_bus().bus(bus),
            "{what}: bus {bus} accounting (seed {seed})"
        );
    }
    for pe in 0..a.pe_count() {
        assert_eq!(
            a.cache_stats(pe),
            b.cache_stats(pe),
            "{what}: P{pe} cache stats (seed {seed})"
        );
    }
    for word in 0..a.memory().size() {
        let addr = Addr::new(word);
        assert_eq!(
            a.snapshot(addr),
            b.snapshot(addr),
            "{what}: {addr} (seed {seed})"
        );
    }
}

#[test]
fn sharer_index_matches_brute_force_recompute() {
    // NOTE: `machine.run(burst)` below drives the wake-schedule
    // engine, so the invariant assertions land mid-run at arbitrary
    // points between bulk skips.
    decache_rng::testing::check("fast_path_invariants", 64, |rng| {
        let mut machine = build_random(rng);
        machine.assert_fast_path_invariants();
        let mut budget = 100_000u64;
        while !machine.is_done() && budget > 0 {
            let burst = rng.gen_range(1u64..64);
            machine.run(burst.min(budget));
            budget = budget.saturating_sub(burst);
            machine.assert_fast_path_invariants();
        }
        assert!(machine.is_done(), "random machine failed to terminate");
        machine.assert_fast_path_invariants();
    });
}

/// Two machines built from the same seed, one single-stepped and one
/// driven through [`Machine::run`]'s dead-cycle-skipping wake
/// schedule in random bursts, must agree on everything observable:
/// cycle count, machine/cache/traffic statistics (per bus), every
/// cache line, and all of memory. Covers all 7 protocols, every bus
/// shape, and transaction_cycles 1..=4 via `build_random`.
#[test]
fn wake_schedule_matches_single_stepping() {
    decache_rng::testing::check("wake_schedule_equivalence", 48, |rng| {
        let seed = rng.next_u64();
        let mut stepped = build_random(&mut Rng::from_seed(seed));
        let mut jumped = build_random(&mut Rng::from_seed(seed));

        let mut guard = 0u64;
        while !stepped.is_done() {
            stepped.step();
            guard += 1;
            assert!(guard < 200_000, "random machine failed to terminate");
        }

        while !jumped.is_done() {
            let burst = rng.gen_range(1u64..128);
            jumped.run(burst);
            jumped.assert_fast_path_invariants();
            assert!(
                jumped.cycles() <= stepped.cycles(),
                "wake schedule overshot the completion cycle"
            );
        }

        assert_eq!(jumped.cycles(), stepped.cycles(), "seed {seed}");
        assert_eq!(jumped.stats(), stepped.stats(), "seed {seed}");
        assert_eq!(jumped.traffic(), stepped.traffic(), "seed {seed}");
        for bus in 0..stepped.bus_count() {
            assert_eq!(
                jumped.traffic_per_bus().bus(bus),
                stepped.traffic_per_bus().bus(bus),
                "bus {bus} accounting diverged (seed {seed})"
            );
        }
        for pe in 0..stepped.pe_count() {
            assert_eq!(
                jumped.cache_stats(pe),
                stepped.cache_stats(pe),
                "P{pe} cache stats diverged (seed {seed})"
            );
        }
        for word in 0..MEMORY_WORDS {
            let addr = Addr::new(word);
            assert_eq!(
                jumped.snapshot(addr),
                stepped.snapshot(addr),
                "{addr} diverged (seed {seed})"
            );
        }
    });
}

/// Two machines from the same seed, one on the default snoop dispatch
/// (deferred where the shape allows) and one forced onto the
/// per-sharer scan path, must agree on everything observable —
/// including the work-unit counters, which count logical work and so
/// must be path-independent. A third of the corpus layers a fault storm
/// on both machines: faults force the scan path at runtime, so the
/// dispatcher's fallback is exercised too, and the fault histories must
/// coincide exactly. Covers all 7 paper protocols, MESI, and every bus
/// shape via `build_random_config`; the corpus as a whole must actually
/// defer and materialize lines.
#[test]
fn deferred_broadcast_matches_forced_scan() {
    let mut materialized = 0;
    decache_rng::testing::check("deferred_vs_scan", 64, |rng| {
        let seed = rng.next_u64();
        let fault_seed = rng.gen_bool(0.33).then(|| rng.next_u64());
        let mut deferred = build_random_config(&mut Rng::from_seed(seed), fault_seed);
        let mut scanned = build_random_config(&mut Rng::from_seed(seed), fault_seed);
        scanned.force_scan_snoop();

        assert!(
            deferred.run(300_000),
            "deferred machine failed to terminate"
        );
        assert!(scanned.run(300_000), "scanned machine failed to terminate");
        deferred.assert_fast_path_invariants();
        scanned.assert_fast_path_invariants();
        assert_observably_identical(&deferred, &scanned, "deferred vs scan", seed);
        assert_eq!(scanned.materializations(), 0, "the scan path deferred");
        materialized += deferred.materializations();
    });
    assert!(materialized > 0, "no case deferred a broadcast");
}

/// Deferred and scan machines from the same seed, stepped side by side
/// one cycle at a time. After every step each machine's invariant check
/// materializes every line and checks the supplier index against the
/// materialized states; at seeded cycles the two machines' checkpoints
/// (every line written in its materialized form) must be equal. The
/// shapes are fault-free, so the deferred machine never falls back.
#[test]
fn deferred_and_scan_machines_agree_at_every_step() {
    decache_rng::testing::check("deferred_vs_scan_stepped", 32, |rng| {
        let seed = rng.next_u64();
        let mut deferred = build_random(&mut Rng::from_seed(seed));
        let mut scanned = build_random(&mut Rng::from_seed(seed));
        scanned.force_scan_snoop();
        let mut steps = 0u64;
        while !deferred.is_done() {
            deferred.step();
            scanned.step();
            deferred.assert_fast_path_invariants();
            scanned.assert_fast_path_invariants();
            if rng.gen_bool(0.05) || deferred.is_done() {
                assert_eq!(
                    deferred.checkpoint().expect("script machines checkpoint"),
                    scanned.checkpoint().expect("script machines checkpoint"),
                    "checkpoints differ after cycle {} (seed {seed})",
                    deferred.cycles()
                );
            }
            steps += 1;
            assert!(steps < 200_000, "random machine failed to terminate");
        }
        assert!(
            scanned.is_done(),
            "scan machine still running (seed {seed})"
        );
        assert_observably_identical(&deferred, &scanned, "stepped deferred vs scan", seed);
    });
}

/// A 64-PE RB machine whose PEs share a handful of hot words: the
/// deferred path must log broadcasts that most holders never read, so
/// far fewer lines materialize than the logical sharer visits — with
/// every statistic and line equal to the scan path's.
#[test]
fn deferred_broadcasts_materialize_far_fewer_lines_than_they_visit() {
    let build = || -> Machine {
        let mut builder = MachineBuilder::new(ProtocolKind::Rb);
        builder.memory_words(1 << 12).cache_lines(64);
        for pe in 0..64u64 {
            let mut script = Script::new();
            for i in 0..48u64 {
                let hot = Addr::new(i % 4);
                script = if (i + pe).is_multiple_of(16) {
                    script.write(hot, Word::new(pe * 1000 + i))
                } else {
                    script.read(hot)
                };
            }
            builder.processor(script.build());
        }
        builder.build()
    };
    let mut deferred = build();
    let mut scanned = build();
    scanned.force_scan_snoop();
    assert!(deferred.run(1_000_000) && scanned.run(1_000_000));
    deferred.assert_fast_path_invariants();
    assert_observably_identical(&deferred, &scanned, "hot words at 64 PEs", 0);
    let visits = deferred.stats().sharer_visits;
    assert!(
        deferred.materializations() > 0 && deferred.materializations() * 4 < visits,
        "{} materializations for {visits} sharer visits",
        deferred.materializations()
    );
}
