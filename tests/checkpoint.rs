//! Restore-equivalence suite: proves [`Machine::checkpoint`] /
//! [`Machine::restore`] capture the *complete* run state, for every
//! protocol.
//!
//! The property: running a machine N cycles must be indistinguishable
//! from running N/2 cycles, checkpointing, serializing the checkpoint
//! through the telemetry JSON codec, restoring into a *freshly built*
//! machine, and running the rest — down to the last statistic the
//! machine exposes (the same `dump` rendering `tests/fingerprint.rs`
//! pins with goldens). The grid covers all eight protocols × single
//! bus, interleaved dual bus, an *active* fault storm, and telemetry
//! recording.
//!
//! Two golden checkpoint files (2-PE RB and RWB) are committed under
//! `tests/golden/`; they pin the on-disk format at
//! [`CHECKPOINT_VERSION`]. Regenerate after an *intentional* format
//! change (with a version bump) via
//! `DECACHE_CHECKPOINT_PRINT=1 cargo test --test checkpoint`.

use decache::bus::ServiceDiscipline;
use decache::cache::{AccessKind, RefClass};
use decache::core::{LineState, ProtocolKind};
use decache::machine::{
    CheckpointError, FaultPlan, Machine, MachineBuilder, MachineCheckpoint, OpResult, Poll,
    RestoreError, Script, CHECKPOINT_VERSION,
};
use decache::mem::{Addr, AddrRange, Word};
use decache::telemetry::{
    checkpoint_from_json, checkpoint_to_json, load_checkpoint, save_checkpoint, Json,
    MetricsSnapshot,
};
use decache::workloads::{MixConfig, MixWorkload};
use std::path::PathBuf;

/// All eight protocols: the paper's seven schemes plus table-driven MESI.
const ALL_PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

const CAP: u64 = 50_000_000;

/// Renders every statistic of a machine into one stable string — the
/// same rendering `tests/fingerprint.rs` fingerprints, so "equal dumps"
/// here means "equal under the golden-fingerprint lens" there.
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
    let mut mem_hash = 0xcbf2_9ce4_8422_2325u64;
    for addr in 0..machine.memory().size() {
        let w = machine.memory().peek(Addr::new(addr)).unwrap();
        mem_hash ^= w.value().rotate_left((addr % 63) as u32);
        mem_hash = mem_hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    writeln!(out, "memory={mem_hash:016x}").unwrap();
    out
}

/// 8 PEs on the mixed workload; the builder is returned so fault plans
/// and telemetry can be attached before `.build()`.
fn mix_builder(kind: ProtocolKind, buses: usize) -> MachineBuilder {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: 200,
        ..MixConfig::default()
    };
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(1 << 12)
        .cache_lines(64)
        .buses(buses)
        .processors(8, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    builder
}

/// Serializes a checkpoint through the telemetry JSON codec and back,
/// asserting the round trip is exact — every restore below goes through
/// the serialized form, never the in-memory struct alone.
fn json_roundtrip(ck: &MachineCheckpoint) -> MachineCheckpoint {
    let text = checkpoint_to_json(ck).to_string();
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("re-parsing checkpoint JSON: {e}"));
    let decoded =
        checkpoint_from_json(&parsed).unwrap_or_else(|e| panic!("decoding checkpoint JSON: {e}"));
    assert_eq!(*ck, decoded, "JSON codec round trip must be exact");
    decoded
}

/// Runs `build()` uninterrupted to completion, then again split at the
/// halfway cycle — checkpoint, JSON round trip, restore into a third
/// freshly built machine, finish there. Returns the two finished
/// machines (full, resumed) and the final cycle count, after asserting
/// both finished on the same cycle.
fn run_split(build: &dyn Fn() -> Machine) -> (Machine, Machine, u64) {
    let mut full = build();
    let cycles = full.run_to_completion(CAP);

    let mut first = build();
    for _ in 0..cycles / 2 {
        first.step();
    }
    let ck = json_roundtrip(&first.checkpoint().expect("mid-run checkpoint"));

    let mut resumed = build();
    resumed
        .restore(&ck)
        .expect("restore into an identically built machine");
    resumed.assert_fast_path_invariants();
    let finished = resumed.run_to_completion(CAP);
    assert_eq!(
        finished, cycles,
        "resumed run must finish on the same cycle"
    );
    (full, resumed, cycles)
}

/// Checkpoint/restore at the halfway cycle is invisible to every
/// statistic, for all eight protocols on one bus and on two interleaved
/// buses.
#[test]
fn restore_is_bit_exact_for_every_protocol() {
    for &kind in &ALL_PROTOCOLS {
        for buses in [1usize, 2] {
            let (full, resumed, cycles) = run_split(&|| mix_builder(kind, buses).build());
            assert_eq!(
                dump(&resumed, cycles),
                dump(&full, cycles),
                "restore perturbed the {buses}-bus mix under {kind:?}"
            );
        }
    }
}

/// The same property with a *live* fault storm: memory flips, cache
/// flips, and bus losses keep drawing across the checkpoint boundary,
/// so the fault engine's RNG stream, schedule cursor, and
/// detection-latency ledger must all survive the round trip. Both runs
/// step a fixed cycle count (completion under injected faults is not
/// the property here; bit-exactness is).
#[test]
fn restore_is_bit_exact_under_an_active_fault_storm() {
    const TOTAL: u64 = 600;
    for (seed, &kind) in ALL_PROTOCOLS.iter().enumerate() {
        let build = || {
            let mut builder = mix_builder(kind, 1);
            builder.fault_plan(
                FaultPlan::new(0xD1CE_0000 + seed as u64)
                    .memory_flip_rate(0.01)
                    .cache_flip_rate(0.005)
                    .bus_loss_rate(0.002)
                    .region(AddrRange::with_len(Addr::new(0), 64)),
            );
            builder.build()
        };

        let mut full = build();
        for _ in 0..TOTAL {
            full.step();
        }
        assert!(
            full.fault_stats().total_injected() > 0,
            "the storm must actually inject under {kind:?}"
        );
        let want = dump(&full, TOTAL);

        let mut first = build();
        for _ in 0..TOTAL / 2 {
            first.step();
        }
        let ck = json_roundtrip(&first.checkpoint().expect("mid-storm checkpoint"));
        let mut resumed = build();
        resumed.restore(&ck).expect("restore under an active storm");
        resumed.assert_fast_path_invariants();
        for _ in 0..TOTAL - TOTAL / 2 {
            resumed.step();
        }
        assert_eq!(
            dump(&resumed, TOTAL),
            want,
            "restore perturbed the fault storm under {kind:?}"
        );
        assert_eq!(
            resumed.fault_stats().total_injected(),
            full.fault_stats().total_injected(),
            "fault injection count diverged after restore under {kind:?}"
        );
    }
}

/// With telemetry enabled, the full [`MetricsSnapshot`] — histograms
/// included — survives checkpoint/restore byte-for-byte in its
/// canonical JSON form.
#[test]
fn restore_preserves_telemetry_exactly() {
    for &kind in &ALL_PROTOCOLS {
        let build = || {
            let mut builder = mix_builder(kind, 1);
            builder.telemetry();
            builder.build()
        };
        let (full, resumed, cycles) = run_split(&build);
        assert_eq!(
            dump(&resumed, cycles),
            dump(&full, cycles),
            "restore perturbed the telemetry run under {kind:?}"
        );
        let want = MetricsSnapshot::from_machine(&full).to_json().to_string();
        let got = MetricsSnapshot::from_machine(&resumed)
            .to_json()
            .to_string();
        assert_eq!(
            got, want,
            "telemetry snapshot diverged after restore under {kind:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Service disciplines
// ---------------------------------------------------------------------

/// Checkpoint/restore at the halfway cycle is invisible under every
/// service discipline. Multi-cycle transactions make the capture land
/// inside held-bus windows, so the FCFS arrival lane and the batched
/// remainder are non-trivially populated at the boundary.
#[test]
fn restore_is_bit_exact_under_every_service_discipline() {
    for discipline in ServiceDiscipline::ALL {
        for buses in [1usize, 2] {
            let build = || {
                let mut builder = mix_builder(ProtocolKind::Rwb, buses);
                builder.discipline(discipline).transaction_cycles(3);
                builder.build()
            };
            let (full, resumed, cycles) = run_split(&build);
            assert_eq!(
                dump(&resumed, cycles),
                dump(&full, cycles),
                "restore perturbed the {buses}-bus mix under {discipline}"
            );
        }
    }
}

/// A split-transaction checkpoint captured with address phases in
/// flight (granted on the bus, data phase still pending) restores those
/// phases exactly: the resumed machine finishes on the same cycle with
/// the same statistics as an uninterrupted run.
#[test]
fn split_checkpoint_restores_in_flight_phases() {
    let build = || {
        let mut builder = mix_builder(ProtocolKind::Rwb, 1);
        builder
            .discipline(ServiceDiscipline::Split)
            .transaction_cycles(4);
        builder.build()
    };
    let mut full = build();
    let cycles = full.run_to_completion(CAP);
    let want = dump(&full, cycles);

    // Step until a checkpoint actually holds an in-flight transaction,
    // so the restore below provably exercises the in-flight lane rather
    // than an incidentally empty queue.
    let mut first = build();
    let mut captured = None;
    for _ in 0..cycles {
        first.step();
        let candidate = first.checkpoint().expect("mid-run checkpoint");
        if candidate.queues.iter().any(|q| !q.in_flight.is_empty()) {
            captured = Some(candidate);
            break;
        }
    }
    let ck = json_roundtrip(&captured.expect("the mix never had a split phase in flight"));

    let mut resumed = build();
    resumed
        .restore(&ck)
        .expect("restore with address phases in flight");
    resumed.assert_fast_path_invariants();
    let finished = resumed.run_to_completion(CAP);
    assert_eq!(
        finished, cycles,
        "resumed run must finish on the same cycle"
    );
    assert_eq!(
        dump(&resumed, finished),
        want,
        "restore perturbed the in-flight split state"
    );
}

/// A checkpoint records the service discipline it ran under and refuses
/// to restore into a machine running a different one — the queue lanes
/// it carries only make sense to the discipline that filled them.
#[test]
fn restore_rejects_a_discipline_mismatch() {
    let build = |discipline| {
        let mut builder = mix_builder(ProtocolKind::Rb, 1);
        builder.discipline(discipline).transaction_cycles(2);
        builder.build()
    };
    let mut machine = build(ServiceDiscipline::Fcfs);
    for _ in 0..50 {
        machine.step();
    }
    let ck = machine.checkpoint().expect("capture under FCFS");
    assert_eq!(ck.discipline, "fcfs");

    let err = build(ServiceDiscipline::Batched)
        .restore(&ck)
        .expect_err("an FCFS checkpoint must not restore into a batched machine");
    assert!(
        err.to_string().contains("discipline"),
        "Display should name the mismatch: {err}"
    );
}

// ---------------------------------------------------------------------
// Golden on-disk format
// ---------------------------------------------------------------------

/// The deterministic 2-PE machine behind the committed golden
/// checkpoint files: scripted reads, writes, and a Test-and-Set so the
/// capture holds non-trivial cache lines and pending state.
fn golden_machine(kind: ProtocolKind) -> Machine {
    MachineBuilder::new(kind)
        .memory_words(64)
        .cache_lines(16)
        .processor(
            Script::new()
                .write(Addr::new(0), Word::new(7))
                .read(Addr::new(1))
                .test_and_set(Addr::new(2), Word::ONE)
                .write(Addr::new(2), Word::ZERO)
                .read(Addr::new(0))
                .build(),
        )
        .processor(
            Script::new()
                .read(Addr::new(0))
                .write(Addr::new(1), Word::new(9))
                .read(Addr::new(2))
                .write(Addr::new(0), Word::new(11))
                .build(),
        )
        .build()
}

/// Cycle at which the golden checkpoints were captured — mid-flight,
/// with bus transactions and cache lines in motion.
const GOLDEN_CYCLES: u64 = 9;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// The committed golden checkpoint files are byte-identical to what
/// [`save_checkpoint`] writes today, and they still load and restore
/// into a machine that finishes exactly like an uninterrupted run —
/// pinning the on-disk format at [`CHECKPOINT_VERSION`].
#[test]
fn committed_golden_checkpoints_stay_loadable_and_exact() {
    let regen = std::env::var("DECACHE_CHECKPOINT_PRINT").is_ok();
    for (kind, file) in [
        (ProtocolKind::Rb, "checkpoint_rb_2pe.json"),
        (ProtocolKind::Rwb, "checkpoint_rwb_2pe.json"),
    ] {
        let path = golden_path(file);
        let mut machine = golden_machine(kind);
        for _ in 0..GOLDEN_CYCLES {
            machine.step();
        }
        let ck = machine.checkpoint().expect("golden capture");
        assert_eq!(ck.version, CHECKPOINT_VERSION);

        if regen {
            save_checkpoint(&path, &ck).expect("writing golden checkpoint");
            println!("regenerated {}", path.display());
            continue;
        }

        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "reading {}: {e} (regenerate with DECACHE_CHECKPOINT_PRINT=1)",
                path.display()
            )
        });
        let mut expect = checkpoint_to_json(&ck).to_string();
        expect.push('\n');
        assert_eq!(
            committed, expect,
            "{file} drifted from today's serialization — an intentional \
             format change needs a CHECKPOINT_VERSION bump and a regen"
        );

        let loaded = load_checkpoint(&path).expect("loading the committed golden");
        assert_eq!(loaded, ck, "decode of the committed golden must be exact");

        let mut resumed = golden_machine(kind);
        resumed
            .restore(&loaded)
            .expect("restoring the committed golden");
        resumed.assert_fast_path_invariants();
        let mut full = golden_machine(kind);
        let cycles = full.run_to_completion(10_000);
        let finished = resumed.run_to_completion(10_000);
        assert_eq!(finished, cycles);
        assert_eq!(
            dump(&resumed, finished),
            dump(&full, cycles),
            "the committed {kind:?} golden no longer resumes bit-exactly"
        );
    }
}

// ---------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------

/// Restore rejects version, protocol, and shape mismatches with
/// structured [`RestoreError`]s — never a panic.
#[test]
fn restore_validates_version_protocol_and_shape() {
    let mut machine = golden_machine(ProtocolKind::Rb);
    for _ in 0..GOLDEN_CYCLES {
        machine.step();
    }
    let ck = machine.checkpoint().expect("capture");

    let mut wrong_version = ck.clone();
    wrong_version.version += 1;
    let err = golden_machine(ProtocolKind::Rb)
        .restore(&wrong_version)
        .expect_err("a future version must be rejected");
    assert!(
        matches!(
            err,
            RestoreError::Version { found, expected }
                if found == CHECKPOINT_VERSION + 1 && expected == CHECKPOINT_VERSION
        ),
        "got {err:?}"
    );

    let err = golden_machine(ProtocolKind::Rwb)
        .restore(&ck)
        .expect_err("an RB checkpoint must not restore into an RWB machine");
    assert!(matches!(err, RestoreError::Protocol { .. }), "got {err:?}");
    assert!(
        err.to_string().contains("protocol"),
        "Display should name the mismatch: {err}"
    );

    let mut four_pe = MachineBuilder::new(ProtocolKind::Rb);
    four_pe.memory_words(64).cache_lines(16);
    for _ in 0..4 {
        four_pe.processor(Script::new().read(Addr::new(0)).build());
    }
    let err = four_pe
        .build()
        .restore(&ck)
        .expect_err("a 2-PE checkpoint must not restore into a 4-PE machine");
    assert!(
        matches!(
            err,
            RestoreError::Shape {
                what: "PEs",
                found: 2,
                expected: 4
            }
        ),
        "got {err:?}"
    );

    let err = golden_machine(ProtocolKind::Rb)
        .restore(&MachineCheckpoint {
            memory_size: 128,
            ..ck.clone()
        })
        .expect_err("a memory-size mismatch must be rejected");
    assert!(
        matches!(
            err,
            RestoreError::Shape {
                what: "memory words",
                ..
            }
        ),
        "got {err:?}"
    );

    // A line state outside the protocol's vocabulary is rejected before
    // anything is restored: RB has no V, D or F states, and RWB (k = 2)
    // declares no first-write count but 1.
    let rwb_ck = {
        let mut machine = golden_machine(ProtocolKind::Rwb);
        for _ in 0..GOLDEN_CYCLES {
            machine.step();
        }
        machine.checkpoint().expect("capture")
    };
    for (kind, ck, state) in [
        (ProtocolKind::Rb, &ck, LineState::Valid),
        (ProtocolKind::Rb, &ck, LineState::Dirty),
        (ProtocolKind::Rb, &ck, LineState::FirstWrite(9)),
        (ProtocolKind::Rb, &ck, LineState::FirstWrite(200)),
        (ProtocolKind::Rwb, &rwb_ck, LineState::FirstWrite(2)),
    ] {
        let mut foreign = ck.clone();
        let line = foreign.caches[1]
            .lines
            .iter_mut()
            .find(|line| line.state.is_some())
            .expect("the golden machine holds lines");
        line.state = Some(state);
        let err = golden_machine(kind)
            .restore(&foreign)
            .expect_err("an undeclared line state must be rejected");
        assert_eq!(err, RestoreError::UnknownState { pe: 1, state }, "{kind}");
        assert!(
            err.to_string()
                .contains(&format!("P1 cache holds a line in state {state}")),
            "Display should name the PE and the state: {err}"
        );
    }

    // A held line whose block lies outside memory is rejected before
    // anything is restored, however far out it lies (the offsets keep
    // the line in its set). The golden machine has 64 words.
    for offset in [64, 1 << 40] {
        let mut outside = ck.clone();
        let line = outside.caches[1]
            .lines
            .iter_mut()
            .find(|line| line.state.is_some())
            .expect("the golden machine holds lines");
        line.addr = Addr::new(line.addr.index() + offset);
        let addr = line.addr;
        let err = golden_machine(ProtocolKind::Rb)
            .restore(&outside)
            .expect_err("a line outside memory must be rejected");
        assert_eq!(err, RestoreError::LineOutsideMemory { pe: 1, addr });
        assert!(
            err.to_string()
                .contains(&format!("P1 cache holds {addr}, outside memory")),
            "Display should name the PE and the address: {err}"
        );
    }

    // On clustered routing, a held line on a cluster bus the PE does not
    // snoop is rejected: P0 (cluster 0) holding a word of cluster 1's
    // region, or one past the last cluster's region (memory 101, global
    // 32, two clusters of 34 words: word 100 has no bus).
    let clustered = || {
        MachineBuilder::new(ProtocolKind::Rb)
            .memory_words(101)
            .cache_lines(16)
            .clusters(2, 32)
            .processor(Script::new().read(Addr::new(0)).read(Addr::new(36)).build())
            .processor(Script::new().read(Addr::new(66)).build())
            .build()
    };
    let mut machine = clustered();
    machine.run_to_completion(CAP);
    let ck = machine.checkpoint().expect("capture");
    let mut resumed = clustered();
    resumed.restore(&ck).expect("an attached holder restores");
    for addr in [Addr::new(80), Addr::new(100)] {
        let mut detached = ck.clone();
        let line = detached.caches[0]
            .lines
            .iter_mut()
            .find(|line| line.addr.index() % 16 == addr.index() % 16)
            .expect("P0 holds a line in the target set");
        assert!(line.state.is_some(), "P0 holds {}", line.addr);
        line.addr = addr;
        let err = clustered()
            .restore(&detached)
            .expect_err("a line off the PE's buses must be rejected");
        assert_eq!(err, RestoreError::DetachedLine { pe: 0, addr });
        assert!(
            err.to_string()
                .contains(&format!("P0 cache holds {addr}, but P0 does not snoop")),
            "Display should name the PE and the address: {err}"
        );
    }
}

/// A closure processor cannot export its state; [`Machine::checkpoint`]
/// fails with a structured error naming the offending PE instead of
/// silently dropping it.
#[test]
fn closure_processors_fail_checkpoint_with_a_structured_error() {
    let mut machine = MachineBuilder::new(ProtocolKind::Rb)
        .memory_words(64)
        .cache_lines(16)
        .processor(Script::new().read(Addr::new(0)).build())
        .processor(Box::new(|_last: Option<&OpResult>| Poll::Halt))
        .build();
    machine.step();
    let err = machine
        .checkpoint()
        .expect_err("a closure processor is uncheckpointable");
    assert_eq!(err, CheckpointError::Processor { pe: 1 });
    assert!(
        err.to_string().contains("P1"),
        "Display names the PE: {err}"
    );
}
