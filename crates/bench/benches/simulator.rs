//! Timing harness: machine simulation throughput per protocol on the
//! mixed workload (the engine behind experiments E13, E9, E10), protocol
//! decisions through the dense table, deferred versus per-sharer
//! broadcast application on one bus and on sixteen, machine set-up at
//! 1024 PEs, and the JSON codec on a 1024-PE checkpoint.

use decache_bench::time_case;
use decache_core::{AnyProtocol, LineState, Protocol, ProtocolKind, SnoopEvent};
use decache_machine::{Machine, MachineBuilder};
use decache_mem::{Addr, AddrRange, Word};
use decache_rng::Rng;
use decache_telemetry::{checkpoint_from_json, checkpoint_to_json, Json};
use decache_workloads::{MixConfig, MixWorkload};
use std::hint::black_box;

/// The mixed workload on `pes` PEs with 256-line caches, on one bus
/// unless the caller adds more.
fn mix_builder(kind: ProtocolKind, pes: usize, ops: u64) -> MachineBuilder {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: ops,
        ..MixConfig::default()
    };
    // Memory must cover every PE's private region (the regions start
    // above the shared block; see MixWorkload::new).
    let memory_words = (1u64 << 14).max((1088 + pes as u64 * 256).next_power_of_two());
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(memory_words)
        .cache_lines(256)
        .processors(pes, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    builder
}

fn build_machine(kind: ProtocolKind, pes: usize, ops: u64) -> Machine {
    mix_builder(kind, pes, ops).build()
}

fn run_machine(kind: ProtocolKind, pes: usize, ops: u64) -> u64 {
    build_machine(kind, pes, ops).run_to_completion(100_000_000)
}

/// A fixed seeded stream of protocol decisions over `p`'s states: CPU
/// references to a line in a state (`None` = not present, 10%; writes
/// 30%), and snoops of held lines by every event `p` can receive.
struct Decisions {
    cpu: Vec<(Option<LineState>, bool)>,
    snoop: Vec<(LineState, SnoopEvent)>,
}

impl Decisions {
    fn new(p: &AnyProtocol, each: usize) -> Self {
        let states = p.states();
        let mut rng = Rng::from_seed(0xdec1de);
        let cpu = (0..each)
            .map(|_| {
                let state = rng.gen_bool(0.9).then(|| *rng.choose(&states));
                (state, rng.gen_bool(0.3))
            })
            .collect();
        let snoop = (0..each)
            .map(|_| {
                let word = Word::new(rng.next_u64());
                let event = match rng.gen_range(0u8..5) {
                    0 => SnoopEvent::Write(word),
                    1 if p.uses_bus_invalidate() => SnoopEvent::Invalidate,
                    2 => SnoopEvent::LockedRead(word),
                    3 => SnoopEvent::UnlockWrite(word),
                    _ => SnoopEvent::Read(word),
                };
                (*rng.choose(&states), event)
            })
            .collect();
        Decisions { cpu, snoop }
    }

    fn run(&self, p: &AnyProtocol) {
        for &(state, write) in &self.cpu {
            black_box(if write {
                p.cpu_write(state)
            } else {
                p.cpu_read(state)
            });
        }
        for &(state, event) in &self.snoop {
            black_box(p.snoop(state, event));
        }
    }
}

fn main() {
    for kind in ProtocolKind::ALL {
        time_case(&format!("mix_workload_8pe/{kind}"), 10, || {
            run_machine(kind, 8, 500)
        });
    }

    // The headline engine case: 16 PEs on the full mixed workload.
    for kind in ProtocolKind::ALL {
        time_case(&format!("mix_workload_16pe/{kind}"), 10, || {
            run_machine(kind, 16, 500)
        });
    }

    // Scaling sweep to 8x the paper's machine size. Simulated cycles
    // grow linearly with PE count, but work per live cycle grows with
    // the sharer fan-out, so the big sizes lean on the deferred
    // broadcast path (and get fewer iterations to keep the sweep
    // quick).
    for pes in [2usize, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let iters = if pes >= 256 { 5 } else { 10 };
        time_case(&format!("rb_scaling/{pes}"), iters, || {
            run_machine(ProtocolKind::Rb, pes, 300)
        });
    }

    // Section 7's worked example at full scale: 128 PEs on one bus.
    // One-cycle transactions keep every cycle live, so the wake
    // schedule skips none of it; this row times plain stepping.
    for kind in [ProtocolKind::Rb, ProtocolKind::Rwb] {
        time_case(&format!("section7_128pe/{kind}"), 10, || {
            run_machine(kind, 128, 300)
        });
    }

    // The same study pushed to 1024 PEs — far past the paper's 128-PE
    // extrapolation ceiling. Tractable in seconds per run thanks to
    // the deferred broadcast path and the packed tag-store rows.
    for kind in [ProtocolKind::Rb, ProtocolKind::Rwb] {
        time_case(&format!("section7_1024pe/{kind}"), 3, || {
            run_machine(kind, 1024, 300)
        });
    }

    // The deferred broadcast path against its reference, the per-sharer
    // scan, on the 1024-PE RB mix and on RWB with 64 PEs over 16
    // interleaved buses (the `warm_64x16` benchmark's shape). Outputs
    // are pinned equal by `fast_path_invariants`.
    for (path, scan) in [("deferred", false), ("forced_scan", true)] {
        time_case(&format!("snoop/rb_1024pe/{path}"), 3, || {
            let mut machine = build_machine(ProtocolKind::Rb, 1024, 300);
            if scan {
                machine.force_scan_snoop();
            }
            machine.run_to_completion(100_000_000)
        });
    }
    for (path, scan) in [("deferred", false), ("forced_scan", true)] {
        time_case(&format!("snoop/rwb_64pe_16bus/{path}"), 5, || {
            let mut machine = mix_builder(ProtocolKind::Rwb, 64, 3000).buses(16).build();
            if scan {
                machine.force_scan_snoop();
            }
            machine.run_to_completion(100_000_000)
        });
    }

    // Machine set-up at §7 scale: build plus the 80,000-cycle warm-up
    // of the 1024-PE RB mix, where the per-address PE indexes are
    // first written (the `fanout_1024` benchmark's `setup_s`).
    time_case("machine_setup/rb_1024pe", 5, || {
        let mut machine = build_machine(ProtocolKind::Rb, 1024, 1000);
        assert!(!machine.run(80_000), "the mix outlasts the warm-up");
        machine
    });

    // The JSON codec on the largest checkpoint the workspace writes: a
    // finished 1024-PE machine, about 16 MB of text. Each stage is timed
    // alone; the machine, checkpoint and inputs are built outside the
    // timed closures.
    let mut machine = build_machine(ProtocolKind::Rb, 1024, 300);
    machine.run_to_completion(100_000_000);
    let ck = machine.checkpoint().expect("mix workloads checkpoint");
    let value = checkpoint_to_json(&ck);
    let text = value.to_string();
    time_case("json/checkpoint_1024pe/encode", 5, || {
        checkpoint_to_json(&ck)
    });
    time_case("json/checkpoint_1024pe/render", 5, || value.to_string());
    time_case("json/checkpoint_1024pe/parse", 5, || {
        Json::parse(&text).expect("a rendered checkpoint parses")
    });
    time_case("json/checkpoint_1024pe/decode", 5, || {
        checkpoint_from_json(&value).expect("an encoded checkpoint decodes")
    });

    // Protocol decisions, 2^19 CPU references and 2^19 snoops per
    // iteration, through the dense table every protocol runs on.
    for kind in [
        ProtocolKind::Rb,
        ProtocolKind::Rwb,
        ProtocolKind::WriteOnce,
        ProtocolKind::Mesi,
    ] {
        let dense = AnyProtocol::build(kind);
        let decisions = Decisions::new(&dense, 1 << 19);
        time_case(&format!("protocol/decide/{kind}"), 10, || {
            decisions.run(&dense);
        });
    }
}
