//! Event-order goldens: pin the *order* of everything a run emits, not
//! only its final statistics.
//!
//! The fingerprint goldens fold end-of-run counters, so two engines
//! that reach the same totals by emitting events in a different order
//! would both pass them. Here each scenario runs to completion with an
//! [`Observer`] attached, and the test pins the FNV-1a hash and the
//! length of the `(cycle, Observation)` stream, in emission order. The
//! observer folds every observation as it arrives and keeps none, so
//! no capacity limit can hide a reordering.
//!
//! To regenerate after an *intentional* behavioural change, run
//! `DECACHE_EVENT_ORDER_PRINT=1 cargo test -p decache-machine --test event_order -- --nocapture`
//! and paste each printed tuple into its scenario's `golden`.

use decache_core::ProtocolKind;
use decache_machine::{
    Machine, MachineBuilder, MemOp, Observation, Observer, OpResult, Poll, Processor,
};
use decache_mem::{Addr, AddrRange, Word};
use decache_workloads::{MixConfig, MixWorkload};
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds every observation, with its cycle, into one running hash and
/// counts them.
#[derive(Clone)]
struct Recorder(Arc<Mutex<(u64, usize)>>);

impl Observer for Recorder {
    fn observe(&mut self, cycle: u64, observation: &Observation) {
        let mut state = self.0.lock().unwrap();
        state.0 = fnv1a(state.0, &format!("{cycle} {observation:?}\n"));
        state.1 += 1;
    }
}

/// A Test-and-Set spinner: retries the locked read until it wins, reads
/// a private word, releases, and repeats for `rounds` acquisitions.
struct TsSpinner {
    lock: Addr,
    private: Addr,
    rounds: u64,
    holding: bool,
}

impl Processor for TsSpinner {
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll {
        if self.holding {
            self.holding = false;
            self.rounds -= 1;
            return Poll::Op(MemOp::write(self.lock, Word::ZERO));
        }
        if let Some(OpResult::TestAndSet { acquired: true, .. }) = last {
            self.holding = true;
            return Poll::Op(MemOp::read(self.private));
        }
        if self.rounds == 0 {
            return Poll::Halt;
        }
        Poll::Op(MemOp::test_and_set(self.lock, Word::ONE))
    }
}

/// A processor that waits on every third poll and halts after a
/// PE-dependent number of operations, so PEs leave the idle set at
/// different cycles and some polls issue nothing.
struct Stutter {
    pe: u64,
    polls: u64,
    ops_left: u64,
}

impl Processor for Stutter {
    fn next_op(&mut self, _last: Option<&OpResult>) -> Poll {
        self.polls += 1;
        if self.ops_left == 0 {
            return Poll::Halt;
        }
        if (self.polls + self.pe).is_multiple_of(3) {
            return Poll::Wait;
        }
        self.ops_left -= 1;
        let addr = Addr::new((self.pe * 5 + self.polls * 3) % 24);
        if self.polls % 4 == 1 {
            Poll::Op(MemOp::write(addr, Word::new(self.pe * 1000 + self.polls)))
        } else {
            Poll::Op(MemOp::read(addr))
        }
    }
}

fn mix_builder(kind: ProtocolKind, pes: usize, buses: usize, ops: u64) -> MachineBuilder {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: ops,
        ..MixConfig::default()
    };
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(1 << 12)
        .cache_lines(64)
        .buses(buses)
        .processors(pes, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    builder
}

fn rb_mix() -> MachineBuilder {
    mix_builder(ProtocolKind::Rb, 8, 1, 300)
}

fn rwb_ts_contention() -> MachineBuilder {
    let mut builder = MachineBuilder::new(ProtocolKind::Rwb);
    builder
        .memory_words(64)
        .cache_lines(16)
        .processors(6, |pe| {
            Box::new(TsSpinner {
                lock: Addr::new(0),
                private: Addr::new(8 + pe as u64),
                rounds: 4,
                holding: false,
            })
        });
    builder
}

fn two_bus_mix() -> MachineBuilder {
    mix_builder(ProtocolKind::Rwb, 8, 2, 250)
}

fn wait_and_halt() -> MachineBuilder {
    let mut builder = MachineBuilder::new(ProtocolKind::Rb);
    builder.memory_words(64).cache_lines(8).processors(6, |pe| {
        Box::new(Stutter {
            pe: pe as u64,
            polls: 0,
            ops_left: 10 + 7 * pe as u64,
        })
    });
    builder
}

/// A scenario's `(observation hash, observations)`.
type Hashes = (u64, usize);

/// Runs one scenario and returns its observation hash and count.
fn record(mut builder: MachineBuilder) -> Hashes {
    let recorder = Recorder(Arc::new(Mutex::new((FNV_OFFSET, 0))));
    let mut machine: Machine = builder.observer(Box::new(recorder.clone())).build();
    machine.run_to_completion(1_000_000);
    let hashes = *recorder.0.lock().unwrap();
    hashes
}

struct Scenario {
    name: &'static str,
    build: fn() -> MachineBuilder,
    golden: Hashes,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "rb_mix",
        build: rb_mix,
        golden: (0x789166dff84b435c, 4427),
    },
    Scenario {
        name: "rwb_ts_contention",
        build: rwb_ts_contention,
        golden: (0x3a71ffd103d267e2, 443),
    },
    Scenario {
        name: "two_bus_mix",
        build: two_bus_mix,
        golden: (0x880bf8a38f6276d9, 3690),
    },
    Scenario {
        name: "wait_and_halt",
        build: wait_and_halt,
        golden: (0x2a2ba725faea3ba0, 262),
    },
];

#[test]
fn event_order_matches_goldens() {
    let print = std::env::var_os("DECACHE_EVENT_ORDER_PRINT").is_some();
    for scenario in &SCENARIOS {
        let (observed, observations) = record((scenario.build)());
        if print {
            println!("{}: (0x{observed:016x}, {observations})", scenario.name);
        }
        assert_eq!(
            (observed, observations),
            scenario.golden,
            "event order of {} changed",
            scenario.name
        );
    }
}
