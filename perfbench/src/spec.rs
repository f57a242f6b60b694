//! The four benchmark workloads: machine shape, reference generators,
//! warm-up length, and how the `--seed` argument reaches the generators.

use decache_bus::ArbiterKind;
use decache_cache::RefClass;
use decache_core::ProtocolKind;
use decache_machine::{
    Machine, MachineBuilder, MemOp, OpResult, Poll, Processor, ProcessorCheckpoint,
};
use decache_mem::{Addr, AddrRange, Word};
use decache_workloads::{MixConfig, MixWorkload};

/// Cycle budget of every run; a run that needs more is a failure.
pub const BUDGET: u64 = 200_000_000;

/// Length of the §7 mix's shared block, at the bottom of memory.
const SHARED_LEN: u64 = 64;
/// Where `MixWorkload::new` places the per-PE private regions; kept
/// here so the seeded constructor uses the same layout.
const PRIVATE_BASE: u64 = 1088;
const PRIVATE_LEN: u64 = 256;

/// The contended lock word and the base of the per-PE critical-section
/// words of `tts_lock_64`.
const LOCK: Addr = Addr::new(0);
const CS_BASE: u64 = 64;

/// Counts from the warm-up run, whose statistics are then reset.
pub struct Warm {
    pub refs: u64,
    pub ts_successes: u64,
}

impl Warm {
    pub fn of(machine: &Machine) -> Warm {
        Warm {
            refs: machine.total_cache_stats().total_references(),
            ts_successes: machine.stats().ts_successes,
        }
    }
}

/// What each processing element runs.
#[derive(Debug, Clone, Copy)]
pub enum Gen {
    /// The §7 `MixWorkload`, `ops` references per PE.
    Mix { ops: u64 },
    /// Test-and-Test-and-Set on one lock word: `rounds` acquisitions per
    /// PE, `cs_refs` private references inside each critical section.
    Tts { rounds: u64, cs_refs: u64 },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: ProtocolKind,
    pub pes: usize,
    pub buses: usize,
    pub cache_lines: usize,
    pub gen: Gen,
    /// Cycles of the set-up run that fills the caches before the timed
    /// phase (statistics are reset after it).
    pub warm_cycles: u64,
    /// `resume_32` only: cycles into the timed phase at which the run is
    /// checkpointed, round-tripped through JSON text, and restored into
    /// a fresh machine.
    pub resume_at: Option<u64>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanout_1024",
        protocol: ProtocolKind::Rb,
        pes: 1024,
        buses: 1,
        cache_lines: 256,
        gen: Gen::Mix { ops: 1000 },
        warm_cycles: 80_000,
        resume_at: None,
    },
    Workload {
        name: "warm_64x16",
        protocol: ProtocolKind::Rwb,
        pes: 64,
        buses: 16,
        cache_lines: 256,
        gen: Gen::Mix { ops: 100_000 },
        warm_cycles: 20_000,
        resume_at: None,
    },
    Workload {
        name: "tts_lock_64",
        protocol: ProtocolKind::Rwb,
        pes: 64,
        buses: 1,
        cache_lines: 256,
        gen: Gen::Tts {
            rounds: 200,
            cs_refs: 8,
        },
        warm_cycles: 300_000,
        resume_at: None,
    },
    Workload {
        name: "resume_32",
        protocol: ProtocolKind::Rb,
        pes: 32,
        buses: 1,
        cache_lines: 256,
        gen: Gen::Mix { ops: 150_000 },
        warm_cycles: 150_000,
        resume_at: Some(120_000),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn memory_words(&self) -> u64 {
        match self.gen {
            Gen::Mix { .. } => (PRIVATE_BASE + self.pes as u64 * PRIVATE_LEN)
                .next_power_of_two()
                .max(1 << 14),
            Gen::Tts { .. } => 1024,
        }
    }

    /// The arbiter of every bus. The lock workload has no random
    /// generator of its own, so its seed decides arbitration instead.
    pub fn arbiter(&self, seed: u64) -> ArbiterKind {
        match self.gen {
            Gen::Mix { .. } => ArbiterKind::RoundRobin,
            Gen::Tts { .. } => ArbiterKind::Random(seed),
        }
    }

    /// PE `pe`'s program for workload seed `seed`. Seed 0 gives the
    /// generators `MixWorkload::new` would build.
    pub fn processor(&self, seed: u64, pe: usize) -> Box<dyn Processor + Send> {
        let pe = pe as u64;
        match self.gen {
            Gen::Mix { ops } => {
                let config = MixConfig {
                    ops_per_pe: ops,
                    ..MixConfig::default()
                };
                let private =
                    AddrRange::with_len(Addr::new(PRIVATE_BASE + pe * PRIVATE_LEN), PRIVATE_LEN);
                let pe_seed = seed.wrapping_mul(1 << 16).wrapping_add(pe);
                Box::new(MixWorkload::with_private_region(
                    config,
                    AddrRange::with_len(Addr::new(0), SHARED_LEN),
                    private,
                    pe_seed,
                ))
            }
            Gen::Tts { rounds, cs_refs } => Box::new(TtsWorker {
                private: Addr::new(CS_BASE + pe),
                cs_refs,
                rounds_left: rounds,
                phase: Phase::Testing,
            }),
        }
    }

    /// The machine's configuration without its processors.
    pub fn shape(&self, seed: u64) -> MachineBuilder {
        let mut builder = MachineBuilder::new(self.protocol);
        builder
            .memory_words(self.memory_words())
            .cache_lines(self.cache_lines)
            .buses(self.buses)
            .arbiter(self.arbiter(seed));
        builder
    }

    pub fn build(&self, seed: u64) -> Machine {
        self.shape(seed)
            .processors(self.pes, |pe| self.processor(seed, pe))
            .build()
    }

    /// Checks the workload's own conservation laws on a finished run
    /// whose statistics were reset after `warm`.
    pub fn check_finished(&self, machine: &Machine, warm: &Warm) -> Result<(), String> {
        let refs = machine.total_cache_stats().total_references() + warm.refs;
        match self.gen {
            Gen::Mix { ops } => {
                let want = ops * self.pes as u64;
                if refs != want {
                    return Err(format!("{refs} references completed, expected {want}"));
                }
            }
            Gen::Tts { rounds, .. } => {
                let acquired = machine.stats().ts_successes + warm.ts_successes;
                let want = rounds * self.pes as u64;
                if acquired != want {
                    return Err(format!("{acquired} lock acquisitions, expected {want}"));
                }
                // The last release may still sit in its writer's cache.
                let snap = machine.snapshot(LOCK);
                let held = (0..self.pes)
                    .find_map(|pe| snap.line(pe).filter(|(s, _)| s.owns_latest()))
                    .map_or(snap.memory(), |(_, word)| word);
                if !held.is_zero() {
                    return Err(format!("lock word is {held:?} after every PE finished"));
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Testing,
    Attempting,
    Critical { left: u64 },
    Releasing,
    Finished,
}

/// Test-and-Test-and-Set on [`LOCK`], issuing exactly the operations
/// `decache_sync::LockWorker` issues, but with checkpoint support so a
/// lock machine can round-trip through a checkpoint.
#[derive(Debug, Clone)]
struct TtsWorker {
    private: Addr,
    cs_refs: u64,
    rounds_left: u64,
    phase: Phase,
}

const TTS_KIND: &str = "perfbench-tts";

impl TtsWorker {
    fn critical_read(&self) -> Poll {
        Poll::Op(MemOp::read(self.private).with_class(RefClass::Local))
    }
}

impl Processor for TtsWorker {
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll {
        match self.phase {
            Phase::Finished => Poll::Halt,
            Phase::Testing => match last {
                Some(OpResult::Read(v)) if v.is_zero() => {
                    self.phase = Phase::Attempting;
                    Poll::Op(MemOp::test_and_set(LOCK, Word::ONE))
                }
                _ => Poll::Op(MemOp::read(LOCK)),
            },
            Phase::Attempting => match last {
                Some(OpResult::TestAndSet { acquired: true, .. }) if self.cs_refs > 0 => {
                    self.phase = Phase::Critical {
                        left: self.cs_refs - 1,
                    };
                    self.critical_read()
                }
                Some(OpResult::TestAndSet { acquired: true, .. }) => {
                    self.phase = Phase::Releasing;
                    Poll::Op(MemOp::write(LOCK, Word::ZERO))
                }
                Some(OpResult::TestAndSet {
                    acquired: false, ..
                }) => {
                    self.phase = Phase::Testing;
                    Poll::Op(MemOp::read(LOCK))
                }
                _ => Poll::Op(MemOp::test_and_set(LOCK, Word::ONE)),
            },
            Phase::Critical { left: 0 } => {
                self.phase = Phase::Releasing;
                Poll::Op(MemOp::write(LOCK, Word::ZERO))
            }
            Phase::Critical { left } => {
                self.phase = Phase::Critical { left: left - 1 };
                self.critical_read()
            }
            Phase::Releasing => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.phase = Phase::Finished;
                    Poll::Halt
                } else {
                    self.phase = Phase::Testing;
                    self.next_op(None)
                }
            }
        }
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        let (phase, left) = match self.phase {
            Phase::Testing => (0, 0),
            Phase::Attempting => (1, 0),
            Phase::Critical { left } => (2, left),
            Phase::Releasing => (3, 0),
            Phase::Finished => (4, 0),
        };
        Some(ProcessorCheckpoint::Custom {
            kind: TTS_KIND.to_string(),
            words: vec![phase, left, self.rounds_left],
        })
    }

    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        let ProcessorCheckpoint::Custom { kind, words } = state else {
            return Err(format!("TTS worker given {state:?}"));
        };
        let &[phase, left, rounds_left] = words.as_slice() else {
            return Err(format!("TTS worker expects 3 words, got {}", words.len()));
        };
        if kind != TTS_KIND {
            return Err(format!("TTS worker given {kind} state"));
        }
        self.phase = match phase {
            0 => Phase::Testing,
            1 => Phase::Attempting,
            2 if left < self.cs_refs => Phase::Critical { left },
            3 => Phase::Releasing,
            4 => Phase::Finished,
            _ => return Err(format!("TTS worker phase {phase}/{left} is out of range")),
        };
        self.rounds_left = rounds_left;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Fingerprint;
    use decache_sync::{LockWorker, Primitive};

    /// The benchmark's TTS worker and the library's drive a machine to
    /// identical statistics.
    #[test]
    fn tts_worker_matches_lock_worker() {
        let w = Workload::by_name("tts_lock_64").unwrap();
        let Gen::Tts { cs_refs, .. } = w.gen else {
            unreachable!()
        };
        let rounds = 6;
        let run = |library: bool| {
            let mut machine = w
                .shape(3)
                .processors(16, |pe| -> Box<dyn Processor + Send> {
                    let private = Addr::new(CS_BASE + pe as u64);
                    if library {
                        Box::new(
                            LockWorker::new(LOCK, Primitive::TestAndTestAndSet)
                                .rounds(rounds)
                                .critical_section(private, cs_refs),
                        )
                    } else {
                        Box::new(TtsWorker {
                            private,
                            cs_refs,
                            rounds_left: rounds,
                            phase: Phase::Testing,
                        })
                    }
                })
                .build();
            machine.run_to_completion(BUDGET);
            Fingerprint::of(&machine)
        };
        assert_eq!(run(true), run(false));
    }
}
