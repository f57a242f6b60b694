//! Output checks: a fingerprint of every simulated statistic of a
//! finished run, and the values pinned for the default and the
//! held-out seed.

use decache_bus::BusOpKind;
use decache_cache::{AccessKind, RefClass};
use decache_machine::Machine;
use decache_mem::Addr;
use std::fmt::Write as _;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;
/// A seed kept out of tuning, so a later claim can be rechecked on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// The simulated statistics of a finished run. `hash` is FNV-1a over a
/// dump of the per-bus traffic, every PE's hit/miss grid, the machine
/// counters, and a checksum of final memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub refs: u64,
    pub work_units: u64,
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut hash: u64) -> u64 {
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl Fingerprint {
    pub fn of(machine: &Machine) -> Fingerprint {
        let mut out = String::new();
        let per_bus = machine.traffic_per_bus();
        for bus in 0..per_bus.bus_count() {
            let t = per_bus.bus(bus);
            let _ = write!(out, "bus{bus}:");
            for kind in [
                BusOpKind::Read,
                BusOpKind::Write,
                BusOpKind::Invalidate,
                BusOpKind::ReadWithLock,
                BusOpKind::WriteWithUnlock,
            ] {
                let _ = write!(out, " {}", t.count(kind));
            }
            let _ = writeln!(
                out,
                " {} {} {} {}",
                t.aborted_reads, t.retries, t.busy_cycles, t.idle_cycles
            );
        }
        for pe in 0..machine.pe_count() {
            let s = machine.cache_stats(pe);
            for kind in [AccessKind::Read, AccessKind::Write] {
                for class in RefClass::ALL {
                    let _ = write!(out, " {}/{}", s.hits(kind, class), s.misses(kind, class));
                }
            }
            out.push('\n');
        }
        let m = machine.stats();
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            m.broadcast_satisfied,
            m.writebacks,
            m.ts_successes,
            m.ts_failures,
            m.lock_rejections,
            m.tag_probes,
            m.sharer_visits,
            m.queue_scans
        );
        let mut memory = FNV_OFFSET;
        for addr in 0..machine.memory().size() {
            let word = machine
                .memory()
                .peek(Addr::new(addr))
                .map_or(0, |w| w.value());
            memory = fnv1a(word.to_le_bytes(), memory);
        }
        let _ = write!(out, "memory={memory:016x}");
        Fingerprint {
            cycles: machine.cycles(),
            refs: machine.total_cache_stats().total_references(),
            work_units: m.work_units(),
            hash: fnv1a(out.bytes(), FNV_OFFSET),
        }
    }
}

/// Pinned statistics: `(workload, seed, fingerprint)`. Regenerate after
/// an intentional behavioural change from the `observed` line a
/// mismatch prints.
const PINS: &[(&str, u64, Fingerprint)] = &[
    (
        "fanout_1024",
        DEFAULT_SEED,
        Fingerprint {
            cycles: 268_135,
            refs: 900_203,
            work_units: 52_959_357,
            hash: 0x54fd2dc45294b9c1,
        },
    ),
    (
        "fanout_1024",
        HELD_OUT_SEED,
        Fingerprint {
            cycles: 268_646,
            refs: 900_128,
            work_units: 53_313_876,
            hash: 0x516cf8f3857de764,
        },
    ),
    (
        "warm_64x16",
        DEFAULT_SEED,
        Fingerprint {
            cycles: 101_602,
            refs: 5_168_995,
            work_units: 21_657_081,
            hash: 0xb875dd7eae23f6db,
        },
    ),
    (
        "warm_64x16",
        HELD_OUT_SEED,
        Fingerprint {
            cycles: 101_599,
            refs: 5_168_584,
            work_units: 21_716_298,
            hash: 0xae5d58fb83ebeafd,
        },
    ),
    (
        "tts_lock_64",
        DEFAULT_SEED,
        Fingerprint {
            cycles: 1_266_223,
            refs: 7_831_741,
            work_units: 56_863_986,
            hash: 0x814b21e8a66583a0,
        },
    ),
    (
        "tts_lock_64",
        HELD_OUT_SEED,
        Fingerprint {
            cycles: 1_265_103,
            refs: 7_967_562,
            work_units: 57_586_768,
            hash: 0xe59c647a448266a9,
        },
    ),
    (
        "resume_32",
        DEFAULT_SEED,
        Fingerprint {
            cycles: 381_114,
            refs: 3_008_706,
            work_units: 11_110_938,
            hash: 0x2696aacf7df721e4,
        },
    ),
    (
        "resume_32",
        HELD_OUT_SEED,
        Fingerprint {
            cycles: 380_352,
            refs: 3_004_139,
            work_units: 11_112_087,
            hash: 0xe6293ebb57c984ff,
        },
    ),
];

/// The pinned fingerprint of `workload` at `seed`, if there is one.
pub fn pinned(workload: &str, seed: u64) -> Option<Fingerprint> {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, f)| f)
}
