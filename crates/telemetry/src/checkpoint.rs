//! JSON serialization for [`MachineCheckpoint`]: the persistence half
//! of the deterministic checkpoint/resume story.
//!
//! The machine crate exports its complete run state as plain public
//! data; this module states each record's fields once, through the
//! [`codec`](crate::codec) macros, and lands files via the crash-safe
//! [`artifact`](crate::artifact) writer. Every scalar is a raw integer
//! or a short tag string, so a checkpoint round-trips exactly:
//! `decode(encode(ck)) == ck`, bit for bit.
//!
//! Enums are encoded as kind-tagged objects (`{"kind": "read", ...}`),
//! line states as their display letters (`"L"`, `"F1"`), and every
//! record, the fault counters included, as an object keyed by its
//! field names, so the file stays self-describing. Decoding is strict:
//! every field is required.

use crate::codec::{pairs_from_json, pairs_to_json, Absent, DecodeError, FromJson, ToJson};
use crate::json::Json;
use crate::{json_enum, json_record};
use decache_bus::{ArbiterCheckpoint, BusOp, BusTransaction, QueueState, TrafficStats};
use decache_cache::{LineCheckpoint, RefClass, TagStoreCheckpoint};
use decache_core::LineState;
use decache_machine::{
    CacheStatsCheckpoint, FaultClockEntry, FaultEngineCheckpoint, FaultStats, HistogramCheckpoint,
    MachineCheckpoint, MachineStats, MemoryCheckpoint, OpResult, PendingCheckpoint,
    ProcessorCheckpoint, StatusCheckpoint, TelemetryCheckpoint,
};
use decache_mem::MemoryStats;
use std::path::Path;

impl ToJson for RefClass {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for RefClass {
    fn from_json(value: &Json, _: Absent) -> Result<Self, DecodeError> {
        match value.as_str() {
            Some("code") => Ok(RefClass::Code),
            Some("local") => Ok(RefClass::Local),
            Some("shared") => Ok(RefClass::Shared),
            Some(other) => Err(DecodeError::new(format!(
                "unknown reference class '{other}'"
            ))),
            None => Err(DecodeError::new("not a string")),
        }
    }
}

impl ToJson for LineState {
    fn to_json(&self) -> Json {
        Json::Str(match self {
            LineState::FirstWrite(c) => format!("F{c}"),
            other => other.letter().to_string(),
        })
    }
}

impl FromJson for LineState {
    fn from_json(value: &Json, _: Absent) -> Result<Self, DecodeError> {
        let text = value
            .as_str()
            .ok_or_else(|| DecodeError::new("not a string"))?;
        match text {
            "I" => Ok(LineState::Invalid),
            "R" => Ok(LineState::Readable),
            "L" => Ok(LineState::Local),
            "V" => Ok(LineState::Valid),
            "S" => Ok(LineState::Reserved),
            "D" => Ok(LineState::Dirty),
            _ => text
                .strip_prefix('F')
                .and_then(|c| c.parse::<u8>().ok())
                .map(LineState::FirstWrite)
                .ok_or_else(|| DecodeError::new(format!("unknown line state '{text}'"))),
        }
    }
}

const LOCK: [&str; 2] = ["addr", "holder"];
const IN_FLIGHT: [&str; 2] = ["tx", "ready"];

json_record!(MemoryStats {
    reads,
    writes,
    locked_reads,
    rejected_writes,
});

json_record!(MemoryCheckpoint {
    words,
    locks: with(
        |v: &Vec<_>| pairs_to_json(v, LOCK),
        |j| pairs_from_json(j, LOCK)
    ),
    bad_parity,
    stats,
});

json_record!(LineCheckpoint<LineState> {
    addr,
    data,
    state,
    parity_ok,
});

json_record!(TagStoreCheckpoint<LineState> {
    lines,
    lru_stamps,
    insert_stamps,
    clock,
    rng_state,
});

json_record!(CacheStatsCheckpoint { hits, misses });

json_enum!(PendingCheckpoint {
    "read" => Read { addr, class },
    "write" => Write { addr, value, class },
    "locked-read" => LockedRead { addr, set_to, class },
    "unlock-write" => UnlockWrite { addr, old, class },
});

json_enum!(StatusCheckpoint {
    "idle" => Idle,
    "wait-bus" => WaitBus(pending),
    "done" => Done,
    "failed" => Failed,
});

json_enum!(OpResult {
    "read" => Read(word),
    "write" => Write,
    "ts" => TestAndSet { old, acquired },
});

json_enum!(ProcessorCheckpoint {
    "stateless" => Stateless,
    "script" => Script { ops_left },
    "loop" => Loop { rounds_left, position },
    "spin" => Spin { satisfied },
    "custom" => Custom { kind as "custom_kind", words },
});

json_enum!(BusOp {
    "read" => Read,
    "write" => Write(value),
    "invalidate" => Invalidate,
    "read-with-lock" => ReadWithLock,
    "write-with-unlock" => WriteWithUnlock(value),
});

json_record!(BusTransaction {
    initiator as "pe",
    addr,
    op,
});

json_record!(QueueState {
    retry,
    pending,
    arrival,
    batch,
    in_flight: with(
        |v: &Vec<_>| pairs_to_json(v, IN_FLIGHT),
        |j| pairs_from_json(j, IN_FLIGHT)
    ),
});

json_enum!(ArbiterCheckpoint {
    "stateless" => Stateless,
    "round-robin" => RoundRobin { last },
    "random" => Random { rng_state },
});

json_record!(TrafficStats {
    counts,
    aborted_reads,
    retries,
    busy_cycles,
    idle_cycles,
    address_phases,
});

// Metrics snapshots share this record; their schema 1 predates the
// work-unit counters and the split-cancel count.
json_record!(MachineStats {
    broadcast_satisfied,
    writebacks,
    ts_failures,
    ts_successes,
    lock_rejections,
    lock_rejected_reads,
    lock_rejected_writes,
    tag_probes: or_zero,
    sharer_visits: or_zero,
    queue_scans: or_zero,
    split_cancels: or_zero,
});

json_record!(HistogramCheckpoint {
    buckets,
    count,
    sum,
    max,
});

json_record!(TelemetryCheckpoint {
    bus_acquire_wait,
    memory_service,
    read_fill,
    ts_spin,
    enqueued_at,
    read_since,
    ts_since,
});

json_record!(FaultEngineCheckpoint {
    rng_state,
    cursor,
    lose_grant,
});

json_record!(FaultStats {
    memory_faults_injected,
    cache_faults_injected,
    bus_transactions_lost,
    pe_fail_stops,
    memory_faults_detected,
    cache_faults_detected,
    memory_recoveries_owner,
    memory_recoveries_majority,
    memory_recoveries_failed,
    cache_refetches,
    broadcast_heals,
    lost_writes,
    drained_lines,
    forced_unlocks,
    recovery_latency_total,
    recovery_latency_samples,
    replicas_at_recovery,
});

json_record!(FaultClockEntry {
    pe,
    addr,
    injected_at,
});

/// The retired sharded issue phase's odometer: still written, as 0, and
/// still required, so the format is unchanged; its value is ignored.
fn sharded_cycles() -> Json {
    Json::U64(0)
}

fn check_sharded_cycles(value: &Json) -> Result<(), DecodeError> {
    u64::from_json(value, Absent::Required).map(drop)
}

json_record!(MachineCheckpoint {
    version,
    protocol,
    pes,
    bus_count,
    memory_size,
    sets,
    ways,
    block_words,
    transaction_cycles,
    discipline,
    cycle,
    const "sharded_cycles": with(sharded_cycles, check_sharded_cycles),
    memory,
    caches,
    cache_stats,
    statuses,
    last_results,
    processors,
    queues,
    arbiters,
    traffic,
    bus_free_at,
    stats,
    fault,
    fault_stats,
    fault_clock,
    last_progress,
    last_addr,
    telemetry,
});

/// Encodes a [`MachineCheckpoint`] as the workspace's canonical JSON
/// value; its `Display` form is the stable on-disk format.
pub fn checkpoint_to_json(ck: &MachineCheckpoint) -> Json {
    ck.to_json()
}

/// Decodes a [`MachineCheckpoint`] from its JSON form.
///
/// # Errors
///
/// Returns the first missing, mistyped, or out-of-range field, named by
/// its path (`queues[1].pending[0].addr: not an integer`). Semantic
/// validation (shape against a concrete machine, RNG-state sanity) is
/// [`decache_machine::Machine::restore`]'s job, not the codec's.
pub fn checkpoint_from_json(value: &Json) -> Result<MachineCheckpoint, String> {
    Ok(MachineCheckpoint::from_json(value, Absent::Required)?)
}

/// Serializes a checkpoint and writes it to `path` crash-safely
/// (tmp + rename via [`crate::artifact::write_atomic`]), so an
/// interrupted save can never clobber a previous good checkpoint.
///
/// # Errors
///
/// Propagates any I/O error; on failure the previous file (if any) is
/// intact.
pub fn save_checkpoint(path: impl AsRef<Path>, ck: &MachineCheckpoint) -> std::io::Result<()> {
    let mut text = checkpoint_to_json(ck).to_string();
    text.push('\n');
    crate::artifact::write_atomic(path, text.as_bytes())
}

/// Reads and decodes a checkpoint file written by [`save_checkpoint`].
///
/// # Errors
///
/// Returns a description of the I/O, parse, or decode failure.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<MachineCheckpoint, String> {
    let path = path.as_ref();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    checkpoint_from_json(&value).map_err(|e| format!("decoding {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ProtocolKind;
    use decache_machine::MachineBuilder;
    use decache_mem::{Addr, AddrRange};
    use decache_workloads::{MixConfig, MixWorkload};

    fn running_machine() -> decache_machine::Machine {
        let shared = AddrRange::with_len(Addr::new(0), 32);
        let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
            .memory_words(4096)
            .processors(4, |pe| {
                Box::new(MixWorkload::new(MixConfig::default(), shared, pe as u64))
            })
            .build();
        for _ in 0..500 {
            machine.step();
        }
        machine
    }

    #[test]
    fn checkpoint_round_trips_through_json_exactly() {
        let machine = running_machine();
        let ck = machine.checkpoint().unwrap();
        let encoded = checkpoint_to_json(&ck).to_string();
        let decoded = checkpoint_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, ck);
        // The canonical rendering is stable: re-encoding is a fixpoint.
        assert_eq!(checkpoint_to_json(&decoded).to_string(), encoded);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let machine = running_machine();
        let ck = machine.checkpoint().unwrap();
        let path =
            std::env::temp_dir().join(format!("decache-checkpoint-{}.json", std::process::id()));
        save_checkpoint(&path, &ck).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, ck);
    }

    #[test]
    fn line_states_round_trip_including_write_counts() {
        for state in [
            LineState::Invalid,
            LineState::Readable,
            LineState::Local,
            LineState::FirstWrite(1),
            LineState::FirstWrite(3),
            LineState::Valid,
            LineState::Reserved,
            LineState::Dirty,
        ] {
            let encoded = state.to_json();
            let back = LineState::from_json(&encoded, Absent::Required);
            assert_eq!(back, Ok(state), "{encoded}");
        }
        for bad in ["Q", "Fx", "F999"] {
            let err = LineState::from_json(&Json::Str(bad.into()), Absent::Required).unwrap_err();
            assert_eq!(err.to_string(), format!("unknown line state '{bad}'"));
        }
    }

    #[test]
    fn decode_reports_missing_and_mistyped_fields() {
        let err = checkpoint_from_json(&Json::object(vec![])).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let machine = running_machine();
        let ck = machine.checkpoint().unwrap();
        let mut bad = checkpoint_to_json(&ck);
        if let Json::Object(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "protocol" {
                    *v = Json::U64(7);
                }
            }
        }
        let err = checkpoint_from_json(&bad).unwrap_err();
        assert!(err.contains("protocol"), "{err}");
    }
}
