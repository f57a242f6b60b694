//! JSON serialization for [`MachineCheckpoint`]: the persistence half
//! of the deterministic checkpoint/resume story.
//!
//! The machine crate exports its complete run state as plain public
//! data; this module encodes it through the workspace's canonical
//! [`Json`] codec (the same one the metrics snapshots use) and lands
//! files via the crash-safe [`artifact`](crate::artifact) writer. Every
//! scalar is a raw integer or a short tag string, so a checkpoint
//! round-trips exactly: `decode(encode(ck)) == ck`, bit for bit.
//!
//! Enums are encoded as kind-tagged objects (`{"kind": "read", ...}`),
//! line states as their display letters (`"L"`, `"F1"`), and the
//! fault counters as an object keyed by
//! [`decache_machine::FAULT_STAT_FIELDS`] so the file stays
//! self-describing.

use crate::json::Json;
use decache_bus::{ArbiterCheckpoint, BusOp, BusTransaction};
use decache_cache::{LineCheckpoint, RefClass, TagStoreCheckpoint};
use decache_core::LineState;
use decache_machine::{
    CacheStatsCheckpoint, FaultClockEntry, FaultEngineCheckpoint, HistogramCheckpoint,
    MachineCheckpoint, MachineStats, MemoryCheckpoint, OpResult, PendingCheckpoint,
    ProcessorCheckpoint, QueueCheckpoint, StatusCheckpoint, TelemetryCheckpoint, TrafficCheckpoint,
    FAULT_STAT_FIELDS,
};
use decache_mem::{Addr, MemoryStats, PeId, Word};
use std::path::Path;

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn uint(value: &Json, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an integer"))
}

fn string<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn boolean(value: &Json, key: &str) -> Result<bool, String> {
    match field(value, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field '{key}' is not a boolean")),
    }
}

fn array<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' is not an array"))
}

fn uints_to_json(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Array(values.into_iter().map(Json::U64).collect())
}

fn uints(value: &Json, key: &str) -> Result<Vec<u64>, String> {
    array(value, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("field '{key}' holds a non-integer element"))
        })
        .collect()
}

fn rng4(value: &Json, key: &str) -> Result<[u64; 4], String> {
    let words = uints(value, key)?;
    <[u64; 4]>::try_from(words)
        .map_err(|w| format!("field '{key}' has {} words, expected 4", w.len()))
}

fn items<T>(
    value: &Json,
    key: &str,
    decode: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    array(value, key)?
        .iter()
        .enumerate()
        .map(|(i, v)| decode(v).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

fn addr(value: &Json, key: &str) -> Result<Addr, String> {
    Ok(Addr::new(uint(value, key)?))
}

fn word(value: &Json, key: &str) -> Result<Word, String> {
    Ok(Word::new(uint(value, key)?))
}

fn pe_id(value: &Json, key: &str) -> Result<PeId, String> {
    let raw = uint(value, key)?;
    let idx = u16::try_from(raw).map_err(|_| format!("field '{key}' = {raw} overflows a PE id"))?;
    Ok(PeId::new(idx))
}

fn class_to_json(class: RefClass) -> Json {
    Json::Str(class.to_string())
}

fn class_from_json(value: &Json, key: &str) -> Result<RefClass, String> {
    match string(value, key)? {
        "code" => Ok(RefClass::Code),
        "local" => Ok(RefClass::Local),
        "shared" => Ok(RefClass::Shared),
        other => Err(format!("unknown reference class '{other}'")),
    }
}

fn line_state_to_json(state: LineState) -> Json {
    Json::Str(match state {
        LineState::FirstWrite(c) => format!("F{c}"),
        other => other.letter().to_string(),
    })
}

fn line_state_from_str(text: &str) -> Result<LineState, String> {
    match text {
        "I" => Ok(LineState::Invalid),
        "R" => Ok(LineState::Readable),
        "L" => Ok(LineState::Local),
        "V" => Ok(LineState::Valid),
        "S" => Ok(LineState::Reserved),
        "D" => Ok(LineState::Dirty),
        _ => {
            let count = text
                .strip_prefix('F')
                .and_then(|c| c.parse::<u8>().ok())
                .ok_or_else(|| format!("unknown line state '{text}'"))?;
            Ok(LineState::FirstWrite(count))
        }
    }
}

fn memory_stats_to_json(s: MemoryStats) -> Json {
    Json::object(vec![
        ("reads", Json::U64(s.reads)),
        ("writes", Json::U64(s.writes)),
        ("locked_reads", Json::U64(s.locked_reads)),
        ("rejected_writes", Json::U64(s.rejected_writes)),
    ])
}

fn memory_stats_from_json(value: &Json) -> Result<MemoryStats, String> {
    Ok(MemoryStats {
        reads: uint(value, "reads")?,
        writes: uint(value, "writes")?,
        locked_reads: uint(value, "locked_reads")?,
        rejected_writes: uint(value, "rejected_writes")?,
    })
}

fn memory_to_json(m: &MemoryCheckpoint) -> Json {
    Json::object(vec![
        ("words", uints_to_json(m.words.iter().map(|w| w.value()))),
        (
            "locks",
            Json::Array(
                m.locks
                    .iter()
                    .map(|&(addr, holder)| {
                        Json::object(vec![
                            ("addr", Json::U64(addr)),
                            ("holder", Json::U64(holder.index() as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("bad_parity", uints_to_json(m.bad_parity.iter().copied())),
        ("stats", memory_stats_to_json(m.stats)),
    ])
}

fn memory_from_json(value: &Json) -> Result<MemoryCheckpoint, String> {
    Ok(MemoryCheckpoint {
        words: uints(value, "words")?.into_iter().map(Word::new).collect(),
        locks: items(value, "locks", |v| {
            Ok((uint(v, "addr")?, pe_id(v, "holder")?))
        })?,
        bad_parity: uints(value, "bad_parity")?,
        stats: memory_stats_from_json(field(value, "stats")?)?,
    })
}

fn tag_store_to_json(ts: &TagStoreCheckpoint<LineState>) -> Json {
    Json::object(vec![
        (
            "lines",
            Json::Array(
                ts.lines
                    .iter()
                    .map(|line| {
                        Json::object(vec![
                            ("addr", Json::U64(line.addr.index())),
                            ("data", Json::U64(line.data.value())),
                            ("state", line.state.map_or(Json::Null, line_state_to_json)),
                            ("parity_ok", Json::Bool(line.parity_ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("lru_stamps", uints_to_json(ts.lru_stamps.iter().copied())),
        (
            "insert_stamps",
            uints_to_json(ts.insert_stamps.iter().copied()),
        ),
        ("clock", Json::U64(ts.clock)),
        ("rng_state", uints_to_json(ts.rng_state)),
    ])
}

fn tag_store_from_json(value: &Json) -> Result<TagStoreCheckpoint<LineState>, String> {
    Ok(TagStoreCheckpoint {
        lines: items(value, "lines", |v| {
            Ok(LineCheckpoint {
                addr: addr(v, "addr")?,
                data: word(v, "data")?,
                state: match field(v, "state")? {
                    Json::Null => None,
                    Json::Str(s) => Some(line_state_from_str(s)?),
                    _ => return Err("field 'state' is not a string or null".to_string()),
                },
                parity_ok: boolean(v, "parity_ok")?,
            })
        })?,
        lru_stamps: uints(value, "lru_stamps")?,
        insert_stamps: uints(value, "insert_stamps")?,
        clock: uint(value, "clock")?,
        rng_state: rng4(value, "rng_state")?,
    })
}

fn cache_stats_to_json(s: &CacheStatsCheckpoint) -> Json {
    let table = |t: &[[u64; 3]; 2]| Json::Array(t.iter().map(|row| uints_to_json(*row)).collect());
    Json::object(vec![("hits", table(&s.hits)), ("misses", table(&s.misses))])
}

fn cache_stats_from_json(value: &Json) -> Result<CacheStatsCheckpoint, String> {
    let table = |key: &str| -> Result<[[u64; 3]; 2], String> {
        let rows = array(value, key)?;
        if rows.len() != 2 {
            return Err(format!("field '{key}' has {} rows, expected 2", rows.len()));
        }
        let mut out = [[0u64; 3]; 2];
        for (k, row) in rows.iter().enumerate() {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("field '{key}' row is not an array"))?;
            if cells.len() != 3 {
                return Err(format!(
                    "field '{key}' row has {} cells, expected 3",
                    cells.len()
                ));
            }
            for (c, cell) in cells.iter().enumerate() {
                out[k][c] = cell
                    .as_u64()
                    .ok_or_else(|| format!("field '{key}' holds a non-integer cell"))?;
            }
        }
        Ok(out)
    };
    Ok(CacheStatsCheckpoint {
        hits: table("hits")?,
        misses: table("misses")?,
    })
}

fn pending_to_json(p: PendingCheckpoint) -> Json {
    match p {
        PendingCheckpoint::Read { addr, class } => Json::object(vec![
            ("kind", Json::Str("read".to_string())),
            ("addr", Json::U64(addr.index())),
            ("class", class_to_json(class)),
        ]),
        PendingCheckpoint::Write { addr, value, class } => Json::object(vec![
            ("kind", Json::Str("write".to_string())),
            ("addr", Json::U64(addr.index())),
            ("value", Json::U64(value.value())),
            ("class", class_to_json(class)),
        ]),
        PendingCheckpoint::LockedRead {
            addr,
            set_to,
            class,
        } => Json::object(vec![
            ("kind", Json::Str("locked-read".to_string())),
            ("addr", Json::U64(addr.index())),
            ("set_to", Json::U64(set_to.value())),
            ("class", class_to_json(class)),
        ]),
        PendingCheckpoint::UnlockWrite { addr, old, class } => Json::object(vec![
            ("kind", Json::Str("unlock-write".to_string())),
            ("addr", Json::U64(addr.index())),
            ("old", Json::U64(old.value())),
            ("class", class_to_json(class)),
        ]),
    }
}

fn pending_from_json(value: &Json) -> Result<PendingCheckpoint, String> {
    match string(value, "kind")? {
        "read" => Ok(PendingCheckpoint::Read {
            addr: addr(value, "addr")?,
            class: class_from_json(value, "class")?,
        }),
        "write" => Ok(PendingCheckpoint::Write {
            addr: addr(value, "addr")?,
            value: word(value, "value")?,
            class: class_from_json(value, "class")?,
        }),
        "locked-read" => Ok(PendingCheckpoint::LockedRead {
            addr: addr(value, "addr")?,
            set_to: word(value, "set_to")?,
            class: class_from_json(value, "class")?,
        }),
        "unlock-write" => Ok(PendingCheckpoint::UnlockWrite {
            addr: addr(value, "addr")?,
            old: word(value, "old")?,
            class: class_from_json(value, "class")?,
        }),
        other => Err(format!("unknown pending kind '{other}'")),
    }
}

fn status_to_json(s: StatusCheckpoint) -> Json {
    match s {
        StatusCheckpoint::Idle => Json::object(vec![("kind", Json::Str("idle".to_string()))]),
        StatusCheckpoint::WaitBus(p) => Json::object(vec![
            ("kind", Json::Str("wait-bus".to_string())),
            ("pending", pending_to_json(p)),
        ]),
        StatusCheckpoint::Done => Json::object(vec![("kind", Json::Str("done".to_string()))]),
        StatusCheckpoint::Failed => Json::object(vec![("kind", Json::Str("failed".to_string()))]),
    }
}

fn status_from_json(value: &Json) -> Result<StatusCheckpoint, String> {
    match string(value, "kind")? {
        "idle" => Ok(StatusCheckpoint::Idle),
        "wait-bus" => Ok(StatusCheckpoint::WaitBus(pending_from_json(field(
            value, "pending",
        )?)?)),
        "done" => Ok(StatusCheckpoint::Done),
        "failed" => Ok(StatusCheckpoint::Failed),
        other => Err(format!("unknown status kind '{other}'")),
    }
}

fn op_result_to_json(r: Option<OpResult>) -> Json {
    match r {
        None => Json::Null,
        Some(OpResult::Read(w)) => Json::object(vec![
            ("kind", Json::Str("read".to_string())),
            ("word", Json::U64(w.value())),
        ]),
        Some(OpResult::Write) => Json::object(vec![("kind", Json::Str("write".to_string()))]),
        Some(OpResult::TestAndSet { old, acquired }) => Json::object(vec![
            ("kind", Json::Str("ts".to_string())),
            ("old", Json::U64(old.value())),
            ("acquired", Json::Bool(acquired)),
        ]),
    }
}

fn op_result_from_json(value: &Json) -> Result<Option<OpResult>, String> {
    if matches!(value, Json::Null) {
        return Ok(None);
    }
    match string(value, "kind")? {
        "read" => Ok(Some(OpResult::Read(word(value, "word")?))),
        "write" => Ok(Some(OpResult::Write)),
        "ts" => Ok(Some(OpResult::TestAndSet {
            old: word(value, "old")?,
            acquired: boolean(value, "acquired")?,
        })),
        other => Err(format!("unknown result kind '{other}'")),
    }
}

fn processor_to_json(p: &ProcessorCheckpoint) -> Json {
    match p {
        ProcessorCheckpoint::Stateless => {
            Json::object(vec![("kind", Json::Str("stateless".to_string()))])
        }
        ProcessorCheckpoint::Script { ops_left } => Json::object(vec![
            ("kind", Json::Str("script".to_string())),
            ("ops_left", Json::U64(*ops_left)),
        ]),
        ProcessorCheckpoint::Loop {
            rounds_left,
            position,
        } => Json::object(vec![
            ("kind", Json::Str("loop".to_string())),
            ("rounds_left", Json::U64(*rounds_left)),
            ("position", Json::U64(*position)),
        ]),
        ProcessorCheckpoint::Spin { satisfied } => Json::object(vec![
            ("kind", Json::Str("spin".to_string())),
            ("satisfied", Json::Bool(*satisfied)),
        ]),
        ProcessorCheckpoint::Custom { kind, words } => Json::object(vec![
            ("kind", Json::Str("custom".to_string())),
            ("custom_kind", Json::Str(kind.clone())),
            ("words", uints_to_json(words.iter().copied())),
        ]),
    }
}

fn processor_from_json(value: &Json) -> Result<ProcessorCheckpoint, String> {
    match string(value, "kind")? {
        "stateless" => Ok(ProcessorCheckpoint::Stateless),
        "script" => Ok(ProcessorCheckpoint::Script {
            ops_left: uint(value, "ops_left")?,
        }),
        "loop" => Ok(ProcessorCheckpoint::Loop {
            rounds_left: uint(value, "rounds_left")?,
            position: uint(value, "position")?,
        }),
        "spin" => Ok(ProcessorCheckpoint::Spin {
            satisfied: boolean(value, "satisfied")?,
        }),
        "custom" => Ok(ProcessorCheckpoint::Custom {
            kind: string(value, "custom_kind")?.to_string(),
            words: uints(value, "words")?,
        }),
        other => Err(format!("unknown processor kind '{other}'")),
    }
}

fn bus_op_to_json(op: BusOp) -> Json {
    match op {
        BusOp::Read => Json::object(vec![("kind", Json::Str("read".to_string()))]),
        BusOp::Write(w) => Json::object(vec![
            ("kind", Json::Str("write".to_string())),
            ("value", Json::U64(w.value())),
        ]),
        BusOp::Invalidate => Json::object(vec![("kind", Json::Str("invalidate".to_string()))]),
        BusOp::ReadWithLock => {
            Json::object(vec![("kind", Json::Str("read-with-lock".to_string()))])
        }
        BusOp::WriteWithUnlock(w) => Json::object(vec![
            ("kind", Json::Str("write-with-unlock".to_string())),
            ("value", Json::U64(w.value())),
        ]),
    }
}

fn bus_op_from_json(value: &Json) -> Result<BusOp, String> {
    match string(value, "kind")? {
        "read" => Ok(BusOp::Read),
        "write" => Ok(BusOp::Write(word(value, "value")?)),
        "invalidate" => Ok(BusOp::Invalidate),
        "read-with-lock" => Ok(BusOp::ReadWithLock),
        "write-with-unlock" => Ok(BusOp::WriteWithUnlock(word(value, "value")?)),
        other => Err(format!("unknown bus op kind '{other}'")),
    }
}

fn transaction_to_json(t: &BusTransaction) -> Json {
    Json::object(vec![
        ("pe", Json::U64(t.initiator.index() as u64)),
        ("addr", Json::U64(t.addr.index())),
        ("op", bus_op_to_json(t.op)),
    ])
}

fn transaction_from_json(value: &Json) -> Result<BusTransaction, String> {
    Ok(BusTransaction {
        initiator: pe_id(value, "pe")?,
        addr: addr(value, "addr")?,
        op: bus_op_from_json(field(value, "op")?)?,
    })
}

fn queue_to_json(q: &QueueCheckpoint) -> Json {
    Json::object(vec![
        (
            "retry",
            Json::Array(q.retry.iter().map(transaction_to_json).collect()),
        ),
        (
            "pending",
            Json::Array(q.pending.iter().map(transaction_to_json).collect()),
        ),
        (
            "arrival",
            uints_to_json(q.arrival.iter().map(|pe| pe.index() as u64)),
        ),
        (
            "batch",
            uints_to_json(q.batch.iter().map(|pe| pe.index() as u64)),
        ),
        (
            "in_flight",
            Json::Array(
                q.in_flight
                    .iter()
                    .map(|(tx, ready)| {
                        Json::object(vec![
                            ("tx", transaction_to_json(tx)),
                            ("ready", Json::U64(*ready)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn pes_from_json(value: &Json, name: &'static str) -> Result<Vec<PeId>, String> {
    uints(value, name)?
        .into_iter()
        .map(|raw| {
            u16::try_from(raw)
                .map(PeId::new)
                .map_err(|_| format!("field '{name}' holds PE id {raw} out of range"))
        })
        .collect()
}

fn queue_from_json(value: &Json) -> Result<QueueCheckpoint, String> {
    Ok(QueueCheckpoint {
        retry: items(value, "retry", transaction_from_json)?,
        pending: items(value, "pending", transaction_from_json)?,
        arrival: pes_from_json(value, "arrival")?,
        batch: pes_from_json(value, "batch")?,
        in_flight: items(value, "in_flight", |v| {
            Ok((transaction_from_json(field(v, "tx")?)?, uint(v, "ready")?))
        })?,
    })
}

fn arbiter_to_json(a: &ArbiterCheckpoint) -> Json {
    match a {
        ArbiterCheckpoint::Stateless => {
            Json::object(vec![("kind", Json::Str("stateless".to_string()))])
        }
        ArbiterCheckpoint::RoundRobin { last } => Json::object(vec![
            ("kind", Json::Str("round-robin".to_string())),
            (
                "last",
                last.map_or(Json::Null, |pe| Json::U64(pe.index() as u64)),
            ),
        ]),
        ArbiterCheckpoint::Random { rng_state } => Json::object(vec![
            ("kind", Json::Str("random".to_string())),
            ("rng_state", uints_to_json(*rng_state)),
        ]),
    }
}

fn arbiter_from_json(value: &Json) -> Result<ArbiterCheckpoint, String> {
    match string(value, "kind")? {
        "stateless" => Ok(ArbiterCheckpoint::Stateless),
        "round-robin" => Ok(ArbiterCheckpoint::RoundRobin {
            last: match field(value, "last")? {
                Json::Null => None,
                _ => Some(pe_id(value, "last")?),
            },
        }),
        "random" => Ok(ArbiterCheckpoint::Random {
            rng_state: rng4(value, "rng_state")?,
        }),
        other => Err(format!("unknown arbiter kind '{other}'")),
    }
}

fn traffic_to_json(t: &TrafficCheckpoint) -> Json {
    Json::object(vec![
        ("counts", uints_to_json(t.counts)),
        ("aborted_reads", Json::U64(t.aborted_reads)),
        ("retries", Json::U64(t.retries)),
        ("busy_cycles", Json::U64(t.busy_cycles)),
        ("idle_cycles", Json::U64(t.idle_cycles)),
        ("address_phases", Json::U64(t.address_phases)),
    ])
}

fn traffic_from_json(value: &Json) -> Result<TrafficCheckpoint, String> {
    let counts = uints(value, "counts")?;
    Ok(TrafficCheckpoint {
        counts: <[u64; 5]>::try_from(counts)
            .map_err(|c| format!("field 'counts' has {} kinds, expected 5", c.len()))?,
        aborted_reads: uint(value, "aborted_reads")?,
        retries: uint(value, "retries")?,
        busy_cycles: uint(value, "busy_cycles")?,
        idle_cycles: uint(value, "idle_cycles")?,
        address_phases: uint(value, "address_phases")?,
    })
}

fn machine_stats_to_json(s: MachineStats) -> Json {
    Json::object(vec![
        ("broadcast_satisfied", Json::U64(s.broadcast_satisfied)),
        ("writebacks", Json::U64(s.writebacks)),
        ("ts_failures", Json::U64(s.ts_failures)),
        ("ts_successes", Json::U64(s.ts_successes)),
        ("lock_rejections", Json::U64(s.lock_rejections)),
        ("lock_rejected_reads", Json::U64(s.lock_rejected_reads)),
        ("lock_rejected_writes", Json::U64(s.lock_rejected_writes)),
        ("tag_probes", Json::U64(s.tag_probes)),
        ("sharer_visits", Json::U64(s.sharer_visits)),
        ("queue_scans", Json::U64(s.queue_scans)),
        ("split_cancels", Json::U64(s.split_cancels)),
    ])
}

fn machine_stats_from_json(value: &Json) -> Result<MachineStats, String> {
    Ok(MachineStats {
        broadcast_satisfied: uint(value, "broadcast_satisfied")?,
        writebacks: uint(value, "writebacks")?,
        ts_failures: uint(value, "ts_failures")?,
        ts_successes: uint(value, "ts_successes")?,
        lock_rejections: uint(value, "lock_rejections")?,
        lock_rejected_reads: uint(value, "lock_rejected_reads")?,
        lock_rejected_writes: uint(value, "lock_rejected_writes")?,
        tag_probes: uint(value, "tag_probes")?,
        sharer_visits: uint(value, "sharer_visits")?,
        queue_scans: uint(value, "queue_scans")?,
        split_cancels: uint(value, "split_cancels")?,
    })
}

fn histogram_to_json(h: &HistogramCheckpoint) -> Json {
    Json::object(vec![
        ("buckets", uints_to_json(h.buckets.iter().copied())),
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("max", Json::U64(h.max)),
    ])
}

fn histogram_from_json(value: &Json) -> Result<HistogramCheckpoint, String> {
    Ok(HistogramCheckpoint {
        buckets: uints(value, "buckets")?,
        count: uint(value, "count")?,
        sum: uint(value, "sum")?,
        max: uint(value, "max")?,
    })
}

fn telemetry_to_json(t: &TelemetryCheckpoint) -> Json {
    Json::object(vec![
        ("bus_acquire_wait", histogram_to_json(&t.bus_acquire_wait)),
        ("memory_service", histogram_to_json(&t.memory_service)),
        ("read_fill", histogram_to_json(&t.read_fill)),
        ("ts_spin", histogram_to_json(&t.ts_spin)),
        ("enqueued_at", uints_to_json(t.enqueued_at.iter().copied())),
        ("read_since", uints_to_json(t.read_since.iter().copied())),
        ("ts_since", uints_to_json(t.ts_since.iter().copied())),
    ])
}

fn telemetry_from_json(value: &Json) -> Result<TelemetryCheckpoint, String> {
    Ok(TelemetryCheckpoint {
        bus_acquire_wait: histogram_from_json(field(value, "bus_acquire_wait")?)?,
        memory_service: histogram_from_json(field(value, "memory_service")?)?,
        read_fill: histogram_from_json(field(value, "read_fill")?)?,
        ts_spin: histogram_from_json(field(value, "ts_spin")?)?,
        enqueued_at: uints(value, "enqueued_at")?,
        read_since: uints(value, "read_since")?,
        ts_since: uints(value, "ts_since")?,
    })
}

fn fault_to_json(f: &FaultEngineCheckpoint) -> Json {
    Json::object(vec![
        ("rng_state", uints_to_json(f.rng_state)),
        ("cursor", Json::U64(f.cursor)),
        (
            "lose_grant",
            Json::Array(f.lose_grant.iter().map(|&b| Json::Bool(b)).collect()),
        ),
    ])
}

fn fault_from_json(value: &Json) -> Result<FaultEngineCheckpoint, String> {
    Ok(FaultEngineCheckpoint {
        rng_state: rng4(value, "rng_state")?,
        cursor: uint(value, "cursor")?,
        lose_grant: array(value, "lose_grant")?
            .iter()
            .map(|v| match v {
                Json::Bool(b) => Ok(*b),
                _ => Err("field 'lose_grant' holds a non-boolean element".to_string()),
            })
            .collect::<Result<_, String>>()?,
    })
}

fn fault_clock_to_json(entries: &[FaultClockEntry]) -> Json {
    Json::Array(
        entries
            .iter()
            .map(|e| {
                Json::object(vec![
                    ("pe", e.pe.map_or(Json::Null, Json::U64)),
                    ("addr", Json::U64(e.addr)),
                    ("injected_at", Json::U64(e.injected_at)),
                ])
            })
            .collect(),
    )
}

fn fault_stats_to_json(stats: &[u64; 17]) -> Json {
    Json::Object(
        FAULT_STAT_FIELDS
            .iter()
            .zip(stats.iter())
            .map(|(name, &v)| ((*name).to_owned(), Json::U64(v)))
            .collect(),
    )
}

fn fault_stats_from_json(value: &Json) -> Result<[u64; 17], String> {
    let mut out = [0u64; 17];
    for (slot, name) in out.iter_mut().zip(FAULT_STAT_FIELDS.iter()) {
        *slot = uint(value, name)?;
    }
    Ok(out)
}

/// Encodes a [`MachineCheckpoint`] as the workspace's canonical JSON
/// value; its `Display` form is the stable on-disk format.
pub fn checkpoint_to_json(ck: &MachineCheckpoint) -> Json {
    Json::object(vec![
        ("version", Json::U64(u64::from(ck.version))),
        ("protocol", Json::Str(ck.protocol.clone())),
        ("pes", Json::U64(ck.pes)),
        ("bus_count", Json::U64(ck.bus_count)),
        ("memory_size", Json::U64(ck.memory_size)),
        ("sets", Json::U64(ck.sets)),
        ("ways", Json::U64(ck.ways)),
        ("block_words", Json::U64(ck.block_words)),
        ("transaction_cycles", Json::U64(ck.transaction_cycles)),
        ("discipline", Json::Str(ck.discipline.clone())),
        ("cycle", Json::U64(ck.cycle)),
        // The retired sharded issue phase's odometer: still written, as
        // 0, so the format is unchanged.
        ("sharded_cycles", Json::U64(0)),
        ("memory", memory_to_json(&ck.memory)),
        (
            "caches",
            Json::Array(ck.caches.iter().map(tag_store_to_json).collect()),
        ),
        (
            "cache_stats",
            Json::Array(ck.cache_stats.iter().map(cache_stats_to_json).collect()),
        ),
        (
            "statuses",
            Json::Array(ck.statuses.iter().map(|&s| status_to_json(s)).collect()),
        ),
        (
            "last_results",
            Json::Array(
                ck.last_results
                    .iter()
                    .map(|&r| op_result_to_json(r))
                    .collect(),
            ),
        ),
        (
            "processors",
            Json::Array(ck.processors.iter().map(processor_to_json).collect()),
        ),
        (
            "queues",
            Json::Array(ck.queues.iter().map(queue_to_json).collect()),
        ),
        (
            "arbiters",
            Json::Array(ck.arbiters.iter().map(arbiter_to_json).collect()),
        ),
        (
            "traffic",
            Json::Array(ck.traffic.iter().map(traffic_to_json).collect()),
        ),
        ("bus_free_at", uints_to_json(ck.bus_free_at.iter().copied())),
        ("stats", machine_stats_to_json(ck.stats)),
        ("fault", ck.fault.as_ref().map_or(Json::Null, fault_to_json)),
        ("fault_stats", fault_stats_to_json(&ck.fault_stats)),
        ("fault_clock", fault_clock_to_json(&ck.fault_clock)),
        (
            "last_progress",
            uints_to_json(ck.last_progress.iter().copied()),
        ),
        (
            "last_addr",
            Json::Array(
                ck.last_addr
                    .iter()
                    .map(|a| a.map_or(Json::Null, |a| Json::U64(a.index())))
                    .collect(),
            ),
        ),
        (
            "telemetry",
            ck.telemetry.as_ref().map_or(Json::Null, telemetry_to_json),
        ),
    ])
}

/// Decodes a [`MachineCheckpoint`] from its JSON form.
///
/// # Errors
///
/// Returns a description of the first missing, mistyped, or
/// out-of-range field. Semantic validation (shape against a concrete
/// machine, RNG-state sanity) is [`decache_machine::Machine::restore`]'s
/// job, not the codec's.
pub fn checkpoint_from_json(value: &Json) -> Result<MachineCheckpoint, String> {
    let raw_version = uint(value, "version")?;
    let version = u32::try_from(raw_version)
        .map_err(|_| format!("field 'version' = {raw_version} overflows u32"))?;
    // Still required, so the format is unchanged; its value is ignored.
    uint(value, "sharded_cycles")?;
    Ok(MachineCheckpoint {
        version,
        protocol: string(value, "protocol")?.to_string(),
        pes: uint(value, "pes")?,
        bus_count: uint(value, "bus_count")?,
        memory_size: uint(value, "memory_size")?,
        sets: uint(value, "sets")?,
        ways: uint(value, "ways")?,
        block_words: uint(value, "block_words")?,
        transaction_cycles: uint(value, "transaction_cycles")?,
        discipline: string(value, "discipline")?.to_string(),
        cycle: uint(value, "cycle")?,
        memory: memory_from_json(field(value, "memory")?).map_err(|e| format!("memory: {e}"))?,
        caches: items(value, "caches", tag_store_from_json)?,
        cache_stats: items(value, "cache_stats", cache_stats_from_json)?,
        statuses: items(value, "statuses", status_from_json)?,
        last_results: items(value, "last_results", op_result_from_json)?,
        processors: items(value, "processors", processor_from_json)?,
        queues: items(value, "queues", queue_from_json)?,
        arbiters: items(value, "arbiters", arbiter_from_json)?,
        traffic: items(value, "traffic", traffic_from_json)?,
        bus_free_at: uints(value, "bus_free_at")?,
        stats: machine_stats_from_json(field(value, "stats")?)
            .map_err(|e| format!("stats: {e}"))?,
        fault: match field(value, "fault")? {
            Json::Null => None,
            f => Some(fault_from_json(f).map_err(|e| format!("fault: {e}"))?),
        },
        fault_stats: fault_stats_from_json(field(value, "fault_stats")?)
            .map_err(|e| format!("fault_stats: {e}"))?,
        fault_clock: items(value, "fault_clock", |v| {
            Ok(FaultClockEntry {
                pe: match field(v, "pe")? {
                    Json::Null => None,
                    _ => Some(uint(v, "pe")?),
                },
                addr: uint(v, "addr")?,
                injected_at: uint(v, "injected_at")?,
            })
        })?,
        last_progress: uints(value, "last_progress")?,
        last_addr: items(value, "last_addr", |v| match v {
            Json::Null => Ok(None),
            _ => Ok(Some(Addr::new(v.as_u64().ok_or_else(|| {
                "field 'last_addr' holds a non-integer element".to_string()
            })?))),
        })?,
        telemetry: match field(value, "telemetry")? {
            Json::Null => None,
            t => Some(telemetry_from_json(t).map_err(|e| format!("telemetry: {e}"))?),
        },
    })
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
    use decache_mem::AddrRange;
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
            let encoded = line_state_to_json(state);
            let text = encoded.as_str().unwrap().to_string();
            assert_eq!(line_state_from_str(&text).unwrap(), state, "{text}");
        }
        assert!(line_state_from_str("Q").is_err());
        assert!(line_state_from_str("Fx").is_err());
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
