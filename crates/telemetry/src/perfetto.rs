//! Chrome-trace / Perfetto export of the machine's [`Observation`]
//! stream.
//!
//! A [`PerfettoTrace`] is an [`Observer`] factory around a bounded ring
//! buffer: attach its observer to a [`MachineBuilder`], run, then
//! [`export`](PerfettoTrace::export) the captured events as Trace Event
//! Format JSON (`{"traceEvents":[...]}`) that `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly.
//!
//! Track layout: one process (`decache`), with thread 0 for
//! machine-wide events (fault injection, memory repair), one thread per
//! PE (`P0`, `P1`, …) carrying instant events for CPU decisions and
//! completions, and one thread per bus (`bus0`, …) carrying 1-cycle
//! complete events for bus transactions. Timestamps are bus cycles, so
//! a trace is exactly reproducible run-to-run.
//!
//! Capture never perturbs the simulation (observers are pure), and the
//! ring bound keeps memory flat on long runs: once full, the oldest
//! events fall off and [`dropped`](PerfettoTrace::dropped) counts them.

use crate::json::Json;
use decache_machine::{CpuDecision, FaultKind, Machine, Observation, Observer, RecoverySource};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default ring capacity: enough for every event of the bundled
/// experiment scenarios while bounding a pathological run to a few
/// megabytes.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct Ring {
    events: std::collections::VecDeque<(u64, Observation)>,
    capacity: usize,
    dropped: u64,
}

/// A bounded recorder for the machine's observation stream with a
/// Trace Event Format exporter.
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
/// use decache_machine::{MachineBuilder, Script};
/// use decache_mem::{Addr, Word};
/// use decache_telemetry::PerfettoTrace;
///
/// let trace = PerfettoTrace::new(1024);
/// let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
///     .observer(trace.observer())
///     .processor(Script::new().write(Addr::new(0), Word::ONE).build())
///     .processor(Script::new().read(Addr::new(0)).build())
///     .build();
/// machine.run_to_completion(1_000);
///
/// let json = trace.export_string(&machine);
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert_eq!(trace.dropped(), 0);
/// ```
pub struct PerfettoTrace {
    inner: Arc<Mutex<Ring>>,
}

struct RingObserver {
    inner: Arc<Mutex<Ring>>,
}

impl Observer for RingObserver {
    fn observe(&mut self, cycle: u64, observation: &Observation) {
        let mut ring = self.inner.lock().expect("trace ring poisoned");
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back((cycle, *observation));
    }
}

impl PerfettoTrace {
    /// A recorder keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        PerfettoTrace {
            inner: Arc::new(Mutex::new(Ring {
                events: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// A recorder with [`DEFAULT_CAPACITY`].
    #[allow(clippy::new_without_default)]
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }

    /// A boxed observer feeding this recorder, for
    /// [`MachineBuilder::observer`](decache_machine::MachineBuilder::observer)
    /// or [`Machine::attach_observer`](decache_machine::Machine::attach_observer).
    /// Multiple observers from one recorder share the ring.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(RingObserver {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").events.len()
    }

    /// `true` iff nothing has been captured (or everything fell off).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Renders the captured events as a Trace Event Format document.
    ///
    /// The machine supplies the topology (PE/bus counts, protocol name,
    /// address-to-bus routing) used to lay out tracks; pass the machine
    /// the observer was attached to.
    pub fn export(&self, machine: &Machine) -> Json {
        let pes = machine.pe_count();
        let buses = machine.bus_count();
        let routing = machine.routing();
        let pe_tid = |pe: usize| pe as u64 + 1;
        let bus_tid = |bus: usize| (pes + bus) as u64 + 1;

        let mut events = Vec::new();
        let meta = |name: &str, tid: u64, value: String| {
            Json::object(vec![
                ("name", Json::Str(name.to_owned())),
                ("ph", Json::Str("M".to_owned())),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(tid)),
                ("args", Json::object(vec![("name", Json::Str(value))])),
            ])
        };
        events.push(meta(
            "process_name",
            0,
            format!("decache {}", machine.protocol().table().name),
        ));
        events.push(meta("thread_name", 0, "machine".to_owned()));
        for pe in 0..pes {
            events.push(meta("thread_name", pe_tid(pe), format!("P{pe}")));
        }
        for bus in 0..buses {
            events.push(meta("thread_name", bus_tid(bus), format!("bus{bus}")));
        }

        let instant = |cycle: u64, tid: u64, name: String, args: Vec<(&str, Json)>| {
            Json::object(vec![
                ("name", Json::Str(name)),
                ("ph", Json::Str("i".to_owned())),
                ("s", Json::Str("t".to_owned())),
                ("ts", Json::U64(cycle)),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(tid)),
                ("args", Json::object(args)),
            ])
        };
        let slice = |cycle: u64, tid: u64, name: String, args: Vec<(&str, Json)>| {
            Json::object(vec![
                ("name", Json::Str(name)),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::U64(cycle)),
                ("dur", Json::U64(1)),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(tid)),
                ("args", Json::object(args)),
            ])
        };
        let addr_arg = |addr: decache_mem::Addr| ("addr", Json::U64(addr.index()));

        let ring = self.inner.lock().expect("trace ring poisoned");
        for &(cycle, ref obs) in &ring.events {
            let event = match *obs {
                Observation::CpuAccess {
                    pe,
                    addr,
                    write,
                    decision,
                } => {
                    let kind = if write { "write" } else { "read" };
                    match decision {
                        CpuDecision::Hit => instant(
                            cycle,
                            pe_tid(pe),
                            format!("{kind} hit"),
                            vec![addr_arg(addr)],
                        ),
                        CpuDecision::Miss(intent) => instant(
                            cycle,
                            pe_tid(pe),
                            format!("{kind} miss"),
                            vec![addr_arg(addr), ("intent", Json::Str(format!("{intent:?}")))],
                        ),
                    }
                }
                Observation::LockedReadIssued { pe, addr } => instant(
                    cycle,
                    pe_tid(pe),
                    "TS issue".to_owned(),
                    vec![addr_arg(addr)],
                ),
                Observation::Supplied {
                    supplier,
                    initiator,
                    addr,
                } => slice(
                    cycle,
                    bus_tid(routing.bus_of(addr)),
                    "supply".to_owned(),
                    vec![
                        addr_arg(addr),
                        ("supplier", Json::U64(supplier as u64)),
                        ("initiator", Json::U64(initiator as u64)),
                    ],
                ),
                Observation::ReadCompleted { pe, addr, locked } => slice(
                    cycle,
                    bus_tid(routing.bus_of(addr)),
                    if locked { "BRL" } else { "BR" }.to_owned(),
                    vec![addr_arg(addr), ("pe", Json::U64(pe as u64))],
                ),
                Observation::WriteCompleted { pe, addr, unlock } => slice(
                    cycle,
                    bus_tid(routing.bus_of(addr)),
                    if unlock { "BWU" } else { "BW" }.to_owned(),
                    vec![addr_arg(addr), ("pe", Json::U64(pe as u64))],
                ),
                Observation::InvalidateCompleted { pe, addr } => slice(
                    cycle,
                    bus_tid(routing.bus_of(addr)),
                    "BI".to_owned(),
                    vec![addr_arg(addr), ("pe", Json::U64(pe as u64))],
                ),
                Observation::BroadcastSatisfied { pe, addr } => instant(
                    cycle,
                    pe_tid(pe),
                    "broadcast fill".to_owned(),
                    vec![addr_arg(addr)],
                ),
                Observation::Evicted {
                    pe,
                    addr,
                    writeback,
                } => instant(
                    cycle,
                    pe_tid(pe),
                    if writeback { "evict+wb" } else { "evict" }.to_owned(),
                    vec![addr_arg(addr)],
                ),
                Observation::FaultInjected { fault } => {
                    let (tid, args) = match fault {
                        FaultKind::MemoryFlip { addr } => (0, vec![addr_arg(addr)]),
                        FaultKind::CacheFlip { pe, addr } => (pe_tid(pe), vec![addr_arg(addr)]),
                        FaultKind::BusLoss { bus } => (bus_tid(bus), vec![]),
                        FaultKind::FailStop { pe } => (pe_tid(pe), vec![]),
                    };
                    instant(cycle, tid, format!("inject: {fault}"), args)
                }
                Observation::FaultDetected { pe, addr } => instant(
                    cycle,
                    pe.map_or(0, pe_tid),
                    if pe.is_some() {
                        "cache parity fail"
                    } else {
                        "memory parity fail"
                    }
                    .to_owned(),
                    vec![addr_arg(addr)],
                ),
                Observation::LineScrubbed {
                    pe,
                    addr,
                    lost_write,
                } => instant(
                    cycle,
                    pe_tid(pe),
                    if lost_write {
                        "scrub (write lost)"
                    } else {
                        "scrub"
                    }
                    .to_owned(),
                    vec![addr_arg(addr)],
                ),
                Observation::MemoryRepaired { addr, source } => instant(
                    cycle,
                    0,
                    match source {
                        RecoverySource::Owner { .. } => "repair from owner",
                        RecoverySource::Majority { .. } => "repair by majority",
                    }
                    .to_owned(),
                    vec![addr_arg(addr), ("source", Json::Str(format!("{source:?}")))],
                ),
                Observation::BroadcastHealed { pe, addr } => instant(
                    cycle,
                    pe_tid(pe),
                    "broadcast heal".to_owned(),
                    vec![addr_arg(addr)],
                ),
                Observation::PeFailStopped {
                    pe,
                    drained,
                    lost_writes,
                } => instant(
                    cycle,
                    pe_tid(pe),
                    "fail-stop".to_owned(),
                    vec![
                        ("drained", Json::U64(drained as u64)),
                        ("lost_writes", Json::U64(lost_writes as u64)),
                    ],
                ),
            };
            events.push(event);
        }

        Json::object(vec![
            ("traceEvents", Json::Array(events)),
            (
                "otherData",
                Json::object(vec![
                    (
                        "protocol",
                        Json::Str(machine.protocol().table().name.clone()),
                    ),
                    ("pes", Json::U64(pes as u64)),
                    ("buses", Json::U64(buses as u64)),
                    ("cycles", Json::U64(machine.cycles())),
                    ("dropped_events", Json::U64(ring.dropped)),
                ]),
            ),
        ])
    }

    /// The exported document as canonical compact JSON text.
    pub fn export_string(&self, machine: &Machine) -> String {
        self.export(machine).to_string()
    }

    /// Writes the exported document to `path` crash-safely
    /// (tmp + rename via [`crate::artifact::write_atomic`]); an
    /// interrupted save never leaves a truncated trace.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn save(&self, machine: &Machine, path: &Path) -> std::io::Result<()> {
        crate::artifact::write_atomic(path, self.export_string(machine).as_bytes())
    }
}

/// The trace destination requested via the `DECACHE_TRACE` environment
/// variable, if any. Bench bins call this to decide whether to attach a
/// [`PerfettoTrace`] and where to save it.
pub fn env_trace_path() -> Option<PathBuf> {
    match std::env::var("DECACHE_TRACE") {
        Ok(path) if !path.is_empty() => Some(PathBuf::from(path)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ProtocolKind;
    use decache_machine::{MachineBuilder, Script};
    use decache_mem::{Addr, Word};

    fn traced_run(capacity: usize) -> (PerfettoTrace, Machine) {
        let trace = PerfettoTrace::new(capacity);
        let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
            .observer(trace.observer())
            .processor(
                Script::new()
                    .write(Addr::new(0), Word::new(7))
                    .test_and_set(Addr::new(1), Word::ONE)
                    .build(),
            )
            .processor(Script::new().read(Addr::new(0)).build())
            .build();
        machine.run_to_completion(1_000);
        (trace, machine)
    }

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let (trace, machine) = traced_run(1024);
        assert!(!trace.is_empty());
        assert_eq!(trace.dropped(), 0);

        let doc = Json::parse(&trace.export_string(&machine)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata: process name + machine/P0/P1/bus0 thread names.
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 5);
        // Every non-metadata event has a cycle timestamp and a track.
        for event in events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        {
            assert!(event.get("ts").and_then(Json::as_u64).is_some());
            assert!(event.get("tid").and_then(Json::as_u64).unwrap() <= 3);
        }
        // The run produced at least one bus write slice.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("BW")
        }));
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let (trace, _machine) = traced_run(4);
        assert_eq!(trace.len(), 4);
        assert!(trace.dropped() > 0);
    }

    #[test]
    fn env_gate_reads_decache_trace() {
        // Can't mutate the environment safely under the threaded test
        // harness; just exercise the unset/empty path.
        if std::env::var_os("DECACHE_TRACE").is_none() {
            assert_eq!(env_trace_path(), None);
        }
    }
}
