//! Chrome-trace / Perfetto export and the text view of the machine's
//! [`Observation`] stream.
//!
//! A [`PerfettoTrace`] is an [`Observer`] factory around a bounded ring
//! buffer: attach its observer to a [`MachineBuilder`], run, then
//! [`export`](PerfettoTrace::export) the captured events as Trace Event
//! Format JSON (`{"traceEvents":[...]}`) that `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly, or render
//! them as [`text`](PerfettoTrace::text), one line per event. Both read
//! each event's track, name and arguments from one mapping.
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
//! events fall off and [`dropped`](PerfettoTrace::dropped) counts them
//! (the text view states that count on its first line).

use crate::json::Json;
use decache_machine::{CpuDecision, FaultKind, Machine, Observation, Observer, RecoverySource};
use decache_mem::Addr;
use std::fmt;
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
/// assert!(trace.text(&machine).contains("] bus0 BW addr=0 pe=0\n"));
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
        let tid = |track: Track| match track {
            Track::Machine => 0,
            Track::Pe(pe) => pe as u64 + 1,
            Track::Bus(bus) => (pes + bus) as u64 + 1,
        };

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
            events.push(meta("thread_name", tid(Track::Pe(pe)), format!("P{pe}")));
        }
        for bus in 0..buses {
            events.push(meta(
                "thread_name",
                tid(Track::Bus(bus)),
                format!("bus{bus}"),
            ));
        }

        let ring = self.inner.lock().expect("trace ring poisoned");
        for &(cycle, ref obs) in &ring.events {
            let event = describe(obs, machine);
            let text = |s: &str| Json::Str(s.to_owned());
            let mut fields = vec![("name", Json::Str(event.name))];
            fields.extend(if event.slice {
                [
                    ("ph", text("X")),
                    ("ts", Json::U64(cycle)),
                    ("dur", Json::U64(1)),
                ]
            } else {
                [
                    ("ph", text("i")),
                    ("s", text("t")),
                    ("ts", Json::U64(cycle)),
                ]
            });
            fields.push(("pid", Json::U64(0)));
            fields.push(("tid", Json::U64(tid(event.track))));
            fields.push(("args", Json::object(event.args)));
            events.push(Json::object(fields));
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

    /// Renders the captured events as text, one line per event in
    /// emission order: `[   12] P3 read miss addr=0 intent=Read`.
    ///
    /// Each line reads the same track, name and arguments as the
    /// [`export`](PerfettoTrace::export)ed Trace Event. When the ring
    /// has dropped events, a first line says how many, so a truncated
    /// capture never reads as a complete one.
    pub fn text(&self, machine: &Machine) -> String {
        let ring = self.inner.lock().expect("trace ring poisoned");
        let mut text = String::new();
        if ring.dropped > 0 {
            text = format!(
                "[dropped] {} earlier events fell off the {}-event ring\n",
                ring.dropped, ring.capacity
            );
        }
        for (cycle, obs) in &ring.events {
            text += &format!("[{cycle:>5}] {}\n", describe(obs, machine));
        }
        text
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

/// The timeline an event is drawn on.
#[derive(Debug, Clone, Copy)]
enum Track {
    /// Machine-wide events: memory faults and repairs.
    Machine,
    /// One processing element's decisions and completions.
    Pe(usize),
    /// One bus's transactions.
    Bus(usize),
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Track::Machine => f.write_str("machine"),
            Track::Pe(pe) => write!(f, "P{pe}"),
            Track::Bus(bus) => write!(f, "bus{bus}"),
        }
    }
}

/// One observation as a named event on a track.
struct Described {
    track: Track,
    /// `true` for a completed bus transaction, drawn as a 1-cycle
    /// slice; `false` for an instant.
    slice: bool,
    name: String,
    args: Vec<(&'static str, Json)>,
}

impl fmt::Display for Described {
    /// `P3 read miss addr=0 intent=Read`: track, name, then each
    /// argument as `key=value`, strings unquoted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.track, self.name)?;
        for (key, value) in &self.args {
            match value {
                Json::Str(value) => write!(f, " {key}={value}")?,
                value => write!(f, " {key}={value}")?,
            }
        }
        Ok(())
    }
}

/// States each [`Observation`] variant's track, name and arguments
/// once; [`PerfettoTrace::export`] and [`PerfettoTrace::text`] both
/// render from it.
fn describe(obs: &Observation, machine: &Machine) -> Described {
    let addr_arg = |addr: Addr| ("addr", Json::U64(addr.index()));
    let instant = |track: Track, name: &str, args: Vec<(&'static str, Json)>| Described {
        track,
        slice: false,
        name: name.to_owned(),
        args,
    };
    let pe_arg = |key: &'static str, pe: usize| (key, Json::U64(pe as u64));
    let slice = |addr: Addr, name: &str, args: Vec<(&'static str, Json)>| Described {
        track: Track::Bus(machine.routing().bus_of(addr)),
        slice: true,
        name: name.to_owned(),
        args,
    };
    let at_pe =
        |pe: usize, name: &str, addr: Addr| instant(Track::Pe(pe), name, vec![addr_arg(addr)]);
    let completed = |addr: Addr, name: &str, pe: usize| {
        slice(addr, name, vec![addr_arg(addr), pe_arg("pe", pe)])
    };
    match *obs {
        Observation::CpuAccess {
            pe,
            addr,
            write,
            decision,
        } => {
            let kind = if write { "write" } else { "read" };
            match decision {
                CpuDecision::Hit => at_pe(pe, &format!("{kind} hit"), addr),
                CpuDecision::Miss(intent) => instant(
                    Track::Pe(pe),
                    &format!("{kind} miss"),
                    vec![addr_arg(addr), ("intent", Json::Str(format!("{intent:?}")))],
                ),
            }
        }
        Observation::LockedReadIssued { pe, addr } => at_pe(pe, "TS issue", addr),
        Observation::Supplied {
            supplier,
            initiator,
            addr,
        } => slice(
            addr,
            "supply",
            vec![
                addr_arg(addr),
                pe_arg("supplier", supplier),
                pe_arg("initiator", initiator),
            ],
        ),
        Observation::ReadCompleted { pe, addr, locked } => {
            completed(addr, if locked { "BRL" } else { "BR" }, pe)
        }
        Observation::WriteCompleted { pe, addr, unlock } => {
            completed(addr, if unlock { "BWU" } else { "BW" }, pe)
        }
        Observation::InvalidateCompleted { pe, addr } => completed(addr, "BI", pe),
        Observation::BroadcastSatisfied { pe, addr } => at_pe(pe, "broadcast fill", addr),
        Observation::Evicted {
            pe,
            addr,
            writeback,
        } => at_pe(pe, if writeback { "evict+wb" } else { "evict" }, addr),
        Observation::FaultInjected { fault } => {
            let (track, args) = match fault {
                FaultKind::MemoryFlip { addr } => (Track::Machine, vec![addr_arg(addr)]),
                FaultKind::CacheFlip { pe, addr } => (Track::Pe(pe), vec![addr_arg(addr)]),
                FaultKind::BusLoss { bus } => (Track::Bus(bus), vec![]),
                FaultKind::FailStop { pe } => (Track::Pe(pe), vec![]),
            };
            instant(track, &format!("inject: {fault}"), args)
        }
        Observation::FaultDetected { pe, addr } => match pe {
            Some(pe) => at_pe(pe, "cache parity fail", addr),
            None => instant(Track::Machine, "memory parity fail", vec![addr_arg(addr)]),
        },
        Observation::LineScrubbed {
            pe,
            addr,
            lost_write,
        } => {
            let name = if lost_write {
                "scrub (write lost)"
            } else {
                "scrub"
            };
            at_pe(pe, name, addr)
        }
        Observation::MemoryRepaired { addr, source } => instant(
            Track::Machine,
            match source {
                RecoverySource::Owner { .. } => "repair from owner",
                RecoverySource::Majority { .. } => "repair by majority",
            },
            vec![addr_arg(addr), ("source", Json::Str(format!("{source:?}")))],
        ),
        Observation::BroadcastHealed { pe, addr } => at_pe(pe, "broadcast heal", addr),
        Observation::PeFailStopped {
            pe,
            drained,
            lost_writes,
        } => instant(
            Track::Pe(pe),
            "fail-stop",
            vec![
                ("drained", Json::U64(drained as u64)),
                ("lost_writes", Json::U64(lost_writes as u64)),
            ],
        ),
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
    fn text_states_the_drop_count_before_the_surviving_events() {
        let (full, machine) = traced_run(1024);
        assert_eq!(full.dropped(), 0);
        let text = full.text(&machine);
        assert_eq!(text.lines().count(), full.len());
        assert!(
            text.starts_with("[    1] P0 write miss addr=0 intent=Write\n"),
            "{text}"
        );

        let (truncated, machine) = traced_run(4);
        let dropped = truncated.dropped();
        assert_eq!(dropped as usize + 4, full.len());
        let text = truncated.text(&machine);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert_eq!(
            lines[0],
            format!("[dropped] {dropped} earlier events fell off the 4-event ring")
        );
        // The survivors are the newest four lines of the full capture.
        let full_text = full.text(&machine);
        let tail: Vec<&str> = full_text.lines().skip(dropped as usize).collect();
        assert_eq!(lines[1..], tail[..]);
    }

    /// A distinct number per variant. The match has no wildcard arm, so
    /// a new variant fails to compile here until the test below covers
    /// it.
    fn variant(obs: &Observation) -> usize {
        match obs {
            Observation::CpuAccess { .. } => 0,
            Observation::LockedReadIssued { .. } => 1,
            Observation::Supplied { .. } => 2,
            Observation::ReadCompleted { .. } => 3,
            Observation::WriteCompleted { .. } => 4,
            Observation::InvalidateCompleted { .. } => 5,
            Observation::BroadcastSatisfied { .. } => 6,
            Observation::Evicted { .. } => 7,
            Observation::FaultInjected { .. } => 8,
            Observation::FaultDetected { .. } => 9,
            Observation::LineScrubbed { .. } => 10,
            Observation::MemoryRepaired { .. } => 11,
            Observation::BroadcastHealed { .. } => 12,
            Observation::PeFailStopped { .. } => 13,
        }
    }

    #[test]
    fn every_variant_renders_one_line_and_one_event_on_its_track() {
        // Two interleaved buses: odd addresses route to bus 1.
        let machine = MachineBuilder::new(ProtocolKind::Rwb)
            .buses(2)
            .processors(4, |_| Box::new(decache_machine::IdleProcessor))
            .build();
        let addr = Addr::new(3);
        let cases = [
            (
                Observation::CpuAccess {
                    pe: 1,
                    addr,
                    write: false,
                    decision: CpuDecision::Miss(decache_core::BusIntent::Read),
                },
                Track::Pe(1),
                "read miss addr=3 intent=Read",
            ),
            (
                Observation::LockedReadIssued { pe: 2, addr },
                Track::Pe(2),
                "TS issue addr=3",
            ),
            (
                Observation::Supplied {
                    supplier: 0,
                    initiator: 3,
                    addr,
                },
                Track::Bus(1),
                "supply addr=3 supplier=0 initiator=3",
            ),
            (
                Observation::ReadCompleted {
                    pe: 3,
                    addr,
                    locked: true,
                },
                Track::Bus(1),
                "BRL addr=3 pe=3",
            ),
            (
                Observation::WriteCompleted {
                    pe: 0,
                    addr: Addr::new(2),
                    unlock: false,
                },
                Track::Bus(0),
                "BW addr=2 pe=0",
            ),
            (
                Observation::InvalidateCompleted { pe: 1, addr },
                Track::Bus(1),
                "BI addr=3 pe=1",
            ),
            (
                Observation::BroadcastSatisfied { pe: 2, addr },
                Track::Pe(2),
                "broadcast fill addr=3",
            ),
            (
                Observation::Evicted {
                    pe: 3,
                    addr,
                    writeback: true,
                },
                Track::Pe(3),
                "evict+wb addr=3",
            ),
            (
                Observation::FaultInjected {
                    fault: FaultKind::BusLoss { bus: 1 },
                },
                Track::Bus(1),
                "inject: transaction loss on bus 1",
            ),
            (
                Observation::FaultDetected { pe: None, addr },
                Track::Machine,
                "memory parity fail addr=3",
            ),
            (
                Observation::LineScrubbed {
                    pe: 0,
                    addr,
                    lost_write: true,
                },
                Track::Pe(0),
                "scrub (write lost) addr=3",
            ),
            (
                Observation::MemoryRepaired {
                    addr,
                    source: RecoverySource::Majority { votes: 2 },
                },
                Track::Machine,
                "repair by majority addr=3 source=Majority { votes: 2 }",
            ),
            (
                Observation::BroadcastHealed { pe: 1, addr },
                Track::Pe(1),
                "broadcast heal addr=3",
            ),
            (
                Observation::PeFailStopped {
                    pe: 2,
                    drained: 5,
                    lost_writes: 1,
                },
                Track::Pe(2),
                "fail-stop drained=5 lost_writes=1",
            ),
        ];
        let mut covered: Vec<usize> = cases.iter().map(|(obs, ..)| variant(obs)).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..14).collect::<Vec<_>>(), "one case per variant");

        let trace = PerfettoTrace::new(cases.len());
        let mut observer = trace.observer();
        for (cycle, (obs, ..)) in cases.iter().enumerate() {
            observer.observe(cycle as u64, obs);
        }
        assert_eq!(trace.dropped(), 0);

        let text = trace.text(&machine);
        let lines: Vec<&str> = text.lines().collect();
        let doc = trace.export(&machine);
        let events: Vec<&Json> = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .collect();
        assert_eq!(lines.len(), cases.len(), "{text}");
        assert_eq!(events.len(), cases.len());
        for (cycle, ((obs, track, rendered), (line, event))) in
            cases.iter().zip(lines.iter().zip(&events)).enumerate()
        {
            assert_eq!(*line, format!("[{cycle:>5}] {track} {rendered}"), "{obs:?}");
            let tid = match *track {
                Track::Machine => 0,
                Track::Pe(pe) => pe as u64 + 1,
                Track::Bus(bus) => 4 + bus as u64 + 1,
            };
            assert_eq!(
                event.get("tid").and_then(Json::as_u64),
                Some(tid),
                "{obs:?}"
            );
            assert_eq!(event.get("ts").and_then(Json::as_u64), Some(cycle as u64));
            let name = event.get("name").and_then(Json::as_str).unwrap();
            assert!(rendered.starts_with(name), "{name} vs {rendered}");
        }
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
