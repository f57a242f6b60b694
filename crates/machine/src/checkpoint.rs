//! Full-fidelity machine checkpoint/restore.
//!
//! A [`MachineCheckpoint`] captures every cell of a running
//! [`Machine`]'s mutable state that influences future behaviour:
//! memory words, locks, and parity marks; every tag store with both
//! replacement-stamp columns and its policy RNG stream; per-PE
//! execution statuses, pending transactions, and program positions;
//! both lanes of every bus queue plus each arbiter's fairness state;
//! all statistics counters; the fault engine's RNG stream, schedule
//! cursor, and pending bus-loss marks; the detection-latency ledger;
//! and the telemetry recorder. Restoring it into a freshly built
//! machine of the same shape resumes the run **bit-identically** — the
//! restore-equivalence suite proves `fingerprint(run N)` equals
//! `fingerprint(run N/2, checkpoint, restore, run rest)` for every
//! protocol, including active fault plans.
//!
//! Two things are deliberately *not* captured, because they are pure
//! observation and never feed back into simulated state: the event
//! trace ring buffer and registered [`Observer`](crate::Observer)s. A
//! restored machine starts with whatever trace/observer configuration
//! it was built with.
//!
//! The checkpoint struct is plain public data so the `decache-telemetry`
//! crate can serialize it through the workspace's canonical JSON codec
//! without this crate growing a serializer dependency.

use super::Machine;
use crate::processor::ProcessorCheckpoint;
use crate::sharers::PeMask;
use crate::status::{PeStatus, Pending};
use crate::telemetry::{CycleHistograms, Histogram};
use crate::{FaultStats, MachineStats, OpResult};
use decache_bus::{ArbiterCheckpoint, BusTransaction, QueueState, TrafficStats};
use decache_cache::{CacheStats, RefClass, TagStoreCheckpoint};
use decache_core::{LineState, Protocol};
use decache_mem::{Addr, MemoryStats, PeId, Word};
use decache_rng::Rng;
use std::error::Error;
use std::fmt;

/// The checkpoint format version; bumped on any layout change so stale
/// files are rejected with a structured error instead of misread.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The canonical field order of [`MachineCheckpoint::fault_stats`]:
/// `fault_stats[i]` is the counter named `FAULT_STAT_FIELDS[i]`. Kept
/// as a flat array because [`FaultStats`] is `#[non_exhaustive]` and
/// so cannot be constructed outside this crate.
pub const FAULT_STAT_FIELDS: [&str; 17] = [
    "memory_faults_injected",
    "cache_faults_injected",
    "bus_transactions_lost",
    "pe_fail_stops",
    "memory_faults_detected",
    "cache_faults_detected",
    "memory_recoveries_owner",
    "memory_recoveries_majority",
    "memory_recoveries_failed",
    "cache_refetches",
    "broadcast_heals",
    "lost_writes",
    "drained_lines",
    "forced_unlocks",
    "recovery_latency_total",
    "recovery_latency_samples",
    "replicas_at_recovery",
];

/// The shared memory's state: words, locks, parity marks, counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryCheckpoint {
    /// Every memory word, in address order.
    pub words: Vec<Word>,
    /// Held Test-and-Set locks as `(address, holder)`, ascending.
    pub locks: Vec<(u64, PeId)>,
    /// Addresses whose parity is currently bad, ascending.
    pub bad_parity: Vec<u64>,
    /// The memory's access counters.
    pub stats: MemoryStats,
}

/// One PE's hit/miss counters in raw `[kind][class]` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsCheckpoint {
    /// Hits, indexed `[read|write][code|local|shared]`.
    pub hits: [[u64; 3]; 2],
    /// Misses, same indexing.
    pub misses: [[u64; 3]; 2],
}

/// A stalled PE's pending bus transaction, in public form (the
/// machine-internal `Pending` is crate-private).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingCheckpoint {
    /// A bus read for a CPU read miss.
    Read {
        /// The missed address.
        addr: Addr,
        /// The reference class of the access.
        class: RefClass,
    },
    /// A bus write or invalidate for a CPU write miss.
    Write {
        /// The written address.
        addr: Addr,
        /// The CPU value being written.
        value: Word,
        /// The reference class of the access.
        class: RefClass,
    },
    /// The locked-read half of a Test-and-Set.
    LockedRead {
        /// The tested address.
        addr: Addr,
        /// The value to store on success.
        set_to: Word,
        /// The reference class of the access.
        class: RefClass,
    },
    /// The unlocking-write half of a successful Test-and-Set.
    UnlockWrite {
        /// The locked address.
        addr: Addr,
        /// The value the locked read observed.
        old: Word,
        /// The reference class of the access.
        class: RefClass,
    },
}

/// One PE's execution status, in public form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCheckpoint {
    /// Ready to issue.
    Idle,
    /// Stalled on a bus transaction.
    WaitBus(PendingCheckpoint),
    /// Program finished.
    Done,
    /// Fail-stopped.
    Failed,
}

/// Every lane of one bus queue. The discipline-specific lanes
/// (`arrival`, `batch`, `in_flight`) are empty unless the machine runs
/// the matching [`ServiceDiscipline`](decache_bus::ServiceDiscipline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueCheckpoint {
    /// The priority retry lane, in FIFO order.
    pub retry: Vec<BusTransaction>,
    /// The pending lane, in ascending PE order.
    pub pending: Vec<BusTransaction>,
    /// FCFS request-arrival order over the pending lane's PEs.
    pub arrival: Vec<PeId>,
    /// The unserved remainder of the current batch, in service order.
    pub batch: Vec<PeId>,
    /// Split-transaction address phases awaiting their data phase, as
    /// `(transaction, ready_cycle)` in ascending ready order.
    pub in_flight: Vec<(BusTransaction, u64)>,
}

/// One bus's traffic counters in raw form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficCheckpoint {
    /// Per-kind transaction counts in `BusOpKind::ALL` order.
    pub counts: [u64; 5],
    /// Interrupted (killed) bus reads.
    pub aborted_reads: u64,
    /// Retry-lane services.
    pub retries: u64,
    /// Busy bus cycles.
    pub busy_cycles: u64,
    /// Idle bus cycles.
    pub idle_cycles: u64,
    /// Split-transaction address phases.
    pub address_phases: u64,
}

/// The fault engine's mutable state. The plan itself (rates, schedule,
/// region, seed) is build-time configuration and travels with the
/// machine builder, not the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEngineCheckpoint {
    /// The fault RNG stream's 256-bit state.
    pub rng_state: [u64; 4],
    /// How many scheduled faults have already fired.
    pub cursor: u64,
    /// Per-bus pending bus-loss marks (a mark drawn in a cycle where
    /// the bus granted nothing survives to the next granting cycle).
    pub lose_grant: Vec<bool>,
}

/// One outstanding (undetected) fault in the detection-latency ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClockEntry {
    /// The PE whose cache holds the fault, or `None` for a memory word.
    pub pe: Option<u64>,
    /// The faulted address.
    pub addr: u64,
    /// The cycle the fault was injected.
    pub injected_at: u64,
}

/// One latency histogram in raw form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramCheckpoint {
    /// The 65 per-bucket counts.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramCheckpoint {
    fn capture(h: &Histogram) -> Self {
        let (buckets, count, sum, max) = h.checkpoint_state();
        HistogramCheckpoint {
            buckets,
            count,
            sum,
            max,
        }
    }

    fn rebuild(&self, what: &str) -> Result<Histogram, RestoreError> {
        Histogram::from_checkpoint(&self.buckets, self.count, self.sum, self.max).map_err(
            |detail| RestoreError::Component {
                what: what.to_string(),
                detail,
            },
        )
    }
}

/// The telemetry recorder's state: the four histograms plus the per-PE
/// start-cycle scratchpads the hooks sample against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryCheckpoint {
    /// Arbitration-wait histogram.
    pub bus_acquire_wait: HistogramCheckpoint,
    /// Memory-service histogram.
    pub memory_service: HistogramCheckpoint,
    /// Read-miss-fill histogram.
    pub read_fill: HistogramCheckpoint,
    /// Test-and-Set spin histogram.
    pub ts_spin: HistogramCheckpoint,
    /// Cycle each PE's transaction last entered a bus queue.
    pub enqueued_at: Vec<u64>,
    /// Cycle each PE's pending plain read missed.
    pub read_since: Vec<u64>,
    /// Cycle each PE's Test-and-Set issued its locked read.
    pub ts_since: Vec<u64>,
}

/// A versioned, self-describing export of a [`Machine`]'s complete
/// run state. Produce with [`Machine::checkpoint`], re-apply with
/// [`Machine::restore`]; serialize through
/// `decache-telemetry`'s checkpoint codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The coherence protocol's name, validated on restore.
    pub protocol: String,
    /// Number of processing elements.
    pub pes: u64,
    /// Number of shared buses.
    pub bus_count: u64,
    /// Memory size in words.
    pub memory_size: u64,
    /// Cache sets (shared by every cache).
    pub sets: u64,
    /// Cache ways.
    pub ways: u64,
    /// Words per cache block.
    pub block_words: u64,
    /// Bus cycles per transaction.
    pub transaction_cycles: u64,
    /// The bus service discipline's name
    /// ([`ServiceDiscipline::name`](decache_bus::ServiceDiscipline::name)),
    /// validated on restore.
    pub discipline: String,
    /// The current cycle number.
    pub cycle: u64,
    /// The shared memory.
    pub memory: MemoryCheckpoint,
    /// Every PE's tag store, in PE order.
    pub caches: Vec<TagStoreCheckpoint<LineState>>,
    /// Every PE's hit/miss counters.
    pub cache_stats: Vec<CacheStatsCheckpoint>,
    /// Every PE's execution status.
    pub statuses: Vec<StatusCheckpoint>,
    /// Every PE's last completed-operation result awaiting delivery.
    pub last_results: Vec<Option<OpResult>>,
    /// Every PE's program position.
    pub processors: Vec<ProcessorCheckpoint>,
    /// Every bus queue's two lanes.
    pub queues: Vec<QueueCheckpoint>,
    /// Every bus arbiter's fairness state.
    pub arbiters: Vec<ArbiterCheckpoint>,
    /// Every bus's traffic counters.
    pub traffic: Vec<TrafficCheckpoint>,
    /// Per-bus cycle until which the bus is still occupied.
    pub bus_free_at: Vec<u64>,
    /// Machine-level counters.
    pub stats: MachineStats,
    /// The fault engine's state; `None` when the machine has no plan.
    pub fault: Option<FaultEngineCheckpoint>,
    /// Fault counters in [`FAULT_STAT_FIELDS`] order.
    pub fault_stats: [u64; 17],
    /// The detection-latency ledger, sorted by `(pe, addr)`.
    pub fault_clock: Vec<FaultClockEntry>,
    /// Per-PE cycle of the most recent completed operation.
    pub last_progress: Vec<u64>,
    /// Per-PE address of the most recently issued operation.
    pub last_addr: Vec<Option<Addr>>,
    /// The telemetry recorder; `None` when telemetry is disabled.
    pub telemetry: Option<TelemetryCheckpoint>,
}

/// Why a [`Machine::checkpoint`] call could not capture the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// A processor (e.g. a closure) cannot export its state.
    Processor {
        /// The PE whose program is uncheckpointable.
        pe: usize,
    },
    /// An arbiter implementation cannot export its state.
    Arbiter {
        /// The bus whose arbiter is uncheckpointable.
        bus: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CheckpointError::Processor { pe } => {
                write!(f, "P{pe}'s processor does not support checkpointing")
            }
            CheckpointError::Arbiter { bus } => {
                write!(f, "bus {bus}'s arbiter does not support checkpointing")
            }
        }
    }
}

impl Error for CheckpointError {}

/// Why a [`Machine::restore`] call rejected a checkpoint. Every
/// mismatch is a structured error — restore never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The checkpoint was written by a different format version.
    Version {
        /// The version found in the checkpoint.
        found: u32,
        /// The version this build understands.
        expected: u32,
    },
    /// The checkpoint was captured under a different protocol.
    Protocol {
        /// The protocol named in the checkpoint.
        found: String,
        /// The protocol of the machine being restored.
        expected: String,
    },
    /// A machine-shape dimension disagrees.
    Shape {
        /// Which dimension (PEs, buses, memory words, ...).
        what: &'static str,
        /// The checkpoint's value.
        found: u64,
        /// The machine's value.
        expected: u64,
    },
    /// A cache line holds a state the machine's protocol does not
    /// declare ([`Protocol::states`]), so its table has no rules for it.
    UnknownState {
        /// The PE whose cache holds the line.
        pe: usize,
        /// The undeclared state.
        state: LineState,
    },
    /// A cache line holds a block outside the machine's memory.
    LineOutsideMemory {
        /// The PE whose cache holds the line.
        pe: usize,
        /// The line's block address.
        addr: Addr,
    },
    /// A cache line holds a block whose bus the PE does not snoop (on
    /// clustered routing: another cluster's private region, or past the
    /// last one). No run reaches such a state: a PE fills a line only
    /// through its own bus transaction, on a bus it is attached to.
    DetachedLine {
        /// The PE whose cache holds the line.
        pe: usize,
        /// The line's block address.
        addr: Addr,
    },
    /// A component-level restore failed (tag store, queue, processor,
    /// histogram, ...). The machine's state is unspecified after this
    /// error; discard it.
    Component {
        /// Which component rejected its slice of the checkpoint.
        what: String,
        /// The component's own description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Version { found, expected } => {
                write!(f, "checkpoint version {found}, this build reads {expected}")
            }
            RestoreError::Protocol { found, expected } => {
                write!(
                    f,
                    "checkpoint is for protocol {found}, machine runs {expected}"
                )
            }
            RestoreError::Shape {
                what,
                found,
                expected,
            } => write!(f, "checkpoint has {what} = {found}, machine has {expected}"),
            RestoreError::UnknownState { pe, state } => write!(
                f,
                "P{pe} cache holds a line in state {state}, which the protocol does not declare"
            ),
            RestoreError::LineOutsideMemory { pe, addr } => {
                write!(f, "P{pe} cache holds {addr}, outside memory")
            }
            RestoreError::DetachedLine { pe, addr } => write!(
                f,
                "P{pe} cache holds {addr}, but P{pe} does not snoop the bus serving it"
            ),
            RestoreError::Component { what, detail } => {
                write!(f, "restoring {what}: {detail}")
            }
        }
    }
}

impl Error for RestoreError {}

fn component(what: impl Into<String>, detail: impl fmt::Display) -> RestoreError {
    RestoreError::Component {
        what: what.into(),
        detail: detail.to_string(),
    }
}

fn check_shape(what: &'static str, found: u64, expected: u64) -> Result<(), RestoreError> {
    if found == expected {
        Ok(())
    } else {
        Err(RestoreError::Shape {
            what,
            found,
            expected,
        })
    }
}

fn check_len(what: &'static str, found: usize, expected: usize) -> Result<(), RestoreError> {
    check_shape(what, found as u64, expected as u64)
}

/// Rejects the all-zero RNG state (xoshiro's one invalid state) as a
/// structured error before it can reach `Rng::from_state`'s assert.
fn check_rng(what: &str, state: [u64; 4]) -> Result<(), RestoreError> {
    if state == [0; 4] {
        Err(component(what, "RNG state is all zeros"))
    } else {
        Ok(())
    }
}

fn capture_pending(p: Pending) -> PendingCheckpoint {
    match p {
        Pending::Read { addr, class } => PendingCheckpoint::Read { addr, class },
        Pending::Write { addr, value, class } => PendingCheckpoint::Write { addr, value, class },
        Pending::LockedRead {
            addr,
            set_to,
            class,
        } => PendingCheckpoint::LockedRead {
            addr,
            set_to,
            class,
        },
        Pending::UnlockWrite { addr, old, class } => {
            PendingCheckpoint::UnlockWrite { addr, old, class }
        }
    }
}

fn rebuild_pending(p: PendingCheckpoint) -> Pending {
    match p {
        PendingCheckpoint::Read { addr, class } => Pending::Read { addr, class },
        PendingCheckpoint::Write { addr, value, class } => Pending::Write { addr, value, class },
        PendingCheckpoint::LockedRead {
            addr,
            set_to,
            class,
        } => Pending::LockedRead {
            addr,
            set_to,
            class,
        },
        PendingCheckpoint::UnlockWrite { addr, old, class } => {
            Pending::UnlockWrite { addr, old, class }
        }
    }
}

fn capture_fault_stats(s: &FaultStats) -> [u64; 17] {
    [
        s.memory_faults_injected,
        s.cache_faults_injected,
        s.bus_transactions_lost,
        s.pe_fail_stops,
        s.memory_faults_detected,
        s.cache_faults_detected,
        s.memory_recoveries_owner,
        s.memory_recoveries_majority,
        s.memory_recoveries_failed,
        s.cache_refetches,
        s.broadcast_heals,
        s.lost_writes,
        s.drained_lines,
        s.forced_unlocks,
        s.recovery_latency_total,
        s.recovery_latency_samples,
        s.replicas_at_recovery,
    ]
}

fn rebuild_fault_stats(v: [u64; 17]) -> FaultStats {
    FaultStats {
        memory_faults_injected: v[0],
        cache_faults_injected: v[1],
        bus_transactions_lost: v[2],
        pe_fail_stops: v[3],
        memory_faults_detected: v[4],
        cache_faults_detected: v[5],
        memory_recoveries_owner: v[6],
        memory_recoveries_majority: v[7],
        memory_recoveries_failed: v[8],
        cache_refetches: v[9],
        broadcast_heals: v[10],
        lost_writes: v[11],
        drained_lines: v[12],
        forced_unlocks: v[13],
        recovery_latency_total: v[14],
        recovery_latency_samples: v[15],
        replicas_at_recovery: v[16],
    }
}

impl Machine {
    /// Exports the machine's complete run state as a versioned
    /// [`MachineCheckpoint`].
    ///
    /// The event trace and registered observers are *not* captured —
    /// they are pure observation and never influence simulated state.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if any processor or arbiter cannot
    /// export its state (e.g. closure processors).
    pub fn checkpoint(&self) -> Result<MachineCheckpoint, CheckpointError> {
        let mut processors = Vec::with_capacity(self.processors.len());
        for (pe, p) in self.processors.iter().enumerate() {
            processors.push(
                p.checkpoint_state()
                    .ok_or(CheckpointError::Processor { pe })?,
            );
        }
        let mut arbiters = Vec::with_capacity(self.arbiters.len());
        for (bus, a) in self.arbiters.iter().enumerate() {
            arbiters.push(
                a.checkpoint_state()
                    .ok_or(CheckpointError::Arbiter { bus })?,
            );
        }

        let (words, locks, bad_parity, mem_stats) = self.memory.checkpoint_state();
        let buses = self.routing.bus_count();
        let geometry = self.caches.geometry();

        let mut fault_clock: Vec<FaultClockEntry> = self
            .fault_clock
            .iter()
            .map(|(&(pe, addr), &injected_at)| FaultClockEntry {
                pe: pe.map(|p| p as u64),
                addr,
                injected_at,
            })
            .collect();
        fault_clock.sort_unstable_by_key(|e| (e.pe, e.addr));

        Ok(MachineCheckpoint {
            version: CHECKPOINT_VERSION,
            protocol: Protocol::name(&self.protocol),
            pes: self.processors.len() as u64,
            bus_count: buses as u64,
            memory_size: self.memory.size(),
            sets: geometry.sets() as u64,
            ways: geometry.ways() as u64,
            block_words: geometry.block_words(),
            transaction_cycles: self.transaction_cycles,
            discipline: self.discipline.name().to_string(),
            cycle: self.cycle,
            memory: MemoryCheckpoint {
                words,
                locks,
                bad_parity,
                stats: mem_stats,
            },
            caches: self.caches.checkpoint_stores(),
            cache_stats: self
                .cache_stats
                .iter()
                .map(|s| {
                    let (hits, misses) = s.checkpoint_state();
                    CacheStatsCheckpoint { hits, misses }
                })
                .collect(),
            statuses: self
                .statuses
                .iter()
                .map(|s| match *s {
                    PeStatus::Idle => StatusCheckpoint::Idle,
                    PeStatus::WaitBus(p) => StatusCheckpoint::WaitBus(capture_pending(p)),
                    PeStatus::Done => StatusCheckpoint::Done,
                    PeStatus::Failed => StatusCheckpoint::Failed,
                })
                .collect(),
            last_results: self.last_results.clone(),
            processors,
            queues: self
                .queues
                .iter()
                .map(|q| {
                    let s = q.checkpoint_state();
                    QueueCheckpoint {
                        retry: s.retry,
                        pending: s.pending,
                        arrival: s.arrival,
                        batch: s.batch,
                        in_flight: s.in_flight,
                    }
                })
                .collect(),
            arbiters,
            traffic: (0..buses)
                .map(|b| {
                    let t = self.traffic.bus(b);
                    TrafficCheckpoint {
                        counts: t.checkpoint_counts(),
                        aborted_reads: t.aborted_reads,
                        retries: t.retries,
                        busy_cycles: t.busy_cycles,
                        idle_cycles: t.idle_cycles,
                        address_phases: t.address_phases,
                    }
                })
                .collect(),
            bus_free_at: self.bus_free_at.clone(),
            stats: self.stats,
            fault: self.faults.as_ref().map(|e| FaultEngineCheckpoint {
                rng_state: e.rng.state(),
                cursor: e.cursor as u64,
                lose_grant: e.lose_grant.clone(),
            }),
            fault_stats: capture_fault_stats(&self.fault_stats),
            fault_clock,
            last_progress: self.last_progress.clone(),
            last_addr: self.last_addr.clone(),
            telemetry: self.telemetry.as_deref().map(|t| TelemetryCheckpoint {
                bus_acquire_wait: HistogramCheckpoint::capture(&t.hist.bus_acquire_wait),
                memory_service: HistogramCheckpoint::capture(&t.hist.memory_service),
                read_fill: HistogramCheckpoint::capture(&t.hist.read_fill),
                ts_spin: HistogramCheckpoint::capture(&t.hist.ts_spin),
                enqueued_at: t.enqueued_at.clone(),
                read_since: t.read_since.clone(),
                ts_since: t.ts_since.clone(),
            }),
        })
    }

    /// Validates that `ck` matches this machine's build-time shape
    /// without mutating anything: format version, protocol, geometry,
    /// PE/bus/memory dimensions, fault-plan and telemetry presence,
    /// per-PE and per-bus vector lengths, RNG-state sanity, and that
    /// every cache line's state is one the protocol declares.
    fn validate_checkpoint(&self, ck: &MachineCheckpoint) -> Result<(), RestoreError> {
        if ck.version != CHECKPOINT_VERSION {
            return Err(RestoreError::Version {
                found: ck.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let own_protocol = Protocol::name(&self.protocol);
        if ck.protocol != own_protocol {
            return Err(RestoreError::Protocol {
                found: ck.protocol.clone(),
                expected: own_protocol,
            });
        }
        let n = self.processors.len();
        let buses = self.routing.bus_count();
        check_shape("PEs", ck.pes, n as u64)?;
        check_shape("buses", ck.bus_count, buses as u64)?;
        check_shape("memory words", ck.memory_size, self.memory.size())?;
        let geometry = self.caches.geometry();
        check_shape("cache sets", ck.sets, geometry.sets() as u64)?;
        check_shape("cache ways", ck.ways, geometry.ways() as u64)?;
        check_shape("block words", ck.block_words, geometry.block_words())?;
        check_shape(
            "transaction cycles",
            ck.transaction_cycles,
            self.transaction_cycles,
        )?;
        if ck.discipline != self.discipline.name() {
            return Err(component(
                "service discipline",
                format!(
                    "checkpoint ran '{}' but this machine runs '{}'",
                    ck.discipline, self.discipline
                ),
            ));
        }
        check_len("cache snapshots", ck.caches.len(), n)?;
        check_len("cache-stat snapshots", ck.cache_stats.len(), n)?;
        check_len("statuses", ck.statuses.len(), n)?;
        check_len("last results", ck.last_results.len(), n)?;
        check_len("processor snapshots", ck.processors.len(), n)?;
        check_len("progress stamps", ck.last_progress.len(), n)?;
        check_len("last addresses", ck.last_addr.len(), n)?;
        check_len("queue snapshots", ck.queues.len(), buses)?;
        check_len("arbiter snapshots", ck.arbiters.len(), buses)?;
        check_len("traffic snapshots", ck.traffic.len(), buses)?;
        check_len("bus-free stamps", ck.bus_free_at.len(), buses)?;
        check_shape(
            "memory words vector",
            ck.memory.words.len() as u64,
            self.memory.size(),
        )?;

        match (&ck.fault, &self.faults) {
            (Some(f), Some(engine)) => {
                check_rng("fault engine", f.rng_state)?;
                check_len("bus-loss marks", f.lose_grant.len(), buses)?;
                let scheduled = engine.plan.scheduled.len() as u64;
                if f.cursor > scheduled {
                    return Err(component(
                        "fault engine",
                        format!("cursor {} beyond {scheduled} scheduled faults", f.cursor),
                    ));
                }
            }
            (None, None) => {}
            (found, _) => {
                return Err(RestoreError::Shape {
                    what: "fault plan attached",
                    found: u64::from(found.is_some()),
                    expected: u64::from(self.faults.is_some()),
                });
            }
        }

        match (&ck.telemetry, &self.telemetry) {
            (Some(t), Some(_)) => {
                check_len("telemetry enqueue stamps", t.enqueued_at.len(), n)?;
                check_len("telemetry read stamps", t.read_since.len(), n)?;
                check_len("telemetry TS stamps", t.ts_since.len(), n)?;
            }
            (None, None) => {}
            (found, _) => {
                return Err(RestoreError::Shape {
                    what: "telemetry enabled",
                    found: u64::from(found.is_some()),
                    expected: u64::from(self.telemetry.is_some()),
                });
            }
        }

        let states = self.protocol.states();
        for (pe, cache) in ck.caches.iter().enumerate() {
            check_rng(&format!("P{pe} cache RNG"), cache.rng_state)?;
            for line in &cache.lines {
                let Some(state) = line.state else {
                    continue;
                };
                if !states.contains(&state) {
                    return Err(RestoreError::UnknownState { pe, state });
                }
                let addr = geometry.block_base(line.addr);
                if addr.index() >= self.memory.size() {
                    return Err(RestoreError::LineOutsideMemory { pe, addr });
                }
                if !self.routing.snoops(pe, addr, n) {
                    return Err(RestoreError::DetachedLine { pe, addr });
                }
            }
        }
        for (bus, arb) in ck.arbiters.iter().enumerate() {
            if let ArbiterCheckpoint::Random { rng_state } = arb {
                check_rng(&format!("bus {bus} arbiter RNG"), *rng_state)?;
            }
        }
        Ok(())
    }

    /// Restores a checkpoint into this machine, which must have been
    /// built with the same configuration (protocol, geometry, routing,
    /// arbiters, processors, fault plan, telemetry). On success the
    /// machine continues the checkpointed run bit-identically; the
    /// derived fast-path indexes (sharers, owners, pending readers,
    /// idle/done bookkeeping) are rebuilt from the restored
    /// architectural state exactly as at construction.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] on any version, protocol, shape, or
    /// component mismatch. Shape validation happens before mutation;
    /// after a [`RestoreError::Component`] error the machine's state is
    /// unspecified and must be discarded.
    pub fn restore(&mut self, ck: &MachineCheckpoint) -> Result<(), RestoreError> {
        self.validate_checkpoint(ck)?;
        let n = self.processors.len();
        let buses = self.routing.bus_count();

        self.memory
            .restore_state(
                ck.memory.words.clone(),
                ck.memory.locks.clone(),
                ck.memory.bad_parity.clone(),
                ck.memory.stats,
            )
            .map_err(|e| component("memory", e))?;

        for pe in 0..n {
            self.caches
                .restore_store(pe, ck.caches[pe].clone())
                .map_err(|e| component(format!("P{pe} cache"), e))?;
            self.cache_stats[pe] =
                CacheStats::from_checkpoint(ck.cache_stats[pe].hits, ck.cache_stats[pe].misses);
            self.processors[pe]
                .restore_state(&ck.processors[pe])
                .map_err(|e| component(format!("P{pe} processor"), e))?;
            self.statuses[pe] = match ck.statuses[pe] {
                StatusCheckpoint::Idle => PeStatus::Idle,
                StatusCheckpoint::WaitBus(p) => PeStatus::WaitBus(rebuild_pending(p)),
                StatusCheckpoint::Done => PeStatus::Done,
                StatusCheckpoint::Failed => PeStatus::Failed,
            };
        }
        self.last_results.clone_from(&ck.last_results);
        self.last_progress.clone_from(&ck.last_progress);
        self.last_addr.clone_from(&ck.last_addr);

        for bus in 0..buses {
            let q = &ck.queues[bus];
            self.queues[bus]
                .restore_state(QueueState {
                    retry: q.retry.clone(),
                    pending: q.pending.clone(),
                    arrival: q.arrival.clone(),
                    batch: q.batch.clone(),
                    in_flight: q.in_flight.clone(),
                })
                .map_err(|e| component(format!("bus {bus} queue"), e))?;
            self.arbiters[bus]
                .restore_state(&ck.arbiters[bus])
                .map_err(|e| component(format!("bus {bus} arbiter"), e))?;
            let t = ck.traffic[bus];
            *self.traffic.bus_mut(bus) = TrafficStats::from_checkpoint(
                t.counts,
                t.aborted_reads,
                t.retries,
                t.busy_cycles,
                t.idle_cycles,
                t.address_phases,
            );
        }
        self.bus_free_at.clone_from(&ck.bus_free_at);
        self.stats = ck.stats;
        self.cycle = ck.cycle;

        if let (Some(f), Some(engine)) = (&ck.fault, self.faults.as_mut()) {
            engine.rng = Rng::from_state(f.rng_state);
            engine.cursor = f.cursor as usize;
            engine.lose_grant.clone_from(&f.lose_grant);
        }
        self.fault_stats = rebuild_fault_stats(ck.fault_stats);
        self.fault_clock = ck
            .fault_clock
            .iter()
            .map(|e| ((e.pe.map(|p| p as usize), e.addr), e.injected_at))
            .collect();

        if let (Some(t), Some(state)) = (&ck.telemetry, self.telemetry.as_deref_mut()) {
            state.hist = CycleHistograms {
                bus_acquire_wait: t.bus_acquire_wait.rebuild("bus-acquire histogram")?,
                memory_service: t.memory_service.rebuild("memory-service histogram")?,
                read_fill: t.read_fill.rebuild("read-fill histogram")?,
                ts_spin: t.ts_spin.rebuild("TS-spin histogram")?,
            };
            state.enqueued_at.clone_from(&t.enqueued_at);
            state.read_since.clone_from(&t.read_since);
            state.ts_since.clone_from(&t.ts_since);
        }

        // Rebuild the derived fast-path indexes from the restored
        // architectural state, mirroring `Machine::from_parts`.
        self.caches.reindex();
        let mut idle = PeMask::new(n);
        let mut idle_count = 0;
        let mut done_count = 0;
        for (pe, status) in self.statuses.iter().enumerate() {
            match *status {
                PeStatus::Idle => {
                    idle.set(pe);
                    idle_count += 1;
                }
                PeStatus::Done | PeStatus::Failed => done_count += 1,
                PeStatus::WaitBus(Pending::Read { addr, .. }) => {
                    self.caches.add_pending_reader(addr, pe);
                }
                PeStatus::WaitBus(_) => {}
            }
        }
        self.idle = idle;
        self.idle_count = idle_count;
        self.done_count = done_count;
        Ok(())
    }
}
