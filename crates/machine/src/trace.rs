//! The machine's one event stream: the structured [`Observation`]s
//! every attached [`Observer`] receives as they happen.
//!
//! The conformance oracle in `decache-verify` replays the stream
//! against the Section 4 product model, and `decache-telemetry`'s
//! `PerfettoTrace` keeps a bounded ring of it that renders both as
//! Trace Event Format JSON and as the human-readable text view
//! (`[   12] P3 read miss addr=0 intent=Read`). The machine keeps no
//! other event log.

use crate::fault::{FaultKind, RecoverySource};
use decache_core::BusIntent;
use decache_mem::Addr;

/// A protocol-level decision for a CPU reference, as observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuDecision {
    /// The reference completed in the cache.
    Hit,
    /// The reference stalled and enqueued a bus transaction of the
    /// given intent.
    Miss(BusIntent),
}

/// One structured protocol-level step of the machine, emitted to every
/// attached [`Observer`] as it happens.
///
/// Together these observations are a complete account of every cache
/// state mutation the machine performs: CPU decisions at issue time,
/// and snoop/install effects at bus-transaction completion time. The
/// conformance oracle replays them against the Section 4 product model
/// and flags any step the model does not allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// A CPU read or write was decided against the cache.
    CpuAccess {
        /// The issuing processing element.
        pe: usize,
        /// The referenced address.
        addr: Addr,
        /// `true` for a write reference.
        write: bool,
        /// Hit, or miss with the enqueued bus intent.
        decision: CpuDecision,
    },
    /// A Test-and-Set began: its locked read is always a bus operation
    /// ("the initial read-with-lock does not reference the value in the
    /// cache").
    LockedReadIssued {
        /// The issuing processing element.
        pe: usize,
        /// The lock word.
        addr: Addr,
    },
    /// A cache interrupted a foreign bus read and supplied its data via
    /// a substituted bus write (the Section 3 abort path); the read
    /// retries next cycle.
    Supplied {
        /// The supplying (owning) cache.
        supplier: usize,
        /// The initiator of the interrupted read.
        initiator: usize,
        /// The address read.
        addr: Addr,
    },
    /// A bus read (plain or locked) completed: every other holder
    /// snooped the broadcast and the initiator's line filled.
    ReadCompleted {
        /// The initiating processing element.
        pe: usize,
        /// The address read.
        addr: Addr,
        /// `true` for a Test-and-Set's locked read.
        locked: bool,
    },
    /// A bus write (plain or unlocking) completed: memory updated,
    /// every other holder snooped it, the initiator's line updated.
    WriteCompleted {
        /// The initiating processing element.
        pe: usize,
        /// The address written.
        addr: Addr,
        /// `true` for a Test-and-Set's unlocking write.
        unlock: bool,
    },
    /// A bus invalidate completed (RWB's `BI`): every other holder
    /// invalidated; the initiator's write was applied locally.
    InvalidateCompleted {
        /// The initiating processing element.
        pe: usize,
        /// The address invalidated.
        addr: Addr,
    },
    /// A stalled read completed by snooping a broadcast instead of its
    /// own bus transaction (which was cancelled).
    BroadcastSatisfied {
        /// The satisfied processing element.
        pe: usize,
        /// The address read.
        addr: Addr,
    },
    /// A line was evicted to make room for an install.
    Evicted {
        /// The evicting processing element.
        pe: usize,
        /// The evicted line's address.
        addr: Addr,
        /// Whether the line was written back to memory.
        writeback: bool,
    },
    /// A fault was injected (by a [`FaultPlan`](crate::FaultPlan) or a
    /// manual `corrupt_*` call). Injection changes no protocol state,
    /// only data and parity, so the conformance oracle ignores it.
    FaultInjected {
        /// What was injected where.
        fault: FaultKind,
    },
    /// A parity check failed: in PE `pe`'s cache if `pe` is `Some`,
    /// else in memory.
    FaultDetected {
        /// The cache that detected the fault (`None` = memory parity,
        /// detected on a bus read).
        pe: Option<usize>,
        /// The corrupted address.
        addr: Addr,
    },
    /// A corrupted cache line was invalidated so the access re-fetches
    /// the coherent image — the line is *gone* from `pe`'s cache. If
    /// the line owned the latest value, that write is lost and the
    /// refetch observes stale memory.
    LineScrubbed {
        /// The cache that dropped its corrupted line.
        pe: usize,
        /// The scrubbed address.
        addr: Addr,
        /// `true` if the dropped line owned the latest value (a lost
        /// write).
        lost_write: bool,
    },
    /// A corrupted memory word was repaired in-loop from cache
    /// replicas, per the machine's
    /// [`RecoveryPolicy`](crate::RecoveryPolicy).
    MemoryRepaired {
        /// The repaired address.
        addr: Addr,
        /// Where the recovered value came from.
        source: RecoverySource,
    },
    /// A corrupted cache line was healed in place by capturing a
    /// snooped broadcast value (no state change beyond the ordinary
    /// snoop).
    BroadcastHealed {
        /// The healed cache.
        pe: usize,
        /// The healed address.
        addr: Addr,
    },
    /// PE `pe` fail-stopped: pending work cancelled, locks released,
    /// cache drained or forfeited, all lines dropped.
    PeFailStopped {
        /// The dead processing element.
        pe: usize,
        /// Owned lines flushed to memory before going dark.
        drained: u32,
        /// Writes that existed only in the dead cache and are now gone.
        lost_writes: u32,
    },
}

/// A subscriber to the machine's structured protocol-level events.
///
/// Observers are attached with
/// [`Machine::attach_observer`](crate::Machine::attach_observer) (or
/// [`MachineBuilder::observer`](crate::MachineBuilder::observer)) and
/// invoked synchronously at each step, in attachment order. Observers
/// must be **pure** with respect to the simulation: they see the
/// machine's behaviour but cannot change it, so attaching one never
/// perturbs any simulated statistic.
pub trait Observer: Send {
    /// Called for every protocol-level step, with the current bus cycle.
    fn observe(&mut self, cycle: u64, observation: &Observation);
}
