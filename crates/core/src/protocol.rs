//! The coherence protocol interface.

use crate::LineState;
use decache_mem::Word;
use std::fmt;

/// The bus transaction a protocol asks its controller to issue on a miss.
///
/// The controller attaches the address and, for writes, the CPU-supplied
/// data; for reads the data comes back from memory or a supplying cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BusIntent {
    /// Issue a bus read (`BR`).
    Read,
    /// Issue a bus write (`BW`) of the CPU's data.
    Write,
    /// Issue the RWB bus invalidate signal (`BI`).
    Invalidate,
}

impl fmt::Display for BusIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusIntent::Read => write!(f, "BR"),
            BusIntent::Write => write!(f, "BW"),
            BusIntent::Invalidate => write!(f, "BI"),
        }
    }
}

/// A protocol's decision for a CPU reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOutcome {
    /// Serve the reference from the cache immediately; the line moves to
    /// `next`. For writes the controller also stores the CPU data in the
    /// line.
    Hit {
        /// The line's state after the reference.
        next: LineState,
    },
    /// The reference requires bus activity first: the processor stalls
    /// until the transaction completes, then
    /// [`Protocol::own_complete`] determines the resulting state.
    Miss {
        /// The transaction to issue.
        intent: BusIntent,
    },
}

/// A foreign bus transaction as observed by a snooping cache, *including
/// the data on the bus* (address and operation are implicit: snooping is
/// per-line and the machine dispatches only to caches holding the line).
///
/// For reads the carried word is the value being returned on the bus —
/// the caches "read the value returned from the read" (Section 3) — and
/// for writes it is the value being stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopEvent {
    /// A completed foreign bus read returning `Word`.
    Read(Word),
    /// A foreign bus write storing `Word`.
    Write(Word),
    /// The RWB bus invalidate signal.
    Invalidate,
    /// A completed foreign locked read (Test-and-Set first half)
    /// returning `Word`.
    LockedRead(Word),
    /// A foreign unlocking write (Test-and-Set second half) storing
    /// `Word`.
    UnlockWrite(Word),
}

impl SnoopEvent {
    /// The word on the bus during this event.
    pub fn word(self) -> Option<Word> {
        match self {
            SnoopEvent::Read(w)
            | SnoopEvent::Write(w)
            | SnoopEvent::LockedRead(w)
            | SnoopEvent::UnlockWrite(w) => Some(w),
            SnoopEvent::Invalidate => None,
        }
    }
}

/// A protocol's reaction to a snooped foreign transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome {
    /// The line's next state.
    pub next: LineState,
    /// Whether the line captures the word on the bus into its data —
    /// the distinguishing power of the RB/RWB schemes ("events *and*
    /// data values are broadcast", Section 1).
    pub capture: bool,
}

/// A snooping cache coherence protocol: the per-line finite state machine
/// of the paper's Figures 3-1 and 5-1 (and of the baselines).
///
/// A `None` line state everywhere means the address is **not present**
/// (the `NP` state of the proof sketch); "a reference to an item not in
/// the cache behaves exactly as if it were in the invalid state"
/// (Section 3), and every implementation upholds that equivalence — it is
/// property-tested in this crate.
///
/// Implementations are pure: the same inputs always yield the same
/// decision, and all mutation is performed by the cache controller in
/// `decache-machine`. This keeps the protocol enumerable by the
/// product-machine model checker in `decache-verify`. The compiled rule
/// table ([`crate::ir::TableProtocol`]) is the only implementation.
///
/// # Panics
///
/// Methods may panic if handed a [`LineState`] outside
/// [`Protocol::states`] — e.g. asking RB about `Dirty`. The machine only
/// stores states produced by the same protocol (a restored checkpoint
/// is checked against [`Protocol::states`] first), so this indicates a
/// bug.
pub trait Protocol: fmt::Debug + Send + Sync {
    /// A short display name ("RB", "RWB(k=2)", "write-once", ...).
    fn name(&self) -> String;

    /// The states this protocol can store in a line, for enumeration by
    /// the model checker and the diagram exporter.
    fn states(&self) -> Vec<LineState>;

    /// Decides a CPU read of a line in `state` (`None` = not present).
    fn cpu_read(&self, state: Option<LineState>) -> CpuOutcome;

    /// Decides a CPU write to a line in `state` (`None` = not present).
    fn cpu_write(&self, state: Option<LineState>) -> CpuOutcome;

    /// The line state after this cache's *own* bus transaction of the
    /// given intent completes (possibly after abort-and-retry).
    fn own_complete(&self, state: Option<LineState>, intent: BusIntent) -> LineState;

    /// The line state after this cache's own locked read (`BRL`, the
    /// Test-and-Set first half) completes. The paper: the locked read
    /// "causes all other caches to enter the read state" — the issuer
    /// captures the broadcast value too.
    fn own_locked_read_complete(&self, state: Option<LineState>) -> LineState;

    /// The line state after this cache's own unlocking write (`BWU`, a
    /// successful Test-and-Set's second half) completes.
    fn own_unlock_write_complete(&self, state: Option<LineState>) -> LineState;

    /// Reacts to a snooped foreign transaction on a line this cache holds
    /// in `state`.
    fn snoop(&self, state: LineState, event: SnoopEvent) -> SnoopOutcome;

    /// Whether a cache holding the line in `state` must interrupt a
    /// foreign bus read and supply its data (the paper's `L` state; the
    /// write-once `Dirty` state).
    fn supplies_on_snoop_read(&self, state: LineState) -> bool;

    /// The holder's state after it interrupted a bus read and supplied
    /// its data via a substituted bus write ("The cache state is changed
    /// to Read", Section 3).
    fn after_supply(&self, state: LineState) -> LineState;

    /// Whether a line evicted in `state` must be written back to memory
    /// ("only those overwritten items that are tagged local need to be
    /// written back", Section 3).
    fn writeback_on_evict(&self, state: LineState) -> bool;

    /// Whether snooping caches capture the data of foreign bus *writes*
    /// (true only for RWB with k >= 2: "the caches also note the data
    /// part of the bus writes", Section 5). Informational; the behaviour
    /// itself lives in [`Protocol::snoop`].
    fn broadcasts_write_data(&self) -> bool;

    /// Whether this protocol ever issues the bus invalidate signal
    /// (`BI`) — true for the RWB family, false for RB and the
    /// baselines. Drives the inclusion of `BI` edges in extracted state
    /// diagrams.
    fn uses_bus_invalidate(&self) -> bool;

    /// Whether the read-miss fill state depends on the abstract
    /// configuration of the other caches (MESI's exclusive-vs-shared
    /// fill). False for every paper scheme, letting the machine skip
    /// the sharer sample on the hot path.
    fn fill_depends_on_sharers(&self) -> bool;

    /// [`Protocol::own_complete`] with the sampled "some other cache
    /// holds the line readable" bit, for protocols whose read-miss fill
    /// is guarded on it ([`Protocol::fill_depends_on_sharers`]). The
    /// bit is sampled after any interrupt-and-supply and before the
    /// read broadcast.
    fn own_complete_shared(
        &self,
        state: Option<LineState>,
        intent: BusIntent,
        other_holders: bool,
    ) -> LineState;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_intent_display_matches_mnemonics() {
        assert_eq!(BusIntent::Read.to_string(), "BR");
        assert_eq!(BusIntent::Write.to_string(), "BW");
        assert_eq!(BusIntent::Invalidate.to_string(), "BI");
    }

    #[test]
    fn snoop_event_words() {
        assert_eq!(SnoopEvent::Read(Word::new(4)).word(), Some(Word::new(4)));
        assert_eq!(SnoopEvent::Invalidate.word(), None);
        assert_eq!(SnoopEvent::UnlockWrite(Word::ONE).word(), Some(Word::ONE));
    }
}
