//! Per-operation bus traffic accounting.

use crate::BusOpKind;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Bus traffic counters, the raw material of every bandwidth claim in the
/// paper: hot-spot elimination (Section 6) and the SBB analysis (Section 7)
/// are both statements about how many bus cycles each scheme consumes.
///
/// # Examples
///
/// ```
/// use decache_bus::{BusOpKind, TrafficStats};
///
/// let mut t = TrafficStats::default();
/// t.record(BusOpKind::Read);
/// t.record(BusOpKind::Write);
/// t.record_idle();
/// assert_eq!(t.total_transactions(), 2);
/// assert!((t.utilization() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Completed transactions per kind, in [`BusOpKind::ALL`] order.
    pub counts: [u64; 5],
    /// Bus reads killed by an `L`-state snooper and replaced by its write.
    pub aborted_reads: u64,
    /// Transactions re-run from the retry lane.
    pub retries: u64,
    /// Cycles in which a transaction occupied the bus.
    pub busy_cycles: u64,
    /// Cycles in which the bus was idle.
    pub idle_cycles: u64,
    /// Split-transaction address phases granted (each also counts a busy
    /// cycle); zero under non-split disciplines.
    pub address_phases: u64,
}

impl TrafficStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records one completed transaction of the given kind (also counts a
    /// busy cycle).
    pub fn record(&mut self, kind: BusOpKind) {
        self.counts[Self::slot(kind)] += 1;
        self.busy_cycles += 1;
    }

    /// Records a bus read that was interrupted and replaced; the replacing
    /// write is recorded separately via [`TrafficStats::record`].
    pub fn record_abort(&mut self) {
        self.aborted_reads += 1;
    }

    /// Records that a transaction was served from the retry lane.
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Records an idle bus cycle.
    pub fn record_idle(&mut self) {
        self.idle_cycles += 1;
    }

    /// Records `n` idle bus cycles at once; the cycle engine uses this to
    /// account for dead cycles it jumps over without simulating them.
    pub fn record_idle_n(&mut self, n: u64) {
        self.idle_cycles += n;
    }

    /// Records a cycle in which the bus was still occupied by an earlier
    /// multi-cycle transaction (no new transaction is counted).
    pub fn record_occupied(&mut self) {
        self.busy_cycles += 1;
    }

    /// Records `n` occupied cycles at once (batch form of
    /// [`TrafficStats::record_occupied`]).
    pub fn record_occupied_n(&mut self, n: u64) {
        self.busy_cycles += n;
    }

    /// Records a split-transaction address phase: one busy cycle in
    /// which a request was posted but no transaction completed (the
    /// transaction itself is counted by [`TrafficStats::record`] when
    /// its data phase runs).
    pub fn record_address_phase(&mut self) {
        self.address_phases += 1;
        self.busy_cycles += 1;
    }

    fn slot(kind: BusOpKind) -> usize {
        match kind {
            BusOpKind::Read => 0,
            BusOpKind::Write => 1,
            BusOpKind::Invalidate => 2,
            BusOpKind::ReadWithLock => 3,
            BusOpKind::WriteWithUnlock => 4,
        }
    }

    /// Returns the count of transactions of `kind`.
    pub fn count(&self, kind: BusOpKind) -> u64 {
        self.counts[Self::slot(kind)]
    }

    /// Returns the total number of transactions across all kinds.
    pub fn total_transactions(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Returns all data-fetching transactions (reads plus locked reads).
    pub fn total_reads(&self) -> u64 {
        self.count(BusOpKind::Read) + self.count(BusOpKind::ReadWithLock)
    }

    /// Returns all memory-updating transactions (writes plus unlocking
    /// writes).
    pub fn total_writes(&self) -> u64 {
        self.count(BusOpKind::Write) + self.count(BusOpKind::WriteWithUnlock)
    }

    /// The fraction of cycles the bus was busy, in `[0, 1]`; zero if no
    /// cycles elapsed.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

impl Add for TrafficStats {
    type Output = TrafficStats;
    fn add(mut self, rhs: TrafficStats) -> TrafficStats {
        self += rhs;
        self
    }
}

impl AddAssign for TrafficStats {
    fn add_assign(&mut self, rhs: TrafficStats) {
        for i in 0..self.counts.len() {
            self.counts[i] += rhs.counts[i];
        }
        self.aborted_reads += rhs.aborted_reads;
        self.retries += rhs.retries;
        self.busy_cycles += rhs.busy_cycles;
        self.idle_cycles += rhs.idle_cycles;
        self.address_phases += rhs.address_phases;
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BR={} BW={} BI={} BRL={} BWU={} aborts={} retries={} util={:.1}%",
            self.count(BusOpKind::Read),
            self.count(BusOpKind::Write),
            self.count(BusOpKind::Invalidate),
            self.count(BusOpKind::ReadWithLock),
            self.count(BusOpKind::WriteWithUnlock),
            self.aborted_reads,
            self.retries,
            self.utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_kind() {
        let mut t = TrafficStats::new();
        t.record(BusOpKind::Read);
        t.record(BusOpKind::Read);
        t.record(BusOpKind::Write);
        t.record(BusOpKind::Invalidate);
        t.record(BusOpKind::ReadWithLock);
        t.record(BusOpKind::WriteWithUnlock);
        assert_eq!(t.count(BusOpKind::Read), 2);
        assert_eq!(t.count(BusOpKind::Write), 1);
        assert_eq!(t.total_transactions(), 6);
        assert_eq!(t.total_reads(), 3);
        assert_eq!(t.total_writes(), 2);
        assert_eq!(t.busy_cycles, 6);
    }

    #[test]
    fn utilization_handles_zero_cycles() {
        assert_eq!(TrafficStats::new().utilization(), 0.0);
    }

    #[test]
    fn occupied_cycles_are_busy_without_transactions() {
        let mut t = TrafficStats::new();
        t.record(BusOpKind::Read);
        t.record_occupied();
        t.record_occupied();
        assert_eq!(t.total_transactions(), 1);
        assert_eq!(t.busy_cycles, 3);
    }

    #[test]
    fn utilization_counts_idle() {
        let mut t = TrafficStats::new();
        t.record(BusOpKind::Read);
        t.record_idle();
        t.record_idle();
        t.record_idle();
        assert!((t.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn addition_is_componentwise() {
        let mut a = TrafficStats::new();
        a.record(BusOpKind::Read);
        a.record_abort();
        let mut b = TrafficStats::new();
        b.record(BusOpKind::Write);
        b.record_retry();
        b.record_idle();
        let c = a + b;
        assert_eq!(c.count(BusOpKind::Read), 1);
        assert_eq!(c.count(BusOpKind::Write), 1);
        assert_eq!(c.aborted_reads, 1);
        assert_eq!(c.retries, 1);
        assert_eq!(c.busy_cycles, 2);
        assert_eq!(c.idle_cycles, 1);
    }

    #[test]
    fn address_phases_are_busy_without_transactions() {
        let mut t = TrafficStats::new();
        t.record_address_phase();
        t.record_idle();
        t.record(BusOpKind::Read);
        assert_eq!(t.address_phases, 1);
        assert_eq!(t.total_transactions(), 1);
        assert_eq!(t.busy_cycles, 2);
        let sum = t + t;
        assert_eq!(sum.address_phases, 2);
    }

    #[test]
    fn display_is_nonempty_and_labelled() {
        let t = TrafficStats::new();
        let s = t.to_string();
        assert!(s.contains("BR=0"));
        assert!(s.contains("util="));
    }
}
