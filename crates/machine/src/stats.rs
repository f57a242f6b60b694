//! Machine-level statistics beyond cache and bus counters.

use std::fmt;

/// Counters maintained by the machine itself (cache hit/miss statistics
/// live in [`CacheStats`], bus traffic in [`TrafficStats`]).
///
/// [`CacheStats`]: decache_cache::CacheStats
/// [`TrafficStats`]: decache_bus::TrafficStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Stalled reads completed by snooping a broadcast instead of their
    /// own bus transaction — the payoff of distributing data, not just
    /// events.
    pub broadcast_satisfied: u64,
    /// Evicted lines written back to memory.
    pub writebacks: u64,
    /// Test-and-Set operations that found the variable non-zero.
    pub ts_failures: u64,
    /// Test-and-Set operations that acquired.
    pub ts_successes: u64,
    /// Bus transactions rejected by a memory lock and requeued.
    pub lock_rejections: u64,
    /// Locked reads among [`MachineStats::lock_rejections`] — a second
    /// PE's Test-and-Set bouncing off a held lock.
    pub lock_rejected_reads: u64,
    /// Plain bus writes among [`MachineStats::lock_rejections`] —
    /// "any bus writes before the unlock will fail".
    pub lock_rejected_writes: u64,
    /// Deterministic work units: logical tag-store accesses (issue
    /// probes, snoop applications, supplier reads, installs,
    /// pending-read checks). Counts *logical* work, so every engine
    /// path — scanned or deferred — reports the
    /// same number; a machine-independent perf proxy gated in CI.
    pub tag_probes: u64,
    /// Deterministic work units: per-holder visits during broadcast
    /// snoop dispatch plus pending-reader visits after bus
    /// transactions — the broadcast fan-out the deferred path avoids
    /// paying for.
    pub sharer_visits: u64,
    /// Deterministic work units: arbitration scans of a non-empty bus
    /// queue (one per granted cycle; dead and held cycles scan
    /// nothing).
    pub queue_scans: u64,
    /// Split-transaction requests cancelled *between* their address and
    /// data phases (broadcast-satisfied reads and fail-stops): their
    /// address phase and acquire-wait sample happened, but no
    /// transaction completion ever will. Zero under non-split
    /// disciplines; closes the bus-acquire conservation identity.
    pub split_cancels: u64,
}

impl MachineStats {
    /// Total Test-and-Set operations.
    pub fn ts_attempts(&self) -> u64 {
        self.ts_failures + self.ts_successes
    }

    /// Total deterministic work units — the scalar the CI work-unit
    /// gate tracks per scenario.
    pub fn work_units(&self) -> u64 {
        self.tag_probes + self.sharer_visits + self.queue_scans
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "broadcast-satisfied={} writebacks={} TS ok/fail={}/{} lock-rejections={}",
            self.broadcast_satisfied,
            self.writebacks,
            self.ts_successes,
            self.ts_failures,
            self.lock_rejections
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_split_sums_to_total() {
        let s = MachineStats {
            lock_rejections: 5,
            lock_rejected_reads: 3,
            lock_rejected_writes: 2,
            ..Default::default()
        };
        assert_eq!(
            s.lock_rejected_reads + s.lock_rejected_writes,
            s.lock_rejections
        );
    }

    #[test]
    fn ts_attempts_sum() {
        let s = MachineStats {
            ts_failures: 3,
            ts_successes: 2,
            ..Default::default()
        };
        assert_eq!(s.ts_attempts(), 5);
    }

    #[test]
    fn display_mentions_all_counters() {
        let text = MachineStats::default().to_string();
        assert!(text.contains("broadcast-satisfied=0"));
        assert!(text.contains("writebacks=0"));
        assert!(text.contains("lock-rejections=0"));
    }
}
