//! Deterministic fault injection: plans, policies, and statistics.
//!
//! The paper's Section 8 names memory reliability via cache replication
//! as the key open direction; Section 5 argues RWB's write broadcasts
//! keep "a higher probability that some cache contains a correct copy".
//! This module supplies the machinery to *test* that claim under load:
//! a seeded [`FaultPlan`] schedules transient memory/cache word flips,
//! bus-transaction loss, and PE fail-stop events at chosen cycles or
//! per-cycle rates; the machine detects corruption through the parity
//! model ([`Entry::parity_ok`](decache_cache::Entry),
//! [`Memory::parity_ok`](decache_mem::Memory)) and recovers according
//! to a [`RecoveryPolicy`] — in the run loop, not as a manual post-hoc
//! API.
//!
//! Everything is deterministic: the plan owns a `decache-rng` stream
//! seeded at construction, draws in a fixed order each cycle, and draws
//! nothing at all when no rate is configured — a zero-fault plan leaves
//! every statistic bit-identical to a machine with no plan (the
//! fingerprint suite asserts this).

use decache_mem::{Addr, AddrRange, MemError};
use decache_rng::Rng;
use std::error::Error;
use std::fmt;

/// One kind of injected fault, as carried on
/// [`Observation::FaultInjected`](crate::Observation::FaultInjected)
/// and scheduled by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient bit flip in the memory word at `addr`.
    MemoryFlip {
        /// The corrupted address.
        addr: Addr,
    },
    /// A transient bit flip in PE `pe`'s cached copy of `addr`.
    CacheFlip {
        /// The cache whose line is corrupted.
        pe: usize,
        /// The corrupted address.
        addr: Addr,
    },
    /// The transaction granted on `bus` this cycle is lost (the cycle is
    /// burned; the transaction retries next cycle).
    BusLoss {
        /// The lossy bus.
        bus: usize,
    },
    /// PE `pe` halts permanently (fail-stop).
    FailStop {
        /// The dying processing element.
        pe: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::MemoryFlip { addr } => write!(f, "memory flip at {addr}"),
            FaultKind::CacheFlip { pe, addr } => write!(f, "cache flip in P{pe} at {addr}"),
            FaultKind::BusLoss { bus } => write!(f, "transaction loss on bus {bus}"),
            FaultKind::FailStop { pe } => write!(f, "fail-stop of P{pe}"),
        }
    }
}

/// Where a recovered memory value came from, as carried on
/// [`Observation::MemoryRepaired`](crate::Observation::MemoryRepaired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// An owning (`L`/`D`) cache copy with good parity — authoritative
    /// by the Section 4 lemma.
    Owner {
        /// The owning cache.
        pe: usize,
    },
    /// The majority value among good-parity readable replicas.
    Majority {
        /// How many replicas voted for the winning value.
        votes: usize,
    },
}

/// How the machine repairs a memory word whose parity check fails on a
/// bus read — the Section 8 replica-repair policy, promoted from the
/// manual [`Machine::recover_memory`](crate::Machine::recover_memory)
/// API into the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Detect only: count the fault and serve the corrupt value. The
    /// word is then *adopted* as plain data (its parity is re-marked
    /// good) so each fault is counted once.
    Off,
    /// Repair only from an owning (`L`/`D`) copy with good parity.
    OwnerOnly,
    /// Repair from an owner, else by majority vote among good-parity
    /// readable replicas (the default).
    #[default]
    Majority,
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPolicy::Off => write!(f, "off"),
            RecoveryPolicy::OwnerOnly => write!(f, "owner-only"),
            RecoveryPolicy::Majority => write!(f, "majority"),
        }
    }
}

/// What fail-stop handling does with the dead PE's owned lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailStopPolicy {
    /// A recovery controller flushes every good-parity owned (`L`/`D`)
    /// line to memory before the cache goes dark; only corrupted owned
    /// lines lose their writes (the default).
    #[default]
    Drain,
    /// The cache goes dark immediately: every owned line whose value
    /// memory does not already hold is a lost write. (`F` lines lose
    /// nothing — their first write went to the bus, so memory is
    /// current.)
    Forfeit,
}

impl fmt::Display for FailStopPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailStopPolicy::Drain => write!(f, "drain"),
            FailStopPolicy::Forfeit => write!(f, "forfeit"),
        }
    }
}

/// A fault-injection entry point was handed an invalid target.
///
/// Returned by [`Machine::corrupt_memory`](crate::Machine::corrupt_memory)
/// and [`Machine::corrupt_cache`](crate::Machine::corrupt_cache) in
/// place of the `expect`-based panics they once used, consistent with
/// the structured [`RunOutcome`](crate::RunOutcome) error surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectError {
    /// The target address exceeds the memory size.
    OutOfBounds {
        /// The offending address.
        addr: Addr,
        /// The memory size in words.
        size: u64,
    },
    /// The target PE index exceeds the machine's PE count.
    NoSuchPe {
        /// The offending PE index.
        pe: usize,
        /// The machine's PE count.
        pes: usize,
    },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InjectError::OutOfBounds { addr, size } => {
                write!(f, "fault target {addr} out of range of {size} memory words")
            }
            InjectError::NoSuchPe { pe, pes } => {
                write!(f, "fault target P{pe} out of range of {pes} PEs")
            }
        }
    }
}

impl Error for InjectError {}

impl From<MemError> for InjectError {
    fn from(e: MemError) -> Self {
        match e {
            MemError::OutOfBounds { addr, size } => InjectError::OutOfBounds { addr, size },
            other => unreachable!("fault injection cannot fail with {other}"),
        }
    }
}

/// A seeded, deterministic fault schedule, configured via
/// [`MachineBuilder::fault_plan`](crate::MachineBuilder::fault_plan).
///
/// Faults come in two flavours, freely mixed:
///
/// * **Scheduled** — a specific fault at a specific cycle
///   ([`FaultPlan::memory_flip_at`] and friends), for reproducing exact
///   scenarios in tests;
/// * **Rate-driven** — an independent per-cycle Bernoulli draw for each
///   configured rate, targets chosen uniformly by the plan's own seeded
///   RNG, for campaigns.
///
/// Draws happen in a fixed order each cycle (memory flip, cache flip,
/// bus loss, fail stop), and a rate left at zero consumes no randomness
/// at all — so a plan with no rates and no schedule is perfectly inert.
///
/// # Examples
///
/// ```
/// use decache_machine::FaultPlan;
/// use decache_mem::{Addr, AddrRange};
///
/// let plan = FaultPlan::new(42)
///     .memory_flip_rate(0.001)
///     .cache_flip_rate(0.001)
///     .region(AddrRange::with_len(Addr::new(0), 64))
///     .fail_stop_at(500, 1);
/// assert!(!plan.is_inert());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub(crate) seed: u64,
    pub(crate) memory_flip_rate: f64,
    pub(crate) cache_flip_rate: f64,
    pub(crate) bus_loss_rate: f64,
    pub(crate) fail_stop_rate: f64,
    pub(crate) region: Option<AddrRange>,
    pub(crate) scheduled: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan drawing randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            memory_flip_rate: 0.0,
            cache_flip_rate: 0.0,
            bus_loss_rate: 0.0,
            fail_stop_rate: 0.0,
            region: None,
            scheduled: Vec::new(),
        }
    }

    fn checked_rate(rate: f64, what: &str) -> f64 {
        assert!(
            (0.0..=1.0).contains(&rate),
            "{what} rate {rate} must be a probability in [0, 1]"
        );
        rate
    }

    /// Per-cycle probability of flipping one bit of a random memory
    /// word (within [`FaultPlan::region`] if set).
    pub fn memory_flip_rate(mut self, rate: f64) -> Self {
        self.memory_flip_rate = Self::checked_rate(rate, "memory flip");
        self
    }

    /// Per-cycle probability of flipping one bit of a random valid line
    /// in a random live cache.
    pub fn cache_flip_rate(mut self, rate: f64) -> Self {
        self.cache_flip_rate = Self::checked_rate(rate, "cache flip");
        self
    }

    /// Per-cycle probability of losing the transaction granted on a
    /// random bus.
    pub fn bus_loss_rate(mut self, rate: f64) -> Self {
        self.bus_loss_rate = Self::checked_rate(rate, "bus loss");
        self
    }

    /// Per-cycle probability of fail-stopping a random live PE. The
    /// last live PE is never killed — a machine with no processors
    /// cannot degrade gracefully.
    pub fn fail_stop_rate(mut self, rate: f64) -> Self {
        self.fail_stop_rate = Self::checked_rate(rate, "fail stop");
        self
    }

    /// Restricts random memory-flip targets to `region` (default: the
    /// whole memory). Scheduled flips are unaffected.
    pub fn region(mut self, region: AddrRange) -> Self {
        assert!(!region.is_empty(), "fault region must be non-empty");
        self.region = Some(region);
        self
    }

    /// Schedules a memory bit flip at `addr` in cycle `cycle`.
    pub fn memory_flip_at(mut self, cycle: u64, addr: Addr) -> Self {
        self.scheduled.push((cycle, FaultKind::MemoryFlip { addr }));
        self
    }

    /// Schedules a cache bit flip in PE `pe`'s copy of `addr` at cycle
    /// `cycle`; a no-op if the line is not cached when the cycle comes.
    pub fn cache_flip_at(mut self, cycle: u64, pe: usize, addr: Addr) -> Self {
        self.scheduled
            .push((cycle, FaultKind::CacheFlip { pe, addr }));
        self
    }

    /// Schedules the loss of whatever transaction `bus` grants in cycle
    /// `cycle`.
    pub fn bus_loss_at(mut self, cycle: u64, bus: usize) -> Self {
        self.scheduled.push((cycle, FaultKind::BusLoss { bus }));
        self
    }

    /// Schedules the fail-stop of PE `pe` at cycle `cycle`.
    pub fn fail_stop_at(mut self, cycle: u64, pe: usize) -> Self {
        self.scheduled.push((cycle, FaultKind::FailStop { pe }));
        self
    }

    /// `true` if the plan injects nothing: no scheduled events and every
    /// rate zero. An inert plan never touches its RNG, so attaching one
    /// leaves the machine bit-identical to having no plan at all.
    pub fn is_inert(&self) -> bool {
        self.scheduled.is_empty()
            && self.memory_flip_rate == 0.0
            && self.cache_flip_rate == 0.0
            && self.bus_loss_rate == 0.0
            && self.fail_stop_rate == 0.0
    }

    /// `true` if any per-cycle rate is configured.
    pub(crate) fn has_rates(&self) -> bool {
        self.memory_flip_rate > 0.0
            || self.cache_flip_rate > 0.0
            || self.bus_loss_rate > 0.0
            || self.fail_stop_rate > 0.0
    }
}

/// The live injection state carried by a machine with a [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct FaultEngine {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: Rng,
    /// Cursor into `plan.scheduled` (sorted by cycle at construction).
    pub(crate) cursor: usize,
    /// Per-bus "lose the next grant" marks, set by the fault phase and
    /// consumed by the bus phase within the same cycle.
    pub(crate) lose_grant: Vec<bool>,
}

impl FaultEngine {
    pub(crate) fn new(mut plan: FaultPlan, buses: usize) -> Self {
        // Stable sort: events scheduled for the same cycle fire in the
        // order they were added to the plan.
        plan.scheduled.sort_by_key(|&(cycle, _)| cycle);
        let rng = Rng::from_seed(plan.seed);
        FaultEngine {
            plan,
            rng,
            cursor: 0,
            lose_grant: vec![false; buses],
        }
    }

    /// The cycle of the next not-yet-fired scheduled event, if any —
    /// the fault engine's contribution to the machine's wake schedule.
    /// Meaningless as a skip bound when the plan also has rates (those
    /// draw every cycle); callers must check
    /// [`FaultPlan::has_rates`] first.
    pub(crate) fn next_scheduled(&self) -> Option<u64> {
        self.plan
            .scheduled
            .get(self.cursor)
            .map(|&(cycle, _)| cycle)
    }

    /// Pops every scheduled event due at `cycle` (events scheduled for
    /// already-elapsed cycles fire late rather than never).
    pub(crate) fn due(&mut self, cycle: u64) -> Vec<FaultKind> {
        let mut due = Vec::new();
        while let Some(&(at, kind)) = self.plan.scheduled.get(self.cursor) {
            if at > cycle {
                break;
            }
            due.push(kind);
            self.cursor += 1;
        }
        due
    }
}

/// Counters for the fault-injection subsystem, separate from
/// [`MachineStats`](crate::MachineStats) — a faultless machine reports
/// all zeroes and its golden statistics are untouched.
///
/// Read via [`Machine::fault_stats`](crate::Machine::fault_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Memory word flips injected.
    pub memory_faults_injected: u64,
    /// Cache line flips injected (a scheduled flip of an uncached line
    /// does not count).
    pub cache_faults_injected: u64,
    /// Bus transactions lost (granted, burned, retried).
    pub bus_transactions_lost: u64,
    /// PEs fail-stopped.
    pub pe_fail_stops: u64,
    /// Memory parity failures detected on bus reads.
    pub memory_faults_detected: u64,
    /// Cache parity failures detected on CPU access or supply.
    pub cache_faults_detected: u64,
    /// Memory words repaired from an owning cache copy.
    pub memory_recoveries_owner: u64,
    /// Memory words repaired by majority vote among readable replicas.
    pub memory_recoveries_majority: u64,
    /// Detected memory faults with no usable replica (or with recovery
    /// off): the corrupt value was adopted.
    pub memory_recoveries_failed: u64,
    /// Corrupted cache lines invalidated and re-fetched from the
    /// coherent image (memory or a supplier).
    pub cache_refetches: u64,
    /// Corrupted cache lines healed in place by capturing a snooped
    /// broadcast value (an RWB-family bonus: the broadcast overwrites
    /// the bad word before anyone reads it).
    pub broadcast_heals: u64,
    /// Writes that existed only in a corrupted or fail-stopped cache
    /// and could not be flushed: the value is gone.
    pub lost_writes: u64,
    /// Owned lines flushed to memory by fail-stop draining.
    pub drained_lines: u64,
    /// Memory locks forcibly released from fail-stopped PEs.
    pub forced_unlocks: u64,
    /// Sum over detected faults of (detection cycle − injection cycle).
    pub recovery_latency_total: u64,
    /// Number of detections contributing to
    /// [`FaultStats::recovery_latency_total`].
    pub recovery_latency_samples: u64,
    /// Sum over in-loop memory recoveries of the replica count consulted.
    pub replicas_at_recovery: u64,
}

impl FaultStats {
    /// Total faults injected, of every kind.
    pub fn total_injected(&self) -> u64 {
        self.memory_faults_injected
            + self.cache_faults_injected
            + self.bus_transactions_lost
            + self.pe_fail_stops
    }

    /// In-loop memory recovery attempts (detections that reached the
    /// repair policy).
    pub fn memory_recovery_attempts(&self) -> u64 {
        self.memory_recoveries_owner
            + self.memory_recoveries_majority
            + self.memory_recoveries_failed
    }

    /// Fraction of detected memory faults repaired from a replica
    /// (`None` when nothing was detected).
    pub fn memory_recovery_success_rate(&self) -> Option<f64> {
        let attempts = self.memory_recovery_attempts();
        (attempts > 0).then(|| {
            (self.memory_recoveries_owner + self.memory_recoveries_majority) as f64
                / attempts as f64
        })
    }

    /// Mean cycles from injection to detection (`None` with no samples).
    pub fn mean_recovery_latency(&self) -> Option<f64> {
        (self.recovery_latency_samples > 0)
            .then(|| self.recovery_latency_total as f64 / self.recovery_latency_samples as f64)
    }

    /// Mean replicas consulted per in-loop memory recovery attempt
    /// (`None` with no attempts).
    pub fn mean_replicas_at_recovery(&self) -> Option<f64> {
        let attempts = self.memory_recovery_attempts();
        (attempts > 0).then(|| self.replicas_at_recovery as f64 / attempts as f64)
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "injected: {} memory, {} cache, {} bus losses, {} fail-stops",
            self.memory_faults_injected,
            self.cache_faults_injected,
            self.bus_transactions_lost,
            self.pe_fail_stops
        )?;
        writeln!(
            f,
            "detected: {} memory, {} cache",
            self.memory_faults_detected, self.cache_faults_detected
        )?;
        writeln!(
            f,
            "memory repairs: {} owner, {} majority, {} unrecoverable",
            self.memory_recoveries_owner,
            self.memory_recoveries_majority,
            self.memory_recoveries_failed
        )?;
        writeln!(
            f,
            "cache recoveries: {} refetches, {} broadcast heals",
            self.cache_refetches, self.broadcast_heals
        )?;
        write!(
            f,
            "degradation: {} lost writes, {} drained lines, {} forced unlocks",
            self.lost_writes, self.drained_lines, self.forced_unlocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        assert!(FaultPlan::new(1).is_inert());
        assert!(!FaultPlan::new(1).memory_flip_rate(0.5).is_inert());
        assert!(!FaultPlan::new(1).fail_stop_at(10, 0).is_inert());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_panics() {
        let _ = FaultPlan::new(1).bus_loss_rate(1.5);
    }

    #[test]
    fn engine_pops_scheduled_events_in_cycle_order() {
        let plan = FaultPlan::new(0)
            .fail_stop_at(30, 1)
            .memory_flip_at(10, Addr::new(4))
            .bus_loss_at(10, 0);
        let mut engine = FaultEngine::new(plan, 1);
        assert!(engine.due(9).is_empty());
        // Same-cycle events fire in plan insertion order.
        assert_eq!(
            engine.due(10),
            vec![
                FaultKind::MemoryFlip { addr: Addr::new(4) },
                FaultKind::BusLoss { bus: 0 }
            ]
        );
        assert!(engine.due(20).is_empty());
        assert_eq!(engine.due(31), vec![FaultKind::FailStop { pe: 1 }]);
        assert!(engine.due(1_000).is_empty());
    }

    #[test]
    fn stats_derived_metrics() {
        let mut s = FaultStats::default();
        assert_eq!(s.memory_recovery_success_rate(), None);
        assert_eq!(s.mean_recovery_latency(), None);
        s.memory_recoveries_owner = 3;
        s.memory_recoveries_majority = 1;
        s.memory_recoveries_failed = 4;
        s.recovery_latency_total = 60;
        s.recovery_latency_samples = 6;
        s.replicas_at_recovery = 16;
        assert_eq!(s.memory_recovery_attempts(), 8);
        assert_eq!(s.memory_recovery_success_rate(), Some(0.5));
        assert_eq!(s.mean_recovery_latency(), Some(10.0));
        assert_eq!(s.mean_replicas_at_recovery(), Some(2.0));
    }

    #[test]
    fn display_mentions_every_counter_family() {
        let text = FaultStats::default().to_string();
        for needle in [
            "injected",
            "detected",
            "repairs",
            "refetches",
            "lost writes",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    #[test]
    fn inject_error_display() {
        let e = InjectError::OutOfBounds {
            addr: Addr::new(9),
            size: 4,
        };
        assert!(e.to_string().contains("@9"));
        let e = InjectError::NoSuchPe { pe: 7, pes: 2 };
        assert!(e.to_string().contains("P7"));
    }
}
