//! The cycle-based shared-bus MIMD machine.

use crate::caches::{Caches, SkipPes};
use crate::fault::{FaultEngine, FaultKind, FaultPlan, RecoverySource};
use crate::outcome::StallSite;
use crate::sharers::PeMask;
use crate::status::{PeStatus, Pending};
use crate::telemetry::TelemetryState;
use crate::trace::{CpuDecision, Observation, Observer};
use crate::{
    FailStopPolicy, FaultStats, HaltReason, MachineStats, MemOp, OpResult, PeBlame, Poll,
    Processor, RecoveryPolicy, RunOutcome, Snapshot, StallVerdict,
};
use decache_bus::{
    Arbiter, BusOp, BusOpKind, BusQueue, BusTransaction, MultiBusStats, Routing, ServiceDiscipline,
    TrafficStats,
};
use decache_cache::{AccessKind, CacheStats, TagStore};
use decache_core::{AnyProtocol, BusIntent, CpuOutcome, LineState, Protocol, SnoopEvent};
use decache_mem::{Addr, AddrRange, MemError, Memory, PeId, Word};
use std::collections::HashMap;

// Declared as a child of this module (with the file kept beside it)
// so the checkpoint/restore code can reach the machine's private
// fields without widening their visibility.
#[path = "checkpoint.rs"]
pub(crate) mod checkpoint;

/// The simulated machine: `n` processing elements with private snooping
/// caches, one or more shared buses, and a common memory.
///
/// The temporal contract follows the paper's assumptions (Section 2):
/// each bus cycle, (1) every idle PE may issue one memory operation to
/// its cache — hits complete immediately, misses enqueue a bus request
/// and stall the PE (every idle PE's processor is polled before any
/// polled operation starts, both in ascending PE order; see
/// [`Processor`]); (2) each bus grants one transaction; (3) every cache
/// snoops the granted transaction in the same cycle; (4) a cache holding
/// the target in the `L` state interrupts a foreign bus read, the cycle
/// carries that cache's bus write instead, and the read retries next
/// cycle.
///
/// Construct machines with [`MachineBuilder`](crate::MachineBuilder).
///
/// # Accounting shortcuts (documented deviations)
///
/// * Eviction write-backs complete synchronously with the miss that
///   caused them, but are charged one bus-write transaction on the
///   evicted address's bus — "miss plus write-back costs two
///   transactions" without modelling a two-transaction controller queue.
/// * A transaction rejected by a memory lock (a write, or a locked read,
///   hitting a word locked by another PE's Test-and-Set) consumes its
///   bus cycle and is requeued through arbitration — "any bus writes
///   before the unlock will fail" (Section 3).
pub struct Machine {
    protocol: AnyProtocol,
    routing: Routing,
    memory: Memory,
    /// Every PE's cache with the sharer, supplier and pending-read
    /// indexes, and the broadcasts deferred until a line is read.
    caches: Caches,
    processors: Vec<Box<dyn Processor + Send>>,
    /// The issue phase's scratch list of `(pe, op)`, filled by its
    /// polling pass and emptied by its starting pass. Empty between
    /// steps, so it is never checkpointed.
    polled: Vec<(usize, MemOp)>,
    statuses: Vec<PeStatus>,
    last_results: Vec<Option<OpResult>>,
    queues: Vec<BusQueue>,
    arbiters: Vec<Box<dyn Arbiter>>,
    traffic: MultiBusStats,
    cache_stats: Vec<CacheStats>,
    stats: MachineStats,
    cycle: u64,
    /// Bus cycles each transaction occupies (1 = the paper's model;
    /// larger values model memory slower than the caches).
    transaction_cycles: u64,
    /// How each bus schedules grants over time (all buses share one
    /// discipline; the per-queue copy drives the queues themselves).
    discipline: ServiceDiscipline,
    /// Per-bus cycle number until which the bus is still occupied.
    /// Never set in split-transaction mode: the bus is released between
    /// the address and data phases.
    bus_free_at: Vec<u64>,
    /// Structured protocol-level event subscribers (the conformance
    /// oracle). Notified synchronously; cannot mutate the machine.
    observers: Vec<Box<dyn Observer>>,
    /// The set of PEs in [`PeStatus::Idle`], so `issue_phase` skips
    /// stalled and finished PEs without touching them.
    idle: PeMask,
    /// Running count of PEs in [`PeStatus::Idle`].
    idle_count: usize,
    /// Running count of PEs in [`PeStatus::Done`] or
    /// [`PeStatus::Failed`] — a fail-stopped PE counts as finished, so
    /// the survivors' completion is unchanged.
    done_count: usize,
    /// The live fault-injection engine, `None` without a
    /// [`FaultPlan`]. A machine with no plan performs zero fault work
    /// per cycle beyond this `None` check.
    faults: Option<FaultEngine>,
    /// In-loop repair policy for memory words whose parity check fails
    /// on a bus read.
    recovery_policy: RecoveryPolicy,
    /// What to do with a fail-stopped PE's owned lines.
    fail_stop_policy: FailStopPolicy,
    /// Fault-subsystem counters, separate from [`MachineStats`].
    fault_stats: FaultStats,
    /// Injection cycle of each outstanding (undetected) fault, keyed by
    /// `(Some(pe), addr)` for cache faults and `(None, addr)` for
    /// memory faults — the detection-latency ledger.
    fault_clock: HashMap<(Option<usize>, u64), u64>,
    /// The livelock/deadlock progress window in cycles — absolute
    /// ([`crate::DEFAULT_PROGRESS_WINDOW`] unless configured), so a
    /// stuck machine's verdict does not depend on the run budget.
    progress_window: u64,
    /// Per-PE cycle of the most recent completed operation, for the
    /// livelock/deadlock verdict in [`Machine::run_outcome`].
    last_progress: Vec<u64>,
    /// Per-PE address of the most recently issued operation, for
    /// budget-exhaustion blame.
    last_addr: Vec<Option<Addr>>,
    /// The cycle-attribution recorder, `None` unless telemetry was
    /// enabled at build time. Mirrors the `faults` gating contract: a
    /// machine without one performs zero telemetry work per hook beyond
    /// this `None` check, and recording never changes any simulated
    /// statistic.
    telemetry: Option<Box<TelemetryState>>,
}

/// Which halt condition a [`Machine::run_loop`] call waits for.
#[derive(Clone, Copy)]
enum RunUntil {
    /// Every PE finished and all queues drained ([`Machine::is_done`]).
    Done,
    /// Every PE finished *or idle* and all queues drained
    /// ([`Machine::is_quiescent`]).
    Quiescent,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("protocol", &self.protocol.name())
            .field("pes", &self.processors.len())
            .field("buses", &self.routing.bus_count())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl Machine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        protocol: AnyProtocol,
        routing: Routing,
        memory: Memory,
        caches: Vec<TagStore<LineState>>,
        processors: Vec<Box<dyn Processor + Send>>,
        arbiters: Vec<Box<dyn Arbiter>>,
        transaction_cycles: u64,
        discipline: ServiceDiscipline,
        fault_plan: Option<FaultPlan>,
        recovery_policy: RecoveryPolicy,
        fail_stop_policy: FailStopPolicy,
        telemetry: bool,
        progress_window: u64,
    ) -> Self {
        let n = processors.len();
        let buses = routing.bus_count();
        assert_eq!(arbiters.len(), buses, "one arbiter per bus");
        assert_eq!(caches.len(), n, "one cache per processor");
        assert!(
            transaction_cycles >= 1,
            "transactions take at least one cycle"
        );
        let caches = Caches::new(caches, protocol.clone(), memory.size());
        let mut idle = PeMask::new(n);
        for pe in 0..n {
            idle.set(pe);
        }
        Machine {
            protocol,
            routing,
            memory,
            caches,
            statuses: vec![PeStatus::Idle; n],
            last_results: vec![None; n],
            processors,
            polled: Vec::with_capacity(n),
            queues: (0..buses)
                .map(|_| BusQueue::with_discipline(discipline))
                .collect(),
            arbiters,
            traffic: MultiBusStats::new(buses),
            cache_stats: vec![CacheStats::new(); n],
            stats: MachineStats::default(),
            cycle: 0,
            transaction_cycles,
            discipline,
            bus_free_at: vec![0; buses],
            observers: Vec::new(),
            idle,
            idle_count: n,
            done_count: 0,
            faults: fault_plan.map(|plan| FaultEngine::new(plan, buses)),
            recovery_policy,
            fail_stop_policy,
            fault_stats: FaultStats::default(),
            fault_clock: HashMap::new(),
            progress_window,
            last_progress: vec![0; n],
            last_addr: vec![None; n],
            telemetry: telemetry.then(|| Box::new(TelemetryState::new(n))),
        }
    }

    // ------------------------------------------------------------------
    // Observation API
    // ------------------------------------------------------------------

    /// The number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.processors.len()
    }

    /// The coherence protocol in use.
    pub fn protocol(&self) -> &AnyProtocol {
        &self.protocol
    }

    /// The bus routing (single, interleaved, or hierarchical).
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// The number of shared buses.
    pub fn bus_count(&self) -> usize {
        self.routing.bus_count()
    }

    /// The bus service discipline (shared by every bus).
    pub fn discipline(&self) -> ServiceDiscipline {
        self.discipline
    }

    /// The shared memory (read-only view; use [`Memory::peek`]).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable memory access for fault injection and recovery (the
    /// Section 8 reliability extension in the `recovery` module).
    pub(crate) fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Mutable cache access for fault injection.
    pub(crate) fn caches_mut(&mut self) -> &mut Caches {
        &mut self.caches
    }

    /// The number of bus cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Returns `true` once every processor has finished and no bus
    /// requests remain.
    pub fn is_done(&self) -> bool {
        self.done_count == self.pe_count() && self.queues.iter().all(BusQueue::is_empty)
    }

    /// Returns `true` when no PE is stalled and no bus requests remain —
    /// every processor is either finished or idle (e.g. a conducted
    /// scenario program returning [`Poll::Wait`](crate::Poll::Wait)).
    pub fn is_quiescent(&self) -> bool {
        self.idle_count + self.done_count == self.pe_count()
            && self.queues.iter().all(BusQueue::is_empty)
    }

    /// Runs until the machine is quiescent or `max_cycles` elapse;
    /// returns `true` on quiescence.
    ///
    /// Same check-then-step loop as [`Machine::run`]: the condition is
    /// tested *before* each step, so a machine that is already
    /// quiescent returns `true` without consuming any budget —
    /// `run_until_quiescent(0)` answers "is it quiescent right now?".
    /// Conducted scenarios that have just queued an operation should
    /// use [`Machine::settle`] instead, which forces the first step.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        self.run_loop(max_cycles, false, RunUntil::Quiescent)
    }

    /// Steps at least once, then runs until the machine is quiescent;
    /// returns `true` on quiescence within `max_cycles`.
    ///
    /// The forced first step is the point: a conducted scenario that
    /// has just handed an operation to a waiting processor *looks*
    /// quiescent until that processor gets a cycle to poll its queue,
    /// so the check-then-step [`Machine::run_until_quiescent`] would
    /// return `true` with the operation still pending. `settle(0)`
    /// cannot take its required step and therefore returns `false`.
    pub fn settle(&mut self, max_cycles: u64) -> bool {
        self.run_loop(max_cycles, true, RunUntil::Quiescent)
    }

    /// The cache line (state and value) PE `pe` holds for `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `pe >= self.pe_count()`.
    pub fn cache_line(&self, pe: usize, addr: Addr) -> Option<(LineState, Word)> {
        self.caches.view(pe, addr).map(|e| (e.state, e.data))
    }

    /// Snapshot of every cache's view of `addr` plus the memory value —
    /// one row of the synchronization figures.
    pub fn snapshot(&self, addr: Addr) -> Snapshot {
        let lines = (0..self.pe_count())
            .map(|pe| self.cache_line(pe, addr))
            .collect();
        Snapshot::new(lines, self.memory.peek(addr).unwrap_or(Word::ZERO))
    }

    /// Aggregate bus traffic across all buses.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.total()
    }

    /// Per-bus traffic (Figure 7-1 accounting).
    pub fn traffic_per_bus(&self) -> &MultiBusStats {
        &self.traffic
    }

    /// Per-PE cache statistics.
    ///
    /// # Panics
    ///
    /// Panics if `pe >= self.pe_count()`.
    pub fn cache_stats(&self, pe: usize) -> CacheStats {
        self.cache_stats[pe]
    }

    /// Cache statistics summed over all PEs.
    pub fn total_cache_stats(&self) -> CacheStats {
        self.cache_stats
            .iter()
            .copied()
            .fold(CacheStats::new(), |acc, s| acc + s)
    }

    /// Machine-level counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Fault-injection and recovery counters (all zero without faults).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// `true` if the machine records cycle-attribution histograms
    /// ([`MachineBuilder::telemetry`](crate::MachineBuilder::telemetry)).
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The cycle-attribution histograms, `None` unless telemetry was
    /// enabled at build time.
    pub fn histograms(&self) -> Option<&crate::CycleHistograms> {
        self.telemetry.as_deref().map(|t| &t.hist)
    }

    /// The in-loop memory repair policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery_policy
    }

    /// The fail-stop drain/forfeit policy.
    pub fn fail_stop_policy(&self) -> FailStopPolicy {
        self.fail_stop_policy
    }

    /// `true` if PE `pe` has fail-stopped.
    ///
    /// # Panics
    ///
    /// Panics if `pe >= self.pe_count()`.
    pub fn pe_failed(&self, pe: usize) -> bool {
        matches!(self.statuses[pe], PeStatus::Failed)
    }

    /// The number of PEs that have not fail-stopped.
    pub fn live_pes(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| !matches!(s, PeStatus::Failed))
            .count()
    }

    /// Resets every statistic (bus traffic, cache hit/miss counters,
    /// machine counters) without touching the architectural state —
    /// caches, memory, and in-flight work are preserved. Use to discard
    /// warm-up transients before a measurement window.
    pub fn reset_stats(&mut self) {
        self.traffic = MultiBusStats::new(self.routing.bus_count());
        for s in &mut self.cache_stats {
            *s = CacheStats::new();
        }
        self.stats = MachineStats::default();
        if let Some(t) = self.telemetry.as_deref_mut() {
            // The histograms reset with the other statistics; the
            // start-cycle scratchpads survive, so an operation in
            // flight across the reset still records its full latency.
            t.hist = crate::CycleHistograms::default();
        }
    }

    /// Attaches a structured protocol-event [`Observer`] (e.g. the
    /// conformance oracle of `decache-verify`). Observers see every
    /// protocol-level step from this point on; attaching one cannot
    /// change any simulated behaviour or statistic.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    fn notify(&mut self, observation: Observation) {
        if self.observers.is_empty() {
            return;
        }
        let cycle = self.cycle;
        for observer in &mut self.observers {
            observer.observe(cycle, &observation);
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Advances the machine by one bus cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.fault_phase();
        self.issue_phase();
        self.bus_phase();
    }

    /// Runs until done or `max_cycles` elapse; returns `true` if done.
    ///
    /// Check-then-step: the completion test runs *before* each step,
    /// so `run(0)` on a finished machine returns `true` without
    /// advancing the clock. Internally this drives the wake schedule
    /// ([`Machine::next_event_cycle`]): cycles on which provably
    /// nothing can happen are skipped in bulk rather than simulated
    /// one by one, with bit-identical statistics.
    pub fn run(&mut self, max_cycles: u64) -> bool {
        self.run_loop(max_cycles, false, RunUntil::Done)
    }

    /// The shared budgeted runner behind [`Machine::run`],
    /// [`Machine::run_until_quiescent`], and [`Machine::settle`]. One
    /// loop, one semantics: check the halt condition, then advance —
    /// except when `step_first` demands an unconditional first step
    /// (and the budget allows one).
    fn run_loop(&mut self, max_cycles: u64, step_first: bool, until: RunUntil) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        let mut force_step = step_first;
        loop {
            if !force_step && self.halted(until) {
                return true;
            }
            if self.cycle >= end {
                return !force_step && self.halted(until);
            }
            force_step = false;
            self.advance(end);
        }
    }

    fn halted(&self, until: RunUntil) -> bool {
        match until {
            RunUntil::Done => self.is_done(),
            RunUntil::Quiescent => self.is_quiescent(),
        }
    }

    /// Advances toward `end`: steps the next cycle on which something
    /// can happen, first skipping any dead cycles before it, or skips
    /// straight to `end` when no event is due within the budget.
    fn advance(&mut self, end: u64) {
        match self.next_event_cycle() {
            Some(at) if at <= end => {
                if at > self.cycle + 1 {
                    self.skip_dead_cycles(at - 1);
                }
                self.step();
            }
            _ => self.skip_dead_cycles(end),
        }
    }

    /// The wake schedule: the earliest future cycle on which stepping
    /// could do any work, or `None` if the machine is inert forever.
    /// A cycle is *dead* — provably a no-op beyond advancing the clock
    /// and per-bus occupied/idle counters — when no PE is idle (a
    /// stalled, done, or failed PE issues nothing), the fault engine
    /// has no per-cycle rates and no scheduled event due, and every
    /// bus is either empty or still held by a multi-cycle transaction.
    /// [`Machine::skip_dead_cycles`] retires such cycles in bulk.
    #[doc(hidden)]
    pub fn next_event_cycle(&self) -> Option<u64> {
        let next = self.cycle + 1;
        // An idle PE may issue next cycle; nothing is skippable.
        if self.idle_count > 0 {
            return Some(next);
        }
        let mut soonest: Option<u64> = None;
        if let Some(engine) = &self.faults {
            // Per-cycle Bernoulli rates draw the RNG every cycle; no
            // cycle is dead while rates are live.
            if engine.plan.has_rates() {
                return Some(next);
            }
            if let Some(at) = engine.next_scheduled() {
                soonest = Some(at.max(next));
            }
        }
        for bus in 0..self.queues.len() {
            if self.queues[bus].has_grantable() {
                // A queued transaction is granted the cycle the bus
                // frees up (lose-grant faults only retime the retry,
                // which still goes through the same wake point).
                let grant_at = next.max(self.bus_free_at[bus]);
                soonest = Some(soonest.map_or(grant_at, |s| s.min(grant_at)));
            }
            if let Some(ready) = self.queues[bus].next_ready() {
                // A split-transaction data phase wakes the bus when the
                // memory access completes; the cycles in between are
                // genuinely idle.
                let at = next.max(ready);
                soonest = Some(soonest.map_or(at, |s| s.min(at)));
            }
        }
        soonest
    }

    /// Bulk-retires the dead cycles up to and including `to`, charging
    /// each bus the same occupied/idle counts a step-by-step run would
    /// have recorded: occupied while a multi-cycle transaction holds
    /// it, idle otherwise (a dead cycle's queue is empty by
    /// definition, so an unheld bus grants nothing).
    fn skip_dead_cycles(&mut self, to: u64) {
        let span = to.saturating_sub(self.cycle);
        if span == 0 {
            return;
        }
        let first = self.cycle + 1;
        for bus in 0..self.queues.len() {
            let occupied = self.bus_free_at[bus].saturating_sub(first).min(span);
            let t = self.traffic.bus_mut(bus);
            t.record_occupied_n(occupied);
            t.record_idle_n(span - occupied);
        }
        self.cycle = to;
    }

    /// Runs until done or `max_cycles` elapse and reports a structured
    /// [`RunOutcome`]: [`HaltReason::Completed`], or
    /// [`HaltReason::BudgetExhausted`] with per-PE blame — which PEs
    /// are stuck on which addresses, and whether each stall looks like
    /// livelock (still completing operations) or deadlock (no progress
    /// in the machine's absolute progress window — see
    /// [`MachineBuilder::progress_window`](crate::MachineBuilder::progress_window)).
    /// Blame is ordered most-starved first.
    pub fn run_outcome(&mut self, max_cycles: u64) -> RunOutcome {
        let window = self.progress_window;
        if self.run(max_cycles) {
            return RunOutcome {
                cycles: self.cycle,
                progress_window: window,
                reason: HaltReason::Completed,
            };
        }
        let mut blame: Vec<PeBlame> = Vec::new();
        for pe in 0..self.pe_count() {
            let site = match self.statuses[pe] {
                PeStatus::Done | PeStatus::Failed => continue,
                // An idle PE is not stuck on an address; report its
                // last *completed* access, clearly labelled as such.
                PeStatus::Idle => StallSite::Issuing {
                    last: self.last_addr[pe],
                },
                PeStatus::WaitBus(pending) => StallSite::Blocked {
                    addr: pending.addr(),
                },
            };
            let last_progress = self.last_progress[pe];
            let verdict = if self.cycle.saturating_sub(last_progress) > window {
                StallVerdict::Deadlock
            } else {
                StallVerdict::Livelock
            };
            blame.push(PeBlame {
                pe,
                site,
                last_progress,
                verdict,
            });
        }
        blame.sort_by_key(|b| b.last_progress);
        RunOutcome {
            cycles: self.cycle,
            progress_window: window,
            reason: HaltReason::BudgetExhausted { blame },
        }
    }

    /// Runs to completion and returns the elapsed cycle count.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not done after `max_cycles` — programs
    /// that spin forever (e.g. a lock never released) exceed any
    /// budget. The panic message renders the [`RunOutcome`] blame; use
    /// [`Machine::run_outcome`] to handle exhaustion without
    /// panicking.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> u64 {
        let outcome = self.run_outcome(max_cycles);
        assert!(
            outcome.is_complete(),
            "machine not done after {max_cycles} cycles (protocol {}, {} PEs): {outcome}",
            self.protocol.name(),
            self.pe_count()
        );
        outcome.cycles
    }

    /// The sharer-index key for `addr`: its block base address.
    fn block_base(&self, addr: Addr) -> u64 {
        self.caches.geometry().block_base(addr).index()
    }

    /// The single gate for PE status transitions: keeps the idle set,
    /// the done/idle counters, and the pending-read index in sync.
    fn set_status(&mut self, pe: usize, status: PeStatus) {
        match std::mem::replace(&mut self.statuses[pe], status) {
            PeStatus::Idle => {
                self.idle.clear(pe);
                self.idle_count -= 1;
            }
            PeStatus::Done | PeStatus::Failed => self.done_count -= 1,
            PeStatus::WaitBus(Pending::Read { addr, .. }) => {
                self.caches.remove_pending_reader(addr, pe);
            }
            PeStatus::WaitBus(_) => {}
        }
        match status {
            PeStatus::Idle => {
                self.idle.set(pe);
                self.idle_count += 1;
            }
            PeStatus::Done | PeStatus::Failed => self.done_count += 1,
            PeStatus::WaitBus(Pending::Read { addr, .. }) => {
                self.caches.add_pending_reader(addr, pe);
            }
            PeStatus::WaitBus(_) => {}
        }
    }

    // ----- fault phase ------------------------------------------------

    /// `true` if fault work can exist at all: a plan is attached, or a
    /// manual `corrupt_*` call left an undetected fault outstanding.
    /// Every per-access parity check is gated on this, so a fault-free
    /// machine pays two branch tests per cycle and nothing per access.
    fn faults_possible(&self) -> bool {
        self.faults.is_some() || !self.fault_clock.is_empty()
    }

    // ----- telemetry hooks --------------------------------------------
    //
    // Each hook is a single `Option` test when telemetry is disabled and
    // touches only the recorder when enabled — never a simulated
    // statistic, so enabling telemetry cannot perturb any golden.

    /// Re-arms PE `pe`'s arbitration-wait clock: its transaction just
    /// entered a bus queue (first request, lock-rejection requeue, or
    /// abort/loss retry).
    fn mark_enqueued(&mut self, pe: usize) {
        let cycle = self.cycle;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.enqueued_at[pe] = cycle;
        }
    }

    /// PE `pe`'s transaction was granted: samples the arbitration wait.
    fn note_grant(&mut self, pe: usize) {
        let cycle = self.cycle;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.hist.bus_acquire_wait.record(cycle - t.enqueued_at[pe]);
        }
    }

    /// A transaction accessed memory: samples its bus occupancy.
    fn note_memory_service(&mut self) {
        let cycles = self.transaction_cycles;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.hist.memory_service.record(cycles);
        }
    }

    /// Starts PE `pe`'s read-miss fill clock.
    fn mark_read_miss(&mut self, pe: usize) {
        let cycle = self.cycle;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.read_since[pe] = cycle;
        }
    }

    /// PE `pe`'s pending read filled (own bus read or snooped
    /// broadcast): samples the miss-to-fill latency.
    fn note_read_fill(&mut self, pe: usize) {
        let cycle = self.cycle;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.hist.read_fill.record(cycle - t.read_since[pe]);
        }
    }

    /// Starts PE `pe`'s Test-and-Set spin clock at the locked read.
    fn mark_ts_issued(&mut self, pe: usize) {
        let cycle = self.cycle;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.ts_since[pe] = cycle;
        }
    }

    /// PE `pe`'s Test-and-Set resolved (acquired or failed): samples the
    /// lock-spin length.
    fn note_ts_resolved(&mut self, pe: usize) {
        let cycle = self.cycle;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.hist.ts_spin.record(cycle - t.ts_since[pe]);
        }
    }

    /// Draws this cycle's rate-driven faults, pops the scheduled ones,
    /// and applies them — always in the fixed order memory flip, cache
    /// flip, bus loss, fail stop, so a given seed yields one exact
    /// fault history.
    fn fault_phase(&mut self) {
        if self.faults.is_none() {
            return;
        }
        let n = self.pe_count();
        let faults = {
            let statuses = &self.statuses;
            let caches = &self.caches;
            let memory_size = self.memory.size();
            let engine = self.faults.as_mut().expect("checked above");
            engine.lose_grant.iter_mut().for_each(|b| *b = false);
            let mut faults = engine.due(self.cycle);
            if engine.plan.has_rates() {
                let live = || {
                    (0..n)
                        .filter(|&pe| !matches!(statuses[pe], PeStatus::Failed))
                        .collect::<Vec<usize>>()
                };
                if engine.plan.memory_flip_rate > 0.0
                    && engine.rng.gen_bool(engine.plan.memory_flip_rate)
                {
                    let region = engine
                        .plan
                        .region
                        .unwrap_or_else(|| AddrRange::with_len(Addr::new(0), memory_size));
                    let addr = region.nth(engine.rng.gen_range(0..region.len()));
                    faults.push(FaultKind::MemoryFlip { addr });
                }
                if engine.plan.cache_flip_rate > 0.0
                    && engine.rng.gen_bool(engine.plan.cache_flip_rate)
                {
                    let live = live();
                    if !live.is_empty() {
                        let pe = *engine.rng.choose(&live);
                        if caches.len(pe) > 0 {
                            let k = engine.rng.gen_range(0..caches.len(pe));
                            let addr = caches.nth_line_addr(pe, k).expect("k < len");
                            faults.push(FaultKind::CacheFlip { pe, addr });
                        }
                    }
                }
                if engine.plan.bus_loss_rate > 0.0 && engine.rng.gen_bool(engine.plan.bus_loss_rate)
                {
                    let bus = engine.rng.gen_range(0..engine.lose_grant.len());
                    faults.push(FaultKind::BusLoss { bus });
                }
                if engine.plan.fail_stop_rate > 0.0
                    && engine.rng.gen_bool(engine.plan.fail_stop_rate)
                {
                    let live = live();
                    // Never kill the last live PE: a machine with no
                    // processors cannot degrade gracefully.
                    if live.len() > 1 {
                        let pe = *engine.rng.choose(&live);
                        faults.push(FaultKind::FailStop { pe });
                    }
                }
            }
            faults
        };
        for fault in faults {
            self.apply_fault(fault);
        }
    }

    fn apply_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::MemoryFlip { addr } => self.inject_memory_flip(addr),
            FaultKind::CacheFlip { pe, addr } => self.inject_cache_flip(pe, addr),
            FaultKind::BusLoss { bus } => {
                // Marked here, consumed (and counted) by `bus_phase` if
                // the bus actually grants something this cycle.
                let engine = self.faults.as_mut().expect("bus loss requires an engine");
                if bus < engine.lose_grant.len() {
                    engine.lose_grant[bus] = true;
                }
            }
            FaultKind::FailStop { pe } => {
                if pe < self.pe_count() && !self.pe_failed(pe) {
                    self.fail_stop(pe);
                }
            }
        }
    }

    fn inject_memory_flip(&mut self, addr: Addr) {
        let Ok(cur) = self.memory.peek(addr) else {
            // Only a mis-scheduled flip can point outside memory;
            // rate-driven draws stay in range by construction.
            debug_assert!(false, "scheduled memory flip at {addr} out of range");
            return;
        };
        let bit = self
            .faults
            .as_mut()
            .expect("memory flip requires an engine")
            .rng
            .gen_range(0..64u64);
        let garbage = Word::new(cur.value() ^ (1 << bit));
        self.memory
            .poke_corrupt(addr, garbage)
            .expect("peeked address is in range");
        self.fault_stats.memory_faults_injected += 1;
        self.fault_clock.insert((None, addr.index()), self.cycle);
        let fault = FaultKind::MemoryFlip { addr };
        self.notify(Observation::FaultInjected { fault });
    }

    fn inject_cache_flip(&mut self, pe: usize, addr: Addr) {
        if pe >= self.pe_count() || self.pe_failed(pe) {
            debug_assert!(pe < self.pe_count(), "scheduled cache flip in absent P{pe}");
            return;
        }
        let bit = self
            .faults
            .as_mut()
            .expect("cache flip requires an engine")
            .rng
            .gen_range(0..64u64);
        let base = self.caches.geometry().block_base(addr);
        if !self.caches.flip_bit(pe, base, bit) {
            // A scheduled flip of a line that is not cached when its
            // cycle comes is a no-op (and not counted).
            return;
        }
        self.fault_stats.cache_faults_injected += 1;
        self.fault_clock
            .insert((Some(pe), base.index()), self.cycle);
        let fault = FaultKind::CacheFlip { pe, addr: base };
        self.notify(Observation::FaultInjected { fault });
    }

    /// Opens a detection-latency ledger entry for a fault injected at
    /// the current cycle — the manual `corrupt_*` entry points share
    /// this ledger with the rate-driven engine.
    pub(crate) fn clock_fault(&mut self, pe: Option<usize>, addr: Addr) {
        let idx = match pe {
            Some(_) => self.block_base(addr),
            None => addr.index(),
        };
        self.fault_clock.insert((pe, idx), self.cycle);
    }

    /// PE `pe`'s full tag-store entry for `addr`, parity bit included.
    pub(crate) fn cache_entry(
        &self,
        pe: usize,
        addr: Addr,
    ) -> Option<decache_cache::Entry<LineState>> {
        self.caches.view(pe, addr)
    }

    /// Closes the detection-latency ledger entry for the fault at index
    /// `idx` (in PE `pe`'s cache if `Some`, else in memory).
    fn take_latency(&mut self, pe: Option<usize>, idx: u64) {
        if let Some(at) = self.fault_clock.remove(&(pe, idx)) {
            self.fault_stats.recovery_latency_total += self.cycle.saturating_sub(at);
            self.fault_stats.recovery_latency_samples += 1;
        }
    }

    /// The parity check a CPU access or a supply attempt performs on PE
    /// `pe`'s copy of `addr`: a corrupted line is detected, invalidated,
    /// and re-fetched from the coherent image by the access that found
    /// it. If the line owned the latest value, that write is lost (the
    /// refetch observes older memory). Returns `true` if a line was
    /// scrubbed.
    fn scrub_if_corrupt(&mut self, pe: usize, addr: Addr) -> bool {
        match self.caches.view(pe, addr) {
            Some(entry) if !entry.parity_ok => {}
            _ => return false,
        }
        let removed = self.caches.remove(pe, addr).expect("entry just seen");
        let lost_write = removed.state.owns_latest();
        self.fault_stats.cache_faults_detected += 1;
        self.fault_stats.cache_refetches += 1;
        if lost_write {
            self.fault_stats.lost_writes += 1;
        }
        self.take_latency(Some(pe), removed.addr.index());
        let base = removed.addr;
        self.notify(Observation::FaultDetected {
            pe: Some(pe),
            addr: base,
        });
        self.notify(Observation::LineScrubbed {
            pe,
            addr: base,
            lost_write,
        });
        true
    }

    /// A bus read found bad parity in the memory word it is about to
    /// serve: count the detection and apply the in-loop
    /// [`RecoveryPolicy`] — repair from a replica when one is usable,
    /// else adopt the corrupt value (re-marking its parity good so each
    /// fault is counted exactly once).
    fn detect_and_repair_memory(&mut self, addr: Addr) {
        self.fault_stats.memory_faults_detected += 1;
        self.take_latency(None, addr.index());
        self.notify(Observation::FaultDetected { pe: None, addr });
        let allow_majority = match self.recovery_policy {
            RecoveryPolicy::Off => {
                self.fault_stats.memory_recoveries_failed += 1;
                self.memory.clear_corrupt(addr);
                return;
            }
            RecoveryPolicy::OwnerOnly => false,
            RecoveryPolicy::Majority => true,
        };
        self.fault_stats.replicas_at_recovery += self.replica_count(addr) as u64;
        match self.recover_value(addr, allow_majority) {
            Some((value, source)) => {
                self.memory
                    .repair(addr, value)
                    .expect("detected address is in range");
                match source {
                    RecoverySource::Owner { .. } => self.fault_stats.memory_recoveries_owner += 1,
                    RecoverySource::Majority { .. } => {
                        self.fault_stats.memory_recoveries_majority += 1;
                    }
                }
                self.notify(Observation::MemoryRepaired { addr, source });
            }
            None => {
                self.fault_stats.memory_recoveries_failed += 1;
                self.memory.clear_corrupt(addr);
            }
        }
    }

    /// Fail-stops PE `pe` now: cancels its queued bus requests,
    /// force-releases its memory locks, drains or forfeits its owned
    /// lines per the [`FailStopPolicy`], empties its cache, and marks
    /// it [`PeStatus::Failed`] — the surviving PEs run to completion.
    /// Returns `false` if the PE had already fail-stopped.
    ///
    /// # Panics
    ///
    /// Panics if `pe >= self.pe_count()`.
    pub fn fail_stop(&mut self, pe: usize) -> bool {
        assert!(
            pe < self.pe_count(),
            "fail-stop of P{pe} on a {}-PE machine",
            self.pe_count()
        );
        if self.pe_failed(pe) {
            return false;
        }
        let pe_id = PeId::new(pe as u16);
        for queue in &mut self.queues {
            if queue.cancel(pe_id) {
                // An in-flight split transaction dies between its
                // address and data phases; the address phase already
                // happened, so count the transaction that never will.
                self.stats.split_cancels += 1;
            }
        }
        let released = self.memory.release_locks_held_by(pe_id);
        self.fault_stats.forced_unlocks += released.len() as u64;
        let mut drained = 0u32;
        let mut lost = 0u32;
        for line in self.caches.drain(pe) {
            let (addr, state, data, parity_ok) = (line.addr, line.state, line.data, line.parity_ok);
            self.fault_clock.remove(&(Some(pe), addr.index()));
            if !state.owns_latest() {
                continue;
            }
            match self.fail_stop_policy {
                FailStopPolicy::Drain => {
                    if parity_ok {
                        // The recovery controller flushes the owned
                        // value; the write-back is charged one bus
                        // write like an eviction.
                        self.memory
                            .write(addr, data)
                            .expect("drain write-back in range");
                        let bus = self.routing.bus_of(addr);
                        self.traffic.bus_mut(bus).record(BusOpKind::Write);
                        self.note_memory_service();
                        drained += 1;
                    } else {
                        lost += 1;
                    }
                }
                FailStopPolicy::Forfeit => {
                    // Only writes memory does not already hold are
                    // lost: an F-state line's first write reached the
                    // bus, so memory may well be current.
                    let held = self.memory.peek(addr).expect("cached address in range");
                    if !parity_ok || held != data {
                        lost += 1;
                    }
                }
            }
        }
        self.fault_stats.pe_fail_stops += 1;
        self.fault_stats.drained_lines += u64::from(drained);
        self.fault_stats.lost_writes += u64::from(lost);
        self.set_status(pe, PeStatus::Failed);
        self.last_results[pe] = None;
        self.notify(Observation::PeFailStopped {
            pe,
            drained,
            lost_writes: lost,
        });
        true
    }

    /// The replica-recovery core shared by the in-loop policy and the
    /// manual [`Machine::recover_memory`](crate::RecoveryError) API: an
    /// owning (`L`/`D`) good-parity copy is authoritative by the
    /// Section 4 lemma; otherwise, if allowed, the majority value among
    /// good-parity readable replicas wins (value ties break toward the
    /// larger word, deterministically).
    pub(crate) fn recover_value(
        &self,
        addr: Addr,
        allow_majority: bool,
    ) -> Option<(Word, RecoverySource)> {
        for pe in 0..self.pe_count() {
            if let Some(e) = self.caches.view(pe, addr) {
                if e.parity_ok && e.state.owns_latest() {
                    return Some((e.data, RecoverySource::Owner { pe }));
                }
            }
        }
        if !allow_majority {
            return None;
        }
        let mut votes: HashMap<Word, usize> = HashMap::new();
        for pe in 0..self.pe_count() {
            if let Some(e) = self.caches.view(pe, addr) {
                if e.parity_ok && e.state.is_readable_locally() {
                    *votes.entry(e.data).or_insert(0) += 1;
                }
            }
        }
        votes
            .into_iter()
            .max_by_key(|&(value, count)| (count, value.value()))
            .map(|(value, count)| (value, RecoverySource::Majority { votes: count }))
    }

    // ----- issue phase ------------------------------------------------

    /// Polls every idle PE, then starts every polled operation, both in
    /// ascending PE order. The split is exact: starting PE `p`'s
    /// operation reads and writes only `p`'s processor slot, status and
    /// last result (see [`Processor`]), so each poll sees what it would
    /// have seen interleaved with the starts, and the starts emit their
    /// events in the same order. A `Halt` starts nothing and emits no
    /// event, so the polling pass retires it on the spot.
    fn issue_phase(&mut self) {
        let mut polled = std::mem::take(&mut self.polled);
        let mut cursor = 0;
        while let Some(pe) = self.idle.next_from(cursor) {
            cursor = pe + 1;
            let last = self.last_results[pe].take();
            match self.processors[pe].next_op(last.as_ref()) {
                Poll::Halt => self.set_status(pe, PeStatus::Done),
                Poll::Wait => {}
                Poll::Op(op) => polled.push((pe, op)),
            }
        }
        for &(pe, op) in &polled {
            self.start_op(pe, op);
        }
        polled.clear();
        self.polled = polled;
    }

    fn start_op(&mut self, pe: usize, op: MemOp) {
        use crate::Access;
        let pe_id = PeId::new(pe as u16);
        self.last_addr[pe] = Some(op.access.addr());
        if self.faults_possible() {
            // The access checks the line's parity before the protocol
            // decides hit or miss: a corrupted line is scrubbed here,
            // so the decision below sees a clean (missing) line.
            self.scrub_if_corrupt(pe, op.access.addr());
        }
        match op.access {
            Access::Read(addr) => {
                // One probe serves both the protocol's hit/miss
                // decision and the hit path's state-and-data access.
                self.stats.tag_probes += 1;
                let mut hit = None;
                let outcome = match self.caches.probe(pe, addr) {
                    Some(entry) => {
                        let outcome = self.protocol.cpu_read(Some(*entry.state));
                        if let CpuOutcome::Hit { next } = outcome {
                            let old = *entry.state;
                            *entry.state = next;
                            hit = Some((old, next, *entry.data));
                        }
                        outcome
                    }
                    None => self.protocol.cpu_read(None),
                };
                match outcome {
                    CpuOutcome::Hit { .. } => {
                        let (old, next, value) = hit.expect("hit requires a held line");
                        if next != old {
                            self.caches.sync_owner(pe, addr, Some(old), Some(next));
                        }
                        self.cache_stats[pe].record(AccessKind::Read, op.class, true);
                        self.last_progress[pe] = self.cycle;
                        self.last_results[pe] = Some(OpResult::Read(value));
                        self.notify(Observation::CpuAccess {
                            pe,
                            addr,
                            write: false,
                            decision: CpuDecision::Hit,
                        });
                    }
                    CpuOutcome::Miss { intent } => {
                        debug_assert_eq!(intent, BusIntent::Read, "read misses issue bus reads");
                        self.cache_stats[pe].record(AccessKind::Read, op.class, false);
                        self.mark_read_miss(pe);
                        self.enqueue(pe_id, addr, BusOp::Read);
                        self.set_status(
                            pe,
                            PeStatus::WaitBus(Pending::Read {
                                addr,
                                class: op.class,
                            }),
                        );
                        self.notify(Observation::CpuAccess {
                            pe,
                            addr,
                            write: false,
                            decision: CpuDecision::Miss(intent),
                        });
                    }
                }
            }
            Access::Write(addr, value) => {
                // Same single-probe structure as the read path above.
                self.stats.tag_probes += 1;
                let mut hit = None;
                let outcome = match self.caches.probe(pe, addr) {
                    Some(entry) => {
                        let outcome = self.protocol.cpu_write(Some(*entry.state));
                        if let CpuOutcome::Hit { next } = outcome {
                            let old = *entry.state;
                            *entry.state = next;
                            *entry.data = value;
                            hit = Some((old, next));
                        }
                        outcome
                    }
                    None => self.protocol.cpu_write(None),
                };
                match outcome {
                    CpuOutcome::Hit { .. } => {
                        let (old, next) = hit.expect("hit requires a held line");
                        if next != old {
                            self.caches.sync_owner(pe, addr, Some(old), Some(next));
                        }
                        self.cache_stats[pe].record(AccessKind::Write, op.class, true);
                        self.last_progress[pe] = self.cycle;
                        self.last_results[pe] = Some(OpResult::Write);
                        self.notify(Observation::CpuAccess {
                            pe,
                            addr,
                            write: true,
                            decision: CpuDecision::Hit,
                        });
                    }
                    CpuOutcome::Miss { intent } => {
                        let bus_op = match intent {
                            BusIntent::Write => BusOp::Write(value),
                            BusIntent::Invalidate => BusOp::Invalidate,
                            BusIntent::Read => {
                                unreachable!("{} asked to read on a write", self.protocol.name())
                            }
                        };
                        self.cache_stats[pe].record(AccessKind::Write, op.class, false);
                        self.enqueue(pe_id, addr, bus_op);
                        self.set_status(
                            pe,
                            PeStatus::WaitBus(Pending::Write {
                                addr,
                                value,
                                class: op.class,
                            }),
                        );
                        self.notify(Observation::CpuAccess {
                            pe,
                            addr,
                            write: true,
                            decision: CpuDecision::Miss(intent),
                        });
                    }
                }
            }
            Access::TestAndSet(addr, set_to) => {
                // "The initial read-with-lock does not reference the value
                // in the cache" — always a bus operation.
                self.mark_ts_issued(pe);
                self.enqueue(pe_id, addr, BusOp::ReadWithLock);
                self.set_status(
                    pe,
                    PeStatus::WaitBus(Pending::LockedRead {
                        addr,
                        set_to,
                        class: op.class,
                    }),
                );
                self.notify(Observation::LockedReadIssued { pe, addr });
            }
        }
    }

    fn enqueue(&mut self, pe: PeId, addr: Addr, op: BusOp) {
        self.mark_enqueued(pe.index());
        let bus = self.routing.bus_of(addr);
        assert!(
            self.routing.is_attached(pe.index(), bus, self.pe_count()),
            "{pe} is not attached to the bus serving {addr} \
             (workload violates the hierarchy's region discipline)"
        );
        self.queues[bus]
            .request(BusTransaction::new(pe, addr, op))
            .expect("a stalled PE cannot issue a second request");
    }

    // ----- bus phase ----------------------------------------------------

    fn bus_phase(&mut self) {
        for bus in 0..self.routing.bus_count() {
            // A multi-cycle transaction holds the bus; nothing else is
            // granted until it completes ("the bus cycle time is no
            // faster than the cache cycle time" generalized to slow
            // memory).
            if self.cycle < self.bus_free_at[bus] {
                self.traffic.bus_mut(bus).record_occupied();
                continue;
            }
            // Split-transaction data phase: a completed memory access
            // takes the bus with priority over new address grants. Its
            // wait was sampled at the address grant, so no second
            // `note_grant` here.
            if let Some(tx) = self.queues[bus].take_ready(self.cycle) {
                self.execute(bus, tx);
                continue;
            }
            if self.queues[bus].has_grantable() {
                self.stats.queue_scans += 1;
            }
            match self.queues[bus].grant(self.arbiters[bus].as_mut()) {
                None => self.traffic.bus_mut(bus).record_idle(),
                Some(tx) => {
                    if self
                        .faults
                        .as_ref()
                        .is_some_and(|engine| engine.lose_grant[bus])
                    {
                        // The granted transaction is lost in flight: the
                        // cycle is burned and the transaction retries at
                        // the head of the queue. It never completes, so
                        // no observer sees any protocol effect.
                        self.faults.as_mut().expect("just checked").lose_grant[bus] = false;
                        self.fault_stats.bus_transactions_lost += 1;
                        self.traffic.bus_mut(bus).record_occupied();
                        let fault = FaultKind::BusLoss { bus };
                        self.notify(Observation::FaultInjected { fault });
                        self.mark_enqueued(tx.initiator.index());
                        self.queues[bus].push_retry(tx);
                        continue;
                    }
                    self.note_grant(tx.initiator.index());
                    if self.discipline == ServiceDiscipline::Split {
                        // Address phase: post the request and release
                        // the bus; the data phase returns once memory
                        // has serviced the access.
                        self.traffic.bus_mut(bus).record_address_phase();
                        self.queues[bus].begin_in_flight(tx, self.cycle + self.transaction_cycles);
                        continue;
                    }
                    if self.transaction_cycles > 1 {
                        self.bus_free_at[bus] = self.cycle + self.transaction_cycles;
                    }
                    self.execute(bus, tx);
                }
            }
        }
    }

    fn execute(&mut self, bus: usize, tx: BusTransaction) {
        match tx.op {
            BusOp::Read | BusOp::ReadWithLock => self.execute_read(bus, tx),
            BusOp::Write(v) => self.execute_write(bus, tx, v, false),
            BusOp::WriteWithUnlock(v) => self.execute_write(bus, tx, v, true),
            BusOp::Invalidate => self.execute_invalidate(bus, tx),
        }
    }

    /// Finds the cache that must interrupt a read of `addr` and supply
    /// its data.
    ///
    /// The initiator's own cache is included: a plain read never reaches
    /// the bus while its own line owns the latest value (that is a cache
    /// hit), but a *locked* read bypasses the cache ("the initial
    /// read-with-lock does not reference the value in the cache"), so an
    /// issuer that holds the line Local must first flush its value to
    /// memory exactly like any other supplier — otherwise the locked
    /// read would observe stale memory.
    fn find_supplier(&self, addr: Addr) -> Option<usize> {
        let pe = self.caches.next_owner(addr, 0)?;
        debug_assert!(
            self.caches
                .view(pe, addr)
                .is_some_and(|e| self.protocol.supplies_on_snoop_read(e.state)),
            "supplier index names P{pe} for {addr} but its line does not supply"
        );
        Some(pe)
    }

    fn execute_read(&mut self, bus: usize, tx: BusTransaction) {
        let addr = tx.addr;
        let locked = matches!(tx.op, BusOp::ReadWithLock);

        // Interrupt path: an owning cache kills the read and substitutes
        // its own bus write; the read retries next cycle (Section 3).
        // A supplier whose line fails its parity check cannot supply:
        // it scrubs the corrupted line (losing the owned write) and the
        // search continues with the next candidate.
        while let Some(supplier) = self.find_supplier(addr) {
            if self.faults_possible() && self.scrub_if_corrupt(supplier, addr) {
                continue;
            }
            // One probe yields the supplied data and applies the
            // supplier's state transition; nothing in between reads
            // cache state or the owner index, so the hoist is inert.
            self.stats.tag_probes += 1;
            let (data, old, next) = {
                let entry = self
                    .caches
                    .probe(supplier, addr)
                    .expect("supplier holds the line");
                let old = *entry.state;
                let next = self.protocol.after_supply(old);
                *entry.state = next;
                (*entry.data, old, next)
            };
            self.caches
                .sync_owner(supplier, addr, Some(old), Some(next));
            self.memory
                .write(addr, data)
                .expect("supplier write-back in range");
            if self.faults_possible() {
                // The supply overwrites (and silently masks) any
                // undetected corruption of the memory word.
                self.fault_clock.remove(&(None, addr.index()));
            }
            let t = self.traffic.bus_mut(bus);
            t.record_abort();
            t.record(BusOpKind::Write);
            self.note_memory_service();
            // The substituted write is snooped like any bus write.
            self.dispatch_snoop(
                addr,
                SnoopEvent::Write(data),
                SkipPes::initiator(tx.initiator.index()).with_supplier(supplier),
            );
            self.notify(Observation::Supplied {
                supplier,
                initiator: tx.initiator.index(),
                addr,
            });
            self.traffic.bus_mut(bus).record_retry();
            self.mark_enqueued(tx.initiator.index());
            self.queues[bus].push_retry(tx);
            self.satisfy_pending_reads(addr);
            return;
        }

        // Memory supplies the value; its parity check rides the read,
        // so detection (and policy-driven repair) happens before the
        // value is served.
        if self.faults_possible() && !self.memory.parity_ok(addr) {
            self.detect_and_repair_memory(addr);
        }
        let value = if locked {
            match self.memory.read_with_lock(addr, tx.initiator) {
                Ok(v) => v,
                Err(MemError::Locked { .. }) => {
                    // The word is locked mid-Test-and-Set by another PE:
                    // the attempt burns the cycle and rearbitrates.
                    self.stats.lock_rejections += 1;
                    self.stats.lock_rejected_reads += 1;
                    self.traffic.bus_mut(bus).record(BusOpKind::ReadWithLock);
                    self.mark_enqueued(tx.initiator.index());
                    self.queues[bus].request(tx).expect("requeue after grant");
                    return;
                }
                Err(e) => panic!("locked read failed: {e}"),
            }
        } else {
            self.memory.read(addr).expect("bus read in range")
        };
        self.traffic.bus_mut(bus).record(if locked {
            BusOpKind::ReadWithLock
        } else {
            BusOpKind::Read
        });
        self.note_memory_service();

        let pe = tx.initiator.index();

        // Guarded-fill sample (MESI exclusive-vs-shared): taken after
        // any interrupt-and-supply, before the read broadcast — the
        // read snoop of a sharer-dependent protocol never changes the
        // readable-holder set, so the ordering is immaterial to it.
        // Paper protocols short-circuit here and skip the tag walk.
        let shared = !locked
            && self.protocol.fill_depends_on_sharers()
            && self.caches.other_readable_holder(pe, addr, &mut self.stats);

        // Broadcast: every other holder snoops the returned value.
        let event = if locked {
            SnoopEvent::LockedRead(value)
        } else {
            SnoopEvent::Read(value)
        };
        self.dispatch_snoop(addr, event, SkipPes::initiator(tx.initiator.index()));

        // The initiator's own line fills.
        let prior = self.caches.current(pe, addr).map(|e| e.state);
        // A guard-free table fills identically under either sample.
        let next = if locked {
            self.protocol.own_locked_read_complete(prior)
        } else {
            self.protocol
                .own_complete_shared(prior, BusIntent::Read, shared)
        };
        self.install(pe, addr, prior, next, value);
        self.notify(Observation::ReadCompleted { pe, addr, locked });

        // Deliver to the stalled PE.
        match self.statuses[pe] {
            PeStatus::WaitBus(Pending::Read { class: _, .. }) => {
                self.note_read_fill(pe);
                self.finish(pe, OpResult::Read(value));
            }
            PeStatus::WaitBus(Pending::LockedRead { set_to, class, .. }) => {
                if value.is_zero() {
                    // Test succeeded: proceed to the unlocking write.
                    self.enqueue(tx.initiator, addr, BusOp::WriteWithUnlock(set_to));
                    self.set_status(
                        pe,
                        PeStatus::WaitBus(Pending::UnlockWrite {
                            addr,
                            old: value,
                            class,
                        }),
                    );
                } else {
                    // Failed Test-and-Set: "treated as a non-cachable
                    // read" — release the lock without writing.
                    self.memory
                        .release_lock(addr, tx.initiator)
                        .expect("failing TS holds the lock it releases");
                    self.stats.ts_failures += 1;
                    self.cache_stats[pe].record(AccessKind::Read, class, false);
                    self.note_ts_resolved(pe);
                    self.finish(
                        pe,
                        OpResult::TestAndSet {
                            old: value,
                            acquired: false,
                        },
                    );
                }
            }
            other => panic!("read completion for PE in state {other:?}"),
        }

        self.satisfy_pending_reads(addr);
    }

    fn execute_write(&mut self, bus: usize, tx: BusTransaction, value: Word, unlock: bool) {
        let addr = tx.addr;
        if unlock {
            self.memory
                .write_with_unlock(addr, value, tx.initiator)
                .expect("unlocking write holds the lock");
            self.traffic.bus_mut(bus).record(BusOpKind::WriteWithUnlock);
            self.note_memory_service();
        } else {
            match self.memory.write_checked(addr, value, tx.initiator) {
                Ok(()) => {
                    self.traffic.bus_mut(bus).record(BusOpKind::Write);
                    self.note_memory_service();
                }
                Err(MemError::Locked { .. }) => {
                    // "Any bus writes before the unlock will fail."
                    self.stats.lock_rejections += 1;
                    self.stats.lock_rejected_writes += 1;
                    self.traffic.bus_mut(bus).record(BusOpKind::Write);
                    self.mark_enqueued(tx.initiator.index());
                    self.queues[bus].request(tx).expect("requeue after grant");
                    return;
                }
                Err(e) => panic!("bus write failed: {e}"),
            }
        }
        if self.faults_possible() {
            // A bus write overwrites (and silently masks) any
            // undetected corruption of the memory word.
            self.fault_clock.remove(&(None, addr.index()));
        }

        let event = if unlock {
            SnoopEvent::UnlockWrite(value)
        } else {
            SnoopEvent::Write(value)
        };
        self.dispatch_snoop(addr, event, SkipPes::initiator(tx.initiator.index()));

        let pe = tx.initiator.index();
        let prior = self.caches.current(pe, addr).map(|e| e.state);
        let next = if unlock {
            self.protocol.own_unlock_write_complete(prior)
        } else {
            self.protocol.own_complete(prior, BusIntent::Write)
        };
        self.install(pe, addr, prior, next, value);
        self.notify(Observation::WriteCompleted { pe, addr, unlock });

        match self.statuses[pe] {
            PeStatus::WaitBus(Pending::Write { .. }) => {
                self.finish(pe, OpResult::Write);
            }
            PeStatus::WaitBus(Pending::UnlockWrite { old, class, .. }) => {
                self.stats.ts_successes += 1;
                self.cache_stats[pe].record(AccessKind::Write, class, false);
                self.note_ts_resolved(pe);
                self.finish(
                    pe,
                    OpResult::TestAndSet {
                        old,
                        acquired: true,
                    },
                );
            }
            other => panic!("write completion for PE in state {other:?}"),
        }

        self.satisfy_pending_reads(addr);
    }

    fn execute_invalidate(&mut self, bus: usize, tx: BusTransaction) {
        let addr = tx.addr;
        self.traffic.bus_mut(bus).record(BusOpKind::Invalidate);
        self.dispatch_snoop(
            addr,
            SnoopEvent::Invalidate,
            SkipPes::initiator(tx.initiator.index()),
        );

        let pe = tx.initiator.index();
        let prior = self.caches.current(pe, addr).map(|e| e.state);
        let next = self.protocol.own_complete(prior, BusIntent::Invalidate);
        // The invalidate carries no bus payload; the CPU value travels on
        // the pending record.
        let value = match self.statuses[pe] {
            PeStatus::WaitBus(Pending::Write { value, .. }) => value,
            ref other => panic!("invalidate completion for PE in state {other:?}"),
        };
        self.install(pe, addr, prior, next, value);
        self.notify(Observation::InvalidateCompleted { pe, addr });

        self.finish(pe, OpResult::Write);
    }

    fn finish(&mut self, pe: usize, result: OpResult) {
        self.set_status(pe, PeStatus::Idle);
        self.last_progress[pe] = self.cycle;
        self.last_results[pe] = Some(result);
    }

    /// Dispatches a snoop event to every cache holding `addr` except the
    /// [`SkipPes`] slots, and counts one sharer visit and one tag probe
    /// per holder reached, whichever path runs. The deferred path (see
    /// [`Caches::broadcast`]) needs a geometry and protocol that allow
    /// it and no possible fault, since it has no parity heal; every
    /// other machine takes the per-sharer scan, in ascending PE order.
    /// Neither path tests bus attachment: a PE only fills a line through
    /// its own bus transaction, which [`Machine::enqueue`] admits only
    /// on a bus the PE snoops, so every holder of a block snoops the bus
    /// serving it (checked by [`Machine::assert_fast_path_invariants`]
    /// and enforced at restore).
    fn dispatch_snoop(&mut self, addr: Addr, event: SnoopEvent, skip: SkipPes) {
        if self.caches.defers() && !self.faults_possible() {
            self.caches.broadcast(addr, event, skip, &mut self.stats);
            return;
        }
        let healed = self.caches.snoop_each(addr, event, skip, &mut self.stats);
        for pe in healed {
            self.fault_stats.broadcast_heals += 1;
            self.take_latency(Some(pe), self.block_base(addr));
            self.notify(Observation::BroadcastHealed { pe, addr });
        }
    }

    /// Test hook: sends every later broadcast down the per-sharer scan
    /// path even on machines that may defer them, for deferred-vs-scan
    /// equivalence tests.
    #[doc(hidden)]
    pub fn force_scan_snoop(&mut self) {
        self.caches.force_scan();
    }

    /// Test hook: how many times a cache line caught up on deferred
    /// broadcasts. An engine-path odometer, never a simulated
    /// statistic.
    #[doc(hidden)]
    pub fn materializations(&self) -> u64 {
        self.caches.materializations()
    }

    /// Installs a line after a completed bus transaction, handling the
    /// eviction write-back shortcut. Keeps the sharer and supplier
    /// indexes in sync: the installed block gains this cache as a
    /// holder (`prior` is its pre-transaction state, for the supplier
    /// delta), a displaced block loses it.
    fn install(
        &mut self,
        pe: usize,
        addr: Addr,
        prior: Option<LineState>,
        state: LineState,
        data: Word,
    ) {
        self.stats.tag_probes += 1;
        if let Some(evicted) = self.caches.install(pe, addr, prior, state, data) {
            let writeback = self.protocol.writeback_on_evict(evicted.state);
            if writeback {
                self.memory
                    .write(evicted.addr, evicted.data)
                    .expect("write-back in range");
                let bus = self.routing.bus_of(evicted.addr);
                self.traffic.bus_mut(bus).record(BusOpKind::Write);
                self.note_memory_service();
                self.stats.writebacks += 1;
                if !evicted.parity_ok {
                    // A corrupted owned line was written back while
                    // still undetected: the corruption propagates to
                    // memory, and the latency ledger entry follows it.
                    self.memory
                        .mark_corrupt(evicted.addr)
                        .expect("write-back in range");
                    if let Some(at) = self.fault_clock.remove(&(Some(pe), evicted.addr.index())) {
                        self.fault_clock.insert((None, evicted.addr.index()), at);
                    }
                } else if self.faults_possible() {
                    // A clean write-back overwrites (and so silently
                    // masks) any undetected corruption of the word.
                    self.fault_clock.remove(&(None, evicted.addr.index()));
                }
            } else if !evicted.parity_ok {
                // The corrupted copy is discarded before detection.
                self.fault_clock.remove(&(Some(pe), evicted.addr.index()));
            }
            self.notify(Observation::Evicted {
                pe,
                addr: evicted.addr,
                writeback,
            });
        }
    }

    /// Completes stalled plain reads whose cache line just became
    /// readable by snooping a broadcast, cancelling their bus requests.
    /// Consults the pending-read index, so only PEs actually waiting on
    /// `addr` are visited.
    fn satisfy_pending_reads(&mut self, addr: Addr) {
        // Cursor over the pending-read bitset: `finish` clears the
        // visited PE's own bit and nothing else, so the scan is exact.
        let mut cursor = 0;
        while let Some(pe) = self.caches.next_pending_reader(addr, cursor) {
            cursor = pe + 1;
            self.stats.sharer_visits += 1;
            self.stats.tag_probes += 1;
            debug_assert!(matches!(
                self.statuses[pe],
                PeStatus::WaitBus(Pending::Read { addr: want, .. }) if want == addr
            ));
            let Some(entry) = self.caches.current(pe, addr) else {
                continue;
            };
            // A corrupted line cannot satisfy a read — the pending bus
            // transaction stays queued and fetches the coherent image.
            if !entry.state.is_readable_locally() || !entry.parity_ok {
                continue;
            }
            let value = entry.data;
            let bus = self.routing.bus_of(addr);
            if self.queues[bus].cancel(PeId::new(pe as u16)) {
                // The read's address phase already ran; its data phase
                // is cancelled along with the request.
                self.stats.split_cancels += 1;
            }
            self.stats.broadcast_satisfied += 1;
            self.notify(Observation::BroadcastSatisfied { pe, addr });
            self.note_read_fill(pe);
            self.finish(pe, OpResult::Read(value));
        }
    }

    /// Asserts every fast-path index against a brute-force recompute
    /// from the architectural state: each per-address index must be
    /// well formed (pooled rows hold two or more members, no row is
    /// shared, free rows are zeroed), the sharer index must equal the
    /// per-address holder sets scanned from all tag stores, every holder
    /// must snoop the bus serving its block, the pending-read index must
    /// equal the set of PEs stalled in [`Pending::Read`], and the
    /// idle/done bookkeeping must match the status vector. Test
    /// instrumentation — O(caches + index size).
    ///
    /// # Panics
    ///
    /// Panics (with the offending PE/address) if any index diverges.
    #[doc(hidden)]
    pub fn assert_fast_path_invariants(&self) {
        let n = self.pe_count();
        let pending_index = self
            .caches
            .assert_invariants(|pe, addr| self.routing.snoops(pe, addr, n));
        let mut pending_reads = 0;
        let mut idle = 0;
        let mut done = 0;
        for (pe, status) in self.statuses.iter().enumerate() {
            match *status {
                PeStatus::Idle => {
                    idle += 1;
                    assert_eq!(self.idle.next_from(pe), Some(pe), "idle set misses P{pe}");
                }
                PeStatus::Done | PeStatus::Failed => done += 1,
                PeStatus::WaitBus(Pending::Read { addr, .. }) => {
                    pending_reads += 1;
                    assert!(
                        self.caches.is_pending_reader(addr, pe),
                        "pending-read index misses P{pe} waiting on {addr}"
                    );
                }
                PeStatus::WaitBus(_) => {}
            }
        }
        assert!(self.polled.is_empty(), "issue buffer not drained");
        assert_eq!(self.idle_count, idle, "idle_count drifted");
        assert_eq!(self.idle.total(), idle, "idle set has stale bits");
        assert_eq!(self.done_count, done, "done_count drifted");
        assert_eq!(
            pending_index, pending_reads,
            "pending-read index has stale bits"
        );

        for queue in &self.queues {
            queue.assert_lane_invariants();
        }

        // The wake schedule must never name a cycle in the past, and a
        // machine it declares inert must have no grantable work.
        if let Some(at) = self.next_event_cycle() {
            assert!(at > self.cycle, "wake schedule points backward");
        } else {
            assert_eq!(self.idle_count, 0, "idle PEs always wake next cycle");
            assert!(
                self.queues.iter().all(BusQueue::is_empty),
                "inert machine with queued transactions"
            );
        }
    }
}
