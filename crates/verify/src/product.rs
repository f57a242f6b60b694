//! The Section 4 product-machine model checker.

use crate::lint::{self, Coverage, LintReport};
use crate::witness::{Invariant, Step, Witness, WitnessEvent};
use decache_core::ir::{SnoopKind, TableInput};
use decache_core::{
    AnyProtocol, BusIntent, Configuration, CpuOutcome, LineState, Protocol, ProtocolKind,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// One cache's cell in the product state: the line state and whether the
/// cached copy equals the latest written value. `None` = not present
/// (the proof sketch's `NP` state).
type Cell = Option<(LineState, bool)>;

/// A state of the product machine for a single address.
///
/// "For each value of N (the number of processors), define a product
/// machine, M, as the collection of the N finite state automata plus one
/// more to represent the function of the common memory" (Section 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PState {
    cells: Vec<Cell>,
    /// Whether memory holds the latest written value ("the memory will be
    /// tagged with an L" initially).
    mem_latest: bool,
    /// Which cache holds the read-modify-write lock, if any.
    locked_by: Option<usize>,
}

impl PState {
    fn initial(n: usize) -> Self {
        PState {
            cells: vec![None; n],
            mem_latest: true,
            locked_by: None,
        }
    }

    fn held_states(&self) -> Vec<LineState> {
        self.cells
            .iter()
            .filter_map(|c| c.map(|(s, _)| s))
            .collect()
    }
}

impl fmt::Display for PState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for cell in &self.cells {
            match cell {
                None => write!(f, "NP ")?,
                Some((s, latest)) => write!(f, "{}{} ", s, if *latest { "*" } else { "" })?,
            }
        }
        write!(
            f,
            "| mem{}{}",
            if self.mem_latest { "*" } else { "" },
            match self.locked_by {
                Some(i) => format!(" locked-by-{i}"),
                None => String::new(),
            }
        )
    }
}

/// The events of the product machine. A `TsLock` begins a Test-and-Set's
/// locked read; the holder later either `TsCommit`s (the unlocking write
/// — the value looked free) or `TsAbort`s (it did not) —
/// nondeterministically, since the checker abstracts values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    CpuRead(usize),
    CpuWrite(usize),
    TsLock(usize),
    TsCommit(usize),
    TsAbort(usize),
    Evict(usize),
}

impl Event {
    fn witness(self) -> WitnessEvent {
        match self {
            Event::CpuRead(i) => WitnessEvent::CpuRead(i),
            Event::CpuWrite(i) => WitnessEvent::CpuWrite(i),
            Event::TsLock(i) => WitnessEvent::TsLock(i),
            Event::TsCommit(i) => WitnessEvent::TsCommit(i),
            Event::TsAbort(i) => WitnessEvent::TsAbort(i),
            Event::Evict(i) => WitnessEvent::Evict(i),
        }
    }
}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ProductReport {
    /// Number of distinct reachable product states.
    pub states: usize,
    /// Number of transitions taken.
    pub transitions: usize,
    /// Invariant violations found (empty = the lemma and theorem hold).
    pub violations: Vec<String>,
    /// A shortest-path counterexample for the first violation found.
    pub witness: Option<Witness>,
    /// Every reachable configuration classification (for reporting).
    pub configurations: Vec<Configuration>,
    /// Which transition-table cells fired (input to the lint).
    pub coverage: Coverage,
}

impl ProductReport {
    /// `true` iff no violations were found.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively explores the product machine of `n` caches plus memory
/// under a protocol, checking the Section 4 lemma and theorem at every
/// reachable state.
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
/// use decache_verify::ProductChecker;
///
/// let report = ProductChecker::new(ProtocolKind::Rb, 3).explore();
/// assert!(report.holds());
/// assert!(report.states > 1);
/// ```
#[derive(Debug)]
pub struct ProductChecker {
    protocol: AnyProtocol,
    /// Whether the intermediate configuration is legal (RWB-family and
    /// write-once/write-through) or only shared/local (RB).
    allow_intermediate: bool,
    n: usize,
    evictions: bool,
    test_and_set: bool,
    max_states: usize,
}

/// The exploration bookkeeping: interned states, predecessor edges, and
/// the accumulating violation/witness record.
struct Exploration {
    states: Vec<PState>,
    index: HashMap<PState, usize>,
    /// For each state (except the initial), the predecessor state index
    /// and the event that produced it. BFS discovery order makes the
    /// parent chain a shortest path.
    parent: Vec<Option<(usize, Event)>>,
    violations: Vec<String>,
    witness: Option<Witness>,
    coverage: Coverage,
}

impl Exploration {
    fn new(n: usize) -> Self {
        let initial = PState::initial(n);
        Exploration {
            index: HashMap::from([(initial.clone(), 0)]),
            states: vec![initial],
            parent: vec![None],
            violations: Vec::new(),
            witness: None,
            coverage: Coverage::default(),
        }
    }

    /// The shortest event path from the initial state to `idx`.
    fn path_to(&self, mut idx: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        while let Some((pred, event)) = self.parent[idx] {
            steps.push(Step {
                event: event.witness(),
                state: self.states[idx].to_string(),
            });
            idx = pred;
        }
        steps.reverse();
        steps
    }

    /// Records violations found *in* state `idx` (lemma checks); the
    /// witness is the path to the state itself.
    fn record_state_violations(&mut self, idx: usize, found: Vec<(Invariant, String)>) {
        for (invariant, message) in found {
            if self.witness.is_none() {
                self.witness = Some(Witness {
                    invariant,
                    message: message.clone(),
                    initial: self.states[0].to_string(),
                    steps: self.path_to(idx),
                });
            }
            self.violations.push(message);
        }
    }

    /// Records violations found *on* a transition out of state `idx`
    /// (theorem checks); the witness is the path to `idx` plus the
    /// violating event itself.
    fn record_transition_violations(
        &mut self,
        idx: usize,
        event: Event,
        successor: &PState,
        found: Vec<(Invariant, String)>,
    ) {
        for (invariant, message) in found {
            if self.witness.is_none() {
                let mut steps = self.path_to(idx);
                steps.push(Step {
                    event: event.witness(),
                    state: successor.to_string(),
                });
                self.witness = Some(Witness {
                    invariant,
                    message: message.clone(),
                    initial: self.states[0].to_string(),
                    steps,
                });
            }
            self.violations.push(message);
        }
    }
}

impl ProductChecker {
    /// Creates a checker for `n` caches (the paper examines the machine
    /// for each N; state count grows exponentially, so keep `n ≤ 5`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(kind: ProtocolKind, n: usize) -> Self {
        let allow_intermediate = crate::static_check::allow_intermediate(kind);
        Self::from_table(kind.build(), allow_intermediate, n)
    }

    /// Creates a checker for any compiled rule table — including
    /// deliberately broken ones, for mutation-testing the checker
    /// itself. `allow_intermediate` selects the legality rule (false =
    /// RB's shared/local only).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn from_table(protocol: AnyProtocol, allow_intermediate: bool, n: usize) -> Self {
        assert!(n > 0, "the product machine needs at least one cache");
        ProductChecker {
            protocol,
            allow_intermediate,
            n,
            evictions: true,
            test_and_set: true,
            max_states: 5_000_000,
        }
    }

    /// Disables eviction events (the paper's first lemma assumes "the
    /// caches contain the entire address space so that the issue of
    /// overwrites can be ignored").
    #[must_use]
    pub fn without_evictions(mut self) -> Self {
        self.evictions = false;
        self
    }

    /// Disables Test-and-Set events, restricting to plain reads/writes.
    #[must_use]
    pub fn without_test_and_set(mut self) -> Self {
        self.test_and_set = false;
        self
    }

    /// The display name of the protocol under check.
    pub fn protocol_name(&self) -> String {
        self.protocol.name()
    }

    fn legal(&self, c: Configuration) -> bool {
        if self.allow_intermediate {
            c.is_rwb_legal()
        } else {
            c.is_rb_legal()
        }
    }

    fn enabled_events(&self, s: &PState) -> Vec<Event> {
        let mut events = Vec::new();
        match s.locked_by {
            Some(h) => {
                // Between the locked read and the unlock, reads proceed,
                // writes are rejected by the lock, and the holder either
                // commits or aborts.
                for i in 0..self.n {
                    if i != h {
                        events.push(Event::CpuRead(i));
                    }
                }
                events.push(Event::TsCommit(h));
                events.push(Event::TsAbort(h));
            }
            None => {
                for i in 0..self.n {
                    events.push(Event::CpuRead(i));
                    events.push(Event::CpuWrite(i));
                    if self.test_and_set {
                        events.push(Event::TsLock(i));
                    }
                    if self.evictions && s.cells[i].is_some() {
                        events.push(Event::Evict(i));
                    }
                }
            }
        }
        events
    }

    /// Applies the effects of a completed bus read: memory (made current
    /// beforehand if a supplier interrupted) broadcasts the value to
    /// every snooping holder. Returns whether any *other* cache held the
    /// line readable — the sharer bit for guarded fills, sampled after
    /// the supply settles but before the broadcast, exactly where the
    /// machine samples it.
    fn bus_read_effects(
        &self,
        s: &mut PState,
        initiator: usize,
        locked: bool,
        cov: &mut Coverage,
    ) -> bool {
        // Interrupt-and-supply: an owning cache kills the read, writes
        // its (latest) data to memory, and demotes. The initiator's own
        // cache participates: a locked read bypasses the cache, so an
        // issuer holding the line Local flushes it first (mirroring
        // `decache-machine`).
        if let Some(supplier) = (0..self.n)
            .find(|&j| s.cells[j].is_some_and(|(st, _)| self.protocol.supplies_on_snoop_read(st)))
        {
            let (st, latest) = s.cells[supplier].expect("supplier holds the line");
            cov.record(Some(st), TableInput::Supply);
            s.mem_latest = latest;
            s.cells[supplier] = Some((self.protocol.after_supply(st), latest));
            // The substituted write is snooped by the other holders; a
            // capture copies the supplier's (latest) data.
            let kind = SnoopKind::Write;
            self.snoop_holders(s, initiator, Some(supplier), kind, cov, |capture, _| {
                capture && latest
            });
        }
        let shared = (0..self.n)
            .any(|j| j != initiator && s.cells[j].is_some_and(|(st, _)| st.is_readable_locally()));
        // The (retried) read returns the memory value and broadcasts it.
        let kind = if locked {
            SnoopKind::LockedRead
        } else {
            SnoopKind::Read
        };
        let served = s.mem_latest;
        self.snoop_holders(s, initiator, None, kind, cov, |capture, was_latest| {
            if capture {
                served
            } else {
                was_latest
            }
        });
        shared
    }

    /// Applies the effects of a bus write (data or unlocking): memory is
    /// updated with the new latest value and every holder snoops it.
    fn bus_write_effects(
        &self,
        s: &mut PState,
        initiator: usize,
        unlock: bool,
        cov: &mut Coverage,
    ) {
        s.mem_latest = true;
        let kind = if unlock {
            SnoopKind::UnlockWrite
        } else {
            SnoopKind::Write
        };
        // Whatever was cached is superseded; only captures of the new
        // value are latest.
        self.snoop_holders(s, initiator, None, kind, cov, |capture, _| capture);
    }

    /// Every holder but the initiator and the supplier (if any) snoops
    /// `kind`; `latest` maps a snooper's capture bit and old latest bit
    /// to its new latest bit.
    fn snoop_holders(
        &self,
        s: &mut PState,
        initiator: usize,
        supplier: Option<usize>,
        kind: SnoopKind,
        cov: &mut Coverage,
        latest: impl Fn(bool, bool) -> bool,
    ) {
        for j in (0..self.n).filter(|&j| j != initiator && Some(j) != supplier) {
            if let Some((st, was_latest)) = s.cells[j] {
                cov.record(Some(st), TableInput::Snoop(kind));
                let out = self.protocol.snoop_step(st, kind).outcome;
                s.cells[j] = Some((out.next, latest(out.capture, was_latest)));
            }
        }
    }

    /// Applies one event, recording table coverage and any transition
    /// (theorem) violations; returns the successor state.
    fn apply(
        &self,
        s: &PState,
        event: Event,
        violations: &mut Vec<(Invariant, String)>,
        cov: &mut Coverage,
    ) -> PState {
        let mut next = s.clone();
        match event {
            Event::CpuRead(i) => {
                let state_i = s.cells[i].map(|(st, _)| st);
                cov.record(state_i, TableInput::CpuRead);
                match self.protocol.cpu_read(state_i) {
                    CpuOutcome::Hit { next: to } => {
                        let (_, latest) = s.cells[i].expect("hit requires a held line");
                        // THE THEOREM: "Each PE always reads the latest
                        // value written."
                        if !latest {
                            violations.push((
                                Invariant::StaleReadHit,
                                format!(
                                    "{}: P{i} read HIT on stale data in {s}",
                                    self.protocol.name()
                                ),
                            ));
                        }
                        next.cells[i] = Some((to, latest));
                    }
                    CpuOutcome::Miss { intent } => {
                        debug_assert_eq!(intent, BusIntent::Read);
                        let shared = self.bus_read_effects(&mut next, i, false, cov);
                        // The initiator reads from (now current) memory.
                        if !next.mem_latest {
                            violations.push((
                                Invariant::StaleMemoryServed,
                                format!(
                                    "{}: P{i} bus read served stale memory in {s}",
                                    self.protocol.name()
                                ),
                            ));
                        }
                        cov.record(state_i, TableInput::OwnComplete(BusIntent::Read));
                        let to =
                            self.protocol
                                .own_complete_shared(state_i, BusIntent::Read, shared);
                        next.cells[i] = Some((to, next.mem_latest));
                    }
                }
            }
            Event::CpuWrite(i) => {
                let state_i = s.cells[i].map(|(st, _)| st);
                cov.record(state_i, TableInput::CpuWrite);
                match self.protocol.cpu_write(state_i) {
                    CpuOutcome::Hit { next: to } => {
                        // A silent local write creates a new latest value
                        // visible only in this cache.
                        next.mem_latest = false;
                        for j in 0..self.n {
                            if j != i {
                                if let Some((st, _)) = next.cells[j] {
                                    next.cells[j] = Some((st, false));
                                }
                            }
                        }
                        next.cells[i] = Some((to, true));
                    }
                    CpuOutcome::Miss { intent } => {
                        match intent {
                            BusIntent::Write => {
                                self.bus_write_effects(&mut next, i, false, cov);
                                cov.record(state_i, TableInput::OwnComplete(BusIntent::Write));
                                let to = self.protocol.own_complete(state_i, BusIntent::Write);
                                next.cells[i] = Some((to, true));
                            }
                            BusIntent::Invalidate => {
                                // Event-only: memory keeps the OLD value.
                                next.mem_latest = false;
                                let kind = SnoopKind::Invalidate;
                                self.snoop_holders(&mut next, i, None, kind, cov, |_, _| false);
                                cov.record(state_i, TableInput::OwnComplete(BusIntent::Invalidate));
                                let to = self.protocol.own_complete(state_i, BusIntent::Invalidate);
                                next.cells[i] = Some((to, true));
                            }
                            BusIntent::Read => unreachable!("write misses never read"),
                        }
                    }
                }
            }
            Event::TsLock(i) => {
                // The locked read bypasses the cache, reads (current)
                // memory, and broadcasts.
                let _ = self.bus_read_effects(&mut next, i, true, cov);
                if !next.mem_latest {
                    violations.push((
                        Invariant::StaleMemoryServed,
                        format!(
                            "{}: P{i} locked read served stale memory in {s}",
                            self.protocol.name()
                        ),
                    ));
                }
                let state_i = s.cells[i].map(|(st, _)| st);
                cov.record(state_i, TableInput::OwnLockedRead);
                let to = self.protocol.own_locked_read_complete(state_i);
                next.cells[i] = Some((to, next.mem_latest));
                next.locked_by = Some(i);
            }
            Event::TsCommit(i) => {
                self.bus_write_effects(&mut next, i, true, cov);
                let state_i = s.cells[i].map(|(st, _)| st);
                cov.record(state_i, TableInput::OwnUnlockWrite);
                let to = self.protocol.own_unlock_write_complete(state_i);
                next.cells[i] = Some((to, true));
                next.locked_by = None;
            }
            Event::TsAbort(_i) => {
                // Release without writing: nothing changes but the lock.
                next.locked_by = None;
            }
            Event::Evict(i) => {
                let (st, latest) = s.cells[i].expect("evicting a held line");
                cov.record(Some(st), TableInput::Evict);
                if self.protocol.writeback_on_evict(st) {
                    next.mem_latest = latest;
                }
                next.cells[i] = None;
            }
        }
        next
    }

    /// Checks the state invariants (the Lemma).
    fn check(&self, s: &PState, violations: &mut Vec<(Invariant, String)>) -> Configuration {
        let config = Configuration::classify(&s.held_states());
        if !self.legal(config) {
            violations.push((
                Invariant::IllegalConfiguration,
                format!(
                    "{}: illegal configuration {config} in {s}",
                    self.protocol.name()
                ),
            ));
        }
        // Value half of the lemma: "the latest value written is contained
        // either in some cache that is in state L or else in any cache
        // that contains this variable" (and in memory when no owner).
        let owner = (0..self.n).find(|&i| s.cells[i].is_some_and(|(st, _)| st.owns_latest()));
        match owner {
            Some(i) => {
                let (_, latest) = s.cells[i].expect("owner holds the line");
                if !latest {
                    violations.push((
                        Invariant::OwnerStale,
                        format!(
                            "{}: owner P{i} does not hold the latest value in {s}",
                            self.protocol.name()
                        ),
                    ));
                }
            }
            None => {
                if !s.mem_latest {
                    violations.push((
                        Invariant::NoOwnerStaleMemory,
                        format!("{}: no owner and stale memory in {s}", self.protocol.name()),
                    ));
                }
                for i in 0..self.n {
                    if let Some((st, latest)) = s.cells[i] {
                        if st.is_readable_locally() && !latest {
                            violations.push((
                                Invariant::StaleReadableCopy,
                                format!(
                                    "{}: readable copy at P{i} is stale in {s}",
                                    self.protocol.name()
                                ),
                            ));
                        }
                    }
                }
            }
        }
        config
    }

    /// Runs the exhaustive breadth-first exploration.
    ///
    /// # Panics
    ///
    /// Panics if the state space exceeds the safety bound (it cannot for
    /// the supported protocols and `n ≤ 5`).
    pub fn explore(&self) -> ProductReport {
        let mut exp = Exploration::new(self.n);
        let mut queue: VecDeque<usize> = VecDeque::from([0]);
        let mut configurations = HashSet::new();
        let mut transitions = 0usize;

        let mut found = Vec::new();
        configurations.insert(self.check(&exp.states[0], &mut found));
        exp.record_state_violations(0, found);

        while let Some(idx) = queue.pop_front() {
            assert!(
                exp.states.len() <= self.max_states,
                "product machine exceeded {} states",
                self.max_states
            );
            let state = exp.states[idx].clone();
            for event in self.enabled_events(&state) {
                let mut found = Vec::new();
                let next = self.apply(&state, event, &mut found, &mut exp.coverage);
                transitions += 1;
                if !found.is_empty() {
                    exp.record_transition_violations(idx, event, &next, found);
                }
                if !exp.index.contains_key(&next) {
                    let ni = exp.states.len();
                    exp.index.insert(next.clone(), ni);
                    exp.parent.push(Some((idx, event)));
                    for (st, _) in next.cells.iter().flatten() {
                        exp.coverage.see_state(*st);
                    }
                    let mut found = Vec::new();
                    configurations.insert(self.check(&next, &mut found));
                    exp.states.push(next);
                    exp.record_state_violations(ni, found);
                    queue.push_back(ni);
                }
            }
            // Stop exploring on the first violations; they only multiply.
            if exp.violations.len() > 16 {
                break;
            }
        }

        let mut configurations: Vec<Configuration> = configurations.into_iter().collect();
        configurations.sort_by_key(|c| format!("{c}"));
        ProductReport {
            states: exp.states.len(),
            transitions,
            violations: exp.violations,
            witness: exp.witness,
            configurations,
            coverage: exp.coverage,
        }
    }

    /// Builds the dead-transition lint report from an exploration of
    /// this checker (see [`crate::lint`]). The lint domain respects this
    /// checker's event restrictions, so `without_evictions` /
    /// `without_test_and_set` do not surface disabled families as dead.
    pub fn lint(&self, report: &ProductReport) -> LintReport {
        lint::build_report(
            &self.protocol,
            &report.coverage,
            self.n,
            self.evictions,
            self.test_and_set,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rb_lemma_and_theorem_hold_for_small_n() {
        for n in 1..=4 {
            let report = ProductChecker::new(ProtocolKind::Rb, n).explore();
            assert!(report.holds(), "n={n}: {:?}", report.violations);
            assert!(report.states > 0);
            assert!(report.witness.is_none());
        }
    }

    #[test]
    fn rb_reaches_only_shared_and_local_configurations() {
        let report = ProductChecker::new(ProtocolKind::Rb, 3).explore();
        assert!(report.holds());
        for c in &report.configurations {
            assert!(c.is_rb_legal(), "RB reached {c}");
        }
        assert!(report.configurations.contains(&Configuration::Shared));
        assert!(report.configurations.contains(&Configuration::Local));
    }

    #[test]
    fn rwb_adds_the_intermediate_configuration() {
        let report = ProductChecker::new(ProtocolKind::Rwb, 3).explore();
        assert!(report.holds(), "{:?}", report.violations);
        assert!(report.configurations.contains(&Configuration::Intermediate));
        assert!(!report.configurations.contains(&Configuration::Illegal));
    }

    #[test]
    fn rwb_k_thresholds_hold() {
        for k in [1, 3, 4] {
            let report = ProductChecker::new(ProtocolKind::RwbThreshold(k), 3).explore();
            assert!(report.holds(), "k={k}: {:?}", report.violations);
        }
    }

    #[test]
    fn baselines_hold() {
        for kind in [ProtocolKind::WriteOnce, ProtocolKind::WriteThrough] {
            let report = ProductChecker::new(kind, 3).explore();
            assert!(report.holds(), "{kind}: {:?}", report.violations);
        }
    }

    #[test]
    fn mesi_table_protocol_lemma_and_theorem_hold() {
        // MESI exists only as IR data, outside the paper; its table must
        // satisfy the same lemma/theorem as the paper's.
        for n in 1..=4 {
            let report = ProductChecker::new(ProtocolKind::Mesi, n).explore();
            assert!(report.holds(), "n={n}: {:?}", report.violations);
        }
        // The exclusive-clean fill actually happens: a lone reader's
        // line classifies as Intermediate (E), not just Shared.
        let report = ProductChecker::new(ProtocolKind::Mesi, 3).explore();
        assert!(report.configurations.contains(&Configuration::Intermediate));
    }

    #[test]
    fn rb_without_broadcast_still_consistent() {
        // Disabling the read broadcast costs performance, not safety.
        let report = ProductChecker::new(ProtocolKind::RbNoBroadcast, 3).explore();
        assert!(report.holds(), "{:?}", report.violations);
    }

    #[test]
    fn no_evictions_matches_papers_simplified_lemma() {
        let report = ProductChecker::new(ProtocolKind::Rb, 3)
            .without_evictions()
            .explore();
        assert!(report.holds());
        // Without the NP state the machine is strictly smaller.
        let full = ProductChecker::new(ProtocolKind::Rb, 3).explore();
        assert!(report.states < full.states);
    }

    #[test]
    fn without_ts_is_smaller_still() {
        let plain = ProductChecker::new(ProtocolKind::Rb, 3)
            .without_test_and_set()
            .explore();
        let with_ts = ProductChecker::new(ProtocolKind::Rb, 3).explore();
        assert!(plain.holds());
        assert!(plain.states <= with_ts.states);
    }

    #[test]
    fn a_deliberately_broken_invariant_is_caught() {
        // Sanity-check the checker itself: classify a two-owner vector.
        assert_eq!(
            Configuration::classify(&[LineState::Local, LineState::Local]),
            Configuration::Illegal
        );
    }

    #[test]
    fn coverage_fires_the_live_rb_rows() {
        let report = ProductChecker::new(ProtocolKind::Rb, 3).explore();
        let cov = &report.coverage;
        // The dynamic-classification core: a write-through makes the
        // writer local, a read broadcast re-shares.
        assert!(cov.has_fired(Some(LineState::Readable), TableInput::CpuWrite));
        assert!(cov.has_fired(Some(LineState::Local), TableInput::Supply));
        assert!(cov.has_fired(Some(LineState::Invalid), TableInput::Snoop(SnoopKind::Read)));
        assert!(cov.has_fired(None, TableInput::CpuRead));
        // But an owner can never snoop a plain bus read: the supply path
        // always intercepts first.
        assert!(!cov.has_fired(Some(LineState::Local), TableInput::Snoop(SnoopKind::Read)));
        assert!(cov.state_reached(LineState::Local));
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn zero_caches_panics() {
        let _ = ProductChecker::new(ProtocolKind::Rb, 0);
    }
}
