//! The per-rule static analyzer: totality, determinism, PE-symmetry,
//! and coherence-invariant preservation over **all** cache counts.
//!
//! # The small-model argument
//!
//! The dynamic product checker ([`crate::ProductChecker`]) explores the
//! exact product machine for a fixed `n` (2, 3, 4 caches). This analyzer
//! instead explores a **counting abstraction**: an abstract state maps
//! each `(line state, holds-latest)` cell kind to a count drawn from
//! `{One, Many}`, where `Many` stands for *two or more*, plus an
//! unbounded pool of not-present caches and a distinguished slot for a
//! Test-and-Set lock holder. Every event of the product machine — CPU
//! reads and writes, the supplier-interrupt bus read, broadcast snoops,
//! Test-and-Set cycles, evictions — is replayed on the counts, with the
//! pointwise snoop maps and nondeterministic `Many` decrements
//! over-approximating every concrete interleaving at every `n ≥ 1`:
//! any concrete product state of any size maps to a reachable abstract
//! state. The coherence invariants (legal configuration classes,
//! owner-holds-latest, no-owner ⇒ memory latest and every readable
//! copy latest, read hits serve the latest value) are checked on every
//! reachable abstract state by materializing counts (`One` → 1 copy,
//! `Many` → 2 — enough, since the invariants only distinguish zero, one,
//! and at-least-two holders). A violation therefore refutes the
//! protocol for *some* n; a clean fixpoint proves it for *all* n. That
//! is strictly stronger than the explored-n guarantee — at the price of
//! abstraction: a reported violation names the rules that fired but
//! only an abstract configuration, not a concrete trace (the dynamic
//! checker's witness machinery still provides those for small n).
//!
//! The same fixpoint yields **dead rules** (never fired on any abstract
//! path) and unreachable states. Because the abstraction
//! over-approximates reachability, its dead set is a *subset* of any
//! coverage-based dead set: statically-dead rules are dead at every n.

use decache_core::ir::{DomainCell, Effect, Guard, Rule, RuleTable, SnoopKind, TableInput};
use decache_core::{BusIntent, Configuration, LineState};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;

/// Which property a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckKind {
    /// A `(state, input)` cell of the domain matched by no rule, or a
    /// guarded cell missing one branch of the complementary pair.
    Totality,
    /// A cell matched by more than one rule in some configuration.
    Determinism,
    /// A rule outside the domain, going to a state the table does not
    /// declare, or with the wrong effect shape for its input class.
    WellFormed,
    /// A guard placed where the execution model cannot evaluate it
    /// PE-symmetrically.
    Symmetry,
    /// A reachable abstract state or transition violating the
    /// single-writer / valid-readers coherence invariant.
    InvariantPreservation,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckKind::Totality => write!(f, "totality"),
            CheckKind::Determinism => write!(f, "determinism"),
            CheckKind::WellFormed => write!(f, "well-formed"),
            CheckKind::Symmetry => write!(f, "symmetry"),
            CheckKind::InvariantPreservation => write!(f, "invariant"),
        }
    }
}

/// One analyzer finding, attributed to a rule (or cell) by name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// The property violated.
    pub check: CheckKind,
    /// The rule or cell the finding names (`"R --snoop:BI"`,
    /// `"NP --own:BR [other-readable]"`), when attributable.
    pub rule: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rule {
            Some(rule) => write!(f, "[{}] {rule}: {}", self.check, self.message),
            None => write!(f, "[{}] {}", self.check, self.message),
        }
    }
}

/// The analyzer's verdict on one rule table.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The protocol's display name.
    pub protocol: String,
    /// All findings, ordered by check kind then rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Rules that can never fire at any cache count, by rule id.
    pub dead_rules: Vec<String>,
    /// Declared states never reached at any cache count.
    pub unreachable_states: Vec<LineState>,
    /// Size of the explored abstract state space (0 when syntactic
    /// checks already failed and exploration was skipped).
    pub abstract_states: usize,
}

impl Analysis {
    /// Whether totality, determinism, symmetry, and invariant
    /// preservation all hold (dead rules are reported, not failures).
    pub fn proved(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Bound on the abstract fixpoint, far above any real protocol's
/// reachable set (tens to hundreds of states).
const MAX_ABSTRACT_STATES: usize = 200_000;
/// Stop accumulating invariant findings after this many distinct ones.
const MAX_VIOLATIONS: usize = 16;

/// Statically analyzes a rule table. `allow_intermediate` selects the
/// legality class exactly as the dynamic product checker does: RB
/// proves shared-or-local, RWB/write-once/MESI admit intermediate.
pub fn analyze(table: &RuleTable, allow_intermediate: bool) -> Analysis {
    let mut diagnostics = syntactic_checks(table);
    diagnostics.sort();
    diagnostics.dedup();
    if !diagnostics.is_empty() {
        // A non-total or ambiguous table cannot be executed (the
        // interpreter would panic mid-exploration); report the
        // syntactic findings and skip reachability.
        return Analysis {
            protocol: table.name.clone(),
            diagnostics,
            dead_rules: Vec::new(),
            unreachable_states: Vec::new(),
            abstract_states: 0,
        };
    }

    let mut explorer = Explorer::new(table, allow_intermediate);
    let states_explored = explorer.run();
    let mut diagnostics: Vec<Diagnostic> = explorer.violations.into_iter().collect();
    diagnostics.sort();

    let fired = explorer.fired;
    let mut dead_rules: Vec<String> = table
        .rules
        .iter()
        .map(|r| r.id())
        .filter(|id| !fired.contains(id))
        .collect();
    dead_rules.sort();
    let unreachable_states: Vec<LineState> = table
        .states
        .iter()
        .copied()
        .filter(|s| !explorer.seen_states.contains(s))
        .collect();

    Analysis {
        protocol: table.name.clone(),
        diagnostics,
        dead_rules,
        unreachable_states,
        abstract_states: states_explored,
    }
}

// ---------------------------------------------------------------------
// Syntactic pass: totality, determinism, shape, symmetry.
// ---------------------------------------------------------------------

fn syntactic_checks(table: &RuleTable) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let diag = |check, rule: Option<String>, message: String| Diagnostic {
        check,
        rule,
        message,
    };

    let domain = table.domain();

    // Every rule must sit on a domain cell with the right effect shape.
    for rule in &table.rules {
        if let Some(s) = rule.from {
            if !table.states.contains(&s) {
                out.push(diag(
                    CheckKind::WellFormed,
                    Some(rule.id()),
                    format!("from-state {s} is not in the declared state vocabulary"),
                ));
                continue;
            }
        }
        if !domain.iter().any(|cell| cell.key == rule.key()) {
            out.push(diag(
                CheckKind::WellFormed,
                Some(rule.id()),
                "rule sits outside the transition domain".to_owned(),
            ));
        }
        if let Effect::Hit { next } | Effect::Next { next, .. } | Effect::Supply { next } =
            rule.effect
        {
            if !table.states.contains(&next) {
                out.push(diag(
                    CheckKind::WellFormed,
                    Some(rule.id()),
                    format!("target state {next} is not in the declared state vocabulary"),
                ));
            }
        }
        if !rule.input.accepts(rule.effect) {
            out.push(diag(
                CheckKind::WellFormed,
                Some(rule.id()),
                format!(
                    "effect {} has the wrong shape for this input class",
                    rule.effect
                ),
            ));
        }
        // PE-symmetry: the guard vocabulary is PE-anonymous by
        // construction, and the execution model samples it at exactly
        // one point — the read-miss fill. A guard anywhere else cannot
        // be evaluated symmetrically by the controller.
        if rule.guard != Guard::Always && !matches!(rule.input, TableInput::OwnComplete(_)) {
            out.push(diag(
                CheckKind::Symmetry,
                Some(rule.id()),
                "configuration guards are only evaluable on own-completion fills".to_owned(),
            ));
        }
    }

    // Per-cell totality and determinism over the guard space.
    for DomainCell {
        key: cell,
        required,
    } in domain
    {
        let rules = table.rules_for(cell.state, cell.input);
        let guards: Vec<Guard> = rules.iter().map(|r| r.guard).collect();
        let count = |g: Guard| guards.iter().filter(|&&x| x == g).count();
        let (always, no_other, other) = (
            count(Guard::Always),
            count(Guard::NoOtherReadableHolder),
            count(Guard::OtherReadableHolder),
        );
        if always > 1 || no_other > 1 || other > 1 {
            out.push(diag(
                CheckKind::Determinism,
                Some(cell.to_string()),
                "duplicate rules on the same cell and guard".to_owned(),
            ));
        }
        if always >= 1 && (no_other + other) >= 1 {
            out.push(diag(
                CheckKind::Determinism,
                Some(cell.to_string()),
                "an unconditional rule overlaps a guarded rule".to_owned(),
            ));
        }
        let covered = always >= 1 || (no_other >= 1 && other >= 1);
        if required && !covered {
            let message = if no_other + other >= 1 {
                let missing = if no_other == 0 {
                    Guard::NoOtherReadableHolder
                } else {
                    Guard::OtherReadableHolder
                };
                format!("guarded cell is non-total: missing the [{missing}] branch")
            } else {
                "no rule matches this cell".to_owned()
            };
            out.push(diag(CheckKind::Totality, Some(cell.to_string()), message));
        }
        if !required && (no_other + other) >= 1 {
            // Supply rows must be unconditional: the supplier is chosen
            // before the configuration bit is sampled.
            out.push(diag(
                CheckKind::Determinism,
                Some(cell.to_string()),
                "optional rows cannot carry configuration guards".to_owned(),
            ));
        }
    }

    out
}

// ---------------------------------------------------------------------
// Abstract reachability: the counting model.
// ---------------------------------------------------------------------

/// `Many` saturates at "two or more" — the invariants never distinguish
/// beyond that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Count {
    One,
    Many,
}

/// One tracked cache line: its state and whether it holds the latest
/// value written to the (single, abstract) address.
type Cell = (LineState, bool);

/// An abstract configuration: counts per cell kind, the memory's
/// latest bit, and the Test-and-Set lock holder's cell (held out of the
/// counts while the lock is held). The pool of not-present caches is
/// unbounded and implicit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Abs {
    cells: BTreeMap<Cell, Count>,
    mem_latest: bool,
    locked: Option<Cell>,
}

impl Abs {
    fn initial() -> Self {
        Abs {
            cells: BTreeMap::new(),
            mem_latest: true,
            locked: None,
        }
    }

    /// Adds one line of kind `cell`, saturating the count.
    fn add(&mut self, cell: Cell) {
        self.cells
            .entry(cell)
            .and_modify(|c| *c = Count::Many)
            .or_insert(Count::One);
    }

    /// Worlds after removing one line of kind `cell` (the `Many`
    /// decrement is nondeterministic: the remainder may be one or many).
    fn take_one(&self, cell: Cell) -> Vec<Abs> {
        match self.cells.get(&cell) {
            Some(Count::One) => {
                let mut rest = self.clone();
                rest.cells.remove(&cell);
                vec![rest]
            }
            Some(Count::Many) => {
                let mut one = self.clone();
                one.cells.insert(cell, Count::One);
                vec![one, self.clone()]
            }
            None => Vec::new(),
        }
    }

    /// Does any tracked line (including the lock holder) hold the
    /// address in a locally-readable state?
    fn any_readable(&self) -> bool {
        self.cells.keys().any(|(s, _)| s.is_readable_locally())
            || self.locked.is_some_and(|(s, _)| s.is_readable_locally())
    }
}

/// How a snoop updates the latest bit of a snooped line.
#[derive(Clone, Copy)]
enum LatestRule {
    /// Supply-substituted write: whatever was cached is superseded; a
    /// capture copies the supplier's data (`capture && supplier.latest`).
    CaptureAnd(bool),
    /// Ordinary bus write: a capture takes the just-written (latest)
    /// value (`capture`).
    Capture,
    /// Bus invalidate: the line never holds the latest value after.
    Stale,
    /// Read broadcast: a capture takes whatever memory served
    /// (`capture ? mem_latest : old`).
    CaptureMem(bool),
}

struct Explorer<'a> {
    table: &'a RuleTable,
    allow_intermediate: bool,
    fired: BTreeSet<String>,
    seen_states: BTreeSet<LineState>,
    violations: BTreeSet<Diagnostic>,
}

impl<'a> Explorer<'a> {
    fn new(table: &'a RuleTable, allow_intermediate: bool) -> Self {
        Explorer {
            table,
            allow_intermediate,
            fired: BTreeSet::new(),
            seen_states: BTreeSet::new(),
            violations: BTreeSet::new(),
        }
    }

    /// Looks up and records the unique rule for a cell under the
    /// sampled configuration bit. Totality was proven syntactically, so
    /// the lookup cannot fail.
    fn fire(&mut self, from: Option<LineState>, input: TableInput, bit: bool) -> Rule {
        let rule = self
            .table
            .matching(from, input, bit)
            .expect("totality proven before exploration");
        self.fired.insert(rule.id());
        rule
    }

    fn supplies(&self, state: LineState) -> bool {
        self.table
            .matching(Some(state), TableInput::Supply, true)
            .is_some()
    }

    fn violation(&mut self, rules: &[String], message: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.insert(Diagnostic {
                check: CheckKind::InvariantPreservation,
                rule: rules.first().cloned(),
                message: format!("{message} (rules fired: {})", rules.join(", ")),
            });
        }
    }

    /// The product checker's per-state invariant, on the materialized
    /// configuration.
    fn check_state(&mut self, a: &Abs, step: &[String]) {
        let mut lines: Vec<Cell> = Vec::new();
        for (&cell, &count) in &a.cells {
            lines.push(cell);
            if count == Count::Many {
                lines.push(cell);
            }
        }
        if let Some(cell) = a.locked {
            lines.push(cell);
        }
        for &(s, _) in &lines {
            self.seen_states.insert(s);
        }

        let states: Vec<LineState> = lines.iter().map(|&(s, _)| s).collect();
        let cfg = Configuration::classify(&states);
        let legal = if self.allow_intermediate {
            cfg != Configuration::Illegal
        } else {
            matches!(cfg, Configuration::Shared | Configuration::Local)
        };
        if !legal {
            let rendered: Vec<String> = states.iter().map(ToString::to_string).collect();
            self.violation(
                step,
                format!("illegal configuration [{}] reachable", rendered.join(" ")),
            );
        }

        let owners: Vec<Cell> = lines
            .iter()
            .copied()
            .filter(|(s, _)| s.owns_latest())
            .collect();
        if owners.is_empty() {
            if !a.mem_latest {
                self.violation(step, "no owner but memory is stale".to_owned());
            }
            for &(s, latest) in &lines {
                if s.is_readable_locally() && !latest {
                    self.violation(step, format!("readable copy in {s} is stale with no owner"));
                }
            }
        } else {
            for &(s, latest) in &owners {
                if !latest {
                    self.violation(step, format!("owner in {s} does not hold the latest value"));
                }
            }
        }
    }

    /// Pointwise snoop over every tracked cell (and the lock-holder
    /// slot) of `a`, recording each fired snoop rule.
    fn snoop_all(
        &mut self,
        a: &Abs,
        kind: SnoopKind,
        latest: LatestRule,
        step: &mut Vec<String>,
    ) -> Abs {
        let mut out = Abs {
            cells: BTreeMap::new(),
            mem_latest: a.mem_latest,
            locked: None,
        };
        let map_cell = |this: &mut Self, (s, old): Cell, step: &mut Vec<String>| -> Cell {
            let rule = this.fire(Some(s), TableInput::Snoop(kind), true);
            step.push(rule.id());
            let Effect::Next { next, capture } = rule.effect else {
                unreachable!("shape proven before exploration");
            };
            let new_latest = match latest {
                LatestRule::CaptureAnd(supplier_latest) => capture && supplier_latest,
                LatestRule::Capture => capture,
                LatestRule::Stale => false,
                LatestRule::CaptureMem(mem) => {
                    if capture {
                        mem
                    } else {
                        old
                    }
                }
            };
            (next, new_latest)
        };
        for (&cell, &count) in &a.cells {
            let new_cell = map_cell(self, cell, step);
            out.cells
                .entry(new_cell)
                .and_modify(|c| *c = Count::Many)
                .or_insert(count);
        }
        if let Some(cell) = a.locked {
            out.locked = Some(map_cell(self, cell, step));
        }
        out
    }

    /// A bus read transaction (plain or locked) by an actor whose line
    /// is already removed from `rest` (passed as `actor` so it can still
    /// interrupt-and-supply, as the product checker's initiator does —
    /// its post-supply cell is then discarded because the fill
    /// overwrites it). Returns the post-broadcast worlds, each with the
    /// shared-fill bit sampled between supply and broadcast exactly as
    /// the machine and product checker do, plus the rules fired on that
    /// branch.
    fn bus_read(
        &mut self,
        rest: &Abs,
        actor: Option<Cell>,
        locked: bool,
        prefix: &[String],
    ) -> Vec<(Abs, bool, Vec<String>)> {
        let broadcast = if locked {
            SnoopKind::LockedRead
        } else {
            SnoopKind::Read
        };
        /// Where the supplier's post-supply cell goes.
        #[derive(Clone, Copy)]
        enum Slot {
            /// The actor itself supplied; the own-completion fill
            /// overwrites its cell, so the supply result is dropped.
            Discard,
            /// An ordinary holder from the counted pool.
            Pool,
            /// The Test-and-Set lock holder's slot.
            Lock,
        }
        // Supplier candidates: the actor, every supplying tracked kind,
        // and the lock holder. The product picks the first supplying
        // cache in index order; branching over every candidate covers
        // all orderings.
        let mut candidates: Vec<(Cell, Slot)> = Vec::new();
        if let Some(cell) = actor {
            if self.supplies(cell.0) {
                candidates.push((cell, Slot::Discard));
            }
        }
        candidates.extend(
            rest.cells
                .keys()
                .copied()
                .filter(|&(s, _)| self.supplies(s))
                .map(|c| (c, Slot::Pool)),
        );
        if let Some(cell) = rest.locked {
            if self.supplies(cell.0) {
                candidates.push((cell, Slot::Lock));
            }
        }

        let mut results = Vec::new();
        if candidates.is_empty() {
            let mut step = prefix.to_vec();
            let shared = rest.any_readable();
            let after = self.snoop_all(
                rest,
                broadcast,
                LatestRule::CaptureMem(rest.mem_latest),
                &mut step,
            );
            results.push((after, shared, step));
            return results;
        }

        for ((s, latest), slot) in candidates {
            let worlds = match slot {
                Slot::Discard => vec![rest.clone()],
                Slot::Pool => rest.take_one((s, latest)),
                Slot::Lock => {
                    let mut w = rest.clone();
                    w.locked = None;
                    vec![w]
                }
            };
            let supply = self.fire(Some(s), TableInput::Supply, true);
            let Effect::Supply { next } = supply.effect else {
                unreachable!("shape proven before exploration");
            };
            for world in worlds {
                let mut step = prefix.to_vec();
                step.push(supply.id());
                // The supplier's substituted bus write: memory takes the
                // supplied value, everyone else snoops it as a write.
                let mut after = self.snoop_all(
                    &world,
                    SnoopKind::Write,
                    LatestRule::CaptureAnd(latest),
                    &mut step,
                );
                after.mem_latest = latest;
                let supplier_new = (next, latest);
                match slot {
                    Slot::Discard => {}
                    Slot::Pool => after.add(supplier_new),
                    Slot::Lock => after.locked = Some(supplier_new),
                }
                // The guarded-fill bit: sampled after supply, before
                // the read broadcast, over everyone but the actor.
                let shared = after.any_readable();
                // The retried read completes: everyone (supplier
                // included, actor excluded) snoops the returned value.
                let after = self.snoop_all(
                    &after,
                    broadcast,
                    LatestRule::CaptureMem(after.mem_latest),
                    &mut step,
                );
                results.push((after, shared, step));
            }
        }
        results
    }

    /// A bus write (plain, unlocking, or invalidate) by an actor whose
    /// line is already removed from `rest`.
    fn bus_write(
        &mut self,
        rest: &Abs,
        intent: BusIntent,
        unlock: bool,
        step: &mut Vec<String>,
    ) -> Abs {
        match intent {
            BusIntent::Write => {
                let kind = if unlock {
                    SnoopKind::UnlockWrite
                } else {
                    SnoopKind::Write
                };
                let mut after = self.snoop_all(rest, kind, LatestRule::Capture, step);
                after.mem_latest = true;
                after
            }
            BusIntent::Invalidate => {
                let mut after =
                    self.snoop_all(rest, SnoopKind::Invalidate, LatestRule::Stale, step);
                after.mem_latest = false;
                after
            }
            BusIntent::Read => unreachable!("read intents use bus_read"),
        }
    }

    /// Completes an issued transaction for the actor: bus effects, the
    /// staleness checks, and the own-completion fill. Returns the
    /// successor worlds with the actor's new cell installed.
    fn complete_issue(
        &mut self,
        rest: &Abs,
        actor: Option<Cell>,
        intent: BusIntent,
        is_read_ref: bool,
        step_prefix: &[String],
    ) -> Vec<Abs> {
        let actor_state = actor.map(|(s, _)| s);
        let mut out = Vec::new();
        match intent {
            BusIntent::Read => {
                for (mut after, shared, mut step) in self.bus_read(rest, actor, false, step_prefix)
                {
                    if is_read_ref && !after.mem_latest {
                        self.violation(&step, "read miss served a stale value".to_owned());
                    }
                    let rule = self.fire(
                        actor_state,
                        TableInput::OwnComplete(BusIntent::Read),
                        shared,
                    );
                    step.push(rule.id());
                    let Effect::Next { next, .. } = rule.effect else {
                        unreachable!("shape proven before exploration");
                    };
                    after.add((next, after.mem_latest));
                    self.check_state(&after, &step);
                    out.push(after);
                }
            }
            BusIntent::Write | BusIntent::Invalidate => {
                let mut step = step_prefix.to_vec();
                let mut after = self.bus_write(rest, intent, false, &mut step);
                let rule = self.fire(actor_state, TableInput::OwnComplete(intent), true);
                step.push(rule.id());
                let Effect::Next { next, .. } = rule.effect else {
                    unreachable!("shape proven before exploration");
                };
                after.add((next, true));
                self.check_state(&after, &step);
                out.push(after);
            }
        }
        out
    }

    /// All successor states of one abstract state, mirroring the
    /// product checker's enabled events.
    fn successors(&mut self, a: &Abs) -> Vec<Abs> {
        let mut out = Vec::new();
        // Actor choices: one cache of each tracked kind, or a
        // not-present cache from the unbounded pool.
        let mut actors: Vec<(Option<Cell>, Vec<Abs>)> = vec![(None, vec![a.clone()])];
        for &cell in a.cells.keys() {
            actors.push((Some(cell), a.take_one(cell)));
        }

        if a.locked.is_some() {
            // While a Test-and-Set is in flight only non-holder reads
            // and the holder's commit or abort are enabled.
            for (actor, worlds) in &actors {
                for rest in worlds {
                    out.extend(self.cpu_read(rest, *actor));
                }
            }
            out.extend(self.ts_commit(a));
            out.extend(self.ts_abort(a));
        } else {
            for (actor, worlds) in &actors {
                for rest in worlds {
                    out.extend(self.cpu_read(rest, *actor));
                    out.extend(self.cpu_write(rest, *actor));
                    out.extend(self.ts_lock(rest, *actor));
                }
            }
            for &cell in a.cells.keys() {
                for rest in a.take_one(cell) {
                    out.extend(self.evict(&rest, cell));
                }
            }
        }
        out
    }

    fn cpu_read(&mut self, rest: &Abs, actor: Option<Cell>) -> Vec<Abs> {
        let state = actor.map(|(s, _)| s);
        let rule = self.fire(state, TableInput::CpuRead, true);
        let id = rule.id();
        match rule.effect {
            Effect::Hit { next } => {
                let step = vec![id.clone()];
                if let Some((_, latest)) = actor {
                    if !latest {
                        self.violation(&step, "read hit served a stale value".to_owned());
                    }
                }
                let mut after = rest.clone();
                let latest = actor.map_or(after.mem_latest, |(_, l)| l);
                after.add((next, latest));
                self.check_state(&after, &step);
                vec![after]
            }
            Effect::Issue { intent } => self.complete_issue(rest, actor, intent, true, &[id]),
            _ => unreachable!("shape proven before exploration"),
        }
    }

    fn cpu_write(&mut self, rest: &Abs, actor: Option<Cell>) -> Vec<Abs> {
        let state = actor.map(|(s, _)| s);
        let rule = self.fire(state, TableInput::CpuWrite, true);
        let id = rule.id();
        match rule.effect {
            Effect::Hit { next } => {
                // A silent local write: every other copy and memory go
                // stale; the writer holds the latest value.
                let step = vec![id.clone()];
                let mut after = rest.clone();
                after.mem_latest = false;
                after.cells = after
                    .cells
                    .iter()
                    .map(|(&(s, _), &c)| ((s, false), c))
                    .fold(BTreeMap::new(), |mut m, (cell, c)| {
                        m.entry(cell).and_modify(|x| *x = Count::Many).or_insert(c);
                        m
                    });
                after.add((next, true));
                self.check_state(&after, &step);
                vec![after]
            }
            Effect::Issue { intent } => self.complete_issue(rest, actor, intent, false, &[id]),
            _ => unreachable!("shape proven before exploration"),
        }
    }

    fn ts_lock(&mut self, rest: &Abs, actor: Option<Cell>) -> Vec<Abs> {
        let state = actor.map(|(s, _)| s);
        let mut out = Vec::new();
        for (mut after, _shared, mut step) in self.bus_read(rest, actor, true, &[]) {
            if !after.mem_latest {
                self.violation(&step, "locked read served a stale value".to_owned());
            }
            let rule = self.fire(state, TableInput::OwnLockedRead, true);
            step.push(rule.id());
            let Effect::Next { next, .. } = rule.effect else {
                unreachable!("shape proven before exploration");
            };
            after.locked = Some((next, after.mem_latest));
            self.check_state(&after, &step);
            out.push(after);
        }
        out
    }

    fn ts_commit(&mut self, a: &Abs) -> Vec<Abs> {
        let Some((state, _)) = a.locked else {
            return Vec::new();
        };
        let mut rest = a.clone();
        rest.locked = None;
        let mut step = Vec::new();
        let mut after = self.bus_write(&rest, BusIntent::Write, true, &mut step);
        let rule = self.fire(Some(state), TableInput::OwnUnlockWrite, true);
        step.push(rule.id());
        let Effect::Next { next, .. } = rule.effect else {
            unreachable!("shape proven before exploration");
        };
        after.add((next, true));
        self.check_state(&after, &step);
        vec![after]
    }

    fn ts_abort(&mut self, a: &Abs) -> Vec<Abs> {
        let Some(cell) = a.locked else {
            return Vec::new();
        };
        let mut after = a.clone();
        after.locked = None;
        after.add(cell);
        self.check_state(&after, &[]);
        vec![after]
    }

    fn evict(&mut self, rest: &Abs, (state, latest): Cell) -> Vec<Abs> {
        let rule = self.fire(Some(state), TableInput::Evict, true);
        let step = vec![rule.id()];
        let Effect::Evict { writeback } = rule.effect else {
            unreachable!("shape proven before exploration");
        };
        let mut after = rest.clone();
        if writeback {
            after.mem_latest = latest;
        }
        self.check_state(&after, &step);
        vec![after]
    }

    /// BFS to fixpoint. Returns the number of abstract states explored.
    fn run(&mut self) -> usize {
        let initial = Abs::initial();
        self.check_state(&initial, &[]);
        let mut seen: HashSet<Abs> = HashSet::new();
        let mut queue: VecDeque<Abs> = VecDeque::new();
        seen.insert(initial.clone());
        queue.push_back(initial);
        while let Some(state) = queue.pop_front() {
            if self.violations.len() >= MAX_VIOLATIONS {
                break;
            }
            for succ in self.successors(&state) {
                if seen.len() >= MAX_ABSTRACT_STATES {
                    self.violations.insert(Diagnostic {
                        check: CheckKind::InvariantPreservation,
                        rule: None,
                        message: format!(
                            "abstract state space exceeded {MAX_ABSTRACT_STATES} states"
                        ),
                    });
                    return seen.len();
                }
                if seen.insert(succ.clone()) {
                    queue.push_back(succ);
                }
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ir::kind_table;
    use decache_core::ProtocolKind;

    #[test]
    fn rb_is_proved_and_explores_a_small_space() {
        let analysis = analyze(&kind_table(ProtocolKind::Rb), false);
        assert!(
            analysis.proved(),
            "RB diagnostics: {:?}",
            analysis.diagnostics
        );
        assert!(analysis.abstract_states > 1);
        assert!(analysis.abstract_states < 10_000);
        assert!(analysis.unreachable_states.is_empty());
    }

    #[test]
    fn mesi_is_proved_with_its_guarded_fill() {
        let analysis = analyze(&decache_core::ir::mesi(), true);
        assert!(
            analysis.proved(),
            "MESI diagnostics: {:?}",
            analysis.diagnostics
        );
        // Both guard branches of the NP fill fire.
        assert!(!analysis
            .dead_rules
            .iter()
            .any(|d| d.starts_with("NP --own:BR")));
    }

    #[test]
    fn rb_without_intermediate_class_rejects_rwb() {
        // RWB's F states classify as intermediate; under RB's stricter
        // shared-or-local lemma the analyzer must refute them.
        let analysis = analyze(&kind_table(ProtocolKind::Rwb), false);
        assert!(!analysis.proved());
        assert!(analysis
            .diagnostics
            .iter()
            .all(|d| d.check == CheckKind::InvariantPreservation));
    }
}
