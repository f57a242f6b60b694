//! The dense compiled form of a [`RuleTable`]: the executor every
//! protocol runs on.
//!
//! [`TableProtocol::new`] resolves each `(state, input, guard bit)` cell
//! of a table once, when the protocol is built, to the rule
//! [`RuleTable::matching`] would find there, and stores the rule's
//! effect in a flat array beside two derived bits: whether the cell's
//! state and the effect's next state supply on snooped reads. A protocol
//! decision is then one index computation and one load, for every
//! protocol alike.

use super::{Effect, RuleTable, SnoopKind, TableInput, TransitionKey, MAX_K};
use crate::{BusIntent, CpuOutcome, LineState, Protocol, ProtocolKind, SnoopEvent, SnoopOutcome};
use std::fmt;

/// State axis (see [`state_slot`]): eight positions, then
/// `FirstWrite(0..=MAX_K)` and one slot for larger counts, which never
/// holds a rule.
const STATES: usize = 8 + MAX_K as usize + 2;
/// Input axis: CR, CW, own:BR/BW/BI, own:BRL, own:BWU, the five snoops,
/// supply, evict.
const INPUTS: usize = 14;
/// Every `(state, input, guard bit)` cell.
const CELLS: usize = STATES * INPUTS * 2;

/// Slots follow `LineState`'s declaration order, `NP` after them, and
/// `FirstWrite(c)` at `8 + c` (its own position, 3, stays empty). Written
/// as the variant's position plus a `FirstWrite` offset so the compiler
/// computes the slot from the discriminant rather than through a jump
/// table, whose indirect branch would sit on the broadcast loop's path.
#[inline]
fn state_slot(state: Option<LineState>) -> usize {
    let position = match state {
        Some(LineState::Invalid) => 0,
        Some(LineState::Readable) => 1,
        Some(LineState::Local) => 2,
        Some(LineState::FirstWrite(_)) => 3,
        Some(LineState::Valid) => 4,
        Some(LineState::Reserved) => 5,
        Some(LineState::Dirty) => 6,
        None => 7,
    };
    let offset = match state {
        Some(LineState::FirstWrite(c)) => 5 + usize::from(c.min(MAX_K + 1)),
        _ => 0,
    };
    position + offset
}

#[inline]
fn input_slot(input: TableInput) -> usize {
    match input {
        TableInput::CpuRead => 0,
        TableInput::CpuWrite => 1,
        TableInput::OwnComplete(intent) => 2 + intent as usize,
        TableInput::OwnLockedRead => 5,
        TableInput::OwnUnlockWrite => 6,
        TableInput::Snoop(kind) => 7 + kind as usize,
        TableInput::Supply => 12,
        TableInput::Evict => 13,
    }
}

#[inline]
fn cell_index(state: Option<LineState>, input: TableInput, other_readable: bool) -> usize {
    (state_slot(state) * INPUTS + input_slot(input)) * 2 + usize::from(other_readable)
}

/// One resolved `(state, input, guard bit)` cell.
#[derive(Clone, Copy)]
struct Cell {
    /// The matching rule's effect; `None` when no rule covers the cell.
    effect: Option<Effect>,
    /// Whether the cell's state supplies on a snooped read.
    supplied: bool,
    /// Whether the effect's next state supplies on a snooped read (false
    /// for effects without a next state).
    supplies: bool,
}

impl Cell {
    const EMPTY: Cell = Cell {
        effect: None,
        supplied: false,
        supplies: false,
    };
}

/// A snoop decision together with the supplier-index change it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopStep {
    /// The protocol's reaction, as [`Protocol::snoop`] returns it.
    pub outcome: SnoopOutcome,
    /// Whether the line supplied snooped reads before the transition
    /// ([`Protocol::supplies_on_snoop_read`] of the old state).
    pub supplied: bool,
    /// Whether it supplies them after (of `outcome.next`).
    pub supplies: bool,
}

/// A [`RuleTable`] compiled to a dense array of decoded effects and
/// executed through the [`Protocol`] trait. This is the only protocol
/// executor the machine uses: every [`ProtocolKind`] is built as one
/// ([`TableProtocol::build`], also spelled [`crate::AnyProtocol`]).
///
/// Each cell holds what [`RuleTable::matching`] returns for it, so the
/// table's semantics are unchanged, including first-match resolution of
/// overlapping rules and guards evaluated against both values of the
/// sampled configuration bit.
///
/// # Panics
///
/// Trait methods panic with the table name and the offending cell when
/// the table has no rule for it or the rule's effect has the wrong shape
/// — exactly the situations the static analyzer in `decache-verify`
/// proves absent before a table is ever run. [`TableProtocol::new`]
/// panics on a rule for a `FirstWrite` count above [`MAX_K`], which
/// the dense layout has no slot for.
///
/// # Examples
///
/// ```
/// use decache_core::ir::{mesi, TableProtocol};
/// use decache_core::{CpuOutcome, LineState, Protocol};
///
/// let p = TableProtocol::new(mesi());
/// assert_eq!(p.name(), "MESI");
/// // A read hit in the exclusive state stays exclusive:
/// assert_eq!(
///     p.cpu_read(Some(LineState::Reserved)),
///     CpuOutcome::Hit { next: LineState::Reserved }
/// );
/// ```
#[derive(Clone)]
pub struct TableProtocol {
    cells: [Cell; CELLS],
    table: RuleTable,
    fill_depends_on_sharers: bool,
    snoops_never_create_suppliers: bool,
}

impl TableProtocol {
    /// Compiles a rule table to its dense form.
    ///
    /// # Panics
    ///
    /// Panics if a rule's from-state is `FirstWrite(c)` with
    /// `c > MAX_K`.
    pub fn new(table: RuleTable) -> Self {
        let mut cells = [Cell::EMPTY; CELLS];
        for rule in &table.rules {
            if let Some(LineState::FirstWrite(c)) = rule.from {
                assert!(
                    c <= MAX_K,
                    "{}: rule {rule} names a state outside the dense table (FirstWrite counts 0..={MAX_K})",
                    table.name
                );
            }
            for other_readable in [false, true] {
                let cell = &mut cells[cell_index(rule.from, rule.input, other_readable)];
                if cell.effect.is_none() && rule.guard.eval(other_readable) {
                    cell.effect = Some(rule.effect);
                }
            }
        }
        // A present line supplies iff its state has a supply rule; an
        // absent one never does.
        let np = state_slot(None);
        let supplying: [bool; STATES] = std::array::from_fn(|slot| {
            slot != np
                && cells[(slot * INPUTS + input_slot(TableInput::Supply)) * 2 + 1]
                    .effect
                    .is_some()
        });
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.supplied = supplying[i / (INPUTS * 2)];
            cell.supplies = match cell.effect {
                Some(
                    Effect::Hit { next } | Effect::Next { next, .. } | Effect::Supply { next },
                ) => supplying[state_slot(Some(next))],
                _ => false,
            };
        }
        let snoops_never_create_suppliers = (0..STATES).all(|slot| {
            SnoopKind::ALL.iter().all(|&kind| {
                let cell = cells[(slot * INPUTS + input_slot(TableInput::Snoop(kind))) * 2 + 1];
                cell.supplied || !cell.supplies
            })
        });
        TableProtocol {
            cells,
            fill_depends_on_sharers: table.has_guards(),
            snoops_never_create_suppliers,
            table,
        }
    }

    /// Compiles the built-in protocol `kind` from its rule table
    /// ([`crate::ir::kind_table`]).
    ///
    /// # Panics
    ///
    /// Panics if a [`ProtocolKind::RwbThreshold`] value is outside
    /// `1..=`[`MAX_K`].
    pub fn build(kind: ProtocolKind) -> Self {
        TableProtocol::new(super::kind_table(kind))
    }

    /// The rule table this protocol was compiled from.
    pub fn table(&self) -> &RuleTable {
        &self.table
    }

    /// The effect compiled into the `(state, input, other_readable)`
    /// cell: the dense counterpart of [`RuleTable::matching`].
    pub fn cell_effect(
        &self,
        state: Option<LineState>,
        input: TableInput,
        other_readable: bool,
    ) -> Option<Effect> {
        self.cells[cell_index(state, input, other_readable)].effect
    }

    /// Whether no snoop cell turns a line that does not supply snooped
    /// reads into one that does. When this holds, a broadcast can move
    /// the supplier index only at the block's current suppliers, so the
    /// machine may defer applying it to every other holder until that
    /// line is next read. True for every built-in table.
    pub fn snoops_never_create_suppliers(&self) -> bool {
        self.snoops_never_create_suppliers
    }

    /// [`Protocol::snoop`] plus whether the line supplies snooped reads
    /// before and after, from the same cell — the supplier-index update
    /// of a broadcast needs no further lookups.
    #[inline]
    pub fn snoop_step(&self, state: LineState, kind: SnoopKind) -> SnoopStep {
        let input = TableInput::Snoop(kind);
        let cell = self.cells[cell_index(Some(state), input, true)];
        match cell.effect {
            Some(Effect::Next { next, capture }) => SnoopStep {
                outcome: SnoopOutcome { next, capture },
                supplied: cell.supplied,
                supplies: cell.supplies,
            },
            Some(other) => self.wrong_shape(Some(state), input, other, "snoop"),
            None => self.no_rule(Some(state), input, true),
        }
    }

    #[inline]
    fn effect(&self, state: Option<LineState>, input: TableInput, other_readable: bool) -> Effect {
        match self.cell_effect(state, input, other_readable) {
            Some(effect) => effect,
            None => self.no_rule(state, input, other_readable),
        }
    }

    #[inline]
    fn cpu(&self, state: Option<LineState>, input: TableInput) -> CpuOutcome {
        match self.effect(state, input, true) {
            Effect::Hit { next } => CpuOutcome::Hit { next },
            Effect::Issue { intent } => CpuOutcome::Miss { intent },
            other => self.wrong_shape(state, input, other, "CPU"),
        }
    }

    #[inline]
    fn next_of(
        &self,
        state: Option<LineState>,
        input: TableInput,
        other_readable: bool,
    ) -> LineState {
        match self.effect(state, input, other_readable) {
            Effect::Next { next, .. } => next,
            other => self.wrong_shape(state, input, other, "transition"),
        }
    }

    #[cold]
    #[inline(never)]
    fn no_rule(&self, state: Option<LineState>, input: TableInput, other_readable: bool) -> ! {
        let cell = TransitionKey { state, input };
        panic!(
            "{}: no rule for {cell} (other_readable={other_readable})",
            self.table.name
        )
    }

    #[cold]
    #[inline(never)]
    fn wrong_shape(
        &self,
        state: Option<LineState>,
        input: TableInput,
        effect: Effect,
        expected: &str,
    ) -> ! {
        let cell = TransitionKey { state, input };
        panic!(
            "{}: rule {cell} → {effect} has a non-{expected} effect",
            self.table.name
        )
    }
}

impl fmt::Debug for TableProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableProtocol")
            .field("name", &self.table.name)
            .field("states", &self.table.states)
            .finish_non_exhaustive()
    }
}

impl Protocol for TableProtocol {
    fn name(&self) -> String {
        self.table.name.clone()
    }

    fn states(&self) -> Vec<LineState> {
        self.table.states.clone()
    }

    #[inline]
    fn cpu_read(&self, state: Option<LineState>) -> CpuOutcome {
        self.cpu(state, TableInput::CpuRead)
    }

    #[inline]
    fn cpu_write(&self, state: Option<LineState>) -> CpuOutcome {
        self.cpu(state, TableInput::CpuWrite)
    }

    #[inline]
    fn own_complete(&self, state: Option<LineState>, intent: BusIntent) -> LineState {
        // Context-free entry point: resolve guarded fills to the shared
        // branch, which is total by the analyzer's pairing rule. Callers
        // that sampled the configuration use `own_complete_shared`.
        self.own_complete_shared(state, intent, true)
    }

    #[inline]
    fn own_complete_shared(
        &self,
        state: Option<LineState>,
        intent: BusIntent,
        other_holders: bool,
    ) -> LineState {
        self.next_of(state, TableInput::OwnComplete(intent), other_holders)
    }

    #[inline]
    fn own_locked_read_complete(&self, state: Option<LineState>) -> LineState {
        self.next_of(state, TableInput::OwnLockedRead, true)
    }

    #[inline]
    fn own_unlock_write_complete(&self, state: Option<LineState>) -> LineState {
        self.next_of(state, TableInput::OwnUnlockWrite, true)
    }

    #[inline]
    fn snoop(&self, state: LineState, event: SnoopEvent) -> SnoopOutcome {
        self.snoop_step(state, SnoopKind::of(event)).outcome
    }

    #[inline]
    fn supplies_on_snoop_read(&self, state: LineState) -> bool {
        self.cells[cell_index(Some(state), TableInput::Supply, true)].supplied
    }

    #[inline]
    fn after_supply(&self, state: LineState) -> LineState {
        let input = TableInput::Supply;
        match self.effect(Some(state), input, true) {
            Effect::Supply { next } => next,
            other => self.wrong_shape(Some(state), input, other, "supply"),
        }
    }

    #[inline]
    fn writeback_on_evict(&self, state: LineState) -> bool {
        let input = TableInput::Evict;
        match self.effect(Some(state), input, true) {
            Effect::Evict { writeback } => writeback,
            other => self.wrong_shape(Some(state), input, other, "evict"),
        }
    }

    fn broadcasts_write_data(&self) -> bool {
        self.table.broadcasts_write_data
    }

    fn uses_bus_invalidate(&self) -> bool {
        self.table.uses_bus_invalidate
    }

    fn fill_depends_on_sharers(&self) -> bool {
        self.fill_depends_on_sharers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_state_and_input_has_its_own_slot() {
        let mut states: Vec<Option<LineState>> = vec![
            Some(LineState::Invalid),
            Some(LineState::Readable),
            Some(LineState::Local),
            Some(LineState::Valid),
            Some(LineState::Reserved),
            Some(LineState::Dirty),
            None,
        ];
        states.extend((0..=MAX_K + 1).map(|c| Some(LineState::FirstWrite(c))));
        let slots: Vec<usize> = states.into_iter().map(state_slot).collect();
        let expected: Vec<usize> = (0..STATES).filter(|&slot| slot != 3).collect();
        assert_eq!(slots, expected);
        assert_eq!(
            state_slot(Some(LineState::FirstWrite(u8::MAX))),
            STATES - 1,
            "every count past MAX_K shares the empty overflow slot"
        );

        let slots: Vec<usize> = TableInput::ALL.into_iter().map(input_slot).collect();
        assert_eq!(slots, (0..INPUTS).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "outside the dense table")]
    fn first_write_counts_past_max_k_are_rejected() {
        let mut table = super::super::kind_table(ProtocolKind::Rwb);
        let mut rule = table.rules[0];
        rule.from = Some(LineState::FirstWrite(MAX_K + 1));
        table.rules.push(rule);
        let _ = TableProtocol::new(table);
    }
}
