//! The axes of a rule table and its transition domain.
//!
//! A table's cells are `(state, input)` pairs: a line state (or `NP`,
//! the not-present pseudo-state) crossed with what the cache controller
//! presents to the line ([`TableInput`]). [`RuleTable::domain`] lists
//! the cells a table must or may have rules for; it is the one
//! definition of that domain, read by the static analyzer, the
//! dead-transition lint, the diagram extractor and the tests.
//!
//! The domain is table-aware: `BI` cells exist only for tables that
//! use the bus invalidate, and `supply` cells are optional — a state
//! supplies snooped reads iff its `supply` cell has a rule. Cells that
//! cannot exist differ from cells that exist but never fire, and only
//! the latter belong in a lint report.

use super::{Effect, RuleTable};
use crate::{BusIntent, LineState, SnoopEvent};
use decache_mem::Word;
use std::fmt;

/// A snooped bus operation, without its data payload — the column labels
/// of the paper's transition tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SnoopKind {
    /// A foreign bus read (`BR`).
    Read,
    /// A foreign bus write (`BW`).
    Write,
    /// The RWB bus invalidate signal (`BI`).
    Invalidate,
    /// A foreign locked read (`BRL`).
    LockedRead,
    /// A foreign unlocking write (`BWU`).
    UnlockWrite,
}

impl SnoopKind {
    /// Every snoop kind, in table-column order.
    pub const ALL: [SnoopKind; 5] = [
        SnoopKind::Read,
        SnoopKind::Write,
        SnoopKind::Invalidate,
        SnoopKind::LockedRead,
        SnoopKind::UnlockWrite,
    ];

    /// The corresponding [`SnoopEvent`] with a zero probe word (protocol
    /// decisions never depend on the data payload).
    pub fn event(self) -> SnoopEvent {
        match self {
            SnoopKind::Read => SnoopEvent::Read(Word::ZERO),
            SnoopKind::Write => SnoopEvent::Write(Word::ZERO),
            SnoopKind::Invalidate => SnoopEvent::Invalidate,
            SnoopKind::LockedRead => SnoopEvent::LockedRead(Word::ZERO),
            SnoopKind::UnlockWrite => SnoopEvent::UnlockWrite(Word::ZERO),
        }
    }

    /// The [`SnoopKind`] of a [`SnoopEvent`].
    pub fn of(event: SnoopEvent) -> SnoopKind {
        match event {
            SnoopEvent::Read(_) => SnoopKind::Read,
            SnoopEvent::Write(_) => SnoopKind::Write,
            SnoopEvent::Invalidate => SnoopKind::Invalidate,
            SnoopEvent::LockedRead(_) => SnoopKind::LockedRead,
            SnoopEvent::UnlockWrite(_) => SnoopKind::UnlockWrite,
        }
    }
}

impl fmt::Display for SnoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnoopKind::Read => write!(f, "BR"),
            SnoopKind::Write => write!(f, "BW"),
            SnoopKind::Invalidate => write!(f, "BI"),
            SnoopKind::LockedRead => write!(f, "BRL"),
            SnoopKind::UnlockWrite => write!(f, "BWU"),
        }
    }
}

/// One input axis of a protocol's transition table: what the cache
/// controller presents to the per-line state machine. The derived order
/// is the table's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TableInput {
    /// A CPU read reference ([`crate::Protocol::cpu_read`]).
    CpuRead,
    /// A CPU write reference ([`crate::Protocol::cpu_write`]).
    CpuWrite,
    /// Completion of this cache's own bus transaction
    /// ([`crate::Protocol::own_complete`]).
    OwnComplete(BusIntent),
    /// Completion of this cache's own locked read
    /// ([`crate::Protocol::own_locked_read_complete`]).
    OwnLockedRead,
    /// Completion of this cache's own unlocking write
    /// ([`crate::Protocol::own_unlock_write_complete`]).
    OwnUnlockWrite,
    /// A snooped foreign transaction ([`crate::Protocol::snoop`]).
    Snoop(SnoopKind),
    /// Interrupting a foreign bus read to supply data
    /// ([`crate::Protocol::after_supply`]); a state supplies iff it has
    /// this rule.
    Supply,
    /// Eviction of the line ([`crate::Protocol::writeback_on_evict`]).
    Evict,
}

impl TableInput {
    /// Every input, in column order.
    pub const ALL: [TableInput; 14] = [
        TableInput::CpuRead,
        TableInput::CpuWrite,
        TableInput::OwnComplete(BusIntent::Read),
        TableInput::OwnComplete(BusIntent::Write),
        TableInput::OwnComplete(BusIntent::Invalidate),
        TableInput::OwnLockedRead,
        TableInput::OwnUnlockWrite,
        TableInput::Snoop(SnoopKind::Read),
        TableInput::Snoop(SnoopKind::Write),
        TableInput::Snoop(SnoopKind::Invalidate),
        TableInput::Snoop(SnoopKind::LockedRead),
        TableInput::Snoop(SnoopKind::UnlockWrite),
        TableInput::Supply,
        TableInput::Evict,
    ];

    /// Whether `effect` has the shape this input's decision takes: a hit
    /// or an issue for CPU references, a next state for completions and
    /// snoops, a supply for `supply`, an eviction for `evict`.
    pub fn accepts(self, effect: Effect) -> bool {
        match self {
            TableInput::CpuRead | TableInput::CpuWrite => {
                matches!(effect, Effect::Hit { .. } | Effect::Issue { .. })
            }
            TableInput::OwnComplete(_)
            | TableInput::OwnLockedRead
            | TableInput::OwnUnlockWrite
            | TableInput::Snoop(_) => matches!(effect, Effect::Next { .. }),
            TableInput::Supply => matches!(effect, Effect::Supply { .. }),
            TableInput::Evict => matches!(effect, Effect::Evict { .. }),
        }
    }

    /// Whether the input only reaches a line the cache holds (snoops,
    /// supply and eviction have no `NP` cell).
    fn needs_a_line(self) -> bool {
        matches!(
            self,
            TableInput::Snoop(_) | TableInput::Supply | TableInput::Evict
        )
    }

    /// Whether the input is, or completes, a bus invalidate.
    fn is_invalidate(self) -> bool {
        matches!(
            self,
            TableInput::OwnComplete(BusIntent::Invalidate)
                | TableInput::Snoop(SnoopKind::Invalidate)
        )
    }
}

impl fmt::Display for TableInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableInput::CpuRead => write!(f, "CR"),
            TableInput::CpuWrite => write!(f, "CW"),
            TableInput::OwnComplete(i) => write!(f, "own:{i}"),
            TableInput::OwnLockedRead => write!(f, "own:BRL"),
            TableInput::OwnUnlockWrite => write!(f, "own:BWU"),
            TableInput::Snoop(k) => write!(f, "snoop:{k}"),
            TableInput::Supply => write!(f, "supply"),
            TableInput::Evict => write!(f, "evict"),
        }
    }
}

/// One cell of a protocol's transition table: a line state (or `None`
/// for not-present) and the input applied to it. Keys sort by state in
/// paper-table order (`NP I R F L V E D`), then by column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionKey {
    /// The line state the input hits; `None` is the `NP` pseudo-state.
    pub state: Option<LineState>,
    /// The input applied.
    pub input: TableInput,
}

/// A stable ordering rank for line states, in paper-table order.
fn state_rank(state: Option<LineState>) -> (u8, u8) {
    match state {
        None => (0, 0),
        Some(LineState::Invalid) => (1, 0),
        Some(LineState::Readable) => (2, 0),
        Some(LineState::FirstWrite(c)) => (3, c),
        Some(LineState::Local) => (4, 0),
        Some(LineState::Valid) => (5, 0),
        Some(LineState::Reserved) => (6, 0),
        Some(LineState::Dirty) => (7, 0),
    }
}

impl Ord for TransitionKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (state_rank(self.state), self.input).cmp(&(state_rank(other.state), other.input))
    }
}

impl PartialOrd for TransitionKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for TransitionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.state {
            None => write!(f, "NP --{}", self.input),
            Some(s) => write!(f, "{s} --{}", self.input),
        }
    }
}

/// One cell of a table's transition domain ([`RuleTable::domain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainCell {
    /// The cell.
    pub key: TransitionKey,
    /// Whether the table must have a rule here. Only `supply` cells are
    /// optional: their presence is what makes a state a supplier.
    pub required: bool,
}

impl RuleTable {
    /// Every `(state, input)` cell the cache controller can present to
    /// this table: `NP` and each declared state, in table order, crossed
    /// with the inputs in column order. `NP` has no snoop, supply or
    /// evict cells, and `BI` cells exist only if the table
    /// [uses the bus invalidate](RuleTable::uses_bus_invalidate).
    ///
    /// # Examples
    ///
    /// ```
    /// use decache_core::ir::{kind_table, TableInput};
    /// use decache_core::{LineState, ProtocolKind};
    ///
    /// let domain = kind_table(ProtocolKind::Rb).domain();
    /// // RB: NP + 3 states, no BI cells, and `supply` is optional.
    /// assert!(domain.iter().all(|c| !c.key.to_string().contains("BI")));
    /// let local_supply = domain
    ///     .iter()
    ///     .find(|c| c.key.state == Some(LineState::Local) && c.key.input == TableInput::Supply)
    ///     .unwrap();
    /// assert!(!local_supply.required);
    /// ```
    pub fn domain(&self) -> Vec<DomainCell> {
        let states = std::iter::once(None).chain(self.states.iter().copied().map(Some));
        states
            .flat_map(|state| {
                TableInput::ALL
                    .into_iter()
                    .filter(move |input| state.is_some() || !input.needs_a_line())
                    .filter(|input| self.uses_bus_invalidate || !input.is_invalidate())
                    .map(move |input| DomainCell {
                        key: TransitionKey { state, input },
                        required: input != TableInput::Supply,
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::kind_table;
    use crate::ProtocolKind;

    /// The `supply` cells that have a rule: the domain's supply rows.
    fn supply_rows(kind: ProtocolKind) -> Vec<TransitionKey> {
        let table = kind_table(kind);
        table
            .domain()
            .into_iter()
            .filter(|c| c.key.input == TableInput::Supply)
            .filter(|c| table.matching(c.key.state, c.key.input, true).is_some())
            .map(|c| c.key)
            .collect()
    }

    #[test]
    fn rb_domain_has_no_bi_rows_and_one_supply_row() {
        let domain = kind_table(ProtocolKind::Rb).domain();
        assert!(domain.iter().all(|c| !c.key.input.is_invalidate()));
        assert!(domain
            .iter()
            .all(|c| c.required == (c.key.input != TableInput::Supply)));
        let supplies = supply_rows(ProtocolKind::Rb);
        assert_eq!(supplies.len(), 1);
        assert_eq!(supplies[0].state, Some(LineState::Local));
    }

    #[test]
    fn rwb_domain_includes_bi_rows() {
        let domain = kind_table(ProtocolKind::Rwb).domain();
        for input in [
            TableInput::Snoop(SnoopKind::Invalidate),
            TableInput::OwnComplete(BusIntent::Invalidate),
        ] {
            assert!(domain.iter().any(|c| c.key.input == input), "{input}");
        }
    }

    #[test]
    fn np_has_only_cpu_and_own_completion_cells() {
        let domain = kind_table(ProtocolKind::Rwb).domain();
        let np: Vec<TableInput> = domain
            .iter()
            .filter(|c| c.key.state.is_none())
            .map(|c| c.key.input)
            .collect();
        assert_eq!(np.len(), 7);
        assert!(np.iter().all(|i| !i.needs_a_line()));
    }

    #[test]
    fn keys_render_compactly_and_sort_stably() {
        let key = TransitionKey {
            state: None,
            input: TableInput::CpuRead,
        };
        assert_eq!(key.to_string(), "NP --CR");
        let key = TransitionKey {
            state: Some(LineState::Readable),
            input: TableInput::Snoop(SnoopKind::UnlockWrite),
        };
        assert_eq!(key.to_string(), "R --snoop:BWU");
        let mut keys: Vec<TransitionKey> = kind_table(ProtocolKind::Rb)
            .domain()
            .into_iter()
            .map(|c| c.key)
            .collect();
        keys.sort();
        let sorted = keys.clone();
        keys.reverse();
        keys.sort();
        assert_eq!(keys, sorted);
        // Paper-table state order (NP I R L), then column order.
        let rendered: Vec<String> = sorted.iter().map(ToString::to_string).collect();
        assert_eq!(rendered[0], "NP --CR");
        assert_eq!(rendered[6], "I --CR");
        assert_eq!(rendered[7], "I --CW");
        assert_eq!(rendered.last().map(String::as_str), Some("L --evict"));
    }
}
