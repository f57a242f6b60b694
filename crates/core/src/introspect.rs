//! Transition-table introspection for the dead-transition lint.
//!
//! The verifier's lint wants to answer "which rows of a protocol's
//! `(state, input) → outcome` table can actually fire?". This module
//! enumerates that table *domain* — every state (including `NP`, the
//! not-present pseudo-state) crossed with every input the cache
//! controller can present — and probes each entry's outcome, catching
//! panics so non-total handling is reported instead of crashing the
//! lint.
//!
//! The domain is protocol-aware: `BI` rows exist only for protocols
//! that [`Protocol::uses_bus_invalidate`], and a `supply` row exists
//! only for states that [`Protocol::supplies_on_snoop_read`] — rows
//! that cannot exist are different from rows that exist but never fire,
//! and only the latter belong in a lint report.

use crate::{BusIntent, CpuOutcome, LineState, Protocol, SnoopEvent};
use decache_mem::Word;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
/// controller presents to the per-line state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TableInput {
    /// A CPU read reference ([`Protocol::cpu_read`]).
    CpuRead,
    /// A CPU write reference ([`Protocol::cpu_write`]).
    CpuWrite,
    /// Completion of this cache's own bus transaction
    /// ([`Protocol::own_complete`]).
    OwnComplete(BusIntent),
    /// Completion of this cache's own locked read
    /// ([`Protocol::own_locked_read_complete`]).
    OwnLockedRead,
    /// Completion of this cache's own unlocking write
    /// ([`Protocol::own_unlock_write_complete`]).
    OwnUnlockWrite,
    /// A snooped foreign transaction ([`Protocol::snoop`]).
    Snoop(SnoopKind),
    /// Interrupting a foreign bus read to supply data
    /// ([`Protocol::after_supply`], guarded by
    /// [`Protocol::supplies_on_snoop_read`]).
    Supply,
    /// Eviction of the line ([`Protocol::writeback_on_evict`]).
    Evict,
}

impl TableInput {
    fn rank(self) -> (u8, u8) {
        match self {
            TableInput::CpuRead => (0, 0),
            TableInput::CpuWrite => (1, 0),
            TableInput::OwnComplete(BusIntent::Read) => (2, 0),
            TableInput::OwnComplete(BusIntent::Write) => (2, 1),
            TableInput::OwnComplete(BusIntent::Invalidate) => (2, 2),
            TableInput::OwnLockedRead => (3, 0),
            TableInput::OwnUnlockWrite => (4, 0),
            TableInput::Snoop(k) => (5, k as u8),
            TableInput::Supply => (6, 0),
            TableInput::Evict => (7, 0),
        }
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
/// for not-present) and the input applied to it.
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
        (state_rank(self.state), self.input.rank())
            .cmp(&(state_rank(other.state), other.input.rank()))
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

/// Enumerates the full transition-table domain of a protocol: every
/// `(state, input)` cell the cache controller could in principle present.
///
/// The domain is protocol-aware (see the module docs): `BI` rows only
/// for invalidating protocols, `supply` rows only for supplying states.
///
/// # Examples
///
/// ```
/// use decache_core::{introspect, AnyProtocol, ProtocolKind};
///
/// let keys = introspect::transition_domain(&AnyProtocol::build(ProtocolKind::Rb));
/// // RB: NP + 3 states, no BI rows.
/// assert!(keys.iter().all(|k| !k.to_string().contains("BI")));
/// ```
pub fn transition_domain(protocol: &dyn Protocol) -> Vec<TransitionKey> {
    let bi = protocol.uses_bus_invalidate();
    let mut keys = Vec::new();
    let all_states: Vec<Option<LineState>> = std::iter::once(None)
        .chain(protocol.states().into_iter().map(Some))
        .collect();
    for &state in &all_states {
        keys.push(TransitionKey {
            state,
            input: TableInput::CpuRead,
        });
        keys.push(TransitionKey {
            state,
            input: TableInput::CpuWrite,
        });
        for intent in [BusIntent::Read, BusIntent::Write, BusIntent::Invalidate] {
            if intent == BusIntent::Invalidate && !bi {
                continue;
            }
            keys.push(TransitionKey {
                state,
                input: TableInput::OwnComplete(intent),
            });
        }
        keys.push(TransitionKey {
            state,
            input: TableInput::OwnLockedRead,
        });
        keys.push(TransitionKey {
            state,
            input: TableInput::OwnUnlockWrite,
        });
    }
    for state in protocol.states() {
        for kind in SnoopKind::ALL {
            if kind == SnoopKind::Invalidate && !bi {
                continue;
            }
            keys.push(TransitionKey {
                state: Some(state),
                input: TableInput::Snoop(kind),
            });
        }
        if protocol.supplies_on_snoop_read(state) {
            keys.push(TransitionKey {
                state: Some(state),
                input: TableInput::Supply,
            });
        }
        keys.push(TransitionKey {
            state: Some(state),
            input: TableInput::Evict,
        });
    }
    keys.sort();
    keys
}

/// Probes the outcome of one table cell, rendered as a short stable
/// string (`"hit→R"`, `"miss(BW)"`, `"capture→R"`, `"writeback"`, …).
/// Returns `None` if the protocol panicked on the cell — non-total
/// handling, which the lint reports.
pub fn probe_outcome(protocol: &dyn Protocol, key: TransitionKey) -> Option<String> {
    let render_cpu = |out: CpuOutcome| match out {
        CpuOutcome::Hit { next } => format!("hit→{next}"),
        CpuOutcome::Miss { intent } => format!("miss({intent})"),
    };
    catch_unwind(AssertUnwindSafe(|| match key.input {
        TableInput::CpuRead => render_cpu(protocol.cpu_read(key.state)),
        TableInput::CpuWrite => render_cpu(protocol.cpu_write(key.state)),
        TableInput::OwnComplete(intent) => {
            format!("→{}", protocol.own_complete(key.state, intent))
        }
        TableInput::OwnLockedRead => format!("→{}", protocol.own_locked_read_complete(key.state)),
        TableInput::OwnUnlockWrite => {
            format!("→{}", protocol.own_unlock_write_complete(key.state))
        }
        TableInput::Snoop(kind) => {
            let state = key.state.expect("snoop rows exist only for held states");
            let out = protocol.snoop(state, kind.event());
            if out.capture {
                format!("capture→{}", out.next)
            } else {
                format!("→{}", out.next)
            }
        }
        TableInput::Supply => {
            let state = key.state.expect("supply rows exist only for held states");
            format!("supply→{}", protocol.after_supply(state))
        }
        TableInput::Evict => {
            let state = key.state.expect("evict rows exist only for held states");
            if protocol.writeback_on_evict(state) {
                "writeback".to_owned()
            } else {
                "drop".to_owned()
            }
        }
    }))
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyProtocol, ProtocolKind};

    fn rb() -> AnyProtocol {
        AnyProtocol::build(ProtocolKind::Rb)
    }

    #[test]
    fn rb_domain_has_no_bi_rows_and_one_supply_row() {
        let keys = transition_domain(&rb());
        assert!(keys
            .iter()
            .all(|k| !matches!(k.input, TableInput::Snoop(SnoopKind::Invalidate))));
        assert!(keys
            .iter()
            .all(|k| !matches!(k.input, TableInput::OwnComplete(BusIntent::Invalidate))));
        let supplies: Vec<_> = keys
            .iter()
            .filter(|k| k.input == TableInput::Supply)
            .collect();
        assert_eq!(supplies.len(), 1);
        assert_eq!(supplies[0].state, Some(LineState::Local));
    }

    #[test]
    fn rwb_domain_includes_bi_rows() {
        let keys = transition_domain(&ProtocolKind::Rwb.build());
        assert!(keys
            .iter()
            .any(|k| matches!(k.input, TableInput::Snoop(SnoopKind::Invalidate))));
    }

    #[test]
    fn every_domain_cell_of_every_kind_is_total() {
        let kinds = [
            ProtocolKind::Rb,
            ProtocolKind::RbNoBroadcast,
            ProtocolKind::Rwb,
            ProtocolKind::RwbThreshold(1),
            ProtocolKind::RwbThreshold(3),
            ProtocolKind::WriteOnce,
            ProtocolKind::WriteThrough,
        ];
        for kind in kinds {
            let p = kind.build();
            for key in transition_domain(&p) {
                assert!(
                    probe_outcome(&p, key).is_some(),
                    "{kind}: non-total handling of {key}"
                );
            }
        }
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
        let mut keys = transition_domain(&rb());
        let sorted = keys.clone();
        keys.reverse();
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn probe_reports_outcomes() {
        let rb = rb();
        let out = probe_outcome(
            &rb,
            TransitionKey {
                state: None,
                input: TableInput::CpuRead,
            },
        );
        assert_eq!(out.as_deref(), Some("miss(BR)"));
        let out = probe_outcome(
            &rb,
            TransitionKey {
                state: Some(LineState::Local),
                input: TableInput::Evict,
            },
        );
        assert_eq!(out.as_deref(), Some("writeback"));
    }
}
