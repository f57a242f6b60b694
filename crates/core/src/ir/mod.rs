//! Guarded-action protocol IR: protocols as data, not code.
//!
//! Every protocol in this crate is a pure per-line finite state machine,
//! which means its complete semantics fit in a finite table of
//! **guarded-action rules**: `(from_state, input) [guard] → effect`
//! (after Meunier et al.'s guarded-action modelling of cache coherence).
//! This module defines that table form ([`Rule`], [`RuleTable`]), the
//! tables of every built-in protocol ([`kind_table`]: [`hand_table`]
//! for the paper's schemes, [`mesi`]), and the executor
//! ([`TableProtocol`]) that compiles any table to a dense
//! `(state, input, guard bit)` array and runs it through the ordinary
//! [`Protocol`] trait. The tables are the only definition of each
//! protocol: the machine, the product checker, the conformance oracle
//! and the static analyzer all take the same table, so a protocol
//! defined *purely as data* runs and is verified with no code of its
//! own.
//!
//! Guards range over the **abstract configuration** of the other caches
//! (never over PE identities, keeping every table PE-symmetric by
//! construction). The paper's seven schemes are guard-free; the guard
//! vocabulary exists for schemes like MESI whose read-miss fill depends
//! on whether the line is shared (fill `E` when exclusive, `S`/`V` when
//! another readable copy exists).
//!
//! [`mesi`] builds exactly that: a MESI table over the existing
//! [`LineState`] vocabulary (`I`/`V`/`S`/`D` displaying MESI's
//! I/S/E/M), adapted to the paper's bus vocabulary — write misses go
//! through the bus as `BW` (write-through of the missing word) and the
//! `S → M` upgrade rides the RWB bus-invalidate signal `BI`. Zero
//! engine code knows about MESI; it is just one more table.
//!
//! A table's cells and the domain of cells it must cover
//! ([`RuleTable::domain`]) are defined here too. Static analysis of
//! rule tables (totality, determinism, invariant preservation over all
//! n, dead rules) lives in `decache-verify`, beside the dead-transition
//! lint; this module only defines the data model, the tables, their
//! domain, and their executor.
//!
//! [`Protocol`]: crate::Protocol

mod dense;
mod domain;
mod tables;

pub use dense::{SnoopStep, TableProtocol};
pub use domain::{DomainCell, SnoopKind, TableInput, TransitionKey};
pub use tables::{hand_table, kind_table, mesi};

/// The largest RWB locality threshold `k` (footnote 6) a table may use:
/// [`crate::ProtocolKind::RwbThreshold`] takes `1..=MAX_K`, and the
/// dense executor has a slot for every `FirstWrite(c)` with
/// `c <= MAX_K`. The paper's own default is `k = 2`.
pub const MAX_K: u8 = 8;

use crate::{BusIntent, LineState};
use std::fmt;

/// The guard of a rule: a predicate over the *abstract configuration*
/// of the other caches, evaluated by the controller when the rule's
/// input arrives. Deliberately PE-anonymous — a guard can count or
/// test the other caches' states but can never name a PE — so every
/// table is symmetric under PE permutation by construction.
///
/// Guards are only meaningful on `own:BR` completions (the read-miss
/// fill), sampled after any interrupt-and-supply and before the read
/// broadcast; everywhere else rules are [`Guard::Always`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Guard {
    /// Fires unconditionally.
    Always,
    /// Fires iff **no** other cache holds the line in a locally-readable
    /// state ([`LineState::is_readable_locally`]).
    NoOtherReadableHolder,
    /// Fires iff some other cache holds the line in a locally-readable
    /// state — the complement of [`Guard::NoOtherReadableHolder`].
    OtherReadableHolder,
}

impl Guard {
    /// Evaluates the guard against the sampled "some other cache holds
    /// the line readable" bit.
    pub fn eval(self, other_readable: bool) -> bool {
        match self {
            Guard::Always => true,
            Guard::NoOtherReadableHolder => !other_readable,
            Guard::OtherReadableHolder => other_readable,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Always => write!(f, "always"),
            Guard::NoOtherReadableHolder => write!(f, "no-other-readable"),
            Guard::OtherReadableHolder => write!(f, "other-readable"),
        }
    }
}

/// The action half of a rule. Each variant corresponds to one
/// [`crate::Protocol`] decision shape ([`TableInput::accepts`] says
/// which input takes which).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Effect {
    /// Serve the CPU reference from the cache; the line moves to `next`.
    Hit {
        /// The line's state after the reference.
        next: LineState,
    },
    /// Stall the CPU and issue a bus transaction.
    Issue {
        /// The transaction to issue.
        intent: BusIntent,
    },
    /// Move to `next` (own-completion or snoop), optionally capturing
    /// the word on the bus.
    Next {
        /// The line's next state.
        next: LineState,
        /// Whether the line captures the bus data.
        capture: bool,
    },
    /// Interrupt a foreign bus read, supply the data, and demote to
    /// `next`. A state has supply rules iff it supplies on snooped
    /// reads.
    Supply {
        /// The holder's state after supplying.
        next: LineState,
    },
    /// Evict the line, writing back iff `writeback`.
    Evict {
        /// Whether the evicted line must be flushed to memory.
        writeback: bool,
    },
}

impl Effect {
    /// Renders the effect as the golden table and the analyzer's
    /// diagnostics spell it (`"hit→R"`, `"miss(BW)"`, `"capture→R"`,
    /// `"supply→R"`, `"writeback"`, …).
    pub fn render(self) -> String {
        match self {
            Effect::Hit { next } => format!("hit→{next}"),
            Effect::Issue { intent } => format!("miss({intent})"),
            Effect::Next {
                next,
                capture: true,
            } => format!("capture→{next}"),
            Effect::Next {
                next,
                capture: false,
            } => format!("→{next}"),
            Effect::Supply { next } => format!("supply→{next}"),
            Effect::Evict { writeback: true } => "writeback".to_owned(),
            Effect::Evict { writeback: false } => "drop".to_owned(),
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// One guarded-action rule: in `from` state (`None` = not present), on
/// `input`, if `guard` holds, apply `effect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The line state the rule matches; `None` is the `NP` pseudo-state.
    pub from: Option<LineState>,
    /// The input class the rule matches.
    pub input: TableInput,
    /// The guard over the abstract configuration of the other caches.
    pub guard: Guard,
    /// The action taken when the rule fires.
    pub effect: Effect,
}

impl Rule {
    /// The transition-table cell this rule occupies.
    pub fn key(self) -> TransitionKey {
        TransitionKey {
            state: self.from,
            input: self.input,
        }
    }

    /// A stable rule identifier for diagnostics and baselines: the
    /// cell's rendering plus a guard suffix for guarded rules
    /// (`"NP --own:BR [other-readable]"`).
    pub fn id(self) -> String {
        match self.guard {
            Guard::Always => self.key().to_string(),
            guard => format!("{} [{guard}]", self.key()),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.id(), self.effect)
    }
}

/// A complete protocol as data: its name, state vocabulary, bus
/// capabilities, and guarded-action rule set.
///
/// Well-formedness (exactly one matching rule per `(state, input,
/// configuration)`, invariant preservation, …) is *not* enforced here —
/// that is the static analyzer's job in `decache-verify`; the executor
/// panics informatively on lookup failure, e.g. for a state outside the
/// table's vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTable {
    /// The protocol's display name.
    pub name: String,
    /// The declared state vocabulary, in table order.
    pub states: Vec<LineState>,
    /// Whether the protocol ever issues the bus invalidate signal.
    pub uses_bus_invalidate: bool,
    /// Whether snooping caches capture foreign bus-write data.
    pub broadcasts_write_data: bool,
    /// The rule set. Order is irrelevant to semantics; [`normalize`]
    /// sorts for canonical comparison.
    ///
    /// [`normalize`]: RuleTable::normalize
    pub rules: Vec<Rule>,
}

impl RuleTable {
    /// Sorts the rules into canonical `(cell, guard)` order, for stable
    /// rendering and table-vs-table comparison.
    pub fn normalize(&mut self) {
        self.rules.sort_by(|a, b| {
            a.key()
                .cmp(&b.key())
                .then_with(|| a.guard.cmp(&b.guard))
                .then_with(|| a.effect.cmp(&b.effect))
        });
    }

    /// All rules occupying the `(state, input)` cell.
    pub fn rules_for(&self, from: Option<LineState>, input: TableInput) -> Vec<Rule> {
        self.rules
            .iter()
            .copied()
            .filter(|r| r.from == from && r.input == input)
            .collect()
    }

    /// The first rule matching `(state, input)` under the sampled
    /// configuration bit, or `None` when no rule matches. A linear scan:
    /// the reference semantics that [`TableProtocol`] compiles into its
    /// dense cells, used by the analyzer and by tests.
    pub fn matching(
        &self,
        from: Option<LineState>,
        input: TableInput,
        other_readable: bool,
    ) -> Option<Rule> {
        self.rules
            .iter()
            .copied()
            .find(|r| r.from == from && r.input == input && r.guard.eval(other_readable))
    }

    /// Whether any rule's firing depends on the abstract configuration.
    pub fn has_guards(&self) -> bool {
        self.rules.iter().any(|r| r.guard != Guard::Always)
    }

    /// The states that interrupt-and-supply on snooped reads (those
    /// with a `supply` rule).
    pub fn supplying_states(&self) -> Vec<LineState> {
        self.states
            .iter()
            .copied()
            .filter(|&s| {
                self.rules
                    .iter()
                    .any(|r| r.from == Some(s) && r.input == TableInput::Supply)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuOutcome, Protocol, SnoopEvent, SnoopOutcome};
    use LineState::{Dirty, Invalid, Reserved, Valid};

    #[test]
    fn mesi_interpreter_basics() {
        let p = TableProtocol::new(mesi());
        assert_eq!(p.name(), "MESI");
        assert_eq!(p.states(), vec![Invalid, Valid, Reserved, Dirty]);
        assert!(p.uses_bus_invalidate());
        assert!(!p.broadcasts_write_data());
        assert!(p.fill_depends_on_sharers());
        // Read miss from NP; fill is guarded.
        assert_eq!(
            p.cpu_read(None),
            CpuOutcome::Miss {
                intent: BusIntent::Read
            }
        );
        assert_eq!(
            p.own_complete_shared(None, BusIntent::Read, false),
            Reserved,
            "alone → exclusive-clean"
        );
        assert_eq!(
            p.own_complete_shared(None, BusIntent::Read, true),
            Valid,
            "shared → V"
        );
        // The context-free entry point resolves to the shared branch.
        assert_eq!(p.own_complete(None, BusIntent::Read), Valid);
        // Silent E → M; S → M upgrades over BI.
        assert_eq!(p.cpu_write(Some(Reserved)), CpuOutcome::Hit { next: Dirty });
        assert_eq!(
            p.cpu_write(Some(Valid)),
            CpuOutcome::Miss {
                intent: BusIntent::Invalidate
            }
        );
        assert_eq!(p.own_complete(Some(Valid), BusIntent::Invalidate), Dirty);
        // Owner supplies and demotes; only M writes back.
        assert!(p.supplies_on_snoop_read(Dirty));
        assert!(!p.supplies_on_snoop_read(Reserved));
        assert_eq!(p.after_supply(Dirty), Valid);
        assert!(p.writeback_on_evict(Dirty));
        assert!(!p.writeback_on_evict(Reserved));
        // Read snoops demote to shared without capturing.
        let out = p.snoop(Reserved, SnoopEvent::Read(decache_mem::Word::ZERO));
        assert_eq!(
            out,
            SnoopOutcome {
                next: Valid,
                capture: false
            }
        );
        let out = p.snoop(Valid, SnoopEvent::Write(decache_mem::Word::ZERO));
        assert_eq!(
            out,
            SnoopOutcome {
                next: Invalid,
                capture: false
            }
        );
    }

    #[test]
    fn effect_rendering_matches_the_golden_vocabulary() {
        assert_eq!(Effect::Hit { next: Valid }.render(), "hit→V");
        assert_eq!(
            Effect::Issue {
                intent: BusIntent::Write
            }
            .render(),
            "miss(BW)"
        );
        assert_eq!(
            Effect::Next {
                next: Invalid,
                capture: false
            }
            .render(),
            "→I"
        );
        assert_eq!(
            Effect::Next {
                next: LineState::Readable,
                capture: true
            }
            .render(),
            "capture→R"
        );
        assert_eq!(Effect::Supply { next: Valid }.render(), "supply→V");
        assert_eq!(Effect::Evict { writeback: true }.render(), "writeback");
        assert_eq!(Effect::Evict { writeback: false }.render(), "drop");
    }

    #[test]
    fn rule_ids_carry_guards() {
        let table = mesi();
        let guarded = table.rules_for(None, TableInput::OwnComplete(BusIntent::Read));
        assert_eq!(guarded.len(), 2);
        let ids: Vec<String> = guarded.iter().map(|r| r.id()).collect();
        assert!(ids.contains(&"NP --own:BR [no-other-readable]".to_owned()));
        assert!(ids.contains(&"NP --own:BR [other-readable]".to_owned()));
        let plain = table.rules_for(Some(Dirty), TableInput::Supply)[0];
        assert_eq!(plain.id(), "D --supply");
    }

    #[test]
    #[should_panic(expected = "MESI: no rule for NP --CR (other_readable=true)")]
    fn missing_rules_panic_informatively() {
        let mut table = mesi();
        table.rules.retain(|r| r.input != TableInput::CpuRead);
        let p = TableProtocol::new(table);
        let _ = p.cpu_read(None);
    }
}
