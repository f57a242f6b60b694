//! Exhaustive equivalence of the dense compiled table the machine runs
//! ([`AnyProtocol`]) with a linear [`RuleTable::matching`] scan over the
//! same rule table, the reference semantics of a table. Every protocol
//! kind, every RWB threshold, every cell, both guard bits.

use decache_core::ir::MAX_K;
use decache_core::ir::{
    hand_table, mesi, Effect, Guard, Rule, RuleTable, SnoopKind, TableInput, TableProtocol,
    TransitionKey,
};
use decache_core::{AnyProtocol, BusIntent, CpuOutcome, LineState, Protocol, ProtocolKind};
use decache_core::{SnoopEvent, SnoopOutcome};
use decache_mem::Word;
use LineState::{Dirty, FirstWrite, Invalid, Local, Readable, Reserved, Valid};

/// Every protocol kind, with every supported RWB threshold.
fn kinds() -> Vec<ProtocolKind> {
    let mut kinds = vec![
        ProtocolKind::Rb,
        ProtocolKind::RbNoBroadcast,
        ProtocolKind::Rwb,
        ProtocolKind::WriteOnce,
        ProtocolKind::WriteThrough,
        ProtocolKind::Mesi,
    ];
    kinds.extend((1..=MAX_K).map(ProtocolKind::RwbThreshold));
    kinds
}

fn table(kind: ProtocolKind) -> RuleTable {
    hand_table(kind).unwrap_or_else(mesi)
}

/// `NP`, every state variant, and `FirstWrite` counts one past the
/// largest threshold.
fn every_state() -> Vec<Option<LineState>> {
    let mut states = vec![
        None,
        Some(Invalid),
        Some(Readable),
        Some(Local),
        Some(Valid),
        Some(Reserved),
        Some(Dirty),
    ];
    states.extend((0..=MAX_K + 1).map(|c| Some(FirstWrite(c))));
    states
}

/// Asserts that every dense cell holds what the linear scan finds, over
/// the whole layout: every state slot (declared or not), every input,
/// both guard bits. Returns the number of filled cells.
fn assert_cells_match_scan(label: &str, table: &RuleTable, dense: &TableProtocol) -> usize {
    let mut filled = 0;
    for state in every_state() {
        for input in TableInput::ALL {
            for other_readable in [false, true] {
                let want = table
                    .matching(state, input, other_readable)
                    .map(|rule| rule.effect);
                let cell = TransitionKey { state, input };
                assert_eq!(
                    dense.cell_effect(state, input, other_readable),
                    want,
                    "{label}: {cell} (other_readable={other_readable})"
                );
                filled += usize::from(want.is_some());
            }
        }
    }
    filled
}

/// The dense cells of every built-in protocol hold exactly what the
/// linear scan finds; empty cells stay empty.
#[test]
fn dense_cells_equal_the_linear_scan_everywhere() {
    for kind in kinds() {
        let filled =
            assert_cells_match_scan(&kind.to_string(), &table(kind), &AnyProtocol::build(kind));
        assert!(filled > 40, "{kind}: suspiciously few rules ({filled})");
    }
}

/// Overlapping rules resolve to the first match, as the scan does: a
/// later duplicate with another effect loses, and a guarded rule ahead
/// of an unconditional one wins only under its guard bit.
#[test]
fn overlapping_rules_resolve_to_the_first_match() {
    let mut table = table(ProtocolKind::Rb);
    let mut duplicate = table.rules[0];
    duplicate.effect = Effect::Hit { next: Local };
    table.rules.push(duplicate);
    table.rules.insert(
        0,
        Rule {
            from: None,
            input: TableInput::OwnComplete(BusIntent::Read),
            guard: Guard::NoOtherReadableHolder,
            effect: Effect::Next {
                next: Local,
                capture: false,
            },
        },
    );
    let dense = TableProtocol::new(table.clone());
    assert_cells_match_scan("RB with overlaps", &table, &dense);
    assert_eq!(
        dense.own_complete_shared(None, BusIntent::Read, false),
        Local
    );
    assert_eq!(
        dense.own_complete_shared(None, BusIntent::Read, true),
        Readable
    );
}

/// The linear scan's effect for a cell under the sampled guard bit.
fn scan(table: &RuleTable, key: TransitionKey, other_readable: bool) -> Effect {
    table
        .matching(key.state, key.input, other_readable)
        .unwrap_or_else(|| panic!("{}: no rule for {key}", table.name))
        .effect
}

/// The next state of a completion, snoop or supply effect.
fn next_state(effect: Effect) -> LineState {
    match effect {
        Effect::Next { next, .. } | Effect::Supply { next } => next,
        other => panic!("{other} has no next state"),
    }
}

/// Every [`Protocol`] method of the dense table returns what the linear
/// scan's rule says, over the table's whole transition domain (both
/// guard bits where the method samples one), and every flag matches the
/// table's.
#[test]
fn every_protocol_method_follows_the_linear_scan() {
    for kind in kinds() {
        let table = table(kind);
        let dense = AnyProtocol::build(kind);
        assert_eq!(dense.name(), table.name, "{kind}: name");
        assert_eq!(kind.to_string(), dense.name(), "{kind}: display name");
        assert_eq!(dense.states(), table.states, "{kind}: states");
        assert_eq!(dense.uses_bus_invalidate(), table.uses_bus_invalidate);
        assert_eq!(dense.broadcasts_write_data(), table.broadcasts_write_data);
        assert_eq!(dense.fill_depends_on_sharers(), table.has_guards());
        let supplies = |state| {
            table
                .matching(Some(state), TableInput::Supply, true)
                .is_some()
        };

        let domain = table.domain();
        assert!(domain.len() > 20, "{kind}: domain of {}", domain.len());
        for key in domain.into_iter().map(|cell| cell.key) {
            let held = || {
                key.state
                    .expect("snoop, supply and evict cells are for held lines")
            };
            match key.input {
                TableInput::CpuRead | TableInput::CpuWrite => {
                    let got = if key.input == TableInput::CpuRead {
                        dense.cpu_read(key.state)
                    } else {
                        dense.cpu_write(key.state)
                    };
                    let want = match scan(&table, key, true) {
                        Effect::Hit { next } => CpuOutcome::Hit { next },
                        Effect::Issue { intent } => CpuOutcome::Miss { intent },
                        other => panic!("{kind}: {key} → {other}"),
                    };
                    assert_eq!(got, want, "{kind}: {key}");
                }
                TableInput::OwnComplete(intent) => {
                    for other_readable in [false, true] {
                        assert_eq!(
                            dense.own_complete_shared(key.state, intent, other_readable),
                            next_state(scan(&table, key, other_readable)),
                            "{kind}: {key} (other_readable={other_readable})"
                        );
                    }
                    assert_eq!(
                        dense.own_complete(key.state, intent),
                        next_state(scan(&table, key, true)),
                        "{kind}: own_complete {key}"
                    );
                }
                TableInput::OwnLockedRead => assert_eq!(
                    dense.own_locked_read_complete(key.state),
                    next_state(scan(&table, key, true)),
                    "{kind}: {key}"
                ),
                TableInput::OwnUnlockWrite => assert_eq!(
                    dense.own_unlock_write_complete(key.state),
                    next_state(scan(&table, key, true)),
                    "{kind}: {key}"
                ),
                TableInput::Snoop(snoop) => {
                    let Effect::Next { next, capture } = scan(&table, key, true) else {
                        panic!("{kind}: {key} is not a transition");
                    };
                    let want = SnoopOutcome { next, capture };
                    // A nonzero payload: a decision that read the word
                    // would differ from the scan.
                    let word = Word::new(0x5a5a);
                    let event = match snoop {
                        SnoopKind::Read => SnoopEvent::Read(word),
                        SnoopKind::Write => SnoopEvent::Write(word),
                        SnoopKind::Invalidate => SnoopEvent::Invalidate,
                        SnoopKind::LockedRead => SnoopEvent::LockedRead(word),
                        SnoopKind::UnlockWrite => SnoopEvent::UnlockWrite(word),
                    };
                    assert_eq!(dense.snoop(held(), event), want, "{kind}: {key}");
                    // The before/after supply bits drive the machine's
                    // owner index.
                    let step = dense.snoop_step(held(), snoop);
                    assert_eq!(step.outcome, want, "{kind}: {key}");
                    assert_eq!(step.supplied, supplies(held()), "{kind}: {key} supplied");
                    assert_eq!(step.supplies, supplies(next), "{kind}: {key} supplies");
                }
                TableInput::Supply => {
                    assert_eq!(
                        dense.supplies_on_snoop_read(held()),
                        supplies(held()),
                        "{kind}: {key}"
                    );
                    if supplies(held()) {
                        assert_eq!(
                            dense.after_supply(held()),
                            next_state(scan(&table, key, true)),
                            "{kind}: {key}"
                        );
                    }
                }
                TableInput::Evict => assert_eq!(
                    Effect::Evict {
                        writeback: dense.writeback_on_evict(held())
                    },
                    scan(&table, key, true),
                    "{kind}: {key}"
                ),
            }
        }
    }
}

/// Every table is total over its domain: each required cell has a
/// compiled effect of the right shape under both guard bits.
#[test]
fn every_required_cell_of_every_table_has_an_effect_under_both_guard_bits() {
    for kind in kinds() {
        let dense = AnyProtocol::build(kind);
        for cell in dense.table().domain() {
            let key = cell.key;
            for other_readable in [false, true] {
                let effect = dense.cell_effect(key.state, key.input, other_readable);
                assert!(
                    effect.is_some_and(|e| key.input.accepts(e)) || !cell.required,
                    "{kind}: non-total handling of {key} (other_readable={other_readable}): {effect:?}"
                );
            }
        }
    }
}

/// A cell the table has no rule for panics with the table's name and
/// the cell, on the snoop path the broadcast loop uses.
#[test]
#[should_panic(expected = "RB: no rule for R --snoop:BW (other_readable=true)")]
fn a_missing_cell_panics_with_the_table_name_and_the_cell() {
    let mut table = table(ProtocolKind::Rb);
    table
        .rules
        .retain(|r| !(r.from == Some(Readable) && r.input == TableInput::Snoop(SnoopKind::Write)));
    let p = TableProtocol::new(table);
    let _ = p.snoop(Readable, SnoopEvent::Write(Word::ONE));
}

/// A rule whose effect does not fit the method asking panics too.
#[test]
#[should_panic(expected = "write-through: rule V --own:BRL → miss(BW) has a non-transition effect")]
fn a_misshapen_effect_panics_with_the_table_name_and_the_cell() {
    let mut table = table(ProtocolKind::WriteThrough);
    for rule in &mut table.rules {
        if rule.from == Some(Valid) && rule.input == TableInput::OwnLockedRead {
            rule.effect = Effect::Issue {
                intent: BusIntent::Write,
            };
        }
    }
    let _ = TableProtocol::new(table).own_locked_read_complete(Some(Valid));
}

/// Every built-in table lets the machine defer broadcasts: no snoop
/// cell turns a non-supplier into a supplier. A table whose foreign
/// read promotes an invalid line to the owning `L` state loses the
/// flag.
#[test]
fn no_built_in_snoop_creates_a_supplier() {
    let kinds = kinds();
    assert_eq!(kinds.len(), 14, "six named kinds, MESI and RWB(1..=8)");
    for kind in kinds {
        assert!(
            TableProtocol::new(table(kind)).snoops_never_create_suppliers(),
            "{kind:?}"
        );
    }
    let mut table = table(ProtocolKind::Rb);
    for rule in &mut table.rules {
        if rule.from == Some(Invalid) && rule.input == TableInput::Snoop(SnoopKind::Read) {
            rule.effect = Effect::Next {
                next: Local,
                capture: true,
            };
        }
    }
    assert!(!TableProtocol::new(table).snoops_never_create_suppliers());
}
