//! Exhaustive equivalence of the dense compiled table the machine runs
//! ([`AnyProtocol`]) with a linear [`RuleTable::matching`] scan over the
//! same rule table ([`Linear`] below), the reference semantics of a
//! table. Every protocol kind, every RWB threshold, every cell, both
//! guard bits.

use decache_core::introspect::{transition_domain, SnoopKind, TableInput, TransitionKey};
use decache_core::ir::MAX_K;
use decache_core::ir::{hand_table, mesi, Effect, Guard, Rule, RuleTable, TableProtocol};
use decache_core::{
    AnyProtocol, BusIntent, CpuOutcome, LineState, Protocol, ProtocolKind, SnoopEvent, SnoopOutcome,
};
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

fn every_input() -> Vec<TableInput> {
    let mut inputs = vec![TableInput::CpuRead, TableInput::CpuWrite];
    inputs.extend(
        [BusIntent::Read, BusIntent::Write, BusIntent::Invalidate].map(TableInput::OwnComplete),
    );
    inputs.extend([TableInput::OwnLockedRead, TableInput::OwnUnlockWrite]);
    inputs.extend(SnoopKind::ALL.map(TableInput::Snoop));
    inputs.extend([TableInput::Supply, TableInput::Evict]);
    inputs
}

/// The reference executor: one linear scan of the rule list per
/// decision.
#[derive(Debug)]
struct Linear(RuleTable);

impl Linear {
    fn effect(&self, state: Option<LineState>, input: TableInput, other_readable: bool) -> Effect {
        let cell = TransitionKey { state, input };
        self.0
            .matching(state, input, other_readable)
            .unwrap_or_else(|| panic!("{}: no rule for {cell}", self.0.name))
            .effect
    }

    fn next(&self, state: Option<LineState>, input: TableInput, other_readable: bool) -> LineState {
        match self.effect(state, input, other_readable) {
            Effect::Next { next, .. } => next,
            other => panic!("{}: {input} has effect {other}", self.0.name),
        }
    }

    fn cpu(&self, state: Option<LineState>, input: TableInput) -> CpuOutcome {
        match self.effect(state, input, true) {
            Effect::Hit { next } => CpuOutcome::Hit { next },
            Effect::Issue { intent } => CpuOutcome::Miss { intent },
            other => panic!("{}: {input} has effect {other}", self.0.name),
        }
    }
}

impl Protocol for Linear {
    fn name(&self) -> String {
        self.0.name.clone()
    }

    fn states(&self) -> Vec<LineState> {
        self.0.states.clone()
    }

    fn cpu_read(&self, state: Option<LineState>) -> CpuOutcome {
        self.cpu(state, TableInput::CpuRead)
    }

    fn cpu_write(&self, state: Option<LineState>) -> CpuOutcome {
        self.cpu(state, TableInput::CpuWrite)
    }

    fn own_complete(&self, state: Option<LineState>, intent: BusIntent) -> LineState {
        self.own_complete_shared(state, intent, true)
    }

    fn own_complete_shared(
        &self,
        state: Option<LineState>,
        intent: BusIntent,
        other_holders: bool,
    ) -> LineState {
        self.next(state, TableInput::OwnComplete(intent), other_holders)
    }

    fn own_locked_read_complete(&self, state: Option<LineState>) -> LineState {
        self.next(state, TableInput::OwnLockedRead, true)
    }

    fn own_unlock_write_complete(&self, state: Option<LineState>) -> LineState {
        self.next(state, TableInput::OwnUnlockWrite, true)
    }

    fn snoop(&self, state: LineState, event: SnoopEvent) -> SnoopOutcome {
        let input = TableInput::Snoop(SnoopKind::of(event));
        match self.effect(Some(state), input, true) {
            Effect::Next { next, capture } => SnoopOutcome { next, capture },
            other => panic!("{}: {input} has effect {other}", self.0.name),
        }
    }

    fn supplies_on_snoop_read(&self, state: LineState) -> bool {
        self.0
            .matching(Some(state), TableInput::Supply, true)
            .is_some()
    }

    fn after_supply(&self, state: LineState) -> LineState {
        match self.effect(Some(state), TableInput::Supply, true) {
            Effect::Supply { next } => next,
            other => panic!("{}: supply has effect {other}", self.0.name),
        }
    }

    fn writeback_on_evict(&self, state: LineState) -> bool {
        match self.effect(Some(state), TableInput::Evict, true) {
            Effect::Evict { writeback } => writeback,
            other => panic!("{}: evict has effect {other}", self.0.name),
        }
    }

    fn broadcasts_write_data(&self) -> bool {
        self.0.broadcasts_write_data
    }

    fn uses_bus_invalidate(&self) -> bool {
        self.0.uses_bus_invalidate
    }

    fn fill_depends_on_sharers(&self) -> bool {
        self.0.has_guards()
    }
}

/// What a protocol's trait methods decide for one cell, in [`Effect`]
/// form. Snoops carry a nonzero word: no decision may depend on it.
fn decide(p: &dyn Protocol, key: TransitionKey, other_readable: bool) -> Effect {
    let cpu = |out: CpuOutcome| match out {
        CpuOutcome::Hit { next } => Effect::Hit { next },
        CpuOutcome::Miss { intent } => Effect::Issue { intent },
    };
    let next = |next| Effect::Next {
        next,
        capture: false,
    };
    let held = || {
        key.state
            .expect("snoop, supply and evict cells are for held lines")
    };
    let word = Word::new(0x5a5a);
    match key.input {
        TableInput::CpuRead => cpu(p.cpu_read(key.state)),
        TableInput::CpuWrite => cpu(p.cpu_write(key.state)),
        TableInput::OwnComplete(intent) => {
            next(p.own_complete_shared(key.state, intent, other_readable))
        }
        TableInput::OwnLockedRead => next(p.own_locked_read_complete(key.state)),
        TableInput::OwnUnlockWrite => next(p.own_unlock_write_complete(key.state)),
        TableInput::Snoop(kind) => {
            let event = match kind {
                SnoopKind::Read => SnoopEvent::Read(word),
                SnoopKind::Write => SnoopEvent::Write(word),
                SnoopKind::Invalidate => SnoopEvent::Invalidate,
                SnoopKind::LockedRead => SnoopEvent::LockedRead(word),
                SnoopKind::UnlockWrite => SnoopEvent::UnlockWrite(word),
            };
            let out = p.snoop(held(), event);
            Effect::Next {
                next: out.next,
                capture: out.capture,
            }
        }
        TableInput::Supply => Effect::Supply {
            next: p.after_supply(held()),
        },
        TableInput::Evict => Effect::Evict {
            writeback: p.writeback_on_evict(held()),
        },
    }
}

/// Asserts that every dense cell holds what the linear scan finds, over
/// the whole layout: every state slot (declared or not), every input,
/// both guard bits. Returns the number of filled cells.
fn assert_cells_match_scan(label: &str, table: &RuleTable, dense: &TableProtocol) -> usize {
    let mut filled = 0;
    for state in every_state() {
        for input in every_input() {
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

/// The dense table and the linear scan agree on every [`Protocol`]
/// method, over the dense table's whole transition domain and both
/// guard bits, and on every flag.
#[test]
fn dense_and_linear_executors_agree_on_every_protocol_method() {
    for kind in kinds() {
        let dense = AnyProtocol::build(kind);
        let linear = Linear(table(kind));
        assert_eq!(linear.name(), dense.name(), "{kind}: name");
        assert_eq!(kind.to_string(), dense.name(), "{kind}: display name");
        assert_eq!(linear.states(), dense.states(), "{kind}: states");
        assert_eq!(
            linear.uses_bus_invalidate(),
            dense.uses_bus_invalidate(),
            "{kind}: uses_bus_invalidate"
        );
        assert_eq!(
            linear.broadcasts_write_data(),
            dense.broadcasts_write_data(),
            "{kind}: broadcasts_write_data"
        );
        assert_eq!(
            linear.fill_depends_on_sharers(),
            dense.fill_depends_on_sharers(),
            "{kind}: fill_depends_on_sharers"
        );

        let domain = transition_domain(&dense);
        assert!(domain.len() > 20, "{kind}: domain of {}", domain.len());
        for &key in &domain {
            for other_readable in [false, true] {
                assert_eq!(
                    decide(&dense, key, other_readable),
                    decide(&linear, key, other_readable),
                    "{kind}: {key} (other_readable={other_readable})"
                );
            }
            if let TableInput::OwnComplete(intent) = key.input {
                assert_eq!(
                    dense.own_complete(key.state, intent),
                    linear.own_complete(key.state, intent),
                    "{kind}: own_complete {key}"
                );
            }
        }

        // Supplier status, and the snoop step's before/after supply bits
        // that drive the machine's owner index.
        for state in dense.states() {
            let supplies = linear.supplies_on_snoop_read(state);
            assert_eq!(
                dense.supplies_on_snoop_read(state),
                supplies,
                "{kind}: supplies_on_snoop_read({state})"
            );
            for snoop in SnoopKind::ALL {
                let key = TransitionKey {
                    state: Some(state),
                    input: TableInput::Snoop(snoop),
                };
                if !domain.contains(&key) {
                    continue;
                }
                let step = dense.snoop_step(state, snoop);
                assert_eq!(
                    step.outcome,
                    linear.snoop(state, snoop.event()),
                    "{kind}: {key}"
                );
                assert_eq!(step.supplied, supplies, "{kind}: {key} supplied");
                assert_eq!(
                    step.supplies,
                    linear.supplies_on_snoop_read(step.outcome.next),
                    "{kind}: {key} supplies"
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
