//! Mutation tests: the static analyzer must catch deliberately seeded
//! bad rules — with diagnostics that *name the offending rule*, not
//! just a failed verdict. Each mutant seeds one of the classic protocol
//! transcription errors.

use decache_core::ir::{Effect, Guard, Rule, RuleTable, SnoopKind, TableInput};
use decache_core::{ir, LineState, ProtocolKind};
use decache_verify::static_check::{analyze, CheckKind};

fn rule_position(
    table: &RuleTable,
    from: Option<LineState>,
    input: TableInput,
    guard: Guard,
) -> usize {
    table
        .rules
        .iter()
        .position(|r| r.from == from && r.input == input && r.guard == guard)
        .unwrap_or_else(|| panic!("no rule for {from:?} {input:?} [{guard}]"))
}

/// Mutant 1 — **missing invalidation**: RWB's `R --snoop:BI` is changed
/// to keep the line readable instead of invalidating it. After the
/// invalidating writer claims the line Local and writes locally, the
/// surviving `R` copy is stale — the analyzer must refute invariant
/// preservation and name the bad rule in the fired-rule trail.
#[test]
fn a_missing_bus_invalidate_is_caught_by_name() {
    let mut table = ir::kind_table(ProtocolKind::Rwb);
    let position = rule_position(
        &table,
        Some(LineState::Readable),
        TableInput::Snoop(SnoopKind::Invalidate),
        Guard::Always,
    );
    table.rules[position].effect = Effect::Next {
        next: LineState::Readable,
        capture: false,
    };

    let analysis = analyze(&table, true);
    assert!(!analysis.proved(), "mutant passed the analyzer");
    let named: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| {
            d.check == CheckKind::InvariantPreservation
                && (d.rule.as_deref() == Some("R --snoop:BI") || d.message.contains("R --snoop:BI"))
        })
        .collect();
    assert!(
        !named.is_empty(),
        "no diagnostic names R --snoop:BI: {:?}",
        analysis.diagnostics
    );
}

/// Mutant 2 — **stale supply**: RB's interrupt-and-supply row is
/// deleted, so an owning `L` cache lets bus reads complete from stale
/// memory. No syntactic check can see this (the supply row is
/// optional); only the reachability argument catches the stale serve,
/// attributing it to the read rules that fired.
#[test]
fn a_dropped_supply_rule_is_caught_as_a_stale_serve() {
    let mut table = ir::kind_table(ProtocolKind::Rb);
    let position = rule_position(
        &table,
        Some(LineState::Local),
        TableInput::Supply,
        Guard::Always,
    );
    table.rules.remove(position);

    let analysis = analyze(&table, false);
    assert!(!analysis.proved(), "mutant passed the analyzer");
    let stale_serves: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| {
            d.check == CheckKind::InvariantPreservation
                && d.message.contains("stale")
                && d.rule.is_some()
        })
        .collect();
    assert!(
        !stale_serves.is_empty(),
        "no rule-attributed staleness diagnostic: {:?}",
        analysis.diagnostics
    );
}

/// Mutant 3 — **non-total guard**: MESI's `NP --own:BR` fill loses its
/// `[other-readable]` branch, leaving the guarded pair half-covered.
/// The analyzer must refuse the table *syntactically* (before any
/// exploration could panic), naming the cell and the missing branch.
#[test]
fn a_half_covered_guard_pair_is_caught_by_name() {
    let mut table = ir::mesi();
    let position = rule_position(
        &table,
        None,
        TableInput::OwnComplete(decache_core::BusIntent::Read),
        Guard::OtherReadableHolder,
    );
    table.rules.remove(position);

    let analysis = analyze(&table, true);
    assert!(!analysis.proved(), "mutant passed the analyzer");
    assert_eq!(
        analysis.abstract_states, 0,
        "syntactically broken table must not be explored"
    );
    let totality: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.check == CheckKind::Totality)
        .collect();
    assert!(
        totality.iter().any(|d| {
            d.rule.as_deref() == Some("NP --own:BR") && d.message.contains("other-readable")
        }),
        "no totality diagnostic names NP --own:BR's missing branch: {totality:?}"
    );
}

/// Mutant 4 — **duplicate rule**: two unconditional rules on one cell
/// is ambiguity the interpreter would resolve arbitrarily; the analyzer
/// must flag determinism, again without exploring.
#[test]
fn a_duplicate_rule_is_caught_as_nondeterminism() {
    let mut table = ir::kind_table(ProtocolKind::WriteThrough);
    table.rules.push(Rule {
        from: Some(LineState::Valid),
        input: TableInput::CpuRead,
        guard: Guard::Always,
        effect: Effect::Hit {
            next: LineState::Valid,
        },
    });
    table.normalize();

    let analysis = analyze(&table, true);
    assert!(!analysis.proved());
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.check == CheckKind::Determinism && d.rule.as_deref() == Some("V --CR")),
        "no determinism diagnostic names V --CR: {:?}",
        analysis.diagnostics
    );
}

/// Mutant 5 — **asymmetric guard**: a configuration guard on a snoop
/// row cannot be evaluated PE-symmetrically (the controller samples
/// sharers only on its own fill); the symmetry check must name it.
#[test]
fn a_guard_outside_the_fill_is_caught_as_asymmetric() {
    let mut table = ir::kind_table(ProtocolKind::Rb);
    let position = rule_position(
        &table,
        Some(LineState::Readable),
        TableInput::Snoop(SnoopKind::Write),
        Guard::Always,
    );
    table.rules[position].guard = Guard::NoOtherReadableHolder;
    table.rules.push(Rule {
        guard: Guard::OtherReadableHolder,
        ..table.rules[position]
    });
    table.normalize();

    let analysis = analyze(&table, false);
    assert!(!analysis.proved());
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.check == CheckKind::Symmetry && d.message.contains("own-completion")),
        "no symmetry diagnostic: {:?}",
        analysis.diagnostics
    );
}

/// Mutant 6 — **undeclared target**: RB's write hit on an owned line
/// (`L --CW`, fired by every repeated private write) is sent to the
/// RWB first-write state `F`, which RB does not declare. The
/// well-formedness pass must name the rule, as it would for a rule
/// leaving an undeclared state.
#[test]
fn a_rule_to_an_undeclared_state_is_caught_by_name() {
    let mut table = ir::kind_table(ProtocolKind::Rb);
    assert!(!table.states.contains(&LineState::FirstWrite(1)));
    let position = rule_position(
        &table,
        Some(LineState::Local),
        TableInput::CpuWrite,
        Guard::Always,
    );
    table.rules[position].effect = Effect::Hit {
        next: LineState::FirstWrite(1),
    };

    let analysis = analyze(&table, false);
    assert!(!analysis.proved(), "mutant passed the analyzer");
    let named: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.check == CheckKind::WellFormed && d.rule.as_deref() == Some("L --CW"))
        .collect();
    assert!(
        named.iter().any(|d| d.message.contains("target state F")),
        "no well-formedness diagnostic names L --CW: {:?}",
        analysis.diagnostics
    );
}
