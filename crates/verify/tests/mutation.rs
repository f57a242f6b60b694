//! Mutation testing of the model checker: deliberately broken protocols
//! must be *caught* by the product machine. A checker that passes
//! everything proves nothing; these tests show each invariant has teeth
//! — and that every catch comes with a reconstructed shortest witness
//! trace naming the violated invariant.
//!
//! Each mutant is the paper's rule table with one decision edited, run
//! through the same compiled executor as the healthy protocol.

use decache_core::ir::{hand_table, Effect, RuleTable, SnoopKind, TableInput};
use decache_core::{AnyProtocol, LineState, Protocol, ProtocolKind, SnoopEvent, SnoopOutcome};
use decache_verify::{Invariant, ProductChecker, ProductReport};
use LineState::{FirstWrite, Local, Readable};

const READS: [TableInput; 2] = [
    TableInput::Snoop(SnoopKind::Read),
    TableInput::Snoop(SnoopKind::LockedRead),
];
const WRITE: [TableInput; 1] = [TableInput::Snoop(SnoopKind::Write)];
const UNLOCK: [TableInput; 1] = [TableInput::Snoop(SnoopKind::UnlockWrite)];

fn unchanged(state: LineState) -> Effect {
    Effect::Next {
        next: state,
        capture: false,
    }
}

/// The nine mutants, each the paper's RB or RWB table (by name prefix)
/// with one decision broken; the tests below say what each bug is and
/// how the checker catches it. A row rewrites the effect of one state
/// on each listed input, and the two `-supply` mutants also delete
/// `L`'s supply rule. Every edit must hit a rule and change it, so a
/// mutant cannot silently equal health.
fn mutants() -> Vec<(ProtocolKind, RuleTable)> {
    let drop = Effect::Evict { writeback: false };
    let claim = Effect::Hit { next: Local };
    let own = Effect::Next {
        next: Local,
        capture: true,
    };
    let edits: [(&str, LineState, &[TableInput], Effect); 9] = [
        (
            "RB-broken-no-invalidate",
            Readable,
            &WRITE,
            unchanged(Readable),
        ),
        ("RB-broken-no-writeback", Local, &[TableInput::Evict], drop),
        ("RB-broken-no-supply", Local, &READS, unchanged(Local)),
        ("RB-broken-double-owner", Local, &WRITE, unchanged(Local)),
        (
            "RWB-broken-skip-bi",
            FirstWrite(1),
            &[TableInput::CpuWrite],
            claim,
        ),
        ("RB-broken-snoop-read-local", Readable, &READS, own),
        (
            "RWB-broken-no-capture",
            Readable,
            &WRITE,
            unchanged(Readable),
        ),
        (
            "RB-broken-stale-unlock",
            Readable,
            &UNLOCK,
            unchanged(Readable),
        ),
        // L's snoop arm already folds a bypassed supply to a captured R.
        ("RB-broken-ghost-supply", Local, &[], own),
    ];
    edits
        .into_iter()
        .map(|(name, from, inputs, effect)| {
            let kind = if name.starts_with("RWB") {
                ProtocolKind::Rwb
            } else {
                ProtocolKind::Rb
            };
            let mut table = hand_table(kind).expect("a paper scheme");
            table.name = name.to_owned();
            for &input in inputs {
                let rule = table
                    .rules
                    .iter_mut()
                    .find(|r| r.from == Some(from) && r.input == input)
                    .unwrap_or_else(|| panic!("{name}: no rule for {from} --{input}"));
                assert_ne!(rule.effect, effect, "{name}: {rule} already");
                rule.effect = effect;
            }
            if name.ends_with("-supply") {
                let before = table.rules.len();
                table
                    .rules
                    .retain(|r| !(r.from == Some(Local) && r.input == TableInput::Supply));
                assert_eq!(table.rules.len() + 1, before, "{name}: no supply rule");
            }
            (kind, table)
        })
        .collect()
}

fn mutant(name: &str) -> RuleTable {
    mutants()
        .into_iter()
        .map(|(_, table)| table)
        .find(|table| table.name == name)
        .unwrap_or_else(|| panic!("no mutant {name}"))
}

fn explore(table: RuleTable, allow_intermediate: bool, n: usize) -> ProductReport {
    ProductChecker::from_table(AnyProtocol::new(table), allow_intermediate, n).explore()
}

/// Asserts a mutant is caught *and* produces a well-formed witness: a
/// non-empty shortest event trace ending in the named invariant, whose
/// message matches the first recorded violation.
fn assert_caught(report: &ProductReport, invariant: Invariant) -> usize {
    assert!(!report.holds(), "the checker must catch this mutant");
    let witness = report
        .witness
        .as_ref()
        .expect("every violation must reconstruct a witness");
    assert_eq!(
        witness.invariant, invariant,
        "wrong invariant; witness:\n{witness}"
    );
    assert!(
        witness.depth() > 0,
        "a bug cannot hold in the initial state"
    );
    assert_eq!(
        witness.message, report.violations[0],
        "the witness must explain the first violation"
    );
    let rendered = witness.to_string();
    assert!(rendered.contains(invariant.name()));
    assert!(rendered.contains("start"));
    witness.depth()
}

// ----------------------------------------------------------------------
// The original RB mutants (one broken decision each).
// ----------------------------------------------------------------------

#[test]
fn healthy_rb_passes() {
    let report = explore(hand_table(ProtocolKind::Rb).unwrap(), false, 3);
    assert!(report.holds(), "{:?}", report.violations);
    assert!(report.witness.is_none());
}

#[test]
fn missing_invalidate_is_caught() {
    // THE BUG: a readable holder ignores foreign writes, keeping a stale
    // copy readable.
    let report = explore(mutant("RB-broken-no-invalidate"), false, 3);
    assert!(
        report.violations.iter().any(|v| v.contains("stale")),
        "violations: {:?}",
        report.violations
    );
    // The stale R copy survives alongside the writer's new L copy, so
    // the *shortest* counterexample is the resulting R+L configuration.
    assert_caught(&report, Invariant::IllegalConfiguration);
}

#[test]
fn missing_writeback_is_caught() {
    // THE BUG: Local lines are dropped without flushing, losing the
    // latest value.
    let report = explore(mutant("RB-broken-no-writeback"), false, 2);
    assert!(
        report.violations.iter().any(|v| v.contains("stale memory")),
        "violations: {:?}",
        report.violations
    );
    assert_caught(&report, Invariant::NoOwnerStaleMemory);
}

#[test]
fn missing_supply_is_caught() {
    // THE BUG: the owner never interrupts foreign reads, so they are
    // served from stale memory; it keeps L as if memory had served them.
    let report = explore(mutant("RB-broken-no-supply"), false, 2);
    // The owner keeps L while the reader installs R — the configuration
    // breaks one event before the stale memory would be served.
    assert_caught(&report, Invariant::IllegalConfiguration);
}

#[test]
fn double_owner_is_caught_as_illegal_configuration() {
    // THE BUG: a Local holder survives a foreign write as Local,
    // creating two owners (violating the lemma's configuration claim).
    let report = explore(mutant("RB-broken-double-owner"), false, 2);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("illegal configuration")),
        "violations: {:?}",
        report.violations
    );
    assert_caught(&report, Invariant::IllegalConfiguration);
}

// ----------------------------------------------------------------------
// RWB-family bugs and witness-depth checks.
// ----------------------------------------------------------------------

#[test]
fn rwb_skipping_the_bus_invalidate_is_caught() {
    // THE BUG: the threshold write that should broadcast BI instead
    // completes silently in the cache — other caches keep readable
    // copies while the writer privately owns the line.
    let report = explore(mutant("RWB-broken-skip-bi"), true, 3);
    let depth = assert_caught(&report, Invariant::IllegalConfiguration);
    // Shortest trace: P_a write (F1), P_b read (R), P_a write (silent L).
    assert_eq!(depth, 3, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn rb_installing_local_on_snooped_read_is_caught() {
    // THE BUG: a readable holder "upgrades" to Local when it snoops a
    // foreign read broadcast — a reader manufactures ownership.
    let report = explore(mutant("RB-broken-snoop-read-local"), false, 2);
    let depth = assert_caught(&report, Invariant::IllegalConfiguration);
    // Shortest trace: P_a read (R), P_b read (R + bogus L).
    assert_eq!(depth, 2, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn rwb_dropping_the_write_broadcast_capture_is_caught() {
    // THE BUG: readable holders see the foreign bus write but do not
    // capture the broadcast data, keeping a stale copy readable — the
    // defining RWB behaviour ("the caches also note the data part of
    // the bus writes", Section 5), silently disabled.
    let report = explore(mutant("RWB-broken-no-capture"), true, 2);
    let depth = assert_caught(&report, Invariant::StaleReadableCopy);
    // Shortest trace: P_a read (R), P_b write (BW leaves the stale R).
    assert_eq!(depth, 2, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn rb_ignoring_the_unlock_write_is_caught() {
    // THE BUG: readable holders treat a foreign unlocking write (a
    // successful Test-and-Set's second half) as harmless, surviving the
    // transition to the local configuration.
    let report = explore(mutant("RB-broken-stale-unlock"), false, 2);
    let depth = assert_caught(&report, Invariant::IllegalConfiguration);
    assert!(
        depth <= 3,
        "witness longer than the obvious read/lock/commit trace:\n{}",
        report.witness.as_ref().unwrap()
    );
}

#[test]
fn rb_faking_the_supply_refresh_is_caught_serving_stale_memory() {
    // THE BUG: the owner stops interrupting foreign reads but demotes
    // itself as if the broadcast had refreshed everyone — so the read
    // is served from memory that was never made current.
    let report = explore(mutant("RB-broken-ghost-supply"), false, 2);
    let depth = assert_caught(&report, Invariant::StaleMemoryServed);
    // Shortest trace: P_a write (L, memory current), P_a write again
    // (silent hit, memory now stale), P_b read served from memory.
    assert_eq!(depth, 3, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn mutants_actually_differ_from_healthy() {
    let mutants = mutants();
    assert_eq!(mutants.len(), 9);
    for (kind, mutant) in mutants {
        let healthy = hand_table(kind).expect("a paper scheme");
        assert_ne!(mutant.name, healthy.name, "a mutant carries its own name");
        assert_eq!(mutant.states, healthy.states, "{}", mutant.name);
        assert_ne!(mutant.rules, healthy.rules, "{} equals health", mutant.name);
    }

    let healthy = AnyProtocol::build(ProtocolKind::Rb);
    let no_invalidate = AnyProtocol::new(mutant("RB-broken-no-invalidate"));
    let e = SnoopEvent::Write(decache_mem::Word::ONE);
    assert_eq!(
        no_invalidate.snoop(Readable, e),
        SnoopOutcome {
            next: Readable,
            capture: false
        }
    );
    assert_ne!(healthy.snoop(Readable, e), no_invalidate.snoop(Readable, e));
    // Unedited rules keep the healthy behaviour.
    assert_eq!(healthy.snoop(Local, e), no_invalidate.snoop(Local, e));
    assert!(no_invalidate.supplies_on_snoop_read(Local));
    assert!(no_invalidate.writeback_on_evict(Local));
    assert!(!no_invalidate.uses_bus_invalidate());
    let ghost = AnyProtocol::new(mutant("RB-broken-ghost-supply"));
    assert!(!ghost.supplies_on_snoop_read(Local));
    let rwb_mutant = AnyProtocol::new(mutant("RWB-broken-no-capture"));
    assert!(rwb_mutant.uses_bus_invalidate());
    assert!(rwb_mutant.broadcasts_write_data());
}
