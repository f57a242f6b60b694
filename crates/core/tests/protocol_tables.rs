//! The rule tables every protocol runs from, pinned byte for byte.
//!
//! `tests/golden/protocol_tables.txt` renders all fourteen built-in
//! tables (the six named paper kinds, MESI and RWB at every threshold
//! `k = 1..=8`): one flags line per table, then one line per source
//! state listing every rule as `input [guard] => effect`. Any edit to a
//! table, intended or not, shows up here as a readable diff; together
//! with the Figure 3-1/5-1 goldens, the product checker and the static
//! analyzer it is the transcription check on the tables.
//!
//! Regenerate after an intentional change with
//! `DECACHE_TABLES_PRINT=1 cargo test -p decache-core --test protocol_tables`.

use decache_core::ir::{kind_table, Guard, RuleTable, TableProtocol, MAX_K};
use decache_core::{LineState, Protocol, ProtocolKind};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Every table the machine can run, in golden order.
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

fn letters(states: &[LineState]) -> String {
    let names: Vec<String> = states.iter().map(ToString::to_string).collect();
    names.join(" ")
}

fn state_name(state: Option<LineState>) -> String {
    state.map_or_else(|| "NP".to_owned(), |s| s.to_string())
}

/// The source states that have rules, in canonical rule order.
fn sources(table: &RuleTable) -> Vec<Option<LineState>> {
    let mut sources = Vec::new();
    for rule in &table.rules {
        if !sources.contains(&rule.from) {
            sources.push(rule.from);
        }
    }
    sources
}

/// One table's golden block: its flags, then its rules by source state.
fn render(kind: ProtocolKind) -> String {
    let table = kind_table(kind);
    let compiled = TableProtocol::new(table.clone());
    let supplying = table.supplying_states();
    let mut out = String::new();
    writeln!(
        out,
        "{kind:?} flags: name={} states=[{}] supplying=[{}] uses_bus_invalidate={} \
         broadcasts_write_data={} fill_depends_on_sharers={} snoops_never_create_suppliers={}",
        table.name,
        letters(&table.states),
        letters(&supplying),
        table.uses_bus_invalidate,
        table.broadcasts_write_data,
        compiled.fill_depends_on_sharers(),
        compiled.snoops_never_create_suppliers(),
    )
    .unwrap();
    for from in sources(&table) {
        let rules: Vec<String> = table
            .rules
            .iter()
            .filter(|r| r.from == from)
            .map(|r| match r.guard {
                Guard::Always => format!("{} => {}", r.input, r.effect.render()),
                guard => format!("{} [{guard}] => {}", r.input, r.effect.render()),
            })
            .collect();
        writeln!(out, "{kind:?} {}: {}", state_name(from), rules.join(" | ")).unwrap();
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/protocol_tables.txt")
}

#[test]
fn protocol_tables_match_the_committed_golden() {
    let text: String = kinds().into_iter().map(render).collect();
    let path = golden_path();
    if std::env::var("DECACHE_TABLES_PRINT").is_ok() {
        std::fs::write(&path, &text).expect("writing the table golden");
        println!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e} (regenerate with DECACHE_TABLES_PRINT=1)",
            path.display()
        )
    });
    for (line, (got, want)) in text.lines().zip(committed.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", line + 1);
    }
    assert_eq!(text, committed, "the table golden changed length");
}
