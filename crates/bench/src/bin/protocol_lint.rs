//! The static protocol-analyzer gate: per-rule proofs for every
//! protocol, without state-space exploration at any fixed `n`.
//!
//! For each of the eight protocols (the paper's seven schemes plus
//! MESI), runs `decache_verify::static_check`: the rule table the
//! machine runs (`decache_core::ir::kind_table`) is proven total,
//! deterministic, and PE-symmetric per rule, and the coherence
//! invariants are proven preserved **for all cache counts at once** via
//! the counting-abstraction small-model argument. Statically dead rules are compared against the committed
//! baseline in `crates/verify/src/static_baseline.txt`.
//!
//! Exits non-zero — failing CI — on any analyzer diagnostic, any
//! unreachable declared state, a missing baseline line, or any dead-set
//! deviation from the baseline (new dead rules *or* stale entries).
//!
//! `--print-baseline` prints a fresh baseline file to stdout instead
//! (redirect it over `static_baseline.txt` after an intentional
//! change); `--print-baseline <path>` writes it straight to `<path>`
//! crash-safely (tmp + rename), so an interrupted regeneration can
//! never truncate the committed baseline.

use decache_analysis::TextTable;
use decache_bench::{banner, par};
use decache_verify::static_check::{
    self, baseline_line, committed_static_baseline, fixed_versus, new_dead_versus, Analysis,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let print_baseline = args.iter().position(|a| a == "--print-baseline");
    let analyses: Vec<Analysis> = par::run_cases(&static_check::ANALYZED_KINDS, |kind| {
        static_check::check_kind(*kind)
    });

    if let Some(flag_at) = print_baseline {
        let mut text = String::new();
        text.push_str("# Statically-dead rule baseline: one line per protocol, from the\n");
        text.push_str("# per-rule static analyzer (counting abstraction, all n at once).\n");
        text.push_str("# Regenerate with:\n");
        text.push_str("#   cargo run -p decache-bench --bin protocol_lint -- --print-baseline\n");
        for analysis in &analyses {
            text.push_str(&baseline_line(analysis));
            text.push('\n');
        }
        match args.get(flag_at + 1).filter(|a| !a.starts_with("--")) {
            Some(path) => {
                // Land the regenerated baseline via tmp + rename so an
                // interrupted run cannot truncate the committed file.
                decache_telemetry::write_atomic(path, text.as_bytes())
                    .unwrap_or_else(|e| panic!("writing baseline to {path}: {e}"));
                println!("baseline written to {path}");
            }
            None => print!("{text}"),
        }
        return ExitCode::SUCCESS;
    }

    banner(
        "Static protocol analysis",
        "per-rule totality/determinism/symmetry + invariant preservation for all n",
    );

    let mut table = TextTable::new(vec![
        "protocol",
        "rules",
        "abstract states",
        "dead",
        "unreachable",
        "verdict",
    ]);
    let mut failures = Vec::new();
    for (kind, analysis) in static_check::ANALYZED_KINDS.iter().zip(&analyses) {
        let rules = decache_core::ir::kind_table(*kind).rules.len();
        let mut problems = Vec::new();
        if !analysis.proved() {
            problems.push(format!("{} diagnostics", analysis.diagnostics.len()));
            for diagnostic in &analysis.diagnostics {
                failures.push(format!("{}: {diagnostic}", analysis.protocol));
            }
        }
        if !analysis.unreachable_states.is_empty() {
            problems.push(format!("unreachable: {:?}", analysis.unreachable_states));
            failures.push(format!(
                "{}: unreachable states {:?}",
                analysis.protocol, analysis.unreachable_states
            ));
        }
        match committed_static_baseline(&analysis.protocol) {
            None => {
                problems.push("no baseline".to_owned());
                failures.push(format!(
                    "{}: no committed static baseline line — add one with --print-baseline",
                    analysis.protocol
                ));
            }
            Some(baseline) => {
                for id in new_dead_versus(analysis, &baseline) {
                    problems.push(format!("new dead: {id}"));
                    failures.push(format!("{}: new dead rule {id}", analysis.protocol));
                }
                for id in fixed_versus(analysis, &baseline) {
                    problems.push(format!("stale: {id}"));
                    failures.push(format!(
                        "{}: baseline rule {id} is no longer dead — regenerate",
                        analysis.protocol
                    ));
                }
            }
        }
        let verdict = if problems.is_empty() {
            "proved".to_owned()
        } else {
            problems.join("; ")
        };
        table.row(vec![
            analysis.protocol.clone(),
            rules.to_string(),
            analysis.abstract_states.to_string(),
            analysis.dead_rules.len().to_string(),
            analysis.unreachable_states.len().to_string(),
            verdict,
        ]);
    }
    println!("{table}");

    if failures.is_empty() {
        println!("protocol_lint: all {} protocols proved", analyses.len());
        ExitCode::SUCCESS
    } else {
        println!("protocol_lint: {} failure(s):", failures.len());
        for failure in &failures {
            println!("  {failure}");
        }
        ExitCode::FAILURE
    }
}
