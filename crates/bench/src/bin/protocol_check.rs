//! The protocol static-analysis gate: exhaustive product-machine
//! reachability plus the dead-transition lint, for every protocol at
//! every supported checker configuration.
//!
//! Runs all eight protocol variants × `n ∈ {2, 3, 4}` × every
//! combination of {evictions on/off, Test-and-Set on/off} (96 cases,
//! fanned across threads).
//!
//! Exits non-zero — failing CI — if any case violates the Section 4
//! lemma/theorem (printing the reconstructed witness trace), if any
//! transition table is non-total over its explored domain, or if any
//! declared state is unreachable.
//!
//! The dead-rule baseline lives with the **static** analyzer
//! (`protocol_lint`, pinned by `crates/verify/src/static_baseline.txt`;
//! regenerate it with `protocol_lint --print-baseline <path>`). Its
//! statically dead rules are dead in every machine explored here, but
//! not the converse, so this checker's fixed-`n` totality and
//! unreachable-state gate is not implied by the analyzer.

use decache_analysis::TextTable;
use decache_bench::{banner, par};
use decache_core::ProtocolKind;
use decache_verify::{LintReport, ProductChecker, ProductReport};
use std::process::ExitCode;

/// The eight protocol variants the workspace checks everywhere.
const KINDS: [ProtocolKind; 8] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

/// One checker configuration to explore and lint.
#[derive(Debug, Clone, Copy)]
struct Case {
    kind: ProtocolKind,
    n: usize,
    evictions: bool,
    test_and_set: bool,
}

impl Case {
    fn checker(self) -> ProductChecker {
        let mut checker = ProductChecker::new(self.kind, self.n);
        if !self.evictions {
            checker = checker.without_evictions();
        }
        if !self.test_and_set {
            checker = checker.without_test_and_set();
        }
        checker
    }
}

struct Outcome {
    case: Case,
    report: ProductReport,
    lint: LintReport,
}

fn run(case: &Case) -> Outcome {
    let checker = case.checker();
    let report = checker.explore();
    let lint = checker.lint(&report);
    Outcome {
        case: *case,
        report,
        lint,
    }
}

fn main() -> ExitCode {
    let mut cases = Vec::new();
    for kind in KINDS {
        for n in [2usize, 3, 4] {
            for evictions in [true, false] {
                for test_and_set in [true, false] {
                    cases.push(Case {
                        kind,
                        n,
                        evictions,
                        test_and_set,
                    });
                }
            }
        }
    }
    let outcomes = par::run_cases(&cases, run);

    banner(
        "Protocol static analysis",
        "reachability (lemma & theorem) + dead-transition lint, all configurations",
    );

    let mut table = TextTable::new(vec![
        "protocol",
        "n",
        "evict",
        "TS",
        "states",
        "fired/domain",
        "dead",
        "verdict",
    ]);
    let mut failures = Vec::new();
    for outcome in &outcomes {
        let Outcome { case, report, lint } = outcome;
        let mut problems = Vec::new();
        if !report.holds() {
            problems.push(format!("{} violations", report.violations.len()));
        }
        if !lint.is_total() {
            problems.push(format!("non-total: {}", lint.non_total.len()));
        }
        if !lint.unreachable_states.is_empty() {
            problems.push(format!("unreachable: {:?}", lint.unreachable_states));
        }
        let verdict = if problems.is_empty() {
            "ok".to_owned()
        } else {
            problems.join("; ")
        };
        table.row(vec![
            case.kind.to_string(),
            case.n.to_string(),
            if case.evictions { "+" } else { "-" }.to_owned(),
            if case.test_and_set { "+" } else { "-" }.to_owned(),
            report.states.to_string(),
            format!("{}/{}", lint.fired, lint.domain),
            lint.dead.len().to_string(),
            verdict.clone(),
        ]);
        if verdict != "ok" {
            failures.push(format!(
                "{} n={} evict={} ts={}: {verdict}",
                case.kind, case.n, case.evictions, case.test_and_set
            ));
            if let Some(witness) = &report.witness {
                println!("counterexample for {} (n={}):", case.kind, case.n);
                println!("{witness}");
            }
        }
    }
    println!("{table}");
    println!("dead-rule baseline: see protocol_lint (static analyzer gate)");

    if failures.is_empty() {
        println!("\nprotocol_check: all {} cases ok", outcomes.len());
        ExitCode::SUCCESS
    } else {
        println!("\nprotocol_check: {} failure(s):", failures.len());
        for failure in &failures {
            println!("  {failure}");
        }
        ExitCode::FAILURE
    }
}
