//! The static protocol-analysis gate: per-rule proofs without
//! state-space exploration over any fixed `n`.
//!
//! This module orchestrates the per-rule analyzer ([`analyze`]) into
//! the workspace's CI story. Where [`crate::ProductChecker`] explores the
//! exact product machine for `n ∈ {2, 3, 4}`, [`check_kind`] proves
//! totality, determinism, PE-symmetry, and invariant preservation
//! **for all n at once** from the protocol's rule table, via the
//! counting-abstraction small-model argument (see [`analyze`]).
//!
//! Because the abstraction over-approximates reachability at every
//! `n`, a statically dead rule is dead in every explored product
//! machine (the `static_dead_rules_subsume_…` test pins that
//! inclusion). The converse does not hold, so the product checker's
//! fixed-`n` lint ([`crate::lint`]) is not implied and keeps its own
//! gate. The committed per-protocol dead set lives in
//! `static_baseline.txt`; the `protocol_lint` binary fails CI on any
//! deviation.

pub use crate::analyze::{analyze, Analysis, CheckKind, Diagnostic};
use decache_core::ir::kind_table;
use decache_core::ProtocolKind;

/// The committed statically-dead rule baseline. One line per protocol:
/// `NAME: rule-id; rule-id; …`. Regenerate with
/// `cargo run -p decache-bench --bin protocol_lint -- --print-baseline`.
const STATIC_BASELINE: &str = include_str!("static_baseline.txt");

/// Every protocol the static gate proves and the verifiers' tests
/// check: the paper's seven schemes plus the table-defined MESI.
pub const ANALYZED_KINDS: [ProtocolKind; 8] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

/// Whether the analyzer, the product checker and the conformance
/// oracle accept the *intermediate* configuration class for this
/// protocol. RB proves the stronger shared-or-local lemma; everything
/// with a first-write-style state (RWB's `F`, write-once's and MESI's
/// exclusive-clean) needs intermediate.
pub fn allow_intermediate(kind: ProtocolKind) -> bool {
    !matches!(kind, ProtocolKind::Rb | ProtocolKind::RbNoBroadcast)
}

/// Statically analyzes the table the machine runs for one protocol kind
/// ([`kind_table`]) at its canonical legality class
/// ([`allow_intermediate`]).
pub fn check_kind(kind: ProtocolKind) -> Analysis {
    analyze(&kind_table(kind), allow_intermediate(kind))
}

/// This analysis's baseline line: `NAME: rule-id; rule-id; …`.
pub fn baseline_line(analysis: &Analysis) -> String {
    format!("{}: {}", analysis.protocol, analysis.dead_rules.join("; "))
}

/// Looks up the committed statically-dead baseline for a protocol (by
/// display name). `None` if the protocol has no committed line — the
/// CI gate treats that as a failure, forcing new protocols to commit a
/// baseline.
pub fn committed_static_baseline(protocol_name: &str) -> Option<Vec<String>> {
    for line in STATIC_BASELINE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, entries)) = line.split_once(':') else {
            continue;
        };
        if name.trim() == protocol_name {
            return Some(
                entries
                    .split(';')
                    .map(|e| e.trim().to_owned())
                    .filter(|e| !e.is_empty())
                    .collect(),
            );
        }
    }
    None
}

/// Dead rules in this analysis the baseline does not expect — the
/// regressions the CI gate fails on.
pub fn new_dead_versus(analysis: &Analysis, baseline: &[String]) -> Vec<String> {
    analysis
        .dead_rules
        .iter()
        .filter(|id| !baseline.iter().any(|b| b == *id))
        .cloned()
        .collect()
}

/// Baseline entries no longer dead — improvements worth a refresh, but
/// the gate fails on them too so the baseline can never drift.
pub fn fixed_versus(analysis: &Analysis, baseline: &[String]) -> Vec<String> {
    baseline
        .iter()
        .filter(|b| !analysis.dead_rules.iter().any(|id| id == *b))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProductChecker;
    use std::collections::BTreeSet;

    #[test]
    fn the_analyzer_proves_all_eight_protocols() {
        for kind in ANALYZED_KINDS {
            let analysis = check_kind(kind);
            assert!(analysis.proved(), "{kind}: {:?}", analysis.diagnostics);
            assert!(
                analysis.unreachable_states.is_empty(),
                "{kind}: unreachable {:?}",
                analysis.unreachable_states
            );
            assert!(analysis.abstract_states > 1, "{kind}: vacuous exploration");
        }
    }

    #[test]
    fn every_kind_matches_its_committed_static_baseline() {
        for kind in ANALYZED_KINDS {
            let analysis = check_kind(kind);
            let baseline = committed_static_baseline(&analysis.protocol)
                .unwrap_or_else(|| panic!("{kind}: no committed static baseline"));
            assert_eq!(
                new_dead_versus(&analysis, &baseline),
                Vec::<String>::new(),
                "{kind}: new dead rules (regenerate static_baseline.txt if intended)"
            );
            assert_eq!(
                fixed_versus(&analysis, &baseline),
                Vec::<String>::new(),
                "{kind}: stale baseline entries (regenerate static_baseline.txt)"
            );
        }
    }

    /// The subsumption theorem behind retiring the dynamic coverage
    /// lint: the abstraction over-approximates reachability at every
    /// `n`, so every rule that fires in the explored `n = 3` product
    /// machine also fires abstractly — statically dead ⊆ dynamically
    /// dead. (The converse need not hold; the abstraction may fire
    /// rules no small `n` can.)
    #[test]
    fn static_dead_rules_subsume_the_dynamic_coverage_lint() {
        for kind in ANALYZED_KINDS {
            let analysis = check_kind(kind);
            let checker = ProductChecker::new(kind, 3);
            let report = checker.explore();
            assert!(report.holds());
            let lint = checker.lint(&report);
            let dynamic_dead: BTreeSet<String> =
                lint.dead.iter().map(ToString::to_string).collect();
            for id in &analysis.dead_rules {
                // Rule ids extend the lint's cell keys with a guard
                // suffix; strip it for the comparison.
                let key = id.split(" [").next().unwrap_or(id);
                assert!(
                    dynamic_dead.contains(key),
                    "{kind}: statically dead rule {id} fired in the n=3 product machine"
                );
            }
        }
    }
}
