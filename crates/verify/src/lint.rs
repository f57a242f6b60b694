//! Dead-transition lint: static coverage of a protocol's transition
//! table under exhaustive product-machine exploration.
//!
//! While the checker explores the per-address product machine, a
//! [`Coverage`] recorder notes every `(state, input)` table cell the
//! exploration exercises. Comparing that against the full table domain
//! (from [`decache_core::introspect`]) yields a lint report: states the
//! protocol declares but never reaches, table rows that exist but can
//! never fire, and rows whose handling panics (non-total tables).
//!
//! Dead rows are not bugs by themselves — e.g. RB's `L --snoop:BR`
//! totality arm cannot fire because a legal configuration has at most
//! one owner and the owner intercepts the read *before* the broadcast.
//! They are, however, exactly the rows a regression can silently grow:
//! a protocol change that makes a previously-live row dead (or adds new
//! dead rows) changes reachable behaviour. The expected dead set is
//! pinned by the **static** analyzer baseline in `static_baseline.txt`
//! (see [`crate::static_check`]). The inclusion runs one way only:
//! every statically dead rule is dead here at every `n`, but a row dead
//! at a fixed `n` may still fire abstractly. So the analyzer does not
//! imply this lint's fixed-`n` totality and unreachable-state findings,
//! and the `protocol_check` gate still runs it over every table.

use decache_core::introspect::{probe_outcome, transition_domain, TableInput, TransitionKey};
use decache_core::{introspect::SnoopKind, LineState, Protocol};
use std::collections::BTreeSet;

/// Records which transition-table cells fired during an exploration.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    fired: BTreeSet<TransitionKey>,
    seen: Vec<LineState>,
}

impl Coverage {
    /// Notes that the table cell `(state, input)` fired.
    pub(crate) fn record(&mut self, state: Option<LineState>, input: TableInput) {
        self.fired.insert(TransitionKey { state, input });
    }

    /// Notes that some reachable product state contains a cell in
    /// `state`.
    pub(crate) fn see_state(&mut self, state: LineState) {
        if !self.seen.contains(&state) {
            self.seen.push(state);
        }
    }

    /// Whether the cell `(state, input)` ever fired.
    pub fn has_fired(&self, state: Option<LineState>, input: TableInput) -> bool {
        self.fired.contains(&TransitionKey { state, input })
    }

    /// Whether any reachable product state contains a cell in `state`.
    pub fn state_reached(&self, state: LineState) -> bool {
        self.seen.contains(&state)
    }

    /// The number of distinct cells that fired.
    pub fn fired_count(&self) -> usize {
        self.fired.len()
    }
}

/// The dead-transition lint result for one protocol at one checker
/// configuration.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The protocol's display name (the baseline key).
    pub protocol: String,
    /// The number of caches explored.
    pub n: usize,
    /// The size of the (configuration-restricted) table domain.
    pub domain: usize,
    /// How many domain cells fired during exploration.
    pub fired: usize,
    /// Declared states no reachable product state ever contains.
    pub unreachable_states: Vec<LineState>,
    /// Domain cells that are handled (total) but never fire.
    pub dead: Vec<TransitionKey>,
    /// Domain cells whose handling panics — non-total tables.
    pub non_total: Vec<TransitionKey>,
}

impl LintReport {
    /// `true` iff the table is total over the explored domain.
    pub fn is_total(&self) -> bool {
        self.non_total.is_empty()
    }

    /// The dead cells, rendered as stable baseline entries.
    pub fn dead_rendered(&self) -> Vec<String> {
        self.dead.iter().map(ToString::to_string).collect()
    }

    /// This report's baseline line: `NAME: entry; entry; …`.
    pub fn baseline_line(&self) -> String {
        format!("{}: {}", self.protocol, self.dead_rendered().join("; "))
    }

    /// Dead entries in this report that the baseline does not expect —
    /// the regressions a CI gate fails on.
    pub fn new_dead_versus(&self, baseline: &[String]) -> Vec<String> {
        self.dead_rendered()
            .into_iter()
            .filter(|e| !baseline.iter().any(|b| b == e))
            .collect()
    }

    /// Baseline entries that are no longer dead — improvements worth a
    /// baseline refresh, but not failures.
    pub fn fixed_versus(&self, baseline: &[String]) -> Vec<String> {
        let dead = self.dead_rendered();
        baseline
            .iter()
            .filter(|b| !dead.iter().any(|e| e == *b))
            .cloned()
            .collect()
    }
}

/// Builds the lint report for a protocol from exploration coverage.
/// `evictions`/`test_and_set` restrict the domain to the events the
/// checker actually generated, so disabled event families do not show
/// up as dead.
pub(crate) fn build_report(
    protocol: &dyn Protocol,
    coverage: &Coverage,
    n: usize,
    evictions: bool,
    test_and_set: bool,
) -> LintReport {
    let mut domain = transition_domain(protocol);
    if !test_and_set {
        domain.retain(|k| {
            !matches!(
                k.input,
                TableInput::OwnLockedRead
                    | TableInput::OwnUnlockWrite
                    | TableInput::Snoop(SnoopKind::LockedRead | SnoopKind::UnlockWrite)
            )
        });
    }
    if !evictions {
        domain.retain(|k| k.input != TableInput::Evict);
    }

    let mut dead = Vec::new();
    let mut non_total = Vec::new();
    let mut fired = 0usize;
    for &key in &domain {
        if coverage.has_fired(key.state, key.input) {
            fired += 1;
        } else if probe_outcome(protocol, key).is_none() {
            non_total.push(key);
        } else {
            dead.push(key);
        }
    }
    let unreachable_states = protocol
        .states()
        .into_iter()
        .filter(|&s| !coverage.state_reached(s))
        .collect();

    LintReport {
        protocol: protocol.name(),
        n,
        domain: domain.len(),
        fired,
        unreachable_states,
        dead,
        non_total,
    }
}

#[cfg(test)]
mod tests {

    use crate::ProductChecker;
    use decache_core::ProtocolKind;

    /// The seven protocol variants the workspace checks everywhere.
    const KINDS: [ProtocolKind; 7] = [
        ProtocolKind::Rb,
        ProtocolKind::RbNoBroadcast,
        ProtocolKind::Rwb,
        ProtocolKind::RwbThreshold(1),
        ProtocolKind::RwbThreshold(3),
        ProtocolKind::WriteOnce,
        ProtocolKind::WriteThrough,
    ];

    #[test]
    fn every_kind_is_total_and_reaches_all_states_at_the_canonical_config() {
        for kind in KINDS {
            let checker = ProductChecker::new(kind, 3);
            let report = checker.explore();
            assert!(report.holds());
            let lint = checker.lint(&report);
            assert!(lint.is_total(), "{kind}: non-total {:?}", lint.non_total);
            assert!(
                lint.unreachable_states.is_empty(),
                "{kind}: unreachable {:?}",
                lint.unreachable_states
            );
        }
    }

    #[test]
    fn every_kind_fires_most_of_its_table() {
        // The lint is only meaningful if exploration exercises the bulk
        // of the table; a protocol firing under half its rows would mean
        // the event generator lost a whole family of events.
        for kind in KINDS {
            let checker = ProductChecker::new(kind, 3);
            let report = checker.explore();
            let lint = checker.lint(&report);
            assert!(
                lint.fired * 2 > lint.domain,
                "{kind}: only {}/{} rows fired",
                lint.fired,
                lint.domain
            );
        }
    }

    #[test]
    fn disabling_event_families_shrinks_the_domain_not_the_dead_set() {
        let full = ProductChecker::new(ProtocolKind::Rb, 3);
        let full_lint = full.lint(&full.explore());
        let plain = ProductChecker::new(ProtocolKind::Rb, 3)
            .without_test_and_set()
            .without_evictions();
        let plain_lint = plain.lint(&plain.explore());
        assert!(plain_lint.domain < full_lint.domain);
        // Restricting events must not surface them as dead rows.
        for entry in plain_lint.dead_rendered() {
            assert!(
                !entry.contains("BRL") && !entry.contains("BWU") && !entry.contains("evict"),
                "restricted domain leaked {entry}"
            );
        }
    }
}
