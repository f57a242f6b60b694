//! Dead-transition lint: static coverage of a protocol's transition
//! table under exhaustive product-machine exploration.
//!
//! While the checker explores the per-address product machine, a
//! [`Coverage`] recorder notes every `(state, input)` table cell the
//! exploration exercises. Comparing that against the table's transition
//! domain ([`RuleTable::domain`], with each optional `supply` cell kept
//! iff it has a rule) yields a lint report: states the protocol declares
//! but never reaches, table rows that exist but can never fire, and rows
//! whose compiled cell is empty or misshapen (non-total tables).
//!
//! [`RuleTable::domain`]: decache_core::ir::RuleTable::domain
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

use decache_core::ir::{SnoopKind, TableInput, TransitionKey};
use decache_core::{AnyProtocol, LineState, Protocol};
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
    /// Domain cells with no rule, or a rule of the wrong shape —
    /// non-total tables.
    pub non_total: Vec<TransitionKey>,
}

impl LintReport {
    /// `true` iff the table is total over the explored domain.
    pub fn is_total(&self) -> bool {
        self.non_total.is_empty()
    }

    /// The dead cells, rendered as stable entries (`"L --snoop:BR"`).
    pub fn dead_rendered(&self) -> Vec<String> {
        self.dead.iter().map(ToString::to_string).collect()
    }
}

/// Builds the lint report for a protocol from exploration coverage.
/// `evictions`/`test_and_set` restrict the domain to the events the
/// checker actually generated, so disabled event families do not show
/// up as dead.
pub(crate) fn build_report(
    protocol: &AnyProtocol,
    coverage: &Coverage,
    n: usize,
    evictions: bool,
    test_and_set: bool,
) -> LintReport {
    let effect = |key: TransitionKey| protocol.cell_effect(key.state, key.input, true);
    let mut domain: Vec<TransitionKey> = protocol
        .table()
        .domain()
        .into_iter()
        .filter(|cell| cell.required || effect(cell.key).is_some())
        .map(|cell| cell.key)
        .filter(|key| {
            test_and_set
                || !matches!(
                    key.input,
                    TableInput::OwnLockedRead
                        | TableInput::OwnUnlockWrite
                        | TableInput::Snoop(SnoopKind::LockedRead | SnoopKind::UnlockWrite)
                )
        })
        .filter(|key| evictions || key.input != TableInput::Evict)
        .collect();
    domain.sort();

    let mut dead = Vec::new();
    let mut non_total = Vec::new();
    let mut fired = 0usize;
    for &key in &domain {
        if coverage.has_fired(key.state, key.input) {
            fired += 1;
        } else if !effect(key).is_some_and(|e| key.input.accepts(e)) {
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

    use crate::static_check::ANALYZED_KINDS as KINDS;
    use crate::ProductChecker;
    use decache_core::ProtocolKind;

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
