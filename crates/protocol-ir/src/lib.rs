//! # decache-protocol-ir
//!
//! Protocols as provable data: the guarded-action rule compiler and the
//! **per-rule static analyzer**.
//!
//! The IR itself ([`decache_core::ir`]) and the hand-written tables live
//! in the core crate, because the machine executes every protocol from
//! its table; this crate holds everything that reasons *about* tables:
//!
//! * [`compile`] — derives a [`RuleTable`] for any [`Protocol`]
//!   implementation by probing its `transition_domain`, turning the
//!   hand-coded Rust state machines into data;
//! * [`hand_table`] (re-exported from [`decache_core::ir`]) —
//!   independent, hand-written declarative tables for the paper's seven
//!   schemes, cross-checked against [`compile`] so a transcription slip
//!   in either direction fails a test;
//! * [`analyze`] — the static analyzer: totality, determinism,
//!   PE-symmetry, and coherence-invariant preservation proven over a
//!   **counting abstraction** whose `Many` element covers every cache
//!   count `n` at once (the small-model argument), plus dead-rule and
//!   unreachable-state detection that subsumes the old coverage lint.
//!
//! `decache_verify::static_check` orchestrates these into the CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod compile;

pub use analyze::{analyze, Analysis, CheckKind, Diagnostic};
pub use compile::compile;
pub use decache_core::ir::hand_table;

use decache_core::ir::RuleTable;
use decache_core::ProtocolKind;

/// The rule table for a protocol kind: MESI's native IR table, or the
/// compiled form of a hand-coded protocol.
pub fn table_for(kind: ProtocolKind) -> RuleTable {
    match kind {
        ProtocolKind::Mesi => decache_core::ir::mesi(),
        _ => compile(kind.build().as_ref()),
    }
}

/// Whether the analyzer (like the product checker) should accept the
/// *intermediate* configuration class for this protocol. RB proves the
/// stronger shared-or-local lemma; everything with a first-write-style
/// state (RWB's `F`, write-once's and MESI's exclusive-clean) needs
/// intermediate.
pub fn allow_intermediate(kind: ProtocolKind) -> bool {
    !matches!(kind, ProtocolKind::Rb | ProtocolKind::RbNoBroadcast)
}

/// Analyzer defaults for [`table_for`]: [`analyze`] at the kind's
/// legality class.
pub fn analyze_kind(kind: ProtocolKind) -> Analysis {
    analyze(&table_for(kind), allow_intermediate(kind))
}
