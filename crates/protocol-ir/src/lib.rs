//! # decache-protocol-ir
//!
//! Protocols as provable data: the **per-rule static analyzer**.
//!
//! The IR itself ([`decache_core::ir`]) and every protocol's rule table
//! ([`decache_core::ir::kind_table`], with [`hand_table`] re-exported
//! for the paper's schemes) live in the core crate, because the machine
//! executes every protocol from its table; this crate proves those same
//! tables:
//!
//! * [`analyze`] — the static analyzer: totality, determinism,
//!   PE-symmetry, and coherence-invariant preservation proven over a
//!   **counting abstraction** whose `Many` element covers every cache
//!   count `n` at once (the small-model argument), plus dead-rule and
//!   unreachable-state detection. A statically dead rule is dead in
//!   every explored product machine, but not the converse, so the
//!   product checker's fixed-`n` lint in `decache-verify` still runs.
//!
//! `decache_verify::static_check` orchestrates the analyzer into the CI
//! gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;

pub use analyze::{analyze, Analysis, CheckKind, Diagnostic};
pub use decache_core::ir::hand_table;

use decache_core::ir::kind_table;
use decache_core::ProtocolKind;

/// Whether the analyzer (like the product checker) should accept the
/// *intermediate* configuration class for this protocol. RB proves the
/// stronger shared-or-local lemma; everything with a first-write-style
/// state (RWB's `F`, write-once's and MESI's exclusive-clean) needs
/// intermediate.
pub fn allow_intermediate(kind: ProtocolKind) -> bool {
    !matches!(kind, ProtocolKind::Rb | ProtocolKind::RbNoBroadcast)
}

/// Analyzer defaults for a built-in protocol: [`analyze`] of the table
/// the machine runs ([`kind_table`]) at the kind's legality class.
pub fn analyze_kind(kind: ProtocolKind) -> Analysis {
    analyze(&kind_table(kind), allow_intermediate(kind))
}
