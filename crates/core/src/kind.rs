//! Value-level protocol selection for experiment sweeps.

use crate::ir;
use crate::AnyProtocol;
use std::fmt;

/// Names one of the built-in coherence protocols; used to configure
/// machines and to sweep protocols in experiments.
///
/// # Examples
///
/// ```
/// use decache_core::{Protocol, ProtocolKind};
///
/// let protocol = ProtocolKind::Rwb.build();
/// assert_eq!(protocol.name(), "RWB");
/// for kind in ProtocolKind::ALL {
///     let _ = kind.build();
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The RB scheme (Section 3).
    Rb,
    /// RB with read broadcasting disabled (ablation A3).
    RbNoBroadcast,
    /// The RWB scheme with the paper's default threshold `k = 2`
    /// (Section 5).
    Rwb,
    /// RWB with an explicit locality threshold (footnote 6; ablation A1).
    RwbThreshold(u8),
    /// Goodman's write-once baseline.
    WriteOnce,
    /// Plain write-through-invalidate baseline.
    WriteThrough,
    /// The MESI protocol, defined purely as guarded-action IR data
    /// ([`crate::ir::mesi`]) and executed from its compiled table like
    /// every other protocol — no dedicated engine code.
    Mesi,
}

impl ProtocolKind {
    /// The four headline protocols compared by experiment E13.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Rb,
        ProtocolKind::Rwb,
        ProtocolKind::WriteOnce,
        ProtocolKind::WriteThrough,
    ];

    /// Compiles the protocol's rule table ([`ir::kind_table`]) into the
    /// dense executor the machine, the verifiers and the conformance
    /// oracle all run ([`AnyProtocol::build`]).
    ///
    /// # Panics
    ///
    /// Panics if a [`ProtocolKind::RwbThreshold`] value is outside
    /// `1..=`[`ir::MAX_K`].
    pub fn build(self) -> AnyProtocol {
        AnyProtocol::build(self)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Names live in one place: the protocol's rule table.
        write!(f, "{}", ir::kind_table(*self).name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    #[test]
    fn build_produces_the_named_protocol() {
        assert_eq!(ProtocolKind::Rb.build().name(), "RB");
        assert_eq!(
            ProtocolKind::RbNoBroadcast.build().name(),
            "RB-no-broadcast"
        );
        assert_eq!(ProtocolKind::Rwb.build().name(), "RWB");
        assert_eq!(ProtocolKind::RwbThreshold(3).build().name(), "RWB(k=3)");
        assert_eq!(ProtocolKind::WriteOnce.build().name(), "write-once");
        assert_eq!(ProtocolKind::WriteThrough.build().name(), "write-through");
        assert_eq!(ProtocolKind::Mesi.build().name(), "MESI");
    }

    #[test]
    fn display_matches_protocol_name() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.to_string(), kind.build().name());
        }
    }

    #[test]
    fn all_contains_distinct_protocols() {
        let names: std::collections::HashSet<String> =
            ProtocolKind::ALL.iter().map(|k| k.build().name()).collect();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
    }
}
