//! State-transition-diagram extraction (Figures 3-1 and 5-1).
//!
//! The paper presents each scheme as a per-line state transition diagram
//! whose edges are labelled with the triggering request (`CR`, `CW`,
//! `BR`, `BW`, `BI`) and a modifier describing the side action (generate
//! a bus write, interrupt and supply, ...). [`transition_table`] recovers
//! that diagram mechanically from a protocol's compiled rule table, and
//! [`to_dot`] renders it as Graphviz DOT — this is how the `figure_3_1`
//! and `figure_5_1` experiment binaries regenerate the figures, and how
//! tests pin every edge.

use crate::ir::{Effect, SnoopKind, TableInput, TableProtocol, TransitionKey};
use crate::{LineState, Protocol};
use std::fmt;

/// The stimulus labels of the figures' legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stimulus {
    /// `CR` — CPU read request.
    CpuRead,
    /// `CW` — CPU write request.
    CpuWrite,
    /// `BR` — a foreign bus read (snooped).
    BusRead,
    /// `BW` — a foreign bus write (snooped).
    BusWrite,
    /// `BI` — a foreign bus invalidate (snooped; RWB only).
    BusInvalidate,
}

impl Stimulus {
    /// All stimuli in legend order.
    pub const ALL: [Stimulus; 5] = [
        Stimulus::CpuRead,
        Stimulus::CpuWrite,
        Stimulus::BusRead,
        Stimulus::BusWrite,
        Stimulus::BusInvalidate,
    ];
}

impl fmt::Display for Stimulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stimulus::CpuRead => write!(f, "CR"),
            Stimulus::CpuWrite => write!(f, "CW"),
            Stimulus::BusRead => write!(f, "BR"),
            Stimulus::BusWrite => write!(f, "BW"),
            Stimulus::BusInvalidate => write!(f, "BI"),
        }
    }
}

/// One edge of the state transition diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionRow {
    /// Source state.
    pub from: LineState,
    /// The triggering request.
    pub stimulus: Stimulus,
    /// Destination state.
    pub to: LineState,
    /// The figure's "modifier": the side action taken during the
    /// transition (empty when none). Matches the legends of Figures 3-1
    /// and 5-1: "generate a BW (write through)", "interrupt BR and supply
    /// the data from the cache", "generate a BR (cache miss)",
    /// "generate a BI".
    pub modifier: String,
}

impl fmt::Display for TransitionRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.modifier.is_empty() {
            write!(f, "{} --{}--> {}", self.from, self.stimulus, self.to)
        } else {
            write!(
                f,
                "{} --{} [{}]--> {}",
                self.from, self.stimulus, self.modifier, self.to
            )
        }
    }
}

/// Extracts the complete per-line state transition diagram of a protocol
/// from its compiled cells: one row per held state of the table's
/// [domain](crate::ir::RuleTable::domain) and per stimulus of the
/// figures (`BI` only where the domain has it).
///
/// For CPU requests that miss, the destination is the state after the
/// protocol's own bus transaction completes, and the modifier names the
/// generated transaction — exactly the convention of the paper's figures.
/// A snooped bus read of a supplying state shows the supply, as the
/// figures do ("interrupt BR and supply the data").
///
/// # Panics
///
/// Panics if a diagram cell has no rule, or an eviction effect.
pub fn transition_table(protocol: &TableProtocol) -> Vec<TransitionRow> {
    let mut rows = Vec::new();
    for cell in protocol.table().domain() {
        let TransitionKey {
            state: Some(from),
            input,
        } = cell.key
        else {
            continue;
        };
        let stimulus = match input {
            TableInput::CpuRead => Stimulus::CpuRead,
            TableInput::CpuWrite => Stimulus::CpuWrite,
            TableInput::Snoop(SnoopKind::Read) => Stimulus::BusRead,
            TableInput::Snoop(SnoopKind::Write) => Stimulus::BusWrite,
            TableInput::Snoop(SnoopKind::Invalidate) => Stimulus::BusInvalidate,
            _ => continue,
        };
        let input = if stimulus == Stimulus::BusRead && protocol.supplies_on_snoop_read(from) {
            TableInput::Supply
        } else {
            input
        };
        let effect = protocol
            .cell_effect(Some(from), input, true)
            .unwrap_or_else(|| panic!("{}: no rule for {from} --{input}", protocol.name()));
        let (to, modifier) = match effect {
            Effect::Hit { next }
            | Effect::Next {
                next,
                capture: false,
            } => (next, String::new()),
            Effect::Next {
                next,
                capture: true,
            } => (next, "capture data".to_owned()),
            Effect::Issue { intent } => (
                protocol.own_complete(Some(from), intent),
                format!("generate {intent}"),
            ),
            Effect::Supply { next } => (next, "interrupt BR, supply data".to_owned()),
            Effect::Evict { .. } => panic!("{}: {from} --{input} evicts", protocol.name()),
        };
        rows.push(TransitionRow {
            from,
            stimulus,
            to,
            modifier,
        });
    }
    rows
}

/// Renders a transition table as a Graphviz DOT digraph.
///
/// # Examples
///
/// ```
/// use decache_core::{to_dot, transition_table, AnyProtocol, ProtocolKind};
/// let dot = to_dot("RB", &transition_table(&AnyProtocol::build(ProtocolKind::Rb)));
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("R -> L"));
/// ```
pub fn to_dot(title: &str, rows: &[TransitionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph \"{title}\" {{\n"));
    out.push_str("  rankdir=LR;\n  node [shape=circle];\n");
    for row in rows {
        let label = if row.modifier.is_empty() {
            row.stimulus.to_string()
        } else {
            format!("{} / {}", row.stimulus, row.modifier)
        };
        out.push_str(&format!(
            "  {} -> {} [label=\"{}\"];\n",
            row.from, row.to, label
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyProtocol, ProtocolKind};
    use LineState::{FirstWrite, Invalid, Local, Readable};

    fn find(rows: &[TransitionRow], from: LineState, stimulus: Stimulus) -> &TransitionRow {
        rows.iter()
            .find(|r| r.from == from && r.stimulus == stimulus)
            .unwrap_or_else(|| panic!("no row for {from} on {stimulus}"))
    }

    #[test]
    fn rb_table_matches_figure_3_1() {
        let rows = transition_table(&AnyProtocol::build(ProtocolKind::Rb));
        // 3 states x 4 stimuli (no BI edge for RB).
        assert_eq!(rows.len(), 12);

        // The nine transitions of Figure 3-1:
        assert_eq!(find(&rows, Readable, Stimulus::CpuRead).to, Readable);
        let r = find(&rows, Readable, Stimulus::CpuWrite);
        assert_eq!(r.to, Local);
        assert_eq!(r.modifier, "generate BW");
        assert_eq!(find(&rows, Readable, Stimulus::BusRead).to, Readable);
        assert_eq!(find(&rows, Readable, Stimulus::BusWrite).to, Invalid);

        let r = find(&rows, Invalid, Stimulus::CpuRead);
        assert_eq!(r.to, Readable);
        assert_eq!(r.modifier, "generate BR");
        let r = find(&rows, Invalid, Stimulus::CpuWrite);
        assert_eq!(r.to, Local);
        assert_eq!(r.modifier, "generate BW");
        let r = find(&rows, Invalid, Stimulus::BusRead);
        assert_eq!(r.to, Readable);
        assert_eq!(r.modifier, "capture data");
        assert_eq!(find(&rows, Invalid, Stimulus::BusWrite).to, Invalid);

        assert_eq!(find(&rows, Local, Stimulus::CpuRead).to, Local);
        assert_eq!(find(&rows, Local, Stimulus::CpuWrite).to, Local);
        let r = find(&rows, Local, Stimulus::BusRead);
        assert_eq!(r.to, Readable);
        assert_eq!(r.modifier, "interrupt BR, supply data");
        assert_eq!(find(&rows, Local, Stimulus::BusWrite).to, Invalid);
    }

    #[test]
    fn rwb_table_matches_figure_5_1() {
        let rows = transition_table(&AnyProtocol::build(ProtocolKind::Rwb));
        // 4 states x 5 stimuli (BI included).
        assert_eq!(rows.len(), 20);

        let r = find(&rows, Readable, Stimulus::CpuWrite);
        assert_eq!(r.to, FirstWrite(1));
        assert_eq!(r.modifier, "generate BW");

        let r = find(&rows, FirstWrite(1), Stimulus::CpuWrite);
        assert_eq!(r.to, Local);
        assert_eq!(r.modifier, "generate BI");

        assert_eq!(
            find(&rows, FirstWrite(1), Stimulus::CpuRead).to,
            FirstWrite(1)
        );
        assert_eq!(
            find(&rows, FirstWrite(1), Stimulus::BusRead).to,
            FirstWrite(1)
        );
        let r = find(&rows, FirstWrite(1), Stimulus::BusWrite);
        assert_eq!(r.to, Readable);
        assert_eq!(r.modifier, "capture data");
        assert_eq!(
            find(&rows, FirstWrite(1), Stimulus::BusInvalidate).to,
            Invalid
        );

        let r = find(&rows, Readable, Stimulus::BusWrite);
        assert_eq!(r.to, Readable);
        assert_eq!(r.modifier, "capture data");

        assert_eq!(find(&rows, Local, Stimulus::BusInvalidate).to, Invalid);
        assert_eq!(find(&rows, Invalid, Stimulus::BusInvalidate).to, Invalid);
    }

    #[test]
    fn write_once_has_no_capture_edges() {
        let rows = transition_table(&AnyProtocol::build(ProtocolKind::WriteOnce));
        assert!(rows.iter().all(|r| r.modifier != "capture data"));
    }

    #[test]
    fn dot_output_is_wellformed() {
        let rows = transition_table(&AnyProtocol::build(ProtocolKind::Rb));
        let dot = to_dot("RB", &rows);
        assert!(dot.starts_with("digraph \"RB\" {"));
        assert!(dot.trim_end().ends_with('}'));
        // One edge line per row.
        assert_eq!(dot.matches(" -> ").count(), rows.len());
    }

    #[test]
    fn row_display_is_readable() {
        let rows = transition_table(&AnyProtocol::build(ProtocolKind::Rb));
        let r = find(&rows, Invalid, Stimulus::CpuRead);
        assert_eq!(r.to_string(), "I --CR [generate BR]--> R");
        let r = find(&rows, Readable, Stimulus::CpuRead);
        assert_eq!(r.to_string(), "R --CR--> R");
    }

    #[test]
    fn stimulus_display() {
        let labels: Vec<String> = Stimulus::ALL
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(labels, vec!["CR", "CW", "BR", "BW", "BI"]);
    }
}
