//! E3 — regenerates **Figure 5-1: State Transition Diagram for each
//! Cache Entry for the RWB Scheme**, including the bus-invalidate (BI)
//! edges, as a transition table and Graphviz DOT, from the RWB rule
//! tables the machine runs.

use decache_bench::banner;
use decache_core::{to_dot, transition_table, AnyProtocol, Protocol, ProtocolKind};

fn main() {
    banner("RWB per-line state transition diagram", "Figure 5-1");

    // The paper's expository threshold, k = 2.
    let rwb = AnyProtocol::build(ProtocolKind::Rwb);
    let rows = transition_table(&rwb);
    println!("transitions ({}), k = 2:", rows.len());
    for row in &rows {
        println!("  {row}");
    }
    println!();
    println!("legend: CW/CR = CPU write/read, BW/BR = bus write/read, BI = bus invalidate");
    println!();
    println!("Graphviz DOT:");
    println!("{}", to_dot("RWB (Figure 5-1)", &rows));

    // Footnote 6 generalization: higher thresholds add F states.
    for k in [3u8, 4] {
        let rwb = AnyProtocol::build(ProtocolKind::RwbThreshold(k));
        println!(
            "k = {k}: states {:?}",
            rwb.states()
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
}
