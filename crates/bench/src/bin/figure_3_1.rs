//! E2 — regenerates **Figure 3-1: State Transition Diagram for each
//! Cache Entry for the RB Scheme**, as a transition table and Graphviz
//! DOT, from the RB rule table the machine runs.

use decache_bench::banner;
use decache_core::{to_dot, transition_table, AnyProtocol, ProtocolKind};

fn main() {
    banner("RB per-line state transition diagram", "Figure 3-1");

    let rb = AnyProtocol::build(ProtocolKind::Rb);
    let rows = transition_table(&rb);
    println!("transitions ({}):", rows.len());
    for row in &rows {
        println!("  {row}");
    }
    println!();
    println!("legend: CW/CR = CPU write/read request, BW/BR = bus write/read request");
    println!();
    println!("Graphviz DOT:");
    println!("{}", to_dot("RB (Figure 3-1)", &rows));
}
