//! Golden tests: the rendered synchronization figures, pinned verbatim.
//!
//! These are the strongest regression guard in the repository — any
//! change to the protocols, the machine's cycle semantics, or the
//! scenario conductor that alters a single cell of a published figure
//! fails here with a readable diff.

use decache::core::ProtocolKind;
use decache::sync::{Primitive, SyncScenario};

fn rendered(protocol: ProtocolKind, primitive: Primitive) -> String {
    SyncScenario::new(protocol, primitive).run().render()
}

#[test]
fn figure_6_1_golden() {
    let expected = "\
P1    P2    P3    S     Observation
R(0)  R(0)  R(0)  0     Initial State
I(-)  L(1)  I(-)  1     P2 Locks S
R(1)  R(1)  R(1)  1     Others try to get S (TS)
R(1)  R(1)  R(1)  1     Others keep trying (TS spin)
I(-)  L(0)  I(-)  0     P2 releases S
L(1)  I(-)  I(-)  1     P1 gets the S
R(1)  R(1)  R(1)  1     Others try to get S
";
    assert_eq!(rendered(ProtocolKind::Rb, Primitive::TestAndSet), expected);
}

#[test]
fn figure_6_2_golden() {
    let expected = "\
P1    P2    P3    S     Observation
R(0)  R(0)  R(0)  0     Initial State
I(-)  L(1)  I(-)  1     P2 Locks S
R(1)  R(1)  R(1)  1     Others test S (first test)
R(1)  R(1)  R(1)  1     Others spin on S (in cache)
I(-)  L(0)  I(-)  0     P2 releases S
R(0)  R(0)  R(0)  0     A Bus Read to S
L(1)  I(-)  I(-)  1     P1 gets the S
R(1)  R(1)  R(1)  1     Others try to get S
";
    assert_eq!(
        rendered(ProtocolKind::Rb, Primitive::TestAndTestAndSet),
        expected
    );
}

#[test]
fn figure_6_3_golden() {
    // Note: the S column is the *memory* word; after "P2 releases S" the
    // latest value (0) lives in P2's L line while memory still shows 1 —
    // faithful RWB semantics (see EXPERIMENTS.md).
    let expected = "\
P1    P2    P3    S     Observation
R(0)  R(0)  R(0)  0     Initial State
R(1)  F(1)  R(1)  1     P2 Locks S
R(1)  F(1)  R(1)  1     Others test S (first test)
R(1)  F(1)  R(1)  1     Others spin on S (in cache)
I(-)  L(0)  I(-)  1     P2 releases S
R(0)  R(0)  R(0)  0     A Bus Read to S
F(1)  R(1)  R(1)  1     P1 gets the S
F(1)  R(1)  R(1)  1     Others try to get S
";
    assert_eq!(
        rendered(ProtocolKind::Rwb, Primitive::TestAndTestAndSet),
        expected
    );
}

#[test]
fn figure_3_1_transition_table_golden() {
    use decache::core::{transition_table, AnyProtocol};
    let rows: Vec<String> = transition_table(&AnyProtocol::build(ProtocolKind::Rb))
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let expected = vec![
        "I --CR [generate BR]--> R",
        "I --CW [generate BW]--> L",
        "I --BR [capture data]--> R",
        "I --BW--> I",
        "R --CR--> R",
        "R --CW [generate BW]--> L",
        "R --BR--> R",
        "R --BW--> I",
        "L --CR--> L",
        "L --CW--> L",
        "L --BR [interrupt BR, supply data]--> R",
        "L --BW--> I",
    ];
    assert_eq!(rows, expected);
}

#[test]
fn figure_5_1_transition_table_golden() {
    use decache::core::{transition_table, AnyProtocol};
    let rows: Vec<String> = transition_table(&AnyProtocol::build(ProtocolKind::Rwb))
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let expected = vec![
        "I --CR [generate BR]--> R",
        "I --CW [generate BW]--> F",
        "I --BR [capture data]--> R",
        "I --BW [capture data]--> R",
        "I --BI--> I",
        "R --CR--> R",
        "R --CW [generate BW]--> F",
        "R --BR--> R",
        "R --BW [capture data]--> R",
        "R --BI--> I",
        "F --CR--> F",
        "F --CW [generate BI]--> L",
        "F --BR--> F",
        "F --BW [capture data]--> R",
        "F --BI--> I",
        "L --CR--> L",
        "L --CW--> L",
        "L --BR [interrupt BR, supply data]--> R",
        "L --BW [capture data]--> R",
        "L --BI--> I",
    ];
    assert_eq!(rows, expected);
}
