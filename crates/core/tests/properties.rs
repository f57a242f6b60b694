//! Seeded randomized tests of the protocol state machines: invariants
//! that must hold for *every* protocol, every state, and every
//! stimulus. Exhaustive over protocols and states; randomized only over
//! data values and snoop events.

use decache_core::ir::{Effect, SnoopKind, TableInput};
use decache_core::{transition_table, CpuOutcome, LineState, Protocol, ProtocolKind, SnoopEvent};
use decache_mem::Word;
use decache_rng::{testing::check, Rng};

/// Every protocol variant under test, including the historical
/// `RwbThreshold(1)` regression (the proptest-era shrink case).
const PROTOCOLS: [ProtocolKind; 9] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(2),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::RwbThreshold(4),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
];

fn gen_snoop_event(rng: &mut Rng) -> SnoopEvent {
    let w = Word::new(rng.next_u64());
    match rng.gen_range(0u8..5) {
        0 => SnoopEvent::Read(w),
        1 => SnoopEvent::Write(w),
        2 => SnoopEvent::Invalidate,
        3 => SnoopEvent::LockedRead(w),
        _ => SnoopEvent::UnlockWrite(w),
    }
}

/// "A reference to an item not in the cache behaves exactly as if it
/// were in the invalid state" (Section 3) — for every protocol, every
/// `NP` cell of its domain holds the `I` cell's effect, under both guard
/// bits.
#[test]
fn not_present_is_equivalent_to_invalid() {
    for kind in PROTOCOLS {
        let p = kind.build();
        for key in p.table().domain().into_iter().map(|cell| cell.key) {
            if key.state.is_none() {
                for other_readable in [false, true] {
                    assert_eq!(
                        p.cell_effect(None, key.input, other_readable),
                        p.cell_effect(Some(LineState::Invalid), key.input, other_readable),
                        "{kind}: {key} (other_readable={other_readable})"
                    );
                }
            }
        }
    }
}

/// Every snoop reaction lands in a state the protocol declares, and all
/// protocol entry points are closed over the declared state set.
#[test]
fn protocols_are_closed_over_their_state_sets() {
    check("protocols_are_closed_over_their_state_sets", 32, |rng| {
        let event = gen_snoop_event(rng);
        for kind in PROTOCOLS {
            let p = kind.build();
            if event == SnoopEvent::Invalidate && !p.uses_bus_invalidate() {
                // No cache of a protocol without BI ever issues one, so
                // its table has no BI rows.
                continue;
            }
            let states = p.states();
            for &s in &states {
                if !p.supplies_on_snoop_read(s)
                    || !matches!(event, SnoopEvent::Read(_) | SnoopEvent::LockedRead(_))
                {
                    let out = p.snoop(s, event);
                    assert!(
                        states.contains(&out.next),
                        "{}: snoop {s:?} x {event:?} -> undeclared {:?}",
                        p.name(),
                        out.next
                    );
                }
                match p.cpu_read(Some(s)) {
                    CpuOutcome::Hit { next } => assert!(states.contains(&next)),
                    CpuOutcome::Miss { intent } => {
                        assert!(states.contains(&p.own_complete(Some(s), intent)));
                    }
                }
                match p.cpu_write(Some(s)) {
                    CpuOutcome::Hit { next } => assert!(states.contains(&next)),
                    CpuOutcome::Miss { intent } => {
                        assert!(states.contains(&p.own_complete(Some(s), intent)));
                    }
                }
                if p.supplies_on_snoop_read(s) {
                    assert!(states.contains(&p.after_supply(s)));
                }
            }
            assert!(states.contains(&p.own_locked_read_complete(None)));
            assert!(states.contains(&p.own_unlock_write_complete(None)));
        }
    });
}

/// A foreign invalidate or write never leaves a stale-readable window:
/// afterwards the holder is either invalid or captured the new data.
/// Exhaustive over each table's domain (decisions never read the word).
#[test]
fn foreign_writes_never_leave_stale_readable_copies() {
    for kind in PROTOCOLS {
        let p = kind.build();
        for key in p.table().domain().into_iter().map(|cell| cell.key) {
            let TableInput::Snoop(
                SnoopKind::Write | SnoopKind::UnlockWrite | SnoopKind::Invalidate,
            ) = key.input
            else {
                continue;
            };
            let Some(Effect::Next { next, capture }) = p.cell_effect(key.state, key.input, true)
            else {
                panic!("{kind}: {key} is not a transition");
            };
            assert!(
                !next.is_readable_locally() || capture,
                "{kind}: {key} -> readable {next} without capture"
            );
        }
    }
}

/// Suppliers are exactly the states that own the latest value; only
/// those states require write-back on eviction. (A readable,
/// memory-consistent line must never be flushed or supplied.)
#[test]
fn supply_and_writeback_align_with_ownership() {
    for kind in PROTOCOLS {
        let p = kind.build();
        for &s in &p.states() {
            assert_eq!(
                p.supplies_on_snoop_read(s),
                s.owns_latest(),
                "{}: state {:?}",
                p.name(),
                s
            );
            assert_eq!(
                p.writeback_on_evict(s),
                s.owns_latest(),
                "{}: state {:?}",
                p.name(),
                s
            );
        }
    }
}

/// Local silent writes are only permitted in owning states: a write
/// that completes without bus activity must leave the line as the
/// unique up-to-date copy.
#[test]
fn silent_writes_imply_ownership_or_prior_ownership() {
    for kind in PROTOCOLS {
        let p = kind.build();
        for &s in &p.states() {
            if let CpuOutcome::Hit { next } = p.cpu_write(Some(s)) {
                assert!(
                    next.owns_latest(),
                    "{}: silent write in {s:?} leaves non-owning {next:?}",
                    p.name()
                );
            }
        }
    }
}

/// CPU reads never change the data and never reach the bus from a
/// readable state.
#[test]
fn reads_from_readable_states_are_free() {
    for kind in PROTOCOLS {
        let p = kind.build();
        for &s in &p.states() {
            if s.is_readable_locally() {
                assert!(
                    matches!(p.cpu_read(Some(s)), CpuOutcome::Hit { .. }),
                    "{}: read missed in readable {s:?}",
                    p.name()
                );
            }
        }
    }
}

/// The diagram extractor covers exactly (states x CPU stimuli) plus
/// snooped stimuli, and every edge it reports is reproducible.
#[test]
fn transition_tables_are_complete_and_deterministic() {
    for kind in PROTOCOLS {
        let p = kind.build();
        let rows = transition_table(&p);
        let per_state = if p.uses_bus_invalidate() { 5 } else { 4 };
        assert_eq!(rows.len(), p.states().len() * per_state);
        // Deterministic: extracting twice yields identical rows.
        assert_eq!(rows, transition_table(&p));
    }
}

/// Only RWB captures write data; only RB-family protocols capture read
/// data.
#[test]
fn capture_capabilities_match_documentation() {
    for kind in PROTOCOLS {
        let p = kind.build();
        let writes_captured = p
            .states()
            .iter()
            .any(|&s| p.snoop(s, SnoopEvent::Write(Word::ONE)).capture);
        assert_eq!(writes_captured, p.broadcasts_write_data(), "{}", p.name());
    }
}

/// Non-randomized: the three-state RB machine is exactly the paper's.
#[test]
fn rb_state_count_matches_paper() {
    assert_eq!(ProtocolKind::Rb.build().states().len(), 3);
    assert_eq!(ProtocolKind::Rwb.build().states().len(), 4);
    assert_eq!(ProtocolKind::WriteOnce.build().states().len(), 4);
    assert_eq!(ProtocolKind::WriteThrough.build().states().len(), 2);
}
