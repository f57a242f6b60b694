//! The declarative tables of every built-in protocol: the paper's seven
//! schemes and MESI.
//!
//! The paper's schemes are transcribed from Figures 3-1 and 5-1 (and the
//! baselines' published descriptions). These tables are each protocol's
//! only definition; `crates/core/tests/golden/protocol_tables.txt` pins
//! every rule, and the figure goldens, the product checker and the
//! static analyzer check what they mean.

use super::{Effect, Guard, Rule, RuleTable, SnoopKind, TableInput, MAX_K};
use crate::{BusIntent, LineState, ProtocolKind};
use LineState::{Dirty, FirstWrite, Invalid, Local, Readable, Reserved, Valid};

/// Accumulates rules; [`Builder::rule`] adds [`Guard::Always`] rules
/// (the paper's schemes are guard-free).
struct Builder {
    rules: Vec<Rule>,
}

impl Builder {
    fn new() -> Self {
        Builder { rules: Vec::new() }
    }

    fn rule(&mut self, from: Option<LineState>, input: TableInput, effect: Effect) {
        self.guarded(from, input, Guard::Always, effect);
    }

    fn guarded(
        &mut self,
        from: Option<LineState>,
        input: TableInput,
        guard: Guard,
        effect: Effect,
    ) {
        self.rules.push(Rule {
            from,
            input,
            guard,
            effect,
        });
    }

    /// The same own-completion outcome from every from-state (the paper
    /// protocols' completions are state-independent except RWB's `BW`).
    fn own_all(&mut self, states: &[Option<LineState>], input: TableInput, next: LineState) {
        for &from in states {
            self.rule(
                from,
                input,
                Effect::Next {
                    next,
                    capture: false,
                },
            );
        }
    }

    fn snoop(&mut self, from: LineState, kinds: &[SnoopKind], next: LineState, capture: bool) {
        for &kind in kinds {
            self.rule(
                Some(from),
                TableInput::Snoop(kind),
                Effect::Next { next, capture },
            );
        }
    }

    fn finish(
        self,
        name: &str,
        states: Vec<LineState>,
        uses_bus_invalidate: bool,
        broadcasts_write_data: bool,
    ) -> RuleTable {
        let mut table = RuleTable {
            name: name.to_owned(),
            states,
            uses_bus_invalidate,
            broadcasts_write_data,
            rules: self.rules,
        };
        table.normalize();
        table
    }
}

const READS: [SnoopKind; 2] = [SnoopKind::Read, SnoopKind::LockedRead];
const WRITES: [SnoopKind; 2] = [SnoopKind::Write, SnoopKind::UnlockWrite];

/// The rule table the engine runs for `kind`: [`hand_table`] for the
/// paper's schemes, [`mesi`] for MESI.
///
/// # Panics
///
/// Panics if a [`ProtocolKind::RwbThreshold`] value is outside
/// `1..=`[`MAX_K`].
pub fn kind_table(kind: ProtocolKind) -> RuleTable {
    hand_table(kind).unwrap_or_else(mesi)
}

/// The table for a paper scheme; `None` for [`ProtocolKind::Mesi`],
/// which is not one of the paper's schemes and whose table is authored
/// in [`mesi`].
///
/// # Panics
///
/// Panics if a [`ProtocolKind::RwbThreshold`] value is outside
/// `1..=`[`MAX_K`].
pub fn hand_table(kind: ProtocolKind) -> Option<RuleTable> {
    match kind {
        ProtocolKind::Rb => Some(rb(true)),
        ProtocolKind::RbNoBroadcast => Some(rb(false)),
        ProtocolKind::Rwb => Some(rwb(2)),
        ProtocolKind::RwbThreshold(k) => Some(rwb(k)),
        ProtocolKind::WriteOnce => Some(write_once()),
        ProtocolKind::WriteThrough => Some(write_through()),
        ProtocolKind::Mesi => None,
    }
}

/// Figure 3-1: R/I/L with read broadcasting (or the A3 ablation without).
fn rb(read_broadcast: bool) -> RuleTable {
    let mut t = Builder::new();
    let all = [None, Some(Invalid), Some(Readable), Some(Local)];

    // CPU references: reads hit outside I/NP; writes write through
    // except from L.
    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
    }
    for s in [Readable, Local] {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    for from in [None, Some(Invalid), Some(Readable)] {
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }
    t.rule(
        Some(Local),
        TableInput::CpuWrite,
        Effect::Hit { next: Local },
    );

    // Completions: a read yields a readable copy, a write claims
    // locality; the Test-and-Set halves mirror them.
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Readable);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Local);
    t.own_all(&all, TableInput::OwnLockedRead, Readable);
    t.own_all(&all, TableInput::OwnUnlockWrite, Local);

    // Snoops: foreign reads broadcast into invalid holders (the
    // defining RB move); foreign writes invalidate readable copies.
    t.snoop(Readable, &READS, Readable, false);
    t.snoop(Readable, &WRITES, Invalid, false);
    if read_broadcast {
        t.snoop(Invalid, &READS, Readable, true);
    } else {
        t.snoop(Invalid, &READS, Invalid, false);
    }
    t.snoop(Invalid, &WRITES, Invalid, false);
    // L sees a completed foreign read only if the supply path was
    // bypassed; fold to the post-supply state (totality arm).
    t.snoop(Local, &READS, Readable, true);
    t.snoop(Local, &WRITES, Invalid, false);

    // Only L is dirty: it supplies foreign reads and writes back.
    t.rule(
        Some(Local),
        TableInput::Supply,
        Effect::Supply { next: Readable },
    );
    for s in [Invalid, Readable] {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict { writeback: false },
        );
    }
    t.rule(
        Some(Local),
        TableInput::Evict,
        Effect::Evict { writeback: true },
    );

    t.finish(
        if read_broadcast {
            "RB"
        } else {
            "RB-no-broadcast"
        },
        vec![Invalid, Readable, Local],
        false,
        false,
    )
}

/// Figure 5-1 with footnote 6's threshold `k`: R/I/F(1..k-1)/L, write
/// broadcasting, and the bus invalidate.
fn rwb(k: u8) -> RuleTable {
    assert!(
        (1..=MAX_K).contains(&k),
        "threshold k = {k} out of range 1..={MAX_K}"
    );
    let mut t = Builder::new();
    let states: Vec<LineState> = std::iter::once(Invalid)
        .chain(std::iter::once(Readable))
        .chain((1..k).map(FirstWrite))
        .chain(std::iter::once(Local))
        .collect();
    let all: Vec<Option<LineState>> = std::iter::once(None)
        .chain(states.iter().copied().map(Some))
        .collect();
    // The k-th uninterrupted write is the invalidating one.
    let intent_after = |done: u8| {
        if done + 1 >= k {
            BusIntent::Invalidate
        } else {
            BusIntent::Write
        }
    };

    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: intent_after(0),
            },
        );
    }
    for s in states.iter().copied().filter(|s| *s != Invalid) {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    t.rule(
        Some(Readable),
        TableInput::CpuWrite,
        Effect::Issue {
            intent: intent_after(0),
        },
    );
    for c in 1..k {
        t.rule(
            Some(FirstWrite(c)),
            TableInput::CpuWrite,
            Effect::Issue {
                intent: intent_after(c),
            },
        );
    }
    t.rule(
        Some(Local),
        TableInput::CpuWrite,
        Effect::Hit { next: Local },
    );

    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Readable);
    // A completed broadcast write advances the uninterrupted-write
    // streak (at k = 1 locality is immediate); BI confirms locality.
    for &from in &all {
        let next = match from {
            Some(FirstWrite(c)) => FirstWrite((c + 1).min(k - 1)),
            _ if k == 1 => Local,
            _ => FirstWrite(1),
        };
        t.rule(
            from,
            TableInput::OwnComplete(BusIntent::Write),
            Effect::Next {
                next,
                capture: false,
            },
        );
    }
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Invalidate), Local);
    t.own_all(&all, TableInput::OwnLockedRead, Readable);
    // A successful Test-and-Set leaves the issuer holding the first
    // write (Figure 6-3), except k = 1 where locality is immediate.
    t.own_all(
        &all,
        TableInput::OwnUnlockWrite,
        if k == 1 { Local } else { FirstWrite(1) },
    );

    for &s in &states {
        // Foreign reads: broadcast fills invalid holders, every other
        // configuration unchanged (L's arm is the totality fold).
        match s {
            Invalid | Local => t.snoop(s, &READS, Readable, true),
            other => t.snoop(other, &READS, other, false),
        }
        // Foreign writes are captured by everyone ("the caches also
        // note the data part of the bus writes") — except k = 1, where
        // the only bus-visible data writes are unlocking writes and the
        // writer claims immediate locality.
        if k == 1 {
            t.snoop(s, &WRITES, Invalid, false);
        } else {
            t.snoop(s, &WRITES, Readable, true);
        }
        t.snoop(s, &[SnoopKind::Invalidate], Invalid, false);
    }

    t.rule(
        Some(Local),
        TableInput::Supply,
        Effect::Supply { next: Readable },
    );
    for &s in &states {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Local,
            },
        );
    }

    let name = if k == 2 {
        "RWB".to_owned()
    } else {
        format!("RWB(k={k})")
    };
    t.finish(&name, states, true, k >= 2)
}

/// Goodman's write-once: event broadcasting only, no data capture.
fn write_once() -> RuleTable {
    let mut t = Builder::new();
    let states = [Invalid, Valid, Reserved, Dirty];
    let all = [
        None,
        Some(Invalid),
        Some(Valid),
        Some(Reserved),
        Some(Dirty),
    ];

    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
    }
    for s in [Valid, Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    // The first write goes through (the "write once"); later writes
    // stay in the cache.
    for from in [None, Some(Invalid), Some(Valid)] {
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }
    for s in [Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuWrite, Effect::Hit { next: Dirty });
    }

    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Valid);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Reserved);
    t.own_all(&all, TableInput::OwnLockedRead, Valid);
    t.own_all(&all, TableInput::OwnUnlockWrite, Reserved);

    // No capture anywhere; a foreign read demotes the written states to
    // Valid (Dirty via the supply path; the snoop arm is the totality
    // fold).
    t.snoop(Invalid, &READS, Invalid, false);
    t.snoop(Valid, &READS, Valid, false);
    t.snoop(Reserved, &READS, Valid, false);
    t.snoop(Dirty, &READS, Valid, false);
    for s in states {
        t.snoop(s, &WRITES, Invalid, false);
    }

    t.rule(
        Some(Dirty),
        TableInput::Supply,
        Effect::Supply { next: Valid },
    );
    for s in states {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Dirty,
            },
        );
    }

    t.finish("write-once", states.to_vec(), false, false)
}

/// Write-through-with-invalidation: two states, every write on the bus.
fn write_through() -> RuleTable {
    let mut t = Builder::new();
    let all = [None, Some(Invalid), Some(Valid)];

    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
    }
    t.rule(
        Some(Valid),
        TableInput::CpuRead,
        Effect::Hit { next: Valid },
    );
    for &from in &all {
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }

    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Valid);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Valid);
    t.own_all(&all, TableInput::OwnLockedRead, Valid);
    t.own_all(&all, TableInput::OwnUnlockWrite, Valid);

    for s in [Invalid, Valid] {
        t.snoop(s, &READS, s, false);
        t.snoop(s, &WRITES, Invalid, false);
        // Memory is always current: no supply row, nothing to write back.
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict { writeback: false },
        );
    }

    t.finish("write-through", vec![Invalid, Valid], false, false)
}

/// The MESI protocol, defined purely as IR data over the existing state
/// vocabulary: `Invalid` = MESI I, `Valid` = MESI S (shared), `Reserved`
/// = MESI E (exclusive-clean), `Dirty` = MESI M (modified) — displayed
/// with the crate's `I`/`V`/`S`/`D` letters.
///
/// Adaptation to the paper's bus vocabulary (documented in DESIGN.md):
/// a write miss issues the ordinary bus write `BW` (the word is written
/// through to memory, others invalidate, the writer fills
/// exclusive-clean) rather than a read-for-ownership, and the MESI
/// `S → M` upgrade issues the RWB bus-invalidate signal `BI`. The
/// defining MESI behaviours are all present: the guarded read-miss fill
/// (`E` when no other readable copy exists, `V` otherwise), the silent
/// `E → M` write hit, and the owner (`M`) supplying snooped reads and
/// demoting to shared.
pub fn mesi() -> RuleTable {
    let mut t = Builder::new();
    let held = [Invalid, Valid, Reserved, Dirty];
    let all = [
        None,
        Some(Invalid),
        Some(Valid),
        Some(Reserved),
        Some(Dirty),
    ];

    // CPU references.
    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }
    for s in [Valid, Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    // S → M upgrades over the bus-invalidate signal; E → M and M → M are
    // silent local writes.
    t.rule(
        Some(Valid),
        TableInput::CpuWrite,
        Effect::Issue {
            intent: BusIntent::Invalidate,
        },
    );
    for s in [Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuWrite, Effect::Hit { next: Dirty });
    }

    // Own-transaction completions (every from-state for totality; only
    // NP/I fills are dynamically reachable, the rest are reported dead
    // by the analyzer). The read-miss fill is MESI's guarded decision:
    // exclusive-clean when alone, shared otherwise.
    for from in all {
        for (guard, next) in [
            (Guard::NoOtherReadableHolder, Reserved),
            (Guard::OtherReadableHolder, Valid),
        ] {
            t.guarded(
                from,
                TableInput::OwnComplete(BusIntent::Read),
                guard,
                Effect::Next {
                    next,
                    capture: false,
                },
            );
        }
    }
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Reserved);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Invalidate), Dirty);
    // A locked read broadcasts; everyone, issuer included, shares. The
    // unlocking write goes through to memory: exclusive-clean.
    t.own_all(&all, TableInput::OwnLockedRead, Valid);
    t.own_all(&all, TableInput::OwnUnlockWrite, Reserved);

    // Snoops: reads demote E/M to shared, writes and invalidates kill
    // the copy. MESI never captures foreign bus data (no write
    // broadcasting — the RB/RWB distinguishing power MESI lacks).
    for s in held {
        t.snoop(s, &READS, if s == Invalid { Invalid } else { Valid }, false);
        t.snoop(s, &WRITES, Invalid, false);
        t.snoop(s, &[SnoopKind::Invalidate], Invalid, false);
    }

    // Only the owner supplies; it demotes to shared (memory was just
    // made current by the substituted write). Only the owner writes
    // back.
    t.rule(
        Some(Dirty),
        TableInput::Supply,
        Effect::Supply { next: Valid },
    );
    for s in held {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Dirty,
            },
        );
    }

    t.finish("MESI", held.to_vec(), true, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_tables_exist_for_exactly_the_paper_schemes() {
        assert!(hand_table(ProtocolKind::Rb).is_some());
        assert!(hand_table(ProtocolKind::RwbThreshold(5)).is_some());
        assert!(hand_table(ProtocolKind::Mesi).is_none());
    }

    #[test]
    fn rwb_k1_degenerates_to_write_back_invalidate() {
        let table = hand_table(ProtocolKind::RwbThreshold(1)).unwrap();
        assert_eq!(table.states, vec![Invalid, Readable, Local]);
        assert!(!table.broadcasts_write_data);
        let cw = table
            .matching(Some(Readable), TableInput::CpuWrite, true)
            .unwrap();
        assert_eq!(
            cw.effect,
            Effect::Issue {
                intent: BusIntent::Invalidate
            }
        );
    }
}
