//! Internal processing-element indexes that fast-path the cycle engine.
//!
//! The paper's machine is a broadcast medium: every bus transaction is
//! observed by every cache, and the straightforward implementation
//! re-scans all `n` processing elements per transaction (snoop
//! dispatch, supplier search) and per cycle (issue scan, pending-read
//! completion, done checks) — the O(n) "snoop everything" cost the
//! shared-bus scaling literature identifies as the bottleneck. These
//! indexes make every such scan proportional to the number of *actual*
//! participants instead, without changing which caches are visited or
//! in which order, so the simulation's cycle-by-cycle behaviour is
//! bit-for-bit identical (pinned by the machine-fingerprint golden
//! test).
//!
//! * [`PeMask`] — one bitset over processing elements (the idle set).
//! * [`AddrPeIndex`] — a per-address set of processing elements: the
//!   sharer index (which caches hold a block), the supplier index
//!   (which caches would supply it on a snoop read) and the
//!   pending-read index (which PEs stall on a bus read of an address).
//!   A single member is stored inline; only shared addresses take a
//!   pooled bitset row.
//!
//! Bit iteration is always in ascending PE order, matching the
//! `for pe in 0..n` loops these indexes replace.

/// Scans `words` for the first set bit at position `>= from`; bit `i`
/// lives in `words[i / 64]` at bit `i % 64`.
fn next_set_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from / 64;
    if word >= words.len() {
        return None;
    }
    let mut current = words[word] & (!0u64 << (from % 64));
    loop {
        if current != 0 {
            return Some(word * 64 + current.trailing_zeros() as usize);
        }
        word += 1;
        if word >= words.len() {
            return None;
        }
        current = words[word];
    }
}

/// A bitset over processing elements.
#[derive(Debug, Clone)]
pub(crate) struct PeMask {
    words: Vec<u64>,
}

impl PeMask {
    /// An all-clear mask sized for `pes` processing elements.
    pub(crate) fn new(pes: usize) -> Self {
        PeMask {
            words: vec![0; pes.div_ceil(64).max(1)],
        }
    }

    /// Sets bit `pe`.
    pub(crate) fn set(&mut self, pe: usize) {
        self.words[pe / 64] |= bit(pe);
    }

    /// Clears bit `pe`.
    pub(crate) fn clear(&mut self, pe: usize) {
        self.words[pe / 64] &= !bit(pe);
    }

    /// The first set bit `>= from`, in ascending order.
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        next_set_bit(&self.words, from)
    }

    /// Number of set bits (invariant checks only).
    pub(crate) fn total(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A slot naming no member.
const EMPTY: u32 = 0;
/// The tag bit of a slot that names a pooled row; the low 31 bits are
/// the row number. A slot without it holds `pe + 1` inline.
const ROW: u32 = 1 << 31;

/// What one address's 4-byte slot holds.
enum Slot {
    Empty,
    One(usize),
    Row(usize),
}

fn decode(slot: u32) -> Slot {
    if slot == EMPTY {
        Slot::Empty
    } else if slot & ROW == 0 {
        Slot::One(slot as usize - 1)
    } else {
        Slot::Row((slot & !ROW) as usize)
    }
}

fn bit(pe: usize) -> u64 {
    1u64 << (pe % 64)
}

/// The only member of `row`, or `None` if it holds zero or several.
fn sole_member(row: &[u64]) -> Option<usize> {
    let mut found = None;
    for (w, &bits) in row.iter().enumerate() {
        if bits == 0 {
            continue;
        }
        if found.is_some() || bits & (bits - 1) != 0 {
            return None;
        }
        found = Some(w * 64 + bits.trailing_zeros() as usize);
    }
    found
}

/// A per-address set of processing elements. Almost every block has at
/// most one holder, so each address gets a 4-byte slot that is empty,
/// holds its single member inline, or names a pooled PE-bitset row.
/// A row is taken from the free list only when an address gains a
/// second member; when it drops back to one, the row is zeroed and
/// returned. Invariant (checked by
/// [`assert_well_formed`](Self::assert_well_formed)): every referenced
/// row holds at least two members, no row is referenced twice, and
/// every free row is all zeros.
///
/// The machine preallocates slots for the full memory range;
/// [`add`](Self::add) still grows on demand past it, so addresses
/// beyond the memory size (which would fault at the memory access
/// itself) never fault here first.
#[derive(Debug, Clone)]
pub(crate) struct AddrPeIndex {
    /// `u64` words per pooled row.
    stride: usize,
    /// One slot per address.
    slots: Vec<u32>,
    /// Pooled rows: row `r` is `rows[r * stride .. (r + 1) * stride]`.
    rows: Vec<u64>,
    /// Rows no slot references.
    free: Vec<u32>,
}

impl AddrPeIndex {
    /// An empty index over `pes` processing elements with slots for
    /// addresses `0..addrs` preallocated.
    pub(crate) fn with_addr_capacity(pes: usize, addrs: u64) -> Self {
        assert!(pes < ROW as usize, "{pes} PEs overflow an inline slot");
        AddrPeIndex {
            stride: pes.div_ceil(64).max(1),
            slots: vec![EMPTY; addrs as usize],
            rows: Vec::new(),
            free: Vec::new(),
        }
    }

    fn slot(&self, addr: u64) -> Slot {
        decode(self.slots.get(addr as usize).copied().unwrap_or(EMPTY))
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.rows[r * self.stride..(r + 1) * self.stride]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.rows[r * self.stride..(r + 1) * self.stride]
    }

    /// A zeroed row: a free one if any, else a new one.
    fn take_row(&mut self) -> usize {
        if let Some(r) = self.free.pop() {
            return r as usize;
        }
        let r = self.rows.len() / self.stride;
        assert!(r < ROW as usize, "pooled row count overflows a slot");
        self.rows.resize(self.rows.len() + self.stride, 0);
        r
    }

    /// Empties every set, keeping the slots and the pooled rows'
    /// memory.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.rows.clear();
        self.free.clear();
    }

    /// Adds `pe` to `addr`'s set (idempotent).
    pub(crate) fn add(&mut self, addr: u64, pe: usize) {
        let a = addr as usize;
        if a >= self.slots.len() {
            self.slots.resize(a + 1, EMPTY);
        }
        match decode(self.slots[a]) {
            Slot::Empty => self.slots[a] = pe as u32 + 1,
            Slot::One(held) if held == pe => {}
            Slot::One(held) => {
                let r = self.take_row();
                let row = self.row_mut(r);
                row[held / 64] |= bit(held);
                row[pe / 64] |= bit(pe);
                self.slots[a] = ROW | r as u32;
            }
            Slot::Row(r) => self.row_mut(r)[pe / 64] |= bit(pe),
        }
    }

    /// Removes `pe` from `addr`'s set (idempotent).
    pub(crate) fn remove(&mut self, addr: u64, pe: usize) {
        let a = addr as usize;
        match self.slot(addr) {
            Slot::One(held) if held == pe => self.slots[a] = EMPTY,
            Slot::Empty | Slot::One(_) => {}
            Slot::Row(r) => {
                let row = self.row_mut(r);
                row[pe / 64] &= !bit(pe);
                if let Some(last) = sole_member(row) {
                    row[last / 64] = 0;
                    self.free.push(r as u32);
                    self.slots[a] = last as u32 + 1;
                }
            }
        }
    }

    /// Whether `pe` is in `addr`'s set.
    pub(crate) fn contains(&self, addr: u64, pe: usize) -> bool {
        match self.slot(addr) {
            Slot::Empty => false,
            Slot::One(held) => held == pe,
            Slot::Row(r) => self.row(r)[pe / 64] & bit(pe) != 0,
        }
    }

    /// The number of members of `addr`'s set.
    pub(crate) fn count(&self, addr: u64) -> usize {
        match self.slot(addr) {
            Slot::Empty => 0,
            Slot::One(_) => 1,
            Slot::Row(r) => self.row(r).iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// The first PE `>= from` in `addr`'s set, in ascending order — the
    /// cursor primitive behind every holder loop.
    pub(crate) fn next_from(&self, addr: u64, from: usize) -> Option<usize> {
        match self.slot(addr) {
            Slot::Empty => None,
            Slot::One(pe) => (pe >= from).then_some(pe),
            Slot::Row(r) => next_set_bit(self.row(r), from),
        }
    }

    /// Total number of members across all addresses (invariant checks
    /// only — O(index size)).
    pub(crate) fn total(&self) -> usize {
        (0..self.slots.len() as u64).map(|a| self.count(a)).sum()
    }

    /// Asserts the representation invariant: every inline member fits
    /// the PE range, every referenced row holds at least two members,
    /// no row is referenced twice or both referenced and free, every
    /// free row is all zeros, and no row is lost. `name` labels the
    /// index in the panic message. Test instrumentation — O(index
    /// size).
    pub(crate) fn assert_well_formed(&self, name: &str) {
        let pool = self.rows.len() / self.stride;
        let mut claimed = vec![false; pool];
        for (addr, &slot) in self.slots.iter().enumerate() {
            match decode(slot) {
                Slot::Empty => {}
                Slot::One(pe) => assert!(
                    pe / 64 < self.stride,
                    "{name} index: address {addr} holds P{pe} past the PE range"
                ),
                Slot::Row(r) => {
                    assert!(
                        r < pool,
                        "{name} index: address {addr} names row {r} past the pool"
                    );
                    assert!(!claimed[r], "{name} index: row {r} is referenced twice");
                    claimed[r] = true;
                    let members: u32 = self.row(r).iter().map(|w| w.count_ones()).sum();
                    assert!(
                        members >= 2,
                        "{name} index: address {addr}'s pooled row {r} holds {members} member(s)"
                    );
                }
            }
        }
        for &r in &self.free {
            let r = r as usize;
            assert!(r < pool, "{name} index: free row {r} is past the pool");
            assert!(
                !claimed[r],
                "{name} index: free row {r} is also referenced or freed twice"
            );
            claimed[r] = true;
            assert!(
                self.row(r).iter().all(|&w| w == 0),
                "{name} index: free row {r} is not zeroed"
            );
        }
        assert!(
            claimed.iter().all(|&c| c),
            "{name} index: a pooled row is neither referenced nor free"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_mask_set_clear_iterate() {
        let mut m = PeMask::new(130);
        for pe in [0usize, 63, 64, 129] {
            m.set(pe);
        }
        let mut seen = Vec::new();
        let mut cursor = 0;
        while let Some(pe) = m.next_from(cursor) {
            seen.push(pe);
            cursor = pe + 1;
        }
        assert_eq!(seen, vec![0, 63, 64, 129]);
        m.clear(64);
        assert_eq!(m.next_from(64), Some(129));
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn empty_mask_yields_nothing() {
        let m = PeMask::new(8);
        assert_eq!(m.next_from(0), None);
    }

    #[test]
    fn index_add_remove_contains() {
        let mut idx = AddrPeIndex::with_addr_capacity(4, 0);
        idx.add(3, 2);
        idx.add(3, 0);
        assert!(idx.contains(3, 2));
        assert!(!idx.contains(3, 1));
        assert!(!idx.contains(4, 2));
        assert_eq!(idx.next_from(3, 0), Some(0));
        assert_eq!(idx.next_from(3, 1), Some(2));
        assert_eq!(idx.next_from(3, 3), None);
        idx.remove(3, 0);
        assert_eq!(idx.next_from(3, 0), Some(2));
        assert_eq!(idx.total(), 1);
    }

    #[test]
    fn index_is_idempotent() {
        let mut idx = AddrPeIndex::with_addr_capacity(2, 0);
        idx.add(1, 1);
        idx.add(1, 1);
        assert_eq!(idx.total(), 1);
        idx.remove(1, 0);
        assert_eq!(idx.total(), 1);
    }

    #[test]
    fn index_grows_beyond_initial_size() {
        let mut idx = AddrPeIndex::with_addr_capacity(70, 0);
        assert_eq!(idx.next_from(100, 0), None);
        assert!(!idx.contains(100, 69));
        idx.remove(100, 69); // no-op, no panic
        idx.add(100, 69);
        assert!(idx.contains(100, 69));
        assert_eq!(idx.next_from(100, 0), Some(69));
    }

    #[test]
    fn ascending_order_across_words() {
        let mut idx = AddrPeIndex::with_addr_capacity(200, 0);
        for pe in [5usize, 70, 199] {
            idx.add(0, pe);
        }
        let mut seen = Vec::new();
        let mut cursor = 0;
        while let Some(pe) = idx.next_from(0, cursor) {
            seen.push(pe);
            cursor = pe + 1;
        }
        assert_eq!(seen, vec![5, 70, 199]);
    }

    #[test]
    fn single_members_allocate_no_pooled_rows() {
        let addrs = 262_144u64;
        let mut idx = AddrPeIndex::with_addr_capacity(1024, addrs);
        for addr in 0..addrs {
            idx.add(addr, addr as usize % 1024);
        }
        assert!(idx.rows.is_empty(), "{} pooled words", idx.rows.len());
        assert_eq!(idx.total(), addrs as usize);
        idx.assert_well_formed("test");
    }

    #[test]
    fn second_member_promotes_and_last_but_one_demotes() {
        let mut idx = AddrPeIndex::with_addr_capacity(130, 4);
        idx.add(1, 129);
        idx.add(1, 3);
        assert_eq!(idx.rows.len(), idx.stride, "one pooled row");
        assert_eq!(idx.count(1), 2);
        assert!(idx.contains(1, 3) && idx.contains(1, 129));
        idx.remove(1, 129);
        assert_eq!(idx.free, vec![0], "the row went back to the free list");
        assert_eq!((idx.count(1), idx.next_from(1, 0)), (1, Some(3)));
        idx.assert_well_formed("test");
        idx.add(2, 0);
        idx.add(2, 64);
        assert!(idx.free.is_empty(), "the freed row is reused");
        assert_eq!(idx.rows.len(), idx.stride, "no new row was pooled");
        idx.assert_well_formed("test");
    }

    /// Random `add`/`remove` sequences applied to the index and to a
    /// `BTreeSet`-per-address model must agree on every query, and the
    /// pool must never grow while a free row is available.
    #[test]
    fn index_matches_a_btreeset_model() {
        use decache_rng::testing::check;
        use std::collections::BTreeSet;

        check("addr_pe_index_model", 256, |rng| {
            let pes = *rng.choose(&[1usize, 63, 64, 65, 130, 1024]);
            let capacity = rng.gen_range(0u64..12);
            let addrs = 16u64;
            // A small palette of PEs (word edges included) so addresses
            // gain and lose second members often.
            let palette: Vec<usize> = [0, 1, 62, 63, 64, 65, 127, 128, pes - 1]
                .into_iter()
                .filter(|&pe| pe < pes)
                .chain((0..3).map(|_| rng.gen_range(0..pes)))
                .collect();
            let mut idx = AddrPeIndex::with_addr_capacity(pes, capacity);
            let mut model = vec![BTreeSet::new(); addrs as usize];
            let mut peak_shared = 0;
            for _ in 0..rng.gen_range(1usize..400) {
                let addr = rng.gen_range(0..addrs);
                let pe = *rng.choose(&palette);
                if rng.gen_bool(0.55) {
                    idx.add(addr, pe);
                    model[addr as usize].insert(pe);
                } else {
                    idx.remove(addr, pe);
                    model[addr as usize].remove(&pe);
                }
                let shared = model.iter().filter(|set| set.len() >= 2).count();
                peak_shared = peak_shared.max(shared);
                assert_eq!(
                    idx.rows.len() / idx.stride,
                    peak_shared,
                    "pool grew past need"
                );
                assert_eq!(idx.contains(addr, pe), model[addr as usize].contains(&pe));
            }
            idx.assert_well_formed("model");
            assert_eq!(idx.total(), model.iter().map(BTreeSet::len).sum::<usize>());
            for (addr, set) in model.iter().enumerate() {
                let addr = addr as u64;
                let mut walked = BTreeSet::new();
                let mut cursor = 0;
                while let Some(pe) = idx.next_from(addr, cursor) {
                    assert!(walked.insert(pe) && pe >= cursor, "cursor went backwards");
                    cursor = pe + 1;
                }
                assert_eq!(&walked, set, "next_from walk at {addr}");
                let from = rng.gen_range(0..=pes);
                assert_eq!(idx.next_from(addr, from), set.range(from..).next().copied());
                assert_eq!(idx.count(addr), set.len(), "count() at {addr}");
                for &pe in &palette {
                    assert_eq!(idx.contains(addr, pe), set.contains(&pe));
                }
            }
        });
    }
}
