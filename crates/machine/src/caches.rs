//! Every PE's tag store behind one type, with the three per-address PE
//! indexes that fast-path the engine and deferred broadcast
//! application.
//!
//! A broadcast on the paper's bus is snooped by every holder of the
//! block, but almost no holder looks at its line before the next
//! broadcast changes it again. So where it is exact (direct-mapped
//! caches, no faults, and a protocol whose snoops never create a
//! supplier, on any bus routing) a broadcast is recorded once per
//! block, in a short log, and applied to a holder's line only when
//! something reads that line. Each block carries a generation, each
//! line the generation it last caught up to (its *stamp*); a line whose
//! stamp trails its block's generation *materializes* by replaying the
//! log entries it missed, through the same dense-table cells the eager
//! scan applies. Every read of a line goes through this type, so every
//! read sees the materialized line:
//!
//! * the `&mut` accessors ([`Caches::probe`], [`Caches::current`],
//!   [`Caches::install`]'s victim, [`Caches::remove`],
//!   [`Caches::drain`], [`Caches::other_readable_holder`]) write the
//!   materialized line back;
//! * the `&self` accessors ([`Caches::view`],
//!   [`Caches::checkpoint_stores`], [`Caches::assert_invariants`])
//!   compute it into a copy.
//!
//! The supplier index stays eager: a broadcast is applied at once to
//! the block's suppliers (at most one under coherent operation), and
//! since no snoop turns a non-supplier into a supplier, the lines left
//! behind cannot join the index until they are read.

use crate::sharers::AddrPeIndex;
use crate::MachineStats;
use decache_cache::{Entry, EntryMut, EvictedLine, Geometry, TagStore, TagStoreCheckpoint};
use decache_core::introspect::{SnoopKind, TableInput};
use decache_core::ir::Effect;
use decache_core::{AnyProtocol, LineState, Protocol, SnoopEvent};
use decache_mem::{Addr, Word};

/// A block whose log grows past this many entries is settled: every
/// holder materializes and the log empties. The paper's tables collapse
/// long before (see [`BroadcastLog::push`]); the cap bounds the others.
const LOG_CAP: usize = 32;

/// The caches a broadcast must skip: the transaction's `initiator`
/// (its own line is completed by `install`, not by snooping), and on
/// the interrupt path the `supplier` (its line just transitioned via
/// `after_supply`). Named fields so call sites cannot transpose the two.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SkipPes {
    initiator: Option<usize>,
    supplier: Option<usize>,
}

impl SkipPes {
    /// Skip only the transaction's initiator.
    pub(crate) fn initiator(pe: usize) -> Self {
        SkipPes {
            initiator: Some(pe),
            supplier: None,
        }
    }

    /// Additionally skip the supplying cache (interrupt path).
    pub(crate) fn with_supplier(mut self, pe: usize) -> Self {
        self.supplier = Some(pe);
        self
    }

    /// Whether `pe` is one of the skip slots.
    fn skips(self, pe: usize) -> bool {
        self.initiator == Some(pe) || self.supplier == Some(pe)
    }

    /// The distinct skipped PEs.
    fn pes(self) -> impl Iterator<Item = usize> {
        let supplier = self.supplier.filter(|&s| Some(s) != self.initiator);
        self.initiator.into_iter().chain(supplier)
    }
}

/// One logged broadcast.
#[derive(Debug, Clone, Copy)]
struct Logged {
    kind: SnoopKind,
    word: Option<Word>,
    /// The block generation this entry brought the block to. A merged
    /// repeat advances it, so a line stamped anywhere before it replays
    /// the entry once.
    gen: u32,
}

/// `(next, capture)` of the `kind` snoop cell for `state`, with capture
/// cleared for wordless snoops; `None` where the table has no rule.
fn cell(protocol: &AnyProtocol, state: LineState, kind: SnoopKind) -> Option<(LineState, bool)> {
    match protocol.cell_effect(Some(state), TableInput::Snoop(kind), true)? {
        Effect::Next { next, capture } => Some((next, capture && kind.event().word().is_some())),
        _ => None,
    }
}

/// One block's deferral state.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    /// The block's generation.
    gen: u32,
    /// Its log's position in the pool plus one; 0 when it has none.
    log: u32,
}

/// The per-block broadcast logs, and what the protocol's snoop cells
/// allow them to forget.
#[derive(Debug)]
struct BroadcastLog {
    /// Each block's generation and log, by block base; blocks past the
    /// end are at generation 0 with no log. Grows only for blocks that
    /// log a broadcast.
    blocks: Vec<Block>,
    /// The logs: the entries a line stamped behind its block may still
    /// need, in generation order, the last one's `gen` the block's. A
    /// block has a log exactly while some line of it may be behind.
    pool: Vec<Vec<Logged>>,
    /// Pool positions no block uses.
    free: Vec<u32>,
    /// Per snoop kind: applying its cell twice with one word equals
    /// applying it once, so a repeat merges into the entry before it.
    idempotent: [bool; 5],
    /// Per snoop kind: its cell sends every state to one state and
    /// captures the word, so no earlier entry matters.
    collapses: [bool; 5],
    /// Per pair of kinds `[a][b]`: `a` then `b` ends every state in one
    /// state with one word, so no entry before `a` matters.
    collapses_after: [[bool; 5]; 5],
}

impl BroadcastLog {
    fn new(protocol: &AnyProtocol) -> Self {
        let states = protocol.states();
        let kinds = SnoopKind::ALL;
        let idempotent = kinds.map(|k| {
            states.iter().all(|&s| match cell(protocol, s, k) {
                None => true,
                Some((s1, c1)) => {
                    cell(protocol, s1, k).is_some_and(|(s2, c2)| s2 == s1 && (c1 || !c2))
                }
            })
        });
        // Where every state lands after `path`, and which step of it
        // captured last (`path.len()` for none).
        let ends = |path: &[SnoopKind]| -> Option<Vec<(LineState, usize)>> {
            states
                .iter()
                .map(|&s| {
                    let mut state = s;
                    let mut captured_at = path.len();
                    for (i, &k) in path.iter().enumerate() {
                        let (next, capture) = cell(protocol, state, k)?;
                        state = next;
                        if capture {
                            captured_at = i;
                        }
                    }
                    Some((state, captured_at))
                })
                .collect()
        };
        // Constant: one end state, and every state's data comes from
        // the same entry's word.
        let constant = |path: &[SnoopKind]| {
            ends(path).is_some_and(|ends| {
                ends.windows(2).all(|w| w[0] == w[1])
                    && ends.first().is_none_or(|&(_, at)| at < path.len())
            })
        };
        BroadcastLog {
            blocks: Vec::new(),
            pool: Vec::new(),
            free: Vec::new(),
            idempotent,
            collapses: kinds.map(|k| constant(&[k])),
            collapses_after: kinds.map(|a| kinds.map(|b| constant(&[a, b]))),
        }
    }

    /// `base`'s generation.
    #[inline]
    fn gen(&self, base: u64) -> u32 {
        self.blocks.get(base as usize).map_or(0, |b| b.gen)
    }

    /// `base`'s log, if it has one.
    fn log(&self, base: u64) -> Option<&[Logged]> {
        let block = self.blocks.get(base as usize)?;
        (block.log != 0).then(|| &self.pool[block.log as usize - 1][..])
    }

    /// Forgets every log and generation.
    fn clear(&mut self) {
        self.blocks = Vec::new();
        self.pool.clear();
        self.free.clear();
    }

    /// Forgets `base`'s log and restarts its generation at 0.
    fn clear_block(&mut self, base: u64) {
        let block = std::mem::take(&mut self.blocks[base as usize]);
        if block.log != 0 {
            self.pool[block.log as usize - 1].clear();
            self.free.push(block.log - 1);
        }
    }

    /// Records a broadcast to every line of block `base`, bringing the
    /// block to its next generation; returns whether the block should
    /// now be settled, because its log grew long or its generation is
    /// about to wrap. A repeat of the last entry merges into
    /// it when the cell is idempotent. When the new entry, or the last
    /// entry followed by it, sends every state to one state and one
    /// word, the entries before that point can no longer change any
    /// line's outcome and are dropped.
    fn push(&mut self, base: u64, kind: SnoopKind, word: Option<Word>) -> bool {
        let b = base as usize;
        if b >= self.blocks.len() {
            self.blocks.resize(b + 1, Block::default());
        }
        let block = &mut self.blocks[b];
        block.gen += 1;
        let gen = block.gen;
        if block.log == 0 {
            block.log = match self.free.pop() {
                Some(slot) => slot + 1,
                None => {
                    self.pool.push(Vec::new());
                    self.pool.len() as u32
                }
            };
        }
        let log = &mut self.pool[block.log as usize - 1];
        let k = kind as usize;
        if let Some(last) = log.last_mut() {
            if last.kind == kind && last.word == word && self.idempotent[k] {
                last.gen = gen;
                return gen == u32::MAX;
            }
        }
        let cut = if self.collapses[k] {
            Some(log.len())
        } else {
            log.last()
                .filter(|last| self.collapses_after[last.kind as usize][k])
                .map(|_| log.len() - 1)
        };
        log.push(Logged { kind, word, gen });
        if let Some(cut) = cut {
            log.drain(..cut);
        }
        gen == u32::MAX || log.len() > LOG_CAP
    }

    /// The `(state, data, generation)` a line of block `base` stamped
    /// `stamp` holds once the entries it missed are applied, or `None`
    /// if it missed none.
    #[inline(always)]
    fn catch_up(
        &self,
        protocol: &AnyProtocol,
        base: u64,
        stamp: u32,
        state: LineState,
        data: Word,
    ) -> Option<(LineState, Word, u32)> {
        let block = self.blocks.get(base as usize)?;
        (block.gen != stamp).then(|| self.replay(protocol, *block, stamp, state, data))
    }

    /// Applies the entries of `block`'s log after `stamp` to a line.
    #[inline(never)]
    fn replay(
        &self,
        protocol: &AnyProtocol,
        block: Block,
        stamp: u32,
        mut state: LineState,
        mut data: Word,
    ) -> (LineState, Word, u32) {
        let log = &self.pool[block.log as usize - 1];
        for entry in &log[log.partition_point(|e| e.gen <= stamp)..] {
            let out = protocol.snoop_step(state, entry.kind).outcome;
            state = out.next;
            if out.capture {
                if let Some(word) = entry.word {
                    data = word;
                }
            }
        }
        (state, data, block.gen)
    }

    /// Brings `line` up to its block's generation; returns whether it
    /// was behind.
    #[inline(always)]
    fn materialize(&self, protocol: &AnyProtocol, line: &mut EntryMut<'_, LineState>) -> bool {
        let base = line.addr.index();
        match self.catch_up(protocol, base, *line.stamp, *line.state, *line.data) {
            None => false,
            Some((state, data, gen)) => {
                *line.state = state;
                *line.data = data;
                *line.stamp = gen;
                true
            }
        }
    }
}

/// Re-syncs PE `pe`'s supplier-index bit for block `base` after its
/// line went from `was` to `now` (`None` = not held).
fn sync_owner(
    owners: &mut AddrPeIndex,
    protocol: &AnyProtocol,
    base: u64,
    pe: usize,
    was: Option<LineState>,
    now: Option<LineState>,
) {
    let owned = was.is_some_and(|s| protocol.supplies_on_snoop_read(s));
    let owns = now.is_some_and(|s| protocol.supplies_on_snoop_read(s));
    if owned != owns {
        if owns {
            owners.add(base, pe);
        } else {
            owners.remove(base, pe);
        }
    }
}

/// Every PE's private cache, with the indexes the engine consults
/// instead of scanning all `n` caches, and the deferred broadcasts not
/// yet applied to them.
#[derive(Debug)]
pub(crate) struct Caches {
    stores: Vec<TagStore<LineState>>,
    /// The geometry shared by every cache.
    geometry: Geometry,
    /// A copy of the machine's protocol, for materialization and the
    /// supplier index.
    protocol: AnyProtocol,
    /// Sharer index: for each block base, the caches holding the block
    /// in any state, `Invalid` included (an invalid line still snoops,
    /// e.g. to capture an RWB broadcast).
    sharers: AddrPeIndex,
    /// Supplier index: for each block base, the caches whose line
    /// answers a snooped bus read with its own data
    /// ([`Protocol::supplies_on_snoop_read`]), at most one under
    /// coherent operation. Always reflects materialized states: a
    /// supplying line is never behind its block.
    owners: AddrPeIndex,
    /// Pending-read index: for each address, the PEs stalled on a plain
    /// bus read of it.
    pending_readers: AddrPeIndex,
    /// Whether broadcasts may be deferred with this geometry and
    /// protocol (the machine also requires that no fault is possible).
    defer: bool,
    log: BroadcastLog,
    /// Lines that caught up on deferred broadcasts: an engine-path
    /// odometer, never a simulated statistic.
    materializations: u64,
}

impl Caches {
    /// Indexes `stores` (one per PE, all of one geometry) for a machine
    /// with `memory_words` words.
    pub(crate) fn new(
        stores: Vec<TagStore<LineState>>,
        protocol: AnyProtocol,
        memory_words: u64,
    ) -> Self {
        let geometry = stores
            .first()
            .map_or_else(|| Geometry::direct_mapped(1), TagStore::geometry);
        assert!(
            stores.iter().all(|c| c.geometry() == geometry),
            "the sharer index requires all caches to share one geometry"
        );
        let n = stores.len();
        // Preallocate the per-address index slots (4 bytes each) for
        // the whole memory range, so no run grows them; bitset rows are
        // pooled only for blocks with two or more members.
        let mut caches = Caches {
            sharers: AddrPeIndex::with_addr_capacity(n, memory_words),
            owners: AddrPeIndex::with_addr_capacity(n, memory_words),
            pending_readers: AddrPeIndex::with_addr_capacity(n, memory_words),
            defer: geometry.ways() == 1 && protocol.snoops_never_create_suppliers(),
            log: BroadcastLog::new(&protocol),
            stores,
            geometry,
            protocol,
            materializations: 0,
        };
        caches.index_stores();
        caches
    }

    /// Rebuilds the sharer and supplier indexes from the tag stores and
    /// empties the pending-read index and the broadcast logs, after a
    /// restore left no line behind its block. The indexes are cleared
    /// in place, so this allocates nothing.
    pub(crate) fn reindex(&mut self) {
        self.sharers.clear();
        self.owners.clear();
        self.pending_readers.clear();
        self.log.clear();
        self.index_stores();
    }

    /// Adds every held line to the (empty) sharer and supplier indexes.
    fn index_stores(&mut self) {
        for (pe, store) in self.stores.iter().enumerate() {
            for entry in store.iter() {
                debug_assert_eq!(entry.stamp, 0, "a line behind an emptied log");
                self.sharers.add(entry.addr.index(), pe);
                if self.protocol.supplies_on_snoop_read(entry.state) {
                    self.owners.add(entry.addr.index(), pe);
                }
            }
        }
    }

    /// The geometry shared by every cache.
    pub(crate) fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The sharer-index key for `addr`: its block base address.
    fn block_base(&self, addr: Addr) -> u64 {
        self.geometry.block_base(addr).index()
    }

    /// Whether broadcasts may take the deferred path.
    pub(crate) fn defers(&self) -> bool {
        self.defer
    }

    /// Sends every later broadcast down the per-sharer scan path.
    pub(crate) fn force_scan(&mut self) {
        self.defer = false;
    }

    /// Lines that caught up on deferred broadcasts so far.
    pub(crate) fn materializations(&self) -> u64 {
        self.materializations
    }

    // ----- reads of one line ------------------------------------------

    /// PE `pe`'s line for `addr`, materialized, for an access that
    /// changes it in place: the CPU probe, the supplier's read, fault
    /// injection. Marks the line most recently used, like
    /// [`TagStore::get_mut`].
    #[inline(always)]
    pub(crate) fn probe(&mut self, pe: usize, addr: Addr) -> Option<EntryMut<'_, LineState>> {
        let mut line = self.stores[pe].get_mut(addr)?;
        if self.log.materialize(&self.protocol, &mut line) {
            self.materializations += 1;
        }
        Some(line)
    }

    /// PE `pe`'s line for `addr`, materialized and written back, without
    /// touching the replacement order.
    #[inline]
    pub(crate) fn current(&mut self, pe: usize, addr: Addr) -> Option<Entry<LineState>> {
        let entry = self.stores[pe].get(addr)?;
        let base = entry.addr.index();
        let Some((state, data, gen)) =
            self.log
                .catch_up(&self.protocol, base, entry.stamp, entry.state, entry.data)
        else {
            return Some(entry);
        };
        // Only direct-mapped stores defer, and their `get_mut` leaves
        // the (unused) replacement stamps alone.
        debug_assert_eq!(self.geometry.ways(), 1);
        let line = self.stores[pe].get_mut(addr).expect("line just seen");
        *line.state = state;
        *line.data = data;
        *line.stamp = gen;
        self.materializations += 1;
        Some(Entry {
            state,
            data,
            stamp: gen,
            ..entry
        })
    }

    /// A read-only view of PE `pe`'s line for `addr` as it stands once
    /// materialized; the stored line is left as it is.
    pub(crate) fn view(&self, pe: usize, addr: Addr) -> Option<Entry<LineState>> {
        let entry = self.stores[pe].get(addr)?;
        Some(self.view_of(entry))
    }

    fn view_of(&self, entry: Entry<LineState>) -> Entry<LineState> {
        match self.log.catch_up(
            &self.protocol,
            entry.addr.index(),
            entry.stamp,
            entry.state,
            entry.data,
        ) {
            None => entry,
            Some((state, data, _)) => Entry {
                state,
                data,
                ..entry
            },
        }
    }

    /// Flips bit `bit` of PE `pe`'s line for `addr` and marks its parity
    /// bad, without touching the replacement order (fault injection
    /// must not perturb replacement). Returns `false` if the line is
    /// not cached.
    pub(crate) fn flip_bit(&mut self, pe: usize, addr: Addr, bit: u64) -> bool {
        let base = self.geometry.block_base(addr);
        if self.current(pe, addr).is_none() {
            return false;
        }
        let line = self.stores[pe]
            .iter_mut()
            .find(|e| e.addr == base)
            .expect("line just seen");
        *line.data = Word::new(line.data.value() ^ (1 << bit));
        *line.parity_ok = false;
        true
    }

    /// The number of lines PE `pe` holds.
    pub(crate) fn len(&self, pe: usize) -> usize {
        self.stores[pe].len()
    }

    /// The block address of PE `pe`'s `k`-th line in set order.
    pub(crate) fn nth_line_addr(&self, pe: usize, k: usize) -> Option<Addr> {
        self.stores[pe].iter().nth(k).map(|e| e.addr)
    }

    // ----- presence changes -------------------------------------------

    /// Fills PE `pe`'s line for `addr` after its own bus transaction and
    /// returns the line it displaced, materialized. Keeps the sharer and
    /// supplier indexes in sync: the block gains this cache as a holder
    /// (`prior` is its pre-transaction state, for the supplier delta), a
    /// displaced block loses it.
    pub(crate) fn install(
        &mut self,
        pe: usize,
        addr: Addr,
        prior: Option<LineState>,
        state: LineState,
        data: Word,
    ) -> Option<EvictedLine<LineState>> {
        let base = self.block_base(addr);
        let evicted = self.stores[pe].insert_stamped(addr, state, data, self.log.gen(base));
        self.sharers.add(base, pe);
        sync_owner(
            &mut self.owners,
            &self.protocol,
            base,
            pe,
            prior,
            Some(state),
        );
        evicted.map(|line| self.forget(pe, line))
    }

    /// Removes PE `pe`'s line for `addr` (a scrubbed corrupt line) and
    /// returns it, materialized.
    pub(crate) fn remove(&mut self, pe: usize, addr: Addr) -> Option<EvictedLine<LineState>> {
        let line = self.stores[pe].remove(addr)?;
        Some(self.forget(pe, line))
    }

    /// Empties PE `pe`'s cache (a fail-stop) and returns its lines in
    /// set order, materialized.
    pub(crate) fn drain(&mut self, pe: usize) -> Vec<EvictedLine<LineState>> {
        let addrs: Vec<Addr> = self.stores[pe].iter().map(|e| e.addr).collect();
        addrs
            .into_iter()
            .map(|addr| {
                let line = self.stores[pe].remove(addr).expect("line just listed");
                self.forget(pe, line)
            })
            .collect()
    }

    /// Drops a line that left PE `pe`'s cache from the indexes and
    /// materializes it.
    fn forget(&mut self, pe: usize, mut line: EvictedLine<LineState>) -> EvictedLine<LineState> {
        let base = line.addr.index();
        if let Some((state, data, gen)) =
            self.log
                .catch_up(&self.protocol, base, line.stamp, line.state, line.data)
        {
            line.state = state;
            line.data = data;
            line.stamp = gen;
            self.materializations += 1;
        }
        self.sharers.remove(base, pe);
        sync_owner(
            &mut self.owners,
            &self.protocol,
            base,
            pe,
            Some(line.state),
            None,
        );
        line
    }

    // ----- the indexes ------------------------------------------------

    /// Re-syncs the supplier index after PE `pe`'s line for `addr` went
    /// from `was` to `now` outside this type (`None` = no line held).
    /// Every state change made through a [`Caches::probe`] handle must
    /// be reported here; [`Caches::assert_invariants`] checks they are.
    #[inline]
    pub(crate) fn sync_owner(
        &mut self,
        pe: usize,
        addr: Addr,
        was: Option<LineState>,
        now: Option<LineState>,
    ) {
        let base = self.block_base(addr);
        sync_owner(&mut self.owners, &self.protocol, base, pe, was, now);
    }

    /// The first supplier of `addr`'s block at or after PE `from`.
    pub(crate) fn next_owner(&self, addr: Addr, from: usize) -> Option<usize> {
        self.owners.next_from(self.block_base(addr), from)
    }

    /// Records that PE `pe` stalls on a plain bus read of `addr`.
    pub(crate) fn add_pending_reader(&mut self, addr: Addr, pe: usize) {
        self.pending_readers.add(addr.index(), pe);
    }

    /// Records that PE `pe` no longer stalls on a read of `addr`.
    pub(crate) fn remove_pending_reader(&mut self, addr: Addr, pe: usize) {
        self.pending_readers.remove(addr.index(), pe);
    }

    /// The first PE at or after `from` stalled on a read of `addr`.
    pub(crate) fn next_pending_reader(&self, addr: Addr, from: usize) -> Option<usize> {
        self.pending_readers.next_from(addr.index(), from)
    }

    /// Does any cache other than `pe` hold `addr` in a locally-readable
    /// state? Walks the sharer index (which includes `Invalid` holders,
    /// hence the per-holder tag probe, counted honestly), materializing
    /// each holder it reads.
    pub(crate) fn other_readable_holder(
        &mut self,
        pe: usize,
        addr: Addr,
        stats: &mut MachineStats,
    ) -> bool {
        let base = self.block_base(addr);
        let mut cursor = 0;
        while let Some(holder) = self.sharers.next_from(base, cursor) {
            cursor = holder + 1;
            if holder == pe {
                continue;
            }
            stats.tag_probes += 1;
            if self
                .current(holder, addr)
                .is_some_and(|e| e.state.is_readable_locally())
            {
                return true;
            }
        }
        false
    }

    // ----- broadcasts -------------------------------------------------

    /// The deferred broadcast: counts the logical work (one visit and
    /// one tag probe per holder but the skipped ones, from the sharer
    /// popcount), applies the snoop at once to the block's suppliers,
    /// and logs it once for every other holder. The skipped holders
    /// catch up first and are stamped past the new entry, so they never
    /// receive it. Exact only where [`Caches::defers`] holds and no
    /// fault is possible (no line has bad parity to heal).
    pub(crate) fn broadcast(
        &mut self,
        addr: Addr,
        event: SnoopEvent,
        skip: SkipPes,
        stats: &mut MachineStats,
    ) {
        let base = self.block_base(addr);
        let kind = SnoopKind::of(event);
        let word = event.word();
        let skipped = skip
            .pes()
            .filter(|&pe| self.sharers.contains(base, pe))
            .count();
        let visits = self.sharers.count(base) - skipped;
        stats.sharer_visits += visits as u64;
        stats.tag_probes += visits as u64;
        let mut suppliers = 0;
        let mut cursor = 0;
        while let Some(pe) = self.owners.next_from(base, cursor) {
            cursor = pe + 1;
            suppliers += usize::from(!skip.skips(pe));
        }
        let mut settle = false;
        if visits > suppliers {
            // The new entry will bring the block to the next generation
            // (settling keeps it below `u32::MAX`).
            let next = self.log.gen(base) + 1;
            for pe in skip.pes() {
                if let Some(mut line) = self.stores[pe].get_mut(addr) {
                    if self.log.materialize(&self.protocol, &mut line) {
                        self.materializations += 1;
                    }
                    *line.stamp = next;
                }
            }
            settle = self.log.push(base, kind, word);
        }
        let gen = self.log.gen(base);
        let mut cursor = 0;
        while let Some(pe) = self.owners.next_from(base, cursor) {
            cursor = pe + 1;
            if skip.skips(pe) {
                continue;
            }
            let line = self.stores[pe]
                .get_mut(addr)
                .expect("supplier holds the line");
            let step = self.protocol.snoop_step(*line.state, kind);
            *line.state = step.outcome.next;
            if step.outcome.capture {
                if let Some(word) = word {
                    *line.data = word;
                }
            }
            *line.stamp = gen;
            if !step.supplies {
                self.owners.remove(base, pe);
            }
        }
        if settle {
            self.settle(addr);
        }
    }

    /// Materializes every holder of `addr`'s block and empties its log,
    /// restarting its generation at 0.
    fn settle(&mut self, addr: Addr) {
        let base = self.block_base(addr);
        let mut cursor = 0;
        while let Some(pe) = self.sharers.next_from(base, cursor) {
            cursor = pe + 1;
            let mut line = self.stores[pe]
                .get_mut(addr)
                .expect("sharer holds the line");
            if self.log.materialize(&self.protocol, &mut line) {
                self.materializations += 1;
            }
            *line.stamp = 0;
        }
        self.log.clear_block(base);
    }

    /// The per-sharer scan: one cursor step, skip test and tag probe
    /// per holder, each line materialized before the snoop applies.
    /// Handles every geometry and the fault paths; returns the PEs whose
    /// corrupted line the captured broadcast healed, in ascending order.
    pub(crate) fn snoop_each(
        &mut self,
        addr: Addr,
        event: SnoopEvent,
        skip: SkipPes,
        stats: &mut MachineStats,
    ) -> Vec<usize> {
        let base = self.block_base(addr);
        let mut healed = Vec::new();
        let mut cursor = 0;
        while let Some(pe) = self.sharers.next_from(base, cursor) {
            cursor = pe + 1;
            if skip.skips(pe) {
                continue;
            }
            stats.sharer_visits += 1;
            stats.tag_probes += 1;
            let Some(mut line) = self.stores[pe].get_mut(addr) else {
                continue;
            };
            if self.log.materialize(&self.protocol, &mut line) {
                self.materializations += 1;
            }
            let old = *line.state;
            let out = self.protocol.snoop(old, event);
            *line.state = out.next;
            if out.capture {
                if let Some(word) = event.word() {
                    *line.data = word;
                    if !*line.parity_ok {
                        // The captured broadcast overwrites the
                        // corrupted word before anyone read it: the
                        // line is healed in place (the RWB-family
                        // bonus of write broadcasting).
                        *line.parity_ok = true;
                        healed.push(pe);
                    }
                }
            }
            if out.next != old {
                sync_owner(
                    &mut self.owners,
                    &self.protocol,
                    base,
                    pe,
                    Some(old),
                    Some(out.next),
                );
            }
        }
        healed
    }

    // ----- checkpoints and invariants ---------------------------------

    /// Every PE's tag store exported for a checkpoint, in PE order, every
    /// line in its materialized form. Only lines of blocks with a log can
    /// be behind, and those live in direct-mapped stores, one slot per
    /// block, so only those slots are revisited.
    pub(crate) fn checkpoint_stores(&self) -> Vec<TagStoreCheckpoint<LineState>> {
        let logged: Vec<Addr> = (0..self.log.blocks.len() as u64)
            .filter(|&base| self.log.log(base).is_some())
            .map(Addr::new)
            .collect();
        debug_assert!(logged.is_empty() || self.geometry.ways() == 1);
        self.stores
            .iter()
            .map(|store| {
                let mut ck = store.checkpoint_state();
                for &base in &logged {
                    if let Some(entry) = store.get(base) {
                        let entry = self.view_of(entry);
                        let line = &mut ck.lines[self.geometry.set_of(base)];
                        line.state = Some(entry.state);
                        line.data = entry.data;
                    }
                }
                ck
            })
            .collect()
    }

    /// Overwrites PE `pe`'s tag store from a checkpoint. Call
    /// [`Caches::reindex`] once every store is restored.
    pub(crate) fn restore_store(
        &mut self,
        pe: usize,
        ck: TagStoreCheckpoint<LineState>,
    ) -> Result<(), String> {
        self.stores[pe].restore_state(ck)
    }

    /// Asserts the indexes against a brute-force recompute from the
    /// materialized lines: each index is well formed, the sharer index
    /// equals the holder sets, every holder snoops the bus serving its
    /// block (`attached(pe, block)`), the supplier index equals the
    /// holders whose materialized state supplies, every supplier is
    /// caught up, and every line behind its block finds the entries it
    /// missed in the block's log. Returns the pending-read index's
    /// member count for the caller to check against the PE statuses.
    pub(crate) fn assert_invariants(&self, attached: impl Fn(usize, Addr) -> bool) -> usize {
        self.sharers.assert_well_formed("sharer");
        self.owners.assert_well_formed("supplier");
        self.pending_readers.assert_well_formed("pending-read");
        for base in 0..self.log.blocks.len() as u64 {
            let Some(log) = self.log.log(base) else {
                continue;
            };
            assert!(!log.is_empty(), "empty broadcast log for {base}");
            assert!(
                log.windows(2).all(|w| w[0].gen < w[1].gen),
                "broadcast log for {base} out of order"
            );
            assert_eq!(
                log.last().map(|e| e.gen),
                Some(self.log.gen(base)),
                "broadcast log for {base} ends before its generation"
            );
        }
        let mut cached_lines = 0;
        let mut supplying_lines = 0;
        for (pe, store) in self.stores.iter().enumerate() {
            assert_eq!(store.len(), store.iter().count(), "cached len for P{pe}");
            for stored in store.iter() {
                cached_lines += 1;
                let base = stored.addr.index();
                let gen = self.log.gen(base);
                assert!(
                    stored.stamp == gen || self.log.log(base).is_some(),
                    "P{pe}'s line at {} is behind a block with no log",
                    stored.addr
                );
                assert!(
                    stored.stamp <= gen,
                    "P{pe}'s line at {} is stamped past its block",
                    stored.addr
                );
                assert!(
                    attached(pe, stored.addr),
                    "P{pe} holds {} but does not snoop the bus serving it",
                    stored.addr
                );
                let entry = self.view_of(stored);
                assert!(
                    self.sharers.contains(base, pe),
                    "sharer index misses P{pe} holding {}",
                    entry.addr
                );
                let supplies = self.protocol.supplies_on_snoop_read(entry.state);
                if supplies {
                    supplying_lines += 1;
                    assert_eq!(
                        stored.stamp, gen,
                        "P{pe}'s supplying line at {} is behind its block",
                        entry.addr
                    );
                }
                assert_eq!(
                    self.owners.contains(base, pe),
                    supplies,
                    "supplier index disagrees with P{pe}'s {:?} line at {}",
                    entry.state,
                    entry.addr
                );
            }
        }
        assert_eq!(
            self.sharers.total(),
            cached_lines,
            "sharer index has stale holder bits"
        );
        assert_eq!(
            self.owners.total(),
            supplying_lines,
            "supplier index has stale owner bits"
        );
        self.pending_readers.total()
    }

    /// Whether PE `pe` is in the pending-read index for `addr`.
    pub(crate) fn is_pending_reader(&self, addr: Addr, pe: usize) -> bool {
        self.pending_readers.contains(addr.index(), pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ir::{hand_table, RuleTable, TableProtocol};
    use decache_core::ProtocolKind;

    const PES: usize = 4;
    const LINES: usize = 4;
    const ADDRS: u64 = 8;

    /// The reference: plain tag stores, every snoop applied at once to
    /// every holder but the skipped ones.
    struct Eager {
        stores: Vec<TagStore<LineState>>,
        protocol: AnyProtocol,
    }

    impl Eager {
        fn snoop(&mut self, addr: Addr, event: SnoopEvent, skip: SkipPes) {
            for (pe, store) in self.stores.iter_mut().enumerate() {
                if skip.skips(pe) {
                    continue;
                }
                if let Some(line) = store.get_mut(addr) {
                    let out = self.protocol.snoop(*line.state, event);
                    *line.state = out.next;
                    if let (true, Some(word)) = (out.capture, event.word()) {
                        *line.data = word;
                    }
                }
            }
        }
    }

    fn pair(protocol: &AnyProtocol) -> (Caches, Eager) {
        let stores = || vec![TagStore::new(Geometry::direct_mapped(LINES)); PES];
        let caches = Caches::new(stores(), protocol.clone(), ADDRS);
        assert!(caches.defers());
        let eager = Eager {
            stores: stores(),
            protocol: protocol.clone(),
        };
        (caches, eager)
    }

    fn line(entry: Option<Entry<LineState>>) -> Option<(LineState, Word)> {
        entry.map(|e| (e.state, e.data))
    }

    fn assert_agree(caches: &Caches, eager: &Eager, what: &str) {
        caches.assert_invariants(|_, _| true);
        for pe in 0..PES {
            for a in 0..ADDRS {
                let addr = Addr::new(a);
                assert_eq!(
                    line(caches.view(pe, addr)),
                    line(eager.stores[pe].get(addr)),
                    "{what}: P{pe} at {addr}"
                );
            }
        }
    }

    /// Random fills, CPU-style probes, evictions and broadcasts — some
    /// deferred, some down the scan path — on every built-in protocol,
    /// checked after every step against eager application: every view,
    /// every line the `&mut` accessors return and write back, every
    /// displaced line and every exported checkpoint must be the
    /// eagerly updated line. Long logs settle along the way.
    #[test]
    fn deferred_lines_read_as_if_every_snoop_applied_at_once() {
        decache_rng::testing::check("caches_vs_eager", 96, |rng| {
            let kinds: Vec<ProtocolKind> = ProtocolKind::ALL.into_iter().collect();
            let protocol = AnyProtocol::build(*rng.choose(&kinds));
            let states = protocol.states();
            // Snoops every state has a rule for.
            let snoops: Vec<SnoopKind> = SnoopKind::ALL
                .into_iter()
                .filter(|&k| states.iter().all(|&s| cell(&protocol, s, k).is_some()))
                .collect();
            let (mut caches, mut eager) = pair(&protocol);
            for step in 0..rng.gen_range(1usize..400) {
                let pe = rng.gen_range(0..PES);
                let addr = Addr::new(rng.gen_range(0..ADDRS));
                let word = Word::new(rng.gen_range(0u64..4));
                let what = format!("{} step {step}", protocol.name());
                match rng.gen_range(0u32..10) {
                    0 | 1 => {
                        let state = *rng.choose(&states);
                        let prior = caches.current(pe, addr).map(|e| e.state);
                        assert_eq!(prior, eager.stores[pe].state_of(addr), "{what}: prior");
                        let evicted = caches.install(pe, addr, prior, state, word);
                        let reference = eager.stores[pe].insert(addr, state, word);
                        assert_eq!(
                            evicted.map(|e| (e.addr, e.state, e.data)),
                            reference.map(|e| (e.addr, e.state, e.data)),
                            "{what}: displaced line"
                        );
                    }
                    2 => {
                        let probed = caches.probe(pe, addr).map(|e| (*e.state, *e.data));
                        assert_eq!(probed, line(eager.stores[pe].get(addr)), "{what}: probe");
                    }
                    3 => {
                        let current = line(caches.current(pe, addr));
                        assert_eq!(current, line(eager.stores[pe].get(addr)), "{what}: current");
                    }
                    _ if !snoops.is_empty() => {
                        let kind = *rng.choose(&snoops);
                        let event = match kind.event().word() {
                            Some(_) => match kind {
                                SnoopKind::Read => SnoopEvent::Read(word),
                                SnoopKind::Write => SnoopEvent::Write(word),
                                SnoopKind::LockedRead => SnoopEvent::LockedRead(word),
                                _ => SnoopEvent::UnlockWrite(word),
                            },
                            None => SnoopEvent::Invalidate,
                        };
                        let mut skip = SkipPes::initiator(pe);
                        if rng.gen_bool(0.2) {
                            skip = skip.with_supplier(rng.gen_range(0..PES));
                        }
                        let mut stats = MachineStats::default();
                        if rng.gen_bool(0.2) {
                            caches.snoop_each(addr, event, skip, &mut stats);
                        } else {
                            caches.broadcast(addr, event, skip, &mut stats);
                        }
                        eager.snoop(addr, event, skip);
                    }
                    _ => {}
                }
                assert_agree(&caches, &eager, &what);
            }
            for (pe, ck) in caches.checkpoint_stores().into_iter().enumerate() {
                assert_eq!(
                    ck.lines,
                    eager.stores[pe].checkpoint_state().lines,
                    "{}: P{pe} checkpoint",
                    protocol.name()
                );
            }
        });
    }

    /// A block whose log never collapses settles once it grows past
    /// [`LOG_CAP`]: every holder catches up and the log empties.
    #[test]
    fn long_logs_settle_every_holder() {
        // MESI never captures, so no entry collapses the log; reads with
        // alternating words never merge.
        let protocol = AnyProtocol::build(ProtocolKind::Mesi);
        let (mut caches, mut eager) = pair(&protocol);
        let addr = Addr::new(1);
        for pe in 0..PES {
            caches.install(pe, addr, None, LineState::Valid, Word::new(5));
            eager.stores[pe].insert(addr, LineState::Valid, Word::new(5));
        }
        let mut stats = MachineStats::default();
        let mut events = vec![SnoopEvent::Invalidate];
        events.extend((0..2 * LOG_CAP as u64).map(|i| SnoopEvent::Read(Word::new(i % 2))));
        let mut settled = false;
        for (i, event) in events.into_iter().enumerate() {
            caches.broadcast(addr, event, SkipPes::initiator(0), &mut stats);
            eager.snoop(addr, event, SkipPes::initiator(0));
            settled |= caches.log.log(1).is_none();
            assert_agree(&caches, &eager, &format!("broadcast {i}"));
        }
        assert!(settled, "the log never settled");
    }

    /// The invariant check reads materialized states: a line that a
    /// deferred snoop promoted to a supplier, behind the supplier
    /// index's back, is caught. (Such a table is never deferred; the test
    /// forces it.)
    #[test]
    #[should_panic(expected = "supplying line at @2 is behind its block")]
    fn invariants_see_through_deferral() {
        let mut table: RuleTable = hand_table(ProtocolKind::Rb).expect("RB has a table");
        for rule in &mut table.rules {
            if rule.from == Some(LineState::Invalid)
                && rule.input == TableInput::Snoop(SnoopKind::Read)
            {
                rule.effect = Effect::Next {
                    next: LineState::Local,
                    capture: true,
                };
            }
        }
        let protocol = TableProtocol::new(table);
        let mut caches = Caches::new(
            vec![TagStore::new(Geometry::direct_mapped(LINES)); PES],
            protocol,
            ADDRS,
        );
        assert!(!caches.defers(), "the table creates a supplier on a snoop");
        caches.defer = true;
        let addr = Addr::new(2);
        caches.install(1, addr, None, LineState::Invalid, Word::ZERO);
        caches.install(2, addr, None, LineState::Invalid, Word::ZERO);
        let mut stats = MachineStats::default();
        caches.broadcast(
            addr,
            SnoopEvent::Read(Word::ONE),
            SkipPes::initiator(0),
            &mut stats,
        );
        caches.assert_invariants(|_, _| true);
    }

    #[test]
    fn skip_lists_each_pe_once() {
        let both = SkipPes::initiator(3).with_supplier(3);
        assert_eq!(both.pes().collect::<Vec<_>>(), vec![3]);
        let two = SkipPes::initiator(3).with_supplier(1);
        assert_eq!(two.pes().collect::<Vec<_>>(), vec![3, 1]);
        assert!(two.skips(1) && two.skips(3) && !two.skips(0));
    }
}
