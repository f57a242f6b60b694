//! The unified metrics snapshot: every counter the machine exposes,
//! gathered into one typed, serializable tree.
//!
//! [`MetricsSnapshot::from_machine`] is the single reading point for
//! cache, bus, machine, fault, and histogram statistics; everything the
//! bench bins and experiment tables report is derived from it. The
//! serialized form contains **only raw integer counters** (never
//! derived ratios), so a snapshot round-trips through JSON exactly and
//! two snapshots can be merged by plain addition.

use crate::codec::{Absent, DecodeError, FromJson, ToJson};
use crate::json::Json;
use crate::json_record;
use decache_bus::BusOpKind;
use decache_cache::{AccessKind, RefClass};
use decache_machine::{FaultStats, Histogram, Machine, MachineStats};

/// Schema version stamped into every serialized snapshot.
pub const SCHEMA_VERSION: u64 = 1;

const KINDS: [&str; 2] = ["read", "write"];
const CLASSES: [&str; 3] = ["code", "local", "shared"];

/// Adds every integer of `other`'s JSON form to the matching integer of
/// `into`'s: the sum of two counter records, read off their one field
/// list.
fn add_counters<T: ToJson + FromJson>(into: &mut T, other: &T) {
    fn add(into: &mut Json, other: &Json) {
        match (into, other) {
            (Json::U64(a), Json::U64(b)) => *a += b,
            (Json::Object(a), Json::Object(b)) => {
                for ((_, a), (_, b)) in a.iter_mut().zip(b) {
                    add(a, b);
                }
            }
            _ => {}
        }
    }
    let mut sum = into.to_json();
    add(&mut sum, &other.to_json());
    *into = T::from_json(&sum, Absent::Required).expect("a record decodes its own encoding");
}

/// Per-PE cache hit/miss counters, keyed by access kind × reference
/// class exactly like `CacheStats` (the paper's Table 1-1 taxonomy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// `hits[kind][class]`: kind 0 = read, 1 = write; class 0 = code,
    /// 1 = local, 2 = shared.
    pub hits: [[u64; 3]; 2],
    /// Misses, same indexing.
    pub misses: [[u64; 3]; 2],
}

impl CacheCounts {
    fn from_stats(stats: &decache_cache::CacheStats) -> Self {
        let mut out = CacheCounts::default();
        for (k, kind) in [AccessKind::Read, AccessKind::Write]
            .into_iter()
            .enumerate()
        {
            for (c, class) in RefClass::ALL.into_iter().enumerate() {
                out.hits[k][c] = stats.hits(kind, class);
                out.misses[k][c] = stats.misses(kind, class);
            }
        }
        out
    }

    /// Total references of all kinds and classes.
    pub fn total_references(&self) -> u64 {
        self.total_hits() + self.total_misses()
    }

    /// Total hits.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().flatten().sum()
    }

    /// Total misses.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().flatten().sum()
    }

    /// Read misses across all classes.
    pub fn read_misses(&self) -> u64 {
        self.misses[0].iter().sum()
    }

    /// Write misses across all classes.
    pub fn write_misses(&self) -> u64 {
        self.misses[1].iter().sum()
    }

    /// The hit ratio in `[0, 1]`; 0 with no references.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_references();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    fn merge(&mut self, other: &CacheCounts) {
        for k in 0..2 {
            for c in 0..3 {
                self.hits[k][c] += other.hits[k][c];
                self.misses[k][c] += other.misses[k][c];
            }
        }
    }
}

/// A `[kind][class]` table as `{"read": {"code": n, ...}, ...}`.
fn table_to_json(table: &[[u64; 3]; 2]) -> Json {
    Json::Object(
        KINDS
            .iter()
            .zip(table)
            .map(|(kind, row)| {
                let cells = CLASSES.iter().zip(row);
                let cells = cells.map(|(class, &n)| ((*class).to_owned(), Json::U64(n)));
                ((*kind).to_owned(), Json::Object(cells.collect()))
            })
            .collect(),
    )
}

fn table_from_json(value: &Json) -> Result<[[u64; 3]; 2], DecodeError> {
    let mut table = [[0u64; 3]; 2];
    let rows = crate::codec::object(value)?;
    for (kind, row) in KINDS.into_iter().zip(&mut table) {
        let cells = crate::codec::decode_with(rows, kind, crate::codec::object)?;
        for (class, cell) in CLASSES.into_iter().zip(row) {
            *cell = crate::codec::decode_field(cells, class, Absent::Required)
                .map_err(|e| e.at(kind))?;
        }
    }
    Ok(table)
}

json_record!(CacheCounts {
    hits: with(table_to_json, table_from_json),
    misses: with(table_to_json, table_from_json),
});

/// Per-bus traffic counters, mirroring `TrafficStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusCounts {
    /// Plain bus reads (`BR`).
    pub reads: u64,
    /// Bus writes (`BW`), including supplier substitutions, eviction
    /// write-backs, and lock-rejected attempts.
    pub writes: u64,
    /// Bus invalidates (`BI`).
    pub invalidates: u64,
    /// Locked reads (`BRL`), accepted or rejected.
    pub locked_reads: u64,
    /// Unlocking writes (`BWU`).
    pub unlock_writes: u64,
    /// Reads interrupted by an owning snooper.
    pub aborted_reads: u64,
    /// Transactions re-run from the retry lane.
    pub retries: u64,
    /// Cycles with a transaction on the bus.
    pub busy_cycles: u64,
    /// Cycles with the bus idle.
    pub idle_cycles: u64,
    /// Split-transaction address phases (zero under non-split
    /// disciplines).
    pub address_phases: u64,
}

impl BusCounts {
    fn from_stats(stats: &decache_bus::TrafficStats) -> Self {
        BusCounts {
            reads: stats.count(BusOpKind::Read),
            writes: stats.count(BusOpKind::Write),
            invalidates: stats.count(BusOpKind::Invalidate),
            locked_reads: stats.count(BusOpKind::ReadWithLock),
            unlock_writes: stats.count(BusOpKind::WriteWithUnlock),
            aborted_reads: stats.aborted_reads,
            retries: stats.retries,
            busy_cycles: stats.busy_cycles,
            idle_cycles: stats.idle_cycles,
            address_phases: stats.address_phases,
        }
    }

    /// Total transactions across all kinds.
    pub fn total_transactions(&self) -> u64 {
        self.reads + self.writes + self.invalidates + self.locked_reads + self.unlock_writes
    }

    /// Data-fetching transactions (`BR + BRL`).
    pub fn total_reads(&self) -> u64 {
        self.reads + self.locked_reads
    }

    /// Memory-updating transactions (`BW + BWU`).
    pub fn total_writes(&self) -> u64 {
        self.writes + self.unlock_writes
    }

    /// The fraction of cycles the bus was busy, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

// `address_phases` postdates the first schema-1 snapshots; absent means
// a run under a non-split discipline that never counted it.
json_record!(BusCounts {
    reads,
    writes,
    invalidates,
    locked_reads,
    unlock_writes,
    aborted_reads,
    retries,
    busy_cycles,
    idle_cycles,
    address_phases: or_zero,
});

/// A serialized latency histogram: the moments plus the non-empty
/// power-of-2 buckets as `(floor, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// The largest sample.
    pub max: u64,
    /// Non-empty buckets, ascending by floor.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_histogram(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            buckets: h.nonzero_buckets(),
        }
    }

    /// The mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for &(floor, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&floor, |&(f, _)| f) {
                Ok(i) => self.buckets[i].1 += count,
                Err(i) => self.buckets.insert(i, (floor, count)),
            }
        }
    }
}

json_record!(HistogramSnapshot {
    count,
    sum,
    max,
    buckets,
});

/// The four cycle-attribution histograms in serialized form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSet {
    /// Arbitration wait per granted transaction.
    pub bus_acquire_wait: HistogramSnapshot,
    /// Bus occupancy per memory-touching transaction.
    pub memory_service: HistogramSnapshot,
    /// Read-miss-to-fill latency.
    pub read_fill: HistogramSnapshot,
    /// Test-and-Set issue-to-resolution spin length.
    pub ts_spin: HistogramSnapshot,
}

impl HistogramSet {
    fn merge(&mut self, other: &HistogramSet) {
        self.bus_acquire_wait.merge(&other.bus_acquire_wait);
        self.memory_service.merge(&other.memory_service);
        self.read_fill.merge(&other.read_fill);
        self.ts_spin.merge(&other.ts_spin);
    }
}

json_record!(HistogramSet {
    bus_acquire_wait,
    memory_service,
    read_fill,
    ts_spin,
});

fn schema() -> Json {
    Json::U64(SCHEMA_VERSION)
}

fn check_schema(value: &Json) -> Result<(), DecodeError> {
    match u64::from_json(value, Absent::Required)? {
        SCHEMA_VERSION => Ok(()),
        other => Err(DecodeError::new(format!(
            "unsupported snapshot schema {other} (expected {SCHEMA_VERSION})"
        ))),
    }
}

json_record!(MetricsSnapshot {
    const "schema": with(schema, check_schema),
    protocol,
    pes,
    buses,
    cycles,
    runs,
    cache_per_pe,
    bus_per_bus,
    machine,
    faults,
    histograms: if_some,
});

/// One unified snapshot of every statistic a machine exposes.
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
/// use decache_machine::{MachineBuilder, Script};
/// use decache_mem::{Addr, Word};
/// use decache_telemetry::MetricsSnapshot;
///
/// let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
///     .telemetry()
///     .processor(Script::new().write(Addr::new(0), Word::ONE).build())
///     .processor(Script::new().read(Addr::new(0)).build())
///     .build();
/// machine.run_to_completion(1_000);
///
/// let snapshot = MetricsSnapshot::from_machine(&machine);
/// snapshot.check_conservation().unwrap();
/// let back = MetricsSnapshot::parse(&snapshot.to_json_string()).unwrap();
/// assert_eq!(back, snapshot);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The coherence protocol's display name (e.g. `"RWB"`).
    pub protocol: String,
    /// Processing elements in the machine.
    pub pes: u64,
    /// Shared buses in the machine.
    pub buses: u64,
    /// Elapsed bus cycles.
    pub cycles: u64,
    /// Runs merged into this snapshot (1 for a fresh one).
    pub runs: u64,
    /// Per-PE cache hit/miss counters.
    pub cache_per_pe: Vec<CacheCounts>,
    /// Per-bus traffic counters.
    pub bus_per_bus: Vec<BusCounts>,
    /// Machine-level counters.
    pub machine: MachineStats,
    /// Fault-injection and recovery counters.
    pub faults: FaultStats,
    /// Cycle-attribution histograms; `None` when the machine was built
    /// without [`MachineBuilder::telemetry`].
    ///
    /// [`MachineBuilder::telemetry`]: decache_machine::MachineBuilder::telemetry
    pub histograms: Option<HistogramSet>,
}

impl MetricsSnapshot {
    /// Reads every counter out of a machine.
    pub fn from_machine(machine: &Machine) -> Self {
        let traffic = machine.traffic_per_bus();
        MetricsSnapshot {
            protocol: machine.protocol().table().name.clone(),
            pes: machine.pe_count() as u64,
            buses: machine.bus_count() as u64,
            cycles: machine.cycles(),
            runs: 1,
            cache_per_pe: (0..machine.pe_count())
                .map(|pe| CacheCounts::from_stats(&machine.cache_stats(pe)))
                .collect(),
            bus_per_bus: (0..machine.bus_count())
                .map(|b| BusCounts::from_stats(traffic.bus(b)))
                .collect(),
            machine: machine.stats(),
            faults: machine.fault_stats(),
            histograms: machine.histograms().map(|h| HistogramSet {
                bus_acquire_wait: HistogramSnapshot::from_histogram(&h.bus_acquire_wait),
                memory_service: HistogramSnapshot::from_histogram(&h.memory_service),
                read_fill: HistogramSnapshot::from_histogram(&h.read_fill),
                ts_spin: HistogramSnapshot::from_histogram(&h.ts_spin),
            }),
        }
    }

    /// Cache counters summed over all PEs.
    pub fn cache_total(&self) -> CacheCounts {
        let mut total = CacheCounts::default();
        for c in &self.cache_per_pe {
            total.merge(c);
        }
        total
    }

    /// Traffic counters summed over all buses.
    pub fn bus_total(&self) -> BusCounts {
        let mut total = BusCounts::default();
        for b in &self.bus_per_bus {
            add_counters(&mut total, b);
        }
        total
    }

    /// Merges another run of the **same configuration** (protocol, PE
    /// count, bus count) into this snapshot by summing every counter.
    ///
    /// # Errors
    ///
    /// Returns a message if the configurations differ, or if exactly
    /// one of the two snapshots carries histograms.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), String> {
        if self.protocol != other.protocol {
            return Err(format!(
                "protocol mismatch: {} vs {}",
                self.protocol, other.protocol
            ));
        }
        if self.pes != other.pes || self.buses != other.buses {
            return Err(format!(
                "shape mismatch: {}x{} vs {}x{} (PEs x buses)",
                self.pes, self.buses, other.pes, other.buses
            ));
        }
        match (&mut self.histograms, &other.histograms) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, None) => {}
            _ => return Err("histogram presence mismatch".to_owned()),
        }
        self.cycles += other.cycles;
        self.runs += other.runs;
        for (mine, theirs) in self.cache_per_pe.iter_mut().zip(&other.cache_per_pe) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.bus_per_bus.iter_mut().zip(&other.bus_per_bus) {
            add_counters(mine, theirs);
        }
        add_counters(&mut self.machine, &other.machine);
        add_counters(&mut self.faults, &other.faults);
        Ok(())
    }

    /// Serializes to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        ToJson::to_json(self)
    }

    /// The canonical compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Reconstructs a snapshot from its JSON form. Counters added after
    /// schema 1 was first written read as zero when absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path of a missing or ill-typed
    /// field, or an unsupported schema version.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        Ok(<Self as FromJson>::from_json(value, Absent::Zero)?)
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a schema mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Checks every cross-counter identity that holds for **any**
    /// snapshot — fault-free or fault-laden, fresh or merged. The
    /// seeded conservation suite layers stricter fault-free identities
    /// on top.
    ///
    /// # Errors
    ///
    /// Returns the list of violated identities.
    pub fn check_conservation(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                violations.push(what);
            }
        };
        let bus = self.bus_total();
        let m = &self.machine;
        let f = &self.faults;

        check(
            self.cache_per_pe.len() as u64 == self.pes,
            format!(
                "per-PE cache vector length {} != pes {}",
                self.cache_per_pe.len(),
                self.pes
            ),
        );
        check(
            self.bus_per_bus.len() as u64 == self.buses,
            format!(
                "per-bus vector length {} != buses {}",
                self.bus_per_bus.len(),
                self.buses
            ),
        );

        // Rejection split: every rejection is exactly one locked read
        // or one plain write.
        check(
            m.lock_rejected_reads + m.lock_rejected_writes == m.lock_rejections,
            format!(
                "lock rejections {} != rejected reads {} + rejected writes {}",
                m.lock_rejections, m.lock_rejected_reads, m.lock_rejected_writes
            ),
        );

        // Every unlocking write completes exactly one successful TS
        // (BWU cannot be rejected; a cancelled one is never granted).
        check(
            bus.unlock_writes == m.ts_successes,
            format!(
                "BWU {} != TS successes {}",
                bus.unlock_writes, m.ts_successes
            ),
        );

        // Locked reads: one accepted BRL resolves each TS attempt, one
        // rejected BRL per rejected locked read; a fail-stop can cancel
        // an attempt after its BRL was accepted but before resolution.
        check(
            bus.locked_reads >= m.ts_attempts() + m.lock_rejected_reads
                && bus.locked_reads <= m.ts_attempts() + m.lock_rejected_reads + f.pe_fail_stops,
            format!(
                "BRL {} outside [TS attempts {} + rejected reads {}, +fail-stops {}]",
                bus.locked_reads,
                m.ts_attempts(),
                m.lock_rejected_reads,
                f.pe_fail_stops
            ),
        );

        // A broadcast can satisfy at most the n-1 other PEs per
        // transaction.
        check(
            m.broadcast_satisfied <= self.pes.saturating_sub(1) * bus.total_transactions(),
            format!(
                "broadcasts satisfied {} > (pes-1) x transactions {}",
                m.broadcast_satisfied,
                self.pes.saturating_sub(1) * bus.total_transactions()
            ),
        );

        // Work-unit identities (skipped for legacy snapshots that
        // predate the counters and parsed them as all-zero). Every
        // sharer or pending-reader visit probes exactly one tag store,
        // every issued CPU reference probes one, and every
        // broadcast-satisfied read was one pending-reader visit — on
        // both the scanned and the deferred dispatch path.
        if m.work_units() > 0 {
            check(
                m.tag_probes >= m.sharer_visits,
                format!(
                    "tag probes {} < sharer visits {}",
                    m.tag_probes, m.sharer_visits
                ),
            );
            check(
                m.sharer_visits >= m.broadcast_satisfied,
                format!(
                    "sharer visits {} < broadcasts satisfied {}",
                    m.sharer_visits, m.broadcast_satisfied
                ),
            );
            check(
                m.tag_probes >= self.cache_total().total_references(),
                format!(
                    "tag probes {} < cache references {}",
                    m.tag_probes,
                    self.cache_total().total_references()
                ),
            );
            check(
                m.queue_scans <= self.cycles.saturating_mul(self.buses),
                format!(
                    "queue scans {} > cycles {} x buses {}",
                    m.queue_scans, self.cycles, self.buses
                ),
            );
        }

        // Address phases are busy cycles the split discipline charges
        // without a transaction completion; other disciplines never
        // record one.
        for (i, b) in self.bus_per_bus.iter().enumerate() {
            check(
                b.address_phases <= b.busy_cycles,
                format!(
                    "bus {i}: address phases {} > busy cycles {}",
                    b.address_phases, b.busy_cycles
                ),
            );
        }

        // Eviction write-backs and fail-stop drains are each charged
        // one bus write.
        check(
            m.writebacks + f.drained_lines <= bus.writes,
            format!(
                "writebacks {} + drained {} > bus writes {}",
                m.writebacks, f.drained_lines, bus.writes
            ),
        );

        // Every detected memory fault reaches the repair policy exactly
        // once.
        check(
            f.memory_recovery_attempts() == f.memory_faults_detected,
            format!(
                "memory recovery attempts {} != detections {}",
                f.memory_recovery_attempts(),
                f.memory_faults_detected
            ),
        );

        // Detecting a corrupted cache line and re-fetching it are the
        // same event.
        check(
            f.cache_refetches == f.cache_faults_detected,
            format!(
                "cache refetches {} != cache detections {}",
                f.cache_refetches, f.cache_faults_detected
            ),
        );

        // Each detection or heal closes at most one latency ledger
        // entry.
        check(
            f.recovery_latency_samples
                <= f.memory_faults_detected + f.cache_faults_detected + f.broadcast_heals,
            format!(
                "latency samples {} > detections {} + heals {}",
                f.recovery_latency_samples,
                f.memory_faults_detected + f.cache_faults_detected,
                f.broadcast_heals
            ),
        );

        if let Some(h) = &self.histograms {
            // Histogram populations equal their driving counters —
            // exact even under faults.
            // Split cancels sampled a wait at their address grant but
            // never complete a transaction, so they join the
            // ledger on the sample side.
            check(
                h.bus_acquire_wait.count
                    == bus.total_transactions() - m.writebacks - f.drained_lines + m.split_cancels,
                format!(
                    "acquire-wait samples {} != transactions {} - writebacks {} - drained {} \
                     + split cancels {}",
                    h.bus_acquire_wait.count,
                    bus.total_transactions(),
                    m.writebacks,
                    f.drained_lines,
                    m.split_cancels
                ),
            );
            // Under split every grant records exactly one address
            // phase; under other disciplines none do.
            check(
                bus.address_phases <= h.bus_acquire_wait.count,
                format!(
                    "address phases {} > acquire-wait samples {}",
                    bus.address_phases, h.bus_acquire_wait.count
                ),
            );
            check(
                h.memory_service.count
                    == bus.total_reads() + bus.total_writes() - m.lock_rejections,
                format!(
                    "memory-service samples {} != reads {} + writes {} - rejections {}",
                    h.memory_service.count,
                    bus.total_reads(),
                    bus.total_writes(),
                    m.lock_rejections
                ),
            );
            check(
                h.read_fill.count == bus.reads + m.broadcast_satisfied,
                format!(
                    "read-fill samples {} != BR {} + broadcasts satisfied {}",
                    h.read_fill.count, bus.reads, m.broadcast_satisfied
                ),
            );
            check(
                h.ts_spin.count == m.ts_attempts(),
                format!(
                    "TS-spin samples {} != TS attempts {}",
                    h.ts_spin.count,
                    m.ts_attempts()
                ),
            );
            for (name, hist) in [
                ("bus_acquire_wait", &h.bus_acquire_wait),
                ("memory_service", &h.memory_service),
                ("read_fill", &h.read_fill),
                ("ts_spin", &h.ts_spin),
            ] {
                let bucket_total: u64 = hist.buckets.iter().map(|&(_, c)| c).sum();
                check(
                    bucket_total == hist.count,
                    format!(
                        "{name}: bucket population {bucket_total} != count {}",
                        hist.count
                    ),
                );
                if hist.count > 0 {
                    check(
                        hist.max <= hist.sum
                            && hist.sum <= hist.count.saturating_mul(hist.max.max(1)),
                        format!(
                            "{name}: moments inconsistent (count={} sum={} max={})",
                            hist.count, hist.sum, hist.max
                        ),
                    );
                }
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ProtocolKind;
    use decache_machine::{MachineBuilder, Script};
    use decache_mem::{Addr, Word};

    fn sample_machine(telemetry: bool) -> Machine {
        let mut b = MachineBuilder::new(ProtocolKind::Rwb);
        b.memory_words(64).cache_lines(8);
        if telemetry {
            b.telemetry();
        }
        let mut machine = b
            .processor(
                Script::new()
                    .write(Addr::new(0), Word::new(7))
                    .test_and_set(Addr::new(1), Word::ONE)
                    .read(Addr::new(2))
                    .build(),
            )
            .processor(
                Script::new()
                    .read(Addr::new(0))
                    .test_and_set(Addr::new(1), Word::ONE)
                    .build(),
            )
            .build();
        machine.run_to_completion(10_000);
        machine
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        for telemetry in [false, true] {
            let machine = sample_machine(telemetry);
            let snapshot = MetricsSnapshot::from_machine(&machine);
            assert_eq!(snapshot.histograms.is_some(), telemetry);
            let text = snapshot.to_json_string();
            let back = MetricsSnapshot::parse(&text).unwrap();
            assert_eq!(back, snapshot);
            assert_eq!(back.to_json_string(), text, "canonical form is stable");
        }
    }

    #[test]
    fn snapshot_matches_machine_counters() {
        let machine = sample_machine(true);
        let snapshot = MetricsSnapshot::from_machine(&machine);
        assert_eq!(snapshot.protocol, "RWB");
        assert_eq!(snapshot.pes, 2);
        assert_eq!(snapshot.cycles, machine.cycles());
        assert_eq!(
            snapshot.cache_total().total_references(),
            machine.total_cache_stats().total_references()
        );
        assert_eq!(
            snapshot.bus_total().total_transactions(),
            machine.traffic().total_transactions()
        );
        assert_eq!(
            snapshot.machine.ts_attempts(),
            machine.stats().ts_attempts()
        );
        assert_eq!(
            snapshot.machine.work_units(),
            machine.stats().work_units(),
            "work-unit counters survive the snapshot"
        );
        assert!(snapshot.machine.tag_probes > 0);
    }

    /// Counters added after schema 1 was first written: a snapshot
    /// without them still parses, reading them as zero.
    const LATER_MACHINE_COUNTERS: [&str; 4] = [
        "tag_probes",
        "sharer_visits",
        "queue_scans",
        "split_cancels",
    ];

    fn without(value: &mut Json, key: &str) {
        if let Json::Object(fields) = value {
            let before = fields.len();
            fields.retain(|(k, _)| k != key);
            assert_eq!(fields.len() + 1, before, "{key} was present");
        }
    }

    #[test]
    fn legacy_snapshot_without_work_units_still_parses() {
        let mut b = MachineBuilder::new(ProtocolKind::Rwb);
        b.memory_words(64).cache_lines(8).buses(2);
        for pe in 0..4 {
            b.processor(
                Script::new()
                    .write(Addr::new(pe), Word::new(7))
                    .read(Addr::new(pe + 1))
                    .build(),
            );
        }
        let mut machine = b.build();
        machine.run_to_completion(10_000);
        let snapshot = MetricsSnapshot::from_machine(&machine);
        assert_eq!(snapshot.bus_per_bus.len(), 2);
        let mut legacy = snapshot.to_json();
        let Json::Object(fields) = &mut legacy else {
            unreachable!("a snapshot is an object")
        };
        for (key, value) in fields.iter_mut() {
            match key.as_str() {
                "machine" => LATER_MACHINE_COUNTERS
                    .iter()
                    .for_each(|counter| without(value, counter)),
                "bus_per_bus" => {
                    let Json::Array(buses) = value else {
                        unreachable!("bus_per_bus is an array")
                    };
                    buses
                        .iter_mut()
                        .for_each(|bus| without(bus, "address_phases"));
                }
                _ => {}
            }
        }
        let back = MetricsSnapshot::parse(&legacy.to_string()).unwrap();
        assert_eq!(back.machine.work_units(), 0, "absent counters read as 0");
        assert_eq!(back.machine.split_cancels, 0);
        assert!(back.bus_per_bus.iter().all(|b| b.address_phases == 0));
        back.check_conservation()
            .expect("work-unit identities are skipped for legacy snapshots");
        // The tolerance is the snapshot schema's: a checkpoint-strict
        // decode of the same document names the first absent counter.
        let strict = <MetricsSnapshot as FromJson>::from_json(&legacy, Absent::Required);
        assert_eq!(
            strict.unwrap_err().to_string(),
            "bus_per_bus[0].address_phases: missing"
        );
    }

    const GOLDEN: &str = include_str!("../tests/golden/snapshot_rwb_2pe.json");
    /// The same snapshot as written before the machine counters were
    /// keyed in `MachineStats` order (`ts_successes` came first).
    const GOLDEN_LEGACY_ORDER: &str =
        include_str!("../tests/golden/snapshot_rwb_2pe_legacy_order.json");

    #[test]
    fn committed_snapshots_parse_equal_to_a_fresh_one() {
        let fresh = MetricsSnapshot::from_machine(&sample_machine(true));
        for golden in [GOLDEN, GOLDEN_LEGACY_ORDER] {
            assert_eq!(MetricsSnapshot::parse(golden).unwrap(), fresh);
        }
        assert_eq!(format!("{}\n", fresh.to_json_string()), GOLDEN);
    }

    #[test]
    fn conservation_catches_doctored_work_units() {
        let machine = sample_machine(true);
        let mut snapshot = MetricsSnapshot::from_machine(&machine);
        snapshot.machine.sharer_visits = snapshot.machine.tag_probes + 1;
        let violations = snapshot.check_conservation().unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("tag probes")),
            "{violations:?}"
        );
    }

    #[test]
    fn conservation_holds_on_a_real_run() {
        let machine = sample_machine(true);
        MetricsSnapshot::from_machine(&machine)
            .check_conservation()
            .unwrap();
    }

    #[test]
    fn conservation_catches_a_doctored_counter() {
        let machine = sample_machine(true);
        let mut snapshot = MetricsSnapshot::from_machine(&machine);
        snapshot.machine.ts_successes += 1;
        let violations = snapshot.check_conservation().unwrap_err();
        assert!(!violations.is_empty());
    }

    #[test]
    fn merge_sums_counters() {
        let machine = sample_machine(true);
        let one = MetricsSnapshot::from_machine(&machine);
        let mut two = one.clone();
        two.merge(&one).unwrap();
        assert_eq!(two.runs, 2);
        assert_eq!(two.cycles, 2 * one.cycles);
        assert_eq!(
            two.cache_total().total_references(),
            2 * one.cache_total().total_references()
        );
        two.check_conservation().unwrap();

        let mut other = one.clone();
        other.protocol = "RB".to_owned();
        assert!(other.merge(&one).is_err());
    }

    #[test]
    fn histogram_merge_combines_buckets() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum: 5,
            max: 4,
            buckets: vec![(1, 1), (4, 1)],
        };
        let b = HistogramSnapshot {
            count: 2,
            sum: 10,
            max: 8,
            buckets: vec![(4, 1), (8, 1)],
        };
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 15);
        assert_eq!(a.max, 8);
        assert_eq!(a.buckets, vec![(1, 1), (4, 2), (8, 1)]);
    }
}
