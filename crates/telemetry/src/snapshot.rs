//! The unified metrics snapshot: every counter the machine exposes,
//! gathered into one typed, serializable tree.
//!
//! [`MetricsSnapshot::from_machine`] is the single reading point for
//! cache, bus, machine, fault, and histogram statistics; everything the
//! bench bins and experiment tables report is derived from it. The
//! serialized form contains **only raw integer counters** (never
//! derived ratios), so a snapshot round-trips through JSON exactly and
//! two snapshots can be merged by plain addition.

use crate::json::Json;
use decache_bus::BusOpKind;
use decache_cache::{AccessKind, RefClass};
use decache_machine::{Histogram, Machine};

/// Schema version stamped into every serialized snapshot.
pub const SCHEMA_VERSION: u64 = 1;

const KINDS: [&str; 2] = ["read", "write"];
const CLASSES: [&str; 3] = ["code", "local", "shared"];

fn field(value: &Json, key: &str) -> Result<Json, String> {
    value
        .get(key)
        .cloned()
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn uint(value: &Json, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an integer"))
}

/// Like [`uint`] but treats an absent field as 0, for counters added
/// after snapshots of this schema version were first written.
fn uint_or_zero(value: &Json, key: &str) -> Result<u64, String> {
    match value.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field '{key}' is not an integer")),
    }
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

    fn table_to_json(table: &[[u64; 3]; 2]) -> Json {
        Json::Object(
            KINDS
                .iter()
                .enumerate()
                .map(|(k, kind)| {
                    (
                        (*kind).to_owned(),
                        Json::Object(
                            CLASSES
                                .iter()
                                .enumerate()
                                .map(|(c, class)| ((*class).to_owned(), Json::U64(table[k][c])))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        )
    }

    fn table_from_json(value: &Json) -> Result<[[u64; 3]; 2], String> {
        let mut table = [[0u64; 3]; 2];
        for (k, kind) in KINDS.iter().enumerate() {
            let row = field(value, kind)?;
            for (c, class) in CLASSES.iter().enumerate() {
                table[k][c] = uint(&row, class)?;
            }
        }
        Ok(table)
    }

    fn to_json(self) -> Json {
        Json::object(vec![
            ("hits", Self::table_to_json(&self.hits)),
            ("misses", Self::table_to_json(&self.misses)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(CacheCounts {
            hits: Self::table_from_json(&field(value, "hits")?)?,
            misses: Self::table_from_json(&field(value, "misses")?)?,
        })
    }
}

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

    fn merge(&mut self, other: &BusCounts) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.invalidates += other.invalidates;
        self.locked_reads += other.locked_reads;
        self.unlock_writes += other.unlock_writes;
        self.aborted_reads += other.aborted_reads;
        self.retries += other.retries;
        self.busy_cycles += other.busy_cycles;
        self.idle_cycles += other.idle_cycles;
        self.address_phases += other.address_phases;
    }

    fn to_json(self) -> Json {
        Json::object(vec![
            ("reads", Json::U64(self.reads)),
            ("writes", Json::U64(self.writes)),
            ("invalidates", Json::U64(self.invalidates)),
            ("locked_reads", Json::U64(self.locked_reads)),
            ("unlock_writes", Json::U64(self.unlock_writes)),
            ("aborted_reads", Json::U64(self.aborted_reads)),
            ("retries", Json::U64(self.retries)),
            ("busy_cycles", Json::U64(self.busy_cycles)),
            ("idle_cycles", Json::U64(self.idle_cycles)),
            ("address_phases", Json::U64(self.address_phases)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(BusCounts {
            reads: uint(value, "reads")?,
            writes: uint(value, "writes")?,
            invalidates: uint(value, "invalidates")?,
            locked_reads: uint(value, "locked_reads")?,
            unlock_writes: uint(value, "unlock_writes")?,
            aborted_reads: uint(value, "aborted_reads")?,
            retries: uint(value, "retries")?,
            busy_cycles: uint(value, "busy_cycles")?,
            idle_cycles: uint(value, "idle_cycles")?,
            // Postdates the first schema-1 snapshots; absent means a
            // run under a non-split discipline that never counted it.
            address_phases: uint_or_zero(value, "address_phases")?,
        })
    }
}

/// Machine-level counters, mirroring `MachineStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounts {
    /// Stalled reads completed by snooping a broadcast.
    pub broadcast_satisfied: u64,
    /// Evicted lines written back to memory.
    pub writebacks: u64,
    /// Test-and-Set operations that acquired.
    pub ts_successes: u64,
    /// Test-and-Set operations that found the variable non-zero.
    pub ts_failures: u64,
    /// Bus transactions rejected by a memory lock and requeued.
    pub lock_rejections: u64,
    /// Locked reads among the rejections.
    pub lock_rejected_reads: u64,
    /// Plain bus writes among the rejections.
    pub lock_rejected_writes: u64,
    /// Deterministic work units: logical tag-store accesses.
    pub tag_probes: u64,
    /// Deterministic work units: broadcast fan-out visits (sharer and
    /// pending-reader).
    pub sharer_visits: u64,
    /// Deterministic work units: arbitration scans of a non-empty bus
    /// queue.
    pub queue_scans: u64,
    /// Split-transaction requests cancelled between their address and
    /// data phases (broadcast satisfaction or fail-stop).
    pub split_cancels: u64,
}

impl MachineCounts {
    fn from_stats(stats: &decache_machine::MachineStats) -> Self {
        MachineCounts {
            broadcast_satisfied: stats.broadcast_satisfied,
            writebacks: stats.writebacks,
            ts_successes: stats.ts_successes,
            ts_failures: stats.ts_failures,
            lock_rejections: stats.lock_rejections,
            lock_rejected_reads: stats.lock_rejected_reads,
            lock_rejected_writes: stats.lock_rejected_writes,
            tag_probes: stats.tag_probes,
            sharer_visits: stats.sharer_visits,
            queue_scans: stats.queue_scans,
            split_cancels: stats.split_cancels,
        }
    }

    /// Total Test-and-Set operations.
    pub fn ts_attempts(&self) -> u64 {
        self.ts_successes + self.ts_failures
    }

    /// Total deterministic work units, matching
    /// `MachineStats::work_units`.
    pub fn work_units(&self) -> u64 {
        self.tag_probes + self.sharer_visits + self.queue_scans
    }

    fn merge(&mut self, other: &MachineCounts) {
        self.broadcast_satisfied += other.broadcast_satisfied;
        self.writebacks += other.writebacks;
        self.ts_successes += other.ts_successes;
        self.ts_failures += other.ts_failures;
        self.lock_rejections += other.lock_rejections;
        self.lock_rejected_reads += other.lock_rejected_reads;
        self.lock_rejected_writes += other.lock_rejected_writes;
        self.tag_probes += other.tag_probes;
        self.sharer_visits += other.sharer_visits;
        self.queue_scans += other.queue_scans;
        self.split_cancels += other.split_cancels;
    }

    fn to_json(self) -> Json {
        Json::object(vec![
            ("broadcast_satisfied", Json::U64(self.broadcast_satisfied)),
            ("writebacks", Json::U64(self.writebacks)),
            ("ts_successes", Json::U64(self.ts_successes)),
            ("ts_failures", Json::U64(self.ts_failures)),
            ("lock_rejections", Json::U64(self.lock_rejections)),
            ("lock_rejected_reads", Json::U64(self.lock_rejected_reads)),
            ("lock_rejected_writes", Json::U64(self.lock_rejected_writes)),
            ("tag_probes", Json::U64(self.tag_probes)),
            ("sharer_visits", Json::U64(self.sharer_visits)),
            ("queue_scans", Json::U64(self.queue_scans)),
            ("split_cancels", Json::U64(self.split_cancels)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(MachineCounts {
            broadcast_satisfied: uint(value, "broadcast_satisfied")?,
            writebacks: uint(value, "writebacks")?,
            ts_successes: uint(value, "ts_successes")?,
            ts_failures: uint(value, "ts_failures")?,
            lock_rejections: uint(value, "lock_rejections")?,
            lock_rejected_reads: uint(value, "lock_rejected_reads")?,
            lock_rejected_writes: uint(value, "lock_rejected_writes")?,
            // The work-unit counters postdate the first schema-1
            // snapshots; absent means a run that never counted them.
            tag_probes: uint_or_zero(value, "tag_probes")?,
            sharer_visits: uint_or_zero(value, "sharer_visits")?,
            queue_scans: uint_or_zero(value, "queue_scans")?,
            split_cancels: uint_or_zero(value, "split_cancels")?,
        })
    }
}

/// Fault-injection and recovery counters, mirroring `FaultStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Memory word flips injected.
    pub memory_faults_injected: u64,
    /// Cache line flips injected.
    pub cache_faults_injected: u64,
    /// Bus transactions lost (granted, burned, retried).
    pub bus_transactions_lost: u64,
    /// PEs fail-stopped.
    pub pe_fail_stops: u64,
    /// Memory parity failures detected on bus reads.
    pub memory_faults_detected: u64,
    /// Cache parity failures detected on CPU access or supply.
    pub cache_faults_detected: u64,
    /// Memory words repaired from an owning cache copy.
    pub memory_recoveries_owner: u64,
    /// Memory words repaired by majority vote.
    pub memory_recoveries_majority: u64,
    /// Detected memory faults with no usable replica.
    pub memory_recoveries_failed: u64,
    /// Corrupted cache lines invalidated and re-fetched.
    pub cache_refetches: u64,
    /// Corrupted cache lines healed by a captured broadcast.
    pub broadcast_heals: u64,
    /// Writes that existed only in a corrupted or dead cache.
    pub lost_writes: u64,
    /// Owned lines flushed by fail-stop draining.
    pub drained_lines: u64,
    /// Memory locks forcibly released from fail-stopped PEs.
    pub forced_unlocks: u64,
    /// Sum over detections of (detection cycle − injection cycle).
    pub recovery_latency_total: u64,
    /// Detections contributing to the latency sum.
    pub recovery_latency_samples: u64,
    /// Sum over in-loop recoveries of the replica count consulted.
    pub replicas_at_recovery: u64,
}

impl FaultCounts {
    fn from_stats(stats: &decache_machine::FaultStats) -> Self {
        FaultCounts {
            memory_faults_injected: stats.memory_faults_injected,
            cache_faults_injected: stats.cache_faults_injected,
            bus_transactions_lost: stats.bus_transactions_lost,
            pe_fail_stops: stats.pe_fail_stops,
            memory_faults_detected: stats.memory_faults_detected,
            cache_faults_detected: stats.cache_faults_detected,
            memory_recoveries_owner: stats.memory_recoveries_owner,
            memory_recoveries_majority: stats.memory_recoveries_majority,
            memory_recoveries_failed: stats.memory_recoveries_failed,
            cache_refetches: stats.cache_refetches,
            broadcast_heals: stats.broadcast_heals,
            lost_writes: stats.lost_writes,
            drained_lines: stats.drained_lines,
            forced_unlocks: stats.forced_unlocks,
            recovery_latency_total: stats.recovery_latency_total,
            recovery_latency_samples: stats.recovery_latency_samples,
            replicas_at_recovery: stats.replicas_at_recovery,
        }
    }

    /// Total faults injected, of every kind.
    pub fn total_injected(&self) -> u64 {
        self.memory_faults_injected
            + self.cache_faults_injected
            + self.bus_transactions_lost
            + self.pe_fail_stops
    }

    /// In-loop memory recovery attempts.
    pub fn memory_recovery_attempts(&self) -> u64 {
        self.memory_recoveries_owner
            + self.memory_recoveries_majority
            + self.memory_recoveries_failed
    }

    /// Fraction of detected memory faults repaired from a replica
    /// (`None` when nothing was detected).
    pub fn memory_recovery_success_rate(&self) -> Option<f64> {
        let attempts = self.memory_recovery_attempts();
        (attempts > 0).then(|| {
            (self.memory_recoveries_owner + self.memory_recoveries_majority) as f64
                / attempts as f64
        })
    }

    const FIELDS: [&'static str; 17] = [
        "memory_faults_injected",
        "cache_faults_injected",
        "bus_transactions_lost",
        "pe_fail_stops",
        "memory_faults_detected",
        "cache_faults_detected",
        "memory_recoveries_owner",
        "memory_recoveries_majority",
        "memory_recoveries_failed",
        "cache_refetches",
        "broadcast_heals",
        "lost_writes",
        "drained_lines",
        "forced_unlocks",
        "recovery_latency_total",
        "recovery_latency_samples",
        "replicas_at_recovery",
    ];

    fn as_array(&self) -> [u64; 17] {
        [
            self.memory_faults_injected,
            self.cache_faults_injected,
            self.bus_transactions_lost,
            self.pe_fail_stops,
            self.memory_faults_detected,
            self.cache_faults_detected,
            self.memory_recoveries_owner,
            self.memory_recoveries_majority,
            self.memory_recoveries_failed,
            self.cache_refetches,
            self.broadcast_heals,
            self.lost_writes,
            self.drained_lines,
            self.forced_unlocks,
            self.recovery_latency_total,
            self.recovery_latency_samples,
            self.replicas_at_recovery,
        ]
    }

    fn from_array(values: [u64; 17]) -> Self {
        FaultCounts {
            memory_faults_injected: values[0],
            cache_faults_injected: values[1],
            bus_transactions_lost: values[2],
            pe_fail_stops: values[3],
            memory_faults_detected: values[4],
            cache_faults_detected: values[5],
            memory_recoveries_owner: values[6],
            memory_recoveries_majority: values[7],
            memory_recoveries_failed: values[8],
            cache_refetches: values[9],
            broadcast_heals: values[10],
            lost_writes: values[11],
            drained_lines: values[12],
            forced_unlocks: values[13],
            recovery_latency_total: values[14],
            recovery_latency_samples: values[15],
            replicas_at_recovery: values[16],
        }
    }

    fn merge(&mut self, other: &FaultCounts) {
        let mut merged = self.as_array();
        for (m, o) in merged.iter_mut().zip(other.as_array()) {
            *m += o;
        }
        *self = Self::from_array(merged);
    }

    fn to_json(self) -> Json {
        Json::Object(
            Self::FIELDS
                .iter()
                .zip(self.as_array())
                .map(|(k, v)| ((*k).to_owned(), Json::U64(v)))
                .collect(),
        )
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let mut values = [0u64; 17];
        for (slot, key) in values.iter_mut().zip(Self::FIELDS) {
            *slot = uint(value, key)?;
        }
        Ok(Self::from_array(values))
    }
}

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

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("max", Json::U64(self.max)),
            (
                "buckets",
                Json::Array(
                    self.buckets
                        .iter()
                        .map(|&(floor, count)| {
                            Json::Array(vec![Json::U64(floor), Json::U64(count)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let buckets = field(value, "buckets")?;
        let buckets = buckets
            .as_array()
            .ok_or("'buckets' is not an array")?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().ok_or("bucket is not a pair")?;
                match pair {
                    [floor, count] => Ok((
                        floor.as_u64().ok_or("bucket floor is not an integer")?,
                        count.as_u64().ok_or("bucket count is not an integer")?,
                    )),
                    _ => Err("bucket is not a pair".to_owned()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(HistogramSnapshot {
            count: uint(value, "count")?,
            sum: uint(value, "sum")?,
            max: uint(value, "max")?,
            buckets,
        })
    }
}

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

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("bus_acquire_wait", self.bus_acquire_wait.to_json()),
            ("memory_service", self.memory_service.to_json()),
            ("read_fill", self.read_fill.to_json()),
            ("ts_spin", self.ts_spin.to_json()),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(HistogramSet {
            bus_acquire_wait: HistogramSnapshot::from_json(&field(value, "bus_acquire_wait")?)?,
            memory_service: HistogramSnapshot::from_json(&field(value, "memory_service")?)?,
            read_fill: HistogramSnapshot::from_json(&field(value, "read_fill")?)?,
            ts_spin: HistogramSnapshot::from_json(&field(value, "ts_spin")?)?,
        })
    }
}

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
    pub machine: MachineCounts,
    /// Fault-injection and recovery counters.
    pub faults: FaultCounts,
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
            machine: MachineCounts::from_stats(&machine.stats()),
            faults: FaultCounts::from_stats(&machine.fault_stats()),
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
            total.merge(b);
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
            mine.merge(theirs);
        }
        self.machine.merge(&other.machine);
        self.faults.merge(&other.faults);
        Ok(())
    }

    /// Serializes to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::U64(SCHEMA_VERSION)),
            ("protocol", Json::Str(self.protocol.clone())),
            ("pes", Json::U64(self.pes)),
            ("buses", Json::U64(self.buses)),
            ("cycles", Json::U64(self.cycles)),
            ("runs", Json::U64(self.runs)),
            (
                "cache_per_pe",
                Json::Array(self.cache_per_pe.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "bus_per_bus",
                Json::Array(self.bus_per_bus.iter().map(|b| b.to_json()).collect()),
            ),
            ("machine", self.machine.to_json()),
            ("faults", self.faults.to_json()),
        ];
        if let Some(h) = &self.histograms {
            fields.push(("histograms", h.to_json()));
        }
        Json::object(fields)
    }

    /// The canonical compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Reconstructs a snapshot from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or ill-typed field, or an
    /// unsupported schema version.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let schema = uint(value, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported snapshot schema {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let cache_per_pe = field(value, "cache_per_pe")?
            .as_array()
            .ok_or("'cache_per_pe' is not an array")?
            .iter()
            .map(CacheCounts::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let bus_per_bus = field(value, "bus_per_bus")?
            .as_array()
            .ok_or("'bus_per_bus' is not an array")?
            .iter()
            .map(BusCounts::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MetricsSnapshot {
            protocol: field(value, "protocol")?
                .as_str()
                .ok_or("'protocol' is not a string")?
                .to_owned(),
            pes: uint(value, "pes")?,
            buses: uint(value, "buses")?,
            cycles: uint(value, "cycles")?,
            runs: uint(value, "runs")?,
            cache_per_pe,
            bus_per_bus,
            machine: MachineCounts::from_json(&field(value, "machine")?)?,
            faults: FaultCounts::from_json(&field(value, "faults")?)?,
            histograms: match value.get("histograms") {
                Some(h) => Some(HistogramSet::from_json(h)?),
                None => None,
            },
        })
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

    #[test]
    fn legacy_snapshot_without_work_units_still_parses() {
        let machine = sample_machine(false);
        let snapshot = MetricsSnapshot::from_machine(&machine);
        let mut text = snapshot.to_json_string();
        for key in ["tag_probes", "sharer_visits", "queue_scans"] {
            let needle = format!(
                ",\"{key}\":{}",
                match key {
                    "tag_probes" => snapshot.machine.tag_probes,
                    "sharer_visits" => snapshot.machine.sharer_visits,
                    _ => snapshot.machine.queue_scans,
                }
            );
            assert!(text.contains(&needle), "expected {needle} in {text}");
            text = text.replace(&needle, "");
        }
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(back.machine.work_units(), 0, "absent counters read as 0");
        back.check_conservation()
            .expect("work-unit identities are skipped for legacy snapshots");
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
