//! Fluent construction of [`Machine`]s.

use crate::{FailStopPolicy, FaultPlan, Machine, Observer, Processor, RecoveryPolicy};
use decache_bus::{ArbiterKind, Routing, ServiceDiscipline};
use decache_cache::{Geometry, TagStore};
use decache_core::ProtocolKind;
use decache_mem::Memory;

/// Default memory size in words.
const DEFAULT_MEMORY_WORDS: u64 = 4096;
/// Default cache size in lines (direct-mapped, one-word blocks).
const DEFAULT_CACHE_LINES: usize = 256;

/// The most processing elements a machine can have: a [`PeId`] is 16
/// bits wide.
///
/// [`PeId`]: decache_mem::PeId
pub const MAX_PES: usize = 1 << 16;

/// The most buses [`MachineBuilder::buses`] accepts.
pub const MAX_BUSES: usize = 256;

/// The machine shape a builder will produce.
enum Shape {
    Interleaved { bank_bits: u32 },
    Clustered { clusters: usize, global_words: u64 },
}

/// Builds a [`Machine`]: pick a protocol, add processors, tune the
/// substrate, and [`MachineBuilder::build`].
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
/// use decache_machine::{MachineBuilder, Script};
/// use decache_mem::{Addr, Word};
///
/// let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
///     .memory_words(128)
///     .cache_lines(16)
///     .buses(2) // the Figure 7-1 dual-bus machine
///     .processor(Script::new().write(Addr::new(0), Word::ONE).build())
///     .processor(Script::new().read(Addr::new(0)).build())
///     .build();
/// machine.run_to_completion(1_000);
/// ```
pub struct MachineBuilder {
    protocol: ProtocolKind,
    memory_words: u64,
    geometry: Option<Geometry>,
    cache_lines: usize,
    shape: Shape,
    arbiter: ArbiterKind,
    discipline: ServiceDiscipline,
    transaction_cycles: u64,
    processors: Vec<Box<dyn Processor + Send>>,
    observers: Vec<Box<dyn Observer>>,
    initial_memory: Vec<(decache_mem::Addr, decache_mem::Word)>,
    fault_plan: Option<FaultPlan>,
    recovery_policy: RecoveryPolicy,
    fail_stop_policy: FailStopPolicy,
    telemetry: bool,
    progress_window: u64,
}

impl std::fmt::Debug for MachineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineBuilder")
            .field("protocol", &self.protocol)
            .field("memory_words", &self.memory_words)
            .field("cache_lines", &self.cache_lines)
            .field(
                "shape",
                &match self.shape {
                    Shape::Interleaved { bank_bits } => format!("interleaved({bank_bits})"),
                    Shape::Clustered { clusters, .. } => format!("clustered({clusters})"),
                },
            )
            .field("arbiter", &self.arbiter)
            .field("discipline", &self.discipline)
            .field("processors", &self.processors.len())
            .finish()
    }
}

impl MachineBuilder {
    /// Starts a builder for the given coherence protocol.
    pub fn new(protocol: ProtocolKind) -> Self {
        MachineBuilder {
            protocol,
            memory_words: DEFAULT_MEMORY_WORDS,
            geometry: None,
            cache_lines: DEFAULT_CACHE_LINES,
            shape: Shape::Interleaved { bank_bits: 0 },
            arbiter: ArbiterKind::RoundRobin,
            discipline: ServiceDiscipline::default(),
            transaction_cycles: 1,
            processors: Vec::new(),
            observers: Vec::new(),
            initial_memory: Vec::new(),
            fault_plan: None,
            recovery_policy: RecoveryPolicy::default(),
            fail_stop_policy: FailStopPolicy::default(),
            telemetry: false,
            progress_window: crate::DEFAULT_PROGRESS_WINDOW,
        }
    }

    /// Sets the shared memory size in words (default 4096).
    pub fn memory_words(&mut self, words: u64) -> &mut Self {
        self.memory_words = words;
        self
    }

    /// Sets the per-PE cache size in direct-mapped one-word lines
    /// (default 256, the smallest Table 1-1 size).
    pub fn cache_lines(&mut self, lines: usize) -> &mut Self {
        self.cache_lines = lines;
        self.geometry = None;
        self
    }

    /// Sets an explicit cache geometry, relaxing the paper's
    /// direct-mapped assumption (assumption 7) for the associativity
    /// ablation. The block size must remain one word — the snooping
    /// protocols are defined per word.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's block size is not one word.
    pub fn cache_geometry(&mut self, geometry: Geometry) -> &mut Self {
        assert_eq!(
            geometry.block_words(),
            1,
            "the coherence protocols require one-word blocks"
        );
        self.geometry = Some(geometry);
        self
    }

    /// Sets how many bus cycles each transaction occupies (default 1,
    /// the paper's model). Larger values model a memory that is slower
    /// than the caches, making bus saturation bite earlier.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn transaction_cycles(&mut self, cycles: u64) -> &mut Self {
        assert!(cycles >= 1, "transactions take at least one cycle");
        self.transaction_cycles = cycles;
        self
    }

    /// Sets the number of shared buses; must be a power of two
    /// (default 1). Buses are interleaved on the least significant
    /// address bits (Figure 7-1).
    ///
    /// # Panics
    ///
    /// Panics if `buses` is not a power of two in `1..=256`.
    pub fn buses(&mut self, buses: usize) -> &mut Self {
        assert!(
            buses.is_power_of_two() && buses <= MAX_BUSES,
            "bus count {buses} must be a power of two in 1..={MAX_BUSES}"
        );
        self.shape = Shape::Interleaved {
            bank_bits: buses.trailing_zeros(),
        };
        self
    }

    /// Configures the hierarchical machine of the paper's Section 8
    /// future work: one global bus serving the shared region
    /// `[0, global_words)` plus one bus per cluster of processors, each
    /// serving an equal slice of the remaining memory. Requires the PE
    /// count to divide evenly into `clusters`.
    ///
    /// # Panics
    ///
    /// Panics at [`MachineBuilder::build`] if the memory does not cover
    /// the global region plus a non-empty region per cluster, or the
    /// PEs do not divide evenly.
    pub fn clusters(&mut self, clusters: usize, global_words: u64) -> &mut Self {
        assert!(clusters > 0, "a hierarchy needs at least one cluster");
        self.shape = Shape::Clustered {
            clusters,
            global_words,
        };
        self
    }

    /// Selects the bus arbitration policy (default round-robin).
    pub fn arbiter(&mut self, arbiter: ArbiterKind) -> &mut Self {
        self.arbiter = arbiter;
        self
    }

    /// Selects the bus service discipline (default
    /// [`ServiceDiscipline::PerCycle`]), shared by every bus. The
    /// discipline decides *when* queued requests are served; the
    /// [`MachineBuilder::arbiter`] policy still breaks same-cycle ties
    /// where the discipline leaves any.
    pub fn discipline(&mut self, discipline: ServiceDiscipline) -> &mut Self {
        self.discipline = discipline;
        self
    }

    /// Attaches a structured protocol-event [`Observer`] (e.g. the
    /// conformance oracle of `decache-verify`) from the first cycle on.
    pub fn observer(&mut self, observer: Box<dyn Observer>) -> &mut Self {
        self.observers.push(observer);
        self
    }

    /// Pre-loads consecutive memory words starting at `base` before the
    /// machine starts — input data for compute kernels.
    pub fn initialize_memory(
        &mut self,
        base: decache_mem::Addr,
        values: &[decache_mem::Word],
    ) -> &mut Self {
        for (i, &v) in values.iter().enumerate() {
            self.initial_memory.push((base.offset(i as u64), v));
        }
        self
    }

    /// Enables cycle-attribution telemetry: the machine records
    /// power-of-2-bucket latency histograms
    /// ([`Machine::histograms`](crate::Machine::histograms)) for
    /// bus-acquire wait, memory service time, read-miss fill time, and
    /// Test-and-Set lock-spin length. Pure observation — a
    /// telemetry-enabled machine's statistics are bit-identical to one
    /// built without it.
    pub fn telemetry(&mut self) -> &mut Self {
        self.telemetry = true;
        self
    }

    /// Attaches a deterministic [`FaultPlan`]. An inert plan (no rates,
    /// no scheduled events) leaves every statistic bit-identical to a
    /// machine built without one.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Selects the in-loop repair policy for memory words whose parity
    /// check fails on a bus read (default
    /// [`RecoveryPolicy::Majority`]).
    pub fn recovery_policy(&mut self, policy: RecoveryPolicy) -> &mut Self {
        self.recovery_policy = policy;
        self
    }

    /// Selects what fail-stop handling does with a dead PE's owned
    /// lines (default [`FailStopPolicy::Drain`]).
    pub fn fail_stop_policy(&mut self, policy: FailStopPolicy) -> &mut Self {
        self.fail_stop_policy = policy;
        self
    }

    /// Sets the livelock/deadlock progress window in cycles (default
    /// [`DEFAULT_PROGRESS_WINDOW`](crate::DEFAULT_PROGRESS_WINDOW)):
    /// at budget exhaustion, a PE with no completed operation in the
    /// trailing `cycles` is judged deadlocked, one with a recent
    /// completion livelocked. Absolute by design — the verdict for a
    /// stuck machine must not change with the run budget.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn progress_window(&mut self, cycles: u64) -> &mut Self {
        assert!(
            cycles >= 1,
            "the progress window must be at least one cycle"
        );
        self.progress_window = cycles;
        self
    }

    /// Adds a processing element running the given program.
    pub fn processor(&mut self, processor: Box<dyn Processor + Send>) -> &mut Self {
        self.processors.push(processor);
        self
    }

    /// Adds `n` processing elements produced by a factory (PE index as
    /// argument).
    pub fn processors(
        &mut self,
        n: usize,
        mut factory: impl FnMut(usize) -> Box<dyn Processor + Send>,
    ) -> &mut Self {
        let start = self.processors.len();
        for i in 0..n {
            self.processors.push(factory(start + i));
        }
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if no processors were added, if more than [`MAX_PES`]
    /// were, or if the memory size is not divisible by the bus count.
    pub fn build(&mut self) -> Machine {
        let processors = std::mem::take(&mut self.processors);
        assert!(
            !processors.is_empty(),
            "a machine needs at least one processor"
        );
        assert!(
            processors.len() <= MAX_PES,
            "{} PEs exceed the {MAX_PES}-PE cap (a PeId is 16 bits)",
            processors.len()
        );
        let routing = match self.shape {
            Shape::Interleaved { bank_bits } => Routing::interleaved(bank_bits),
            Shape::Clustered {
                clusters,
                global_words,
            } => {
                assert!(
                    processors.len().is_multiple_of(clusters),
                    "{} PEs do not divide into {clusters} clusters",
                    processors.len()
                );
                assert!(
                    self.memory_words > global_words,
                    "memory ({} words) must exceed the global region ({global_words})",
                    self.memory_words
                );
                let cluster_words = (self.memory_words - global_words) / clusters as u64;
                assert!(cluster_words > 0, "no memory left for the cluster regions");
                Routing::clustered(clusters, global_words, cluster_words)
            }
        };
        let protocol = decache_core::AnyProtocol::build(self.protocol);
        let geometry = self
            .geometry
            .unwrap_or_else(|| Geometry::direct_mapped(self.cache_lines));
        let caches = (0..processors.len())
            .map(|_| TagStore::new(geometry))
            .collect();
        let arbiters = (0..routing.bus_count())
            .map(|_| self.arbiter.build())
            .collect();
        let mut memory = Memory::new(self.memory_words);
        for &(addr, value) in &self.initial_memory {
            memory
                .write(addr, value)
                .expect("initial memory contents in range");
        }
        memory.reset_stats();
        let mut machine = Machine::from_parts(
            protocol,
            routing,
            memory,
            caches,
            processors,
            arbiters,
            self.transaction_cycles,
            self.discipline,
            self.fault_plan.take(),
            self.recovery_policy,
            self.fail_stop_policy,
            self.telemetry,
            self.progress_window,
        );
        for observer in std::mem::take(&mut self.observers) {
            machine.attach_observer(observer);
        }
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Script;
    use decache_mem::{Addr, Word};

    #[test]
    fn defaults_build_a_single_bus_machine() {
        let machine = MachineBuilder::new(ProtocolKind::Rb)
            .processor(Script::new().build())
            .build();
        assert_eq!(machine.pe_count(), 1);
        assert_eq!(machine.bus_count(), 1);
        assert_eq!(machine.memory().size(), 4096);
        assert_eq!(machine.protocol().table().name, "RB");
    }

    #[test]
    fn buses_sets_topology() {
        let machine = MachineBuilder::new(ProtocolKind::Rb)
            .buses(4)
            .processor(Script::new().build())
            .build();
        assert_eq!(machine.bus_count(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_buses_panics() {
        MachineBuilder::new(ProtocolKind::Rb).buses(3);
    }

    #[test]
    #[should_panic(expected = "exceed the 65536-PE cap")]
    fn too_many_processors_panics_naming_the_cap() {
        MachineBuilder::new(ProtocolKind::Rb)
            .processors(MAX_PES + 1, |_| Box::new(crate::IdleProcessor))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_machine_panics() {
        MachineBuilder::new(ProtocolKind::Rb).build();
    }

    #[test]
    fn factory_adds_n_processors() {
        let machine = MachineBuilder::new(ProtocolKind::Rwb)
            .processors(5, |i| {
                Script::new().write(Addr::new(i as u64), Word::ONE).build()
            })
            .build();
        assert_eq!(machine.pe_count(), 5);
    }
}
