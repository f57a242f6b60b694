//! Parameterized mixed reference workloads for machine-level sweeps.

use decache_cache::RefClass;
use decache_machine::{MemOp, OpResult, Poll, Processor, ProcessorCheckpoint};
use decache_mem::{Addr, AddrRange, Word};
use decache_rng::Rng;

/// The reference mix of a [`MixWorkload`], following the paper's traffic
/// assumptions (Section 2): reads dominate writes, and local/read-only
/// references dominate shared read/write ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixConfig {
    /// Fraction of references to shared read/write data (default 0.07,
    /// within the table's 5–10% band).
    pub shared_fraction: f64,
    /// Fraction of *shared* references that are writes (default 1/3).
    pub shared_write_fraction: f64,
    /// Fraction of *private* references that are writes (default 0.1 —
    /// "each data item is referenced more often with a read").
    pub local_write_fraction: f64,
    /// Number of references each processor issues.
    pub ops_per_pe: u64,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            shared_fraction: 0.07,
            shared_write_fraction: 1.0 / 3.0,
            local_write_fraction: 0.1,
            ops_per_pe: 2_000,
        }
    }
}

/// A per-processor program issuing a pseudo-random classified mix over a
/// shared region and a per-PE private region; the workhorse of the
/// protocol-comparison (E13) and bus-saturation (Section 7) experiments.
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
/// use decache_machine::MachineBuilder;
/// use decache_mem::{Addr, AddrRange};
/// use decache_workloads::{MixConfig, MixWorkload};
///
/// let shared = AddrRange::with_len(Addr::new(0), 64);
/// let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
///     .memory_words(4096)
///     .processors(4, |pe| {
///         Box::new(MixWorkload::new(MixConfig::default(), shared, pe as u64))
///     })
///     .build();
/// machine.run_to_completion(10_000_000);
/// ```
#[derive(Debug)]
pub struct MixWorkload {
    config: MixConfig,
    shared: AddrRange,
    private: AddrRange,
    rng: Rng,
    issued: u64,
    counter: u64,
}

impl MixWorkload {
    /// Base address of the private regions (above it, PE `i` owns
    /// `[base + i*len, base + (i+1)*len)`). Offset past the shared
    /// region's cache lines so shared and private data do not thrash the
    /// same direct-mapped lines.
    const PRIVATE_BASE: u64 = 1088;
    /// Length of each PE's private region.
    const PRIVATE_LEN: u64 = 256;

    /// Creates the workload for PE index `pe` (which also seeds its
    /// generator, so machines are reproducible).
    pub fn new(config: MixConfig, shared: AddrRange, pe: u64) -> Self {
        let private = AddrRange::with_len(
            Addr::new(Self::PRIVATE_BASE + pe * Self::PRIVATE_LEN),
            Self::PRIVATE_LEN,
        );
        Self::with_private_region(config, shared, private, pe)
    }

    /// One past the last word of the private regions that
    /// [`MixWorkload::new`] gives PEs `0..pes`: the least memory a
    /// machine of `pes` such workloads needs.
    pub fn private_end(pes: u64) -> u64 {
        Self::PRIVATE_BASE + pes * Self::PRIVATE_LEN
    }

    /// Creates the workload with an explicit private region — required
    /// on hierarchical machines, where each PE's private data must live
    /// inside its own cluster's region.
    pub fn with_private_region(
        config: MixConfig,
        shared: AddrRange,
        private: AddrRange,
        seed: u64,
    ) -> Self {
        MixWorkload {
            config,
            shared,
            private,
            rng: Rng::from_seed(0xD1CE ^ (seed << 32) ^ seed),
            issued: 0,
            counter: 0,
        }
    }

    fn pick(&mut self, region: AddrRange, hot: u64) -> Addr {
        // 80/20-style locality: most references hit a hot prefix.
        let len = region.len();
        let hot = hot.min(len);
        if self.rng.next_f64() < 0.8 {
            region.nth(self.rng.gen_range(0..hot))
        } else {
            region.nth(self.rng.gen_range(0..len))
        }
    }
}

impl Processor for MixWorkload {
    fn next_op(&mut self, _last: Option<&OpResult>) -> Poll {
        if self.issued >= self.config.ops_per_pe {
            return Poll::Halt;
        }
        self.issued += 1;
        self.counter += 1;
        let value = Word::new(self.counter << 8);

        let op = if self.rng.next_f64() < self.config.shared_fraction {
            let addr = self.pick(self.shared, 16);
            if self.rng.next_f64() < self.config.shared_write_fraction {
                MemOp::write(addr, value).with_class(RefClass::Shared)
            } else {
                MemOp::read(addr).with_class(RefClass::Shared)
            }
        } else {
            let addr = self.pick(self.private, 64);
            if self.rng.next_f64() < self.config.local_write_fraction {
                MemOp::write(addr, value).with_class(RefClass::Local)
            } else {
                MemOp::read(addr).with_class(RefClass::Local)
            }
        };
        Poll::Op(op)
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        let [s0, s1, s2, s3] = self.rng.state();
        Some(ProcessorCheckpoint::Custom {
            kind: "mix-workload".to_string(),
            words: vec![s0, s1, s2, s3, self.issued, self.counter],
        })
    }

    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        let ProcessorCheckpoint::Custom { kind, words } = state else {
            return Err(format!("mix workload given {state:?}"));
        };
        if kind != "mix-workload" {
            return Err(format!("mix workload given {kind} state"));
        }
        let [s0, s1, s2, s3, issued, counter] = words.as_slice() else {
            return Err(format!("mix workload expects 6 words, got {}", words.len()));
        };
        if [*s0, *s1, *s2, *s3] == [0; 4] {
            return Err("mix workload RNG state is all zeros".to_string());
        }
        self.rng = Rng::from_state([*s0, *s1, *s2, *s3]);
        self.issued = *issued;
        self.counter = *counter;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ProtocolKind;
    use decache_machine::MachineBuilder;

    fn run(kind: ProtocolKind, pes: usize) -> decache_machine::Machine {
        let shared = AddrRange::with_len(Addr::new(0), 64);
        let config = MixConfig {
            ops_per_pe: 4_000,
            ..MixConfig::default()
        };
        let mut machine = MachineBuilder::new(kind)
            .memory_words(16384)
            .cache_lines(512)
            .processors(pes, |pe| {
                Box::new(MixWorkload::new(config, shared, pe as u64))
            })
            .build();
        machine.run_to_completion(10_000_000);
        machine
    }

    #[test]
    fn completes_for_all_protocols() {
        for kind in ProtocolKind::ALL {
            let machine = run(kind, 4);
            assert_eq!(
                machine.total_cache_stats().total_references(),
                16_000,
                "{kind}"
            );
        }
    }

    #[test]
    fn hit_ratio_is_high_for_snooping_protocols() {
        // "Caches have routinely achieved hit ratios of about 95 percent"
        // for private data; with 7% shared traffic the overall ratio
        // stays well above write-through's.
        let rb = run(ProtocolKind::Rb, 4).total_cache_stats().hit_ratio();
        let wt = run(ProtocolKind::WriteThrough, 4)
            .total_cache_stats()
            .hit_ratio();
        assert!(rb > 0.84, "RB hit ratio {rb:.3}");
        assert!(rb > wt, "RB {rb:.3} should beat write-through {wt:.3}");
    }

    #[test]
    fn dynamic_classification_beats_baselines_on_bus_traffic() {
        let traffic = |kind| run(kind, 4).traffic().total_transactions();
        let rb = traffic(ProtocolKind::Rb);
        let rwb = traffic(ProtocolKind::Rwb);
        let wt = traffic(ProtocolKind::WriteThrough);
        // Write-through pays a bus write for every write reference; the
        // paper's schemes cache local writes silently.
        assert!(rb < wt, "RB {rb} should beat write-through {wt}");
        assert!(rwb < wt, "RWB {rwb} should beat write-through {wt}");
    }

    #[test]
    fn deterministic_per_pe_seed() {
        let a = run(ProtocolKind::Rb, 2).traffic().total_transactions();
        let b = run(ProtocolKind::Rb, 2).traffic().total_transactions();
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_resumes_reference_stream_exactly() {
        let shared = AddrRange::with_len(Addr::new(0), 8);
        let mut w = MixWorkload::new(MixConfig::default(), shared, 3);
        for _ in 0..7 {
            w.next_op(None);
        }
        let state = Processor::checkpoint_state(&w).unwrap();
        let mut fresh = MixWorkload::new(MixConfig::default(), shared, 3);
        Processor::restore_state(&mut fresh, &state).unwrap();
        for _ in 0..50 {
            assert_eq!(fresh.next_op(None), w.next_op(None));
        }
        // Wrong kind and wrong arity are structured errors.
        assert!(Processor::restore_state(&mut fresh, &ProcessorCheckpoint::Stateless).is_err());
        assert!(Processor::restore_state(
            &mut fresh,
            &ProcessorCheckpoint::Custom {
                kind: "mix-workload".to_string(),
                words: vec![1, 2],
            }
        )
        .is_err());
    }

    #[test]
    fn private_regions_do_not_overlap() {
        let w0 = MixWorkload::new(
            MixConfig::default(),
            AddrRange::with_len(Addr::new(0), 8),
            0,
        );
        let w1 = MixWorkload::new(
            MixConfig::default(),
            AddrRange::with_len(Addr::new(0), 8),
            1,
        );
        assert!(w0.private.end() <= w1.private.start());
    }
}
