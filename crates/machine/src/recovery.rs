//! Memory reliability through cache replication — the paper's Section 8
//! future-work item, implemented.
//!
//! "The second [research direction] is the exploitation of replicated
//! values in the various caches to improve the reliability of the
//! memory" (Section 8), anticipated in Section 5: "if the value of a
//! variable is corrupted while in memory or in some cache, there is a
//! higher probability that some cache contains a correct copy" under
//! RWB, whose write broadcasts keep many readable replicas alive.
//!
//! The model: a fault flips a memory word ([`Machine::corrupt_memory`])
//! or a cached copy ([`Machine::corrupt_cache`]) and marks its parity
//! bad, exactly as the rate-driven [`FaultPlan`](crate::FaultPlan)
//! engine does; the running machine then detects the corruption on the
//! next access and recovers per its
//! [`RecoveryPolicy`](crate::RecoveryPolicy). The manual
//! [`Machine::recover_memory`] entry point applies the same
//! owner-then-majority policy immediately, for direct experiments on a
//! stopped machine.

use crate::fault::InjectError;
use crate::Machine;
use decache_mem::{Addr, Word};
use std::error::Error;
use std::fmt;

/// Failure to recover a corrupted memory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// No cache holds a usable replica of the word.
    NoReplica {
        /// The unrecoverable address.
        addr: Addr,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RecoveryError::NoReplica { addr } => {
                write!(f, "no cache holds a replica of {addr}")
            }
        }
    }
}

impl Error for RecoveryError {}

impl Machine {
    /// Injects a fault: overwrites the memory word at `addr` with
    /// `garbage` and marks its parity bad, bypassing the coherence
    /// protocol (as a bit flip would). The running machine detects the
    /// fault on the next bus read of the word and repairs it per its
    /// [`RecoveryPolicy`](crate::RecoveryPolicy).
    ///
    /// # Errors
    ///
    /// Returns [`InjectError::OutOfBounds`] if `addr` exceeds the
    /// memory.
    pub fn corrupt_memory(&mut self, addr: Addr, garbage: Word) -> Result<(), InjectError> {
        self.memory_mut().poke_corrupt(addr, garbage)?;
        self.clock_fault(None, addr);
        Ok(())
    }

    /// Injects a fault into PE `pe`'s cached copy of `addr`, marking
    /// its parity bad; returns `Ok(true)` if the cache held the line
    /// (and is now corrupted), `Ok(false)` if the line is not cached.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError::NoSuchPe`] if `pe` is out of range.
    pub fn corrupt_cache(
        &mut self,
        pe: usize,
        addr: Addr,
        garbage: Word,
    ) -> Result<bool, InjectError> {
        if pe >= self.pe_count() {
            return Err(InjectError::NoSuchPe {
                pe,
                pes: self.pe_count(),
            });
        }
        match self.caches_mut().probe(pe, addr) {
            Some(entry) => {
                *entry.data = garbage;
                *entry.parity_ok = false;
                self.clock_fault(Some(pe), addr);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The number of usable replicas of `addr` across all caches: every
    /// locally-readable copy whose parity is good (a corrupted replica
    /// cannot vote). The more replicas, the likelier recovery — RWB's
    /// write broadcast keeps this high.
    pub fn replica_count(&self, addr: Addr) -> usize {
        (0..self.pe_count())
            .filter(|&pe| {
                self.cache_entry(pe, addr)
                    .is_some_and(|e| e.parity_ok && e.state.is_readable_locally())
            })
            .count()
    }

    /// Recovers the memory word at `addr` from cache replicas and
    /// repairs memory with the recovered value, clearing its parity
    /// flag.
    ///
    /// Recovery policy (shared with the in-loop
    /// [`RecoveryPolicy::Majority`](crate::RecoveryPolicy) path):
    /// 1. an **owning** copy (`L`/`D`) with good parity is
    ///    authoritative — it holds the only up-to-date value by the
    ///    Section 4 lemma;
    /// 2. otherwise the **majority value** among good-parity readable
    ///    replicas wins (all replicas agree in a fault-free machine;
    ///    voting tolerates a minority of corrupted caches);
    /// 3. with no usable replica at all, the word is unrecoverable.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::NoReplica`] if no cache holds the line
    /// in a readable or owning state with good parity.
    pub fn recover_memory(&mut self, addr: Addr) -> Result<Word, RecoveryError> {
        let (recovered, _source) = self
            .recover_value(addr, true)
            .ok_or(RecoveryError::NoReplica { addr })?;
        self.memory_mut()
            .repair(addr, recovered)
            .expect("recovery address in range");
        Ok(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineBuilder, Script};
    use decache_core::ProtocolKind;

    fn w(v: u64) -> Word {
        Word::new(v)
    }

    #[test]
    fn memory_corruption_recovers_from_readable_replicas() {
        let x = Addr::new(1);
        let mut m = MachineBuilder::new(ProtocolKind::Rb)
            .processor(Script::new().write(x, w(7)).build())
            .processor(Script::new().read(x).build())
            .processor(Script::new().read(x).build())
            .build();
        m.run_to_completion(1_000);
        assert!(m.replica_count(x) >= 2);
        m.corrupt_memory(x, w(0xBAD)).unwrap();
        assert_eq!(m.memory().peek(x).unwrap(), w(0xBAD));
        assert!(!m.memory().parity_ok(x));
        assert_eq!(m.recover_memory(x).unwrap(), w(7));
        assert_eq!(m.memory().peek(x).unwrap(), w(7));
        assert!(m.memory().parity_ok(x));
    }

    #[test]
    fn owner_copy_is_authoritative() {
        let x = Addr::new(1);
        // Two silent local writes leave memory stale at 1 and the owner
        // holding 9: recovery must take the owner's value, not memory's.
        let mut m = MachineBuilder::new(ProtocolKind::Rb)
            .processor(Script::new().write(x, w(1)).write(x, w(9)).build())
            .build();
        m.run_to_completion(1_000);
        m.corrupt_memory(x, w(0xBAD)).unwrap();
        assert_eq!(m.recover_memory(x).unwrap(), w(9));
    }

    #[test]
    fn majority_vote_outvotes_a_corrupted_cache() {
        let x = Addr::new(1);
        let mut m = MachineBuilder::new(ProtocolKind::Rwb)
            .processor(Script::new().write(x, w(5)).build())
            .processor(Script::new().read(x).build())
            .processor(Script::new().read(x).build())
            .processor(Script::new().read(x).build())
            .build();
        m.run_to_completion(1_000);
        // Corrupt one cache replica AND memory; the corrupted replica's
        // bad parity excludes it from the vote and the healthy replicas
        // win. (The writer holds F which is readable but not owning, so
        // voting applies.)
        assert!(m.corrupt_cache(1, x, w(0xEE)).unwrap());
        m.corrupt_memory(x, w(0xBAD)).unwrap();
        assert_eq!(m.recover_memory(x).unwrap(), w(5));
    }

    #[test]
    fn unreplicated_word_is_unrecoverable() {
        let x = Addr::new(1);
        let mut m = MachineBuilder::new(ProtocolKind::Rb)
            .processor(Script::new().read(Addr::new(2)).build())
            .build();
        m.run_to_completion(1_000);
        m.corrupt_memory(x, w(0xBAD)).unwrap();
        let err = m.recover_memory(x).unwrap_err();
        assert_eq!(err, RecoveryError::NoReplica { addr: x });
        assert_eq!(err.to_string(), "no cache holds a replica of @1");
    }

    #[test]
    fn rwb_keeps_more_replicas_than_rb_after_a_write() {
        let x = Addr::new(1);
        let build = |kind| {
            let mut m = MachineBuilder::new(kind)
                .processor(Script::new().read(x).read(x).read(x).build())
                .processor(Script::new().read(x).read(x).read(x).build())
                .processor(Script::new().read(x).write(x, w(3)).build())
                .build();
            m.run_to_completion(1_000);
            m
        };
        // Under RB the write invalidates the readers; under RWB they
        // capture the broadcast — "a higher probability that some cache
        // contains a correct copy" (Section 5).
        let rb = build(ProtocolKind::Rb).replica_count(x);
        let rwb = build(ProtocolKind::Rwb).replica_count(x);
        assert!(rwb > rb, "RWB replicas {rwb} should exceed RB {rb}");
    }

    #[test]
    fn corrupting_an_absent_line_reports_false() {
        let mut m = MachineBuilder::new(ProtocolKind::Rb)
            .processor(Script::new().build())
            .build();
        m.run_to_completion(100);
        assert!(!m.corrupt_cache(0, Addr::new(5), w(1)).unwrap());
    }

    #[test]
    fn out_of_range_targets_are_errors_not_panics() {
        let mut m = MachineBuilder::new(ProtocolKind::Rb)
            .memory_words(16)
            .processor(Script::new().build())
            .build();
        assert_eq!(
            m.corrupt_memory(Addr::new(99), w(1)).unwrap_err(),
            InjectError::OutOfBounds {
                addr: Addr::new(99),
                size: 16
            }
        );
        assert_eq!(
            m.corrupt_cache(3, Addr::new(0), w(1)).unwrap_err(),
            InjectError::NoSuchPe { pe: 3, pes: 1 }
        );
    }

    #[test]
    fn corrupted_replica_is_excluded_from_the_count() {
        let x = Addr::new(1);
        let mut m = MachineBuilder::new(ProtocolKind::Rwb)
            .processor(Script::new().write(x, w(5)).build())
            .processor(Script::new().read(x).build())
            .processor(Script::new().read(x).build())
            .build();
        m.run_to_completion(1_000);
        let before = m.replica_count(x);
        assert!(m.corrupt_cache(1, x, w(0xEE)).unwrap());
        assert_eq!(m.replica_count(x), before - 1);
    }
}
