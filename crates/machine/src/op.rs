//! The memory operations processors issue to their caches.

use decache_cache::RefClass;
use decache_mem::{Addr, Word};
use std::fmt;

/// The access itself: what the processor asks its cache to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Load a word.
    Read(Addr),
    /// Store a word.
    Write(Addr, Word),
    /// Atomic Test-and-Set (Section 6): "If V != 0 Then nil Else V := X".
    /// Implemented as a locked bus read followed, on success, by an
    /// unlocking bus write of the given value.
    TestAndSet(Addr, Word),
}

impl Access {
    /// The address the access targets.
    pub fn addr(self) -> Addr {
        match self {
            Access::Read(a) | Access::Write(a, _) | Access::TestAndSet(a, _) => a,
        }
    }
}

/// One memory operation: an [`Access`] tagged with the ground-truth
/// [`RefClass`] of the referenced datum.
///
/// The class does not influence protocol behaviour in any way — the whole
/// point of the paper's schemes is that classification is *dynamic* — but
/// it keys the per-class statistics that the experiments report (the
/// Table 1-1 columns, the "shared references" fractions, and so on).
///
/// # Examples
///
/// ```
/// use decache_machine::{Access, MemOp};
/// use decache_cache::RefClass;
/// use decache_mem::{Addr, Word};
///
/// let op = MemOp::write(Addr::new(4), Word::ONE).with_class(RefClass::Local);
/// assert_eq!(op.access.addr(), Addr::new(4));
/// assert_eq!(op.class, RefClass::Local);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// The access to perform.
    pub access: Access,
    /// The ground-truth class of the referenced datum (statistics only).
    pub class: RefClass,
}

impl MemOp {
    /// A shared-class read (shared is the conservative default class).
    pub fn read(addr: Addr) -> Self {
        MemOp {
            access: Access::Read(addr),
            class: RefClass::Shared,
        }
    }

    /// A shared-class write.
    pub fn write(addr: Addr, value: Word) -> Self {
        MemOp {
            access: Access::Write(addr, value),
            class: RefClass::Shared,
        }
    }

    /// A Test-and-Set that stores `value` if the word is currently zero.
    pub fn test_and_set(addr: Addr, value: Word) -> Self {
        MemOp {
            access: Access::TestAndSet(addr, value),
            class: RefClass::Shared,
        }
    }

    /// Re-tags the operation with an explicit reference class.
    #[must_use]
    pub fn with_class(mut self, class: RefClass) -> Self {
        self.class = class;
        self
    }
}

/// The completion value a processor receives back from its cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The word returned by a read.
    Read(Word),
    /// The write completed.
    Write,
    /// The Test-and-Set completed: `old` is the tested value;
    /// `acquired` is `true` iff `old` was zero and the store happened.
    TestAndSet {
        /// The value observed by the locked read.
        old: Word,
        /// Whether the set half executed.
        acquired: bool,
    },
}

impl OpResult {
    /// The word carried by the result, if any (the read value, or the
    /// tested value of a Test-and-Set).
    pub fn word(self) -> Option<Word> {
        match self {
            OpResult::Read(w) => Some(w),
            OpResult::TestAndSet { old, .. } => Some(old),
            OpResult::Write => None,
        }
    }

    /// `true` iff this is a Test-and-Set that acquired.
    pub fn acquired(self) -> bool {
        matches!(self, OpResult::TestAndSet { acquired: true, .. })
    }
}

impl fmt::Display for OpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpResult::Read(w) => write!(f, "= {w}"),
            OpResult::Write => write!(f, "stored"),
            OpResult::TestAndSet { old, acquired } => {
                write!(
                    f,
                    "TS old={old} {}",
                    if *acquired { "acquired" } else { "failed" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_default_to_shared_class() {
        assert_eq!(MemOp::read(Addr::new(1)).class, RefClass::Shared);
        assert_eq!(
            MemOp::write(Addr::new(1), Word::ONE).class,
            RefClass::Shared
        );
        assert_eq!(
            MemOp::test_and_set(Addr::new(1), Word::ONE).class,
            RefClass::Shared
        );
    }

    #[test]
    fn with_class_retags() {
        let op = MemOp::read(Addr::new(2)).with_class(RefClass::Code);
        assert_eq!(op.class, RefClass::Code);
    }

    #[test]
    fn access_addr_extraction() {
        assert_eq!(Access::Read(Addr::new(3)).addr(), Addr::new(3));
        assert_eq!(Access::Write(Addr::new(4), Word::ONE).addr(), Addr::new(4));
        assert_eq!(
            Access::TestAndSet(Addr::new(5), Word::ONE).addr(),
            Addr::new(5)
        );
    }

    #[test]
    fn result_words() {
        assert_eq!(OpResult::Read(Word::new(7)).word(), Some(Word::new(7)));
        assert_eq!(OpResult::Write.word(), None);
        let ts = OpResult::TestAndSet {
            old: Word::ZERO,
            acquired: true,
        };
        assert_eq!(ts.word(), Some(Word::ZERO));
        assert!(ts.acquired());
        assert!(!OpResult::TestAndSet {
            old: Word::ONE,
            acquired: false
        }
        .acquired());
        assert!(!OpResult::Write.acquired());
    }

    #[test]
    fn displays() {
        assert_eq!(
            OpResult::TestAndSet {
                old: Word::ZERO,
                acquired: true
            }
            .to_string(),
            "TS old=0 acquired"
        );
    }
}
