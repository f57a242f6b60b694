//! The bus transaction vocabulary.

use decache_mem::{Addr, PeId, Word};
use std::fmt;

/// A bus operation, the "activity" part of what every cache snoops.
///
/// The paper's RB scheme uses bus reads and bus writes; RWB adds the **bus
/// invalidate** signal (Section 5); read-modify-write support adds the
/// locked read / unlocking write pair (Sections 3 and 6). The paper notes
/// the invalidate signal "can be implemented by reserving one value from
/// the range of values assumed by any data word" — a distinct operation is
/// behaviourally identical and type-safe, so that is what we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// A bus read: fetches a word from memory (or from an interrupting
    /// cache in the `L` state). The returned value is broadcast: every
    /// snooping cache may capture it.
    Read,
    /// A bus write carrying its data. Updates memory; under RB snoopers
    /// observe only the event, under RWB they also capture the data.
    Write(Word),
    /// The RWB bus-invalidate signal: an event-only broadcast that moves
    /// every other cache to the invalid state.
    Invalidate,
    /// The first half of a read-modify-write cycle: reads the word and
    /// locks it in memory.
    ReadWithLock,
    /// The second half of a read-modify-write cycle: writes the word and
    /// releases the lock.
    WriteWithUnlock(Word),
}

impl BusOp {
    /// Returns the data payload carried by the operation, if any.
    pub fn data(self) -> Option<Word> {
        match self {
            BusOp::Write(w) | BusOp::WriteWithUnlock(w) => Some(w),
            BusOp::Read | BusOp::Invalidate | BusOp::ReadWithLock => None,
        }
    }

    /// Returns the payload-free classification of the operation.
    pub fn kind(self) -> BusOpKind {
        match self {
            BusOp::Read => BusOpKind::Read,
            BusOp::Write(_) => BusOpKind::Write,
            BusOp::Invalidate => BusOpKind::Invalidate,
            BusOp::ReadWithLock => BusOpKind::ReadWithLock,
            BusOp::WriteWithUnlock(_) => BusOpKind::WriteWithUnlock,
        }
    }

    /// Returns `true` for the operations that fetch data (plain and locked
    /// reads).
    pub fn is_read(self) -> bool {
        matches!(self, BusOp::Read | BusOp::ReadWithLock)
    }

    /// Returns `true` for the operations that carry data toward memory.
    pub fn is_write(self) -> bool {
        matches!(self, BusOp::Write(_) | BusOp::WriteWithUnlock(_))
    }
}

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusOp::Read => write!(f, "BR"),
            BusOp::Write(w) => write!(f, "BW({w})"),
            BusOp::Invalidate => write!(f, "BI"),
            BusOp::ReadWithLock => write!(f, "BRL"),
            BusOp::WriteWithUnlock(w) => write!(f, "BWU({w})"),
        }
    }
}

/// The classification of a [`BusOp`] without its payload, used as an index
/// for traffic accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BusOpKind {
    /// Plain bus read.
    Read,
    /// Plain bus write.
    Write,
    /// RWB bus invalidate.
    Invalidate,
    /// Locked read (read-modify-write first half).
    ReadWithLock,
    /// Unlocking write (read-modify-write second half).
    WriteWithUnlock,
}

impl BusOpKind {
    /// All kinds, in accounting order.
    pub const ALL: [BusOpKind; 5] = [
        BusOpKind::Read,
        BusOpKind::Write,
        BusOpKind::Invalidate,
        BusOpKind::ReadWithLock,
        BusOpKind::WriteWithUnlock,
    ];

    /// A short mnemonic used in tables (BR, BW, BI, BRL, BWU).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BusOpKind::Read => "BR",
            BusOpKind::Write => "BW",
            BusOpKind::Invalidate => "BI",
            BusOpKind::ReadWithLock => "BRL",
            BusOpKind::WriteWithUnlock => "BWU",
        }
    }
}

impl fmt::Display for BusOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A complete bus transaction: who, where, and what.
///
/// # Examples
///
/// ```
/// use decache_bus::{BusOp, BusTransaction};
/// use decache_mem::{Addr, PeId, Word};
///
/// let tx = BusTransaction::new(PeId::new(2), Addr::new(40), BusOp::Write(Word::new(9)));
/// assert_eq!(tx.op.data(), Some(Word::new(9)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusTransaction {
    /// The processing element (cache) that initiated the transaction.
    /// Write-backs initiated by the memory side of the model use the
    /// evicting cache's id.
    pub initiator: PeId,
    /// The word address the transaction targets.
    pub addr: Addr,
    /// The operation, with payload if any.
    pub op: BusOp,
}

impl BusTransaction {
    /// Creates a transaction.
    pub const fn new(initiator: PeId, addr: Addr, op: BusOp) -> Self {
        BusTransaction {
            initiator,
            addr,
            op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_payloads() {
        assert_eq!(BusOp::Read.data(), None);
        assert_eq!(BusOp::Invalidate.data(), None);
        assert_eq!(BusOp::ReadWithLock.data(), None);
        assert_eq!(BusOp::Write(Word::new(5)).data(), Some(Word::new(5)));
        assert_eq!(
            BusOp::WriteWithUnlock(Word::new(6)).data(),
            Some(Word::new(6))
        );
    }

    #[test]
    fn kind_classification_is_total() {
        for kind in BusOpKind::ALL {
            let op = match kind {
                BusOpKind::Read => BusOp::Read,
                BusOpKind::Write => BusOp::Write(Word::ZERO),
                BusOpKind::Invalidate => BusOp::Invalidate,
                BusOpKind::ReadWithLock => BusOp::ReadWithLock,
                BusOpKind::WriteWithUnlock => BusOp::WriteWithUnlock(Word::ZERO),
            };
            assert_eq!(op.kind(), kind);
        }
    }

    #[test]
    fn read_write_predicates() {
        assert!(BusOp::Read.is_read());
        assert!(BusOp::ReadWithLock.is_read());
        assert!(!BusOp::Invalidate.is_read());
        assert!(BusOp::Write(Word::ZERO).is_write());
        assert!(BusOp::WriteWithUnlock(Word::ZERO).is_write());
        assert!(!BusOp::Read.is_write());
    }

    #[test]
    fn mnemonics_match_paper_legend() {
        // Figure 3-1 / 5-1 legends: BW = Bus Write, BR = Bus Read,
        // BI = Bus Invalidate.
        assert_eq!(BusOpKind::Read.mnemonic(), "BR");
        assert_eq!(BusOpKind::Write.mnemonic(), "BW");
        assert_eq!(BusOpKind::Invalidate.mnemonic(), "BI");
    }
}
