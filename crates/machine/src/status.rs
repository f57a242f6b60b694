//! Internal per-PE execution status.

use decache_mem::Addr;

// The machine runs on its checkpoint forms directly.
pub(crate) use crate::{PendingCheckpoint as Pending, StatusCheckpoint as PeStatus};

impl Pending {
    /// The address the pending transaction targets.
    pub(crate) fn addr(&self) -> Addr {
        match *self {
            Pending::Read { addr, .. }
            | Pending::Write { addr, .. }
            | Pending::LockedRead { addr, .. }
            | Pending::UnlockWrite { addr, .. } => addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_cache::RefClass;
    use decache_mem::Word;

    #[test]
    fn pending_addr_extraction() {
        let a = Addr::new(9);
        for p in [
            Pending::Read {
                addr: a,
                class: RefClass::Shared,
            },
            Pending::Write {
                addr: a,
                value: Word::ONE,
                class: RefClass::Local,
            },
            Pending::LockedRead {
                addr: a,
                set_to: Word::ONE,
                class: RefClass::Shared,
            },
            Pending::UnlockWrite {
                addr: a,
                old: Word::ZERO,
                class: RefClass::Shared,
            },
        ] {
            assert_eq!(p.addr(), a);
        }
    }

    #[test]
    fn status_equality() {
        assert_eq!(PeStatus::Idle, PeStatus::Idle);
        assert_ne!(PeStatus::Idle, PeStatus::Done);
    }
}
