//! The versioned-lock cell the blocking and obstruction-free backends share:
//! per variable one versioned-lock word and the value, and nothing else —
//! two transactions over disjoint variables never touch a common atomic.
//!
//! The word is `version << 1 | locked`, so a seqlock read is two loads of
//! it, validation is one, and an install's version bump and unlock are one
//! store.  The backends differ only in *when* they lock and *how long* they
//! wait, which the callers pass in as a number of tries.

use crate::backend::VarId;
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The lock bit of a versioned-lock word; the version sits above it.
const LOCKED: u64 = 1;

#[derive(Default)]
struct Cell {
    /// `version << 1 | locked`.
    vlock: AtomicU64,
    value: AtomicI64,
}

/// Every variable's versioned-lock cell.
#[derive(Default)]
pub(crate) struct Cells(VarTable<Cell>);

impl Cells {
    #[inline]
    fn cell(&self, var: VarId) -> &Cell {
        self.0.get(var.index())
    }

    pub(crate) fn alloc_words(&self, initials: &[i64]) -> VarId {
        VarId(self.0.alloc_init(initials.len(), |k, cell| {
            cell.value.store(initials[k], Ordering::Relaxed);
        }))
    }

    /// Seqlock read: a consistent unlocked `(version, value)` snapshot within
    /// `tries` attempts, its version kept in the read set; a conflict if the
    /// cell stayed locked or changed under us every time.
    #[inline]
    pub(crate) fn read(
        &self,
        data: &mut TxnData,
        var: VarId,
        tries: usize,
    ) -> Result<i64, AbortReason> {
        let cell = self.cell(var);
        for _ in 0..tries {
            let before = cell.vlock.load(Ordering::Acquire);
            if before & LOCKED == 0 {
                let value = cell.value.load(Ordering::Acquire);
                if cell.vlock.load(Ordering::Acquire) == before {
                    data.read_versions.insert(var, before >> 1);
                    return Ok(value);
                }
            }
            std::hint::spin_loop();
        }
        Err(AbortReason::LockConflict)
    }

    /// Take `var`'s lock within `tries` attempts, recording it in
    /// [`TxnData::held_locks`]; `false` if it stayed busy.
    #[inline]
    pub(crate) fn lock(&self, data: &mut TxnData, var: VarId, tries: usize) -> bool {
        let cell = self.cell(var);
        for _ in 0..tries {
            let word = cell.vlock.load(Ordering::Relaxed);
            if word & LOCKED == 0
                && cell
                    .vlock
                    .compare_exchange(word, word | LOCKED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                data.held_locks.push(var);
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    /// `true` if every read version is still current and no other
    /// transaction holds the lock of a variable read.
    #[inline]
    pub(crate) fn validate(&self, data: &TxnData) -> bool {
        data.read_versions.iter().all(|(var, &version)| {
            let word = self.cell(*var).vlock.load(Ordering::Acquire);
            word >> 1 == version && (word & LOCKED == 0 || data.held_locks.contains(var))
        })
    }

    /// Install the buffered writes, whose locks are exactly the held ones:
    /// each cell's new value, then one store that bumps its version and
    /// unlocks it.
    #[inline]
    pub(crate) fn install(&self, data: &mut TxnData) {
        debug_assert!(
            data.held_locks.len() == data.writes().len()
                && data.held_locks.iter().all(|var| data.writes().contains_key(var)),
            "install runs with exactly the write set locked"
        );
        for (&var, &value) in data.writes() {
            let cell = self.cell(var);
            cell.value.store(value, Ordering::Release);
            // Locked by us, so `word` is odd and `word + 1` is the next
            // version, unlocked.
            let word = cell.vlock.load(Ordering::Relaxed);
            cell.vlock.store(word + 1, Ordering::Release);
        }
        data.held_locks.clear();
    }

    /// Unlock every held cell, its version unchanged.
    #[inline]
    pub(crate) fn release_all(&self, data: &mut TxnData) {
        for var in data.held_locks.drain(..) {
            let vlock = &self.cell(var).vlock;
            vlock.store(vlock.load(Ordering::Relaxed) & !LOCKED, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofree::OFreeBackend;
    use crate::{Backend, Txn};

    #[test]
    fn one_word_carries_the_lock_bit_and_the_version() {
        // obstruction-free's write hook only buffers, so its cells are bare.
        let b = OFreeBackend::new();
        let (x, y) = (b.alloc(10), b.alloc(20));
        let (cells, word) = (&b.cells, |var| b.cells.cell(var).vlock.load(Ordering::Relaxed));
        let mut reader = TxnData::default();
        assert_eq!(cells.read(&mut reader, x, 1), Ok(10));
        assert_eq!(cells.read(&mut reader, y, 1), Ok(20));

        // Validation passes on a cell locked by the validator itself …
        assert!(cells.lock(&mut reader, x, 1));
        assert_eq!(word(x), LOCKED);
        assert!(cells.validate(&reader));
        cells.release_all(&mut reader);
        assert_eq!(word(x), 0, "release keeps the version");

        // … and fails on one locked by another.
        let mut writer = TxnData::default();
        Txn::new(&b, &mut writer).write_word(y, 21).unwrap();
        assert!(cells.lock(&mut writer, y, 1));
        assert!(!cells.lock(&mut reader, y, 1));
        assert!(!cells.validate(&reader));
        assert_eq!(cells.read(&mut TxnData::default(), y, 3), Err(AbortReason::LockConflict));

        // Install bumps the version and unlocks in one store.
        cells.install(&mut writer);
        assert!(writer.held_locks.is_empty());
        assert_eq!(word(y), 1 << 1);
        assert!(!cells.validate(&reader), "the version moved");
        let mut after = TxnData::default();
        assert_eq!(cells.read(&mut after, y, 1), Ok(21));
        assert_eq!(after.read_versions.get(&y), Some(&1));
    }
}
