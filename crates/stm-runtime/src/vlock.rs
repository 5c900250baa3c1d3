//! The runtime's one spin lock, [`VLock`], and the per-variable cells the
//! blocking and obstruction-free backends build from it.
//!
//! A [`VLock`] is one word, `version << 1 | locked`, so a seqlock read is
//! two loads of it, validation is one, and a publish's version bump and
//! unlock are one store.  Every lock in the runtime is one: a variable's
//! cell here, a band of `shard-lock`, the instance lock of `global-lock`.
//! Backends differ only in what a word guards, *when* they lock it and
//! *how long* they wait, which they pass in as a number of tries.
//!
//! [`Cells`] keeps per variable one word and the value, and nothing else —
//! two transactions over disjoint variables never touch a common atomic.

use crate::backend::VarId;
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The lock bit of a versioned-lock word; the version sits above it.
const LOCKED: u64 = 1;

/// A versioned spin lock: one `version << 1 | locked` word.
///
/// Only the holder publishes or unlocks; nothing checks that, so each
/// caller keeps its own record of what it holds.
#[derive(Default)]
pub(crate) struct VLock(AtomicU64);

impl VLock {
    /// Seqlock read: run `load` between two loads of an unlocked, unchanged
    /// word within `tries` attempts, returning the word's version and what
    /// `load` read; `None` if the word stayed locked or moved every time.
    /// `load` must read with `Acquire`, pairing with the holder's `Release`
    /// stores before [`VLock::publish`], so a new value implies a moved word.
    #[inline]
    pub(crate) fn read<T>(&self, tries: usize, load: impl Fn() -> T) -> Option<(u64, T)> {
        for _ in 0..tries {
            let before = self.0.load(Ordering::Acquire);
            if before & LOCKED == 0 {
                let value = load();
                if self.0.load(Ordering::Acquire) == before {
                    return Some((before >> 1, value));
                }
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Take the lock within `tries` attempts; `false` if it stayed busy.
    ///
    /// A try is one `fetch_or`, which leaves a held word as it was; between
    /// tries a waiter only loads, so it does not write the holder's cache
    /// line while it spins.
    #[inline]
    pub(crate) fn lock(&self, tries: usize) -> bool {
        let mut word = 0;
        for _ in 0..tries {
            if word & LOCKED == 0 && self.0.fetch_or(LOCKED, Ordering::AcqRel) & LOCKED == 0 {
                return true;
            }
            std::hint::spin_loop();
            word = self.0.load(Ordering::Relaxed);
        }
        false
    }

    /// `true` if the word is still at `version` and either unlocked or,
    /// as `held` answers when it is locked, held by the caller.
    #[inline]
    pub(crate) fn is_current(&self, version: u64, held: impl FnOnce() -> bool) -> bool {
        let word = self.0.load(Ordering::Acquire);
        word >> 1 == version && (word & LOCKED == 0 || held())
    }

    /// Bump the version and unlock, in one store.  Holder only.
    #[inline]
    pub(crate) fn publish(&self) {
        // Locked, so `word` is odd and `word + 1` is the next version,
        // unlocked.
        let word = self.0.load(Ordering::Relaxed);
        self.0.store(word + 1, Ordering::Release);
    }

    /// Unlock, the version unchanged.  Holder only.
    #[inline]
    pub(crate) fn unlock(&self) {
        let word = self.0.load(Ordering::Relaxed);
        self.0.store(word & !LOCKED, Ordering::Release);
    }

    /// The raw word, for tests that check what a step leaves behind.
    #[cfg(test)]
    pub(crate) fn word(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Cell {
    vlock: VLock,
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

    /// Seqlock read of `var` within `tries` attempts, its version kept in
    /// the read set; a conflict if the cell stayed locked or changed under
    /// us every time.
    #[inline]
    pub(crate) fn read(
        &self,
        data: &mut TxnData,
        var: VarId,
        tries: usize,
    ) -> Result<i64, AbortReason> {
        let cell = self.cell(var);
        let (version, value) = cell
            .vlock
            .read(tries, || cell.value.load(Ordering::Acquire))
            .ok_or(AbortReason::LockConflict)?;
        data.read_versions.insert(var, version);
        Ok(value)
    }

    /// Take `var`'s lock within `tries` attempts, recording it in
    /// [`TxnData::held_locks`]; `false` if it stayed busy.
    #[inline]
    pub(crate) fn lock(&self, data: &mut TxnData, var: VarId, tries: usize) -> bool {
        let locked = self.cell(var).vlock.lock(tries);
        if locked {
            data.held_locks.push(var);
        }
        locked
    }

    /// Commit: lock every written cell not yet held within `tries`
    /// attempts each, check that every read version is current and no
    /// other transaction holds a cell read, then install.  Any failure
    /// releases every held lock.
    #[inline]
    pub(crate) fn commit(&self, data: &mut TxnData, tries: usize) -> Result<(), AbortReason> {
        for i in 0..data.writes().len() {
            let var = data.writes().key_at(i);
            if !data.held_locks.contains(&var) && !self.lock(data, var, tries) {
                self.release_all(data);
                return Err(AbortReason::LockConflict);
            }
        }
        let current = data.read_versions.iter().all(|(var, &version)| {
            self.cell(*var).vlock.is_current(version, || data.held_locks.contains(var))
        });
        if !current {
            self.release_all(data);
            return Err(AbortReason::ReadValidation);
        }
        data.mark_validated();
        debug_assert_eq!(data.held_locks.len(), data.writes().len(), "exactly the writes are held");
        for (&var, &value) in data.writes() {
            let cell = self.cell(var);
            cell.value.store(value, Ordering::Release);
            cell.vlock.publish();
        }
        data.held_locks.clear();
        Ok(())
    }

    /// Unlock every held cell, its version unchanged.
    #[inline]
    pub(crate) fn release_all(&self, data: &mut TxnData) {
        for var in data.held_locks.drain(..) {
            self.cell(var).vlock.unlock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_word_carries_the_lock_bit_and_the_version() {
        let (lock, value) = (VLock::default(), AtomicI64::new(10));
        let word = || lock.word();
        let load = || value.load(Ordering::Acquire);
        assert_eq!(lock.read(1, load), Some((0, 10)));

        // The caller's own lock passes the currency check, another's fails.
        assert!(lock.lock(1));
        assert_eq!(word(), LOCKED);
        assert!(!lock.lock(3), "a held word stays held");
        assert_eq!(word(), LOCKED, "a failed try leaves the word as it was");
        assert_eq!(lock.read(3, load), None);
        assert!(lock.is_current(0, || true));
        assert!(!lock.is_current(0, || false));
        lock.unlock();
        assert_eq!(word(), 0, "unlock keeps the version");

        // Publish bumps the version and unlocks in one store.
        assert!(lock.lock(1));
        value.store(11, Ordering::Release);
        lock.publish();
        assert_eq!(word(), 1 << 1);
        assert!(!lock.is_current(0, || true), "the version moved");
        assert!(lock.is_current(1, || false));
        assert_eq!(lock.read(1, load), Some((1, 11)));
    }
}
