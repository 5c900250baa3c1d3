//! The versioned-lock cell the blocking and obstruction-free backends share:
//! per variable one lock bit, one version and the value, and nothing else —
//! two transactions over disjoint variables never touch a common atomic.
//!
//! The backends differ only in *when* they lock and *how long* they wait,
//! which the callers pass in as a number of tries.

use crate::backend::VarId;
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

#[derive(Default)]
struct Cell {
    locked: AtomicBool,
    version: AtomicU64,
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
            if !cell.locked.load(Ordering::Acquire) {
                let v1 = cell.version.load(Ordering::Acquire);
                let value = cell.value.load(Ordering::Acquire);
                let v2 = cell.version.load(Ordering::Acquire);
                if v1 == v2 && !cell.locked.load(Ordering::Acquire) {
                    data.read_versions.insert(var, v1);
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
            if cell
                .locked
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
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
        data.read_versions.iter().all(|(var, &recorded)| {
            let cell = self.cell(*var);
            (!cell.locked.load(Ordering::Acquire) || data.held_locks.contains(var))
                && cell.version.load(Ordering::Acquire) == recorded
        })
    }

    /// Install the buffered writes (their locks are held), then release
    /// every held lock.
    #[inline]
    pub(crate) fn install(&self, data: &mut TxnData) {
        for (&var, &value) in data.writes() {
            let cell = self.cell(var);
            cell.value.store(value, Ordering::Release);
            cell.version.fetch_add(1, Ordering::AcqRel);
        }
        self.release_all(data);
    }

    #[inline]
    pub(crate) fn release_all(&self, data: &mut TxnData) {
        for var in data.held_locks.drain(..) {
            self.cell(var).locked.store(false, Ordering::Release);
        }
    }
}
