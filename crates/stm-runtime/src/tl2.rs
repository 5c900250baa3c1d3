//! The blocking, eager-locking backend (the "give up Liveness" corner, TL-style).
//!
//! * **Writes acquire the variable's exclusive lock at encounter time** and hold it
//!   until commit or abort (two-phase locking), spinning while the lock is busy.  A
//!   transaction that stalls after writing therefore stalls every reader and writer
//!   of that variable — the blocking behaviour the PCL theorem trades against
//!   consistency and parallelism.
//! * **Reads are optimistic**: they snapshot `(version, value)` of an unlocked
//!   variable and are re-validated at commit time, which gives serializability
//!   without read locks.
//! * All metadata is **per variable** (one `version << 1 | locked` word and the
//!   value): two transactions accessing disjoint variables never touch a common
//!   atomic — the runtime analogue of strict disjoint-access-parallelism.
//!
//! To keep the test-suite and benchmarks hang-free the spin loops are *bounded*
//! ([`SPIN_LIMIT`] iterations) and give up with an abort once exhausted; this models
//! "practically blocking" behaviour (victims burn their budget spinning, then retry)
//! while remaining safe to run unattended.

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vlock::Cells;

/// How long a transaction spins on a busy lock before giving up with an abort.
pub const SPIN_LIMIT: usize = 50_000;

/// The eager-locking (blocking) backend.
pub struct Tl2Backend {
    cells: Cells,
    spin_limit: usize,
}

impl Tl2Backend {
    /// Create an empty backend.
    pub fn new() -> Self {
        Tl2Backend::with_spin_limit(SPIN_LIMIT)
    }

    /// Create a backend with a custom spin budget (used by tests).
    pub fn with_spin_limit(spin_limit: usize) -> Self {
        Tl2Backend { cells: Cells::default(), spin_limit }
    }
}

impl Default for Tl2Backend {
    fn default() -> Self {
        Tl2Backend::new()
    }
}

impl Backend for Tl2Backend {
    fn alloc_words(&self, initials: &[i64]) -> VarId {
        self.cells.alloc_words(initials)
    }

    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        // A locked variable is spun on within the budget.
        self.cells.read(data, var, self.spin_limit)
    }

    fn write(&self, data: &mut TxnData, var: VarId) -> Result<(), AbortReason> {
        // Lock at encounter time, once per variable per attempt.
        if data.held_locks.contains(&var) || self.cells.lock(data, var, self.spin_limit) {
            Ok(())
        } else {
            Err(AbortReason::LockConflict)
        }
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // Every write lock is held since the write hook; validate the read
        // set and install.
        self.cells.commit(data, self.spin_limit)
    }

    fn cleanup(&self, data: &mut TxnData) {
        self.cells.release_all(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Txn;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn snapshot_reads_are_consistent() {
        let backend = Tl2Backend::new();
        let v = backend.alloc(3);
        let mut data = TxnData::default();
        backend.begin(&mut data);
        let mut tx = Txn::new(&backend, &mut data);
        assert_eq!(tx.read_word(v).unwrap(), 3);
        // Cached on the second read.
        assert_eq!(tx.read_word(v).unwrap(), 3);
        assert!(backend.commit(&mut data).is_ok());
    }

    #[test]
    fn writers_hold_the_lock_until_commit_blocking_other_writers() {
        let backend = Arc::new(Tl2Backend::with_spin_limit(200));
        let v = backend.alloc(0);

        let mut writer = TxnData::default();
        backend.begin(&mut writer);
        Txn::new(&*backend, &mut writer).write_word(v, 1).unwrap();

        // A second writer cannot acquire the lock and eventually gives up.
        let b2 = Arc::clone(&backend);
        let handle = std::thread::spawn(move || {
            let mut other = TxnData::default();
            b2.begin(&mut other);
            let res = b2.write(&mut other, v);
            b2.cleanup(&mut other);
            res
        });
        let res = handle.join().unwrap();
        assert_eq!(res, Err(AbortReason::LockConflict));

        // Once the first writer commits, the value is visible.
        backend.commit(&mut writer).unwrap();
        let mut reader = TxnData::default();
        backend.begin(&mut reader);
        assert_eq!(backend.read(&mut reader, v).unwrap(), 1);
    }

    #[test]
    fn readers_wait_for_a_stalled_writer_then_give_up() {
        let backend = Arc::new(Tl2Backend::with_spin_limit(500));
        let v = backend.alloc(0);
        let mut writer = TxnData::default();
        backend.begin(&mut writer);
        Txn::new(&*backend, &mut writer).write_word(v, 9).unwrap();

        // While the writer holds the lock, a reader spins and ultimately aborts.
        let b2 = Arc::clone(&backend);
        let reader = std::thread::spawn(move || {
            let mut data = TxnData::default();
            b2.begin(&mut data);
            b2.read(&mut data, v)
        });
        std::thread::sleep(Duration::from_millis(10));
        let res = reader.join().unwrap();
        assert_eq!(res, Err(AbortReason::LockConflict));
        backend.cleanup(&mut writer);
    }

    #[test]
    fn stale_read_sets_fail_validation() {
        let backend = Tl2Backend::new();
        let v = backend.alloc(0);
        let mut t1 = TxnData::default();
        backend.begin(&mut t1);
        assert_eq!(backend.read(&mut t1, v).unwrap(), 0);

        // Another transaction commits a new value in between.
        let mut t2 = TxnData::default();
        backend.begin(&mut t2);
        Txn::new(&backend, &mut t2).write_word(v, 5).unwrap();
        backend.commit(&mut t2).unwrap();

        // t1 now writes something else and must fail validation at commit.
        let other = backend.alloc(0);
        Txn::new(&backend, &mut t1).write_word(other, 1).unwrap();
        assert_eq!(backend.commit(&mut t1), Err(AbortReason::ReadValidation));
        // The aborted commit released its lock.
        let mut t3 = TxnData::default();
        backend.begin(&mut t3);
        Txn::new(&backend, &mut t3).write_word(other, 2).unwrap();
        assert!(backend.commit(&mut t3).is_ok());
    }
}
