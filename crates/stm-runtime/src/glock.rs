//! The coarse-global-lock backend: the "give up Parallelism" corner, the
//! extreme end of the parallelism axis that [`crate::shardlock`] sits in
//! the middle of.
//!
//! One process-wide lock serializes every transaction on the instance:
//!
//! * the first read or write of an attempt spin-acquires the instance's
//!   single lock flag (bounded spin, then abort — same hang-free discipline
//!   as the blocking TL2 backend);
//! * while the lock is held, reads come straight from the store and the
//!   front end buffers the writes (so an abort rolls back for free);
//! * commit installs the write set and releases the lock.
//!
//! The result is trivially serializable (there is never any concurrency to
//! get wrong) and blocking — but it has **no** disjoint-access-parallelism:
//! two transactions over disjoint variables still collide on the one lock,
//! exactly the sacrifice the PCL theorem says some design must make.  The
//! benchmarks show what that costs: disjoint workloads stop scaling with
//! threads.

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// How long an attempt spins on the global lock before aborting.
pub const SPIN_LIMIT: usize = 100_000;

/// The coarse-global-lock backend.
#[derive(Default)]
pub struct GlobalLockBackend {
    /// The values.  Only the lock holder touches them, and the lock's
    /// Acquire/Release orders one holder's installs before the next
    /// holder's reads, so every access is `Relaxed`.
    values: VarTable<AtomicI64>,
    lock: AtomicBool,
}

/// Sentinel pushed into [`TxnData::held_locks`] while the global lock is
/// held (the field is per-backend bookkeeping; this backend has exactly one
/// lock, so one sentinel entry encodes "held").
const GLOBAL: VarId = VarId(usize::MAX);

impl GlobalLockBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        GlobalLockBackend::default()
    }

    fn holds_lock(data: &TxnData) -> bool {
        data.held_locks.last() == Some(&GLOBAL)
    }

    /// Spin-acquire the instance lock for this attempt (idempotent within
    /// the attempt); abort once the spin budget is exhausted.
    fn acquire(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        if Self::holds_lock(data) {
            return Ok(());
        }
        for _ in 0..SPIN_LIMIT {
            if self.lock.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                data.held_locks.push(GLOBAL);
                return Ok(());
            }
            std::hint::spin_loop();
        }
        Err(AbortReason::LockConflict)
    }

    fn release(&self, data: &mut TxnData) {
        if Self::holds_lock(data) {
            data.held_locks.pop();
            self.lock.store(false, Ordering::Release);
        }
    }
}

impl Backend for GlobalLockBackend {
    fn alloc_words(&self, initials: &[i64]) -> VarId {
        VarId(self.values.alloc_init(initials.len(), |k, value| {
            value.store(initials[k], Ordering::Relaxed);
        }))
    }

    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        self.acquire(data)?;
        Ok(self.values.get(var.index()).load(Ordering::Relaxed))
    }

    fn write(&self, data: &mut TxnData, _var: VarId) -> Result<(), AbortReason> {
        self.acquire(data)
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // Holding the exclusive lock since first access means no validation
        // is ever needed: install and release.
        data.mark_validated();
        for (var, &value) in data.writes() {
            self.values.get(var.index()).store(value, Ordering::Relaxed);
        }
        self.release(data);
        Ok(())
    }

    fn cleanup(&self, data: &mut TxnData) {
        self.release(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GLOBAL_LOCK;
    use crate::{Stm, StmError};

    #[test]
    fn transactions_are_serializable_across_threads() {
        let stm = std::sync::Arc::new(Stm::new(GLOBAL_LOCK));
        let counter = stm.alloc(0i64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = std::sync::Arc::clone(&stm);
                s.spawn(move || {
                    for _ in 0..200 {
                        stm.run(|tx| tx.update(counter, |v| v + 1));
                    }
                });
            }
        });
        assert_eq!(stm.read_now(counter), 800);
    }

    #[test]
    fn aborted_attempts_roll_back_and_release_the_lock() {
        let stm = Stm::new(GLOBAL_LOCK);
        let x = stm.alloc(1i64);
        let result: Result<(), StmError> = stm.try_run(|tx| {
            tx.write(x, 99)?;
            Err(StmError::Aborted)
        });
        assert!(result.is_err());
        assert_eq!(stm.read_now(x), 1, "buffered write must not land");
        // The lock was released: the next transaction commits immediately.
        stm.write_now(x, 2);
        assert_eq!(stm.read_now(x), 2);
    }

    #[test]
    fn disjoint_transactions_still_contend_on_the_one_lock() {
        // A reader that stalls inside a transaction (holding the global
        // lock) blocks a writer of a *different* variable long enough that
        // the writer burns its spin budget: no disjoint-access-parallelism.
        let backend = std::sync::Arc::new(GlobalLockBackend::new());
        let a = backend.alloc_words(&[0]);
        let b = backend.alloc_words(&[0]);
        let mut holder = TxnData::default();
        backend.begin(&mut holder);
        backend.read(&mut holder, a).unwrap();

        let b2 = std::sync::Arc::clone(&backend);
        let blocked = std::thread::spawn(move || {
            let mut other = TxnData::default();
            b2.begin(&mut other);
            let res = b2.write(&mut other, b);
            b2.cleanup(&mut other);
            res
        })
        .join()
        .unwrap();
        assert_eq!(blocked, Err(AbortReason::LockConflict));
        backend.cleanup(&mut holder);
    }
}
