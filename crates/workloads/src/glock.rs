//! The coarse-global-lock backend: the "give up Parallelism" corner,
//! registered from **outside** `stm-runtime` through the open
//! [`stm_runtime::registry`] — the proof that backends are pluggable data,
//! not a closed enum.
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

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stm_runtime::registry::{self, Axis, BackendSpec, Triangle};
use stm_runtime::{AbortReason, Backend, BackendId, TxnData, VarId};

/// How long an attempt spins on the global lock before aborting.
pub const SPIN_LIMIT: usize = 100_000;

/// Canonical registry name of the backend.
pub const NAME: &str = "global-lock";

/// The coarse-global-lock backend.
pub struct GlobalLockBackend {
    store: RwLock<Vec<i64>>,
    lock: AtomicBool,
}

/// Sentinel pushed into [`TxnData::held_locks`] while the global lock is
/// held (the field is per-backend bookkeeping; this backend has exactly one
/// lock, so one sentinel entry encodes "held").
const GLOBAL: VarId = VarId(usize::MAX);

impl GlobalLockBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        GlobalLockBackend { store: RwLock::new(Vec::new()), lock: AtomicBool::new(false) }
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

impl Default for GlobalLockBackend {
    fn default() -> Self {
        GlobalLockBackend::new()
    }
}

impl Backend for GlobalLockBackend {
    fn alloc_words(&self, initials: &[i64]) -> VarId {
        let mut store = self.store.write();
        let base = store.len();
        store.extend_from_slice(initials);
        VarId(base)
    }

    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        self.acquire(data)?;
        Ok(self.store.read()[var.index()])
    }

    fn write(&self, data: &mut TxnData, _var: VarId) -> Result<(), AbortReason> {
        self.acquire(data)
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // Holding the exclusive lock since first access means no validation
        // is ever needed: install and release.
        data.mark_validated();
        if !data.writes().is_empty() {
            let mut store = self.store.write();
            for (var, value) in data.writes() {
                store[var.index()] = *value;
            }
        }
        self.release(data);
        Ok(())
    }

    fn cleanup(&self, data: &mut TxnData) {
        self.release(data);
    }
}

/// Register the backend (idempotent) and return its id.  Anything that wants
/// `"global-lock"` resolvable by name — the audit CLI, benches, examples —
/// calls this once at startup, usually via
/// [`crate::register_workload_backends`].
pub fn register() -> BackendId {
    registry::register(BackendSpec {
        name: NAME,
        aliases: &["glock", "global"],
        summary: "one process-wide lock serializes every transaction; \
                  trivially consistent, zero disjoint-access-parallelism",
        triangle: Triangle {
            sacrificed: Axis::Parallelism,
            parallelism: "none — disjoint transactions still contend on the one lock",
            consistency: "serializable (fully serial execution)",
            liveness: "blocking on the global lock (bounded spin, then abort)",
        },
        constructor: || Arc::new(GlobalLockBackend::new()) as Arc<dyn Backend>,
    })
    .expect("the global-lock spec never conflicts with itself")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_runtime::{Stm, StmError};

    #[test]
    fn registers_through_the_open_registry_and_parses_by_name() {
        let id = register();
        assert_eq!(id.name(), NAME);
        assert_eq!("glock".parse::<BackendId>().unwrap(), id);
        assert_eq!(id.spec().triangle.sacrificed, Axis::Parallelism);
        // Registration is idempotent.
        assert_eq!(register(), id);
    }

    #[test]
    fn transactions_are_serializable_across_threads() {
        let stm = std::sync::Arc::new(Stm::new(register()));
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
        let stm = Stm::new(register());
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
