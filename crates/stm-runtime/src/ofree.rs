//! The backend named obstruction-free: never waits, aborts on any contention.
//!
//! Same per-variable cells as the blocking backend (one versioned-lock word and the
//! value) and the same per-variable-only metadata discipline, but every potentially
//! blocking wait is replaced by an immediate abort:
//!
//! * writes are buffered and the write locks are only taken at commit, with a single
//!   `try_lock` each — a busy lock aborts the attempt instead of spinning;
//! * reads of a locked variable abort instead of waiting;
//! * commit validates the read set and installs the write set, exactly like TL2.
//!
//! Despite the name it gives up L: it is **not** obstruction-free in the paper's
//! sense.  `commit` holds its write locks across validation and install, and a
//! read of a locked cell aborts, so a transaction that runs solo after a
//! committer parked between those steps reads the locked cell and aborts on
//! every retry — it never commits until the parked committer resumes.  Under
//! ordinary contention progress is probabilistic (the retry loop in
//! [`crate::Stm::run`]).  ROADMAP item 2's liveness probe (a solo run after any
//! prefix of a peer's commit) is what will measure it.

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vlock::Cells;

/// The obstruction-free backend.
#[derive(Default)]
pub struct OFreeBackend {
    pub(crate) cells: Cells,
}

impl OFreeBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        OFreeBackend::default()
    }
}

impl Backend for OFreeBackend {
    fn alloc_words(&self, initials: &[i64]) -> VarId {
        self.cells.alloc_words(initials)
    }

    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        // One try: a locked or changing variable aborts, never waits.
        self.cells.read(data, var, 1)
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // Acquire write locks in variable order, aborting on the first busy one.
        for i in 0..data.writes().len() {
            let var = data.writes().key_at(i);
            if !self.cells.lock(data, var, 1) {
                self.cells.release_all(data);
                return Err(AbortReason::LockConflict);
            }
        }
        if !self.cells.validate(data) {
            self.cells.release_all(data);
            return Err(AbortReason::ReadValidation);
        }
        data.mark_validated();
        self.cells.install(data);
        Ok(())
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

    #[test]
    fn uncontended_transactions_commit() {
        let b = OFreeBackend::new();
        let v = b.alloc(1);
        let mut d = TxnData::default();
        b.begin(&mut d);
        let mut tx = Txn::new(&b, &mut d);
        assert_eq!(tx.read_word(v).unwrap(), 1);
        tx.write_word(v, 2).unwrap();
        assert_eq!(tx.read_word(v).unwrap(), 2); // read-your-own-write
        assert!(b.commit(&mut d).is_ok());

        let mut d2 = TxnData::default();
        b.begin(&mut d2);
        assert_eq!(b.read(&mut d2, v).unwrap(), 2);
    }

    #[test]
    fn conflicting_committed_writer_forces_validation_abort() {
        let b = OFreeBackend::new();
        let v = b.alloc(0);
        let w = b.alloc(0);

        let mut t1 = TxnData::default();
        b.begin(&mut t1);
        assert_eq!(b.read(&mut t1, v).unwrap(), 0);

        let mut t2 = TxnData::default();
        b.begin(&mut t2);
        Txn::new(&b, &mut t2).write_word(v, 7).unwrap();
        assert!(b.commit(&mut t2).is_ok());

        Txn::new(&b, &mut t1).write_word(w, 1).unwrap();
        assert_eq!(b.commit(&mut t1), Err(AbortReason::ReadValidation));
        // Nothing leaked: w is still writable by a fresh transaction.
        let mut t3 = TxnData::default();
        b.begin(&mut t3);
        Txn::new(&b, &mut t3).write_word(w, 2).unwrap();
        assert!(b.commit(&mut t3).is_ok());
    }

    #[test]
    fn reads_of_a_locked_variable_abort_immediately_instead_of_waiting() {
        let b = OFreeBackend::new();
        let v = b.alloc(0);
        // Simulate a writer stalled mid-commit by locking the cell directly through a
        // half-finished commit.
        let mut stalled = TxnData::default();
        b.begin(&mut stalled);
        Txn::new(&b, &mut stalled).write_word(v, 5).unwrap();
        // Take the lock as commit would, but do not finish.
        assert!(b.cells.lock(&mut stalled, v, 1));

        let mut reader = TxnData::default();
        b.begin(&mut reader);
        let start = std::time::Instant::now();
        assert_eq!(b.read(&mut reader, v), Err(AbortReason::LockConflict));
        assert!(start.elapsed() < std::time::Duration::from_millis(50));
        b.cells.release_all(&mut stalled);
    }

    #[test]
    fn write_write_races_leave_exactly_one_winner_per_round() {
        let b = Arc::new(OFreeBackend::new());
        let v = b.alloc(0);
        std::thread::scope(|s| {
            for i in 0..4 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    // Retry loop at the test level (the Stm front-end normally does this).
                    loop {
                        let mut d = TxnData::default();
                        b.begin(&mut d);
                        let mut tx = Txn::new(&*b, &mut d);
                        let cur = match tx.read_word(v) {
                            Ok(c) => c,
                            Err(_) => continue,
                        };
                        if tx.write_word(v, cur + i + 1).is_err() {
                            continue;
                        }
                        if b.commit(&mut d).is_ok() {
                            break;
                        }
                    }
                });
            }
        });
        let mut d = TxnData::default();
        b.begin(&mut d);
        // All four increments landed (values 1..=4 added in some order).
        assert_eq!(b.read(&mut d, v).unwrap(), 1 + 2 + 3 + 4);
    }
}
