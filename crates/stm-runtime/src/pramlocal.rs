//! The no-synchronization backend: thread-local replicas, PRAM consistency only.
//!
//! Section 5 of the paper: weakening consistency to PRAM makes it *trivial* to be
//! strictly disjoint-access-parallel and wait-free — just never synchronize.  This
//! backend does exactly that: every thread keeps a private replica of each variable,
//! transactions read and write only the calling thread's replica, and commits are
//! no-ops.  Nothing ever blocks, nothing ever aborts, nothing is ever shared — and a
//! thread never observes another thread's writes.
//!
//! It exists so the benchmarks can put a number on what the consistency sacrifice
//! buys (and so the README can show, concretely, why that corner of the P/C/L
//! triangle is rarely what an application wants).

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

static NEXT_INSTANCE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread replicas, keyed by (backend instance, variable index).
    static REPLICAS: RefCell<HashMap<(usize, usize), i64>> = RefCell::new(HashMap::new());
}

/// The thread-local-replica backend.
pub struct PramLocalBackend {
    instance: usize,
    /// The allocation-time initial values (immutable after allocation; the
    /// atomic is only VarTable's interior-mutability requirement).
    initials: VarTable<AtomicI64>,
}

impl PramLocalBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        PramLocalBackend {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            initials: VarTable::new(),
        }
    }

    fn local_read(&self, var: VarId) -> i64 {
        let initial = self.initials.get(var.index()).load(Ordering::Relaxed);
        REPLICAS.with(|r| *r.borrow().get(&(self.instance, var.index())).unwrap_or(&initial))
    }

    fn local_write(&self, var: VarId, value: i64) {
        REPLICAS.with(|r| {
            r.borrow_mut().insert((self.instance, var.index()), value);
        });
    }
}

impl Default for PramLocalBackend {
    fn default() -> Self {
        PramLocalBackend::new()
    }
}

impl Backend for PramLocalBackend {
    fn alloc_words(&self, words: &[i64]) -> VarId {
        VarId(self.initials.alloc_init(words.len(), |k, slot| {
            slot.store(words[k], Ordering::Relaxed);
        }))
    }

    fn read(&self, _data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        Ok(self.local_read(var))
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // No validation ever runs (PRAM needs none): all commit time is publish.
        data.mark_validated();
        // Publish the buffered writes to *this thread's* replica only.
        for (var, value) in data.writes() {
            self.local_write(*var, *value);
        }
        Ok(())
    }

    fn cleanup(&self, _data: &mut TxnData) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Txn;

    #[test]
    fn a_thread_sees_its_own_committed_writes() {
        let b = PramLocalBackend::new();
        let v = b.alloc(3);
        let mut d = TxnData::default();
        b.begin(&mut d);
        let mut tx = Txn::new(&b, &mut d);
        assert_eq!(tx.read_word(v).unwrap(), 3);
        tx.write_word(v, 8).unwrap();
        assert_eq!(tx.read_word(v).unwrap(), 8);
        b.commit(&mut d).unwrap();

        let mut d2 = TxnData::default();
        b.begin(&mut d2);
        assert_eq!(b.read(&mut d2, v).unwrap(), 8);
    }

    #[test]
    fn uncommitted_writes_are_invisible_even_to_the_same_thread() {
        let b = PramLocalBackend::new();
        let v = b.alloc(0);
        let mut d = TxnData::default();
        b.begin(&mut d);
        Txn::new(&b, &mut d).write_word(v, 5).unwrap();
        b.cleanup(&mut d); // aborted

        let mut d2 = TxnData::default();
        b.begin(&mut d2);
        assert_eq!(b.read(&mut d2, v).unwrap(), 0);
    }

    #[test]
    fn other_threads_never_observe_the_writes() {
        let b = PramLocalBackend::new();
        let v = b.alloc(1);
        let mut d = TxnData::default();
        b.begin(&mut d);
        Txn::new(&b, &mut d).write_word(v, 100).unwrap();
        b.commit(&mut d).unwrap();

        std::thread::scope(|s| {
            s.spawn(|| {
                let mut d = TxnData::default();
                b.begin(&mut d);
                assert_eq!(b.read(&mut d, v).unwrap(), 1);
            });
        });
    }

    #[test]
    fn two_instances_do_not_share_thread_local_state() {
        let b1 = PramLocalBackend::new();
        let b2 = PramLocalBackend::new();
        let v1 = b1.alloc(0);
        let v2 = b2.alloc(0);
        let mut d = TxnData::default();
        b1.begin(&mut d);
        Txn::new(&b1, &mut d).write_word(v1, 9).unwrap();
        b1.commit(&mut d).unwrap();

        let mut d2 = TxnData::default();
        b2.begin(&mut d2);
        assert_eq!(b2.read(&mut d2, v2).unwrap(), 0);
    }
}
