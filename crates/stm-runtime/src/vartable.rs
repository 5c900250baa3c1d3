//! Lock-free growable storage for per-variable backend metadata.
//!
//! Every backend used to keep its per-variable state in a `Vec` behind one
//! reader-writer lock, which put that lock on **every transactional read
//! and write**: even transactions over disjoint variables met in its cache
//! line, and an allocation write-locked the whole table against the data
//! path.  Every backend with shared per-variable state keeps it here —
//! global-lock's values too, which its own lock already orders.  `VarTable`
//! removes that rendezvous:
//!
//! * **Reads are lock-free.**  Storage is a ladder of chunks whose sizes
//!   double (`FIRST_CHUNK`, then `2×`, `4×`, …).  A chunk, once created,
//!   is never moved or freed, so `get` is two shifts, one `OnceLock` load
//!   and an index — no lock, no `Arc` clone, no contention with allocators.
//! * **Allocation only synchronizes allocators with allocators.**  A short
//!   mutex serializes growth (bump the length, materialize at most one new
//!   chunk); the data path never observes it.  This is the sharded
//!   [`crate::Backend::alloc_words`] story: allocating a variable no longer
//!   funnels every concurrent reader through a writer lock.
//!
//! Slots must be `Default` and carry interior mutability (atomics, mutexes)
//! — exactly what backend metadata already looks like.  Initial values are
//! written through [`VarTable::alloc_init`] *before* the new length is
//! published, so a reader holding a valid index never sees an
//! uninitialized slot.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Capacity of chunk 0; chunk `c` holds `FIRST_CHUNK << c` slots.
const FIRST_CHUNK: usize = 1 << 10;

/// Enough doubling chunks to cover any realistic variable count
/// (`FIRST_CHUNK * (2^CHUNKS - 1)` slots ≈ 4×10¹² at 33 chunks).
const CHUNKS: usize = 33;

/// Which chunk a slot index lives in, and its offset within that chunk.
fn locate(index: usize) -> (usize, usize) {
    let slot = index + FIRST_CHUNK;
    let chunk =
        (usize::BITS - 1 - slot.leading_zeros()) as usize - FIRST_CHUNK.trailing_zeros() as usize;
    (chunk, slot - (FIRST_CHUNK << chunk))
}

/// Append-only, chunked, lock-free-to-read storage (see the module docs).
pub struct VarTable<T> {
    chunks: [OnceLock<Box<[T]>>; CHUNKS],
    len: AtomicUsize,
    grow: Mutex<()>,
}

impl<T: Default> VarTable<T> {
    /// An empty table.  No chunk is materialized until the first `alloc`.
    pub fn new() -> Self {
        VarTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// Slots allocated so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` if nothing was allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot at `index` (which must have been allocated).  Lock-free:
    /// two shifts, one atomic load, one bounds-checked index.
    pub fn get(&self, index: usize) -> &T {
        let (chunk, offset) = locate(index);
        &self.chunks[chunk].get().expect("VarTable index out of allocated range")[offset]
    }

    /// Allocate `n` consecutive slots and return the base index.  `init` is
    /// called once per new slot (in order, with its table-relative offset
    /// `0..n`) **before** the new length is published, so concurrent readers
    /// holding valid indices never observe a default-initialized slot.
    pub fn alloc_init(&self, n: usize, init: impl Fn(usize, &T)) -> usize {
        let _guard = self.grow.lock();
        let base = self.len.load(Ordering::Relaxed);
        if n == 0 {
            return base;
        }
        let (last_chunk, _) = locate(base + n - 1);
        for chunk in 0..=last_chunk {
            self.chunks[chunk]
                .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| T::default()).collect());
        }
        for k in 0..n {
            let (chunk, offset) = locate(base + k);
            init(k, &self.chunks[chunk].get().expect("just initialized")[offset]);
        }
        self.len.store(base + n, Ordering::Release);
        base
    }

    /// Allocate `n` default-initialized consecutive slots.
    pub fn alloc(&self, n: usize) -> usize {
        self.alloc_init(n, |_, _| {})
    }
}

impl<T: Default> Default for VarTable<T> {
    fn default() -> Self {
        VarTable::new()
    }
}

impl<T> std::fmt::Debug for VarTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VarTable").field("len", &self.len.load(Ordering::Relaxed)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn locate_covers_the_chunk_ladder_without_gaps() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_CHUNK - 1), (0, FIRST_CHUNK - 1));
        assert_eq!(locate(FIRST_CHUNK), (1, 0));
        assert_eq!(locate(3 * FIRST_CHUNK - 1), (1, 2 * FIRST_CHUNK - 1));
        assert_eq!(locate(3 * FIRST_CHUNK), (2, 0));
        // Every index maps into its chunk's bounds and consecutive indices
        // never skip a slot.
        let mut prev = locate(0);
        for i in 1..100_000 {
            let (c, off) = locate(i);
            assert!(off < FIRST_CHUNK << c, "index {i}");
            assert!(
                (c == prev.0 && off == prev.1 + 1) || (c == prev.0 + 1 && off == 0),
                "index {i} jumped from {prev:?} to {:?}",
                (c, off)
            );
            prev = (c, off);
        }
    }

    #[test]
    fn alloc_init_publishes_initialized_slots() {
        let t: VarTable<AtomicI64> = VarTable::new();
        assert!(t.is_empty());
        let base = t.alloc_init(3, |k, slot| slot.store(10 + k as i64, Ordering::Relaxed));
        assert_eq!(base, 0);
        assert_eq!(t.len(), 3);
        for k in 0..3 {
            assert_eq!(t.get(base + k).load(Ordering::Relaxed), 10 + k as i64);
        }
        let base2 = t.alloc(2);
        assert_eq!(base2, 3);
        assert_eq!(t.get(4).load(Ordering::Relaxed), 0);
    }

    #[test]
    fn growth_crosses_chunk_boundaries_and_references_stay_valid() {
        let t: VarTable<AtomicI64> = VarTable::new();
        let base =
            t.alloc_init(FIRST_CHUNK + 10, |k, slot| slot.store(k as i64, Ordering::Relaxed));
        // Hold a reference into chunk 0 across further growth.
        let early = t.get(base + 7);
        let more =
            t.alloc_init(5 * FIRST_CHUNK, |k, slot| slot.store(-(k as i64), Ordering::Relaxed));
        assert_eq!(early.load(Ordering::Relaxed), 7, "chunk 0 never moved");
        assert_eq!(t.get(base + FIRST_CHUNK + 3).load(Ordering::Relaxed), (FIRST_CHUNK + 3) as i64);
        assert_eq!(
            t.get(more + 5 * FIRST_CHUNK - 1).load(Ordering::Relaxed),
            -((5 * FIRST_CHUNK - 1) as i64)
        );
        assert_eq!(t.len(), 6 * FIRST_CHUNK + 10);
    }

    #[test]
    fn concurrent_allocation_hands_out_disjoint_ranges() {
        let t = std::sync::Arc::new(VarTable::<AtomicI64>::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..200 {
                        let base =
                            t.alloc_init(3, |k, slot| slot.store(1 + k as i64, Ordering::Relaxed));
                        // Readers of our freshly returned range see our values.
                        for k in 0..3 {
                            assert_eq!(t.get(base + k).load(Ordering::Relaxed), 1 + k as i64);
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 200 * 3);
        for i in 0..t.len() {
            assert_ne!(t.get(i).load(Ordering::Relaxed), 0, "every slot was initialized");
        }
    }
}
