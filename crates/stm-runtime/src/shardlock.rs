//! The sharded reader-writer-lock backend: the point *between*
//! `global-lock` and TL2 on the parallelism axis.
//!
//! Variables hash into a fixed number of **shards** ([`SHARDS`] bands of the
//! var-id hash); each shard carries one reader-writer spin lock and one
//! version counter.  Execution is optimistic and lock-free: reads take a
//! seqlock-consistent `(shard version, value)` snapshot and writes buffer.
//! Commit is **sorted two-phase acquisition**: the touched shards are locked
//! in ascending shard order — write locks for written shards, read locks for
//! read-only shards — so two committers can never deadlock, then every
//! recorded shard version is re-validated and the writes are installed.
//!
//! The result is serializable (commit-time validation under all the locks is
//! a single atomic commit point) and blocking (bounded spin on busy shard
//! locks, then abort — the same hang-free discipline as the other locking
//! backends).  What it pays is **parallelism**: two transactions over
//! disjoint variables that land in the same hash band still conflict, a
//! 1/[`SHARDS`] false-conflict rate that sits exactly between the
//! global-lock backend (one band) and TL2 (one band per variable) — the
//! spectrum "Distributed Transactional Systems Cannot Be Fast" argues must
//! be measured, not assumed.

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// How many hash bands (shards) the backend uses (must be a power of two:
/// [`shard_of`] derives its band extraction from it).
pub const SHARDS: usize = 16;

const _: () = assert!(SHARDS.is_power_of_two());

/// How long an attempt spins on a busy shard lock before aborting.
pub const SPIN_LIMIT: usize = 50_000;

/// Writer bit of a shard's lock state; the low bits count readers.
const WRITER: u64 = 1 << 63;

struct Shard {
    /// Reader-writer spin lock: [`WRITER`] bit + reader count.
    state: AtomicU64,
    /// Bumped once per committed write to the shard (while write-locked).
    version: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard { state: AtomicU64::new(0), version: AtomicU64::new(0) }
    }

    fn try_read_lock(&self, spin_limit: usize) -> bool {
        for _ in 0..spin_limit {
            let s = self.state.load(Ordering::Acquire);
            if s & WRITER == 0
                && self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    fn try_write_lock(&self, spin_limit: usize) -> bool {
        for _ in 0..spin_limit {
            if self
                .state
                .compare_exchange_weak(0, WRITER, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    fn unlock(&self, write: bool) {
        if write {
            self.state.store(0, Ordering::Release);
        } else {
            self.state.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Which hash band a variable belongs to (a multiplicative hash, so
/// consecutive var ids spread across bands instead of striding).
pub fn shard_of(var: VarId) -> usize {
    let band_bits = SHARDS.trailing_zeros();
    ((var.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - band_bits)) as usize
}

/// The sharded reader-writer-lock backend.
pub struct ShardLockBackend {
    values: VarTable<AtomicI64>,
    shards: Vec<Shard>,
    spin_limit: usize,
}

impl ShardLockBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        ShardLockBackend::with_spin_limit(SPIN_LIMIT)
    }

    /// Create a backend with a custom spin budget (used by tests).
    pub fn with_spin_limit(spin_limit: usize) -> Self {
        ShardLockBackend {
            values: VarTable::new(),
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            spin_limit,
        }
    }

    fn release(&self, acquired: &[(usize, bool)]) {
        for &(shard, write) in acquired {
            self.shards[shard].unlock(write);
        }
    }
}

impl Default for ShardLockBackend {
    fn default() -> Self {
        ShardLockBackend::new()
    }
}

impl Backend for ShardLockBackend {
    fn alloc_words(&self, initials: &[i64]) -> VarId {
        VarId(self.values.alloc_init(initials.len(), |k, slot| {
            slot.store(initials[k], Ordering::Relaxed);
        }))
    }

    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        let shard = &self.shards[shard_of(var)];
        for _ in 0..self.spin_limit {
            if shard.state.load(Ordering::Acquire) & WRITER != 0 {
                std::hint::spin_loop();
                continue;
            }
            let v1 = shard.version.load(Ordering::Acquire);
            let value = self.values.get(var.index()).load(Ordering::Acquire);
            let v2 = shard.version.load(Ordering::Acquire);
            if v1 == v2 && shard.state.load(Ordering::Acquire) & WRITER == 0 {
                // One consistent version per shard per attempt: the first
                // read pins it, and a later read observing a newer shard
                // version is a conflict the commit validation would reject
                // anyway — abort early.
                let key = VarId(shard_of(var));
                match data.read_versions.get(&key) {
                    Some(&pinned) if pinned != v1 => return Err(AbortReason::ReadValidation),
                    Some(_) => {}
                    None => {
                        data.read_versions.insert(key, v1);
                    }
                }
                return Ok(value);
            }
            std::hint::spin_loop();
        }
        Err(AbortReason::LockConflict)
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // Writes were buffered; the locks are taken here (sorted two-phase).
        let write_shards: BTreeSet<usize> = data.writes().keys().map(|&v| shard_of(v)).collect();
        let touched: BTreeSet<usize> = data
            .read_versions
            .keys()
            .map(|k| k.index())
            .chain(write_shards.iter().copied())
            .collect();
        // Sorted two-phase acquisition: ascending shard order, write locks
        // for written shards, read locks otherwise.  Every committer sorts
        // identically, so the acquisition order is deadlock-free.
        let mut acquired: Vec<(usize, bool)> = Vec::with_capacity(touched.len());
        for &shard in &touched {
            let write = write_shards.contains(&shard);
            let ok = if write {
                self.shards[shard].try_write_lock(self.spin_limit)
            } else {
                self.shards[shard].try_read_lock(self.spin_limit)
            };
            if !ok {
                self.release(&acquired);
                return Err(AbortReason::LockConflict);
            }
            acquired.push((shard, write));
        }
        // Validate: every shard read during execution is still at the
        // version the attempt pinned (no commit slipped in between).
        for (key, &pinned) in &data.read_versions {
            if self.shards[key.index()].version.load(Ordering::Acquire) != pinned {
                self.release(&acquired);
                return Err(AbortReason::ReadValidation);
            }
        }
        data.mark_validated();
        // Install under all the locks (the single atomic commit point).
        if !data.writes().is_empty() {
            for (&var, &value) in data.writes() {
                self.values.get(var.index()).store(value, Ordering::Release);
            }
            for &shard in &write_shards {
                self.shards[shard].version.fetch_add(1, Ordering::AcqRel);
            }
        }
        self.release(&acquired);
        Ok(())
    }

    fn cleanup(&self, _data: &mut TxnData) {
        // Nothing persistent: writes are buffered and commit-time locks are
        // scoped to `commit` itself.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Txn;
    use std::sync::Arc;

    fn txn(backend: &ShardLockBackend) -> TxnData {
        let mut data = TxnData::default();
        backend.begin(&mut data);
        data
    }

    #[test]
    fn shards_band_the_id_space() {
        let seen: BTreeSet<usize> = (0..256).map(|i| shard_of(VarId(i))).collect();
        assert!(seen.len() > 1, "the hash must spread ids across bands");
        assert!(seen.iter().all(|&s| s < SHARDS));
    }

    #[test]
    fn read_write_round_trip_and_validation() {
        let b = ShardLockBackend::new();
        let v = b.alloc(5);
        let mut t = txn(&b);
        let mut tx = Txn::new(&b, &mut t);
        assert_eq!(tx.read_word(v).unwrap(), 5);
        tx.write_word(v, 6).unwrap();
        assert_eq!(tx.read_word(v).unwrap(), 6, "read-your-own-writes");
        b.commit(&mut t).unwrap();
        let mut check = txn(&b);
        assert_eq!(b.read(&mut check, v).unwrap(), 6);
    }

    #[test]
    fn stale_shard_versions_fail_commit_validation() {
        let b = ShardLockBackend::new();
        let v = b.alloc(0);
        let mut t1 = txn(&b);
        assert_eq!(b.read(&mut t1, v).unwrap(), 0);

        let mut t2 = txn(&b);
        Txn::new(&b, &mut t2).write_word(v, 9).unwrap();
        b.commit(&mut t2).unwrap();

        // t1's pinned shard version is stale now.
        let other = b.alloc(0);
        Txn::new(&b, &mut t1).write_word(other, 1).unwrap();
        assert_eq!(b.commit(&mut t1), Err(AbortReason::ReadValidation));
        b.cleanup(&mut t1);
        // The aborted commit released every lock: a fresh commit goes through.
        let mut t3 = txn(&b);
        Txn::new(&b, &mut t3).write_word(other, 2).unwrap();
        assert!(b.commit(&mut t3).is_ok());
    }

    #[test]
    fn same_band_disjoint_vars_still_conflict() {
        // Find two distinct vars in the same shard: the sacrificed
        // parallelism, observable.
        let b = ShardLockBackend::new();
        let vars: Vec<VarId> = (0..64).map(|_| b.alloc(0)).collect();
        let (a, c) = {
            let mut found = None;
            'outer: for (i, &x) in vars.iter().enumerate() {
                for &y in &vars[i + 1..] {
                    if shard_of(x) == shard_of(y) {
                        found = Some((x, y));
                        break 'outer;
                    }
                }
            }
            found.expect("64 vars over 16 bands must collide")
        };
        // A reader of `a` pins the band's version; a commit writing `c`
        // (disjoint var, same band) invalidates it.
        let mut reader = txn(&b);
        b.read(&mut reader, a).unwrap();
        let mut writer = txn(&b);
        Txn::new(&b, &mut writer).write_word(c, 1).unwrap();
        b.commit(&mut writer).unwrap();
        assert_eq!(
            b.commit(&mut reader),
            Err(AbortReason::ReadValidation),
            "false sharing by design"
        );
    }

    #[test]
    fn sorted_two_phase_acquisition_never_deadlocks_under_stress() {
        // 8 threads, seeded var choices spanning every band, each
        // transaction touching several shards in random order.  Sorted
        // acquisition must let every thread finish (a deadlock would hang
        // the test; bounded spins turn livelock into aborts + retries).
        let b = Arc::new(ShardLockBackend::new());
        let vars: Vec<VarId> = (0..64).map(|_| b.alloc(0)).collect();
        let committed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let b = Arc::clone(&b);
                let vars = vars.clone();
                let committed = Arc::clone(&committed);
                scope.spawn(move || {
                    let mut state = thread.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut next = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for _ in 0..300 {
                        loop {
                            let mut data = TxnData::default();
                            b.begin(&mut data);
                            let mut tx = Txn::new(&*b, &mut data);
                            let ok = (0..4).try_for_each(|_| {
                                let var = vars[(next() % vars.len() as u64) as usize];
                                let x = tx.read_word(var)?;
                                tx.write_word(var, x + 1)
                            });
                            let done = ok.is_ok() && b.commit(&mut data).is_ok();
                            if !done {
                                b.cleanup(&mut data);
                                continue;
                            }
                            committed.fetch_add(4, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        // Serializability check: the sum of all counters equals the number
        // of committed increments (no lost updates).
        let mut data = TxnData::default();
        b.begin(&mut data);
        let total: i64 = vars.iter().map(|&v| b.read(&mut data, v).unwrap()).sum();
        assert_eq!(total as u64, committed.load(Ordering::Relaxed));
        assert_eq!(total, 8 * 300 * 4);
    }
}
