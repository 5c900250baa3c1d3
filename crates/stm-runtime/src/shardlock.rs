//! The sharded backend: the point *between* `global-lock` and TL2 on the
//! parallelism axis.
//!
//! Variables hash into a fixed number of **bands** ([`SHARDS`] bands of the
//! var-id hash); each band is one versioned-lock word, a `VLock`, beside
//! the values.  Execution is optimistic and lock-free: a read is the band
//! word's seqlock read of the value, the first read of a band pinning its
//! version for the attempt, and writes buffer.  Commit is obstruction-free's
//! commit-time protocol at band grain: lock the written bands in ascending
//! band order (bounded spin each), check that every read band is still at
//! its pinned version and held by no other committer, install the values
//! and publish the written bands.  Read-only bands are validated, never
//! locked, so a read-only commit only loads band words.
//!
//! The result is serializable (the reads are all current while every
//! written band is locked, a single atomic commit point) and blocking
//! (bounded spin on a busy band, then abort — the same hang-free discipline
//! as the other locking backends).  What it pays is **parallelism**: two
//! transactions over disjoint variables that land in the same hash band
//! still conflict, a 1/[`SHARDS`] false-conflict rate that sits exactly
//! between the global-lock backend (one band) and TL2 (one band per
//! variable) — the spectrum "Distributed Transactional Systems Cannot Be
//! Fast" argues must be measured, not assumed.

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use crate::vlock::VLock;
use std::sync::atomic::{AtomicI64, Ordering};

/// How many hash bands (shards) the backend uses (a power of two, so
/// [`shard_of`] derives its band extraction from it, and at most 32, so a
/// commit's written bands fit one `u32` mask).
pub const SHARDS: usize = 16;

const _: () = assert!(SHARDS.is_power_of_two() && SHARDS <= 32);

/// How long an attempt spins on a busy band before aborting.
pub const SPIN_LIMIT: usize = 50_000;

/// Which hash band a variable belongs to (a multiplicative hash, so
/// consecutive var ids spread across bands instead of striding).
pub fn shard_of(var: VarId) -> usize {
    let band_bits = SHARDS.trailing_zeros();
    ((var.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - band_bits)) as usize
}

/// The bands set in `mask`, ascending.
fn bands(mask: u32) -> impl Iterator<Item = usize> {
    (0..SHARDS).filter(move |&band| mask & 1 << band != 0)
}

/// The sharded backend.
pub struct ShardLockBackend {
    values: VarTable<AtomicI64>,
    bands: [VLock; SHARDS],
    spin_limit: usize,
}

impl ShardLockBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        ShardLockBackend::with_spin_limit(SPIN_LIMIT)
    }

    /// Create a backend with a custom spin budget (used by tests).
    pub fn with_spin_limit(spin_limit: usize) -> Self {
        ShardLockBackend { values: VarTable::new(), bands: Default::default(), spin_limit }
    }

    fn unlock(&self, mask: u32) {
        for band in bands(mask) {
            self.bands[band].unlock();
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
        let band = shard_of(var);
        let slot = self.values.get(var.index());
        let (version, value) = self.bands[band]
            .read(self.spin_limit, || slot.load(Ordering::Acquire))
            .ok_or(AbortReason::LockConflict)?;
        // One consistent version per band per attempt: the first read pins
        // it, and a later read observing a newer band version is a conflict
        // the commit validation would reject anyway — abort early.
        let key = VarId(band);
        match data.read_versions.get(&key) {
            Some(&pinned) if pinned != version => return Err(AbortReason::ReadValidation),
            Some(_) => {}
            None => {
                data.read_versions.insert(key, version);
            }
        }
        Ok(value)
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        let written = data.writes().keys().fold(0u32, |mask, &var| mask | 1 << shard_of(var));
        // Ascending band order: every committer locks in the same order, so
        // two never wait on each other's bands in a cycle.
        for band in bands(written) {
            if !self.bands[band].lock(self.spin_limit) {
                self.unlock(written & ((1 << band) - 1));
                return Err(AbortReason::LockConflict);
            }
        }
        let current = data.read_versions.iter().all(|(key, &pinned)| {
            self.bands[key.index()].is_current(pinned, || written & 1 << key.index() != 0)
        });
        if !current {
            self.unlock(written);
            return Err(AbortReason::ReadValidation);
        }
        data.mark_validated();
        for (&var, &value) in data.writes() {
            self.values.get(var.index()).store(value, Ordering::Release);
        }
        for band in bands(written) {
            self.bands[band].publish();
        }
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
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;
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

    /// Every band word's raw `version << 1 | locked` value.
    fn band_words(b: &ShardLockBackend) -> Vec<u64> {
        b.bands.iter().map(VLock::word).collect()
    }

    /// Allocate fresh variables until one lands in `band`.
    fn var_in_band(b: &ShardLockBackend, band: usize) -> VarId {
        (0..).map(|_| b.alloc(0)).find(|&var| shard_of(var) == band).expect("the hash spreads ids")
    }

    #[test]
    fn read_only_commits_leave_every_band_word_unchanged() {
        let b = ShardLockBackend::new();
        let vars: Vec<VarId> = (0..64).map(|i| b.alloc(i)).collect();
        let mut writer = txn(&b);
        Txn::new(&b, &mut writer).write_word(vars[0], 100).unwrap();
        b.commit(&mut writer).unwrap();

        let before = band_words(&b);
        let mut reader = txn(&b);
        let sum: i64 = vars.iter().map(|&v| b.read(&mut reader, v).unwrap()).sum();
        assert_eq!(sum, 100 + (1..64).sum::<i64>());
        assert!(reader.read_versions.len() > 1, "the reads span several bands");
        b.commit(&mut reader).unwrap();
        assert_eq!(band_words(&b), before, "a read-only commit only loads band words");
    }

    #[test]
    fn a_reader_of_a_band_a_parked_committer_locked_aborts_with_lock_conflict() {
        let b = ShardLockBackend::with_spin_limit(500);
        let var = b.alloc(0);
        let band = &b.bands[shard_of(var)];
        // A committer parked after its lock step.
        assert!(band.lock(1));
        assert_eq!(b.read(&mut txn(&b), var), Err(AbortReason::LockConflict));
        band.unlock();
        assert_eq!(b.read(&mut txn(&b), var), Ok(0));
    }

    #[test]
    fn a_commit_whose_read_band_another_committer_holds_fails_validation_at_once() {
        // With the default budget a lock wait would spin 50 000 times and
        // end in `LockConflict`; validation fails on the first load.
        let b = ShardLockBackend::new();
        let (read, write) = (var_in_band(&b, 0), var_in_band(&b, 1));
        let mut t = txn(&b);
        assert_eq!(b.read(&mut t, read), Ok(0));
        Txn::new(&b, &mut t).write_word(write, 1).unwrap();
        // Another committer holds the read band.
        assert!(b.bands[0].lock(1));
        assert_eq!(b.commit(&mut t), Err(AbortReason::ReadValidation));
        b.bands[0].unlock();
        assert_eq!(band_words(&b), vec![0; SHARDS], "the failed commit released its band");
        assert_eq!(b.read(&mut txn(&b), write), Ok(0), "and installed nothing");
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
