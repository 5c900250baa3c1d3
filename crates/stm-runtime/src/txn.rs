//! Per-transaction state and the handle user code sees inside a transaction.

use crate::backend::{Backend, VarId};
use crate::tvar::TVar;
use crate::value::TxnValue;
use std::fmt;

/// A sorted-vector map from [`VarId`] to a per-variable value — the hot-path
/// replacement for the `BTreeMap`s transaction attempts used to allocate.
///
/// Transactions touch a handful of variables, so a sorted `Vec` beats a tree:
/// lookups are a binary search over one contiguous allocation, iteration is
/// cache-linear and **`clear` retains capacity**, which is the point — one
/// [`TxnData`] now lives across every attempt of a retry loop, so after the
/// first attempt the per-attempt allocation count drops to zero.
///
/// The API mirrors the `BTreeMap` subset the backends use (`get` / `insert` /
/// `keys` / `values` / sorted iteration), so call sites read the same.
#[derive(Debug, Default, Clone)]
pub struct VarMap<V> {
    entries: Vec<(VarId, V)>,
}

impl<V> VarMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        VarMap { entries: Vec::new() }
    }

    fn position(&self, var: VarId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&var, |&(v, _)| v)
    }

    /// The value recorded for `var`, if any.
    pub fn get(&self, var: &VarId) -> Option<&V> {
        self.position(*var).ok().map(|i| &self.entries[i].1)
    }

    /// `true` if `var` has an entry.
    pub fn contains_key(&self, var: &VarId) -> bool {
        self.position(*var).is_ok()
    }

    /// Insert or replace, returning the previous value if any.
    pub fn insert(&mut self, var: VarId, value: V) -> Option<V> {
        match self.position(var) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (var, value));
                None
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry, **keeping the allocation** for the next attempt.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entries in ascending [`VarId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &V)> {
        self.entries.iter().map(|(v, x)| (v, x))
    }

    /// The keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &VarId> {
        self.entries.iter().map(|(v, _)| v)
    }

    /// The values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, x)| x)
    }

    /// The key at sorted position `i` (for index-based loops that also need
    /// to mutate sibling [`TxnData`] fields while walking the map).
    pub fn key_at(&self, i: usize) -> VarId {
        self.entries[i].0
    }
}

impl<'a, V> IntoIterator for &'a VarMap<V> {
    type Item = (&'a VarId, &'a V);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (VarId, V)>, fn(&'a (VarId, V)) -> (&'a VarId, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(v, x)| (v, x))
    }
}

/// Why a transaction attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmError {
    /// The attempt must be abandoned (conflict, failed validation, busy lock on a
    /// non-blocking backend, or an explicit user abort).  The caller may retry.
    Aborted,
}

impl fmt::Display for StmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("transaction aborted")
    }
}

impl std::error::Error for StmError {}

/// Why an attempt aborted.  Every fallible [`Backend`] method returns its
/// reason as the `Err`, and the front end records it in the per-reason
/// counters of [`crate::StmStats`]; [`StmError`] stays a single variant
/// (callers only need "retryable").  The taxonomy shows *which* defence each
/// backend mounted: validation aborts are consistency being defended,
/// lock/band conflicts are parallelism being rationed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Commit-time read-set validation failed (a concurrent commit changed
    /// something this attempt read).
    ReadValidation,
    /// A lock, ownership record or shard band was contended past the spin
    /// budget (blocking and obstruction-free conflict aborts).
    LockConflict,
    /// A snapshot-isolation first-committer-wins check lost (mvcc).
    FirstCommitterWins,
    /// The transaction body aborted by itself (user code), not because a
    /// backend read or write hook failed.
    Explicit,
}

impl AbortReason {
    /// Every reason, in reporting order.
    pub const ALL: [AbortReason; 4] = [
        AbortReason::ReadValidation,
        AbortReason::LockConflict,
        AbortReason::FirstCommitterWins,
        AbortReason::Explicit,
    ];

    /// Stable kebab-case name (used as a metric label and JSON key).
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::ReadValidation => "read-validation",
            AbortReason::LockConflict => "lock-conflict",
            AbortReason::FirstCommitterWins => "first-committer-wins",
            AbortReason::Explicit => "explicit",
        }
    }

    /// Index into [`AbortReason::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        match self {
            AbortReason::ReadValidation => 0,
            AbortReason::LockConflict => 1,
            AbortReason::FirstCommitterWins => 2,
            AbortReason::Explicit => 3,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The record of one transaction attempt.
///
/// The front end owns what the attempt records about itself: the values it
/// read (each variable's first observed value) and the values it wrote.
/// Both are private to this module, so no backend can alter them; backends
/// and the recorder read them through [`TxnData::reads`] and
/// [`TxnData::writes`].  The public fields are the backends' own
/// per-attempt protocol state.
#[derive(Debug, Default)]
pub struct TxnData {
    /// Snapshot timestamp (read of the global clock at begin), where applicable.
    pub start_ts: u64,
    /// Read set: variable → version observed at first read.
    pub read_versions: VarMap<u64>,
    /// Variable → value to install at commit (also the read-your-own-writes
    /// source).
    write_set: VarMap<i64>,
    /// Variable → value the attempt's first read of it observed.
    read_cache: VarMap<i64>,
    /// Locks currently held (released by commit or `cleanup`).
    pub held_locks: Vec<VarId>,
    /// Set by the front-end when phase-latency telemetry is on.  Backends
    /// that split commit into validate-then-publish stamp
    /// [`TxnData::validated_at`] when this is set — one never-taken branch
    /// on the commit path otherwise.
    pub timing: bool,
    /// The instant the backend finished validation and began publishing
    /// (only stamped when [`TxnData::timing`] is set).
    pub validated_at: Option<std::time::Instant>,
}

impl TxnData {
    /// Reset the state for a fresh attempt (the front end does this before
    /// [`Backend::begin`]).
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.start_ts = 0;
        self.read_versions.clear();
        self.write_set.clear();
        self.read_cache.clear();
        self.held_locks.clear();
        self.timing = false;
        self.validated_at = None;
    }

    /// The buffered writes, in ascending [`VarId`] order: what commit
    /// installs.
    #[inline]
    pub fn writes(&self) -> &VarMap<i64> {
        &self.write_set
    }

    /// The external reads: each variable read before this attempt wrote it,
    /// with the first value observed.
    #[inline]
    pub fn reads(&self) -> &VarMap<i64> {
        &self.read_cache
    }

    /// Stamp the validate→publish boundary if phase timing is on (one
    /// branch; never taken with metrics off).
    pub fn mark_validated(&mut self) {
        if self.timing {
            self.validated_at = Some(std::time::Instant::now());
        }
    }
}

/// The handle passed to transaction closures.
pub struct Txn<'a> {
    backend: &'a dyn Backend,
    data: &'a mut TxnData,
    /// Why the last failed backend read or write hook aborted, if one did.
    failed: Option<AbortReason>,
}

impl<'a> Txn<'a> {
    /// Create a transaction handle (used by [`crate::Stm`]).
    #[inline]
    pub fn new(backend: &'a dyn Backend, data: &'a mut TxnData) -> Self {
        Txn { backend, data, failed: None }
    }

    /// Why a body that returned `Err` aborted: the reason of the last failed
    /// backend hook, or [`AbortReason::Explicit`] if none failed.
    pub(crate) fn abort_reason(&self) -> AbortReason {
        self.failed.unwrap_or(AbortReason::Explicit)
    }

    fn failing(&mut self, reason: AbortReason) -> StmError {
        self.failed = Some(reason);
        StmError::Aborted
    }

    /// Read one word: the attempt's own write, else its first read, else
    /// the backend (whose answer is then kept as the first read).
    #[inline]
    pub(crate) fn read_word(&mut self, var: VarId) -> Result<i64, StmError> {
        if let Some(&v) = self.data.write_set.get(&var).or_else(|| self.data.read_cache.get(&var)) {
            return Ok(v);
        }
        match self.backend.read(self.data, var) {
            Ok(v) => {
                self.data.read_cache.insert(var, v);
                Ok(v)
            }
            Err(reason) => Err(self.failing(reason)),
        }
    }

    /// Write one word: the backend's encounter-time hook, then the buffer.
    #[inline]
    pub(crate) fn write_word(&mut self, var: VarId, value: i64) -> Result<(), StmError> {
        if let Err(reason) = self.backend.write(self.data, var) {
            return Err(self.failing(reason));
        }
        self.data.write_set.insert(var, value);
        Ok(())
    }

    /// Read a typed transactional variable.
    ///
    /// Multi-word values are decoded word-by-word from consecutive
    /// [`VarId`] slots within this transaction, so the value is observed
    /// atomically (all words from the same snapshot or the attempt aborts).
    pub fn read<T: TxnValue>(&mut self, var: TVar<T>) -> Result<T, StmError> {
        let mut k = 0usize;
        T::decode(&mut || {
            let word = self.read_word(var.word(k))?;
            k += 1;
            Ok(word)
        })
    }

    /// Write a typed transactional variable (buffered until commit).
    pub fn write<T: TxnValue>(&mut self, var: TVar<T>, value: T) -> Result<(), StmError> {
        let mut k = 0usize;
        value.encode(&mut |word| {
            self.write_word(var.word(k), word)?;
            k += 1;
            Ok(())
        })
    }

    /// Read–modify–write helper.
    pub fn update<T: TxnValue + Clone>(
        &mut self,
        var: TVar<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, StmError> {
        let old = self.read(var)?;
        let new = f(old);
        self.write(var, new.clone())?;
        Ok(new)
    }

    /// Abort the current attempt explicitly.
    pub fn abort<T>(&mut self) -> Result<T, StmError> {
        Err(StmError::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_data_reset_clears_everything() {
        let mut d = TxnData { start_ts: 9, ..TxnData::default() };
        d.read_versions.insert(VarId(0), 1);
        d.write_set.insert(VarId(0), 5);
        d.read_cache.insert(VarId(1), 2);
        d.held_locks.push(VarId(0));
        d.timing = true;
        d.mark_validated();
        assert!(d.validated_at.is_some());
        d.reset();
        assert_eq!(d.start_ts, 0);
        assert!(d.read_versions.is_empty());
        assert!(d.write_set.is_empty());
        assert!(d.read_cache.is_empty());
        assert!(d.held_locks.is_empty());
        assert!(!d.timing);
        assert!(d.validated_at.is_none());
    }

    #[test]
    fn var_map_behaves_like_a_sorted_map() {
        let mut m: VarMap<i64> = VarMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(VarId(5), 50), None);
        assert_eq!(m.insert(VarId(1), 10), None);
        assert_eq!(m.insert(VarId(3), 30), None);
        assert_eq!(m.insert(VarId(3), 31), Some(30), "insert replaces");
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&VarId(1)), Some(&10));
        assert_eq!(m.get(&VarId(2)), None);
        assert!(m.contains_key(&VarId(5)));
        // Iteration is ascending by VarId — the property the sorted-order
        // lock acquisition in the backends and the recorder both rely on.
        let pairs: Vec<(VarId, i64)> = m.iter().map(|(v, x)| (*v, *x)).collect();
        assert_eq!(pairs, vec![(VarId(1), 10), (VarId(3), 31), (VarId(5), 50)]);
        let keys: Vec<VarId> = m.keys().copied().collect();
        assert_eq!(keys, vec![VarId(1), VarId(3), VarId(5)]);
        assert_eq!(m.key_at(1), VarId(3));
        let values: Vec<i64> = m.values().copied().collect();
        assert_eq!(values, vec![10, 31, 50]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&VarId(1)), None);
    }

    #[test]
    fn abort_reason_names_and_indices_are_stable() {
        for (i, reason) in AbortReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.index(), i);
            assert_eq!(reason.to_string(), reason.name());
        }
        assert_eq!(AbortReason::FirstCommitterWins.name(), "first-committer-wins");
        // Timing off → mark_validated is the never-taken branch.
        let mut d = TxnData::default();
        d.mark_validated();
        assert!(d.validated_at.is_none());
    }

    #[test]
    fn stm_error_displays() {
        assert_eq!(StmError::Aborted.to_string(), "transaction aborted");
    }
}
