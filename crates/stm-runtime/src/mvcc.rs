//! The multi-version snapshot-isolation backend: the corner that gives up
//! **serializability** — and nothing an SI audit can see.
//!
//! Every STM word keeps a bounded chain of timestamped committed versions.
//! A transaction takes a **begin-timestamp snapshot** (the commit clock at
//! `begin`) and every read returns the newest version no newer than that
//! snapshot — reads never abort and never tear, even across the words of a
//! multi-word [`crate::TVar`]; a read waits only while a committer holds
//! that variable's chain.  Writes buffer until
//! commit, where **first-committer-wins** write-write conflict detection
//! runs: if any written variable gained a version newer than the snapshot,
//! the transaction aborts.  That is textbook snapshot isolation: lost
//! updates are impossible, long forks are impossible, but **write skew is
//! admitted** — two transactions reading the same snapshot and writing
//! disjoint variables both commit, producing histories that pass every SI
//! audit and fail the serializability audit.  This is the backend that
//! separates the repo's SI and SER verdicts on a live run.
//!
//! Mechanics:
//!
//! * **One commit clock** — a committer acquires the per-variable chain
//!   locks of its write set in sorted order (deadlock-free), runs the
//!   first-committer-wins check, draws its ticket from the commit clock,
//!   installs its versions and only then drops the chain locks.  A snapshot
//!   is the clock's value, so it may include a ticket whose versions are not
//!   installed yet — but that committer held the ticket's chains from before
//!   the draw until after the install, and `read` takes the chain lock, so a
//!   reader reaches those chains only after the install.  A snapshot
//!   therefore never observes a half-installed commit, and a committer that
//!   parks mid-commit holds up only the transactions that touch its chains.
//!   The ticket is in the clock before `commit` returns (read-your-writes
//!   across a session's transactions).
//! * **Striped snapshot registry** — `begin` joins and commit/abort leave a
//!   registry of active snapshot timestamps, striped by thread so
//!   registration is an uncontended per-stripe lock instead of one global
//!   mutex on every transaction.  GC reads the clock *first* and the stripe
//!   minima second; `begin` re-validates the clock after publishing its
//!   stripe minimum, so a concurrent GC either sees the registration or used
//!   an older (safe) clock bound.
//! * **Version-chain GC** — each commit prunes the chains it touched down to
//!   the newest version visible to the **oldest active snapshot**.  A
//!   long-lived reader pins exactly one old version per chain; everything
//!   older is collected immediately, and once the reader ends the chains
//!   collapse.

use crate::backend::{Backend, VarId};
use crate::txn::{AbortReason, TxnData};
use crate::vartable::VarTable;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel pushed into [`TxnData::held_locks`] while the attempt's snapshot
/// is registered (the backend has no per-variable locks to track there).
const SNAPSHOT: VarId = VarId(usize::MAX);

/// How many stripes the snapshot registry uses (threads map onto stripes via
/// [`tm_telemetry::thread_index`]).
const SNAP_STRIPES: usize = 16;

/// One committed version of one variable.
#[derive(Debug, Clone, Copy)]
struct Version {
    /// Commit timestamp (ticket) that installed this version.
    ts: u64,
    /// The value.
    value: i64,
}

/// One variable: its committed version chain, oldest first.
#[derive(Default)]
struct Chain {
    versions: Mutex<Vec<Version>>,
}

/// One stripe of the active-snapshot registry: the timestamps registered by
/// the threads that hash here, plus a lock-free-readable minimum.
struct SnapStripe {
    counts: Mutex<BTreeMap<u64, usize>>,
    /// Smallest registered timestamp, `u64::MAX` when the stripe is empty.
    /// Published `SeqCst` so the GC-vs-begin ordering argument below holds.
    min: AtomicU64,
}

impl SnapStripe {
    fn new() -> Self {
        SnapStripe { counts: Mutex::new(BTreeMap::new()), min: AtomicU64::new(u64::MAX) }
    }

    fn publish_min(&self, counts: &BTreeMap<u64, usize>) {
        self.min.store(counts.keys().next().copied().unwrap_or(u64::MAX), Ordering::SeqCst);
    }

    fn register(&self, ts: u64) {
        let mut counts = self.counts.lock();
        *counts.entry(ts).or_insert(0) += 1;
        self.publish_min(&counts);
    }

    fn deregister(&self, ts: u64) {
        let mut counts = self.counts.lock();
        if let Some(count) = counts.get_mut(&ts) {
            *count -= 1;
            if *count == 0 {
                counts.remove(&ts);
            }
        }
        self.publish_min(&counts);
    }
}

/// The multi-version snapshot-isolation backend.
pub struct MvccBackend {
    chains: VarTable<Chain>,
    /// The last commit ticket drawn; begin snapshots read this.  Drawn
    /// under the committer's chain locks (see the module docs).
    clock: AtomicU64,
    /// Active snapshot timestamps, striped by registering thread.
    snap_stripes: Box<[SnapStripe]>,
}

impl MvccBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        MvccBackend {
            chains: VarTable::new(),
            clock: AtomicU64::new(0),
            snap_stripes: (0..SNAP_STRIPES).map(|_| SnapStripe::new()).collect(),
        }
    }

    fn stripe(&self) -> &SnapStripe {
        &self.snap_stripes[tm_telemetry::thread_index() % SNAP_STRIPES]
    }

    /// Deregister the attempt's snapshot (idempotent within the attempt:
    /// guarded by the [`SNAPSHOT`] sentinel, so the commit-success path and
    /// the cleanup path never double-release).
    fn end_snapshot(&self, data: &mut TxnData) {
        if data.held_locks.last() != Some(&SNAPSHOT) {
            return;
        }
        data.held_locks.pop();
        // begin/commit/cleanup run on one thread, so this is the stripe the
        // snapshot was registered in.
        self.stripe().deregister(data.start_ts);
    }

    /// The oldest snapshot any live transaction still reads from; versions
    /// strictly older than the newest one visible to it are garbage.
    ///
    /// The clock is read **before** the stripe minima: if this scan raced a
    /// `begin` and missed its registration, the `SeqCst` order puts our
    /// clock read before that begin's post-registration re-read, so the
    /// bound we return is at most the timestamp that begin settled on.
    fn oldest_active_snapshot(&self) -> u64 {
        let clock = self.clock.load(Ordering::SeqCst);
        let registered = self
            .snap_stripes
            .iter()
            .map(|s| s.min.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        clock.min(registered)
    }

    /// How many snapshots are currently registered (diagnostics and tests).
    pub fn active_snapshots(&self) -> usize {
        self.snap_stripes.iter().map(|s| s.counts.lock().values().sum::<usize>()).sum()
    }

    /// How many versions `var`'s chain currently holds (diagnostics and GC
    /// tests).
    pub fn chain_len(&self, var: VarId) -> usize {
        self.chains.get(var.index()).versions.lock().len()
    }
}

/// Drop every version strictly older than the newest one visible to
/// `oldest_snapshot` (that one must stay: it is what the oldest reader sees).
fn gc_chain(versions: &mut Vec<Version>, oldest_snapshot: u64) {
    let visible = versions.partition_point(|v| v.ts <= oldest_snapshot);
    if visible > 1 {
        versions.drain(..visible - 1);
    }
}

impl Default for MvccBackend {
    fn default() -> Self {
        MvccBackend::new()
    }
}

impl Backend for MvccBackend {
    fn alloc_words(&self, initials: &[i64]) -> VarId {
        VarId(self.chains.alloc_init(initials.len(), |k, chain| {
            chain.versions.lock().push(Version { ts: 0, value: initials[k] });
        }))
    }

    fn begin(&self, data: &mut TxnData) {
        let stripe = self.stripe();
        // Register, then re-validate the clock: a concurrent GC that missed
        // the registration must have read the clock before our re-read
        // (SeqCst), so its pruning bound was ≤ the timestamp we keep.  If the
        // clock moved we re-register at the newer value — nothing has been
        // read yet, so switching snapshots is free.
        loop {
            let ts = self.clock.load(Ordering::SeqCst);
            stripe.register(ts);
            if self.clock.load(Ordering::SeqCst) == ts {
                data.start_ts = ts;
                break;
            }
            stripe.deregister(ts);
        }
        data.held_locks.push(SNAPSHOT);
    }

    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
        // The chain lock waits out a committer that holds this chain, so
        // every ticket in the snapshot is installed here by now.
        let versions = self.chains.get(var.index()).versions.lock();
        // The newest version no newer than the snapshot.  GC keeps the
        // newest version visible to the oldest active snapshot, and ours is
        // registered, so this always exists.
        let idx = versions.partition_point(|v| v.ts <= data.start_ts);
        Ok(versions[idx - 1].value)
    }

    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
        // Writes were buffered; conflicts are detected here
        // (first-committer-wins).
        if data.writes().is_empty() {
            // Read-only transactions commit for free: their snapshot was
            // consistent by construction.
            self.end_snapshot(data);
            return Ok(());
        }
        // Lock the written chains in ascending VarId order (the write set is
        // sorted) — every committer sorts the same way, so no deadlock.
        let mut guards: Vec<_> =
            data.writes().keys().map(|v| self.chains.get(v.index()).versions.lock()).collect();
        // First-committer-wins: any version newer than our snapshot on a
        // variable we write means someone committed first.
        for guard in &guards {
            let newest = guard.last().expect("chains always hold at least one version");
            if newest.ts > data.start_ts {
                return Err(AbortReason::FirstCommitterWins); // guards drop; cleanup ends the snapshot
            }
        }
        data.mark_validated();
        // The ticket is drawn under the guards and installed before they
        // drop: a snapshot that includes it reads these chains only after
        // the install.
        let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let oldest = self.oldest_active_snapshot();
        for (guard, &value) in guards.iter_mut().zip(data.writes().values()) {
            guard.push(Version { ts: commit_ts, value });
            gc_chain(guard, oldest);
        }
        drop(guards);
        self.end_snapshot(data);
        Ok(())
    }

    fn cleanup(&self, data: &mut TxnData) {
        self.end_snapshot(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Txn;

    fn txn(backend: &MvccBackend) -> TxnData {
        let mut data = TxnData::default();
        backend.begin(&mut data);
        data
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let b = MvccBackend::new();
        let v = b.alloc(1);
        let mut reader = txn(&b);
        assert_eq!(b.read(&mut reader, v).unwrap(), 1);

        // A writer commits a new version mid-flight.
        let mut writer = txn(&b);
        Txn::new(&b, &mut writer).write_word(v, 2).unwrap();
        b.commit(&mut writer).unwrap();

        // The reader's snapshot is stable when read again from the backend.
        assert_eq!(b.read(&mut reader, v).unwrap(), 1);
        assert!(b.commit(&mut reader).is_ok(), "read-only snapshots always commit");

        // A fresh snapshot sees the new version.
        let mut after = txn(&b);
        assert_eq!(b.read(&mut after, v).unwrap(), 2);
        b.cleanup(&mut after);
    }

    #[test]
    fn first_committer_wins_on_write_write_conflicts() {
        let b = MvccBackend::new();
        let v = b.alloc(0);
        let mut t1 = txn(&b);
        let mut t2 = txn(&b);
        b.read(&mut t1, v).unwrap();
        b.read(&mut t2, v).unwrap();
        Txn::new(&b, &mut t1).write_word(v, 10).unwrap();
        Txn::new(&b, &mut t2).write_word(v, 20).unwrap();
        assert!(b.commit(&mut t1).is_ok(), "first committer wins");
        assert_eq!(
            b.commit(&mut t2),
            Err(AbortReason::FirstCommitterWins),
            "second conflicting commit loses"
        );
        b.cleanup(&mut t2);
        let mut check = txn(&b);
        assert_eq!(b.read(&mut check, v).unwrap(), 10);
        b.cleanup(&mut check);
    }

    #[test]
    fn write_skew_is_admitted_by_design() {
        // T1 reads (x, y), writes x; T2 reads (x, y), writes y — same
        // snapshot, disjoint write sets: both commit.  SI, not SER.
        let b = MvccBackend::new();
        let x = b.alloc(0);
        let y = b.alloc(0);
        let mut t1 = txn(&b);
        let mut t2 = txn(&b);
        assert_eq!(b.read(&mut t1, x).unwrap(), 0);
        assert_eq!(b.read(&mut t1, y).unwrap(), 0);
        assert_eq!(b.read(&mut t2, x).unwrap(), 0);
        assert_eq!(b.read(&mut t2, y).unwrap(), 0);
        Txn::new(&b, &mut t1).write_word(x, 7).unwrap();
        Txn::new(&b, &mut t2).write_word(y, 8).unwrap();
        assert!(b.commit(&mut t1).is_ok());
        assert!(b.commit(&mut t2).is_ok(), "disjoint writes from one snapshot both commit");
        let mut check = txn(&b);
        assert_eq!(b.read(&mut check, x).unwrap(), 7);
        assert_eq!(b.read(&mut check, y).unwrap(), 8);
        b.cleanup(&mut check);
    }

    #[test]
    fn version_chains_are_gced_to_the_oldest_active_snapshot() {
        let b = MvccBackend::new();
        let v = b.alloc(0);
        // 50 commits before the long-lived reader exists.
        for i in 1..=50 {
            let mut w = txn(&b);
            Txn::new(&b, &mut w).write_word(v, i).unwrap();
            b.commit(&mut w).unwrap();
        }
        let mut reader = txn(&b);
        assert_eq!(b.read(&mut reader, v).unwrap(), 50);

        // 50 more commits while the reader pins its snapshot.
        for i in 51..=100 {
            let mut w = txn(&b);
            Txn::new(&b, &mut w).write_word(v, i).unwrap();
            b.commit(&mut w).unwrap();
        }
        // Everything older than the pinned version was collected; the pin
        // plus the versions newer than it remain.
        let pinned = b.chain_len(v);
        assert!(pinned <= 51, "chain holds the pin + newer versions, got {pinned}");
        assert!(pinned >= 51, "nothing newer than the pin may be collected, got {pinned}");
        // The reader still sees its snapshot, consistently.
        assert_eq!(b.read(&mut reader, v).unwrap(), 50);
        b.cleanup(&mut reader);

        // Once the reader ends, the next commit collapses the chain.
        let mut w = txn(&b);
        Txn::new(&b, &mut w).write_word(v, 101).unwrap();
        b.commit(&mut w).unwrap();
        assert!(b.chain_len(v) <= 2, "chain after GC: {}", b.chain_len(v));
        let mut check = txn(&b);
        assert_eq!(b.read(&mut check, v).unwrap(), 101);
        b.cleanup(&mut check);
    }

    #[test]
    fn aborted_attempts_leave_no_version_and_release_their_snapshot() {
        let b = MvccBackend::new();
        let v = b.alloc(3);
        let mut t = txn(&b);
        Txn::new(&b, &mut t).write_word(v, 99).unwrap();
        b.cleanup(&mut t); // user abort
        assert_eq!(b.chain_len(v), 1, "buffered writes never land");
        assert_eq!(b.active_snapshots(), 0, "snapshot registry drained");
        // Commit-path failure also drains the registry.
        let mut t1 = txn(&b);
        let mut t2 = txn(&b);
        Txn::new(&b, &mut t1).write_word(v, 1).unwrap();
        Txn::new(&b, &mut t2).write_word(v, 2).unwrap();
        b.commit(&mut t1).unwrap();
        assert!(b.commit(&mut t2).is_err());
        b.cleanup(&mut t2);
        assert_eq!(b.active_snapshots(), 0);
    }

    #[test]
    fn the_clock_counts_exactly_the_update_commits() {
        // Update and read-only commits from many threads over disjoint
        // variables: one ticket per update commit, and every write is
        // visible at its variable's head version.
        let b = std::sync::Arc::new(MvccBackend::new());
        let vars: Vec<VarId> = (0..8).map(|_| b.alloc(0)).collect();
        std::thread::scope(|s| {
            for (t, &var) in vars.iter().enumerate() {
                let b = std::sync::Arc::clone(&b);
                s.spawn(move || {
                    for i in 1..=200 {
                        let mut d = txn(&b);
                        Txn::new(&*b, &mut d).write_word(var, (t as i64) * 1_000 + i).unwrap();
                        b.commit(&mut d).unwrap();
                        let mut r = txn(&b);
                        b.read(&mut r, var).unwrap();
                        b.commit(&mut r).unwrap();
                    }
                });
            }
        });
        assert_eq!(b.clock.load(Ordering::SeqCst), 8 * 200);
        let mut check = txn(&b);
        for (t, &var) in vars.iter().enumerate() {
            assert_eq!(b.read(&mut check, var).unwrap(), (t as i64) * 1_000 + 200);
        }
        b.cleanup(&mut check);
    }

    #[test]
    fn a_parked_committer_holds_up_only_its_own_chains() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        fn on_thread<T: Send + 'static>(
            f: impl FnOnce() -> T + Send + 'static,
        ) -> mpsc::Receiver<T> {
            let (done, rx) = mpsc::channel();
            std::thread::spawn(move || done.send(f()));
            rx
        }
        let b = Arc::new(MvccBackend::new());
        let (x, y) = (b.alloc(0), b.alloc(0));
        // A committer parked between its ticket and its install holds x's
        // chain guard, and its ticket is in the clock.
        let mut parked = b.chains.get(x.index()).versions.lock();
        let ticket = b.clock.fetch_add(1, Ordering::SeqCst) + 1;

        let b2 = Arc::clone(&b);
        let writer = on_thread(move || {
            let mut d = txn(&b2);
            Txn::new(&*b2, &mut d).write_word(y, 5).unwrap();
            b2.commit(&mut d)
        });
        let secs = Duration::from_secs(10);
        assert_eq!(writer.recv_timeout(secs), Ok(Ok(())), "a disjoint commit waits for no ticket");

        let b3 = Arc::clone(&b);
        let reader = on_thread(move || {
            let mut r = txn(&b3);
            let read = (b3.read(&mut r, y), b3.read(&mut r, x));
            b3.cleanup(&mut r);
            (r.start_ts, read)
        });
        assert!(reader.recv_timeout(Duration::from_millis(50)).is_err(), "x's read waits");
        parked.push(Version { ts: ticket, value: 7 });
        drop(parked);
        let (snapshot, read) = reader.recv_timeout(secs).expect("the reader finished");
        assert!(snapshot > ticket, "the reader began after the ticket");
        assert_eq!(read, (Ok(5), Ok(7)), "it sees the parked commit once the guard drops");
    }

    #[test]
    fn multi_word_allocations_are_consecutive() {
        let b = MvccBackend::new();
        let base = b.alloc_words(&[1, 2, 3]);
        let mut t = txn(&b);
        for k in 0..3 {
            assert_eq!(b.read(&mut t, VarId(base.index() + k)).unwrap(), 1 + k as i64);
        }
        b.cleanup(&mut t);
    }
}
