//! The history-recording hook: how an auditor observes what the runtime does.
//!
//! A [`Recorder`] receives one [`CommitRecord`] per *successful* commit, on the
//! committing thread, after the backend has made the transaction's effects
//! durable.  The record exposes exactly the information a dbcop-style
//! consistency audit needs to reconstruct the `(T, so, wr)` structure of the
//! run:
//!
//! * the transaction's **external read set** — for every variable the
//!   transaction read *before* writing it, the value observed by the first such
//!   read (reads satisfied from the transaction's own write set are internal
//!   and deliberately excluded);
//! * the transaction's **write set** — the values installed at commit;
//! * the calling thread's **session id**, if the thread registered one with
//!   [`set_session`] ([`StreamingRecorder`] requires it: sessions cannot be
//!   assigned safely after the fact).
//!
//! Session order is the order a session's records are delivered in (each
//! thread's commits reach its shard in program order, and shards flush whole),
//! and write-read edges are recovered from unique write values — the recorded
//! analogue of unique write versions.
//!
//! # Cost when disabled
//!
//! `Stm` stores the recorder as `Option<Arc<dyn Recorder>>`.  An instance built
//! with [`crate::Stm::new`] carries `None`, so the only cost on the
//! uninstrumented hot path is one never-taken branch per commit — no
//! allocation, no atomics, no extra cache traffic.
//!
//! # Streaming
//!
//! [`StreamingRecorder`] — the one recorder behind every recorded run, whole-
//! history batch audits included — is a sharded, per-session buffered
//! channel.  A commit costs its thread one relaxed fetch-add (the global
//! recording index) and one uncontended mutex push into its session's
//! private shard; a full shard flushes one [`CommitBatch`] — a hint-sorted
//! run of one session — to a bounded queue that a consumer thread — the
//! streaming auditor — drains *while the workload is still running*.  The
//! queue applies backpressure (producers wait when the consumer falls
//! `capacity` batches behind) so end-to-end memory stays bounded no matter
//! how long the run is.
//!
//! **Layout.**  The recorder must not make transactions on disjoint data
//! contend, or it would itself break the parallelism it is there to measure:
//!
//! * A record is written once, in its final [`CommittedTxn`] form, into the
//!   shard's buffer, and that buffer *is* the batch the consumer receives.
//!   Its read and write sets are [`AccessSet`]s: up to [`AccessSet::INLINE`]
//!   pairs each sit inside the record, so recording a small transaction
//!   allocates nothing on the committing thread and frees nothing on the
//!   consumer's.  A set with more pairs (a transaction over several
//!   multi-word objects, say) spills to a `Vec` of its own; nothing else
//!   about it differs.
//! * Each shard's mutex, and the hint counter, sit alone on a 128-byte line
//!   (two 64-byte lines, because adjacent-line prefetch pairs them).  Side by
//!   side, every push by one session would invalidate the line the other
//!   sessions' mutexes and the counter live in.  The counter itself is still
//!   shared: one fetch-add per commit is the contention that remains.
//! * A flushed shard is replaced by a buffer of `batch_size` capacity, so a
//!   batch is one allocation, not a regrowth from empty.
//! * The queue's condition variables are signalled after its lock is
//!   released, so the thread they wake does not block on the waker.

use crate::txn::VarMap;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything a recorder learns about one committed transaction.
#[derive(Debug, Clone, Copy)]
pub struct CommitRecord<'a> {
    /// The session id the committing thread registered via [`set_session`],
    /// if any.
    pub session: Option<usize>,
    /// Externally-read variables and the value the first read observed.
    pub reads: &'a VarMap<i64>,
    /// Variables written and the values installed at commit.
    pub writes: &'a VarMap<i64>,
}

/// A sink for commit records.  [`StreamingRecorder`] is the implementation
/// every recorded run in the workspace uses.
pub trait Recorder: Send + Sync {
    /// Called once per successful commit, on the committing thread, after the
    /// backend's commit completed.
    fn on_commit(&self, record: CommitRecord<'_>);
}

/// Number of hash bands variables are grouped into for audit routing.
///
/// A sharded audit pipeline with `K` partitions owns `ROUTE_BANDS / K`
/// contiguous runs of bands (so any `K ≤ 64` divides the variable space
/// without re-hashing), and the [`CommittedTxn::footprint`] bitmask —
/// one bit per band — lets a router decide which partitions a record touches
/// without re-walking its read/write sets.
pub const ROUTE_BANDS: usize = 64;

/// The routing band a variable belongs to.
///
/// Word indices are pair-aligned before hashing, so the two words of a
/// two-word object (`TVar<(i64, i64)>` and friends, allocated contiguously
/// by `Backend::alloc_words`) share a band *when the object starts at an
/// even word index* — which holds whenever multi-word objects are allocated
/// before (or without) odd runs of single words, as every built-in scenario
/// does, but is not enforced by the allocators: an odd allocation base
/// shifts the pairing and such an object's transactions then straddle bands
/// (still audited soundly, via the escalation lane, just less cheaply).
/// The pair index is mixed (splitmix64 finalizer) so adjacent pairs still
/// spread across bands.
pub fn route_band(var_index: usize) -> usize {
    let mut z = ((var_index >> 1) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % ROUTE_BANDS as u64) as usize
}

/// The band bitmask of a variable set: bit [`route_band`]`(v)` is set for
/// every `v` in `vars`.
pub fn footprint_of(vars: impl IntoIterator<Item = usize>) -> u64 {
    vars.into_iter().fold(0u64, |mask, v| mask | 1u64 << route_band(v))
}

/// One `(variable index, value)` pair of a read or write set.
pub type Access = (usize, i64);

/// A transaction's read or write set: `(variable, value)` pairs in the order
/// they were recorded, read as a slice.
///
/// Up to [`AccessSet::INLINE`] pairs live inside the set itself, so a record
/// of a small transaction owns no heap memory: it is written once into the
/// batch buffer it travels in and dropped with it.  A longer set spills to a
/// `Vec`.  Which of the two holds the pairs is not observable: equality,
/// `Debug` and iteration go by content.
#[derive(Clone)]
pub struct AccessSet(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots are the set.
    Inline(u8, [Access; AccessSet::INLINE]),
    Heap(Vec<Access>),
}

impl AccessSet {
    /// Pairs a set holds without allocating.  Two covers every transaction
    /// over one or two single-word variables (`registers` never records more);
    /// a larger value grows every record of every history, recorded or
    /// generated — see the size guard in this module's tests before raising it.
    pub const INLINE: usize = 2;

    /// The empty set.
    pub const fn new() -> Self {
        AccessSet(Repr::Inline(0, [(0, 0); Self::INLINE]))
    }

    /// Append `pair`, spilling to the heap once the inline slots are full.
    pub fn push(&mut self, pair: Access) {
        match &mut self.0 {
            Repr::Inline(len, slots) => match slots.get_mut(usize::from(*len)) {
                Some(slot) => {
                    *slot = pair;
                    *len += 1;
                }
                None => {
                    let mut spilled = Vec::with_capacity(2 * Self::INLINE);
                    spilled.extend_from_slice(slots);
                    spilled.push(pair);
                    self.0 = Repr::Heap(spilled);
                }
            },
            Repr::Heap(pairs) => pairs.push(pair),
        }
    }

    /// Keep only the pairs `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Access) -> bool) {
        match &mut self.0 {
            Repr::Inline(len, slots) => {
                let mut kept = 0u8;
                for i in 0..usize::from(*len) {
                    if keep(&slots[i]) {
                        slots[usize::from(kept)] = slots[i];
                        kept += 1;
                    }
                }
                *len = kept;
            }
            Repr::Heap(pairs) => pairs.retain(keep),
        }
    }
}

impl Default for AccessSet {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for AccessSet {
    type Target = [Access];

    fn deref(&self) -> &[Access] {
        match &self.0 {
            Repr::Inline(len, slots) => &slots[..usize::from(*len)],
            Repr::Heap(pairs) => pairs,
        }
    }
}

impl DerefMut for AccessSet {
    fn deref_mut(&mut self) -> &mut [Access] {
        match &mut self.0 {
            Repr::Inline(len, slots) => &mut slots[..usize::from(*len)],
            Repr::Heap(pairs) => pairs,
        }
    }
}

impl<'a> IntoIterator for &'a AccessSet {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Access> for AccessSet {
    fn from_iter<I: IntoIterator<Item = Access>>(pairs: I) -> Self {
        let mut set = AccessSet::new();
        pairs.into_iter().for_each(|pair| set.push(pair));
        set
    }
}

impl From<Vec<Access>> for AccessSet {
    /// A set longer than [`AccessSet::INLINE`] keeps the vector's allocation.
    fn from(pairs: Vec<Access>) -> Self {
        if pairs.len() > Self::INLINE {
            return AccessSet(Repr::Heap(pairs));
        }
        pairs.into_iter().collect()
    }
}

impl<const N: usize> From<[Access; N]> for AccessSet {
    fn from(pairs: [Access; N]) -> Self {
        pairs.into_iter().collect()
    }
}

impl fmt::Debug for AccessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for AccessSet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for AccessSet {}

impl<const N: usize> PartialEq<[Access; N]> for AccessSet {
    fn eq(&self, other: &[Access; N]) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Vec<Access>> for AccessSet {
    fn eq(&self, other: &Vec<Access>) -> bool {
        **self == other[..]
    }
}

/// One committed transaction as every consumer of a recording sees it — the
/// auditor's `AuditTxn` is this type: owned, variables as plain indices, built
/// once on the committing thread and never converted again.  Its session and
/// its place in it are where it sits (a [`CommitBatch`], a history's session).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Externally-read variables with the value the first read observed
    /// (reads satisfied by the transaction's own earlier write are internal
    /// and excluded).
    pub reads: AccessSet,
    /// Written variables with the value installed at commit.
    pub writes: AccessSet,
    /// A global recording-order index: a cheap guess at the commit order used
    /// only to seed the serializability search, never for correctness.
    pub hint: u64,
    /// Band bitmask of every variable touched (reads ∪ writes): bit
    /// [`route_band`]`(v)` is set for each touched `v`.  [`StreamingRecorder`]
    /// computes it on the committing thread so a sharded audit router never
    /// re-walks the sets.  `0` means "not precomputed" (hand-built and adapted
    /// histories) — [`CommittedTxn::band_mask`] then derives it on demand; the
    /// two are indistinguishable because a transaction with an empty
    /// footprint touches nothing and routes the same either way.
    pub footprint: u64,
}

impl CommittedTxn {
    /// The band bitmask of every touched variable: the precomputed
    /// [`CommittedTxn::footprint`] when present, derived from the read/write
    /// sets otherwise.
    pub fn band_mask(&self) -> u64 {
        if self.footprint != 0 {
            return self.footprint;
        }
        footprint_of(self.reads.iter().chain(&self.writes).map(|&(var, _)| var))
    }
}

/// A flushed shard: one session's consecutive commits, in session order.
#[derive(Debug, Clone)]
pub struct CommitBatch {
    /// The session every record in this batch belongs to.
    pub session: usize,
    /// The records, in session (commit) order.
    pub records: Vec<CommittedTxn>,
}

#[derive(Default)]
struct QueueState {
    batches: VecDeque<CommitBatch>,
    closed: bool,
}

/// The bounded hand-off between committing threads and the audit consumer.
struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signalled when a batch arrives or the queue closes.
    ready: Condvar,
    /// Signalled when the consumer makes room or the queue closes.
    space: Condvar,
    capacity: usize,
}

impl BatchQueue {
    fn push(&self, batch: CommitBatch) {
        let mut state = self.state.lock();
        while state.batches.len() >= self.capacity && !state.closed {
            self.space.wait(&mut state);
        }
        if state.closed {
            return; // the run is over; late flushes are dropped
        }
        state.batches.push_back(batch);
        // Wake the consumer off the lock: it would block on it straight away.
        drop(state);
        self.ready.notify_one();
    }

    fn recv(&self) -> Option<CommitBatch> {
        let mut state = self.state.lock();
        loop {
            if let Some(batch) = state.batches.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// The streaming [`Recorder`]: sharded per-session buffers feeding a bounded
/// batch queue (see the module docs).  Committing threads **must** register
/// their session with [`set_session`] — streamed audits have no safe way to
/// auto-assign sessions after the fact.
pub struct StreamingRecorder {
    /// Per session: its commits since the last flush, in session order.
    shards: Vec<OwnLine<Mutex<Vec<CommittedTxn>>>>,
    queue: Arc<BatchQueue>,
    batch_size: usize,
    next_hint: OwnLine<AtomicU64>,
}

/// Aligns `T` to a cache line of its own (128 bytes: adjacent-line prefetch
/// pairs 64-byte lines), so threads working on neighbouring values do not
/// invalidate each other's line.
#[repr(align(128))]
struct OwnLine<T>(T);

impl StreamingRecorder {
    /// Batches a bounded queue may hold before producers wait.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1_024;

    /// A recorder for `n_sessions` sessions flushing every `batch_size`
    /// commits, with the default queue capacity.
    pub fn new(n_sessions: usize, batch_size: usize) -> Self {
        Self::with_capacity(n_sessions, batch_size, Self::DEFAULT_QUEUE_CAPACITY)
    }

    /// A recorder with an explicit queue capacity (in batches).
    pub fn with_capacity(n_sessions: usize, batch_size: usize, capacity: usize) -> Self {
        StreamingRecorder {
            shards: (0..n_sessions).map(|_| OwnLine(Mutex::new(Vec::new()))).collect(),
            queue: Arc::new(BatchQueue {
                state: Mutex::new(QueueState::default()),
                ready: Condvar::new(),
                space: Condvar::new(),
                capacity: capacity.max(1),
            }),
            batch_size: batch_size.max(1),
            next_hint: OwnLine(AtomicU64::new(0)),
        }
    }

    /// A handle the audit thread drains batches from.
    pub fn consumer(&self) -> StreamConsumer {
        StreamConsumer { queue: Arc::clone(&self.queue) }
    }

    /// Flush every shard's partial buffer and close the queue: the consumer's
    /// [`StreamConsumer::recv`] drains what remains, then returns `None`.
    /// Call after the worker threads have joined.
    pub fn finish(&self) {
        for (session, shard) in self.shards.iter().enumerate() {
            let records = std::mem::take(&mut *shard.0.lock());
            if !records.is_empty() {
                self.queue.push(CommitBatch { session, records });
            }
        }
        self.queue.close();
    }
}

impl Recorder for StreamingRecorder {
    fn on_commit(&self, record: CommitRecord<'_>) {
        let session = record
            .session
            .expect("StreamingRecorder requires every worker to call recorder::set_session");
        assert!(
            session < self.shards.len(),
            "session {session} out of range (streaming recorder has {})",
            self.shards.len()
        );
        let hint = self.next_hint.0.fetch_add(1, Ordering::Relaxed);
        let pairs =
            |set: &VarMap<i64>| -> AccessSet { set.iter().map(|(v, x)| (v.index(), *x)).collect() };
        let (reads, writes) = (pairs(record.reads), pairs(record.writes));
        let footprint = footprint_of(reads.iter().chain(&writes).map(|&(var, _)| var));
        let flushed = {
            let mut shard = self.shards[session].0.lock();
            shard.push(CommittedTxn { reads, writes, hint, footprint });
            // The next batch is as long as this one: size it once.
            (shard.len() >= self.batch_size)
                .then(|| std::mem::replace(&mut *shard, Vec::with_capacity(self.batch_size)))
        };
        if let Some(records) = flushed {
            // Off the shard lock: the queue may apply backpressure.
            self.queue.push(CommitBatch { session, records });
        }
    }
}

/// The consuming end of a [`StreamingRecorder`].
pub struct StreamConsumer {
    queue: Arc<BatchQueue>,
}

impl StreamConsumer {
    /// Block until a batch is available; `None` once the recorder finished
    /// and the queue drained.
    pub fn recv(&self) -> Option<CommitBatch> {
        self.queue.recv()
    }
}

impl Drop for StreamConsumer {
    /// A dying consumer (including one unwinding from a panic) closes the
    /// queue, so producers blocked on backpressure wake up and late commits
    /// are dropped instead of wedging the workload forever.
    fn drop(&mut self) {
        self.queue.close();
    }
}

thread_local! {
    static SESSION: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Register the calling thread's audit session id (its index in the recorded
/// history).  Worker threads of an audited run call this once at startup.
pub fn set_session(id: usize) {
    SESSION.with(|s| s.set(Some(id)));
}

/// Clear the calling thread's audit session id.
pub fn clear_session() {
    SESSION.with(|s| s.set(None));
}

/// The session id the calling thread registered, if any.
pub fn current_session() -> Option<usize> {
    SESSION.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inline capacity is a measured trade, not a free parameter.  At
    /// capacity 2 a record is 96 bytes and every benchmark workload's
    /// `setup_s` and `peak_rss_mb` held or improved against heap sets (PR 24's
    /// paired runs, CHANGES.md); at capacity 4 (160 bytes) issue 24's
    /// prototype measured the same `live-drain` rate but `setup_s` +40–60%
    /// on `replay-healthy`, `batch-20k` and `replay-sharded` — history
    /// generation and the hint sort move and page-fault bytes, not records.
    /// Re-measure those before raising this.
    #[test]
    fn a_record_stays_within_96_bytes() {
        assert!(std::mem::size_of::<CommittedTxn>() <= 96);
    }

    fn pairs(n: usize) -> Vec<Access> {
        (0..n).map(|i| (i, 10 * i as i64 + 1)).collect()
    }

    #[test]
    fn access_set_spills_past_the_inline_slots_and_reads_the_same() {
        let mut set = AccessSet::new();
        assert!(set.is_empty());
        for n in 1..=6 {
            set.push(pairs(n)[n - 1]);
            assert_eq!(set, pairs(n), "after {n} pushes");
            assert_eq!(matches!(set.0, Repr::Heap(_)), n > AccessSet::INLINE, "after {n} pushes");
        }
        assert_eq!(set.iter().map(|&(var, _)| var).collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
        assert_eq!((&set).into_iter().count(), 6);
    }

    #[test]
    fn access_set_from_vec_holds_the_vector_whatever_its_length() {
        for n in 0..=6 {
            let set = AccessSet::from(pairs(n));
            assert_eq!(set, pairs(n));
            assert_eq!(matches!(set.0, Repr::Heap(_)), n > AccessSet::INLINE, "length {n}");
            assert_eq!(set, pairs(n).into_iter().collect::<AccessSet>());
        }
    }

    #[test]
    fn access_set_equality_and_debug_go_by_content() {
        let inline = AccessSet::from([(3, 30), (5, 50)]);
        let mut spilled = AccessSet::from(vec![(3, 30), (4, 40), (5, 50)]);
        assert_ne!(inline, spilled);
        spilled.retain(|&(var, _)| var != 4);
        assert!(matches!((&inline.0, &spilled.0), (Repr::Inline(..), Repr::Heap(_))));
        assert_eq!(inline, spilled);
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        assert_eq!(format!("{inline:?}"), "[(3, 30), (5, 50)]");
        // A slot left behind by `retain` is not part of the set.
        let mut shrunk = AccessSet::from([(3, 30), (9, 90)]);
        shrunk.retain(|&(var, _)| var == 3);
        assert_eq!(shrunk, [(3, 30)]);
        assert_eq!(shrunk, AccessSet::from([(3, 30)]));
        assert_ne!(shrunk, inline);
    }

    #[test]
    fn access_set_retain_keeps_order_in_both_forms() {
        for n in 0..=6 {
            let mut set = AccessSet::from(pairs(n));
            set.retain(|&(var, _)| var % 2 == 1);
            let odd: Vec<Access> = pairs(n).into_iter().filter(|&(var, _)| var % 2 == 1).collect();
            assert_eq!(set, odd, "length {n}");
            set.retain(|_| false);
            assert!(set.is_empty());
            set.push((7, 7));
            assert_eq!(set, [(7, 7)], "a drained set takes pushes again");
        }
    }

    #[test]
    fn streaming_recorder_batches_per_session_in_order() {
        let rec = Arc::new(StreamingRecorder::new(2, 3));
        let consumer = rec.consumer();
        let stm = crate::Stm::with_recorder(crate::registry::TL2_BLOCKING, Arc::clone(&rec) as _);
        let x = stm.alloc(0);
        std::thread::scope(|scope| {
            let stm = &stm;
            for s in 0..2usize {
                scope.spawn(move || {
                    set_session(s);
                    for i in 0..7i64 {
                        let value = ((s as i64 + 1) << 32) + i;
                        stm.run(|tx| {
                            let _ = tx.read(x)?;
                            tx.write(x, value)
                        });
                    }
                    clear_session();
                });
            }
        });
        rec.finish();
        let mut per_session: Vec<Vec<CommittedTxn>> = vec![Vec::new(); 2];
        let mut batches = 0;
        while let Some(batch) = consumer.recv() {
            batches += 1;
            assert!(batch.records.len() <= 3, "batch size respected");
            per_session[batch.session].extend(batch.records);
        }
        // 7 commits per session at batch size 3: two full batches plus the
        // final flush each.
        assert!(batches >= 6, "batches: {batches}");
        for (s, records) in per_session.iter().enumerate() {
            assert_eq!(records.len(), 7, "session {s}");
            // Session order is preserved end to end.
            assert!(records.windows(2).all(|w| w[0].hint < w[1].hint));
            // …and it is the session's program order: its seven writes, as
            // issued.
            let written: Vec<i64> = records.iter().map(|r| r.writes[0].1).collect();
            let issued: Vec<i64> = (0..7).map(|i| ((s as i64 + 1) << 32) + i).collect();
            assert_eq!(written, issued, "session {s}");
            assert!(records.iter().all(|r| r.writes.len() == 1));
        }
        // Hints are globally unique.
        let mut hints: Vec<u64> = per_session.iter().flatten().map(|r| r.hint).collect();
        hints.sort_unstable();
        assert_eq!(hints, (0..14).collect::<Vec<_>>());
        // Queue is drained and closed.
        assert!(consumer.recv().is_none());
    }

    #[test]
    fn streaming_recorder_drains_concurrently_with_the_workload() {
        let rec = Arc::new(StreamingRecorder::with_capacity(1, 2, 4));
        let consumer = rec.consumer();
        let stm =
            crate::Stm::with_recorder(crate::registry::OBSTRUCTION_FREE, Arc::clone(&rec) as _);
        let x = stm.alloc(0);
        let drained = std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let mut total = 0usize;
                while let Some(batch) = consumer.recv() {
                    total += batch.records.len();
                }
                total
            });
            let stm = &stm;
            scope
                .spawn(move || {
                    set_session(0);
                    for i in 1..=50i64 {
                        stm.run(|tx| tx.write(x, i));
                    }
                    clear_session();
                })
                .join()
                .unwrap();
            rec.finish();
            handle.join().unwrap()
        });
        assert_eq!(drained, 50);
    }

    #[test]
    #[should_panic(expected = "requires every worker to call recorder::set_session")]
    fn streaming_recorder_rejects_unregistered_threads() {
        let rec = Arc::new(StreamingRecorder::new(1, 8));
        let stm = crate::Stm::with_recorder(crate::registry::TL2_BLOCKING, rec as _);
        let x = stm.alloc(0);
        clear_session();
        stm.run(|tx| tx.write(x, 1));
    }

    #[test]
    fn route_bands_pair_align_and_spread() {
        // The two words of a pair-aligned object share a band…
        for pair in 0..256usize {
            assert_eq!(route_band(2 * pair), route_band(2 * pair + 1), "pair {pair}");
        }
        // …and the bands of distinct pairs actually spread (no degenerate
        // constant hash): 64 vars must hit well over a handful of bands.
        let distinct: std::collections::HashSet<usize> = (0..64).map(route_band).collect();
        assert!(distinct.len() > 8, "only {} distinct bands", distinct.len());
        for v in 0..1024 {
            assert!(route_band(v) < ROUTE_BANDS);
        }
    }

    #[test]
    fn footprints_are_band_bitmasks() {
        assert_eq!(footprint_of([]), 0);
        let mask = footprint_of([0usize, 1, 17]);
        assert_ne!(mask, 0);
        assert_eq!(mask & (1 << route_band(0)), 1 << route_band(0));
        assert_eq!(mask & (1 << route_band(17)), 1 << route_band(17));
        // Pair-aligned words contribute the same bit.
        assert_eq!(footprint_of([6usize]), footprint_of([7usize]));
    }

    #[test]
    fn streamed_records_carry_their_footprint() {
        let rec = Arc::new(StreamingRecorder::new(1, 64));
        let consumer = rec.consumer();
        let stm = crate::Stm::with_recorder(crate::registry::TL2_BLOCKING, Arc::clone(&rec) as _);
        let x = stm.alloc(0);
        let y = stm.alloc(0);
        set_session(0);
        stm.run(|tx| {
            let _ = tx.read(x)?;
            tx.write(y, 5)
        });
        clear_session();
        rec.finish();
        let batch = consumer.recv().expect("one batch");
        let record = &batch.records[0];
        let (x, y) = (x.base().index(), y.base().index());
        assert_eq!((&record.reads[..], &record.writes[..]), (&[(x, 0)][..], &[(y, 5)][..]));
        let expected = footprint_of([x, y]);
        assert_eq!(record.footprint, expected);
        assert_ne!(record.footprint, 0);
        assert_eq!(record.band_mask(), expected);
        let unstamped = CommittedTxn { footprint: 0, ..record.clone() };
        assert_eq!(unstamped.band_mask(), expected, "derived on demand when not precomputed");
    }

    #[test]
    fn session_registration_is_per_thread() {
        assert_eq!(current_session(), None);
        set_session(3);
        assert_eq!(current_session(), Some(3));
        std::thread::spawn(|| {
            assert_eq!(current_session(), None);
            set_session(9);
            assert_eq!(current_session(), Some(9));
        })
        .join()
        .unwrap();
        assert_eq!(current_session(), Some(3));
        clear_session();
        assert_eq!(current_session(), None);
    }
}
