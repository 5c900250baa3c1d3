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
//! channel: each commit lands, already in its final [`CommittedTxn`] form, in
//! its session's private shard (one uncontended mutex push plus one relaxed
//! fetch-add for the global recording index), and a full shard flushes one
//! [`CommitBatch`] — a hint-sorted run of one session — to
//! a bounded queue that a consumer thread — the streaming auditor — drains
//! *while the workload is still running*.  The queue applies backpressure
//! (producers wait when the consumer falls `capacity` batches behind) so
//! end-to-end memory stays bounded no matter how long the run is.

use crate::txn::VarMap;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
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

/// One committed transaction as every consumer of a recording sees it — the
/// auditor's `AuditTxn` is this type: owned, variables as plain indices, built
/// once on the committing thread and never converted again.  Its session and
/// its place in it are where it sits (a [`CommitBatch`], a history's session).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Externally-read variables with the value the first read observed
    /// (reads satisfied by the transaction's own earlier write are internal
    /// and excluded).
    pub reads: Vec<(usize, i64)>,
    /// Written variables with the value installed at commit.
    pub writes: Vec<(usize, i64)>,
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
        self.ready.notify_one();
    }

    fn recv(&self) -> Option<CommitBatch> {
        let mut state = self.state.lock();
        loop {
            if let Some(batch) = state.batches.pop_front() {
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
    shards: Vec<Mutex<Vec<CommittedTxn>>>,
    queue: Arc<BatchQueue>,
    batch_size: usize,
    next_hint: AtomicU64,
}

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
            shards: (0..n_sessions).map(|_| Mutex::new(Vec::new())).collect(),
            queue: Arc::new(BatchQueue {
                state: Mutex::new(QueueState::default()),
                ready: Condvar::new(),
                space: Condvar::new(),
                capacity: capacity.max(1),
            }),
            batch_size: batch_size.max(1),
            next_hint: AtomicU64::new(0),
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
            let records = std::mem::take(&mut *shard.lock());
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
        let hint = self.next_hint.fetch_add(1, Ordering::Relaxed);
        let pairs = |set: &VarMap<i64>| set.iter().map(|(v, x)| (v.index(), *x)).collect();
        let (reads, writes): (Vec<_>, Vec<_>) = (pairs(record.reads), pairs(record.writes));
        let footprint = footprint_of(reads.iter().chain(&writes).map(|&(var, _)| var));
        let flushed = {
            let mut shard = self.shards[session].lock();
            shard.push(CommittedTxn { reads, writes, hint, footprint });
            (shard.len() >= self.batch_size).then(|| std::mem::take(&mut *shard))
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
        assert_eq!((&record.reads, &record.writes), (&vec![(x, 0)], &vec![(y, 5)]));
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
