//! # stm-runtime — a typed, multi-threaded word STM with a P/C/L backend table
//!
//! While `tm-model` / `tm-algorithms` reproduce the paper's *formal* model inside a
//! deterministic simulator, this crate is the artifact a downstream user would
//! actually link against: a shared-memory software transactional memory runnable on
//! real threads.  The public API has two layers:
//!
//! 1. **Typed variables** — [`TVar<T>`] handles over the word STM.  Any
//!    [`TxnValue`] (ints, `bool`, fixed arrays, tuples) encodes to one or
//!    more consecutive words and is read/written atomically inside a
//!    transaction.
//! 2. **Backends as data** — [`Stm::new`] takes anything `Into<BackendId>`
//!    and resolves it through the [`registry`]: a [`registry::BackendSpec`]
//!    names a backend, declares its P/C/L triangle position and constructs
//!    it.  Six designs make up the fixed table — the three corners, the
//!    interior points that populate the consistency and parallelism axes,
//!    and the coarse-global-lock extreme of the parallelism axis.  A
//!    [`Backend`] is only its shared-memory protocol: the front
//!    end ([`Txn`], [`Stm`]) keeps each attempt's reads and buffered
//!    writes, serves repeated and own-write reads itself, and records the
//!    [`AbortReason`] every fallible backend method returns.
//!
//!    | Backend | P (disjoint-access) | C | L |
//!    |---|---|---|---|
//!    | `tl2-blocking`     | per-var metadata only | serializable | blocking commit (spins on locks) |
//!    | `obstruction-free` | per-var metadata only | serializable | never waits, aborts; not obstruction-free (see [`ofree`]) |
//!    | `pram-local`       | no shared memory at all | PRAM only | wait-free |
//!    | `mvcc`             | per-var version chains + one global commit clock | **snapshot isolation** (admits write skew) | reads wait out a committer on their chain; first committer wins |
//!    | `shard-lock`       | 16 hash bands, one versioned lock each (band-grain DAP only) | serializable | blocking on band locks |
//!    | `global-lock`      | none: one lock for everything | serializable | blocking on the one lock |
//!
//! [`Stm::run`] is one retry loop: attempt, and on an abort spin once
//! ([`std::hint::spin_loop`]) and attempt again until the transaction
//! commits; [`Stm::try_run`] is a single attempt.  A transaction shares
//! memory through its backend and, outside it, only through three things
//! the front end touches: the optional [`Recorder`] (on commit), the
//! calling thread's stripe of [`StmStats`] (one relaxed increment per abort
//! and per commit) and the optional [`StmTelemetry`] handle.
//!
//! ```
//! use stm_runtime::{registry, Stm, StmError, TVar};
//!
//! let stm = Stm::new(registry::TL2_BLOCKING);
//! let account_a: TVar<i64> = stm.alloc(100);
//! let account_b: TVar<i64> = stm.alloc(0);
//! let moved = stm.run(|tx| {
//!     let a = tx.read(account_a)?;
//!     let transfer = a.min(40);
//!     tx.write(account_a, a - transfer)?;
//!     let b = tx.read(account_b)?;
//!     tx.write(account_b, b + transfer)?;
//!     Ok(transfer)
//! });
//! assert_eq!(moved, 40);
//! assert_eq!(stm.read_now(account_a) + stm.read_now(account_b), 100);
//!
//! // Typed variables beyond i64: a (balance, flag) pair, updated atomically.
//! let pair: TVar<(i64, bool)> = stm.alloc((7, false));
//! stm.run(|tx| {
//!     let (balance, _) = tx.read(pair)?;
//!     tx.write(pair, (balance + 1, true))
//! });
//! assert_eq!(stm.read_now(pair), (8, true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod glock;
pub mod mvcc;
pub mod ofree;
pub mod pramlocal;
pub mod recorder;
pub mod registry;
pub mod shardlock;
pub mod stats;
pub mod telemetry;
pub mod tl2;
pub mod tvar;
pub mod txn;
pub mod value;
pub mod vartable;
mod vlock;
pub mod wal;

pub use backend::{Backend, VarId};
pub use recorder::{
    Access, AccessSet, CommitBatch, CommitRecord, CommittedTxn, Recorder, StreamConsumer,
    StreamingRecorder,
};
pub use registry::{BackendId, BackendSpec};
pub use stats::StmStats;
pub use telemetry::{LivenessWatchdog, StmTelemetry};
pub use tvar::TVar;
pub use txn::{AbortReason, StmError, Txn, TxnData, VarMap};
pub use value::TxnValue;
pub use vartable::VarTable;

use std::sync::Arc;
use std::time::Instant;

/// The front-end: a transactional memory instance with a chosen backend.
pub struct Stm {
    backend: Arc<dyn Backend>,
    id: BackendId,
    stats: Arc<StmStats>,
    recorder: Option<Arc<dyn Recorder>>,
    /// `Some` only when metrics are on: the metrics-off commit path pays
    /// exactly one never-taken branch on this option.
    tele: Option<Arc<StmTelemetry>>,
}

impl Stm {
    /// Create an STM instance with the given backend (a [`registry`]
    /// constant or a [`BackendId`] parsed from a name).
    pub fn new(backend: impl Into<BackendId>) -> Self {
        let id = backend.into();
        Stm::from_backend(id, (id.spec().constructor)())
    }

    /// Create an STM instance over a backend built by the caller — say, a
    /// [`tl2::Tl2Backend::with_spin_limit`] — reported under `id` in stats
    /// and telemetry.
    pub fn from_backend(id: BackendId, backend: Arc<dyn Backend>) -> Self {
        Stm {
            backend,
            id,
            stats: Arc::new(StmStats::default()),
            recorder: None,
            tele: tm_telemetry::enabled()
                .then(|| Arc::new(StmTelemetry::from_registry(tm_telemetry::global(), id.name()))),
        }
    }

    /// Create an instrumented STM instance whose successful commits are
    /// reported to `recorder` (see [`recorder`] for what is captured).
    pub fn with_recorder(backend: impl Into<BackendId>, recorder: Arc<dyn Recorder>) -> Self {
        let mut stm = Stm::new(backend);
        stm.recorder = Some(recorder);
        stm
    }

    /// Detach the recorder, if any: subsequent commits are no longer
    /// reported.  Used by audited runners to fence off post-run
    /// verification transactions from the recorded history.
    pub fn take_recorder(&mut self) -> Option<Arc<dyn Recorder>> {
        self.recorder.take()
    }

    /// Attach a telemetry handle (builder style), regardless of the global
    /// [`tm_telemetry::enabled`] flag.  Tests bind one to a private
    /// [`tm_telemetry::Registry`] so metric-invariant assertions are exact.
    pub fn with_telemetry(mut self, tele: StmTelemetry) -> Self {
        self.tele = Some(Arc::new(tele));
        self
    }

    /// The telemetry handle, when metrics are on for this instance.
    pub fn telemetry(&self) -> Option<&StmTelemetry> {
        self.tele.as_deref()
    }

    /// Which backend this instance uses.
    pub fn backend_id(&self) -> BackendId {
        self.id
    }

    /// Allocate a typed transactional variable: `T::WORDS` consecutive words
    /// initialized from `initial`.
    pub fn alloc<T: TxnValue>(&self, initial: T) -> TVar<T> {
        let words = value::encode_to_words(&initial);
        TVar::from_base(self.backend.alloc_words(&words))
    }

    /// Cumulative statistics (abort taxonomy, attempt histogram, and the
    /// commit / abort totals derived from them).
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// Run one attempt of a transaction (no retries).
    /// `Err(StmError::Aborted)` means the attempt failed and the caller may
    /// retry.
    pub fn try_run<T>(
        &self,
        body: impl Fn(&mut Txn<'_>) -> Result<T, StmError>,
    ) -> Result<T, StmError> {
        let result = self.attempt(&mut TxnData::default(), &body);
        if result.is_ok() {
            self.stats.record_attempts(1);
        }
        result
    }

    /// Clean up after an abort and record its reason in the stats (and the
    /// telemetry mirror, when on).
    fn abort(&self, data: &mut TxnData, reason: AbortReason) -> StmError {
        self.backend.cleanup(data);
        self.stats.record_abort(reason);
        if let Some(tele) = &self.tele {
            tele.on_abort(reason);
        }
        StmError::Aborted
    }

    /// One raw attempt: reset, begin, run the body, commit or clean up.
    /// An abort's reason is recorded before it returns `Err`.  `data` is
    /// caller-owned so the retry loop reuses one allocation (read/write-set
    /// capacity) across every attempt of a transaction.
    fn attempt<T>(
        &self,
        data: &mut TxnData,
        body: &impl Fn(&mut Txn<'_>) -> Result<T, StmError>,
    ) -> Result<T, StmError> {
        data.reset();
        self.backend.begin(data);
        // The one metrics branch on the hot path: with telemetry off,
        // `timing` stays false and every stamp below is skipped.  With it
        // on, only 1 in `telemetry::PHASE_SAMPLE_EVERY` attempts is
        // wall-clock timed — counters stay exact, clock reads amortize.
        let t_begin = self.tele.as_ref().and_then(|_| {
            telemetry::phase_sample_tick().then(|| {
                data.timing = true;
                Instant::now()
            })
        });
        let mut txn = Txn::new(self.backend.as_ref(), data);
        match body(&mut txn) {
            Err(_) => {
                let reason = txn.abort_reason();
                Err(self.abort(data, reason))
            }
            Ok(value) => {
                let t_body_ok = t_begin.map(|_| Instant::now());
                match self.backend.commit(data) {
                    Ok(()) => {
                        if let Some(tele) = &self.tele {
                            match t_begin {
                                Some(t_begin) => tele.on_commit(
                                    self.id.name(),
                                    t_begin,
                                    t_body_ok.expect("timing on"),
                                    data.validated_at,
                                    Instant::now(),
                                ),
                                None => tele.on_commit_untimed(),
                            }
                        }
                        if let Some(rec) = &self.recorder {
                            rec.on_commit(CommitRecord {
                                session: recorder::current_session(),
                                reads: data.reads(),
                                writes: data.writes(),
                            });
                        }
                        Ok(value)
                    }
                    Err(reason) => Err(self.abort(data, reason)),
                }
            }
        }
    }

    /// Run a transaction until it commits and return its result: after
    /// each aborted attempt, one [`std::hint::spin_loop`] and a fresh
    /// attempt.  The attempt count lands in the [`StmStats`] histogram.
    pub fn run<T>(&self, body: impl Fn(&mut Txn<'_>) -> Result<T, StmError>) -> T {
        let mut attempts = 1u32;
        let mut data = TxnData::default();
        loop {
            if let Ok(v) = self.attempt(&mut data, &body) {
                self.stats.record_attempts(attempts);
                return v;
            }
            std::hint::spin_loop();
            attempts = attempts.saturating_add(1);
        }
    }

    /// Read a variable outside of any transaction (a single-read transaction).
    pub fn read_now<T: TxnValue>(&self, var: TVar<T>) -> T {
        self.run(|tx| tx.read(var))
    }

    /// Write a variable outside of any transaction (a single-write transaction).
    pub fn write_now<T: TxnValue + Clone>(&self, var: TVar<T>, value: T) {
        self.run(|tx| tx.write(var, value.clone()));
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm").field("backend", &self.id).field("stats", &self.stats).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn all_kinds() -> [BackendId; 3] {
        [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE, registry::PRAM_LOCAL]
    }

    #[test]
    fn single_threaded_read_write_round_trip_on_every_backend() {
        for kind in all_kinds() {
            let stm = Stm::new(kind);
            let x = stm.alloc(7i64);
            assert_eq!(stm.read_now(x), 7, "{kind:?}");
            stm.write_now(x, 42);
            assert_eq!(stm.read_now(x), 42, "{kind:?}");
            assert!(stm.stats().commits() >= 3);
            assert_eq!(stm.backend_id(), kind);
        }
    }

    #[test]
    fn transactions_are_atomic_within_a_thread() {
        for kind in all_kinds() {
            let stm = Stm::new(kind);
            let a = stm.alloc(10i64);
            let b = stm.alloc(20i64);
            let sum = stm.run(|tx| {
                let va = tx.read(a)?;
                let vb = tx.read(b)?;
                tx.write(a, va + 1)?;
                tx.write(b, vb - 1)?;
                Ok(va + vb)
            });
            assert_eq!(sum, 30);
            assert_eq!(stm.read_now(a), 11, "{kind:?}");
            assert_eq!(stm.read_now(b), 19, "{kind:?}");
        }
    }

    #[test]
    fn typed_variables_round_trip_every_provided_impl() {
        for kind in all_kinds() {
            let stm = Stm::new(kind);
            let flag = stm.alloc(false);
            let small = stm.alloc(-3i32);
            let wide = stm.alloc(u64::MAX);
            let tuple = stm.alloc((1i64, true));
            let array = stm.alloc([1i64, 2, 3]);
            stm.run(|tx| {
                tx.write(flag, true)?;
                tx.write(small, 9i32)?;
                tx.write(wide, 7u64)?;
                let (n, b) = tx.read(tuple)?;
                tx.write(tuple, (n + 41, !b))?;
                tx.update(array, |[x, y, z]| [z, y, x])?;
                Ok(())
            });
            assert!(stm.read_now(flag), "{kind:?}");
            assert_eq!(stm.read_now(small), 9, "{kind:?}");
            assert_eq!(stm.read_now(wide), 7, "{kind:?}");
            assert_eq!(stm.read_now(tuple), (42, false), "{kind:?}");
            assert_eq!(stm.read_now(array), [3, 2, 1], "{kind:?}");
        }
    }

    #[test]
    fn multi_word_variables_are_read_atomically_under_contention() {
        // Writers keep the two words of a pair equal inside one transaction;
        // readers must never observe them differ on a consistent backend.
        for kind in [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE] {
            let stm = Arc::new(Stm::new(kind));
            let pair: TVar<(i64, i64)> = stm.alloc((0, 0));
            std::thread::scope(|s| {
                let writer = Arc::clone(&stm);
                s.spawn(move || {
                    for i in 1..=500i64 {
                        writer.run(|tx| tx.write(pair, (i, -i)));
                    }
                });
                let reader = Arc::clone(&stm);
                s.spawn(move || {
                    for _ in 0..500 {
                        let (a, b) = reader.run(|tx| tx.read(pair));
                        assert_eq!(a, -b, "{kind:?}: torn read ({a}, {b})");
                    }
                });
            });
        }
    }

    #[test]
    fn explicit_user_aborts_leave_no_trace() {
        for kind in all_kinds() {
            let stm = Stm::new(kind);
            let x = stm.alloc(1i64);
            let result: Result<(), StmError> = stm.try_run(|tx| {
                tx.write(x, 99)?;
                Err(StmError::Aborted)
            });
            assert!(result.is_err());
            assert_eq!(stm.read_now(x), 1, "{kind:?}");
            assert!(stm.stats().aborts() >= 1);
        }
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost_on_consistent_backends() {
        for kind in [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE] {
            let stm = Arc::new(Stm::new(kind));
            let counter = stm.alloc(0i64);
            let threads = 4;
            let per_thread = 200;
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        for _ in 0..per_thread {
                            stm.run(|tx| {
                                let v = tx.read(counter)?;
                                tx.write(counter, v + 1)
                            });
                        }
                    });
                }
            });
            assert_eq!(stm.read_now(counter), threads * per_thread, "{kind:?}");
            // Every committed transaction recorded an attempt count.
            assert_eq!(stm.stats().attempts_recorded(), stm.stats().commits());
            assert!(stm.stats().attempts_p99() >= stm.stats().attempts_p50());
        }
    }

    #[test]
    fn run_retries_until_the_body_commits() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let stm = Stm::new(registry::OBSTRUCTION_FREE);
        let calls = AtomicU32::new(0);
        // Aborts on its first four calls and commits from the fifth on.
        let flaky = |_: &mut Txn<'_>| {
            if calls.fetch_add(1, Ordering::Relaxed) < 4 {
                Err(StmError::Aborted)
            } else {
                Ok(7)
            }
        };
        let stats = stm.stats();
        assert_eq!(stm.run(flaky), 7);
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        assert_eq!(stats.attempts_recorded(), 1);
        assert_eq!(stats.attempts_quantile(1.0), 5, "5 lands in [5,8]");
        assert_eq!(stats.aborts_by(AbortReason::Explicit), 4);
        assert_eq!(stats.aborts(), 4);
    }

    #[test]
    fn recorder_sees_external_reads_and_writes_of_successful_commits_only() {
        use parking_lot::Mutex;

        type VarValues = Vec<(VarId, i64)>;
        #[derive(Default)]
        struct Capture {
            records: Mutex<Vec<(Option<usize>, VarValues, VarValues)>>,
        }
        impl Recorder for Capture {
            fn on_commit(&self, record: CommitRecord<'_>) {
                self.records.lock().push((
                    record.session,
                    record.reads.iter().map(|(v, x)| (*v, *x)).collect(),
                    record.writes.iter().map(|(v, x)| (*v, *x)).collect(),
                ));
            }
        }

        for kind in registry::all_ids() {
            let capture = Arc::new(Capture::default());
            let stm = Stm::with_recorder(kind, Arc::clone(&capture) as Arc<dyn Recorder>);
            recorder::set_session(5);
            let x = stm.alloc(10i64);
            let y = stm.alloc(0i64);
            // Read-modify-write: x is an external read then a write; y is
            // write-then-read, so it must NOT appear in the read set.  The
            // second read of x adds no second read-set entry.
            stm.run(|tx| {
                let vx = tx.read(x)?;
                tx.write(y, vx + 1)?;
                let vy = tx.read(y)?;
                assert_eq!(tx.read(x)?, vx, "{kind:?}");
                tx.write(x, vy)?;
                Ok(())
            });
            // An aborted attempt must record nothing.
            let _ = stm.try_run(|tx| {
                tx.write(x, 99)?;
                tx.abort::<()>()
            });
            recorder::clear_session();

            let records = capture.records.lock();
            assert_eq!(records.len(), 1, "{kind:?}");
            let (session, reads, writes) = &records[0];
            assert_eq!(*session, Some(5), "{kind:?}");
            assert_eq!(reads.as_slice(), &[(x.base(), 10)], "{kind:?}");
            assert_eq!(writes.as_slice(), &[(x.base(), 11), (y.base(), 11)], "{kind:?}");
        }
    }

    #[test]
    fn the_front_end_owns_the_read_cache_the_write_buffer_and_the_abort_reason() {
        use parking_lot::Mutex;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Calls of `Counting::read` (only this test constructs one).
        static BACKEND_READS: AtomicUsize = AtomicUsize::new(0);
        /// A word holding this refuses both hooks, each with its own reason.
        const POISON: i64 = -1;

        #[derive(Default)]
        struct Counting(Mutex<Vec<i64>>);
        impl Backend for Counting {
            fn alloc_words(&self, initials: &[i64]) -> VarId {
                let mut words = self.0.lock();
                words.extend_from_slice(initials);
                VarId(words.len() - initials.len())
            }
            fn read(&self, _data: &mut TxnData, var: VarId) -> Result<i64, AbortReason> {
                BACKEND_READS.fetch_add(1, Ordering::Relaxed);
                match self.0.lock()[var.index()] {
                    POISON => Err(AbortReason::ReadValidation),
                    value => Ok(value),
                }
            }
            fn write(&self, _data: &mut TxnData, var: VarId) -> Result<(), AbortReason> {
                match self.0.lock()[var.index()] {
                    POISON => Err(AbortReason::FirstCommitterWins),
                    _ => Ok(()),
                }
            }
            fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason> {
                let mut words = self.0.lock();
                for (var, &value) in data.writes() {
                    words[var.index()] = value;
                }
                Ok(())
            }
            fn cleanup(&self, _data: &mut TxnData) {}
        }

        let stm = Stm::from_backend(registry::TL2_BLOCKING, Arc::new(Counting::default()));
        let x = stm.alloc(3i64);
        let poisoned = stm.alloc(POISON);

        // Repeated reads and reads of the attempt's own writes never reach
        // the backend: one backend read serves the whole transaction.
        let last = stm.run(|tx| {
            let a = tx.read(x)?;
            let b = tx.read(x)?;
            tx.write(x, a + b)?;
            assert_eq!(tx.read(x)?, 6);
            tx.write(x, 7)?;
            tx.read(x)
        });
        assert_eq!(last, 7);
        assert_eq!(BACKEND_READS.load(Ordering::Relaxed), 1);
        assert_eq!(stm.read_now(x), 7);

        // A failed hook's reason is the abort's reason; a body that aborts
        // by itself is the only source of `Explicit`.
        assert!(stm.try_run(|tx| tx.read(poisoned)).is_err());
        assert!(stm.try_run(|tx| tx.write(poisoned, 1)).is_err());
        assert!(stm.try_run(|tx| tx.abort::<()>()).is_err());
        let stats = stm.stats();
        assert_eq!(stats.aborts_by(AbortReason::ReadValidation), 1);
        assert_eq!(stats.aborts_by(AbortReason::FirstCommitterWins), 1);
        assert_eq!(stats.aborts_by(AbortReason::Explicit), 1);
        assert_eq!(stats.aborts(), 3);
    }

    #[test]
    fn interior_backends_run_the_full_typed_front_end() {
        // The two non-corner built-ins (mvcc, shard-lock) behave like any
        // other backend through the typed API: atomic multi-word reads under
        // contention and no lost counter increments (mvcc's
        // first-committer-wins forbids lost updates even though it admits
        // write skew).
        for id in [registry::MVCC, registry::SHARD_LOCK] {
            let stm = Arc::new(Stm::new(id));
            let pair: TVar<(i64, i64)> = stm.alloc((0, 0));
            let counter = stm.alloc(0i64);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        for i in 1..=200i64 {
                            stm.run(|tx| tx.update(counter, |v| v + 1));
                            stm.run(|tx| tx.write(pair, (i, -i)));
                            let (a, b) = stm.run(|tx| tx.read(pair));
                            assert_eq!(a, -b, "{id}: torn read ({a}, {b})");
                        }
                    });
                }
            });
            assert_eq!(stm.read_now(counter), 800, "{id}: increments must not be lost");
        }
    }

    #[test]
    fn abort_reason_taxonomy_sums_to_total_aborts_under_contention() {
        // Metric invariant: every abort carries exactly one classified
        // reason, and conflict aborts never fall through to `Explicit`.
        for kind in [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE] {
            let stm = Arc::new(Stm::new(kind));
            let counter = stm.alloc(0i64);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        for _ in 0..200 {
                            stm.run(|tx| tx.update(counter, |v| v + 1));
                        }
                    });
                }
            });
            let stats = stm.stats();
            let sum: u64 = stats.abort_reason_counts().iter().map(|(_, n)| n).sum();
            assert_eq!(sum, stats.aborts(), "{kind:?}");
            assert_eq!(stats.aborts_by(AbortReason::Explicit), 0, "{kind:?}: no unclassified");
        }
    }

    #[test]
    fn mvcc_conflict_aborts_classify_as_first_committer_wins() {
        let stm = Arc::new(Stm::new(registry::MVCC));
        let counter = stm.alloc(0i64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    for _ in 0..200 {
                        stm.run(|tx| tx.update(counter, |v| v + 1));
                    }
                });
            }
        });
        let stats = stm.stats();
        assert_eq!(stats.aborts_by(AbortReason::FirstCommitterWins), stats.aborts());
        let sum: u64 = stats.abort_reason_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(sum, stats.aborts());
    }

    #[test]
    fn phase_histograms_sample_commits_and_counters_stay_exact() {
        // Metric invariant: with telemetry attached, the commit counter
        // mirrors `StmStats` *exactly*, while the phase histograms sample
        // 1 in `telemetry::PHASE_SAMPLE_EVERY` attempts — every sampled
        // commit lands one sample in each of the three phases, and each
        // thread's first attempt is always sampled — exercised from 4
        // threads so concurrent recording loses nothing.
        let registry = tm_telemetry::Registry::new();
        for kind in all_kinds() {
            let stm = Arc::new(
                Stm::new(kind).with_telemetry(StmTelemetry::from_registry(&registry, kind.name())),
            );
            let counter = stm.alloc(0i64);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        for _ in 0..100 {
                            stm.run(|tx| tx.update(counter, |v| v + 1));
                        }
                    });
                }
            });
            let commits = stm.stats().commits();
            assert!(commits >= 400, "{kind:?}");
            let tele = stm.telemetry().expect("telemetry attached");
            assert_eq!(tele.commits.get(), commits, "{kind:?}: counters are exact");
            let sampled = tele.phase_read.count();
            assert!(sampled >= 1, "{kind:?}: first attempts are always sampled");
            assert!(sampled <= commits, "{kind:?}: sampling never over-counts");
            // The phase spans nest: a sampled commit lands one sample in
            // each phase, and bucket sums account for every sample.
            assert_eq!(tele.phase_validate.count(), sampled, "{kind:?}");
            assert_eq!(tele.phase_publish.count(), sampled, "{kind:?}");
            let bucket_total: u64 = tele.phase_read.buckets().iter().sum();
            assert_eq!(bucket_total, sampled, "{kind:?}: no lost histogram samples");
            let mirrored: u64 = tele.aborts.iter().map(|c| c.get()).sum();
            assert_eq!(mirrored, stm.stats().aborts(), "{kind:?}");
        }
    }

    #[test]
    fn pram_backend_loses_cross_thread_updates_by_design() {
        let stm = Arc::new(Stm::new(registry::PRAM_LOCAL));
        let x = stm.alloc(0i64);
        std::thread::scope(|s| {
            let stm2 = Arc::clone(&stm);
            s.spawn(move || {
                stm2.write_now(x, 5);
                assert_eq!(stm2.read_now(x), 5);
            });
        });
        // The writer thread saw its own write, but this thread still sees the initial
        // value: PRAM consistency, and nothing stronger.
        assert_eq!(stm.read_now(x), 0);
    }

    #[test]
    fn disjoint_threads_scale_without_aborts_on_dap_backends() {
        for kind in [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE] {
            let stm = Arc::new(Stm::new(kind));
            let vars: Vec<TVar<i64>> = (0..4).map(|_| stm.alloc(0i64)).collect();
            std::thread::scope(|s| {
                for (i, var) in vars.iter().enumerate() {
                    let stm = Arc::clone(&stm);
                    let var = *var;
                    s.spawn(move || {
                        for _ in 0..100 {
                            stm.run(|tx| {
                                let v = tx.read(var)?;
                                tx.write(var, v + i as i64 + 1)
                            });
                        }
                    });
                }
            });
            // No conflicts → no aborts on either consistent backend.
            assert_eq!(stm.stats().aborts(), 0, "{kind:?}");
        }
    }
}
