//! The runtime's telemetry handles: phase-latency histograms, abort-reason
//! counters mirrored into a metrics registry, and the liveness watchdog.
//! Every record is a relaxed atomic on a handle the [`crate::Stm`] owns; no
//! commit takes a lock or allocates for telemetry.
//!
//! [`crate::Stm::new`] attaches an [`StmTelemetry`] only when
//! [`tm_telemetry::enabled`] is set, so a metrics-off run carries a `None`
//! and pays one never-taken branch per commit.  Tests attach handles bound
//! to a private [`tm_telemetry::Registry`] via [`crate::Stm::with_telemetry`]
//! so their assertions never see another test's samples.

use crate::txn::AbortReason;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tm_telemetry::{Counter, Gauge, Histogram, Registry};

/// Aborts-without-a-commit a thread must accumulate before the watchdog
/// counts it as stalled.
pub const WATCHDOG_STALL_THRESHOLD: u64 = 64;

/// Per-thread slots the watchdog tracks.  A thread's slot is its
/// [`tm_telemetry::thread_index`] modulo this; processes that ever
/// create more than this many threads wrap around and share slots (the
/// gauge stays a lower bound).
pub const WATCHDOG_SLOTS: usize = 64;

fn thread_slot() -> usize {
    tm_telemetry::thread_index() % WATCHDOG_SLOTS
}

/// The liveness watchdog: per-thread no-commit-progress detection ("What's
/// Live?" made operational).  Each abort bumps the calling thread's
/// aborts-since-last-commit count; crossing [`WATCHDOG_STALL_THRESHOLD`]
/// marks the thread stalled (gauge +1, stall-event counter +1) until its
/// next commit clears it.
#[derive(Debug)]
pub struct LivenessWatchdog {
    slots: [AtomicU64; WATCHDOG_SLOTS],
    threshold: u64,
    /// Threads currently past the threshold.
    stalled: Gauge,
    /// Total threshold crossings ever.
    stall_events: Counter,
}

impl LivenessWatchdog {
    fn new(stalled: Gauge, stall_events: Counter, threshold: u64) -> Self {
        LivenessWatchdog {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            threshold: threshold.max(1),
            stalled,
            stall_events,
        }
    }

    /// Record an abort on the calling thread.
    pub fn on_abort(&self) {
        let prev = self.slots[thread_slot()].fetch_add(1, Ordering::Relaxed);
        if prev + 1 == self.threshold {
            self.stall_events.inc();
            self.stalled.add(1);
        }
    }

    /// Record a commit on the calling thread (progress: clears any stall).
    pub fn on_commit(&self) {
        // Fast path: a plain load on the thread's own slot — commits after
        // commits never pay the RMW.
        let slot = &self.slots[thread_slot()];
        if slot.load(Ordering::Relaxed) == 0 {
            return;
        }
        let prev = slot.swap(0, Ordering::Relaxed);
        if prev >= self.threshold {
            self.stalled.add(-1);
        }
    }

    /// Threads currently counted as stalled.
    pub fn stalled_threads(&self) -> i64 {
        self.stalled.get()
    }

    /// Total threshold crossings so far.
    pub fn stall_events(&self) -> u64 {
        self.stall_events.get()
    }
}

/// Commit-phase labels, in reporting order.
pub const PHASES: [&str; 3] = ["read", "validate", "publish"];

/// Phase-latency sampling period: 1 in this many attempts is wall-clock
/// timed.  The clock reads (four `Instant::now()` calls per timed commit)
/// are the dominant metrics-on cost on sub-microsecond transactions, so the
/// histograms sample; the commit/abort *counters* stay exact.  Each thread's
/// first attempt is always sampled, so any thread that commits contributes
/// at least one sample per phase.
pub const PHASE_SAMPLE_EVERY: u64 = 64;

thread_local! {
    static PHASE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Advance the calling thread's sampling tick; `true` when this attempt
/// should be phase-timed.
pub(crate) fn phase_sample_tick() -> bool {
    PHASE_TICK.with(|t| {
        let v = t.get();
        t.set(v.wrapping_add(1));
        v % PHASE_SAMPLE_EVERY == 0
    })
}

/// Everything one [`crate::Stm`] instance records when metrics are on.
#[derive(Debug)]
pub struct StmTelemetry {
    /// Wall time from begin to the body returning `Ok` (read-set build).
    pub phase_read: Histogram,
    /// Wall time from commit entry to the backend's validate→publish mark.
    pub phase_validate: Histogram,
    /// Wall time from the mark to commit return (publish/install).
    pub phase_publish: Histogram,
    /// Commit counter mirrored into the registry.
    pub commits: Counter,
    /// Abort counters mirrored into the registry, one per [`AbortReason`]
    /// (in [`AbortReason::ALL`] order).
    pub aborts: [Counter; AbortReason::ALL.len()],
    /// The per-thread liveness watchdog.
    pub watchdog: LivenessWatchdog,
}

impl StmTelemetry {
    /// Build the instrument set for one backend inside `registry`.  The same
    /// `(metric, backend)` pair always resolves to the same underlying
    /// values, so several `Stm` instances over one backend accumulate into
    /// one series.
    pub fn from_registry(registry: &Registry, backend: &str) -> Self {
        fn labelled<'a>(backend: &'a str, extra: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
            let mut all = vec![("backend", backend)];
            all.extend_from_slice(extra);
            all
        }
        StmTelemetry {
            phase_read: registry.histogram(
                "stm_phase_ns",
                &labelled(backend, &[("phase", "read")]),
                "ns",
            ),
            phase_validate: registry.histogram(
                "stm_phase_ns",
                &labelled(backend, &[("phase", "validate")]),
                "ns",
            ),
            phase_publish: registry.histogram(
                "stm_phase_ns",
                &labelled(backend, &[("phase", "publish")]),
                "ns",
            ),
            commits: registry.counter("stm_commits_total", &labelled(backend, &[]), "txns"),
            aborts: std::array::from_fn(|i| {
                registry.counter(
                    "stm_aborts_total",
                    &labelled(backend, &[("reason", AbortReason::ALL[i].name())]),
                    "txns",
                )
            }),
            watchdog: LivenessWatchdog::new(
                registry.gauge("stm_stalled_threads", &labelled(backend, &[]), "threads"),
                registry.counter("stm_stall_events_total", &labelled(backend, &[]), "events"),
                WATCHDOG_STALL_THRESHOLD,
            ),
        }
    }

    /// Record a phase-timed committed attempt: the three phase spans, the
    /// commit counter and watchdog progress.  `t_begin` is attempt start,
    /// `t_body_ok` the body returning `Ok`, `validated_at` the backend's
    /// optional validate→publish mark, `t_done` commit return.  Only 1 in
    /// [`PHASE_SAMPLE_EVERY`] commits takes this path; the rest go through
    /// [`StmTelemetry::on_commit_untimed`].
    pub fn on_commit(
        &self,
        t_begin: Instant,
        t_body_ok: Instant,
        validated_at: Option<Instant>,
        t_done: Instant,
    ) {
        let mark = validated_at.unwrap_or(t_body_ok);
        self.phase_read.record_duration(t_body_ok.duration_since(t_begin));
        self.phase_validate.record_duration(mark.duration_since(t_body_ok));
        self.phase_publish.record_duration(t_done.duration_since(mark));
        self.commits.inc();
        self.watchdog.on_commit();
    }

    /// Record an unsampled committed attempt: exact counting and watchdog
    /// progress, no clock reads.
    pub fn on_commit_untimed(&self) {
        self.commits.inc();
        self.watchdog.on_commit();
    }

    /// Record an aborted attempt: the taxonomy counter and watchdog
    /// no-progress bookkeeping.
    pub fn on_abort(&self, reason: AbortReason) {
        self.aborts[reason.index()].inc();
        self.watchdog.on_abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_flags_stalls_and_clears_on_commit() {
        let stalled = Gauge::new();
        let events = Counter::new();
        let w = LivenessWatchdog::new(stalled, events, 3);
        w.on_abort();
        w.on_abort();
        assert_eq!(w.stalled_threads(), 0, "below threshold");
        w.on_abort();
        assert_eq!(w.stalled_threads(), 1, "threshold crossing marks the thread");
        assert_eq!(w.stall_events(), 1);
        w.on_abort();
        assert_eq!(w.stall_events(), 1, "staying stalled is one event, not many");
        w.on_commit();
        assert_eq!(w.stalled_threads(), 0, "progress clears the stall");
        w.on_commit();
        assert_eq!(w.stalled_threads(), 0, "an un-stalled commit must not go negative");
        assert_eq!(w.stall_events(), 1);
    }

    #[test]
    fn phase_recording_accounts_every_commit_once_per_phase() {
        let registry = Registry::new();
        let tele = StmTelemetry::from_registry(&registry, "test-backend");
        let t0 = Instant::now();
        for _ in 0..10 {
            tele.on_commit(t0, t0, None, t0);
        }
        tele.on_abort(AbortReason::ReadValidation);
        assert_eq!(tele.phase_read.count(), 10);
        assert_eq!(tele.phase_validate.count(), 10);
        assert_eq!(tele.phase_publish.count(), 10);
        assert_eq!(tele.commits.get(), 10);
        assert_eq!(tele.aborts[AbortReason::ReadValidation.index()].get(), 1);
        // Same (registry, backend) → same series.
        let again = StmTelemetry::from_registry(&registry, "test-backend");
        assert_eq!(again.commits.get(), 10);
    }
}
