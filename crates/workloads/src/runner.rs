//! The multi-threaded workload runner: unaudited scenario runs
//! ([`run_scenario`]), the stalled-writer liveness experiment, and **the**
//! live audited run ([`run_live`]).
//!
//! A live run is described once — a [`LivePlan`]: an [`AuditPlan`] (off,
//! whole-history batch, rolling windows) plus what rides along (capture, a
//! WAL round, a live event feed) — and executed by one function.  Every
//! recorded plan goes through one pipeline, `recorder → merger → sink`; the
//! plans differ only in the sink (a whole-history batch audit is the
//! pipeline with a collector at the end).  Whatever the plan, the result is
//! one [`LiveReport`] carrying one [`Verdict`].

use crate::recovery::{WalTee, WalTeeStats};
use crate::scenario::{Scenario, ScenarioCheck, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_runtime::{recorder, AbortReason, BackendId, Stm, StreamingRecorder};
use tm_audit::{
    audit_streamed, audit_with_options, AuditEvent, AuditHistory, AuditOptions, AuditReport,
    HistoryCollector, StreamMerger, StreamReport, TeeSink, TxnSink, WindowConfig, WindowedAuditor,
};

/// What one scenario run measured, plus the scenario's own self-check.
#[derive(Debug, Clone)]
pub struct ScenarioRunReport {
    /// Which scenario ran.
    pub scenario: &'static str,
    /// The configuration that produced the report.
    pub config: ScenarioConfig,
    /// Wall-clock duration of the workload (excluding verification/audit).
    pub elapsed: Duration,
    /// Committed transactions per second during the run.
    pub throughput: f64,
    /// Committed transactions (workers only).
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Median attempts one transaction needed to commit.
    pub attempts_p50: u32,
    /// 99th-percentile attempts per transaction.
    pub attempts_p99: u32,
    /// Worst-case attempts one transaction needed (histogram bucket lower
    /// bound).  The livelock statistic: a burst of doomed re-attempts
    /// against a preempted lock holder lands on too few transactions to
    /// move p99, but it moves this.
    pub attempts_max: u32,
    /// Mean attempts per transaction.
    pub attempts_mean: f64,
    /// Aborts broken down by [`AbortReason`], in reporting
    /// order; the counts sum to [`ScenarioRunReport::aborts`].
    pub abort_reasons: [(AbortReason, u64); AbortReason::ALL.len()],
    /// The scenario's post-run self-check.
    pub check: ScenarioCheck,
}

/// Spawn the worker threads and drive `state` through the configured
/// transaction count; returns the workload's wall-clock duration.  Each
/// worker registers its index as its session — what an attached recorder
/// files its commits under, and one thread-local store otherwise.
fn execute_scenario(
    stm: &Stm,
    state: &dyn crate::scenario::ScenarioState,
    config: &ScenarioConfig,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..config.threads {
            scope.spawn(move || {
                recorder::set_session(thread);
                let mut rng = StdRng::seed_from_u64(config.seed ^ ((thread as u64) << 32));
                for seq in 0..config.txns_per_thread as u64 {
                    state.run_txn(stm, thread, seq, &mut rng);
                }
            });
        }
    });
    start.elapsed()
}

/// Snapshot the statistics *before* running the scenario's self-check (the
/// check itself runs transactions) and assemble the report.
fn finish_scenario_report(
    scenario: &dyn Scenario,
    config: &ScenarioConfig,
    stm: &Stm,
    state: &dyn crate::scenario::ScenarioState,
    elapsed: Duration,
) -> ScenarioRunReport {
    let stats = stm.stats();
    let commits = stats.commits();
    ScenarioRunReport {
        scenario: scenario.name(),
        config: config.clone(),
        elapsed,
        throughput: commits as f64 / elapsed.as_secs_f64().max(1e-9),
        commits,
        aborts: stats.aborts(),
        attempts_p50: stats.attempts_p50(),
        attempts_p99: stats.attempts_p99(),
        attempts_max: stats.attempts_quantile(1.0),
        attempts_mean: stats.attempts_mean(),
        abort_reasons: stats.abort_reason_counts(),
        check: state.verify(stm),
    }
}

/// Run a scenario unaudited: throughput, attempt percentiles and the
/// scenario's own invariant check.
pub fn run_scenario(scenario: &dyn Scenario, config: &ScenarioConfig) -> ScenarioRunReport {
    let stm = Stm::new(config.backend);
    let state = scenario.build(&stm, config);
    let elapsed = execute_scenario(&stm, state.as_ref(), config);
    finish_scenario_report(scenario, config, &stm, state.as_ref(), elapsed)
}

fn require_recordable(scenario: &dyn Scenario) -> Result<(), String> {
    if scenario.recordable() {
        Ok(())
    } else {
        Err(format!(
            "scenario {:?} does not keep the unique-write contract audited runs require; \
             run it without --audit",
            scenario.name()
        ))
    }
}

/// How a run — or a finished history — is audited: the plan and its
/// knobs.  The audit CLI parses `--audit[=SPEC]`, `--budget` and `--sat`
/// into one of these.
#[derive(Debug, Clone, Copy)]
pub enum AuditPlan {
    /// No audit: throughput, attempt percentiles and the scenario's own
    /// invariant only.
    Off,
    /// Collect the streamed commits, then check the whole history at once.
    Batch(AuditOptions),
    /// Audit rolling windows concurrently with the workload (bounded
    /// memory, mid-run convictions).
    Windowed(WindowConfig),
}

/// What an audit concluded, whichever plan produced it.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The whole-history report of [`AuditPlan::Batch`].
    Batch(AuditReport),
    /// Merged verdicts, per-window detail and pipeline statistics of
    /// [`AuditPlan::Windowed`].
    Windowed(StreamReport),
}

impl Verdict {
    /// Audit a finished history under `plan` (`None` under
    /// [`AuditPlan::Off`]) — the replay side of every plan: the windowed plan
    /// streams the history in recording order, so a history captured by
    /// [`run_live`] reproduces the live merged verdict.
    pub fn audit(history: &AuditHistory, plan: &AuditPlan) -> Option<Verdict> {
        match *plan {
            AuditPlan::Off => None,
            AuditPlan::Batch(options) => {
                Some(Verdict::Batch(audit_with_options(history, &options)))
            }
            AuditPlan::Windowed(window) => Some(Verdict::Windowed(audit_streamed(history, window))),
        }
    }

    /// The whole-run per-level verdicts (timing-free, so replays of one
    /// history render byte-identical JSON).
    pub fn merged(&self) -> &AuditReport {
        match self {
            Verdict::Batch(report) => report,
            Verdict::Windowed(stream) => &stream.merged,
        }
    }

    /// `true` if any level was definitely violated.
    pub fn violated(&self) -> bool {
        tm_audit::Level::ALL.iter().any(|&level| self.merged().fails(level))
    }

    /// The plan's full machine-readable report (per-window detail
    /// included).
    pub fn to_json(&self) -> String {
        match self {
            Verdict::Batch(report) => report.to_json(),
            Verdict::Windowed(stream) => stream.to_json(),
        }
    }

    /// The plan's name in `--json` entries: `"batch"` or `"streaming"`.
    pub fn mode(&self) -> &'static str {
        match self {
            Verdict::Batch(_) => "batch",
            Verdict::Windowed(_) => "streaming",
        }
    }
}

/// The human-readable verdict, indented two spaces: per-level lines (the
/// windowed plan adds its window and latency lines first), then the
/// one-line summary.
impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Batch(report) => {
                for level in &report.levels {
                    writeln!(f, "  {level}")?;
                }
            }
            Verdict::Windowed(stream) => write!(f, "  {stream}")?,
        }
        writeln!(f, "  verdict: {}", self.merged().summary())
    }
}

/// A crash-consistent WAL round attached to a windowed run: the merged
/// commit stream is appended to a [`stm_runtime::wal::WalSink`] round at
/// `dir` *before* each record reaches the auditor, segments seal at every
/// window boundary (the seal carries that window's boundary record), and
/// the round ends with a `complete.json` marker.  A process killed mid-round
/// leaves a directory [`crate::recovery::recover_round_report`] can finish
/// auditing.
pub struct WalRound<'a> {
    /// The round directory to log into.
    pub dir: &'a Path,
    /// Runs right before every segment seal — the hook the serve loop uses
    /// to flush its own buffered output first, so the seal never claims
    /// durability the host's records don't have.
    pub pre_seal: Box<dyn FnMut() + Send + 'a>,
}

/// One live run, described once: how it is audited plus what rides along.
pub struct LivePlan<'a> {
    /// The audit plan.
    pub audit: AuditPlan,
    /// Hand back the history exactly as the auditor saw it
    /// ([`LiveReport::history`]), so serializing it (`tm-history`) and
    /// re-auditing reproduces the verdicts.
    pub capture: bool,
    /// Log the round to a WAL.  [`AuditPlan::Windowed`] only: the log is
    /// cut at window boundaries.
    pub wal: Option<WalRound<'a>>,
    /// Stream live [`AuditEvent`]s while the run is going: every closed
    /// window's verdict and the first conviction — the feed the audit CLI's
    /// `--serve` endpoint tails as JSON lines.  [`AuditPlan::Windowed`], with
    /// or without a WAL; [`AuditPlan::Off`] and [`AuditPlan::Batch`] never
    /// close a window, so they refuse a feed.
    pub events: Option<Sender<AuditEvent>>,
}

impl LivePlan<'_> {
    /// `audit` with no capture, WAL or event feed.
    pub fn new(audit: AuditPlan) -> Self {
        LivePlan { audit, capture: false, wal: None, events: None }
    }
}

/// What a live run measured and proved.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// The workload-side measurements.
    pub run: ScenarioRunReport,
    /// Time from workload end to the merged verdict (to the drained history
    /// for a capture-only run).  A batch audit pays its *entire* checking
    /// time here; the windowed plans amortize it into the run and leave only
    /// the drain.  Zero when nothing was recorded.
    pub tail: Duration,
    /// The audit's verdict (`None` under [`AuditPlan::Off`]).
    pub verdict: Option<Verdict>,
    /// The captured history, when [`LivePlan::capture`] asked for it.
    pub history: Option<AuditHistory>,
    /// What the WAL round logged, when [`LivePlan::wal`] attached one.
    pub wal: Option<WalTeeStats>,
}

impl LiveReport {
    fn unaudited(run: ScenarioRunReport) -> Self {
        LiveReport { run, tail: Duration::ZERO, verdict: None, history: None, wal: None }
    }

    /// `true` if the scenario's self-check failed or the audit found a
    /// definite violation.
    pub fn violated(&self) -> bool {
        self.run.check.invariant == Some(false)
            || self.verdict.as_ref().is_some_and(Verdict::violated)
    }
}

/// Run `scenario` as `plan` describes.
///
/// Every audited plan needs a recordable scenario — the auditor assumes the
/// recording contract [`Scenario::recordable`] declares: unique write values
/// and all-zero initial state.
pub fn run_live(
    scenario: &dyn Scenario,
    config: &ScenarioConfig,
    plan: LivePlan<'_>,
) -> Result<LiveReport, String> {
    let LivePlan { audit, capture, wal, events } = plan;
    if wal.is_some() && !matches!(audit, AuditPlan::Windowed(_)) {
        return Err("a WAL round logs the single merged commit stream; it needs the windowed \
                    audit plan"
            .into());
    }
    if events.is_some() && matches!(audit, AuditPlan::Off | AuditPlan::Batch(_)) {
        return Err(
            "live events are window closes; the off and batch plans never close windows".into()
        );
    }
    let windowed = |vars: usize, window: WindowConfig| {
        let auditor = WindowedAuditor::new(vars, 0, window);
        match &events {
            Some(tx) => auditor.with_events(tx.clone()),
            None => auditor,
        }
    };
    match audit {
        AuditPlan::Off if !capture => Ok(LiveReport::unaudited(run_scenario(scenario, config))),
        // Whole-history plans: the sink is the collector itself, and the
        // audit (if any) runs where every sink finishes, on the consumer
        // thread.
        AuditPlan::Off | AuditPlan::Batch(_) => stream_into(
            scenario,
            config,
            false,
            |vars| Ok(HistoryCollector::new(vars, 0, config.threads)),
            |collector| {
                let history = collector.into_history();
                let verdict = Verdict::audit(&history, &audit);
                Ok(Finished { verdict, history: capture.then_some(history), wal: None })
            },
        ),
        AuditPlan::Windowed(window) => match wal {
            None => stream_into(
                scenario,
                config,
                capture,
                |vars| Ok(windowed(vars, window)),
                |auditor| Ok(Finished::verdict(Verdict::Windowed(auditor.finish()))),
            ),
            Some(WalRound { dir, pre_seal }) => {
                let wal_error = |e: std::io::Error| format!("wal {}: {e}", dir.display());
                stream_into(
                    scenario,
                    config,
                    capture,
                    |vars| {
                        WalTee::create(dir, config.threads, vars, windowed(vars, window), pre_seal)
                            .map_err(wal_error)
                    },
                    |tee| {
                        let (auditor, stats) = tee.finish().map_err(wal_error)?;
                        let verdict = Verdict::Windowed(auditor.finish());
                        Ok(Finished { wal: Some(stats), ..Finished::verdict(verdict) })
                    },
                )
            }
        },
    }
}

/// Commits a session buffers before its batch enters the streaming
/// recorder's queue.
const RECORDER_BATCH: usize = 256;

/// What a finished sink hands back to [`stream_into`].
struct Finished {
    verdict: Option<Verdict>,
    wal: Option<WalTeeStats>,
    /// The history, when the sink itself collected it (whole-history plans).
    history: Option<AuditHistory>,
}

impl Finished {
    fn verdict(verdict: Verdict) -> Self {
        Finished { verdict: Some(verdict), wal: None, history: None }
    }
}

/// The one recorded pipeline: commits drain through a [`StreamingRecorder`]
/// and a [`StreamMerger`] into the sink `build_sink` makes, on a consumer
/// thread, *while the workload runs*.  `build_sink` gets the scenario's word
/// count (known only once the scenario is built); `finish_sink` runs on the
/// consumer thread, so [`LiveReport::tail`] is run end → merged verdict.
/// `tee_capture` puts a [`HistoryCollector`] beside a sink that is not one.
fn stream_into<S: TxnSink + Send>(
    scenario: &dyn Scenario,
    config: &ScenarioConfig,
    tee_capture: bool,
    build_sink: impl FnOnce(usize) -> Result<S, String>,
    finish_sink: impl FnOnce(S) -> Result<Finished, String> + Send,
) -> Result<LiveReport, String> {
    require_recordable(scenario)?;
    let recorder_arc = Arc::new(StreamingRecorder::new(config.threads, RECORDER_BATCH));
    let consumer = recorder_arc.consumer();
    let mut stm = Stm::with_recorder(config.backend, Arc::clone(&recorder_arc) as _);
    let state = scenario.build(&stm, config);
    let vars = state.words();
    let sessions = config.threads;
    let mut sink = build_sink(vars)?;
    let start = Instant::now();
    let (elapsed, tail, finished) = std::thread::scope(|scope| {
        let auditor = scope.spawn(move || {
            // The capture tees off *after* the merger, so hints, order and
            // attribution are exactly the auditor's view.
            let mut collector = tee_capture.then(|| HistoryCollector::new(vars, 0, sessions));
            match collector.as_mut() {
                Some(collector) => StreamMerger::drain(
                    &consumer,
                    sessions,
                    &mut TeeSink::new(&mut sink, collector),
                ),
                None => StreamMerger::drain(&consumer, sessions, &mut sink),
            }
            let mut finished = finish_sink(sink)?;
            if let Some(collector) = collector {
                finished.history = Some(collector.into_history());
            }
            Ok::<_, String>(finished)
        });
        let elapsed = execute_scenario(&stm, state.as_ref(), config);
        recorder_arc.finish();
        let finished = auditor.join().expect("auditor thread panicked");
        let tail = start.elapsed().saturating_sub(elapsed);
        (elapsed, tail, finished)
    });
    let Finished { verdict, wal, history } = finished?;
    // Detach the recorder before the self-check: verification transactions
    // must not reach a (closed) recorder.
    stm.take_recorder();
    let run = finish_scenario_report(scenario, config, &stm, state.as_ref(), elapsed);
    Ok(LiveReport { run, tail, verdict, history, wal })
}

/// The stalled-writer liveness experiment: one thread opens a transaction, writes the
/// hot variable and then stalls for `stall` inside the transaction body, while
/// `victims` other threads keep incrementing their own private variables *plus* one
/// read of the hot variable.  Returns the number of victim transactions that managed
/// to commit during the stall.
///
/// The writer parks before `commit`, so it holds the victims up only on a backend
/// that locks at encounter time: `tl2-blocking` locks the hot variable in its
/// `write` hook and `global-lock` takes its one lock on the first access, and there
/// the victims commit next to nothing.  `obstruction-free`, `shard-lock` and `mvcc`
/// lock only inside `commit`, and `pram-local` never locks, so their victims run
/// free.  Stalling those takes a writer parked mid-commit.
pub fn stalled_writer_experiment(
    backend: impl Into<BackendId>,
    victims: usize,
    stall: Duration,
) -> u64 {
    let stm = Arc::new(Stm::new(backend));
    let hot = stm.alloc(0);
    let privates: Vec<_> = (0..victims).map(|_| stm.alloc(0)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(std::sync::atomic::AtomicU64::new(0));

    std::thread::scope(|scope| {
        // The stalled writer: write the hot variable, then sleep inside the closure.
        {
            let stm = Arc::clone(&stm);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let _ = stm.try_run(|tx| {
                    tx.write(hot, 99)?;
                    std::thread::sleep(stall);
                    Ok(())
                });
                stop.store(true, Ordering::SeqCst);
            });
        }
        // Victims: each repeatedly reads the hot variable and bumps its own counter.
        for &private in &privates {
            let stm = Arc::clone(&stm);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let ok = stm.try_run(|tx| {
                        let _ = tx.read(hot)?;
                        tx.update(private, |v| v + 1)?;
                        Ok(())
                    });
                    if ok.is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    committed.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankConfig;
    use crate::scenarios::{BankScenario, RegistersScenario};
    use stm_runtime::registry::{GLOBAL_LOCK, OBSTRUCTION_FREE, PRAM_LOCAL, TL2_BLOCKING};
    use tm_audit::Level;

    /// An unaudited bank run: `accounts` accounts, every transfer crossing
    /// partitions with probability `cross_fraction`.
    fn run_bank(
        backend: BackendId,
        txns_per_thread: usize,
        accounts: usize,
        cross_fraction: f64,
    ) -> ScenarioRunReport {
        let template = BankConfig { cross_fraction, ..Default::default() };
        let config =
            ScenarioConfig { txns_per_thread, vars: accounts, ..ScenarioConfig::new(backend) };
        run_scenario(&BankScenario { template }, &config)
    }

    #[test]
    fn disjoint_partitions_preserve_balance_on_consistent_backends() {
        for backend in [TL2_BLOCKING, OBSTRUCTION_FREE] {
            let report = run_bank(backend, 200, 32, 0.0);
            assert_eq!(report.check.invariant, Some(true), "{backend:?}: {report:?}");
            assert!(report.throughput > 0.0);
        }
    }

    #[test]
    fn contended_transfers_still_preserve_balance_but_cause_aborts_or_waits() {
        let report = run_bank(OBSTRUCTION_FREE, 300, 4, 1.0);
        assert_eq!(report.check.invariant, Some(true), "{report:?}");
    }

    #[test]
    fn pram_backend_visibly_breaks_the_global_invariant() {
        let report = run_bank(PRAM_LOCAL, 100, 8, 1.0);
        // Transfers only move money inside each thread's private replicas, so the
        // auditing thread still sees every account at its initial balance; the global
        // invariant holds *vacuously* for the auditor but cross-thread effects are
        // lost.  What must NOT happen is an abort: the backend is wait-free.
        assert_eq!(report.aborts, 0);
    }

    /// 2 threads × 200 `registers` transactions on the consistent blocking
    /// backend: 400 commits, every level passes.
    fn registers_on_tl2() -> (RegistersScenario, ScenarioConfig) {
        let config = ScenarioConfig {
            threads: 2,
            txns_per_thread: 200,
            vars: 16,
            ..ScenarioConfig::new(TL2_BLOCKING)
        };
        (RegistersScenario, config)
    }

    /// Every audited plan, at a test-sized window.
    fn audited_plans() -> [AuditPlan; 2] {
        [AuditPlan::Batch(AuditOptions::default()), AuditPlan::Windowed(WindowConfig::sized(64))]
    }

    #[test]
    fn every_plan_attests_a_consistent_backend() {
        let (scenario, config) = registers_on_tl2();
        for audit in audited_plans() {
            let report = run_live(&scenario, &config, LivePlan::new(audit)).unwrap();
            assert_eq!(report.run.commits, 400, "{audit:?}");
            assert!(report.run.throughput > 0.0);
            assert_eq!(report.run.check.invariant, Some(true), "{}", report.run.check.detail);
            assert!(!report.violated(), "{audit:?}");
            let verdict = report.verdict.as_ref().expect("audited plan");
            match (&audit, verdict) {
                (AuditPlan::Batch(_), Verdict::Batch(_)) => {}
                (AuditPlan::Windowed(_), Verdict::Windowed(stream)) => {
                    assert_eq!(stream.total_txns, 400);
                    assert!(stream.windows.len() >= 5, "windows: {}", stream.windows.len());
                    assert!(stream.first_conviction.is_none());
                }
                _ => panic!("{audit:?} produced the wrong verdict kind: {verdict:?}"),
            }
            for level in Level::ALL {
                assert!(verdict.merged().passes(level), "{level}: {}", verdict.merged());
            }
            assert!(report.history.is_none(), "{audit:?}: no capture was requested");
            assert!(report.wal.is_none());
        }
    }

    /// What every captured history promises, whichever sink collected it
    /// (the collector itself for `Off` and `Batch`, the tee beside the
    /// auditor for the windowed plans): every recording index exactly once,
    /// rising along each session; lossless on the wire; and the input that
    /// reproduces the live verdict — none at all for a capture-only run.
    #[test]
    fn captured_histories_keep_the_recording_contract_under_every_sink() {
        for backend in [TL2_BLOCKING, PRAM_LOCAL] {
            let config = ScenarioConfig { backend, ..registers_on_tl2().1 };
            for audit in [AuditPlan::Off].into_iter().chain(audited_plans()) {
                let plan = LivePlan { capture: true, ..LivePlan::new(audit) };
                let report = run_live(&RegistersScenario, &config, plan).unwrap();
                let history = report.history.as_ref().expect("capture was requested");
                let ctx = format!("{backend}, {audit:?}");
                assert_eq!(history.sessions.len(), 2, "{ctx}");
                for session in &history.sessions {
                    assert!(session.windows(2).all(|w| w[0].hint < w[1].hint), "{ctx}");
                }
                let mut hints: Vec<u64> =
                    history.sessions.iter().flatten().map(|t| t.hint).collect();
                hints.sort_unstable();
                assert_eq!(hints, (0..400).collect::<Vec<u64>>(), "{ctx}");
                let wire = tm_history::encode(history);
                assert_eq!(tm_history::decode(&wire).as_ref(), Ok(history), "{ctx}");
                let replay = Verdict::audit(history, &audit);
                assert_eq!(
                    replay.as_ref().map(Verdict::merged),
                    report.verdict.as_ref().map(Verdict::merged),
                    "{ctx}: replaying the capture diverged"
                );
                assert_eq!(report.verdict.is_none(), matches!(audit, AuditPlan::Off), "{ctx}");
            }
        }
    }

    #[test]
    fn every_plan_convicts_pram_local_and_the_windowed_one_mid_stream() {
        let scenario = RegistersScenario;
        let config = ScenarioConfig {
            threads: 4,
            txns_per_thread: 500,
            vars: 8,
            ..ScenarioConfig::new(PRAM_LOCAL)
        };
        for audit in audited_plans() {
            let report = run_live(&scenario, &config, LivePlan::new(audit)).unwrap();
            assert!(report.violated(), "{audit:?}");
            let verdict = report.verdict.expect("audited plan");
            assert!(verdict.merged().fails(Level::Serializable), "{}", verdict.merged());
            match verdict {
                // Never synchronizing is still (vacuously) causal.
                Verdict::Batch(report) => assert!(report.passes(Level::Causal), "{report}"),
                Verdict::Windowed(stream) => {
                    assert!(stream.passes(Level::Causal), "{}", stream.merged);
                    let conviction = stream.first_conviction.expect("pram must be convicted");
                    assert!(
                        conviction.txns_seen < stream.total_txns,
                        "conviction after {} of {} txns must land mid-stream",
                        conviction.txns_seen,
                        stream.total_txns
                    );
                }
            }
        }
    }

    #[test]
    fn wal_rounds_log_every_commit_and_call_pre_seal_before_each_seal() {
        use std::sync::atomic::AtomicU64;
        let (scenario, config) = registers_on_tl2();
        let dir = std::env::temp_dir().join(format!("runner-wal-round-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pre_seals = AtomicU64::new(0);
        let wal = WalRound {
            dir: &dir,
            pre_seal: Box::new(|| {
                pre_seals.fetch_add(1, Ordering::SeqCst);
            }),
        };
        let window = AuditPlan::Windowed(WindowConfig::sized(64));
        let (tx, rx) = std::sync::mpsc::channel();
        let plan = LivePlan { wal: Some(wal), events: Some(tx), ..LivePlan::new(window) };
        let report = run_live(&scenario, &config, plan).unwrap();
        let stats = report.wal.expect("a WAL round was attached");
        // The feed and the log cut the round at the same places: one window
        // event per seal (the final close pairs with the tail seal).
        let windows = rx.try_iter().filter(|e| matches!(e, AuditEvent::Window { .. })).count();
        assert_eq!(windows as u64, stats.sealed_segments);
        assert_eq!(stats.logged_txns, report.run.commits);
        // Every window-boundary seal ran the hook first; the tail seal at
        // `finish` (if the last segment was non-empty) does not.
        let hooked = pre_seals.load(Ordering::SeqCst);
        assert!(hooked >= 5, "{hooked} pre-seal calls for 400 txns in 64-txn windows");
        assert!(stats.sealed_segments >= hooked && stats.sealed_segments <= hooked + 1);
        assert!(dir.join("complete.json").exists(), "a finished round is marked complete");
        assert!(!report.violated());
        let _ = std::fs::remove_dir_all(&dir);

        // The log is cut at window boundaries: only the windowed plan has them.
        let wal = WalRound { dir: &dir, pre_seal: Box::new(|| {}) };
        let batch = AuditPlan::Batch(AuditOptions::default());
        let err = run_live(&scenario, &config, LivePlan { wal: Some(wal), ..LivePlan::new(batch) })
            .unwrap_err();
        assert!(err.contains("windowed"), "{err}");
        // A feed of window closes needs a plan that closes windows.
        for audit in [AuditPlan::Off, AuditPlan::Batch(AuditOptions::default())] {
            let (tx, _rx) = std::sync::mpsc::channel();
            let plan = LivePlan { events: Some(tx), ..LivePlan::new(audit) };
            let err = run_live(&scenario, &config, plan).unwrap_err();
            assert!(err.contains("close windows"), "{audit:?}: {err}");
        }
        assert!(!dir.exists(), "a rejected plan must not touch the disk");
    }

    #[test]
    fn unrecordable_scenarios_are_rejected_by_every_audited_plan() {
        let scenario = crate::scenarios::BankScenario::default();
        let config = ScenarioConfig::new(OBSTRUCTION_FREE);
        let capture_only = LivePlan { capture: true, ..LivePlan::new(AuditPlan::Off) };
        for plan in audited_plans().map(LivePlan::new).into_iter().chain([capture_only]) {
            let err = run_live(&scenario, &config, plan).unwrap_err();
            assert!(err.contains("unique-write contract"), "{err}");
        }
    }

    #[test]
    fn scenarios_run_on_the_global_lock_backend() {
        let scenario = crate::scenarios::BankScenario::default();
        let config = ScenarioConfig {
            threads: 4,
            txns_per_thread: 150,
            vars: 16,
            ..ScenarioConfig::new(stm_runtime::registry::GLOBAL_LOCK)
        };
        let report = run_scenario(&scenario, &config);
        // Self-transfers commit nothing, so commits ≤ threads × txns.
        assert!(report.commits > 0 && report.commits <= 600, "{}", report.commits);
        assert_eq!(report.check.invariant, Some(true), "{}", report.check.detail);
        assert!(report.attempts_p99 >= report.attempts_p50);
    }

    #[test]
    fn the_retry_loop_fills_the_attempt_histogram() {
        let scenario = crate::scenarios::KvZipfScenario { theta: 0.99, read_fraction: 0.0 };
        let config = ScenarioConfig {
            threads: 4,
            txns_per_thread: 250,
            vars: 4,
            ..ScenarioConfig::new(OBSTRUCTION_FREE)
        };
        let report = run_scenario(&scenario, &config);
        assert_eq!(report.commits, 1_000);
        // All-write hotspot traffic: the histogram must have been populated
        // and be internally consistent.
        assert!(report.attempts_mean >= 1.0);
        assert!(report.attempts_p99 >= report.attempts_p50);
    }

    #[test]
    fn stalled_writer_starves_victims_only_on_the_blocking_backend() {
        // The writer parks inside its body, so only the two backends that
        // lock before `commit` hold the victims up; the other four run free.
        let stall = Duration::from_millis(120);
        let (lockers, free): (Vec<_>, Vec<_>) = stm_runtime::registry::all_ids()
            .into_iter()
            .map(|backend| (backend, stalled_writer_experiment(backend, 2, stall)))
            .partition(|(backend, _)| [TL2_BLOCKING, GLOBAL_LOCK].contains(backend));
        let most_held = lockers.iter().map(|&(_, commits)| commits).max().unwrap_or(0);
        let least_free = free.iter().map(|&(_, commits)| commits).min().unwrap_or(0);
        assert_eq!((lockers.len(), free.len()), (2, 4));
        assert!(
            least_free > most_held.saturating_mul(3).max(10),
            "victim commits: held {lockers:?}, free {free:?}"
        );
    }
}
