//! The commit-path workloads: `commit-sweep` (no recorder, six backends) and
//! `live-drain` (tl2 → streaming recorder → merger → counting sink), plus the
//! informational live pipeline.
//!
//! The load is the `registers` scenario driven through `Scenario::build` and
//! `ScenarioState::run_txn` by [`WORKERS`] threads, never more.  Live runs
//! are not repeatable one by one (tl2 alone spreads 6.7–8.5 M commits/s
//! between identical runs on two cores), so every figure is a median over
//! repetitions taken round-robin across the variants being compared.

use super::{secs, timed_setup, Cells, Expect, Rounds, RunCfg};
use crate::inputs::{Fnv, VARS};
use crate::metrics::{Outcome, BACKENDS};
use crate::stats::{geomean, median, paired_diff, paired_slowdown_pct, quantile, spread_pct};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use stm_runtime::registry::TL2_BLOCKING;
use stm_runtime::{
    recorder, BackendId, CommitRecord, Recorder, Stm, StreamConsumer, StreamingRecorder,
};
use tm_audit::{AuditTxn, StreamMerger, TxnSink, WindowConfig, WindowedAuditor};
use workloads::{scenario_by_name, Scenario, ScenarioConfig, ScenarioState};

/// Load-generating threads; equal to the cores of the host the sizes were
/// chosen on, so the generator never oversubscribes it.
pub const WORKERS: usize = 2;

/// Records per recorder batch, as the streaming runners use.
const BATCH: usize = 256;

/// What every repetition of a commit workload runs.
struct Load {
    scenario: Arc<dyn Scenario>,
    seed: u64,
    per_worker: usize,
}

impl Load {
    fn new(cfg: &RunCfg, per_worker: usize) -> Load {
        let scenario = scenario_by_name("registers").expect("registers is a built-in scenario");
        Load { scenario, seed: cfg.seed, per_worker }
    }

    /// The same load at a tenth of the size, for warm-up.
    fn tenth(&self) -> Load {
        Load {
            scenario: Arc::clone(&self.scenario),
            seed: self.seed,
            per_worker: (self.per_worker / 10).max(1),
        }
    }

    fn expected(&self) -> u64 {
        (WORKERS * self.per_worker) as u64
    }

    fn build(&self, stm: &Stm) -> Box<dyn ScenarioState> {
        let config = ScenarioConfig {
            threads: WORKERS,
            txns_per_thread: self.per_worker,
            vars: VARS,
            seed: self.seed,
            ..ScenarioConfig::new(stm.backend_id())
        };
        self.scenario.build(stm, &config)
    }

    /// The commit workloads' input is the scenario configuration: the
    /// per-worker random streams follow from it.
    fn hash(&self, backends: &[BackendId]) -> u64 {
        let mut h = Fnv::new();
        for id in backends {
            h.bytes(id.name().as_bytes());
        }
        for w in [self.seed, self.per_worker as u64, WORKERS as u64, VARS as u64] {
            h.word(w);
        }
        h.finish()
    }

    /// Run the transactions on [`WORKERS`] threads and return when the first
    /// started and the last finished, as the workers saw it.  `sessions`
    /// registers each worker's audit session, as a recorded run must.
    fn drive(&self, stm: &Stm, state: &dyn ScenarioState, sessions: bool) -> (Instant, Instant) {
        let barrier = Barrier::new(WORKERS);
        let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|thread| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        if sessions {
                            recorder::set_session(thread);
                        }
                        let mut rng = StdRng::seed_from_u64(self.seed ^ ((thread as u64) << 32));
                        barrier.wait();
                        let start = Instant::now();
                        for seq in 0..self.per_worker as u64 {
                            state.run_txn(stm, thread, seq, &mut rng);
                        }
                        let end = Instant::now();
                        recorder::clear_session();
                        (start, end)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("a worker thread panicked")).collect()
        });
        let start = spans.iter().map(|s| s.0).min().expect("at least one worker");
        let end = spans.iter().map(|s| s.1).max().expect("at least one worker");
        (start, end)
    }

    /// Snapshot the statistics, then run the scenario's self-check (which
    /// itself commits, so the order matters).
    fn tally(&self, stm: &Stm, state: &dyn ScenarioState) -> Tally {
        let stats = stm.stats();
        let (commits, aborts) = (stats.commits(), stats.aborts());
        let gave_up = stats.attempts_recorded().saturating_sub(commits);
        let missing = self.expected().saturating_sub(commits);
        let failed = match state.verify(stm).invariant {
            Some(false) => self.expected(),
            _ => (gave_up + missing).min(self.expected()),
        };
        Tally { commits, aborts, failed }
    }
}

/// Commit-side counts of one repetition, checked against what was asked for.
struct Tally {
    commits: u64,
    aborts: u64,
    /// Gave up, went missing, or (all of them) the self-check failed.
    failed: u64,
}

// ---------------------------------------------------------------------------
// commit-sweep
// ---------------------------------------------------------------------------

/// One repetition on each backend in turn, each on a fresh `Stm`: the elapsed
/// seconds and the tally, in backend order.
fn sweep(load: &Load, backends: &[BackendId], tracer: &mut Tracer, run: u32) -> Vec<(f64, Tally)> {
    let root = tracer.open("commit-sweep.round", run, Instant::now());
    let reps = backends
        .iter()
        .map(|&id| {
            let stm = Stm::new(id);
            let state = load.build(&stm);
            let (start, end) = load.drive(&stm, state.as_ref(), false);
            tracer.span("stm-runtime.run", root, start, end, load.expected());
            (secs(start, end), load.tally(&stm, state.as_ref()))
        })
        .collect();
    tracer.close(root, Instant::now());
    reps
}

#[derive(Default)]
struct Lane {
    elapsed: Vec<f64>,
    commits: u64,
    aborts: u64,
}

pub fn commit_sweep(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let load = Load::new(cfg, cfg.scale(150_000));
    let warm_up = load.tenth();

    // Set-up: resolve the backends and warm up thread stacks, allocator
    // arenas and each backend's lazily built tables with a tenth-size sweep.
    let backends = timed_setup(&mut out, || {
        workloads::register_workload_backends();
        let ids = BACKENDS.map(|name| name.parse::<BackendId>().expect("a registered backend"));
        sweep(&warm_up, &ids, tracer, 0);
        ids
    });
    out.header.push(format!(
        "sizes: backends={} txns={WORKERS}x{} vars={VARS} scenario=registers recorder=off",
        backends.len(),
        load.per_worker
    ));
    out.header.push(format!("threads: workers={WORKERS}"));
    out.header.push(format!("input: scenario-config fnv64={:016x}", load.hash(&backends)));
    let registered = stm_runtime::registry::all_ids();
    out.check(registered.len() == backends.len(), || {
        format!("{} backends are registered, the sweep covers {}", registered.len(), backends.len())
    });

    let mut lanes: Vec<Lane> = backends.iter().map(|_| Lane::default()).collect();
    let (mut plain_round, mut traced_round) = (Vec::new(), Vec::new());
    let mut rounds = Rounds::new(cfg, 5);
    while let Some(round) = rounds.next_round() {
        let reps = sweep(&load, &backends, tracer, round);
        plain_round.push(reps.iter().map(|(elapsed, _)| elapsed).sum());
        for (lane, (elapsed, tally)) in lanes.iter_mut().zip(reps) {
            lane.elapsed.push(elapsed);
            lane.commits += tally.commits;
            lane.aborts += tally.aborts;
            out.attempted += load.expected();
            out.failed += tally.failed;
        }
        if cfg.traced {
            let reps = tracer.recording(|tracer| sweep(&load, &backends, tracer, round));
            traced_round.push(reps.iter().map(|(elapsed, _)| elapsed).sum());
        }
    }

    let mut rates = Vec::new();
    let mut worst_spread = 0.0f64;
    for (name, lane) in BACKENDS.iter().zip(&lanes) {
        let rate = load.expected() as f64 / median(&lane.elapsed);
        rates.push(rate);
        out.set_n(&format!("stm-runtime.commits_per_s.{name}"), rate, lane.elapsed.len());
        out.set(
            &format!("stm-runtime.attempts_per_commit.{name}"),
            (lane.commits + lane.aborts) as f64 / lane.commits as f64,
        );
        worst_spread = worst_spread.max(spread_pct(&lane.elapsed));
    }
    out.set_n("txns_per_s", geomean(&rates), lanes[0].elapsed.len());
    out.set("stm-runtime.max_rep_spread_pct", worst_spread);
    out.note_samples("rounds (six backends each)", &plain_round);
    if cfg.traced {
        out.set("trace.overhead_pct", paired_slowdown_pct(&traced_round, &plain_round));
        out.set("trace.accounted_share", tracer.accounted_share());
    }
    out
}

// ---------------------------------------------------------------------------
// live-drain
// ---------------------------------------------------------------------------

/// A sink that only counts: what reached it, and how much of it out of
/// recording order.  Wraps the sink that does the work, if any.
struct Counting<S> {
    inner: S,
    delivered: u64,
    /// Records whose hint is below one already delivered.
    out_of_order: u64,
    /// Whether every session's records arrived in session order (the one
    /// ordering the merger guarantees).
    sessions_in_order: bool,
    max_hint: Option<u64>,
    last_hint: [Option<u64>; WORKERS],
}

impl<S> Counting<S> {
    fn new(inner: S) -> Self {
        Counting {
            inner,
            delivered: 0,
            out_of_order: 0,
            sessions_in_order: true,
            max_hint: None,
            last_hint: [None; WORKERS],
        }
    }
}

impl<S: TxnSink> TxnSink for Counting<S> {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        self.delivered += 1;
        if self.max_hint.is_some_and(|m| txn.hint < m) {
            self.out_of_order += 1;
        }
        self.max_hint = self.max_hint.max(Some(txn.hint));
        if self.last_hint[session].is_some_and(|l| txn.hint <= l) {
            self.sessions_in_order = false;
        }
        self.last_hint[session] = Some(txn.hint);
        self.inner.push_txn(session, txn);
    }
}

/// The end of the line when the auditor is not part of the workload.
struct Discard;

impl TxnSink for Discard {
    fn push_txn(&mut self, _session: usize, txn: AuditTxn) {
        std::hint::black_box(txn);
    }
}

/// A [`Recorder`] that delegates to the streaming recorder and times one call
/// in 64.
struct SampledRecorder {
    inner: Arc<StreamingRecorder>,
    samples_ns: Mutex<Vec<f64>>,
}

thread_local! {
    static TICK: Cell<u32> = const { Cell::new(0) };
}

impl Recorder for SampledRecorder {
    fn on_commit(&self, record: CommitRecord<'_>) {
        let tick = TICK.with(|t| {
            t.set(t.get().wrapping_add(1));
            t.get()
        });
        if !tick.is_multiple_of(64) {
            return self.inner.on_commit(record);
        }
        let start = Instant::now();
        self.inner.on_commit(record);
        let ns = start.elapsed().as_nanos() as f64;
        self.samples_ns.lock().expect("no sampler panicked").push(ns);
    }
}

/// What the consumer thread saw.
struct Drained<S> {
    sink: Counting<S>,
    batches: u64,
    recv_wait_s: f64,
    merger_s: f64,
    done: Instant,
    /// `(name, start, end, records)` for the tracer, kept only when asked.
    spans: Vec<(&'static str, Instant, Instant, u64)>,
}

/// The consumer loop: `recv` → `StreamMerger` → `sink`, until the recorder
/// finishes and the queue drains.
fn drain<S: TxnSink>(consumer: StreamConsumer, inner: S, keep_spans: bool) -> Drained<S> {
    let mut sink = Counting::new(inner);
    let mut merger = StreamMerger::new(WORKERS);
    let (mut batches, mut recv_wait_s, mut merger_s) = (0u64, 0.0, 0.0);
    let mut spans = Vec::new();
    let mut t0 = Instant::now();
    loop {
        let batch = consumer.recv();
        let t1 = Instant::now();
        recv_wait_s += secs(t0, t1);
        if keep_spans {
            spans.push(("recorder.recv_wait", t0, t1, 1));
        }
        let Some(batch) = batch else {
            merger.finish(&mut sink);
            let done = Instant::now();
            merger_s += secs(t1, done);
            if keep_spans {
                spans.push(("merger.finish", t1, done, 1));
            }
            return Drained { sink, batches, recv_wait_s, merger_s, done, spans };
        };
        merger.push_batch(&batch, &mut sink);
        t0 = Instant::now();
        merger_s += secs(t1, t0);
        batches += 1;
        if keep_spans {
            spans.push(("merger.push_batch", t1, t0, batch.records.len() as u64));
        }
    }
}

/// Per-repetition samples of one `live-drain` variant.
#[derive(Default)]
struct DrainSamples {
    wall: Vec<f64>,
    workers: Vec<f64>,
    recv_wait: Vec<f64>,
    merger: Vec<f64>,
    batches: Vec<f64>,
    on_commit_ns: Vec<f64>,
    out_of_order: u64,
    failed: u64,
    errors: Vec<String>,
}

/// One recorded repetition: workers commit while the consumer drains.  With
/// `traced`, the recorder is wrapped in the sampling delegate and the spans
/// are kept.
fn drain_rep(load: &Load, tracer: &mut Tracer, run: u32, traced: bool, samples: &mut DrainSamples) {
    let expected = load.expected();
    let streaming = Arc::new(StreamingRecorder::new(WORKERS, BATCH));
    let consumer = streaming.consumer();
    let sampled = traced.then(|| {
        Arc::new(SampledRecorder { inner: Arc::clone(&streaming), samples_ns: Mutex::default() })
    });
    let recorder: Arc<dyn Recorder> = match &sampled {
        Some(sampled) => Arc::clone(sampled) as _,
        None => Arc::clone(&streaming) as _,
    };
    let mut stm = Stm::with_recorder(TL2_BLOCKING, recorder);
    let state = load.build(&stm);

    let (start, end, drained) = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || drain(consumer, Discard, traced));
        let (start, end) = load.drive(&stm, state.as_ref(), true);
        streaming.finish();
        (start, end, consumer.join().expect("the consumer thread panicked"))
    });
    // Detach before the self-check: its transactions are not part of the run.
    stm.take_recorder();
    let tally = load.tally(&stm, state.as_ref());

    let root = tracer.open("live-drain.rep", run, start);
    tracer.span("stm-runtime.run+recorder.on_commit", root, start, end, expected);
    for (name, s, e, n) in drained.spans {
        tracer.span(name, root, s, e, n);
    }
    tracer.close(root, drained.done);

    let sink = drained.sink;
    samples.wall.push(secs(start, drained.done));
    samples.workers.push(secs(start, end));
    samples.recv_wait.push(drained.recv_wait_s);
    samples.merger.push(drained.merger_s);
    samples.batches.push(drained.batches as f64);
    samples.out_of_order += sink.out_of_order;
    samples.failed += tally.failed.max(expected.saturating_sub(sink.delivered));
    if let Some(sampled) = sampled {
        samples.on_commit_ns.append(&mut sampled.samples_ns.lock().expect("no sampler panicked"));
    }
    if sink.delivered != tally.commits || tally.commits != expected {
        samples.errors.push(format!(
            "run {run}: {} commits, {} records delivered, {expected} expected",
            tally.commits, sink.delivered
        ));
    }
    if !sink.sessions_in_order {
        samples.errors.push(format!("run {run}: the merger broke a session's order"));
    }
}

pub fn live_drain(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let load = Load::new(cfg, cfg.scale(300_000));
    let warm_up = load.tenth();
    let n = load.expected() as f64;

    // Set-up: a tenth-size recorded run, which builds everything a repetition
    // builds and warms the same paths.
    let warmed = timed_setup(&mut out, || {
        let mut samples = DrainSamples::default();
        drain_rep(&warm_up, tracer, 0, false, &mut samples);
        samples
    });
    out.errors.extend(warmed.errors);
    out.header.push(format!(
        "sizes: backend={TL2_BLOCKING} txns={WORKERS}x{} vars={VARS} scenario=registers \
         recorder=streaming({WORKERS},{BATCH}) sink=counting",
        load.per_worker
    ));
    out.header.push(format!("threads: workers={WORKERS} consumer=1"));
    out.header.push(format!("input: scenario-config fnv64={:016x}", load.hash(&[TL2_BLOCKING])));

    let (mut plain, mut traced, mut tele) =
        (DrainSamples::default(), DrainSamples::default(), DrainSamples::default());
    let mut twin: Vec<f64> = Vec::new();
    let mut rounds = Rounds::new(cfg, 5);
    while let Some(run) = rounds.next_round() {
        drain_rep(&load, tracer, run, false, &mut plain);
        if !cfg.traced {
            continue;
        }
        tracer.recording(|tracer| drain_rep(&load, tracer, run, true, &mut traced));
        // The interleaved twin without a recorder.
        let stm = Stm::new(TL2_BLOCKING);
        let state = load.build(&stm);
        let (start, end) = load.drive(&stm, state.as_ref(), false);
        twin.push(secs(start, end));
        out.check(load.tally(&stm, state.as_ref()).failed == 0, || {
            format!("run {run}: the unrecorded twin lost transactions")
        });
        // The same repetition with metric production on.
        tm_telemetry::set_enabled(true);
        drain_rep(&load, tracer, run, false, &mut tele);
        tm_telemetry::set_enabled(false);
    }

    out.attempted = load.expected() * plain.wall.len() as u64;
    out.failed = plain.failed;
    for samples in [&mut plain, &mut traced, &mut tele] {
        out.errors.append(&mut samples.errors);
    }
    let wall = median(&plain.wall);
    out.set_n("txns_per_s", n / wall, plain.wall.len());
    out.note_samples("repetitions (start to consumer done)", &plain.wall);
    out.set("recorder.commits_per_s", n / median(&plain.workers));
    out.set("recorder.batches", median(&plain.batches));
    out.set("recorder.recv_wait_s", median(&plain.recv_wait));
    out.set("merger.self_s", median(&plain.merger));
    out.set("merger.records_per_s", n / median(&plain.merger));
    out.set("merger.out_of_order_records", plain.out_of_order as f64 / plain.wall.len() as f64);
    if cfg.traced {
        let samples = traced.on_commit_ns.len();
        out.set("recorder.unrecorded_commits_per_s", n / median(&twin));
        out.set("recorder.overhead_ns_per_commit", 1e9 * paired_diff(&plain.workers, &twin) / n);
        out.set_n("recorder.on_commit_p50_ns", quantile(&traced.on_commit_ns, 0.5), samples);
        out.set_n("recorder.on_commit_p99_ns", quantile(&traced.on_commit_ns, 0.99), samples);
        out.set("telemetry.enabled_overhead_pct", paired_slowdown_pct(&tele.wall, &plain.wall));
        out.set("trace.overhead_pct", paired_slowdown_pct(&traced.wall, &plain.wall));
        out.set("trace.accounted_share", tracer.accounted_share());
        out.notes.push(format!(
            "recorder on vs off: {:.0} vs {:.0} commits/s with {WORKERS} workers ({:.2}x, {} rounds interleaved)",
            n / median(&plain.workers),
            n / median(&twin),
            median(&plain.workers) / median(&twin),
            twin.len()
        ));
        live_pipeline(cfg, &mut out);
    }
    out
}

/// One live tl2 → recorder → merger → `WindowedAuditor` run, for the
/// trajectory of ROADMAP's baseline row (2 × 50k `registers`).  Informational:
/// the recorded history differs from run to run, and so does the cost of
/// auditing it (runs whose DFS budget runs out take 3–6× longer), so nothing
/// here is gated or counted as an operation.
fn live_pipeline(cfg: &RunCfg, out: &mut Outcome) {
    let load = Load::new(cfg, cfg.scale(50_000));
    let streaming = Arc::new(StreamingRecorder::new(WORKERS, BATCH));
    let consumer = streaming.consumer();
    let mut stm = Stm::with_recorder(TL2_BLOCKING, Arc::clone(&streaming) as _);
    let state = load.build(&stm);
    let (start, end, sink, verdict_at, report) = std::thread::scope(|scope| {
        let auditor = scope.spawn(move || {
            let auditor = WindowedAuditor::new(VARS, 0, WindowConfig::sized(2_048));
            let Counting { inner, delivered, out_of_order, .. } =
                drain(consumer, auditor, false).sink;
            let report = inner.finish();
            ((delivered, out_of_order), Instant::now(), report)
        });
        let (start, end) = load.drive(&stm, state.as_ref(), true);
        streaming.finish();
        let (sink, verdict_at, report) = auditor.join().expect("the auditor thread panicked");
        (start, end, sink, verdict_at, report)
    });
    stm.take_recorder();
    let (delivered, out_of_order) = sink;
    let mut cells = Cells::default();
    for window in &report.windows {
        cells.judge(&window.report, Expect::Healthy, false);
    }
    cells.judge(&report.merged, Expect::Healthy, true);
    out.set("pipeline.live.txns_per_s", load.expected() as f64 / secs(start, verdict_at));
    out.set("pipeline.live.verdict_lag_s", secs(end, verdict_at));
    out.set("pipeline.live.undecided_cells", cells.undecided as f64);
    out.set("pipeline.live.out_of_order_records", out_of_order as f64);
    out.notes.push(format!(
        "pipeline.live: {WORKERS}x{} tl2 -> recorder -> merger -> window(2048): {delivered} delivered, \
         run {:.3} s, verdict {:.3} s after run end, {} | {} of {} cells undecided, {} convicted \
         (informational: live histories are not repeatable)",
        load.per_worker,
        secs(start, end),
        secs(end, verdict_at),
        report.merged.summary(),
        cells.undecided,
        cells.attempted,
        cells.wrong,
    ));
}
