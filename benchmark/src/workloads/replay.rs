//! The windowed audit workloads: `replay-healthy`, `ingest-skew`,
//! `replay-sharded` and `wal-round`.
//!
//! All four feed a fixed, generated history in recording order from one
//! thread and time every push from outside.  A push during which
//! `windows_closed()` advances is a *closing* push — the window's last
//! transaction in, its verdict out — and everything else is ingest, so
//! `window.ingest_s + window.close_s + window.finish_s` is the wall time of
//! the audit.

use super::{secs, timed_setup, Cells, Expect, Rounds, RunCfg};
use crate::host;
use crate::inputs::{
    gen_config, hash_bytes, hash_history, healthy, hint_order, EVENTS, SESSIONS, VARS,
};
use crate::metrics::Outcome;
use crate::stats::{median, paired_diff, paired_slowdown_pct, quantile};
use crate::trace::{SpanId, Tracer};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;
use stm_runtime::wal::{recover_round, WalSink};
use tm_audit::{
    AuditHistory, AuditTxn, ShardConfig, ShardedAuditor, StreamReport, TxnSink, WindowConfig,
    WindowedAuditor,
};
use tm_history::{encode, generate, Decoder};
use workloads::{recover_round_report, WalTee};

/// The window every auditor here runs.
const WINDOW: usize = 2_048;

/// Non-closing pushes aggregated into one span.
const SPAN_PUSHES: u64 = 256;

type Stream = Vec<(usize, AuditTxn)>;

fn window_config() -> WindowConfig {
    WindowConfig::sized(WINDOW)
}

/// A sink whose window closes can be observed from outside.
trait Windowed: TxnSink {
    fn closed(&self) -> usize;
    /// When the last closing push handed over from the auditor to the log's
    /// seal; only a logged round has one.
    fn seal_started(&self) -> Option<Instant> {
        None
    }
}

impl Windowed for WindowedAuditor {
    fn closed(&self) -> usize {
        self.windows_closed()
    }
}

/// What [`feed`] measured.
#[derive(Default)]
struct Fed {
    ingest_s: f64,
    close_s: f64,
    closes_ms: Vec<f64>,
    seals_ms: Vec<f64>,
    ingest_pushes: u64,
}

/// Push `stream` into `sink`, timing every push.  Consecutive clock reads are
/// shared between neighbouring pushes, so the spans tile the loop.
fn feed<W: Windowed>(sink: &mut W, stream: Stream, tracer: &mut Tracer, root: SpanId) -> Fed {
    let mut fed = Fed::default();
    let mut closed = sink.closed();
    let mut prev = Instant::now();
    let (mut agg_start, mut agg_n) = (prev, 0u64);
    for (session, txn) in stream {
        sink.push_txn(session, txn);
        let now = Instant::now();
        let now_closed = sink.closed();
        if now_closed == closed {
            fed.ingest_s += secs(prev, now);
            fed.ingest_pushes += 1;
            agg_n += 1;
            if agg_n == SPAN_PUSHES {
                tracer.span("window.ingest", root, agg_start, now, agg_n);
                (agg_start, agg_n) = (now, 0);
            }
        } else {
            closed = now_closed;
            if agg_n > 0 {
                tracer.span("window.ingest", root, agg_start, prev, agg_n);
            }
            let close = tracer.span("window.close", root, prev, now, 1);
            if let Some(seal) = sink.seal_started() {
                tracer.span("wal.seal", close, seal, now, 1);
                fed.seals_ms.push(1e3 * secs(seal, now));
            }
            fed.close_s += secs(prev, now);
            fed.closes_ms.push(1e3 * secs(prev, now));
            (agg_start, agg_n) = (now, 0);
        }
        prev = now;
    }
    if agg_n > 0 {
        tracer.span("window.ingest", root, agg_start, prev, agg_n);
    }
    fed
}

/// Per-repetition samples of a windowed audit and the metrics they yield.
#[derive(Default)]
struct WindowSamples {
    wall: Vec<f64>,
    ingest: Vec<f64>,
    close: Vec<f64>,
    finish: Vec<f64>,
    metered_share: Vec<f64>,
    closes_ms: Vec<f64>,
    seals_ms: Vec<f64>,
    ingest_pushes: u64,
    windows: usize,
    peak_closure_bytes: usize,
    first_conviction_txn: u64,
    cells: Cells,
}

impl WindowSamples {
    /// Add one repetition.  `extra_s` is wall time outside the auditor that
    /// belongs to the operation (decode, log finish).
    fn add(
        &mut self,
        fed: Fed,
        finish_s: f64,
        extra_s: f64,
        report: &StreamReport,
        expect: Expect,
    ) {
        let metered: f64 = report.windows.iter().map(|w| w.audit_elapsed.as_secs_f64()).sum();
        self.wall.push(fed.ingest_s + fed.close_s + finish_s + extra_s);
        self.metered_share.push(metered / (fed.ingest_s + fed.close_s));
        self.ingest.push(fed.ingest_s);
        self.close.push(fed.close_s);
        self.finish.push(finish_s);
        self.closes_ms.extend(fed.closes_ms);
        self.seals_ms.extend(fed.seals_ms);
        self.ingest_pushes = fed.ingest_pushes;
        self.windows = report.windows.len();
        self.peak_closure_bytes = report.peak_closure_bytes;
        self.first_conviction_txn = report.first_conviction.as_ref().map_or(0, |c| c.txns_seen);
        for window in &report.windows {
            self.cells.judge(&window.report, expect, false);
        }
        self.cells.judge(&report.merged, expect, true);
    }

    fn publish(&self, out: &mut Outcome, txns: usize) {
        out.set_n("txns_per_s", txns as f64 / median(&self.wall), self.wall.len());
        out.note_samples("repetitions", &self.wall);
        out.set("window.ingest_s", median(&self.ingest));
        out.set("window.close_s", median(&self.close));
        out.set("window.finish_s", median(&self.finish));
        out.set("window.ingest_ns_per_txn", 1e9 * median(&self.ingest) / self.ingest_pushes as f64);
        out.set_n("window.close_p50_ms", quantile(&self.closes_ms, 0.5), self.closes_ms.len());
        out.set_n("window.close_p90_ms", quantile(&self.closes_ms, 0.9), self.closes_ms.len());
        out.set_n("window_verdict_p50_ms", quantile(&self.closes_ms, 0.5), self.closes_ms.len());
        out.set("window.windows", self.windows as f64);
        out.set("window.metered_share", median(&self.metered_share));
        out.set("window.peak_closure_bytes", self.peak_closure_bytes as f64);
        out.set("window.undecided_cells", self.cells.undecided as f64 / self.wall.len() as f64);
        out.set("window.first_conviction_txn", self.first_conviction_txn as f64);
        self.cells.report(out);
    }
}

/// One replay of `stream` through a fresh [`WindowedAuditor`].
fn replay_rep(stream: Stream, tracer: &mut Tracer, run: u32, samples: &mut WindowSamples) {
    let mut auditor = WindowedAuditor::new(VARS, 0, window_config());
    let start = Instant::now();
    let root = tracer.open("replay.rep", run, start);
    let fed = feed(&mut auditor, stream, tracer, root);
    let t = Instant::now();
    let report = auditor.finish();
    let end = Instant::now();
    tracer.span("window.finish", root, t, end, 1);
    tracer.close(root, end);
    samples.add(fed, secs(t, end), 0.0, &report, Expect::Healthy);
}

/// A healthy history of `txns` transactions as its recording-order stream,
/// with the hash of the history it came from.
fn healthy_stream(seed: u64, txns: usize) -> (Stream, u64) {
    let history = healthy(seed, txns);
    let hash = hash_history(&history);
    (hint_order(history), hash)
}

fn describe(out: &mut Outcome, what: &str, txns: usize, hash: u64) {
    out.header.push(format!(
        "sizes: txns={txns} sessions={SESSIONS} vars={VARS} events_per_txn={EVENTS} window={WINDOW}"
    ));
    out.header.push("threads: feeder=1".to_string());
    out.header.push(format!("input: {what} fnv64={hash:016x}"));
}

fn trace_metrics(out: &mut Outcome, tracer: &Tracer, traced_wall: &[f64], plain_wall: &[f64]) {
    out.set("trace.overhead_pct", paired_slowdown_pct(traced_wall, plain_wall));
    out.set("trace.accounted_share", tracer.accounted_share());
}

// ---------------------------------------------------------------------------
// replay-healthy
// ---------------------------------------------------------------------------

pub fn replay_healthy(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let txns = cfg.txns(25_000);
    let (stream, hash) = timed_setup(&mut out, || healthy_stream(cfg.seed, txns));
    describe(&mut out, "generated healthy history", txns, hash);
    out.check(stream.len() == txns, || format!("generated {} of {txns} txns", stream.len()));

    let (mut plain, mut traced, mut tele) =
        (WindowSamples::default(), WindowSamples::default(), WindowSamples::default());
    let mut rounds = Rounds::new(cfg, 3);
    while let Some(run) = rounds.next_round() {
        replay_rep(stream.clone(), tracer, run, &mut plain);
        if !cfg.traced {
            continue;
        }
        tracer.recording(|tracer| replay_rep(stream.clone(), tracer, run, &mut traced));
        tm_telemetry::set_enabled(true);
        replay_rep(stream.clone(), tracer, run, &mut tele);
        tm_telemetry::set_enabled(false);
    }
    plain.publish(&mut out, txns);
    if cfg.traced {
        trace_metrics(&mut out, tracer, &traced.wall, &plain.wall);
        out.set("telemetry.enabled_overhead_pct", paired_slowdown_pct(&tele.wall, &plain.wall));
    }
    out
}

// ---------------------------------------------------------------------------
// ingest-skew
// ---------------------------------------------------------------------------

pub fn ingest_skew(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let txns = cfg.txns(25_000);
    let mut encode_s = Vec::new();
    let (generated, wire) = timed_setup(&mut out, || {
        let generated = generate(&gen_config(cfg.seed, txns, 2));
        let start = Instant::now();
        let wire = encode(&generated.history);
        encode_s.push(start.elapsed().as_secs_f64());
        (generated, wire)
    });
    describe(
        &mut out,
        "generated wire document, write_skew_per_mille=2",
        txns,
        hash_bytes(wire.as_bytes()),
    );
    let mb = wire.len() as f64 / 1e6;
    out.header.push(format!(
        "sizes: wire_bytes={} write_skew_plants={}",
        wire.len(),
        generated.planted.write_skews
    ));
    out.check(
        generated.planted.write_skews > 0
            && generated.planted.total() == generated.planted.write_skews,
        || format!("expected write-skew plants only, got {:?}", generated.planted),
    );

    let (mut plain, mut traced) = (WindowSamples::default(), WindowSamples::default());
    let mut decode_s = Vec::new();
    let mut rep = |tracer: &mut Tracer,
                   run: u32,
                   samples: &mut WindowSamples,
                   out: &mut Outcome| {
        let start = Instant::now();
        let root = tracer.open("ingest.rep", run, start);
        let decoded = Decoder::new(wire.as_bytes()).next_history();
        let t_decoded = Instant::now();
        tracer.span("wire.decode", root, start, t_decoded, 1);
        let history: AuditHistory = match decoded {
            Ok(Some(history)) => history,
            other => {
                out.errors.push(format!("run {run}: the wire document did not decode: {other:?}"));
                return;
            }
        };
        out.check(history == generated.history, || format!("run {run}: decode(encode(h)) != h"));
        // What `audit_streamed` does, with the pushes timed: order by hint,
        // push, finish.
        let t_order = Instant::now();
        let stream = hint_order(history);
        let mut auditor = WindowedAuditor::new(VARS, 0, window_config());
        let t_feed = Instant::now();
        tracer.span("replay.hint_order", root, t_order, t_feed, 1);
        let fed = feed(&mut auditor, stream, tracer, root);
        let t_finish = Instant::now();
        let report = auditor.finish();
        let end = Instant::now();
        tracer.span("window.finish", root, t_finish, end, 1);
        tracer.close(root, end);
        let decode = secs(start, t_decoded);
        decode_s.push(decode);
        samples.add(
            fed,
            secs(t_finish, end),
            decode + secs(t_order, t_feed),
            &report,
            Expect::SkewOnly,
        );
    };
    let mut rounds = Rounds::new(cfg, 3);
    while let Some(run) = rounds.next_round() {
        rep(tracer, run, &mut plain, &mut out);
        if cfg.traced {
            tracer.recording(|tracer| rep(tracer, run, &mut traced, &mut out));
        }
    }
    plain.publish(&mut out, txns);
    out.set_n("wire.decode_s", median(&decode_s), decode_s.len());
    out.set("wire.decode_mb_per_s", mb / median(&decode_s));
    out.set_n("wire.encode_mb_per_s", mb / median(&encode_s), encode_s.len());
    out.set("wire.bytes_per_txn", wire.len() as f64 / txns as f64);
    if cfg.traced {
        trace_metrics(&mut out, tracer, &traced.wall, &plain.wall);
    }
    out
}

// ---------------------------------------------------------------------------
// replay-sharded
// ---------------------------------------------------------------------------

const SHARDS: usize = 2;

#[derive(Default)]
struct ShardSamples {
    wall: Vec<f64>,
    route: Vec<f64>,
    drain: Vec<f64>,
    projections_per_txn: f64,
    skew: f64,
    escalated: u64,
    peak_closure_bytes: usize,
    cells: Cells,
    lane_undecided: u64,
}

fn sharded_rep(
    stream: Stream,
    tracer: &mut Tracer,
    run: u32,
    samples: &mut ShardSamples,
    out: &mut Outcome,
) {
    let txns = stream.len() as u64;
    let mut auditor = ShardedAuditor::new(VARS, 0, ShardConfig::new(SHARDS, window_config()));
    let start = Instant::now();
    let root = tracer.open("sharded.rep", run, start);
    let (mut agg_start, mut agg_n) = (start, 0u64);
    for (session, txn) in stream {
        auditor.push(session, txn);
        agg_n += 1;
        if agg_n == SPAN_PUSHES {
            let now = Instant::now();
            tracer.span("partition.route", root, agg_start, now, agg_n);
            (agg_start, agg_n) = (now, 0);
        }
    }
    let routed = Instant::now();
    if agg_n > 0 {
        tracer.span("partition.route", root, agg_start, routed, agg_n);
    }
    let report = auditor.finish();
    let end = Instant::now();
    tracer.span("partition.drain", root, routed, end, 1);
    tracer.close(root, end);

    samples.wall.push(secs(start, end));
    samples.route.push(secs(start, routed));
    samples.drain.push(secs(routed, end));
    let lanes: Vec<f64> =
        report.partitions.iter().filter(|p| !p.escalation).map(|p| p.routed_txns as f64).collect();
    let routed_total: u64 = report.partitions.iter().map(|p| p.routed_txns).sum();
    samples.projections_per_txn = routed_total as f64 / txns as f64;
    samples.skew =
        lanes.iter().copied().fold(0.0, f64::max) * lanes.len() as f64 / lanes.iter().sum::<f64>();
    samples.escalated = report.escalated_txns;
    samples.peak_closure_bytes = report.peak_closure_bytes();
    // Operations are the cells a verdict rests on: every partition window and
    // the merged report.  The escalation lane is a refutation-only recheck
    // whose `?` the merge treats as advisory, so its undecided cells are
    // counted apart and reported, not charged as failed operations.
    for partition in &report.partitions {
        let mut cells = Cells::default();
        for window in &partition.stream.windows {
            cells.judge(&window.report, Expect::Healthy, false);
        }
        if partition.escalation {
            samples.lane_undecided += cells.undecided;
            out.check(cells.wrong == 0, || {
                format!("run {run}: the escalation lane convicted a healthy input")
            });
        } else {
            samples.cells.add(cells);
        }
    }
    samples.cells.judge(&report.merged, Expect::Healthy, true);
    out.check(report.total_txns == txns, || {
        format!("run {run}: routed {} of {txns}", report.total_txns)
    });
}

pub fn replay_sharded(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let txns = cfg.txns(30_000);
    let (stream, hash) = timed_setup(&mut out, || healthy_stream(cfg.seed, txns));
    describe(&mut out, "generated healthy history", txns, hash);
    out.header.push(format!(
        "sizes: shards={SHARDS} (auditor threads: {SHARDS} partitions + 1 escalation lane)"
    ));

    let (mut plain, mut traced) = (ShardSamples::default(), ShardSamples::default());
    let mut rounds = Rounds::new(cfg, 3);
    while let Some(run) = rounds.next_round() {
        sharded_rep(stream.clone(), tracer, run, &mut plain, &mut out);
        if cfg.traced {
            tracer.recording(|tracer| {
                sharded_rep(stream.clone(), tracer, run, &mut traced, &mut out)
            });
        }
    }
    let reps = plain.wall.len();
    out.set_n("txns_per_s", txns as f64 / median(&plain.wall), reps);
    out.note_samples("repetitions", &plain.wall);
    out.set("partition.route_s", median(&plain.route));
    out.set("partition.drain_s", median(&plain.drain));
    out.set("partition.projections_per_txn", plain.projections_per_txn);
    out.set("partition.skew", plain.skew);
    out.set("partition.escalated_txns", plain.escalated as f64);
    out.set(
        "partition.undecided_cells",
        (plain.cells.undecided + plain.lane_undecided) as f64 / reps as f64,
    );
    out.set("partition.peak_closure_bytes", plain.peak_closure_bytes as f64);
    if plain.lane_undecided > 0 {
        out.notes.push(format!(
            "escalation lane: {} undecided cells per repetition (advisory, not charged as failed)",
            plain.lane_undecided / reps as u64
        ));
    }
    plain.cells.report(&mut out);
    if cfg.traced {
        trace_metrics(&mut out, tracer, &traced.wall, &plain.wall);
    }
    out
}

// ---------------------------------------------------------------------------
// wal-round
// ---------------------------------------------------------------------------

/// The logged lane: a [`WalTee`] whose `pre_seal` hook marks each window
/// close (the tee owns its auditor, so the hook is the outside view) and
/// when the seal began.
struct WalLane {
    tee: WalTee<Box<dyn FnMut()>>,
    closed: Rc<Cell<usize>>,
    seal_started: Rc<Cell<Option<Instant>>>,
}

impl WalLane {
    fn create(dir: &Path) -> std::io::Result<WalLane> {
        let closed = Rc::new(Cell::new(0));
        let seal_started = Rc::new(Cell::new(None));
        let (c, s) = (Rc::clone(&closed), Rc::clone(&seal_started));
        let hook: Box<dyn FnMut()> = Box::new(move || {
            c.set(c.get() + 1);
            s.set(Some(Instant::now()));
        });
        let auditor = WindowedAuditor::new(VARS, 0, window_config());
        Ok(WalLane {
            tee: WalTee::create(dir, SESSIONS, VARS, auditor, hook)?,
            closed,
            seal_started,
        })
    }
}

impl TxnSink for WalLane {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        self.tee.push_txn(session, txn);
    }
}

impl Windowed for WalLane {
    fn closed(&self) -> usize {
        self.closed.get()
    }
    fn seal_started(&self) -> Option<Instant> {
        self.seal_started.get()
    }
}

/// Bytes of the regular files in `dir` whose names `select` accepts.
fn dir_bytes(dir: &Path, select: impl Fn(&str) -> bool) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() && select(&entry.file_name().to_string_lossy()) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[derive(Default)]
struct WalSamples {
    recover: Vec<f64>,
    verify: Vec<f64>,
    append: Vec<f64>,
    twin_wall: Vec<f64>,
    bytes_per_txn: f64,
    seals: u64,
    segment_bytes: u64,
    frontier_bytes: u64,
    replayed_txns: u64,
}

/// One logged round, its crash copy and the recovery of that copy.
fn wal_rep(
    stream: &Stream,
    scratch: &Path,
    tracer: &mut Tracer,
    run: u32,
    window: &mut WindowSamples,
    wal: &mut WalSamples,
    per_layer: bool,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("run {run}: {e}");
    let txns = stream.len() as u64;
    let (round, crashed) = (scratch.join("round-0000"), scratch.join("crashed/round-0000"));
    let _ = std::fs::remove_dir_all(scratch);
    let mut lane = WalLane::create(&round).map_err(io)?;
    let input = stream.clone();

    let start = Instant::now();
    let root = tracer.open("wal.rep", run, start);
    let fed = feed(&mut lane, input, tracer, root);
    // The crash: a byte copy of the round as the last push left it — an
    // unsealed tail and no `complete.json`.  Copying is the harness's work
    // and stays outside the round's wall time.
    let t_crash = Instant::now();
    copy_dir(&round, &crashed).map_err(io)?;
    let verify_copy = scratch.join("verify/round-0000");
    if per_layer {
        copy_dir(&round, &verify_copy).map_err(io)?;
    }
    let t_finish = Instant::now();
    tracer.span("harness.crash_copy", root, t_crash, t_finish, 1);
    let (auditor, stats) = lane.tee.finish().map_err(io)?;
    let t_logged = Instant::now();
    tracer.span("wal.finish", root, t_finish, t_logged, 1);
    let report = auditor.finish();
    let end = Instant::now();
    tracer.span("window.finish", root, t_logged, end, 1);
    tracer.close(root, end);
    window.add(fed, secs(t_logged, end), secs(t_finish, t_logged), &report, Expect::Healthy);

    let on_disk = dir_bytes(&round, |_| true).map_err(io)?;
    wal.bytes_per_txn = on_disk as f64 / stats.logged_txns as f64;
    wal.seals = stats.sealed_segments;
    wal.segment_bytes =
        dir_bytes(&round, |n| n.starts_with("segment-") && n.ends_with(".tmh")).map_err(io)?;
    wal.frontier_bytes = dir_bytes(&round, |n| n.starts_with("frontier-")).map_err(io)?;
    if stats.logged_txns != txns {
        return Err(format!("run {run}: logged {} of {txns} txns", stats.logged_txns));
    }

    let t_recover = Instant::now();
    let recovered = recover_round_report(&crashed, window_config(), None)
        .map_err(|e| format!("run {run}: recovery failed: {e}"))?;
    let t_recovered = Instant::now();
    let recover_root = tracer.open("wal.recover", run, t_recover);
    tracer.span("recovery.recover_round_report", recover_root, t_recover, t_recovered, 1);
    tracer.close(recover_root, t_recovered);
    wal.recover.push(secs(t_recover, t_recovered));
    wal.replayed_txns = recovered.replayed_txns;
    if recovered.stream.merged != report.merged || recovered.stream.total_txns != report.total_txns
    {
        return Err(format!(
            "run {run}: recovered verdict {} over {} txns, uninterrupted {} over {}",
            recovered.stream.merged.summary(),
            recovered.stream.total_txns,
            report.merged.summary(),
            report.total_txns
        ));
    }
    if recovered.snapshot_txns + recovered.replayed_txns != txns {
        return Err(format!(
            "run {run}: snapshot {} + replayed {} != {txns} logged",
            recovered.snapshot_txns, recovered.replayed_txns
        ));
    }

    if per_layer {
        // Verification alone (seal length + CRC, torn-tail truncation).
        let t = Instant::now();
        recover_round(&verify_copy).map_err(io)?;
        wal.verify.push(t.elapsed().as_secs_f64());
        // The log alone: every record appended, nothing sealed or audited.
        let alone = scratch.join("append/round-0000");
        let mut sink = WalSink::create(&alone, SESSIONS, VARS, 0).map_err(io)?;
        let mut seqs = [0u64; SESSIONS];
        let t = Instant::now();
        for (session, txn) in stream {
            sink.append_txn(*session, seqs[*session], txn.hint, &txn.reads, &txn.writes)
                .map_err(io)?;
            seqs[*session] += 1;
        }
        wal.append.push(t.elapsed().as_secs_f64());
        drop(sink);
        // The twin round without the log.
        let mut twin = WindowSamples::default();
        replay_rep(stream.clone(), tracer, run, &mut twin);
        wal.twin_wall.extend(twin.wall);
    }
    std::fs::remove_dir_all(scratch).map_err(io)
}

pub fn wal_round(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let txns = cfg.txns(20_000);
    let scratch: PathBuf =
        host::package_dir().join("out").join(format!("wal-{}", std::process::id()));
    let (stream, hash) = timed_setup(&mut out, || {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("a writable benchmark/out");
        healthy_stream(cfg.seed, txns)
    });
    describe(&mut out, "generated healthy history", txns, hash);

    let (mut plain, mut traced) = (WindowSamples::default(), WindowSamples::default());
    let (mut wal, mut wal_traced) = (WalSamples::default(), WalSamples::default());
    let mut rounds = Rounds::new(cfg, 3);
    while let Some(run) = rounds.next_round() {
        if let Err(e) = wal_rep(&stream, &scratch, tracer, run, &mut plain, &mut wal, cfg.traced) {
            out.errors.push(e);
            break;
        }
        if cfg.traced {
            let rep = tracer.recording(|tracer| {
                wal_rep(&stream, &scratch, tracer, run, &mut traced, &mut wal_traced, false)
            });
            if let Err(e) = rep {
                out.errors.push(e);
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if plain.wall.is_empty() {
        return out;
    }

    plain.publish(&mut out, txns);
    out.set_n("recover_s", median(&wal.recover), wal.recover.len());
    out.set("bytes_per_txn", wal.bytes_per_txn);
    out.set_n("wal.seal_p50_ms", quantile(&plain.seals_ms, 0.5), plain.seals_ms.len());
    out.set("wal.seals", wal.seals as f64);
    out.set("wal.segment_bytes", wal.segment_bytes as f64);
    out.set("wal.frontier_bytes", wal.frontier_bytes as f64);
    out.set("wal.replayed_txns", wal.replayed_txns as f64);
    if cfg.traced {
        out.set("wal.overhead_s", paired_diff(&plain.wall, &wal.twin_wall));
        out.set("wal.append_txns_per_s", txns as f64 / median(&wal.append));
        out.set("wal.recover_verify_s", median(&wal.verify));
        out.set("wal.recover_replay_s", paired_diff(&wal.recover, &wal.verify));
        trace_metrics(&mut out, tracer, &traced.wall, &plain.wall);
        out.notes.push(format!(
            "log cost: {:+.1}% on the twin round without the log (median over {} paired rounds); \
             {} B on disk for {} B of records",
            paired_slowdown_pct(&plain.wall, &wal.twin_wall),
            wal.twin_wall.len(),
            (wal.bytes_per_txn * txns as f64) as u64,
            wal.segment_bytes
        ));
    }
    out
}
