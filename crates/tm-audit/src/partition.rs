//! The sharded streaming audit engine: one windowed auditor per variable
//! partition, with a cross-partition escalation lane.
//!
//! **What was measured.**  Sharding was built when a window cost ~35 µs per
//! transaction; at today's 0.9–3 µs routing a transaction costs about what
//! auditing it does.  At commit `fe9fd64` on a 2-core host, `benchmark/`'s
//! `replay-sharded` (K = 2) sustains 126k txn/s against `replay-healthy`'s
//! 713k through one [`WindowedAuditor`] on the same kind of input, and leaves
//! 215 lane cells `?` that K = 1 decides.  Nothing defaults to this
//! topology; ROADMAP item 5 ("make sharding pay, or delete it") decides its
//! future.  The live surface does not depend on it: the event feed
//! ([`AuditEvent`]) belongs to the windowed auditor, and this module only
//! labels its lanes.
//!
//! The [`crate::window::WindowedAuditor`] bounded the *memory* of a streaming
//! audit but consumes the merged stream on one core.  Following the
//! per-variable / communication-graph decomposition of dbcop-style checking
//! (Biswas & Enea, *"On the Complexity of Checking Transactional
//! Consistency"*), a [`ShardedAuditor`] splits the
//! variable space into [`stm_runtime::ROUTE_BANDS`] hash bands
//! ([`stm_runtime::route_band`]: pair-aligned so two-word objects at even
//! word bases — the allocation pattern of every built-in scenario — never
//! straddle, then mixed so bands spread) and assigns each of `K` partitions
//! a contiguous run of bands:
//!
//! * every committed transaction is **routed** to each partition whose band
//!   set intersects its footprint, carrying only the *projection* of its read
//!   and write sets onto that partition's variables;
//! * each partition runs its own [`WindowedAuditor`] on its own thread over
//!   the projected sub-history (bounded queues between router and partitions
//!   apply backpressure, so memory stays bounded end to end).  Partition
//!   windows are **horizon-preserving**: [`ShardConfig::window`] names the
//!   *global* window shape, and each partition — seeing ~`1/K` of the
//!   stream — audits windows of `size / K` of its own sub-stream, the same
//!   span of global history per window as the unsharded engine;
//! * transactions whose footprint spans **two or more bands** are
//!   additionally **escalated whole** to a dedicated cross-partition lane — a
//!   further windowed auditor over the unprojected straddlers — so the
//!   anomalies a projection cannot see (a write-skew pair over two bands, a
//!   fractured read split across partitions) are re-checked against the full
//!   footprints of everyone who straddles.  The lane is a **bounded,
//!   refutation-only recheck**: its polynomial refutations (cross-window
//!   lost update, same-source write skew, causal-cycle saturation) run at
//!   full strength and its convictions win the merge, but its SI/SER
//!   *witness* searches run on a slashed budget (1 024 DFS states, over
//!   windows capped at 256 transactions) and a lane `Unknown` is advisory —
//!   the lane's sub-history omits every non-straddling transaction by
//!   construction, so a witness search there cannot decide anything the
//!   per-partition verdicts do not already attest;
//! * a coordinator ([`ShardedAuditor::finish`]) stitches the per-partition
//!   verdicts into one [`ShardedStreamReport`].
//!
//! # Soundness
//!
//! Sharded verdicts inherit — and further weaken the attestation half of —
//! the windowed soundness statement (see [`crate::window`]):
//!
//! * **Convictions are sound.**  A partition's sub-history contains only real
//!   facts: session order restricted to a subsequence still holds, and every
//!   write-read edge over an in-band variable holds verbatim (a partition
//!   owns *all* writers of its variables, so write attribution inside a
//!   partition is exact).  Any serialization of the whole run restricts to a
//!   serialization of each projected sub-history — so when a partition (or
//!   the escalation lane) refutes a level, **the whole run violates that
//!   level**.  A conviction on any partition convicts the run.
//! * **A pass is attested, per partition.**  A merged pass certifies each
//!   band's projected sub-history (windowed, with its carried frontier) plus
//!   the escalation lane's view of every straddling transaction.  An anomaly
//!   whose cycle crosses bands only through transactions that each stay
//!   inside one band — so no participant straddles and no partition sees the
//!   whole cycle — can escape; this is the sharded analogue of the windowed
//!   engine's horizon caveat, and the merged report words per-level passes
//!   accordingly.  `shards = 1` degenerates to the unsharded windowed
//!   auditor (everything routes to one partition, nothing escalates), and
//!   the differential suite (`tests/audit_shard_equivalence.rs`) checks that
//!   on seeded live runs every `K ∈ {1, 2, 4, 8}` agrees with the unsharded
//!   windowed auditor and the batch auditor on all five levels.
//!
//! Straddling write-skew pairs are the load-bearing case: both members of a
//! cross-band skew read both variables, so both straddle, both escalate, and
//! the escalation lane convicts — `tests/audit_shard_equivalence.rs` pins
//! this with hand-built cross-partition histories under deterministic
//! replay ([`audit_sharded`]).

use crate::history::AuditTxn;
use crate::report::{fold_outcomes, AuditReport, DecidedBy, Level, LevelReport, Outcome};
use crate::telemetry::AuditTelemetry;
use crate::window::{
    AuditEvent, Conviction, PartitionLag, StreamReport, TxnSink, WindowConfig, WindowedAuditor,
};
use crate::AuditHistory;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use stm_runtime::{route_band, ROUTE_BANDS};
use tm_telemetry::json;

/// Shape of a sharded audit pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of variable partitions `K` (clamped to `1..=`
    /// [`ROUTE_BANDS`]).  Partition `p` owns the contiguous run of hash
    /// bands `b` with `b·K / ROUTE_BANDS == p`.
    pub shards: usize,
    /// The **global history horizon**: the window shape an unsharded
    /// [`WindowedAuditor`] would use.  Each partition sees roughly `1/K` of
    /// the stream, so partition auditors run windows of `size / K` of their
    /// own sub-stream — the same span of *global* history per window as the
    /// unsharded engine.
    pub window: WindowConfig,
    /// Transactions the router buffers per partition before sending one
    /// batch (amortizes channel traffic; flushed on finish regardless).
    pub route_batch: usize,
}

/// Routed batches each partition queue may hold before the router blocks
/// (backpressure keeps memory bounded when a partition falls behind).
const QUEUE_CAPACITY: usize = 256;

/// DFS state budget for the escalation lane's SI/SER witness searches.
///
/// The lane's sub-history is attribution-incomplete *by construction*
/// (straddlers read values whose writers stayed in-band), so witness
/// searches there face unordered stand-in writers and explode without
/// deciding anything.  The lane's real job — the cross-band **refutations**
/// (lost update, same-source write skew, causal cycle) — is polynomial and
/// unaffected by this budget; the slashed budget is what makes the
/// cross-partition recheck *bounded*.
const ESCALATION_BUDGET: u64 = 1_024;

/// Size cap of the escalation lane's windows (the scaled partition window,
/// capped).  Lane windows pay for every unresolvable read with a stand-in,
/// so a small lane window is what keeps the cross-partition recheck cheap;
/// a straddler stream is thin relative to the partitions', so even a small
/// lane window spans a long stretch of global history.
const ESCALATION_WINDOW_CAP: usize = 256;

/// The per-partition window for a K-way split: `1/K` of the configured
/// global-horizon window (floored so degenerate test windows stay usable),
/// with overlap and probe batch scaled alike.  `retain_windows` is kept:
/// `retain × size/K` partition transactions span the same *global* history
/// as the unsharded `retain × size`.
fn scaled_window(base: WindowConfig, k: usize) -> WindowConfig {
    if k <= 1 {
        return base;
    }
    let size = (base.size / k).clamp(16.min(base.size.max(2)), base.size);
    WindowConfig {
        size,
        overlap: (base.overlap / k).min(size.saturating_sub(1)),
        budget: base.budget,
        retain_windows: base.retain_windows,
        batch: (base.batch / k).clamp(1, size),
        sat: base.sat,
    }
}

impl ShardConfig {
    /// A config with `shards` partitions and the given window shape.
    pub fn new(shards: usize, window: WindowConfig) -> Self {
        ShardConfig { shards, window, route_batch: 128 }
    }

    fn normalized(mut self) -> Self {
        self.shards = self.shards.clamp(1, ROUTE_BANDS);
        self.route_batch = self.route_batch.max(1);
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::new(4, WindowConfig::default())
    }
}

/// The partition owning a variable under a `shards`-way split: partitions own
/// contiguous runs of [`route_band`] bands.  Routing is this formula and
/// nothing else, so it is reproducible across runs.
pub fn partition_of(var: usize, shards: usize) -> usize {
    band_owner(route_band(var), shards)
}

/// The partition owning hash band `band` under a `shards`-way split.
fn band_owner(band: usize, shards: usize) -> usize {
    band * shards / ROUTE_BANDS
}

#[derive(Debug, Default)]
struct PartitionCounters {
    routed: AtomicU64,
    ingested: AtomicU64,
    windows: AtomicUsize,
    /// Queue-depth distribution, observed at every router flush: the depth
    /// high-water mark plus sum/sample-count for the mean.
    depth_max: AtomicU64,
    depth_sum: AtomicU64,
    depth_samples: AtomicU64,
}

/// A cloneable live view of every partition's lag, usable from any thread
/// while the pipeline runs — this is what the serve endpoint samples.
#[derive(Clone)]
pub struct ShardLagProbe {
    counters: Vec<Arc<PartitionCounters>>,
}

impl ShardLagProbe {
    /// Snapshot every partition's counters (escalation lane last).
    pub fn sample(&self) -> Vec<PartitionLag> {
        let last = self.counters.len() - 1;
        self.counters
            .iter()
            .enumerate()
            .map(|(p, c)| {
                let samples = c.depth_samples.load(Ordering::Relaxed);
                let sum = c.depth_sum.load(Ordering::Relaxed);
                PartitionLag {
                    partition: p,
                    escalation: p == last,
                    routed: c.routed.load(Ordering::Relaxed),
                    ingested: c.ingested.load(Ordering::Relaxed),
                    windows: c.windows.load(Ordering::Relaxed),
                    queued_max: c.depth_max.load(Ordering::Relaxed),
                    queued_mean: if samples == 0 { 0.0 } else { sum as f64 / samples as f64 },
                }
            })
            .collect()
    }
}

/// One partition's final verdict inside a [`ShardedStreamReport`].
#[derive(Debug, Clone)]
pub struct PartitionVerdict {
    /// Partition index (`shards` = the escalation lane).
    pub partition: usize,
    /// `true` for the escalation lane.
    pub escalation: bool,
    /// Transactions routed to this partition.
    pub routed_txns: u64,
    /// The partition's full windowed stream report.
    pub stream: StreamReport,
}

/// The earliest conviction across partitions, with its origin.
#[derive(Debug, Clone)]
pub struct ShardConviction {
    /// Partition the conviction came from (`shards` = escalation lane).
    pub partition: usize,
    /// `true` if the escalation lane convicted.
    pub escalation: bool,
    /// The violation, with partition-local stream position.
    pub conviction: Conviction,
}

/// What a finished sharded audit measured and concluded.
#[derive(Debug, Clone)]
pub struct ShardedStreamReport {
    /// The whole-run verdict stitched from the per-partition verdicts (see
    /// the module docs for what a merged pass attests).
    pub merged: AuditReport,
    /// Every partition's verdict, partitions first, escalation lane last.
    pub partitions: Vec<PartitionVerdict>,
    /// The pipeline shape that produced the report.
    pub config: ShardConfig,
    /// Total transactions pushed into the router.
    pub total_txns: u64,
    /// Transactions whose footprint straddled bands (escalated whole).
    pub escalated_txns: u64,
    /// The earliest definite violation across partitions, if any.
    pub first_conviction: Option<ShardConviction>,
}

impl ShardedStreamReport {
    /// `true` if the merged verdict for the level passed (attested per
    /// partition and window).
    pub fn passes(&self, level: Level) -> bool {
        self.merged.passes(level)
    }

    /// `true` if any partition definitely violated the level.
    pub fn fails(&self, level: Level) -> bool {
        self.merged.fails(level)
    }

    /// Compact one-line summary of the merged verdict.
    pub fn summary(&self) -> String {
        self.merged.summary()
    }

    /// Longest window-close-to-verdict latency over all partitions.
    pub fn verdict_latency_max(&self) -> Duration {
        self.partitions.iter().map(|p| p.stream.verdict_latency_max()).max().unwrap_or_default()
    }

    /// Sum of per-partition peak closure memory — an upper bound on the
    /// pipeline's simultaneous resident closure state.
    pub fn peak_closure_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.stream.peak_closure_bytes).sum()
    }

    /// Machine-readable form, for CI artifacts, the audit CLI's `--json` and
    /// the serve endpoint's verdict records.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"shards\":{},\"window_size\":{},\"overlap\":{},\"total_txns\":{},\
             \"escalated_txns\":{},\"peak_closure_bytes\":{},\"verdict_latency_max_ms\":{:.3},",
            self.config.shards,
            self.config.window.size,
            self.config.window.overlap,
            self.total_txns,
            self.escalated_txns,
            self.peak_closure_bytes(),
            self.verdict_latency_max().as_secs_f64() * 1e3
        ));
        match &self.first_conviction {
            Some(sc) => out.push_str(&format!(
                "\"first_conviction\":{{\"partition\":{},\"escalation\":{},\"level\":\"{}\",\
                 \"window\":{},\"txns_seen\":{},\"violation\":\"{}\"}},",
                sc.partition,
                sc.escalation,
                sc.conviction.level.name(),
                sc.conviction.window,
                sc.conviction.txns_seen,
                json::escape(&sc.conviction.violation)
            )),
            None => out.push_str("\"first_conviction\":null,"),
        }
        out.push_str(&format!("\"merged\":{},", self.merged.to_json()));
        out.push_str("\"partitions\":[");
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"partition\":{},\"escalation\":{},\"txns\":{},\"windows\":{},\
                 \"evicted_attributions\":{},\"peak_closure_bytes\":{},\"summary\":\"{}\",\
                 \"merged\":{}}}",
                p.partition,
                p.escalation,
                p.routed_txns,
                p.stream.windows.len(),
                p.stream.evicted_attributions,
                p.stream.peak_closure_bytes,
                json::escape(&p.stream.summary()),
                p.stream.merged.to_json()
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for ShardedStreamReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sharded audit: {} txns over {} variable partitions (+{} straddlers escalated), \
             windows of ≤{}",
            self.total_txns, self.config.shards, self.escalated_txns, self.config.window.size
        )?;
        for p in &self.partitions {
            let kind = if p.escalation { "escalation" } else { "partition " };
            writeln!(
                f,
                "  {kind} {:>2}: {:>8} txns in {:>4} window(s)  {}",
                p.partition,
                p.routed_txns,
                p.stream.windows.len(),
                p.stream.summary()
            )?;
        }
        if let Some(sc) = &self.first_conviction {
            writeln!(
                f,
                "  first conviction: {} on partition {}{}: {}",
                sc.conviction.level.name(),
                sc.partition,
                if sc.escalation { " (escalation lane)" } else { "" },
                sc.conviction.violation
            )?;
        }
        for level in &self.merged.levels {
            writeln!(f, "  {level}")?;
        }
        Ok(())
    }
}

/// The registry a pipeline built without an explicit one reports into: the
/// global one when metrics are on.
fn global_registry() -> Option<&'static tm_telemetry::Registry> {
    tm_telemetry::enabled().then(tm_telemetry::global)
}

/// One partition worker: drains routed batches into its own windowed
/// auditor and keeps the lane's counters current.
struct PartitionWorker {
    receiver: Receiver<Vec<(usize, AuditTxn)>>,
    auditor: WindowedAuditor,
    counters: Arc<PartitionCounters>,
    /// This lane's `audit_partition_queued` gauge, when metrics are on.
    queue_gauge: Option<tm_telemetry::Gauge>,
}

impl PartitionWorker {
    fn run(mut self) -> StreamReport {
        while let Ok(batch) = self.receiver.recv() {
            let n = batch.len() as u64;
            for (session, txn) in batch {
                self.auditor.push(session, txn);
            }
            let ingested = self.counters.ingested.fetch_add(n, Ordering::Relaxed) + n;
            // The consuming side keeps the depth gauge true: the router only
            // writes it when it flushes, so without this it would still read
            // the last flush-time depth after the queue has drained.
            if let Some(gauge) = &self.queue_gauge {
                let routed = self.counters.routed.load(Ordering::Relaxed);
                gauge.set(routed.saturating_sub(ingested) as i64);
            }
            self.counters.windows.store(self.auditor.windows_closed(), Ordering::Relaxed);
        }
        let report = self.auditor.finish();
        self.counters.windows.store(report.windows.len(), Ordering::Relaxed);
        report
    }
}

/// Routes a committed-transaction stream across `K` partition auditors plus
/// the escalation lane; see the module docs for the architecture and the
/// soundness statement.
pub struct ShardedAuditor {
    config: ShardConfig,
    /// Per-partition router buffers (escalation lane last).
    buffers: Vec<Vec<(usize, AuditTxn)>>,
    senders: Vec<SyncSender<Vec<(usize, AuditTxn)>>>,
    counters: Vec<Arc<PartitionCounters>>,
    workers: Vec<JoinHandle<StreamReport>>,
    total_txns: u64,
    escalated_txns: u64,
    /// Per-lane live queue-depth gauges (escalation lane last), when
    /// metrics are on.
    queue_gauges: Option<Vec<tm_telemetry::Gauge>>,
    /// Straddler counter (`audit_escalated_total`), when metrics are on.
    escalated_counter: Option<tm_telemetry::Counter>,
}

impl ShardedAuditor {
    /// A sharded pipeline for runs over `n_vars` variables starting at
    /// `initial`.  Spawns one auditor thread per partition plus one for the
    /// escalation lane.
    pub fn new(n_vars: usize, initial: i64, config: ShardConfig) -> Self {
        Self::build(n_vars, initial, config, None, global_registry(), false)
    }

    /// [`ShardedAuditor::new`] with every lane built by
    /// [`WindowedAuditor::new_searching`] — the reference side of the
    /// certified-vs-searched differential tests, not an operating mode.
    #[doc(hidden)]
    pub fn new_searching(n_vars: usize, initial: i64, config: ShardConfig) -> Self {
        Self::build(n_vars, initial, config, None, global_registry(), true)
    }

    /// Like [`ShardedAuditor::new`], with every lane auditor built
    /// [`WindowedAuditor::with_events`]: each sends its window verdicts and
    /// first conviction into `events` under its own lane label.
    pub fn with_events(
        n_vars: usize,
        initial: i64,
        config: ShardConfig,
        events: Sender<AuditEvent>,
    ) -> Self {
        Self::build(n_vars, initial, config, Some(events), global_registry(), false)
    }

    /// `registry` is where the pipeline's instruments live (`None`: metrics
    /// off); `search_only` opens every lane window in search mode.
    fn build(
        n_vars: usize,
        initial: i64,
        config: ShardConfig,
        events: Option<Sender<AuditEvent>>,
        registry: Option<&tm_telemetry::Registry>,
        search_only: bool,
    ) -> Self {
        let config = config.normalized();
        let lanes = config.shards + 1; // partitions + escalation lane
        let queue_gauges: Option<Vec<tm_telemetry::Gauge>> = registry.map(|registry| {
            (0..lanes)
                .map(|lane| {
                    let label = if lane == config.shards {
                        "escalation".to_string()
                    } else {
                        lane.to_string()
                    };
                    registry.gauge(
                        "audit_partition_queued",
                        &[("partition", label.as_str())],
                        "txns",
                    )
                })
                .collect()
        });
        let mut senders = Vec::with_capacity(lanes);
        let mut counters = Vec::with_capacity(lanes);
        let mut workers = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (tx, rx) = sync_channel::<Vec<(usize, AuditTxn)>>(QUEUE_CAPACITY);
            let lane_counters = Arc::new(PartitionCounters::default());
            let scaled = scaled_window(config.window, config.shards);
            let window = if lane == config.shards {
                // The escalation lane is a bounded recheck: polynomial
                // refutations at full strength, witness searches capped,
                // small windows so stand-in machinery stays cheap.
                WindowConfig {
                    size: scaled.size.min(ESCALATION_WINDOW_CAP),
                    overlap: scaled.overlap.min(ESCALATION_WINDOW_CAP / 8),
                    budget: scaled.budget.min(ESCALATION_BUDGET),
                    ..scaled
                }
            } else {
                scaled
            };
            let mut auditor = WindowedAuditor::build(n_vars, initial, window, search_only);
            if let Some(registry) = registry {
                auditor = auditor.with_telemetry(AuditTelemetry::from_registry(registry));
            }
            if let Some(events) = &events {
                auditor = auditor.with_events(events.clone(), lane, lane == config.shards);
            }
            let worker = PartitionWorker {
                receiver: rx,
                auditor,
                counters: Arc::clone(&lane_counters),
                queue_gauge: queue_gauges.as_ref().map(|gauges| gauges[lane].clone()),
            };
            senders.push(tx);
            counters.push(lane_counters);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("audit-part-{lane}"))
                    .spawn(move || worker.run())
                    .expect("spawning a partition auditor thread"),
            );
        }
        let escalated_counter =
            registry.map(|registry| registry.counter("audit_escalated_total", &[], "txns"));
        ShardedAuditor {
            config,
            buffers: vec![Vec::new(); lanes],
            senders,
            counters,
            workers,
            total_txns: 0,
            escalated_txns: 0,
            queue_gauges,
            escalated_counter,
        }
    }

    /// The pipeline shape in effect (after normalization).
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// A live, cloneable view of per-partition lag counters.
    pub fn lag_probe(&self) -> ShardLagProbe {
        ShardLagProbe { counters: self.counters.clone() }
    }

    /// Route one committed transaction.  Same contract as
    /// [`WindowedAuditor::push`]: per-session arrival in session order.
    pub fn push(&mut self, session: usize, txn: AuditTxn) {
        self.total_txns += 1;
        let k = self.config.shards;
        if k == 1 {
            // Degenerate single-partition pipeline: the whole stream goes to
            // partition 0 unprojected — verdict-identical to the unsharded
            // windowed auditor.
            self.buffer(0, session, txn);
            return;
        }
        // The band mask — carried precomputed on streamed records
        // ([`AuditTxn::footprint`]), derived on demand for hand-built
        // histories — folds into the touched partitions without re-walking
        // the read/write sets.
        let mut touched: u64 = 0;
        let mut bands = txn.band_mask();
        while bands != 0 {
            let band = bands.trailing_zeros() as usize;
            bands &= bands - 1;
            touched |= 1 << band_owner(band, k);
        }
        match touched.count_ones() {
            // A transaction with no reads and no writes constrains nothing;
            // give it to partition 0 so ingest totals still add up.
            0 => self.buffer(0, session, txn),
            1 => self.buffer(touched.trailing_zeros() as usize, session, txn),
            _ => {
                // Straddler: each touched partition gets the projection onto
                // its own band run, and the escalation lane re-checks the
                // transaction whole (cross-band anomalies among straddlers
                // stay visible to *someone*).
                let mut bits = touched;
                while bits != 0 {
                    let p = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.buffer(p, session, project(&txn, p, k));
                }
                self.escalated_txns += 1;
                if let Some(c) = &self.escalated_counter {
                    c.inc();
                }
                self.buffer(k, session, txn);
            }
        }
    }

    fn buffer(&mut self, lane: usize, session: usize, txn: AuditTxn) {
        self.buffers[lane].push((session, txn));
        if self.buffers[lane].len() >= self.config.route_batch {
            self.flush(lane);
        }
    }

    fn flush(&mut self, lane: usize) {
        if self.buffers[lane].is_empty() {
            return;
        }
        let batch =
            std::mem::replace(&mut self.buffers[lane], Vec::with_capacity(self.config.route_batch));
        let counters = &self.counters[lane];
        let routed =
            counters.routed.fetch_add(batch.len() as u64, Ordering::Relaxed) + batch.len() as u64;
        // Observe the queue depth (routed-but-not-ingested) at every flush:
        // the high-water mark and mean feed the lag probe's `queued_max` /
        // `queued_mean`, the gauge feeds the live metrics snapshot.
        let queued = routed.saturating_sub(counters.ingested.load(Ordering::Relaxed));
        counters.depth_max.fetch_max(queued, Ordering::Relaxed);
        counters.depth_sum.fetch_add(queued, Ordering::Relaxed);
        counters.depth_samples.fetch_add(1, Ordering::Relaxed);
        if let Some(gauges) = &self.queue_gauges {
            gauges[lane].set(queued as i64);
        }
        self.senders[lane].send(batch).expect("partition auditor thread died");
    }

    /// Flush every router buffer, close the queues, join the partition
    /// threads and stitch their verdicts into the merged report.
    pub fn finish(mut self) -> ShardedStreamReport {
        for lane in 0..self.buffers.len() {
            self.flush(lane);
        }
        drop(std::mem::take(&mut self.senders)); // closes every queue
        let mut partitions = Vec::with_capacity(self.workers.len());
        let last = self.workers.len() - 1;
        for (lane, worker) in self.workers.drain(..).enumerate() {
            let stream = worker.join().expect("partition auditor thread panicked");
            partitions.push(PartitionVerdict {
                partition: lane,
                escalation: lane == last,
                routed_txns: self.counters[lane].routed.load(Ordering::Relaxed),
                stream,
            });
        }
        let first_conviction = partitions
            .iter()
            .filter_map(|p| {
                p.stream.first_conviction.as_ref().map(|c| ShardConviction {
                    partition: p.partition,
                    escalation: p.escalation,
                    conviction: c.clone(),
                })
            })
            .min_by_key(|sc| (sc.conviction.txns_seen, sc.partition));
        let merged =
            merge_partitions(&partitions, self.config, self.total_txns, self.escalated_txns);
        ShardedStreamReport {
            merged,
            partitions,
            config: self.config,
            total_txns: self.total_txns,
            escalated_txns: self.escalated_txns,
            first_conviction,
        }
    }
}

/// The projection of a transaction onto partition `p`'s variables under a
/// `shards`-way split.  Projections route no further, so they carry no
/// precomputed footprint.
fn project(txn: &AuditTxn, p: usize, shards: usize) -> AuditTxn {
    let owned = |&(v, _): &(usize, i64)| partition_of(v, shards) == p;
    AuditTxn {
        reads: txn.reads.iter().copied().filter(owned).collect(),
        writes: txn.writes.iter().copied().filter(owned).collect(),
        hint: txn.hint,
        footprint: 0,
    }
}

impl TxnSink for ShardedAuditor {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        self.push(session, txn);
    }
}

fn lane_label(p: &PartitionVerdict) -> String {
    if p.escalation {
        "escalation lane".to_string()
    } else {
        format!("partition {}", p.partition)
    }
}

/// Merge the per-partition merged verdicts into the whole-run report:
/// Fail on any partition wins, else Unknown on any partition aggregates,
/// else an attested Pass.
fn merge_partitions(
    partitions: &[PartitionVerdict],
    config: ShardConfig,
    total_txns: u64,
    escalated_txns: u64,
) -> AuditReport {
    let shape = format!(
        "{} transactions over {} variable partitions (+{} straddlers escalated), \
         windows of ≤{} (overlap {})",
        total_txns, config.shards, escalated_txns, config.window.size, config.window.overlap
    );
    let levels = Level::ALL
        .iter()
        .map(|&level| {
            // The merged verdict leans on the solver as soon as any lane's
            // window did, and on the recording order only when every window
            // of every lane was certified by it.
            let by = DecidedBy::merged(
                partitions
                    .iter()
                    .flat_map(|p| &p.stream.windows)
                    .flat_map(|w| &w.report.levels)
                    .filter(|r| r.level == level)
                    .map(|r| r.decided_by),
            );
            LevelReport::new(
                level,
                merged_outcome(partitions, level, config.shards, escalated_txns),
            )
            .via(by)
        })
        .collect();
    AuditReport { shape, levels }
}

fn merged_outcome(
    partitions: &[PartitionVerdict],
    level: Level,
    shards: usize,
    escalated_txns: u64,
) -> Outcome {
    // A conviction anywhere is a real violation of the whole run — the fold
    // never lets another partition's Unknown downgrade it.
    //
    // The escalation lane is refutation-only: its sub-history drops every
    // non-straddling transaction, so its witness searches routinely exhaust
    // their (deliberately slashed) budget against unordered stand-in writers.
    // A lane Unknown therefore says nothing the per-partition verdicts do
    // not already attest — it is kept out of the fold, while a lane
    // *conviction* always wins.  The lane's own outcome stays visible
    // verbatim in [`ShardedStreamReport::partitions`].
    fold_outcomes(
        partitions.iter().filter_map(|p| {
            let outcome = p.stream.merged.outcome(level)?;
            let advisory = p.escalation && matches!(outcome, Outcome::Unknown { .. });
            (!advisory).then(|| (lane_label(p), outcome))
        }),
        |count, first| format!("{count} of {shards} partition(s) inconclusive (first: {first})"),
        || {
            format!(
                "attested per partition: {} passed in all {shards} variable-band projections, \
                 and the escalation lane's bounded recheck of {escalated_txns} straddling \
                 transaction(s) raised no cross-band refutation; sharded auditing is \
                 violation-sound (any partition's conviction is real), and a pass certifies \
                 each band's projected sub-history plus the refutation-checked straddlers, not \
                 the uncut cross-band order",
                level.tag()
            )
        },
    )
}

/// Stream a complete [`AuditHistory`] through a [`ShardedAuditor`] in
/// recording (hint) order — the deterministic-schedule replay the
/// differential suite (`tests/audit_shard_equivalence.rs`) is built on:
/// given the same history and config, routing, per-partition sub-streams and
/// therefore every verdict are reproducible regardless of thread timing.
pub fn audit_sharded(history: &AuditHistory, config: ShardConfig) -> ShardedStreamReport {
    let mut auditor = ShardedAuditor::new(history.n_vars, history.initial, config);
    for (session, txn) in history.recording_order() {
        auditor.push(session, txn.clone());
    }
    auditor.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize, size: usize, overlap: usize) -> ShardConfig {
        let window = WindowConfig { size, overlap, ..WindowConfig::sized(size) };
        // A tiny route batch so unit-test streams actually cross the channel
        // in several batches.
        ShardConfig { route_batch: 4, ..ShardConfig::new(shards, window) }
    }

    /// Variables grouped by owning partition under a K-way split — test
    /// helper for building histories that live in (or straddle) chosen
    /// partitions.
    fn vars_by_partition(n_vars: usize, shards: usize) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); shards];
        for v in 0..n_vars {
            groups[partition_of(v, shards)].push(v);
        }
        groups
    }

    /// A serializable seeded history: transactions execute sequentially
    /// against a model array (in hint order, round-robin across sessions),
    /// each reading the current values of one or two variables and writing
    /// their increments — so every interleaving the auditor considers has
    /// the recording order as a witness.
    fn seeded_serializable_history(
        seed: u64,
        n_vars: usize,
        sessions: usize,
        txns: usize,
    ) -> AuditHistory {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vals = vec![0i64; n_vars];
        let mut h = AuditHistory::new(n_vars, 0, sessions);
        for i in 0..txns {
            let a = rng() as usize % n_vars;
            let b = rng() as usize % n_vars;
            let mut reads = vec![(a, vals[a])];
            let mut writes = vec![(a, vals[a] + 1)];
            if rng() % 3 == 0 && b != a {
                reads.push((b, vals[b]));
                writes.push((b, vals[b] + 1));
            }
            for &(v, w) in &writes {
                vals[v] = w;
            }
            h.push_txn(i % sessions, reads, writes);
        }
        h
    }

    #[test]
    fn partition_of_covers_and_bounds() {
        for shards in [1usize, 2, 3, 4, 8, 64] {
            let mut seen = std::collections::HashSet::new();
            for v in 0..4_096 {
                let p = partition_of(v, shards);
                assert!(p < shards, "var {v} → partition {p} out of {shards}");
                seen.insert(p);
            }
            assert_eq!(seen.len(), shards, "{shards}-way split must use every partition");
        }
    }

    #[test]
    fn single_band_histories_stay_unescalated_and_pass() {
        // A serializable rmw chain on one variable: every K routes it to one
        // partition, nothing escalates, everything passes.
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        for i in 1..60i64 {
            h.push_txn((i % 2) as usize, [(0, i)], [(0, i + 1)]);
        }
        for shards in [1usize, 2, 4, 8] {
            let report = audit_sharded(&h, cfg(shards, 8, 2));
            assert_eq!(report.total_txns, 60);
            assert_eq!(report.escalated_txns, 0, "single-var txns never straddle");
            for level in Level::ALL {
                assert!(report.passes(level), "K={shards} {level}: {}", report.merged);
            }
            assert!(report.first_conviction.is_none());
            // Exactly one partition (plus the idle escalation lane) saw work.
            let busy = report.partitions.iter().filter(|p| p.routed_txns > 0).count();
            assert_eq!(busy, 1, "K={shards}");
            let lane = report.partitions.last().unwrap();
            assert!(lane.escalation && lane.routed_txns == 0);
        }
    }

    #[test]
    fn straddlers_are_projected_and_escalated() {
        let shards = 4;
        let groups = vars_by_partition(64, shards);
        let (a, b) = (groups[0][0], groups[1][0]);
        let mut h = AuditHistory::new(64, 0, 1);
        h.push_txn(0, [], [(a, 1), (b, 2)]); // straddles partitions 0 and 1
        h.push_txn(0, [(a, 1)], [(a, 3)]); // stays inside partition 0
        let report = audit_sharded(&h, cfg(shards, 8, 2));
        assert_eq!(report.escalated_txns, 1);
        assert_eq!(report.partitions[0].routed_txns, 2, "projection + in-band txn");
        assert_eq!(report.partitions[1].routed_txns, 1, "projection only");
        let lane = report.partitions.last().unwrap();
        assert_eq!(lane.routed_txns, 1, "the straddler whole");
        for level in Level::ALL {
            assert!(report.passes(level), "{level}: {}", report.merged);
        }
    }

    /// What justifies serving an unsharded plan from the unsharded auditor:
    /// on a seeded history with a planted lost update, `K = 1` and the plain
    /// windowed auditor announce the same windows and the same (single)
    /// conviction, field for field — only `elapsed` is a measurement — and
    /// reach the same merged verdict.
    #[test]
    fn k1_announces_exactly_what_the_unsharded_windowed_auditor_announces() {
        let mut h = seeded_serializable_history(11, 8, 3, 90);
        let latest = h
            .recording_order()
            .into_iter()
            .rev()
            .find_map(|(_, t)| t.writes.iter().find(|&&(v, _)| v == 0).map(|&(_, w)| w))
            .expect("90 transactions over 8 variables write v0");
        h.push_txn(0, [(0, latest)], [(0, 10_000)]);
        h.push_txn(1, [(0, latest)], [(0, 10_001)]); // lost update
        for i in 0..40i64 {
            h.push_txn((i % 3) as usize, [], [(1 + (i % 7) as usize, 20_000 + i)]);
        }
        let window = WindowConfig { size: 16, overlap: 4, ..WindowConfig::sized(16) };
        // Every field but `elapsed`.
        let timeless = |events: std::sync::mpsc::Receiver<AuditEvent>| -> Vec<String> {
            events
                .try_iter()
                .map(|event| match event {
                    AuditEvent::Window {
                        partition,
                        escalation,
                        index,
                        txns,
                        summary,
                        decided_by,
                        elapsed: _,
                    } => format!(
                        "window {partition} {escalation} {index} {txns} {summary} {decided_by:?}"
                    ),
                    AuditEvent::Conviction { partition, escalation, conviction } => {
                        format!("conviction {partition} {escalation} {conviction:?}")
                    }
                    AuditEvent::Lag { .. } => panic!("auditors never send lag"),
                })
                .collect()
        };

        let (tx, rx) = std::sync::mpsc::channel();
        let mut plain = WindowedAuditor::new(h.n_vars, h.initial, window).with_events(tx, 0, false);
        for (session, txn) in h.recording_order() {
            plain.push(session, txn.clone());
        }
        let unsharded = plain.finish();
        let plain_events = timeless(rx);

        let (tx, rx) = std::sync::mpsc::channel();
        let config = ShardConfig { route_batch: 4, ..ShardConfig::new(1, window) };
        let mut routed = ShardedAuditor::with_events(h.n_vars, h.initial, config, tx);
        for (session, txn) in h.recording_order() {
            routed.push(session, txn.clone());
        }
        let sharded = routed.finish();
        let sharded_events = timeless(rx);

        assert_eq!(plain_events, sharded_events);
        let windows = plain_events.iter().filter(|e| e.starts_with("window")).count();
        assert_eq!(windows, unsharded.windows.len(), "one event per closed window");
        let convictions = plain_events.iter().filter(|e| e.starts_with("conviction")).count();
        assert_eq!(convictions, 1, "the conviction is announced exactly once");
        for level in Level::ALL {
            assert_eq!(unsharded.passes(level), sharded.passes(level), "{level}");
            assert_eq!(unsharded.fails(level), sharded.fails(level), "{level}");
        }
        let sc = sharded.first_conviction.as_ref().expect("convicted");
        assert_eq!((sc.partition, sc.escalation), (0, false));
        assert_eq!(Some(&sc.conviction), unsharded.first_conviction.as_ref());
    }

    #[test]
    fn events_stream_windows_and_convictions_live() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]); // lost update, window 0
        for i in 0..30i64 {
            h.push_txn(0, [(0, 2 + i)], [(0, 3 + i)]);
        }
        let config = cfg(2, 8, 2);
        let mut auditor = ShardedAuditor::with_events(1, 0, config, tx);
        let probe = auditor.lag_probe();
        for (s, t) in h.recording_order() {
            auditor.push(s, t.clone());
        }
        let report = auditor.finish();
        let events: Vec<AuditEvent> = rx.try_iter().collect();
        let windows = events.iter().filter(|e| matches!(e, AuditEvent::Window { .. })).count();
        let convictions =
            events.iter().filter(|e| matches!(e, AuditEvent::Conviction { .. })).count();
        assert_eq!(
            windows,
            report.partitions.iter().map(|p| p.stream.windows.len()).sum::<usize>(),
            "every closed window must be announced exactly once"
        );
        assert_eq!(convictions, 1, "one partition convicted once");
        assert!(report.fails(Level::SnapshotIsolation));
        // The probe agrees with the final report after the join.
        let lag = probe.sample();
        assert_eq!(lag.len(), 3); // 2 partitions + escalation lane
        assert_eq!(lag.iter().map(|l| l.routed).sum::<u64>(), 32);
        assert!(lag.iter().all(|l| l.queued() == 0), "drained after finish: {lag:?}");
        // Depth is observed at flush time, before the worker can have
        // ingested the batch, so every lane that saw traffic has a non-zero
        // high-water mark and mean.
        for l in lag.iter().filter(|l| l.routed > 0) {
            assert!(l.queued_max >= 1, "{lag:?}");
            assert!(l.queued_mean > 0.0, "{lag:?}");
        }
    }

    /// `audit_partition_queued` is true when read at rest: the router only
    /// writes it at flush time (when the batch being flushed is still
    /// queued), so the consuming side has to bring it back down.
    #[test]
    fn queue_gauges_read_zero_once_the_queues_have_drained() {
        let registry = tm_telemetry::Registry::new();
        let shards = 4;
        let h = seeded_serializable_history(7, 64, 3, 400);
        let mut auditor = ShardedAuditor::build(
            h.n_vars,
            h.initial,
            cfg(shards, 16, 4),
            None,
            Some(&registry),
            false,
        );
        for (session, txn) in h.recording_order() {
            auditor.push(session, txn.clone());
        }
        let report = auditor.finish();
        let busy = report.partitions.iter().filter(|p| p.routed_txns > 0).count();
        assert!(busy >= 3, "the stream must actually cross several lanes' queues");
        for p in &report.partitions {
            let label =
                if p.escalation { "escalation".to_string() } else { p.partition.to_string() };
            let gauge =
                registry.gauge("audit_partition_queued", &[("partition", label.as_str())], "txns");
            assert_eq!(gauge.get(), 0, "lane {label} still reads queued after finish()");
        }
        // The lanes report into the same registry.
        let windows: usize = report.partitions.iter().map(|p| p.stream.windows.len()).sum();
        assert_eq!(AuditTelemetry::from_registry(&registry).windows.get(), windows as u64);
    }

    #[test]
    fn merged_json_carries_partitions_and_conviction() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]);
        let report = audit_sharded(&h, cfg(2, 8, 2));
        let json = report.to_json();
        assert!(json.contains("\"shards\":2"), "{json}");
        assert!(json.contains("\"partitions\":["), "{json}");
        assert!(json.contains("\"escalation\":true"), "{json}");
        assert!(json.contains("\"first_conviction\":{"), "{json}");
        assert!(json.contains("\"merged\":{"), "{json}");
        assert!(report.to_string().contains("first conviction"));
    }

    #[test]
    fn empty_streams_pass_vacuously() {
        let auditor = ShardedAuditor::new(8, 0, ShardConfig::default());
        let report = auditor.finish();
        assert_eq!(report.total_txns, 0);
        assert_eq!(report.escalated_txns, 0);
        for level in Level::ALL {
            assert!(report.passes(level), "{level}");
        }
        // Shards + escalation lane are all present and idle.
        assert_eq!(report.partitions.len(), ShardConfig::default().shards + 1);
    }
}
