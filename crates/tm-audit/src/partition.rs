//! The sharded streaming audit engine: one windowed auditor per variable
//! partition, with a cross-partition escalation lane.
//!
//! **What was measured.**  The `audit` CLI, the runner and the serve
//! endpoint never reach this module: they run one [`WindowedAuditor`].  It is
//! a library leaf, kept because `benchmark/`'s `replay-sharded` workload
//! measures it (its reference tests and the `fuzz` lane still run it too).
//! On a 2-core host that workload (K = 2) runs about 120k txn/s against
//! `replay-healthy`'s ~700k through one [`WindowedAuditor`], and its lanes
//! leave 200–231 cells `?` per run that K = 1 decides.
//!
//! The [`crate::window::WindowedAuditor`] bounded the *memory* of a streaming
//! audit but consumes the merged stream on one core.  Following the
//! per-variable / communication-graph decomposition of dbcop-style checking
//! (Biswas & Enea, *"On the Complexity of Checking Transactional
//! Consistency"*), a [`ShardedAuditor`] splits the
//! variable space into 64 hash bands (pair-aligned so two-word objects at
//! even word bases — the allocation pattern of every built-in scenario —
//! never straddle, then mixed so bands spread; no recorder, decoder or
//! generator computes a band) and assigns each of `K` partitions a
//! contiguous run of bands:
//!
//! * every committed transaction is **routed** to each partition whose band
//!   set intersects the bands of the variables it touched, carrying only the
//!   *projection* of its read and write sets onto that partition's
//!   variables;
//! * each partition runs its own [`WindowedAuditor`] on its own thread over
//!   the projected sub-history (bounded queues between router and partitions
//!   apply backpressure, so memory stays bounded end to end).  Partition
//!   windows are **horizon-preserving**: [`ShardConfig::window`] names the
//!   *global* window shape, and each partition — seeing ~`1/K` of the
//!   stream — audits windows of `size / K` of its own sub-stream, the same
//!   span of global history per window as the unsharded engine;
//! * transactions whose variables span **two or more partitions** are
//!   additionally **escalated whole** to a dedicated cross-partition lane — a
//!   further windowed auditor over the unprojected straddlers — so the
//!   anomalies a projection cannot see (a write-skew pair over two bands, a
//!   fractured read split across partitions) are re-checked against the full
//!   read and write sets of everyone who straddles.  The lane is a **bounded,
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
use crate::window::{Conviction, StreamReport, WindowConfig, WindowedAuditor};
use crate::AuditHistory;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Number of hash bands variables are grouped into for routing.  A `K`-way
/// split owns `ROUTE_BANDS / K` contiguous runs of bands, so any `K ≤ 64`
/// divides the variable space without re-hashing, and a transaction's bands
/// fit one `u64` mask ([`footprint_of`]).
const ROUTE_BANDS: usize = 64;

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
fn route_band(var_index: usize) -> usize {
    let mut z = ((var_index >> 1) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % ROUTE_BANDS as u64) as usize
}

/// The band bitmask of a variable set: bit [`route_band`]`(v)` is set for
/// every `v` in `vars`.
fn footprint_of(vars: impl IntoIterator<Item = usize>) -> u64 {
    vars.into_iter().fold(0u64, |mask, v| mask | 1u64 << route_band(v))
}

/// Shape of a sharded audit pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of variable partitions `K` (clamped to `1..=64`).  Partition
    /// `p` owns the contiguous run of the 64 hash bands `b` with
    /// `b·K / 64 == p`.
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
/// with overlap and probe batch scaled alike.  The retention horizon counts
/// windows, so `RETAIN_WINDOWS × size/K` partition transactions span the
/// same *global* history as the unsharded `RETAIN_WINDOWS × size`.
fn scaled_window(base: WindowConfig, k: usize) -> WindowConfig {
    if k <= 1 {
        return base;
    }
    let size = (base.size / k).clamp(16.min(base.size.max(2)), base.size);
    WindowConfig {
        size,
        overlap: (base.overlap / k).min(size.saturating_sub(1)),
        budget: base.budget,
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
/// contiguous runs of hash bands.  Routing is this formula and nothing else,
/// so it is reproducible across runs.
pub fn partition_of(var: usize, shards: usize) -> usize {
    band_owner(route_band(var), shards)
}

/// The partition owning hash band `band` under a `shards`-way split.
fn band_owner(band: usize, shards: usize) -> usize {
    band * shards / ROUTE_BANDS
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
    /// Total transactions pushed into the router.
    pub total_txns: u64,
    /// Transactions whose variables straddled partitions (escalated whole).
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

    /// Sum of per-partition peak closure memory — an upper bound on the
    /// pipeline's simultaneous resident closure state.
    pub fn peak_closure_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.stream.peak_closure_bytes).sum()
    }
}

/// One lane's thread: drain routed batches into its windowed auditor until
/// the router hangs up, then close the lane's stream.
fn run_lane(
    batches: Receiver<Vec<(usize, AuditTxn)>>,
    mut auditor: WindowedAuditor,
) -> StreamReport {
    for batch in batches {
        for (session, txn) in batch {
            auditor.push(session, txn);
        }
    }
    auditor.finish()
}

/// Routes a committed-transaction stream across `K` partition auditors plus
/// the escalation lane; see the module docs for the architecture and the
/// soundness statement.
pub struct ShardedAuditor {
    config: ShardConfig,
    /// Per-partition router buffers (escalation lane last).
    buffers: Vec<Vec<(usize, AuditTxn)>>,
    senders: Vec<SyncSender<Vec<(usize, AuditTxn)>>>,
    /// Transactions routed to each lane so far (escalation lane last).
    routed: Vec<u64>,
    workers: Vec<JoinHandle<StreamReport>>,
    total_txns: u64,
    escalated_txns: u64,
}

impl ShardedAuditor {
    /// A sharded pipeline for runs over `n_vars` variables starting at
    /// `initial`.  Spawns one auditor thread per partition plus one for the
    /// escalation lane.
    pub fn new(n_vars: usize, initial: i64, config: ShardConfig) -> Self {
        Self::build(n_vars, initial, config, false)
    }

    /// [`ShardedAuditor::new`] with every lane built by
    /// [`WindowedAuditor::new_searching`] — the reference side of the
    /// certified-vs-searched differential tests, not an operating mode.
    #[doc(hidden)]
    pub fn new_searching(n_vars: usize, initial: i64, config: ShardConfig) -> Self {
        Self::build(n_vars, initial, config, true)
    }

    /// `search_only` opens every lane window in search mode.
    fn build(n_vars: usize, initial: i64, config: ShardConfig, search_only: bool) -> Self {
        let config = config.normalized();
        let lanes = config.shards + 1; // partitions + escalation lane
        let scaled = scaled_window(config.window, config.shards);
        let mut senders = Vec::with_capacity(lanes);
        let mut workers = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (tx, rx) = sync_channel::<Vec<(usize, AuditTxn)>>(QUEUE_CAPACITY);
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
            let auditor = WindowedAuditor::build(n_vars, initial, window, search_only);
            senders.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("audit-part-{lane}"))
                    .spawn(move || run_lane(rx, auditor))
                    .expect("spawning a partition auditor thread"),
            );
        }
        ShardedAuditor {
            config,
            buffers: vec![Vec::new(); lanes],
            senders,
            routed: vec![0; lanes],
            workers,
            total_txns: 0,
            escalated_txns: 0,
        }
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
        // The transaction's band mask folds into the partitions it touches.
        let mut touched: u64 = 0;
        let mut bands = footprint_of(txn.reads.iter().chain(&txn.writes).map(|&(var, _)| var));
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
        self.routed[lane] += batch.len() as u64;
        self.senders[lane].send(batch).expect("partition auditor thread died");
    }

    /// Flush every router buffer, close the queues, join the partition
    /// threads and stitch their verdicts into the merged report.
    pub fn finish(mut self) -> ShardedStreamReport {
        for lane in 0..self.buffers.len() {
            self.flush(lane);
        }
        drop(std::mem::take(&mut self.senders)); // closes every queue
        let last = self.workers.len() - 1;
        let partitions: Vec<PartitionVerdict> = self
            .workers
            .drain(..)
            .enumerate()
            .map(|(lane, worker)| PartitionVerdict {
                partition: lane,
                escalation: lane == last,
                routed_txns: self.routed[lane],
                stream: worker.join().expect("partition auditor thread panicked"),
            })
            .collect();
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
            total_txns: self.total_txns,
            escalated_txns: self.escalated_txns,
            first_conviction,
        }
    }
}

/// The projection of a transaction onto partition `p`'s variables under a
/// `shards`-way split.
fn project(txn: &AuditTxn, p: usize, shards: usize) -> AuditTxn {
    let owned = |&(v, _): &(usize, i64)| partition_of(v, shards) == p;
    AuditTxn {
        reads: txn.reads.iter().copied().filter(owned).collect(),
        writes: txn.writes.iter().copied().filter(owned).collect(),
        hint: txn.hint,
        footprint: 0,
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
