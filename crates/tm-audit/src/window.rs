//! The streaming windowed audit engine: bounded-memory consistency verdicts
//! over rolling history segments, while the run is still going.
//!
//! The batch auditor ([`crate::audit`]) needs the whole history in hand: it
//! is this engine's one unbounded window.  A [`WindowedAuditor`] instead
//! audits **windows** of `size` transactions (consecutive in arrival order,
//! with `overlap` transactions shared between neighbours), so every
//! per-window structure — partial order, saturation graph, chain clocks,
//! SI/SER search — is bounded by the window, not the run:
//!
//! * the partial order grows incrementally ([`TxnPartialOrder::extend`]),
//!   parking reads whose writer has not arrived yet;
//! * every `batch` transactions, and at close, the window is **probed —
//!   verify first, search on failure**.  While the recording order of what
//!   is wired so far verifies as a serial order, a probe has nothing else to
//!   do: a serial prefix holds no causal cycle and no lost update.  The
//!   window carries the order its last pass verified (with the version each
//!   variable holds after it), so a pass sorts and checks only what arrived
//!   since — the window's passes together place each transaction about
//!   once.  A pass starts over from the window's first transaction only when
//!   the new arrivals could reorder the verified prefix: a parked read
//!   resolved into it (its writer arrived late), or a stand-in sorts before
//!   its end (a detached frontier writer's older hint, an evicted `past?n`
//!   at hint 0).  A window that closes that way passes all six levels with
//!   that order as its witness ([`DecidedBy::Hint`]) and never builds a
//!   saturation graph or a closure.
//!   From the first probe that does *not* verify, the window is in search
//!   mode for good: causal saturation catches up from the edge log and then
//!   absorbs each batch of new edges ([`resaturate`]) at the cost of what
//!   the batch changed — clocks grow forward from the new edges, and the
//!   rule re-fires only on read groups whose readers' clocks grew —
//!   answering visibility from one clock word per (transaction, session
//!   chain) instead of a closure ([`StreamReport::peak_closure_bytes`] is
//!   that table); the lost-update rule runs at every probe (so convictions
//!   land mid-window),
//!   and the close climbs the hierarchy through the DFS and, when asked, the
//!   solver.  What selects the path is a property of the input — nothing is
//!   configured;
//! * between windows a **committed frontier** carries write attribution
//!   forward: the last absorbed write per variable (materialized at window
//!   open as real, session-chained stand-in transactions) plus all writes
//!   from the most recent eight windows (`RETAIN_WINDOWS`; materialized on
//!   demand, detached, when a cross-window read observes them).  A stand-in keeps
//!   its writer's recording-order hint, so it sorts where the real
//!   transaction did.  Reads of values older than the retention horizon are
//!   attributed to synthetic `past?n` stand-ins and counted in
//!   [`StreamReport::evicted_attributions`].  Retained writers are bucketed
//!   by absorbing window, so a close costs in proportion to the window, not
//!   to the retention horizon;
//! * the frontier also carries **read-modify-write facts** — per `(variable,
//!   source value)`, the first absorbed transaction that read that source
//!   and overwrote the variable.  Every incoming transaction is checked
//!   directly against these facts: an incoming rmw over a source some
//!   absorbed transaction already rmw'd is a lost update, convicted no
//!   matter how many windows apart the halves are (the signature failure of
//!   a no-synchronization backend whose sessions happen to run back to back
//!   in time) and without adding any ordering constraints to the per-window
//!   SI/SER searches.  A window so paired is never certified, whatever its
//!   own order says.
//!
//! # Input
//!
//! Transactions arrive through [`TxnSink::push_txn`] as [`AuditTxn`]s, the
//! recorder's own record type.  On a live run a [`StreamMerger`] stands in
//! front: the recorder delivers each session's commits as hint-sorted runs,
//! and the merger merges the k runs into the arrival order windows are cut
//! from.  The one contract is that a session's transactions arrive in order.
//!
//! # Soundness
//!
//! Windowed verdicts are **violation-sound and pass-attested**:
//!
//! * every edge the window auditor reasons over (session order, write-read,
//!   derived write-write) also holds in the whole history — frontier
//!   stand-ins keep their real identity and session position, and dropped
//!   knowledge only ever *removes* constraints — so **any violation reported
//!   by any window is a real violation of the whole run**.  The verify-first
//!   step never reports one: it only ever says pass, and every doubt (an
//!   order that does not verify, a recording-contract defect, a carried rmw
//!   fact, a forced solver run) defers to the search;
//! * a **pass** certifies each window (including the carried frontier)
//!   individually.  A certified window's pass is *witnessed*: the order in
//!   its report was checked, read by read, against the window's transactions
//!   and stand-ins, and a serial order for them is a witness for every
//!   weaker level too.  A searched window's pass is what it always was: the
//!   saturation found no cycle and the search found an order (or, exhausted,
//!   says `?`).  Either way the constraints are the window's, so anomalies
//!   whose entire evidence spans farther back than the window plus retained
//!   frontier — e.g. a lost-update pair whose two read-modify-writes are
//!   more than a window apart — can escape; the merged report therefore
//!   words per-level passes as *attested per window*, not certified
//!   end-to-end.  Growing `size` or `overlap` trades memory for coverage,
//!   up to the batch auditor at the limit.
//!
//! The randomized equivalence suite (`tests/audit_window_equivalence.rs`)
//! checks that on seeded live runs from every backend the windowed verdicts
//! agree with the whole-run batch verdicts on all six levels.

use crate::history::{AccessSet, AuditTxn, HistoryError, TxnId};
use crate::linearization::{find_lost_update, HintOrder, DEFAULT_STATE_BUDGET};
use crate::po::{TxnPartialOrder, EVICTED_SESSION};
use crate::recovery::{BoundaryRecord, RecoveryError};
use crate::report::{fold_outcomes, AuditReport, DecidedBy, Level, LevelReport, Outcome};
use crate::saturation::{resaturate, CycleViolation, Saturated};
use crate::telemetry::{AuditTelemetry, NP_CELL_STAGES};
use crate::{
    certified_report, defect_report, forces_search, searched_report, AuditHistory, SatConfig,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};
use stm_runtime::{CommitBatch, StreamConsumer};
use tm_telemetry::json::{self, ParseError, Value};

/// How many windows of absorbed writes the frontier keeps resolvable (the
/// latest write per variable is kept regardless).
const RETAIN_WINDOWS: usize = 8;

/// Shape of the rolling windows a [`WindowedAuditor`] audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Transactions per window (upper bound on every per-window structure).
    pub size: usize,
    /// Trailing transactions re-audited as the head of the next window;
    /// violations spanning a window boundary by less than this are caught
    /// exactly.  Must be smaller than `size`.
    pub overlap: usize,
    /// DFS state budget for each window's SI/SER searches.
    pub budget: u64,
    /// Probe granularity, in transactions: how often the in-flight window
    /// re-verifies its recording order — or, once that has failed, refreshes
    /// its causal verdict and lost-update probe.  A verify-first probe sorts
    /// and checks only the transactions that arrived since the last one,
    /// unless a parked read resolved into the verified prefix or a stand-in
    /// sorts before its end — then it re-verifies the window from its first
    /// transaction.  A search-mode probe's saturation costs what the batch
    /// changed (its new edges, the clock rows they raise and the read groups
    /// of those rows), not the window — except that a new chain (a detached
    /// stand-in) re-lays out the clock table, and a writer or read that
    /// sorts before its variable's last re-sorts that variable's list; its
    /// lost-update probe still scans the window.
    pub batch: usize,
    /// Put the commit-order solver behind each window's NP-hard levels (DFS
    /// probe, solver, full-budget DFS); it is sized for windows this large.
    pub sat: Option<SatConfig>,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig::sized(2_048)
    }
}

impl WindowConfig {
    /// A config with proportionate overlap (1/8th) and probe batch for the
    /// given window size.
    pub fn sized(size: usize) -> Self {
        let size = size.max(2);
        WindowConfig {
            size,
            overlap: size / 8,
            budget: DEFAULT_STATE_BUDGET,
            batch: (size / 8).max(1),
            sat: None,
        }
    }

    fn normalized(mut self) -> Self {
        self.size = self.size.max(2);
        self.overlap = self.overlap.min(self.size - 1);
        self.batch = self.batch.clamp(1, self.size);
        self
    }

    /// The persisted form — the shape a WAL round's metadata and its boundary
    /// records carry.  `sat` is a run-time concern and is not written.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"size\":{},\"overlap\":{},\"budget\":{},\"batch\":{}}}",
            self.size, self.overlap, self.budget, self.batch
        )
    }

    /// Read back what [`WindowConfig::to_json`] wrote (`sat` comes back
    /// `None`).  Unknown keys are ignored, so a config written with the
    /// retired `retain_windows` key still parses.
    pub fn from_json(value: &Value) -> Result<WindowConfig, ParseError> {
        let field = |key| value.field(key, Value::as_u64);
        Ok(WindowConfig {
            size: field("size")? as usize,
            overlap: field("overlap")? as usize,
            budget: field("budget")?,
            batch: field("batch")? as usize,
            sat: None,
        })
    }
}

/// The earliest definite violation the stream produced — announced mid-run,
/// before the workload has finished, as an [`AuditEvent::Conviction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conviction {
    /// The weakest level the violation refutes (everything above falls too).
    pub level: Level,
    /// Window the evidence sits in.
    pub window: usize,
    /// Transactions ingested when the conviction landed.
    pub txns_seen: u64,
    /// Human-readable violation.
    pub violation: String,
}

impl Conviction {
    /// The JSON form every report embeds.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"level\":\"{}\",\"window\":{},\"txns_seen\":{},\"violation\":\"{}\"}}",
            self.level.name(),
            self.window,
            self.txns_seen,
            json::escape(&self.violation)
        )
    }

    /// Read back what [`Conviction::to_json`] wrote.
    pub fn from_json(value: &Value) -> Result<Conviction, ParseError> {
        Ok(Conviction {
            level: value.field("level", |l| l.as_str().and_then(Level::from_name))?,
            window: value.field("window", Value::as_u64)? as usize,
            txns_seen: value.field("txns_seen", Value::as_u64)?,
            violation: value.field("violation", Value::as_str)?.to_string(),
        })
    }
}

/// One audited window's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowVerdict {
    /// Window index (0-based, in stream order).
    pub index: usize,
    /// Transactions audited in this window (excluding frontier stand-ins).
    pub txns: usize,
    /// The full per-level report for the window.
    pub report: AuditReport,
    /// Wall-clock time from window close to verdict.
    pub audit_elapsed: Duration,
}

/// Live progress records an auditor built [`WindowedAuditor::with_events`]
/// sends while the stream flows — the serve endpoint tails these as JSON
/// lines.  One `Window` per closed window, in stream order, and at most one
/// `Conviction` per stream.
#[derive(Debug, Clone)]
pub enum AuditEvent {
    /// The auditor closed and audited one window.
    Window {
        /// Window index within the stream.
        index: usize,
        /// Transactions audited in the window.
        txns: usize,
        /// Compact per-level verdict summary.
        summary: String,
        /// What decided the window ([`AuditReport::decided_by`]): `Hint`
        /// when its recording order certified every level.
        decided_by: DecidedBy,
        /// Window-close-to-verdict latency.
        elapsed: Duration,
    },
    /// The stream's first definite violation, sent the moment it lands:
    /// mid-window from a probe, or at a close — then just before that
    /// window's `Window`.
    Conviction {
        /// The violation, with its stream position.
        conviction: Conviction,
    },
}

/// What a finished stream audit measured and concluded.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The whole-run verdict merged from the per-window verdicts (see the
    /// module docs for what a merged pass attests).
    pub merged: AuditReport,
    /// Every window's individual verdict, in stream order.
    pub windows: Vec<WindowVerdict>,
    /// The window shape that produced this report.
    pub config: WindowConfig,
    /// Total transactions ingested.
    pub total_txns: u64,
    /// Largest window actually audited.
    pub peak_window_txns: usize,
    /// High-water mark over all windows of the saturation's reachability
    /// state (the chain-clock table: vertices × chains × 4 bytes); 0 when
    /// every window was certified by its recording order.
    pub peak_closure_bytes: usize,
    /// Reads attributed to synthetic stand-ins because their writer fell off
    /// the retention horizon (attested, not verified, attribution).
    pub evicted_attributions: u64,
    /// The earliest definite violation, if any.
    pub first_conviction: Option<Conviction>,
}

impl StreamReport {
    /// `true` if the merged verdict for the level passed (attested per
    /// window).
    pub fn passes(&self, level: Level) -> bool {
        self.merged.passes(level)
    }

    /// `true` if any window definitely violated the level.
    pub fn fails(&self, level: Level) -> bool {
        self.merged.fails(level)
    }

    /// Compact one-line summary of the merged verdict.
    pub fn summary(&self) -> String {
        self.merged.summary()
    }

    /// Longest window-close-to-verdict latency.
    pub fn verdict_latency_max(&self) -> Duration {
        self.windows.iter().map(|w| w.audit_elapsed).max().unwrap_or_default()
    }

    /// Mean window-close-to-verdict latency.
    pub fn verdict_latency_mean(&self) -> Duration {
        if self.windows.is_empty() {
            return Duration::default();
        }
        self.windows.iter().map(|w| w.audit_elapsed).sum::<Duration>() / self.windows.len() as u32
    }

    /// Machine-readable form, for CI artifacts and the audit CLI's `--json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"total_txns\":{},\"windows\":{},\"window_size\":{},\"overlap\":{},",
            self.total_txns,
            self.windows.len(),
            self.config.size,
            self.config.overlap
        ));
        out.push_str(&format!(
            "\"peak_window_txns\":{},\"peak_closure_bytes\":{},\"evicted_attributions\":{},",
            self.peak_window_txns, self.peak_closure_bytes, self.evicted_attributions
        ));
        out.push_str(&format!(
            "\"verdict_latency_max_ms\":{:.3},\"verdict_latency_mean_ms\":{:.3},",
            self.verdict_latency_max().as_secs_f64() * 1e3,
            self.verdict_latency_mean().as_secs_f64() * 1e3
        ));
        match &self.first_conviction {
            Some(c) => out.push_str(&format!("\"first_conviction\":{},", c.to_json())),
            None => out.push_str("\"first_conviction\":null,"),
        }
        out.push_str(&format!("\"merged\":{},", self.merged.to_json()));
        out.push_str("\"window_verdicts\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"txns\":{},\"summary\":\"{}\",\"decided_by\":\"{}\",\
                 \"elapsed_ms\":{:.3}}}",
                w.index,
                w.txns,
                json::escape(&w.report.summary()),
                w.report.decided_by().as_str(),
                w.audit_elapsed.as_secs_f64() * 1e3
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for StreamReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "streaming audit: {} txns in {} window(s) of ≤{} (overlap {})",
            self.total_txns,
            self.windows.len(),
            self.config.size,
            self.config.overlap
        )?;
        writeln!(
            f,
            "  peak closure memory {} bytes, verdict latency mean {:.3?} / max {:.3?}",
            self.peak_closure_bytes,
            self.verdict_latency_mean(),
            self.verdict_latency_max()
        )?;
        if let Some(c) = &self.first_conviction {
            writeln!(
                f,
                "  first conviction: {} in window {} after {} txns: {}",
                c.level.name(),
                c.window,
                c.txns_seen,
                c.violation
            )?;
        }
        for level in &self.merged.levels {
            writeln!(f, "  {level}")?;
        }
        Ok(())
    }
}

/// One absorbed writer the frontier can still materialize as a stand-in.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct RetainedWriter {
    id: TxnId,
    /// The writer's recording-order hint, so its stand-in sorts where the
    /// real transaction did: with every stand-in at hint 0 the latest writer
    /// of `x` that also holds a stale write of `y` could sort after the
    /// latest writer of `y`, and no window past the first would verify.
    hint: u64,
    /// Its writes still resolvable: exactly the `source_of` keys that point
    /// at this writer.
    writes: AccessSet,
}

/// A retained writer's identity and where the frontier keeps it.
#[derive(Debug, Clone, Copy)]
struct WriterRef {
    id: TxnId,
    slot: u32,
}

/// Attribution of one retained `(var, value)`.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct Source {
    /// Slot of the writer in [`Frontier::writers`].
    writer: u32,
    /// Window the write was absorbed in.
    window: usize,
    /// An rmw fact is keyed on this value (it goes when the value goes).
    has_rmw: bool,
}

/// The committed frontier carried between windows: who wrote what, as far
/// back as the retention horizon, plus the latest write per variable.
///
/// Retained writers are bucketed by the window that absorbed them, so the
/// close-time bookkeeping is proportional to the window, not to the
/// retention horizon: [`Frontier::evict`] drops the one bucket that fell off
/// the horizon (sparing each variable's latest value) instead of scanning
/// everything retained, and absorbing a transaction moves its write set in
/// whole.
///
/// A frontier is a pure function of the records absorbed so far, and comes
/// into being one way only: [`Frontier::absorb_window`], once per closed
/// window — live at the close, and again from the durable log when a killed
/// auditor resumes ([`WindowedAuditor::resume_from_frontier`]).
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct Frontier {
    /// The initial value of every variable (rmw facts key on it).
    initial: i64,
    /// `(var, value)` → who wrote it and when it was absorbed.
    source_of: HashMap<(usize, i64), Source>,
    /// var → latest absorbed value (kept resolvable forever).
    latest: Vec<Option<i64>>,
    /// Retained writers, in slots recycled through `free_slots`.
    writers: Vec<RetainedWriter>,
    free_slots: Vec<u32>,
    /// `(var, source value)` → the first absorbed transaction that
    /// read-modify-wrote `var` from that source, and the value it wrote.
    ///
    /// This is the carried half of the lost-update rule: two transactions
    /// that rmw the same variable from the same source can never both
    /// commit under SI/SER, *no matter how far apart they are in the
    /// stream*.  Remembering one rmw fact per `(var, source)` (O(vars ×
    /// retained sources) memory) lets the auditor convict pairs that arrival
    /// order serialized into different windows, e.g. a no-synchronization
    /// backend whose sessions happen to run back to back in time.
    rmw_of: HashMap<(usize, i64), (TxnId, i64)>,
    /// The writer slots absorbed per window, oldest window first.  A slot
    /// listed here is not recycled before its bucket is dropped.
    buckets: VecDeque<(usize, Vec<u32>)>,
    /// Values superseded as their variable's latest since the last evict:
    /// the only entries that can expire after their bucket has.
    displaced: Vec<(usize, i64)>,
    /// Rmw facts recorded since the last evict, still to be checked for a
    /// resolvable source.
    fresh_rmw: Vec<(usize, i64)>,
}

impl Frontier {
    fn new(n_vars: usize, initial: i64) -> Self {
        Frontier { initial, latest: vec![None; n_vars], ..Frontier::default() }
    }

    /// Close out `window`: take in the records it absorbed (its non-overlap
    /// prefix, in arrival order), then drop what fell off the
    /// [`RETAIN_WINDOWS`] horizon.
    fn absorb_window(
        &mut self,
        window: usize,
        records: impl IntoIterator<Item = (TxnId, AuditTxn)>,
    ) {
        for (id, txn) in records {
            self.absorb(id, txn, window);
        }
        self.evict(window + 1);
    }

    fn absorb(&mut self, id: TxnId, txn: AuditTxn, window: usize) {
        for &(var, value) in &txn.writes {
            if let Some(old) = self.latest[var].replace(value) {
                if old != value {
                    self.displaced.push((var, old));
                }
            }
            if let Some(&(_, source)) = txn.reads.iter().find(|&&(v, _)| v == var) {
                if let Entry::Vacant(fact) = self.rmw_of.entry((var, source)) {
                    fact.insert((id, value));
                    self.fresh_rmw.push((var, source));
                }
            }
        }
        if !txn.writes.is_empty() {
            self.retain_writer(RetainedWriter { id, hint: txn.hint, writes: txn.writes }, window);
        }
    }

    /// Take in a writer absorbed in `window`.  Windows must arrive in
    /// ascending order.
    fn retain_writer(&mut self, writer: RetainedWriter, window: usize) {
        let slot = self.free_slots.pop().unwrap_or(self.writers.len() as u32);
        for &key in &writer.writes {
            let source = Source { writer: slot, window, has_rmw: false };
            match self.source_of.insert(key, source) {
                // A duplicated write value (a recording-contract break the
                // window reports as a defect): the later writer owns the
                // attribution, and an earlier writer left with nothing whose
                // bucket is already gone has no one else to recycle it.
                Some(old) if old.writer != slot => {
                    let bucketed = self.buckets.front().is_some_and(|&(w, _)| w <= old.window);
                    if self.forget_write(old.writer, key) && !bucketed {
                        self.free_slots.push(old.writer);
                    }
                }
                _ => {}
            }
        }
        match self.writers.get_mut(slot as usize) {
            Some(vacant) => *vacant = writer,
            None => self.writers.push(writer),
        }
        match self.buckets.back_mut() {
            Some((w, slots)) if *w == window => slots.push(slot),
            _ => self.buckets.push_back((window, vec![slot])),
        }
    }

    /// Take `key` off a writer; `true` if that was its last retained write.
    fn forget_write(&mut self, slot: u32, key: (usize, i64)) -> bool {
        let writes = &mut self.writers[slot as usize].writes;
        writes.retain(|&k| k != key);
        writes.is_empty()
    }

    /// Drop the attribution of `key`, and the rmw fact over it: facts over
    /// written values live as long as their source stays resolvable.
    fn forget_source(&mut self, key: (usize, i64)) {
        if self.source_of.remove(&key).is_some_and(|source| source.has_rmw) {
            self.rmw_of.remove(&key);
        }
    }

    /// Drop writes older than the retention horizon (keeping every
    /// latest-per-var write): the buckets that fell off it, plus whatever
    /// outlived its bucket as a latest value and has since been superseded.
    fn evict(&mut self, window: usize) {
        let horizon = window.saturating_sub(RETAIN_WINDOWS);
        while self.buckets.front().is_some_and(|&(w, _)| w < horizon) {
            let (_, slots) = self.buckets.pop_front().expect("checked non-empty");
            for slot in slots {
                let mut writes = std::mem::take(&mut self.writers[slot as usize].writes);
                writes.retain(|&(var, value)| {
                    let survives = self.latest[var] == Some(value);
                    if !survives {
                        self.forget_source((var, value));
                    }
                    survives
                });
                if writes.is_empty() {
                    self.free_slots.push(slot);
                } else {
                    self.writers[slot as usize].writes = writes;
                }
            }
        }
        for key in std::mem::take(&mut self.displaced) {
            match self.source_of.get(&key) {
                Some(source) if source.window < horizon && self.latest[key.0] != Some(key.1) => {
                    let slot = source.writer;
                    self.forget_source(key);
                    if self.forget_write(slot, key) {
                        self.free_slots.push(slot);
                    }
                }
                _ => {}
            }
        }
        // Rmw facts over the initial value are kept forever (O(vars)); a
        // fact over a value the frontier cannot resolve is not kept at all.
        for key in std::mem::take(&mut self.fresh_rmw) {
            match self.source_of.get_mut(&key) {
                Some(source) => source.has_rmw = true,
                None if key.1 == self.initial => {}
                None => {
                    self.rmw_of.remove(&key);
                }
            }
        }
    }

    /// The remembered rmw fact over `(var, source value)`, if any.
    fn rmw(&self, var: usize, source: i64) -> Option<(TxnId, i64)> {
        self.rmw_of.get(&(var, source)).copied()
    }

    fn source(&self, var: usize, value: i64) -> Option<WriterRef> {
        self.source_of.get(&(var, value)).map(|source| WriterRef {
            id: self.writers[source.writer as usize].id,
            slot: source.writer,
        })
    }

    /// The write-only stand-in for a frontier transaction: every retained
    /// write, real facts all, at the writer's recorded hint.  Reads are
    /// deliberately *not* materialized — carried rmw facts are checked
    /// directly by the auditor's cross-window lost-update rule instead of
    /// burdening the per-window SI/SER searches with stale-read ordering
    /// constraints.
    fn stand_in(&self, writer: WriterRef) -> AuditTxn {
        let writer = &self.writers[writer.slot as usize];
        let mut writes = writer.writes.clone();
        // Deterministic materialization order regardless of absorb order.
        writes.sort_unstable();
        AuditTxn { writes, hint: writer.hint, ..AuditTxn::default() }
    }

    /// The writers owning each variable's latest value — materialized
    /// (session-chained) at window open.
    fn latest_writers(&self) -> Vec<WriterRef> {
        let mut out: Vec<WriterRef> = self
            .latest
            .iter()
            .enumerate()
            .filter_map(|(var, v)| v.and_then(|val| self.source(var, val)))
            .collect();
        out.sort_unstable_by_key(|w| w.id);
        out.dedup_by_key(|w| w.id);
        out
    }
}

/// The in-flight window: an incrementally grown partial order plus its
/// incremental saturation state.
#[derive(Debug)]
struct ActiveWindow {
    po: TxnPartialOrder,
    sat: Saturated,
    causal_failure: Option<CycleViolation>,
    defect: Option<HistoryError>,
    /// When the window opened — the start of its verdict-latency span.
    opened_at: Instant,
    /// Prefix of the auditor's `cur` buffer already extended into `po`.
    extended: usize,
    /// Transactions extended since the last re-saturation probe.
    unsynced: usize,
    /// Frontier writers already materialized in this window.
    materialized: HashSet<TxnId>,
    /// Lost updates paired directly against carried frontier rmw facts —
    /// real violations of SI and SER, applied over the window's own verdict
    /// at close (their far half lives outside the window's partial order).
    cross_violations: Vec<String>,
    /// Search mode, sticky per window: some probe could not verify the
    /// recording order (or was not allowed to try), so every later probe and
    /// the close re-saturate and search.  Until then `sat` stays empty.
    searching: bool,
    /// The verify-first state carried from probe to probe: each pass sorts
    /// and verifies only what arrived since the last, unless that could
    /// change the order (see [`HintOrder`]).
    hint_order: HintOrder,
}

/// Audits a stream of committed transactions in rolling windows; see the
/// module docs for the architecture and the soundness statement.
#[derive(Debug)]
pub struct WindowedAuditor {
    n_vars: usize,
    initial: i64,
    config: WindowConfig,
    frontier: Frontier,
    /// Per-session sequence counters (whole-run, so stand-ins keep their
    /// true identity).
    seqs: HashMap<usize, usize>,
    /// Current window's transactions in arrival order.
    cur: Vec<(TxnId, AuditTxn)>,
    active: Option<ActiveWindow>,
    window_index: usize,
    total_txns: u64,
    audited_through: u64,
    /// Reads attributed to evicted-origin stand-ins so far — also the next
    /// stand-in's `past?n` sequence number.
    evicted_attributions: u64,
    verdicts: Vec<WindowVerdict>,
    first_conviction: Option<Conviction>,
    peak_window_txns: usize,
    peak_closure_bytes: usize,
    /// Open every window in search mode (see [`WindowedAuditor::new_searching`]).
    search_only: bool,
    tele: Option<AuditTelemetry>,
    events: Option<Sender<AuditEvent>>,
}

impl WindowedAuditor {
    /// An auditor for runs over `n_vars` variables starting at `initial`.
    pub fn new(n_vars: usize, initial: i64, config: WindowConfig) -> Self {
        Self::build(n_vars, initial, config, false)
    }

    /// [`WindowedAuditor::new`] with the verify-first step skipped in every
    /// window, so every verdict comes from the search engine — the reference
    /// side of the certified-vs-searched differential tests, not an
    /// operating mode.
    #[doc(hidden)]
    pub fn new_searching(n_vars: usize, initial: i64, config: WindowConfig) -> Self {
        Self::build(n_vars, initial, config, true)
    }

    pub(crate) fn build(
        n_vars: usize,
        initial: i64,
        config: WindowConfig,
        search_only: bool,
    ) -> Self {
        WindowedAuditor {
            n_vars,
            initial,
            config: config.normalized(),
            frontier: Frontier::new(n_vars, initial),
            seqs: HashMap::new(),
            cur: Vec::new(),
            active: None,
            window_index: 0,
            total_txns: 0,
            audited_through: 0,
            evicted_attributions: 0,
            verdicts: Vec::new(),
            first_conviction: None,
            peak_window_txns: 0,
            peak_closure_bytes: 0,
            search_only,
            tele: AuditTelemetry::attach(),
            events: None,
        }
    }

    /// Replace the telemetry handles (tests bind a private registry here so
    /// their assertions never see another test's samples).
    pub fn with_telemetry(mut self, tele: AuditTelemetry) -> Self {
        self.tele = Some(tele);
        self
    }

    /// Send an [`AuditEvent::Window`] into `events` at every window close
    /// and an [`AuditEvent::Conviction`] the moment the first definite
    /// violation lands.  A hung-up receiver is ignored.
    pub fn with_events(mut self, events: Sender<AuditEvent>) -> Self {
        self.events = Some(events);
        self
    }

    /// Windows fully audited so far.
    pub fn windows_closed(&self) -> usize {
        self.verdicts.len()
    }

    /// The (normalized) window shape this auditor runs.
    pub fn window_config(&self) -> WindowConfig {
        self.config
    }

    /// Transactions pushed so far — after
    /// [`WindowedAuditor::resume_from_frontier`], the log records its chain
    /// covers, where the caller's replay starts.
    pub fn txns_seen(&self) -> u64 {
        self.total_txns
    }

    /// What the log cannot give back about the **last window boundary** — the
    /// record the WAL seals beside the log (see [`crate::recovery`]); `None`
    /// before the first window has closed.
    ///
    /// Records still in the current (unclosed) window — the carried overlap
    /// and anything after the boundary — are not covered: after
    /// [`WindowedAuditor::resume_from_frontier`] they are re-pushed from the
    /// log, re-assume their original identities and rebuild the in-flight
    /// window exactly, so the resumed stream's verdicts match an
    /// uninterrupted run's.
    pub fn boundary_record(&self) -> Option<BoundaryRecord> {
        Some(BoundaryRecord {
            config: WindowConfig { sat: None, ..self.config },
            evicted_attributions: self.evicted_attributions,
            peak_closure_bytes: self.peak_closure_bytes,
            first_conviction: self.first_conviction.clone(),
            verdict: self.verdicts.last()?.clone(),
        })
    }

    /// Rebuild an auditor at its last durable window boundary from the
    /// decoded log (`log`, in `arrival` order) and the chain of records
    /// sealed beside it — `chain[i]` is what
    /// [`WindowedAuditor::boundary_record`] returned after window `i`
    /// closed.  The newest record supplies the window shape and the
    /// counters, each one its window's verdict; the rest is derived from the
    /// log: `n_vars` and `initial` from its header, and — window `j` having
    /// absorbed records `[j·stride, (j+1)·stride)`, `stride = size −
    /// overlap` — the boundary `replay_from = chain.len() × stride`, the
    /// per-session counters as the counts of `arrival[..replay_from]`, and
    /// the frontier by re-absorbing that prefix window by window exactly as
    /// the closes absorbed it.  The caller then re-pushes the records from
    /// [`WindowedAuditor::txns_seen`] on and the stream continues as if never
    /// interrupted.  `sat` supplies the solver escalation config, which is
    /// not persisted.
    ///
    /// A chain whose verdicts are not windows `0, 1, …` in order, a window
    /// shape that is not normalized, or a log shorter than the chain covers
    /// is a [`RecoveryError`].
    pub fn resume_from_frontier(
        chain: &[BoundaryRecord],
        log: &AuditHistory,
        arrival: &[TxnId],
        sat: Option<SatConfig>,
    ) -> Result<WindowedAuditor, RecoveryError> {
        let Some(newest) = chain.last() else {
            return Err(RecoveryError::new("no boundary record to resume from"));
        };
        for (i, link) in chain.iter().enumerate() {
            if link.verdict.index != i {
                return Err(RecoveryError::new(format!(
                    "boundary record {i} of the chain holds the verdict of window {} \
                     (expected {i})",
                    link.verdict.index
                )));
            }
            // A window's count sizes the next window's tables: it must be
            // one the log could have produced.
            if link.verdict.txns > arrival.len() {
                return Err(RecoveryError::new(format!(
                    "boundary record {i} says window {i} audited {} transactions, but the log \
                     holds only {}",
                    link.verdict.txns,
                    arrival.len()
                )));
            }
        }
        let config = WindowConfig { sat, ..newest.config };
        if config.normalized() != config {
            return Err(RecoveryError::new(format!(
                "recorded window shape (size {}, overlap {}, batch {}) is not a \
                 normalized configuration — refusing to resume with a different shape",
                config.size, config.overlap, config.batch
            )));
        }
        let stride = config.size - config.overlap;
        let replay_from = match chain.len().checked_mul(stride) {
            Some(n) if n <= arrival.len() => n,
            _ => {
                return Err(RecoveryError::new(format!(
                    "log has {} records but {} closed window(s) of stride {stride} absorbed more \
                     — the log is not the one the records were sealed beside",
                    arrival.len(),
                    chain.len()
                )))
            }
        };
        let mut auditor = Self::build(log.n_vars, log.initial, config, false);
        for (window, ids) in arrival[..replay_from].chunks(stride).enumerate() {
            let records = ids.iter().map(|&id| match log.txn(id) {
                Some(txn) => Ok((id, txn.clone())),
                None => Err(RecoveryError::new(format!("arrival id {id} is not in the log"))),
            });
            let records = records.collect::<Result<Vec<_>, _>>()?;
            auditor.frontier.absorb_window(window, records);
        }
        for id in &arrival[..replay_from] {
            *auditor.seqs.entry(id.session).or_insert(0) += 1;
        }
        auditor.window_index = chain.len();
        auditor.total_txns = replay_from as u64;
        auditor.audited_through = replay_from as u64;
        auditor.evicted_attributions = newest.evicted_attributions;
        auditor.verdicts = chain.iter().map(|link| link.verdict.clone()).collect();
        auditor.first_conviction = newest.first_conviction.clone();
        auditor.peak_window_txns = auditor.verdicts.iter().map(|w| w.txns).max().unwrap_or(0);
        auditor.peak_closure_bytes = newest.peak_closure_bytes;
        Ok(auditor)
    }

    /// Ingest one committed transaction.  Transactions of the same session
    /// must arrive in session order; sessions may interleave arbitrarily.
    pub fn push(&mut self, session: usize, txn: AuditTxn) {
        let seq = self.seqs.entry(session).or_insert(0);
        let id = TxnId { session, seq: *seq };
        *seq += 1;
        self.cur.push((id, txn));
        self.total_txns += 1;
        self.advance();
        if self.cur.len() >= self.config.size {
            self.close_window(false);
        }
    }

    /// Audit whatever remains and merge every window's verdict into the
    /// whole-run report.
    pub fn finish(mut self) -> StreamReport {
        if self.total_txns > self.audited_through {
            self.close_window(true);
        }
        let merged = self.merged_report();
        StreamReport {
            merged,
            windows: self.verdicts,
            config: self.config,
            total_txns: self.total_txns,
            peak_window_txns: self.peak_window_txns,
            peak_closure_bytes: self.peak_closure_bytes,
            evicted_attributions: self.evicted_attributions,
            first_conviction: self.first_conviction,
        }
    }

    /// Open a fresh window: new partial order, frontier latest writers
    /// materialized up front in their real sessions (so the window's session
    /// chains continue from them), and remembered initial-value rmw facts
    /// materialized with their reads (so the lost-update rule can pair them
    /// with in-window rmws).
    fn open_window(&mut self) {
        let latest = self.frontier.latest_writers();
        // Presize for the largest window seen so far, never for the
        // configured size: a window holds what arrives, which may be far
        // fewer transactions than `size` allows.
        let txns = self.peak_window_txns + latest.len();
        let mut po = TxnPartialOrder::with_capacity(self.n_vars, self.initial, txns);
        let mut materialized = HashSet::new();
        let mut defect = None;
        for writer in latest {
            let txn = self.frontier.stand_in(writer);
            match po.extend(writer.id, &txn) {
                Ok(_) => {
                    materialized.insert(writer.id);
                }
                Err(err) => {
                    defect = Some(err);
                    break;
                }
            }
        }
        self.active = Some(ActiveWindow {
            po,
            sat: Saturated::empty(),
            causal_failure: None,
            defect,
            opened_at: Instant::now(),
            extended: 0,
            unsynced: 0,
            materialized,
            cross_violations: Vec::new(),
            searching: self.search_only || forces_search(self.config.sat),
            hint_order: HintOrder::new(self.n_vars),
        });
    }

    /// Extend the active window with every not-yet-extended transaction,
    /// probing the polynomial verdicts every `config.batch` transactions.
    fn advance(&mut self) {
        if self.active.is_none() {
            self.open_window();
        }
        loop {
            let aw = self.active.as_mut().expect("opened above");
            if aw.defect.is_some() || aw.extended >= self.cur.len() {
                break;
            }
            let (id, txn) = &self.cur[aw.extended];
            aw.extended += 1;
            // The cross-window half of the lost-update rule, applied
            // directly: this transaction rmw's a source some absorbed
            // transaction already rmw'd.  Both facts are real, so the pair
            // can never commit under SI/SER — no matter how many windows
            // apart the halves are, and regardless of how the source value
            // resolves inside this window.
            for &(var, _) in &txn.writes {
                let Some(&(_, source)) = txn.reads.iter().find(|&&(v, _)| v == var) else {
                    continue;
                };
                match self.frontier.rmw(var, source) {
                    Some((other, _)) if other != *id => {
                        aw.cross_violations.push(format!(
                            "cross-window lost update on v{var}: {other} (absorbed) and {id} \
                             both read the same source value and both wrote it"
                        ));
                    }
                    _ => {}
                }
            }
            match aw.po.extend(*id, txn) {
                Ok(_) => aw.unsynced += 1,
                Err(err) => {
                    aw.defect = Some(err);
                    break;
                }
            }
            if self.active.as_ref().expect("still active").unsynced >= self.config.batch {
                self.sync_active();
            }
        }
    }

    /// Materialize a frontier transaction into the active window (detached:
    /// its session chain has moved on, and a fabricated session edge could
    /// invent a violation where dropping it only loses detection power).
    fn materialize(&mut self, writer: WriterRef) {
        if self.active.as_ref().expect("active window").materialized.contains(&writer.id) {
            return;
        }
        let txn = self.frontier.stand_in(writer);
        let aw = self.active.as_mut().expect("active window");
        if let Err(err) = aw.po.extend_detached(writer.id, &txn) {
            aw.defect = Some(err);
        }
        aw.materialized.insert(writer.id);
    }

    /// One probe of the in-flight window, timed: resolve cross-window reads
    /// against the frontier, then **verify first** — if the recording order
    /// of everything wired so far is a serial order, the probe is done and
    /// returns `true`; the order stays in the window's [`HintOrder`] (a
    /// serial prefix holds no causal cycle and no lost update, so there is
    /// nothing to convict).  The pass resumes from the last one's verified
    /// prefix, so it costs what arrived since, unless a parked read resolved
    /// into that prefix or a stand-in sorts before its end — then it starts
    /// over.  Reads still parked on a writer in flight are not wired yet and
    /// do not block a probe.  Only when the order does not verify — or a
    /// carried rmw fact already paired with this window, which convicts
    /// SI/SER whatever the window's own order says — does the window enter
    /// search mode: re-saturate the causal constraints (caught up lazily
    /// from the edge log) and probe for convictions, at this and every later
    /// probe of the window.
    fn sync_active(&mut self) -> bool {
        let started = self.tele.as_ref().map(|_| Instant::now());
        let certified = self.probe();
        if let (Some(tele), Some(started)) = (&self.tele, started) {
            tele.sync_latency.record_duration(started.elapsed());
        }
        certified
    }

    fn probe(&mut self) -> bool {
        let pending = self.active.as_ref().expect("active window").po.pending_values();
        for (var, value) in pending {
            if let Some(writer) = self.frontier.source(var, value) {
                self.materialize(writer);
            }
            // Unknown values stay parked: either their writer is still in
            // flight within this window, or they are resolved as evicted
            // stand-ins at window close.
        }
        let aw = self.active.as_mut().expect("active window");
        aw.unsynced = 0;
        if aw.defect.is_some() {
            return false;
        }
        if !aw.searching && aw.cross_violations.is_empty() && aw.hint_order.certify(&aw.po) {
            return true;
        }
        aw.searching = true;
        if aw.causal_failure.is_none() {
            if let Err(cycle) = resaturate(&mut aw.sat, &aw.po) {
                aw.causal_failure = Some(cycle);
            }
        }
        self.peak_closure_bytes = self.peak_closure_bytes.max(aw.sat.peak_closure_bytes());
        if self.first_conviction.is_none() {
            let aw = self.active.as_ref().expect("active window");
            let conviction = if let Some(cycle) = &aw.causal_failure {
                // The cycle could even refute RC/RA; Causal is the weakest
                // level the *saturated* cycle certainly refutes.
                Some((Level::Causal, cycle.render(&aw.po)))
            } else if let Some(cross) = aw.cross_violations.first() {
                Some((Level::SnapshotIsolation, cross.clone()))
            } else {
                find_lost_update(&aw.po).map(|lu| (Level::SnapshotIsolation, lu.render(&aw.po)))
            };
            if let Some((level, violation)) = conviction {
                self.convict(level, violation);
            }
        }
        false
    }

    /// Record the stream's first definite violation, at the current stream
    /// position, and announce it.
    fn convict(&mut self, level: Level, violation: String) {
        let conviction =
            Conviction { level, window: self.window_index, txns_seen: self.total_txns, violation };
        if let Some(tele) = &self.tele {
            tele.convictions.inc();
        }
        if let Some(events) = &self.events {
            let _ = events.send(AuditEvent::Conviction { conviction: conviction.clone() });
        }
        self.first_conviction = Some(conviction);
    }

    /// Close the current window: final frontier resolution, evicted
    /// stand-ins for anything past the horizon, the six-level verdict — from
    /// the final order if it verifies, from the search engine otherwise —
    /// then absorb the non-overlap prefix into the frontier.
    fn close_window(&mut self, fin: bool) {
        if self.cur.is_empty() {
            return;
        }
        let started = Instant::now();
        self.advance();
        // Resolve to a fixpoint: each sync pass either materializes a new
        // stand-in or changes nothing, so this terminates.
        loop {
            self.sync_active();
            let aw = self.active.as_ref().expect("active window");
            // A pending value is stuck when the frontier has no writer for
            // it, or the writer's stand-in was already tried (a failed
            // materialization records a defect but must not loop).
            let pending_stuck = aw.po.pending_values().iter().all(|&(var, value)| {
                match self.frontier.source(var, value) {
                    None => true,
                    Some(writer) => aw.materialized.contains(&writer.id),
                }
            });
            if aw.defect.is_some() || pending_stuck {
                break;
            }
        }

        // Whatever is still unresolved fell off the retention horizon:
        // attribute it to synthetic past writers (attested, not verified).
        let pending = self.active.as_ref().expect("active window").po.pending_values();
        for (var, value) in pending {
            let id = TxnId { session: EVICTED_SESSION, seq: self.evicted_attributions as usize };
            self.evicted_attributions += 1;
            if let Some(tele) = &self.tele {
                tele.evicted.inc();
            }
            let aw = self.active.as_mut().expect("active window");
            let txn = AuditTxn { writes: [(var, value)].into(), ..AuditTxn::default() };
            if let Err(err) = aw.po.extend_detached(id, &txn) {
                aw.defect = Some(err);
            }
        }
        // The close-time check: every read is wired now, so an order that
        // verifies here is a witness for the whole window.
        let certified = self.sync_active();

        let aw = self.active.take().expect("active window");
        let window_txns = aw.extended;
        let stand_ins = aw.po.len() - 1 - window_txns;
        let shape = format!(
            "window {}: {} transactions (+{} frontier stand-ins), {} variables",
            self.window_index, window_txns, stand_ins, self.n_vars
        );
        let (closure_bytes, chains, rounds) =
            (aw.sat.peak_closure_bytes(), aw.po.chains(), aw.sat.rounds);
        // Once some window definitely refuted SI/SER, later windows cannot
        // change the merged verdict for those levels (Fail wins the merge),
        // so their NP-hard searches run on a slashed budget: a pathological
        // window reports a cheap honest Unknown instead of burning seconds
        // confirming what the stream already knows.
        // (A SER-only conviction — write skew — leaves SI undecided, so only
        // convictions at SI or below throttle.)
        let budget = match &self.first_conviction {
            Some(c) if c.level <= Level::SnapshotIsolation => {
                (self.config.budget / 16).max(4_096).min(self.config.budget)
            }
            _ => self.config.budget,
        };
        if budget < self.config.budget {
            if let Some(tele) = &self.tele {
                tele.budget_slashed.inc();
            }
        }
        let defect = aw.defect.or_else(|| aw.po.seal().err());
        let cross_violations = aw.cross_violations.clone();
        let mut report = match defect {
            Some(err) => defect_report(shape, &err),
            None if certified => certified_report(&aw.po, shape, aw.hint_order.order()),
            None => {
                let causal = match aw.causal_failure {
                    Some(cycle) => Err(cycle),
                    None => Ok(aw.sat),
                };
                let (report, spent) =
                    searched_report(&aw.po, shape, budget, causal, self.config.sat);
                if let (Some(tele), true) = (&self.tele, spent.ran) {
                    tele.sat_windows.inc();
                    tele.sat_probe_states.add(spent.probe_states);
                    tele.sat_pairs.add(spent.pairs);
                    tele.sat_clauses.add(spent.clauses);
                    tele.sat_conflicts.add(spent.conflicts);
                    tele.sat_refinements.add(spent.refinements);
                }
                report
            }
        };
        // Lost updates paired against carried frontier rmw facts refute SI
        // and SER for this window even though their far half predates the
        // window's partial order.
        if let Some(cross) = cross_violations.first() {
            for l in &mut report.levels {
                if matches!(l.level, Level::SnapshotIsolation | Level::Serializable)
                    && !l.outcome.failed()
                {
                    l.outcome = Outcome::Fail { violation: cross.clone() };
                }
            }
        }
        let audit_elapsed = started.elapsed();
        if let Some(tele) = &self.tele {
            tele.windows.inc();
            tele.certify_placed.add(aw.hint_order.placed);
            tele.certify_restarts.add(aw.hint_order.restarts);
            if report.decided_by() == DecidedBy::Hint {
                tele.certified.inc();
            } else {
                tele.searched.inc();
                tele.chains.record(chains as u64);
                tele.saturation_rounds.add(rounds as u64);
            }
            tele.window_latency.record_duration(audit_elapsed);
            tele.verdict_latency.record_duration(aw.opened_at.elapsed());
            for l in &report.levels {
                if let Outcome::Unknown { states, .. } = &l.outcome {
                    tele.search_states.add(*states);
                } else if l.level >= Level::Prefix {
                    let stage = NP_CELL_STAGES.iter().position(|&by| by == l.decided_by);
                    tele.np_cells[stage.expect("every stage is listed")].inc();
                }
            }
        }
        self.peak_closure_bytes = self.peak_closure_bytes.max(closure_bytes);
        self.peak_window_txns = self.peak_window_txns.max(window_txns);
        if self.first_conviction.is_none() {
            let failed = report.levels.iter().find_map(|l| match &l.outcome {
                Outcome::Fail { violation } => Some((l.level, violation.clone())),
                _ => None,
            });
            if let Some((level, violation)) = failed {
                self.convict(level, violation);
            }
        }
        if let Some(events) = &self.events {
            let _ = events.send(AuditEvent::Window {
                index: self.window_index,
                txns: window_txns,
                summary: report.summary(),
                decided_by: report.decided_by(),
                elapsed: audit_elapsed,
            });
        }
        self.verdicts.push(WindowVerdict {
            index: self.window_index,
            txns: window_txns,
            report,
            audit_elapsed,
        });
        self.audited_through = self.total_txns;

        let absorb = if fin { self.cur.len() } else { self.cur.len() - self.config.overlap };
        self.frontier.absorb_window(self.window_index, self.cur.drain(..absorb));
        self.window_index += 1;
    }

    /// Merge the per-window verdicts into the whole-run report.
    fn merged_report(&self) -> AuditReport {
        let shape = format!(
            "{} transactions over {} window(s) of ≤{} (overlap {})",
            self.total_txns,
            self.verdicts.len(),
            self.config.size,
            self.config.overlap
        );
        let levels = Level::ALL
            .iter()
            .map(|&level| {
                // The merged verdict leans on the solver as soon as any
                // window's verdict for the level did, and on the recording
                // order only when every window was certified by it.
                let by = DecidedBy::merged(self.verdicts.iter().flat_map(|w| {
                    w.report.levels.iter().filter(|r| r.level == level).map(|r| r.decided_by)
                }));
                LevelReport::new(level, self.merged_outcome(level)).via(by)
            })
            .collect();
        AuditReport { shape, levels }
    }

    fn merged_outcome(&self, level: Level) -> Outcome {
        let windows = self.verdicts.len();
        fold_outcomes(
            self.verdicts.iter().filter_map(|w| {
                w.report.outcome(level).map(|outcome| (format!("window {}", w.index), outcome))
            }),
            |count, first| format!("{count} of {windows} window(s) inconclusive (first: {first})"),
            || {
                format!(
                    "attested per-window: {} passed in all {windows} window(s); windowed \
                     auditing is violation-sound (reported violations are real), and a pass \
                     certifies each window against its carried frontier, not the uncut \
                     whole-run order",
                    level.tag()
                )
            },
        )
    }
}

/// Anything an ordered transaction stream can be fed into: the
/// [`WindowedAuditor`], a [`HistoryCollector`], a [`TeeSink`] of two sinks.
///
/// A [`StreamMerger`] releases records through this trait, so the merge stage
/// is shared by every sink.  Implementations require the same contract as
/// [`WindowedAuditor::push`]: transactions of one session arrive in session
/// order.
pub trait TxnSink {
    /// Deliver one committed transaction of `session`.
    fn push_txn(&mut self, session: usize, txn: AuditTxn);
}

impl TxnSink for WindowedAuditor {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        self.push(session, txn);
    }
}

impl<T: TxnSink + ?Sized> TxnSink for &mut T {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        (**self).push_txn(session, txn);
    }
}

/// Fans one transaction stream out to two sinks — the capture hook the
/// history-export path is built on: a [`StreamMerger`] releases into a
/// `TeeSink` of the live auditor and a [`HistoryCollector`], so the captured
/// history carries **exactly** the hints the auditor saw
/// (unlike a recorder-level tee, where two recorders would assign
/// independent hints to racing commits).
#[derive(Debug)]
pub struct TeeSink<A, B> {
    /// The primary sink (typically the live auditor).
    pub first: A,
    /// The secondary sink (typically a [`HistoryCollector`]).
    pub second: B,
}

impl<A: TxnSink, B: TxnSink> TeeSink<A, B> {
    /// Tee one stream into `first` and `second`.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }
}

impl<A: TxnSink, B: TxnSink> TxnSink for TeeSink<A, B> {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        self.first.push_txn(session, txn.clone());
        self.second.push_txn(session, txn);
    }
}

/// A [`TxnSink`] that rebuilds the [`AuditHistory`] a stream describes —
/// records kept as they arrived, hints included, so replaying the collected
/// history through [`audit_streamed`] (or any topology) reproduces the live
/// pipeline's verdicts exactly.
#[derive(Debug)]
pub struct HistoryCollector {
    history: AuditHistory,
}

impl HistoryCollector {
    /// An empty collector for `n_sessions` sessions over `n_vars` variables.
    pub fn new(n_vars: usize, initial: i64, n_sessions: usize) -> Self {
        HistoryCollector { history: AuditHistory::new(n_vars, initial, n_sessions) }
    }

    /// The collected history.
    pub fn into_history(self) -> AuditHistory {
        self.history
    }
}

impl TxnSink for HistoryCollector {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        if session >= self.history.sessions.len() {
            self.history.sessions.resize_with(session + 1, Vec::new);
        }
        self.history.sessions[session].push(txn);
    }
}

/// Merges per-session [`CommitBatch`]es into global recording order before
/// they reach a [`WindowedAuditor`].
///
/// A [`stm_runtime::StreamingRecorder`] flushes whole per-session shards, so
/// raw arrival order is bursty: one session's 256 commits, then another's.
/// Windowing *that* order would put each session in its own window and blind
/// the auditor to cross-session anomalies.  Every batch is one session's
/// consecutive commits, already in hint order, so the merger keeps one
/// **run** per session, appends each batch to its session's run, and
/// releases the smallest `(hint, session)` head among the runs while it is
/// at or below the **watermark** — the smallest newest-hint any session has
/// delivered: no session can still deliver anything below it.  A k-way merge
/// of hint-sorted runs is the `(hint, session)` sort, and per-session order —
/// the only ordering correctness depends on — holds by construction: a
/// record never overtakes the one before it in its run, whatever its hint.
/// [`StreamMerger::finish`] releases the tail once the stream closes.
///
/// A run is a queue of the batches themselves, drained from the front one:
/// no record is copied into a buffer of the merger's own, and a batch's
/// memory goes back to the allocator the moment its last record leaves —
/// what a run holds is what has not been released, not the most it ever held.
///
/// An idle or slow session holds the watermark back, so the runs are
/// additionally capped at [`StreamMerger::MAX_BUFFERED`] records in total:
/// past the cap, the same merge runs ahead of the watermark until half the
/// cap remains.  That trades some cross-session window alignment for bounded
/// memory and verdict progress when one session stalls.
#[derive(Debug)]
pub struct StreamMerger {
    /// Per session: its delivered batches with a record still to release,
    /// oldest first (so none is empty; the front one may be part-drained).
    runs: Vec<VecDeque<std::vec::IntoIter<AuditTxn>>>,
    /// Records across all runs.
    buffered: usize,
    /// Per-session latest hint delivered (None until first batch).
    highest: Vec<Option<u64>>,
    /// Live run-depth gauge (`audit_merger_buffered`), when metrics are on.
    depth: Option<tm_telemetry::Gauge>,
}

impl StreamMerger {
    /// Records held back at most while waiting for a lagging session's
    /// watermark; beyond this the oldest are released early, down to half.
    pub const MAX_BUFFERED: usize = 65_536;

    /// A merger for `n_sessions` producing sessions.
    pub fn new(n_sessions: usize) -> Self {
        StreamMerger {
            runs: vec![VecDeque::new(); n_sessions],
            buffered: 0,
            highest: vec![None; n_sessions],
            depth: tm_telemetry::enabled()
                .then(|| tm_telemetry::global().gauge("audit_merger_buffered", &[], "records")),
        }
    }

    /// Drain `consumer` through a fresh merger into `sink` until the recorder
    /// finishes — the consumer side of `recorder → merger → sink`, whole.
    /// `workloads::run_live` runs it on a thread beside the workload; a test
    /// that choreographs its own threads calls it after
    /// [`stm_runtime::StreamingRecorder::finish`].
    pub fn drain(consumer: &StreamConsumer, n_sessions: usize, sink: &mut impl TxnSink) {
        let mut merger = StreamMerger::new(n_sessions);
        while let Some(batch) = consumer.recv() {
            merger.merge(batch, sink);
        }
        merger.finish(sink);
    }

    /// [`StreamMerger::drain`]'s step for a caller that keeps its batch:
    /// append a copy to the session's run and release everything at or below
    /// the new watermark into the auditor.
    pub fn push_batch(&mut self, batch: &CommitBatch, auditor: &mut impl TxnSink) {
        self.merge(batch.clone(), auditor);
    }

    fn merge(&mut self, batch: CommitBatch, auditor: &mut impl TxnSink) {
        let CommitBatch { session, records } = batch;
        if let Some(newest) = records.iter().map(|record| record.hint).max() {
            let highest = &mut self.highest[session];
            *highest = Some(highest.map_or(newest, |h| h.max(newest)));
        }
        if !records.is_empty() {
            self.buffered += records.len();
            self.runs[session].push_back(records.into_iter());
        }
        if let Some(watermark) = self.highest.iter().copied().min().flatten() {
            self.release(watermark, 0, auditor);
        }
        // A lagging session must not let the runs grow with the run.
        if self.buffered > Self::MAX_BUFFERED {
            self.release(u64::MAX, Self::MAX_BUFFERED / 2, auditor);
        }
        if let Some(depth) = &self.depth {
            depth.set(self.buffered as i64);
        }
    }

    /// Release every buffered record once the stream has closed.
    pub fn finish(mut self, auditor: &mut impl TxnSink) {
        self.release(u64::MAX, 0, auditor);
        if let Some(depth) = &self.depth {
            depth.set(0);
        }
    }

    /// Merge the runs into `auditor` — smallest `(hint, session)` head first —
    /// while that head is at or below `watermark` and more than `keep`
    /// records are buffered.
    fn release(&mut self, watermark: u64, keep: usize, auditor: &mut impl TxnSink) {
        while self.buffered > keep {
            let heads = self.runs.iter().enumerate();
            let head =
                heads.filter_map(|(s, run)| Some((run.front()?.as_slice().first()?.hint, s))).min();
            let Some((_, session)) = head.filter(|&(hint, _)| hint <= watermark) else { break };
            let run = &mut self.runs[session];
            let batch = run.front_mut().expect("the head was just read");
            let txn = batch.next().expect("the head was just read");
            if batch.as_slice().is_empty() {
                run.pop_front();
            }
            self.buffered -= 1;
            auditor.push_txn(session, txn);
        }
    }
}

/// Stream a complete [`AuditHistory`] through a [`WindowedAuditor`] in
/// recording (hint) order — the deterministic replay the windowed/batch
/// equivalence suite is built on.  Per-session hint order must match session
/// order, which every recorder and adapter in this crate guarantees.
pub fn audit_streamed(history: &AuditHistory, config: WindowConfig) -> StreamReport {
    let mut auditor = WindowedAuditor::new(history.n_vars, history.initial, config);
    for (session, txn) in history.recording_order() {
        auditor.push(session, txn.clone());
    }
    auditor.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: usize, overlap: usize) -> WindowConfig {
        WindowConfig { size, overlap, ..WindowConfig::sized(size) }
    }

    /// Replay `h` in recording order through `auditor`.
    fn replay(mut auditor: WindowedAuditor, h: &AuditHistory) -> StreamReport {
        for (session, txn) in h.recording_order() {
            auditor.push(session, txn.clone());
        }
        auditor.finish()
    }

    fn provenance(report: &AuditReport) -> Vec<DecidedBy> {
        report.levels.iter().map(|l| l.decided_by).collect()
    }

    fn txn(hint: u64, reads: &[(usize, i64)], writes: &[(usize, i64)]) -> AuditTxn {
        let set = |pairs: &[(usize, i64)]| pairs.iter().copied().collect();
        AuditTxn { reads: set(reads), writes: set(writes), hint, footprint: 0 }
    }

    /// What a round killed after `order[..cut]` leaves behind: the log's
    /// arrival ids, the record chain (one per closed window, through its
    /// persisted form) — and the live auditor itself, to compare against.
    fn crash_after(
        order: &[(usize, &AuditTxn)],
        cut: usize,
        n_vars: usize,
        config: WindowConfig,
    ) -> (WindowedAuditor, Vec<BoundaryRecord>, Vec<TxnId>) {
        let mut live = WindowedAuditor::new(n_vars, 0, config);
        let (mut chain, mut arrival) = (Vec::new(), Vec::new());
        for &(session, txn) in &order[..cut] {
            arrival.push(TxnId { session, seq: live.seqs.get(&session).copied().unwrap_or(0) });
            live.push(session, txn.clone());
            if live.windows_closed() > chain.len() {
                let json = live.boundary_record().expect("a window closed").to_json();
                chain.push(BoundaryRecord::parse(&json).expect("parse record"));
            }
        }
        (live, chain, arrival)
    }

    /// Recovery of that round: resume from the chain and the log (cold, when
    /// nothing sealed), replay the unabsorbed suffix, then deliver the rest
    /// of the stream and finish.
    fn recover_and_finish(
        h: &AuditHistory,
        order: &[(usize, &AuditTxn)],
        config: WindowConfig,
        chain: &[BoundaryRecord],
        arrival: &[TxnId],
    ) -> StreamReport {
        let mut resumed = match chain {
            [] => WindowedAuditor::new(h.n_vars, h.initial, config),
            _ => WindowedAuditor::resume_from_frontier(chain, h, arrival, None).expect("resume"),
        };
        for &(session, txn) in &order[resumed.txns_seen() as usize..] {
            resumed.push(session, txn.clone());
        }
        resumed.finish()
    }

    /// The frontier where stand-in order decides: session 1's first
    /// transaction holds the latest `x` and a stale `y`, session 0's the
    /// latest `y` — and sorts *first* by identity.  The second window reads
    /// both latest values.
    fn stale_sibling_history() -> AuditHistory {
        let (x, y) = (0, 1);
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(1, [], [(x, 10), (y, 20)]);
        h.push_txn(0, [(y, 20)], [(y, 21)]);
        h.push_txn(0, [(x, 10), (y, 21)], []);
        h.push_txn(1, [(y, 21)], [(y, 22)]);
        h
    }

    /// Stand-ins keep their recorded hint, so the window after the frontier
    /// above is certified by its recording order (at hint 0 the stale `y`
    /// would sort after the latest one and the window would have to search)
    /// — live, and after a resume, whose re-absorbed records bring their
    /// hints with them.
    #[test]
    fn stand_ins_sort_by_their_recorded_hint() {
        let h = stale_sibling_history();
        let stream = audit_streamed(&h, cfg(2, 0));
        assert_eq!(stream.windows.len(), 2);
        for w in &stream.windows {
            assert_eq!(provenance(&w.report), [DecidedBy::Hint; 6], "window {}", w.index);
        }
        assert_eq!(provenance(&stream.merged), [DecidedBy::Hint; 6]);
        assert_eq!(stream.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");

        let order = h.recording_order();
        let (_, chain, arrival) = crash_after(&order, 2, 2, cfg(2, 0));
        assert_eq!(chain.len(), 1, "window 0 sealed, covering 2 records at stride 2");
        let resumed = recover_and_finish(&h, &order, cfg(2, 0), &chain, &arrival);
        assert_eq!(resumed.merged, stream.merged);
        for (resumed, live) in resumed.windows.iter().zip(&stream.windows) {
            assert_eq!(resumed.report, live.report, "window {}", live.index);
        }
    }

    /// Hints that mislead: one contradicts a write-read edge (the
    /// topological order repairs that), one places a stale reader last (that
    /// it cannot repair).  The order does not verify, the window falls back
    /// to the search, and the search finds the serial order that exists.
    #[test]
    fn misleading_hints_fall_back_to_the_search_and_still_pass() {
        let mut auditor = WindowedAuditor::new(1, 0, cfg(8, 0));
        auditor.push(0, txn(9, &[(0, 0)], &[(0, 1)]));
        auditor.push(1, txn(1, &[(0, 1)], &[(0, 2)])); // hint says: before its source
        auditor.push(2, txn(20, &[(0, 0)], &[])); // hint says: last; must be first
        let report = auditor.finish();
        assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");
        assert_eq!(provenance(&report.windows[0].report), [DecidedBy::Dfs; 6]);
        let Some(Outcome::Pass { witness }) = report.windows[0].report.outcome(Level::Serializable)
        else {
            panic!("expected a pass");
        };
        assert_eq!(witness, "commit order: s2:0 < s0:0 < s1:0");
    }

    /// A window whose own order verifies can still hold half of a lost
    /// update: a late arrival (hint 8, delivered after hint 12) rmw's a
    /// source an absorbed transaction already rmw'd.  The absorbed half's
    /// stand-in is write-only and sorts after the late one, so the window's
    /// recording order is serial — the carried rmw fact is what convicts,
    /// and it must keep the window off the certified path.
    #[test]
    fn a_carried_rmw_fact_convicts_a_window_whose_own_order_verifies() {
        let (u, v) = (0, 1);
        let mut auditor = WindowedAuditor::new(2, 0, cfg(4, 0));
        auditor.push(0, txn(0, &[], &[(v, 5)]));
        auditor.push(0, txn(10, &[(v, 5)], &[(v, 6)])); // the absorbed half
        auditor.push(0, txn(11, &[], &[(u, 100)]));
        auditor.push(0, txn(12, &[], &[(u, 101)]));
        assert_eq!(auditor.windows_closed(), 1);
        auditor.push(1, txn(8, &[(v, 5)], &[(v, 7)])); // the late half
        auditor.push(0, txn(13, &[], &[(u, 102)]));
        let report = auditor.finish();

        assert_eq!(provenance(&report.windows[0].report), [DecidedBy::Hint; 6]);
        let second = &report.windows[1].report;
        assert_eq!(second.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✗ | SER ✗");
        assert_eq!(
            provenance(second),
            [DecidedBy::Dfs; 6],
            "convicted windows are never certified"
        );
        let conviction = report.first_conviction.as_ref().expect("convicted");
        assert_eq!(conviction.level, Level::SnapshotIsolation);
        assert!(conviction.violation.contains("cross-window lost update on v1"), "{conviction:?}");
        assert_eq!(provenance(&report.merged)[5], DecidedBy::Dfs);
    }

    /// `SatConfig::force` asks for the solver's verdict, so a forced window
    /// (and a forced batch audit) never takes the certified path.
    #[test]
    fn forced_sat_is_never_certified_by_the_hint() {
        let h = stale_sibling_history();
        let forced = Some(SatConfig { force: true, ..SatConfig::default() });
        let stream = audit_streamed(&h, WindowConfig { sat: forced, ..cfg(2, 0) });
        let batch = crate::audit_with_options(
            &h,
            &crate::AuditOptions { budget: DEFAULT_STATE_BUDGET, sat: forced },
        );
        for report in stream.windows.iter().map(|w| &w.report).chain([&stream.merged, &batch]) {
            assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");
            assert!(!provenance(report).contains(&DecidedBy::Hint), "{report}");
            assert_eq!(provenance(report)[3..], [DecidedBy::Sat; 3], "{report}");
        }
        // Unforced, the same history is certified outright.
        assert_eq!(provenance(&crate::audit(&h)), [DecidedBy::Hint; 6]);
    }

    /// The certified/searched meters add up to the window count, the
    /// push-time probes are metered too, and the searched window reports the
    /// two things its cost depends on: its chains and its saturation rounds.
    #[test]
    fn telemetry_counts_certified_and_searched_windows() {
        let registry = tm_telemetry::Registry::new();
        let mut h = AuditHistory::new(2, 0, 2);
        for i in 0..12i64 {
            h.push_txn(0, [], [(0, 100 + i)]);
        }
        h.push_txn(0, [(1, 0)], [(1, 1)]);
        h.push_txn(1, [(1, 0)], [(1, 2)]); // lost update in the last window
        let auditor = WindowedAuditor::new(2, 0, cfg(4, 0))
            .with_telemetry(AuditTelemetry::from_registry(&registry));
        let report = replay(auditor, &h);
        assert!(report.fails(Level::SnapshotIsolation));

        let tele = AuditTelemetry::from_registry(&registry);
        assert_eq!(tele.windows.get(), 4);
        assert_eq!(tele.certified.get(), 3);
        assert_eq!(tele.searched.get(), 1);
        assert!(tele.sync_latency.count() >= 14, "one probe per push (batch 1) plus the closes");
        // Only the searched window samples: session 0 (continuing from its
        // stand-in) and session 1.
        assert_eq!((tele.chains.count(), tele.chains.sum()), (1, 2));
        assert_eq!(tele.saturation_rounds.get(), 1, "nothing to derive: one pass over v1");
        // Three NP-hard cells per window, by the stage that decided them.
        assert_eq!(tele.np_cells.each_ref().map(|c| c.get()), [9, 3, 0]);
    }

    /// The verify-first passes resume: on a healthy stream probed at every
    /// push (batch 1), each window's passes together place its transactions
    /// and stand-ins exactly once.  A read parked on a writer that arrives
    /// later costs one restart, which places the verified prefix again.
    #[test]
    fn certify_passes_place_each_transaction_once_and_count_restarts() {
        let registry = tm_telemetry::Registry::new();
        let mut h = AuditHistory::new(4, 0, 2);
        for i in 1..=60i64 {
            let var = (i % 4) as usize;
            let seen = if i > 4 { i - 4 } else { 0 };
            h.push_txn(
                (i % 3 % 2) as usize,
                [(var, seen), ((var + 1) % 4, 0.max(i - 3))],
                [(var, i)],
            );
        }
        let auditor = WindowedAuditor::new(4, 0, cfg(8, 2))
            .with_telemetry(AuditTelemetry::from_registry(&registry));
        let report = replay(auditor, &h);
        assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");
        assert!(report.windows.len() > 5, "the stream must span many windows");
        let stand_ins = |w: &WindowVerdict| -> u64 {
            let shape = &w.report.shape;
            let from = shape.find("(+").expect("shape names the stand-ins") + 2;
            shape[from..].split(' ').next().and_then(|n| n.parse().ok()).expect("a count")
        };
        let placed: u64 = report.windows.iter().map(|w| w.txns as u64 + stand_ins(w)).sum();
        let tele = AuditTelemetry::from_registry(&registry);
        assert_eq!(tele.certified.get(), report.windows.len() as u64);
        assert_eq!((tele.certify_placed.get(), tele.certify_restarts.get()), (placed, 0));

        let registry = tm_telemetry::Registry::new();
        let mut auditor = WindowedAuditor::new(1, 0, cfg(8, 0))
            .with_telemetry(AuditTelemetry::from_registry(&registry));
        auditor.push(0, txn(1, &[(0, 5)], &[])); // parked, then placed by its probe
        auditor.push(1, txn(2, &[], &[(0, 5)])); // its writer: an edge into the prefix
        let report = auditor.finish();
        assert_eq!(provenance(&report.windows[0].report), [DecidedBy::Hint; 6]);
        let tele = AuditTelemetry::from_registry(&registry);
        assert_eq!((tele.certify_placed.get(), tele.certify_restarts.get()), (1 + 2, 1));
    }

    /// With a solver configured the meters say which stage decided each
    /// NP-hard cell and what the solver stage built and spent.
    #[test]
    fn telemetry_meters_the_solver_stage() {
        // Two unordered writers of v1 under cross-session readers (the
        // conflict-exhaustion history of `crate::tests`): SI needs the solver
        // to open pairs and forbid a cycle; a 1-state budget starves the DFS.
        let mut h = AuditHistory::new(2, 0, 3);
        h.push_txn(0, [(1, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(1, 2)]);
        h.push_txn(2, [(0, 0)], [(1, 3)]);
        h.push_txn(1, [(1, 2)], [(0, 4)]);
        let registry = tm_telemetry::Registry::new();
        let config = WindowConfig { budget: 1, sat: Some(SatConfig::default()), ..cfg(8, 0) };
        let auditor = WindowedAuditor::new(2, 0, config)
            .with_telemetry(AuditTelemetry::from_registry(&registry));
        let report = replay(auditor, &h);
        assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✗");

        let tele = AuditTelemetry::from_registry(&registry);
        assert_eq!(tele.sat_windows.get(), 1);
        assert!(tele.sat_probe_states.get() > 0);
        assert!(tele.sat_pairs.get() > 0 && tele.sat_clauses.get() > 0);
        assert!(tele.sat_conflicts.get() + tele.sat_refinements.get() > 0);
        let [hint, dfs, sat] = tele.np_cells.each_ref().map(|c| c.get());
        assert_eq!((hint, dfs + sat), (0, 3), "one searched window, three decided cells");
        assert!(sat > 0);
    }

    /// The bucketed frontier against the definition it replaces: keep a
    /// write while its window is within the horizon or it is its variable's
    /// latest; keep an rmw fact while its source is the initial value or
    /// still attributed.
    #[test]
    fn bucketed_eviction_matches_the_scan_it_replaced() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_vars = 5usize;
            let mut frontier = Frontier::new(n_vars, 0);
            let mut source_of: HashMap<(usize, i64), (TxnId, usize)> = HashMap::new();
            let mut rmw_of: HashMap<(usize, i64), (TxnId, i64)> = HashMap::new();
            let mut latest: Vec<Option<i64>> = vec![None; n_vars];
            let mut next = 1i64;
            for window in 0..30usize {
                for seq in 0..rng.gen_range(0..6usize) {
                    let id = TxnId { session: window % 3, seq: window * 10 + seq };
                    let mut t = AuditTxn::default();
                    for (var, current) in latest.iter().enumerate() {
                        if rng.gen_bool(0.3) {
                            // Sometimes an rmw over a current, an old or an
                            // unattributed value; mostly a blind write.
                            match rng.gen_range(0..5u32) {
                                0 => t.reads.push((var, current.unwrap_or(0))),
                                1 => t.reads.push((var, rng.gen_range(0..next))),
                                _ => {}
                            }
                            t.writes.push((var, next));
                            next += 1;
                        }
                    }
                    for &(var, value) in &t.writes {
                        source_of.insert((var, value), (id, window));
                        latest[var] = Some(value);
                        if let Some(&(_, source)) = t.reads.iter().find(|&&(v, _)| v == var) {
                            rmw_of.entry((var, source)).or_insert((id, value));
                        }
                    }
                    frontier.absorb(id, t, window);
                }
                source_of.retain(|&(var, value), &mut (_, w)| {
                    w + RETAIN_WINDOWS > window || latest[var] == Some(value)
                });
                rmw_of.retain(|&(var, source), _| {
                    source == 0 || source_of.contains_key(&(var, source))
                });
                frontier.evict(window + 1);

                let attributed: HashMap<(usize, i64), (TxnId, usize)> = frontier
                    .source_of
                    .iter()
                    .map(|(&key, s)| (key, (frontier.writers[s.writer as usize].id, s.window)))
                    .collect();
                assert_eq!(attributed, source_of, "seed {seed} window {window}");
                assert_eq!(frontier.rmw_of, rmw_of, "seed {seed} window {window}");
                assert_eq!(frontier.latest, latest);
                // Every attributed write, and nothing else, is on its writer.
                let mut writers: Vec<WriterRef> =
                    source_of.keys().filter_map(|&(var, v)| frontier.source(var, v)).collect();
                writers.sort_unstable_by_key(|w| w.id);
                writers.dedup_by_key(|w| w.id);
                let mut on_writers: Vec<((usize, i64), TxnId)> = writers
                    .iter()
                    .flat_map(|&w| {
                        frontier.stand_in(w).writes.to_vec().into_iter().map(move |k| (k, w.id))
                    })
                    .collect();
                on_writers.sort_unstable();
                let mut expected: Vec<((usize, i64), TxnId)> =
                    source_of.iter().map(|(&k, &(id, _))| (k, id)).collect();
                expected.sort_unstable();
                assert_eq!(on_writers, expected, "seed {seed} window {window}");
                let live: usize = frontier.writers.iter().filter(|w| !w.writes.is_empty()).count();
                assert_eq!(
                    live + frontier.free_slots.len(),
                    frontier.writers.len(),
                    "seed {seed} window {window}: an empty writer slot must be recycled"
                );
            }
        }
    }

    /// A serializable cross-session handoff chain long enough to span many
    /// windows: every read crosses back one step, several cross window
    /// boundaries, and the frontier must attribute them.
    #[test]
    fn cross_window_handoff_chain_stays_clean() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        for i in 1..40i64 {
            h.push_txn((i % 2) as usize, [(0, i)], [(0, i + 1)]);
        }
        let batch = crate::audit(&h);
        let stream = audit_streamed(&h, cfg(8, 2));
        assert!(stream.windows.len() > 3, "chain must span several windows");
        for level in Level::ALL {
            assert!(batch.passes(level), "batch {level}");
            assert!(stream.passes(level), "stream {level}: {}", stream.merged);
        }
        assert_eq!(stream.total_txns, 40);
        assert_eq!(stream.evicted_attributions, 0, "frontier resolves every read");
        assert!(stream.first_conviction.is_none());
    }

    /// A lost update whose two read-modify-writes sit in the same window is
    /// convicted, and the merged report pins the window.
    #[test]
    fn co_windowed_lost_update_is_convicted() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]);
        for i in 0..30i64 {
            h.push_txn(0, [], [(1, 100 + i)]);
        }
        let stream = audit_streamed(&h, cfg(8, 2));
        assert!(stream.fails(Level::SnapshotIsolation), "{}", stream.merged);
        assert!(stream.fails(Level::Serializable));
        assert!(stream.passes(Level::Causal));
        let conviction = stream.first_conviction.as_ref().expect("convicted");
        assert_eq!(conviction.window, 0);
        assert!(conviction.violation.contains("lost update"), "{}", conviction.violation);
        assert!(conviction.txns_seen < stream.total_txns, "convicted mid-stream");
        let Outcome::Fail { violation } =
            stream.merged.outcome(Level::Serializable).unwrap().clone()
        else {
            panic!("expected merged failure");
        };
        assert!(violation.starts_with("window 0:"), "{violation}");
    }

    /// A cross-window lost-update pair whose stale source value resolves
    /// through a *latest-writer* stand-in (so the reader never parks as
    /// pending) must still be convicted: the carried rmw fact joins via the
    /// read log / the stand-in's own reads, not only via pending values.
    #[test]
    fn lost_update_via_latest_writer_stand_in_is_still_convicted() {
        let mut h = AuditHistory::new(3, 0, 2);
        // W writes both u (stays latest forever) and v = 5.
        h.push_txn(0, [], [(0, 10), (1, 5)]);
        // A: rmw of v from 5 — the remembered half of the pair.
        h.push_txn(0, [(1, 5)], [(1, 6)]);
        // Enough filler that A and B sit several windows apart, but within
        // the retention horizon (past it, the miss is the documented
        // pass-attestation caveat).
        for i in 0..20i64 {
            h.push_txn(0, [], [(2, 100 + i)]);
        }
        // B: a stale rmw of v from the same source, far downstream.  Its
        // read resolves instantly against W's latest-writer stand-in.
        h.push_txn(1, [(1, 5)], [(1, 7)]);
        let batch = crate::audit(&h);
        assert!(batch.fails(Level::SnapshotIsolation), "{batch}");
        let stream = audit_streamed(&h, cfg(8, 2));
        assert!(stream.fails(Level::SnapshotIsolation), "{}", stream.merged);
        assert!(stream.fails(Level::Serializable), "{}", stream.merged);
        let conviction = stream.first_conviction.as_ref().expect("must convict");
        assert!(conviction.violation.contains("lost update on v1"), "{}", conviction.violation);
    }

    /// Reads beyond the retention horizon are attributed to evicted
    /// stand-ins (attested) instead of exploding as thin air.
    #[test]
    fn reads_past_the_retention_horizon_become_evicted_attributions() {
        // Filler pushing the read well past the horizon of 8-transaction
        // windows.
        let filler = 8 * (RETAIN_WINDOWS as i64 + 4);
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [], [(0, 7)]); // the write that will be evicted
        for i in 0..filler {
            h.push_txn(0, [], [(1, 100 + i)]);
        }
        h.push_txn(1, [(0, 7)], []); // a very stale (but real) read
        let config = cfg(8, 0);
        let stream = audit_streamed(&h, config);
        // v0 = 7 stays latest-per-var for v0, so it actually stays resolvable;
        // overwrite it early to force true eviction.
        assert_eq!(stream.evicted_attributions, 0);

        let mut h2 = AuditHistory::new(2, 0, 2);
        h2.push_txn(0, [], [(0, 7)]);
        h2.push_txn(0, [], [(0, 8)]); // supersedes 7 as latest
        for i in 0..filler {
            h2.push_txn(0, [], [(1, 100 + i)]);
        }
        h2.push_txn(1, [(0, 7)], []); // reads the evicted value
        let stream2 = audit_streamed(&h2, config);
        assert_eq!(stream2.evicted_attributions, 1, "{}", stream2.merged);
        // The attested attribution keeps the run auditable end to end.
        assert!(stream2.passes(Level::ReadCommitted), "{}", stream2.merged);
    }

    /// Metric invariant: every closed window is counted once, with one
    /// sample in each latency histogram, and a convicting stream records
    /// exactly one first-conviction event.
    #[test]
    fn telemetry_accounts_every_window_and_the_conviction() {
        let registry = tm_telemetry::Registry::new();
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]); // lost update in window 0
        for i in 0..30i64 {
            h.push_txn(0, [], [(1, 100 + i)]);
        }
        let mut auditor = WindowedAuditor::new(2, 0, cfg(8, 2))
            .with_telemetry(AuditTelemetry::from_registry(&registry));
        for (s, t) in h.recording_order() {
            auditor.push(s, t.clone());
        }
        let report = auditor.finish();
        assert!(report.fails(Level::SnapshotIsolation));

        let tele = AuditTelemetry::from_registry(&registry);
        let windows = report.windows.len() as u64;
        assert_eq!(tele.windows.get(), windows);
        assert_eq!(tele.window_latency.count(), windows, "one audit-latency sample per window");
        assert_eq!(tele.verdict_latency.count(), windows, "one verdict-latency sample per window");
        assert_eq!(tele.convictions.get(), 1, "first conviction is counted once");
        assert!(
            tele.budget_slashed.get() > 0,
            "post-conviction windows must run on a slashed budget"
        );
    }

    /// The live feed's order: one `Window` per closed window, in stream
    /// order, and one `Conviction` per stream — for a violation found at a
    /// close, sent just before that window's `Window`.  A write skew is such
    /// a violation: no probe refutes SER, only the close does.
    #[test]
    fn events_announce_every_window_and_a_close_time_conviction_before_its_window() {
        let mut h = AuditHistory::new(3, 0, 2);
        for i in 0..10i64 {
            h.push_txn(0, [], [(2, 100 + i)]);
        }
        h.push_txn(0, [(0, 0)], [(1, 10)]);
        h.push_txn(1, [(1, 0)], [(0, 20)]); // write skew, window 1
        for i in 0..20i64 {
            h.push_txn(1, [], [(2, 200 + i)]);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let report = replay(WindowedAuditor::new(3, 0, cfg(8, 2)).with_events(tx), &h);
        let (mut windows, mut convictions) = (Vec::new(), Vec::new());
        for event in rx.try_iter() {
            match event {
                AuditEvent::Window { index, .. } => windows.push(index),
                AuditEvent::Conviction { conviction } => {
                    convictions.push((windows.len(), conviction))
                }
            }
        }
        assert_eq!(windows, (0..report.windows.len()).collect::<Vec<_>>());
        assert!(windows.len() > 2, "the stream must span several windows");
        let [(windows_before, conviction)] = &convictions[..] else {
            panic!("one conviction per stream: {convictions:?}");
        };
        assert_eq!(Some(conviction), report.first_conviction.as_ref());
        assert_eq!((conviction.level, conviction.window), (Level::Serializable, 1));
        assert_eq!(*windows_before, conviction.window, "announced just before its window");
    }

    /// Crash/resume at every cut point: the record chain plus the log
    /// prefix rebuild the very frontier the killed auditor held, and
    /// replaying everything from `replay_from` reproduces the uninterrupted
    /// run's verdicts exactly — merged report, conviction, totals.
    #[test]
    fn boundary_snapshot_resume_reproduces_the_uninterrupted_verdict() {
        // Cross-window handoffs plus a lost-update pair so the stream both
        // carries frontier attribution and lands a conviction.
        let mut h = AuditHistory::new(3, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        for i in 1..30i64 {
            h.push_txn((i % 2) as usize, [(0, i)], [(0, i + 1)]);
        }
        h.push_txn(0, [(1, 0)], [(1, 100)]);
        h.push_txn(1, [(1, 0)], [(1, 200)]); // lost update far downstream
        for i in 0..10i64 {
            h.push_txn(0, [], [(2, 300 + i)]);
        }
        let config = cfg(8, 2);
        let baseline = audit_streamed(&h, config);
        assert!(baseline.fails(Level::SnapshotIsolation), "{}", baseline.merged);

        let order = h.recording_order();
        for cut in 1..=order.len() {
            let (live, chain, arrival) = crash_after(&order, cut, 3, config);
            if !chain.is_empty() {
                let resumed = WindowedAuditor::resume_from_frontier(&chain, &h, &arrival, None)
                    .expect("resume");
                assert_eq!(resumed.frontier, live.frontier, "cut {cut}");
            }
            let report = recover_and_finish(&h, &order, config, &chain, &arrival);
            assert_eq!(report.merged, baseline.merged, "cut {cut}");
            assert_eq!(report.total_txns, baseline.total_txns, "cut {cut}");
            assert_eq!(report.windows.len(), baseline.windows.len(), "cut {cut}");
            assert_eq!(report.evicted_attributions, baseline.evicted_attributions, "cut {cut}");
            assert_eq!(report.first_conviction, baseline.first_conviction, "cut {cut}");
        }
    }

    /// What outlives the retention horizon is rebuilt too: a variable last
    /// written, and an initial-value rmw fact recorded, many more than
    /// `RETAIN_WINDOWS` windows before the crash.  The lost-update partner
    /// of that fact and a read of that latest value arrive after recovery;
    /// the recovered stream convicts exactly as the uninterrupted one does.
    #[test]
    fn resume_rebuilds_what_outlived_the_retention_horizon() {
        let (u, v, filler) = (0, 1, 2);
        let mut h = AuditHistory::new(3, 0, 2);
        h.push_txn(0, [], [(u, 10)]); // u's latest value, forever
        h.push_txn(0, [(v, 0)], [(v, 100)]); // the rmw fact over v's initial value
        let n_filler = 12 * RETAIN_WINDOWS; // twice the horizon of 6-transaction strides
        for i in 0..n_filler as i64 {
            h.push_txn(0, [], [(filler, 300 + i)]);
        }
        h.push_txn(1, [(u, 10)], []); // resolves against the kept latest writer
        h.push_txn(1, [(v, 0)], [(v, 200)]); // the far half of the lost update
        let config = cfg(8, 2);
        let baseline = audit_streamed(&h, config);
        let conviction = baseline.first_conviction.as_ref().expect("convicted");
        assert_eq!(conviction.level, Level::SnapshotIsolation);
        assert!(conviction.violation.contains("cross-window lost update on v1"), "{conviction:?}");
        assert_eq!(baseline.evicted_attributions, 0, "the latest write of u stays resolvable");

        let order = h.recording_order();
        let (_, chain, arrival) = crash_after(&order, n_filler, 3, config);
        assert!(chain.len() > 2 + RETAIN_WINDOWS, "both facts are past the horizon");
        let report = recover_and_finish(&h, &order, config, &chain, &arrival);
        assert_eq!(report.first_conviction, baseline.first_conviction);
        assert_eq!(report.merged, baseline.merged);
        assert_eq!(report.evicted_attributions, 0);
    }

    /// A window reserves for what arrives, not for what its size allows:
    /// 40 transactions under a 2^40-transaction window (a size the CLI and a
    /// config read from disk both accept) finish with the verdict a small
    /// window reaches, instead of aborting on a terabyte-scale reservation.
    #[test]
    fn huge_window_sizes_reserve_only_what_arrives() {
        let mut h = AuditHistory::new(2, 0, 2);
        for i in 0..38i64 {
            h.push_txn((i % 2) as usize, [(0, i)], [(0, i + 1)]);
        }
        h.push_txn(0, [(1, 0)], [(1, 100)]);
        h.push_txn(1, [(1, 0)], [(1, 200)]); // a lost update
        let small = audit_streamed(&h, WindowConfig::sized(64));
        assert!(small.fails(Level::SnapshotIsolation), "{}", small.merged);
        let huge = audit_streamed(&h, WindowConfig::sized(1 << 40));
        assert_eq!(huge.merged.levels, small.merged.levels);
        assert_eq!(huge.total_txns, 40);
    }

    /// The empty stream is vacuously consistent.
    #[test]
    fn empty_streams_pass_vacuously() {
        let auditor = WindowedAuditor::new(4, 0, WindowConfig::default());
        let report = auditor.finish();
        assert_eq!(report.total_txns, 0);
        assert!(report.windows.is_empty());
        for level in Level::ALL {
            assert!(report.passes(level), "{level}");
        }
    }

    /// A recording-contract break inside one window fails that window (and
    /// the merged report) on every level, like the batch auditor would.
    #[test]
    fn contract_breaks_fail_the_window_on_every_level() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [], [(0, 7)]);
        h.push_txn(1, [], [(0, 7)]); // duplicate write value
        let stream = audit_streamed(&h, cfg(8, 2));
        for level in Level::ALL {
            assert!(stream.fails(level), "{level}: {}", stream.merged);
        }
        assert!(stream.merged.to_string().contains("ambiguous write"));
    }

    /// Window bookkeeping: overlap re-audits the boundary, totals add up,
    /// verdict latency is measured.
    #[test]
    fn window_bookkeeping_is_consistent() {
        let mut h = AuditHistory::new(4, 0, 1);
        let mut last = [0i64; 4];
        for i in 0..100i64 {
            let var = (i % 4) as usize;
            h.push_txn(0, [(var, last[var])], [(var, 1000 + i)]);
            last[var] = 1000 + i;
        }
        let stream = audit_streamed(&h, cfg(10, 3));
        // Stride is size - overlap = 7: windows cover 10, then 7 more each.
        assert!(stream.windows.len() >= 13, "windows: {}", stream.windows.len());
        assert_eq!(stream.total_txns, 100);
        assert!(stream.peak_window_txns <= 10);
        // Every window of the healthy chain is certified by its recording
        // order, so no closure is ever built; a window that searches builds
        // one.
        assert!(stream.windows.iter().all(|w| w.report.decided_by() == DecidedBy::Hint));
        assert_eq!(stream.peak_closure_bytes, 0);
        let searched = replay(WindowedAuditor::new_searching(4, 0, cfg(10, 3)), &h);
        assert!(searched.windows.iter().all(|w| w.report.decided_by() == DecidedBy::Dfs));
        assert!(searched.peak_closure_bytes > 0);
        assert_eq!(searched.summary(), stream.summary());
        assert!(stream.verdict_latency_max() >= stream.verdict_latency_mean());
        let json = stream.to_json();
        assert!(json.contains("\"total_txns\":100"), "{json}");
        assert!(json.contains("\"merged\":"), "{json}");
    }

    /// A sink that remembers what reached it, in order.
    #[derive(Default)]
    struct Delivered(Vec<(usize, AuditTxn)>);

    impl TxnSink for Delivered {
        fn push_txn(&mut self, session: usize, txn: AuditTxn) {
            self.0.push((session, txn));
        }
    }

    impl Delivered {
        fn hints(&self) -> Vec<(u64, usize)> {
            self.0.iter().map(|(s, txn)| (txn.hint, *s)).collect()
        }

        fn hints_of(&self, session: usize) -> Vec<u64> {
            self.0.iter().filter(|(s, _)| *s == session).map(|(_, txn)| txn.hint).collect()
        }
    }

    /// One session's consecutive records with the given hints (each record
    /// distinguishable by what it writes).
    fn batch(session: usize, hints: impl IntoIterator<Item = u64>) -> CommitBatch {
        let records = hints.into_iter().map(|h| txn(h, &[], &[(0, h as i64 + 1)])).collect();
        CommitBatch { session, records }
    }

    /// (a) Whatever the interleaving of per-session hint-sorted batches, what
    /// the merger has delivered after each batch is exactly what the
    /// definition says: everything delivered to it at or below the watermark,
    /// sorted by `(hint, session)` — and the whole stream, once finished.
    #[test]
    fn merger_releases_the_hint_session_sort_on_seeded_interleavings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(2..=8usize);
            let total = rng.gen_range(200..2_000u64);
            // One session commits nothing for a stretch of the run.
            let idle = rng.gen_range(0..k);
            let idle_from = rng.gen_range(0..total);
            let idle_for = idle_from..idle_from + rng.gen_range(0..total / 2);
            let mut runs: Vec<Vec<u64>> = vec![Vec::new(); k];
            for hint in 0..total {
                let mut session = rng.gen_range(0..k);
                if session == idle && idle_for.contains(&hint) {
                    session = (session + 1) % k;
                }
                runs[session].push(hint);
            }
            // Cut each run into uneven batches; deliver them in a random
            // interleaving that keeps each session's batches in order.
            let mut batches: Vec<VecDeque<CommitBatch>> = runs
                .iter()
                .enumerate()
                .map(|(s, run)| {
                    let mut rest = &run[..];
                    let mut cut = VecDeque::new();
                    while !rest.is_empty() {
                        let (head, tail) =
                            rest.split_at(rng.gen_range(1..=40usize).min(rest.len()));
                        cut.push_back(batch(s, head.iter().copied()));
                        rest = tail;
                    }
                    cut
                })
                .collect();

            let mut merger = StreamMerger::new(k);
            let mut sink = Delivered::default();
            let mut pushed: Vec<(u64, usize)> = Vec::new();
            let mut newest: Vec<Option<u64>> = vec![None; k];
            while batches.iter().any(|b| !b.is_empty()) {
                let s = rng.gen_range(0..k);
                let Some(next) = batches[s].pop_front() else { continue };
                pushed.extend(next.records.iter().map(|r| (r.hint, s)));
                newest[s] = next.records.last().map(|r| r.hint);
                merger.push_batch(&next, &mut sink);

                let mut reference: Vec<(u64, usize)> = match newest.iter().copied().min().flatten()
                {
                    Some(watermark) => {
                        pushed.iter().copied().filter(|&(h, _)| h <= watermark).collect()
                    }
                    None => Vec::new(),
                };
                reference.sort_unstable();
                assert_eq!(sink.hints(), reference, "seed {seed}");
            }
            merger.finish(&mut sink);
            pushed.sort_unstable();
            assert_eq!(sink.hints(), pushed, "seed {seed}: the finished stream");
            for (s, run) in runs.iter().enumerate() {
                assert_eq!(&sink.hints_of(s), run, "seed {seed}: session {s} kept its order");
            }
            // Records arrive whole, not just their hints.
            assert!(sink.0.iter().all(|(_, t)| t.writes == [(0, t.hint as i64 + 1)]));
        }
    }

    /// (b) A session that has delivered nothing could still deliver anything:
    /// nothing leaves before every session has spoken, and `finish` releases
    /// the rest in order.
    #[test]
    fn merger_waits_for_every_session_and_finish_releases_the_rest() {
        let mut merger = StreamMerger::new(3);
        let mut sink = Delivered::default();
        merger.push_batch(&batch(0, [0, 3, 4]), &mut sink);
        merger.push_batch(&batch(1, [1, 2, 9]), &mut sink);
        merger.push_batch(&batch(0, [10, 11]), &mut sink);
        assert!(sink.0.is_empty(), "session 2 is silent: {:?}", sink.hints());
        merger.push_batch(&batch(2, [5, 6]), &mut sink);
        assert_eq!(sink.hints(), [(0, 0), (1, 1), (2, 1), (3, 0), (4, 0), (5, 2), (6, 2)]);
        merger.finish(&mut sink);
        assert_eq!(sink.hints()[7..], [(9, 1), (10, 0), (11, 0)]);
    }

    /// (c) With one session silent the runs stop growing at the cap: the
    /// oldest records leave, in hint order, until half the cap remains — and
    /// what the silent session delivers afterwards still arrives in its own
    /// order.
    #[test]
    fn merger_valve_releases_the_oldest_half_in_hint_order() {
        let cap = StreamMerger::MAX_BUFFERED as u64;
        let mut merger = StreamMerger::new(3);
        let mut sink = Delivered::default();
        // Sessions 0 and 1 alternate 64-record batches of the odd hints;
        // session 2 owns the even ones and says nothing.
        let mut delivered = 0u64;
        for session in [0, 1].into_iter().cycle() {
            let odd = (delivered..delivered + 64).map(|i| 2 * i + 1);
            merger.push_batch(&batch(session, odd), &mut sink);
            delivered += 64;
            if delivered > cap {
                break;
            }
            assert!(sink.0.is_empty(), "nothing leaves at or below the cap ({delivered})");
        }
        assert_eq!(delivered, cap + 64, "the last batch crossed the cap");
        assert_eq!(sink.0.len() as u64, delivered - cap / 2, "down to half the cap");
        let oldest: Vec<u64> = (0..delivered - cap / 2).map(|i| 2 * i + 1).collect();
        assert_eq!(sink.hints().iter().map(|&(h, _)| h).collect::<Vec<_>>(), oldest);

        // The silent session wakes up with hints below everything released.
        merger.push_batch(&batch(2, [0, 2, 4]), &mut sink);
        merger.push_batch(&batch(2, [6, 4 * delivered]), &mut sink);
        merger.finish(&mut sink);
        assert_eq!(sink.0.len() as u64, delivered + 5);
        assert_eq!(sink.hints_of(2), [0, 2, 4, 6, 4 * delivered]);
        for session in [0, 1] {
            let hints = sink.hints_of(session);
            assert!(hints.windows(2).all(|w| w[0] < w[1]), "session {session} kept its order");
        }
    }

    /// (d) Session order does not depend on hints being monotone: a record
    /// never overtakes the one delivered before it in its session.
    #[test]
    fn merger_keeps_session_order_when_hints_are_not_monotone() {
        let mut merger = StreamMerger::new(2);
        let mut sink = Delivered::default();
        merger.push_batch(&batch(0, [5, 3, 7]), &mut sink);
        merger.push_batch(&batch(1, [4, 6]), &mut sink);
        assert_eq!(sink.hints(), [(4, 1), (5, 0), (3, 0), (6, 1)]);
        merger.finish(&mut sink);
        assert_eq!(sink.hints_of(0), [5, 3, 7]);
    }

    /// (e) `drain` (which moves each batch into its run) and `push_batch`
    /// (which copies it) deliver the same stream for the same batches.
    #[test]
    fn merger_drain_and_push_batch_deliver_the_same_stream() {
        use std::sync::Arc;
        use stm_runtime::{recorder, StreamingRecorder};
        // One thread commits for three sessions in a fixed rotation, so two
        // recordings of it are the same batches with the same hints.
        let record = || {
            let rec = Arc::new(StreamingRecorder::new(3, 4));
            let consumer = rec.consumer();
            let stm =
                stm_runtime::Stm::with_recorder(stm_runtime::registry::TL2_BLOCKING, rec.clone());
            let x = stm.alloc(0i64);
            for i in 0..50usize {
                recorder::set_session([0, 1, 0, 2, 0][i % 5]);
                stm.run(|tx| {
                    let _ = tx.read(x)?;
                    tx.write(x, i as i64 + 1)
                });
            }
            recorder::clear_session();
            rec.finish();
            consumer
        };

        let mut copied = Delivered::default();
        let consumer = record();
        let mut merger = StreamMerger::new(3);
        while let Some(batch) = consumer.recv() {
            merger.push_batch(&batch, &mut copied);
        }
        merger.finish(&mut copied);

        let mut moved = Delivered::default();
        StreamMerger::drain(&record(), 3, &mut moved);

        assert_eq!(copied.0.len(), 50);
        assert_eq!(copied.0, moved.0);
        assert_eq!(
            copied.hints().iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
    }

    /// What the runs actually hold, counted the slow way.
    fn held(merger: &StreamMerger) -> usize {
        merger.runs.iter().flatten().map(|batch| batch.as_slice().len()).sum()
    }

    /// (f) The runs are queues of whole batches: empty batches and batches of
    /// any size go in, `buffered` is the number of records held after every
    /// step, no drained batch lingers, and the valve still releases down to
    /// half the cap.
    #[test]
    fn merger_counts_what_its_batches_hold_whatever_their_size() {
        let mut merger = StreamMerger::new(2);
        let mut sink = Delivered::default();
        let mut pushed = 0usize;
        let mut step = |merger: &mut StreamMerger, sink: &mut Delivered, next: CommitBatch| {
            pushed += next.records.len();
            merger.push_batch(&next, sink);
            assert_eq!(merger.buffered, held(merger));
            assert_eq!(merger.buffered + sink.0.len(), pushed, "nothing lost, nothing doubled");
            assert!(merger.runs.iter().flatten().all(|batch| !batch.as_slice().is_empty()));
        };
        // An empty batch says nothing: not even that its session has spoken.
        step(&mut merger, &mut sink, batch(1, []));
        step(&mut merger, &mut sink, batch(0, [0, 1, 2]));
        assert!(sink.0.is_empty() && merger.buffered == 3);
        // Session 1 takes the odd hints from 3 on, in batches of 1, 0, 7, 2, …
        let mut odd = (1u64..).map(|i| 2 * i + 1);
        for size in [1usize, 0, 7, 2, 0, 300, 1] {
            let hints: Vec<u64> = odd.by_ref().take(size).collect();
            step(&mut merger, &mut sink, batch(1, hints));
        }
        // Session 0's three records are below the watermark and gone; its
        // silence holds back everything session 1 delivered.
        assert_eq!(sink.hints(), [(0, 0), (1, 0), (2, 0)]);
        assert_eq!(merger.buffered, 311);
        // The watermark moves into session 1's 7-record batch: the batch
        // before it is gone, that one is drained in part.
        step(&mut merger, &mut sink, batch(0, [4, 6, 8]));
        assert_eq!(sink.hints()[3..], [(3, 1), (4, 0), (5, 1), (6, 0), (7, 1), (8, 0)]);
        assert_eq!(merger.buffered, 311 - 3);
        assert_eq!(merger.runs[1].front().map(|batch| batch.as_slice().len()), Some(5));

        // Past the cap, with session 0 silent again, uneven batches leave
        // oldest first until half the cap remains.
        let cap = StreamMerger::MAX_BUFFERED;
        let mut sizes = [1usize, 999, 0, 64, 4_097].into_iter().cycle();
        loop {
            let before = sink.0.len();
            let hints: Vec<u64> = odd.by_ref().take(sizes.next().expect("cycles")).collect();
            step(&mut merger, &mut sink, batch(1, hints));
            if sink.0.len() > before {
                break;
            }
        }
        assert_eq!(merger.buffered, cap / 2, "the valve released down to half the cap");
        let released = sink.hints_of(1);
        assert!(released.windows(2).all(|w| w[0] + 2 == w[1]), "oldest first, none skipped");
        merger.finish(&mut sink);
        assert_eq!(sink.0.len(), pushed);
        assert_eq!(sink.hints_of(1).len(), pushed - 6);
    }

    /// A transaction too large for a record's inline slots — it writes two
    /// two-word objects, four write pairs — arrives whole through
    /// `StreamingRecorder` → `StreamMerger`, beside ones that fit.
    #[test]
    fn a_spilled_record_arrives_intact_through_recorder_and_merger() {
        use std::sync::Arc;
        use stm_runtime::{recorder, StreamingRecorder, TVar};
        let rec = Arc::new(StreamingRecorder::new(2, 4));
        let consumer = rec.consumer();
        let stm = stm_runtime::Stm::with_recorder(stm_runtime::registry::TL2_BLOCKING, rec.clone());
        let a: TVar<(i64, i64)> = stm.alloc((0, 0));
        let b: TVar<(i64, i64)> = stm.alloc((0, 0));
        let x = stm.alloc(0i64);
        for i in 1..=9i64 {
            recorder::set_session((i % 2) as usize);
            stm.run(|tx| tx.write(x, i));
            stm.run(|tx| {
                let seen = tx.read(x)?;
                tx.write(a, (10 * seen + 1, 10 * seen + 2))?;
                tx.write(b, (10 * seen + 3, 10 * seen + 4))
            });
        }
        recorder::clear_session();
        rec.finish();
        let mut sink = Delivered::default();
        StreamMerger::drain(&consumer, 2, &mut sink);

        let (a, b, x) = (a.base().index(), b.base().index(), x.base().index());
        assert_eq!(sink.0.len(), 18);
        for (i, pair) in (1..=9i64).zip(sink.0.chunks(2)) {
            let [(s0, small), (s1, big)] = pair else { panic!("18 is even") };
            assert_eq!((*s0, *s1), ((i % 2) as usize, (i % 2) as usize));
            assert_eq!((&small.reads[..], &small.writes[..]), (&[][..], &[(x, i)][..]));
            assert_eq!(big.reads, [(x, i)]);
            let mut writes = big.writes.to_vec();
            writes.sort_unstable();
            let mut expected =
                vec![(a, 10 * i + 1), (a + 1, 10 * i + 2), (b, 10 * i + 3), (b + 1, 10 * i + 4)];
            expected.sort_unstable();
            assert_eq!(writes, expected, "transaction {i}");
            assert!(big.writes.len() > AccessSet::INLINE);
        }
    }
}
