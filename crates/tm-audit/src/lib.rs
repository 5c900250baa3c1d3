//! # tm-audit — live history capture + streaming consistency auditing for the STM runtime
//!
//! The PCL theorem is a statement about *recorded histories*, but until this
//! crate existed the repo could only check consistency on executions produced
//! by the deterministic simulator (`tm-model`), never on what the real
//! multi-threaded `stm-runtime` does under load.  `tm-audit` closes that gap,
//! following the dbcop framework of Biswas & Enea, *"On the Complexity of
//! Checking Transactional Consistency"* (OOPSLA 2019):
//!
//! 1. **Record** — upstream of this crate: `stm-runtime` records
//!    ([`stm_runtime::StreamingRecorder`] plugs into
//!    [`stm_runtime::Stm::with_recorder`] and batches commits per session
//!    into a bounded queue; the uninstrumented hot path stays a single
//!    never-taken branch) and `workloads` runs (`run_live` owns the worker
//!    threads and the scenarios).  What arrives here is the `(T, so, wr)`
//!    structure of the run, `so` given per session: every batch is one
//!    session's consecutive commits, each already an [`AuditTxn`] (the
//!    recorder's own record type, re-exported).  A [`StreamMerger`] merges
//!    the session runs into global recording order ([`StreamMerger::drain`]
//!    is the whole consumer side), session order is per-session arrival
//!    order, write-read edges come from unique write values, and the sink is
//!    an auditor or — for a whole-history audit or an export — a
//!    [`HistoryCollector`].
//! 2. **Check** ([`saturation`], [`linearization`]) — **verify first, search
//!    on failure**.  Finding a commit order is NP-complete from Prefix
//!    upwards, but *verifying* one is linear, the recorder supplies a
//!    candidate (the recording order), and the hierarchy is strict (every
//!    level implies all weaker ones).  So every audit first takes the
//!    hint-ordered topological order of `so ∪ wr` and checks it against
//!    reads-last-write in one pass; when it verifies, that one order is the
//!    witness for all six levels ([`DecidedBy::Hint`]) and nothing else
//!    runs.  Only a history (or window) whose recording order does *not*
//!    verify enters the engine proper: Read Committed / Read Atomic / Causal
//!    by polynomial saturation on a transaction digraph; Prefix / Snapshot
//!    Isolation / Serializability by polynomial lost-update and write-skew
//!    refutations, then the constrained-linearization DFS — and, when a
//!    solver is configured ([`SatConfig`]), in three stages ordered by cost:
//!    the DFS as a probe linear in the window, the `tm-sat` commit-order
//!    solver for what the probe left open, the DFS at its full budget for
//!    what the solver gave up on.  Every verdict carries a witness (a commit
//!    order) or a concrete violation (a cycle or a transaction pair), and
//!    says which engine decided it ([`DecidedBy`]).
//! 3. **Stream** ([`window`]) — a [`WindowedAuditor`] audits rolling history
//!    segments with bounded memory: the partial order grows incrementally
//!    ([`po::TxnPartialOrder::extend`]) and is probed every few hundred
//!    transactions — by the same linear check while it keeps verifying, and
//!    from the first probe that does not, by incremental saturation
//!    ([`saturation::resaturate`]) that answers visibility from one clock
//!    word per transaction and session chain rather than a reachability
//!    closure.  A committed frontier carries write attribution (and each
//!    writer's recording position) across windows.
//!    Per-window verdicts merge into a whole-run report: **violations found
//!    are real; cross-window SI/SER holds per window, attested, not certified
//!    end-to-end** (see [`window`] for the full soundness statement).
//! 4. **Shard** ([`partition`]) — a library leaf, not a product topology: a
//!    [`ShardedAuditor`] fans the merged stream out to `K`
//!    per-variable-partition windowed auditors plus a cross-partition
//!    escalation lane.  No CLI, runner or serve path reaches it; it stays
//!    because `benchmark/`'s `replay-sharded` measures it, where on a 2-core
//!    host it runs about 120k txn/s against ~700k through one
//!    [`WindowedAuditor`] and leaves over 200 cells `?` that K = 1 decides.
//! 5. **Cross-validate** ([`adapter`]) — simulator executions convert into the
//!    same [`AuditHistory`] type, so `tm-consistency`'s checkers and these
//!    checkers can be compared verdict-for-verdict on identical runs.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use stm_runtime::{recorder, registry, BackendId, Stm, StreamingRecorder};
//! use tm_audit::{audit, AuditHistory, HistoryCollector, Level, StreamMerger};
//!
//! // Two sessions race 200 read-modify-writes each on one variable, every
//! // write value unique; the recorder's queue holds the whole run, so it is
//! // drained afterwards (`workloads::run_live` drains beside the workload).
//! fn contended_rmws(backend: BackendId) -> AuditHistory {
//!     let rec = Arc::new(StreamingRecorder::new(2, 256));
//!     let consumer = rec.consumer();
//!     let stm = Stm::with_recorder(backend, Arc::clone(&rec) as _);
//!     let x = stm.alloc(0i64);
//!     std::thread::scope(|scope| {
//!         for session in 0..2usize {
//!             let stm = &stm;
//!             scope.spawn(move || {
//!                 recorder::set_session(session);
//!                 for i in 1..=200i64 {
//!                     stm.run(|tx| {
//!                         let _ = tx.read(x)?;
//!                         tx.write(x, ((session as i64 + 1) << 40) + i)
//!                     });
//!                 }
//!             });
//!         }
//!     });
//!     rec.finish();
//!     let mut collector = HistoryCollector::new(1, 0, 2);
//!     StreamMerger::drain(&consumer, 2, &mut collector);
//!     collector.into_history()
//! }
//!
//! // The blocking backend's run is serializable — proved, with a witness.
//! let report = audit(&contended_rmws(registry::TL2_BLOCKING));
//! assert!(report.passes(Level::Serializable));
//!
//! // The PRAM backend trades consistency away — the auditor catches it.
//! let report = audit(&contended_rmws(registry::PRAM_LOCAL));
//! assert!(report.passes(Level::Causal));
//! assert!(report.fails(Level::Serializable));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod digraph;
pub mod history;
pub mod linearization;
pub mod partition;
pub mod po;
pub mod recovery;
pub mod report;
pub(crate) mod sat_bridge;
pub mod saturation;
pub mod telemetry;
pub mod window;

pub use adapter::from_execution;
pub use history::{AccessSet, AuditHistory, AuditTxn, FirstAccess, HistoryError, TxnId};
pub use partition::{
    audit_sharded, partition_of, PartitionVerdict, ShardConfig, ShardConviction, ShardedAuditor,
    ShardedStreamReport,
};
pub use recovery::{BoundaryRecord, RecoveryError};
pub use report::{AuditReport, DecidedBy, Level, LevelReport, Outcome};
/// The workspace's JSON writer/reader, re-exported for the one crate that
/// links `tm-audit` but not `tm-telemetry`: `tm-history`, whose manifest is
/// frozen together with `benchmark/Cargo.lock`.
pub use tm_telemetry::json;
pub use window::{
    audit_streamed, AuditEvent, Conviction, HistoryCollector, StreamMerger, StreamReport, TeeSink,
    TxnSink, WindowConfig, WindowVerdict, WindowedAuditor,
};

use linearization::{
    certify_hint_order, find_lost_update, find_same_source_skew, search_prefix,
    search_serializable, search_snapshot_isolation, Search, DEFAULT_STATE_BUDGET,
};
use po::TxnPartialOrder;
use report::CommitOrderWitness;
use saturation::{check_causal, CycleViolation, Saturated};

fn order_witness(po: &TxnPartialOrder, order: &[u32]) -> String {
    CommitOrderWitness::render(order.len(), |i| po.name(order[i]))
}

/// Effort limits for the per-window SAT/CDCL escalation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatConfig {
    /// Solver budget per call (CDCL conflicts plus cycle refinements).  When
    /// it runs out the full-budget DFS gets the level; if that exhausts too
    /// the verdict stays [`Outcome::Unknown`], with the retry hint recomputed
    /// as a conflict budget.
    pub conflicts: u64,
    /// Decide every NP-hard level by SAT alone, ignoring the DFS verdicts —
    /// the differential cross-check lane's mode, never the default.
    pub force: bool,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig { conflicts: tm_sat::SolveConfig::default().conflicts, force: false }
    }
}

/// Knobs for one audit run: the DFS state budget plus the optional SAT
/// escalation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    /// DFS state budget for the NP-hard searches.
    pub budget: u64,
    /// Put the commit-order solver behind the NP-hard levels when set: DFS
    /// probe, then solver, then the DFS at `budget` (see `searched_report`).
    pub sat: Option<SatConfig>,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions { budget: DEFAULT_STATE_BUDGET, sat: None }
    }
}

/// DFS states per transaction the probe in front of the solver may visit.
/// Measured over `scripts/fuzz_gate.sh 100`: every search that ended in a
/// witness needed under 10 (217 searches: 121 ≤ 1, 68 ≤ 2, 23 ≤ 4, 4 ≤ 8,
/// 1 ≤ 16), while exhaustive refutations have a long tail (353 searches,
/// 39 over 64, up to 434) — the part that is cheaper to hand to the solver
/// than to finish.  Windows of `ingest-skew`'s shape never reach the DFS.
/// Not a setting.
const PROBE_STATES_PER_TXN: u64 = 16;

/// What the SAT escalation stage spent while assembling one report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SatSpend {
    /// The solver ran at least once.
    pub ran: bool,
    /// DFS states the probe visited in searches it did not finish.
    pub probe_states: u64,
    /// Point pairs that needed a solver variable, over the solver calls.
    pub pairs: u64,
    /// Clauses the known order left open, over the solver calls.
    pub clauses: u64,
    /// Total CDCL conflicts across the report's solver calls.
    pub conflicts: u64,
    /// Model cycles the solver calls had to forbid and re-solve.
    pub refinements: u64,
}

/// Audit a history against the whole hierarchy with the default search
/// budget.
pub fn audit(history: &AuditHistory) -> AuditReport {
    audit_with_budget(history, DEFAULT_STATE_BUDGET)
}

/// Audit a history with explicit [`AuditOptions`] — the entry point the CLI's
/// `--sat` flag reaches.  **Verify first, search on failure**: the recording
/// order is tried as a serial witness in one O(history · log) pass
/// ([`linearization`]'s `certify_hint_order`); when it verifies, all six
/// levels pass with that one order as their shared witness
/// ([`DecidedBy::Hint`]) and nothing else runs.  Only when it does not — or
/// when [`SatConfig::force`] asks for the solver's own verdict — does the
/// history enter the saturation / DFS / CDCL engine.  Batch is the windowed
/// engine's one unbounded window: [`WindowedAuditor`] takes the same two
/// steps per window, running the same pass at every probe but resuming it
/// from the last probe's verified prefix, so a probe costs what arrived
/// since; it restarts from the window's first transaction only when a parked
/// read resolved into that prefix or a stand-in sorts before its end.
pub fn audit_with_options(history: &AuditHistory, options: &AuditOptions) -> AuditReport {
    audit_history(history, options, false)
}

/// [`audit_with_options`] with the verify-first step skipped, so every
/// verdict comes from the search engine — the reference side of the
/// certified-vs-searched differential tests, not an operating mode.
#[doc(hidden)]
pub fn audit_by_search(history: &AuditHistory, options: &AuditOptions) -> AuditReport {
    audit_history(history, options, true)
}

fn audit_history(history: &AuditHistory, options: &AuditOptions, search_only: bool) -> AuditReport {
    let shape = history.shape();
    let po = match TxnPartialOrder::build(history) {
        Ok(po) => po,
        Err(err) => return defect_report(shape, &err),
    };
    if !search_only && !forces_search(options.sat) {
        if let Some(hint) = certify_hint_order(&po) {
            return certified_report(&po, shape, hint.order());
        }
    }
    searched_report(&po, shape, options.budget, check_causal(&po), options.sat).0
}

/// [`SatConfig::force`] wants the solver's verdict on every NP-hard level,
/// so a forced audit never takes the verify-first shortcut.
pub(crate) fn forces_search(sat: Option<SatConfig>) -> bool {
    sat.is_some_and(|cfg| cfg.force)
}

/// The report of a history (or window) whose recording order verified as a
/// serial order: one witness, rendered once, passes every level.
pub(crate) fn certified_report(po: &TxnPartialOrder, shape: String, order: &[u32]) -> AuditReport {
    let witness = order_witness(po, order);
    let levels = Level::ALL
        .iter()
        .map(|&level| {
            LevelReport::new(level, Outcome::Pass { witness: witness.clone() }).via(DecidedBy::Hint)
        })
        .collect();
    AuditReport { shape, levels }
}

/// Every level fails with the same history defect (broken recording contract
/// or thin-air read) as the violation.
pub(crate) fn defect_report(shape: String, err: &HistoryError) -> AuditReport {
    let violation = err.to_string();
    AuditReport {
        shape,
        levels: Level::ALL
            .iter()
            .map(|&level| LevelReport::new(level, Outcome::Fail { violation: violation.clone() }))
            .collect(),
    }
}

/// Audit a history, bounding each NP-hard search at `budget` DFS states.
///
/// A history whose recording order verifies never searches (see
/// [`audit_with_options`]).  Otherwise the hierarchy is exploited in both
/// directions: a causal violation implies SI and SER violations (their
/// searches never run), a serializability witness doubles as the SI witness,
/// and an SI refutation refutes serializability even when the SER search
/// itself ran out of budget.  An exhausted budget yields
/// [`Outcome::Unknown`] — with the states explored, what is already refuted,
/// and the budget a retry should use — never a verdict.
pub fn audit_with_budget(history: &AuditHistory, budget: u64) -> AuditReport {
    audit_with_options(history, &AuditOptions { budget, sat: None })
}

/// The search-on-failure half, shared by the batch path
/// ([`audit_with_options`]) and the windowed engine ([`window`]): the
/// recording order did not verify, the partial order is built and the causal
/// saturation run (incrementally, in the windowed case), and the hierarchy is
/// climbed bottom-up.  Without `sat_cfg` the three NP-hard levels get the
/// DFS at `budget` and that is all.  With it they go through three stages
/// ordered by cost — the DFS as a **probe** (`PROBE_STATES_PER_TXN` states
/// per transaction), the commit-order **solver** for what the probe left
/// [`Outcome::Unknown`], and the **full-budget DFS** for what the solver
/// gave up on — and each cell's [`DecidedBy`] names the stage that answered.
/// The second return value reports what the probe and the solver spent (for
/// the window telemetry meters).
pub(crate) fn searched_report(
    po: &TxnPartialOrder,
    shape: String,
    budget: u64,
    causal: Result<Saturated, CycleViolation>,
    sat_cfg: Option<SatConfig>,
) -> (AuditReport, SatSpend) {
    let mut levels = Vec::with_capacity(Level::ALL.len());

    levels.push(LevelReport::new(
        Level::ReadCommitted,
        match saturation::check_read_committed(po) {
            Ok(order) => Outcome::Pass { witness: order_witness(po, &order) },
            Err(cycle) => Outcome::Fail { violation: cycle.render(po) },
        },
    ));

    levels.push(LevelReport::new(
        Level::ReadAtomic,
        match saturation::check_read_atomic(po) {
            Ok(order) => Outcome::Pass { witness: order_witness(po, &order) },
            Err(cycle) => Outcome::Fail { violation: cycle.render(po) },
        },
    ));

    levels.push(LevelReport::new(
        Level::Causal,
        match &causal {
            Ok(sat) => Outcome::Pass {
                witness: format!(
                    "saturated in {} round(s); {}",
                    sat.rounds,
                    order_witness(po, sat.topo(po))
                ),
            },
            Err(cycle) => Outcome::Fail { violation: cycle.render(po) },
        },
    ));

    // With a solver behind it the DFS is first a probe, linear in the window:
    // a witness that needs no deep backtracking costs about one state per
    // point, and what the probe leaves open the solver usually settles
    // from its known edges alone.
    let solver = sat_cfg.zip(causal.as_ref().ok());
    let probe = match solver {
        Some(_) => budget.min(PROBE_STATES_PER_TXN * po.len() as u64),
        None => budget,
    };
    let mut cells = decide_np_levels(po, probe, &causal);

    let mut spend = SatSpend::default();
    if let Some((cfg, sat)) = solver {
        let open_states = |cell: &LevelReport| match cell.outcome {
            Outcome::Unknown { states, .. } => Some(states),
            _ => None,
        };
        spend.probe_states = cells.iter().filter_map(open_states).sum();
        escalate_to_sat(po, sat, cfg, &mut cells, &mut spend);
        // The solver gave up as well: the search gets its whole budget after
        // all, so nothing the DFS alone would have decided stays open.
        if !cfg.force && probe < budget && cells.iter().any(|c| open_states(c).is_some()) {
            let full = decide_np_levels(po, budget, &causal);
            for (cell, report) in cells.iter_mut().zip(full) {
                match (&mut cell.outcome, report.outcome) {
                    (Outcome::Unknown { states, .. }, Outcome::Unknown { states: all, .. }) => {
                        *states = all;
                    }
                    (Outcome::Unknown { .. }, decided) => {
                        *cell = LevelReport::new(cell.level, decided);
                    }
                    _ => {}
                }
            }
        }
    }

    levels.extend(cells);
    (AuditReport { shape, levels }, spend)
}

/// The DFS verdicts for the three NP-hard levels, `[Prefix, SI, SER]` — with
/// the hierarchy (SER ⊆ SI ⊆ Prefix) exploited in both directions.
fn decide_np_levels(
    po: &TxnPartialOrder,
    budget: u64,
    causal: &Result<Saturated, CycleViolation>,
) -> [LevelReport; 3] {
    let sat = match causal {
        Err(cycle) => {
            let implied = format!("implied by the causal violation: {}", cycle.render(po));
            return [Level::Prefix, Level::SnapshotIsolation, Level::Serializable].map(|level| {
                LevelReport::new(level, Outcome::Fail { violation: implied.clone() })
            });
        }
        Ok(sat) => sat,
    };
    let lost = find_lost_update(po);
    let (si, ser) = match &lost {
        Some(lu) => {
            let violation = lu.render(po);
            (Outcome::Fail { violation: violation.clone() }, Outcome::Fail { violation })
        }
        None => {
            // Polynomial write-skew refutation before the NP-hard
            // search: a forced anti-dependency cycle refutes SER in
            // O(history) with a named cycle — and deliberately says
            // nothing about SI, which is the whole separation.
            let ser = match find_same_source_skew(po, sat) {
                Some(cycle) => {
                    let rendered = if cycle.len() <= 12 {
                        po.render_path(&cycle)
                    } else {
                        format!(
                            "{} → … ({} transactions) … → {}",
                            po.render_path(&cycle[..6]),
                            cycle.len() - 1,
                            po.name(cycle[0])
                        )
                    };
                    Outcome::Fail {
                        violation: format!(
                            "write skew: same-snapshot readers force the \
                             anti-dependency cycle {rendered}"
                        ),
                    }
                }
                None => match search_serializable(po, sat, po.n_vars(), budget) {
                    Search::Order(order) => Outcome::Pass { witness: order_witness(po, &order) },
                    Search::NoOrder => Outcome::Fail {
                        violation: "no commit order explains every read \
                                    (exhaustive constrained-linearization search)"
                            .into(),
                    },
                    Search::Exhausted { states } => Outcome::unknown(
                        format!("serializability search budget ({budget}) exhausted"),
                        states,
                        None,
                    ),
                },
            };
            let si = match &ser {
                // Serializable implies snapshot-isolated; reuse the witness.
                Outcome::Pass { witness } => Outcome::Pass { witness: witness.clone() },
                _ => match search_snapshot_isolation(po, sat, po.n_vars(), budget) {
                    Search::Order(order) => Outcome::Pass { witness: order_witness(po, &order) },
                    Search::NoOrder => Outcome::Fail {
                        violation: "no snapshot-ordered commit order exists \
                                    (exhaustive constrained-linearization search)"
                            .into(),
                    },
                    Search::Exhausted { states } => Outcome::unknown(
                        format!("snapshot-isolation search budget ({budget}) exhausted"),
                        states,
                        ser.failed().then_some(Level::Serializable),
                    ),
                },
            };
            (si, ser)
        }
    };
    // SI ⊆ Prefix: an SI witness is a Prefix witness (lost updates — the one
    // thing SI forbids beyond Prefix — never block a prefix order, so the
    // Prefix search must still run when SI failed or exhausted).
    let prefix = match &si {
        Outcome::Pass { witness } => Outcome::Pass { witness: witness.clone() },
        _ => match search_prefix(po, sat, po.n_vars(), budget) {
            Search::Order(order) => Outcome::Pass { witness: order_witness(po, &order) },
            Search::NoOrder => Outcome::Fail {
                violation: "no commit-order prefix explains every snapshot \
                            (exhaustive constrained-linearization search)"
                    .into(),
            },
            Search::Exhausted { states } => Outcome::unknown(
                format!("prefix-consistency search budget ({budget}) exhausted"),
                states,
                if si.failed() {
                    Some(Level::SnapshotIsolation)
                } else {
                    ser.failed().then_some(Level::Serializable)
                },
            ),
        },
    };
    let mut cells = [
        LevelReport::new(Level::Prefix, prefix),
        LevelReport::new(Level::SnapshotIsolation, si),
        LevelReport::new(Level::Serializable, ser),
    ];
    // Downward implications settle exhausted searches: a Prefix refutation
    // refutes SI, an SI refutation refutes SER.  (The upward ones are
    // already in: the SER witness is reused for SI, the SI one for Prefix.)
    let [prefix, si, ser] = &mut cells;
    apply_hierarchy(prefix, si, ser);
    cells
}

/// The escalation stage: hand the still-undecided NP-hard levels (or, under
/// [`SatConfig::force`], all of them) to the commit-order solver — Prefix
/// first, because its refutation settles SI and SER, then SER, because its
/// witness settles SI; SI itself only when neither did.
fn escalate_to_sat(
    po: &TxnPartialOrder,
    sat: &Saturated,
    cfg: SatConfig,
    cells: &mut [LevelReport; 3],
    spend: &mut SatSpend,
) {
    let needs = |r: &LevelReport| cfg.force || matches!(r.outcome, Outcome::Unknown { .. });
    if !cells.iter().any(needs) {
        return;
    }
    let (inst, dense_of) = sat_bridge::build_instance(po, sat);
    let solve = tm_sat::SolveConfig { conflicts: cfg.conflicts };
    let mut decide = |report: &mut LevelReport, spec: tm_sat::LevelSpec| {
        if !needs(report) {
            return;
        }
        use tm_sat::OrderVerdict::{NoOrder, Order, Unknown};
        let verdict = tm_sat::decide(&inst, spec, &solve);
        let (Order { effort, .. } | NoOrder { effort, .. } | Unknown { effort }) = &verdict;
        spend.ran = true;
        spend.pairs += effort.pairs as u64;
        spend.clauses += effort.clauses as u64;
        spend.conflicts += effort.conflicts;
        spend.refinements += effort.refinements;
        // Solver effort as the texts below quote it.
        let conflicts = effort.conflicts + effort.refinements;
        let dense = |txns: &[u32]| txns.iter().map(|&t| dense_of[t as usize]).collect::<Vec<_>>();
        report.outcome = match &verdict {
            Order { order, .. } => Outcome::Pass {
                witness: format!("solver-decoded {}", order_witness(po, &dense(order))),
            },
            NoOrder { cycle, .. } if cycle.is_empty() => Outcome::Fail {
                violation: format!(
                    "commit-order axioms unsatisfiable \
                     (CDCL refutation, {conflicts} conflict(s))"
                ),
            },
            NoOrder { cycle, .. } => Outcome::Fail {
                violation: format!(
                    "commit-order axioms unsatisfiable: forced cycle {}",
                    po.render_path(&dense(cycle))
                ),
            },
            Unknown { .. } => {
                // The DFS hint is meaningless at a size both engines gave up
                // on — recompute the retry hint as a *conflict* budget.
                let (states, refuted) = match &report.outcome {
                    Outcome::Unknown { states, refuted, .. } => (*states, *refuted),
                    _ => (0, None),
                };
                Outcome::Unknown {
                    reason: format!(
                        "{} undecided: DFS and SAT both exhausted \
                         (solver spent {conflicts} conflict(s) of {})",
                        report.level.name(),
                        cfg.conflicts
                    ),
                    states,
                    refuted,
                    next_budget: cfg.conflicts.saturating_mul(4).max(1),
                }
            }
        };
        report.decided_by = DecidedBy::Sat;
    };
    let [prefix, si, ser] = cells;
    decide(prefix, tm_sat::LevelSpec::Prefix);
    apply_hierarchy(prefix, si, ser);
    decide(ser, tm_sat::LevelSpec::Serializable);
    apply_hierarchy(prefix, si, ser);
    decide(si, tm_sat::LevelSpec::SnapshotIsolation);
    apply_hierarchy(prefix, si, ser);
}

/// Fill still-undecided cells from decided neighbours: a Prefix refutation
/// refutes SI, an SI refutation refutes SER, and an SER witness certifies
/// both weaker levels.  The filled cell inherits its neighbour's provenance.
fn apply_hierarchy(prefix: &mut LevelReport, si: &mut LevelReport, ser: &mut LevelReport) {
    let implied_fail = |from: &LevelReport, to: &mut LevelReport, containment: &str| {
        if let (Outcome::Fail { violation }, Outcome::Unknown { .. }) = (&from.outcome, &to.outcome)
        {
            to.outcome =
                Outcome::Fail { violation: format!("implied by {containment}: {violation}") };
            to.decided_by = from.decided_by;
        }
    };
    implied_fail(
        prefix,
        si,
        "the prefix-consistency refutation (snapshot-isolated ⊆ prefix-consistent)",
    );
    implied_fail(si, ser, "the snapshot-isolation refutation (serializable ⊆ snapshot-isolated)");
    let implied_pass = |from: &LevelReport, to: &mut LevelReport| {
        if let (Outcome::Pass { witness }, Outcome::Unknown { .. }) = (&from.outcome, &to.outcome) {
            to.outcome = Outcome::Pass { witness: witness.clone() };
            to.decided_by = from.decided_by;
        }
    };
    implied_pass(ser, si);
    implied_pass(si, prefix);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histories_pass_everything() {
        let report = audit(&AuditHistory::new(4, 0, 2));
        for level in Level::ALL {
            assert!(report.passes(level), "{level}: {report}");
        }
    }

    #[test]
    fn a_broken_recording_contract_fails_every_level() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [], [(0, 7)]);
        h.push_txn(1, [], [(0, 7)]);
        let report = audit(&h);
        for level in Level::ALL {
            assert!(report.fails(level), "{level}");
        }
        assert!(report.to_string().contains("ambiguous write"));
    }

    #[test]
    fn write_skew_lands_exactly_between_si_and_ser() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], [(1, 10)]);
        h.push_txn(1, [(1, 0)], [(0, 20)]);
        let report = audit(&h);
        assert!(report.passes(Level::ReadCommitted));
        assert!(report.passes(Level::ReadAtomic));
        assert!(report.passes(Level::Causal));
        assert!(report.passes(Level::Prefix));
        assert!(report.passes(Level::SnapshotIsolation));
        assert!(report.fails(Level::Serializable));
        assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✗");
    }

    #[test]
    fn lost_update_fails_si_and_ser_with_a_named_pair() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]);
        let report = audit(&h);
        assert!(report.passes(Level::Causal));
        assert!(report.fails(Level::SnapshotIsolation));
        assert!(report.fails(Level::Serializable));
        let Outcome::Fail { violation } = report.outcome(Level::Serializable).unwrap() else {
            panic!("expected failure");
        };
        assert!(violation.contains("lost update on v0"), "{violation}");
        assert!(violation.contains("s0:0"), "{violation}");
        assert!(violation.contains("s1:0"), "{violation}");
    }

    #[test]
    fn causal_violations_propagate_to_the_searches() {
        // Fractured read: causal fails, so SI/SER must fail as implied.
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [], [(0, 1), (1, 2)]);
        h.push_txn(1, [(0, 1), (1, 0)], []);
        let report = audit(&h);
        assert!(report.passes(Level::ReadCommitted));
        assert!(report.fails(Level::ReadAtomic));
        assert!(report.fails(Level::Causal));
        assert!(report.fails(Level::SnapshotIsolation));
        assert!(report.fails(Level::Serializable));
        let Outcome::Fail { violation } = report.outcome(Level::Serializable).unwrap() else {
            panic!("expected failure");
        };
        assert!(violation.contains("implied by the causal violation"), "{violation}");
    }

    #[test]
    fn serializable_histories_get_one_witness_for_si_and_ser() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 1)], [(0, 2)]);
        let report = audit(&h);
        assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");
        let si = report.outcome(Level::SnapshotIsolation).unwrap();
        let ser = report.outcome(Level::Serializable).unwrap();
        assert_eq!(si, ser, "SI reuses the serializability witness");
    }

    /// Verify first: a recording order that is a serial order certifies
    /// every level with the one witness, and nothing searches — not even on
    /// a budget that could not afford a single DFS state.
    #[test]
    fn a_verified_recording_order_certifies_all_six_levels_with_one_witness() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1), (1, 1)]);
        h.push_txn(1, [(0, 1)], [(0, 2)]);
        h.push_txn(0, [(0, 2), (1, 1)], [(1, 2)]);
        let report = audit_with_budget(&h, 0);
        for l in &report.levels {
            assert_eq!(l.decided_by, DecidedBy::Hint, "{report}");
            assert_eq!(
                l.outcome,
                Outcome::Pass { witness: "commit order: s0:0 < s1:0 < s0:1".into() },
                "{report}"
            );
        }
        assert_eq!(report.decided_by(), DecidedBy::Hint);
        // Searched, the same history passes the same levels by other means.
        let searched = audit_by_search(&h, &AuditOptions::default());
        assert_eq!(searched.summary(), report.summary());
        assert!(searched.levels.iter().all(|l| l.decided_by == DecidedBy::Dfs), "{searched}");
    }

    #[test]
    fn exhausted_searches_report_states_and_next_budget() {
        // Four independent read-modify-writes, then a stale read that defeats
        // the hint fast path, searched with a 1-state budget.
        let mut h = AuditHistory::new(4, 0, 4);
        for s in 0..4usize {
            h.push_txn(s, [(s, 0)], [(s, 100 + s as i64)]);
        }
        h.push_txn(0, [(1, 0)], []);
        let report = audit_with_budget(&h, 1);
        let Outcome::Unknown { states, next_budget, .. } =
            report.outcome(Level::Serializable).unwrap()
        else {
            panic!("expected unknown, got {report}");
        };
        assert!(*states >= 1);
        assert!(*next_budget > *states);
    }

    /// The `next_budget` hint is actionable: on a history whose search is
    /// budget-starved, re-running with the suggested budget (iterating the
    /// suggestion if it stays starved) must flip `Unknown` into a decided
    /// verdict for both SI and SER.
    #[test]
    fn retrying_with_the_suggested_budget_decides_an_unknown_verdict() {
        // The adversarial shape from the test above: independent RMWs defeat
        // the recording-order fast path, so a 1-state budget exhausts.
        let mut h = AuditHistory::new(4, 0, 4);
        for s in 0..4usize {
            h.push_txn(s, [(s, 0)], [(s, 100 + s as i64)]);
        }
        h.push_txn(0, [(1, 0)], []);

        let mut budget = 1u64;
        let first = audit_with_budget(&h, budget);
        assert!(
            matches!(first.outcome(Level::Serializable), Some(Outcome::Unknown { .. })),
            "the starting budget must be too small for the test to mean anything: {first}"
        );

        let mut report = first;
        for _round in 0..20 {
            let Some(Outcome::Unknown { next_budget, .. }) = report.outcome(Level::Serializable)
            else {
                break;
            };
            assert!(*next_budget > budget, "the hint must grow the budget");
            budget = *next_budget;
            report = audit_with_budget(&h, budget);
        }
        for level in [Level::SnapshotIsolation, Level::Serializable] {
            assert!(
                !matches!(report.outcome(level), Some(Outcome::Unknown { .. })),
                "{level} still unknown after following next_budget to {budget}: {report}"
            );
        }
        // This history is genuinely serializable, so the decided verdict is a pass.
        assert!(report.passes(Level::Serializable), "{report}");
    }

    /// A witness names only the transactions it shows, and reads exactly as
    /// the fully materialized [`CommitOrderWitness`] does.
    #[test]
    fn order_witnesses_render_only_what_is_shown() {
        let mut po = TxnPartialOrder::new(1, 0);
        for seq in 0..3_000 {
            let txn = AuditTxn { writes: [(0, seq as i64 + 1)].into(), ..AuditTxn::default() };
            po.extend(TxnId { session: seq % 3, seq: seq / 3 }, &txn).unwrap();
        }
        let order: Vec<u32> = (1..=3_000).collect();
        for (len, expected) in [
            (0, "commit order: "),
            (8, "commit order: s0:0 < s1:0 < s2:0 < s0:1 < s1:1 < s2:1 < s0:2 < s1:2"),
            (9, "commit order (9 txns): s0:0 < s1:0 < s2:0 < s0:1 < … < s2:1 < s0:2 < s1:2 < s2:2"),
            (
                3_000,
                "commit order (3000 txns): s0:0 < s1:0 < s2:0 < s0:1 < … \
                 < s2:998 < s0:999 < s1:999 < s2:999",
            ),
        ] {
            let order = &order[..len];
            assert_eq!(order_witness(&po, order), expected);
            let named = CommitOrderWitness::new(order.iter().map(|&t| po.name(t)).collect());
            assert_eq!(named.to_string(), expected);
        }
    }

    fn decided_by(report: &AuditReport, level: Level) -> DecidedBy {
        report.levels.iter().find(|l| l.level == level).unwrap().decided_by
    }

    /// The escalation path: the same budget-starved history the retry test
    /// uses is decided in one shot when the SAT stage is enabled — the solver
    /// certifies all three NP-hard levels and the provenance says so.
    #[test]
    fn sat_escalation_decides_a_budget_starved_window() {
        let mut h = AuditHistory::new(4, 0, 4);
        for s in 0..4usize {
            h.push_txn(s, [(s, 0)], [(s, 100 + s as i64)]);
        }
        h.push_txn(0, [(1, 0)], []);

        let starved = audit_with_budget(&h, 1);
        assert!(
            matches!(starved.outcome(Level::Serializable), Some(Outcome::Unknown { .. })),
            "the DFS must exhaust for the escalation to matter: {starved}"
        );

        let options = AuditOptions { budget: 1, sat: Some(SatConfig::default()) };
        let report = audit_with_options(&h, &options);
        assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");
        // Prefix and SI verified the recording order directly (their snapshot
        // points absorb the stale read); only the SER search was starved.
        assert_eq!(decided_by(&report, Level::Serializable), DecidedBy::Sat, "{report}");
        let Some(Outcome::Pass { witness }) = report.outcome(Level::Serializable) else {
            panic!("expected pass: {report}");
        };
        assert!(witness.contains("solver-decoded"), "{witness}");
    }

    /// A long fork under a starved DFS budget: the solver *convicts* where
    /// the search exhausted, and the refutation cascades down the hierarchy
    /// with SAT provenance.
    #[test]
    fn sat_escalation_convicts_a_budget_starved_long_fork() {
        let mut h = AuditHistory::new(2, 0, 4);
        h.push_txn(0, [], [(0, 1)]);
        h.push_txn(1, [], [(1, 1)]);
        h.push_txn(2, [(0, 1), (1, 0)], []);
        h.push_txn(3, [(0, 0), (1, 1)], []);

        let starved = audit_with_budget(&h, 1);
        assert!(
            matches!(starved.outcome(Level::Prefix), Some(Outcome::Unknown { .. })),
            "the DFS must exhaust for the escalation to matter: {starved}"
        );

        let options = AuditOptions { budget: 1, sat: Some(SatConfig::default()) };
        let report = audit_with_options(&h, &options);
        assert!(report.passes(Level::Causal), "{report}");
        for level in [Level::Prefix, Level::SnapshotIsolation, Level::Serializable] {
            assert!(report.fails(level), "{level}: {report}");
        }
        // SER is small enough that even the starved DFS refutes it; Prefix
        // and SI were the solver's convictions.
        for level in [Level::Prefix, Level::SnapshotIsolation] {
            assert_eq!(decided_by(&report, level), DecidedBy::Sat, "{level}: {report}");
        }
        let Some(Outcome::Fail { violation }) = report.outcome(Level::Prefix) else {
            panic!("expected failure: {report}");
        };
        assert!(violation.contains("commit-order axioms unsatisfiable"), "{violation}");
    }

    /// When the solver *also* exhausts, `next_budget` is recomputed as a
    /// conflict budget — and following it (like the DFS retry flow) must
    /// land on a decided verdict.
    #[test]
    fn sat_conflict_exhaustion_recomputes_next_budget_and_retrying_decides() {
        // Two unordered writers of y (sessions 1 and 2) under a cross-session
        // reader of each variable: no SI clause is settled by the known order,
        // and the order the solver tries first closes a cycle it has to be
        // told about, so a budget of 1 exhausts.  SER fails (s0:0 and s2:0
        // are a write skew), so the SI `Unknown` is not filled in by an
        // implied pass.
        let mut h = AuditHistory::new(2, 0, 3);
        h.push_txn(0, [(1, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(1, 2)]);
        h.push_txn(2, [(0, 0)], [(1, 3)]);
        h.push_txn(1, [(1, 2)], [(0, 4)]);
        let options = |conflicts| AuditOptions {
            budget: DEFAULT_STATE_BUDGET,
            sat: Some(SatConfig { conflicts, force: true }),
        };

        let mut conflicts = 1u64;
        let mut report = audit_with_options(&h, &options(conflicts));
        let Some(Outcome::Unknown { next_budget, reason, .. }) =
            report.outcome(Level::SnapshotIsolation)
        else {
            panic!("a 1-conflict budget must exhaust for the test to mean anything: {report}");
        };
        assert_eq!(*next_budget, 4, "the retry hint is a conflict budget, 4x the spent one");
        assert!(reason.contains("DFS and SAT both exhausted"), "{reason}");

        for _round in 0..20 {
            let Some(Outcome::Unknown { next_budget, .. }) =
                report.outcome(Level::SnapshotIsolation)
            else {
                break;
            };
            assert!(*next_budget > conflicts, "the hint must grow the budget");
            conflicts = *next_budget;
            report = audit_with_options(&h, &options(conflicts));
        }
        assert!(report.passes(Level::SnapshotIsolation), "{report}");
        assert!(report.passes(Level::Prefix), "{report}");
        assert!(report.fails(Level::Serializable), "{report}");
        assert_eq!(decided_by(&report, Level::SnapshotIsolation), DecidedBy::Sat);
        assert_eq!(decided_by(&report, Level::Serializable), DecidedBy::Sat);
    }

    /// The stage after the solver: when the probe starves and the solver
    /// gives up, the DFS gets the caller's full budget, so a cell the DFS
    /// alone decides is never left `Unknown` for having a solver configured.
    #[test]
    fn a_solver_unknown_falls_back_to_the_full_budget_dfs() {
        // A core whose SI witness needs backtracking and a refinement, padded
        // with two independent RMW chains that multiply the backtracking past
        // the probe.
        let mut h = AuditHistory::new(4, 0, 6);
        h.push_txn(0, [], [(0, 1)]);
        h.push_txn(2, [(1, 0)], [(0, 2)]);
        h.push_txn(3, [(0, 0)], [(1, 3)]);
        h.push_txn(1, [(1, 0)], [(0, 4)]);
        h.push_txn(0, [(0, 1)], [(1, 5)]);
        for step in 0..3i64 {
            for chain in 0..2usize {
                let last = if step == 0 { 0 } else { 100 * step + chain as i64 };
                h.push_txn(
                    4 + chain,
                    [(2 + chain, last)],
                    [(2 + chain, 100 * (step + 1) + chain as i64)],
                );
            }
        }
        let probe = PROBE_STATES_PER_TXN * (h.txn_count() as u64 + 1);
        let starved = audit_with_budget(&h, probe);
        assert!(
            matches!(starved.outcome(Level::SnapshotIsolation), Some(Outcome::Unknown { .. })),
            "the probe must starve for the test to mean anything: {starved}"
        );
        let full = audit(&h);
        assert!(full.passes(Level::SnapshotIsolation), "{full}");

        let sat = |conflicts| AuditOptions {
            budget: DEFAULT_STATE_BUDGET,
            sat: Some(SatConfig { conflicts, force: false }),
        };
        let report = audit_with_options(&h, &sat(1));
        assert_eq!(report.summary(), full.summary(), "{report}");
        assert_eq!(decided_by(&report, Level::SnapshotIsolation), DecidedBy::Dfs, "{report}");
        // Given a budget, the solver is the stage that answers.
        let report = audit_with_options(&h, &sat(SatConfig::default().conflicts));
        assert_eq!(report.summary(), full.summary(), "{report}");
        assert_eq!(decided_by(&report, Level::SnapshotIsolation), DecidedBy::Sat, "{report}");
    }
}
