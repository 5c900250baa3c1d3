//! The whole-document workloads: `batch-20k` (the polynomial checkers and a
//! witness search over one unbounded window) and `hard-sat` (DFS exhaustion
//! and the CDCL solver).

use super::{secs, timed_setup, Cells, Expect, Rounds, RunCfg};
use crate::inputs::{hash_history, healthy, Fnv, EVENTS, SESSIONS, VARS};
use crate::metrics::Outcome;
use crate::stats::{median, paired_diff, paired_slowdown_pct};
use crate::trace::Tracer;
use std::time::Instant;
use tm_audit::linearization::{
    find_lost_update, find_same_source_skew, search_serializable, Search, DEFAULT_STATE_BUDGET,
};
use tm_audit::po::TxnPartialOrder;
use tm_audit::saturation::{check_causal, check_read_atomic, check_read_committed};
use tm_audit::{
    audit, audit_with_budget, audit_with_options, AuditHistory, AuditOptions, DecidedBy, Level,
    SatConfig,
};
use tm_history::generate::generate_hard;

// ---------------------------------------------------------------------------
// batch-20k
// ---------------------------------------------------------------------------

/// The stages `tm_audit::audit` runs on a healthy history, callable from
/// outside, each with the order its cost is expected to grow in.  A stage's
/// span is named as listed and its metric is that name plus `_s`.  What is
/// left of `audit`'s wall time after these is witness rendering and report
/// assembly.
const STAGES: [(&str, &str); 5] = [
    ("po.build", "linear"),
    ("saturation.rc", "polynomial (RC saturation)"),
    ("saturation.ra", "polynomial (RA saturation)"),
    ("saturation.causal", "polynomial (CC saturation)"),
    ("linearization.ser", "NP-complete; linear when the hint order is a witness"),
];

/// Run the stages one by one under `root`, returning each stage's seconds, or
/// what contradicted the oracle.
fn staged_audit(history: &AuditHistory, tracer: &mut Tracer, run: u32) -> Result<[f64; 5], String> {
    let mut marks = [Instant::now(); 6];
    let root = tracer.open("batch.staged", run, marks[0]);
    let po = TxnPartialOrder::build(history).map_err(|e| format!("po.build: {e}"))?;
    marks[1] = Instant::now();
    let rc = check_read_committed(&po);
    marks[2] = Instant::now();
    let ra = check_read_atomic(&po);
    marks[3] = Instant::now();
    let causal = check_causal(&po);
    marks[4] = Instant::now();
    let sat = causal.as_ref().map_err(|_| "causal saturation found a cycle on a healthy input")?;
    let lost = find_lost_update(&po).is_some();
    let skew = find_same_source_skew(&po, sat).is_some();
    let ser = search_serializable(&po, sat, po.n_vars(), DEFAULT_STATE_BUDGET);
    marks[5] = Instant::now();
    let mut times = [0.0; 5];
    for (i, (span, _)) in STAGES.iter().enumerate() {
        tracer.span(span, root, marks[i], marks[i + 1], 1);
        times[i] = secs(marks[i], marks[i + 1]);
    }
    tracer.close(root, marks[5]);
    if rc.is_err() || ra.is_err() || lost || skew || !matches!(ser, Search::Order(_)) {
        return Err("a staged checker convicted a healthy input".to_string());
    }
    Ok(times)
}

pub fn batch_20k(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let txns = cfg.txns(20_000);
    let history = timed_setup(&mut out, || healthy(cfg.seed, txns));
    out.header.push(format!(
        "sizes: txns={txns} sessions={SESSIONS} vars={VARS} events_per_txn={EVENTS} window=unbounded"
    ));
    out.header.push("threads: auditor=1".to_string());
    out.header
        .push(format!("input: generated healthy history fnv64={:016x}", hash_history(&history)));

    // Cost growth is shown against the expected order (Biswas & Enea: RC, RA
    // and CC are polynomial by saturation; Prefix, SI and SER are NP-complete,
    // but a healthy history's hint order is a witness, so the search is one
    // pass).  Each traced round runs the stages at half size and at full
    // size back to back: a stage whose cost per transaction grows with the
    // input is super-linear.
    let half_txns = (txns / 2).next_multiple_of(SESSIONS);
    let half = healthy(cfg.seed, half_txns);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut staged, mut staged_half): (Vec<[f64; 5]>, Vec<[f64; 5]>) = (Vec::new(), Vec::new());
    let mut cells = Cells::default();
    let mut rounds = Rounds::new(cfg, 3);
    while let Some(run) = rounds.next_round() {
        let start = Instant::now();
        let report = audit(&history);
        plain.push(start.elapsed().as_secs_f64());
        cells.judge(&report, Expect::Healthy, true);
        if !cfg.traced {
            continue;
        }
        let full = tracer.recording(|tracer| {
            let start = Instant::now();
            let root = tracer.open("batch.rep", run, start);
            std::hint::black_box(audit(&history));
            let end = Instant::now();
            tracer.span("audit", root, start, end, 1);
            tracer.close(root, end);
            traced.push(secs(start, end));
            staged_audit(&history, tracer, run)
        });
        match (full, staged_audit(&half, tracer, run)) {
            (Ok(full), Ok(half)) => {
                staged.push(full);
                staged_half.push(half);
            }
            (Err(e), _) | (_, Err(e)) => {
                out.errors.push(format!("run {run}: {e}"));
                break;
            }
        }
    }
    cells.report(&mut out);
    let wall = median(&plain);
    out.set_n("txns_per_s", txns as f64 / wall, plain.len());
    out.note_samples("repetitions", &plain);
    out.set("audit.ns_per_txn", 1e9 * wall / txns as f64);
    if staged.is_empty() {
        return out;
    }

    let stage = |runs: &[[f64; 5]], i: usize| runs.iter().map(|r| r[i]).collect::<Vec<f64>>();
    for (i, (span, _)) in STAGES.iter().enumerate() {
        out.set(&format!("{span}_s"), median(&stage(&staged, i)));
    }
    let explained: Vec<f64> = staged.iter().map(|r| r.iter().sum()).collect();
    out.set("audit.assemble_s", paired_diff(&plain, &explained));
    out.set("trace.overhead_pct", paired_slowdown_pct(&traced, &plain));
    out.set("trace.accounted_share", tracer.accounted_share());
    out.notes.push(format!(
        "the stages explain {:.1}% of audit() (median over {} rounds of stages / audit() of the \
         same round); the rest is witness rendering and assembly",
        100.0 + paired_slowdown_pct(&explained, &plain),
        staged.len()
    ));
    out.notes.push(format!(
        "{:<20} {:>14} {:>14} {:>9}  expected order",
        "stage",
        format!("ns/txn@{half_txns}"),
        format!("ns/txn@{txns}"),
        "exponent"
    ));
    for (i, (span, expected)) in STAGES.iter().enumerate() {
        let (small, full) = (stage(&staged_half, i), stage(&staged, i));
        out.notes.push(format!(
            "{:<20} {:>14.0} {:>14.0} {:>9.2}  {expected}",
            span,
            1e9 * median(&small) / half_txns as f64,
            1e9 * median(&full) / txns as f64,
            (1.0 + paired_slowdown_pct(&full, &small) / 100.0).log2()
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// hard-sat
// ---------------------------------------------------------------------------

/// DFS states each NP-hard search may visit before it gives up and the
/// solver takes over.
const DFS_BUDGET: u64 = 300_000;
const CHAINS: usize = 8;
const CHAIN_LEN: usize = 12;

pub fn hard_sat(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Quick mode keeps the documents' size (a smaller one would not starve
    // the DFS) and audits one instead of four.
    let n_docs = if cfg.quick { 1 } else { 4 };
    let docs: Vec<AuditHistory> = timed_setup(&mut out, || {
        (0..n_docs).map(|i| generate_hard(cfg.seed + i, CHAINS, CHAIN_LEN).history).collect()
    });
    let txns_per_doc = docs[0].txn_count();
    let mut hash = Fnv::new();
    docs.iter().for_each(|d| hash.word(hash_history(d)));
    out.header.push(format!(
        "sizes: documents={n_docs} txns_per_document={txns_per_doc} chains={CHAINS} chain_len={CHAIN_LEN} \
         dfs_budget={DFS_BUDGET} sat=default"
    ));
    out.header.push("threads: auditor=1".to_string());
    out.header.push(format!("input: generate_hard documents fnv64={:016x}", hash.finish()));

    let options = AuditOptions { budget: DFS_BUDGET, sat: Some(SatConfig::default()) };
    // Run `i` audits document `i % n_docs`.
    let (mut plain, mut traced, mut dfs_only) = (Vec::new(), Vec::new(), Vec::new());
    let mut cells = Cells::default();
    let (mut by_sat, mut dfs_undecided) = (0u64, 0u64);
    let mut rounds = Rounds::new(cfg, docs.len() as u32);
    while let Some(run) = rounds.next_round() {
        let doc = &docs[run as usize % docs.len()];
        let start = Instant::now();
        let report = audit_with_options(doc, &options);
        plain.push(start.elapsed().as_secs_f64());
        cells.judge(&report, Expect::LongFork, true);
        for cell in &report.levels {
            let np = cell.level >= Level::Prefix;
            by_sat += u64::from(np && cell.decided_by == DecidedBy::Sat);
            out.check(!np || cell.decided_by == DecidedBy::Sat || !cell.outcome.failed(), || {
                format!("run {run}: {} was refuted by the DFS, not the solver", cell.level.tag())
            });
        }
        if !cfg.traced {
            continue;
        }
        let (start, end, starved) = tracer.recording(|tracer| {
            let start = Instant::now();
            let root = tracer.open("hard-sat.rep", run, start);
            std::hint::black_box(audit_with_options(doc, &options));
            let end = Instant::now();
            tracer.span("audit.dfs+sat", root, start, end, 1);
            tracer.close(root, end);
            traced.push(secs(start, end));
            // The twin without the solver: what the DFS spends before giving up.
            let start = Instant::now();
            let root = tracer.open("hard-sat.dfs_only", run, start);
            let starved = audit_with_budget(doc, DFS_BUDGET);
            let end = Instant::now();
            tracer.span("linearization.dfs_exhaust", root, start, end, 1);
            tracer.close(root, end);
            (start, end, starved)
        });
        dfs_only.push(secs(start, end));
        let mut starved_cells = Cells::default();
        starved_cells.judge(&starved, Expect::LongFork, true);
        dfs_undecided += starved_cells.undecided;
        out.check(starved_cells.wrong == 0, || format!("run {run}: the DFS-only twin was wrong"));
    }
    cells.report(&mut out);
    // Documents differ in cost, so each gets its own median and the figure
    // is the time for the set, however many repetitions each document got.
    let per_doc: Vec<f64> = (0..docs.len())
        .map(|d| median(&plain.iter().copied().skip(d).step_by(docs.len()).collect::<Vec<_>>()))
        .collect();
    let wall = per_doc.iter().sum::<f64>() / docs.len() as f64;
    let reps = plain.len();
    out.set_n("txns_per_s", txns_per_doc as f64 / wall, reps);
    out.note_samples("repetitions (documents in turn)", &plain);
    out.set("sat.decided_cells", by_sat as f64 / reps as f64);
    out.set("sat.undecided_cells", cells.undecided as f64 / reps as f64);
    out.notes.push(format!(
        "seconds per document: {}",
        per_doc.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    ));
    if cfg.traced {
        out.set("linearization.dfs_exhaust_s", median(&dfs_only));
        out.set("sat.escalation_s", paired_diff(&plain, &dfs_only));
        out.set("trace.overhead_pct", paired_slowdown_pct(&traced, &plain));
        out.set("trace.accounted_share", tracer.accounted_share());
        out.notes.push(format!(
            "per document: DFS to exhaustion {:.3} s (leaves {:.1} cells undecided), solver {:.3} s on top",
            median(&dfs_only),
            dfs_undecided as f64 / dfs_only.len() as f64,
            paired_diff(&plain, &dfs_only)
        ));
    }
    out
}
