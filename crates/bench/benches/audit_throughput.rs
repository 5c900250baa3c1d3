//! Checker-throughput benchmarks for the `tm-audit` subsystem.
//!
//! Three questions matter for auditing production-scale runs:
//!
//! * **AUDIT1 — recording overhead**: commits/second of the register workload
//!   with the recorder attached vs. detached, per backend.  The recorder is a
//!   per-commit mutex push on an uncontended per-session buffer; the detached
//!   hot path is a never-taken branch.
//! * **AUDIT2 — checking throughput**: transactions/second each checker
//!   level sustains on recorded histories (the polynomial saturation levels
//!   and the SER search with its recording-order fast path).
//! * **AUDIT3 — batch vs streaming at scale**: whole-run batch auditing vs
//!   the windowed streaming pipeline at 10⁴ and 10⁵ transactions (10⁶ with
//!   `PCL_BENCH_FULL=1`), with **peak closure memory** beside the latency.
//!   The only closure state left is the causal saturation's chain-clock
//!   table — `V · k` words for `k` session chains, built only when a history
//!   or window does not verify in recording order (0 on these healthy runs)
//!   — so batch is bounded by holding the whole history, streaming by the
//!   window no matter the run length.
//! * **AUDIT4 — sharded audit throughput vs K**: the same recorded histories
//!   replayed through the sharded partition pipeline at `K ∈ {1, 2, 4, 8}`.
//!   The windowed auditor bounded memory; sharding bounds the *throughput*
//!   gap — audit txns/s must scale with partitions (acceptance: K=4 strictly
//!   faster than K=1 at 10⁵ transactions).
//! * **AUDIT5 — history wire codec and generator**: transactions/second the
//!   `tm-history` encoder, hardened decoder and adversarial generator
//!   sustain — the export → ingest path and the fuzz lane's input side must
//!   not become the bottleneck of audit-anything workflows.
//! * **AUDIT6 — DFS vs SAT decision latency**: on the planted hard windows
//!   from `tm_history::generate::generate_hard` (a long-fork core padded
//!   with independent RMW chains), how long the DFS linearization search
//!   takes to exhaust its budget and return `Unknown` vs. how long the CDCL
//!   commit-order solver takes to *decide* the same window outright — the
//!   number that justifies the `--sat` escalation lane.
//!
//! Experiment ids (see DESIGN.md / EXPERIMENTS.md): AUDIT1, AUDIT2, AUDIT3,
//! AUDIT4, AUDIT5, AUDIT6.

use bench::harness::{bench, bench_throughput, black_box};
use stm_runtime::registry::{OBSTRUCTION_FREE, PRAM_LOCAL, TL2_BLOCKING};
use tm_audit::linearization::{search_serializable, Search, DEFAULT_STATE_BUDGET};
use tm_audit::po::TxnPartialOrder;
use tm_audit::saturation::{check_causal, check_read_atomic, check_read_committed};
use tm_audit::{
    audit_sharded, audit_with_budget, audit_with_options, record_run, run_unrecorded, AuditOptions,
    AuditRunConfig, Level, SatConfig, ShardConfig, WindowConfig,
};
use workloads::run_audited_streaming;

const SAMPLES: usize = 5;

fn recording_overhead() {
    for backend in [TL2_BLOCKING, OBSTRUCTION_FREE, PRAM_LOCAL] {
        let config =
            AuditRunConfig { backend, sessions: 4, txns_per_session: 2_000, vars: 64, seed: 7 };
        bench(&format!("audit1-recording/{backend}/detached"), SAMPLES, || {
            black_box(run_unrecorded(config))
        });
        bench(&format!("audit1-recording/{backend}/recorded"), SAMPLES, || {
            black_box(record_run(config).txn_count())
        });
    }
}

fn checker_throughput() {
    let config = AuditRunConfig {
        backend: TL2_BLOCKING,
        sessions: 4,
        txns_per_session: 2_500,
        vars: 64,
        seed: 7,
    };
    let history = record_run(config);
    let txns = history.txn_count() as u64;
    let po = TxnPartialOrder::build(&history).expect("recorded run obeys the contract");
    bench_throughput("audit2-checkers/read-committed", txns, || check_read_committed(&po).is_ok());
    bench_throughput("audit2-checkers/read-atomic", txns, || check_read_atomic(&po).is_ok());
    bench_throughput("audit2-checkers/causal-saturation", txns, || check_causal(&po).is_ok());
    let sat = check_causal(&po).expect("TL2 histories are causal");
    bench_throughput("audit2-checkers/serializability-search", txns, || {
        matches!(
            search_serializable(&po, &sat, history.n_vars, DEFAULT_STATE_BUDGET),
            Search::Order(_)
        )
    });
}

/// AUDIT3: batch vs streaming on the same run sizes, with peak closure
/// memory as the deciding axis.
fn batch_vs_streaming() {
    let mut sizes: Vec<usize> = vec![10_000, 100_000];
    if std::env::var_os("PCL_BENCH_FULL").is_some() {
        sizes.push(1_000_000);
    }
    for &txns in &sizes {
        let config = AuditRunConfig {
            backend: TL2_BLOCKING,
            sessions: 4,
            txns_per_session: txns / 4,
            vars: 64,
            seed: 7,
        };
        // Whole-run batch: record everything, then audit in one piece.
        if txns <= 100_000 {
            let history = record_run(config);
            let start = std::time::Instant::now();
            let report = tm_audit::audit(&history);
            let elapsed = start.elapsed();
            assert!(report.passes(Level::Serializable), "{report}");
            println!("audit3-batch/{txns}-txns: checked in {elapsed:.3?}");
        } else {
            println!("audit3-batch/{txns}-txns: skipped — holds the whole run; use streaming");
        }

        // Streaming: audited concurrently with the workload in rolling
        // windows; closure memory is bounded by the window.
        let window = WindowConfig::sized(2_048);
        let report = run_audited_streaming(config, window);
        assert!(report.stream.passes(Level::Serializable), "{}", report.stream.merged);
        // The acceptance bound: closure memory is a function of the window,
        // independent of how long the run is — at worst every vertex of a
        // 2×window graph (windows carry frontier stand-ins) is its own chain.
        let window_bound = (2 * window.size) * (2 * window.size) * 4;
        assert!(
            report.stream.peak_closure_bytes <= window_bound,
            "peak closure {} must be bounded by the window ({window_bound})",
            report.stream.peak_closure_bytes
        );
        println!(
            "audit3-streaming/{txns}-txns: run {:.3?} ({:.0} commits/s), verdict {:.3?} \
             after run end; {} windows of ≤{}, verdict latency mean {:.3?} / max {:.3?}",
            report.run_elapsed,
            report.throughput,
            report.drain_elapsed,
            report.stream.windows.len(),
            window.size,
            report.stream.verdict_latency_mean(),
            report.stream.verdict_latency_max(),
        );
        println!(
            "audit3-streaming/{txns}-txns: peak closure memory {} KiB — bounded by the \
             window ({} txns)",
            report.stream.peak_closure_bytes / 1024,
            report.stream.peak_window_txns,
        );
    }
}

/// AUDIT4: sharded audit throughput vs shard count, on recorded histories
/// replayed deterministically (no workload concurrency in the way — this
/// isolates the *auditor's* scaling).
fn sharded_audit_scaling() {
    let mut sizes: Vec<usize> = vec![10_000, 100_000];
    if std::env::var_os("PCL_BENCH_FULL").is_some() {
        sizes.push(1_000_000);
    }
    for &txns in &sizes {
        let config = AuditRunConfig {
            backend: TL2_BLOCKING,
            sessions: 4,
            txns_per_session: txns / 4,
            vars: 64,
            seed: 7,
        };
        let history = record_run(config);
        let window = WindowConfig::sized(2_048);
        let mut elapsed_by_k = Vec::new();
        for k in [1usize, 2, 4, 8] {
            // Min of two runs: the scaling claim reads best-case per K, not
            // scheduler noise.
            let mut best = None;
            let mut last = None;
            for _ in 0..2 {
                let start = std::time::Instant::now();
                let report = audit_sharded(&history, ShardConfig::new(k, window));
                let elapsed = start.elapsed();
                assert!(report.passes(Level::Serializable), "{}", report.merged);
                best = Some(best.map_or(elapsed, |b: std::time::Duration| b.min(elapsed)));
                last = Some(report);
            }
            let (elapsed, report) = (best.expect("two runs"), last.expect("two runs"));
            println!(
                "audit4-sharded/{txns}-txns/K={k}: audited in {elapsed:.3?} \
                 ({:.0} txns/s; {} straddlers escalated; peak closure {} KiB summed)",
                txns as f64 / elapsed.as_secs_f64().max(1e-9),
                report.escalated_txns,
                report.peak_closure_bytes() / 1024
            );
            elapsed_by_k.push((k, elapsed));
        }
        if txns == 100_000 {
            let k1 = elapsed_by_k.iter().find(|&&(k, _)| k == 1).expect("K=1 ran").1;
            let k4 = elapsed_by_k.iter().find(|&&(k, _)| k == 4).expect("K=4 ran").1;
            assert!(
                k4 < k1,
                "AUDIT4 acceptance: K=4 ({k4:.3?}) must beat K=1 ({k1:.3?}) at 10⁵ txns"
            );
            println!(
                "audit4-sharded/100000-txns: K=4 speedup over K=1 is {:.2}×",
                k1.as_secs_f64() / k4.as_secs_f64()
            );
        }
    }
}

/// AUDIT5: wire-codec and generator throughput on a recorded 10⁵-txn
/// history — encode, hardened decode (full validation pass included), and
/// the adversarial generator at the fuzz lane's anomaly mix.
fn wire_codec_throughput() {
    let config = AuditRunConfig {
        backend: TL2_BLOCKING,
        sessions: 4,
        txns_per_session: 25_000,
        vars: 64,
        seed: 7,
    };
    let history = record_run(config);
    let txns = history.txn_count() as u64;
    let doc = tm_history::encode(&history);
    println!(
        "audit5-wire: {txns} txns encode to {} KiB (tm-history wire v{})",
        doc.len() / 1024,
        tm_history::WIRE_VERSION
    );
    bench_throughput("audit5-wire/encode", txns, || tm_history::encode(&history).len());
    bench_throughput("audit5-wire/decode", txns, || {
        tm_history::decode(&doc).expect("exported history decodes").txn_count()
    });
    let gen_config = tm_history::GenConfig {
        sessions: 4,
        txns_per_session: 25_000,
        vars: 32,
        lost_update_per_mille: 30,
        write_skew_per_mille: 30,
        causal_cycle_per_mille: 30,
        shard_align: Some(4),
        ..tm_history::GenConfig::default()
    };
    bench_throughput("audit5-wire/generate", txns, || {
        tm_history::generate(&gen_config).history.txn_count()
    });
}

/// AUDIT6: DFS budget-exhaustion latency vs CDCL decision latency on the
/// planted hard windows the `--sat` escalation lane exists for.  The DFS
/// side is pure wasted work (it must touch `budget` states before giving
/// up); the solver side decides the window from its unit clauses in a
/// handful of conflicts, so the gap is what the escalation buys.
fn solver_vs_dfs_latency() {
    for (chains, chain_len) in [(5, 6), (7, 8)] {
        let generated = tm_history::generate::generate_hard(3, chains, chain_len);
        let history = &generated.history;
        let txns = history.txn_count();
        let budget = 200_000;
        let starved = audit_with_budget(history, budget);
        assert!(
            !starved.fails(Level::Prefix) && !starved.passes(Level::Prefix),
            "AUDIT6 premise: DFS must exhaust on the {txns}-txn hard window"
        );
        bench(&format!("audit6-solver/{chains}x{chain_len}/dfs-exhaust"), SAMPLES, || {
            black_box(audit_with_budget(history, budget).summary())
        });
        let options = AuditOptions { budget: 1, sat: Some(SatConfig::default()) };
        assert!(
            audit_with_options(history, &options).fails(Level::Prefix),
            "AUDIT6 premise: the solver must convict the {txns}-txn hard window"
        );
        bench(&format!("audit6-solver/{chains}x{chain_len}/sat-decide"), SAMPLES, || {
            black_box(audit_with_options(history, &options).summary())
        });
    }
}

fn main() {
    recording_overhead();
    checker_throughput();
    batch_vs_streaming();
    sharded_audit_scaling();
    wire_codec_throughput();
    solver_vs_dfs_latency();
}
