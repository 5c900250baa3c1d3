//! The P/C/L trade-off benchmarks on the real multi-threaded STM runtime.
//!
//! The paper's Section 5 argues the trade-off qualitatively; these benchmarks put
//! numbers on it using **every backend in the open registry** — the five
//! built-ins (the three corners plus the interior `mvcc` and `shard-lock`
//! points) plus whatever other crates registered (the `workloads` crate
//! contributes the coarse-global-lock "give up P" backend):
//!
//! * **TRADE1 — disjoint workloads**: per-thread account partitions, zero
//!   conflicts, *strong scaling* — a fixed total transaction count split across
//!   threads, so the N-thread/1-thread `min_ns` ratio reads off the commit hot
//!   path's per-thread overhead directly (each N>1 entry carries a
//!   `scaling_efficiency` annotation).  Expected shape: the DAP designs keep
//!   the ratio near 1×; the global-lock backend does not — that is exactly its
//!   sacrificed corner — and `shard-lock` sits in
//!   between (16 bands' worth of false conflicts).  A `trade1-metrics-overhead`
//!   family re-measures the 4-thread point as an interleaved off/on pair per
//!   backend, so the artifact carries a drift-free metrics-on-vs-off
//!   overhead comparison.
//! * **TRADE2 — contended workloads**: Zipfian hot accounts.  Expected shape: the
//!   obstruction-free backend turns contention into aborts/retries, the blocking
//!   backends into waiting; PRAM-local is unaffected (it shares nothing) — but it
//!   also returns wrong global balances, which is the point.
//! * **TRADE3 — stalled writer**: a writer stalls mid-transaction holding its
//!   encounter-time lock.  Expected shape: victims on the blocking backends commit
//!   almost nothing during the stall; the non-blocking backends — `mvcc`'s readers
//!   included — are unaffected.
//!
//! Environment knobs (both used by CI's bench-smoke job):
//!
//! * `PCL_BENCH_TINY=1` — tiny sizes / 2 samples, a smoke run that still
//!   exercises every family;
//! * `PCL_BENCH_JSON=PATH` — additionally write every sample as a
//!   machine-readable `BENCH_*.json`-style artifact;
//! * `PCL_BENCH_SAMPLES=N` — override the sample count (CI's scaling-smoke
//!   job pairs this with tiny sizes so the gated min is a real min);
//! * `PCL_BENCH_ONLY=substring` — run only the families whose name contains
//!   the substring (e.g. `trade1-disjoint-scaling`).
//!
//! Audit throughput (batch, windowed, sharded) and the commit hot path's
//! per-backend rate are `benchmark/`'s job, not families here.

use bench::harness::{bench, bench_interleaved, black_box, samples_to_json_annotated, Samples};
use std::time::Duration;
use stm_runtime::{registry, BackendId};
use workloads::{
    run_scenario, stalled_writer_experiment, BankConfig, BankScenario, ScenarioConfig,
    ScenarioRunReport,
};

/// Sizing of one bench run (full by default, shrunk by `PCL_BENCH_TINY`).
struct Sizes {
    samples: usize,
    tx_per_thread: usize,
    stall: Duration,
}

impl Sizes {
    fn from_env() -> Self {
        let mut sizes = if std::env::var("PCL_BENCH_TINY").is_ok_and(|v| v != "0") {
            Sizes { samples: 2, tx_per_thread: 60, stall: Duration::from_millis(10) }
        } else {
            Sizes { samples: 10, tx_per_thread: 300, stall: Duration::from_millis(40) }
        };
        if let Ok(raw) = std::env::var("PCL_BENCH_SAMPLES") {
            sizes.samples = raw.parse().expect("PCL_BENCH_SAMPLES must be a sample count");
        }
        sizes
    }
}

fn all_backends() -> Vec<BackendId> {
    registry::all_ids()
}

/// One unaudited bank run: `threads × txns_per_thread` transfers over
/// `accounts` accounts shaped by `template`.
fn run_bank(
    backend: BackendId,
    threads: usize,
    txns_per_thread: usize,
    accounts: usize,
    template: BankConfig,
) -> ScenarioRunReport {
    let config =
        ScenarioConfig { threads, txns_per_thread, vars: accounts, ..ScenarioConfig::new(backend) };
    run_scenario(&BankScenario { template }, &config)
}

/// TRADE1: fully disjoint transfers, 1–4 threads (those that fit the host's
/// cores), **strong scaling** — a fixed *total* transaction count split
/// evenly across the thread count.
///
/// The family used to fix the *per-thread* count (weak scaling), under
/// which an N-thread run does N× the work and its wall time is only
/// comparable to the 1-thread point after dividing by N — and on a host
/// with fewer cores than threads the N-thread time is trivially ≥ N× no
/// matter how contention-free the runtime is.  Fixing the total instead
/// makes the N-thread/1-thread `min_ns` ratio directly read off what the
/// commit hot path adds per extra thread (lock/clock/stats sharing,
/// scheduling churn): ≈ 1× is free threading, ≥ N× means the backend
/// serialized the disjoint work.
///
/// Each `trade1-disjoint-scaling/{backend}/{N}` entry for N > 1 carries a
/// `scaling_efficiency` annotation: 1-thread `min_ns` / (N × N-thread
/// `min_ns`), the standard strong-scaling parallel efficiency (1.0 =
/// perfect speedup; on a single-core host the ceiling is 1/N, so compare
/// backends against each other, not against 1.0).
fn bench_disjoint_scaling(
    sizes: &Sizes,
    sink: &mut Vec<Samples>,
    annotations: &mut Vec<(String, String, f64)>,
) {
    let total_txns = sizes.tx_per_thread * 4;
    // A thread count above the host's cores measures the scheduler, not the
    // commit path: keep 1 and whatever else fits (scripts/scaling_gate.sh
    // reads the largest count present).
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let counts: Vec<usize> = [1usize, 2, 4].into_iter().filter(|&n| n == 1 || n <= cores).collect();
    for backend in all_backends() {
        let mut one_thread_min = None;
        for &threads in &counts {
            let name = format!("trade1-disjoint-scaling/{backend}/{threads}");
            let samples = bench(&name, sizes.samples, || {
                let disjoint = BankConfig { cross_fraction: 0.0, ..Default::default() };
                let report = run_bank(backend, threads, total_txns / threads, 64, disjoint);
                black_box(report.throughput)
            });
            let min_ns = samples.min().as_nanos() as f64;
            sink.push(samples);
            match one_thread_min {
                None => one_thread_min = Some(min_ns),
                Some(t1) => annotations.push((
                    name,
                    "scaling_efficiency".to_string(),
                    t1 / (threads as f64 * min_ns.max(1.0)),
                )),
            }
        }
    }
}

/// TRADE1-METRICS: the disjoint-scaling 4-thread point measured as an
/// *interleaved* off/on pair per backend — the acceptance gauge for
/// "metrics-on stays within a few percent of metrics-off".  The off baseline
/// is re-measured here (rather than reusing `trade1-disjoint-scaling`)
/// because the two variants must sample back-to-back: run minutes apart,
/// machine drift swamps a single-digit-percent delta.  Each run is
/// sub-millisecond, so the family takes 4× the usual sample count — `min`
/// over few samples of a sub-ms run is itself noisier than the delta under
/// measurement.  Compare `trade1-metrics-overhead/{backend}/on/4` against
/// its `off/4` twin.
fn bench_metrics_overhead(sizes: &Sizes, sink: &mut Vec<Samples>) {
    let samples = sizes.samples * 4;
    for backend in all_backends() {
        let run = || {
            let disjoint = BankConfig { cross_fraction: 0.0, ..Default::default() };
            let report = run_bank(backend, 4, sizes.tx_per_thread, 64, disjoint);
            black_box(report.throughput)
        };
        let (off, on) = bench_interleaved(
            &format!("trade1-metrics-overhead/{backend}/off/4"),
            || {
                tm_telemetry::set_enabled(false);
                run()
            },
            &format!("trade1-metrics-overhead/{backend}/on/4"),
            || {
                tm_telemetry::set_enabled(true);
                run()
            },
            samples,
        );
        sink.push(off);
        sink.push(on);
    }
    tm_telemetry::set_enabled(false);
}

/// TRADE2: Zipfian hotspot contention.
fn bench_contention(sizes: &Sizes, sink: &mut Vec<Samples>) {
    for backend in all_backends() {
        for theta in [0.5f64, 0.99] {
            sink.push(bench(
                &format!("trade2-zipf-contention/{backend}/theta={theta}"),
                sizes.samples,
                || {
                    let zipf = BankConfig {
                        cross_fraction: 1.0,
                        zipf_theta: Some(theta),
                        ..Default::default()
                    };
                    let report = run_bank(backend, 4, sizes.tx_per_thread.min(200), 32, zipf);
                    black_box((report.throughput, report.aborts))
                },
            ));
        }
    }
}

/// TRADE3: victim commits during a stalled writer's stall.
fn bench_stalled_writer(sizes: &Sizes, sink: &mut Vec<Samples>) {
    for backend in all_backends() {
        sink.push(bench(
            &format!("trade3-stalled-writer/{backend}/stall={:?}", sizes.stall),
            sizes.samples,
            || {
                let commits = stalled_writer_experiment(backend, 2, sizes.stall);
                black_box(commits)
            },
        ));
    }
}

fn main() {
    // Pull in the backends other crates contribute (global-lock) before
    // snapshotting the registry.
    workloads::register_workload_backends();
    let sizes = Sizes::from_env();
    let mut sink: Vec<Samples> = Vec::new();
    let mut annotations: Vec<(String, String, f64)> = Vec::new();
    // `PCL_BENCH_ONLY=substring` runs just the matching families (CI's
    // scaling-smoke job runs trade1 alone at a higher sample count, so the
    // min it gates on is a real min and not two-sample noise).
    let only = std::env::var("PCL_BENCH_ONLY").ok();
    let want = |family: &str| only.as_deref().is_none_or(|f| family.contains(f));
    if want("trade1-disjoint-scaling") {
        bench_disjoint_scaling(&sizes, &mut sink, &mut annotations);
    }
    if want("trade1-metrics-overhead") {
        bench_metrics_overhead(&sizes, &mut sink);
    }
    if want("trade2-zipf-contention") {
        bench_contention(&sizes, &mut sink);
    }
    if want("trade3-stalled-writer") {
        bench_stalled_writer(&sizes, &mut sink);
    }
    if let Ok(path) = std::env::var("PCL_BENCH_JSON") {
        std::fs::write(&path, samples_to_json_annotated(&sink, &annotations))
            .expect("writing the bench artifact");
        println!("machine-readable samples written to {path}");
    }
}
