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
//! * **DAPCOST — metadata ablation**: read-mostly workloads comparing the per-var
//!   metadata cost of the two consistent DAP backends.
//! * **POLICY — retry-policy ablation**: the kv-zipf hotspot scenario across
//!   the whole contention-manager matrix (immediate / backoff / karma /
//!   timestamp / adaptive), with the attempt-histogram percentiles that make
//!   the difference visible; a second 8-thread family on the blocking backend
//!   (`policy8-…`) captures the oversubscribed regime where immediate retry
//!   livelocks and annotates each entry with `commits_per_sec` and
//!   `attempts_p99`.
//! * **SEP — consistency-axis ablation**: the `write-skew` scenario across the
//!   consistency spectrum (`mvcc` admits the skew and never blocks its readers;
//!   the serializable designs pay validation aborts to refuse it).
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
//! Experiment ids (see DESIGN.md / EXPERIMENTS.md): TRADE1, TRADE2, TRADE3,
//! DAPCOST, POLICY, SEP.  Audit throughput (batch, windowed, sharded) is
//! `benchmark/`'s job, not a family here.

use bench::harness::{bench, bench_interleaved, black_box, samples_to_json_annotated, Samples};
use std::sync::Arc;
use std::time::Duration;
use stm_runtime::{policy, registry, BackendId, Stm};
use workloads::{
    run_scenario, stalled_writer_experiment, BankConfig, BankScenario, KvZipfScenario,
    ScenarioConfig, ScenarioRunReport, WriteSkewScenario,
};

/// Sizing of one bench run (full by default, shrunk by `PCL_BENCH_TINY`).
struct Sizes {
    samples: usize,
    tx_per_thread: usize,
    scenario_txns: usize,
    stall: Duration,
}

impl Sizes {
    fn from_env() -> Self {
        let mut sizes = if std::env::var("PCL_BENCH_TINY").is_ok_and(|v| v != "0") {
            Sizes {
                samples: 2,
                tx_per_thread: 60,
                scenario_txns: 50,
                stall: Duration::from_millis(10),
            }
        } else {
            Sizes {
                samples: 10,
                tx_per_thread: 300,
                scenario_txns: 250,
                stall: Duration::from_millis(40),
            }
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

/// TRADE1: fully disjoint transfers, 1–4 threads, **strong scaling** — a
/// fixed *total* transaction count split evenly across the thread count.
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
    for backend in all_backends() {
        let mut one_thread_min = None;
        for threads in [1usize, 2, 4] {
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

/// DAPCOST: read-mostly workload comparing the consistent backends' metadata cost.
fn bench_read_mostly_ablation(sizes: &Sizes, sink: &mut Vec<Samples>) {
    for backend in [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE] {
        for read_pct in [50usize, 90, 100] {
            let stm = Stm::new(backend);
            let vars: Vec<_> = (0..16i64).map(|i| stm.alloc(i)).collect();
            sink.push(bench(
                &format!("dapcost-read-mostly/{backend}/{read_pct}%reads"),
                sizes.samples,
                || {
                    let mut acc = 0i64;
                    for (i, _) in vars.iter().enumerate() {
                        acc += stm.run(|tx| {
                            let mut sum = 0;
                            for v in &vars {
                                sum += tx.read(*v)?;
                            }
                            if i * 100 / vars.len() >= read_pct {
                                tx.write(vars[i], sum)?;
                            }
                            Ok(sum)
                        });
                    }
                    black_box(acc)
                },
            ));
        }
    }
}

/// The contention-manager policy matrix benched by [`bench_retry_policies`].
fn policy_matrix() -> [(&'static str, Arc<dyn stm_runtime::RetryPolicy>); 5] {
    [
        ("immediate", Arc::new(policy::ImmediateRetry) as Arc<dyn stm_runtime::RetryPolicy>),
        ("backoff", Arc::new(policy::ExponentialBackoff::default()) as _),
        ("karma", Arc::new(policy::Karma::default()) as _),
        ("timestamp", Arc::new(policy::Timestamp::default()) as _),
        ("adaptive", Arc::new(policy::Adaptive::default()) as _),
    ]
}

/// POLICY: the full contention-manager matrix on the write-heavy Zipf
/// hotspot, with the attempt percentiles that justify (or refute) pacing.
///
/// Two families:
///
/// * `policy-kv-zipf-hotspot/obstruction-free/{policy}` — the original
///   4-thread family on the non-blocking backend (conflicts surface as
///   validation aborts);
/// * `policy8-kv-zipf-hotspot/tl2-blocking/vs-{policy}/{immediate|policy}` —
///   8 threads on the encounter-locking backend, the regime where
///   immediate retry livelocks: with more threads than cores a preempted
///   lock holder leaves every victim burning its own timeslice on doomed
///   re-attempts, which is exactly the timeslice the holder needs to
///   finish.  The pacing policies (karma / timestamp / adaptive)
///   spin-then-yield, so their `commits_per_sec` beats their interleaved
///   immediate twin's while worst-case attempts (`attempts_max`) drop.
///   Each entry carries both figures as JSON annotations taken from the
///   median run across samples.
fn bench_retry_policies(
    sizes: &Sizes,
    sink: &mut Vec<Samples>,
    annotations: &mut Vec<(String, String, f64)>,
) {
    let scenario = KvZipfScenario { theta: 0.99, read_fraction: 0.2 };
    for (label, retry) in policy_matrix() {
        sink.push(bench(
            &format!("policy-kv-zipf-hotspot/obstruction-free/{label}"),
            sizes.samples,
            || {
                let config = ScenarioConfig {
                    threads: 4,
                    txns_per_thread: sizes.scenario_txns,
                    vars: 8,
                    policy: Arc::clone(&retry),
                    ..ScenarioConfig::new(registry::OBSTRUCTION_FREE)
                };
                let report = run_scenario(&scenario, &config);
                black_box((report.throughput, report.attempts_p50, report.attempts_p99))
            },
        ));
    }
    // The oversubscribed regime only exists when the run spans many
    // scheduler timeslices: at the default scenario size an 8-thread run
    // finishes inside one slice per thread, nobody is preempted
    // mid-transaction, and every policy measures identical.  40× the
    // transactions keeps each sample in the low tens of milliseconds while
    // guaranteeing lock holders get preempted with victims runnable.
    //
    // Each managed policy is measured *interleaved against immediate
    // retry* (the trade1-metrics-overhead protocol): preemption storms are
    // stochastic, so two policies benched minutes apart mostly measure
    // which one got the quieter machine.  Back-to-back pairs face the same
    // storms, making the medians — and the annotations taken from them —
    // honestly comparable.  The min is a preemption-free lucky sample on
    // every policy and shows nothing.
    let storm_txns = sizes.scenario_txns * 40;
    let storm = |retry: &Arc<dyn stm_runtime::RetryPolicy>, stats: &mut Vec<(f64, u32, u32)>| {
        let config = ScenarioConfig {
            threads: 8,
            txns_per_thread: storm_txns,
            vars: 8,
            policy: Arc::clone(retry),
            ..ScenarioConfig::new(registry::TL2_BLOCKING)
        };
        let report = run_scenario(&scenario, &config);
        stats.push((report.throughput, report.attempts_p99, report.attempts_max));
        black_box((report.throughput, report.attempts_p50, report.attempts_p99))
    };
    let annotate = |name: &str,
                    stats: &mut Vec<(f64, u32, u32)>,
                    annotations: &mut Vec<(String, String, f64)>| {
        stats.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (tp, _, _) = stats[stats.len() / 2];
        annotations.push((name.to_string(), "commits_per_sec".to_string(), tp));
        let mut maxes: Vec<u32> = stats.iter().map(|&(_, _, m)| m).collect();
        maxes.sort_unstable();
        annotations.push((
            name.to_string(),
            "attempts_max".to_string(),
            f64::from(maxes[maxes.len() / 2]),
        ));
    };
    let immediate: Arc<dyn stm_runtime::RetryPolicy> = Arc::new(policy::ImmediateRetry);
    for (label, retry) in policy_matrix().into_iter().skip(1) {
        let imm_name = format!("policy8-kv-zipf-hotspot/tl2-blocking/vs-{label}/immediate");
        let pol_name = format!("policy8-kv-zipf-hotspot/tl2-blocking/vs-{label}/{label}");
        let mut imm_stats: Vec<(f64, u32, u32)> = Vec::new();
        let mut pol_stats: Vec<(f64, u32, u32)> = Vec::new();
        let (imm_samples, pol_samples) = bench_interleaved(
            &imm_name,
            || storm(&immediate, &mut imm_stats),
            &pol_name,
            || storm(&retry, &mut pol_stats),
            sizes.samples,
        );
        sink.push(imm_samples);
        sink.push(pol_samples);
        annotate(&imm_name, &mut imm_stats, annotations);
        annotate(&pol_name, &mut pol_stats, annotations);
    }
}

/// SEP: the write-skew scenario across the consistency spectrum — what the
/// serializable designs pay (validation aborts) for refusing the anomaly
/// `mvcc` admits.
fn bench_consistency_separation(sizes: &Sizes, sink: &mut Vec<Samples>) {
    for backend in
        [registry::MVCC, registry::TL2_BLOCKING, registry::SHARD_LOCK, registry::OBSTRUCTION_FREE]
    {
        sink.push(bench(&format!("sep-write-skew/{backend}"), sizes.samples, || {
            let config = ScenarioConfig {
                threads: 4,
                txns_per_thread: sizes.scenario_txns,
                vars: 16,
                ..ScenarioConfig::new(backend)
            };
            let report = run_scenario(&WriteSkewScenario, &config);
            black_box((report.throughput, report.aborts))
        }));
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
    if want("dapcost-read-mostly") {
        bench_read_mostly_ablation(&sizes, &mut sink);
    }
    if want("policy-kv-zipf-hotspot") || want("policy8-kv-zipf-hotspot") {
        bench_retry_policies(&sizes, &mut sink, &mut annotations);
    }
    if want("sep-write-skew") {
        bench_consistency_separation(&sizes, &mut sink);
    }
    if let Ok(path) = std::env::var("PCL_BENCH_JSON") {
        std::fs::write(&path, samples_to_json_annotated(&sink, &annotations))
            .expect("writing the bench artifact");
        println!("machine-readable samples written to {path}");
    }
}
