//! The commit hot path's disjoint-scaling gate.
//!
//! Strong scaling: a fixed total of 240 bank transfers over 64 accounts,
//! with no transfer crossing a thread's partition, split evenly across N
//! threads for each N in {1, 2, 4} that fits the host's cores.  Disjoint
//! transfers conflict with nothing, so the N-thread run's minimum wall time
//! over the 1-thread run's reads off what the commit path adds per extra
//! thread: about 1× is free threading, N× or more means the backend
//! serialized disjoint work.  On `tl2-blocking` and `pram-local` the ratio
//! sits near 1.1–1.8× on a quiet host; before the hot path was
//! de-serialized, its shared-clock and allocation bottlenecks put it at
//! 3–8×.  The 2.5× bound leaves room for scheduler noise without letting a
//! re-serialized hot path through.
//!
//! Timing needs an optimised build, so the test is ignored by default; run
//! it with
//!
//! ```text
//! cargo test --release -p workloads --test disjoint_scaling -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};
use stm_runtime::registry::{self, PRAM_LOCAL, TL2_BLOCKING};
use stm_runtime::BackendId;
use workloads::{run_scenario, BankConfig, BankScenario, ScenarioConfig};

/// Transfers per run, split evenly across the threads.
const TOTAL_TXNS: usize = 240;
const ACCOUNTS: usize = 64;
/// Timed runs per point, after one warm-up run; the point's figure is their
/// minimum.
const SAMPLES: usize = 8;
/// Largest allowed N-thread minimum over the 1-thread minimum.
const MAX_RATIO: f64 = 2.5;
/// The backends the bound applies to; the others are printed only.
const GATED: [BackendId; 2] = [TL2_BLOCKING, PRAM_LOCAL];

/// Minimum wall time of one disjoint bank run of `TOTAL_TXNS` transfers
/// split across `threads`.
fn min_wall(backend: BackendId, threads: usize) -> Duration {
    let scenario =
        BankScenario { template: BankConfig { cross_fraction: 0.0, ..Default::default() } };
    let config = ScenarioConfig {
        threads,
        txns_per_thread: TOTAL_TXNS / threads,
        vars: ACCOUNTS,
        ..ScenarioConfig::new(backend)
    };
    let timed = || {
        let start = Instant::now();
        std::hint::black_box(run_scenario(&scenario, &config));
        start.elapsed()
    };
    timed();
    (0..SAMPLES).map(|_| timed()).min().expect("at least one sample")
}

#[test]
#[ignore = "timing gate: CI's scaling-smoke job runs it in release"]
fn disjoint_transfers_do_not_serialize_the_commit_path() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let counts: Vec<usize> = [1, 2, 4].into_iter().filter(|&n| n <= cores).collect();
    let top = *counts.last().expect("one thread always fits");
    if top == 1 {
        println!("single-core host: only the 1-thread point fits, nothing to gate");
        return;
    }
    let mut over = Vec::new();
    for backend in registry::all_ids() {
        let mins: Vec<Duration> = counts.iter().map(|&n| min_wall(backend, n)).collect();
        let one = mins[0].as_nanos() as f64;
        let points: Vec<String> = counts
            .iter()
            .zip(&mins)
            .map(|(n, min)| {
                let ns = min.as_nanos();
                format!("{n}: {ns} ns ({:.2}×)", ns as f64 / one)
            })
            .collect();
        println!("{:<18} {}", backend.name(), points.join("   "));
        let ratio = mins[counts.len() - 1].as_nanos() as f64 / one;
        if GATED.contains(&backend) && ratio > MAX_RATIO {
            over.push(format!("{backend} {top}-thread min is {ratio:.2}× the 1-thread min"));
        }
    }
    assert!(over.is_empty(), "above the {MAX_RATIO}× bound: {}", over.join("; "));
}
