//! The commit hot path's disjoint-scaling gate.
//!
//! Weak scaling: each of N threads runs a fixed [`TXNS_PER_THREAD`] bank
//! transfers inside its own partition of 64 accounts (no transfer crosses
//! partitions), for each N in {1, 2, 4} that fits the host's cores.
//! Disjoint transfers conflict with nothing, so a backend that lets them
//! commit in parallel finishes N threads' work in about the time one thread
//! takes: the N-thread workers' loop time
//! ([`workloads::ScenarioRunReport::elapsed`], which leaves out building the
//! accounts and the self-check) over the 1-thread one reads about 1×.  A
//! backend that serializes disjoint commits reads well above it.
//!
//! Each round runs every backend's points back to back, and the figure is
//! the median over [`ROUNDS`] of the round's N-thread over 1-thread ratio.
//! Beside it the test prints each point's median loop time per transfer
//! (the loop time over [`TXNS_PER_THREAD`], in ns), so a ratio can be told
//! apart from a fast or slow 1-thread run.
//! A stretch of time in which the host lends the process less than its
//! cores lifts the ratios of the rounds it covers, not the median; a
//! minimum over rounds would instead let a serialized commit through on a
//! few lucky rounds.
//!
//! The bound is set from 10 runs of this test on a 2-core host at N = 2:
//! `tl2-blocking` read 1.02–1.08× and `pram-local` 0.99–1.03×, while
//! `global-lock` read 2.65–4.22×.  With every `Backend::commit` wrapped in
//! one process-wide `Mutex`, `tl2-blocking` read 1.28–1.84× and
//! `pram-local` 1.44–1.80×, and every run failed.  `global-lock` serializes by design, so it is
//! the positive control: it must read above the bound, or the gate could
//! not see a serialized commit at all.
//!
//! Timing needs an optimised build, so the test is ignored by default; run
//! it with
//!
//! ```text
//! cargo test --release -p workloads --test disjoint_scaling -- --ignored --nocapture
//! ```

use std::time::Duration;
use stm_runtime::registry::{self, GLOBAL_LOCK, PRAM_LOCAL, TL2_BLOCKING};
use stm_runtime::BackendId;
use workloads::{run_scenario, BankConfig, BankScenario, ScenarioConfig};

/// Transfers each thread runs, whatever the thread count.
const TXNS_PER_THREAD: usize = 20_000;
const ACCOUNTS: usize = 64;
/// Timed rounds, after one warm-up round.
const ROUNDS: usize = 40;
/// Largest allowed median N-thread over 1-thread ratio.
const MAX_RATIO: f64 = 1.3;
/// The backends the bound applies to; the others are printed only.
const GATED: [BackendId; 2] = [TL2_BLOCKING, PRAM_LOCAL];
/// The backend that must read above the bound.
const CONTROL: BackendId = GLOBAL_LOCK;

/// The workers' loop time of one disjoint bank run of `TXNS_PER_THREAD`
/// transfers on each of `threads` threads.
fn loop_time(backend: BackendId, threads: usize) -> Duration {
    let scenario =
        BankScenario { template: BankConfig { cross_fraction: 0.0, ..Default::default() } };
    let config = ScenarioConfig {
        threads,
        txns_per_thread: TXNS_PER_THREAD,
        vars: ACCOUNTS,
        ..ScenarioConfig::new(backend)
    };
    let report = run_scenario(&scenario, &config);
    assert_eq!(report.check.invariant, Some(true), "{backend}: {}", report.check.detail);
    report.elapsed
}

/// The lower quartile, median and upper quartile of `samples`.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| samples[q * (samples.len() - 1) / 4])
}

#[test]
#[ignore = "timing gate: CI's scaling-smoke job runs it in release"]
fn disjoint_transfers_do_not_serialize_the_commit_path() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let counts: Vec<usize> = [2, 4].into_iter().filter(|&n| n <= cores).collect();
    let Some(&top) = counts.last() else {
        println!("single-core host: only the 1-thread point fits, nothing to gate");
        return;
    };
    let backends = registry::all_ids();
    // ratios[backend][count]: one N-thread over 1-thread ratio per round;
    // nanos[backend][point]: one loop time per transfer (ns) per round, the
    // 1-thread point first.
    let mut ratios = vec![vec![Vec::with_capacity(ROUNDS); counts.len()]; backends.len()];
    let mut nanos = vec![vec![Vec::with_capacity(ROUNDS); counts.len() + 1]; backends.len()];
    let per_transfer = |secs: f64| secs * 1e9 / TXNS_PER_THREAD as f64;
    for round in 0..=ROUNDS {
        for ((&backend, ratios), nanos) in backends.iter().zip(&mut ratios).zip(&mut nanos) {
            let one = loop_time(backend, 1).as_secs_f64();
            let times: Vec<f64> =
                counts.iter().map(|&n| loop_time(backend, n).as_secs_f64()).collect();
            if round > 0 {
                nanos[0].push(per_transfer(one));
                for ((&time, ratios), nanos) in times.iter().zip(ratios).zip(&mut nanos[1..]) {
                    ratios.push(time / one);
                    nanos.push(per_transfer(time));
                }
            }
        }
    }
    let mut faults = Vec::new();
    for ((&backend, ratios), nanos) in backends.iter().zip(ratios).zip(nanos) {
        let spreads: Vec<[f64; 3]> = ratios.into_iter().map(quartiles).collect();
        let nanos: Vec<f64> = nanos.into_iter().map(|point| quartiles(point)[1]).collect();
        let cells: Vec<String> = counts
            .iter()
            .zip(&spreads)
            .zip(&nanos[1..])
            .map(|((n, [q1, median, q3]), ns)| {
                format!("{n}: {median:.2}× {ns:.0} ns (middle half {q1:.2}–{q3:.2}×)")
            })
            .collect();
        println!("{:<18} 1: {:.0} ns   {}", backend.name(), nanos[0], cells.join("   "));
        let [_, ratio, _] = *spreads.last().expect("one count fits");
        if GATED.contains(&backend) && ratio > MAX_RATIO {
            faults.push(format!("{backend} {top}-thread median ratio is {ratio:.2}×"));
        }
        if backend == CONTROL && ratio <= MAX_RATIO {
            faults.push(format!("{backend} serializes by design but reads {ratio:.2}×"));
        }
    }
    assert!(faults.is_empty(), "against the {MAX_RATIO}× bound: {}", faults.join("; "));
}
