//! Record a live multi-threaded history from each `stm-runtime` backend and
//! prove which consistency levels the run satisfied.
//!
//! Run with `cargo run --release --example audit_live`.  Each backend executes
//! the recordable `registers` scenario (4 worker threads × 2,500 transactions =
//! 10,000 committed transactions per backend), then the dbcop-style auditor
//! decides Read Committed / Read Atomic / Causal / Snapshot Isolation /
//! Serializability, printing a commit-order witness or a concrete violation
//! for every level.
//!
//! Expected shape — the P/C/L triangle, observed on real threads:
//!
//! * `tl2-blocking` and `obstruction-free` (the consistent corners): every
//!   level passes, with the recorded commit order as the witness;
//! * `pram-local` (the "give up Consistency" corner): RC / RA / Causal pass —
//!   never synchronizing is *vacuously* causal — but SI and SER fail with a
//!   two-transaction lost-update witness, exactly the sacrifice Section 5 of
//!   the paper predicts.

use stm_runtime::registry::{OBSTRUCTION_FREE, PRAM_LOCAL, TL2_BLOCKING};
use tm_audit::{AuditOptions, Level};
use workloads::{run_live, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig};

fn main() {
    let backends = [TL2_BLOCKING, OBSTRUCTION_FREE, PRAM_LOCAL];
    let scenario = scenario_by_name("registers").expect("built-in scenario");
    println!("=== live history audit: 4 threads × 2500 txns per backend ===\n");
    for backend in backends {
        // A generous budget: recording-order races can (rarely) defeat the
        // hint fast path, and the DFS then needs headroom on 10k txns.
        let budget = 10 * tm_audit::linearization::DEFAULT_STATE_BUDGET;
        let config = ScenarioConfig {
            threads: 4,
            txns_per_thread: 2_500,
            vars: 64,
            seed: 2024,
            ..ScenarioConfig::new(backend)
        };
        let plan = AuditPlan::Batch(AuditOptions { budget, sat: None });
        let report = run_live(scenario.as_ref(), &config, LivePlan::new(plan))
            .expect("registers is recordable");
        let audit = report.verdict.as_ref().expect("a batch plan yields a verdict").merged();
        println!("backend: {backend}");
        println!(
            "  recorded {} in {:.3?} ({:.0} commits/s), checked in {:.3?}",
            audit.shape, report.run.elapsed, report.run.throughput, report.tail,
        );
        for level in &audit.levels {
            println!("  {level}");
        }
        println!("  verdict: {}\n", audit.summary());

        // Keep the example honest: assert the P/C/L shape it demonstrates.
        match backend {
            id if id == PRAM_LOCAL => {
                assert!(audit.passes(Level::Causal));
                assert!(audit.fails(Level::SnapshotIsolation));
                assert!(audit.fails(Level::Serializable));
            }
            _ => {
                for level in Level::ALL {
                    // A definite violation on a consistent backend is a real
                    // failure; an exhausted search budget is only inconclusive
                    // (never observed at this size, but scheduling-dependent),
                    // so it must not turn the demo red.
                    assert!(!audit.fails(level), "{backend}: {level} must not fail");
                }
            }
        }
    }
    println!("The P/C/L triangle, measured: the wait-free no-sync backend is the");
    println!("only one the auditor convicts — and it convicts it with a witness.");
}
