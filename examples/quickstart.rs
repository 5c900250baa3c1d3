//! Quickstart: use the typed multi-threaded STM runtime for concurrent bank
//! transfers on **every registered backend**, and watch where each backend
//! sits in the P/C/L triangle.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;
use std::time::Duration;
use stm_runtime::{registry, Stm, TVar};
use workloads::{run_scenario, stalled_writer_experiment, BankScenario, ScenarioConfig};

fn main() {
    // Backends are registry entries, not an enum: this also picks up the
    // coarse-global-lock backend the `workloads` crate registers.
    workloads::register_workload_backends();

    println!("== PCL quickstart: one bank, every registered backend ==\n");
    for spec in registry::all() {
        let backend: stm_runtime::BackendId = spec.name.parse().expect("registered name parses");
        // 4 threads over 64 accounts, one transfer in five crossing partitions.
        let config = ScenarioConfig { txns_per_thread: 2_000, ..ScenarioConfig::new(backend) };
        let report = run_scenario(&BankScenario::default(), &config);
        println!(
            "{:<18} {:>10.0} tx/s   aborts: {:<6} attempts p50/p99: {}/{}  balance preserved: {}",
            spec.name,
            report.throughput,
            report.aborts,
            report.attempts_p50,
            report.attempts_p99,
            report.check.invariant == Some(true)
        );
        println!("{:<18} gives up {}\n", "", spec.triangle.sacrificed);
    }

    println!("== the liveness axis: a writer stalls for 100 ms mid-transaction ==\n");
    for spec in registry::all() {
        let backend: stm_runtime::BackendId = spec.name.parse().unwrap();
        let commits = stalled_writer_experiment(backend, 2, Duration::from_millis(100));
        println!(
            "{:<18} victims committed {:>7} transactions while the writer was stalled",
            spec.name, commits
        );
    }

    println!("\n== typed transactions by hand ==\n");
    let stm = Arc::new(Stm::new(registry::OBSTRUCTION_FREE));
    let x: TVar<i64> = stm.alloc(10);
    let y: TVar<i64> = stm.alloc(0);
    let moved = stm.run(|tx| {
        let v = tx.read(x)?;
        tx.write(x, 0)?;
        tx.write(y, v)?;
        Ok(v)
    });
    println!("moved {moved} from x to y; x = {}, y = {}", stm.read_now(x), stm.read_now(y));

    // TVar is typed: a (count, enabled) pair updated atomically as one value.
    let pair: TVar<(i64, bool)> = stm.alloc((0, false));
    stm.run(|tx| {
        let (count, _) = tx.read(pair)?;
        tx.write(pair, (count + 1, true))
    });
    println!("pair is now {:?}", stm.read_now(pair));
    println!("stats: {:?} commits, {:?} aborts", stm.stats().commits(), stm.stats().aborts());
}
