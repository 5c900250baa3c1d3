//! Watch the streaming auditor convict a weak backend *mid-run*.
//!
//! Run with `cargo run --release --example audit_stream`.  Two demonstrations:
//!
//! 1. **PramLocal convicted mid-run** — the "give up Consistency" corner of
//!    the P/C/L triangle runs 4 threads × 25,000 transactions (10⁵ commits)
//!    while a concurrent [`tm_audit::WindowedAuditor`] audits rolling
//!    2,048-transaction windows.  The first definite violation (a lost
//!    update) lands after a few hundred transactions — long before the run
//!    ends — and the merged report pins the window and the transaction pair.
//! 2. **Tl2Blocking attested** — the same pipeline on a consistent backend
//!    passes every level in every window.  Each window's recording order
//!    verifies, so no saturation state is ever built (peak closure memory
//!    0); a window that has to search keeps `V · k` clock words for its `k`
//!    session chains.
//!
//! This is the scaling story the ROADMAP asks for: windowed streaming holds
//! memory at the window and keeps verdict latency per window in
//! milliseconds, however long the run.

use stm_runtime::registry::{PRAM_LOCAL, TL2_BLOCKING};
use stm_runtime::BackendId;
use tm_audit::{Level, StreamReport, WindowConfig};
use workloads::{run_live, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig, Verdict};

/// 4 threads × 25,000 `registers` transactions on `backend`, audited in
/// rolling windows while they run; prints the workload line and returns the
/// stream report.
fn stream(backend: BackendId, window: WindowConfig) -> StreamReport {
    let scenario = scenario_by_name("registers").expect("built-in scenario");
    let config = ScenarioConfig {
        threads: 4,
        txns_per_thread: 25_000,
        vars: 64,
        seed: 2_024,
        ..ScenarioConfig::new(backend)
    };
    let report = run_live(scenario.as_ref(), &config, LivePlan::new(AuditPlan::Windowed(window)))
        .expect("registers is recordable");
    let Some(Verdict::Windowed(stream)) = report.verdict else {
        unreachable!("a windowed plan yields a windowed verdict");
    };
    println!("backend: {backend} ({} txns)", stream.total_txns);
    println!(
        "  workload: {:.3?} ({:.0} commits/s); merged verdict {:.3?} after run end",
        report.run.elapsed, report.run.throughput, report.tail
    );
    stream
}

fn main() {
    let window = WindowConfig::sized(2_048);
    println!(
        "=== streaming audit: rolling {}-txn windows (overlap {}) ===\n",
        window.size, window.overlap
    );

    // 1. The wait-free no-synchronization backend, convicted mid-run.
    let report = stream(PRAM_LOCAL, window);
    let conviction = report.first_conviction.as_ref().expect("PramLocal must be convicted");
    println!(
        "  convicted mid-run: {} refuted in window {} after {} of {} txns",
        conviction.level.name(),
        conviction.window,
        conviction.txns_seen,
        report.total_txns
    );
    println!("    evidence: {}", conviction.violation);
    println!("  verdict: {}\n", report.summary());
    // On a many-core box this lands in the first few windows; even when CI
    // serializes the worker threads it must land strictly mid-stream.
    assert!(
        conviction.txns_seen < report.total_txns,
        "conviction after {} txns must land mid-stream",
        conviction.txns_seen
    );
    assert!(report.fails(Level::SnapshotIsolation));
    assert!(report.fails(Level::Serializable));
    assert!(report.passes(Level::Causal), "never synchronizing is vacuously causal");

    // 2. The consistent blocking backend, attested window by window.
    let report = stream(TL2_BLOCKING, window);
    println!(
        "  {} windows, verdict latency mean {:.3?} / max {:.3?}",
        report.windows.len(),
        report.verdict_latency_mean(),
        report.verdict_latency_max()
    );
    println!("  peak closure memory: {} KiB", report.peak_closure_bytes / 1024);
    println!("  verdict: {}\n", report.summary());
    for level in Level::ALL {
        assert!(!report.fails(level), "{TL2_BLOCKING}: {level} must not fail");
    }
    assert!(report.first_conviction.is_none());

    println!("The PCL trade-off, observed live: the backend that gave up consistency");
    println!("is convicted while its run is still going — with a named witness pair —");
    println!("and the consistent backend is attested window by window in bounded memory.");
}
