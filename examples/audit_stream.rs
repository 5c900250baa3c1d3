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
use tm_audit::{AuditRunConfig, Level, WindowConfig};
use workloads::run_audited_streaming;

fn main() {
    let window = WindowConfig::sized(2_048);
    println!(
        "=== streaming audit: rolling {}-txn windows (overlap {}) ===\n",
        window.size, window.overlap
    );

    // 1. The wait-free no-synchronization backend, convicted mid-run.
    let config = AuditRunConfig {
        backend: PRAM_LOCAL,
        sessions: 4,
        txns_per_session: 25_000,
        vars: 64,
        seed: 2_024,
    };
    let report = run_audited_streaming(config, window);
    println!("backend: {} ({} txns)", config.backend, report.stream.total_txns);
    println!(
        "  workload: {:.3?} ({:.0} commits/s); merged verdict {:.3?} after run end",
        report.run_elapsed, report.throughput, report.drain_elapsed
    );
    let conviction = report.stream.first_conviction.as_ref().expect("PramLocal must be convicted");
    println!(
        "  convicted mid-run: {} refuted in window {} after {} of {} txns",
        conviction.level.name(),
        conviction.window,
        conviction.txns_seen,
        report.stream.total_txns
    );
    println!("    evidence: {}", conviction.violation);
    println!("  verdict: {}\n", report.stream.summary());
    // On a many-core box this lands in the first few windows; even when CI
    // serializes the worker threads it must land strictly mid-stream.
    assert!(
        conviction.txns_seen < report.stream.total_txns,
        "conviction after {} txns must land mid-stream",
        conviction.txns_seen
    );
    assert!(report.stream.fails(Level::SnapshotIsolation));
    assert!(report.stream.fails(Level::Serializable));
    assert!(report.stream.passes(Level::Causal), "never synchronizing is vacuously causal");

    // 2. The consistent blocking backend, attested window by window.
    let config = AuditRunConfig { backend: TL2_BLOCKING, ..config };
    let report = run_audited_streaming(config, window);
    println!("backend: {} ({} txns)", config.backend, report.stream.total_txns);
    println!(
        "  workload: {:.3?} ({:.0} commits/s); merged verdict {:.3?} after run end",
        report.run_elapsed, report.throughput, report.drain_elapsed
    );
    println!(
        "  {} windows, verdict latency mean {:.3?} / max {:.3?}",
        report.stream.windows.len(),
        report.stream.verdict_latency_mean(),
        report.stream.verdict_latency_max()
    );
    println!("  peak closure memory: {} KiB", report.stream.peak_closure_bytes / 1024);
    println!("  verdict: {}\n", report.stream.summary());
    for level in Level::ALL {
        assert!(!report.stream.fails(level), "{}: {level} must not fail", config.backend);
    }
    assert!(report.stream.first_conviction.is_none());

    println!("The PCL trade-off, observed live: the backend that gave up consistency");
    println!("is convicted while its run is still going — with a named witness pair —");
    println!("and the consistent backend is attested window by window in bounded memory.");
}
