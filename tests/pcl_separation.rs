//! The live SI/SER verdict separation — the consistency axis, measured.
//!
//! The `mvcc` backend gives up serializability and nothing an SI audit can
//! see: transactions read begin-timestamp snapshots and commit under
//! first-committer-wins, so **write skew** is admitted while every SI
//! anomaly (lost update, long fork) stays impossible.  These tests pin the
//! separation down deterministically: two transactions are forced (by a
//! barrier inside the transaction bodies) to take their snapshots before
//! either commits, read a shared pair, and write disjoint halves.  On
//! `mvcc` both commit and the audited history passes snapshot isolation
//! while failing serializability — the first live SI ≠ SER verdict in the
//! repo.  On the serializable backends the same choreography serializes
//! (one side revalidates and retries), and every level passes.

use pcl_tm::audit::{audit, HistoryCollector, Level, Outcome, StreamMerger};
use pcl_tm::stm::{recorder, registry, BackendId, Stm, StreamingRecorder, TVar, VarId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Run the two-transaction write-skew choreography on `backend` and audit
/// the recorded two-word history.
fn choreographed_skew(backend: BackendId) -> pcl_tm::audit::AuditReport {
    let rec = Arc::new(StreamingRecorder::new(2, 256));
    let consumer = rec.consumer();
    let stm = Stm::with_recorder(backend, Arc::clone(&rec) as _);
    let pair: TVar<(i64, i64)> = stm.alloc((0, 0));
    let halves = [
        TVar::<i64>::from_base(pair.base()),
        TVar::<i64>::from_base(VarId(pair.base().index() + 1)),
    ];
    let barrier = Arc::new(Barrier::new(2));
    std::thread::scope(|s| {
        for (t, half) in halves.into_iter().enumerate() {
            let stm = &stm;
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                recorder::set_session(t);
                // The rendezvous fires on the first attempt only, so a
                // backend that aborts one side (the serializable ones do)
                // retries without deadlocking on the barrier.
                let waited = AtomicBool::new(false);
                stm.run(|tx| {
                    let (_a, _b) = tx.read(pair)?;
                    if !waited.swap(true, Ordering::Relaxed) {
                        barrier.wait();
                    }
                    tx.write(half, ((t as i64 + 1) << 40) + 1)
                });
                recorder::clear_session();
            });
        }
    });
    // Two commits: nothing to backpressure, so drain after the threads join.
    rec.finish();
    let mut collector = HistoryCollector::new(2, 0, 2);
    StreamMerger::drain(&consumer, 2, &mut collector);
    audit(&collector.into_history())
}

#[test]
fn mvcc_write_skew_passes_si_and_fails_ser_deterministically() {
    let report = choreographed_skew(registry::MVCC);
    assert!(report.passes(Level::ReadCommitted), "{report}");
    assert!(report.passes(Level::ReadAtomic), "{report}");
    assert!(report.passes(Level::Causal), "{report}");
    assert!(report.passes(Level::SnapshotIsolation), "mvcc must be SI-clean:\n{report}");
    assert!(report.fails(Level::Serializable), "write skew must convict SER:\n{report}");
    let Some(Outcome::Fail { violation }) = report.outcome(Level::Serializable) else {
        panic!("expected a serializability violation");
    };
    assert!(violation.contains("write skew"), "named witness expected: {violation}");
    assert_eq!(report.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✗");
}

#[test]
fn serializable_backends_defuse_the_same_choreography() {
    for backend in [registry::TL2_BLOCKING, registry::SHARD_LOCK] {
        let report = choreographed_skew(backend);
        for level in Level::ALL {
            assert!(report.passes(level), "{backend}: {level}:\n{report}");
        }
    }
}

/// The scenario-level face of the same separation: the `write-skew`
/// scenario audited on `mvcc` is never convicted of SI (or anything below),
/// while on `tl2-blocking` every level passes outright.  (Whether SER is
/// *convicted* on `mvcc` depends on real thread overlap, so the
/// deterministic conviction lives in the choreographed test above and the
/// CI gate runs the statistical one at full size.)
#[test]
fn write_skew_scenario_is_si_clean_on_mvcc_and_fully_clean_on_tl2() {
    use pcl_tm::audit::AuditOptions;
    use workloads::{run_live, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig};
    let batch = |budget| LivePlan::new(AuditPlan::Batch(AuditOptions { budget, sat: None }));
    let scenario = scenario_by_name("write-skew").unwrap();
    let config = ScenarioConfig {
        threads: 4,
        txns_per_thread: 200,
        vars: 8,
        ..ScenarioConfig::new(registry::MVCC)
    };
    let report = run_live(scenario.as_ref(), &config, batch(2_000_000)).unwrap();
    assert_eq!(report.run.check.invariant, Some(true), "{}", report.run.check.detail);
    let audit = report.verdict.as_ref().expect("batch plan").merged();
    for level in [Level::ReadCommitted, Level::ReadAtomic, Level::Causal, Level::SnapshotIsolation]
    {
        assert!(!audit.fails(level), "mvcc convicted of {level}:\n{audit}");
    }

    let config = ScenarioConfig { backend: registry::TL2_BLOCKING, ..config };
    let report = run_live(scenario.as_ref(), &config, batch(20_000_000)).unwrap();
    let audit = report.verdict.as_ref().expect("batch plan").merged();
    for level in Level::ALL {
        assert!(audit.passes(level), "tl2: {level}:\n{audit}");
    }
}
