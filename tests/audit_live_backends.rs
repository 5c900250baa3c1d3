//! The P/C/L triangle observed on real threads: seeded multi-threaded runs on
//! every `stm-runtime` backend, recorded live and audited.
//!
//! The paper's placement of each backend, as measurable history properties:
//!
//! * the consistent backends (`tl2-blocking`, `obstruction-free`,
//!   `shard-lock`, `global-lock`) must produce serializable histories under
//!   arbitrary contention, and `mvcc` snapshot-isolated ones;
//! * the no-synchronization `pram-local` backend must be *convicted*: its
//!   histories stay (vacuously) causal but lose updates, so snapshot
//!   isolation and serializability must fail with a concrete witness.

mod common;

use pcl_tm::audit::{audit, Level, Outcome};
use pcl_tm::stm::registry::{
    GLOBAL_LOCK, MVCC, OBSTRUCTION_FREE, PRAM_LOCAL, SHARD_LOCK, TL2_BLOCKING,
};
use pcl_tm::stm::BackendId;

fn run(backend: BackendId, seed: u64) -> pcl_tm::audit::AuditReport {
    audit(&common::live_history(backend, 4, 500, 24, seed))
}

#[test]
fn tl2_blocking_histories_are_serializable_under_contention() {
    for seed in [1, 2, 3] {
        let report = run(TL2_BLOCKING, seed);
        for level in Level::ALL {
            assert!(report.passes(level), "seed {seed}, {level}:\n{report}");
        }
    }
}

#[test]
fn obstruction_free_histories_are_serializable_under_contention() {
    for seed in [1, 2, 3] {
        let report = run(OBSTRUCTION_FREE, seed);
        for level in Level::ALL {
            assert!(report.passes(level), "seed {seed}, {level}:\n{report}");
        }
    }
}

#[test]
fn shard_lock_histories_are_serializable_under_contention() {
    for seed in [1, 2, 3] {
        let report = run(SHARD_LOCK, seed);
        for level in Level::ALL {
            assert!(report.passes(level), "seed {seed}, {level}:\n{report}");
        }
    }
}

#[test]
fn global_lock_histories_are_serializable_under_contention() {
    for seed in [1, 2, 3] {
        let report = run(GLOBAL_LOCK, seed);
        for level in Level::ALL {
            assert!(report.passes(level), "seed {seed}, {level}:\n{report}");
        }
    }
}

#[test]
fn mvcc_histories_are_snapshot_isolated_under_contention() {
    for seed in [1, 2, 3] {
        let report = run(MVCC, seed);
        for level in Level::ALL.into_iter().filter(|&level| level <= Level::SnapshotIsolation) {
            assert!(report.passes(level), "seed {seed}, {level}:\n{report}");
        }
    }
}

/// Eight threads on a two-core host keep workers parked mid-commit while
/// others run: each backend still holds its floor.
#[test]
fn eight_thread_histories_hold_each_backends_floor() {
    for (backend, floor) in [
        (TL2_BLOCKING, Level::Serializable),
        (OBSTRUCTION_FREE, Level::Serializable),
        (SHARD_LOCK, Level::Serializable),
        (GLOBAL_LOCK, Level::Serializable),
        (MVCC, Level::SnapshotIsolation),
    ] {
        let report = audit(&common::live_history(backend, 8, 250, 24, 8));
        for level in Level::ALL.into_iter().filter(|&level| level <= floor) {
            assert!(report.passes(level), "{backend}, {level}:\n{report}");
        }
    }
}

#[test]
fn pram_local_histories_are_flagged_non_serializable() {
    for seed in [1, 2, 3] {
        let report = run(PRAM_LOCAL, seed);
        // Never synchronizing is still (vacuously) causal…
        assert!(report.passes(Level::ReadCommitted), "seed {seed}:\n{report}");
        assert!(report.passes(Level::ReadAtomic), "seed {seed}:\n{report}");
        assert!(report.passes(Level::Causal), "seed {seed}:\n{report}");
        // …but the lost updates are caught, with a named transaction pair.
        assert!(report.fails(Level::SnapshotIsolation), "seed {seed}:\n{report}");
        assert!(report.fails(Level::Serializable), "seed {seed}:\n{report}");
        let Some(Outcome::Fail { violation }) = report.outcome(Level::Serializable) else {
            panic!("expected a serializability violation");
        };
        assert!(violation.contains("lost update"), "seed {seed}: {violation}");
    }
}

/// The audited runner reports both performance and verdicts (the `--audit`
/// mode of the workload runner).
#[test]
fn audited_runner_combines_throughput_and_verdicts() {
    use workloads::{run_live, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig};
    let scenario = scenario_by_name("registers").unwrap();
    let config = ScenarioConfig {
        threads: 2,
        txns_per_thread: 250,
        vars: 16,
        seed: 99,
        ..ScenarioConfig::new(TL2_BLOCKING)
    };
    let plan = LivePlan::new(AuditPlan::Batch(Default::default()));
    let report = run_live(scenario.as_ref(), &config, plan).unwrap();
    assert!(report.run.throughput > 0.0);
    let audit = report.verdict.as_ref().expect("batch plan").merged();
    assert!(audit.passes(Level::Serializable), "{audit}");
    assert_eq!(audit.summary(), "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✓ | SER ✓");
}
