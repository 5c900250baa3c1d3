//! Satellite: ingestion equivalence.  A live audited run and a replay of its
//! exported-then-decoded history must agree **byte for byte** — same merged
//! verdict JSON — across seeds, backends and all three audit topologies.
//!
//! The capture tees off *after* the stream merger, so the exported document
//! records exactly the transaction stream the live auditor consumed (same
//! order, same hints); replaying it under the same plan must therefore
//! reproduce the live verdicts, not merely agree on pass/fail.

use std::sync::Arc;
use stm_runtime::{policy, BackendId};
use tm_audit::{AuditHistory, AuditOptions, ShardConfig, WindowConfig};
use tm_history::{decode, encode};
use workloads::{run_live, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig, Verdict};

const BUDGET: u64 = 2_000_000;
const BACKENDS: [BackendId; 4] = [
    stm_runtime::registry::TL2_BLOCKING,
    stm_runtime::registry::OBSTRUCTION_FREE,
    stm_runtime::registry::PRAM_LOCAL,
    stm_runtime::registry::MVCC,
];

fn run_config(backend: BackendId, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        backend,
        threads: 2,
        txns_per_thread: 60,
        vars: 12,
        seed,
        policy: Arc::new(policy::ImmediateRetry),
    }
}

/// Batch, rolling windows, 2-way sharded.
fn plans() -> [AuditPlan; 3] {
    let mut window = WindowConfig::sized(64);
    window.budget = BUDGET;
    [
        AuditPlan::Batch(AuditOptions { budget: BUDGET, sat: None }),
        AuditPlan::Windowed(window),
        AuditPlan::Sharded(ShardConfig::new(2, window)),
    ]
}

/// Run `scenario` live under `plan` with capture on; returns the live
/// verdict and the captured history after a wire round trip.
fn live_and_decoded(
    scenario: &str,
    config: &ScenarioConfig,
    plan: AuditPlan,
) -> (Verdict, AuditHistory) {
    let scenario = scenario_by_name(scenario).expect("built-in scenario");
    let report =
        run_live(scenario.as_ref(), config, LivePlan { capture: true, ..LivePlan::new(plan) })
            .expect("audited run");
    let history = report.history.expect("capture was requested");
    let decoded = decode(&encode(&history)).expect("export decodes");
    assert_eq!(decoded, history, "{plan:?} on {}: wire round trip", config.backend);
    (report.verdict.expect("audited plan"), decoded)
}

/// 50 seeds, backends rotated so every backend sees many seeds, and all
/// three topologies checked per seed.
#[test]
fn exported_histories_replay_to_identical_verdicts() {
    for seed in 0..50u64 {
        let backend = BACKENDS[(seed % BACKENDS.len() as u64) as usize];
        let config = run_config(backend, 0x5EED ^ seed);
        for plan in plans() {
            let (live, decoded) = live_and_decoded("registers", &config, plan);
            let replay = Verdict::audit(&decoded, &plan).expect("audited plan");
            assert_eq!(
                replay.merged().to_json(),
                live.merged().to_json(),
                "seed {seed} on {backend}: {plan:?} replay verdict diverged"
            );
        }
    }
}

/// The capture must see exactly what the auditor saw even for scenarios
/// whose live verdict is a conviction: the SI/SER-separating write-skew
/// scenario on mvcc replays to the same violation witness text.
#[test]
fn convicting_runs_replay_their_violations_verbatim() {
    let config = run_config(stm_runtime::registry::MVCC, 2024);
    let [batch, ..] = plans();
    let (live, decoded) = live_and_decoded("write-skew", &config, batch);
    let replay = Verdict::audit(&decoded, &batch).expect("audited plan");
    assert_eq!(replay.merged().to_json(), live.merged().to_json(), "conviction replay diverged");
}
