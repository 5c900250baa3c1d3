//! Shared by the root integration tests: a live `registers` history from the
//! one recorded pipeline (`run_live` with capture on and no audit).

use pcl_tm::audit::AuditHistory;
use pcl_tm::stm::BackendId;
use workloads::{run_live, AuditPlan, LivePlan, RegistersScenario, ScenarioConfig};

/// Run `threads × txns_per_thread` seeded `registers` transactions over
/// `vars` variables on `backend` and hand back the recorded history.
pub fn live_history(
    backend: BackendId,
    threads: usize,
    txns_per_thread: usize,
    vars: usize,
    seed: u64,
) -> AuditHistory {
    let config =
        ScenarioConfig { threads, txns_per_thread, vars, seed, ..ScenarioConfig::new(backend) };
    let plan = LivePlan { capture: true, ..LivePlan::new(AuditPlan::Off) };
    run_live(&RegistersScenario, &config, plan)
        .expect("registers is recordable")
        .history
        .expect("capture was requested")
}
