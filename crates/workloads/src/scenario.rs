//! The scenario API: workloads as pluggable data, mirroring the backend
//! registry.
//!
//! A [`Scenario`] describes one workload shape — what state it allocates in
//! the STM and what one transaction does — independently of which backend
//! runs it or whether the run is audited.  The runner
//! ([`crate::runner::run_scenario`], [`crate::runner::run_live`]) supplies
//! those axes, so every `scenario × backend × audit-plan` combination comes
//! for free; the `audit` CLI exposes the whole product.
//!
//! Scenarios declare whether they keep the **recording contract**
//! ([`Scenario::recordable`]): every committed write value is globally
//! unique (the audit's write-read inference recovers edges from values) and
//! every transactional variable starts at **0** (the auditors attribute
//! reads of 0 with no matching writer to the initial state; a non-zero
//! initial would be convicted as an out-of-thin-air read).  The bank
//! workload (values are balances, accounts start non-zero) is not recordable
//! and runs as a throughput/invariant scenario; the register, KV and scan
//! scenarios are recordable end to end.

use rand::rngs::StdRng;
use std::fmt;
use std::sync::Arc;
use stm_runtime::{BackendId, Stm};

/// Configuration shared by every scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which backend to run against.
    pub backend: BackendId,
    /// Worker threads (each is one audit session in recorded modes).
    pub threads: usize,
    /// Transactions committed by each thread.
    pub txns_per_thread: usize,
    /// Size of the scenario's variable pool (accounts, keys, slots…).
    pub vars: usize,
    /// Workload seed; per-thread streams derive from it.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A default-shaped config for the given backend: 4 threads × 1,000
    /// transactions over 64 variables.
    pub fn new(backend: impl Into<BackendId>) -> Self {
        ScenarioConfig {
            backend: backend.into(),
            threads: 4,
            txns_per_thread: 1_000,
            vars: 64,
            seed: 2_024,
        }
    }
}

/// What a scenario's post-run self-check found.
#[derive(Debug, Clone)]
pub struct ScenarioCheck {
    /// `Some(true)` — invariant held; `Some(false)` — visibly violated;
    /// `None` — the scenario has no self-check (audit modes do the proving).
    pub invariant: Option<bool>,
    /// Human-readable detail for the report.
    pub detail: String,
}

/// One workload shape, runnable on any backend through the runner.
pub trait Scenario: Send + Sync {
    /// Canonical name (what `--scenario` parses).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn summary(&self) -> &'static str;

    /// Whether this scenario keeps the recording contract audited runs
    /// require: every committed write value is globally unique, **and**
    /// every variable the scenario allocates starts at 0 (the auditors
    /// assume a zero initial state; see the module docs).
    fn recordable(&self) -> bool;

    /// Allocate the scenario's state inside `stm`.
    fn build(&self, stm: &Stm, config: &ScenarioConfig) -> Box<dyn ScenarioState>;
}

/// A built scenario: per-run state plus the transaction body.
pub trait ScenarioState: Send + Sync {
    /// Execute the `seq`-th transaction of worker `thread` (retry loop
    /// included — implementations call [`Stm::run`]).
    fn run_txn(&self, stm: &Stm, thread: usize, seq: u64, rng: &mut StdRng);

    /// STM words the scenario allocated (recorded histories need the count).
    fn words(&self) -> usize;

    /// Post-run self-check.
    fn verify(&self, stm: &Stm) -> ScenarioCheck;
}

/// Parsing failed: no registered scenario has this name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario {
    /// What the caller asked for.
    pub requested: String,
    /// Every scenario name that would have been accepted.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scenario {:?} (registered: {})", self.requested, self.known.join(", "))
    }
}

impl std::error::Error for UnknownScenario {}

impl fmt::Debug for dyn Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scenario({})", self.name())
    }
}

/// Every built-in scenario, in the order listings report them.
pub fn all_scenarios() -> Vec<Arc<dyn Scenario>> {
    vec![
        Arc::new(crate::scenarios::RegistersScenario),
        Arc::new(crate::scenarios::KvZipfScenario::default()),
        Arc::new(crate::scenarios::ScanWritersScenario),
        Arc::new(crate::scenarios::WriteSkewScenario),
        Arc::new(crate::scenarios::BankScenario::default()),
    ]
}

/// Look a scenario up by name.
pub fn scenario_by_name(name: &str) -> Result<Arc<dyn Scenario>, UnknownScenario> {
    let scenarios = all_scenarios();
    scenarios.iter().find(|s| s.name() == name).cloned().ok_or_else(|| UnknownScenario {
        requested: name.to_string(),
        known: scenarios.iter().map(|s| s.name()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_register_with_distinct_names_and_lookup_round_trips() {
        let scenarios = all_scenarios();
        assert!(scenarios.len() >= 4);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for scenario in &scenarios {
            assert_eq!(scenario_by_name(scenario.name()).unwrap().name(), scenario.name());
            assert!(!scenario.summary().is_empty());
        }
    }

    #[test]
    fn unknown_scenario_names_error_with_the_known_list() {
        let err = scenario_by_name("does-not-exist").unwrap_err();
        assert_eq!(err.requested, "does-not-exist");
        assert!(err.known.contains(&"bank"));
        assert!(err.known.contains(&"registers"));
        assert!(err.to_string().contains("unknown scenario"));
    }
}
