//! # workloads — scenarios and the runner for the STM runtime
//!
//! The PCL paper has no performance evaluation (it is an impossibility result), but
//! its discussion section is all about the *practical* trade-off the theorem
//! formalizes: what do you buy by giving up strict disjoint-access-parallelism, or
//! consistency, or non-blocking liveness?  This crate supplies the workload side of
//! that question:
//!
//! * [`scenario`] / [`scenarios`] — the **Scenario API**: workloads as pluggable
//!   data ([`Scenario`] + [`ScenarioState`]), resolved by name like the
//!   backends of [`stm_runtime::registry`] (every backend, `global-lock`
//!   included, is a row of that crate's static table).  Built-ins: the
//!   RMW-heavy `registers` mix (the audit workhorse), a read-heavy `kv-zipf`
//!   hotspot store, `scan-writers` (one long read-only scan racing short
//!   writers), `write-skew` (read-a-pair, write-one-half — the shape whose
//!   audited run separates the SI and SER verdicts on the `mvcc` backend)
//!   and the classic `bank`;
//! * [`bank`] / [`zipf`] — the transfer workload and a Zipfian sampler;
//! * [`runner`] — the thread-pool runners: unaudited scenario runs
//!   ([`run_scenario`]) and [`run_live`], which executes one description of
//!   a run — a [`LivePlan`]: an [`AuditPlan`] (`Off`, whole-history `Batch`,
//!   or bounded-memory rolling `Windowed` audits concurrent with the
//!   workload) × capture × WAL round × live window/conviction events —
//!   through one `recorder → merger → sink` pipeline and returns one
//!   [`LiveReport`] with one [`Verdict`].  [`Verdict::audit`] audits a
//!   finished history under the same plans, so an exported run replays to
//!   the verdict it got live.  Reports carry the attempt histogram
//!   percentiles (p50/p99), the retry loop's livelock statistic;
//! * [`recovery`] — the WAL tee a logged round runs through and the recovery
//!   of a round a killed process left behind.
//!
//! The `audit` binary (`cargo run -p workloads --bin audit`) wraps the whole
//! `scenario × backend × audit-mode` product behind a CLI so
//! operators can audit any combination without writing Rust.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod recovery;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod zipf;

pub use bank::{Bank, BankConfig};
pub use recovery::{
    incomplete_rounds, next_round_index, recover_round_auditor, recover_round_report,
    round_dir_name, round_dirs, RecoveredRoundReport, WalMeta, WalRecovery, WalTee, WalTeeStats,
};
pub use runner::{
    run_live, run_scenario, stalled_writer_experiment, AuditPlan, LivePlan, LiveReport,
    ScenarioRunReport, Verdict, WalRound,
};
pub use scenario::{
    all_scenarios, scenario_by_name, Scenario, ScenarioCheck, ScenarioConfig, ScenarioState,
    UnknownScenario,
};
pub use scenarios::{
    BankScenario, KvZipfScenario, RegistersScenario, ScanWritersScenario, WriteSkewScenario,
};
pub use zipf::Zipf;

/// Does nothing.  Every backend, `global-lock` included, is a row of
/// [`stm_runtime::registry`]'s static table and resolves by name from the
/// start; this crate no longer contributes one.  Kept only because the
/// `benchmark/` package still calls it.
pub fn register_workload_backends() {}
