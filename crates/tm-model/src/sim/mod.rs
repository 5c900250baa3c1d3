//! The deterministic simulator.
//!
//! The simulator runs a [`crate::txspec::Scenario`] against a
//! [`crate::algorithm::TmAlgorithm`] under the control of an explicit [`Schedule`].
//! Each process of the scenario runs on its own OS thread, but **only one logical
//! thread is ever active**: a process blocks before beginning each transaction and
//! before every base-object access, and proceeds only when the scheduler grants it a
//! step.  This gives
//!
//! * **full determinism** — the same (algorithm, scenario, schedule) triple always
//!   produces the same execution, which is what makes "run T solo from configuration
//!   C" reproducible by replaying prefixes, exactly as the PCL proof does;
//! * **step-accurate control** — the critical-step search of the proof ("the first
//!   step `s1` of T1 after which T3's solo read of `b1` flips from 0 to 1") is a
//!   simple loop over prefix lengths.
//!
//! The module is split into:
//!
//! * `schedule` — the schedule language (directives) and convenience constructors,
//! * `outcome` — what a run returns (execution, per-transaction outcomes, reports),
//! * `engine` — the thread/handshake machinery.

mod engine;
mod outcome;
mod schedule;

pub use engine::Simulator;
pub use outcome::{DirectiveReport, SimOutcome, TxOutcome};
pub use schedule::{Directive, Schedule};

/// Default bound on the number of steps a single directive may consume before the
/// simulator declares it stuck (used to detect blocking algorithms: a transaction that
/// spins on a lock forever will hit this bound instead of hanging the harness).
pub const DEFAULT_STEP_LIMIT: usize = 20_000;
