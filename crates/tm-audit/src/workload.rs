//! The recordable register workload: the transaction mix audited runs use.
//!
//! Write-read edges are recovered from **unique write values** (see
//! [`crate::history`]), so the audited workload writes values that encode
//! `(session, per-session counter)` — the recorded analogue of dbcop's
//! globally-unique writes.  The mix is read-modify-write heavy on a shared
//! variable pool:
//!
//! * **RMW** — read a variable, write it a fresh unique value (the shape that
//!   turns missing synchronization into lost updates);
//! * **pair write** — read one variable, write two in the same transaction
//!   (the shape fractured-read / atomic-visibility violations need);
//! * **read-only** — read two variables (observers that pin down ordering).
//!
//! The bank workload in `workloads` keeps its role as the throughput
//! benchmark; this one exists to make every consistency violation class
//! *observable* from the recorded history.

use crate::history::AuditHistory;
use crate::recorder::HistoryRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use stm_runtime::{recorder, BackendId, Stm, TVar};

/// Configuration of one recorded run.
#[derive(Debug, Clone, Copy)]
pub struct AuditRunConfig {
    /// Backend to run against (any backend registered with
    /// [`stm_runtime::registry`]; built-in [`stm_runtime::BackendKind`]
    /// values convert via `.id()`).
    pub backend: BackendId,
    /// Worker threads; each is one session of the recorded history.
    pub sessions: usize,
    /// Committed transactions per session.
    pub txns_per_session: usize,
    /// Size of the shared variable pool.
    pub vars: usize,
    /// Workload seed (per-session streams derive from it).
    pub seed: u64,
}

impl Default for AuditRunConfig {
    fn default() -> Self {
        AuditRunConfig {
            backend: stm_runtime::registry::TL2_BLOCKING,
            sessions: 4,
            txns_per_session: 500,
            vars: 32,
            seed: 42,
        }
    }
}

/// Encode a globally-unique write value: session in the high bits, the
/// per-session counter below.  Stays far from `i64` overflow for any
/// realistic run length.
fn unique_value(session: usize, counter: u64) -> i64 {
    ((session as i64 + 1) << 40) + counter as i64
}

/// One session's worker body: the transaction mix above against the shared
/// variable pool.
fn run_session(stm: &Stm, vars: &[TVar<i64>], config: AuditRunConfig, session: usize) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ ((session as u64) << 32));
    let mut counter = 0u64;
    for _ in 0..config.txns_per_session {
        let a = vars[rng.gen_range(0..vars.len())];
        let b = vars[rng.gen_range(0..vars.len())];
        let shape = rng.gen_range(0..10u32);
        counter += 1;
        let value = unique_value(session, counter);
        counter += 1;
        let second = unique_value(session, counter);
        stm.run(|tx| match shape {
            // Read-only observer.
            0..=1 => {
                let _ = tx.read(a)?;
                let _ = tx.read(b)?;
                Ok(())
            }
            // Atomic pair write (after reading one of the pair).
            2..=3 => {
                let _ = tx.read(a)?;
                tx.write(a, value)?;
                tx.write(b, second)?;
                Ok(())
            }
            // Read-modify-write.
            _ => {
                let _ = tx.read(a)?;
                tx.write(a, value)?;
                Ok(())
            }
        });
    }
}

/// Run the register workload with recording on (every worker registers its
/// session) and return the history.
pub fn record_run(config: AuditRunConfig) -> AuditHistory {
    let recorder_arc = Arc::new(HistoryRecorder::new(config.sessions, 0));
    let stm = Stm::with_recorder(config.backend, Arc::clone(&recorder_arc) as _);
    let vars: Vec<TVar<i64>> = (0..config.vars).map(|_| stm.alloc(0i64)).collect();
    std::thread::scope(|scope| {
        let stm = &stm;
        let vars = &vars;
        for session in 0..config.sessions {
            scope.spawn(move || {
                recorder::set_session(session);
                run_session(stm, vars, config, session);
                recorder::clear_session();
            });
        }
    });
    drop(stm);
    Arc::try_unwrap(recorder_arc)
        .unwrap_or_else(|_| panic!("recorder still shared after the run"))
        .into_history(config.vars)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_runs_have_the_configured_shape() {
        let config = AuditRunConfig {
            backend: stm_runtime::registry::OBSTRUCTION_FREE,
            sessions: 3,
            txns_per_session: 50,
            vars: 8,
            seed: 7,
        };
        let history = record_run(config);
        assert_eq!(history.sessions.len(), 3);
        assert_eq!(history.txn_count(), 150);
        assert_eq!(history.n_vars, 8);
        // Every write value is globally unique (the recording contract).
        let mut seen = std::collections::HashSet::new();
        for txn in history.sessions.iter().flatten() {
            for &(var, value) in &txn.writes {
                assert!(var < 8);
                assert!(seen.insert(value), "duplicate write value {value}");
            }
        }
    }

    #[test]
    fn unique_values_separate_sessions_and_counters() {
        assert_ne!(unique_value(0, 1), unique_value(1, 1));
        assert_ne!(unique_value(0, 1), unique_value(0, 2));
        assert!(unique_value(7, u32::MAX as u64) > 0);
    }
}
