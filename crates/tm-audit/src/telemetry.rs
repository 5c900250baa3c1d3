//! The auditor's telemetry handles: per-window audit- and verdict-latency
//! histograms, the push-time probe latency, how many windows the recording
//! order certified against how many had to search (and, for those, the chain
//! count and saturation rounds their cost depends on), what the verify-first
//! passes placed and how often they restarted, conviction and
//! budget-consumption counters, and for the NP-hard levels which stage
//! decided each cell and what the solver stage built and spent.
//!
//! [`crate::window::WindowedAuditor::new`] attaches an [`AuditTelemetry`]
//! only when [`tm_telemetry::enabled`] is set, mirroring the runtime's
//! zero-cost-when-off contract: a metrics-off audit carries a `None` and
//! pays one never-taken branch per window close (windows are already rare
//! relative to transactions, so even metrics-on overhead is negligible).
//! Tests bind handles to a private [`tm_telemetry::Registry`] via
//! [`crate::window::WindowedAuditor::with_telemetry`].

use crate::report::DecidedBy;
use tm_telemetry::{Counter, Histogram, Registry};

/// Everything one windowed auditor records when metrics are on.  Several
/// auditors (the sharded pipeline runs one per partition) resolve to the
/// same registry series and accumulate.
#[derive(Debug)]
pub struct AuditTelemetry {
    /// Windows fully audited.
    pub windows: Counter,
    /// Windows whose recording order verified as a serial order: all six
    /// levels certified, no search.  The verify-first passes behind that
    /// resume from the last verified prefix, so a window's passes together
    /// sort and check each transaction about once; a pass starts over from
    /// the window's first transaction only when a parked read resolved into
    /// the verified prefix or a stand-in sorts before its end
    /// ([`Self::certify_restarts`]).
    pub certified: Counter,
    /// Transactions (stand-ins included) the verify-first passes placed:
    /// each window's transactions and stand-ins once, plus what restarts
    /// placed again.
    pub certify_placed: Counter,
    /// Verify-first passes that discarded a verified prefix and started
    /// over.
    pub certify_restarts: Counter,
    /// Windows that fell back to saturation and search (including windows
    /// with a recording-contract defect); `certified + searched = windows`.
    pub searched: Counter,
    /// Session chains (sessions plus detached stand-ins) in each searched
    /// window at its close: the `k` every saturation round is linear in.
    pub chains: Histogram,
    /// Saturation rounds run by searched windows — with [`Self::chains`],
    /// what a slow searched window's cost depends on.
    pub saturation_rounds: Counter,
    /// Wall time of each push-time probe of the in-flight window
    /// (frontier resolution, the verify-first pass, and in search mode the
    /// incremental re-saturation) — the audit work done between closes.
    pub sync_latency: Histogram,
    /// Wall time from window close to verdict (the audit itself).
    pub window_latency: Histogram,
    /// Wall time from window *open* to verdict — what an operator waits
    /// between a transaction entering a window and that window's verdict.
    pub verdict_latency: Histogram,
    /// First-conviction events (at most one per auditor lifetime).
    pub convictions: Counter,
    /// DFS states consumed by inconclusive SI/SER searches — the
    /// saturation-budget consumption meter.
    pub search_states: Counter,
    /// Windows whose SI/SER searches ran on a slashed budget because the
    /// stream already convicted at SI or below.
    pub budget_slashed: Counter,
    /// Reads attributed to synthetic stand-ins past the retention horizon.
    pub evicted: Counter,
    /// Windows escalated to the SAT commit-order solver.
    pub sat_windows: Counter,
    /// DFS states the probe in front of the solver spent on searches it
    /// left open.
    pub sat_probe_states: Counter,
    /// Point pairs escalated windows needed a solver variable for.
    pub sat_pairs: Counter,
    /// Clauses the known order left open in escalated windows.
    pub sat_clauses: Counter,
    /// CDCL conflicts spent by escalated windows.
    pub sat_conflicts: Counter,
    /// Model cycles escalated windows had to forbid and re-solve.
    pub sat_refinements: Counter,
    /// Decided Prefix/SI/SER cells by the stage that decided them, indexed
    /// as [`NP_CELL_STAGES`].
    pub np_cells: [Counter; 3],
}

/// The `decided_by` label values of [`AuditTelemetry::np_cells`], in order.
pub const NP_CELL_STAGES: [DecidedBy; 3] = [DecidedBy::Hint, DecidedBy::Dfs, DecidedBy::Sat];

impl AuditTelemetry {
    /// Build the auditor's instrument set inside `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        AuditTelemetry {
            windows: registry.counter("audit_windows_total", &[], "windows"),
            certified: registry.counter("audit_windows_certified_total", &[], "windows"),
            certify_placed: registry.counter("audit_certify_placed_total", &[], "txns"),
            certify_restarts: registry.counter("audit_certify_restarts_total", &[], "passes"),
            searched: registry.counter("audit_windows_searched_total", &[], "windows"),
            chains: registry.histogram("audit_window_chains", &[], "chains"),
            saturation_rounds: registry.counter("audit_saturation_rounds_total", &[], "rounds"),
            sync_latency: registry.histogram("audit_window_sync_latency_ns", &[], "ns"),
            window_latency: registry.histogram("audit_window_latency_ns", &[], "ns"),
            verdict_latency: registry.histogram("audit_verdict_latency_ns", &[], "ns"),
            convictions: registry.counter("audit_convictions_total", &[], "convictions"),
            search_states: registry.counter("audit_search_states_total", &[], "states"),
            budget_slashed: registry.counter("audit_budget_slashed_windows_total", &[], "windows"),
            evicted: registry.counter("audit_evicted_attributions_total", &[], "reads"),
            sat_windows: registry.counter("audit_sat_windows_total", &[], "windows"),
            sat_probe_states: registry.counter("audit_sat_probe_states_total", &[], "states"),
            sat_pairs: registry.counter("audit_sat_pairs_total", &[], "pairs"),
            sat_clauses: registry.counter("audit_sat_clauses_total", &[], "clauses"),
            sat_conflicts: registry.counter("audit_sat_conflicts_total", &[], "conflicts"),
            sat_refinements: registry.counter("audit_sat_refinements_total", &[], "refinements"),
            np_cells: NP_CELL_STAGES.map(|by| {
                registry.counter("audit_np_cells_total", &[("decided_by", by.as_str())], "cells")
            }),
        }
    }

    /// The global-registry instrument set, or `None` when metrics are off —
    /// the constructor-time check every producer in the workspace uses.
    pub fn attach() -> Option<Self> {
        tm_telemetry::enabled().then(|| AuditTelemetry::from_registry(tm_telemetry::global()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_registry_resolves_to_the_same_series() {
        let registry = Registry::new();
        let a = AuditTelemetry::from_registry(&registry);
        let b = AuditTelemetry::from_registry(&registry);
        a.windows.inc();
        assert_eq!(b.windows.get(), 1, "two handle sets, one series");
    }
}
