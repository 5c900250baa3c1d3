//! # tm-telemetry — the workspace's measurement spine
//!
//! The PCL theorem says every TM design sacrifices one of Parallelism,
//! Consistency, or Liveness.  The rest of the workspace *asserts* which
//! corner each backend gives up; this crate makes the sacrifice *measurable
//! at runtime*: abort-reason counters show consistency being defended,
//! phase-latency histograms show where commit time goes, and the liveness
//! watchdog gauge shows threads failing to make progress.
//!
//! Design constraints, in order:
//!
//! 1. **Dependency-free.** The build container has no registry access; this
//!    crate uses only `std`.
//! 2. **No lock on the record path.** Counters, gauges and histograms are
//!    relaxed atomics ([`metrics`]); the registry mutex is touched only at
//!    instrument creation and snapshot time.
//! 3. **Zero cost when off.** Producers check [`enabled`] once at
//!    construction time and carry `Option<...>` handles, so a metrics-off
//!    run pays one never-taken branch per commit.
//!
//! The [`json`] module is the one JSON emission helper the workspace shares
//! (audit reports, serve records, bench artifacts and metric snapshots all
//! escape strings through it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;

pub use metrics::{
    thread_index, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, Snapshot,
    HISTOGRAM_BUCKETS,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every production producer records into.
/// Tests should construct private [`Registry`] instances instead, so their
/// assertions never see another test's samples.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turn metric production on or off process-wide.  Producers read this at
/// construction time (e.g. `Stm::new`), so flip it **before** building the
/// instances that should be instrumented.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric production is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("lib_test_counter", &[], "events");
        global().counter("lib_test_counter", &[], "events").inc();
        assert_eq!(c.get(), 1);
    }
}
