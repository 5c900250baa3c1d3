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
//! 2. **Lock-free on the record path.** Counters, gauges and histograms are
//!    relaxed atomics ([`metrics`]); the registry mutex is touched only at
//!    instrument creation and snapshot time.  The optional event tracer
//!    ([`trace`]) is the one mutexed component, and it stays disabled unless
//!    a serve endpoint turns it on.
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
pub mod trace;

pub use metrics::{
    thread_index, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, Snapshot,
    HISTOGRAM_BUCKETS,
};
pub use trace::{RingTracer, TraceEvent, DEFAULT_TRACE_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();
static TRACER: OnceLock<RingTracer> = OnceLock::new();

/// The process-wide registry every production producer records into.
/// Tests should construct private [`Registry`] instances instead, so their
/// assertions never see another test's samples.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide post-mortem ring tracer (see [`trace`]).
pub fn tracer() -> &'static RingTracer {
    TRACER.get_or_init(RingTracer::default)
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

/// Turn the (mutexed, therefore separately gated) event tracer on or off.
/// Only the serve endpoint enables this; it has no effect unless metrics
/// are enabled too.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the event tracer is on.
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_and_tracer_are_singletons() {
        let c = global().counter("lib_test_counter", &[], "events");
        global().counter("lib_test_counter", &[], "events").inc();
        assert_eq!(c.get(), 1);
        let seq = tracer().push("test", "lib", &[]);
        assert!(tracer().pushed() > seq);
    }
}
