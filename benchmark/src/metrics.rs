//! The metric catalogue and the result a workload run hands back.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::json;
use std::collections::BTreeMap;

/// The six registered backends `commit-sweep` runs, in reporting order.
pub const BACKENDS: [&str; 6] =
    ["tl2-blocking", "obstruction-free", "pram-local", "mvcc", "shard-lock", "global-lock"];

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound: None }
}

/// What a user of the system sees; reported by every workload, never zero.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        MetricDef { bound: Some(0.25), ..def("setup_s", "s", "lower") },
        MetricDef { bound: Some(0.25), ..def("txns_per_s", "txn/s", "higher") },
        MetricDef { bound: Some(0.25), ..def("peak_rss_mb", "MB", "lower") },
    ]
}

/// One entry per layer figure; a workload that does not run a layer reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for backend in BACKENDS {
        defs.push(def(&format!("stm-runtime.commits_per_s.{backend}"), "txn/s", "higher"));
    }
    for backend in BACKENDS {
        defs.push(def(&format!("stm-runtime.attempts_per_commit.{backend}"), "ratio", "lower"));
    }
    let rest: &[(&str, &'static str, &'static str)] = &[
        ("stm-runtime.max_rep_spread_pct", "%", "lower"),
        ("recorder.commits_per_s", "txn/s", "higher"),
        ("recorder.unrecorded_commits_per_s", "txn/s", "higher"),
        ("recorder.overhead_ns_per_commit", "ns", "lower"),
        ("recorder.on_commit_p50_ns", "ns", "lower"),
        ("recorder.on_commit_p99_ns", "ns", "lower"),
        ("recorder.batches", "count", "lower"),
        ("recorder.recv_wait_s", "s", "higher"),
        ("merger.self_s", "s", "lower"),
        ("merger.records_per_s", "1/s", "higher"),
        ("merger.out_of_order_records", "count", "lower"),
        ("window.ingest_s", "s", "lower"),
        ("window.close_s", "s", "lower"),
        ("window.finish_s", "s", "lower"),
        ("window.ingest_ns_per_txn", "ns", "lower"),
        ("window.close_p50_ms", "ms", "lower"),
        ("window.close_p90_ms", "ms", "lower"),
        ("window.windows", "count", "lower"),
        ("window.metered_share", "ratio", "higher"),
        ("window.peak_closure_bytes", "B", "lower"),
        ("window.undecided_cells", "count", "lower"),
        ("window.first_conviction_txn", "count", "lower"),
        ("partition.route_s", "s", "lower"),
        ("partition.drain_s", "s", "lower"),
        ("partition.projections_per_txn", "ratio", "lower"),
        ("partition.skew", "ratio", "lower"),
        ("partition.escalated_txns", "count", "lower"),
        ("partition.undecided_cells", "count", "lower"),
        ("partition.peak_closure_bytes", "B", "lower"),
        ("po.build_s", "s", "lower"),
        ("saturation.rc_s", "s", "lower"),
        ("saturation.ra_s", "s", "lower"),
        ("saturation.causal_s", "s", "lower"),
        ("linearization.ser_s", "s", "lower"),
        ("audit.assemble_s", "s", "lower"),
        ("audit.ns_per_txn", "ns", "lower"),
        ("wire.decode_s", "s", "lower"),
        ("wire.decode_mb_per_s", "MB/s", "higher"),
        ("wire.encode_mb_per_s", "MB/s", "higher"),
        ("wire.bytes_per_txn", "B", "lower"),
        ("wal.overhead_s", "s", "lower"),
        ("wal.append_txns_per_s", "txn/s", "higher"),
        ("wal.seal_p50_ms", "ms", "lower"),
        ("wal.seals", "count", "lower"),
        ("wal.segment_bytes", "B", "lower"),
        ("wal.frontier_bytes", "B", "lower"),
        ("wal.recover_verify_s", "s", "lower"),
        ("wal.recover_replay_s", "s", "lower"),
        ("wal.replayed_txns", "count", "lower"),
        ("linearization.dfs_exhaust_s", "s", "lower"),
        ("sat.escalation_s", "s", "lower"),
        ("sat.decided_cells", "count", "higher"),
        ("sat.undecided_cells", "count", "lower"),
        ("telemetry.enabled_overhead_pct", "%", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.accounted_share", "ratio", "higher"),
        ("pipeline.live.txns_per_s", "txn/s", "higher"),
        ("pipeline.live.verdict_lag_s", "s", "lower"),
        ("pipeline.live.undecided_cells", "count", "lower"),
        ("pipeline.live.out_of_order_records", "count", "lower"),
        // The issue's narrow end-to-end figures.  The result line must carry
        // every end-to-end metric on every workload and none may be zero, so
        // figures that exist on one to three workloads are listed here.
        ("window_verdict_p50_ms", "ms", "lower"),
        ("recover_s", "s", "lower"),
        ("bytes_per_txn", "B", "lower"),
        ("failed_share", "ratio", "lower"),
    ];
    defs.extend(rest.iter().map(|&(name, unit, better)| def(name, unit, better)));
    defs
}

/// What one workload run measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `sizes`, `threads` and input-hash lines for the header.
    pub header: Vec<String>,
    /// Every metric the run measured, end-to-end and per-layer alike.
    pub values: BTreeMap<String, f64>,
    /// Sample counts behind medians and percentiles, by metric name.
    pub samples: BTreeMap<String, usize>,
    /// Free-form lines printed under the metrics (tables, ratios with bases).
    pub notes: Vec<String>,
    /// Operations attempted and failed, as the workload defines them.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a metric together with the number of samples behind it.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    /// Print the raw samples behind a median, so a reader can see the spread.
    pub fn note_samples(&mut self, what: &str, seconds: &[f64]) {
        let list: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
        self.notes.push(format!("{what}, seconds: {}", list.join(" ")));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    /// Untraced it carries every end-to-end metric and refuses to print if
    /// one is missing; traced it carries every per-layer metric, 0 where the
    /// workload does not run the layer.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let defs = if traced { per_layer() } else { end_to_end() };
        let mut fields = Vec::with_capacity(defs.len());
        for d in &defs {
            let value = match self.values.get(&d.name) {
                Some(&v) if v.is_finite() => v,
                _ if traced => 0.0,
                _ => return Err(format!("end-to-end metric {} was not measured", d.name)),
            };
            fields.push((d.name.as_str(), json::metric(value, d.unit)));
        }
        Ok(json::object([
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(fields)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.125);
        out.set("txns_per_s", 21_000.5);
        out.set("peak_rss_mb", 48.0);
        out.set("window.close_s", 1.5);
        out.attempted = 600;
        let line = out.result_line(false).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":600,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.125,\"unit\":\"s\"},\
             \"txns_per_s\":{\"value\":21000.5,\"unit\":\"txn/s\"},\
             \"peak_rss_mb\":{\"value\":48,\"unit\":\"MB\"}}}"
        );
        let traced = out.result_line(true).unwrap();
        assert!(traced.contains("\"window.close_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(traced.contains("\"wal.seals\":{\"value\":0,\"unit\":\"count\"}"));
        assert!(
            !traced.contains("\"txns_per_s\":"),
            "end-to-end metrics stay out of a traced line"
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error_not_a_zero() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.1);
        out.set("txns_per_s", f64::NAN);
        out.set("peak_rss_mb", 10.0);
        assert!(out.result_line(false).unwrap_err().contains("txns_per_s"));
        out.check(false, || "verdict mismatch".to_string());
        out.set("txns_per_s", 1.0);
        assert!(out.result_line(false).unwrap().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract_limits() {
        let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for d in &defs {
            assert!(d.name.len() <= 64 && d.name.chars().all(ok), "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.unit.len() <= 16 && d.better == "lower" || d.better == "higher");
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(end_to_end().iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = crate::host::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
        for d in end_to_end().iter().chain(per_layer().iter()) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workloads::ALL {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, end_to_end().len() + per_layer().len(), "BENCHMARK.json lists extras");
    }
}
