//! The metric primitives and the registry that owns them.
//!
//! Everything on the **record** path is a relaxed atomic operation — no
//! locks, no allocation.  The registry mutex is taken only when a metric
//! handle is first created (instrument setup) and when a snapshot is cut
//! (exposition), neither of which sits on a transaction's commit path.

use crate::json;
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// log2 histogram buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i - 1]`.  65 buckets cover the whole `u64` range,
/// so nanosecond latencies never saturate an overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Lower bound of histogram bucket `i` (the value quantiles report, so tails
/// read "at least").
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Cache-line stripes per [`Counter`].  Counters sit on commit paths where
/// several threads increment the same series concurrently; striping turns a
/// contended cross-core RMW into an uncontended add on the recording
/// thread's own line, at the cost of a small sum on the (rare) read side.
const COUNTER_STRIPES: usize = 16;

/// One cache line's worth of counter stripe, padded so neighbouring stripes
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's index: 0, 1, 2, … in the order threads first ask,
/// stable for the thread's lifetime.  Every per-thread striped structure in
/// the workspace picks its slot as this index modulo its own slot count, so
/// threads beyond that count share slots — correctness never depends on
/// exclusivity, only contention does.
#[inline]
pub fn thread_index() -> usize {
    THREAD_INDEX.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            s.set(i);
        }
        i
    })
}

fn stripe_index() -> usize {
    thread_index() % COUNTER_STRIPES
}

/// A monotonically increasing counter, striped across cache lines so
/// concurrent recorders never contend (see `COUNTER_STRIPES`).
#[derive(Debug, Clone)]
pub struct Counter(Arc<[PaddedU64; COUNTER_STRIPES]>);

impl Default for Counter {
    fn default() -> Self {
        Counter(Arc::new(std::array::from_fn(|_| PaddedU64::default())))
    }
}

impl Counter {
    /// A free-standing counter (not registry-owned).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` (wrapping).  Counters are conceptually monotonic; the
    /// single sanctioned use is *reclassification* — moving an already
    /// recorded event between two series of the same family (e.g. a
    /// bounded-retry give-up re-labeling its final abort) so the family's
    /// sum is preserved.  An individual stripe may wrap below zero when the
    /// subtracting thread is not the one that recorded the event;
    /// [`Counter::get`] sums with wrapping arithmetic, so the total stays
    /// exact.
    pub fn sub(&self, n: u64) {
        self.0[stripe_index()].0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value (the wrapping sum over all stripes).
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

/// A gauge: a value that can move both ways (queue depths, stalled-thread
/// counts, remaining budgets).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge (not registry-owned).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (high-watermark use).
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// `record` is three relaxed atomic adds; concurrent recorders never lose
/// samples.  Quantiles report the lower bound of the bucket the rank falls
/// in, mirroring the "at least" semantics of `StmStats::attempts_quantile`.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A free-standing histogram (not registry-owned).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let core = &self.0;
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0.0..=1.0) as the lower bound of the bucket the
    /// rank lands in; 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets = self.buckets();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, count) in buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// What a metric handle is, inside the registry.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    unit: &'static str,
    instrument: Instrument,
}

/// A set of named, labeled metrics.  One process-wide instance lives behind
/// [`crate::global`]; tests create private registries so assertions never
/// see another test's samples.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

fn labels_match(a: &[(String, String)], b: &[(&str, &str)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn instrument(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        unit: &'static str,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.lock().expect("telemetry registry poisoned");
        if let Some(e) = entries.iter().find(|e| e.name == name && labels_match(&e.labels, labels))
        {
            return e.instrument.clone();
        }
        let instrument = make();
        entries.push(Entry {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            unit,
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Get or create a counter.  The same `(name, labels)` pair always
    /// returns a handle on the same underlying value.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], unit: &'static str) -> Counter {
        match self.instrument(name, labels, unit, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], unit: &'static str) -> Gauge {
        match self.instrument(name, labels, unit, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], unit: &'static str) -> Histogram {
        match self.instrument(name, labels, unit, || Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Cut a point-in-time snapshot of every registered metric, in
    /// registration order.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("telemetry registry poisoned");
        Snapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    unit: e.unit,
                    value: match &e.instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram {
                            count: h.count(),
                            sum: h.sum(),
                            mean: h.mean(),
                            p50: h.quantile(0.50),
                            p99: h.quantile(0.99),
                            buckets: h
                                .buckets()
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| **c > 0)
                                .map(|(i, c)| (bucket_lower_bound(i), *c))
                                .collect(),
                        },
                    },
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary plus the non-empty `(bucket_lower_bound, count)`
    /// pairs.
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Mean sample.
        mean: f64,
        /// Median (bucket lower bound).
        p50: u64,
        /// 99th percentile (bucket lower bound).
        p99: u64,
        /// Non-empty buckets as `(lower_bound, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

/// One metric inside a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name (e.g. `stm_phase_ns`).
    pub name: String,
    /// Label pairs (e.g. `backend=tl2-blocking`, `phase=validate`).
    pub labels: Vec<(String, String)>,
    /// Unit of the value/samples (e.g. `ns`, `txns`, `threads`).
    pub unit: &'static str,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl MetricSnapshot {
    fn to_json(&self) -> String {
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)))
            .collect();
        let value = match &self.value {
            MetricValue::Counter(v) => format!("\"kind\":\"counter\",\"value\":{v}"),
            MetricValue::Gauge(v) => format!("\"kind\":\"gauge\",\"value\":{v}"),
            MetricValue::Histogram { count, sum, mean, p50, p99, buckets } => {
                // JSON has no NaN/Infinity: a non-finite mean renders as 0.
                let mean = if mean.is_finite() { *mean } else { 0.0 };
                let buckets: Vec<String> =
                    buckets.iter().map(|(lo, c)| format!("[{lo},{c}]")).collect();
                format!(
                    "\"kind\":\"histogram\",\"count\":{count},\"sum\":{sum},\"mean\":{mean},\
                     \"p50\":{p50},\"p99\":{p99},\"buckets\":[{}]",
                    buckets.join(",")
                )
            }
        };
        format!(
            "{{\"name\":\"{}\",\"labels\":{{{}}},\"unit\":\"{}\",{value}}}",
            json::escape(&self.name),
            labels.join(","),
            json::escape(self.unit)
        )
    }

    fn label_text(&self) -> String {
        if self.labels.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// A point-in-time view of a [`Registry`], renderable as text or JSON.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The metrics, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Human-readable exposition: one line per counter/gauge, a summary line
    /// per histogram.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let id = format!("{}{}", m.name, m.label_text());
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{id:<72} {v:>12} {}\n", m.unit));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{id:<72} {v:>12} {}\n", m.unit));
                }
                MetricValue::Histogram { count, mean, p50, p99, .. } => {
                    out.push_str(&format!(
                        "{id:<72} count {count}  mean {mean:.0} {unit}  p50 {p50} {unit}  \
                         p99 {p99} {unit}\n",
                        unit = m.unit
                    ));
                }
            }
        }
        out
    }

    /// Machine-readable exposition: `{"metrics":[...]}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(MetricSnapshot::to_json).collect();
        format!("{{\"metrics\":[{}]}}", metrics.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            let hi = lo.saturating_mul(2).saturating_sub(1);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn histogram_summaries_report_bucket_lower_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(100); // bucket [64,127] → lower bound 64
        }
        h.record(5000); // bucket [4096,8191] → lower bound 4096
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 + 900 + 5000);
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.99), 64);
        assert_eq!(h.quantile(1.0), 4096);
        assert!((h.mean() - 59.9).abs() < 1e-9);
    }

    #[test]
    fn registry_deduplicates_on_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("c", &[("backend", "tl2")], "txns");
        let b = r.counter("c", &[("backend", "tl2")], "txns");
        let other = r.counter("c", &[("backend", "mvcc")], "txns");
        a.inc();
        b.inc();
        other.add(5);
        assert_eq!(a.get(), 2, "same (name, labels) must share one value");
        assert_eq!(other.get(), 5);
        assert_eq!(r.snapshot().metrics.len(), 2);
    }

    #[test]
    fn snapshot_renders_text_and_json() {
        let r = Registry::new();
        r.counter("commits_total", &[("backend", "tl2")], "txns").add(7);
        r.gauge("queue_depth", &[("partition", "0")], "txns").set(-2);
        let h = r.histogram("latency", &[], "ns");
        h.record(3);
        h.record(1000);
        let snap = r.snapshot();
        let text = snap.to_text();
        assert!(text.contains("commits_total{backend=tl2}"), "{text}");
        assert!(text.contains("queue_depth{partition=0}"), "{text}");
        let json = snap.to_json();
        assert!(json.contains("\"name\":\"commits_total\""), "{json}");
        assert!(json.contains("\"kind\":\"gauge\",\"value\":-2"), "{json}");
        assert!(json.contains("\"buckets\":[[2,1],[512,1]]"), "{json}");
    }

    /// The exposition's exact bytes: escaped names and labels, every kind,
    /// a fractional and a non-finite mean (rendered `0`), an empty
    /// histogram and an empty snapshot.
    #[test]
    fn snapshot_json_bytes_are_pinned() {
        let metric = |name: &str, labels: &[(&str, &str)], value| MetricSnapshot {
            name: name.to_string(),
            labels: labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            unit: "ns",
            value,
        };
        let histogram = |count, sum, mean, buckets: &[(u64, u64)]| MetricValue::Histogram {
            count,
            sum,
            mean,
            p50: buckets.first().map_or(0, |b| b.0),
            p99: buckets.last().map_or(0, |b| b.0),
            buckets: buckets.to_vec(),
        };
        let snap = Snapshot {
            metrics: vec![
                metric(
                    "commits\"total",
                    &[("backend", "tl2"), ("note", "a\nb")],
                    MetricValue::Counter(7),
                ),
                metric("depth", &[], MetricValue::Gauge(-2)),
                metric(
                    "latency",
                    &[("phase", "validate")],
                    histogram(4, 10, 2.5, &[(2, 3), (512, 1)]),
                ),
                metric("odd", &[], histogram(1, 1, f64::NAN, &[(1, 1)])),
                metric("idle", &[], histogram(0, 0, 0.0, &[])),
            ],
        };
        let expected = concat!(
            r#"{"metrics":["#,
            r#"{"name":"commits\"total","labels":{"backend":"tl2","note":"a\nb"},"unit":"ns","#,
            r#""kind":"counter","value":7},"#,
            r#"{"name":"depth","labels":{},"unit":"ns","kind":"gauge","value":-2},"#,
            r#"{"name":"latency","labels":{"phase":"validate"},"unit":"ns","kind":"histogram","#,
            r#""count":4,"sum":10,"mean":2.5,"p50":2,"p99":512,"buckets":[[2,3],[512,1]]},"#,
            r#"{"name":"odd","labels":{},"unit":"ns","kind":"histogram","#,
            r#""count":1,"sum":1,"mean":0,"p50":1,"p99":1,"buckets":[[1,1]]},"#,
            r#"{"name":"idle","labels":{},"unit":"ns","kind":"histogram","#,
            r#""count":0,"sum":0,"mean":0,"p50":0,"p99":0,"buckets":[]}"#,
            r#"]}"#
        );
        assert_eq!(snap.to_json(), expected);
        assert_eq!(Snapshot { metrics: Vec::new() }.to_json(), r#"{"metrics":[]}"#);
    }

    #[test]
    fn striped_counter_stays_exact_across_threads_and_reclassification() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        // Reclassification subtracts on the *caller's* stripe, which may not
        // be the stripe the event was recorded on; the wrapping sum is exact
        // regardless.
        c.sub(80_000);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn eight_thread_hammer_loses_no_histogram_samples() {
        // The metric-invariant test the telemetry spine rests on: concurrent
        // recorders from 8 threads must account for every sample in both the
        // total count and the per-bucket counts.
        let h = Histogram::new();
        let c = Counter::new();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * PER_THREAD);
        assert_eq!(c.get(), THREADS * PER_THREAD);
        let bucket_total: u64 = h.buckets().iter().sum();
        assert_eq!(bucket_total, h.count(), "no sample may vanish between buckets");
        // Sum is exact too: sum over all recorded values.
        let expected_sum: u64 = (0..THREADS * PER_THREAD).sum();
        assert_eq!(h.sum(), expected_sum);
    }
}
