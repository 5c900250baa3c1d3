//! Spans recorded by the benchmark's own wrappers around calls into each
//! layer.  Spans stay in memory and are written out once, at exit.
//!
//! A span has a name (the layer and the call), a start, an end, the span that
//! caused it, and the id of the workload repetition it belongs to.  A layer's
//! self time is its spans' duration minus the part their children cover.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one; `None` for a repetition's root.
    pub parent: Option<SpanId>,
    /// Which repetition of the workload this span belongs to.
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls aggregated into this span (non-closing pushes come 256 at a time).
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from a set of spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub spans: u64,
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// The in-memory span store.  Off by default: every recording call is then a
/// single branch, so untraced repetitions run the same code path.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), on: false, spans: Vec::new() }
    }

    /// Run a traced repetition: spans are recorded while `rep` runs.
    pub fn recording<R>(&mut self, rep: impl FnOnce(&mut Tracer) -> R) -> R {
        self.on = true;
        let result = rep(self);
        self.on = false;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a repetition's root span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, run: u32, start: Instant) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.ns(start);
        self.spans.push(Span { id, parent: None, run, name, start_ns, end_ns: start_ns, count: 1 });
        id
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if self.on {
            let end_ns = self.ns(end);
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Record a finished span under `parent`, covering `count` calls.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as SpanId;
        let run = self.spans[parent as usize].run;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent: Some(parent), run, name, start_ns, end_ns, count });
        id
    }

    /// Self time per span name, roots included.
    pub fn self_times(&self) -> Vec<SelfTime> {
        self_times(&self.spans)
    }

    /// Σ self time of every non-root span ÷ Σ duration of the roots: the share
    /// of the repetitions' wall time that some layer's span accounts for.
    pub fn accounted_share(&self) -> f64 {
        accounted_share(&self.spans)
    }

    /// The trace document: header, per-name self times, then every span.
    pub fn to_json(&self, header: &str) -> String {
        let selfs = self.self_times().into_iter().map(|s| {
            json::object([
                ("name", json::string(s.name)),
                ("spans", s.spans.to_string()),
                ("calls", s.calls.to_string()),
                ("total_s", json::number(s.total_s)),
                ("self_s", json::number(s.self_s)),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            json::object([
                ("id", s.id.to_string()),
                ("parent", s.parent.map_or("null".to_string(), |p| p.to_string())),
                ("run", s.run.to_string()),
                ("name", json::string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("count", s.count.to_string()),
            ])
        });
        format!(
            "{{\"header\":{header},\n\"accounted_share\":{},\n\"self_time\":{},\n\"spans\":[\n{}\n]}}\n",
            json::number(self.accounted_share()),
            json::array(selfs),
            spans.collect::<Vec<_>>().join(",\n")
        )
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let selfs = self_ns(spans);
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let entry = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            spans: 0,
            calls: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        entry.spans += 1;
        entry.calls += s.count;
        entry.total_s += s.duration_ns() as f64 / 1e9;
        entry.self_s += self_ns as f64 / 1e9;
    }
    by_name.into_values().collect()
}

fn accounted_share(spans: &[Span]) -> f64 {
    let selfs = self_ns(spans);
    let (mut layers, mut wall) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        match s.parent {
            Some(_) => layers += self_ns,
            None => wall += s.duration_ns(),
        }
    }
    layers as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, run: 0, name, start_ns, end_ns, count: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "rep", 0, 1_000),
            span(1, Some(0), "ingest", 100, 400),
            span(2, Some(0), "close", 400, 900),
            span(3, Some(2), "seal", 700, 900),
        ];
        let times = self_times(&spans);
        let of = |name: &str| times.iter().find(|t| t.name == name).unwrap().self_s;
        assert!((of("rep") - 200e-9).abs() < 1e-15, "1000 - (300 + 500)");
        assert!((of("ingest") - 300e-9).abs() < 1e-15);
        assert!((of("close") - 300e-9).abs() < 1e-15, "500 - 200 of seal");
        assert!((of("seal") - 200e-9).abs() < 1e-15);
        // ingest 300 + close 300 + seal 200 of a 1000 ns root.
        assert!((accounted_share(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_on_other_threads_are_covered_once() {
        let spans = [
            span(0, None, "rep", 0, 1_000),
            span(1, Some(0), "worker", 0, 800),
            span(2, Some(0), "worker", 100, 900),
            span(3, Some(0), "late", 950, 1_200), // clipped to the parent's end
        ];
        let times = self_times(&spans);
        let rep = times.iter().find(|t| t.name == "rep").unwrap();
        assert!((rep.self_s - 50e-9).abs() < 1e-15, "[900, 950) is uncovered");
        let worker = times.iter().find(|t| t.name == "worker").unwrap();
        assert_eq!((worker.spans, worker.calls), (2, 2));
        assert!((worker.total_s - 1_600e-9).abs() < 1e-15);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::new();
        let now = Instant::now();
        let root = tracer.open("rep", 0, now);
        tracer.span("ingest", root, now, now, 256);
        tracer.close(root, now);
        assert!(tracer.spans().is_empty());

        let (root, child) = tracer.recording(|tracer| {
            let root = tracer.open("rep", 3, now);
            let child = tracer.span("ingest", root, now, now, 256);
            tracer.close(root, now);
            (root, child)
        });
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[child as usize].parent, Some(root));
        assert_eq!(tracer.spans()[child as usize].run, 3);
        assert_eq!(tracer.spans()[child as usize].count, 256);
        let doc = tracer.to_json("{}");
        assert!(doc.contains("\"name\":\"ingest\""));
        assert!(doc.contains("\"parent\":null"));
    }
}
