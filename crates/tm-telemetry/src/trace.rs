//! A bounded ring-buffer event tracer for post-mortems.
//!
//! The serve endpoint keeps the last few hundred commit events in memory;
//! when the auditor convicts a run for the first time, the ring is dumped as
//! one `post-mortem` record — the flight recorder for "what was the runtime
//! doing just before the violation surfaced".  Tracing takes a mutex per
//! event, so it is **off** unless explicitly enabled (`--serve` with
//! `--metrics`); the metrics registry itself never takes this path.

use crate::json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// One traced event: a label plus flat numeric fields.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Monotonic sequence number (counts all events ever pushed, so gaps
    /// reveal how much the ring evicted).
    pub seq: u64,
    /// Event kind (e.g. `commit`).
    pub kind: &'static str,
    /// Free-form origin label (e.g. the backend name).
    pub origin: String,
    /// Numeric payload fields, in push order.
    pub fields: Vec<(&'static str, u64)>,
}

/// A fixed-capacity ring of recent [`TraceEvent`]s.
#[derive(Debug)]
pub struct RingTracer {
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl RingTracer {
    /// A tracer holding at most `capacity` recent events.
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Push an event, evicting the oldest once the ring is full.  Returns
    /// the event's sequence number.
    pub fn push(&self, kind: &'static str, origin: &str, fields: &[(&'static str, u64)]) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent { seq, kind, origin: origin.to_string(), fields: fields.to_vec() };
        let mut ring = self.ring.lock().expect("tracer poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
        seq
    }

    /// Total events ever pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Copy of the retained events, oldest first.
    pub fn recent(&self) -> Vec<TraceEvent> {
        self.ring.lock().expect("tracer poisoned").iter().cloned().collect()
    }

    /// Drop all retained events (the sequence counter keeps counting).
    pub fn clear(&self) {
        self.ring.lock().expect("tracer poisoned").clear();
    }

    /// The retained events as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self
            .recent()
            .iter()
            .map(|e| {
                let fields: String =
                    e.fields.iter().map(|(k, v)| format!(",\"{}\":{v}", json::escape(k))).collect();
                format!(
                    "{{\"seq\":{},\"kind\":\"{}\",\"origin\":\"{}\"{fields}}}",
                    e.seq,
                    json::escape(e.kind),
                    json::escape(&e.origin)
                )
            })
            .collect();
        format!("[{}]", events.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let t = RingTracer::new(3);
        for i in 0..5u64 {
            t.push("commit", "tl2", &[("attempts", i)]);
        }
        let recent = t.recent();
        assert_eq!(t.pushed(), 5);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 2, "oldest two were evicted");
        assert_eq!(recent[2].fields, vec![("attempts", 4)]);
        let json = t.to_json();
        assert!(json.starts_with("[{\"seq\":2,"), "{json}");
        assert!(json.contains("\"attempts\":4"), "{json}");
        t.clear();
        assert!(t.recent().is_empty());
        assert_eq!(t.pushed(), 5, "sequence numbers survive a clear");
    }

    /// The ring's exact bytes: escaped origins, events with no fields and
    /// with several, and the empty ring.
    #[test]
    fn ring_json_bytes_are_pinned() {
        let t = RingTracer::new(4);
        assert_eq!(t.to_json(), "[]");
        t.push("abort", "of\"ree", &[]);
        t.push("commit", "tl2\n", &[("attempts", 3), ("ns", u64::MAX)]);
        assert_eq!(
            t.to_json(),
            concat!(
                r#"[{"seq":0,"kind":"abort","origin":"of\"ree"},"#,
                r#"{"seq":1,"kind":"commit","origin":"tl2\n","attempts":3,"ns":18446744073709551615}]"#
            )
        );
    }
}
