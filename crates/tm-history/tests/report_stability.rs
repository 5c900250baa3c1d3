//! Report stability: the search path's verdicts, provenance and witnesses,
//! pinned byte for byte.
//!
//! One generated document per plant kind goes through the batch, windowed
//! and sharded engines; the merged report, every window's report (every
//! lane's, sharded) and the first conviction are rendered with `to_json()`
//! and compared against `tests/fixtures/report_stability/<kind>.txt`,
//! captured from the commit before the saturation engine moved from a
//! reachability closure to chain clocks.  A change to the search path that
//! moves a verdict cell, a `decided_by`, a cycle, a "saturated in N round(s)"
//! or a witness order fails here with the first differing line — and is
//! either a bug or a deliberate change that re-captures the fixture and says
//! why.  `benchmark_shape.txt` pins two larger documents at the shape of the
//! benchmark's search workload, where a probe re-saturates hundreds of new
//! transactions against a 2 048-transaction window.

use tm_audit::{
    audit, audit_sharded, audit_streamed, AuditHistory, Conviction, ShardConfig, StreamReport,
    WindowConfig, WindowedAuditor,
};
use tm_history::{generate, GenConfig};

fn window() -> WindowConfig {
    WindowConfig { overlap: 16, ..WindowConfig::sized(128) }
}

fn conviction_line(c: Option<&Conviction>) -> String {
    match c {
        Some(c) => format!("{} @window {} txn {}: {}", c.level, c.window, c.txns_seen, c.violation),
        None => "none".into(),
    }
}

fn stream_lines(out: &mut Vec<String>, lane: &str, stream: &StreamReport) {
    out.push(format!("{lane} merged {}", stream.merged.to_json()));
    for w in &stream.windows {
        out.push(format!("{lane} window {} ({} txns) {}", w.index, w.txns, w.report.to_json()));
    }
    out.push(format!("{lane} conviction {}", conviction_line(stream.first_conviction.as_ref())));
}

/// Every report the three engines produce for one document, one per line.
fn transcript(plant: impl Fn(&mut GenConfig)) -> Vec<String> {
    let mut config = GenConfig {
        sessions: 4,
        vars: 8,
        txns_per_session: 75,
        seed: 11,
        shard_align: Some(2),
        ..GenConfig::default()
    };
    plant(&mut config);
    let history = generate(&config).history;

    let mut out = vec![format!("batch {}", audit(&history).to_json())];
    stream_lines(&mut out, "windowed", &audit_streamed(&history, window()));
    let sharded = audit_sharded(&history, ShardConfig::new(2, window()));
    out.push(format!("sharded merged {}", sharded.merged.to_json()));
    for p in &sharded.partitions {
        let lane = if p.escalation {
            "sharded escalation".to_string()
        } else {
            format!("sharded partition {}", p.partition)
        };
        stream_lines(&mut out, &lane, &p.stream);
    }
    let first = sharded.first_conviction.as_ref();
    out.push(format!(
        "sharded conviction {} {}",
        first.map_or("-".into(), |c| format!("lane {} escalation {}", c.partition, c.escalation)),
        conviction_line(first.map(|c| &c.conviction))
    ));
    out
}

fn assert_pinned(kind: &str, plant: impl Fn(&mut GenConfig)) {
    let path = format!("{}/tests/fixtures/report_stability/{kind}.txt", env!("CARGO_MANIFEST_DIR"));
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let pinned: Vec<&str> = pinned.lines().collect();
    let actual = transcript(plant);
    for (i, (want, got)) in pinned.iter().zip(&actual).enumerate() {
        assert_eq!(got, want, "{kind}: line {} differs from {path}", i + 1);
    }
    assert_eq!(actual.len(), pinned.len(), "{kind}: report count differs from {path}");
    // The document must exercise the search path, or the pin holds nothing.
    assert!(actual.iter().any(|l| l.contains("\"outcome\":\"fail\"")), "{kind}: no conviction");
    assert!(actual.iter().any(|l| l.contains("\"decided_by\":\"hint\"")), "{kind}: none certified");
}

#[test]
fn lost_update_reports_are_pinned() {
    assert_pinned("lost_update", |c| c.lost_update_per_mille = 15);
}

#[test]
fn write_skew_reports_are_pinned() {
    assert_pinned("write_skew", |c| c.write_skew_per_mille = 15);
}

#[test]
fn causal_cycle_reports_are_pinned() {
    assert_pinned("causal_cycle", |c| c.causal_cycle_per_mille = 15);
}

#[test]
fn long_fork_reports_are_pinned() {
    assert_pinned("long_fork", |c| c.long_fork_per_mille = 15);
}

/// Replay `history` in recording order through `auditor`.
fn replay(mut auditor: WindowedAuditor, history: &AuditHistory) -> StreamReport {
    for (session, txn) in history.recording_order() {
        auditor.push(session, txn.clone());
    }
    auditor.finish()
}

/// The windowed transcripts of two documents at the benchmark's shape (4
/// sessions, 64 variables, 6 000 transactions, 2 048-transaction windows):
/// sparse write skew, where every window searches and a probe re-saturates
/// a few hundred transactions at a time, and sparse causal cycles, where
/// the saturation itself convicts.  Each goes through the verify-first
/// auditor and the search-only one, and each stream's chain-clock
/// high-water mark is pinned beside its reports.
fn benchmark_shape_transcript() -> Vec<String> {
    let mut out = Vec::new();
    for (kind, plant) in [
        ("write_skew", (|c: &mut GenConfig| c.write_skew_per_mille = 2) as fn(&mut GenConfig)),
        ("causal_cycle", |c: &mut GenConfig| c.causal_cycle_per_mille = 2),
    ] {
        let mut config = GenConfig {
            sessions: 4,
            vars: 64,
            txns_per_session: 1_500,
            events_per_txn: 3,
            seed: 7,
            ..GenConfig::default()
        };
        plant(&mut config);
        let history = generate(&config).history;
        let window = WindowConfig::sized(2_048);
        let (n_vars, initial) = (history.n_vars, history.initial);
        let verify_first = replay(WindowedAuditor::new(n_vars, initial, window), &history);
        let search_only = replay(WindowedAuditor::new_searching(n_vars, initial, window), &history);
        for (lane, stream) in [("windowed", verify_first), ("searching", search_only)] {
            let lane = format!("{kind} {lane}");
            stream_lines(&mut out, &lane, &stream);
            out.push(format!("{lane} peak_closure_bytes {}", stream.peak_closure_bytes));
        }
    }
    out
}

#[test]
fn benchmark_shape_reports_are_pinned() {
    let path = format!(
        "{}/tests/fixtures/report_stability/benchmark_shape.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let pinned: Vec<&str> = pinned.lines().collect();
    let actual = benchmark_shape_transcript();
    for (i, (want, got)) in pinned.iter().zip(&actual).enumerate() {
        assert_eq!(got, want, "line {} differs from {path}", i + 1);
    }
    assert_eq!(actual.len(), pinned.len(), "report count differs from {path}");
    for kind in ["write_skew", "causal_cycle"] {
        let convicted = |l: &&String| l.starts_with(kind) && l.contains("\"outcome\":\"fail\"");
        assert!(actual.iter().any(|l| convicted(&l)), "{kind}: no conviction");
    }
}
