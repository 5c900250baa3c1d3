//! Crash recovery for the windowed auditor: the boundary record a seal
//! persists, its JSON wire form, and the continuation check that makes a
//! resumed audit sound.
//!
//! **The sealed log is the durable form of the frontier.**  Everything a
//! [`crate::WindowedAuditor`] carries between windows — write attribution,
//! latest value per variable, rmw facts — is a pure function of the records
//! it has absorbed, and the WAL ([`stm_runtime::wal::WalSink`]) already
//! stores those durably.  So a [`FrontierSnapshot`], persisted next to each
//! sealed segment, holds only what the log cannot give back without
//! re-auditing: the window shape, the boundary scalars (per-session sequence
//! counters *rewound to the boundary*, `replay_from` — the count of log
//! records absorbed so far — peaks, the first conviction) and **the verdict
//! of the one window that just closed**.  After `kill -9`,
//! [`crate::WindowedAuditor::resume_from_frontier`] takes the chain of
//! snapshots `0..=K` (scalars from the newest, one verdict from each),
//! re-absorbs the log prefix `[..replay_from]` window by window through the
//! very function a live window close runs, and the caller re-ingests the
//! records from `replay_from` on.
//!
//! # Soundness of the resumed verdict
//!
//! The snapshot is taken where the auditor's own window machinery leaves the
//! world between windows: the frontier holds exactly the absorbed prefix,
//! and the records **not** yet absorbed (the overlap carried into the next
//! window, plus anything after the boundary) are re-pushed from the durable
//! log with their original session order.  Window `j` absorbed records
//! `[j·stride, (j+1)·stride)` of the log (`stride = size − overlap`), so the
//! re-absorbed frontier *is* the frontier the crashed process held — same
//! writers, same hints, same eviction order.  Because window contents are a
//! pure function of (frontier, push order) and the rewound sequence counters
//! re-assign the records their original identities, the resumed auditor
//! builds byte-identical windows to the uninterrupted run — the equivalence
//! suite (`workloads/tests/recovery_equivalence.rs`) pins this on seeded
//! histories.  The [`FrontierSnapshot::check_continuation`] guard verifies
//! the log actually is an extension of the snapshot (per-session counts of
//! the replayed prefix match the rewound counters) before any verdict is
//! produced, so a mismatched log and snapshot fail loudly instead of
//! auditing a history that never happened.

use crate::history::TxnId;
use crate::report::{AuditReport, DecidedBy, Level, LevelReport, Outcome};
use crate::window::{Conviction, WindowConfig, WindowVerdict};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;
use tm_telemetry::json::{self, Value};

/// Version tag of the snapshot JSON this module reads and writes.
pub const SNAPSHOT_VERSION: u64 = 2;

/// A recovery-path failure: a snapshot that does not parse, or a log that is
/// not a legal extension of the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError {
    /// What went wrong.
    pub message: String,
}

impl RecoveryError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        RecoveryError { message: message.into() }
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RecoveryError {}

impl From<json::ParseError> for RecoveryError {
    fn from(e: json::ParseError) -> Self {
        RecoveryError::new(e.message)
    }
}

/// What a [`crate::WindowedAuditor`] knows at a window boundary that the log
/// cannot give back — with the sealed log, everything a fresh process needs
/// to continue the audit as if the crash never happened.  Produced by
/// [`crate::WindowedAuditor::boundary_snapshot`]; a chain of them, one per
/// closed window, is consumed by
/// [`crate::WindowedAuditor::resume_from_frontier`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSnapshot {
    /// Variables in the audited run (a cross-check: the log header decides).
    pub n_vars: usize,
    /// Shared initial value (likewise).
    pub initial: i64,
    /// The window shape the verdicts were produced under, which a resume
    /// keeps (`sat` is not persisted: always `None` here).
    pub config: WindowConfig,
    /// Index the next window will carry.
    pub window_index: usize,
    /// Stream records fully absorbed or audited by this snapshot: recovery
    /// replays the log from this global record index on.
    pub replay_from: u64,
    /// Per-session next-sequence counters, rewound to the boundary
    /// (sorted by session).
    pub seqs: Vec<(usize, usize)>,
    /// Synthetic stand-in counter for evicted attributions.
    pub evicted_seq: usize,
    /// Reads attributed past the retention horizon so far.
    pub evicted_attributions: u64,
    /// Largest window audited so far.
    pub peak_window_txns: usize,
    /// Closure-memory high-water mark so far.
    pub peak_closure_bytes: usize,
    /// The earliest definite violation, if one landed before the boundary.
    pub first_conviction: Option<Conviction>,
    /// The verdict of the window that just closed (`window_index - 1`).  The
    /// chain of snapshots carries every closed window's, which makes the
    /// recovered merged report identical to the uninterrupted run's.
    pub verdict: WindowVerdict,
}

impl FrontierSnapshot {
    /// Verify that a decoded log is a legal extension of this snapshot:
    /// the records before `replay_from` (in log order) must land exactly on
    /// the rewound per-session counters.  The wire decoder has already
    /// enforced per-session sequence continuity and hint monotonicity over
    /// the *whole* document, so prefix agreement here means the suffix
    /// continues every session precisely where the snapshot left it.
    pub fn check_continuation(&self, arrival: &[TxnId]) -> Result<(), RecoveryError> {
        if (arrival.len() as u64) < self.replay_from {
            return Err(RecoveryError::new(format!(
                "log has {} records but the frontier snapshot already covers {} — \
                 the log is not an extension of the snapshot",
                arrival.len(),
                self.replay_from
            )));
        }
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for id in &arrival[..self.replay_from as usize] {
            *counts.entry(id.session).or_insert(0) += 1;
        }
        for &(session, seq) in &self.seqs {
            let got = counts.remove(&session).unwrap_or(0);
            if got != seq {
                return Err(RecoveryError::new(format!(
                    "continuation mismatch for session {session}: the snapshot absorbed \
                     {seq} transaction(s) but the log prefix holds {got}"
                )));
            }
        }
        if let Some((&session, &got)) = counts.iter().next() {
            return Err(RecoveryError::new(format!(
                "continuation mismatch: the log prefix holds {got} transaction(s) of \
                 session {session}, unknown to the snapshot"
            )));
        }
        Ok(())
    }

    /// Serialize as a single-object JSON document (one line, canonical field
    /// order), the form persisted next to each sealed WAL segment.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"frontier-snapshot\":{SNAPSHOT_VERSION},\"n_vars\":{},\"initial\":{},",
            self.n_vars, self.initial
        );
        let _ = write!(
            out,
            "\"config\":{{\"size\":{},\"overlap\":{},\"budget\":{},\"retain_windows\":{},\"batch\":{}}},",
            self.config.size,
            self.config.overlap,
            self.config.budget,
            self.config.retain_windows,
            self.config.batch
        );
        let _ = write!(
            out,
            "\"window_index\":{},\"replay_from\":{},",
            self.window_index, self.replay_from
        );
        out.push_str("\"seqs\":[");
        for (i, &(s, q)) in self.seqs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{s},{q}]");
        }
        let _ = write!(
            out,
            "],\"evicted_seq\":{},\"evicted_attributions\":{},\"peak_window_txns\":{},\"peak_closure_bytes\":{},",
            self.evicted_seq, self.evicted_attributions, self.peak_window_txns, self.peak_closure_bytes
        );
        match &self.first_conviction {
            None => out.push_str("\"first_conviction\":null,"),
            Some(c) => {
                let _ = write!(
                    out,
                    "\"first_conviction\":{{\"level\":\"{}\",\"window\":{},\"txns_seen\":{},\"violation\":\"{}\"}},",
                    c.level.tag(),
                    c.window,
                    c.txns_seen,
                    json::escape(&c.violation)
                );
            }
        }
        let w = &self.verdict;
        let _ = write!(
            out,
            "\"verdict\":{{\"index\":{},\"txns\":{},\"elapsed_us\":{},\"shape\":\"{}\",\"levels\":[",
            w.index,
            w.txns,
            w.audit_elapsed.as_micros(),
            json::escape(&w.report.shape)
        );
        for (j, l) in w.report.levels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&level_report_json(l));
        }
        out.push_str("]}}");
        out
    }

    /// Parse a snapshot serialized by [`FrontierSnapshot::to_json`].
    pub fn parse(text: &str) -> Result<FrontierSnapshot, RecoveryError> {
        let value = json::parse(text)?;
        let version = field_u64(&value, "frontier-snapshot")?;
        if version != SNAPSHOT_VERSION {
            return Err(RecoveryError::new(format!(
                "unsupported frontier snapshot version {version} (this reader expects {SNAPSHOT_VERSION})"
            )));
        }
        let config = value
            .get("config")
            .ok_or_else(|| RecoveryError::new("snapshot is missing \"config\""))?;
        let first_conviction = match value.get("first_conviction") {
            None | Some(Value::Null) => None,
            Some(c) => Some(Conviction {
                level: level_from_tag(field_str(c, "level")?)?,
                window: field_u64(c, "window")? as usize,
                txns_seen: field_u64(c, "txns_seen")?,
                violation: field_str(c, "violation")?.to_string(),
            }),
        };
        let seqs = field_arr(&value, "seqs")?
            .iter()
            .map(|row| match row.as_arr() {
                Some([session, seq]) => Ok((num_usize(session)?, num_usize(seq)?)),
                _ => Err(RecoveryError::new("expected a [session, seq] row")),
            })
            .collect::<Result<Vec<_>, RecoveryError>>()?;
        let verdict = value
            .get("verdict")
            .ok_or_else(|| RecoveryError::new("snapshot is missing \"verdict\""))?;
        Ok(FrontierSnapshot {
            n_vars: field_u64(&value, "n_vars")? as usize,
            initial: field_i64(&value, "initial")?,
            config: WindowConfig {
                size: field_u64(config, "size")? as usize,
                overlap: field_u64(config, "overlap")? as usize,
                budget: field_u64(config, "budget")?,
                retain_windows: field_u64(config, "retain_windows")? as usize,
                batch: field_u64(config, "batch")? as usize,
                sat: None,
            },
            window_index: field_u64(&value, "window_index")? as usize,
            replay_from: field_u64(&value, "replay_from")?,
            seqs,
            evicted_seq: field_u64(&value, "evicted_seq")? as usize,
            evicted_attributions: field_u64(&value, "evicted_attributions")?,
            peak_window_txns: field_u64(&value, "peak_window_txns")? as usize,
            peak_closure_bytes: field_u64(&value, "peak_closure_bytes")? as usize,
            first_conviction,
            verdict: parse_verdict(verdict)?,
        })
    }
}

fn level_report_json(l: &LevelReport) -> String {
    let (outcome, detail) = match &l.outcome {
        Outcome::Pass { witness } => ("pass", witness.as_str()),
        Outcome::Fail { violation } => ("fail", violation.as_str()),
        Outcome::Unknown { reason, .. } => ("unknown", reason.as_str()),
    };
    let mut out = format!(
        "{{\"level\":\"{}\",\"outcome\":\"{outcome}\",\"decided_by\":\"{}\",\"detail\":\"{}\"",
        l.level.tag(),
        l.decided_by.as_str(),
        json::escape(detail)
    );
    if let Outcome::Unknown { states, refuted, next_budget, .. } = &l.outcome {
        out.push_str(&format!(",\"states\":{states},\"next_budget\":{next_budget}"));
        match refuted {
            Some(level) => out.push_str(&format!(",\"refuted\":\"{}\"", level.tag())),
            None => out.push_str(",\"refuted\":null"),
        }
    }
    out.push('}');
    out
}

fn parse_verdict(value: &Value) -> Result<WindowVerdict, RecoveryError> {
    let levels = field_arr(value, "levels")?
        .iter()
        .map(|l| {
            let level = level_from_tag(field_str(l, "level")?)?;
            let detail = field_str(l, "detail")?.to_string();
            let outcome = match field_str(l, "outcome")? {
                "pass" => Outcome::Pass { witness: detail },
                "fail" => Outcome::Fail { violation: detail },
                "unknown" => Outcome::Unknown {
                    reason: detail,
                    states: field_u64(l, "states")?,
                    refuted: match l.get("refuted") {
                        None | Some(Value::Null) => None,
                        Some(r) => Some(level_from_tag(str_of(r)?)?),
                    },
                    next_budget: field_u64(l, "next_budget")?,
                },
                other => return Err(RecoveryError::new(format!("unknown outcome kind {other:?}"))),
            };
            let by = field_str(l, "decided_by")?;
            let by = DecidedBy::parse(by)
                .ok_or_else(|| RecoveryError::new(format!("unknown verdict provenance {by:?}")))?;
            Ok(LevelReport::new(level, outcome).via(by))
        })
        .collect::<Result<Vec<_>, RecoveryError>>()?;
    Ok(WindowVerdict {
        index: field_u64(value, "index")? as usize,
        txns: field_u64(value, "txns")? as usize,
        report: AuditReport { shape: field_str(value, "shape")?.to_string(), levels },
        audit_elapsed: Duration::from_micros(field_u64(value, "elapsed_us")?),
    })
}

fn level_from_tag(tag: &str) -> Result<Level, RecoveryError> {
    Level::ALL
        .iter()
        .copied()
        .find(|l| l.tag() == tag)
        .ok_or_else(|| RecoveryError::new(format!("unknown consistency level tag {tag:?}")))
}

// ---------------------------------------------------------------------------
// Typed field access over `tm_telemetry::json::Value`, with this module's
// error type.

fn field_u64(value: &Value, key: &str) -> Result<u64, RecoveryError> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| RecoveryError::new(format!("missing or non-numeric field {key:?}")))
}

fn field_i64(value: &Value, key: &str) -> Result<i64, RecoveryError> {
    value
        .get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| RecoveryError::new(format!("missing or non-numeric field {key:?}")))
}

fn field_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, RecoveryError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| RecoveryError::new(format!("missing or non-string field {key:?}")))
}

fn field_arr<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], RecoveryError> {
    value
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| RecoveryError::new(format!("missing or non-array field {key:?}")))
}

fn str_of(value: &Value) -> Result<&str, RecoveryError> {
    value.as_str().ok_or_else(|| RecoveryError::new("expected a string"))
}

fn num_usize(value: &Value) -> Result<usize, RecoveryError> {
    value
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| RecoveryError::new("expected an unsigned number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> FrontierSnapshot {
        FrontierSnapshot {
            n_vars: 4,
            initial: 0,
            config: WindowConfig { overlap: 2, budget: 100_000, ..WindowConfig::sized(8) },
            window_index: 2,
            replay_from: 12,
            seqs: vec![(0, 7), (1, 5)],
            evicted_seq: 1,
            evicted_attributions: 1,
            peak_window_txns: 8,
            peak_closure_bytes: 4096,
            first_conviction: Some(Conviction {
                level: Level::SnapshotIsolation,
                window: 1,
                txns_seen: 9,
                violation: "lost update on v0: \"quoted\"\nnewline".into(),
            }),
            verdict: WindowVerdict {
                index: 1,
                txns: 8,
                report: AuditReport {
                    shape: "window 1: 8 transactions".into(),
                    levels: vec![
                        LevelReport::new(
                            Level::ReadCommitted,
                            Outcome::Pass { witness: "order exists".into() },
                        )
                        .via(DecidedBy::Hint),
                        LevelReport::new(
                            Level::SnapshotIsolation,
                            Outcome::Unknown {
                                reason: "budget exhausted".into(),
                                states: 1000,
                                refuted: Some(Level::Serializable),
                                next_budget: 4000,
                            },
                        )
                        .via_sat(),
                        LevelReport::new(
                            Level::Serializable,
                            Outcome::Fail { violation: "cycle".into() },
                        ),
                    ],
                },
                audit_elapsed: Duration::from_micros(1234),
            },
        }
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let parsed = FrontierSnapshot::parse(&json).expect("parse back");
        assert_eq!(parsed, snap);
        // Spot-check the verdict internals survived with full fidelity —
        // provenance included, so a resumed stream never re-attributes.
        let by: Vec<DecidedBy> =
            parsed.verdict.report.levels.iter().map(|l| l.decided_by).collect();
        assert_eq!(by, [DecidedBy::Hint, DecidedBy::Sat, DecidedBy::Dfs]);
        assert!(FrontierSnapshot::parse(&json.replace("\"hint\"", "\"oracle\"")).is_err());
        let level = &parsed.verdict.report.levels[1];
        assert_eq!(level.decided_by, DecidedBy::Sat);
        let Outcome::Unknown { states, refuted, next_budget, .. } = &level.outcome else {
            panic!("expected unknown");
        };
        assert_eq!((*states, *refuted, *next_budget), (1000, Some(Level::Serializable), 4000));
    }

    #[test]
    fn continuation_check_accepts_exact_prefixes_and_rejects_mismatches() {
        let mut snap = sample_snapshot();
        snap.replay_from = 4;
        snap.seqs = vec![(0, 3), (1, 1)];
        let id = |session, seq| TxnId { session, seq };
        let good = [id(0, 0), id(1, 0), id(0, 1), id(0, 2), id(1, 1), id(0, 3)];
        snap.check_continuation(&good).expect("legal extension");

        // Too-short log: the snapshot covers more than the log holds.
        let err = snap.check_continuation(&good[..3]).unwrap_err();
        assert!(err.message.contains("not an extension"), "{err}");

        // Right length, wrong split across sessions.
        let bad = [id(0, 0), id(1, 0), id(1, 1), id(1, 2), id(0, 1), id(0, 2)];
        let err = snap.check_continuation(&bad).unwrap_err();
        assert!(err.message.contains("continuation mismatch"), "{err}");

        // A session the snapshot never saw in the prefix.
        let mut snap2 = sample_snapshot();
        snap2.replay_from = 1;
        snap2.seqs = vec![];
        let err = snap2.check_continuation(&[id(3, 0)]).unwrap_err();
        assert!(err.message.contains("unknown to the snapshot"), "{err}");
    }
}
