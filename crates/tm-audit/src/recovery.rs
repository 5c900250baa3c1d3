//! Crash recovery for the windowed auditor: the boundary record a WAL seal
//! carries, and its JSON form.
//!
//! **The sealed log is the durable form of the frontier.**  Everything a
//! [`crate::WindowedAuditor`] carries between windows — write attribution,
//! latest value per variable, rmw facts, per-session sequence counters — is
//! a pure function of the records it has absorbed, and the WAL
//! ([`stm_runtime::wal::WalSink`]) already stores those durably.  So the
//! [`BoundaryRecord`] each window-closing seal carries holds only what the
//! log cannot give back without re-auditing: the window shape, three
//! counters (evicted attributions, peak closure memory, the first
//! conviction) and **the verdict of the one window that just closed**.
//! After `kill -9`, [`crate::WindowedAuditor::resume_from_frontier`] takes
//! the chain of records `0..=K` (shape and counters from the newest, one
//! verdict from each) and derives the rest from the log: the variable count
//! and initial value from its header, the boundary from the chain length,
//! the per-session counters by counting the covered prefix, the frontier by
//! re-absorbing that prefix window by window through the very function a
//! live window close runs.  The caller then re-ingests the records after
//! the boundary.
//!
//! # Soundness of the resumed verdict
//!
//! A record is taken where the auditor's own window machinery leaves the
//! world between windows: the frontier holds exactly the absorbed prefix,
//! and the records **not** yet absorbed (the overlap carried into the next
//! window, plus anything after the boundary) are re-pushed from the durable
//! log with their original session order.  Window `j` absorbed records
//! `[j·stride, (j+1)·stride)` of the log (`stride = size − overlap`), so the
//! re-absorbed frontier *is* the frontier the crashed process held — same
//! writers, same hints, same eviction order — and counting sessions over
//! the same prefix re-assigns the re-pushed records their original
//! identities.  Because window contents are a pure function of (frontier,
//! push order), the resumed auditor builds byte-identical windows to the
//! uninterrupted run — the equivalence suite
//! (`workloads/tests/recovery_equivalence.rs`) pins this on seeded
//! histories.  Nothing derived is stored, so there is nothing for the log
//! and a record to disagree on but what the resume checks: each verdict
//! sits at its window's position, the shape is normalized, and the log
//! holds every record the chain covers.

use crate::report::AuditReport;
use crate::window::{Conviction, WindowConfig, WindowVerdict};
use std::fmt;
use std::time::Duration;
use tm_telemetry::json::{self, Value};

/// A recovery-path failure: a record that does not parse, or a log that
/// does not hold what the record chain covers.
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
/// [`crate::WindowedAuditor::boundary_record`]; a chain of them, one per
/// closed window, is consumed by
/// [`crate::WindowedAuditor::resume_from_frontier`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryRecord {
    /// The window shape the verdicts were produced under, which a resume
    /// keeps (`sat` is not persisted: always `None` here).
    pub config: WindowConfig,
    /// Reads attributed past the retention horizon so far.
    pub evicted_attributions: u64,
    /// Closure-memory high-water mark so far.
    pub peak_closure_bytes: usize,
    /// The earliest definite violation, if one landed before the boundary.
    pub first_conviction: Option<Conviction>,
    /// The verdict of the window that just closed.  The chain of records
    /// carries every closed window's, which makes the recovered merged
    /// report identical to the uninterrupted run's.
    pub verdict: WindowVerdict,
}

impl BoundaryRecord {
    /// Serialize as a single-line JSON object, the form a WAL seal carries.
    pub fn to_json(&self) -> String {
        let w = &self.verdict;
        format!(
            "{{\"config\":{},\"evicted_attributions\":{},\"peak_closure_bytes\":{},\
             \"first_conviction\":{},\"verdict\":{{\"index\":{},\"txns\":{},\"elapsed_us\":{},\
             \"report\":{}}}}}",
            self.config.to_json(),
            self.evicted_attributions,
            self.peak_closure_bytes,
            self.first_conviction.as_ref().map_or("null".to_string(), Conviction::to_json),
            w.index,
            w.txns,
            w.audit_elapsed.as_micros(),
            w.report.to_json()
        )
    }

    /// Parse a record serialized by [`BoundaryRecord::to_json`].
    pub fn parse(text: &str) -> Result<BoundaryRecord, RecoveryError> {
        let value = json::parse(text)?;
        let verdict = value.field("verdict", Some)?;
        Ok(BoundaryRecord {
            config: WindowConfig::from_json(value.field("config", Some)?)?,
            evicted_attributions: value.field("evicted_attributions", Value::as_u64)?,
            peak_closure_bytes: value.field("peak_closure_bytes", Value::as_u64)? as usize,
            first_conviction: match value.field("first_conviction", Some)? {
                Value::Null => None,
                conviction => Some(Conviction::from_json(conviction)?),
            },
            verdict: WindowVerdict {
                index: verdict.field("index", Value::as_u64)? as usize,
                txns: verdict.field("txns", Value::as_u64)? as usize,
                report: AuditReport::from_json(verdict.field("report", Some)?)?,
                audit_elapsed: Duration::from_micros(verdict.field("elapsed_us", Value::as_u64)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DecidedBy, Level, LevelReport, Outcome};

    fn sample_record() -> BoundaryRecord {
        BoundaryRecord {
            config: WindowConfig { overlap: 2, budget: 100_000, ..WindowConfig::sized(8) },
            evicted_attributions: 1,
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
        let record = sample_record();
        let json = record.to_json();
        assert!(!json.contains('\n'), "a record is one line of its seal");
        let parsed = BoundaryRecord::parse(&json).expect("parse back");
        assert_eq!(parsed, record);
        // Provenance survives, so a resumed stream never re-attributes.
        let by: Vec<DecidedBy> =
            parsed.verdict.report.levels.iter().map(|l| l.decided_by).collect();
        assert_eq!(by, [DecidedBy::Hint, DecidedBy::Sat, DecidedBy::Dfs]);
        assert!(BoundaryRecord::parse(&json.replace("\"hint\"", "\"oracle\"")).is_err());
        let quiet = BoundaryRecord { first_conviction: None, ..record };
        assert_eq!(BoundaryRecord::parse(&quiet.to_json()), Ok(quiet));
    }
}
