//! Audit verdicts: one outcome per consistency level, with a witness or a
//! concrete violation.
//!
//! Witness orders render through `tm-consistency`'s [`CommitOrderWitness`]
//! (re-exported here), so both checker families print a commit order the same
//! way.  Reports also serialize to JSON ([`AuditReport::to_json`]) so CI can
//! archive machine-readable verdicts.

pub use tm_consistency::report::CommitOrderWitness;

use std::fmt;
use tm_telemetry::json::{self, ParseError, Value};

/// The consistency hierarchy the auditor decides, weakest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Reads observe committed writes and a commit order extending `so ∪ wr`
    /// exists.
    ReadCommitted,
    /// Transactions are atomically visible (no fractured or stale-sibling
    /// reads).
    ReadAtomic,
    /// Visibility is transitive: causal pasts propagate.
    Causal,
    /// Every transaction reads from a consistent *prefix* of one commit
    /// order (snapshot reads without first-committer-wins — lost updates are
    /// admitted).
    Prefix,
    /// Snapshot isolation: snapshot reads plus first-committer-wins on
    /// write-write conflicts.
    SnapshotIsolation,
    /// A total commit order explains every read (reads-last-write).
    Serializable,
}

impl Level {
    /// All levels, weakest first.
    pub const ALL: [Level; 6] = [
        Level::ReadCommitted,
        Level::ReadAtomic,
        Level::Causal,
        Level::Prefix,
        Level::SnapshotIsolation,
        Level::Serializable,
    ];

    /// The condition name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Level::ReadCommitted => "read committed",
            Level::ReadAtomic => "read atomic",
            Level::Causal => "causal consistency",
            Level::Prefix => "prefix consistency",
            Level::SnapshotIsolation => "snapshot isolation",
            Level::Serializable => "serializability",
        }
    }

    /// Inverse of [`Level::name`].
    pub fn from_name(name: &str) -> Option<Level> {
        Level::ALL.into_iter().find(|l| l.name() == name)
    }

    /// Short tag used in compact per-backend summaries.
    pub fn tag(self) -> &'static str {
        match self {
            Level::ReadCommitted => "RC",
            Level::ReadAtomic => "RA",
            Level::Causal => "Causal",
            Level::Prefix => "Prefix",
            Level::SnapshotIsolation => "SI",
            Level::Serializable => "SER",
        }
    }
}

/// Which engine settled a level's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecidedBy {
    /// The recording order itself: the hint-ordered topological order of
    /// `so ∪ wr` verified as a serial witness in one linear pass, which
    /// certifies all six levels at once and runs no search.
    Hint,
    /// The polynomial saturation rules or the bounded constrained-
    /// linearization DFS.
    #[default]
    Dfs,
    /// The per-window CDCL commit-order solver (the escalation path).
    Sat,
}

impl DecidedBy {
    /// Stable string used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DecidedBy::Hint => "hint",
            DecidedBy::Dfs => "dfs",
            DecidedBy::Sat => "sat",
        }
    }

    /// Inverse of [`DecidedBy::as_str`].
    pub fn parse(text: &str) -> Option<DecidedBy> {
        [DecidedBy::Hint, DecidedBy::Dfs, DecidedBy::Sat].into_iter().find(|d| d.as_str() == text)
    }

    /// Provenance of a verdict merged from several: the solver's as soon as
    /// any part leaned on it, the recording order's only when every part was
    /// certified by it, the search's otherwise (and for no parts at all).
    pub fn merged(parts: impl IntoIterator<Item = DecidedBy>) -> DecidedBy {
        let (mut any, mut all_hint) = (false, true);
        for part in parts {
            match part {
                DecidedBy::Sat => return DecidedBy::Sat,
                DecidedBy::Dfs => all_hint = false,
                DecidedBy::Hint => {}
            }
            any = true;
        }
        if any && all_hint {
            DecidedBy::Hint
        } else {
            DecidedBy::Dfs
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the auditor concluded about one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The level holds; the witness explains why (usually a commit order).
    Pass {
        /// Human-readable witness.
        witness: String,
    },
    /// The level is violated; the violation names the offending transactions.
    Fail {
        /// Human-readable violation.
        violation: String,
    },
    /// The bounded search gave up before finding a witness or exhausting the
    /// space (only possible for the NP-hard SI/SER searches).
    Unknown {
        /// Why the search stopped.
        reason: String,
        /// DFS states explored before the budget ran out.
        states: u64,
        /// The strongest level already *refuted* for this history, if any —
        /// the search did not even need to settle anything below it.
        refuted: Option<Level>,
        /// The budget a decisive retry should start from (the exhausted
        /// search visited [`Outcome::Unknown::states`] states, so the next
        /// attempt needs strictly more).
        next_budget: u64,
    },
}

impl Outcome {
    /// `true` for [`Outcome::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }

    /// `true` for [`Outcome::Fail`].
    pub fn failed(&self) -> bool {
        matches!(self, Outcome::Fail { .. })
    }

    /// An [`Outcome::Unknown`] with context: how far the search got, what is
    /// already refuted, and where to point the next budget.
    pub fn unknown(reason: impl Into<String>, states: u64, refuted: Option<Level>) -> Outcome {
        Outcome::Unknown {
            reason: reason.into(),
            states,
            refuted,
            // The exhausted search proves the budget was ≤ states; quadruple
            // it so a retry meaningfully extends the explored space.
            next_budget: states.saturating_mul(4).max(1),
        }
    }
}

/// One level's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelReport {
    /// The level checked.
    pub level: Level,
    /// The verdict.
    pub outcome: Outcome,
    /// Which engine settled the verdict.
    pub decided_by: DecidedBy,
}

impl LevelReport {
    /// A verdict settled by the default polynomial/DFS pipeline.
    pub fn new(level: Level, outcome: Outcome) -> LevelReport {
        LevelReport { level, outcome, decided_by: DecidedBy::Dfs }
    }

    /// The same verdict re-attributed to the SAT escalation path.
    pub fn via_sat(self) -> LevelReport {
        self.via(DecidedBy::Sat)
    }

    /// The same verdict re-attributed to `by`.
    pub fn via(mut self, by: DecidedBy) -> LevelReport {
        self.decided_by = by;
        self
    }
}

impl LevelReport {
    /// The `[hint]` / `[sat]` suffix of a decided verdict line; the default
    /// search engine is left unmarked.
    fn write_provenance(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.decided_by {
            DecidedBy::Dfs => Ok(()),
            by => write!(f, "  [{}]", by.as_str()),
        }
    }
}

impl fmt::Display for LevelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Outcome::Pass { witness } => {
                write!(f, "{:<20} PASS  {}", self.level.name(), witness)?;
                self.write_provenance(f)
            }
            Outcome::Fail { violation } => {
                write!(f, "{:<20} FAIL  {}", self.level.name(), violation)?;
                self.write_provenance(f)
            }
            Outcome::Unknown { reason, states, refuted, next_budget } => {
                write!(
                    f,
                    "{:<20} ?     {reason} ({states} states explored; retry with budget ≥ {next_budget}",
                    self.level.name(),
                )?;
                if let Some(refuted) = refuted {
                    write!(f, "; {} already refuted", refuted.name())?;
                }
                f.write_str(")")
            }
        }
    }
}

/// The full audit of one history: a verdict per level plus the history shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Shape summary of the audited history.
    pub shape: String,
    /// Per-level verdicts, weakest level first.
    pub levels: Vec<LevelReport>,
}

impl AuditReport {
    /// The outcome for a level.
    pub fn outcome(&self, level: Level) -> Option<&Outcome> {
        self.levels.iter().find(|l| l.level == level).map(|l| &l.outcome)
    }

    /// `true` if the level was checked and passed.
    pub fn passes(&self, level: Level) -> bool {
        self.outcome(level).is_some_and(Outcome::passed)
    }

    /// `true` if the level was checked and failed.
    pub fn fails(&self, level: Level) -> bool {
        self.outcome(level).is_some_and(Outcome::failed)
    }

    /// The engine the report as a whole leans on ([`DecidedBy::merged`] over
    /// its levels): [`DecidedBy::Hint`] exactly when the recording order
    /// certified every level.
    pub fn decided_by(&self) -> DecidedBy {
        DecidedBy::merged(self.levels.iter().map(|l| l.decided_by))
    }

    /// Compact one-line summary: `RC ✓ | RA ✓ | Causal ✓ | SI ✗ | SER ✗`.
    pub fn summary(&self) -> String {
        self.levels
            .iter()
            .map(|l| {
                let mark = match l.outcome {
                    Outcome::Pass { .. } => "✓",
                    Outcome::Fail { .. } => "✗",
                    Outcome::Unknown { .. } => "?",
                };
                format!("{} {}", l.level.tag(), mark)
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// Machine-readable form, for CI artifacts and the audit CLI's `--json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"shape\":\"{}\",", json::escape(&self.shape)));
        out.push_str(&format!("\"summary\":\"{}\",", json::escape(&self.summary())));
        out.push_str("\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (outcome, detail) = match &l.outcome {
                Outcome::Pass { witness } => ("pass", witness.clone()),
                Outcome::Fail { violation } => ("fail", violation.clone()),
                Outcome::Unknown { reason, .. } => ("unknown", reason.clone()),
            };
            out.push_str(&format!(
                "{{\"level\":\"{}\",\"tag\":\"{}\",\"outcome\":\"{outcome}\",\"decided_by\":\"{}\",\"detail\":\"{}\"",
                l.level.name(),
                l.level.tag(),
                l.decided_by.as_str(),
                json::escape(&detail)
            ));
            if let Outcome::Unknown { states, refuted, next_budget, .. } = &l.outcome {
                out.push_str(&format!(",\"states\":{states},\"next_budget\":{next_budget}"));
                if let Some(refuted) = refuted {
                    out.push_str(&format!(",\"refuted\":\"{}\"", refuted.name()));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Read back what [`AuditReport::to_json`] wrote; `summary` and each
    /// level's `tag` are derived, so they are not read.
    pub fn from_json(value: &Value) -> Result<AuditReport, ParseError> {
        fn level_named(value: &Value) -> Option<Level> {
            value.as_str().and_then(Level::from_name)
        }
        let levels = value.field("levels", Value::as_arr)?.iter().map(|l| {
            let detail = l.field("detail", Value::as_str)?.to_string();
            let outcome = match l.field("outcome", Value::as_str)? {
                "pass" => Outcome::Pass { witness: detail },
                "fail" => Outcome::Fail { violation: detail },
                "unknown" => Outcome::Unknown {
                    reason: detail,
                    states: l.field("states", Value::as_u64)?,
                    refuted: l
                        .get("refuted")
                        .map(|_| l.field("refuted", level_named))
                        .transpose()?,
                    next_budget: l.field("next_budget", Value::as_u64)?,
                },
                other => {
                    return Err(ParseError { message: format!("unknown outcome kind {other:?}") })
                }
            };
            Ok(LevelReport {
                level: l.field("level", level_named)?,
                outcome,
                decided_by: l.field("decided_by", |by| by.as_str().and_then(DecidedBy::parse))?,
            })
        });
        Ok(AuditReport {
            shape: value.field("shape", Value::as_str)?.to_string(),
            levels: levels.collect::<Result<_, _>>()?,
        })
    }
}

/// Fold the outcomes of a run's parts — the windows of a stream, the lanes
/// of a sharded run — into the whole run's outcome for one level.
///
/// The first `Fail` wins, prefixed with its part's label, and no `Unknown`
/// before or after it can downgrade it (every topology's convictions are
/// sound).  Otherwise the `Unknown`s aggregate into one — states summed,
/// the largest `next_budget`, any `refuted`, worded by
/// `inconclusive(count, "first label: first reason")`.  Otherwise the pass
/// is `attested()` per part, never certified end to end.
pub(crate) fn fold_outcomes<'a>(
    parts: impl IntoIterator<Item = (String, &'a Outcome)>,
    inconclusive: impl FnOnce(usize, &str) -> String,
    attested: impl FnOnce() -> String,
) -> Outcome {
    let mut unknowns = 0usize;
    let (mut first_label, mut first_reason) = (String::new(), String::new());
    let (mut states_total, mut budget_max, mut refuted_any) = (0u64, 0u64, None);
    for (label, outcome) in parts {
        match outcome {
            Outcome::Fail { violation } => {
                return Outcome::Fail { violation: format!("{label}: {violation}") }
            }
            Outcome::Unknown { reason, states, refuted, next_budget } => {
                if unknowns == 0 {
                    first_label = label;
                }
                unknowns += 1;
                states_total = states_total.saturating_add(*states);
                budget_max = budget_max.max(*next_budget);
                refuted_any = refuted_any.or(*refuted);
                if first_reason.is_empty() {
                    first_reason.clone_from(reason);
                }
            }
            Outcome::Pass { .. } => {}
        }
    }
    if unknowns == 0 {
        return Outcome::Pass { witness: attested() };
    }
    Outcome::Unknown {
        reason: inconclusive(unknowns, &format!("{first_label}: {first_reason}")),
        states: states_total,
        refuted: refuted_any,
        next_budget: budget_max,
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "audit of {}", self.shape)?;
        for level in &self.levels {
            writeln!(f, "  {level}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditReport {
        AuditReport {
            shape: "2 sessions, 3 transactions, 2 variables".into(),
            levels: vec![
                LevelReport::new(
                    Level::ReadCommitted,
                    Outcome::Pass { witness: "order: init < s0:0".into() },
                ),
                LevelReport::new(
                    Level::Serializable,
                    Outcome::Fail { violation: "lost update on v0".into() },
                )
                .via_sat(),
                LevelReport::new(
                    Level::SnapshotIsolation,
                    Outcome::unknown("budget exhausted", 1_000, Some(Level::Serializable)),
                ),
            ],
        }
    }

    #[test]
    fn lookup_and_summary() {
        let r = sample();
        assert!(r.passes(Level::ReadCommitted));
        assert!(r.fails(Level::Serializable));
        assert!(!r.passes(Level::SnapshotIsolation));
        assert!(!r.fails(Level::SnapshotIsolation));
        assert!(r.outcome(Level::Causal).is_none());
        assert_eq!(r.summary(), "RC ✓ | SER ✗ | SI ?");
        assert!(r.to_string().contains("PASS"));
        assert!(r.to_string().contains("FAIL"));
    }

    #[test]
    fn unknown_carries_actionable_context() {
        let r = sample();
        let Outcome::Unknown { states, refuted, next_budget, .. } =
            r.outcome(Level::SnapshotIsolation).unwrap()
        else {
            panic!("expected unknown");
        };
        assert_eq!(*states, 1_000);
        assert_eq!(*refuted, Some(Level::Serializable));
        assert_eq!(*next_budget, 4_000);
        let line = r.to_string();
        assert!(line.contains("1000 states explored"), "{line}");
        assert!(line.contains("retry with budget ≥ 4000"), "{line}");
        assert!(line.contains("serializability already refuted"), "{line}");
    }

    #[test]
    fn json_round_trips_the_verdict_vocabulary() {
        let read = |r: &AuditReport| AuditReport::from_json(&json::parse(&r.to_json()).unwrap());
        let mut r = sample();
        assert_eq!(read(&r), Ok(r.clone()));
        // Every level, every provenance, an unknown with nothing refuted.
        r.levels.push(
            LevelReport::new(Level::Prefix, Outcome::unknown("\"quoted\"\nreason", 7, None))
                .via(DecidedBy::Hint),
        );
        r.levels.extend(
            [Level::ReadAtomic, Level::Causal]
                .map(|level| LevelReport::new(level, Outcome::Pass { witness: "w".into() })),
        );
        assert_eq!(read(&r), Ok(r.clone()));
        let json = r.to_json().replace("\"hint\"", "\"oracle\"");
        assert!(AuditReport::from_json(&json::parse(&json).unwrap()).is_err());
    }

    #[test]
    fn the_fold_never_downgrades_a_fail_and_aggregates_unknowns() {
        let pass = Outcome::Pass { witness: "w".into() };
        let fail = Outcome::Fail { violation: "lost update on v0".into() };
        let small = Outcome::unknown("budget exhausted", 10, None);
        let large = Outcome::unknown("still exhausted", 1_000, Some(Level::Serializable));
        let fold = |parts: &[&Outcome]| {
            fold_outcomes(
                parts.iter().enumerate().map(|(i, &o)| (format!("part {i}"), o)),
                |count, first| format!("{count} of {} inconclusive (first: {first})", parts.len()),
                || "attested".to_string(),
            )
        };
        // A conviction survives Unknowns on either side of it.
        for parts in [[&small, &fail, &large], [&fail, &small, &large], [&small, &large, &fail]] {
            let at = parts.iter().position(|o| o.failed()).unwrap();
            assert_eq!(
                fold(&parts),
                Outcome::Fail { violation: format!("part {at}: lost update on v0") }
            );
        }
        // Unknowns: states summed, the larger retry budget, any refutation,
        // the first part's label and reason.
        let Outcome::Unknown { reason, states, refuted, next_budget } =
            fold(&[&pass, &small, &large])
        else {
            panic!("two unknowns and no fail must stay unknown");
        };
        assert_eq!(reason, "2 of 3 inconclusive (first: part 1: budget exhausted)");
        assert_eq!(states, 1_010);
        assert_eq!(refuted, Some(Level::Serializable));
        let Outcome::Unknown { next_budget: large_budget, .. } = &large else { unreachable!() };
        assert_eq!(next_budget, *large_budget);
        assert_eq!(fold(&[&pass, &pass]), Outcome::Pass { witness: "attested".into() });
    }

    #[test]
    fn level_vocabulary_is_stable() {
        assert_eq!(Level::ALL.len(), 6);
        assert_eq!(Level::Serializable.name(), "serializability");
        assert_eq!(format!("{}", Level::Causal), "causal consistency");
        assert_eq!(Level::SnapshotIsolation.tag(), "SI");
        assert_eq!(Level::Prefix.tag(), "Prefix");
        assert_eq!(Level::Prefix.name(), "prefix consistency");
        // The hierarchy ordering places Prefix between Causal and SI.
        assert!(Level::Causal < Level::Prefix && Level::Prefix < Level::SnapshotIsolation);
    }

    #[test]
    fn provenance_round_trips_and_merges() {
        use DecidedBy::{Dfs, Hint, Sat};
        for by in [Hint, Dfs, Sat] {
            assert_eq!(DecidedBy::parse(by.as_str()), Some(by));
        }
        assert_eq!(DecidedBy::parse("oracle"), None);
        assert_eq!(DecidedBy::merged([Hint, Hint]), Hint);
        assert_eq!(DecidedBy::merged([Hint, Dfs, Hint]), Dfs, "one searched part un-certifies");
        assert_eq!(DecidedBy::merged([Hint, Dfs, Sat]), Sat);
        assert_eq!(DecidedBy::merged([]), Dfs, "a vacuous pass was certified by nothing");

        let mut r = sample();
        assert_eq!(r.decided_by(), Sat);
        for l in &mut r.levels {
            l.decided_by = Hint;
        }
        assert_eq!(r.decided_by(), Hint);
        assert!(r.to_json().contains("\"decided_by\":\"hint\""));
        assert!(r.to_string().contains("PASS  order: init < s0:0  [hint]"), "{r}");
    }

    #[test]
    fn decided_by_is_reported_in_json_and_display() {
        let r = sample();
        let json = r.to_json();
        assert!(json.contains("\"decided_by\":\"sat\""), "{json}");
        assert!(json.contains("\"decided_by\":\"dfs\""), "{json}");
        assert!(r.to_string().contains("[sat]"), "{r}");
    }
}
