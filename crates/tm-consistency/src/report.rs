//! Uniform result types for all consistency checkers.

use std::fmt;

/// The outcome of checking one consistency condition on one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Name of the condition ("snapshot isolation", "weak adaptive consistency", …).
    pub condition: &'static str,
    /// Whether the execution satisfies the condition.
    pub satisfied: bool,
    /// A human-readable witness (serialization order, partition, `com(α)` choice) when
    /// the condition is satisfied.
    pub witness: Option<String>,
    /// A human-readable explanation of why no witness exists, when it is violated.
    pub violation: Option<String>,
}

impl CheckResult {
    /// A satisfied result with a witness.
    pub fn satisfied(condition: &'static str, witness: impl Into<String>) -> Self {
        CheckResult { condition, satisfied: true, witness: Some(witness.into()), violation: None }
    }

    /// A violated result with an explanation.
    pub fn violated(condition: &'static str, violation: impl Into<String>) -> Self {
        CheckResult {
            condition,
            satisfied: false,
            witness: None,
            violation: Some(violation.into()),
        }
    }
}

impl fmt::Display for CheckResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.satisfied {
            write!(f, "{}: satisfied", self.condition)?;
            if let Some(w) = &self.witness {
                write!(f, " [{w}]")?;
            }
        } else {
            write!(f, "{}: VIOLATED", self.condition)?;
            if let Some(v) = &self.violation {
                write!(f, " ({v})")?;
            }
        }
        Ok(())
    }
}

/// A serialization-order witness shared by the simulator-side checkers and the
/// runtime-history auditors (`tm-audit`): the names of the transactions in
/// commit order.
///
/// Audited runs reach millions of transactions, so [`fmt::Display`] renders a
/// bounded prefix/suffix; the full order stays available in [`Self::order`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOrderWitness {
    /// Transaction names, first-committed first.
    pub order: Vec<String>,
}

impl CommitOrderWitness {
    /// How many leading/trailing entries `Display` shows before eliding.
    const SHOWN: usize = 4;

    /// Wrap an order.
    pub fn new(order: Vec<String>) -> Self {
        CommitOrderWitness { order }
    }

    /// Number of transactions in the witness.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the witness is empty (vacuously consistent history).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// What [`fmt::Display`] prints for an order of `len` transactions,
    /// asking `name` only for the positions that are shown — a window's
    /// auditor renders a witness per verdict and must not name thousands of
    /// transactions to print eight.
    pub fn render(len: usize, name: impl Fn(usize) -> String) -> String {
        let join = |range: std::ops::Range<usize>| range.map(&name).collect::<Vec<_>>().join(" < ");
        if len <= 2 * Self::SHOWN {
            format!("commit order: {}", join(0..len))
        } else {
            format!(
                "commit order ({len} txns): {} < … < {}",
                join(0..Self::SHOWN),
                join(len - Self::SHOWN..len)
            )
        }
    }
}

impl fmt::Display for CommitOrderWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&Self::render(self.order.len(), |i| self.order[i].clone()))
    }
}

/// A collection of check results for one execution: one row of the
/// condition × algorithm × scenario matrix reported by the experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConditionMatrix {
    results: Vec<CheckResult>,
}

impl ConditionMatrix {
    /// An empty matrix row.
    pub fn new() -> Self {
        ConditionMatrix::default()
    }

    /// Append one result.
    pub fn push(&mut self, result: CheckResult) {
        self.results.push(result);
    }

    /// All results.
    pub fn results(&self) -> &[CheckResult] {
        &self.results
    }

    /// Look up the result for a condition by name.
    pub fn get(&self, condition: &str) -> Option<&CheckResult> {
        self.results.iter().find(|r| r.condition == condition)
    }

    /// Whether a given condition is satisfied (false when absent).
    pub fn is_satisfied(&self, condition: &str) -> bool {
        self.get(condition).map(|r| r.satisfied).unwrap_or(false)
    }

    /// Names of all violated conditions.
    pub fn violated(&self) -> Vec<&'static str> {
        self.results.iter().filter(|r| !r.satisfied).map(|r| r.condition).collect()
    }

    /// A compact single-line rendering: `✓ condition / ✗ condition / …`.
    pub fn summary(&self) -> String {
        self.results
            .iter()
            .map(|r| format!("{} {}", if r.satisfied { "✓" } else { "✗" }, r.condition))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

impl fmt::Display for ConditionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.results {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let mut m = ConditionMatrix::new();
        m.push(CheckResult::satisfied("snapshot isolation", "σ = T1.w T2.gr"));
        m.push(CheckResult::violated("serializability", "no legal order"));
        assert!(m.is_satisfied("snapshot isolation"));
        assert!(!m.is_satisfied("serializability"));
        assert!(!m.is_satisfied("unknown condition"));
        assert_eq!(m.violated(), vec!["serializability"]);
        assert_eq!(m.results().len(), 2);
        assert!(m.get("serializability").unwrap().violation.is_some());
    }

    #[test]
    fn renders_humanely() {
        let ok = CheckResult::satisfied("pram", "order: T1 T2");
        let bad = CheckResult::violated("opacity", "T3 reads torn state");
        assert!(ok.to_string().contains("satisfied"));
        assert!(bad.to_string().contains("VIOLATED"));
        let mut m = ConditionMatrix::new();
        m.push(ok);
        m.push(bad);
        let s = m.summary();
        assert!(s.contains("✓ pram"));
        assert!(s.contains("✗ opacity"));
        assert!(m.to_string().contains("pram"));
    }
}
