//! Renderers regenerating the content of the paper's Figures 1–6 from a
//! [`ConstructionReport`].
//!
//! The paper's figures are not performance plots — they are the experiment: Figures 1
//! and 2 define the critical steps `s1`/`s2`, Figures 3 and 4 the executions β and β′,
//! and Figures 5 and 6 tabulate the values each transaction reads and writes in those
//! executions.  Each `figure*` function returns a plain-text rendering (plus the
//! underlying data lives in the report), so `examples/theorem_walkthrough.rs` can print
//! the same rows the paper shows and [`t7_deviations`] can diff them against the
//! paper's values.

use crate::construction::{ConstructionReport, CriticalStep, ReadTable};
use crate::transactions::tx;
use tm_model::{Scenario, TxId};

fn render_critical_step(label: &str, cs: &CriticalStep, scenario: &Scenario) -> String {
    let writer = &scenario.tx(cs.writer).name;
    let observer = &scenario.tx(cs.observer).name;
    format!(
        "{label}: after {prefix} solo steps of {writer} (α), the next step — a {prim} on base \
         object `{obj}` — is critical: {observer}'s solo read of {item} returns {before} just \
         before it and {after} just after it.",
        label = label,
        prefix = cs.prefix_steps,
        writer = writer,
        prim = cs.step.prim.mnemonic(),
        obj = cs.object(),
        observer = observer,
        item = cs.item,
        before = cs.value_before,
        after = cs.value_after,
    )
}

/// Figure 1: executions α1, α3, α′3 and the critical step `s1`.
pub fn figure1(report: &ConstructionReport) -> String {
    match &report.s1 {
        Some(s1) => render_critical_step("Figure 1 (s1)", s1, &report.scenario),
        None => format!(
            "Figure 1 (s1): no critical step exists for algorithm `{}` — {}",
            report.algorithm,
            report.obstacles.iter().map(|o| o.to_string()).collect::<Vec<_>>().join("; ")
        ),
    }
}

/// Figure 2: executions α2, α5, α′5 and the critical step `s2`.
pub fn figure2(report: &ConstructionReport) -> String {
    match &report.s2 {
        Some(s2) => render_critical_step("Figure 2 (s2)", s2, &report.scenario),
        None => format!(
            "Figure 2 (s2): not reached for algorithm `{}` (s1 missing or obstacles: {})",
            report.algorithm,
            report.obstacles.iter().map(|o| o.to_string()).collect::<Vec<_>>().join("; ")
        ),
    }
}

/// Figure 3: the shape of execution β.
pub fn figure3(report: &ConstructionReport) -> String {
    match (&report.s1, &report.s2, &report.beta) {
        (Some(s1), Some(s2), Some(beta)) => format!(
            "Figure 3 (β): α1 ({} steps of T1) · α2 ({} steps of T2) · s1 ({} on `{}`) · α3 (T3 \
             solo) · α4 (T4 solo) · s2 ({} on `{}`) · α7 (T7 solo) — {} events, outcomes: {}",
            s1.prefix_steps,
            s2.prefix_steps,
            s1.step.prim.mnemonic(),
            s1.object(),
            s2.step.prim.mnemonic(),
            s2.object(),
            beta.execution.len(),
            beta.summary(&report.scenario),
        ),
        _ => format!("Figure 3 (β): not assembled for algorithm `{}`", report.algorithm),
    }
}

/// Figure 4: the shape of execution β′.
pub fn figure4(report: &ConstructionReport) -> String {
    match (&report.s1, &report.s2, &report.beta_prime) {
        (Some(s1), Some(s2), Some(bp)) => format!(
            "Figure 4 (β′): α1 ({} steps of T1) · α2 ({} steps of T2) · s2 ({} on `{}`) · α5 (T5 \
             solo) · α6 (T6 solo) · s1 ({} on `{}`) · α′7 (T7 solo) — {} events, outcomes: {}; \
             p7-indistinguishable from β: {}",
            s1.prefix_steps,
            s2.prefix_steps,
            s2.step.prim.mnemonic(),
            s2.object(),
            s1.step.prim.mnemonic(),
            s1.object(),
            bp.execution.len(),
            bp.summary(&report.scenario),
            report.p7_indistinguishable.map(|b| b.to_string()).unwrap_or_else(|| "n/a".to_string()),
        ),
        _ => format!("Figure 4 (β′): not assembled for algorithm `{}`", report.algorithm),
    }
}

fn render_table(title: &str, table: &ReadTable, scenario: &Scenario) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<4} {:<11} {:<28} {}\n",
        "tx", "outcome", "reads (item: value)", "writes (item := value)"
    ));
    for (tx, outcome, reads, writes) in &table.rows {
        let name = &scenario.tx(*tx).name;
        let reads_s = reads.iter().map(|(i, v)| format!("{i}: {v}")).collect::<Vec<_>>().join(", ");
        let writes_s =
            writes.iter().map(|(i, v)| format!("{i} := {v}")).collect::<Vec<_>>().join(", ");
        out.push_str(&format!("{name:<4} {:<11} {reads_s:<28} {writes_s}\n", outcome.to_string()));
    }
    out
}

/// Figure 5: values read and written by each transaction in β.
pub fn figure5(report: &ConstructionReport) -> String {
    match &report.beta_table {
        Some(t) => render_table("Figure 5 — values read/written in β", t, &report.scenario),
        None => format!("Figure 5: β not assembled for algorithm `{}`", report.algorithm),
    }
}

/// Figure 6: values read and written by each transaction in β′.
pub fn figure6(report: &ConstructionReport) -> String {
    match &report.beta_prime_table {
        Some(t) => render_table("Figure 6 — values read/written in β′", t, &report.scenario),
        None => format!("Figure 6: β′ not assembled for algorithm `{}`", report.algorithm),
    }
}

/// The values the *paper* says T7 must read in β and β′ under weak adaptive
/// consistency (Figures 5 and 6): used by [`t7_deviations`] to contrast "what WAC would
/// force" against "what the candidate algorithm actually returned".
pub fn paper_expected_t7_reads() -> (ExpectedReads, ExpectedReads) {
    (vec![("a", 2), ("c1", 1), ("c2", 2)], vec![("a", 1), ("c1", 1), ("c2", 2)])
}

/// `(item, value)` pairs the paper forces T7 to read in one execution.
pub type ExpectedReads = Vec<(&'static str, i64)>;

/// Compare a construction's T7 reads against the paper's WAC-forced values; returns
/// the mismatches for β and β′ (a non-empty list is exactly the consistency
/// give-away of the candidate algorithm).
pub fn t7_deviations(report: &ConstructionReport) -> (Vec<String>, Vec<String>) {
    let (exp_beta, exp_beta_prime) = paper_expected_t7_reads();
    let check = |table: &Option<ReadTable>, expected: &[(&str, i64)]| -> Vec<String> {
        let Some(table) = table else { return vec!["execution not assembled".to_string()] };
        expected
            .iter()
            .filter_map(|(item, want)| {
                let got = table.read(tx::T7, item);
                if got == Some(*want) {
                    None
                } else {
                    Some(format!(
                        "T7 read {item} = {} but weak adaptive consistency forces {want}",
                        got.map(|v| v.to_string()).unwrap_or_else(|| "⊥".to_string())
                    ))
                }
            })
            .collect()
    };
    (check(&report.beta_table, &exp_beta), check(&report.beta_prime_table, &exp_beta_prime))
}

/// Render all six figures in order.
pub fn all_figures(report: &ConstructionReport) -> String {
    [
        figure1(report),
        figure2(report),
        figure3(report),
        figure4(report),
        figure5(report),
        figure6(report),
    ]
    .join("\n\n")
}

/// Helper used by benches: the transaction ids of the seven paper transactions.
pub fn paper_transactions() -> Vec<TxId> {
    vec![tx::T1, tx::T2, tx::T3, tx::T4, tx::T5, tx::T6, tx::T7]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::Construction;
    use tm_algorithms::{OfDapCandidate, PramTm};

    #[test]
    fn figures_render_for_a_completed_construction() {
        let algo = OfDapCandidate::new();
        let report = Construction::new(&algo).build();
        let all = all_figures(&report);
        assert!(all.contains("Figure 1"));
        assert!(all.contains("Figure 6"));
        assert!(all.contains("critical"));
        assert!(figure5(&report).contains("T7"));
        assert!(figure3(&report).contains("α1"));
        assert!(figure4(&report).contains("p7-indistinguishable from β: true"));
    }

    #[test]
    fn figures_degrade_gracefully_when_the_construction_fails() {
        let algo = PramTm::new();
        let report = Construction::new(&algo).build();
        assert!(figure1(&report).contains("no critical step"));
        assert!(figure3(&report).contains("not assembled"));
        assert!(figure5(&report).contains("not assembled"));
    }

    #[test]
    fn t7_deviations_expose_the_candidates_consistency_failure() {
        let algo = OfDapCandidate::new();
        let report = Construction::new(&algo).build();
        let (beta_dev, _beta_prime_dev) = t7_deviations(&report);
        // The candidate publishes write sets item by item, so T7 must deviate from the
        // WAC-forced values in β (it misses T1's c1 and T2's c2).
        assert!(!beta_dev.is_empty());
        assert!(beta_dev.iter().any(|d| d.contains("c1") || d.contains("c2")));
    }

    #[test]
    fn paper_expected_values_match_the_paper() {
        let (beta, beta_prime) = paper_expected_t7_reads();
        assert_eq!(beta, vec![("a", 2), ("c1", 1), ("c2", 2)]);
        assert_eq!(beta_prime, vec![("a", 1), ("c1", 1), ("c2", 2)]);
        assert_eq!(paper_transactions().len(), 7);
    }
}
