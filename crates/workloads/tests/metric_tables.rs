//! README's two metric tables are the registry: the names in their first
//! columns are exactly the series an `Stm`, a `WindowedAuditor` and a
//! `StreamMerger` register once metrics are on.  A series added, renamed or
//! dropped without README following fails here.
//!
//! The test flips the process-wide metrics switch, so it is the only test
//! in this binary.

use std::collections::BTreeSet;
use stm_runtime::{registry, Stm};
use tm_audit::{StreamMerger, WindowConfig, WindowedAuditor};

/// The backticked first-column names of the README table that follows the
/// line starting with `caption`.
fn readme_table(readme: &str, caption: &str) -> BTreeSet<String> {
    let rows = readme
        .lines()
        .skip_while(|line| !line.starts_with(caption))
        .skip(1)
        .skip_while(|line| line.is_empty())
        .take_while(|line| line.starts_with('|'))
        .skip(2);
    let names: BTreeSet<String> = rows
        .map(|row| {
            let cell = row.split('|').nth(1).expect("a first column").trim();
            cell.trim_matches('`').to_string()
        })
        .collect();
    assert!(!names.is_empty(), "README.md has no table after {caption:?}");
    names
}

fn registered() -> BTreeSet<String> {
    tm_telemetry::global().snapshot().metrics.into_iter().map(|m| m.name).collect()
}

#[test]
fn readme_metric_tables_are_the_registry() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("reading README.md");
    tm_telemetry::set_enabled(true);

    let _stm = Stm::new(registry::TL2_BLOCKING);
    let runtime = registered();
    assert_eq!(runtime, readme_table(&readme, "The runtime's series"));

    let _auditor = WindowedAuditor::new(4, 0, WindowConfig::sized(64));
    let _merger = StreamMerger::new(2);
    let auditor: BTreeSet<String> = registered().difference(&runtime).cloned().collect();
    assert_eq!(auditor, readme_table(&readme, "The auditor's series"));
}
