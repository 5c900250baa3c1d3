//! The long-running-transaction history the DFS used to convict falsely under
//! Prefix, pinned under both NP engines.
//!
//! `s3:0` reads `x₀` and writes `y`; `s0:0` reads `y₀` and writes `x` — each
//! misses the other's write, so no serial (or SI) order exists.  Prefix only
//! needs a snapshot point per transaction against one commit order: `s3:0`
//! snapshots at the start, commits after `s0:0`, and `s0:1` still reads `y₀`
//! in between.  Saturation derives `s1:2 → s3:0` (both write `y`, and `s1:3`
//! reads `s3:0`'s value after `s1:2`); that edge orders the two *commits*.
//! The DFS read it as "`s3:0` sees `s1:2`", which no order satisfies.

use tm_audit::{audit_with_options, AuditOptions, DecidedBy, Level, Outcome, SatConfig};

const FIXTURE: &str = include_str!("fixtures/prefix_long_runner.tmh");
const ORDER: &str = "s1:0 < s1:1 < s0:0 < s1:2 < s3:0 < s1:3 < s3:1 < s0:1";

#[test]
fn prefix_admits_the_long_runner_under_both_engines() {
    let history = tm_history::decode(FIXTURE).expect("the fixture is a wire document");
    let dfs = AuditOptions::default();
    let sat = AuditOptions {
        sat: Some(SatConfig { force: true, ..SatConfig::default() }),
        ..AuditOptions::default()
    };
    for (options, engine) in [(dfs, DecidedBy::Dfs), (sat, DecidedBy::Sat)] {
        let report = audit_with_options(&history, &options);
        assert_eq!(
            report.summary(),
            "RC ✓ | RA ✓ | Causal ✓ | Prefix ✓ | SI ✗ | SER ✗",
            "{engine:?}"
        );
        let prefix = report.levels.iter().find(|l| l.level == Level::Prefix).expect("Prefix cell");
        assert_eq!(prefix.decided_by, engine);
        let Outcome::Pass { witness } = &prefix.outcome else { unreachable!("summary says ✓") };
        assert!(witness.ends_with(ORDER), "{engine:?}: {witness}");
    }
}
