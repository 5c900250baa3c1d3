//! Verify-first against search-only, differentially: every audit entry point
//! first tries the recording order as a serial witness and only searches
//! when that fails.  The shortcut may only ever turn work into a `Pass` the
//! search would also have reached — so on seeded generator histories of
//! every plant kind, through the batch, windowed and sharded engines, the
//! verdict cells (per window, per lane and merged) and the first conviction
//! must be the ones the search-only engine produces.

use tm_audit::{
    audit_by_search, audit_sharded, audit_streamed, audit_with_options, AuditOptions, AuditReport,
    DecidedBy, Outcome, ShardConfig, ShardedAuditor, StreamReport, WindowConfig, WindowedAuditor,
};
use tm_history::{generate, GenConfig};

const SEEDS: u64 = 50;
const SHARDS: usize = 2;

/// `P`ass / `F`ail / `?` per level, weakest first.
fn cells(report: &AuditReport) -> String {
    report
        .levels
        .iter()
        .map(|l| match l.outcome {
            Outcome::Pass { .. } => 'P',
            Outcome::Fail { .. } => 'F',
            Outcome::Unknown { .. } => '?',
        })
        .collect()
}

fn hinted_cells(report: &AuditReport) -> usize {
    report.levels.iter().filter(|l| l.decided_by == DecidedBy::Hint).count()
}

fn window() -> WindowConfig {
    WindowConfig { overlap: 6, ..WindowConfig::sized(32) }
}

/// What one plant kind's seeds added up to.
#[derive(Default)]
struct Tally {
    hinted: usize,
    convicted: usize,
}

fn assert_streams_agree(
    certified: &StreamReport,
    searched: &StreamReport,
    tally: &mut Tally,
    what: &str,
) {
    assert_eq!(certified.windows.len(), searched.windows.len(), "{what}");
    for (c, s) in certified.windows.iter().zip(&searched.windows) {
        assert_eq!(cells(&c.report), cells(&s.report), "{what} window {}", c.index);
        assert_eq!(hinted_cells(&s.report), 0, "{what}: the reference side must only search");
        tally.hinted += hinted_cells(&c.report);
    }
    assert_eq!(cells(&certified.merged), cells(&searched.merged), "{what} merged");
    assert_eq!(certified.first_conviction, searched.first_conviction, "{what}");
    assert_eq!(certified.evicted_attributions, searched.evicted_attributions, "{what}");
}

/// Run `SEEDS` histories of one plant kind through all three engines, both
/// ways.
fn differential(kind: &str, plant: impl Fn(&mut GenConfig)) -> Tally {
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        let mut config = GenConfig { seed, shard_align: Some(SHARDS), ..GenConfig::default() };
        plant(&mut config);
        let history = generate(&config).history;
        let what = format!("{kind} seed {seed}");

        let options = AuditOptions::default();
        let batch = audit_with_options(&history, &options);
        let batch_searched = audit_by_search(&history, &options);
        assert_eq!(cells(&batch), cells(&batch_searched), "{what} batch");
        assert_eq!(hinted_cells(&batch_searched), 0, "{what} batch");
        tally.hinted += hinted_cells(&batch);

        let streamed = audit_streamed(&history, window());
        let mut searching =
            WindowedAuditor::new_searching(history.n_vars, history.initial, window());
        for (session, txn) in history.recording_order() {
            searching.push(session, txn.clone());
        }
        assert_streams_agree(
            &streamed,
            &searching.finish(),
            &mut tally,
            &format!("{what} windowed"),
        );
        tally.convicted += usize::from(streamed.first_conviction.is_some());

        let shard_config = ShardConfig::new(SHARDS, window());
        let sharded = audit_sharded(&history, shard_config);
        let mut searching =
            ShardedAuditor::new_searching(history.n_vars, history.initial, shard_config);
        for (session, txn) in history.recording_order() {
            searching.push(session, txn.clone());
        }
        let searched = searching.finish();
        for (c, s) in sharded.partitions.iter().zip(&searched.partitions) {
            let lane = format!("{what} sharded lane {}", c.partition);
            assert_streams_agree(&c.stream, &s.stream, &mut tally, &lane);
        }
        assert_eq!(cells(&sharded.merged), cells(&searched.merged), "{what} sharded merged");
        let conviction = |r: &tm_audit::ShardedStreamReport| {
            r.first_conviction.as_ref().map(|c| (c.partition, c.escalation, c.conviction.clone()))
        };
        assert_eq!(conviction(&sharded), conviction(&searched), "{what} sharded");
    }
    tally
}

#[test]
fn healthy_histories_are_certified_to_the_searched_verdicts() {
    let tally = differential("healthy", |_| {});
    assert_eq!(tally.convicted, 0);
    // Batch and every unsharded window of a healthy history certify: six
    // cells each, on top of whatever the sharded lanes certified.
    assert!(tally.hinted >= SEEDS as usize * 6 * 6, "only {} cells certified", tally.hinted);
}

#[test]
fn lost_update_plants_are_convicted_identically() {
    let tally = differential("lost update", |c| c.lost_update_per_mille = 40);
    assert!(tally.convicted > SEEDS as usize / 2 && tally.hinted > 0, "{}", tally.convicted);
}

#[test]
fn write_skew_plants_are_convicted_identically() {
    let tally = differential("write skew", |c| c.write_skew_per_mille = 40);
    assert!(tally.convicted > SEEDS as usize / 2 && tally.hinted > 0, "{}", tally.convicted);
}

#[test]
fn causal_cycle_plants_are_convicted_identically() {
    let tally = differential("causal cycle", |c| c.causal_cycle_per_mille = 30);
    assert!(tally.convicted > SEEDS as usize / 2 && tally.hinted > 0, "{}", tally.convicted);
}

#[test]
fn long_fork_plants_are_convicted_identically() {
    let tally = differential("long fork", |c| c.long_fork_per_mille = 30);
    assert!(tally.convicted > SEEDS as usize / 2 && tally.hinted > 0, "{}", tally.convicted);
}
