//! The sharded/unsharded/batch differential suite, and the adversarial
//! cross-partition synthetics.
//!
//! **Differential half** — on seeded live runs from four backends spanning
//! the consistency spectrum, for every shard count `K ∈ {1, 2, 4, 8}` the
//! sharded pipeline ([`audit_sharded`], the deterministic-schedule replay:
//! same history + config ⇒ same routing, same per-partition sub-streams,
//! same verdicts regardless of thread timing) must agree with the unsharded
//! `WindowedAuditor` and the whole-run batch auditor on all six levels —
//! including `mvcc`'s signature SI=pass ∧ SER=violation split.  Agreement
//! honors the engines' contracts: every conviction is sound (so a windowed
//! or sharded fail must be a batch fail), and a batch pass must be attested
//! by both pipelines; the one admitted asymmetry is the documented horizon
//! gap — an emergent anomaly spanning more than a window (pram-local's
//! long-fork-shaped Prefix violations are the live case) can leave the
//! windowed engines at an attested pass where batch convicts.
//!
//! **Adversarial half** — hand-built histories where the evidence straddles
//! two partitions on purpose: a cross-band write-skew pair, a cross-band
//! lost update, and a cross-band causal (stale-read) cycle must each still
//! convict (no false pass from projection — the escalation lane's bounded
//! recheck carries the conviction), while a *clean* straddling history must
//! still attest every level.  Plus the `Outcome::Unknown` discipline: a
//! budget-starved partition reports an actionable `next_budget` that flips
//! it to decided on retry, and another partition's conviction is never
//! downgraded to Unknown by the merge.

mod common;

use pcl_tm::audit::{
    audit, audit_sharded, audit_streamed, partition_of, AuditHistory, Level, Outcome, ShardConfig,
    ShardedStreamReport, StreamReport, WindowConfig,
};
use pcl_tm::stm::{registry, BackendId};

/// Small windows relative to the run, so reads routinely cross boundaries
/// (mirrors `tests/audit_window_equivalence.rs`).
fn suite_window() -> WindowConfig {
    WindowConfig { size: 30, overlap: 10, ..WindowConfig::sized(30) }
}

fn shard_cfg(shards: usize) -> ShardConfig {
    // A small route batch so test-sized streams cross the channels in many
    // batches instead of one.
    ShardConfig { route_batch: 8, ..ShardConfig::new(shards, suite_window()) }
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_three_way_agreement(
    batch: &pcl_tm::audit::AuditReport,
    stream: &StreamReport,
    sharded: &ShardedStreamReport,
    ctx: &str,
) {
    for level in Level::ALL {
        if batch.passes(level) {
            // A batch pass must be attested by both pipelines, and neither
            // may fabricate a conviction (convictions are sound by contract).
            assert!(
                stream.passes(level),
                "{ctx}: {level} batch passes but windowed does not\nbatch: {batch}\nstream: {}",
                stream.merged
            );
            assert!(
                sharded.passes(level),
                "{ctx}: {level} batch passes but sharded does not\nbatch: {batch}\nsharded: {}",
                sharded.merged
            );
        } else {
            // Batch convicted.  The windowed engines normally convict too;
            // the one legal alternative is an attested pass across the
            // documented horizon gap (the emergent anomaly spans more than
            // a window), never an Unknown at these budgets.
            assert!(
                stream.fails(level) || stream.passes(level),
                "{ctx}: {level} windowed verdict must be definite\nstream: {}",
                stream.merged
            );
            assert!(
                sharded.fails(level) || sharded.passes(level),
                "{ctx}: {level} sharded verdict must be definite\nsharded: {}",
                sharded.merged
            );
        }
    }
}

fn differential_on_backend(backend: BackendId) {
    for seed in 0..50u64 {
        let history = common::live_history(backend, 3, 40, 8, seed);
        let batch = audit(&history);
        let stream = audit_streamed(&history, suite_window());
        for shards in SHARD_COUNTS {
            let sharded = audit_sharded(&history, shard_cfg(shards));
            assert_three_way_agreement(
                &batch,
                &stream,
                &sharded,
                &format!("{backend}, seed {seed}, K={shards}"),
            );
            assert_eq!(sharded.total_txns, history.txn_count() as u64);
        }
    }
}

#[test]
fn sharded_agrees_with_unsharded_and_batch_on_tl2() {
    differential_on_backend(registry::TL2_BLOCKING);
}

#[test]
fn sharded_agrees_with_unsharded_and_batch_on_mvcc() {
    differential_on_backend(registry::MVCC);
}

#[test]
fn sharded_agrees_with_unsharded_and_batch_on_shard_lock() {
    differential_on_backend(registry::SHARD_LOCK);
}

#[test]
fn sharded_agrees_with_unsharded_and_batch_on_pram_local() {
    differential_on_backend(registry::PRAM_LOCAL);
}

/// Two variables guaranteed to live in *different* partitions under a K-way
/// split (K ≥ 2), scanning even word indices so each var is its own
/// pair-aligned band.
fn straddling_pair(shards: usize) -> (usize, usize) {
    let a = 0usize;
    let b = (2..512)
        .step_by(2)
        .find(|&v| partition_of(v, shards) != partition_of(a, shards))
        .expect("some variable must land in another partition");
    (a, b)
}

/// Four distinct even-indexed variables all owned by one partition under a
/// K-way split.
fn co_partition_vars(shards: usize, n: usize) -> Vec<usize> {
    let target = partition_of(0, shards);
    let vars: Vec<usize> =
        (0..2_048).step_by(2).filter(|&v| partition_of(v, shards) == target).take(n).collect();
    assert_eq!(vars.len(), n, "not enough co-partition variables");
    vars
}

/// The mvcc separation shape, sharded: a write-skew pair whose two variables
/// sit in different partitions.  Both members read both variables, so both
/// straddle, both escalate, and the escalation lane's polynomial same-source
/// skew refutation convicts SER — while SI passes — for every K.  This is
/// the SI=pass ∧ SER=violation split the `pcl-separation` CI gate asserts on
/// live mvcc runs, reproduced under deterministic sharded replay.
#[test]
fn cross_partition_write_skew_separates_si_from_ser_at_every_k() {
    for shards in SHARD_COUNTS {
        let (a, b) = if shards == 1 { (0, 2) } else { straddling_pair(shards) };
        let n_vars = a.max(b) + 1;
        let mut h = AuditHistory::new(n_vars, 0, 2);
        h.push_txn(0, [(a, 0), (b, 0)], [(a, 1)]);
        h.push_txn(1, [(a, 0), (b, 0)], [(b, 2)]);
        let batch = audit(&h);
        assert!(batch.passes(Level::SnapshotIsolation), "{batch}");
        assert!(batch.fails(Level::Serializable), "{batch}");
        let sharded = audit_sharded(&h, shard_cfg(shards));
        assert!(
            sharded.passes(Level::SnapshotIsolation),
            "K={shards}: SI must pass\n{}",
            sharded.merged
        );
        assert!(
            sharded.fails(Level::Serializable),
            "K={shards}: the straddling skew must convict SER\n{}",
            sharded.merged
        );
        if shards > 1 {
            assert_eq!(sharded.escalated_txns, 2, "K={shards}: both members straddle");
            let conviction = sharded.first_conviction.as_ref().expect("must convict");
            assert!(
                conviction.escalation,
                "K={shards}: only the escalation lane can see the cross-band cycle"
            );
            assert!(
                conviction.conviction.violation.contains("write skew"),
                "{}",
                conviction.conviction.violation
            );
        }
    }
}

/// A lost update whose members straddle two partitions: both rmw the same
/// variable from the same source *and* read a second variable in another
/// band.  Projection cannot hide it — the owning partition still sees both
/// rmws — and the escalated copies convict too.
#[test]
fn cross_partition_lost_update_still_convicts() {
    for shards in SHARD_COUNTS {
        let (x, y) = if shards == 1 { (0, 2) } else { straddling_pair(shards) };
        let n_vars = x.max(y) + 1;
        let mut h = AuditHistory::new(n_vars, 0, 2);
        h.push_txn(0, [(x, 0), (y, 0)], [(x, 1)]);
        h.push_txn(1, [(x, 0), (y, 0)], [(x, 2)]);
        let batch = audit(&h);
        assert!(batch.fails(Level::SnapshotIsolation) && batch.fails(Level::Serializable));
        let sharded = audit_sharded(&h, shard_cfg(shards));
        assert!(sharded.fails(Level::SnapshotIsolation), "K={shards}\n{}", sharded.merged);
        assert!(sharded.fails(Level::Serializable), "K={shards}\n{}", sharded.merged);
        assert!(sharded.passes(Level::Causal), "K={shards}\n{}", sharded.merged);
        let conviction = sharded.first_conviction.as_ref().expect("must convict");
        assert!(
            conviction.conviction.violation.contains("lost update"),
            "{}",
            conviction.conviction.violation
        );
    }
}

/// A causal (stale-read) cycle across two partitions, observed only by
/// straddlers: t2 reads x from t1 and writes y; t3 reads y from t2 but
/// still reads x's initial value.  t2 and t3 straddle, so the escalation
/// lane holds both; t1's write reaches the lane as a pending-value stand-in,
/// and saturation closes the cycle t3 → (x writer) → t2 → t3.  Projections
/// alone would pass — each band sees a serializable sub-history — so this
/// pins the no-false-pass-from-projection property.
#[test]
fn cross_partition_causal_cycle_still_convicts() {
    for shards in SHARD_COUNTS {
        let (x, y) = if shards == 1 { (0, 2) } else { straddling_pair(shards) };
        let n_vars = x.max(y) + 1;
        let mut h = AuditHistory::new(n_vars, 0, 3);
        h.push_txn(0, [], [(x, 1)]); // t1: in-band, never escalated
        h.push_txn(1, [(x, 1)], [(y, 2)]); // t2: straddles
        h.push_txn(2, [(x, 0), (y, 2)], []); // t3: straddles, stale read of x
        let batch = audit(&h);
        assert!(batch.fails(Level::Causal), "{batch}");
        assert!(batch.passes(Level::ReadAtomic), "pure transitivity violation: {batch}");
        let sharded = audit_sharded(&h, shard_cfg(shards));
        assert!(
            sharded.fails(Level::Causal),
            "K={shards}: projections must not hide the causal cycle\n{}",
            sharded.merged
        );
        assert!(sharded.fails(Level::SnapshotIsolation), "K={shards}\n{}", sharded.merged);
        assert!(sharded.fails(Level::Serializable), "K={shards}\n{}", sharded.merged);
    }
}

/// A serializable chain in which *every* transaction straddles two
/// partitions: the escalation lane re-checks all of them and the run still
/// attests clean on every level — escalation convicts only on real
/// evidence.
#[test]
fn clean_straddling_histories_still_attest() {
    for shards in SHARD_COUNTS {
        let (x, y) = if shards == 1 { (0, 2) } else { straddling_pair(shards) };
        let n_vars = x.max(y) + 1;
        let mut h = AuditHistory::new(n_vars, 0, 2);
        h.push_txn(0, [(x, 0), (y, 0)], [(x, 1), (y, 1_001)]);
        for i in 1..60i64 {
            let session = (i % 2) as usize;
            h.push_txn(session, [(x, i), (y, 1_000 + i)], [(x, i + 1), (y, 1_001 + i)]);
        }
        let batch = audit(&h);
        let sharded = audit_sharded(&h, shard_cfg(shards));
        if shards > 1 {
            assert_eq!(sharded.escalated_txns, 60, "K={shards}: every link straddles");
        }
        for level in Level::ALL {
            assert!(batch.passes(level), "{level}");
            assert!(sharded.passes(level), "K={shards} {level}: {}", sharded.merged);
        }
        assert!(sharded.first_conviction.is_none(), "K={shards}");
        // The attestation wording names the sharded caveat.
        let Some(Outcome::Pass { witness }) = sharded.merged.outcome(Level::Serializable) else {
            panic!("expected a pass");
        };
        assert!(witness.contains("attested per partition"), "{witness}");
        assert!(witness.contains("violation-sound"), "{witness}");
    }
}

/// The `Outcome::Unknown` budget discipline, per partition: one partition
/// gets a search-hostile shape and a starvation budget (→ Unknown with an
/// actionable `next_budget`), another partition gets a definite lost update
/// (→ Fail, found polynomially, budget-independent).
///
/// The merge must keep the conviction — a partition's Unknown never
/// downgrades another partition's Fail — and re-running the sharded audit
/// with the starved partition's reported `next_budget` (iterating while it
/// stays starved) must flip that partition Unknown → decided.
#[test]
fn partition_unknowns_retry_to_decided_and_never_downgrade_convictions() {
    let shards = 2;
    // Four co-partition variables for the budget-hostile shape (independent
    // RMWs plus a stale read defeat the recording-order fast path), plus a
    // variable in a *different* partition for the lost update.
    let vars = co_partition_vars(shards, 4);
    let hostile_partition = partition_of(vars[0], shards);
    let lu = (0..2_048)
        .step_by(2)
        .find(|&v| partition_of(v, shards) != hostile_partition)
        .expect("a variable in the other partition");
    let n_vars = vars.iter().copied().max().unwrap().max(lu) + 1;

    let mut h = AuditHistory::new(n_vars, 0, 6);
    for (s, &v) in vars.iter().enumerate() {
        h.push_txn(s, [(v, 0)], [(v, 100 + s as i64)]);
    }
    h.push_txn(0, [(vars[1], 0)], []);
    // The definite conviction in the other partition: a same-source lost
    // update pair.
    h.push_txn(4, [(lu, 0)], [(lu, 900)]);
    h.push_txn(5, [(lu, 0)], [(lu, 901)]);

    let starved = |budget: u64| {
        let window = WindowConfig { budget, ..WindowConfig::sized(64) };
        audit_sharded(&h, ShardConfig { route_batch: 4, ..ShardConfig::new(shards, window) })
    };

    let mut budget = 1u64;
    let report = starved(budget);
    let hostile = |r: &ShardedStreamReport| {
        r.partitions
            .iter()
            .find(|p| !p.escalation && p.partition == hostile_partition)
            .expect("hostile partition present")
            .stream
            .merged
            .clone()
    };
    let first = hostile(&report);
    assert!(
        matches!(first.outcome(Level::Serializable), Some(Outcome::Unknown { .. })),
        "the starting budget must starve the search for the test to mean anything: {first}"
    );
    // The conviction from the other partition survives the merge at both
    // NP levels — never downgraded to Unknown.
    assert!(report.fails(Level::SnapshotIsolation), "{}", report.merged);
    assert!(report.fails(Level::Serializable), "{}", report.merged);
    let Some(Outcome::Fail { violation }) = report.merged.outcome(Level::Serializable) else {
        panic!("expected merged failure");
    };
    assert!(violation.contains("lost update"), "{violation}");

    // Follow the starved partition's next_budget until it decides.
    let mut merged = first;
    for _round in 0..20 {
        let Some(Outcome::Unknown { next_budget, .. }) = merged.outcome(Level::Serializable) else {
            break;
        };
        assert!(*next_budget > budget, "the hint must grow the budget");
        budget = *next_budget;
        merged = hostile(&starved(budget));
    }
    for level in [Level::SnapshotIsolation, Level::Serializable] {
        assert!(
            !matches!(merged.outcome(level), Some(Outcome::Unknown { .. })),
            "{level} still unknown after following next_budget to {budget}: {merged}"
        );
    }
    // The hostile partition's sub-history is genuinely serializable, so the
    // decided verdict is a pass.
    assert!(merged.passes(Level::Serializable), "{merged}");
}
