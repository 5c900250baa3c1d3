//! The windowed/batch equivalence suite: on seeded runs from every live
//! backend, the streaming windowed auditor must agree with the whole-run
//! batch auditor on all six levels — including histories whose write-read
//! edges cross window boundaries — and on fully adversarial synthetic
//! histories every windowed violation must be confirmed real by the batch
//! auditor (the violation-soundness half of the windowed soundness
//! statement).  Agreement is contract-shaped, not literal equality: a
//! windowed conviction must be a batch conviction and a batch pass must be
//! attested, while a batch conviction may come back as an attested windowed
//! pass across the documented horizon gap (an emergent anomaly spanning
//! more than a window — pram-local's long-fork-shaped Prefix violations
//! are the live case).

mod common;

use pcl_tm::audit::{audit, audit_streamed, AuditHistory, Level, StreamReport, WindowConfig};
use pcl_tm::stm::registry::{OBSTRUCTION_FREE, PRAM_LOCAL, TL2_BLOCKING};
use pcl_tm::stm::BackendId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small windows relative to the run, so reads routinely cross boundaries.
fn suite_window() -> WindowConfig {
    WindowConfig { size: 30, overlap: 10, ..WindowConfig::sized(30) }
}

fn assert_verdicts_agree(batch: &pcl_tm::audit::AuditReport, stream: &StreamReport, ctx: &str) {
    for level in Level::ALL {
        if batch.passes(level) {
            // A batch pass must be attested — and never contradicted by a
            // fabricated windowed conviction (convictions are sound).
            assert!(
                stream.passes(level),
                "{ctx}: {level} batch passes but windowed does not\nbatch: {batch}\nstream: {}",
                stream.merged
            );
        } else {
            // Batch convicted: the windowed engine normally convicts too,
            // but an attested pass across the horizon gap is legal; an
            // Unknown at these generous budgets is not.
            assert!(
                stream.fails(level) || stream.passes(level),
                "{ctx}: {level} windowed verdict must be definite\nbatch: {batch}\nstream: {}",
                stream.merged
            );
        }
    }
}

fn equivalence_on_backend(backend: BackendId) {
    for seed in 0..50u64 {
        let history = common::live_history(backend, 3, 40, 8, seed);
        let batch = audit(&history);
        let stream = audit_streamed(&history, suite_window());
        assert_verdicts_agree(&batch, &stream, &format!("{backend}, seed {seed}"));
    }
}

#[test]
fn windowed_agrees_with_batch_on_tl2_blocking() {
    equivalence_on_backend(TL2_BLOCKING);
}

#[test]
fn windowed_agrees_with_batch_on_obstruction_free() {
    equivalence_on_backend(OBSTRUCTION_FREE);
}

#[test]
fn windowed_agrees_with_batch_on_pram_local() {
    equivalence_on_backend(PRAM_LOCAL);
}

/// A serializable handoff chain whose every write-read edge crosses one step
/// back — with 30-txn windows over 120 transactions, dozens of wr edges
/// cross window boundaries and resolve through the carried frontier.
#[test]
fn cross_window_wr_edges_agree_on_a_clean_chain() {
    let mut h = AuditHistory::new(2, 0, 3);
    h.push_txn(0, [(0, 0)], [(0, 1)]);
    for i in 1..120i64 {
        // Rotate sessions; occasionally touch the second variable too.
        let session = (i % 3) as usize;
        if i % 7 == 0 {
            h.push_txn(session, [(0, i)], [(0, i + 1), (1, 1_000 + i)]);
        } else {
            h.push_txn(session, [(0, i)], [(0, i + 1)]);
        }
    }
    let batch = audit(&h);
    let stream = audit_streamed(&h, suite_window());
    assert!(stream.windows.len() > 4, "chain must span several windows");
    assert_verdicts_agree(&batch, &stream, "clean cross-window chain");
    for level in Level::ALL {
        assert!(batch.passes(level), "{level}");
    }
}

/// A lost update whose two halves are ~100 transactions apart — far beyond
/// any single window — is still convicted, through the frontier's carried
/// rmw facts, and agrees with batch.
#[test]
fn cross_window_lost_update_agrees_with_batch() {
    let mut h = AuditHistory::new(3, 0, 2);
    h.push_txn(0, [(0, 0)], [(0, 1)]); // first rmw of v0 from initial
    for i in 0..100i64 {
        h.push_txn(0, [], [(1, 500 + i)]); // a hundred unrelated writes
    }
    h.push_txn(1, [(0, 0)], [(0, 2)]); // second rmw of v0 from initial
    let batch = audit(&h);
    let stream = audit_streamed(&h, suite_window());
    assert!(batch.fails(Level::SnapshotIsolation) && batch.fails(Level::Serializable));
    assert_verdicts_agree(&batch, &stream, "cross-window lost update");
    let conviction = stream.first_conviction.as_ref().expect("stream must convict");
    assert!(conviction.violation.contains("lost update on v0"), "{}", conviction.violation);
}

/// Adversarial seeded histories with arbitrarily stale reads: the windowed
/// auditor may *miss* what fell past its horizon (pass-attestation), but
/// every violation it does report must be real — confirmed by the batch
/// auditor on the full history.
#[test]
fn windowed_violations_are_always_real_on_adversarial_histories() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xAD5E_0000 + seed);
        let (sessions, vars) = (3usize, 4usize);
        let mut h = AuditHistory::new(vars, 0, sessions);
        let mut values: Vec<Vec<i64>> = vec![vec![0]; vars];
        let mut next = 1i64;
        for _ in 0..60 {
            let s = rng.gen_range(0..sessions);
            let v = rng.gen_range(0..vars);
            // Read any historical value of the variable — including ones far
            // older than the window.
            let stale = values[v][rng.gen_range(0..values[v].len())];
            let reads = if rng.gen_bool(0.8) { vec![(v, stale)] } else { vec![] };
            let writes = if rng.gen_bool(0.6) {
                values[v].push(next);
                next += 1;
                vec![(v, next - 1)]
            } else {
                vec![]
            };
            let hint = h.txn_count() as u64;
            h.sessions[s].push(pcl_tm::audit::AuditTxn {
                reads: reads.into(),
                writes: writes.into(),
                hint,
                ..Default::default()
            });
        }
        let batch = audit(&h);
        let stream = audit_streamed(&h, WindowConfig { size: 12, overlap: 4, ..suite_window() });
        for level in Level::ALL {
            if stream.fails(level) {
                assert!(
                    batch.fails(level),
                    "seed {seed}: windowed reported a {level} violation the batch auditor \
                     does not confirm\nbatch: {batch}\nstream: {}",
                    stream.merged
                );
            }
        }
    }
}
