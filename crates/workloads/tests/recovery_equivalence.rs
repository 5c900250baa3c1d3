//! The crash-recovery equivalence property, exercised at the library level
//! over 50 seeded histories: write a prefix of a generated history through
//! the WAL tee, "crash" (drop the tee without finishing — no tail seal, no
//! `complete.json`), corrupt the tail like a torn write would, recover, and
//! redeliver the rest of the run.  The recovered auditor must reach the
//! verdict the uninterrupted streaming audit reaches — merged report,
//! window count, totals and first conviction all equal — including on
//! histories with planted violations.

use std::path::{Path, PathBuf};
use tm_audit::{audit_streamed, DecidedBy, TxnSink, WindowConfig, WindowedAuditor};
use tm_history::{generate, GenConfig};
use workloads::{recover_round_auditor, WalTee};

/// The unsealed tail segment of a crashed round: the highest-index
/// `segment-NNNNNN.tmh` without a matching `.seal`.
fn unsealed_tail(dir: &Path) -> PathBuf {
    let mut tails: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("round dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tmh") && !p.with_extension("seal").exists())
        .collect();
    tails.sort();
    tails.pop().expect("a crashed round leaves an unsealed tail segment")
}

#[test]
fn fifty_seeded_histories_recover_to_the_uninterrupted_verdict() {
    let base =
        std::env::temp_dir().join(format!("workloads-recovery-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut window = WindowConfig::sized(32);
    window.overlap = 4;
    let (mut cold_replays, mut resumed_replays, mut convicted) = (0u32, 0u32, 0u32);

    for seed in 0..50u64 {
        let generated = generate(&GenConfig {
            sessions: 3,
            vars: 8,
            txns_per_session: 60,
            seed,
            lost_update_per_mille: 25,
            write_skew_per_mille: 25,
            causal_cycle_per_mille: 10,
            long_fork_per_mille: 10,
            ..GenConfig::default()
        });
        let history = generated.history;
        let baseline = audit_streamed(&history, window);
        convicted += u32::from(baseline.first_conviction.is_some());

        // The global arrival order the streaming pipeline would deliver.
        let order = history.recording_order();
        let total = order.len();
        // A deterministic pseudo-random crash point strictly inside the run.
        let cut = 1 + (seed as usize).wrapping_mul(7_919) % (total - 1);

        let dir = base.join(format!("seed-{seed}"));
        let auditor = WindowedAuditor::new(history.n_vars, history.initial, window);
        let mut tee = WalTee::create(&dir, history.sessions.len(), history.n_vars, auditor, || {})
            .expect("wal tee");
        for &(s, t) in &order[..cut] {
            tee.push_txn(s, t.clone());
        }
        // kill -9: the tee is dropped without finish() — the tail segment
        // stays unsealed and no complete.json is written.
        drop(tee);

        // Torn-write injection on the unsealed tail: even seeds gain a
        // partial record (a write cut mid-line), odd seeds lose the end of
        // their last record (a page that never hit the platter).
        let tail = unsealed_tail(&dir);
        let bytes = std::fs::read(&tail).expect("tail bytes");
        let mut lost_last_record = false;
        if seed % 2 == 0 {
            let mut torn = bytes;
            torn.extend_from_slice(b"{\"s\":0,\"q\":9999,\"h\":12");
            std::fs::write(&tail, torn).expect("append torn record");
        } else if bytes.len() > 3 {
            lost_last_record = bytes.ends_with(b"\n");
            std::fs::write(&tail, &bytes[..bytes.len() - 3]).expect("chop tail");
        }

        let recovery = recover_round_auditor(&dir, window, None)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(!recovery.complete, "seed {seed}");
        if seed % 2 == 0 {
            assert!(recovery.torn_bytes > 0, "seed {seed}: injected tear not truncated");
        }
        let resumed = (recovery.snapshot_txns + recovery.replayed_txns) as usize;
        let expected = cut - usize::from(lost_last_record);
        assert_eq!(resumed, expected, "seed {seed}: recovery must restore the durable prefix");
        match recovery.resumed_from_segment {
            Some(_) => {
                assert!(recovery.snapshot_txns > 0, "seed {seed}");
                resumed_replays += 1;
            }
            None => {
                assert_eq!(recovery.snapshot_txns, 0, "seed {seed}");
                cold_replays += 1;
            }
        }

        // Redeliver everything past the durable prefix (what the workload
        // source would replay) and finish the round.
        let mut auditor = recovery.auditor;
        for &(s, t) in &order[resumed..] {
            auditor.push(s, t.clone());
        }
        let report = auditor.finish();
        assert_eq!(report.merged, baseline.merged, "seed {seed}");
        assert_eq!(report.total_txns, baseline.total_txns, "seed {seed}");
        assert_eq!(report.windows.len(), baseline.windows.len(), "seed {seed}");
        assert_eq!(report.evicted_attributions, baseline.evicted_attributions, "seed {seed}");
        assert_eq!(report.first_conviction, baseline.first_conviction, "seed {seed}");
    }

    // The 50 crash points must exercise both recovery paths, and the
    // generator's plants must make some baselines convict — otherwise the
    // equivalence above proved less than it claims.
    assert!(cold_replays > 0, "no crash landed before the first frontier snapshot");
    assert!(resumed_replays > 0, "no crash landed after a frontier snapshot");
    assert!(convicted > 0, "no seeded history carried a violation");
    std::fs::remove_dir_all(&base).expect("cleanup");
}

/// A resumed stream certifies the windows an uninterrupted one does.  The
/// boundary record does not persist the retained writers' hints;
/// `recover_round_auditor` reads them back off the log, so every window —
/// carried in the snapshot or audited after the resume — comes out with the
/// same provenance and the same witness, not merely the same verdict.
#[test]
fn resumed_healthy_streams_certify_the_same_windows_with_the_same_witness() {
    let base =
        std::env::temp_dir().join(format!("workloads-recovery-certified-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut window = WindowConfig::sized(32);
    window.overlap = 4;
    let (mut resumed_replays, mut certified_after_resume) = (0u32, 0usize);

    for seed in 0..20u64 {
        let history = generate(&GenConfig {
            sessions: 3,
            vars: 8,
            txns_per_session: 60,
            seed,
            ..GenConfig::default()
        })
        .history;
        let baseline = audit_streamed(&history, window);
        assert!(
            baseline.windows.iter().all(|w| w.report.decided_by() == DecidedBy::Hint),
            "seed {seed}: a healthy replay certifies every window"
        );

        let order = history.recording_order();
        let cut = 40 + (seed as usize).wrapping_mul(7_919) % (order.len() - 41);

        let dir = base.join(format!("seed-{seed}"));
        let auditor = WindowedAuditor::new(history.n_vars, history.initial, window);
        let mut tee = WalTee::create(&dir, history.sessions.len(), history.n_vars, auditor, || {})
            .expect("wal tee");
        for &(s, t) in &order[..cut] {
            tee.push_txn(s, t.clone());
        }
        drop(tee); // kill -9

        let recovery = recover_round_auditor(&dir, window, None)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!((recovery.snapshot_txns + recovery.replayed_txns) as usize, cut, "seed {seed}");
        let carried = recovery.auditor.windows_closed();
        resumed_replays += u32::from(recovery.resumed_from_segment.is_some());
        let mut auditor = recovery.auditor;
        for &(s, t) in &order[cut..] {
            auditor.push(s, t.clone());
        }
        let report = auditor.finish();
        assert_eq!(report.merged, baseline.merged, "seed {seed}");
        assert_eq!(report.windows.len(), baseline.windows.len(), "seed {seed}");
        for (resumed, live) in report.windows.iter().zip(&baseline.windows) {
            assert_eq!(resumed.report, live.report, "seed {seed} window {}", live.index);
        }
        if recovery.resumed_from_segment.is_some() {
            certified_after_resume += report.windows.len() - carried;
        }
    }
    assert!(resumed_replays >= 15, "crashes must land after a frontier snapshot");
    assert!(certified_after_resume > 0, "windows audited after a resume must be compared");
    std::fs::remove_dir_all(&base).expect("cleanup");
}

/// The log is the frontier's durable form, and the seals beside it hold one
/// verdict and a handful of scalars each: on a healthy 20 000-transaction
/// round at 2 048-transaction windows they stay under 5% of the segments'
/// bytes.  A second copy of the frontier in them would be ~200%.
#[test]
fn snapshots_stay_a_sliver_of_the_log() {
    let dir =
        std::env::temp_dir().join(format!("workloads-recovery-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let history = generate(&GenConfig {
        sessions: 4,
        vars: 64,
        txns_per_session: 5_000,
        seed: 21,
        ..GenConfig::default()
    })
    .history;
    let order = history.recording_order();
    let auditor = WindowedAuditor::new(history.n_vars, history.initial, WindowConfig::sized(2_048));
    let mut tee = WalTee::create(&dir, 4, history.n_vars, auditor, || {}).expect("wal tee");
    for &(s, t) in &order {
        tee.push_txn(s, t.clone());
    }
    let (_, stats) = tee.finish().expect("finish");
    assert_eq!(stats.logged_txns, 20_000);
    assert!(stats.sealed_segments >= 10, "{stats:?}");

    let bytes_of = |prefix: &str, suffix: &str| -> u64 {
        let files = std::fs::read_dir(&dir).expect("round dir").map(|e| e.expect("dir entry"));
        files
            .filter(|e| {
                e.file_name().to_str().is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
            })
            .map(|e| e.metadata().expect("metadata").len())
            .sum()
    };
    let (snapshots, segments) = (bytes_of("segment-", ".seal"), bytes_of("segment-", ".tmh"));
    assert!(snapshots > 0 && snapshots * 20 < segments, "{snapshots} B beside {segments} B");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
