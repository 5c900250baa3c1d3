//! End-to-end crash-recovery smoke: spawn the real audit binary as a WAL
//! endpoint (`--serve --wal DIR`), SIGKILL it mid-round once a few
//! window-closing seals are durable, then run `--recover DIR` and require a
//! green recovered verdict covering both the sealed prefix and the replayed
//! post-seal suffix.  A final `--serve --wal --recover` run proves a
//! restarted endpoint skips the completed round and continues at the next
//! durable round index, and a round that crashed before its first seal is
//! recovered with the window shape it was served at, whatever the restart's
//! `--audit=` spec says.  Hostile seals must fail `--recover` with exit 2.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use stm_runtime::wal::WalSink;
use tm_audit::{TxnSink, WindowConfig, WindowedAuditor};
use tm_history::{generate, GenConfig};
use workloads::{WalMeta, WalTee};

/// Extract the number following `"key":` in a hand-rolled JSON document.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle).unwrap_or_else(|| panic!("{key} missing from {text}"));
    let digits: String =
        text[at + needle.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} is not a number in {text}"))
}

/// Wait until `path` exists, or fail after `secs` seconds.
fn await_file(path: &Path, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for {}", path.display());
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn sigkill_mid_round_then_recover_reports_a_green_continuation() {
    let wal = std::env::temp_dir().join(format!("workloads-recovery-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let wal_arg = wal.to_str().expect("utf-8 temp path");

    // A round far too large to finish: the kill always lands mid-round.
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--serve",
            "--wal",
            wal_arg,
            "--scenario",
            "registers",
            "--backend",
            "obstruction-free",
            "--threads",
            "2",
            "--txns",
            "5000000",
            "--vars",
            "32",
            "--audit=window:size=128",
        ])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawning the audit binary");

    // Let the endpoint seal a few segments (each seal carries its window's
    // boundary record), then give the appenders a beat so records accumulate
    // past the newest seal, and kill -9.
    let round0 = wal.join("round-0000");
    await_file(&round0.join("segment-000002.seal"), 120);
    std::thread::sleep(Duration::from_millis(100));
    child.kill().expect("SIGKILL");
    child.wait().expect("reaping the killed endpoint");
    assert!(!round0.join("complete.json").exists(), "a killed round must stay incomplete");

    // Standalone recovery: re-audit the durable log, resume the frontier,
    // replay the suffix, and mark the round complete.
    let json_path = wal.join("recovered-report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--recover", wal_arg, "--json", json_path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("running --recover");
    assert!(
        output.status.success(),
        "recover exit {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"type\":\"recovered-verdict\""), "{stdout}");
    assert!(stdout.contains("\"recovered\":true"), "{stdout}");

    let report = std::fs::read_to_string(&json_path).expect("--json document");
    assert!(report.contains("\"recovered\":true"), "{report}");
    let snapshot_txns = json_u64(&report, "snapshot_txns");
    let replayed_txns = json_u64(&report, "replayed_txns");
    let total_txns = json_u64(&report, "total_txns");
    assert!(snapshot_txns > 0, "recovery must resume from a frontier snapshot:\n{report}");
    assert!(replayed_txns > 0, "recovery must replay post-snapshot records:\n{report}");
    assert_eq!(total_txns, snapshot_txns + replayed_txns, "{report}");
    assert!(report.contains("\"resumed_from_segment\":"), "{report}");
    assert!(!report.contains("\"resumed_from_segment\":null"), "{report}");
    // The obstruction-free backend is serializable: the continuation audit of
    // the pre-crash log must come back green at every level.
    assert!(report.contains("SER ✓"), "{report}");
    assert!(!report.contains("\"outcome\":\"fail\""), "{report}");
    assert!(round0.join("recovered.json").exists());
    assert!(round0.join("complete.json").exists());

    // Re-running recovery finds nothing to do and succeeds.
    let rerun = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--recover", wal_arg])
        .output()
        .expect("re-running --recover");
    assert!(rerun.status.success(), "idempotent recover exit {:?}", rerun.status);
    assert!(
        !String::from_utf8_lossy(&rerun.stdout).contains("\"type\":\"recovered-verdict\""),
        "a completed round must not be recovered twice"
    );

    // A restarted endpoint (`--serve --wal --recover`) skips the completed
    // round and serves the next durable round index with the continued seed.
    let resumed = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--serve",
            "--serve-rounds",
            "1",
            "--wal",
            wal_arg,
            "--recover",
            wal_arg,
            "--scenario",
            "registers",
            "--backend",
            "obstruction-free",
            "--threads",
            "2",
            "--txns",
            "200",
            "--vars",
            "32",
            "--audit=window:size=128",
        ])
        .output()
        .expect("restarting the endpoint");
    assert!(
        resumed.status.success(),
        "restarted endpoint exit {:?}\nstderr: {}",
        resumed.status,
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("\"type\":\"verdict\""), "{stdout}");
    assert!(stdout.contains("\"round\":1"), "the restart must serve round 1, not 0:\n{stdout}");
    assert!(stdout.contains("\"reason\":\"rounds-exhausted\""), "{stdout}");
    assert!(wal.join("round-0001").join("complete.json").exists());

    std::fs::remove_dir_all(&wal).expect("cleanup");
}

/// A restarted endpoint (`--serve --wal --recover`) finishes a round that
/// crashed before its first seal — so no seal records the round's shape —
/// with the shape in `wal-meta.json`, the one the round was served at, not
/// with the restart's own `--audit=window…` spec: recovery must reach the
/// verdict the uninterrupted round would have.
#[test]
fn a_restart_recovers_an_unsealed_round_with_the_served_window_shape() {
    let wal = std::env::temp_dir().join(format!("workloads-recovery-meta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let wal_arg = wal.to_str().expect("utf-8 temp path");
    WalMeta { window: WindowConfig::sized(64) }.store(&wal).expect("wal-meta.json");
    let history = generate(&GenConfig {
        sessions: 2,
        vars: 8,
        txns_per_session: 20,
        seed: 5,
        ..GenConfig::default()
    })
    .history;
    let round = wal.join("round-0000");
    let mut sink = WalSink::create(&round, 2, history.n_vars, history.initial).expect("wal sink");
    let mut seq = [0u64; 2];
    for (s, t) in history.recording_order() {
        sink.append_txn(s, seq[s], t.hint, &t.reads, &t.writes).expect("append");
        seq[s] += 1;
    }
    drop(sink); // kill -9 before the first seal

    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--serve",
            "--serve-rounds",
            "1",
            "--wal",
            wal_arg,
            "--recover",
            wal_arg,
            "--scenario",
            "registers",
            "--backend",
            "obstruction-free",
            "--threads",
            "2",
            "--txns",
            "50",
            "--vars",
            "32",
            "--audit=window:size=16",
        ])
        .output()
        .expect("restarting the endpoint");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let recovered = stdout
        .lines()
        .find(|line| line.contains("\"type\":\"recovered-verdict\""))
        .unwrap_or_else(|| panic!("no recovered-verdict record:\n{stdout}"));
    assert_eq!(json_u64(recovered, "total_txns"), 40, "{recovered}");
    assert_eq!(json_u64(recovered, "windows"), 1, "{recovered}");
    assert_eq!(json_u64(recovered, "window_size"), 64, "{recovered}");
    // Once recovery is done, the stored shape is the restarted endpoint's.
    let stored = WalMeta::load(&wal).expect("wal-meta.json parses").expect("wal-meta.json");
    assert_eq!(stored.window.size, 16);
    std::fs::remove_dir_all(&wal).expect("cleanup");
}

/// Hostile seals reach the CLI as an error with exit 2 — never a panic or a
/// stack overflow, never a verdict: a garbled record, a record of 200k
/// nested `[` (the seal's CRC covers its segment, not the record), a
/// verdict out of its place in the chain, a seal an older build wrote.
#[test]
fn hostile_seals_exit_2_without_a_verdict() {
    let wal =
        std::env::temp_dir().join(format!("workloads-recovery-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let wal_arg = wal.to_str().expect("utf-8 temp path");
    let history = generate(&GenConfig {
        sessions: 3,
        vars: 8,
        txns_per_session: 60,
        seed: 11,
        ..GenConfig::default()
    })
    .history;
    let window = WindowConfig { overlap: 4, ..WindowConfig::sized(32) };
    let auditor = WindowedAuditor::new(history.n_vars, history.initial, window);
    let round = wal.join("round-0000");
    let mut tee = WalTee::create(&round, 3, history.n_vars, auditor, || {}).expect("wal tee");
    for (s, t) in history.recording_order().into_iter().take(100) {
        tee.push_txn(s, t.clone());
    }
    drop(tee); // kill -9 after three window-closing seals

    let seal = round.join("segment-000001.seal");
    let intact = std::fs::read_to_string(&seal).expect("seal 1");
    let (line, record) = intact.trim_end().split_once('\n').expect("seal line + record");
    let misplaced = record.replace("\"verdict\":{\"index\":1,", "\"verdict\":{\"index\":0,");
    assert_ne!(misplaced, record);
    for (hostile, expect) in [
        (format!("{line}\n{{\"config\":\n"), "the record in seal 1"),
        (format!("{line}\n{}\n", "[".repeat(200_000)), "deeper than 128 levels"),
        (format!("{line}\n{misplaced}\n"), "holds the verdict of window 0 (expected 1)"),
        (
            format!("{}\n{record}\n", line.replace("{\"wal-seal\":2,", "{\"wal-seal\":1,")),
            "unsupported WAL seal version 1",
        ),
    ] {
        std::fs::write(&seal, hostile).expect("edit seal");
        let out = Command::new(env!("CARGO_BIN_EXE_audit"))
            .args(["--recover", wal_arg])
            .output()
            .expect("running --recover");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{expect}: {stderr}");
        assert!(stderr.contains(expect) && !stderr.contains("panicked"), "{stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("recovered-verdict"));
    }
    std::fs::write(&seal, intact).expect("restore seal");
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--recover", wal_arg])
        .output()
        .expect("running --recover");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&wal).expect("cleanup");
}
