//! Smoke test for the audit CLI's `--serve` ops endpoint: spawn the real
//! binary under the `kv-zipf` scenario, read streamed line-delimited JSON
//! records off its stdout, assert the record schema (window verdicts with
//! window ids), then SIGTERM it and require a clean shutdown with a
//! `serve-stop` record.  Bounded one-round runs cover the default plan and
//! `--wal` rounds.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[test]
fn serve_endpoint_streams_records_and_shuts_down_cleanly_on_sigterm() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--serve",
            "--scenario",
            "kv-zipf",
            "--backend",
            "tl2",
            "--threads",
            "2",
            "--txns",
            "400",
            "--vars",
            "32",
            "--audit=window:size=64",
            "--metrics",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the audit binary");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (lines_tx, lines_rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if lines_tx.send(line).is_err() {
                break;
            }
        }
    });

    // Collect records until the endpoint has proven it streams: at least
    // three window verdicts.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut lines: Vec<String> = Vec::new();
    loop {
        let windows = lines.iter().filter(|l| l.contains("\"type\":\"window\"")).count();
        if windows >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "timed out with {windows} window records:\n{}",
            lines.join("\n")
        );
        match lines_rx.recv_timeout(Duration::from_millis(500)) {
            Ok(line) => lines.push(line),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("serve endpoint closed its stdout early:\n{}", lines.join("\n"))
            }
        }
    }

    // Schema: the start record announces the pipeline shape…
    let start =
        lines.iter().find(|l| l.contains("\"type\":\"serve-start\"")).expect("start record");
    for field in ["\"scenario\":\"kv-zipf\"", "\"window\":64", "\"pid\":"] {
        assert!(start.contains(field), "{field} missing from {start}");
    }
    // …and window records carry the window id and verdict.
    let window = lines.iter().find(|l| l.contains("\"type\":\"window\"")).expect("window record");
    for field in ["\"round\":", "\"window\":", "\"txns\":", "\"verdict\":\"RC "] {
        assert!(window.contains(field), "{field} missing from {window}");
    }

    // SIGTERM → the endpoint finishes its round, emits serve-stop, exits 0.
    let status = Command::new("kill")
        .args(["-s", "TERM", &child.id().to_string()])
        .status()
        .expect("running kill");
    assert!(status.success(), "kill -TERM failed: {status}");
    let deadline = Instant::now() + Duration::from_secs(60);
    let exit = loop {
        if let Some(exit) = child.try_wait().expect("try_wait") {
            break exit;
        }
        assert!(Instant::now() < deadline, "serve endpoint did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "clean shutdown must exit 0, got {exit}");
    reader.join().expect("reader thread");
    lines.extend(lines_rx.try_iter());
    let stop = lines.iter().rfind(|l| l.contains("\"type\":\"serve-stop\"")).expect("stop record");
    assert!(stop.contains("\"reason\":\"signal\""), "{stop}");
    assert!(stop.contains("\"rounds\":"), "{stop}");
    // --metrics: every completed round ends with a telemetry snapshot record
    // carrying the runtime's phase histograms and the auditor's series.
    let metrics =
        lines.iter().find(|l| l.contains("\"type\":\"metrics\"")).expect("metrics record");
    for field in ["\"round\":", "\"snapshot\":{\"metrics\":[", "\"stm_commits_total\"", "\"ns\""] {
        assert!(metrics.contains(field), "{field} missing from {metrics}");
    }
    assert!(
        lines.iter().any(|l| l.contains("\"name\":\"audit_windows_total\"")),
        "auditor series missing from metrics snapshots"
    );
}

/// `--serve-rounds N` ends the endpoint by itself (no signal needed) — the
/// bounded mode CI's serve smoke job uses.
#[test]
fn serve_rounds_limit_stops_the_endpoint_cleanly() {
    let output = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--serve",
            "--serve-rounds",
            "2",
            "--scenario",
            "registers",
            "--backend",
            "obstruction-free",
            "--threads",
            "2",
            "--txns",
            "150",
            "--vars",
            "16",
            "--audit=window:size=32",
        ])
        .output()
        .expect("running the audit binary");
    assert!(output.status.success(), "exit: {:?}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let verdicts = stdout.matches("\"type\":\"verdict\"").count();
    assert_eq!(verdicts, 2, "one verdict record per round:\n{stdout}");
    assert!(stdout.contains("\"reason\":\"rounds-exhausted\""), "{stdout}");
    // Round verdicts embed the full windowed report.
    assert!(stdout.contains("\"merged\":{"), "{stdout}");
    assert!(stdout.contains("\"window_verdicts\":["), "{stdout}");
}

/// Run a bounded one-round generating endpoint (`registers` on tl2, 2 × 300
/// transactions) with `extra` flags; returns its stdout.
fn serve_one_round(extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--serve", "--serve-rounds", "1", "--scenario", "registers", "--backend", "tl2"])
        .args(["--threads", "2", "--txns", "300", "--vars", "16"])
        .args(extra)
        .output()
        .expect("running the audit binary");
    assert!(output.status.success(), "{extra:?}: {output:?}");
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Without `--audit=` the endpoint serves from the windowed auditor at its
/// default size: the round's verdict embeds the `StreamReport` document, and
/// no record carries a sharding key.
#[test]
fn bare_serve_defaults_to_the_unsharded_windowed_plan() {
    let stdout = serve_one_round(&[]);
    let start =
        stdout.lines().find(|l| l.contains("\"type\":\"serve-start\"")).expect("start record");
    assert!(start.contains("\"window\":2048"), "{start}");
    assert!(!start.contains("\"shards\""), "{start}");
    let verdict = stdout.lines().find(|l| l.contains("\"type\":\"verdict\"")).expect("verdict");
    assert!(verdict.contains("\"report\":{\"total_txns\":600,\"windows\":1,"), "{verdict}");
    assert!(verdict.contains("\"window_verdicts\":["), "{verdict}");
    assert!(!verdict.contains("\"partitions\""), "{verdict}");
    // The one window closes at the end of the round.
    let window = stdout.lines().find(|l| l.contains("\"type\":\"window\"")).expect("window");
    assert!(window.contains("\"round\":0,\"window\":0,"), "{window}");
    for window in stdout.lines().filter(|l| l.contains("\"type\":\"window\"")) {
        assert!(!window.contains("\"partition\""), "{window}");
    }
}

/// A logged round streams what an unlogged one does: window records while
/// it runs and, under `--metrics`, metrics records.
#[test]
fn wal_rounds_stream_window_and_metrics_records() {
    let wal = std::env::temp_dir().join(format!("serve-smoke-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let stdout = serve_one_round(&[
        "--wal",
        wal.to_str().expect("utf-8 temp path"),
        "--metrics",
        "--audit=window:size=64",
    ]);
    let windows = stdout.matches("\"type\":\"window\"").count();
    assert!(windows >= 5, "600 txns in 64-txn windows, saw {windows}:\n{stdout}");
    assert!(stdout.contains("\"type\":\"metrics\""), "{stdout}");
    let verdict = stdout.lines().find(|l| l.contains("\"type\":\"verdict\"")).expect("verdict");
    assert!(verdict.contains("\"wal\":{\"dir\":"), "{verdict}");
    assert!(wal.join("round-0000").join("complete.json").exists());
    std::fs::remove_dir_all(&wal).expect("cleanup");
}

/// Regression: the first SIGTERM requests a graceful stop at the round
/// boundary, but a second one used to be swallowed (the handler just
/// re-stored the already-set flag), leaving no way to interrupt a stuck
/// round short of SIGKILL.  The handler now `_exit(130)`s on the second
/// signal.
#[test]
fn second_sigterm_interrupts_a_long_round_with_exit_130() {
    // A round far too large to finish: the only way out is the signal path.
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--serve",
            "--scenario",
            "registers",
            "--backend",
            "obstruction-free",
            "--threads",
            "2",
            "--txns",
            "100000000",
            "--vars",
            "32",
            "--audit=window:size=1024",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the audit binary");
    // Drain stdout on a side thread (the round emits a window record every
    // 1024 txns — an undrained pipe would wedge the endpoint, not the
    // signal path under test) and keep the records for diagnostics.
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (lines_tx, lines_rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if lines_tx.send(line).is_err() {
                break;
            }
        }
    });
    // Wait for the first window record: it proves round 0 is actually
    // mid-flight.  Signalling on serve-start alone races the round loop's
    // admission check — a TERM that lands before `while !STOP` sees round 0
    // is a *graceful* stop with zero rounds, not the stuck-round path under
    // test.
    let mut lines: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !lines.iter().any(|l| l.contains("\"type\":\"window\"")) {
        assert!(Instant::now() < deadline, "no window record:\n{}", lines.join("\n"));
        match lines_rx.recv_timeout(Duration::from_millis(500)) {
            Ok(line) => lines.push(line),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("stdout closed before the first window record:\n{}", lines.join("\n"))
            }
        }
    }
    let pid = child.id().to_string();
    let term = || {
        let status =
            Command::new("kill").args(["-s", "TERM", &pid]).status().expect("running kill");
        assert!(status.success(), "kill -TERM failed: {status}");
    };
    term();
    std::thread::sleep(Duration::from_millis(300));
    term();
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(exit) = child.try_wait().expect("try_wait") {
            break exit;
        }
        assert!(Instant::now() < deadline, "second SIGTERM did not interrupt the round");
        std::thread::sleep(Duration::from_millis(25));
    };
    reader.join().expect("reader thread");
    lines.extend(lines_rx.try_iter());
    assert_eq!(
        exit.code(),
        Some(130),
        "second signal must exit 130, got {exit:?}; records:\n{}",
        lines.join("\n")
    );
}

/// Pipe a wire document into `--serve --ingest -` and return (exit-success,
/// stdout).
fn ingest_stdin(input: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--serve", "--ingest", "-", "--audit=window:size=16"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the audit binary");
    child
        .stdin
        .take()
        .expect("child stdin is piped")
        .write_all(input.as_bytes())
        .expect("writing the wire document");
    let output = child.wait_with_output().expect("running --serve --ingest -");
    (output.status.success(), String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Decoder EOF handling through the serve endpoint: the final document of a
/// stream that ends without a trailing newline still yields its verdict and
/// a clean `reason:"eof"` stop.
#[test]
fn serve_ingest_audits_a_final_document_without_trailing_newline() {
    let doc = "{\"tm-history\":1,\"sessions\":1,\"vars\":2,\"initial\":0}\n\
               {\"s\":0,\"q\":0,\"h\":1,\"r\":[],\"w\":[[0,7]]}\n\
               {\"s\":0,\"q\":1,\"h\":2,\"r\":[[0,7]],\"w\":[[1,7]]}";
    let (ok, stdout) = ingest_stdin(doc);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"type\":\"ingest-verdict\""), "{stdout}");
    assert!(stdout.contains("\"docs\":1"), "{stdout}");
    assert!(stdout.contains("\"decode_errors\":0"), "{stdout}");
    assert!(stdout.contains("\"reason\":\"eof\""), "{stdout}");
}

/// A document torn mid-record at EOF (a truncated upload) reports one
/// positioned `ingest-error`, resynchronizes, and still stops cleanly with
/// `reason:"eof"` instead of wedging or crashing.
#[test]
fn serve_ingest_resyncs_after_a_document_torn_at_eof() {
    let doc = "{\"tm-history\":1,\"sessions\":1,\"vars\":2,\"initial\":0}\n\
               {\"s\":0,\"q\":0,\"h\":1,\"r\":[],\"w\":[[0,";
    let (ok, stdout) = ingest_stdin(doc);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"type\":\"ingest-error\""), "{stdout}");
    assert!(stdout.contains("\"line\":"), "{stdout}");
    assert!(stdout.contains("\"docs\":0"), "{stdout}");
    assert!(stdout.contains("\"decode_errors\":1"), "{stdout}");
    assert!(stdout.contains("\"reason\":\"eof\""), "{stdout}");
}
