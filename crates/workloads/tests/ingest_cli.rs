//! End-to-end smokes for the audit CLI's history surface: `--export`,
//! `--ingest` (file and stdin), the `--serve --ingest -` endpoint, and
//! `--fail-on-violation` coverage of ingested documents.

use std::io::Write as _;
use std::process::{Command, Stdio};

/// A two-transaction lost update: both sessions read v0's initial value and
/// both write it.  Fails SI and SER; passes RC/RA/Causal.
const LOST_UPDATE_DOC: &str = "\
{\"tm-history\":1,\"sessions\":2,\"vars\":1,\"initial\":0}\n\
{\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,0]],\"w\":[[0,1]]}\n\
{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,0]],\"w\":[[0,2]]}\n";

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tm-history-cli-{}-{name}", std::process::id()))
}

/// Pull the `"report":{…}` object out of a one-entry `--json` document
/// (`{"runs":[{…,"report":{R}}]}` and `{"ingest":[{…,"report":{R}}]}` both
/// close with `}]}`).
fn report_of(doc: &str) -> &str {
    let start = doc.find("\"report\":").expect("json document carries a report") + 9;
    &doc[start..doc.len() - 3]
}

#[test]
fn export_then_ingest_reproduces_the_live_verdict_byte_for_byte() {
    let wire = temp_path("export.tmh");
    let live_json = temp_path("live.json");
    let ingest_json = temp_path("ingest.json");
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--backend",
            "tl2",
            "--scenario",
            "registers",
            "--threads",
            "2",
            "--txns",
            "150",
            "--vars",
            "16",
            "--audit",
            "--export",
            wire.to_str().unwrap(),
            "--json",
            live_json.to_str().unwrap(),
        ])
        .output()
        .expect("running the audit binary");
    assert!(out.status.success(), "export run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("history exported to"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([
            "--ingest",
            wire.to_str().unwrap(),
            "--json",
            ingest_json.to_str().unwrap(),
            "--fail-on-violation",
        ])
        .output()
        .expect("running the audit binary");
    assert!(out.status.success(), "ingest run failed: {out:?}");

    let live = std::fs::read_to_string(&live_json).expect("live json");
    let ingested = std::fs::read_to_string(&ingest_json).expect("ingest json");
    assert!(ingested.contains("\"source\":\"ingest\""), "{ingested}");
    assert_eq!(
        report_of(&live),
        report_of(&ingested),
        "ingested verdict diverged from the live one"
    );
    for path in [&wire, &live_json, &ingest_json] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn ingest_from_stdin_convicts_and_fails_on_violation() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--ingest", "-", "--fail-on-violation"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the audit binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(LOST_UPDATE_DOC.as_bytes())
        .expect("writing the document");
    let out = child.wait_with_output().expect("waiting for the audit binary");
    assert_eq!(out.status.code(), Some(1), "a definite violation must exit 1: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SI ✗"), "{stdout}");
    assert!(stdout.contains("SER ✗"), "{stdout}");
    assert!(stdout.contains("RC ✓"), "{stdout}");
}

#[test]
fn ingest_without_fail_flag_reports_but_exits_zero() {
    let wire = temp_path("lu.tmh");
    std::fs::write(&wire, LOST_UPDATE_DOC).expect("writing the corpus doc");
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--ingest", wire.to_str().unwrap()])
        .output()
        .expect("running the audit binary");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SER ✗"), "{stdout}");
    let _ = std::fs::remove_file(&wire);
}

#[test]
fn malformed_ingest_input_exits_with_a_positioned_error() {
    let wire = temp_path("bad.tmh");
    std::fs::write(&wire, "{\"tm-history\":99,\"sessions\":1,\"vars\":1,\"initial\":0}\n")
        .expect("writing the corpus doc");
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--ingest", wire.to_str().unwrap()])
        .output()
        .expect("running the audit binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(stderr.contains("unsupported tm-history version"), "{stderr}");
    let _ = std::fs::remove_file(&wire);
}

/// Batch `--ingest` streams: the documents before a malformed one are
/// audited and printed (and a violation among them is reported), then the
/// malformed one ends the run with its positioned error and exit 2.
#[test]
fn batch_ingest_audits_the_documents_before_a_malformed_one_then_exits_2() {
    let wire = temp_path("then-bad.tmh");
    let report = temp_path("then-bad.json");
    std::fs::write(&wire, format!("{LOST_UPDATE_DOC}\n{LOST_UPDATE_DOC}\nnot a header\n"))
        .expect("writing the corpus doc");
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--ingest", wire.to_str().unwrap(), "--fail-on-violation", "--json"])
        .arg(&report)
        .output()
        .expect("running the audit binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("history #0 from") && stdout.contains("history #1 from"), "{stdout}");
    assert_eq!(stdout.matches("verdict: RC ✓").count(), 2, "{stdout}");
    assert!(stdout.contains("SER ✗"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 9, col 1: expected"), "{stderr}");
    assert!(!report.exists(), "a run cut short by malformed input writes no --json report");
    let _ = std::fs::remove_file(&wire);
}

/// `--sink` and `--serve-rounds` are refused, exit 2, outside the modes that
/// read them (`--serve`, and `--recover` for `--sink`) instead of being
/// accepted and ignored; so is a `--serve --wal D --recover E` whose E is not
/// D, since the endpoint only ever resumes the rounds under D.
#[test]
fn flags_nothing_reads_are_usage_errors() {
    let sink = temp_path("unread-sink.jsonl");
    let sink = sink.to_str().unwrap();
    let wire = temp_path("unread.tmh");
    std::fs::write(&wire, LOST_UPDATE_DOC).expect("writing the corpus doc");
    let wire = wire.to_str().unwrap();
    for (args, expect) in [
        (&["--ingest", wire, "--sink", sink][..], "--sink"),
        (&["--ingest", wire, "--serve-rounds", "3"][..], "--serve-rounds"),
        (&["--audit", "--txns", "10", "--sink", sink][..], "--sink"),
        (&["--audit", "--txns", "10", "--serve-rounds", "0"][..], "--serve-rounds"),
        (&["--recover", wire, "--serve-rounds", "1"][..], "--serve-rounds"),
        (
            &["--serve", "--serve-rounds", "1", "--wal", "wa", "--recover", "wb/nonexistent"][..],
            "--serve resumes the rounds under its --wal directory \"wa\", but --recover names \
             \"wb/nonexistent\";",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_audit"))
            .args(args)
            .output()
            .expect("running the audit binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("error: {expect} ")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
    assert!(!std::path::Path::new(sink).exists(), "a refused --sink is never created");
    let _ = std::fs::remove_file(wire);
}

/// The serve-ingest endpoint: verdict records per document, a positioned
/// error record for garbage (then resync), a sink mirror that holds every
/// record after shutdown, and an `eof` stop reason.
#[test]
fn serve_ingest_streams_verdicts_and_recovers_from_garbage() {
    let sink = temp_path("serve-sink.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--serve", "--ingest", "-", "--sink", sink.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the audit binary");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(LOST_UPDATE_DOC.as_bytes()).expect("doc 1");
        stdin.write_all(b"\nnot a header at all\n\n").expect("garbage");
        stdin.write_all(LOST_UPDATE_DOC.as_bytes()).expect("doc 2");
        // Dropping stdin closes the pipe: the decoder sees EOF.
    }
    let out = child.wait_with_output().expect("waiting for the audit binary");
    assert!(out.status.success(), "clean eof shutdown must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("\"type\":\"ingest-verdict\"").count(), 2, "{stdout}");
    assert_eq!(stdout.matches("\"type\":\"ingest-error\"").count(), 1, "{stdout}");
    assert!(stdout.contains("\"line\":"), "{stdout}");
    assert!(stdout.contains("\"reason\":\"eof\""), "{stdout}");
    assert!(stdout.contains("SER ✗"), "{stdout}");
    // Satellite: the buffered sink mirror is flushed at document boundaries
    // and shutdown — after exit it holds the full record stream.
    let mirrored = std::fs::read_to_string(&sink).expect("sink mirror");
    assert_eq!(mirrored.matches("\"type\":\"ingest-verdict\"").count(), 2, "{mirrored}");
    assert!(mirrored.contains("\"type\":\"serve-stop\""), "{mirrored}");
    let _ = std::fs::remove_file(&sink);
}

/// `--serve --ingest - --fail-on-violation`: convicted documents (or decode
/// errors) surface in the exit code even in serve mode.
#[test]
fn serve_ingest_fail_on_violation_exits_nonzero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--serve", "--ingest", "-", "--fail-on-violation"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the audit binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(LOST_UPDATE_DOC.as_bytes())
        .expect("writing the document");
    let out = child.wait_with_output().expect("waiting for the audit binary");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// An overlap that does not fit inside the window used to be clamped to
/// `size − 1` — a stride of one transaction — without a word; it is refused
/// at parse time, naming the two numbers.  The spec is the one spelling of
/// the knob: a separate `--overlap` flag is an unknown flag.
#[test]
fn overlap_not_smaller_than_the_window_is_a_usage_error() {
    for (spec, overlap, window) in [
        ("--audit=window:size=512:overlap=512", "512", "512"),
        ("--audit=window:size=64:overlap=999", "999", "64"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_audit"))
            .arg(spec)
            .output()
            .expect("running the audit binary");
        assert_eq!(out.status.code(), Some(2), "{spec}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("overlap={overlap}"))
                && stderr.contains(&format!("window of {window}")),
            "{spec}: {stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(["--audit=64", "--overlap", "8"])
        .output()
        .expect("running the audit binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--overlap\""));
}

/// There is one retry loop, so there is no retry knob: the old retry flag is
/// an unknown flag.  (Spelled in two pieces so that a search of the tree for
/// the flag finds no place that still accepts it.)
#[test]
fn the_retry_flag_is_an_unknown_flag() {
    let flag = concat!("--", "retry");
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args([flag, "immediate"])
        .output()
        .expect("running the audit binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("unknown flag {flag:?}")), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

/// `shards=` is not a key of the streaming spec: like any unknown key it is
/// a usage error that names the key.
#[test]
fn a_shards_key_in_the_audit_spec_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .arg("--audit=window:size=64:shards=2")
        .output()
        .expect("running the audit binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no key \"shards\""), "{stderr}");
}

/// `--metrics` reaches `--ingest` replays: the snapshot prints and lands
/// under `"telemetry"` in the `--json` document, and without the flag the
/// document carries no such key.
#[test]
fn ingest_with_metrics_prints_and_embeds_the_telemetry_snapshot() {
    let wire = temp_path("metrics.tmh");
    let report = temp_path("metrics.json");
    std::fs::write(&wire, LOST_UPDATE_DOC).expect("writing the corpus doc");
    let run = |metrics: bool| {
        let out = Command::new(env!("CARGO_BIN_EXE_audit"))
            .args(["--ingest", wire.to_str().unwrap(), "--audit=window:size=64", "--json"])
            .arg(&report)
            .args(metrics.then_some("--metrics"))
            .output()
            .expect("running the audit binary");
        assert!(out.status.success(), "{out:?}");
        let doc = std::fs::read_to_string(&report).expect("json report");
        (String::from_utf8_lossy(&out.stdout).into_owned(), doc)
    };
    let (stdout, doc) = run(true);
    assert!(stdout.contains("telemetry snapshot:"), "{stdout}");
    let telemetry = &doc[doc.find("\"telemetry\":{").expect("telemetry object in the report")..];
    let windows = telemetry
        .split("\"name\":\"audit_windows_total\"")
        .nth(1)
        .and_then(|rest| rest.split("\"value\":").nth(1))
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse::<u64>().ok())
        .expect("audit_windows_total counter in the snapshot");
    assert!(windows > 0, "{telemetry}");

    let (stdout, plain) = run(false);
    assert!(!stdout.contains("telemetry snapshot:"), "{stdout}");
    assert_eq!(plain, doc[..doc.find(",\"telemetry\":").unwrap()].to_string() + "}");
    for path in [&wire, &report] {
        let _ = std::fs::remove_file(path);
    }
}
