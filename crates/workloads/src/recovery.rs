//! Crash-consistent commit logging and audited recovery.
//!
//! This module is the glue between the three layers the durability tier is
//! built from:
//!
//! * [`stm_runtime::wal`] — the write-ahead sink ([`WalSink`]) that appends
//!   committed transactions to per-round segment files in the `tm-history`
//!   wire format, seals segments with length+CRC framing plus the caller's
//!   record, and truncates torn tails on recovery
//!   ([`stm_runtime::wal::recover_round`]);
//! * [`tm_history::wire`] — the decoder, whose arrival-order API
//!   (`Decoder::next_log_prefix`) replays the log in the exact order
//!   the auditor originally ingested it;
//! * [`tm_audit::recovery`] — the [`BoundaryRecord`] each window-closing
//!   seal carries: the closed window's verdict, the window shape and three
//!   counters.  Nothing the log already says is written again — the sealed
//!   log is the frontier's durable form, and
//!   [`WindowedAuditor::resume_from_frontier`] re-absorbs it from there.
//!
//! [`WalTee`] is the [`TxnSink`] that runs during a round: every record is
//! appended to the log *before* it reaches the auditor (write-ahead), and
//! every closed window seals the current segment with its boundary record —
//! one atomic publish per boundary.  [`recover_round_auditor`] /
//! [`recover_round_report`] are the other half: given a round directory
//! left behind by a killed process, they truncate the torn tail, read the
//! record chain off the verified seals, rebuild the auditor at the last
//! sealed boundary from the log prefix, and replay the suffix — producing
//! the verdict the uninterrupted round would have reached over the same
//! records.

use std::io;
use std::path::{Path, PathBuf};
use stm_runtime::wal::{recover_round, write_atomic, RecoveredRound, WalSink};
use tm_audit::{
    AuditTxn, BoundaryRecord, SatConfig, StreamReport, TxnSink, WindowConfig, WindowedAuditor,
};
use tm_history::Decoder;
use tm_telemetry::json::{self, Value};

/// File-name of the per-WAL-directory metadata blob (round shape, window
/// config) written once at serve start.
pub const WAL_META_FILE: &str = "wal-meta.json";

/// A [`TxnSink`] that tees every committed transaction into a [`WalSink`]
/// *before* handing it to the [`WindowedAuditor`] — the write-ahead
/// ordering that makes the log an upper bound on what the auditor has
/// seen.  Each time the auditor closes a window, the tee invokes
/// `pre_seal` (the hook the serve loop uses to flush its buffered emitter
/// records first) and seals the current segment with the auditor's
/// boundary record.
///
/// Log I/O errors do not panic the audit thread: the first error is
/// stored, further WAL writes stop, the auditor keeps running, and
/// [`WalTee::finish`] surfaces the error.  A record for a session the
/// round's header does not declare is such an error (`InvalidInput`).
pub struct WalTee<F: FnMut()> {
    wal: WalSink,
    auditor: WindowedAuditor,
    seqs: Vec<u64>,
    sealed_windows: usize,
    sealed_segments: u64,
    pre_seal: F,
    io_error: Option<io::Error>,
}

/// What one WAL-logged round wrote, reported by [`WalTee::finish`].
#[derive(Debug, Clone, Copy)]
pub struct WalTeeStats {
    /// Committed transactions appended to the log.
    pub logged_txns: u64,
    /// Segments sealed (window-boundary seals plus the final tail seal).
    pub sealed_segments: u64,
}

impl<F: FnMut()> WalTee<F> {
    /// Open a WAL round at `dir` for `sessions` sessions over `vars`
    /// variables (initial value 0, like every recorded run) feeding
    /// `auditor`.
    pub fn create(
        dir: &Path,
        sessions: usize,
        vars: usize,
        auditor: WindowedAuditor,
        pre_seal: F,
    ) -> io::Result<WalTee<F>> {
        let wal = WalSink::create(dir, sessions, vars, 0)?;
        let sealed_windows = auditor.windows_closed();
        Ok(WalTee {
            wal,
            auditor,
            seqs: vec![0; sessions],
            sealed_windows,
            sealed_segments: 0,
            pre_seal,
            io_error: None,
        })
    }

    /// Seal the tail segment, write the round's `complete.json` marker and
    /// hand the auditor back for [`WindowedAuditor::finish`].  Any log
    /// I/O error swallowed during the round resurfaces here.
    pub fn finish(mut self) -> io::Result<(WindowedAuditor, WalTeeStats)> {
        if let Some(err) = self.io_error.take() {
            return Err(err);
        }
        let logged_txns = self.wal.total_txns();
        let tail = self.wal.segment_lines() > 0;
        self.wal.finish()?;
        let stats =
            WalTeeStats { logged_txns, sealed_segments: self.sealed_segments + u64::from(tail) };
        Ok((self.auditor, stats))
    }

    /// The round directory this tee logs into.
    pub fn dir(&self) -> &Path {
        self.wal.dir()
    }

    fn log(&mut self, session: usize, txn: &AuditTxn) {
        if self.io_error.is_some() {
            return;
        }
        // A session the header does not declare would log a record that
        // recovery refuses, leaving the round unrecoverable: log nothing.
        let Some(next) = self.seqs.get_mut(session) else {
            self.io_error = Some(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "session {session} out of range (the round's header declares {} sessions)",
                    self.seqs.len()
                ),
            ));
            return;
        };
        let seq = *next;
        *next += 1;
        if let Err(err) = self.wal.append_txn(session, seq, txn.hint, &txn.reads, &txn.writes) {
            self.io_error = Some(err);
        }
    }

    fn seal_if_window_closed(&mut self) {
        let closed = self.auditor.windows_closed();
        if closed == self.sealed_windows || self.io_error.is_some() {
            self.sealed_windows = closed;
            return;
        }
        self.sealed_windows = closed;
        // Anything the host buffered (serve records, sink mirrors) must be
        // durable before the seal claims this prefix of the round is.
        (self.pre_seal)();
        let record = self.auditor.boundary_record().expect("a window just closed").to_json();
        match self.wal.seal_segment(Some(&record)) {
            Ok(_) => self.sealed_segments += 1,
            Err(err) => self.io_error = Some(err),
        }
    }
}

impl<F: FnMut()> TxnSink for WalTee<F> {
    fn push_txn(&mut self, session: usize, txn: AuditTxn) {
        self.log(session, &txn);
        self.auditor.push(session, txn);
        self.seal_if_window_closed();
    }
}

/// The auditor and replay bookkeeping [`recover_round_auditor`] hands back,
/// positioned exactly where the crashed round's audit left off.
pub struct WalRecovery {
    /// The resumed (or cold-started) auditor with the whole surviving log
    /// already replayed; call [`WindowedAuditor::finish`] — or keep pushing
    /// live traffic — to complete the round.
    pub auditor: WindowedAuditor,
    /// Transactions covered by the stored verdicts and not re-audited
    /// (0 on a cold replay).
    pub snapshot_txns: u64,
    /// Transactions replayed from the log into the resumed auditor.
    pub replayed_txns: u64,
    /// Bytes of torn (unsealed, truncated) tail discarded by recovery.
    pub torn_bytes: u64,
    /// Log segments found on disk.
    pub segments: usize,
    /// Whether the round had already finished cleanly (`complete.json`).
    pub complete: bool,
    /// The sealed segment whose record the auditor resumed from, if any.
    pub resumed_from_segment: Option<u64>,
}

/// Recover one round directory: truncate the torn tail, decode the
/// surviving log, read the record chain off the seals, rebuild the auditor
/// at the newest record's boundary from the log prefix and replay the
/// suffix.
///
/// `fallback` is the window shape used when no window-closing seal survived
/// (a crash before the first one); when one exists its recorded config
/// wins, so recovery always audits with the original round's windows.
/// `sat` re-arms the CDCL escalation stage (solver handles are not
/// persisted).
pub fn recover_round_auditor(
    dir: &Path,
    fallback: WindowConfig,
    sat: Option<SatConfig>,
) -> Result<WalRecovery, String> {
    let round = recover_round(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    resume_round(dir, round, fallback, sat)
}

fn resume_round(
    dir: &Path,
    round: RecoveredRound,
    fallback: WindowConfig,
    sat: Option<SatConfig>,
) -> Result<WalRecovery, String> {
    if round.text.is_empty() {
        return Err(format!("{}: nothing recoverable (empty or fully torn log)", dir.display()));
    }
    let mut decoder = Decoder::new(round.text.as_bytes());
    let (history, arrival) = decoder
        .next_log_prefix()
        .map_err(|e| format!("{}: recovered log does not decode: {e}", dir.display()))?
        .ok_or_else(|| format!("{}: recovered log holds no history document", dir.display()))?;

    let records: Vec<(u64, &str)> =
        round.segments.iter().filter_map(|s| Some((s.index, s.record.as_deref()?))).collect();
    let chain = records
        .iter()
        .map(|&(segment, text)| {
            BoundaryRecord::parse(text)
                .map_err(|e| format!("{}: the record in seal {segment}: {e}", dir.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut auditor = if chain.is_empty() {
        WindowedAuditor::new(history.n_vars, history.initial, WindowConfig { sat, ..fallback })
    } else {
        WindowedAuditor::resume_from_frontier(&chain, &history, &arrival, sat)
            .map_err(|e| format!("{}: {e}", dir.display()))?
    };
    let replay_from = auditor.txns_seen() as usize;
    for id in &arrival[replay_from..] {
        let txn = history.txn(*id).ok_or_else(|| {
            format!("{}: arrival id {id} missing from decoded log", dir.display())
        })?;
        auditor.push(id.session, txn.clone());
    }
    Ok(WalRecovery {
        auditor,
        snapshot_txns: replay_from as u64,
        replayed_txns: (arrival.len() - replay_from) as u64,
        torn_bytes: round.torn_bytes(),
        segments: round.segments.len(),
        complete: round.complete,
        resumed_from_segment: records.last().map(|&(segment, _)| segment),
    })
}

/// One recovered round's verdict, with the bookkeeping that distinguishes
/// it from an uninterrupted run.
#[derive(Debug, Clone)]
pub struct RecoveredRoundReport {
    /// The round directory that was recovered.
    pub dir: PathBuf,
    /// Index parsed from the `round-NNNN` directory name, when it has one.
    pub round: Option<u64>,
    /// The finished verdict over every surviving logged transaction.
    pub stream: StreamReport,
    /// Transactions covered by stored verdicts, not re-audited.
    pub snapshot_txns: u64,
    /// Transactions replayed from the log.
    pub replayed_txns: u64,
    /// Torn tail bytes truncated.
    pub torn_bytes: u64,
    /// Log segments found.
    pub segments: usize,
    /// The sealed segment whose record seeded the resume, if any.
    pub resumed_from_segment: Option<u64>,
}

impl RecoveredRoundReport {
    /// The machine-readable recovered verdict: the usual stream report,
    /// plus `"recovered":true` and the snapshot/replay split.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"recovered\":true,\"round\":{},\"dir\":\"{}\",\"snapshot_txns\":{},\
             \"replayed_txns\":{},\"total_txns\":{},\"torn_bytes\":{},\"segments\":{},\
             \"resumed_from_segment\":{},\"report\":{}}}",
            self.round.map_or("null".to_string(), |r| r.to_string()),
            json::escape(&self.dir.display().to_string()),
            self.snapshot_txns,
            self.replayed_txns,
            self.stream.total_txns,
            self.torn_bytes,
            self.segments,
            self.resumed_from_segment.map_or("null".to_string(), |s| s.to_string()),
            self.stream.to_json()
        )
    }
}

/// [`recover_round_auditor`], finished: recover, replay, close the audit
/// and return the round's verdict.  On success the recovered verdict is
/// persisted as `recovered.json` in the round directory and the round is
/// marked `complete.json`, so a second recovery pass skips it instead of
/// re-auditing.
pub fn recover_round_report(
    dir: &Path,
    fallback: WindowConfig,
    sat: Option<SatConfig>,
) -> Result<RecoveredRoundReport, String> {
    let round = recover_round(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if round.complete {
        return Err(format!("{}: round already complete; nothing to recover", dir.display()));
    }
    let recovery = resume_round(dir, round, fallback, sat)?;
    let stream = recovery.auditor.finish();
    let report = RecoveredRoundReport {
        dir: dir.to_path_buf(),
        round: round_index_of(dir),
        stream,
        snapshot_txns: recovery.snapshot_txns,
        replayed_txns: recovery.replayed_txns,
        torn_bytes: recovery.torn_bytes,
        segments: recovery.segments,
        resumed_from_segment: recovery.resumed_from_segment,
    };
    write_atomic(dir, "recovered.json", report.to_json().as_bytes())
        .and_then(|()| {
            write_atomic(dir, "complete.json", b"{\"wal-complete\":1,\"recovered\":true}\n")
        })
        .map_err(|e| format!("{}: persisting recovery marker: {e}", dir.display()))?;
    Ok(report)
}

/// Name of the `round-NNNN` directory for round `index`.
pub fn round_dir_name(index: u64) -> String {
    format!("round-{index:04}")
}

fn round_index_of(dir: &Path) -> Option<u64> {
    dir.file_name()?.to_str()?.strip_prefix("round-")?.parse().ok()
}

/// Every `round-NNNN` directory under the WAL root, sorted by index.
pub fn round_dirs(wal_dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut rounds = Vec::new();
    for entry in match std::fs::read_dir(wal_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    } {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        if let Some(index) = round_index_of(&entry.path()) {
            rounds.push((index, entry.path()));
        }
    }
    rounds.sort();
    Ok(rounds)
}

/// Round directories that never finished (no `complete.json`) — what a
/// recovery pass works through.
pub fn incomplete_rounds(wal_dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    Ok(round_dirs(wal_dir)?
        .into_iter()
        .filter(|(_, dir)| !dir.join("complete.json").exists())
        .collect())
}

/// The first unused round index under the WAL root.
pub fn next_round_index(wal_dir: &Path) -> io::Result<u64> {
    Ok(round_dirs(wal_dir)?.last().map_or(0, |(index, _)| index + 1))
}

/// The WAL directory's metadata: the round shape and window config every
/// round under it was produced with — what recovery falls back to when a
/// crash landed before the first window-closing seal.
#[derive(Debug, Clone, PartialEq)]
pub struct WalMeta {
    /// Scenario name the serve loop runs.
    pub scenario: String,
    /// Backend name the serve loop runs on.
    pub backend: String,
    /// Worker threads (= audit sessions) per round.
    pub threads: usize,
    /// Committed transactions per thread per round.
    pub txns_per_thread: usize,
    /// Scenario variable pool size.
    pub vars: usize,
    /// Base workload seed (round `r` runs with `seed + r`).
    pub seed: u64,
    /// The window shape rounds are audited with (`sat` is a CLI concern and
    /// not persisted).
    pub window: WindowConfig,
}

impl WalMeta {
    /// Serialize to the single-line JSON stored as [`WAL_META_FILE`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wal-meta\":1,\"scenario\":\"{}\",\"backend\":\"{}\",\"threads\":{},\
             \"txns_per_thread\":{},\"vars\":{},\"seed\":{},\"window\":{}}}",
            json::escape(&self.scenario),
            json::escape(&self.backend),
            self.threads,
            self.txns_per_thread,
            self.vars,
            self.seed,
            self.window.to_json(),
        )
    }

    /// Parse what [`WalMeta::to_json`] wrote.
    pub fn parse(text: &str) -> Result<WalMeta, String> {
        let read = || -> Result<WalMeta, json::ParseError> {
            let doc = json::parse(text)?;
            let version = doc.field("wal-meta", Value::as_u64)?;
            if version != 1 {
                let message = format!("unsupported version {version}");
                return Err(json::ParseError { message });
            }
            let text_field = |key| doc.field(key, Value::as_str).map(str::to_string);
            let number = |key| doc.field(key, Value::as_u64);
            Ok(WalMeta {
                scenario: text_field("scenario")?,
                backend: text_field("backend")?,
                threads: number("threads")? as usize,
                txns_per_thread: number("txns_per_thread")? as usize,
                vars: number("vars")? as usize,
                seed: number("seed")?,
                window: WindowConfig::from_json(doc.field("window", Some)?)?,
            })
        };
        read().map_err(|e| format!("wal-meta: {e}"))
    }

    /// Write the metadata blob at the WAL root (tmp+rename, idempotent).
    pub fn store(&self, wal_dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(wal_dir)?;
        write_atomic(wal_dir, WAL_META_FILE, self.to_json().as_bytes())
    }

    /// Load the metadata blob, if the WAL root has one.
    pub fn load(wal_dir: &Path) -> Result<Option<WalMeta>, String> {
        let path = wal_dir.join(WAL_META_FILE);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                WalMeta::parse(&text).map(Some).map_err(|e| format!("{}: {e}", path.display()))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_audit::{audit_streamed, AccessSet};
    use tm_history::{generate, GenConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("workloads-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_meta_round_trips() {
        let mut window = WindowConfig::sized(512);
        window.overlap = 64;
        let meta = WalMeta {
            scenario: "registers".into(),
            backend: "ofree".into(),
            threads: 4,
            txns_per_thread: 1_000,
            vars: 64,
            seed: 2_024,
            window,
        };
        assert_eq!(WalMeta::parse(&meta.to_json()).unwrap(), meta);
        // Byte for byte the form earlier builds wrote, so their files parse.
        assert_eq!(
            meta.to_json(),
            format!(
                "{{\"wal-meta\":1,\"scenario\":\"registers\",\"backend\":\"ofree\",\"threads\":4,\
                 \"txns_per_thread\":1000,\"vars\":64,\"seed\":2024,\"window\":{{\"size\":512,\
                 \"overlap\":64,\"budget\":{},\"retain_windows\":8,\"batch\":64}}}}",
                meta.window.budget
            )
        );
        let dir = temp_dir("meta");
        meta.store(&dir).unwrap();
        assert_eq!(WalMeta::load(&dir).unwrap(), Some(meta));
        assert_eq!(WalMeta::load(&dir.join("nope")).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_directories_enumerate_and_allocate() {
        let dir = temp_dir("rounds");
        assert_eq!(next_round_index(&dir).unwrap(), 0);
        std::fs::create_dir(dir.join(round_dir_name(0))).unwrap();
        std::fs::create_dir(dir.join(round_dir_name(3))).unwrap();
        std::fs::write(dir.join(round_dir_name(0)).join("complete.json"), b"{}").unwrap();
        assert_eq!(next_round_index(&dir).unwrap(), 4);
        let incomplete = incomplete_rounds(&dir).unwrap();
        assert_eq!(incomplete.len(), 1);
        assert_eq!(incomplete[0].0, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A complete WAL round (tee ran to finish) recovers nothing — the
    /// report path refuses it — but the auditor path replays it to the same
    /// verdict as the in-memory stream.
    #[test]
    fn complete_rounds_replay_to_the_streamed_verdict() {
        let generated = generate(&GenConfig {
            sessions: 3,
            vars: 8,
            txns_per_session: 60,
            lost_update_per_mille: 40,
            seed: 7,
            ..GenConfig::default()
        });
        let history = generated.history;
        let mut window = WindowConfig::sized(32);
        window.overlap = 4;
        let baseline = audit_streamed(&history, window);

        let dir = temp_dir("complete");
        let round_dir = dir.join(round_dir_name(0));
        let auditor = WindowedAuditor::new(history.n_vars, history.initial, window);
        let mut tee =
            WalTee::create(&round_dir, history.sessions.len(), history.n_vars, auditor, || {})
                .unwrap();
        for (s, t) in history.recording_order() {
            tee.push_txn(s, t.clone());
        }
        let (auditor, stats) = tee.finish().unwrap();
        assert_eq!(stats.logged_txns, history.txn_count() as u64);
        assert!(stats.sealed_segments >= 2, "windows must have sealed segments");
        let live = auditor.finish();
        assert_eq!(live.merged, baseline.merged);

        // A finished round is its segments, their seals and the marker —
        // the boundary records ride in the seals.
        let mut kinds: Vec<&str> = std::fs::read_dir(&round_dir)
            .unwrap()
            .map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                match name.rsplit_once('.') {
                    Some(("complete", "json")) => "complete.json",
                    Some((stem, "tmh")) if stem.starts_with("segment-") => "segment-*.tmh",
                    Some((stem, "seal")) if stem.starts_with("segment-") => "segment-*.seal",
                    _ => panic!("unexpected file {name} in a finished round"),
                }
            })
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, ["complete.json", "segment-*.seal", "segment-*.tmh"]);

        // The finished round refuses report-path recovery — before it reads
        // a record or decodes a log line...
        let seal = round_dir.join("segment-000000.seal");
        let intact = std::fs::read_to_string(&seal).unwrap();
        let (line, _) = intact.split_once('\n').unwrap();
        std::fs::write(&seal, format!("{line}\nnot json\n")).unwrap();
        let err = recover_round_report(&round_dir, window, None).unwrap_err();
        assert!(err.contains("already complete"), "{err}");
        std::fs::write(&seal, intact).unwrap();
        // ...but the auditor path replays it to the identical verdict.
        let recovery = recover_round_auditor(&round_dir, window, None).unwrap();
        assert!(recovery.complete);
        assert_eq!(recovery.torn_bytes, 0);
        let replayed = recovery.auditor.finish();
        assert_eq!(replayed.merged, baseline.merged);
        assert_eq!(replayed.total_txns, baseline.total_txns);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A session past the header's count is refused before it reaches the
    /// log: `finish` reports it, and the round stays recoverable.
    #[test]
    fn an_undeclared_session_is_an_error_not_an_unrecoverable_record() {
        let dir = temp_dir("undeclared");
        let round_dir = dir.join(round_dir_name(0));
        let auditor = WindowedAuditor::new(4, 0, small_window());
        let mut tee = WalTee::create(&round_dir, 2, 4, auditor, || {}).unwrap();
        let txn = |hint: u64, value: i64| AuditTxn {
            reads: AccessSet::new(),
            writes: [(0, value)].into(),
            hint,
            footprint: 0,
        };
        tee.push_txn(1, txn(0, 1));
        tee.push_txn(2, txn(1, 2));
        tee.push_txn(0, txn(2, 3));
        let err = tee.finish().expect_err("the undeclared session is reported");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            err.to_string(),
            "session 2 out of range (the round's header declares 2 sessions)"
        );
        let log = std::fs::read_to_string(round_dir.join("segment-000000.tmh")).unwrap();
        assert_eq!(log.lines().count(), 2, "the header and the one record before it: {log}");
        let recovery = recover_round_auditor(&round_dir, small_window(), None).unwrap();
        assert_eq!(recovery.replayed_txns, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A reader logged before its writer (the recorder stamps hints after a
    /// commit's writes are visible) and a crash in between: the durable log
    /// is not a closed wire document, yet the round recovers to the verdict
    /// the live auditor reached over the same records.
    #[test]
    fn a_reader_whose_writer_the_crash_cut_off_still_recovers() {
        let dir = temp_dir("dangling");
        let round_dir = dir.join(round_dir_name(0));
        let txn = |hint: u64, reads: &[(usize, i64)], writes: &[(usize, i64)]| AuditTxn {
            reads: reads.to_vec().into(),
            writes: writes.to_vec().into(),
            hint,
            footprint: 0,
        };
        // Session 0 increments v0; session 1's one transaction, early in
        // the first window, read v1 = 99 from a writer that never arrives.
        let mut records: Vec<(usize, AuditTxn)> =
            (0..40).map(|i| (0, txn(i + 1, &[(0, i as i64)], &[(0, i as i64 + 1)]))).collect();
        records.insert(5, (1, txn(0, &[(1, 99)], &[(2, 7)])));
        let mut live = WindowedAuditor::new(4, 0, small_window());
        let auditor = WindowedAuditor::new(4, 0, small_window());
        let mut tee = WalTee::create(&round_dir, 2, 4, auditor, || {}).unwrap();
        for (s, t) in &records {
            live.push(*s, t.clone());
            tee.push_txn(*s, t.clone());
        }
        drop(tee); // kill -9 before the writer of v1 = 99 commits
        let live = live.finish();
        assert_eq!(live.evicted_attributions, 1, "the live auditor attributed the read");

        let text = recover_round(&round_dir).unwrap().text;
        let err = tm_history::decode(&text).expect_err("not a closed document");
        assert!(err.message.contains("thin-air read"), "{err}");
        let recovery = recover_round_auditor(&round_dir, small_window(), None).unwrap();
        assert_eq!(recovery.resumed_from_segment, Some(0), "the reader is in a sealed window");
        let recovered = recovery.auditor.finish();
        assert_eq!(recovered.merged, live.merged);
        assert_eq!(recovered.total_txns, live.total_txns);
        assert_eq!(recovered.evicted_attributions, live.evicted_attributions);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A healthy 180-record round killed after 100 records: windows of 32
    /// with stride 28 sealed three segments, so the newest record sits in
    /// `segment-000002.seal` and covers 84 records.  Returns the scratch
    /// root and the round directory.
    fn crashed_round(tag: &str) -> (PathBuf, PathBuf) {
        let history = generate(&GenConfig {
            sessions: 3,
            vars: 8,
            txns_per_session: 60,
            seed: 11,
            ..GenConfig::default()
        })
        .history;
        let order = history.recording_order();
        let root = temp_dir(tag);
        let dir = root.join(round_dir_name(0));
        let auditor = WindowedAuditor::new(history.n_vars, history.initial, small_window());
        let mut tee = WalTee::create(&dir, 3, history.n_vars, auditor, || {}).unwrap();
        for &(s, t) in &order[..100] {
            tee.push_txn(s, t.clone());
        }
        drop(tee); // kill -9
        (root, dir)
    }

    fn small_window() -> WindowConfig {
        WindowConfig { overlap: 4, ..WindowConfig::sized(32) }
    }

    /// Recover `dir` with seal `segment` rewritten by `edit` (seal line,
    /// record line); hand back the error and put the intact seal back.
    fn recover_with_seal_edited(
        dir: &Path,
        segment: u64,
        edit: impl FnOnce(&str, &str) -> String,
    ) -> String {
        let path = dir.join(format!("segment-{segment:06}.seal"));
        let intact = std::fs::read_to_string(&path).unwrap();
        let (line, record) = intact.trim_end().split_once('\n').unwrap();
        std::fs::write(&path, edit(line, record)).unwrap();
        let err = recover_round_auditor(dir, small_window(), None)
            .err()
            .expect("a seal that contradicts its log must not resume");
        std::fs::write(&path, intact).unwrap();
        err
    }

    /// Hostile seals are errors — never a panic, never a verdict.
    #[test]
    fn hostile_snapshots_never_resume() {
        let (root, dir) = crashed_round("hostile");
        let recovery = recover_round_auditor(&dir, small_window(), None).unwrap();
        assert_eq!((recovery.snapshot_txns, recovery.resumed_from_segment), (84, Some(2)));

        let err = recover_with_seal_edited(&dir, 2, |line, _| format!("{line}\n{{\"config\":\n"));
        assert!(err.contains("the record in seal 2"), "{err}");

        let err = recover_with_seal_edited(&dir, 2, |line, record| {
            format!(
                "{line}\n{}\n",
                record.replace("\"verdict\":{\"index\":2,", "\"verdict\":{\"index\":3,")
            )
        });
        assert!(
            err.contains("boundary record 2 of the chain holds the verdict of window 3"),
            "{err}"
        );

        // A record dropped from a middle seal leaves a gap in the chain.
        let err = recover_with_seal_edited(&dir, 1, |line, _| format!("{line}\n"));
        assert!(
            err.contains("boundary record 1 of the chain holds the verdict of window 2"),
            "{err}"
        );

        // A round an older build wrote: its seals are version 1.
        let err = recover_with_seal_edited(&dir, 0, |line, record| {
            format!("{}\n{record}\n", line.replace("{\"wal-seal\":2,", "{\"wal-seal\":1,"))
        });
        assert!(err.contains("unsupported WAL seal version 1"), "{err}");

        // A window count the log could not have produced would size the
        // next window's tables.
        let err = recover_with_seal_edited(&dir, 2, |line, record| {
            format!("{line}\n{}\n", record.replace("\"txns\":32,", "\"txns\":1152921504606846976,"))
        });
        assert!(err.contains("audited 1152921504606846976 transactions"), "{err}");

        assert!(
            recover_round_auditor(&dir, small_window(), None).is_ok(),
            "the intact round recovers"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
