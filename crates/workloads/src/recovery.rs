//! Crash-consistent commit logging and audited recovery.
//!
//! This module is the glue between the three layers the durability tier is
//! built from:
//!
//! * [`stm_runtime::wal`] — the write-ahead sink ([`WalSink`]) that appends
//!   committed transactions to per-round segment files in the `tm-history`
//!   wire format, seals segments with length+CRC framing, and truncates torn
//!   tails on recovery ([`stm_runtime::wal::recover_round`]);
//! * [`tm_history::wire`] — the decoder, whose arrival-order API
//!   (`Decoder::next_history_arrival`) replays the log in the exact order
//!   the auditor originally ingested it;
//! * [`tm_audit::recovery`] — the [`FrontierSnapshot`] persisted alongside
//!   each sealed segment: the closed window's verdict and the boundary
//!   scalars.  The frontier itself is not written twice — the sealed log is
//!   its durable form, and [`WindowedAuditor::resume_from_frontier`]
//!   re-absorbs it from there.
//!
//! [`WalTee`] is the [`TxnSink`] that runs during a round: every record is
//! appended to the log *before* it reaches the auditor (write-ahead), and
//! every closed window seals the current segment and writes its snapshot.
//! [`recover_round_auditor`] / [`recover_round_report`] are the other half:
//! given a round directory left behind by a killed process, they truncate
//! the torn tail, read the snapshot chain, verify the surviving log legally
//! extends it (the continuation check), rebuild the auditor at the last
//! sealed boundary from the log prefix, and replay the suffix — producing
//! the verdict the uninterrupted round would have reached over the same
//! records.

use std::io;
use std::path::{Path, PathBuf};
use stm_runtime::wal::{recover_round, write_atomic, RecoveredRound, WalSink};
use tm_audit::{
    AuditTxn, FrontierSnapshot, SatConfig, StreamReport, TxnSink, WindowConfig, WindowedAuditor,
};
use tm_history::Decoder;
use tm_telemetry::json;

/// File-name of the per-WAL-directory metadata blob (round shape, window
/// config) written once at serve start.
pub const WAL_META_FILE: &str = "wal-meta.json";

/// A [`TxnSink`] that tees every committed transaction into a [`WalSink`]
/// *before* handing it to the [`WindowedAuditor`] — the write-ahead
/// ordering that makes the log an upper bound on what the auditor has
/// seen.  Each time the auditor closes a window, the tee invokes
/// `pre_seal` (the hook the serve loop uses to flush its buffered emitter
/// records first), seals the current segment, and persists the auditor's
/// boundary snapshot next to the seal.
///
/// Log I/O errors do not panic the audit thread: the first error is
/// stored, further WAL writes stop, the auditor keeps running, and
/// [`WalTee::finish`] surfaces the error.
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
        if session >= self.seqs.len() {
            self.seqs.resize(session + 1, 0);
        }
        let seq = self.seqs[session];
        self.seqs[session] += 1;
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
        let snapshot = self.auditor.boundary_snapshot().expect("a window just closed");
        let result = self.wal.seal_segment().and_then(|sealed| {
            self.sealed_segments += 1;
            self.wal.write_blob(&frontier_file(sealed), snapshot.to_json().as_bytes())
        });
        if let Err(err) = result {
            self.io_error = Some(err);
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

/// Name of the boundary snapshot persisted next to seal `segment`.
pub fn frontier_file(segment: u64) -> String {
    format!("frontier-{segment:06}.json")
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
    /// The sealed segment whose snapshot the auditor resumed from, if any.
    pub resumed_from_segment: Option<u64>,
}

/// Recover one round directory: truncate the torn tail, decode the
/// surviving log, read the snapshot chain, verify the log is a legal
/// continuation of it, rebuild the auditor at the newest snapshot's boundary
/// from the log prefix and replay the suffix.
///
/// `fallback` is the window shape used when no snapshot survived (a crash
/// before the first seal); when one exists its persisted config wins, so
/// recovery always audits with the original round's windows.  `sat` re-arms
/// the CDCL escalation stage (solver handles are not persisted).
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
        .next_history_arrival()
        .map_err(|e| format!("{}: recovered log does not decode: {e}", dir.display()))?
        .ok_or_else(|| format!("{}: recovered log holds no history document", dir.display()))?;

    let chain = frontier_chain(dir, round.segments.iter().filter(|s| s.sealed).count())?;
    let (mut auditor, replay_from) = match chain.last() {
        Some(newest) => (
            WindowedAuditor::resume_from_frontier(&chain, &history, &arrival, sat)
                .map_err(|e| format!("{}: {e}", dir.display()))?,
            newest.replay_from as usize,
        ),
        None => {
            let config = WindowConfig { sat, ..fallback };
            (WindowedAuditor::new(history.n_vars, history.initial, config), 0)
        }
    };
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
        resumed_from_segment: chain.len().checked_sub(1).map(|newest| newest as u64),
    })
}

/// The snapshot chain `frontier-000000.json ..= frontier-K.json` of `dir`,
/// `K` being the newest one present among the `sealed` verified segments.
/// Snapshots are written with tmp+rename, so a surviving file is complete —
/// but a crash can land between sealing a segment and writing its snapshot,
/// which is why the newest *present* one ends the chain rather than
/// `sealed - 1` blindly.  Below it every link must be there and parse: each
/// holds one closed window's verdict.
fn frontier_chain(dir: &Path, sealed: usize) -> Result<Vec<FrontierSnapshot>, String> {
    let newest = (0..sealed as u64).rev().find(|&s| dir.join(frontier_file(s)).exists());
    (0..newest.map_or(0, |newest| newest + 1))
        .map(|segment| {
            let path = dir.join(frontier_file(segment));
            let text = std::fs::read_to_string(&path).map_err(|e| match e.kind() {
                io::ErrorKind::NotFound => {
                    format!("{}: missing — a gap in the snapshot chain", path.display())
                }
                _ => format!("{}: {e}", path.display()),
            })?;
            FrontierSnapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
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
    /// The sealed segment whose snapshot seeded the resume, if any.
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
/// crash landed before the first frontier snapshot.
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
             \"txns_per_thread\":{},\"vars\":{},\"seed\":{},\"window\":{{\"size\":{},\
             \"overlap\":{},\"budget\":{},\"retain_windows\":{},\"batch\":{}}}}}",
            json::escape(&self.scenario),
            json::escape(&self.backend),
            self.threads,
            self.txns_per_thread,
            self.vars,
            self.seed,
            self.window.size,
            self.window.overlap,
            self.window.budget,
            self.window.retain_windows,
            self.window.batch,
        )
    }

    /// Parse what [`WalMeta::to_json`] wrote.
    pub fn parse(text: &str) -> Result<WalMeta, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let field = |key: &str| {
            doc.get(key).and_then(|v| v.as_u64()).ok_or_else(|| format!("wal-meta: bad {key:?}"))
        };
        if field("wal-meta")? != 1 {
            return Err("wal-meta: unsupported version".into());
        }
        let text_field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("wal-meta: bad {key:?}"))
        };
        let window = doc.get("window").ok_or("wal-meta: missing window")?;
        let wfield = |key: &str| {
            window
                .get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("wal-meta: bad window {key:?}"))
        };
        let mut config = WindowConfig::sized(wfield("size")? as usize);
        config.overlap = wfield("overlap")? as usize;
        config.budget = wfield("budget")?;
        config.retain_windows = wfield("retain_windows")? as usize;
        config.batch = wfield("batch")? as usize;
        Ok(WalMeta {
            scenario: text_field("scenario")?,
            backend: text_field("backend")?,
            threads: field("threads")? as usize,
            txns_per_thread: field("txns_per_thread")? as usize,
            vars: field("vars")? as usize,
            seed: field("seed")?,
            window: config,
        })
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
    use tm_audit::audit_streamed;
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

        // The finished round refuses report-path recovery — before it reads
        // a snapshot or decodes a record...
        let sidecar = round_dir.join(frontier_file(0));
        let intact = std::fs::read(&sidecar).unwrap();
        std::fs::write(&sidecar, b"not json").unwrap();
        let err = recover_round_report(&round_dir, window, None).unwrap_err();
        assert!(err.contains("already complete"), "{err}");
        std::fs::write(&sidecar, intact).unwrap();
        // ...but the auditor path replays it to the identical verdict.
        let recovery = recover_round_auditor(&round_dir, window, None).unwrap();
        assert!(recovery.complete);
        assert_eq!(recovery.torn_bytes, 0);
        let replayed = recovery.auditor.finish();
        assert_eq!(replayed.merged, baseline.merged);
        assert_eq!(replayed.total_txns, baseline.total_txns);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A healthy 180-record round killed after 100 records: windows of 32
    /// with stride 28 sealed three segments, so the newest snapshot is
    /// `frontier-000002.json` and covers 84 records.  Returns the scratch
    /// root, the round directory and the session of every logged record.
    fn crashed_round(tag: &str) -> (PathBuf, PathBuf, Vec<usize>) {
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
        (root, dir, order[..100].iter().map(|&(s, _)| s).collect())
    }

    fn small_window() -> WindowConfig {
        WindowConfig { overlap: 4, ..WindowConfig::sized(32) }
    }

    /// Recover `dir` with its newest snapshot edited by `edit`; hand back the
    /// error and put the intact snapshot back.
    fn recover_with_newest_edited(dir: &Path, edit: impl FnOnce(&mut FrontierSnapshot)) -> String {
        let path = dir.join(frontier_file(2));
        let intact = std::fs::read_to_string(&path).unwrap();
        let mut snap = FrontierSnapshot::parse(&intact).unwrap();
        assert_eq!((snap.window_index, snap.replay_from), (3, 84));
        edit(&mut snap);
        std::fs::write(&path, snap.to_json()).unwrap();
        let err = recover_round_auditor(dir, small_window(), None)
            .err()
            .expect("a snapshot that contradicts its log must not resume");
        std::fs::write(&path, intact).unwrap();
        err
    }

    /// Reproducer 1 of the trusted-`n_vars` bug: this used to reach
    /// `Frontier::new` and die on `capacity overflow`.
    #[test]
    fn a_snapshot_with_an_absurd_variable_count_is_an_error_not_a_panic() {
        let (root, dir, _) = crashed_round("absurd-vars");
        let err = recover_with_newest_edited(&dir, |snap| snap.n_vars = 1 << 60);
        assert!(err.contains("declares 1152921504606846976 variable(s)"), "{err}");
        assert!(err.contains("log header declares 8"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Reproducer 2: a snapshot one variable (or one initial value) off the
    /// log header used to be accepted silently and a verdict printed.
    #[test]
    fn a_snapshot_that_disagrees_with_the_log_header_is_rejected() {
        let (root, dir, _) = crashed_round("header-mismatch");
        let err = recover_with_newest_edited(&dir, |snap| snap.n_vars += 1);
        assert!(err.contains("declares 9 variable(s) starting at 0"), "{err}");
        assert!(err.contains("log header declares 8 starting at 0"), "{err}");
        let err = recover_with_newest_edited(&dir, |snap| snap.initial = 7);
        assert!(err.contains("declares 8 variable(s) starting at 7"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Hostile snapshots are errors — never a panic, never a verdict.
    #[test]
    fn hostile_snapshots_never_resume() {
        let (root, dir, sessions) = crashed_round("hostile");

        let err = recover_with_newest_edited(&dir, |snap| snap.replay_from = 101);
        assert!(err.contains("not an extension"), "{err}");

        // One record short of the boundary, with counters that *do* match
        // that shorter prefix: only the stride rule can tell.
        let err = recover_with_newest_edited(&dir, |snap| {
            snap.replay_from = 83;
            let row = snap.seqs.iter_mut().find(|row| row.0 == sessions[83]).unwrap();
            row.1 -= 1;
        });
        assert!(err.contains("window_index × stride"), "{err}");

        let err = recover_with_newest_edited(&dir, |snap| {
            snap.seqs[0].1 += 1;
            snap.seqs[1].1 -= 1;
        });
        assert!(err.contains("continuation mismatch for session"), "{err}");

        let err = recover_with_newest_edited(&dir, |snap| snap.window_index = 2);
        assert!(err.contains("snapshot 2 of the chain records window_index 2"), "{err}");

        let recover = || recover_round_auditor(&dir, small_window(), None).err();
        let newest = dir.join(frontier_file(2));
        let intact = std::fs::read_to_string(&newest).unwrap();
        let v1 = intact.replace("{\"frontier-snapshot\":2,", "{\"frontier-snapshot\":1,");
        std::fs::write(&newest, v1).unwrap();
        let err = recover().expect("v1 snapshot");
        assert!(err.contains("unsupported frontier snapshot version 1"), "{err}");
        std::fs::write(&newest, intact).unwrap();

        assert!(recover().is_none(), "the intact round recovers");
        std::fs::remove_file(dir.join(frontier_file(1))).unwrap();
        let err = recover().expect("gap");
        assert!(err.contains("a gap in the snapshot chain"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
