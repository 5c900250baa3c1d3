//! Write-ahead commit logging: durable, partially constrained transaction
//! logs that survive `kill -9`.
//!
//! A [`WalSink`] appends committed `(T, so, wr)` records — session, session
//! sequence, recording hint, read set, write set — to segment files inside a
//! **round directory**, in publish order.  The log is *partially
//! constrained* in the sense of Zhou et al. (*Guaranteeing Recoverability
//! via Partially Constrained Transaction Logs*): it totally orders commits
//! only within a session; racing commits of different sessions may land in
//! either order, which is exactly the constraint set the windowed auditor's
//! verdicts are sound under.
//!
//! Records are written in the `tm-history` wire format, one JSON line per
//! transaction, with the document header opening segment 0 — so the
//! concatenation of a round's segments **is** a valid wire document and the
//! log can be re-ingested by any tool that reads histories, no conversion
//! step.  (After a crash, a reader logged ahead of its writer can outlive
//! it: `tm_history`'s `Decoder::next_log_prefix` reads such a log.)  This
//! crate cannot depend on `tm-history`, so the format's two line shapes are
//! written here ([`push_header_line`], [`push_txn_line`]) and `tm-history`'s
//! encoder calls them: there is one writer of wire lines.
//!
//! # Durability and torn tails
//!
//! Every record is appended with a single `write` call, so once
//! [`WalSink::append_txn`] returns the bytes are in the page cache and
//! survive the *process* dying (`kill -9`).  Surviving the *machine* dying
//! is segment-granular: [`WalSink::seal_segment`] fsyncs the segment, then
//! publishes a **seal** — a sidecar `segment-NNNNNN.seal` whose first line
//! is a JSON object with the segment's byte length, line count and CRC32,
//! and whose optional second line is the caller's record of the boundary
//! (the windowed auditor's verdict of the window that closed there) — in
//! one write-to-temp + rename.  A boundary is therefore one durable file:
//! there is no moment at which the seal exists without its record.
//!
//! Recovery ([`recover_round`]) trusts sealed bytes only after re-verifying
//! length and checksum, and hands each seal's record back; the one unsealed
//! tail segment is truncated to its last complete line (**the torn-tail
//! rule**: a record either ends in a newline or it never happened), so a
//! crash mid-append is detected and dropped rather than decoded as garbage.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The `tm-history` wire format version the line writers below produce.
pub const WIRE_VERSION: u64 = 1;

/// Append a wire document's header line (newline included) to `out`:
/// `sessions` sessions over variables `0..vars`, all starting at `initial`.
pub fn push_header_line(out: &mut Vec<u8>, sessions: usize, vars: usize, initial: i64) {
    out.extend_from_slice(b"{\"tm-history\":");
    push_u64(out, WIRE_VERSION);
    out.extend_from_slice(b",\"sessions\":");
    push_u64(out, sessions as u64);
    out.extend_from_slice(b",\"vars\":");
    push_u64(out, vars as u64);
    out.extend_from_slice(b",\"initial\":");
    push_i64(out, initial);
    out.extend_from_slice(b"}\n");
}

/// Append one committed transaction's wire line (newline included) to `out`:
/// session `s`, session sequence `q`, recording hint `h`, external reads `r`
/// and writes `w` as `[variable,value]` pairs, in that fixed field order and
/// without whitespace.  Every byte is ASCII.
pub fn push_txn_line(
    out: &mut Vec<u8>,
    session: usize,
    seq: u64,
    hint: u64,
    reads: &[(usize, i64)],
    writes: &[(usize, i64)],
) {
    out.extend_from_slice(b"{\"s\":");
    push_u64(out, session as u64);
    out.extend_from_slice(b",\"q\":");
    push_u64(out, seq);
    out.extend_from_slice(b",\"h\":");
    push_u64(out, hint);
    out.extend_from_slice(b",\"r\":[");
    push_pairs(out, reads);
    out.extend_from_slice(b"],\"w\":[");
    push_pairs(out, writes);
    out.extend_from_slice(b"]}\n");
}

fn push_pairs(out: &mut Vec<u8>, pairs: &[(usize, i64)]) {
    for (i, &(var, value)) in pairs.iter().enumerate() {
        out.extend_from_slice(if i > 0 { b",[" } else { b"[" });
        push_u64(out, var as u64);
        out.push(b',');
        push_i64(out, value);
        out.push(b']');
    }
}

/// `"00" "01" … "99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Append `n` in decimal: the canonical form, no sign, no leading zeros.
#[inline]
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `n` in decimal: a `-` for negatives only, so zero is `0`.
#[inline]
fn push_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Version of the seal line [`WalSink::seal_segment`] writes; version 1
/// seals carried no record (their rounds kept it in separate files).
const SEAL_VERSION: u64 = 2;

/// Number of decimal digits in segment and seal file names.
const SEG_WIDTH: usize = 6;

fn segment_name(index: u64) -> String {
    format!("segment-{index:0SEG_WIDTH$}.tmh")
}

fn seal_name(index: u64) -> String {
    format!("segment-{index:0SEG_WIDTH$}.seal")
}

/// CRC32 (IEEE 802.3, the zlib polynomial), slice-by-8: `table[0]` is the
/// byte-at-a-time table, and `table[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table lookups fold in eight input bytes.
///
/// Hand-rolled because the WAL cannot pull in a checksum crate; the tables
/// are built once on first use.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// Extend a running CRC32 (start from [`CRC_INIT`], finish with [`crc_done`]).
fn crc_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

const CRC_INIT: u32 = 0xFFFF_FFFF;

fn crc_done(crc: u32) -> u32 {
    crc ^ 0xFFFF_FFFF
}

/// CRC32 of a complete byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_done(crc_update(CRC_INIT, bytes))
}

/// Append-only writer for one round's commit log.
///
/// Lines are wire-format JSON; segment 0 opens with the document header.
/// [`WalSink::seal_segment`] makes everything written so far durable and
/// verifiable; [`WalSink::finish`] seals the tail and drops a `complete`
/// marker so recovery can tell a clean round from a crashed one.
#[derive(Debug)]
pub struct WalSink {
    dir: PathBuf,
    file: File,
    segment_index: u64,
    segment_len: u64,
    segment_lines: u64,
    segment_crc: u32,
    total_lines: u64,
    /// The line being written, reused so an append allocates nothing.
    line: Vec<u8>,
}

impl WalSink {
    /// Create a fresh round directory (parents included) and open segment 0
    /// with the wire header for `sessions` sessions over `vars` variables
    /// starting at `initial`.
    ///
    /// Fails if segment 0 already exists: a round directory is written by
    /// exactly one process, once.
    pub fn create(dir: &Path, sessions: usize, vars: usize, initial: i64) -> io::Result<WalSink> {
        fs::create_dir_all(dir)?;
        let path = dir.join(segment_name(0));
        let file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        let mut sink = WalSink {
            dir: dir.to_path_buf(),
            file,
            segment_index: 0,
            segment_len: 0,
            segment_lines: 0,
            segment_crc: CRC_INIT,
            total_lines: 0,
            line: Vec::new(),
        };
        push_header_line(&mut sink.line, sessions, vars, initial);
        sink.write_line()?;
        Ok(sink)
    }

    /// Write the line formatted into `self.line`.
    fn write_line(&mut self) -> io::Result<()> {
        // One write call per line: either the whole record reaches the page
        // cache or (on a short write error) the caller learns about it —
        // never an interleaved half-line from this process's perspective.
        let line = &self.line[..];
        self.file.write_all(line)?;
        self.segment_crc = crc_update(self.segment_crc, line);
        self.segment_len += line.len() as u64;
        self.segment_lines += 1;
        Ok(())
    }

    /// Append one committed transaction: session `s`, session sequence `q`,
    /// recording hint `h`, external reads and writes as `(var, value)`
    /// pairs.  Within a session, `q` must be contiguous from 0 and `h`
    /// strictly increasing — the decoder's contract.
    pub fn append_txn(
        &mut self,
        session: usize,
        seq: u64,
        hint: u64,
        reads: &[(usize, i64)],
        writes: &[(usize, i64)],
    ) -> io::Result<()> {
        self.line.clear();
        push_txn_line(&mut self.line, session, seq, hint, reads, writes);
        self.write_line()?;
        self.total_lines += 1;
        Ok(())
    }

    /// The round directory this sink writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the segment currently being written.
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Lines (header included for segment 0) in the current segment.
    pub fn segment_lines(&self) -> u64 {
        self.segment_lines
    }

    /// Transactions appended over the sink's lifetime (header not counted).
    pub fn total_txns(&self) -> u64 {
        self.total_lines
    }

    /// Make everything appended so far durable: fsync the segment, publish
    /// its seal (length + line count + CRC32, then `record` — one line, no
    /// newline inside — when given) atomically, and open the next segment.
    /// Returns the index of the segment just sealed.
    pub fn seal_segment(&mut self, record: Option<&str>) -> io::Result<u64> {
        debug_assert!(record.is_none_or(|r| !r.is_empty() && !r.contains('\n')));
        self.file.sync_all()?;
        let sealed = self.segment_index;
        let mut seal = format!(
            "{{\"wal-seal\":{SEAL_VERSION},\"segment\":{sealed},\"len\":{},\"lines\":{},\"crc\":{}}}\n",
            self.segment_len,
            self.segment_lines,
            crc_done(self.segment_crc)
        );
        if let Some(record) = record {
            seal.push_str(record);
            seal.push('\n');
        }
        write_atomic(&self.dir, &seal_name(sealed), seal.as_bytes())?;
        self.segment_index += 1;
        let path = self.dir.join(segment_name(self.segment_index));
        self.file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        self.segment_len = 0;
        self.segment_lines = 0;
        self.segment_crc = CRC_INIT;
        Ok(sealed)
    }

    /// Seal the tail segment (or remove it when empty) and drop the
    /// `complete` marker that tells recovery this round ended cleanly.
    pub fn finish(mut self) -> io::Result<()> {
        if self.segment_lines > 0 {
            self.seal_segment(None)?;
        }
        // The freshly opened (or never-written) tail segment is empty:
        // remove it so the directory holds exactly the sealed set.
        let tail = self.dir.join(segment_name(self.segment_index));
        let _ = fs::remove_file(tail);
        let marker = format!(
            "{{\"wal-complete\":1,\"segments\":{},\"txns\":{}}}\n",
            self.segment_index, self.total_lines
        );
        write_atomic(&self.dir, "complete.json", marker.as_bytes())
    }
}

/// Write `name` in `dir` atomically: temp file, fsync, rename, directory
/// fsync.  Used for seals and markers — anything whose partial presence
/// would be worse than absence.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(name))?;
    // Directory fsync makes the rename itself durable; some filesystems
    // refuse to open a directory for writing, so failures are best-effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// One segment's fate during [`recover_round`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredSegment {
    /// Segment index.
    pub index: u64,
    /// Whether a verified seal covered it.
    pub sealed: bool,
    /// Bytes dropped from a torn tail (unsealed segment only).
    pub torn_bytes: u64,
    /// The record its seal carried ([`WalSink::seal_segment`]), if any.
    pub record: Option<String>,
}

/// What [`recover_round`] reassembled from a round directory.
#[derive(Debug, Clone)]
pub struct RecoveredRound {
    /// The concatenated kept bytes of every segment, in index order — one
    /// complete wire document (header included, from segment 0).
    pub text: String,
    /// Per-segment accounting, in index order.
    pub segments: Vec<RecoveredSegment>,
    /// `true` when the round ended cleanly (its `complete.json` marker is
    /// present) — nothing was torn and no recovery was actually needed.
    pub complete: bool,
}

impl RecoveredRound {
    /// Total bytes dropped by the torn-tail rule.
    pub fn torn_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.torn_bytes).sum()
    }
}

fn corrupt(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Extract `"key":<unsigned>` from a seal's first line (written by this
/// module, so a positional scan suffices — a missing or malformed field is
/// corruption, not a parse dialect).  The caller passes the first line
/// only, so nothing in the record after it can pass for a seal field.
fn seal_field(text: &str, key: &str, path: &Path) -> io::Result<u64> {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .ok_or_else(|| corrupt(format!("{}: seal is missing {key:?}", path.display())))?;
    let digits: String =
        text[at + needle.len()..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits
        .parse::<u64>()
        .map_err(|_| corrupt(format!("{}: seal field {key:?} is not a number", path.display())))
}

/// Reassemble a round directory after a crash: verify every sealed segment
/// against its seal (length + CRC32), truncate the one unsealed tail
/// segment to its last complete line (physically, so the directory is clean
/// afterwards), and return the surviving bytes as one wire document, with
/// each seal's record.
///
/// Corruption that a seal *promised* against — a sealed segment shorter
/// than its seal says, or failing its checksum — is an error: silence there
/// would decode garbage as history.  So is a seal of another version than
/// this module writes.  A torn tail on the unsealed segment is expected
/// (`kill -9` mid-append) and truncated instead.
pub fn recover_round(dir: &Path) -> io::Result<RecoveredRound> {
    let mut indices: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(rest) = name.strip_prefix("segment-") {
            if let Some(digits) = rest.strip_suffix(".tmh") {
                if let Ok(index) = digits.parse::<u64>() {
                    indices.push(index);
                }
            }
        }
    }
    indices.sort_unstable();
    if indices.is_empty() {
        return Err(corrupt(format!("{}: no WAL segments found", dir.display())));
    }
    for (expect, &got) in indices.iter().enumerate() {
        if got != expect as u64 {
            return Err(corrupt(format!(
                "{}: segment {got} found where segment {expect} was expected \
                 (segments must be contiguous from 0)",
                dir.display()
            )));
        }
    }
    let complete = dir.join("complete.json").exists();
    let last = *indices.last().expect("non-empty");
    let mut text = String::new();
    let mut segments = Vec::new();
    for index in indices {
        let path = dir.join(segment_name(index));
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let seal_path = dir.join(seal_name(index));
        if seal_path.exists() {
            let seal = fs::read_to_string(&seal_path)?;
            let (line, record) = seal.split_once('\n').unwrap_or((&seal, ""));
            let version = seal_field(line, "wal-seal", &seal_path)?;
            if version != SEAL_VERSION {
                return Err(corrupt(format!(
                    "{}: unsupported WAL seal version {version} (this reader expects \
                     {SEAL_VERSION}; the round was written by an older build)",
                    seal_path.display()
                )));
            }
            let len = seal_field(line, "len", &seal_path)?;
            let crc = u32::try_from(seal_field(line, "crc", &seal_path)?).map_err(|_| {
                corrupt(format!("{}: seal field \"crc\" exceeds 32 bits", seal_path.display()))
            })?;
            let record = record.strip_suffix('\n').unwrap_or(record);
            if (bytes.len() as u64) < len {
                return Err(corrupt(format!(
                    "{}: sealed as {len} bytes but only {} on disk",
                    path.display(),
                    bytes.len()
                )));
            }
            // Bytes past the sealed length can only be a write that raced
            // the crash after sealing; the seal wins.
            bytes.truncate(len as usize);
            let actual = crc32(&bytes);
            if actual != crc {
                return Err(corrupt(format!(
                    "{}: checksum mismatch (sealed {crc}, found {actual})",
                    path.display()
                )));
            }
            segments.push(RecoveredSegment {
                index,
                sealed: true,
                torn_bytes: 0,
                record: (!record.is_empty()).then(|| record.to_string()),
            });
        } else {
            if index != last {
                return Err(corrupt(format!(
                    "{}: unsealed segment {index} is followed by later segments \
                     (only the tail segment may lack a seal)",
                    dir.display()
                )));
            }
            // The torn-tail rule: a record either ends in a newline or it
            // never happened.
            let keep = match bytes.iter().rposition(|&b| b == b'\n') {
                Some(pos) => pos + 1,
                None => 0,
            };
            let torn = (bytes.len() - keep) as u64;
            bytes.truncate(keep);
            if torn > 0 {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(keep as u64)?;
                file.sync_all()?;
            }
            segments.push(RecoveredSegment {
                index,
                sealed: false,
                torn_bytes: torn,
                record: None,
            });
        }
        text.push_str(
            std::str::from_utf8(&bytes)
                .map_err(|_| corrupt(format!("{}: segment is not UTF-8", path.display())))?,
        );
    }
    Ok(RecoveredRound { text, segments, complete })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A seeded splitmix64 stream, enough randomness for the oracles below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A value of a random bit width, so every digit count (and, cast
        /// to `i64`, both signs) appears.
        fn any_width(&mut self) -> u64 {
            let raw = self.next();
            raw >> (self.next() % 64)
        }
    }

    /// The CRC32 definition, one bit at a time: the oracle for the tables.
    fn crc_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        crc
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_crc_at_every_length_and_split() {
        let mut mix = Mix(0x5eed);
        let bytes: Vec<u8> = (0..=300).map(|_| mix.next() as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc_update(CRC_INIT, &bytes[..len]), crc_bitwise(CRC_INIT, &bytes[..len]));
        }
        // The segment CRC runs across records of every length: an update
        // split anywhere must land on the one-shot value.
        let whole = crc_bitwise(CRC_INIT, &bytes);
        for at in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(at);
            assert_eq!(crc_update(crc_update(CRC_INIT, head), tail), whole, "split at {at}");
        }
    }

    /// The line writer as `format!` spells it: the oracle for the digits.
    fn reference_txn_line(
        session: usize,
        seq: u64,
        hint: u64,
        reads: &[(usize, i64)],
        writes: &[(usize, i64)],
    ) -> String {
        let pairs = |set: &[(usize, i64)]| {
            set.iter().map(|(var, value)| format!("[{var},{value}]")).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"s\":{session},\"q\":{seq},\"h\":{hint},\"r\":[{}],\"w\":[{}]}}\n",
            pairs(reads),
            pairs(writes)
        )
    }

    fn assert_txn_line(
        session: usize,
        seq: u64,
        hint: u64,
        reads: &[(usize, i64)],
        writes: &[(usize, i64)],
    ) {
        let mut line = b"prefix:".to_vec();
        push_txn_line(&mut line, session, seq, hint, reads, writes);
        let expected = reference_txn_line(session, seq, hint, reads, writes);
        assert_eq!(line.strip_prefix(b"prefix:"), Some(expected.as_bytes()));
    }

    #[test]
    fn line_writer_matches_format_on_extremes_and_random_lines() {
        let values = [i64::MIN, i64::MIN + 1, -1, 0, 1, 9, 10, i64::MAX];
        assert_txn_line(0, 0, 0, &[], &[]);
        assert_txn_line(usize::MAX, u64::MAX, u64::MAX, &[(usize::MAX, i64::MIN)], &[]);
        let extremes: Vec<(usize, i64)> = values.iter().enumerate().map(|(v, &x)| (v, x)).collect();
        assert!(extremes.len() > crate::AccessSet::INLINE);
        assert_txn_line(3, 7, 1 << 40, &extremes, &extremes[..2]);
        assert_txn_line(1, u64::MAX - 1, 10, &[], &extremes);

        let mut mix = Mix(20140623);
        let set = |mix: &mut Mix| -> Vec<(usize, i64)> {
            let len = (mix.next() % 6) as usize;
            (0..len).map(|_| (mix.any_width() as usize, mix.any_width() as i64)).collect()
        };
        for _ in 0..10_000 {
            let (reads, writes) = (set(&mut mix), set(&mut mix));
            let (session, seq, hint) = (mix.any_width() as usize, mix.any_width(), mix.any_width());
            assert_txn_line(session, seq, hint, &reads, &writes);
        }
    }

    #[test]
    fn header_writer_matches_format() {
        for initial in [i64::MIN, -1, 0, 42, i64::MAX] {
            let mut line = Vec::new();
            push_header_line(&mut line, 2, 16, initial);
            assert_eq!(
                String::from_utf8(line).unwrap(),
                format!(
                    "{{\"tm-history\":{WIRE_VERSION},\"sessions\":2,\"vars\":16,\"initial\":{initial}}}\n"
                )
            );
        }
    }

    #[test]
    fn sealed_segments_round_trip_and_concatenate() {
        let dir = tempdir("roundtrip");
        let mut sink = WalSink::create(&dir, 2, 4, 0).expect("create");
        sink.append_txn(0, 0, 0, &[(0, 0)], &[(0, 7)]).unwrap();
        sink.append_txn(1, 0, 1, &[(0, 7)], &[(1, 9), (2, -3)]).unwrap();
        // A record that spells seal fields: only the seal's first line is
        // read for them.
        let record = "{\"len\":0,\"crc\":1,\"wal-seal\":9}";
        assert_eq!(sink.seal_segment(Some(record)).unwrap(), 0);
        sink.append_txn(0, 1, 2, &[(1, 9)], &[]).unwrap();
        sink.finish().unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "complete.json",
                "segment-000000.seal",
                "segment-000000.tmh",
                "segment-000001.seal",
                "segment-000001.tmh"
            ]
        );

        let round = recover_round(&dir).expect("recover");
        assert!(round.complete);
        assert_eq!(round.torn_bytes(), 0);
        assert_eq!(round.segments.len(), 2);
        assert!(round.segments.iter().all(|s| s.sealed));
        let records: Vec<Option<&str>> =
            round.segments.iter().map(|s| s.record.as_deref()).collect();
        assert_eq!(records, [Some(record), None], "the tail seal carries no record");
        assert_eq!(
            round.text,
            "{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}\n\
             {\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,0]],\"w\":[[0,7]]}\n\
             {\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,7]],\"w\":[[1,9],[2,-3]]}\n\
             {\"s\":0,\"q\":1,\"h\":2,\"r\":[[1,9]],\"w\":[]}\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_are_truncated_to_the_last_complete_line() {
        let dir = tempdir("torn");
        let mut sink = WalSink::create(&dir, 1, 2, 0).expect("create");
        sink.append_txn(0, 0, 0, &[], &[(0, 5)]).unwrap();
        sink.seal_segment(None).unwrap();
        sink.append_txn(0, 1, 1, &[], &[(1, 6)]).unwrap();
        drop(sink); // crash: no seal, no finish

        // Simulate the torn write: append half a record to the tail segment.
        let tail = dir.join(segment_name(1));
        let mut f = OpenOptions::new().append(true).open(&tail).unwrap();
        f.write_all(b"{\"s\":0,\"q\":2,\"h\":2,\"r\":[],\"w\":[[0,").unwrap();
        drop(f);

        let round = recover_round(&dir).expect("recover");
        assert!(!round.complete);
        assert!(round.torn_bytes() > 0);
        assert!(round.text.ends_with("{\"s\":0,\"q\":1,\"h\":1,\"r\":[],\"w\":[[1,6]]}\n"));
        // The truncation is physical: a second recovery sees a clean tail.
        let again = recover_round(&dir).expect("recover again");
        assert_eq!(again.torn_bytes(), 0);
        assert_eq!(again.text, round.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_corruption_is_an_error_not_a_truncation() {
        let dir = tempdir("corrupt");
        let mut sink = WalSink::create(&dir, 1, 1, 0).expect("create");
        sink.append_txn(0, 0, 0, &[], &[(0, 3)]).unwrap();
        sink.seal_segment(None).unwrap();
        drop(sink);

        // Flip a byte inside the sealed segment.
        let path = dir.join(segment_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let err = recover_round(&dir).expect_err("checksum must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rewrite seal 0's first line with `edit` and recover: the error.
    fn recover_with_seal_edited(dir: &Path, edit: impl FnOnce(&str) -> String) -> io::Error {
        let path = dir.join(seal_name(0));
        let intact = fs::read_to_string(&path).unwrap();
        let (line, rest) = intact.split_once('\n').unwrap();
        fs::write(&path, format!("{}\n{rest}", edit(line))).unwrap();
        let err = recover_round(dir).expect_err("an edited seal must not verify");
        fs::write(&path, intact).unwrap();
        err
    }

    #[test]
    fn foreign_seals_are_rejected_by_version_and_crc_width() {
        let dir = tempdir("foreign");
        let mut sink = WalSink::create(&dir, 1, 1, 0).expect("create");
        sink.append_txn(0, 0, 0, &[], &[(0, 3)]).unwrap();
        sink.seal_segment(Some("{}")).unwrap();
        drop(sink);

        let err = recover_with_seal_edited(&dir, |line| {
            line.replace("{\"wal-seal\":2,", "{\"wal-seal\":1,")
        });
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported WAL seal version 1"), "{err}");

        // A CRC one wrap past u32::MAX used to be truncated onto the right
        // checksum and accepted.
        let err = recover_with_seal_edited(&dir, |line| {
            let at = line.find("\"crc\":").unwrap() + "\"crc\":".len();
            let crc: u64 = line[at..].trim_end_matches('}').parse().unwrap();
            format!("{}{}}}", &line[..at], crc + (1u64 << 32))
        });
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"crc\" exceeds 32 bits"), "{err}");

        assert!(recover_round(&dir).is_ok(), "the intact seal verifies");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gapped_or_missing_segments_are_rejected() {
        let dir = tempdir("gap");
        let err = recover_round(&dir).expect_err("empty round");
        assert!(err.to_string().contains("no WAL segments"), "{err}");

        let mut sink = WalSink::create(&dir, 1, 1, 0).expect("create");
        sink.append_txn(0, 0, 0, &[], &[(0, 3)]).unwrap();
        sink.seal_segment(None).unwrap();
        sink.append_txn(0, 1, 1, &[], &[(0, 4)]).unwrap();
        sink.finish().unwrap();
        fs::remove_file(dir.join(segment_name(0))).unwrap();
        let err = recover_round(&dir).expect_err("gap");
        assert!(err.to_string().contains("must be contiguous"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
