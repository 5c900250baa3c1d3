//! Wire format v1: serialized [`AuditHistory`] documents.
//!
//! A **document** is line-delimited JSON in a fixed, canonical field order
//! (no whitespace), so the hand-rolled encoder and decoder agree on every
//! byte and diffs of exported histories are stable.  The two line shapes are
//! written by [`stm_runtime::wal`]'s `push_header_line` / `push_txn_line` —
//! the commit log appends the same lines, so a log *is* a document:
//!
//! ```text
//! {"tm-history":1,"sessions":2,"vars":16,"initial":0}
//! {"s":0,"q":0,"h":0,"r":[[3,0]],"w":[[3,1099511627776]]}
//! {"s":1,"q":0,"h":1,"r":[[3,1099511627776]],"w":[]}
//! ```
//!
//! * The **header** names the wire version, the session count, the variable
//!   count and the shared initial value.  Variables are `0..vars`; every one
//!   starts at `initial`.
//! * Each following line is one **committed transaction**: session `s`,
//!   per-session sequence number `q`, global recording hint `h`, external
//!   read set `r` and write set `w` as `[variable,value]` pairs.
//!   Transactions appear in recording (`h`) order; within a session both
//!   `q` and `h` increase.
//! * A document ends at a **blank line** or end of input; a stream may carry
//!   many blank-line-separated documents ([`Decoder::next_history`]).
//!
//! The decoder is *hardened*: every rejection is a positioned
//! [`WireError`] (`line`, `col`, message) and malformed input never panics.
//! It accepts integers only in the canonical spelling the encoder writes
//! (no leading zeros, no `+`, no `-0`), so re-encoding never changes bytes.
//! Beyond the grammar it enforces the recording contract the auditor's
//! write-read inference needs — unique write values, no writes of the
//! initial value, no reads of never-written values, per-session `q`/`h`
//! continuity — so anything that decodes is a well-formed
//! [`AuditHistory`], and `decode(encode(h)) == h` holds field-for-field for
//! every well-formed history, whichever producer built it.

use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use stm_runtime::wal;
use tm_audit::{AccessSet, AuditHistory, AuditTxn, HistoryError, TxnId};

/// The wire format version this crate reads and writes.
pub const WIRE_VERSION: u64 = wal::WIRE_VERSION;

/// Hard cap on the header's session count: pre-allocating sessions from a
/// hostile header must not balloon memory.
pub const MAX_SESSIONS: usize = 1 << 20;

/// Hard cap on the header's variable count (variables are indices, so this
/// only bounds sanity, not allocation).
pub const MAX_VARS: usize = 1 << 28;

/// A positioned decode rejection: `line` and `col` are 1-based and point at
/// the offending byte (column 1 = whole-line or document-level defects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// 1-based input line.
    pub line: u64,
    /// 1-based byte column within the line.
    pub col: u64,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for WireError {}

/// Serialize one history as a wire document (header + one line per
/// transaction in `(hint, session)` order, trailing newline included).
///
/// Per-session hints must increase with session order — true of every
/// recorder, the generator and [`AuditHistory::push_txn`]; a history that
/// breaks it would re-read as out-of-order and be rejected by the decoder.
pub fn encode(history: &AuditHistory) -> String {
    let mut out = Vec::new();
    wal::push_header_line(&mut out, history.sessions.len(), history.n_vars, history.initial);
    let mut seqs = vec![0u64; history.sessions.len()];
    for (s, txn) in history.recording_order() {
        wal::push_txn_line(&mut out, s, seqs[s], txn.hint, &txn.reads, &txn.writes);
        seqs[s] += 1;
    }
    String::from_utf8(out).expect("the line writers emit ASCII")
}

/// Decode exactly one document (leading/trailing blank lines allowed).
pub fn decode(text: &str) -> Result<AuditHistory, WireError> {
    let mut decoder = Decoder::new(text.as_bytes());
    let Some(history) = decoder.next_history()? else {
        return Err(WireError {
            line: 1,
            col: 1,
            message: "empty input: expected a tm-history header".into(),
        });
    };
    while decoder.read_line()? {
        if !decoder.buf.trim().is_empty() {
            return Err(WireError {
                line: decoder.line_no,
                col: 1,
                message: "unexpected content after the history document \
                          (use decode_all for multi-document streams)"
                    .into(),
            });
        }
    }
    Ok(history)
}

/// Decode every blank-line-separated document in the input.
pub fn decode_all(text: &str) -> Result<Vec<AuditHistory>, WireError> {
    let mut decoder = Decoder::new(text.as_bytes());
    let mut histories = Vec::new();
    while let Some(history) = decoder.next_history()? {
        histories.push(history);
    }
    Ok(histories)
}

/// Streaming multi-document decoder over any [`BufRead`] (a file, stdin, a
/// socket): each [`Decoder::next_history`] call reads one document; a
/// rejected document can be skipped with [`Decoder::skip_document`] to
/// resynchronize at the next blank-line boundary.
pub struct Decoder<R> {
    reader: R,
    line_no: u64,
    /// The last line read, without its line ending; reused across lines.
    buf: String,
}

impl<R: BufRead> Decoder<R> {
    /// A decoder at line 0 of `reader`.
    pub fn new(reader: R) -> Self {
        Decoder { reader, line_no: 0, buf: String::new() }
    }

    /// The 1-based number of the last line read (0 before any read).
    pub fn line(&self) -> u64 {
        self.line_no
    }

    /// Read the next line into `buf`; `Ok(false)` at end of input.
    fn read_line(&mut self) -> Result<bool, WireError> {
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Ok(false),
            Ok(_) => {
                self.line_no += 1;
                while self.buf.ends_with('\n') || self.buf.ends_with('\r') {
                    self.buf.pop();
                }
                Ok(true)
            }
            Err(err) => {
                // Includes invalid UTF-8: surfaced as a positioned error,
                // never a panic.
                self.line_no += 1;
                Err(WireError { line: self.line_no, col: 1, message: format!("read error: {err}") })
            }
        }
    }

    /// Consume lines up to (and including) the next blank line or EOF —
    /// the resynchronization step after a rejected document in a
    /// multi-document stream.
    pub fn skip_document(&mut self) -> Result<(), WireError> {
        while self.read_line()? {
            if self.buf.trim().is_empty() {
                break;
            }
        }
        Ok(())
    }

    /// Read the next document; `Ok(None)` at end of input.
    pub fn next_history(&mut self) -> Result<Option<AuditHistory>, WireError> {
        Ok(self.next_document(true)?.map(|(history, _)| history))
    }

    /// Read the next document as a **log prefix** — what survives of a WAL
    /// round — and also return its **arrival order**: each transaction's
    /// [`TxnId`] in source line order.  A WAL round is only partially
    /// constrained (racing sessions may interleave either way), so recovery
    /// replays records in exactly this order rather than re-sorting by
    /// hint, which could differ.
    ///
    /// Every rule of [`Decoder::next_history`] holds except one: a read may
    /// observe a value no transaction in the document wrote.  The recorder
    /// stamps a commit's hint after its writes are visible, so a reader can
    /// be logged before its writer, and a crash between the two cuts the
    /// writer off.  The windowed auditor that saw the log live attributed
    /// such a read to a stand-in at its window's close; replaying the log
    /// does the same.
    pub fn next_log_prefix(&mut self) -> Result<Option<(AuditHistory, Vec<TxnId>)>, WireError> {
        self.next_document(false)
    }

    /// One document, with its arrival order; `reads_closed` enforces that
    /// every read value is the initial one or written in the document.
    fn next_document(
        &mut self,
        reads_closed: bool,
    ) -> Result<Option<(AuditHistory, Vec<TxnId>)>, WireError> {
        loop {
            if !self.read_line()? {
                return Ok(None);
            }
            if !self.buf.trim().is_empty() {
                break;
            }
        }
        let (sessions, vars, initial) = parse_header(&self.buf, self.line_no)?;
        let mut history = AuditHistory::new(vars, initial, sessions);
        // Arrival order with source lines, for the document-wide validation
        // pass below.
        let mut arrival: Vec<(TxnId, u64)> = Vec::new();
        let mut last_hint: Vec<Option<u64>> = vec![None; sessions];
        let mut writes_total = 0;
        while self.read_line()? {
            let line = self.buf.as_str();
            if line.trim().is_empty() {
                break;
            }
            if line.starts_with("{\"tm-history\"") {
                return Err(WireError {
                    line: self.line_no,
                    col: 1,
                    message: "new history header before the current document ended \
                              (separate documents with a blank line)"
                        .into(),
                });
            }
            let mut seqs = SeqView { history: &history };
            let (s, q, h, reads, writes) =
                parse_txn(line, self.line_no, vars, &mut seqs, &last_hint)?;
            last_hint[s] = Some(h);
            writes_total += writes.len();
            history.sessions[s].push(AuditTxn { reads, writes, hint: h, footprint: 0 });
            arrival.push((TxnId { session: s, seq: q }, self.line_no));
        }
        validate_document(&history, &arrival, writes_total, reads_closed)?;
        Ok(Some((history, arrival.into_iter().map(|(id, _)| id).collect())))
    }
}

/// Read-only view of per-session lengths for the in-flight document (keeps
/// `parse_txn` free of borrows on the whole decoder).
struct SeqView<'a> {
    history: &'a AuditHistory,
}

impl SeqView<'_> {
    fn next_seq(&self, session: usize) -> usize {
        self.history.sessions[session].len()
    }
}

/// The recording-contract validation pass over a document holding `writes`
/// writes: unique write values, no writes of the initial value, and, when
/// `reads_closed`, every read attributable.  Errors reuse [`HistoryError`]'s
/// wording, positioned at the offending transaction's line.
fn validate_document(
    history: &AuditHistory,
    arrival: &[(TxnId, u64)],
    writes: usize,
    reads_closed: bool,
) -> Result<(), WireError> {
    // Keyed by values from the input, so it keeps std's keyed hasher: a
    // fixed hash would let a hostile document collide every write.
    let mut writers: HashMap<(usize, i64), TxnId> = HashMap::with_capacity(writes);
    for &(id, line) in arrival {
        let txn = history.txn(id).expect("arrival list indexes the history");
        for &(var, value) in &txn.writes {
            if value == history.initial {
                let err = HistoryError::InitialValueWritten { writer: id, var, value };
                return Err(WireError { line, col: 1, message: err.to_string() });
            }
            if let Some(first) = writers.insert((var, value), id) {
                let err = HistoryError::AmbiguousWrite { var, value, first, second: id };
                return Err(WireError { line, col: 1, message: err.to_string() });
            }
        }
    }
    if !reads_closed {
        return Ok(());
    }
    for &(id, line) in arrival {
        let txn = history.txn(id).expect("arrival list indexes the history");
        for &(var, value) in &txn.reads {
            if value != history.initial && !writers.contains_key(&(var, value)) {
                let err = HistoryError::ThinAirRead { reader: id, var, value };
                return Err(WireError { line, col: 1, message: err.to_string() });
            }
        }
    }
    Ok(())
}

/// Byte cursor over one line, producing positioned errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u64,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str, line_no: u64) -> Self {
        Cursor { bytes: line.as_bytes(), pos: 0, line: line_no }
    }

    fn err_at(&self, pos: usize, message: impl Into<String>) -> WireError {
        WireError { line: self.line, col: pos as u64 + 1, message: message.into() }
    }

    fn err(&self, message: impl Into<String>) -> WireError {
        self.err_at(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn expect(&mut self, lit: &str) -> Result<(), WireError> {
        if self.bytes[self.pos.min(self.bytes.len())..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else if self.done() {
            Err(self.err(format!("unexpected end of line: expected {lit:?}")))
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    /// Consume a run of ASCII digits: its length and its value, `None` when
    /// the value overflows `u64`.
    fn digits(&mut self) -> (usize, Option<u64>) {
        let start = self.pos;
        let mut value = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        (self.pos - start, value)
    }

    /// The integer spelled by `start..pos`, for messages.
    fn text_from(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    fn out_of_range(&self, start: usize) -> WireError {
        self.err_at(start, format!("integer {} out of range", self.text_from(start)))
    }

    /// An integer that decodes but is not the one spelling the encoder
    /// writes — re-encoding it would change the bytes.
    fn not_canonical(&self, start: usize, why: &str) -> WireError {
        self.err_at(start, format!("integer {} is not canonical ({why})", self.text_from(start)))
    }

    fn parse_u64(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let (len, value) = self.digits();
        if len == 0 {
            return Err(self.err_at(start, "expected an unsigned integer"));
        }
        let value = value.ok_or_else(|| self.out_of_range(start))?;
        if len > 1 && self.bytes[start] == b'0' {
            return Err(self.not_canonical(start, "leading zero"));
        }
        Ok(value)
    }

    fn parse_i64(&mut self) -> Result<i64, WireError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_at = self.pos;
        let (len, magnitude) = self.digits();
        if len == 0 {
            return Err(self.err_at(start, "expected an integer"));
        }
        let value = magnitude.and_then(|m| {
            if negative {
                0i64.checked_sub_unsigned(m)
            } else {
                i64::try_from(m).ok()
            }
        });
        let value = value.ok_or_else(|| self.out_of_range(start))?;
        if len > 1 && self.bytes[digits_at] == b'0' {
            return Err(self.not_canonical(start, "leading zero"));
        }
        if negative && value == 0 {
            return Err(self.not_canonical(start, "zero has no sign"));
        }
        Ok(value)
    }
}

fn parse_header(line: &str, line_no: u64) -> Result<(usize, usize, i64), WireError> {
    let mut c = Cursor::new(line, line_no);
    c.expect("{\"tm-history\":")?;
    let vpos = c.pos;
    let version = c.parse_u64()?;
    if version != WIRE_VERSION {
        return Err(c.err_at(
            vpos,
            format!("unsupported tm-history version {version} (this decoder reads version {WIRE_VERSION})"),
        ));
    }
    c.expect(",\"sessions\":")?;
    let spos = c.pos;
    // Cap-check the raw u64 before narrowing: `as usize` truncates on
    // 32-bit targets, so a hostile count like 2^32+5 would otherwise
    // shrink to 5 and sail past the cap.
    let sessions = c.parse_u64()?;
    if sessions > MAX_SESSIONS as u64 {
        return Err(
            c.err_at(spos, format!("session count {sessions} exceeds the cap of {MAX_SESSIONS}"))
        );
    }
    let sessions = sessions as usize;
    c.expect(",\"vars\":")?;
    let vpos = c.pos;
    let vars = c.parse_u64()?;
    if vars > MAX_VARS as u64 {
        return Err(c.err_at(vpos, format!("variable count {vars} exceeds the cap of {MAX_VARS}")));
    }
    let vars = vars as usize;
    c.expect(",\"initial\":")?;
    let initial = c.parse_i64()?;
    c.expect("}")?;
    if !c.done() {
        return Err(c.err("trailing characters after the header object"));
    }
    Ok((sessions, vars, initial))
}

type ParsedTxn = (usize, usize, u64, AccessSet, AccessSet);

fn parse_txn(
    line: &str,
    line_no: u64,
    vars: usize,
    seqs: &mut SeqView<'_>,
    last_hint: &[Option<u64>],
) -> Result<ParsedTxn, WireError> {
    let mut c = Cursor::new(line, line_no);
    c.expect("{\"s\":")?;
    let spos = c.pos;
    // Range-check as u64 before narrowing (see parse_header): truncation on
    // 32-bit targets must not alias an out-of-range index onto a valid one.
    let s = c.parse_u64()?;
    if s >= last_hint.len() as u64 {
        return Err(c.err_at(
            spos,
            format!("session {s} out of range (the header declares {} sessions)", last_hint.len()),
        ));
    }
    let s = s as usize;
    c.expect(",\"q\":")?;
    let qpos = c.pos;
    let q = c.parse_u64()?;
    let expected = seqs.next_seq(s);
    if q != expected as u64 {
        return Err(c.err_at(
            qpos,
            format!(
                "transaction s{s}:{q} out of order: expected seq {expected} for session {s} \
                 (duplicate or missing transaction)"
            ),
        ));
    }
    c.expect(",\"h\":")?;
    let hpos = c.pos;
    let h = c.parse_u64()?;
    if let Some(prev) = last_hint[s] {
        if h <= prev {
            return Err(c.err_at(
                hpos,
                format!("hint {h} does not increase within session {s} (previous was {prev})"),
            ));
        }
    }
    c.expect(",\"r\":")?;
    let reads = parse_pairs(&mut c, vars, "read")?;
    c.expect(",\"w\":")?;
    let writes = parse_pairs(&mut c, vars, "write")?;
    c.expect("}")?;
    if !c.done() {
        return Err(c.err("trailing characters after the transaction object"));
    }
    Ok((s, q as usize, h, reads, writes))
}

fn parse_pairs(c: &mut Cursor<'_>, vars: usize, kind: &str) -> Result<AccessSet, WireError> {
    c.expect("[")?;
    let mut pairs = AccessSet::new();
    if c.peek() == Some(b']') {
        c.pos += 1;
        return Ok(pairs);
    }
    loop {
        let pair_pos = c.pos;
        c.expect("[")?;
        let vpos = c.pos;
        let var = c.parse_u64()?;
        if var >= vars as u64 {
            return Err(c.err_at(
                vpos,
                format!("variable v{var} out of range (the header declares {vars} variables)"),
            ));
        }
        let var = var as usize;
        if pairs.iter().any(|&(v, _)| v == var) {
            return Err(
                c.err_at(pair_pos, format!("duplicate {kind} of v{var} in one transaction"))
            );
        }
        c.expect(",")?;
        let value = c.parse_i64()?;
        c.expect("]")?;
        pairs.push((var, value));
        match c.peek() {
            Some(b',') => c.pos += 1,
            _ => break,
        }
    }
    c.expect("]")?;
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditHistory {
        let mut h = AuditHistory::new(4, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 7)]);
        h.push_txn(1, [(0, 7)], [(1, 9), (2, -3)]);
        h.push_txn(0, [(1, 9), (2, -3)], []);
        h
    }

    #[test]
    fn encode_is_canonical_and_decodes_back() {
        let h = sample();
        let text = encode(&h);
        assert!(text.starts_with("{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}\n"));
        assert!(text.ends_with('\n'));
        assert_eq!(decode(&text), Ok(h));
    }

    /// A set comes back the same whether it fits a record's inline slots or
    /// spilled: reads and writes of every size 0..=6, in one document.
    #[test]
    fn sets_of_every_size_round_trip() {
        let mut h = AuditHistory::new(6, 0, 2);
        for n in 0..=6usize {
            let hint = 100 * n as i64;
            h.push_txn(n % 2, (0..n).map(|v| (v, 0)), (0..6 - n).map(|v| (v, hint + v as i64 + 1)));
        }
        let decoded = decode(&encode(&h)).expect("round trip");
        let sizes: Vec<(usize, usize)> = decoded
            .recording_order()
            .iter()
            .map(|(_, t)| (t.reads.len(), t.writes.len()))
            .collect();
        assert_eq!(sizes, (0..=6).map(|n| (n, 6 - n)).collect::<Vec<_>>());
        assert_eq!(encode(&decoded), encode(&h));
    }

    #[test]
    fn multi_document_streams_decode_in_order() {
        let text = format!("{}\n\n{}", encode(&sample()), encode(&AuditHistory::new(1, 5, 1)));
        let all = decode_all(&text).expect("two documents");
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].txn_count(), 3);
        assert_eq!(all[1].initial, 5);
        // decode() refuses the same stream.
        let err = decode(&text).unwrap_err();
        assert!(err.message.contains("decode_all"), "{err}");
    }

    #[test]
    fn skip_document_resynchronizes_a_stream() {
        let good = encode(&sample());
        let text =
            format!("{{\"tm-history\":9,\"sessions\":1,\"vars\":1,\"initial\":0}}\njunk\n\n{good}");
        let mut decoder = Decoder::new(text.as_bytes());
        let err = decoder.next_history().unwrap_err();
        assert!(err.message.contains("unsupported"), "{err}");
        decoder.skip_document().unwrap();
        let recovered = decoder.next_history().unwrap().expect("good document after skip");
        assert_eq!(recovered.txn_count(), 3);
        assert!(decoder.next_history().unwrap().is_none());
    }

    #[test]
    fn arrival_order_is_source_line_order() {
        // Per-session constraints allow cross-session interleavings that are
        // NOT globally hint-sorted; arrival order must preserve the source.
        let text = "{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}\n\
                    {\"s\":1,\"q\":0,\"h\":5,\"r\":[],\"w\":[[0,7]]}\n\
                    {\"s\":0,\"q\":0,\"h\":2,\"r\":[],\"w\":[[1,8]]}\n\
                    {\"s\":1,\"q\":1,\"h\":6,\"r\":[],\"w\":[[2,9]]}\n";
        let mut decoder = Decoder::new(text.as_bytes());
        let (history, arrival) = decoder.next_log_prefix().unwrap().expect("document");
        assert_eq!(history.txn_count(), 3);
        let ids: Vec<(usize, usize)> = arrival.iter().map(|id| (id.session, id.seq)).collect();
        assert_eq!(ids, vec![(1, 0), (0, 0), (1, 1)]);
    }

    #[test]
    fn wal_sink_lines_are_byte_compatible_with_the_encoder() {
        // The WAL writer in stm-runtime hand-formats wire lines (it cannot
        // depend on this crate); this test pins those bytes to the real
        // encoder so the formats can never drift apart.
        let h = sample();
        let dir = std::env::temp_dir().join(format!("wire-wal-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink =
            stm_runtime::wal::WalSink::create(&dir, h.sessions.len(), h.n_vars, h.initial)
                .expect("create sink");
        let mut order: Vec<(u64, usize, usize)> = h
            .sessions
            .iter()
            .enumerate()
            .flat_map(|(s, txns)| txns.iter().enumerate().map(move |(q, t)| (t.hint, s, q)))
            .collect();
        order.sort_unstable();
        for &(hint, s, q) in &order {
            let txn = &h.sessions[s][q];
            sink.append_txn(s, q as u64, hint, &txn.reads, &txn.writes).expect("append");
        }
        sink.finish().expect("finish");
        let round = stm_runtime::wal::recover_round(&dir).expect("recover");
        assert_eq!(round.text, encode(&h), "WAL bytes must equal the canonical encoding");
        let decoded = decode(&round.text).expect("WAL round decodes as-is");
        assert_eq!(decoded.txn_count(), h.txn_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_header_counts_are_rejected_before_narrowing() {
        // 2^32 + 5: on a 32-bit target `as usize` truncates this to 5, so
        // the cap must be compared against the raw u64.  The rejection has
        // to hold on every target, 64-bit included.
        let big = (1u64 << 32) + 5;
        let text = format!("{{\"tm-history\":1,\"sessions\":{big},\"vars\":4,\"initial\":0}}\n");
        let err = decode(&text).unwrap_err();
        assert!(err.message.contains(&format!("session count {big} exceeds")), "{err}");

        let text = format!("{{\"tm-history\":1,\"sessions\":2,\"vars\":{big},\"initial\":0}}\n");
        let err = decode(&text).unwrap_err();
        assert!(err.message.contains(&format!("variable count {big} exceeds")), "{err}");
    }

    #[test]
    fn oversized_txn_indices_are_rejected_before_narrowing() {
        // Same truncation class inside transaction lines: a session or
        // variable index of 2^32+small must not alias onto a valid index.
        let big_s = (1u64 << 32) + 1; // would truncate to session 1 (valid)
        let text = format!(
            "{{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}}\n\
             {{\"s\":{big_s},\"q\":0,\"h\":0,\"r\":[],\"w\":[[0,7]]}}\n"
        );
        let err = decode(&text).unwrap_err();
        assert!(err.message.contains(&format!("session {big_s} out of range")), "{err}");

        let big_v = (1u64 << 32) + 2; // would truncate to variable 2 (valid)
        let text = format!(
            "{{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}}\n\
             {{\"s\":0,\"q\":0,\"h\":0,\"r\":[],\"w\":[[{big_v},7]]}}\n"
        );
        let err = decode(&text).unwrap_err();
        assert!(err.message.contains(&format!("variable v{big_v} out of range")), "{err}");

        // And a q of 2^32+0 must not pass the `q == expected(0)` check.
        let big_q = 1u64 << 32;
        let text = format!(
            "{{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}}\n\
             {{\"s\":0,\"q\":{big_q},\"h\":0,\"r\":[],\"w\":[[0,7]]}}\n"
        );
        let err = decode(&text).unwrap_err();
        assert!(err.message.contains("out of order"), "{err}");
    }

    #[test]
    fn final_line_without_trailing_newline_decodes() {
        // A document truncated of its final newline (e.g. a log tail) must
        // still decode: read_line yields the last partial line and the
        // decoder treats EOF as end-of-document.
        let text = encode(&sample());
        let trimmed = text.trim_end_matches('\n');
        assert!(!trimmed.ends_with('\n'));
        let h = decode(trimmed).expect("no trailing newline");
        assert_eq!(h.txn_count(), 3);

        let mut decoder = Decoder::new(trimmed.as_bytes());
        let h = decoder.next_history().unwrap().expect("document");
        assert_eq!(h.txn_count(), 3);
        assert!(decoder.next_history().unwrap().is_none());
    }

    #[test]
    fn skip_document_at_eof_mid_document_is_ok() {
        // A stream that ends mid-document (no blank-line terminator):
        // skip_document must consume to EOF and return Ok, and the decoder
        // must then report end of input rather than erroring or spinning.
        let text = "{\"tm-history\":9,\"sessions\":1,\"vars\":1,\"initial\":0}\njunk-line";
        let mut decoder = Decoder::new(text.as_bytes());
        let err = decoder.next_history().unwrap_err();
        assert!(err.message.contains("unsupported"), "{err}");
        decoder.skip_document().expect("skip to EOF");
        assert!(decoder.next_history().unwrap().is_none());
        // Further skips at EOF stay Ok (idempotent resync).
        decoder.skip_document().expect("skip at EOF");
    }

    #[test]
    fn invalid_utf8_is_a_positioned_error_and_the_stream_resyncs() {
        let good = encode(&sample());
        let mut bytes = good.clone().into_bytes();
        bytes.extend_from_slice(b"\n{\"s\":0,\xff}\nmore\n\n");
        bytes.extend_from_slice(good.as_bytes());
        let mut decoder = Decoder::new(&bytes[..]);
        assert_eq!(decoder.next_history().unwrap().expect("first document").txn_count(), 3);
        let err = decoder.next_history().unwrap_err();
        assert_eq!(
            (err.line, err.col, err.message.as_str()),
            (6, 1, "read error: stream did not contain valid UTF-8")
        );
        decoder.skip_document().unwrap();
        assert_eq!(decoder.next_history().unwrap().expect("after the skip").txn_count(), 3);
        assert!(decoder.next_history().unwrap().is_none());
    }

    #[test]
    fn positioned_errors_name_line_and_col() {
        let text = "{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}\n\
                    {\"s\":0,\"q\":0,\"h\":0,\"r\":[],\"w\":[[0,7]]}\n\
                    {\"s\":5,\"q\":0,\"h\":1,\"r\":[],\"w\":[[1,8]]}\n";
        let err = decode(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.col, 6, "{err}");
        assert!(err.message.contains("session 5 out of range"), "{err}");
        assert!(err.to_string().starts_with("line 3, col 6:"), "{err}");
    }
}
