//! Wire-format round-trip and hardening tests.
//!
//! Two claims the wire format must hold for the export → ingest story to be
//! trustworthy:
//!
//! 1. **Lossless round trip** — encoding a history and decoding it back
//!    yields the *same* history (and re-encoding yields the same bytes); the
//!    live-captured half of this claim — many seeds, every built-in backend,
//!    multi-document exports — lives beside the recorder's runner, in
//!    `crates/workloads/tests/ingest_equivalence.rs`;
//! 2. **Hardened decoding** — malformed input is rejected with a positioned
//!    [`WireError`], never a panic, and the position points at the offending
//!    line.

use tm_history::{decode, encode, Decoder};

/// A tiny well-formed document the malformed corpus mutates from.  Line
/// numbers in the corpus cases refer to this layout (header = line 1).
const VALID_DOC: &str = "\
{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":0}\n\
{\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,0]],\"w\":[[0,5]]}\n\
{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}\n";

#[test]
fn valid_doc_is_actually_valid() {
    let history = decode(VALID_DOC).expect("the corpus baseline must decode");
    assert_eq!(history.txn_count(), 2);
    assert_eq!(encode(&history), VALID_DOC);
}

/// `VALID_DOC` with line `replaced` (0-based) swapped for `with`.
fn rebuilt(replaced: usize, with: &str) -> String {
    let mut out = String::new();
    for (i, line) in VALID_DOC.lines().enumerate() {
        out.push_str(if i == replaced { with } else { line });
        out.push('\n');
    }
    out
}

/// Each case: a mutated document, and the 1-based line, the 1-based column
/// and the message the decoder must reject it with.  The positions and
/// messages of every case the byte-level integer parser inherited from the
/// `str::parse` one are the old parser's, verbatim.
fn malformed_corpus() -> Vec<(&'static str, String, u64, u64, &'static str)> {
    let lines: Vec<&str> = VALID_DOC.lines().collect();
    vec![
        (
            "truncated txn line",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,"),
            3,
            28,
            "expected an integer",
        ),
        (
            "duplicate txn id",
            format!("{VALID_DOC}{}\n", "{\"s\":0,\"q\":0,\"h\":2,\"r\":[],\"w\":[]}"),
            4,
            12,
            "transaction s0:0 out of order: expected seq 1 for session 0 \
             (duplicate or missing transaction)",
        ),
        (
            "thin-air read",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,7]],\"w\":[[1,6]]}"),
            3,
            1,
            "thin-air read: s1:0 observed v0 = 7, which no transaction wrote and which is \
             not the initial value",
        ),
        (
            "unsupported version",
            VALID_DOC.replacen("{\"tm-history\":1,", "{\"tm-history\":99,", 1),
            1,
            15,
            "unsupported tm-history version 99 (this decoder reads version 1)",
        ),
        (
            "write of the initial value",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,0]]}"),
            3,
            1,
            "s1:0 wrote v1 = 0, the initial value; audited runs must write values distinct \
             from the initial one",
        ),
        (
            "ambiguous write",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[0,5]]}"),
            3,
            1,
            "ambiguous write: both s0:0 and s1:0 wrote v0 = 5; audited runs must write \
             unique values",
        ),
        ("missing header", lines[1..].join("\n"), 1, 1, "expected \"{\\\"tm-history\\\":\""),
        (
            "session out of range",
            rebuilt(2, "{\"s\":5,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            6,
            "session 5 out of range (the header declares 2 sessions)",
        ),
        (
            "sequence gap",
            rebuilt(2, "{\"s\":1,\"q\":3,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            12,
            "transaction s1:3 out of order: expected seq 0 for session 1 \
             (duplicate or missing transaction)",
        ),
        (
            "hint not monotonic",
            format!("{VALID_DOC}{}\n", "{\"s\":0,\"q\":1,\"h\":0,\"r\":[],\"w\":[[2,9]]}"),
            4,
            18,
            "hint 0 does not increase within session 0 (previous was 0)",
        ),
        (
            "binary garbage line",
            rebuilt(1, "\u{1}\u{2}\u{3}nonsense"),
            2,
            1,
            "expected \"{\\\"s\\\":\"",
        ),
        (
            "trailing characters",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]} extra"),
            3,
            44,
            "trailing characters after the transaction object",
        ),
        (
            "negative session count",
            rebuilt(0, "{\"tm-history\":1,\"sessions\":-2,\"vars\":4,\"initial\":0}"),
            1,
            28,
            "expected an unsigned integer",
        ),
        // Integers at and past the edges of their types.
        (
            "value one past i64::MAX",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,9223372036854775808]]}"),
            3,
            40,
            "integer 9223372036854775808 out of range",
        ),
        (
            "value one past i64::MIN",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,-9223372036854775809]]}"),
            3,
            40,
            "integer -9223372036854775809 out of range",
        ),
        (
            "initial one past i64::MAX",
            rebuilt(
                0,
                "{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":9223372036854775808}",
            ),
            1,
            49,
            "integer 9223372036854775808 out of range",
        ),
        (
            "21-digit hint",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":123456789012345678901,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            18,
            "integer 123456789012345678901 out of range",
        ),
        (
            "variable one past u64::MAX",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[18446744073709551616,6]]}"),
            3,
            38,
            "integer 18446744073709551616 out of range",
        ),
        (
            "bare minus",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,-]]}"),
            3,
            40,
            "expected an integer",
        ),
        (
            "explicit plus",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,+5]]}"),
            3,
            40,
            "expected an integer",
        ),
        // Non-canonical spellings the decoder used to accept: re-encoding
        // them would change the bytes.
        (
            "leading zero in q",
            rebuilt(2, "{\"s\":1,\"q\":00,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            12,
            "integer 00 is not canonical (leading zero)",
        ),
        (
            "leading zeros in q",
            rebuilt(2, "{\"s\":1,\"q\":007,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            12,
            "integer 007 is not canonical (leading zero)",
        ),
        (
            "leading zero in h",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":01,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            18,
            "integer 01 is not canonical (leading zero)",
        ),
        (
            "leading zero in a variable",
            rebuilt(1, "{\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,0]],\"w\":[[01,5]]}"),
            2,
            38,
            "integer 01 is not canonical (leading zero)",
        ),
        (
            "leading zero in a negative value",
            rebuilt(1, "{\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,0]],\"w\":[[0,-05]]}"),
            2,
            40,
            "integer -05 is not canonical (leading zero)",
        ),
        (
            "negative zero read",
            rebuilt(1, "{\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,-0]],\"w\":[[0,5]]}"),
            2,
            28,
            "integer -0 is not canonical (zero has no sign)",
        ),
        (
            "leading zero in the session count",
            rebuilt(0, "{\"tm-history\":1,\"sessions\":02,\"vars\":4,\"initial\":0}"),
            1,
            28,
            "integer 02 is not canonical (leading zero)",
        ),
        (
            "negative zero initial",
            rebuilt(0, "{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":-0}"),
            1,
            49,
            "integer -0 is not canonical (zero has no sign)",
        ),
    ]
}

#[test]
fn malformed_documents_yield_positioned_errors_not_panics() {
    for (name, doc, line, col, message) in malformed_corpus() {
        let err = match decode(&doc) {
            Err(err) => err,
            Ok(_) => panic!("{name}: decoded successfully, expected a rejection"),
        };
        assert_eq!((err.line, err.col, err.message.as_str()), (line, col, message), "{name}");
        // The streaming decoder must reject the same document (possibly at a
        // different granularity, but still without panicking).
        let mut streaming = Decoder::new(doc.as_bytes());
        let mut failed = false;
        loop {
            match streaming.next_history() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "{name}: streaming decoder accepted what decode() rejected");
    }
}

/// Integers at the edges of their types decode and re-encode byte for byte.
#[test]
fn extreme_integers_round_trip() {
    let doc = "\
{\"tm-history\":1,\"sessions\":2,\"vars\":4,\"initial\":-9223372036854775808}\n\
{\"s\":0,\"q\":0,\"h\":0,\"r\":[[0,-9223372036854775808]],\"w\":[[0,9223372036854775807]]}\n\
{\"s\":1,\"q\":0,\"h\":18446744073709551615,\"r\":[[0,9223372036854775807]],\"w\":[[1,0],[2,-1]]}\n";
    let history = decode(doc).expect("extreme integers decode");
    assert_eq!(history.initial, i64::MIN);
    let last = &history.sessions[1][0];
    assert_eq!(last.hint, u64::MAX);
    assert_eq!(&last.writes[..], &[(1, 0), (2, -1)]);
    assert_eq!(encode(&history), doc);
}

/// A decode error in one document must not poison the rest of the stream:
/// `skip_document` resyncs at the next blank line and the decoder keeps
/// producing histories.
#[test]
fn streaming_decoder_resyncs_after_a_bad_document() {
    let input = format!("{VALID_DOC}\ngarbage that is not a header\n\n{VALID_DOC}");
    let mut decoder = Decoder::new(input.as_bytes());
    let first = decoder.next_history().expect("first document decodes").expect("present");
    assert_eq!(first.txn_count(), 2);
    let err = decoder.next_history().expect_err("garbage document is rejected");
    assert!(err.line >= 4, "error blames the garbage region: {err}");
    decoder.skip_document().expect("resync");
    let second = decoder.next_history().expect("third document decodes").expect("present");
    assert_eq!(second, first);
    assert!(decoder.next_history().expect("clean EOF").is_none());
}
