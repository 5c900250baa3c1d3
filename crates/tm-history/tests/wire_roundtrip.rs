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

/// Each case: a mutated document, the 1-based line the decoder must blame,
/// and a substring the message must contain (empty = any message).
fn malformed_corpus() -> Vec<(&'static str, String, u64, &'static str)> {
    let lines: Vec<&str> = VALID_DOC.lines().collect();
    let rebuilt = |replaced: usize, with: &str| -> String {
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i == replaced {
                out.push_str(with);
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    };
    vec![
        (
            "truncated txn line",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,"),
            3,
            "expected an integer",
        ),
        (
            "duplicate txn id",
            format!("{VALID_DOC}{}\n", "{\"s\":0,\"q\":0,\"h\":2,\"r\":[],\"w\":[]}"),
            4,
            "",
        ),
        (
            "thin-air read",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,7]],\"w\":[[1,6]]}"),
            3,
            "thin-air",
        ),
        (
            "unsupported version",
            VALID_DOC.replacen("{\"tm-history\":1,", "{\"tm-history\":99,", 1),
            1,
            "unsupported tm-history version",
        ),
        (
            "write of the initial value",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,0]]}"),
            3,
            "initial value",
        ),
        (
            "ambiguous write",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[0,5]]}"),
            3,
            "ambiguous write",
        ),
        ("missing header", lines[1..].join("\n"), 1, "tm-history"),
        (
            "session out of range",
            rebuilt(2, "{\"s\":5,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            "out of range",
        ),
        (
            "sequence gap",
            rebuilt(2, "{\"s\":1,\"q\":3,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]}"),
            3,
            "",
        ),
        (
            "hint not monotonic",
            format!("{VALID_DOC}{}\n", "{\"s\":0,\"q\":1,\"h\":0,\"r\":[],\"w\":[[2,9]]}"),
            4,
            "",
        ),
        ("binary garbage line", rebuilt(1, "\u{1}\u{2}\u{3}nonsense"), 2, ""),
        (
            "trailing characters",
            rebuilt(2, "{\"s\":1,\"q\":0,\"h\":1,\"r\":[[0,5]],\"w\":[[1,6]]} extra"),
            3,
            "",
        ),
        (
            "negative session count",
            rebuilt(0, "{\"tm-history\":1,\"sessions\":-2,\"vars\":4,\"initial\":0}"),
            1,
            "",
        ),
    ]
}

#[test]
fn malformed_documents_yield_positioned_errors_not_panics() {
    for (name, doc, line, needle) in malformed_corpus() {
        let err = match decode(&doc) {
            Err(err) => err,
            Ok(_) => panic!("{name}: decoded successfully, expected a rejection"),
        };
        assert_eq!(err.line, line, "{name}: blamed line {} not {line}: {err}", err.line);
        assert!(err.col >= 1, "{name}: column must be 1-based: {err}");
        if !needle.is_empty() {
            assert!(err.message.contains(needle), "{name}: {err:?} lacks {needle:?}");
        }
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
