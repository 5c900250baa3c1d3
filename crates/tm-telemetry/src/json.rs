//! The one JSON writer and the one general JSON reader the workspace shares.
//!
//! The repo deliberately carries no serde dependency (the build container has
//! no registry access), so every machine-readable artifact — audit reports,
//! serve records, bench artifacts, metric snapshots — is hand-assembled JSON.
//! Before this module existed each crate hand-rolled its own string escaping
//! with subtly different rules; every emitter now writes its object with
//! `format!` and passes each string through [`escape`].
//!
//! The reader ([`parse`] → [`Value`]) is a plain RFC 8259 value parser for
//! the documents the workspace reads back whole (the boundary records in WAL
//! seals, WAL metadata).  `tm-history`'s wire decoder is not a second one: it scans a
//! canonical line form in place, with `(line, col)` errors, on a timed path.

use std::fmt;

/// Escape `s` for embedding inside a JSON string literal (no surrounding
/// quotes).  Handles the two mandatory escapes (`"`, `\`), the common
/// whitespace controls, and falls back to `\u00xx` for the rest of the
/// C0 control range.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The reader.

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with a byte offset where there is one.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError { message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value (numbers keep their source text so integer widths
/// survive exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object (`None` on missing field or non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Field `key` of an object through one of the `as_*` accessors (or
    /// `Some` for the raw value): a missing or mistyped field is an error
    /// naming the key.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        as_kind: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, ParseError> {
        self.get(key)
            .and_then(as_kind)
            .ok_or_else(|| ParseError::new(format!("missing or mistyped field {key:?}")))
    }
}

/// How deep [`parse`] lets arrays and objects nest.  The workspace's own
/// documents nest a few levels; the reader recurses once per level, so a
/// hostile document of nested `[` (a WAL seal's record is not covered by
/// its CRC) must be refused before it overflows the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document (object, array or scalar); trailing whitespace
/// allowed, anything else after the value is an error, and so is nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::new(format!(
            "trailing characters after the JSON document at byte {pos}"
        )));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// One value at `*pos`; `depth` is how many more levels may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::new("unexpected end of JSON input")),
        Some(b'{' | b'[') if depth == 0 => Err(ParseError::new(format!(
            "arrays and objects nest deeper than {MAX_DEPTH} levels at byte {pos}"
        ))),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError::new(format!(
                            "expected ',' or '}}' in object at byte {pos}"
                        )))
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => {
                        return Err(ParseError::new(format!(
                            "expected ',' or ']' in array at byte {pos}"
                        )))
                    }
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => {
            expect_lit(bytes, pos, "true")?;
            Ok(Value::Bool(true))
        }
        Some(b'f') => {
            expect_lit(bytes, pos, "false")?;
            Ok(Value::Bool(false))
        }
        Some(b'n') => {
            expect_lit(bytes, pos, "null")?;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            if bytes.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while matches!(bytes.get(*pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                *pos += 1;
            }
            if *pos == start {
                return Err(ParseError::new(format!("unexpected character at byte {start}")));
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .expect("numeric bytes are ASCII")
                .to_string();
            Ok(Value::Num(text))
        }
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::new(format!("expected {:?} at byte {pos}", byte as char)))
    }
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError::new(format!("expected {lit:?} at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out)
                    .map_err(|_| ParseError::new("string is not valid UTF-8"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0C),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| ParseError::new("malformed \\u escape"))?;
                        *pos += 4;
                        // The workspace escaper only emits \u for control
                        // characters, all in the BMP; map anything else
                        // defensively through char::from_u32.
                        let c = char::from_u32(hex).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(ParseError::new("unknown string escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn parser_handles_the_escape_vocabulary() {
        let value = parse(r#"{"a":"x\"y\\z\n\t","b":[1,-2,null,true,false]}"#).expect("parse");
        assert_eq!(value.get("a").unwrap().as_str().unwrap(), "x\"y\\z\n\t");
        let bell = parse("{\"c\":\"bell\\u0007\"}").expect("parse u-escape");
        assert_eq!(bell.get("c").unwrap().as_str().unwrap(), "bell\u{7}");
        let arr = value.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_i64(), Some(-2));
        assert_eq!(arr[2], Value::Null);
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("deeper than 128 levels"), "{err}");
        let err = parse(&"[{\"a\":".repeat(200_000)).unwrap_err();
        assert!(err.message.contains("deeper than 128 levels"), "{err}");
    }
}
