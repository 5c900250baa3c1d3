//! The few JSON shapes the benchmark emits.  Hand-rolled so that the result
//! line keeps its format whatever happens to the repository's own codecs.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has.  JSON has no NaN or
/// infinity; a value that is not finite was never measured and reads `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"k":v,…}` from already-encoded values, keys in the order given.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields.into_iter().map(|(k, v)| format!("{}:{v}", string(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// `[v,…]` from already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// One `"name":{"value":…,"unit":"…"}` entry of the result line.
pub fn metric(value: f64, unit: &str) -> String {
    object([("value", number(value)), ("unit", string(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("line\nbreak\t\u{1}"), "\"line\\nbreak\\t\\u0001\"");
        assert_eq!(string("✓ ünï"), "\"✓ ünï\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_print_nan() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(21345.123456789), "21345.123456789");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let m = metric(1.25, "ms");
        assert_eq!(m, "{\"value\":1.25,\"unit\":\"ms\"}");
        let line = object([
            ("correct", "true".to_string()),
            ("attempted", "12".to_string()),
            ("metrics", object([("latency_ms", m)])),
            ("list", array(["1".to_string(), string("x")])),
        ]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"metrics\":{\"latency_ms\":\
             {\"value\":1.25,\"unit\":\"ms\"}},\"list\":[1,\"x\"]}"
        );
    }
}
