//! The workspace's one JSON writer: string escaping and number rendering
//! shared by every deterministic JSON/NDJSON rendering (metrics, traces,
//! scenario reports, figure tables), so they all escape and format
//! numbers byte-identically.

/// Escapes `s` for use inside a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Renders `s` as a quoted JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders `v` as a JSON number in Rust's shortest round-trip form, always
/// with a fraction or exponent (`2.0`, not `2`). JSON has no infinities or
/// NaN, so non-finite values render as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("t\tx"), "\"t\\tx\"");
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0"); // "2" would also be valid; keep decimal
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
    }
}
