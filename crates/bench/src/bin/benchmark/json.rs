//! The little JSON the benchmark writes: strings and numbers. Nothing here
//! parses JSON; child results are read back from their `name value unit`
//! lines.

/// `s` as a quoted JSON string.
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

/// `v` with every digit it was measured with (Rust prints the shortest text
/// that reads back as the same `f64`, never in exponent form).
///
/// # Panics
///
/// Panics on NaN or an infinity, which JSON cannot carry: a metric that is
/// not a number is a bug in the benchmark.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(string("µs ≥ 0"), "\"µs ≥ 0\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(346.485211), "346.485211");
        assert_eq!(number(350781.0), "350781");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(-0.0625), "-0.0625");
        assert_eq!(number(1e21), "1000000000000000000000");
        assert_eq!(number(1.5e-7), "0.00000015");
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn nan_is_refused() {
        number(f64::NAN);
    }
}
