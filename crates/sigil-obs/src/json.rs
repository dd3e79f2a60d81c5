//! JSON string escaping for the hand-written exporters in this crate
//! (the crate has no dependencies). Tests parse the exported files back
//! with `serde_json` and inspect them structurally.

use std::fmt;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let mut out = String::new();
        escape_into(&mut out, nasty);
        let parsed: String = serde_json::from_str(&out).expect("escaped string is valid JSON");
        assert_eq!(parsed, nasty);
    }
}
