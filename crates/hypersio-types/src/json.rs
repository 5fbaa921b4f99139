//! The workspace's one JSON string escaper.
//!
//! Every hand-written JSON document in the workspace — `sim_report/v1`,
//! the `hypersio-checkpoint/v1` header, the benchmark harness outputs —
//! embeds its strings through [`escape`], so they all agree on one
//! encoding and every reader can undo it with the standard JSON rules.
//!
//! # Examples
//!
//! ```
//! use hypersio_types::json::escape;
//!
//! assert_eq!(escape("plain"), "plain");
//! assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
//! ```

use std::fmt::Write as _;

/// Escapes `s` for embedding between the quotes of a JSON string literal:
/// `"` and `\` are backslash-escaped, `\n`/`\r`/`\t` use their short
/// forms, and the remaining control characters become `\u00XX`. The
/// result never contains a raw newline, so it is safe in line-oriented
/// formats (JSONL, the checkpoint header line).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
