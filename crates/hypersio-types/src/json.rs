//! The workspace's one JSON reader and one JSON string escaper.
//!
//! Every hand-written JSON document in the workspace — `sim_report/v1`,
//! the `hypersio-checkpoint/v1` header, the benchmark harness outputs —
//! embeds its strings through [`escape`], and every JSON input — a
//! `fault_plan/v1` file, a checkpoint header, a document the bench
//! validators check — is read through [`parse`], so writers and readers
//! agree on one encoding.
//!
//! The reader covers the full JSON grammar and settles the cases where
//! readers commonly differ once, as a positional [`ParseError`]: a
//! duplicate object key, a number outside the `f64` range, and nesting
//! deeper than 128 arrays and objects (which would otherwise exhaust the
//! stack). Integers are read through [`Json::as_u64`], which never rounds
//! or saturates.
//!
//! # Examples
//!
//! ```
//! use hypersio_types::json::{escape, parse, Json};
//!
//! assert_eq!(escape("plain"), "plain");
//! assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
//!
//! let doc = parse(r#"{"seed": 42, "name": "a\"b"}"#).unwrap();
//! assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(42));
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("a\"b"));
//! assert_eq!(parse(r#"{"a": 1, "a": 2}"#).unwrap_err().at, 9);
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as the nearest finite `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Returns the object map if this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the array elements if this value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string contents if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric value if this value is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number as an integer if it is a whole number in
    /// `0..2^53`, else `None`.
    ///
    /// Every integer below 2^53 is exact in an `f64`; 2^53 + 1 is the
    /// first that is not (`9007199254740993` parses to 2^53), so the bound
    /// is exclusive and an integer literal is never returned rounded or
    /// saturated.
    pub fn as_u64(&self) -> Option<u64> {
        const LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && *n < LIMIT && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Returns the boolean value if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// The JSON type's name (`"number"`, `"object"`, ...), for errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which parsing failed.
    pub at: usize,
    /// Human-readable reason.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] at the first byte that breaks the grammar,
/// repeats a key within one object, holds a number beyond the `f64`
/// range, or opens a 129th level of nesting.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Arrays and objects nested deeper than this are rejected: the reader
/// recurses once per level, and a crafted input must not overflow the
/// stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(ParseError {
                    at: key_at,
                    msg: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&low)
                                        .then(|| 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                                } else {
                                    None
                                }
                            } else {
                                Some(code)
                            };
                            out.push(
                                c.and_then(char::from_u32)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // boundaries are valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .peek()
                        .is_some_and(|b| b & 0xC0 == 0x80 && self.pos - start < 4)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let at_start = |msg: &str| ParseError {
            at: start,
            msg: msg.to_string(),
        };
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(at_start("number out of range")),
            Err(_) => Err(at_start("invalid number")),
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "x"}, false], "c": {}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert!(doc.get("c").unwrap().as_obj().unwrap().is_empty());
        // 128 levels is the deepest nesting the reader accepts.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
        // Surrogate pair (U+1F600).
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        // `units(&["d83d", "de00"])` parses a JSON string of two escaped
        // UTF-16 code units.
        let units = |hex: &[&str]| {
            let body: String = hex.iter().map(|h| format!("{}u{h}", '\\')).collect();
            parse(&format!("\"{body}\""))
        };
        assert_eq!(units(&["00e9"]).unwrap(), Json::Str("\u{e9}".into()));
        assert_eq!(
            units(&["d83d", "de00"]).unwrap(),
            Json::Str("\u{1f600}".into())
        );
        assert!(units(&["d83d", "0041"]).is_err(), "unpaired high surrogate");
        assert!(units(&["de00"]).is_err(), "lone low surrogate");
        assert_eq!(
            parse(r#""a\b\f\/""#).unwrap(),
            Json::Str("a\u{8}\u{c}/".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
        let stack_breaker = "[".repeat(1 << 20);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            "1e999",
            "-1e999",
            r#""\u+041""#,
            &too_deep,
            &stack_breaker,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:.40?}");
        }
        // A repeated key is an error at the repeat, in any object.
        for (doc, at) in [
            (r#"{"a":1,"a":2}"#, 7),
            (
                r#"{"schema":"fault_plan/v1","fault_rate":0.5,"fault_rate":0.01}"#,
                43,
            ),
            (r#"[{"x": {"k": 1, "k": 1}}]"#, 16),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err.at, at, "{doc}: {err}");
            assert!(err.msg.contains("duplicate key"), "{err}");
        }
        // An out-of-range number is reported where it starts.
        assert_eq!(parse("[1, 1e999]").unwrap_err().at, 4);
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\n\"quoted\"\tand\\slash\r\u{1}\u{1f}µs";
        let parsed = parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(parsed, Json::Str(s.into()));
    }

    #[test]
    fn as_u64_reads_only_exact_whole_numbers() {
        for (text, want) in [
            ("0", Some(0)),
            ("-0", Some(0)),
            ("42", Some(42)),
            ("1e3", Some(1000)),
            ("9007199254740991", Some((1 << 53) - 1)),
            ("9007199254740992", None),
            ("9007199254740993", None),
            ("12345678901234567", None),
            ("18446744073709551615", None),
            ("18446744073709551616", None),
            ("1e19", None),
            ("1.5", None),
            ("-1", None),
            ("\"7\"", None),
            ("true", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), want, "{text}");
        }
    }
}
