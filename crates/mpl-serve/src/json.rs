//! A minimal JSON value model with a strict parser and a compact writer.
//!
//! The workspace has no serde dependency, and until this crate nothing ever
//! needed to *read* JSON — the CLI and benchmark reports only emit it.  A
//! wire protocol needs both directions, so this module implements the small
//! subset of JSON handling the protocol (and the golden-file tests pinning
//! the CLI schemas) relies on:
//!
//! * [`Json`] — null, bool, f64 numbers, strings, arrays and objects.
//!   Objects preserve insertion order (they are association lists, not
//!   maps), so re-serialising a parsed document is stable and golden tests
//!   can pin key order.
//! * [`Json::parse`] — a strict recursive-descent parser: rejects trailing
//!   garbage, unescaped control characters, bad `\u` escapes (including
//!   broken surrogate pairs) and guards against deep nesting.
//! * the `Display` impl — a compact writer using the shared
//!   [`mpl_core::json_escape_into`] routine, so the service emits exactly
//!   the same string escaping as the CLI and benchmark reports.
//!
//! # Linear time
//!
//! Frames come from untrusted clients, so parsing costs time linear in the
//! frame.  The parser reads each byte a small constant number of times and
//! never re-scans the rest of the input: a string's unescaped runs are
//! scanned once and copied whole, as slices of the `&str` input that need
//! no UTF-8 re-check.  Test builds count every byte the parser reads (and
//! every slice it hands to `str::parse`); a property test over generated
//! documents — long ASCII strings, multi-byte UTF-8, escapes, surrogate
//! pairs, nesting — pins that count at `4 * len + 64`, and a 4 MiB string
//! document pins it at scale.  The writer is linear too: it escapes each
//! string straight into the output buffer, copying unescaped runs whole.

use mpl_core::json_escape_into;
use std::fmt::{self, Write as _};

/// Maximum nesting depth [`Json::parse`] accepts; deeper documents are
/// rejected instead of risking a stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as an `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as an insertion-ordered association list.  Duplicate keys
    /// are preserved verbatim; [`Json::get`] returns the first match.
    Object(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(
            pairs
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn string(text: impl Into<String>) -> Json {
        Json::String(text.into())
    }

    /// The value under `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, when this is a number
    /// that is one (rejects fractions, negatives and values beyond the
    /// contiguous integer range of `f64`).
    pub fn as_usize(&self) -> Option<usize> {
        let value = self.as_f64()?;
        if value.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&value) {
            Some(value as usize)
        } else {
            None
        }
    }

    /// The boolean value, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document, rejecting trailing non-whitespace.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] carrying the byte offset of the first
    /// problem.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        Parser::new(text).parse_document()
    }

    /// Appends the compact serialisation of this value to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(value) => write_number(*value, out),
            Json::String(text) => write_string(text, out),
            Json::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number the way the protocol needs it: integral values in the
/// exact range print without a fractional part, everything else uses Rust's
/// shortest-round-trip `f64` formatting (non-finite values, which JSON
/// cannot represent, degrade to `null`).
fn write_number(value: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    if !value.is_finite() {
        out.push_str("null");
    } else if value.fract() == 0.0 && value.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", value as i64);
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Writes `text` as a quoted, escaped JSON string.
fn write_string(text: &str, out: &mut String) {
    out.push('"');
    json_escape_into(text, out);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// A single-pass recursive-descent parser.
///
/// Every method advances `offset` and hands each byte it reads to the next
/// step instead of re-reading it, so a parse reads each input byte a small
/// constant number of times.  Test builds count that work in `work`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    offset: usize,
    /// Bytes read so far: every peeked or scanned byte, plus the length of
    /// every slice handed to `str::parse`.
    #[cfg(test)]
    work: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            offset: 0,
            #[cfg(test)]
            work: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, JsonParseError> {
        let value = self.parse_value(0)?;
        if self.skip_whitespace().is_some() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Records `bytes` bytes of read work (counted in test builds only).
    #[cfg_attr(not(test), allow(unused_variables))]
    fn charge(&mut self, bytes: usize) {
        #[cfg(test)]
        {
            self.work += bytes;
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.offset,
            message: message.into(),
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.charge(1);
        self.bytes.get(self.offset).copied()
    }

    /// Skips whitespace and returns the byte after it (not consumed).
    fn skip_whitespace(&mut self) -> Option<u8> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.offset += 1,
                next => return next,
            }
        }
    }

    /// Consumes `byte` when `next` — the byte at the current offset — is it.
    fn expect(&mut self, next: Option<u8>, byte: u8) -> Result<(), JsonParseError> {
        if next == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Parses the value after any leading whitespace.
    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        let next = self.skip_whitespace();
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match next {
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'"') => {
                self.offset += 1;
                Ok(Json::String(self.parse_string_body()?))
            }
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(first @ (b'-' | b'0'..=b'9')) => self.parse_number(first),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonParseError> {
        self.charge(literal.len());
        if self.bytes[self.offset..].starts_with(literal.as_bytes()) {
            self.offset += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {literal:?}")))
        }
    }

    /// Parses an array; the offset is at its `[`.
    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.offset += 1;
        let mut items = Vec::new();
        if self.skip_whitespace() == Some(b']') {
            self.offset += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            match self.skip_whitespace() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    /// Parses an object; the offset is at its `{`.
    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.offset += 1;
        let mut pairs = Vec::new();
        let mut next = self.skip_whitespace();
        if next == Some(b'}') {
            self.offset += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.expect(next, b'"')?;
            let key = self.parse_string_body()?;
            let colon = self.skip_whitespace();
            self.expect(colon, b':')?;
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            match self.skip_whitespace() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
            next = self.skip_whitespace();
        }
    }

    /// Parses a number whose `first` byte is at the current offset.
    fn parse_number(&mut self, first: u8) -> Result<Json, JsonParseError> {
        let start = self.offset;
        let mut next = Some(first);
        if next == Some(b'-') {
            self.offset += 1;
            next = self.peek();
        }
        let digits_start = self.offset;
        let leading_zero = next == Some(b'0');
        next = self.skip_digits(next);
        if self.offset == digits_start {
            return Err(self.error("expected digits in number"));
        }
        // RFC 8259: the integer part is `0` or a non-zero digit followed
        // by digits — `01` is not a JSON number.
        if leading_zero && self.offset - digits_start > 1 {
            return Err(self.error("leading zero in number"));
        }
        if next == Some(b'.') {
            self.offset += 1;
            let fraction_start = self.offset;
            let after = self.peek();
            next = self.skip_digits(after);
            if self.offset == fraction_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(next, Some(b'e' | b'E')) {
            self.offset += 1;
            let mut after = self.peek();
            if matches!(after, Some(b'+' | b'-')) {
                self.offset += 1;
                after = self.peek();
            }
            let exponent_start = self.offset;
            self.skip_digits(after);
            if self.offset == exponent_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = &self.text[start..self.offset];
        self.charge(text.len());
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error(format!("unparsable number {text:?}")))
    }

    /// Consumes the digits starting with `next` (the byte at the current
    /// offset) and returns the byte after them.
    fn skip_digits(&mut self, mut next: Option<u8>) -> Option<u8> {
        while matches!(next, Some(b'0'..=b'9')) {
            self.offset += 1;
            next = self.peek();
        }
        next
    }

    /// Parses the rest of a string whose opening quote is consumed.
    fn parse_string_body(&mut self) -> Result<String, JsonParseError> {
        let mut out = String::new();
        loop {
            // Copy the run of bytes that need no decoding in one step.  The
            // run starts and stops next to an ASCII byte (or the end of the
            // input), so it is a char-boundary slice of the `&str` input:
            // it needs no UTF-8 re-check, and each byte is read once.
            let start = self.offset;
            let run = self.bytes[start..]
                .iter()
                .position(|&byte| matches!(byte, b'"' | b'\\') || byte < 0x20);
            let end = run.map_or(self.bytes.len(), |run| start + run);
            // The scan read the run and, when there is one, its stop byte.
            self.charge(end - start + usize::from(run.is_some()));
            self.offset = end;
            out.push_str(&self.text[start..end]);
            match self.bytes.get(end) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    out.push(self.parse_escape()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, JsonParseError> {
        let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.offset += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.peek() == Some(b'\\') {
                        self.offset += 1;
                        let next = self.peek();
                        self.expect(next, b'u')
                            .map_err(|_| self.error("high surrogate not followed by \\u"))?;
                        let second = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&first) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(first).ok_or_else(|| self.error("invalid code point"))?
                }
            }
            other => {
                return Err(self.error(format!("invalid escape \\{}", other as char)));
            }
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let byte = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (byte as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.offset += 1;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::{TestCaseError, TestRng};

    /// Parses `text`, also returning the bytes of read work it took.
    fn parse_with_work(text: &str) -> (Result<Json, JsonParseError>, usize) {
        let mut parser = Parser::new(text);
        let result = parser.parse_document();
        (result, parser.work)
    }

    fn work_bound(len: usize) -> usize {
        4 * len + 64
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::string("hi"));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let parsed = Json::parse(r#"{"b": [1, {"x": null}], "a": "y"}"#).unwrap();
        let Json::Object(pairs) = &parsed else {
            panic!("expected object");
        };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(parsed.get("a").and_then(Json::as_str), Some("y"));
        assert_eq!(
            parsed.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse(r#""a\"b\\c\/d\n\t\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "a\"b\\c/d\n\tAé😀");
        // Writer output re-parses to the same value.
        let rewritten = Json::parse(&parsed.to_string()).unwrap();
        assert_eq!(rewritten, parsed);
    }

    #[test]
    fn writer_uses_shared_escaping_and_compact_numbers() {
        let value = Json::object(vec![
            ("s", Json::string("a\"b\n😀")),
            ("i", Json::Number(7.0)),
            ("f", Json::Number(0.1)),
            ("l", Json::Array(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(
            value.to_string(),
            "{\"s\":\"a\\\"b\\u000a😀\",\"i\":7,\"f\":0.1,\"l\":[null,false]}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        // Each rejection keeps the offset and message it has always had.
        for (bad, offset, message) in [
            ("", 0, "unexpected end of input"),
            ("nul", 0, "expected \"null\""),
            ("tru", 0, "expected \"true\""),
            ("{", 1, "expected '\"'"),
            ("[1,", 3, "unexpected end of input"),
            ("[1 2]", 3, "expected ',' or ']' in array"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{\"a\":}", 5, "unexpected character '}'"),
            ("\"", 1, "unterminated string"),
            ("\"\\q\"", 3, "invalid escape \\q"),
            ("\"\\u12\"", 5, "non-hex digit in \\u escape"),
            ("\"\\ud800\"", 7, "unpaired high surrogate"),
            ("\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\udc00\"", 7, "unpaired low surrogate"),
            ("01x", 2, "leading zero in number"),
            ("1.", 2, "expected digits after decimal point"),
            ("1e", 2, "expected digits in exponent"),
            ("--1", 1, "expected digits in number"),
            ("{} {}", 3, "trailing characters after JSON value"),
            ("[1]]", 3, "trailing characters after JSON value"),
            ("01", 2, "leading zero in number"),
            ("007", 3, "leading zero in number"),
            ("-01.5", 3, "leading zero in number"),
            ("[01]", 3, "leading zero in number"),
            ("{\"k\":007}", 8, "leading zero in number"),
            ("\"\u{1}\"", 1, "raw control character in string"),
            ("{1:2}", 1, "expected '\"'"),
            ("{\"a\":1,}", 7, "expected '\"'"),
            ("[1,]", 3, "unexpected character ']'"),
            ("{\"a\":1 \"b\":2}", 7, "expected ',' or '}' in object"),
            ("\"abc", 4, "unterminated string"),
            ("\"ab\\", 4, "truncated escape"),
            ("\"\\u", 3, "truncated \\u escape"),
            ("\"\\ud800\\", 8, "high surrogate not followed by \\u"),
            ("\"\\ud800\\x", 8, "high surrogate not followed by \\u"),
            ("\"\\ud800\\udbff\"", 13, "invalid low surrogate"),
            (" [ ] x", 5, "trailing characters after JSON value"),
            ("-", 1, "expected digits in number"),
            ("1.e5", 2, "expected digits after decimal point"),
            ("1e+", 3, "expected digits in exponent"),
            ("2E-x", 3, "expected digits in exponent"),
            ("[nulll]", 5, "expected ',' or ']' in array"),
            ("{\"a\"", 4, "expected ':'"),
            ("{\"a\":1", 6, "expected ',' or '}' in object"),
            ("[\"x\"\n,", 6, "unexpected end of input"),
            ("\t", 1, "unexpected end of input"),
            ("[\"é\u{2}\"]", 4, "raw control character in string"),
            ("{\"é\":\"漢\\u00zz\"}", 14, "non-hex digit in \\u escape"),
            ("[,]", 1, "unexpected character ','"),
            ("\"\\ud83d\\ude00", 13, "unterminated string"),
            ("1x", 1, "trailing characters after JSON value"),
        ] {
            let error = Json::parse(bad).expect_err(bad);
            assert_eq!(
                (error.offset, error.message.as_str()),
                (offset, message),
                "{bad:?}"
            );
        }
        // Zero itself (and fractions/exponents on it) stay legal.
        assert_eq!(Json::parse("0").unwrap(), Json::Number(0.0));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Number(-0.5));
        assert_eq!(Json::parse("0.25e2").unwrap(), Json::Number(25.0));
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).is_err());
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn accessors_are_type_checked() {
        let value = Json::parse(r#"{"n": 3, "neg": -1, "frac": 1.5}"#).unwrap();
        assert_eq!(value.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("neg").unwrap().as_usize(), None);
        assert_eq!(value.get("frac").unwrap().as_usize(), None);
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_str(), None);
    }

    #[test]
    fn a_four_mib_string_document_parses_in_linear_work() {
        // Mixed ASCII, two-, three- and four-byte UTF-8 and escapes: a
        // parser that re-validates the rest of the input per character
        // exceeds the bound within the first few characters.
        let unit = "0 0 0 20 20 é漢😀 \\\"\\\\\\n\\u00e9\\ud83d\\ude00 ";
        let decoded = "0 0 0 20 20 é漢😀 \"\\\né😀 ";
        let copies = (4 << 20) / unit.len() + 1;
        let text = format!("{{\"layout_text\":\"{}\"}}", unit.repeat(copies));
        assert!(text.len() >= 4 << 20);
        let (parsed, work) = parse_with_work(&text);
        let parsed = parsed.expect("the document is valid");
        assert_eq!(
            parsed.get("layout_text").and_then(Json::as_str),
            Some(decoded.repeat(copies).as_str())
        );
        assert!(
            work <= work_bound(text.len()),
            "work {work} for {} bytes",
            text.len()
        );
    }

    /// Characters for generated strings: ASCII (including the characters
    /// that must or may be escaped), control characters, DEL, and two-,
    /// three- and four-byte UTF-8.
    const PALETTE: [char; 14] = [
        'a', 'Z', ' ', '/', '"', '\\', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '漢', '😀',
        '\u{2028}',
    ];

    /// A generated document: JSON source text and the value it denotes.
    #[derive(Debug)]
    struct Doc {
        source: String,
        value: Json,
    }

    /// Spells `c` inside a string literal: raw where that is legal, as a
    /// short escape, or as `\u` escapes (a surrogate pair beyond the BMP).
    fn spell_char(c: char, style: u64, source: &mut String) {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            _ => None,
        };
        match (style, short) {
            (0, _) if c >= ' ' && c != '"' && c != '\\' => source.push(c),
            (1, Some(short)) => source.push_str(short),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    if style == 2 {
                        source.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        source.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
    }

    /// A string of runs of one palette character, each run spelled one way
    /// — so documents carry long plain runs as well as dense escapes.
    fn gen_string(rng: &mut TestRng) -> (String, String) {
        let mut value = String::new();
        let mut source = String::from('"');
        for _ in 0..rng.below(6) {
            let c = PALETTE[rng.below(PALETTE.len() as u64) as usize];
            let style = rng.below(4);
            for _ in 0..1 + rng.below(400) {
                value.push(c);
                spell_char(c, style, &mut source);
            }
        }
        source.push('"');
        (source, value)
    }

    fn gen_whitespace(rng: &mut TestRng) -> &'static str {
        ["", "", " ", "\n\t", "\r\n  "][rng.below(5) as usize]
    }

    fn gen_doc(rng: &mut TestRng, depth: usize) -> Doc {
        let kind = if depth == 0 {
            rng.below(4)
        } else {
            rng.below(6)
        };
        match kind {
            0 => {
                let value = [Json::Null, Json::Bool(true), Json::Bool(false)]
                    [rng.below(3) as usize]
                    .clone();
                Doc {
                    source: value.to_string(),
                    value,
                }
            }
            1 => {
                let mantissa = rng.below(1 << 40) as f64 - (1u64 << 39) as f64;
                let number = mantissa / f64::from(1u32 << rng.below(20));
                let source = if rng.below(2) == 0 {
                    Json::Number(number).to_string()
                } else {
                    format!("{number:e}")
                };
                Doc {
                    source,
                    value: Json::Number(number),
                }
            }
            2 | 3 => {
                let (source, value) = gen_string(rng);
                Doc {
                    source,
                    value: Json::String(value),
                }
            }
            4 => {
                let mut source = String::from("[");
                let mut items = Vec::new();
                for index in 0..rng.below(6) {
                    if index > 0 {
                        source.push(',');
                    }
                    let item = gen_doc(rng, depth - 1);
                    source.push_str(gen_whitespace(rng));
                    source.push_str(&item.source);
                    source.push_str(gen_whitespace(rng));
                    items.push(item.value);
                }
                source.push(']');
                Doc {
                    source,
                    value: Json::Array(items),
                }
            }
            _ => {
                let mut source = String::from("{");
                let mut pairs = Vec::new();
                for index in 0..rng.below(6) {
                    if index > 0 {
                        source.push(',');
                    }
                    let (key_source, key) = gen_string(rng);
                    let item = gen_doc(rng, depth - 1);
                    source.push_str(gen_whitespace(rng));
                    source.push_str(&key_source);
                    source.push_str(gen_whitespace(rng));
                    source.push(':');
                    source.push_str(gen_whitespace(rng));
                    source.push_str(&item.source);
                    source.push_str(gen_whitespace(rng));
                    pairs.push((key, item.value));
                }
                source.push('}');
                Doc {
                    source,
                    value: Json::Object(pairs),
                }
            }
        }
    }

    /// Documents up to four containers deep.
    struct ArbDoc;

    impl Strategy for ArbDoc {
        type Value = Doc;

        fn new_value(&self, rng: &mut TestRng) -> Doc {
            let mut doc = gen_doc(rng, 4);
            doc.source = format!("{}{}", gen_whitespace(rng), doc.source);
            doc
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn parse_work_is_linear_and_documents_round_trip(doc in ArbDoc) {
            let (parsed, work) = parse_with_work(&doc.source);
            let parsed = parsed.map_err(|error| TestCaseError::fail(error.to_string()))?;
            prop_assert_eq!(&parsed, &doc.value);
            prop_assert!(
                work <= work_bound(doc.source.len()),
                "work {} for {} bytes",
                work,
                doc.source.len()
            );
            let written = parsed.to_string();
            let (reparsed, rework) = parse_with_work(&written);
            prop_assert_eq!(reparsed.as_ref(), Ok(&parsed));
            prop_assert!(rework <= work_bound(written.len()));
        }
    }
}
