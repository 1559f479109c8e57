//! A minimal JSON value model for the daemon's wire protocol.
//!
//! The offline build has no `serde`, and the protocol needs only a small,
//! predictable subset of JSON: parse one request object per line, write one
//! response object per line. This module provides exactly that — a
//! [`Json`] tree, a fallible recursive-descent parser, and a writer whose
//! float formatting is **round-trip exact**, so a served `f32` probability
//! parses back to the identical bits. Numbers are written by the in-tree
//! writers of the private `num` submodule: integers, and `f32` through Ryū
//! in exactly the text of Rust's shortest-representation `Display` (its
//! tests compare the two on every bit pattern in [0, 1], and an opt-in
//! sweep covers all 2³²). The daemon's direct payload writers in
//! [`proto`](super::proto) use the same number writers, so a tree and a
//! direct write of one result give the same bytes.
//!
//! Nothing in here panics on untrusted input: parse errors are positioned
//! [`JsonError`] values and nesting is depth-limited, so a hostile request
//! line can neither crash a worker nor overflow its stack.
//!
//! ```
//! use pandora_hdbscan::daemon::json::Json;
//!
//! let v = Json::parse(r#"{"method": "cluster", "params": {"min_pts": 4}}"#)?;
//! assert_eq!(v.get("method").and_then(Json::as_str), Some("cluster"));
//! let min_pts = v.get("params").and_then(|p| p.get("min_pts"));
//! assert_eq!(min_pts.and_then(Json::as_usize), Some(4));
//!
//! // Writing is canonical: stable field order, shortest float spelling.
//! assert_eq!(Json::F32(0.25).to_string(), "0.25");
//! assert!(Json::parse("[1, 2,").is_err()); // errors, never panics
//! # Ok::<(), pandora_hdbscan::daemon::json::JsonError>(())
//! ```

mod num;

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts. Deeper input is rejected with
/// an error instead of recursing toward a stack overflow.
const MAX_DEPTH: usize = 64;

/// One JSON value.
///
/// Numbers keep three shapes so serving stays lossless in both directions:
/// integers parse to [`Json::Int`] (exact for ids and counts), general
/// numbers to [`Json::Float`], and the pipeline's `f32` outputs are written
/// through [`Json::F32`] so their `Display` is the shortest string that
/// round-trips to the identical `f32` — the bit-identity contract of the
/// wire tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent) fitting `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A number carried as `f32` (used when writing pipeline outputs).
    F32(f32),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs (insertion order preserved;
    /// duplicate keys are kept as parsed, first match wins on lookup).
    Obj(Vec<(String, Json)>),
}

/// A positioned parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
    /// What the parser expected or rejected.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A non-negative integer literal as `usize` (floats are rejected:
    /// protocol counts are integers by contract).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            Json::F32(f) => Some(f64::from(*f)),
            _ => None,
        }
    }

    /// Any numeric payload narrowed to `f32`.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::F32(f) => Some(*f),
            _ => self.as_f64().map(|f| f as f32),
        }
    }

    /// The element slice, if this is an array.
    pub fn as_slice(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from key–value pairs (ergonomic response builder).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends the canonical serialization (see [`Display`](fmt::Display))
    /// to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => num::write_i64(out, *i),
            Json::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            // NaN/inf cannot appear in JSON; the pipeline never emits them,
            // but degrade to null rather than emit garbage.
            Json::Float(_) => out.push_str("null"),
            Json::F32(f) => {
                let mut buf = [0u8; num::F32_MAX_LEN];
                let end = put_f32(&mut buf, 0, *f);
                num::push_ascii(out, &buf[..end]);
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Canonical single-line serialization (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes an `f32` as [`Json::F32`] does: its `Display` text, or `null`
/// when it is not finite.
fn put_f32(buf: &mut [u8], at: usize, value: f32) -> usize {
    if value.is_finite() {
        num::put_f32(buf, at, value)
    } else {
        buf[at..at + 4].copy_from_slice(b"null");
        at + 4
    }
}

/// Appends the bytes of a [`Json::Arr`] of [`Json::Int`]s holding `values`.
pub(crate) fn write_int_array(out: &mut String, values: impl IntoIterator<Item = i64>) {
    num::write_array(out, values, num::I64_MAX_LEN, num::put_i64);
}

/// Appends the bytes of a [`Json::Arr`] of [`Json::F32`]s holding `values`.
pub(crate) fn write_f32_array(out: &mut String, values: &[f32]) {
    num::write_array(out, values.iter().copied(), num::F32_MAX_LEN, put_f32);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so byte runs between structural
                // characters are valid UTF-8 by construction.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        pos: start,
                        msg: "invalid UTF-8 in string",
                    })?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect_byte(b'u', "expected low surrogate escape")?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = (code << 4) | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            pos: start,
            msg: "invalid number",
        })?;
        let bad = JsonError {
            pos: start,
            msg: "invalid number",
        };
        if fractional {
            let f: f64 = text.parse().map_err(|_| bad.clone())?;
            if !f.is_finite() {
                return Err(bad);
            }
            Ok(Json::Float(f))
        } else if text == "-0" {
            // Int(0) would erase the sign; the float path keeps -0.0 so a
            // served negative zero round-trips bit-exactly.
            Ok(Json::Float(-0.0))
        } else {
            // Integer literal; overflow degrades to float like every other
            // JSON reader (ids and counts in this protocol fit i64).
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => {
                    let f: f64 = text.parse().map_err(|_| bad.clone())?;
                    if !f.is_finite() {
                        return Err(bad);
                    }
                    Ok(Json::Float(f))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(Json::parse("false"), Ok(Json::Bool(false)));
        assert_eq!(Json::parse("42"), Ok(Json::Int(42)));
        assert_eq!(Json::parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(Json::parse("2.5"), Ok(Json::Float(2.5)));
        assert_eq!(Json::parse("1e3"), Ok(Json::Float(1000.0)));
        assert_eq!(Json::parse("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn parses_structures_and_lookup() {
        let v = Json::parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).expect("valid");
        assert_eq!(
            v.get("a").and_then(Json::as_slice).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nquote\"slash\\tab\tunicode\u{1F600}\u{0007}";
        let written = Json::Str(original.into()).to_string();
        assert_eq!(Json::parse(&written), Ok(Json::Str(original.into())));
        // Explicit escape forms parse too.
        assert_eq!(
            Json::parse(r#""\u0041\ud83d\ude00\/""#),
            Ok(Json::Str("A\u{1F600}/".into()))
        );
    }

    #[test]
    fn f32_display_round_trips_bit_exact() {
        // The wire contract: a served f32, written then re-parsed and
        // narrowed, recovers the identical bits.
        for f in [0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, 1e30, -0.0, 123.456] {
            let written = Json::F32(f).to_string();
            let back = Json::parse(&written).expect("valid").as_f32().expect("num");
            assert_eq!(back.to_bits(), f.to_bits(), "{f} → {written}");
        }
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "01x",
            "--1",
            "1e",
            "nul",
            "{\"a\":}",
            "[,]",
            "\"\\q\"",
            "\"\\ud800\"",
            "\u{7}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        // Reasonable nesting is fine.
        let ok = "[".repeat(30) + "1" + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_are_strict_where_the_protocol_needs_them() {
        assert_eq!(Json::Int(5).as_usize(), Some(5));
        assert_eq!(Json::Int(-5).as_usize(), None);
        assert_eq!(Json::Float(5.0).as_usize(), None, "counts are integers");
        assert_eq!(Json::Int(2).as_f32(), Some(2.0));
        assert_eq!(Json::Str("2".into()).as_usize(), None);
    }

    #[test]
    fn canonical_output_is_stable() {
        let v = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[null,false]}"#);
    }
}
