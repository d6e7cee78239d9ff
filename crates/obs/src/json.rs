//! A minimal JSON value model (no external deps) used by the telemetry
//! and heatmap exporters, and — since the batch runner — by the CLI's
//! manifest reader.
//!
//! Values are built bottom-up with [`JsonValue`] and serialized with
//! [`JsonValue::to_string_pretty`]. Numbers serialize through
//! [`fmt_f64`], which keeps integers integral and never emits `NaN` or
//! `Infinity` (both invalid JSON — they become `null`).
//! [`JsonValue::parse`] is the matching recursive-descent reader; it
//! reports 1-based line/column positions in [`JsonParseError`].

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Number(f64),
    /// A string (escaped on serialization).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object; keys print in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from an ordered key/value list.
    pub fn object(entries: Vec<(String, JsonValue)>) -> JsonValue {
        JsonValue::Object(entries)
    }

    /// Parses a JSON document (exactly one top-level value, trailing
    /// whitespace allowed) under [`JsonLimits::default`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        JsonValue::parse_with_limits(text, &JsonLimits::default())
    }

    /// Parses with explicit resource limits. Untrusted input (e.g. HTTP
    /// request bodies) should come through here with limits sized to the
    /// endpoint: the recursive-descent reader otherwise converts attacker
    /// nesting depth into native stack depth.
    pub fn parse_with_limits(text: &str, limits: &JsonLimits) -> Result<JsonValue, JsonParseError> {
        if text.len() > limits.max_bytes {
            return Err(JsonParseError {
                line: 1,
                col: 1,
                reason: format!(
                    "document of {} bytes exceeds the {}-byte limit",
                    text.len(),
                    limits.max_bytes
                ),
                kind: JsonErrorKind::TooLarge,
            });
        }
        let mut p =
            Parser { bytes: text.as_bytes(), pos: 0, depth: 0, max_depth: limits.max_depth };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// An object from a sorted map.
    pub fn from_map(map: &BTreeMap<String, f64>) -> JsonValue {
        JsonValue::Object(map.iter().map(|(k, v)| (k.clone(), JsonValue::Number(*v))).collect())
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no insignificant whitespace —
    /// the shape NDJSON streams and log lines need.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => out.push_str(&fmt_f64(*v)),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => out.push_str(&fmt_f64(*v)),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Resource limits for [`JsonValue::parse_with_limits`].
///
/// The defaults are generous enough for every document this workspace
/// produces (manifests, telemetry, ledgers, heatmaps) while still
/// bounding what a hostile document can cost: nesting depth becomes
/// native stack depth in the recursive-descent reader, and byte size
/// bounds allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonLimits {
    /// Maximum container nesting depth (`[[...]]` counts one level per
    /// bracket). Exceeding it yields [`JsonErrorKind::TooDeep`].
    pub max_depth: usize,
    /// Maximum document size in bytes, checked before parsing starts.
    /// Exceeding it yields [`JsonErrorKind::TooLarge`].
    pub max_bytes: usize,
}

impl Default for JsonLimits {
    fn default() -> Self {
        JsonLimits { max_depth: 128, max_bytes: 64 << 20 }
    }
}

/// Coarse classification of a [`JsonParseError`], so callers can map
/// resource-limit violations to different handling (e.g. HTTP 413)
/// than plain syntax errors (HTTP 400).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed JSON text.
    Syntax,
    /// Container nesting exceeded [`JsonLimits::max_depth`].
    TooDeep,
    /// Document exceeded [`JsonLimits::max_bytes`].
    TooLarge,
}

/// A JSON parse error with its 1-based position in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What went wrong.
    pub reason: String,
    /// Syntax error or resource-limit violation.
    pub kind: JsonErrorKind,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at line {}, column {}: {}", self.line, self.col, self.reason)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, reason: &str) -> JsonParseError {
        self.error_kind(reason, JsonErrorKind::Syntax)
    }

    fn error_kind(&self, reason: &str, kind: JsonErrorKind) -> JsonParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonParseError { line, col, reason: reason.to_string(), kind }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object_body),
            Some(b'[') => self.nested(Parser::array_body),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(self.error_kind(
                &format!("nesting exceeds the depth limit of {}", self.max_depth),
                JsonErrorKind::TooDeep,
            ));
        }
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn object_body(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|_| self.error("expected a string object key"))?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array_body(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs are out of scope for manifests;
                            // lone surrogates map to the replacement character
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged since the input is valid &str)
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let scalar = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(scalar);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid UTF-8 in number"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Number(v)),
            _ => Err(self.error(&format!("invalid number '{text}'"))),
        }
    }
}

/// Formats a number as valid JSON: integers without a fraction,
/// non-finite values as `null`, everything else via shortest-roundtrip
/// float printing.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-17.0), "-17");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_control_characters() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.to_string_pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = JsonValue::object(vec![
            ("name".into(), JsonValue::Str("route \"x\"\n".into())),
            ("count".into(), JsonValue::Number(4.0)),
            ("ratio".into(), JsonValue::Number(-2.75)),
            ("on".into(), JsonValue::Bool(true)),
            ("off".into(), JsonValue::Bool(false)),
            ("none".into(), JsonValue::Null),
            ("ks".into(), JsonValue::Array(vec![JsonValue::Number(0.0), JsonValue::Number(1e-4)])),
            ("empty_obj".into(), JsonValue::Object(vec![])),
            ("empty_arr".into(), JsonValue::Array(vec![])),
        ]);
        let parsed = JsonValue::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(parsed, v);
        // the compact writer round-trips to the same value, on one line
        let compact = v.to_string_compact();
        assert!(!compact.contains('\n'));
        assert_eq!(JsonValue::parse(&compact).unwrap(), v);
    }

    #[test]
    fn parse_accessors_walk_a_manifest() {
        let doc = JsonValue::parse(
            r#"{"jobs": [{"design": "a.pla", "ks": [0, 0.5], "optimize": true}]}"#,
        )
        .unwrap();
        let jobs = doc.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("design").unwrap().as_str(), Some("a.pla"));
        assert_eq!(jobs[0].get("optimize").unwrap().as_bool(), Some(true));
        let ks: Vec<f64> = jobs[0]
            .get("ks")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|v| v.as_f64())
            .collect();
        assert_eq!(ks, vec![0.0, 0.5]);
        assert!(doc.get("missing").is_none());
        assert!(jobs[0].get("design").unwrap().as_f64().is_none());
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = JsonValue::parse("{\n  \"a\": 1,\n  \"b\" 2\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("':'"), "{err}");

        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err());
        assert!(JsonValue::parse("{\"k\": 1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("[1e999]").is_err(), "non-finite numbers are rejected");
        let err = JsonValue::parse("nope").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = JsonValue::parse(r#""a\"b\\c\ndA é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA é"));
        let u = JsonValue::parse("\"\\u0041\\u00e9\\t\"").unwrap();
        assert_eq!(u.as_str(), Some("Aé\t"));
    }

    #[test]
    fn malformed_escapes_are_syntax_errors() {
        for text in ["\"\\q\"", "\"\\u12\"", "\"\\u12zz\"", "\"\\", "\"\\u\""] {
            let err = JsonValue::parse(text).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::Syntax, "{text} -> {err}");
        }
        // a lone surrogate half is tolerated (maps to the replacement char)
        let v = JsonValue::parse("\"\\ud800\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}"));
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        // 100k nested arrays would overflow the native stack without the
        // guard; the typed error fires at the configured depth instead.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
        assert!(err.reason.contains("128"), "{err}");

        // mixed object/array nesting counts both container kinds
        let mixed = "{\"a\":".repeat(300) + "1" + &"}".repeat(300);
        let err = JsonValue::parse(&mixed).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);

        // nesting at the limit parses fine
        let limits = JsonLimits { max_depth: 8, max_bytes: usize::MAX };
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(JsonValue::parse_with_limits(&ok, &limits).is_ok());
        let over = "[".repeat(9) + &"]".repeat(9);
        let err = JsonValue::parse_with_limits(&over, &limits).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert!(err.reason.contains('8'), "{err}");
    }

    #[test]
    fn size_limit_rejects_oversized_documents() {
        let limits = JsonLimits { max_depth: 128, max_bytes: 16 };
        let err = JsonValue::parse_with_limits("[1, 2, 3, 4, 5, 6]", &limits).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooLarge, "{err}");
        assert!(err.reason.contains("16-byte"), "{err}");
        assert!(JsonValue::parse_with_limits("[1, 2, 3]", &limits).is_ok());
    }

    #[test]
    fn syntax_errors_are_typed_syntax() {
        for text in ["", "[1, 2,]", "nope", "{\"a\" 1}", "[1e999]"] {
            assert_eq!(JsonValue::parse(text).unwrap_err().kind, JsonErrorKind::Syntax, "{text}");
        }
    }

    #[test]
    fn nested_structure_round_trips_by_eye() {
        let v = JsonValue::object(vec![
            ("name".into(), JsonValue::Str("route".into())),
            ("iters".into(), JsonValue::Number(4.0)),
            (
                "trajectory".into(),
                JsonValue::Array(vec![
                    JsonValue::Number(10.0),
                    JsonValue::Number(2.0),
                    JsonValue::Number(0.0),
                ]),
            ),
            ("empty".into(), JsonValue::Object(vec![])),
        ]);
        let s = v.to_string_pretty();
        assert!(s.starts_with("{\n"));
        assert!(s.contains("\"name\": \"route\""));
        assert!(s.contains("\"trajectory\": [\n"));
        assert!(s.contains("\"empty\": {}"));
        assert!(s.ends_with("}\n"));
    }
}
