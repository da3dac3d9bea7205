//! A minimal JSON value model, writer, and parser (std-only; the build
//! environment has no registry access, so no serde).
//!
//! Numbers are kept as their **raw source tokens** (`Value::Num(String)`),
//! which makes `u64` counters round-trip losslessly — `u64::MAX` would not
//! survive an `f64` detour. Floats are written with Rust's shortest
//! round-trip formatting (`{:?}`), so gauges survive a parse/write cycle
//! bit-for-bit. Objects preserve insertion order as a `Vec` of pairs; all
//! producers in this workspace emit deterministically ordered keys.

use std::fmt::Write as _;

use crate::registry::{Metric, Snapshot};

/// A parsed or under-construction JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (lossless for `u64`).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A number value from a `u64` (lossless).
    #[must_use]
    pub fn u64(v: u64) -> Value {
        Value::Num(v.to_string())
    }

    /// A number value from an `f64` using shortest round-trip formatting.
    /// Non-finite inputs become `0.0` (JSON has no NaN/Inf).
    #[must_use]
    pub fn f64(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v:?}"))
        } else {
            Value::Num("0.0".to_string())
        }
    }

    /// A string value.
    #[must_use]
    pub fn str(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    /// Borrow this value as a string if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a key if this value is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serialize with two-space indentation (for committed report files).
    #[must_use]
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(tok) => out.push_str(tok),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_into(out),
        }
    }

    /// Parse a JSON document. Returns a readable error with a byte offset
    /// on malformed input.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Error from [`Value::parse`]: a message plus the byte offset it occurred
/// at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        Ok(Value::Num(token.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: decode the low half if the
                            // high half announces one.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot <-> JSON
// ---------------------------------------------------------------------------

impl Snapshot {
    /// Build the canonical JSON [`Value`] for this snapshot.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|entry| {
                let mut obj = vec![
                    ("name".to_string(), Value::str(&entry.key.name)),
                    (
                        "labels".to_string(),
                        Value::Obj(
                            entry
                                .key
                                .labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::str(v)))
                                .collect(),
                        ),
                    ),
                ];
                match &entry.value {
                    Metric::Counter(c) => {
                        obj.push(("type".to_string(), Value::str("counter")));
                        obj.push(("value".to_string(), Value::u64(*c)));
                    }
                    Metric::Gauge(g) => {
                        obj.push(("type".to_string(), Value::str("gauge")));
                        obj.push(("value".to_string(), Value::f64(*g)));
                    }
                    Metric::Histogram(h) => {
                        obj.push(("type".to_string(), Value::str("histogram")));
                        obj.push(("count".to_string(), Value::u64(h.count())));
                        obj.push(("sum".to_string(), Value::u64(h.sum())));
                        obj.push(("min".to_string(), Value::u64(h.min())));
                        obj.push(("max".to_string(), Value::u64(h.max())));
                        // Sparse bucket encoding: [index, count] pairs.
                        obj.push((
                            "buckets".to_string(),
                            Value::Arr(
                                h.buckets()
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, &c)| c != 0)
                                    .map(|(i, &c)| {
                                        Value::Arr(vec![Value::u64(i as u64), Value::u64(c)])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                }
                Value::Obj(obj)
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::str("tempograph-metrics/v1")),
            ("metrics".to_string(), Value::Arr(metrics)),
        ])
    }

    /// Serialize to compact canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn value_round_trip() {
        let text = r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null,"e":{}}"#;
        let v = Value::parse(text).unwrap();
        assert!(matches!(v.get("a"), Some(Value::Arr(items)) if items.len() == 3));
        assert_eq!(Value::parse(&v.write()).unwrap(), v);
    }

    #[test]
    fn u64_max_survives() {
        let v = Value::u64(u64::MAX);
        let parsed = Value::parse(&v.write()).unwrap();
        assert_eq!(parsed, Value::Num(u64::MAX.to_string()));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Value::parse(r#""aA😀b""#).unwrap();
        assert_eq!(v, Value::Str("aA\u{1F600}b".to_string()));
    }

    #[test]
    fn malformed_input_reports_offset() {
        let err = Value::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut r = Registry::new();
        r.counter_add("c", &[("p", "0")], u64::MAX);
        r.gauge_set("g", &[], 0.1 + 0.2);
        r.observe("h", &[], 0);
        r.observe("h", &[], 12345);
        let snap = r.snapshot();
        let back = Value::parse(&snap.to_json()).unwrap();
        assert_eq!(back, snap.to_value());
    }

    #[test]
    fn pretty_output_parses_back() {
        let mut r = Registry::new();
        r.counter_add("c", &[], 1);
        let v = r.snapshot().to_value();
        assert_eq!(Value::parse(&v.write_pretty()).unwrap(), v);
    }
}
