//! Offline stand-in for the slice of `serde_json` the workspace uses:
//! a [`Value`] tree, a strict recursive-descent [`from_str`] parser,
//! and compact / pretty serializers.
//!
//! This is not a serde integration — there is no derive support and no
//! `Serialize`/`Deserialize` bridging. Code that emits machine-read
//! artifacts (golden traces, metrics, the benchmark's report) builds a
//! [`Value`] by hand, writes it with [`to_string_pretty`], and
//! re-validates the bytes with [`from_str`]. The parser accepts exactly
//! RFC 8259 JSON minus two conveniences: numbers are stored as `f64`
//! (integers are exact up to 2^53, far beyond any counter we emit) and
//! strings only unescape the short escapes plus `\uXXXX` basic-plane
//! sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or hand-built JSON document.
///
/// Objects use a [`BTreeMap`], so serialization order is key order —
/// deterministic across runs, which keeps committed artifacts diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integral values round-trip
    /// exactly up to 2^53).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object with deterministic (sorted) key order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// `Number` holding one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an `Object`.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` for other variants or missing
    /// keys), mirroring upstream's `value.get("key")`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Self {
        Value::Array(a)
    }
}
impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Self {
        Value::Object(m)
    }
}

/// Why a document failed to parse: a message plus the byte offset the
/// parser had reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse one complete JSON document; trailing non-whitespace is an
/// error, like upstream's `from_str`.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Serialize compactly (no whitespace), like upstream's `to_string`.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serialize with two-space indentation, like upstream's
/// `to_string_pretty`.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(a) => write_seq(out, indent, depth, '[', ']', a.len(), |out, i, d| {
            write_value(out, &a[i], indent, d);
        }),
        Value::Object(m) => {
            let entries: Vec<(&String, &Value)> = m.iter().collect();
            write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                write_string(out, entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, entries[i].1, indent, d);
            });
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; upstream's Number can't hold them either.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1; // '{'
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&c) = self.bytes.get(self.pos) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn round_trips_a_bench_shaped_document() {
        let text = r#"{
            "schema": "bench-parallel-v1",
            "host_cpus": 1,
            "results": [
                {"kernel": "spmv", "threads": 1, "secs": 0.125, "speedup": 1.0},
                {"kernel": "spmv", "threads": 4, "secs": 3.2e-2, "ok": true, "note": null}
            ]
        }"#;
        let v = from_str(text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bench-parallel-v1"));
        assert_eq!(v.get("host_cpus").unwrap().as_u64(), Some(1));
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(results[1].get("secs").unwrap().as_f64(), Some(0.032));
        assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(true));
        assert!(results[1].get("note").unwrap().is_null());

        // Serializer output re-parses to the same tree, both styles.
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::String("line\nbreak \"quoted\" \\ tab\there".into());
        let text = to_string(&v);
        assert_eq!(from_str(&text).unwrap(), v);
        assert_eq!(from_str(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(to_string(&Value::Number(8.0)), "8");
        assert_eq!(to_string(&Value::Number(-3.0)), "-3");
        assert_eq!(to_string(&Value::Number(0.5)), "0.5");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "01x",
            "\"open",
            "[1] trailing",
            "{'a': 1}",
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
        let too_deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        assert!(from_str(&too_deep).is_err());
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let mut m = BTreeMap::new();
        m.insert("zeta".to_owned(), Value::from(1u64));
        m.insert("alpha".to_owned(), Value::from(2u64));
        assert_eq!(to_string(&Value::Object(m)), r#"{"alpha":2,"zeta":1}"#);
    }
}
