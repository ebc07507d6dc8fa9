//! A minimal JSON reader.
//!
//! The workspace's offline `serde` stand-in only *writes* JSON
//! (`Deserialize` is a marker trait with no parser behind it), but some
//! consumers must read JSON back: the `sqm-serve` HTTP protocol (request
//! bodies), the `benchmark/` harness (`BENCHMARK.json` and its own result
//! lines) and the tests that parse our exports back (Chrome traces,
//! ledger JSONL, span dumps). This module is that reader — a small
//! recursive-descent parser over the JSON our own serializer emits plus
//! ordinary hand-written documents. It accepts standard JSON (RFC 8259)
//! with two deliberate simplifications: numbers are always parsed as
//! `f64` (counters fit in the 2^53 exact-integer range), and `\uXXXX`
//! escapes outside the BMP are not combined into surrogate pairs (the
//! strings read here are tenant, workload and field names).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric member as `u64` (exact-integer floats only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                // A baseline or artifact with two entries for the same key
                // has been hand-edited badly or corrupted; silently keeping
                // the later one would let the gate diff against the wrong
                // number.
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate object key {key:?}"),
                });
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one complete UTF-8 scalar (input is &str, so
                    // slicing at char boundaries is safe).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        // Strict RFC 8259 grammar: `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`.
        // Rust's `f64::from_str` is laxer (it accepts "1.", ".5", "inf"),
        // so the shape is validated here rather than delegated.
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Num(-1250.0));
        assert_eq!(
            parse(r#""a\nb\u0041""#).unwrap(),
            JsonValue::Str("a\nbA".into())
        );
        let doc = parse(r#"{"xs":[1,2,3],"nested":{"ok":false},"empty":[],"eo":{}}"#).unwrap();
        assert_eq!(doc.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("nested").unwrap().get("ok"),
            Some(&JsonValue::Bool(false))
        );
        assert_eq!(doc.get("empty").unwrap().as_arr().unwrap().len(), 0);
        assert!(doc.get("eo").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn accessors_enforce_types() {
        let doc = parse(r#"{"n":3,"neg":-1,"frac":0.5,"s":"x"}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("neg").unwrap().as_u64(), None);
        assert_eq!(doc.get("frac").unwrap().as_u64(), None);
        assert_eq!(doc.get("frac").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("s").unwrap().as_f64(), None);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"\\x\"",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("[1, oops]").unwrap_err();
        assert!(err.offset > 0 && err.to_string().contains("byte"));
    }

    #[test]
    fn rejects_duplicate_object_keys() {
        let err = parse(r#"{"median_ns":1,"median_ns":2}"#).unwrap_err();
        assert!(
            err.message.contains("duplicate object key \"median_ns\""),
            "wrong message: {err}"
        );
        // The offset points at the second occurrence, not the document end.
        assert_eq!(err.offset, 15);
        // Nested objects are checked too.
        assert!(parse(r#"{"a":{"x":1,"x":1}}"#).is_err());
        // Same key at different nesting levels stays legal.
        assert!(parse(r#"{"a":{"a":1},"b":{"a":2}}"#).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_after_document() {
        for bad in [
            "{} {}",
            "[1,2]]",
            "null null",
            "42 //comment",
            "{\"a\":1}x",
            "\"s\"\"t\"",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.message.contains("trailing"),
                "{bad:?} gave wrong error: {err}"
            );
        }
    }

    #[test]
    fn rejects_nonstandard_numbers() {
        // `f64::from_str` would happily accept several of these; the JSON
        // grammar does not, and neither must the gate's reader.
        for bad in [
            "1.", "01", "-01", ".5", "-.5", "1e", "1e+", "+1", "0x10", "1.2.3", "inf", "-", "--1",
            "1_000",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Valid edge cases stay accepted.
        assert_eq!(parse("0").unwrap(), JsonValue::Num(0.0));
        assert_eq!(parse("-0").unwrap(), JsonValue::Num(0.0));
        assert_eq!(parse("0.5").unwrap(), JsonValue::Num(0.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(parse("-1.5E-2").unwrap(), JsonValue::Num(-0.015));
    }

    #[test]
    fn roundtrips_compat_serde_output() {
        // The gate reads what our own serializer writes: exercise exactly
        // that path, including escaped strings and null (non-finite float).
        use serde::Serialize;
        let mut out = String::new();
        serde::json::write_str(&mut out, "a \"quoted\"\npath");
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some("a \"quoted\"\npath"));
        assert_eq!(parse(&f64::NAN.to_json()).unwrap(), JsonValue::Null);
        assert_eq!(parse(&42u64.to_json()).unwrap().as_u64(), Some(42));
    }
}
