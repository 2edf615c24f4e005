//! Offline, vendored stand-in for [`serde_json`]: JSON text rendering
//! and parsing for the workspace `serde` crate.
//!
//! Provides the call surface this workspace uses — [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`Error`] and [`Value`] — with
//! serde_json-compatible conventions (shortest round-trip float
//! formatting, `\uXXXX` escapes, nested-object pretty printing).
//! [`to_string`] writes through [`Serialize::write_json`] and builds no
//! tree; [`to_string_pretty`] and [`from_str`] go through a [`Value`].
//! The `serde` crate owns the format (one escaper, one float
//! formatter), so compact and pretty text agree on every scalar.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON, written straight from the value
/// ([`Serialize::write_json`]) with no [`Value`] tree in between.
///
/// # Errors
///
/// Never fails for tree-shaped data; the `Result` mirrors serde_json's
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serializes a value to human-readable JSON (two-space indent).
///
/// # Errors
///
/// Never fails for tree-shaped data; the `Result` mirrors serde_json's
/// signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Returns a parse error for malformed JSON, or a shape error when the
/// JSON does not match `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(Error::from)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Rebuilds a typed value from a [`Value`] tree.
///
/// # Errors
///
/// Returns a shape error when the tree does not match `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

// -------------------------------------------------------------- rendering

/// Renders `v` with a two-space indent: arrays and objects with at least
/// one element open a line per element, and everything else (scalars,
/// `[]`, `{}`) prints as in compact JSON.
fn write_pretty(out: &mut String, v: &Value, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Obj(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                key.write_json(out);
                out.push_str(": ");
                write_pretty(out, val, depth + 1);
            }
            newline(out, depth);
            out.push('}');
        }
        compact => compact.write_json(out),
    }
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast-forward over plain UTF-8
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // a high surrogate must open a pair
                                let unpaired = || Error::new("unpaired surrogate");
                                self.expect(b'\\').map_err(|_| unpaired())?;
                                self.expect(b'u').map_err(|_| unpaired())?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(unpaired());
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| Error::new("bad \\u escape"))?);
                        }
                        other => {
                            return Err(Error::new(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    /// Exactly four hex digits (`from_str_radix` alone would also take
    /// a sign).
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut v = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| Error::new("bad \\u escape"))?;
            v = (v << 4) | d;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for json in ["null", "true", "false", "42", "-7", "1.5", "\"hi\""] {
            let v = parse_value(json).unwrap();
            assert_eq!(to_string(&v).unwrap(), json);
        }
    }

    #[test]
    fn float_debug_formatting_keeps_floatness() {
        let v = Value::F64(3.0);
        let s = to_string(&v).unwrap();
        assert_eq!(s, "3.0");
        assert_eq!(parse_value(&s).unwrap(), v);
    }

    #[test]
    fn nested_roundtrip_compact_and_pretty() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Arr(vec![Value::I64(1), Value::Null])),
            ("b c".into(), Value::Str("x\"y\\z\n".into())),
            ("d".into(), Value::Obj(vec![])),
        ]);
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(parse_value(&s).unwrap(), v);
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_value("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Value::Str("é😀".into()));
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        for json in [
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
        ] {
            assert!(parse_value(json).is_err(), "{json} parsed");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for json in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#] {
            assert!(parse_value(json).is_err(), "{json} parsed");
        }
        let v = parse_value(r#""\u0041\u00E9\uFFFF""#).unwrap();
        assert_eq!(v, Value::Str("Aé\u{ffff}".into()));
    }

    #[test]
    fn typed_roundtrip() {
        let xs = vec![1u64, 2, u64::MAX];
        let s = to_string(&xs).unwrap();
        let back: Vec<u64> = from_str(&s).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("nul").is_err());
        assert!(from_str::<bool>("7").is_err());
    }
}
