//! The workspace's one JSON reader and writer.
//!
//! The obs crate is dependency-free by design (it sits underneath every
//! other crate, including the engines), and every report the workspace
//! emits — lint, plan, serve STATS, wire stats, traces, figure rows — is
//! built as a [`Value`] and written by its compact `Display`. The reader
//! is a small, strict-enough recursive parser for those same documents:
//! objects, arrays, strings with the standard escapes, numbers (kept as
//! f64 and, when integral, u64), booleans and null.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; `Num(f64, Option<u64>)` keeps the exact integer when
    /// the literal was a non-negative integer in range.
    Num(f64, Option<u64>),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are kept, and written, in sorted order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as u64, when integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(f, exact) => exact.or_else(|| {
                (*f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64).then_some(*f as u64)
            }),
            _ => None,
        }
    }

    /// The value as f64, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(f, _) => Some(*f),
            _ => None,
        }
    }

    /// The boolean, when this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// An object from `(key, value)` pairs: `obj([("k", 4u64.into())])`.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64, Some(n))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Num(f, None)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Compact JSON: no whitespace, object keys in sorted order, exact
/// integers as integers, non-finite floats as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self);
        f.write_str(&out)
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(_, Some(n)) => {
            let _ = write!(out, "{n}");
        }
        Value::Num(f, None) if f.is_finite() => {
            let _ = write!(out, "{f}");
        }
        Value::Num(_, None) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters), without the surrounding quotes.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(&c) = b.get(*pos) {
        if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth + 1)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogates render as the replacement char — the
                        // traces this reads never emit astral escapes.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from a &str,
                // so boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                if let Ok(s) = std::str::from_utf8(&b[start..*pos]) {
                    out.push_str(s);
                }
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let f: f64 = text
        .parse()
        .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
    let exact = text.parse::<u64>().ok();
    Ok(Value::Num(f, exact))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse(
            "{\"a\": 1, \"b\": [true, null, -2.5e1], \"s\": \"x\\n\\\"y\\\"\", \"big\": 18446744073709551615}",
        )
        .unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let arr = v.get("b").and_then(|b| b.as_array()).unwrap();
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_f64(), Some(-25.0));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("big").and_then(Value::as_u64), Some(u64::MAX));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12..5").is_err());
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        let v = parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café é"));
    }

    #[test]
    fn written_documents_parse_back_to_the_same_value() {
        let v = obj([
            ("quote", "say \"hi\"".into()),
            ("backslash", "a\\b".into()),
            ("newline", "line\nnext\r\ttab".into()),
            ("control", "\u{1}\u{1f}".into()),
            ("text", "café → λ 🦀".into()),
            ("max", u64::MAX.into()),
            ("zero", 0usize.into()),
            ("frac", 0.125f64.into()),
            ("neg", (-2.5f64).into()),
            ("flag", true.into()),
            ("none", None::<u64>.into()),
            ("some", Some("x").into()),
            ("empty_arr", Value::Arr(Vec::new())),
            ("empty_obj", Value::Obj(BTreeMap::new())),
            (
                "nested",
                vec![
                    Value::Arr(vec![Value::Arr(Vec::new())]),
                    obj([("inner", Value::Obj(BTreeMap::new()))]),
                ]
                .into(),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v, "{text}");
        assert_eq!(v.get("flag").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn writer_is_compact_with_sorted_keys() {
        let v = obj([
            ("severity", "deny".into()),
            ("code", "OWL001".into()),
            ("list", vec![1u64, 2].into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"code":"OWL001","list":[1,2],"severity":"deny"}"#
        );
        assert_eq!(Value::from(1.5f64).to_string(), "1.5");
        assert_eq!(Value::from(2.0f64).to_string(), "2");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::from(f).to_string(), "null");
        }
        let v = obj([("ratio", f64::NAN.into())]);
        assert_eq!(v.to_string(), r#"{"ratio":null}"#);
    }

    #[test]
    fn json_escaping() {
        let escaped = |s: &str| {
            let mut out = String::new();
            escape_into(&mut out, s);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\u{1}"), "\\u0001");
    }
}
