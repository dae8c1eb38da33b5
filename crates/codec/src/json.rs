//! JSON text serialization for [`Value`]: the database's on-disk
//! persistence format (one document per line), the payload of journal
//! records, and the body of worker protocol messages.
//!
//! This is a complete, dependency-free JSON reader/writer for the
//! document model. Numbers that are integral and fit in `i64` parse to
//! [`Value::Int`]; everything else numeric becomes [`Value::Float`].

use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Why a text is not a JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Cause.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Serializes a value to compact JSON.
pub fn to_json(value: &Value) -> String {
    let mut out = String::with_capacity(size_hint(value));
    write_value(&mut out, value);
    out
}

/// Roughly how many bytes `value` renders to (exact for a string with
/// nothing to escape): a render reserves once instead of doubling up.
fn size_hint(value: &Value) -> usize {
    match value {
        Value::Str(s) => s.len() + 2,
        Value::Array(items) => 2 + items.iter().map(|v| size_hint(v) + 1).sum::<usize>(),
        Value::Map(map) => {
            2 + map
                .iter()
                .map(|(k, v)| k.len() + 4 + size_hint(v))
                .sum::<usize>()
        }
        _ => 8,
    }
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Always keep a decimal point / exponent so floats
                // round-trip as floats.
                let text = format!("{f}");
                out.push_str(&text);
                if !text.contains('.') && !text.contains('e') && !text.contains('E') {
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; encode as null like most writers.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(map) => write_object(out, map.iter().map(|(k, v)| (k.as_str(), v))),
    }
}

/// Serializes `fields` as one compact JSON object, in the order given.
///
/// A [`Value::Map`] renders its keys sorted; this is for formats whose
/// field order is part of their bytes (protocol messages lead with
/// `"type"`).
pub fn object_to_json<'a>(
    fields: impl IntoIterator<Item = (&'a str, &'a Value), IntoIter: Clone>,
) -> String {
    let fields = fields.into_iter();
    let hint: usize = fields
        .clone()
        .map(|(k, v)| k.len() + 4 + size_hint(v))
        .sum();
    let mut out = String::with_capacity(2 + hint);
    write_object(&mut out, fields);
    out
}

fn write_object<'a>(out: &mut String, fields: impl IntoIterator<Item = (&'a str, &'a Value)>) {
    out.push('{');
    for (i, (key, item)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, key);
        out.push(':');
        write_value(out, item);
    }
    out.push('}');
}

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escapes `s` as the *contents* of a JSON string literal (no
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    // Copy runs of bytes that need no escape whole. Every escaped byte
    // is ASCII, so `run..i` always lies on character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// How deeply arrays and maps may nest in a parsed document. The
/// deepest text the program writes nests 6 levels (the journal record
/// of the analysis state); the parser recurses once per level, and a
/// 50 000-deep line overflows the main thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the byte offset and cause for
/// malformed input, including trailing garbage after the top-level value
/// and arrays or maps nested deeper than [`MAX_DEPTH`].
pub fn from_json(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and maps open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_map),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses an array or map one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("sliced on ASCII boundaries");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        // Handle surrogate pairs for completeness.
                        let c = if (0xd800..0xdc00).contains(&code) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(byte) if byte < 0x20 => return Err(self.error("control character in string")),
                Some(byte) => {
                    // Re-assemble multi-byte UTF-8 from the input slice.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let width = match byte {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            0xf0..=0xf7 => 4,
                            _ => return Err(self.error("invalid UTF-8")),
                        };
                        let start = self.pos - 1;
                        let end = start + width;
                        if end > self.bytes.len() {
                            return Err(self.error("truncated UTF-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.error("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected `,` or `]`"));
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Map(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected `,` or `}`"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let text = to_json(v);
        let back = from_json(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        assert_eq!(&back, v, "via {text}");
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::Int(0));
        round_trip(&Value::Int(i64::MAX));
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::Float(1.5));
        round_trip(&Value::Float(-0.0001));
        round_trip(&Value::Float(3e30));
        round_trip(&Value::Str(String::new()));
        round_trip(&Value::Str("héllo \"wörld\"\n\t\\".to_owned()));
        round_trip(&Value::Str("emoji: \u{1F600} done".to_owned()));
    }

    #[test]
    fn float_round_trips_as_float() {
        let v = from_json("1.0").unwrap();
        assert_eq!(v, Value::Float(1.0));
        assert_eq!(to_json(&v), "1.0");
        assert_eq!(from_json("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(from_json("7").unwrap(), Value::Int(7));
    }

    #[test]
    fn nested_round_trip() {
        round_trip(&Value::map([
            ("empty_map", Value::map([] as [(&str, Value); 0])),
            ("empty_arr", Value::array([])),
            (
                "nested",
                Value::map([(
                    "list",
                    Value::array([Value::Int(1), Value::Str("two".into()), Value::Null]),
                )]),
            ),
        ]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "nul",
            "01x",
            "[1] garbage",
            "{'a':1}",
        ] {
            assert!(from_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_parse() {
        let v = from_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Value::Str("\u{1F600}".to_owned()));
        assert!(from_json("\"\\ud83d\"").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = from_json("  { \"a\" : [ 1 , 2 ] }\n").unwrap();
        assert_eq!(v.at("a.1").and_then(Value::as_int), Some(2));
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    /// One `char` at a time — the model `escape_into` has to equal
    /// however it batches its copies.
    fn escape_reference(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    #[test]
    fn escape_equals_the_charwise_reference() {
        // All 32 control characters, the two escaped printables, DEL,
        // plain ASCII and 2- / 3- / 4-byte UTF-8.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend([
            '"',
            '\\',
            '\u{7f}',
            'a',
            'Z',
            ' ',
            '/',
            'é',
            '€',
            '\u{1F600}',
        ]);
        for &c in &alphabet {
            let s = c.to_string();
            assert_eq!(escape(&s), escape_reference(&s), "{c:?}");
        }
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as usize
        };
        for _ in 0..2000 {
            // Mostly plain runs with escapes scattered through them.
            let s: String = (0..next() % 48)
                .map(|_| match next() % 3 {
                    0 => alphabet[next() % alphabet.len()],
                    _ => 'x',
                })
                .collect();
            let expected = escape_reference(&s);
            assert_eq!(escape(&s), expected, "{s:?}");
            assert_eq!(
                to_json(&Value::Str(s.clone())),
                format!("\"{expected}\""),
                "{s:?}"
            );
            let key = Value::Null;
            assert_eq!(
                object_to_json([(s.as_str(), &key)]),
                format!("{{\"{expected}\":null}}")
            );
        }
    }

    #[test]
    fn object_fields_keep_the_order_given() {
        let kind = Value::from("hello");
        let pid = Value::from(7i64);
        let text = object_to_json([("type", &kind), ("pid", &pid)]);
        assert_eq!(text, "{\"type\":\"hello\",\"pid\":7}");
        // The same fields as a map render sorted, and parse back equal.
        let map = Value::map([("type", kind.clone()), ("pid", pid.clone())]);
        assert_eq!(to_json(&map), "{\"pid\":7,\"type\":\"hello\"}");
        assert_eq!(from_json(&text).unwrap(), map);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(from_json(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(from_json(&nested(MAX_DEPTH - 1, "{\"k\":", "}").replace(":}", ":{}}")).is_ok());
        for text in [
            nested(MAX_DEPTH + 1, "[", "]"),
            nested(100_000, "[", "]"),
            nested(100_000, "{\"k\":", ""),
        ] {
            let err = from_json(&text).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_json(&Value::Float(f64::INFINITY)), "null");
    }
}
