//! Minimal JSON rendering and parsing helpers.
//!
//! The workspace vendors no JSON serializer, so the observability
//! artefacts (metrics snapshots, span event lines, run manifests)
//! render themselves through these primitives — and the analysis side
//! ([`trace`](crate::trace), `repro chaos` and `repro bundle-report`)
//! reads them back with the small recursive-descent [`parse`]r below.

use std::fmt;

/// A JSON string literal with the mandatory escapes, hardened for
/// line-oriented consumers.
///
/// Beyond the escapes JSON requires (quote, backslash, C0 controls),
/// this also escapes DEL, the C1 control block, and the Unicode line
/// separators U+2028/U+2029. Those five are *legal* unescaped JSON, but
/// a hostile span or label name carrying them could confuse naive
/// line-splitting tools reading a JSONL event log — so they leave the
/// encoder as `\uXXXX` sequences instead.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20
                || (0x7f..=0x9f).contains(&(c as u32))
                || c == '\u{2028}'
                || c == '\u{2029}' =>
            {
                out.push_str(&format!("\\u{:04x}", c as u32))
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for an `f64` (`null` for NaN/infinity, which JSON
/// cannot represent).
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A parsed JSON value.
///
/// Numbers are held as `f64`; integers above 2^53 lose precision, so
/// artefacts that must round-trip exact 64-bit values (configuration
/// digests) store them as hex strings instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order (duplicate keys keep the last).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing data after the document"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            // Surrogate pairs arrive as two \u escapes.
                            let c = if (0xd800..=0xdbff).contains(&first) {
                                if !(self.literal("\\u")) {
                                    return Err(self.error("lone high surrogate"));
                                }
                                let second = self.hex4()?;
                                if !(0xdc00..=0xdfff).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let value = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_control_characters() {
        assert_eq!(string("a\"b\\c\nd\u{2}"), "\"a\\\"b\\\\c\\nd\\u0002\"");
        assert_eq!(string("plain"), "\"plain\"");
    }

    #[test]
    fn escapes_del_c1_and_line_separators() {
        assert_eq!(string("\u{7f}"), "\"\\u007f\"");
        assert_eq!(string("\u{85}"), "\"\\u0085\"");
        assert_eq!(string("a\u{2028}b\u{2029}c"), "\"a\\u2028b\\u2029c\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(float(0.25), "0.25");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_owned()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": null}], "c": {"d": "e"}}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.as_array()).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("c")
                .and_then(|c| c.get("d"))
                .and_then(Value::as_str),
            Some("e")
        );
    }

    #[test]
    fn string_roundtrips_through_parse() {
        let hostile = "evil\"name\\with\nnewline\t\u{1}\u{7f}\u{2028}and \u{1f600}";
        let rendered = string(hostile);
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(hostile));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\u{1}\""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse("[1, garbage]").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn as_u64_guards_range_and_fraction() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
