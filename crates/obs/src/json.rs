//! Minimal JSON: one reader and the writers every JSON output uses.
//!
//! The offline workspace has no serde. The daemon's wire protocol, the
//! report files (`screen`, `audit`, `optimize`), the metrics snapshot and
//! the Chrome trace all escape strings with [`write_escaped`]. Numbers
//! keep the spelling of their format: [`write_number`] writes non-finite
//! values as `null` on the wire, [`write_report_number`] as the quoted
//! strings `"NaN"`, `"inf"` and `"-inf"` in report files.
//!
//! The daemon must never trust a client: the parser is written for
//! adversarial input — strict
//! grammar, bounded recursion depth, structured errors with byte offsets,
//! and no panics on any byte sequence (see the proptest-style corpus in
//! the tests). Numbers are parsed as `f64` (the protocol carries only
//! physical quantities and small ids); objects preserve insertion order
//! and reject duplicate keys, so a request cannot smuggle two `deck`
//! fields past validation.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite: the grammar has no `NaN`/`inf`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order (duplicate keys are a parse error).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Short name of the JSON type, for schema error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// 0-based byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.detail, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting. Protocol messages are two levels deep; a
/// hostile `[[[[…]]]]` must not blow the stack.
const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending byte.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        input,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            detail: detail.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_off = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_off,
                    detail: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. Those bytes are ASCII, and so are char
            // boundaries: the run is whole UTF-8 scalars.
            let run = plain_run(&self.bytes[self.pos..]);
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uDC00–\uDFFF; lone surrogates
                            // are rejected (strings stay valid UTF-8).
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                None
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        other => {
                            return Err(self.err(format!("bad escape \\{}", other as char)))
                        }
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = &self.input[self.pos..end];
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| self.err(format!("bad \\u escape {hex:?}")))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after '.'"));
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
        let text = &self.input[start..self.pos];
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            detail: format!("unparseable number {text:?}"),
        })?;
        if !n.is_finite() {
            // Overflowing literals like 1e999: the grammar accepted them
            // but the protocol carries only finite quantities.
            return Err(JsonError {
                offset: start,
                detail: format!("number {text:?} overflows to non-finite"),
            });
        }
        Ok(Value::Num(n))
    }
}

/// Length of the leading run of `bytes` that a JSON string copies as it
/// stands: up to the first `"`, `\\` or control byte.
///
/// Eight bytes are tested at a time (SWAR): `(x - 0x01…01) & !x & 0x80…80`
/// flags the zero bytes of `x`, and `(w - 0x20…20) & !w & 0x80…80` the
/// bytes of `w` below 0x20. A borrow can flag a byte above a true hit,
/// never below one, so the lowest flagged byte is the first stop byte.
/// Bytes of 0x80 and up (UTF-8 continuation and lead bytes) never flag.
fn plain_run(bytes: &[u8]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut i = 0;
    while let Some(word) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        let quote = w ^ (LO * u64::from(b'"'));
        let slash = w ^ (LO * u64::from(b'\\'));
        let hit = (quote.wrapping_sub(LO) & !quote
            | slash.wrapping_sub(LO) & !slash
            | w.wrapping_sub(LO * 0x20) & !w)
            & HI;
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    let rest = &bytes[i..];
    i + rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(rest.len())
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders an `f64` the way the protocol expects: finite numbers in Rust's
/// shortest round-trip form, non-finite as `null` (JSON has no NaN).
pub fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `{}` on f64 omits the decimal point for integral values, which
        // is still valid JSON — nothing more to do.
    } else {
        out.push_str("null");
    }
}

/// Renders an `f64` for a report file: finite numbers as
/// [`write_number`] does, non-finite ones as the quoted strings `"NaN"`,
/// `"inf"` and `"-inf"`, so a reader can tell them apart.
pub fn write_report_number(out: &mut String, v: f64) {
    if v.is_finite() {
        write_number(out, v);
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn containers_parse() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        match v.get("a") {
            Some(Value::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn hostile_inputs_error_structurally() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "\u{0}garbage",
            "nul",
            "truee",
            "12x",
            "1.",
            "1e",
            "--3",
            "1e999",
            "{\"a\":1,\"a\":2}",
            "\"ctrl \u{1} byte\"",
            "[1] trailing",
        ] {
            let r = parse(bad);
            assert!(r.is_err(), "{bad:?} should fail, got {r:?}");
        }
    }

    #[test]
    fn plain_runs_stop_at_the_first_special_byte() {
        let oracle = |bytes: &[u8]| {
            bytes
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len())
        };
        // Every stop byte, and a non-stop byte on each side of every
        // boundary the SWAR masks test, at every offset of a 19-byte
        // buffer of non-stop bytes (ASCII and UTF-8 lead/continuation
        // bytes), then scanned from every start.
        let fill: Vec<u8> = "ab é~µ 0!#".bytes().cycle().take(19).collect();
        let probes = (0u8..0x20).chain([
            b'"', b'\\', b'!', b'#', b' ', b'[', b']', 0x7f, 0x80, 0xdc, 0xff,
        ]);
        for probe in probes {
            for at in 0..fill.len() {
                let mut bytes = fill.clone();
                bytes[at] = probe;
                for start in 0..bytes.len() {
                    assert_eq!(
                        plain_run(&bytes[start..]),
                        oracle(&bytes[start..]),
                        "probe {probe:#04x} at {at}, scanned from {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        match parse(&deep) {
            Err(e) => assert!(e.detail.contains("nesting"), "{e}"),
            Ok(_) => panic!("deep nesting must be rejected"),
        }
    }

    #[test]
    fn numbers_render_round_trip() {
        for v in [0.0, 1.0, -2.5, 1e-15, 123456789.0, std::f64::consts::PI] {
            let mut s = String::new();
            write_number(&mut s, v);
            assert_eq!(parse(&s).unwrap(), Value::Num(v), "{s}");
        }
        let mut s = String::new();
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn report_numbers_quote_non_finite_values() {
        let render = |v: f64| {
            let mut s = String::new();
            write_report_number(&mut s, v);
            s
        };
        assert_eq!(render(f64::NAN), "\"NaN\"");
        assert_eq!(render(f64::INFINITY), "\"inf\"");
        assert_eq!(render(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(render(0.25), "0.25");
    }

    #[test]
    fn duplicate_keys_rejected_in_nested_objects() {
        assert!(parse(r#"{"a":{"b":1,"b":2}}"#).is_err());
    }
}
