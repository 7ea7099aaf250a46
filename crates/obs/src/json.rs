//! A minimal JSON value, writer, and parser.
//!
//! The build environment has no crates.io access, so instead of serde the
//! workspace carries its own tiny JSON layer: enough to emit campaign
//! reports and Chrome traces and to read campaign files. It is the one
//! JSON writer in the workspace — the harness re-exports it as
//! `scup_harness::json`. Object key order is preserved (reports stay
//! diffable); numbers are `i64` or `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
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

    /// The integer payload (floats with zero fraction inside `i64`
    /// coerce; `as` would saturate the ones outside).
    pub fn as_i64(&self) -> Option<i64> {
        // -2^63 is an `i64`; 2^63 is the first float past `i64::MAX`.
        const LIMIT: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && (-LIMIT..LIMIT).contains(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// The float payload (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes the document on one line, without any whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The one writer behind both layouts: `indent` is the nesting depth
    /// when pretty-printing and `None` when compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            // Writing into a `String` cannot fail.
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            // From 2^63 on a float is integral, and its plain digits would
            // read back as an out-of-range integer: the exponent keeps it
            // a float.
            Json::Float(f) if f.is_finite() && f.abs() >= TWO_POW_63 => {
                write!(out, "{f:e}").unwrap()
            }
            Json::Float(f) if f.is_finite() => write!(out, "{f}").unwrap(),
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    new_member(out, i, inner);
                    item.write(out, inner);
                }
                new_line(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    new_member(out, i, inner);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                new_line(out, indent);
                out.push('}');
            }
        }
    }
}

/// The magnitude from which a float's shortest plain digits no longer
/// parse as an `i64` (`-2^63` prints as `-9223372036854776000`).
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Integers up to `i64::MAX` stay exact; larger ones become the nearest
/// `f64` instead of wrapping negative as `as i64` would.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n).map_or(Json::Float(n as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n.into())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// An array of the items.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Opens member `i` of a container: a comma after the first, then its line.
fn new_member(out: &mut String, i: usize, indent: Option<usize>) {
    if i > 0 {
        out.push(',');
    }
    new_line(out, indent);
}

/// A line break and `indent` levels of indentation; nothing when compact.
fn new_line(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns `(byte offset, message)` on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else if text.trim_start_matches('-').is_empty() {
            Err(self.err("bad integer"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err(&format!("integer `{text}` out of range")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            s.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at the cursor (and the
    /// low surrogate a high one needs), leaving the cursor past it.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF if self.bytes[self.pos..].starts_with(b"\\u") => {
                self.pos += 1;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(self.err("high surrogate without a low one")),
                }
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    /// Reads the four hex digits after the `u` at the cursor; the filter
    /// is what refuses the sign `from_str_radix` would accept.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("\\u takes four hex digits"))?;
        self.pos += 5;
        Ok(u32::from_str_radix(std::str::from_utf8(digits).unwrap(), 16).unwrap())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
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
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shape() {
        let doc = Json::obj([
            ("name", Json::Str("fig1".into())),
            ("passed", Json::Bool(true)),
            ("runs", Json::Arr(vec![Json::Int(1), Json::Float(2.5)])),
            ("nested", Json::obj([("k", Json::Null)])),
        ]);
        for text in [doc.pretty(), doc.compact()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
        assert_eq!(
            doc.compact(),
            r#"{"name":"fig1","passed":true,"runs":[1,2.5],"nested":{"k":null}}"#
        );
    }

    #[test]
    fn escapes_are_symmetric() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}\u{1F600}".into());
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(parse(&doc.compact()).unwrap(), doc);
        // What Python's `json.dump` writes for U+1F600: a surrogate pair.
        assert_eq!(
            parse(r#""a\ud83d\ude00\u00e9\u0041""#).unwrap(),
            Json::Str("a\u{1F600}\u{e9}A".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"x",
            "{\"a\":1,\"a\":2}",
            "tru",
            "01x",
            "[] []",
            r#""\u+041""#,
            r#""\u41""#,
            r#""\u00g1""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": 3, "b": [true, 1.5], "c": "s"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_i64(), Some(3));
        assert_eq!(doc.get("b").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("c").unwrap().as_str(), Some("s"));
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(1.5)
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn out_of_range_integers_are_errors_not_saturated() {
        for literal in ["99999999999999999999", "-9223372036854775809"] {
            let err = parse(&format!("{{\"seeds\": {literal}}}")).unwrap_err();
            assert!(err.contains("out of range"), "{literal}: {err}");
        }
        // Written as floats, values past `i64` parse but are no integers.
        for literal in [
            "99999999999999999999.0",
            "1e20",
            "-1e19",
            "9223372036854775808.0",
        ] {
            assert_eq!(parse(literal).unwrap().as_i64(), None, "{literal}");
        }
        assert_eq!(Json::Float(i64::MIN as f64).as_i64(), Some(i64::MIN));
        assert_eq!(Json::Float(1e18).as_i64(), Some(1_000_000_000_000_000_000));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        // A `u64` past `i64::MAX` rounds to a float; it never wraps.
        assert_eq!(Json::from(i64::MAX as u64), Json::Int(i64::MAX));
        assert_eq!(Json::from(u64::MAX), Json::Float(u64::MAX as f64));
    }

    #[test]
    fn floats_past_i64_round_trip() {
        for doc in [
            Json::from(1u64 << 63),
            Json::from(u64::MAX),
            Json::Float(-1e19),
            Json::Float(i64::MIN as f64),
            Json::Float(f64::MAX),
        ] {
            for text in [doc.pretty(), doc.compact()] {
                assert_eq!(parse(&text).unwrap(), doc, "{text}");
            }
        }
        assert_eq!(Json::from(1u64 << 63).compact(), "9.223372036854776e18");
        assert_eq!(Json::Float(-1e19).compact(), "-1e19");
        // Every other float keeps its plain digits.
        assert_eq!(Json::Float(1e18).compact(), "1000000000000000000");
        assert_eq!(Json::Float(-9.2e18).compact(), "-9200000000000000000");
        assert_eq!(Json::Float(2.5).compact(), "2.5");
    }
}
