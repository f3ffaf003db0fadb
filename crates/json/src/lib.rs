//! Minimal, dependency-free JSON support for the m2td workspace.
//!
//! The build environment is fully offline, so persistence (tensor/report
//! save + load) runs on this small crate instead of serde. It provides a
//! [`Json`] value type, a strict recursive-descent parser, compact and
//! pretty writers, and the [`ToJson`]/[`FromJson`] conversion traits the
//! rest of the workspace implements for its own types.
//!
//! Numbers keep the integer/float distinction: a literal without `.`,
//! `e`, or `E` that fits an `i64` parses as [`Json::Int`], everything
//! else as [`Json::Float`]. Floats are written with Rust's shortest
//! round-trip formatting; non-finite floats serialise as `null`, matching
//! serde_json's default behaviour.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a damaged or hostile
/// `[[[[…` document would overflow the stack and abort the process. The
/// deepest document the workspace writes (a job manifest holding phase-1
/// outputs) nests about ten levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

/// Errors produced by parsing or by typed extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Malformed JSON text, with a byte offset and message.
    Parse {
        /// Byte offset of the error in the input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A value had the wrong JSON type for the requested conversion.
    Type {
        /// What the caller wanted.
        expected: &'static str,
        /// What the document held.
        found: &'static str,
    },
    /// A required object key was absent.
    MissingKey(String),
    /// Domain-level validation failed after structurally valid JSON.
    Invalid(String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first bracket past the limit.
        offset: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Type { expected, found } => {
                write!(f, "JSON type error: expected {expected}, found {found}")
            }
            JsonError::MissingKey(k) => write!(f, "JSON object missing key `{k}`"),
            JsonError::Invalid(m) => write!(f, "invalid JSON document: {m}"),
            JsonError::TooDeep { offset } => write!(
                f,
                "JSON nesting exceeds {MAX_DEPTH} levels at byte {offset}"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document, requiring the whole input be consumed.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Name of this value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "number (int)",
            Json::Float(_) => "number (float)",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object key.
    pub fn require(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| JsonError::MissingKey(key.to_string())),
            other => Err(JsonError::Type {
                expected: "object",
                found: other.type_name(),
            }),
        }
    }

    /// Numeric value as `f64` (ints widen).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            other => Err(JsonError::Type {
                expected: "number",
                found: other.type_name(),
            }),
        }
    }

    /// Non-negative integer as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        match self {
            Json::Int(i) if *i >= 0 => Ok(*i as usize),
            other => Err(JsonError::Type {
                expected: "non-negative integer",
                found: other.type_name(),
            }),
        }
    }

    /// Non-negative integer as `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(JsonError::Type {
                expected: "non-negative integer",
                found: other.type_name(),
            }),
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::Type {
                expected: "string",
                found: other.type_name(),
            }),
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::Type {
                expected: "bool",
                found: other.type_name(),
            }),
        }
    }

    /// Array elements.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(JsonError::Type {
                expected: "array",
                found: other.type_name(),
            }),
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing into a `String` cannot fail, here or in the other
            // `write!`s of this writer, so their `fmt::Result` is dropped.
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    let (k, v) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)
                })
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let start = out.len();
        let _ = write!(out, "{f}");
        // `{}` prints integral floats without a fractional part; keep the
        // value a float on round trip.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string. Runs of characters that need no
/// escape are copied in one `push_str`; every byte that does need one
/// (`"`, `\`, controls) is ASCII, so a run always ends on a char boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::Parse {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { offset: self.pos });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next `"`, `\`
                    // or control byte in one push. Those stop bytes are
                    // ASCII, so the run ends on a char boundary of `text`.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::Parse {
                offset: start,
                message: format!("malformed number `{text}`"),
            })
    }
}

/// Conversion of a Rust value into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion of a [`Json`] tree back into a Rust value, with validation.
pub trait FromJson: Sized {
    /// Reads the value, failing on structural or domain errors.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64()
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl FromJson for usize {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_usize()
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl FromJson for u64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_u64()
    }
}

impl ToJson for u8 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl FromJson for u8 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let v = json.as_u64()?;
        u8::try_from(v).map_err(|_| JsonError::Invalid(format!("{v} does not fit in a u8")))
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl FromJson for u32 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let v = json.as_u64()?;
        u32::try_from(v).map_err(|_| JsonError::Invalid(format!("{v} does not fit in a u32")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.as_str()?.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let items = json.as_array()?;
        if items.len() != 2 {
            return Err(JsonError::Invalid(format!(
                "expected a 2-element array, found {} elements",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<K: Into<String> + Clone, V: ToJson> ToJson for BTreeMap<K, V>
where
    K: Ord,
{
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.clone().into(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_collections() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("m2td".into())),
            ("dims".into(), Json::Arr(vec![Json::Int(3), Json::Int(4)])),
            ("density".into(), Json::Float(0.125)),
            ("neg".into(), Json::Float(-1.5e-8)),
            ("big".into(), Json::Int(i64::MAX)),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [
            0.1,
            1.0,
            -3.25,
            1e300,
            5e-324,
            f64::MAX,
            std::f64::consts::PI,
        ] {
            let text = Json::Float(v).to_compact();
            match Json::parse(&text).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "text {text}"),
                other => panic!("float reparsed as {other:?}"),
            }
        }
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn integer_vs_float_distinction() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(Json::parse("7e0").unwrap(), Json::Float(7.0));
        // Ints widen through as_f64.
        assert_eq!(Json::Int(7).as_f64().unwrap(), 7.0);
    }

    #[test]
    fn string_escapes() {
        let s = "line\nquote\"slash\\tab\tunicode\u{263A}";
        let text = Json::Str(s.into()).to_compact();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()));
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // Runs of multi-byte UTF-8 ending at an escape, a quote or the end.
        for (text, want) in [
            (r#""日本\n""#, "日本\n"),
            (r#""😀\"x""#, "😀\"x"),
            (r#""é\u00e9""#, "éé"),
            (r#""ü\\ü""#, "ü\\ü"),
            (r#""a\ud83d\ude00日""#, "a😀日"),
            (r#""""#, ""),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Str(want.into()), "{text}");
        }
    }

    #[test]
    fn writer_emits_golden_bytes() {
        // Every manifest, DLQ, WAL and snapshot file is this
        // writer's output, so its bytes are a format: pin them exactly.
        // The document mixes integral and extreme floats, `-0.0`, `NaN`,
        // `i64` extremes, every escape, a raw `DEL` (written unescaped)
        // and multi-byte UTF-8 beside escapes.
        let doc = Json::Obj(vec![
            (
                "ints".into(),
                Json::Arr(vec![
                    Json::Int(0),
                    Json::Int(-42),
                    Json::Int(i64::MIN),
                    Json::Int(i64::MAX),
                ]),
            ),
            (
                "floats".into(),
                Json::Arr(vec![
                    Json::Float(7.0),
                    Json::Float(-0.0),
                    Json::Float(1e300),
                    Json::Float(5e-324),
                    Json::Float(0.1),
                    Json::Float(-1.5e-8),
                    Json::Float(f64::NAN),
                ]),
            ),
            (
                "escapes".into(),
                Json::Str("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}u\u{1f}\u{0}\u{7f}end".into()),
            ),
            ("utf8".into(), Json::Str("é\"日本\\\n😀\u{1}ü".into())),
            ("k\"ey\u{263a}".into(), Json::Null),
            (
                "nested".into(),
                Json::Arr(vec![
                    Json::Obj(vec![]),
                    Json::Arr(vec![]),
                    Json::Bool(true),
                    Json::Bool(false),
                ]),
            ),
        ]);
        let big = format!("1{}.0", "0".repeat(300));
        let tiny = format!("0.{}5", "0".repeat(323));
        let compact = [
            r#"{"ints":[0,-42,-9223372036854775808,9223372036854775807],"floats":[7.0,-0.0,"#,
            &big,
            ",",
            &tiny,
            r#",0.1,-0.000000015,null],"escapes":"q\"b\\s/n\nr\rt\tb\bf\fu\u001f\u0000"#,
            "\u{7f}",
            r#"end","utf8":"é\"日本\\\n😀\u0001ü","k\"ey☺":null,"nested":[{},[],true,false]}"#,
        ]
        .concat();
        let pretty = [
            r#"{
  "ints": [
    0,
    -42,
    -9223372036854775808,
    9223372036854775807
  ],
  "floats": [
    7.0,
    -0.0,
    "#,
            &big,
            ",\n    ",
            &tiny,
            r#",
    0.1,
    -0.000000015,
    null
  ],
  "escapes": "q\"b\\s/n\nr\rt\tb\bf\fu\u001f\u0000"#,
            "\u{7f}",
            r#"end",
  "utf8": "é\"日本\\\n😀\u0001ü",
  "k\"ey☺": null,
  "nested": [
    {},
    [],
    true,
    false
  ]
}"#,
        ]
        .concat();
        assert_eq!(doc.to_compact(), compact);
        assert_eq!(doc.to_pretty(), pretty);
        // Parsing the golden text and writing it again is the identity
        // (NaN already reads back as the `null` it was written as).
        for text in [&compact, &pretty] {
            let reparsed = Json::parse(text).unwrap();
            assert_eq!(reparsed.to_compact(), compact);
            assert_eq!(reparsed.to_pretty(), pretty);
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "[1 2]",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "01a",
            "nul",
            "-",
            "\"\\u12\"",
            // Raw control bytes inside a run, and a run cut off mid-string.
            "\"ab\u{1}cd\"",
            "\"日\u{1f}本\"",
            "\"é\nü\"",
            "\"日本",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let hostile = "[".repeat(100_000);
        assert_eq!(
            Json::parse(&hostile),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
        let objects = "{\"a\":".repeat(100_000);
        assert!(matches!(
            Json::parse(&objects),
            Err(JsonError::TooDeep { .. })
        ));
        // Exactly MAX_DEPTH levels still parse.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        assert!(matches!(
            Json::parse(&too_deep),
            Err(JsonError::TooDeep { .. })
        ));
    }

    #[test]
    fn typed_accessors_enforce_types() {
        let doc = Json::parse(r#"{"a": 1, "b": "x"}"#).unwrap();
        assert_eq!(doc.require("a").unwrap().as_usize().unwrap(), 1);
        assert!(doc.require("b").unwrap().as_f64().is_err());
        assert!(matches!(doc.require("c"), Err(JsonError::MissingKey(_))));
        assert!(Json::Int(-1).as_usize().is_err());
    }

    #[test]
    fn tuple_and_vec_conversions() {
        let rows: Vec<(String, f64)> = vec![("a".into(), 1.5), ("b".into(), -2.0)];
        let json = rows.to_json();
        let back: Vec<(String, f64)> = FromJson::from_json(&json).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn small_ints_are_range_checked() {
        assert_eq!(u8::from_json(&Json::Int(255)).unwrap(), 255);
        assert!(u8::from_json(&Json::Int(256)).is_err());
        assert!(u8::from_json(&Json::Int(-1)).is_err());
        assert_eq!(u32::from_json(&Json::Int(1 << 30)).unwrap(), 1 << 30);
        assert!(u32::from_json(&Json::Int(1 << 40)).is_err());
    }
}
