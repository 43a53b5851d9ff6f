//! A minimal, deterministic JSON codec over the `serde` data model.
//!
//! The workspace has no data-format crates (no registry access), so this
//! module provides the encoders and the decoder the simulator needs:
//! pretty-printed JSON with two-space indentation ([`to_json_pretty`]),
//! compact single-line JSON for line-delimited protocols
//! ([`to_json_line`]), and a recursive-descent reader
//! ([`from_json_str`]) that drives the shim's `serde::de` visitors.
//! Output is deterministic because every map the workspace serializes is
//! a `BTreeMap`.

use serde::de::{self, Deserialize, MapAccess, SeqAccess, Visitor};
use serde::ser::{Serialize, SerializeMap, SerializeSeq, SerializeStruct, Serializer};
use std::fmt::Write as _;

/// Error produced by the JSON writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// A map key serialized to something other than a JSON string.
    NonStringKey,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonStringKey => write!(f, "JSON map keys must serialize as strings"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Serializes `value` to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns [`JsonError::NonStringKey`] if a map key is not a string.
pub fn to_json_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    value.serialize(JsonSerializer { out: &mut out, indent: Some(0) })?;
    out.push('\n');
    Ok(out)
}

/// Serializes `value` to compact single-line JSON (no spaces, no
/// newline), the framing used by the sweep-server's line-delimited
/// protocol.
///
/// # Errors
///
/// Returns [`JsonError::NonStringKey`] if a map key is not a string.
pub fn to_json_line<T: Serialize + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    value.serialize(JsonSerializer { out: &mut out, indent: None })?;
    Ok(out)
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// The one JSON writer: `indent` is the nesting depth of the pretty
/// layout, or `None` for the compact single-line layout.
struct JsonSerializer<'a> {
    out: &'a mut String,
    indent: Option<usize>,
}

impl<'a> Serializer for JsonSerializer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeStruct = JsonCompound<'a>;
    type SerializeSeq = JsonCompound<'a>;
    type SerializeMap = JsonCompound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        if v.is_finite() {
            // `{v}` prints integral floats without a fraction ("1"), which
            // is still valid JSON and round-trips exactly.
            let _ = write!(self.out, "{v}");
        } else {
            // NaN / infinity have no JSON representation.
            self.out.push_str("null");
        }
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        push_json_str(self.out, v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), JsonError> {
        value.serialize(self)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<JsonCompound<'a>, JsonError> {
        Ok(self.open('[', ']'))
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<JsonCompound<'a>, JsonError> {
        Ok(self.open('{', '}'))
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<JsonCompound<'a>, JsonError> {
        self.serialize_map(Some(len))
    }
}

impl<'a> JsonSerializer<'a> {
    fn open(self, open: char, close: char) -> JsonCompound<'a> {
        self.out.push(open);
        JsonCompound { out: self.out, indent: self.indent.map(|i| i + 1), first: true, close }
    }
}

struct JsonCompound<'a> {
    out: &'a mut String,
    indent: Option<usize>,
    first: bool,
    close: char,
}

impl JsonCompound<'_> {
    fn begin_item(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if let Some(indent) = self.indent {
            self.out.push('\n');
            push_indent(self.out, indent);
        }
    }

    fn finish(self) {
        if let (Some(indent), false) = (self.indent, self.first) {
            self.out.push('\n');
            push_indent(self.out, indent - 1);
        }
        self.out.push(self.close);
    }

    fn write_key<K: Serialize + ?Sized>(&mut self, key: &K) -> Result<(), JsonError> {
        let mut buf = String::new();
        key.serialize(JsonSerializer { out: &mut buf, indent: None })?;
        if !buf.starts_with('"') {
            return Err(JsonError::NonStringKey);
        }
        self.out.push_str(&buf);
        self.push_colon();
        Ok(())
    }

    fn push_colon(&mut self) {
        self.out.push_str(if self.indent.is_some() { ": " } else { ":" });
    }
}

impl SerializeStruct for JsonCompound<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.begin_item();
        push_json_str(self.out, key);
        self.push_colon();
        value.serialize(JsonSerializer { out: self.out, indent: self.indent })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeSeq for JsonCompound<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.begin_item();
        value.serialize(JsonSerializer { out: self.out, indent: self.indent })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

impl SerializeMap for JsonCompound<'_> {
    type Ok = ();
    type Error = JsonError;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), JsonError> {
        self.begin_item();
        self.write_key(key)?;
        value.serialize(JsonSerializer { out: self.out, indent: self.indent })
    }

    fn end(self) -> Result<(), JsonError> {
        self.finish();
        Ok(())
    }
}

/// Error produced by the JSON reader: a message plus the byte offset it
/// was raised at (offset 0 for errors raised by `Deserialize` impls,
/// which have no position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input, when known.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonParseError {}

impl de::Error for JsonParseError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        JsonParseError { message: msg.to_string(), offset: 0 }
    }
}

/// Deserializes a value from a JSON string (pretty or compact — the
/// reader is whitespace-insensitive).
///
/// # Errors
///
/// Returns [`JsonParseError`] on malformed JSON, trailing input, or a
/// shape the target type rejects.
pub fn from_json_str<T: Deserialize>(input: &str) -> Result<T, JsonParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    let value = T::deserialize(JsonDeserializer { p: &mut p })?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Deepest array/object nesting the reader accepts. The reader recurses
/// once per level, so without a cap a hostile document of nothing but
/// `[` would exhaust the stack instead of failing to parse.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    /// Steps into an array or object, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { message: message.to_string(), offset: self.pos.max(1) }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                self.expect_literal("\\u")?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole sequence through.
                    let start = self.pos - 1;
                    let len = match b {
                        0..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = &self.bytes[self.pos..self.pos + 4];
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number_token(&mut self) -> Result<&str, JsonParseError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))
    }
}

struct JsonDeserializer<'a, 'b> {
    p: &'b mut Parser<'a>,
}

impl de::Deserializer for JsonDeserializer<'_, '_> {
    type Error = JsonParseError;

    fn deserialize_any<V: Visitor>(self, visitor: V) -> Result<V::Value, JsonParseError> {
        match self.p.peek() {
            Some(b'{') => {
                let p = self.p;
                p.enter()?;
                let value = visitor.visit_map(JsonMapAccess { p: &mut *p, first: true });
                p.depth -= 1;
                value
            }
            Some(b'[') => {
                let p = self.p;
                p.enter()?;
                let value = visitor.visit_seq(JsonSeqAccess { p: &mut *p, first: true });
                p.depth -= 1;
                value
            }
            Some(b'"') => {
                let s = self.p.parse_string()?;
                visitor.visit_string(s)
            }
            Some(b't') => {
                self.p.expect_literal("true")?;
                visitor.visit_bool(true)
            }
            Some(b'f') => {
                self.p.expect_literal("false")?;
                visitor.visit_bool(false)
            }
            Some(b'n') => {
                self.p.expect_literal("null")?;
                visitor.visit_none()
            }
            Some(b'-' | b'0'..=b'9') => {
                let err_pos = self.p.pos.max(1);
                let tok = self.p.parse_number_token()?;
                if tok.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
                    match tok.parse::<f64>() {
                        Ok(v) => visitor.visit_f64(v),
                        Err(_) => Err(JsonParseError {
                            message: format!("invalid number `{tok}`"),
                            offset: err_pos,
                        }),
                    }
                } else if tok.starts_with('-') {
                    match tok.parse::<i64>() {
                        Ok(v) => visitor.visit_i64(v),
                        // Integer below i64::MIN: fall back to the float
                        // representation rather than failing the parse.
                        Err(_) => match tok.parse::<f64>() {
                            Ok(v) => visitor.visit_f64(v),
                            Err(_) => Err(JsonParseError {
                                message: format!("invalid number `{tok}`"),
                                offset: err_pos,
                            }),
                        },
                    }
                } else {
                    match tok.parse::<u64>() {
                        Ok(v) => visitor.visit_u64(v),
                        Err(_) => match tok.parse::<f64>() {
                            Ok(v) => visitor.visit_f64(v),
                            Err(_) => Err(JsonParseError {
                                message: format!("invalid number `{tok}`"),
                                offset: err_pos,
                            }),
                        },
                    }
                }
            }
            Some(_) => Err(self.p.err("unexpected character")),
            None => Err(self.p.err("unexpected end of input")),
        }
    }

    fn deserialize_option<V: Visitor>(self, visitor: V) -> Result<V::Value, JsonParseError> {
        if self.p.peek() == Some(b'n') {
            self.p.expect_literal("null")?;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }
}

struct JsonSeqAccess<'a, 'b> {
    p: &'b mut Parser<'a>,
    first: bool,
}

impl SeqAccess for JsonSeqAccess<'_, '_> {
    type Error = JsonParseError;

    fn next_element<T: Deserialize>(&mut self) -> Result<Option<T>, JsonParseError> {
        if self.p.peek() == Some(b']') {
            self.p.pos += 1;
            return Ok(None);
        }
        if !self.first {
            self.p.expect(b',')?;
        }
        self.first = false;
        T::deserialize(JsonDeserializer { p: self.p }).map(Some)
    }
}

struct JsonMapAccess<'a, 'b> {
    p: &'b mut Parser<'a>,
    first: bool,
}

impl MapAccess for JsonMapAccess<'_, '_> {
    type Error = JsonParseError;

    fn next_key(&mut self) -> Result<Option<String>, JsonParseError> {
        if self.p.peek() == Some(b'}') {
            self.p.pos += 1;
            return Ok(None);
        }
        if !self.first {
            self.p.expect(b',')?;
        }
        self.first = false;
        self.p.skip_ws();
        let key = self.p.parse_string()?;
        self.p.expect(b':')?;
        Ok(Some(key))
    }

    fn next_value<T: Deserialize>(&mut self) -> Result<T, JsonParseError> {
        T::deserialize(JsonDeserializer { p: self.p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, MetricsRegistry};
    use serde::Serialize;
    use std::collections::BTreeMap;

    #[derive(Serialize)]
    struct Sample {
        name: String,
        hits: u64,
        ratio: f64,
        empty: Option<u64>,
        tags: Vec<String>,
    }

    #[test]
    fn struct_serializes_to_pretty_json() {
        let s = Sample {
            name: "l1\"tlb\"".to_string(),
            hits: 42,
            ratio: 0.5,
            empty: None,
            tags: vec!["a".to_string()],
        };
        let json = to_json_pretty(&s).unwrap();
        assert_eq!(
            json,
            "{\n  \"name\": \"l1\\\"tlb\\\"\",\n  \"hits\": 42,\n  \"ratio\": 0.5,\n  \
             \"empty\": null,\n  \"tags\": [\n    \"a\"\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        let empty_map: BTreeMap<String, u64> = BTreeMap::new();
        assert_eq!(to_json_pretty(&empty_map).unwrap(), "{}\n");
        let empty_vec: Vec<u64> = Vec::new();
        assert_eq!(to_json_pretty(&empty_vec).unwrap(), "[]\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_json_pretty(&f64::NAN).unwrap(), "null\n");
        assert_eq!(to_json_pretty(&f64::INFINITY).unwrap(), "null\n");
    }

    #[test]
    fn non_string_map_keys_are_rejected() {
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        m.insert(1, 2);
        assert_eq!(to_json_pretty(&m), Err(JsonError::NonStringKey));
    }

    #[derive(Debug, PartialEq, Serialize, serde::Deserialize)]
    struct Round {
        hits: u64,
        delta: i64,
        ratio: f64,
        label: String,
        maybe: Option<u64>,
        absent: Option<u64>,
        series: Vec<u64>,
        nested: BTreeMap<String, u64>,
    }

    fn round_sample() -> Round {
        let mut nested = BTreeMap::new();
        nested.insert("k\"1".to_string(), 7);
        Round {
            hits: u64::MAX,
            delta: -42,
            ratio: 0.125,
            label: "tab\t\"quote\" \u{1F600}".to_string(),
            maybe: Some(3),
            absent: None,
            series: vec![1, 2, 3],
            nested,
        }
    }

    #[test]
    fn compact_line_round_trips_through_the_reader() {
        let v = round_sample();
        let line = to_json_line(&v).unwrap();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        let back: Round = from_json_str(&line).unwrap();
        assert_eq!(back, v);
    }

    #[derive(Serialize)]
    struct Line {
        label: String,
        absent: Option<u64>,
        ratio: f64,
        nested: BTreeMap<String, Vec<u64>>,
        empty: BTreeMap<String, u64>,
        inner: Vec<Sample>,
    }

    #[test]
    fn compact_line_bytes_are_pinned() {
        let mut nested = BTreeMap::new();
        nested.insert("a\"b".to_string(), vec![1, 2]);
        nested.insert("z".to_string(), Vec::new());
        let v = Line {
            label: "tab\t\"q\"\\\u{1}".to_string(),
            absent: None,
            ratio: f64::NAN,
            nested,
            empty: BTreeMap::new(),
            inner: vec![Sample {
                name: "s".to_string(),
                hits: 1,
                ratio: f64::INFINITY,
                empty: None,
                tags: Vec::new(),
            }],
        };
        assert_eq!(
            to_json_line(&v).unwrap(),
            r#"{"label":"tab\t\"q\"\\\u0001","absent":null,"ratio":null,"nested":{"a\"b":[1,2],"z":[]},"empty":{},"inner":[{"name":"s","hits":1,"ratio":null,"empty":null,"tags":[]}]}"#
        );
    }

    #[test]
    fn pretty_json_round_trips_through_the_reader() {
        let v = round_sample();
        let back: Round = from_json_str(&to_json_pretty(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn reader_skips_unknown_fields_and_rejects_missing_ones() {
        let with_extra = r#"{"hits":1,"extra":{"deep":[1,2]},"delta":-1,"ratio":1.5,
            "label":"x","maybe":null,"absent":null,"series":[],"nested":{}}"#;
        let v: Round = from_json_str(with_extra).unwrap();
        assert_eq!(v.hits, 1);
        assert_eq!(v.maybe, None);
        let err = from_json_str::<Round>(r#"{"hits":1}"#).unwrap_err();
        assert!(err.message.contains("missing field"), "{err}");
    }

    #[test]
    fn reader_reports_malformed_input() {
        assert!(from_json_str::<u64>("12 34").is_err());
        assert!(from_json_str::<u64>("").is_err());
        assert!(from_json_str::<u64>("-3").is_err());
        assert!(from_json_str::<Vec<u64>>("[1,2").is_err());
        assert!(from_json_str::<String>("\"open").is_err());
        assert!(from_json_str::<BTreeMap<String, u64>>(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn reader_handles_escapes_and_number_shapes() {
        let s: String = from_json_str(r#""aA\né 😀""#).unwrap();
        assert_eq!(s, "aA\né 😀");
        let f: f64 = from_json_str("2.5e2").unwrap();
        assert!((f - 250.0).abs() < 1e-12);
        let f: f64 = from_json_str("null").unwrap();
        assert!(f.is_nan());
        let i: i64 = from_json_str("-9223372036854775808").unwrap();
        assert_eq!(i, i64::MIN);
        let arr: [u64; 3] = from_json_str("[4,5,6]").unwrap();
        assert_eq!(arr, [4, 5, 6]);
        assert!(from_json_str::<[u64; 3]>("[4,5]").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // An unknown field nested `arrays` deep inside a `Round` object.
        let with_extra = |arrays: usize| {
            let line = to_json_line(&round_sample()).unwrap();
            format!("{{\"extra\":{}{},{}", "[".repeat(arrays), "]".repeat(arrays), &line[1..])
        };
        // The object is one level, so MAX_DEPTH - 1 arrays reach the cap.
        assert_eq!(from_json_str::<Round>(&with_extra(MAX_DEPTH - 1)).unwrap(), round_sample());
        let err = from_json_str::<Round>(&with_extra(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        let err = from_json_str::<Round>(&with_extra(1_000_000)).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn metrics_snapshot_serializes_end_to_end() {
        let mut reg = MetricsRegistry::new(4);
        reg.observe("latency", 74);
        reg.trace(Event { cycle: 10, node: 2, kind: "tlb_miss", addr: 0x1000 });
        let json = to_json_pretty(&reg.snapshot()).unwrap();
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"sum\": 74"));
        // The event ring stays in the registry; snapshots never carry it.
        assert!(!json.contains("tlb_miss"));
        assert!(!json.contains("events"));
        // Deterministic: serializing twice yields identical bytes.
        assert_eq!(json, to_json_pretty(&reg.snapshot()).unwrap());
    }
}
