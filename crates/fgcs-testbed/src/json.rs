//! A minimal JSON reader/writer for the trace schema.
//!
//! The build environment has no crate registry, so the trace layer
//! cannot use `serde_json`. This module implements the small JSON subset
//! the JSONL trace format needs — flat objects of numbers, strings,
//! `null`, and one nested object — with the same wire format the
//! previous serde-derived implementation produced, so traces written by
//! older builds still parse.

use std::collections::BTreeMap;

/// A parsed JSON value (subset: no arrays — the trace schema has none).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any JSON number; kept as f64 plus the u64 view when exact.
    Num(f64),
    /// A string.
    Str(String),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

// Field accessors over a parsed object, shared by the trace and the
// service snapshot loaders. Errors name the field.

/// The value of field `key`.
pub fn get<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Field `key` as an unsigned integer.
pub fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

/// Field `key` as an unsigned integer, or `default` when the key is
/// absent (a field older file versions did not write). A present key
/// of the wrong type is still an error.
pub fn get_u64_or(obj: &BTreeMap<String, Value>, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(_) => get_u64(obj, key),
    }
}

/// Field `key` as a finite number: a literal that overflows to
/// infinity is rejected here, at the loader boundary.
pub fn get_f64(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    let v = get(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("field {key:?} is not finite"))
    }
}

/// Field `key` as an unsigned integer, `None` for `null`.
pub fn get_opt_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, String> {
    match get(obj, key)? {
        Value::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not an unsigned integer or null")),
    }
}

/// Field `key` as a string.
pub fn get_str<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

/// Parses one JSON document. Returns an error message on malformed input
/// or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

/// Replaces the value of top-level `key` in the JSON object document
/// `doc` with the raw JSON `value`, appending the key at the end when
/// absent. Every other byte of the document is preserved, including
/// key order. The experiment gate files are written by several
/// binaries, each owning one top-level section — a writer that assumed
/// its own key came last would silently delete every section spliced
/// in after it.
pub fn splice_key(doc: &str, key: &str, value: &str) -> Result<String, String> {
    let bytes = doc.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err("document is not a JSON object".into());
    }
    pos += 1;
    loop {
        skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b'}') => {
                // Key absent: insert before the closing brace.
                let body = doc[..pos].trim_end();
                let sep = if body.ends_with('{') { "" } else { "," };
                return Ok(format!("{body}{sep}\"{key}\":{value}}}\n"));
            }
            Some(b'"') => {}
            other => return Err(format!("expected a key or '}}', got {other:?}")),
        }
        let this_key = parse_str(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        let vstart = pos;
        parse_value(bytes, &mut pos)?;
        if this_key == key {
            return Ok(format!("{}{}{}", &doc[..vstart], value, &doc[pos..]));
        }
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b',') {
            pos += 1;
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'"') => parse_str(b, pos).map(Value::Str),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!(
            "unexpected character {:?} at byte {}",
            *c as char, *pos
        )),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    other => return Err(format!("unsupported escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the schema's strings are
                // plain identifiers, but stay correct for any input).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Incremental writer for a flat JSON object, preserving field order.
#[derive(Debug, Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Writes a float field (`{}` formatting round-trips f64 exactly).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&format!("{v}"));
        self
    }

    /// Writes an optional unsigned integer field (`null` for `None`).
    pub fn opt_u64(&mut self, k: &str, v: Option<u64>) -> &mut Self {
        self.key(k);
        match v {
            Some(x) => self.buf.push_str(&x.to_string()),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Writes a string field (the schema's strings need no escaping, but
    /// quotes and backslashes are escaped anyway).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    /// Writes a nested object field from a finished writer.
    pub fn obj(&mut self, k: &str, v: ObjWriter) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.finish());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_matches_serde_wire_format() {
        let mut th = ObjWriter::new();
        th.f64("th1", 0.2).f64("th2", 0.6);
        let mut w = ObjWriter::new();
        w.u64("seed", 7).obj("thresholds", th);
        assert_eq!(
            w.finish(),
            r#"{"seed":7,"thresholds":{"th1":0.2,"th2":0.6}}"#
        );
    }

    #[test]
    fn parses_numbers_strings_null() {
        let v = parse(r#"{"a":1,"b":-2.5e3,"c":"CpuContention","d":null,"e":true}"#).unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(o["a"].as_u64(), Some(1));
        assert_eq!(o["b"].as_f64(), Some(-2500.0));
        assert_eq!(o["c"].as_str(), Some("CpuContention"));
        assert_eq!(o["d"], Value::Null);
        assert_eq!(o["e"], Value::Bool(true));
    }

    #[test]
    fn rejects_garbage_and_trailing() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("{\"a\"").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn float_round_trip() {
        for x in [0.83, 1.0 / 3.0, 1e-12, 123456.789] {
            let mut w = ObjWriter::new();
            w.f64("x", x);
            let v = parse(&w.finish()).unwrap();
            assert_eq!(v.as_obj().unwrap()["x"].as_f64(), Some(x));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut w = ObjWriter::new();
        w.str("s", "a\"b\\c\nd");
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.as_obj().unwrap()["s"].as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn splice_replaces_a_middle_key_and_keeps_the_rest() {
        let doc = r#"{"a":1,"cluster":{"old":true},"sched":{"kept":2}}"#;
        let out = splice_key(doc, "cluster", r#"{"new":3}"#).unwrap();
        assert_eq!(out, r#"{"a":1,"cluster":{"new":3},"sched":{"kept":2}}"#);
    }

    #[test]
    fn splice_appends_a_missing_key() {
        let out = splice_key("{\"a\":1}\n", "sched", "{}").unwrap();
        assert_eq!(out, "{\"a\":1,\"sched\":{}}\n");
        let out = splice_key("{}", "sched", "{\"x\":1}").unwrap();
        assert_eq!(out, "{\"sched\":{\"x\":1}}\n");
    }

    #[test]
    fn splice_is_not_fooled_by_braces_inside_strings() {
        let doc = r#"{"description":"a } inside { a string","cluster":{"v":1}}"#;
        let out = splice_key(doc, "cluster", r#"{"v":2}"#).unwrap();
        assert_eq!(
            out,
            r#"{"description":"a } inside { a string","cluster":{"v":2}}"#
        );
    }

    #[test]
    fn splice_rejects_a_non_object_document() {
        assert!(splice_key("[1,2]", "k", "{}").is_err());
        assert!(splice_key("", "k", "{}").is_err());
    }
}
