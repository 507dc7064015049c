//! A minimal JSON reader/writer for the trace schema.
//!
//! The build environment has no crate registry, so the trace layer
//! cannot use `serde_json`. This module implements the small JSON subset
//! the JSONL trace format needs — objects of numbers, strings, `null`
//! and booleans — with the same wire format the previous serde-derived
//! implementation produced, so traces written by older builds still
//! parse.
//!
//! Everything reads through one tokenizer, `Cursor`: [`parse`] builds
//! a [`Value`] tree with it, and the trace record decoder
//! (`trace::record_from_json`) walks a record line's fields with it
//! without building one. An unsigned integer literal that fits a `u64`
//! reads as that exact integer ([`Value::Int`]), never through `f64`.

use std::borrow::{BorrowMut, Cow};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// 2^64 as an `f64`: the first float `as_u64` must not saturate to
/// `u64::MAX`.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// A parsed JSON value (subset: no arrays — the trace schema has none).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned integer literal (digits only) that fits a `u64`,
    /// kept exactly.
    Int(u64),
    /// Any other number, as the nearest `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as u64, if it is a non-negative integral number below
    /// 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::Num(n) if (0.0..TWO_POW_64).contains(&n) && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as f64, if numeric (an integer rounds to the nearest
    /// `f64`, exactly as its literal would parse).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
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
// service snapshot loaders. Errors name the field. The `field_*` forms
// take the field's value (`None` when absent), so the trace record
// decoder applies the same rules without building the object.

/// The value of field `key`.
pub fn get<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a Value, String> {
    present(key, obj.get(key))
}

fn present<'a>(key: &str, v: Option<&'a Value>) -> Result<&'a Value, String> {
    v.ok_or_else(|| missing(key))
}

pub(crate) fn missing(key: &str) -> String {
    format!("missing field {key:?}")
}

pub(crate) fn not_a(key: &str, what: &str) -> String {
    format!("field {key:?} is not {what}")
}

/// Field `key` as an unsigned integer.
pub fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    field_u64(key, obj.get(key))
}

pub(crate) fn field_u64(key: &str, v: Option<&Value>) -> Result<u64, String> {
    present(key, v)?
        .as_u64()
        .ok_or_else(|| not_a(key, "an unsigned integer"))
}

/// Field `key` as an unsigned integer, or `default` when the key is
/// absent (a field older file versions did not write). A present key
/// of the wrong type is still an error.
pub fn get_u64_or(obj: &BTreeMap<String, Value>, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        v => field_u64(key, v),
    }
}

/// Field `key` as a finite number: a literal that overflows to
/// infinity is rejected here, at the loader boundary.
pub fn get_f64(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    field_f64(key, obj.get(key))
}

pub(crate) fn field_f64(key: &str, v: Option<&Value>) -> Result<f64, String> {
    let v = present(key, v)?
        .as_f64()
        .ok_or_else(|| not_a(key, "a number"))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(not_a(key, "finite"))
    }
}

/// Field `key` as an unsigned integer, `None` for `null`.
pub fn get_opt_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, String> {
    field_opt_u64(key, obj.get(key))
}

pub(crate) fn field_opt_u64(key: &str, v: Option<&Value>) -> Result<Option<u64>, String> {
    match present(key, v)? {
        Value::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| not_a(key, "an unsigned integer or null")),
    }
}

/// Field `key` as a string.
pub fn get_str<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| not_a(key, "a string"))
}

/// Top-level field `key` of the JSON object `doc` as a string, read
/// without building the object: what `get_str(parse(doc)?, key)` returns
/// (the last of duplicated keys wins), with the same errors for a
/// missing or non-string field.
pub fn get_str_in<'a>(doc: &'a [u8], key: &str) -> Result<Cow<'a, str>, String> {
    let mut cur = Cursor::new(doc);
    let mut found = None;
    cur.object(|k, cur| {
        if k == key {
            found = Some(cur.string_or_skip()?);
            Ok(())
        } else {
            cur.skip_value()
        }
    })?;
    cur.finish()?;
    match found {
        Some(Some(s)) => Ok(s),
        Some(None) => Err(not_a(key, "a string")),
        None => Err(missing(key)),
    }
}

/// Parses one JSON document. Returns an error message on malformed input
/// or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut cur = Cursor::new(input.as_bytes());
    let v = cur.value()?;
    cur.finish()?;
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
    let mut cur = Cursor::new(doc.as_bytes());
    if cur.peek() != Some(b'{') {
        return Err("document is not a JSON object".into());
    }
    cur.pos += 1;
    loop {
        match cur.peek() {
            Some(b'}') => {
                // Key absent: insert before the closing brace.
                let body = doc[..cur.pos].trim_end();
                let sep = if body.ends_with('{') { "" } else { "," };
                return Ok(format!("{body}{sep}\"{key}\":{value}}}\n"));
            }
            Some(b'"') => {}
            other => return Err(format!("expected a key or '}}', got {other:?}")),
        }
        let this_key = cur.string()?;
        cur.colon()?;
        cur.peek();
        let vstart = cur.pos;
        cur.skip_value()?;
        if this_key == key {
            return Ok(format!("{}{}{}", &doc[..vstart], value, &doc[cur.pos..]));
        }
        if cur.peek() == Some(b',') {
            cur.pos += 1;
        }
    }
}

/// A read position in a JSON document's bytes: the one tokenizer under
/// [`parse`], [`get_str_in`], [`splice_key`] and the trace record
/// decoder. The document need not be UTF-8; a string in it must be.
pub(crate) struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `b`.
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    /// Skips whitespace, then returns the next byte without consuming
    /// it.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.pos) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    /// Requires the document to end here (trailing whitespace allowed).
    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing characters at byte {}", self.pos)),
        }
    }

    fn colon(&mut self) -> Result<(), String> {
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads one value and builds it.
    pub(crate) fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|key, cur| {
                    map.insert(key.into_owned(), cur.value()?);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => Err(format!(
                "unexpected character {:?} at byte {}",
                c as char, self.pos
            )),
        }
    }

    /// Reads one value, checking it exactly as [`Cursor::value`] would
    /// but building nothing on the heap.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|_, cur| cur.skip_value()),
            Some(b'"') => self.string().map(drop),
            // A literal or a number: its `Value` owns no heap memory.
            _ => self.value().map(drop),
        }
    }

    /// Reads one value: `Some` string (borrowed from the document where
    /// it has no escapes), or `None` when the value is not a string.
    pub(crate) fn string_or_skip(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Some),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Reads an object, handing each member's key to `member` with the
    /// cursor at its value; `member` must read that value.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() != Some(b'{') {
            return Err(format!("expected an object at byte {}", self.pos));
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.colon()?;
            member(key, self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A number: every byte that can belong to one, then digits only →
    /// the exact `u64` (when it fits), anything else → Rust's `f64`
    /// parse of the whole run.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.b.get(self.pos) {
            self.pos += 1;
        }
        let run = &self.b[start..self.pos];
        if let Some(n) = exact_u64(run) {
            return Ok(Value::Int(n));
        }
        // The run is ASCII by construction.
        let text = std::str::from_utf8(run).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    /// A string, borrowed from the document unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        debug_assert_eq!(self.b[self.pos], b'"');
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = self.b[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
            else {
                return Err("unterminated string".into());
            };
            self.pos += len;
            let run = std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?;
            if self.b[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            self.pos += 1;
            s.push(match self.b.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                other => return Err(format!("unsupported escape {other:?}")),
            });
            self.pos += 1;
        }
    }
}

/// `run` as a `u64` when it is a non-empty run of ASCII digits whose
/// value fits; `None` otherwise (a sign, a fraction, an exponent, or a
/// value of 2^64 or more, which all read as `f64`).
fn exact_u64(run: &[u8]) -> Option<u64> {
    if run.is_empty() {
        return None;
    }
    run.iter().try_fold(0u64, |n, &c| {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// Incremental writer for a flat JSON object, preserving field order.
///
/// `ObjWriter::new()` writes into a string of its own; `ObjWriter::append`
/// writes at the end of a borrowed one, so a caller can put many objects
/// into one reused buffer. Both produce the same bytes.
#[derive(Debug)]
pub struct ObjWriter<B: BorrowMut<String> = String> {
    buf: B,
    /// Where this object's `{` sits in `buf`.
    start: usize,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjWriter::append(String::new())
    }
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

impl<B: BorrowMut<String>> ObjWriter<B> {
    /// Starts an empty object at the end of `buf`.
    pub fn append(mut buf: B) -> Self {
        let out: &mut String = buf.borrow_mut();
        let start = out.len();
        out.push('{');
        ObjWriter { buf, start }
    }

    fn out(&mut self) -> &mut String {
        self.buf.borrow_mut()
    }

    fn key(&mut self, k: &str) {
        let first = self.buf.borrow().len() == self.start + 1;
        let out = self.out();
        if !first {
            out.push(',');
        }
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out(), "{v}");
        self
    }

    /// Writes a float field (`{}` formatting round-trips f64 exactly).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out(), "{v}");
        self
    }

    /// Writes an optional unsigned integer field (`null` for `None`).
    pub fn opt_u64(&mut self, k: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(x) => self.u64(k, x),
            None => {
                self.key(k);
                self.out().push_str("null");
                self
            }
        }
    }

    /// Writes a string field (the schema's strings need no escaping, but
    /// quotes and backslashes are escaped anyway).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let out = self.out();
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// Writes a nested object field from a finished writer.
    pub fn obj(&mut self, k: &str, v: ObjWriter) -> &mut Self {
        self.key(k);
        let nested = v.finish();
        self.out().push_str(&nested);
        self
    }

    /// Closes the object and returns the buffer it was written into.
    pub fn finish(mut self) -> B {
        self.out().push('}');
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
    fn integers_are_exact_up_to_u64_max() {
        for n in [(1u64 << 53) + 1, (1 << 60) + 1, u64::MAX - 1, u64::MAX] {
            let mut w = ObjWriter::new();
            w.u64("n", n);
            let v = parse(&w.finish()).unwrap();
            assert_eq!(v.as_obj().unwrap()["n"].as_u64(), Some(n), "{n}");
            assert_eq!(v.as_obj().unwrap()["n"].as_f64(), Some(n as f64), "{n}");
        }
    }

    #[test]
    fn a_number_past_u64_is_no_unsigned_integer() {
        // 2^64 used to saturate to u64::MAX.
        for text in ["18446744073709551616", "1.8446744073709552e19", "1e20"] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert!(
                v.as_f64().unwrap() >= 18_446_744_073_709_551_616.0,
                "{text}"
            );
        }
    }

    #[test]
    fn every_number_reads_as_it_did_through_f64() {
        // Exact integers are new; every value that read before reads to
        // the same number, and non-integers are still refused as u64.
        for (text, as_u64) in [
            ("0", Some(0)),
            ("007", Some(7)),
            ("-0", Some(0)),
            ("1e3", Some(1000)),
            ("1000.0", Some(1000)),
            ("9007199254740992", Some(9_007_199_254_740_992)),
            ("-1", None),
            ("0.5", None),
            ("1.", Some(1)),
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_u64(), as_u64, "{text}");
            assert_eq!(v.as_f64(), text.parse::<f64>().ok(), "{text}");
        }
        for bad in ["-", "1e", "1-2", "--1"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn str_field_reads_like_the_parsed_object() {
        let doc = r#"{"kind":"record","a":{"kind":1},"kind":"last\"q"}"#;
        assert_eq!(get_str_in(doc.as_bytes(), "kind").unwrap(), "last\"q");
        let parsed = parse(doc).unwrap();
        assert_eq!(
            get_str(parsed.as_obj().unwrap(), "kind").unwrap(),
            "last\"q"
        );
        assert!(get_str_in(br#"{"kind":1}"#, "kind").is_err());
        assert!(get_str_in(br#"{"other":"x"}"#, "kind").is_err());
        assert!(get_str_in(br#"{"kind":"x"} tail"#, "kind").is_err());
        assert!(get_str_in(b"{\"kind\":\"\xff\"}", "kind").is_err());
    }

    #[test]
    fn a_borrowed_writer_appends_the_same_bytes() {
        let mut buf = String::from("before\n");
        let mut w = ObjWriter::append(&mut buf);
        w.u64("a", 1).opt_u64("b", None).str("c", "x\"y");
        w.finish().push('\n');
        let mut own = ObjWriter::new();
        own.u64("a", 1).opt_u64("b", None).str("c", "x\"y");
        assert_eq!(buf, format!("before\n{}\n", own.finish()));
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
