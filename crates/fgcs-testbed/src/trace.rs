//! The on-disk trace format.
//!
//! One record per unavailability occurrence, exactly the paper's schema:
//! "the start and end time of each occurrence of resource unavailability,
//! the corresponding failure state (S3, S4, or S5), and the available CPU
//! and memory for guest jobs" — plus the machine id and the raw
//! failure-condition end used for the reboot/failure split of URR.
//!
//! Two serializations are provided: JSON-lines (meta header line followed
//! by one record per line) and CSV (header row; `-` for open ends).

use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use fgcs_core::model::{FailureCause, Thresholds};

use crate::json::{
    self, field_f64, field_opt_u64, field_u64, get, get_f64, get_u64, Cursor, ObjWriter,
};
use crate::quality::TraceQualityReport;

// The record type is defined next to its assembler in `fgcs-core`;
// this module owns its serializations.
pub use fgcs_core::events::TraceRecord;

/// Trace-wide metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Generator seed.
    pub seed: u64,
    /// Number of machines.
    pub machines: u32,
    /// Trace length in days.
    pub days: u32,
    /// Monitor sampling period, seconds.
    pub sample_period: u64,
    /// Weekday the trace started on (0 = Monday).
    pub start_weekday: u8,
    /// Total span, seconds.
    pub span_secs: u64,
    /// Thresholds the detector used.
    pub thresholds: Thresholds,
}

/// Errors reading a serialized trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content, with a description.
    Parse(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse(m) => write!(f, "trace parse error: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A complete testbed trace: metadata plus all machines' occurrences.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Trace-wide metadata.
    pub meta: TraceMeta,
    /// All occurrences, sorted by `(machine, start)`.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Groups records per machine (keys `0..machines`, possibly sparse).
    pub fn per_machine(&self) -> BTreeMap<u32, Vec<&TraceRecord>> {
        let mut map: BTreeMap<u32, Vec<&TraceRecord>> = BTreeMap::new();
        for r in &self.records {
            map.entry(r.machine).or_default().push(r);
        }
        map
    }

    /// Total machine-days covered ("roughly 1800 machine-days" in the
    /// paper).
    pub fn machine_days(&self) -> u64 {
        self.meta.machines as u64 * self.meta.days as u64
    }

    /// Writes the trace as JSON lines: one meta line, then one record
    /// per line, each encoded into one reused buffer.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        let mut line = meta_to_json(&self.meta);
        line.push('\n');
        w.write_all(line.as_bytes())?;
        for r in &self.records {
            line.clear();
            let mut obj = ObjWriter::append(&mut line);
            record_fields(&mut obj, r);
            obj.finish().push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Reads a trace written by [`Trace::write_jsonl`].
    pub fn read_jsonl<R: BufRead>(r: R) -> Result<Trace, TraceError> {
        read_jsonl_lines(r, false).map(|(trace, _)| trace)
    }

    /// Reads a trace written by [`Trace::write_jsonl`], skipping and
    /// reporting damaged record lines instead of failing on the first.
    ///
    /// The meta line must still parse — without it nothing downstream
    /// can interpret the records, so a damaged header is a hard
    /// [`TraceError::Parse`]. Every damaged *record* line — one that is
    /// not UTF-8 included — is skipped and counted in the returned
    /// [`TraceQualityReport`] (`corrupt_lines` / `corrupt_line_numbers`,
    /// 1-based file line numbers); surviving records are counted per
    /// machine via `samples_used`-independent `parsed_records`. On an
    /// undamaged file this returns exactly what [`Trace::read_jsonl`]
    /// returns, plus a clean report.
    pub fn read_jsonl_recovering<R: BufRead>(
        r: R,
    ) -> Result<(Trace, TraceQualityReport), TraceError> {
        read_jsonl_lines(r, true)
    }

    /// Writes the records as CSV (metadata is *not* included; pair with
    /// JSONL for full fidelity).
    pub fn write_csv<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        writeln!(w, "machine,state,start,end,raw_end,avail_cpu,avail_mem_mb")?;
        for r in &self.records {
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                r.machine,
                r.state(),
                r.start,
                r.end.map(|e| e.to_string()).unwrap_or_else(|| "-".into()),
                r.raw_end
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.avail_cpu,
                r.avail_mem_mb,
            )?;
        }
        Ok(())
    }

    /// Reads records from [`Trace::write_csv`] output, attaching the
    /// given metadata.
    pub fn read_csv<R: BufRead>(r: R, meta: TraceMeta) -> Result<Trace, TraceError> {
        read_csv_lines(r, meta, false).map(|(trace, _)| trace)
    }

    /// Reads records from [`Trace::write_csv`] output like
    /// [`Trace::read_csv`], but skips and reports damaged lines instead
    /// of failing on the first (see [`Trace::read_jsonl_recovering`]).
    pub fn read_csv_recovering<R: BufRead>(
        r: R,
        meta: TraceMeta,
    ) -> Result<(Trace, TraceQualityReport), TraceError> {
        read_csv_lines(r, meta, true)
    }
}

/// Calls `line(n, bytes)` for every line of `r`, `n` counting from 1,
/// without the `\n` (or `\r\n`) that ends it, through one reused
/// buffer. A line is bytes: one that is not UTF-8 is its parser's to
/// reject, not an I/O error that ends the read.
fn for_each_line<R: BufRead>(
    mut r: R,
    mut line: impl FnMut(usize, &[u8]) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut buf = Vec::new();
    let mut n = 0;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        n += 1;
        let bytes = match buf.strip_suffix(b"\n") {
            Some(rest) => rest.strip_suffix(b"\r").unwrap_or(rest),
            None => &buf,
        };
        line(n, bytes)?;
    }
}

/// `str::trim(line).is_empty()` for a line that need not be UTF-8.
fn is_blank(line: &[u8]) -> bool {
    // Past ASCII whitespace, only a non-ASCII byte can begin more
    // (Unicode) whitespace.
    match line
        .iter()
        .position(|&b| !(b.is_ascii_whitespace() || b == 0x0B))
    {
        None => true,
        Some(i) => {
            !line[i].is_ascii()
                && std::str::from_utf8(&line[i..]).is_ok_and(|s| s.trim_start().is_empty())
        }
    }
}

/// Reads the record lines of `r` — every line after the first, which
/// goes to `first` — with `parse`, skipping blank ones. A strict read
/// fails on the first bad line, naming it `name(n)`; a `recover`ing one
/// skips it and counts it (and every machine it saw) in the report.
fn read_records<R: BufRead>(
    r: R,
    recover: bool,
    mut first: impl FnMut(&[u8]) -> Result<(), TraceError>,
    parse: impl Fn(&[u8]) -> Result<TraceRecord, String>,
    name: impl Fn(usize) -> String,
) -> Result<(Vec<TraceRecord>, TraceQualityReport), TraceError> {
    let mut records = Vec::new();
    let mut quality = TraceQualityReport::new();
    for_each_line(r, |n, line| {
        if n == 1 {
            return first(line);
        }
        if is_blank(line) {
            return Ok(());
        }
        match parse(line) {
            Ok(rec) => {
                if recover {
                    quality.machine_mut(rec.machine);
                }
                records.push(rec);
            }
            Err(e) if !recover => return Err(TraceError::Parse(format!("{}: {e}", name(n)))),
            Err(_) => {
                quality.corrupt_lines += 1;
                quality.corrupt_line_numbers.push(n);
            }
        }
        Ok(())
    })?;
    quality.parsed_records = records.len() as u64;
    Ok((records, quality))
}

fn read_jsonl_lines<R: BufRead>(
    r: R,
    recover: bool,
) -> Result<(Trace, TraceQualityReport), TraceError> {
    let mut meta = None;
    let (records, quality) = read_records(
        r,
        recover,
        |line| {
            let m = meta_from_json(line)
                .map_err(|e| TraceError::Parse(format!("bad meta line: {e}")))?;
            meta = Some(m);
            Ok(())
        },
        record_from_json,
        |n| format!("record {}", n - 1),
    )?;
    let meta = meta.ok_or_else(|| TraceError::Parse("empty trace file".into()))?;
    Ok((Trace { meta, records }, quality))
}

fn read_csv_lines<R: BufRead>(
    r: R,
    meta: TraceMeta,
    recover: bool,
) -> Result<(Trace, TraceQualityReport), TraceError> {
    let header = |_: &[u8]| Ok(());
    let (records, quality) = read_records(r, recover, header, record_from_csv_line, |n| {
        format!("line {n}")
    })?;
    Ok((Trace { meta, records }, quality))
}

fn record_from_csv_line(line: &[u8]) -> Result<TraceRecord, String> {
    let line = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 7 {
        return Err(format!("expected 7 fields, got {}", fields.len()));
    }
    let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>().map_err(|e| format!("{what}: {e}"))
    };
    let parse_opt = |s: &str, what: &str| -> Result<Option<u64>, String> {
        if s == "-" {
            Ok(None)
        } else {
            parse_u64(s, what).map(Some)
        }
    };
    let cause = match fields[1] {
        "S3" => FailureCause::CpuContention,
        "S4" => FailureCause::MemoryThrashing,
        "S5" => FailureCause::Revocation,
        other => return Err(format!("unknown state {other:?}")),
    };
    Ok(TraceRecord {
        machine: parse_u64(fields[0], "machine")? as u32,
        cause,
        start: parse_u64(fields[2], "start")?,
        end: parse_opt(fields[3], "end")?,
        raw_end: parse_opt(fields[4], "raw_end")?,
        avail_cpu: parse_avail_cpu(
            fields[5]
                .parse::<f64>()
                .map_err(|e| format!("avail_cpu: {e}"))?,
        )?,
        avail_mem_mb: parse_u64(fields[6], "avail_mem_mb")? as u32,
    })
}

/// The CSV loader's NaN/∞ gate: `"NaN".parse::<f64>()` succeeds in
/// Rust (and `1e999` overflows to `inf`), so a corrupted or recovered
/// trace can carry non-finite availability means that later panic the
/// `fgcs-stats` sorts. The JSONL parser gets the same gate from
/// [`json::get_f64`], so nothing downstream ever sees one.
fn parse_avail_cpu(v: f64) -> Result<f64, String> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("avail_cpu is not finite: {v}"))
    }
}

// JSON conversion helpers. The field order and encodings (unit enum
// variants as strings, `Option` as value-or-null) match what the
// previous serde-derived implementation wrote, so traces produced by
// older builds still parse and vice versa.

fn meta_to_json(m: &TraceMeta) -> String {
    let mut th = ObjWriter::new();
    th.f64("th1", m.thresholds.th1).f64("th2", m.thresholds.th2);
    let mut w = ObjWriter::new();
    w.u64("seed", m.seed)
        .u64("machines", m.machines as u64)
        .u64("days", m.days as u64)
        .u64("sample_period", m.sample_period)
        .u64("start_weekday", m.start_weekday as u64)
        .u64("span_secs", m.span_secs)
        .obj("thresholds", th);
    w.finish()
}

/// Writes one record's fields into the object `w` — the one record
/// encoding. [`Trace::write_jsonl`] writes them alone, one object per
/// line; other on-disk formats (the `fgcs-service` snapshot files)
/// write a field of their own first and then these, instead of
/// inventing a second encoding. `{}`-formatted f64s round-trip
/// bit-exactly (see `json::ObjWriter`).
pub fn record_fields<B: BorrowMut<String>>(w: &mut ObjWriter<B>, r: &TraceRecord) {
    w.u64("machine", r.machine as u64)
        .str("cause", cause_name(r.cause))
        .u64("start", r.start)
        .opt_u64("end", r.end)
        .opt_u64("raw_end", r.raw_end)
        .f64("avail_cpu", r.avail_cpu)
        .u64("avail_mem_mb", r.avail_mem_mb as u64);
}

const CAUSES: [FailureCause; 3] = [
    FailureCause::CpuContention,
    FailureCause::MemoryThrashing,
    FailureCause::Revocation,
];

fn cause_name(c: FailureCause) -> &'static str {
    match c {
        FailureCause::CpuContention => "CpuContention",
        FailureCause::MemoryThrashing => "MemoryThrashing",
        FailureCause::Revocation => "Revocation",
    }
}

fn meta_from_json(line: &[u8]) -> Result<TraceMeta, String> {
    let line = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let v = json::parse(line)?;
    let o = v.as_obj().ok_or("meta line is not an object")?;
    let th = get(o, "thresholds")?
        .as_obj()
        .ok_or("thresholds is not an object")?;
    Ok(TraceMeta {
        seed: get_u64(o, "seed")?,
        machines: get_u64(o, "machines")? as u32,
        days: get_u64(o, "days")? as u32,
        sample_period: get_u64(o, "sample_period")?,
        start_weekday: get_u64(o, "start_weekday")? as u8,
        span_secs: get_u64(o, "span_secs")?,
        thresholds: Thresholds::new(get_f64(th, "th1")?, get_f64(th, "th2")?),
    })
}

/// Decodes one record from a JSON object line (the inverse of
/// [`record_fields`]) in one pass over its bytes, building no object:
/// the one record decoder, for trace files and `fgcs-service` snapshots
/// alike.
///
/// It reads what a parsed object would hold: unknown fields are
/// checked and ignored (so wrappers may add their own discriminators),
/// a repeated key's last value wins, and each field's value must then
/// have the type [`json::get_u64`] and its siblings require — integers
/// exact, non-finite `avail_cpu` values rejected here, at the loader
/// boundary. A line that is not UTF-8 is an error, not a panic.
pub fn record_from_json(line: &[u8]) -> Result<TraceRecord, String> {
    let mut cause = None;
    let [mut machine, mut start, mut end, mut raw_end, mut avail_cpu, mut avail_mem_mb] =
        [const { None }; 6];
    let mut cur = Cursor::new(line);
    cur.object(|key, cur| {
        let slot = match &*key {
            "cause" => {
                cause = Some(cur.string_or_skip()?);
                return Ok(());
            }
            "machine" => &mut machine,
            "start" => &mut start,
            "end" => &mut end,
            "raw_end" => &mut raw_end,
            "avail_cpu" => &mut avail_cpu,
            "avail_mem_mb" => &mut avail_mem_mb,
            _ => return cur.skip_value(),
        };
        *slot = Some(cur.value()?);
        Ok(())
    })?;
    cur.finish()?;
    let cause = match cause {
        Some(Some(name)) => CAUSES
            .into_iter()
            .find(|&c| cause_name(c) == name)
            .ok_or_else(|| format!("unknown cause {name:?}"))?,
        Some(None) => return Err(json::not_a("cause", "a string")),
        None => return Err(json::missing("cause")),
    };
    Ok(TraceRecord {
        machine: field_u64("machine", machine.as_ref())? as u32,
        cause,
        start: field_u64("start", start.as_ref())?,
        end: field_opt_u64("end", end.as_ref())?,
        raw_end: field_opt_u64("raw_end", raw_end.as_ref())?,
        avail_cpu: field_f64("avail_cpu", avail_cpu.as_ref())?,
        avail_mem_mb: field_u64("avail_mem_mb", avail_mem_mb.as_ref())? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let meta = TraceMeta {
            seed: 7,
            machines: 2,
            days: 3,
            sample_period: 15,
            start_weekday: 0,
            span_secs: 3 * 86_400,
            thresholds: Thresholds::LINUX_TESTBED,
        };
        let records = vec![
            TraceRecord {
                machine: 0,
                cause: FailureCause::CpuContention,
                start: 1000,
                end: Some(2000),
                raw_end: Some(1700),
                avail_cpu: 0.83,
                avail_mem_mb: 812,
            },
            TraceRecord {
                machine: 0,
                cause: FailureCause::Revocation,
                start: 50_000,
                end: Some(50_400),
                raw_end: Some(50_040),
                avail_cpu: 0.95,
                avail_mem_mb: 900,
            },
            TraceRecord {
                machine: 1,
                cause: FailureCause::MemoryThrashing,
                start: 9_000,
                end: None,
                raw_end: None,
                avail_cpu: 0.75,
                avail_mem_mb: 400,
            },
        ];
        Trace { meta, records }
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(&buf[..], t.meta.clone()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_has_expected_shape() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("machine,state,"));
        assert!(lines[1].starts_with("0,S3,1000,2000,1700,"));
        assert!(lines[3].contains(",S4,9000,-,-,"));
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(Trace::read_jsonl(&b"not json\n"[..]).is_err());
        assert!(Trace::read_jsonl(&b""[..]).is_err());
    }

    #[test]
    fn csv_rejects_bad_state() {
        let meta = sample_trace().meta;
        let bad = "machine,state,start,end,raw_end,avail_cpu,avail_mem_mb\n0,S9,1,2,2,0.5,100\n";
        let err = Trace::read_csv(bad.as_bytes(), meta).unwrap_err();
        assert!(matches!(err, TraceError::Parse(_)));
    }

    #[test]
    fn csv_rejects_wrong_arity() {
        let meta = sample_trace().meta;
        let bad = "header\n0,S3,1\n";
        assert!(Trace::read_csv(bad.as_bytes(), meta).is_err());
    }

    #[test]
    fn recovering_jsonl_equals_strict_on_clean_input() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let (back, q) = Trace::read_jsonl_recovering(&buf[..]).unwrap();
        assert_eq!(back, t);
        assert!(q.is_clean());
        assert_eq!(q.parsed_records, t.records.len() as u64);
    }

    #[test]
    fn recovering_jsonl_skips_and_reports_damage() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[2] = "####corrupt####".into(); // second record
        let text = lines.join("\n");
        let (back, q) = Trace::read_jsonl_recovering(text.as_bytes()).unwrap();
        assert_eq!(back.records.len(), t.records.len() - 1);
        assert_eq!(back.records[0], t.records[0], "surviving records intact");
        assert_eq!(back.records[1], t.records[2]);
        assert_eq!(q.corrupt_lines, 1);
        assert_eq!(q.corrupt_line_numbers, vec![3]);
        assert_eq!(q.parsed_records, 2);
    }

    #[test]
    fn recovering_jsonl_still_requires_the_meta_line() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let damaged = format!("not json\n{}", text.lines().nth(1).unwrap());
        assert!(Trace::read_jsonl_recovering(damaged.as_bytes()).is_err());
    }

    #[test]
    fn a_64_bit_seed_round_trips_exactly() {
        // Through f64, 2^60 + 1 read back as 2^60.
        let mut t = sample_trace();
        for seed in [(1u64 << 60) + 1, (1 << 53) + 1, u64::MAX] {
            t.meta.seed = seed;
            let mut buf = Vec::new();
            t.write_jsonl(&mut buf).unwrap();
            assert_eq!(Trace::read_jsonl(&buf[..]).unwrap(), t, "{seed}");
        }
    }

    /// `text` with one byte of line `line` (0-based) set to 0xFF.
    fn flip_a_byte(text: &[u8], line: usize) -> Vec<u8> {
        let start = text
            .split(|&b| b == b'\n')
            .take(line)
            .map(|l| l.len() + 1)
            .sum::<usize>();
        let mut out = text.to_vec();
        out[start + 3] = 0xFF;
        out
    }

    #[test]
    fn recovering_readers_count_a_non_utf8_line_as_one_corrupt_line() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let damaged = flip_a_byte(&buf, 2); // the second record
        let (back, q) = Trace::read_jsonl_recovering(&damaged[..]).unwrap();
        assert_eq!(back.records, [t.records[0], t.records[2]]);
        assert_eq!(q.corrupt_lines, 1);
        assert_eq!(q.corrupt_line_numbers, vec![3]);
        assert_eq!(q.parsed_records, 2);
        // The strict reader names the record instead of an I/O error.
        let err = Trace::read_jsonl(&damaged[..]).unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse(m) if m.starts_with("record 2:")),
            "{err}"
        );
        // A bad meta line is still fatal.
        assert!(matches!(
            Trace::read_jsonl_recovering(&flip_a_byte(&buf, 0)[..]),
            Err(TraceError::Parse(_))
        ));

        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        let damaged = flip_a_byte(&csv, 3); // the third record
        let (back, q) = Trace::read_csv_recovering(&damaged[..], t.meta.clone()).unwrap();
        assert_eq!(back.records, &t.records[..2]);
        assert_eq!(q.corrupt_line_numbers, vec![4]);
        assert!(Trace::read_csv(&damaged[..], t.meta.clone()).is_err());
    }

    #[test]
    fn blank_lines_are_what_str_trim_calls_blank() {
        for line in ["", " ", "\t\r", "\u{0B}\u{0C}", " \u{3000}\u{85}"] {
            assert!(is_blank(line.as_bytes()), "{line:?}");
        }
        for line in ["{}", " x", "\u{3000}x"] {
            assert!(!is_blank(line.as_bytes()), "{line:?}");
        }
        assert!(!is_blank(b" \xff"));
    }

    #[test]
    fn recovering_csv_skips_and_reports_damage() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[1] = lines[1][..5].to_string(); // truncated mid-record
        lines.push("0,S9,1,2,2,0.5,100".into()); // bad state
        let text = lines.join("\n");
        let (back, q) = Trace::read_csv_recovering(text.as_bytes(), t.meta.clone()).unwrap();
        assert_eq!(back.records, &t.records[1..]);
        assert_eq!(q.corrupt_lines, 2);
        assert_eq!(q.corrupt_line_numbers, vec![2, 5]);
    }

    #[test]
    fn recovering_csv_equals_strict_on_clean_input() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let (back, q) = Trace::read_csv_recovering(&buf[..], t.meta.clone()).unwrap();
        assert_eq!(back, t);
        assert!(q.is_clean());
    }

    #[test]
    fn non_finite_avail_cpu_is_rejected_at_the_loader() {
        // CSV: Rust's f64 parser happily accepts "NaN" and "inf".
        let meta = sample_trace().meta;
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!(
                "machine,state,start,end,raw_end,avail_cpu,avail_mem_mb\n0,S3,1,2,2,{bad},100\n"
            );
            let err = Trace::read_csv(text.as_bytes(), meta.clone()).unwrap_err();
            assert!(
                matches!(&err, TraceError::Parse(m) if m.contains("not finite")),
                "{bad}: {err}"
            );
            // The recovering loader counts it as a corrupt line instead
            // of letting the NaN through to the stats sorts.
            let (t, q) = Trace::read_csv_recovering(text.as_bytes(), meta.clone()).unwrap();
            assert!(t.records.is_empty());
            assert_eq!(q.corrupt_lines, 1, "{bad}");
        }
        // JSONL: a JSON number literal can still overflow to infinity.
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let meta_line = String::from_utf8(buf)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        let text = format!(
            "{meta_line}\n{{\"machine\":0,\"cause\":\"CpuContention\",\"start\":1,\
             \"end\":2,\"raw_end\":2,\"avail_cpu\":1e999,\"avail_mem_mb\":100}}\n"
        );
        assert!(Trace::read_jsonl(text.as_bytes()).is_err());
        let (back, q) = Trace::read_jsonl_recovering(text.as_bytes()).unwrap();
        assert!(back.records.is_empty());
        assert_eq!(q.corrupt_lines, 1);
    }

    #[test]
    fn recovering_jsonl_survives_truncation_mid_record() {
        // The crash-during-checkpoint shape: the file ends mid-way
        // through a record's bytes. The loader must keep every complete
        // record and report exactly one corrupt line — never a
        // half-applied record.
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        // Cut the last record line roughly in half (drop the trailing
        // newline plus half the record).
        let full = String::from_utf8(buf).unwrap();
        let last_len = full.trim_end().lines().last().unwrap().len();
        let cut = full.trim_end().len() - last_len / 2;
        let truncated = &full[..cut];
        let (back, q) = Trace::read_jsonl_recovering(truncated.as_bytes()).unwrap();
        assert_eq!(back.records, &t.records[..t.records.len() - 1]);
        assert_eq!(q.corrupt_lines, 1);
        assert_eq!(q.parsed_records, (t.records.len() - 1) as u64);
    }

    #[test]
    fn record_json_helpers_round_trip_and_ignore_wrappers() {
        // The service snapshot format wraps record lines with a "kind"
        // discriminator; the parser must ignore unknown fields.
        let r = sample_trace().records[0];
        let mut w = ObjWriter::new();
        record_fields(&mut w, &r);
        let plain = w.finish();
        assert_eq!(record_from_json(plain.as_bytes()).unwrap(), r);
        let wrapped = format!("{{\"kind\":\"record\",{}", &plain[1..]);
        assert_eq!(record_from_json(wrapped.as_bytes()).unwrap(), r);
    }

    #[test]
    fn per_machine_grouping() {
        let t = sample_trace();
        let by = t.per_machine();
        assert_eq!(by.len(), 2);
        assert_eq!(by[&0].len(), 2);
        assert_eq!(by[&1].len(), 1);
        assert_eq!(t.machine_days(), 6);
    }

    #[test]
    fn record_accessors() {
        let t = sample_trace();
        assert_eq!(t.records[0].state(), fgcs_core::model::AvailState::S3);
        assert_eq!(t.records[0].duration(), Some(1000));
        assert_eq!(t.records[0].raw_duration(), Some(700));
        assert_eq!(t.records[2].duration(), None);
    }
}
