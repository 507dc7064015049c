//! Property tests of the JSONL record codec: whatever `record_fields`
//! writes, `record_from_json` reads back bit for bit, and on any line —
//! keys reordered, unknown fields, the snapshot's `"kind"` wrapper, a
//! repeated key, a damaged byte — it decodes what a parsed object holds
//! (`json::parse` plus the `get_*` accessors, the map-based decoder it
//! replaced).

use fgcs_core::model::{FailureCause, Thresholds};
use fgcs_testbed::json::{self, get_f64, get_opt_u64, get_str, get_u64, ObjWriter};
use fgcs_testbed::trace::{record_fields, record_from_json, Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// `r` as one JSON object: the line `Trace::write_jsonl` writes.
fn record_to_json(r: &TraceRecord) -> String {
    let mut w = ObjWriter::new();
    record_fields(&mut w, r);
    w.finish()
}

/// The map-based decoder: parse the whole object, then read each field.
fn decode_through_a_map(line: &str) -> Result<TraceRecord, String> {
    let v = json::parse(line)?;
    let o = v.as_obj().ok_or("record line is not an object")?;
    let cause = match get_str(o, "cause")? {
        "CpuContention" => FailureCause::CpuContention,
        "MemoryThrashing" => FailureCause::MemoryThrashing,
        "Revocation" => FailureCause::Revocation,
        other => return Err(format!("unknown cause {other:?}")),
    };
    Ok(TraceRecord {
        machine: get_u64(o, "machine")? as u32,
        cause,
        start: get_u64(o, "start")?,
        end: get_opt_u64(o, "end")?,
        raw_end: get_opt_u64(o, "raw_end")?,
        avail_cpu: get_f64(o, "avail_cpu")?,
        avail_mem_mb: get_u64(o, "avail_mem_mb")? as u32,
    })
}

/// A uniform index below `n`.
fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A `u64` from the edges as often as from the middle.
fn edgy_u64(rng: &mut TestRng) -> u64 {
    const EDGES: [u64; 8] = [
        0,
        1,
        1 << 53,
        (1 << 53) + 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
        4_294_967_296,
    ];
    match below(rng, 3) {
        0 => EDGES[below(rng, EDGES.len())],
        1 => rng.next_u64() >> below(rng, 64),
        _ => rng.next_u64(),
    }
}

/// Any finite `f64` bit pattern: subnormals, `-0.0` and huge values
/// included.
fn finite_f64(rng: &mut TestRng) -> f64 {
    loop {
        let x = match below(rng, 4) {
            0 => rng.next_f64(),
            1 => [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, 0.83][below(rng, 6)],
            _ => f64::from_bits(rng.next_u64()),
        };
        if x.is_finite() {
            return x;
        }
    }
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    proptest::strategy::fn_strategy(|rng: &mut TestRng| {
        let cause = [
            FailureCause::CpuContention,
            FailureCause::MemoryThrashing,
            FailureCause::Revocation,
        ][below(rng, 3)];
        let opt = |rng: &mut TestRng| (below(rng, 4) != 0).then(|| edgy_u64(rng));
        TraceRecord {
            machine: edgy_u64(rng) as u32,
            cause,
            start: edgy_u64(rng),
            end: opt(rng),
            raw_end: opt(rng),
            avail_cpu: finite_f64(rng),
            avail_mem_mb: edgy_u64(rng) as u32,
        }
    })
}

/// Equal field for field, `avail_cpu` by its bits (`-0.0 != 0.0`).
fn same(a: &TraceRecord, b: &TraceRecord) -> bool {
    a == b && a.avail_cpu.to_bits() == b.avail_cpu.to_bits()
}

/// The top-level `"key":value` members of a flat canonical record line.
fn members(line: &str) -> Vec<String> {
    let inner = &line[1..line.len() - 1];
    // Canonical record values hold no commas (the cause names are plain).
    inner.split(',').map(String::from).collect()
}

/// Fields a reader must check and ignore.
const UNKNOWN: [&str; 7] = [
    r#""kind":"record""#,
    r#""note":"a\"q\\/\/\n\t\r é""#,
    r#""nested":{"a":1,"b":{"c":null,"d":"}"}}"#,
    r#""flag":true"#,
    r#""neg":-1.5e-3"#,
    r#""big":18446744073709551616"#,
    r#""empty":{}"#,
];

/// Values a repeated key may carry before (or after) its real one.
const DECOYS: [&str; 6] = ["\"x\"", "null", "-1", "1e999", "{\"a\":2}", "7"];

/// Whitespace JSON allows between tokens.
fn ws(rng: &mut TestRng) -> &'static str {
    ["", "", "", " ", "\t", "\r\n "][below(rng, 6)]
}

/// `line` rewritten: members shuffled, unknown fields and repeated keys
/// mixed in, whitespace around every member. Also returns whether the
/// real values still win (no decoy was placed after its real member).
fn rewrite(line: &str, rng: &mut TestRng) -> (String, bool) {
    let mut parts = members(line);
    for i in (1..parts.len()).rev() {
        parts.swap(i, below(rng, i + 1));
    }
    for _ in 0..below(rng, 3) {
        let at = below(rng, parts.len() + 1);
        parts.insert(at, UNKNOWN[below(rng, UNKNOWN.len())].into());
    }
    let mut real_wins = true;
    if below(rng, 2) == 0 {
        let real = below(rng, 7);
        let key = members(line)[real].split(':').next().unwrap().to_string();
        let pos = parts
            .iter()
            .position(|p| p.starts_with(&format!("{key}:")))
            .unwrap();
        let decoy = format!("{key}:{}", DECOYS[below(rng, DECOYS.len())]);
        if below(rng, 4) == 0 {
            parts.insert(pos + 1, decoy);
            real_wins = false;
        } else {
            parts.insert(pos, decoy);
        }
    }
    let body: Vec<String> = parts
        .iter()
        .map(|p| {
            let (k, v) = p.split_once(':').unwrap();
            format!("{}{k}{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng))
        })
        .collect();
    (
        format!("{}{{{}}}{}", ws(rng), body.join(","), ws(rng)),
        real_wins,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_written_record_reads_back_bit_for_bit(r in arb_record()) {
        let line = record_to_json(&r);
        let back = record_from_json(line.as_bytes()).map_err(TestCaseError::fail)?;
        prop_assert!(same(&back, &r), "{line}: {back:?}");
        let mapped = decode_through_a_map(&line).map_err(TestCaseError::fail)?;
        prop_assert!(same(&mapped, &r), "{line}");
    }

    #[test]
    fn a_rewritten_line_decodes_as_its_parsed_object(r in arb_record(), seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let (line, real_wins) = rewrite(&record_to_json(&r), &mut rng);
        let decoded = record_from_json(line.as_bytes());
        let mapped = decode_through_a_map(&line);
        match (&decoded, &mapped) {
            (Ok(a), Ok(b)) => prop_assert!(same(a, b), "{line}"),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "{line}: decoder {decoded:?}, map {mapped:?}"),
        }
        if real_wins {
            let a = decoded.map_err(TestCaseError::fail)?;
            prop_assert!(same(&a, &r), "{line}");
        }
    }

    #[test]
    fn a_damaged_line_decodes_as_its_parsed_object(
        r in arb_record(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let mut line = record_to_json(&r).into_bytes();
        let at = (at % line.len() as u64) as usize;
        line[at] = byte;
        let decoded = record_from_json(&line);
        match std::str::from_utf8(&line) {
            Ok(text) => {
                let mapped = decode_through_a_map(text);
                match (&decoded, &mapped) {
                    (Ok(a), Ok(b)) => prop_assert!(same(a, b), "{text}"),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "{text}: decoder {decoded:?}, map {mapped:?}"),
                }
            }
            Err(_) => prop_assert!(decoded.is_err(), "a non-UTF-8 line decoded"),
        }
    }

    #[test]
    fn a_trace_round_trips_with_any_seed(
        records in prop::collection::vec(arb_record(), 0..40),
        seed in any::<u64>(),
    ) {
        let trace = Trace {
            meta: TraceMeta {
                seed,
                machines: 3,
                days: 1,
                sample_period: 15,
                start_weekday: 2,
                span_secs: 86_400,
                thresholds: Thresholds::LINUX_TESTBED,
            },
            records,
        };
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        prop_assert_eq!(&back.meta, &trace.meta);
        prop_assert_eq!(back.records.len(), trace.records.len());
        for (a, b) in back.records.iter().zip(&trace.records) {
            prop_assert!(same(a, b), "{a:?} != {b:?}");
        }
        let (recovered, quality) = Trace::read_jsonl_recovering(&buf[..]).unwrap();
        prop_assert_eq!(recovered, back);
        prop_assert!(quality.is_clean());
    }
}
