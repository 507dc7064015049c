//! Crash-safe snapshots of the ingest state (DESIGN.md §11).
//!
//! A snapshot is one self-describing JSONL file:
//!
//! ```text
//! {"kind":"snapshot","version":1,"machines":M,"elapsed_ms":E}
//! {"kind":"machine", ... one per machine, ascending id ... }
//! {"kind":"record",  ... every occurrence record, machine-major ... }
//! {"kind":"transition","machine":..,"seq":..,"at":..,"state":..}
//! {"kind":"counters", ... the ten accounting counters ... }
//! {"kind":"end","lines":N,"crc":C}
//! ```
//!
//! Record lines reuse the `fgcs-testbed` trace serialization verbatim
//! (wrapped with a `kind` discriminator the record parser ignores), so
//! the f64 availability means round-trip bit-exactly. The trailer's
//! `crc` is [`fgcs_wire::crc32`] over every byte before the trailer
//! line, and `lines` counts those lines — a file truncated mid-write
//! fails both checks and the loader falls back to the previous snapshot.
//!
//! **Atomicity protocol.** A snapshot is written to `<name>.tmp`,
//! fsynced, renamed over `<name>`, and the directory is fsynced; a
//! crash at any point leaves either the old set of complete snapshots
//! or the old set plus one new complete snapshot, never a partial file
//! under a final name. The two most recent snapshots are kept so a
//! snapshot corrupted *after* the write (disk damage) still leaves a
//! fallback.
//!
//! **Restore invariants.** A snapshot is applied all-or-nothing: the
//! whole file is parsed and every machine's state rebuilt *before*
//! anything is installed; any inconsistency (CRC, counts, a closed
//! record marked open, a transition sequence the counter would reuse)
//! rejects the file and the loader tries the next-older one.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fgcs_core::detector::DetectorSnapshot;
use fgcs_core::model::{AvailState, FailureCause, LoadBand};
use fgcs_core::monitor::MonitorSnapshot;
use fgcs_testbed::json::{
    self, get_f64, get_opt_u64, get_str, get_u64, get_u64_or, ObjWriter, Value,
};
use fgcs_testbed::trace::{record_from_obj, record_to_json};
use fgcs_testbed::{RecorderSnapshot, TraceRecord};
use fgcs_wire::codec::crc32;
use fgcs_wire::WireTransition;

use crate::state::CounterValues;

/// Current snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u64 = 1;

/// Everything one machine's pipeline needs to resume after a restart.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MachineSnapshot {
    pub machine: u32,
    pub monitor: MonitorSnapshot,
    pub recorder: RecorderSnapshot,
    pub last_t: Option<u64>,
    pub out_of_order: u64,
    /// The transition sequence counter — persisted so seqs continue
    /// monotonically instead of restarting at 1 and colliding.
    pub next_seq: u64,
    /// Newest replication-log seq applied to this machine — the
    /// exactly-once guard for replication resync (DESIGN.md §13).
    /// Absent in pre-replication snapshot files; parsed as 0.
    pub last_repl_seq: u64,
    pub records: Vec<TraceRecord>,
    pub transitions: Vec<WireTransition>,
}

/// One complete snapshot: every machine plus server-wide accounting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapshotData {
    /// Milliseconds of serving time accumulated across all lives of
    /// this server, so restored ingest rates stay meaningful.
    pub elapsed_ms: u64,
    /// The replication floor this snapshot is consistent with: every
    /// log entry with seq ≤ this value is fully contained (the
    /// collector reads it before capturing any machine). Absent in
    /// pre-replication snapshot files; parsed as 0.
    pub repl_seq: u64,
    /// The node's fencing epoch at collection time (DESIGN.md §13.5).
    /// Absent in pre-failover snapshot files; parsed as 1.
    pub epoch: u64,
    pub counters: CounterValues,
    /// Ascending machine id.
    pub machines: Vec<MachineSnapshot>,
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn opt_pair_first(p: Option<(u64, u64)>) -> Option<u64> {
    p.map(|(a, _)| a)
}

fn opt_pair_second(p: Option<(u64, u64)>) -> Option<u64> {
    p.map(|(_, b)| b)
}

fn machine_to_json(m: &MachineSnapshot) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", "machine")
        .u64("machine", m.machine as u64)
        .opt_u64("mon_busy", opt_pair_first(m.monitor.last))
        .opt_u64("mon_total", opt_pair_second(m.monitor.last))
        .u64("mon_resets", m.monitor.resets);
    match m.recorder.detector {
        DetectorSnapshot::Available {
            band,
            spike_since,
            last_t,
        } => {
            w.str("det", "avail")
                .u64("det_code", band.code() as u64)
                .opt_u64("det_since", spike_since)
                .opt_u64("det_revived", None)
                .opt_u64("det_last_t", last_t);
        }
        DetectorSnapshot::Unavailable {
            cause,
            calm_since,
            revived,
            last_t,
        } => {
            w.str("det", "unavail")
                .u64("det_code", cause.code() as u64)
                .opt_u64("det_since", calm_since)
                .opt_u64("det_revived", revived)
                .opt_u64("det_last_t", last_t);
        }
    }
    w.opt_u64("open", m.recorder.open)
        .f64("cpu_sum", m.recorder.avail_cpu_sum)
        .f64("mem_sum", m.recorder.avail_mem_sum)
        .u64("avail_samples", m.recorder.avail_samples)
        .opt_u64("last_t", m.last_t)
        .u64("out_of_order", m.out_of_order)
        .u64("next_seq", m.next_seq)
        .u64("last_repl_seq", m.last_repl_seq)
        .u64("records", m.records.len() as u64)
        .u64("transitions", m.transitions.len() as u64);
    w.finish()
}

fn counters_to_json(c: &CounterValues) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", "counters")
        .u64("ingested_batches", c.ingested_batches)
        .u64("ingested_samples", c.ingested_samples)
        .u64("shed_batches", c.shed_batches)
        .u64("shed_samples", c.shed_samples)
        .u64("decode_errors", c.decode_errors)
        .u64("busy_replies", c.busy_replies)
        .u64("queries_answered", c.queries_answered)
        .u64("placements_answered", c.placements_answered)
        .u64("auth_rejects", c.auth_rejects)
        .u64("conn_rejects", c.conn_rejects);
    w.finish()
}

/// Serializes a snapshot to its complete file content, trailer included.
pub(crate) fn serialize_snapshot(data: &SnapshotData) -> String {
    let mut body = String::new();
    let mut lines = 0u64;
    let push = |body: &mut String, line: String| {
        body.push_str(&line);
        body.push('\n');
    };
    let mut header = ObjWriter::new();
    header
        .str("kind", "snapshot")
        .u64("version", SNAPSHOT_VERSION)
        .u64("machines", data.machines.len() as u64)
        .u64("elapsed_ms", data.elapsed_ms)
        .u64("repl_seq", data.repl_seq)
        .u64("epoch", data.epoch);
    push(&mut body, header.finish());
    lines += 1;
    for m in &data.machines {
        push(&mut body, machine_to_json(m));
        lines += 1;
    }
    for m in &data.machines {
        for r in &m.records {
            // Wrap the canonical record encoding with a discriminator;
            // the record parser ignores unknown fields, so the wrapped
            // line parses directly.
            let rec = record_to_json(r);
            push(&mut body, format!("{{\"kind\":\"record\",{}", &rec[1..]));
            lines += 1;
        }
    }
    for m in &data.machines {
        for t in &m.transitions {
            let mut w = ObjWriter::new();
            w.str("kind", "transition")
                .u64("machine", m.machine as u64)
                .u64("seq", t.seq)
                .u64("at", t.at)
                .u64("state", t.state as u64);
            push(&mut body, w.finish());
            lines += 1;
        }
    }
    push(&mut body, counters_to_json(&data.counters));
    lines += 1;
    let crc = crc32(body.as_bytes());
    let mut end = ObjWriter::new();
    end.str("kind", "end")
        .u64("lines", lines)
        .u64("crc", crc as u64);
    push(&mut body, end.finish());
    body
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_machine(o: &BTreeMap<String, Value>) -> Result<(MachineSnapshot, u64, u64), String> {
    let machine = get_u64(o, "machine")? as u32;
    let monitor = MonitorSnapshot {
        last: match (get_opt_u64(o, "mon_busy")?, get_opt_u64(o, "mon_total")?) {
            (Some(b), Some(t)) => Some((b, t)),
            (None, None) => None,
            _ => return Err("mon_busy/mon_total must both be set or both null".into()),
        },
        resets: get_u64(o, "mon_resets")?,
    };
    let det_last_t = get_opt_u64(o, "det_last_t")?;
    let det_code = get_u64(o, "det_code")? as u8;
    let detector = match get_str(o, "det")? {
        "avail" => DetectorSnapshot::Available {
            band: LoadBand::from_code(det_code)
                .ok_or_else(|| format!("bad load band code {det_code}"))?,
            spike_since: get_opt_u64(o, "det_since")?,
            last_t: det_last_t,
        },
        "unavail" => DetectorSnapshot::Unavailable {
            cause: FailureCause::from_code(det_code)
                .ok_or_else(|| format!("bad failure cause code {det_code}"))?,
            calm_since: get_opt_u64(o, "det_since")?,
            revived: get_opt_u64(o, "det_revived")?,
            last_t: det_last_t,
        },
        other => return Err(format!("unknown detector kind {other:?}")),
    };
    let recorder = RecorderSnapshot {
        machine,
        detector,
        open: get_opt_u64(o, "open")?,
        avail_cpu_sum: get_f64(o, "cpu_sum")?,
        avail_mem_sum: get_f64(o, "mem_sum")?,
        avail_samples: get_u64(o, "avail_samples")?,
    };
    let snap = MachineSnapshot {
        machine,
        monitor,
        recorder,
        last_t: get_opt_u64(o, "last_t")?,
        out_of_order: get_u64(o, "out_of_order")?,
        next_seq: get_u64(o, "next_seq")?,
        last_repl_seq: get_u64_or(o, "last_repl_seq", 0)?,
        records: Vec::new(),
        transitions: Vec::new(),
    };
    Ok((snap, get_u64(o, "records")?, get_u64(o, "transitions")?))
}

fn parse_counters(o: &BTreeMap<String, Value>) -> Result<CounterValues, String> {
    Ok(CounterValues {
        ingested_batches: get_u64(o, "ingested_batches")?,
        ingested_samples: get_u64(o, "ingested_samples")?,
        shed_batches: get_u64(o, "shed_batches")?,
        shed_samples: get_u64(o, "shed_samples")?,
        decode_errors: get_u64(o, "decode_errors")?,
        busy_replies: get_u64(o, "busy_replies")?,
        queries_answered: get_u64(o, "queries_answered")?,
        placements_answered: get_u64(o, "placements_answered")?,
        auth_rejects: get_u64(o, "auth_rejects")?,
        conn_rejects: get_u64(o, "conn_rejects")?,
    })
}

/// Parses a complete snapshot file. Any structural inconsistency —
/// truncation, a CRC mismatch, a count that doesn't add up, seqs out of
/// order — rejects the whole file; nothing is ever half-applied.
pub(crate) fn parse_snapshot(text: &str) -> Result<SnapshotData, String> {
    let trimmed = text
        .strip_suffix('\n')
        .ok_or("file does not end in a newline")?;
    let (body_end, trailer) = match trimmed.rfind('\n') {
        Some(i) => (i + 1, &trimmed[i + 1..]),
        None => return Err("missing trailer line".into()),
    };
    let t = json::parse(trailer).map_err(|e| format!("bad trailer: {e}"))?;
    let t = t.as_obj().ok_or("trailer is not an object")?;
    if get_str(t, "kind")? != "end" {
        return Err("file does not end with an end line (truncated?)".into());
    }
    let body = &text[..body_end];
    let crc = crc32(body.as_bytes());
    if get_u64(t, "crc")? != crc as u64 {
        return Err("trailer CRC mismatch".into());
    }
    let expect_lines = get_u64(t, "lines")?;

    let mut lines = body.lines();
    let header = lines.next().ok_or("empty snapshot")?;
    let h = json::parse(header).map_err(|e| format!("bad header: {e}"))?;
    let h = h.as_obj().ok_or("header is not an object")?;
    if get_str(h, "kind")? != "snapshot" {
        return Err("first line is not a snapshot header".into());
    }
    let version = get_u64(h, "version")?;
    if version != SNAPSHOT_VERSION {
        return Err(format!("unsupported snapshot version {version}"));
    }
    let n_machines = get_u64(h, "machines")? as usize;
    let elapsed_ms = get_u64(h, "elapsed_ms")?;
    let repl_seq = get_u64_or(h, "repl_seq", 0)?;
    let epoch = get_u64_or(h, "epoch", 1)?;

    let mut machines: Vec<MachineSnapshot> = Vec::with_capacity(n_machines);
    let mut expected: BTreeMap<u32, (usize, u64, u64)> = BTreeMap::new();
    let mut counters: Option<CounterValues> = None;
    let mut seen_lines = 1u64;
    for line in lines {
        seen_lines += 1;
        let v = json::parse(line).map_err(|e| format!("line {seen_lines}: {e}"))?;
        let o = v
            .as_obj()
            .ok_or_else(|| format!("line {seen_lines} is not an object"))?;
        match get_str(o, "kind")? {
            "machine" => {
                let (snap, n_rec, n_tr) = parse_machine(o)?;
                if let Some(prev) = machines.last() {
                    if snap.machine <= prev.machine {
                        return Err("machine ids not strictly ascending".into());
                    }
                }
                expected.insert(snap.machine, (machines.len(), n_rec, n_tr));
                machines.push(snap);
            }
            "record" => {
                let rec = record_from_obj(o).map_err(|e| format!("line {seen_lines}: {e}"))?;
                let (idx, ..) = *expected
                    .get(&rec.machine)
                    .ok_or_else(|| format!("record for unknown machine {}", rec.machine))?;
                machines[idx].records.push(rec);
            }
            "transition" => {
                let machine = get_u64(o, "machine")? as u32;
                let (idx, ..) = *expected
                    .get(&machine)
                    .ok_or_else(|| format!("transition for unknown machine {machine}"))?;
                let state = get_u64(o, "state")? as u8;
                AvailState::from_code(state).ok_or_else(|| format!("bad state code {state}"))?;
                let tr = WireTransition {
                    seq: get_u64(o, "seq")?,
                    at: get_u64(o, "at")?,
                    state,
                };
                if machines[idx]
                    .transitions
                    .last()
                    .is_some_and(|p| tr.seq <= p.seq)
                {
                    return Err(format!("machine {machine} transition seqs not ascending"));
                }
                machines[idx].transitions.push(tr);
            }
            "counters" => {
                if counters.is_some() {
                    return Err("duplicate counters line".into());
                }
                counters = Some(parse_counters(o)?);
            }
            other => return Err(format!("unknown line kind {other:?}")),
        }
    }
    if seen_lines != expect_lines {
        return Err(format!(
            "trailer says {expect_lines} lines, found {seen_lines}"
        ));
    }
    if machines.len() != n_machines {
        return Err(format!(
            "header says {n_machines} machines, found {}",
            machines.len()
        ));
    }
    for m in &machines {
        let (_, n_rec, n_tr) = expected[&m.machine];
        if m.records.len() as u64 != n_rec || m.transitions.len() as u64 != n_tr {
            return Err(format!(
                "machine {} record/transition counts mismatch",
                m.machine
            ));
        }
        if m.transitions.last().is_some_and(|t| m.next_seq <= t.seq) {
            return Err(format!(
                "machine {} next_seq {} would reuse a persisted transition seq",
                m.machine, m.next_seq
            ));
        }
    }
    Ok(SnapshotData {
        elapsed_ms,
        repl_seq,
        epoch,
        counters: counters.ok_or("missing counters line")?,
        machines,
    })
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".snap";

/// How many complete snapshots are kept on disk.
const KEEP: usize = 2;

/// Lists snapshot files in `dir`, newest (highest sequence) first.
pub(crate) fn list_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SNAP_PREFIX)
            .and_then(|s| s.strip_suffix(SNAP_SUFFIX))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            found.push((seq, entry.path()));
        }
    }
    found.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    found
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SNAP_PREFIX}{seq:010}{SNAP_SUFFIX}"))
}

/// Writes `text` under `dir` with sequence `seq` using the atomicity
/// protocol: temp file, fsync, rename, directory fsync.
fn write_atomic(dir: &Path, seq: u64, text: &str) -> io::Result<PathBuf> {
    let final_path = snapshot_path(dir, seq);
    let tmp_path = final_path.with_extension("snap.tmp");
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Durably record the rename itself: fsync the directory.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

fn prune(dir: &Path) {
    for (_, path) in list_snapshots(dir).into_iter().skip(KEEP) {
        let _ = fs::remove_file(path);
    }
}

struct SinkState {
    next_file_seq: u64,
    last_write: Option<Instant>,
}

/// Serialized writer of interval-gated snapshots into one directory.
/// All checkpoint paths (the checkpointer thread's periodic hook and
/// the final shutdown write) funnel through this one mutex, so snapshots
/// never interleave and the interval is enforced exactly once.
pub(crate) struct SnapshotSink {
    dir: PathBuf,
    interval: Duration,
    state: Mutex<SinkState>,
}

impl SnapshotSink {
    /// A sink writing to `dir` (created if missing), continuing the file
    /// numbering above whatever is already there.
    pub(crate) fn new(dir: &Path, interval_ms: u64) -> io::Result<SnapshotSink> {
        fs::create_dir_all(dir)?;
        let next_file_seq = list_snapshots(dir).first().map_or(1, |&(s, _)| s + 1);
        Ok(SnapshotSink {
            dir: dir.to_path_buf(),
            interval: Duration::from_millis(interval_ms.max(1)),
            state: Mutex::new(SinkState {
                next_file_seq,
                last_write: None,
            }),
        })
    }

    /// Writes a snapshot if the interval has elapsed since the last one.
    /// `collect` runs only when a write is actually due. Returns whether
    /// a snapshot was written.
    pub(crate) fn maybe_write(&self, collect: impl FnOnce() -> SnapshotData) -> io::Result<bool> {
        let mut st = self.state.lock().unwrap();
        if st.last_write.is_some_and(|t| t.elapsed() < self.interval) {
            return Ok(false);
        }
        self.write_locked(&mut st, &collect())?;
        Ok(true)
    }

    /// Writes a snapshot unconditionally (graceful shutdown).
    pub(crate) fn write_now(&self, data: &SnapshotData) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        self.write_locked(&mut st, data)
    }

    fn write_locked(&self, st: &mut SinkState, data: &SnapshotData) -> io::Result<()> {
        let text = serialize_snapshot(data);
        write_atomic(&self.dir, st.next_file_seq, &text)?;
        st.next_file_seq += 1;
        st.last_write = Some(Instant::now());
        prune(&self.dir);
        Ok(())
    }
}

/// Loads the newest snapshot in `dir` that parses and validates,
/// falling back over damaged ones (crash mid-checkpoint leaves a `.tmp`
/// which is never even considered). Returns `None` when no usable
/// snapshot exists.
pub(crate) fn load_latest(dir: &Path) -> Option<SnapshotData> {
    for (seq, path) in list_snapshots(dir) {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fgcs-service: snapshot {seq} unreadable: {e}");
                continue;
            }
        };
        match parse_snapshot(&text) {
            Ok(data) => return Some(data),
            Err(e) => eprintln!("fgcs-service: snapshot {seq} rejected: {e}"),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> SnapshotData {
        let records = vec![
            TraceRecord {
                machine: 3,
                cause: FailureCause::CpuContention,
                start: 600,
                end: Some(1200),
                raw_end: Some(900),
                avail_cpu: 0.9375,
                avail_mem_mb: 812,
            },
            TraceRecord {
                machine: 3,
                cause: FailureCause::Revocation,
                start: 5000,
                end: None,
                raw_end: None,
                avail_cpu: 0.1 + 0.2, // a value that doesn't print "nicely"
                avail_mem_mb: 400,
            },
        ];
        let m3 = MachineSnapshot {
            machine: 3,
            monitor: MonitorSnapshot {
                last: Some((123, 4567)),
                resets: 2,
            },
            recorder: RecorderSnapshot {
                machine: 3,
                detector: DetectorSnapshot::Unavailable {
                    cause: FailureCause::Revocation,
                    calm_since: Some(5100),
                    revived: Some(5060),
                    last_t: Some(5130),
                },
                open: Some(1),
                avail_cpu_sum: 0.0,
                avail_mem_sum: 0.0,
                avail_samples: 0,
            },
            last_t: Some(5130),
            out_of_order: 1,
            next_seq: 5,
            last_repl_seq: 42,
            records,
            transitions: vec![
                WireTransition {
                    seq: 1,
                    at: 600,
                    state: 3,
                },
                WireTransition {
                    seq: 4,
                    at: 5000,
                    state: 5,
                },
            ],
        };
        let m9 = MachineSnapshot {
            machine: 9,
            monitor: MonitorSnapshot {
                last: None,
                resets: 0,
            },
            recorder: RecorderSnapshot {
                machine: 9,
                detector: DetectorSnapshot::Available {
                    band: LoadBand::Heavy,
                    spike_since: None,
                    last_t: Some(45),
                },
                open: None,
                avail_cpu_sum: 1.55,
                avail_mem_sum: 2048.0,
                avail_samples: 2,
            },
            last_t: Some(45),
            out_of_order: 0,
            next_seq: 2,
            last_repl_seq: 0,
            records: Vec::new(),
            transitions: vec![WireTransition {
                seq: 1,
                at: 30,
                state: 2,
            }],
        };
        SnapshotData {
            elapsed_ms: 7777,
            repl_seq: 42,
            epoch: 3,
            counters: CounterValues {
                ingested_batches: 10,
                ingested_samples: 200,
                shed_batches: 1,
                shed_samples: 4,
                decode_errors: 0,
                busy_replies: 1,
                queries_answered: 5,
                placements_answered: 2,
                auth_rejects: 3,
                conn_rejects: 0,
            },
            machines: vec![m3, m9],
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let data = sample_data();
        let text = serialize_snapshot(&data);
        let back = parse_snapshot(&text).expect("parses");
        assert_eq!(back, data);
        // Including the awkward f64: bit-exact.
        assert_eq!(
            back.machines[0].records[1].avail_cpu.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    /// `serialize_snapshot(&sample_data())` as written by commit
    /// 5063329, the last build whose `crc32` was the byte-at-a-time
    /// loop. Snapshot directories outlive builds: this text must keep
    /// loading, and the same state must keep serializing to it, trailer
    /// included.
    const GOLDEN_SNAPSHOT: &str = r#"{"kind":"snapshot","version":1,"machines":2,"elapsed_ms":7777,"repl_seq":42,"epoch":3}
{"kind":"machine","machine":3,"mon_busy":123,"mon_total":4567,"mon_resets":2,"det":"unavail","det_code":3,"det_since":5100,"det_revived":5060,"det_last_t":5130,"open":1,"cpu_sum":0,"mem_sum":0,"avail_samples":0,"last_t":5130,"out_of_order":1,"next_seq":5,"last_repl_seq":42,"records":2,"transitions":2}
{"kind":"machine","machine":9,"mon_busy":null,"mon_total":null,"mon_resets":0,"det":"avail","det_code":2,"det_since":null,"det_revived":null,"det_last_t":45,"open":null,"cpu_sum":1.55,"mem_sum":2048,"avail_samples":2,"last_t":45,"out_of_order":0,"next_seq":2,"last_repl_seq":0,"records":0,"transitions":1}
{"kind":"record","machine":3,"cause":"CpuContention","start":600,"end":1200,"raw_end":900,"avail_cpu":0.9375,"avail_mem_mb":812}
{"kind":"record","machine":3,"cause":"Revocation","start":5000,"end":null,"raw_end":null,"avail_cpu":0.30000000000000004,"avail_mem_mb":400}
{"kind":"transition","machine":3,"seq":1,"at":600,"state":3}
{"kind":"transition","machine":3,"seq":4,"at":5000,"state":5}
{"kind":"transition","machine":9,"seq":1,"at":30,"state":2}
{"kind":"counters","ingested_batches":10,"ingested_samples":200,"shed_batches":1,"shed_samples":4,"decode_errors":0,"busy_replies":1,"queries_answered":5,"placements_answered":2,"auth_rejects":3,"conn_rejects":0}
{"kind":"end","lines":9,"crc":3163318565}
"#;

    #[test]
    fn golden_snapshot_from_an_older_build_loads_and_rewrites_identically() {
        let data = parse_snapshot(GOLDEN_SNAPSHOT).expect("old snapshot verifies and parses");
        assert_eq!(data, sample_data());
        assert_eq!(serialize_snapshot(&data), GOLDEN_SNAPSHOT);
    }

    #[test]
    fn pre_replication_snapshots_parse_with_zero_repl_cursors() {
        // Reconstruct the format as written before the replication
        // fields existed: same lines, minus `repl_seq` in the header
        // and `last_repl_seq` on machine lines, with a recomputed
        // trailer. Such files live in real snapshot directories and
        // must keep restoring.
        let data = sample_data();
        let text = serialize_snapshot(&data);
        let body_end = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let old_body = text[..body_end]
            .replace(",\"repl_seq\":42", "")
            .replace(",\"epoch\":3", "")
            .replace(",\"last_repl_seq\":42", "")
            .replace(",\"last_repl_seq\":0", "");
        let lines = old_body.lines().count() as u64;
        let crc = crc32(old_body.as_bytes());
        let mut end = ObjWriter::new();
        end.str("kind", "end")
            .u64("lines", lines)
            .u64("crc", crc as u64);
        let old_text = format!("{old_body}{}\n", end.finish());
        let back = parse_snapshot(&old_text).expect("old format parses");
        assert_eq!(back.repl_seq, 0);
        assert_eq!(back.epoch, 1);
        assert!(back.machines.iter().all(|m| m.last_repl_seq == 0));
        assert_eq!(back.machines.len(), data.machines.len());
        assert_eq!(back.machines[0].records, data.machines[0].records);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let text = serialize_snapshot(&sample_data());
        // Cut at every line boundary and at a few mid-line offsets: no
        // prefix of a snapshot may parse as a snapshot.
        let mut cuts: Vec<usize> = text
            .char_indices()
            .filter(|&(_, c)| c == '\n')
            .map(|(i, _)| i + 1)
            .collect();
        cuts.pop(); // the full file parses, obviously
        cuts.extend([1, text.len() / 2, text.len() - 3]);
        for cut in cuts {
            assert!(
                parse_snapshot(&text[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn corruption_is_rejected_by_the_crc() {
        let text = serialize_snapshot(&sample_data());
        // Flip one digit somewhere in the middle of the body.
        let idx = text.len() / 2;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(bytes).unwrap();
        assert!(parse_snapshot(&corrupted).is_err());
    }

    #[test]
    fn seq_reuse_is_rejected() {
        let mut data = sample_data();
        data.machines[0].next_seq = 4; // would reuse the persisted seq 4
        let text = serialize_snapshot(&data);
        let err = parse_snapshot(&text).unwrap_err();
        assert!(err.contains("reuse"), "{err}");
    }

    #[test]
    fn loader_falls_back_over_a_damaged_latest_snapshot() {
        let dir = std::env::temp_dir().join(format!("fgcs-snap-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = SnapshotSink::new(&dir, 1).expect("sink");
        let mut data = sample_data();
        sink.write_now(&data).unwrap();
        data.counters.ingested_batches = 11;
        sink.write_now(&data).unwrap();
        // Newest snapshot parses.
        let loaded = load_latest(&dir).expect("snapshot");
        assert_eq!(loaded.counters.ingested_batches, 11);
        // Truncate the newest file mid-record (crash during checkpoint
        // after rename — e.g. torn disk write): loader must fall back to
        // the previous complete snapshot, never half-apply the new one.
        let (seq, newest) = list_snapshots(&dir).remove(0);
        assert_eq!(seq, 2);
        let full = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &full[..full.len() * 2 / 3]).unwrap();
        let loaded = load_latest(&dir).expect("fallback snapshot");
        assert_eq!(
            loaded.counters.ingested_batches, 10,
            "previous snapshot wins"
        );
        // Pruning keeps only the newest KEEP files.
        for i in 0..4 {
            data.counters.ingested_batches = 20 + i;
            sink.write_now(&data).unwrap();
        }
        let files = list_snapshots(&dir);
        assert_eq!(files.len(), KEEP);
        assert_eq!(files[0].0, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loader_rejects_both_corrupt_snapshots_and_reports_a_clean_start() {
        let dir = std::env::temp_dir().join(format!("fgcs-snap-both-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = SnapshotSink::new(&dir, 1).expect("sink");
        let mut data = sample_data();
        sink.write_now(&data).unwrap();
        data.counters.ingested_batches = 11;
        sink.write_now(&data).unwrap();
        let files = list_snapshots(&dir);
        assert_eq!(files.len(), KEEP, "both retained snapshots exist");
        // Damage *every* retained snapshot two different ways: the
        // newest truncated mid-record (torn write), the older with a
        // flipped payload byte (bit rot breaks the body checksum/JSON).
        let newest = &files[0].1;
        let full = fs::read_to_string(newest).unwrap();
        fs::write(newest, &full[..full.len() * 2 / 3]).unwrap();
        let older = &files[1].1;
        let mut body = fs::read_to_string(older).unwrap().into_bytes();
        let mid = body.len() / 2;
        body[mid] = body[mid].wrapping_add(1);
        fs::write(older, &body).unwrap();
        // Nothing usable: the loader must reject both *whole* — never
        // half-apply a damaged checkpoint — and report a clean start.
        assert!(
            load_latest(&dir).is_none(),
            "two corrupt snapshots must yield a clean start, not a partial restore"
        );
        // A clean start means the next checkpoint cycle works from
        // scratch: new snapshots land and load again.
        data.counters.ingested_batches = 12;
        sink.write_now(&data).unwrap();
        let loaded = load_latest(&dir).expect("fresh snapshot after the wipeout");
        assert_eq!(loaded.counters.ingested_batches, 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_enforces_the_interval() {
        let dir = std::env::temp_dir().join(format!("fgcs-snap-iv-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = SnapshotSink::new(&dir, 60_000).expect("sink");
        assert!(sink.maybe_write(sample_data).unwrap(), "first write is due");
        assert!(
            !sink
                .maybe_write(|| unreachable!("not due: collect must not run"))
                .unwrap(),
            "second write inside the interval is skipped"
        );
        assert_eq!(list_snapshots(&dir).len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
