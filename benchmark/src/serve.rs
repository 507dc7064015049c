//! The three workloads that drive an in-process server over loopback
//! TCP: `ingest_small`, `ingest_bulk_repl`, `query_mix`.
//!
//! All three share one shape. Set-up generates the machines' load
//! histories, starts the server (and a follower), connects, and
//! preloads. The timed window drives the closed loop from this one
//! thread. Afterwards every machine's samples are replayed in-process
//! and the server's records must equal the replay's, bit for bit. A
//! traced run times that same replay, pass by pass, on the 1-in-64
//! requests the window sampled: that is where the per-layer costs come
//! from, with no instrumentation inside the server.

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use crate::adapter::{
    encode_frame, Frame, FrameDecoder, Inputs, Node, NodeOpts, OnlineModel, Plan, Pool,
    ReplayMachine, Stream, WireSample,
};
use crate::closed_loop::{self, Counts, Kind, LoopCfg, Op, Sampled, Window, KINDS};
use crate::mix;
use crate::procfs;
use crate::report::{print_spread, RunResult};
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::Scale;

/// Samples per preload frame (`query_mix`).
const PRELOAD_BATCH: usize = 128;
/// 15 s samples per day.
const SAMPLES_PER_DAY: usize = 5_760;
/// Replication log capacity of `ingest_bulk_repl`'s primary.
const REPL_LOG: usize = 4_096;
/// How many log entries the follower may be behind before the driver
/// holds off. It must stay well under 365: a `ReplEntries` reply carries
/// everything the follower is behind (up to 1,024 entries) in one frame,
/// a frame holds 1 MiB, and past that many 128-sample entries the primary
/// cannot encode the reply, drops the puller's connection, and the
/// follower retries the same pull for ever. 64 is also where the numbers
/// repeat: with 128 or more the driver seldom waits, three busy threads
/// fight over two cores, and the median latency flips between 45 and
/// 90 µs from run to run; at 64 the follower's apply thread is the one
/// steady bottleneck.
const REPL_LAG_LIMIT: u64 = 64;
/// A traced window keeps one request in this many.
const SAMPLE_EVERY: u64 = 64;
const QUERY_HORIZON_S: u64 = 1_800;
const PLACE_JOB_S: u64 = 14_400;
/// Offered rate of the informational open-loop rows, batches/s.
const OPEN_LOOP_RATE: f64 = 30_000.0;

#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub machines: usize,
    /// Length of the generated histories; the window ends early if a
    /// stream runs dry, which a host ten times faster would not reach.
    pub days: usize,
    /// Send CPU usage as cumulative counters (through `Monitor`).
    pub counters: bool,
    pub batch: usize,
    pub conns: usize,
    pub replicated: bool,
    pub preload_days: usize,
    pub query_mix: bool,
    pub slice_replies: u64,
}

pub fn spec(workload: &str, quick: bool) -> Option<ServeSpec> {
    let mut s = match workload {
        "ingest_small" => ServeSpec {
            machines: 4_096,
            days: 7,
            counters: true,
            batch: 4,
            conns: 8,
            replicated: false,
            preload_days: 0,
            query_mix: false,
            slice_replies: 50_000,
        },
        "ingest_bulk_repl" => ServeSpec {
            machines: 64,
            days: 240,
            counters: false,
            batch: 128,
            // Two connections, not eight: primary loop, follower apply
            // thread and driver are already three busy threads.
            conns: 2,
            replicated: true,
            preload_days: 0,
            query_mix: false,
            slice_replies: 2_000,
        },
        "query_mix" => ServeSpec {
            machines: 512,
            days: 7,
            counters: false,
            batch: 4,
            conns: 8,
            replicated: false,
            preload_days: 1,
            query_mix: true,
            slice_replies: 20_000,
        },
        _ => return None,
    };
    if quick {
        s.machines = (s.machines / 20).max(2 * s.conns);
        s.days = s.days.min(30);
        s.slice_replies = (s.slice_replies / 20).max(100);
    }
    Some(s)
}

// ----------------------------------------------------------------- rig

struct Rig {
    primary: Node,
    follower: Option<Node>,
    pool: Pool,
    /// `Server::start` → first reply, ms.
    start_ms: f64,
}

impl Rig {
    fn start(spec: &ServeSpec, replicated: bool) -> io::Result<Rig> {
        let t0 = Instant::now();
        let primary = Node::start(&NodeOpts {
            repl_log: if replicated { REPL_LOG } else { 0 },
            follower_of: None,
        })?;
        let mut pool = Pool::connect(&primary.addr(), spec.conns)?;
        // One round trip, so "started" means "answers".
        let mut first = Some(Op {
            frame: Frame::Place { job_len: 1 },
            kind: Kind::Place,
            machine: 0,
            samples: 0,
            frame_idx: 0,
        });
        let w = closed_loop::run(
            &mut pool,
            &LoopCfg {
                slice_replies: 1,
                seconds: None,
                sample_every: 0,
                keep_read_replies: false,
                epoch: t0,
            },
            |slot| if slot == 0 { first.take() } else { None },
            |_| {},
        )?;
        if w.counts.ok != 1 {
            return Err(io::Error::other(
                "the server did not answer its first request",
            ));
        }
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;
        let follower = if replicated {
            Some(Node::start(&NodeOpts {
                repl_log: 0,
                follower_of: Some(primary.addr()),
            })?)
        } else {
            None
        };
        Ok(Rig {
            primary,
            follower,
            pool,
            start_ms,
        })
    }

    /// Stops everything and waits for every thread; returns the time the
    /// primary's shutdown took, ms.
    fn shutdown(self) -> f64 {
        drop(self.pool);
        if let Some(f) = self.follower {
            f.shutdown();
        }
        let t0 = Instant::now();
        self.primary.shutdown();
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Waits until the follower has applied everything the primary
    /// logged. Returns the wait in ms, or why it cannot finish.
    fn catch_up(&self) -> Result<f64, String> {
        let Some(f) = &self.follower else {
            return Ok(0.0);
        };
        let t0 = Instant::now();
        while f.repl_seq() != self.primary.repl_seq() {
            if f.repl_failed() {
                return Err("the follower's pull loop stopped on a divergence tripwire".into());
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err(format!(
                    "follower stuck at seq {} of {}",
                    f.repl_seq(),
                    self.primary.repl_seq()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    }
}

// ---------------------------------------------------------------- feed

/// The request source: which machine rides which connection, how far
/// each machine's stream has been sent, and (for `query_mix`) where each
/// connection is in its 100-request pattern.
struct Feed<'p> {
    spec: ServeSpec,
    streams: Vec<Stream<'p>>,
    frames_sent: Vec<u32>,
    /// Leading frames of each machine that carried `PRELOAD_BATCH`
    /// samples instead of `spec.batch`.
    preload_frames: Vec<u32>,
    /// Machine `m` rides connection `m % conns`, always: two batches of
    /// one machine on two sockets could overtake each other.
    slot_machines: Vec<Vec<u32>>,
    slot_cursor: Vec<usize>,
    slot_pos: Vec<u64>,
    read_order: Vec<u32>,
    read_cursor: usize,
}

impl<'p> Feed<'p> {
    fn new(spec: &ServeSpec, plans: &'p [Plan], seed: u64) -> Feed<'p> {
        let n = plans.len();
        Feed {
            spec: *spec,
            streams: plans.iter().map(|p| p.stream(spec.counters)).collect(),
            frames_sent: vec![0; n],
            preload_frames: vec![0; n],
            slot_machines: (0..spec.conns)
                .map(|s| (s..n).step_by(spec.conns).map(|m| m as u32).collect())
                .collect(),
            slot_cursor: vec![0; spec.conns],
            slot_pos: vec![0; spec.conns],
            read_order: mix::permutation(seed, n),
            read_cursor: 0,
        }
    }

    /// The next `size` samples of `machine` as one request, or `None`
    /// when its history has run out.
    fn batch(&mut self, machine: u32, size: usize) -> Option<Op> {
        let m = machine as usize;
        let samples: Vec<WireSample> = self.streams[m].by_ref().take(size).collect();
        if samples.len() < size {
            return None;
        }
        let frame_idx = self.frames_sent[m];
        self.frames_sent[m] += 1;
        Some(Op {
            frame: Frame::SampleBatch { machine, samples },
            kind: Kind::Ingest,
            machine,
            samples: size as u32,
            frame_idx,
        })
    }

    fn next_machine(&mut self, slot: usize) -> u32 {
        let list = &self.slot_machines[slot];
        let m = list[self.slot_cursor[slot] % list.len()];
        self.slot_cursor[slot] += 1;
        m
    }

    fn next(&mut self, slot: usize) -> Option<Op> {
        let kind = if self.spec.query_mix {
            let pos = self.slot_pos[slot];
            self.slot_pos[slot] += 1;
            mix::query_mix_kind(pos)
        } else {
            Kind::Ingest
        };
        match kind {
            Kind::Ingest => {
                let m = self.next_machine(slot);
                self.batch(m, self.spec.batch)
            }
            Kind::Query => {
                let machine = self.read_order[self.read_cursor % self.read_order.len()];
                self.read_cursor += 1;
                Some(Op {
                    frame: Frame::QueryAvail {
                        machine,
                        horizon: QUERY_HORIZON_S,
                    },
                    kind,
                    machine,
                    samples: 0,
                    frame_idx: 0,
                })
            }
            Kind::Place => Some(Op {
                frame: Frame::Place {
                    job_len: PLACE_JOB_S,
                },
                kind,
                machine: 0,
                samples: 0,
                frame_idx: 0,
            }),
        }
    }

    /// Sends every machine's first `preload_days` days, untimed by the
    /// window but counted in `setup_s`.
    fn preload(&mut self, pool: &mut Pool) -> io::Result<Counts> {
        let frames = (self.spec.preload_days * SAMPLES_PER_DAY / PRELOAD_BATCH) as u32;
        if frames == 0 {
            return Ok(Counts::default());
        }
        // Per slot: (index into its machine list, frames of that machine done).
        let mut at: Vec<(usize, u32)> = vec![(0, 0); self.spec.conns];
        let cfg = LoopCfg {
            slice_replies: u64::MAX,
            seconds: None,
            sample_every: 0,
            keep_read_replies: false,
            epoch: Instant::now(),
        };
        let w = closed_loop::run(
            pool,
            &cfg,
            |slot| {
                let (i, done) = &mut at[slot];
                if *done == frames {
                    (*i, *done) = (*i + 1, 0);
                }
                let m = *self.slot_machines[slot].get(*i)?;
                *done += 1;
                self.preload_frames[m as usize] += 1;
                self.batch(m, PRELOAD_BATCH)
            },
            |_| {},
        )?;
        Ok(w.counts)
    }

    /// Size of frame `idx` of `machine`.
    fn frame_size(&self, machine: usize, idx: u32) -> usize {
        if idx < self.preload_frames[machine] {
            PRELOAD_BATCH
        } else {
            self.spec.batch
        }
    }
}

// -------------------------------------------------------------- set-up

fn make_plans(spec: &ServeSpec, seed: u64) -> Vec<Plan> {
    let inputs = Inputs::new(seed, spec.machines, spec.days);
    (0..inputs.machines()).map(|m| inputs.plan(m)).collect()
}

/// Everything before the first timed request. Returns the acks the
/// preload earned, which the ingest identity needs.
fn set_up<'p>(
    spec: &ServeSpec,
    plans: &'p [Plan],
    seed: u64,
    replicated: bool,
) -> io::Result<(Rig, Feed<'p>, Counts)> {
    let mut rig = Rig::start(spec, replicated)?;
    let mut feed = Feed::new(spec, plans, seed);
    let preload = feed.preload(&mut rig.pool)?;
    if preload.failed() > 0 {
        return Err(io::Error::other(format!("preload failed: {preload:?}")));
    }
    Ok((rig, feed, preload))
}

// -------------------------------------------------------------- window

/// A timed window and what `/proc` and the server's own counters said
/// around it.
struct Observed {
    window: Window,
    cpu: procfs::CpuSplit,
    rss_growth_mb: f64,
    lock_deltas: Vec<(&'static str, u64, u64)>,
    lag: Vec<f64>,
    queue_depth_max: u64,
    catchup_ms: f64,
}

impl Observed {
    fn wall_s(&self) -> f64 {
        self.window.elapsed_ns as f64 / 1e9
    }

    /// Units of work done: samples for the ingest workloads, requests
    /// for `query_mix`.
    fn work(&self, spec: &ServeSpec) -> f64 {
        if spec.query_mix {
            self.window.counts.ok as f64
        } else {
            self.window.counts.samples_ok as f64
        }
    }

    fn server_cpu_us_per_op(&self) -> f64 {
        self.cpu.others.on_cpu_ns as f64 / 1e3 / self.window.counts.replies().max(1) as f64
    }
}

fn observe(
    rig: &mut Rig,
    feed: &mut Feed<'_>,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Result<Observed, String> {
    let driver = procfs::current_tid();
    let Rig {
        primary,
        follower,
        pool,
        ..
    } = rig;
    let (mut lag, mut queue_depth_max) = (Vec::new(), 0u64);
    let locks_before = primary.locks();
    let rss_before = procfs::rss_mb();
    let tasks_before = procfs::tasks();
    let cfg = LoopCfg {
        slice_replies: feed.spec.slice_replies,
        seconds: Some(seconds),
        sample_every: if traced { SAMPLE_EVERY } else { 0 },
        keep_read_replies: false,
        epoch,
    };
    let window = closed_loop::run(
        pool,
        &cfg,
        |slot| {
            // A backfill that wants its data replicated cannot outrun the
            // follower; see `REPL_LAG_LIMIT`. The wait is part of the
            // window. A follower that stops applying altogether ends the
            // feed, and `catch_up` then reports it.
            if let Some(f) = follower.as_ref() {
                let waiting = Instant::now();
                while primary.repl_seq().saturating_sub(f.repl_seq()) > REPL_LAG_LIMIT {
                    if f.repl_failed() || waiting.elapsed() > Duration::from_secs(20) {
                        return None;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            feed.next(slot)
        },
        |_| {
            // Gauges perturb the server (`counters` walks every
            // machine), so only the traced window reads them.
            if traced {
                if let Some(f) = follower.as_ref() {
                    lag.push(primary.repl_seq().saturating_sub(f.repl_seq()) as f64);
                }
                queue_depth_max = queue_depth_max.max(primary.counters().queue_depth);
            }
        },
    )
    .map_err(|e| format!("the load generator's poll failed: {e}"))?;
    let catchup_ms = rig.catch_up()?;
    let cpu = procfs::cpu_between(&tasks_before, &procfs::tasks(), driver);
    let lock_deltas = rig
        .primary
        .locks()
        .into_iter()
        .zip(locks_before)
        .map(|((name, c1, w1), (_, c0, w0))| (name, c1 - c0, w1 - w0))
        .collect();
    Ok(Observed {
        window,
        cpu,
        rss_growth_mb: procfs::rss_mb() - rss_before,
        lock_deltas,
        lag,
        queue_depth_max,
        catchup_ms,
    })
}

/// Median over slices of `f(slice, its latencies)`.
fn over_slices(w: &Window, f: impl Fn(&closed_loop::Slice, &mut Vec<u32>) -> f64) -> Vec<f64> {
    let mut prev = [0usize; KINDS];
    let mut lat = Vec::new();
    w.slices
        .iter()
        .map(|s| {
            lat.clear();
            for ((all, &from), &to) in w.lat_ns.iter().zip(&prev).zip(&s.lat_end) {
                lat.extend_from_slice(&all[from..to]);
            }
            prev = s.lat_end;
            lat.sort_unstable();
            f(s, &mut lat)
        })
        .collect()
}

/// Work per second of each slice.
fn slice_rates(w: &Window, spec: &ServeSpec) -> Vec<f64> {
    over_slices(w, |s, _| {
        let work = if spec.query_mix { s.replies } else { s.samples };
        work as f64 / (s.elapsed_ns as f64 / 1e9)
    })
}

// -------------------------------------------------------------- replay

/// Names of the spans a traced serve run records.
mod span {
    pub const RTT: &str = "client.rtt";
    pub const OP: &str = "replay.op";
    pub const ENCODE: &str = "wire.encode";
    pub const DECODE: &str = "wire.decode";
    pub const MONITOR: &str = "core.monitor";
    pub const RECORDER: &str = "testbed.recorder";
    pub const ONLINE: &str = "predict.online";
    pub const ENCODE_REPLY: &str = "wire.encode_reply";
    pub const DETECTOR: &str = "replay.detector";
}

/// Counts taken while replaying, at the same boundaries as the spans.
#[derive(Default)]
struct Tally {
    /// Over the sampled batches only.
    batch_bytes: u64,
    batch_samples: u64,
    counter_samples: u64,
    /// Over everything replayed.
    events: u64,
    records: u64,
    transitions: u64,
}

struct Replayed {
    machines: Vec<ReplayMachine>,
    model: OnlineModel,
    tally: Tally,
    /// The workload has reads to check against the model.
    query_mix: bool,
}

/// Runs `f` under a child span of `parent`.
fn spanned<R>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    let id = tracer.begin(name, parent, req);
    let r = f();
    tracer.end(id);
    r
}

/// Replays every machine's sent samples through monitor → recorder →
/// online model, in frames of the sizes that were sent. Frames named in
/// `sampled` (machine, frame index → request id) are additionally
/// encoded and decoded, and each pass runs under its span.
fn replay(
    plans: &[Plan],
    feed: &Feed<'_>,
    sampled: &BTreeMap<(u32, u32), u64>,
    mut tracer: Option<&mut Tracer>,
) -> Replayed {
    let mut model = OnlineModel::new();
    let mut tally = Tally::default();
    let mut machines = Vec::with_capacity(plans.len());
    let (mut bytes, mut decoder) = (Vec::new(), FrameDecoder::default());
    let mut buf: Vec<WireSample> = Vec::new();
    for (m, plan) in plans.iter().enumerate() {
        let mut stream = plan.stream(feed.spec.counters);
        let mut rm = ReplayMachine::new(m as u32);
        if feed.frames_sent[m] > 0 {
            model.register(m as u32);
        }
        for idx in 0..feed.frames_sent[m] {
            buf.clear();
            buf.extend(stream.by_ref().take(feed.frame_size(m, idx)));
            match (tracer.as_deref_mut(), sampled.get(&(m as u32, idx))) {
                (Some(t), Some(&req)) => {
                    let root = t.begin(span::OP, 0, req);
                    let frame = Frame::SampleBatch {
                        machine: m as u32,
                        samples: buf.clone(),
                    };
                    spanned(t, span::ENCODE, root, req, || {
                        encode_frame(&frame, &mut bytes)
                    });
                    let decoded = spanned(t, span::DECODE, root, req, || decoder.decode(&bytes));
                    assert_eq!(decoded.as_ref(), Some(&frame), "codec round trip");
                    tally.batch_bytes += bytes.len() as u64;
                    tally.batch_samples += buf.len() as u64;
                    // Direct loads never reach `Monitor`; turning them
                    // into observations is the replay's own time.
                    tally.counter_samples += if feed.spec.counters {
                        spanned(t, span::MONITOR, root, req, || rm.monitor_pass(&buf)) as u64
                    } else {
                        rm.monitor_pass(&buf) as u64
                    };
                    spanned(t, span::RECORDER, root, req, || rm.recorder_pass());
                    tally.events +=
                        spanned(t, span::ONLINE, root, req, || rm.online_pass(&mut model)) as u64;
                    let ack = Frame::Ack {
                        seq: idx as u64 + 1,
                    };
                    spanned(t, span::ENCODE_REPLY, root, req, || {
                        encode_frame(&ack, &mut bytes)
                    });
                    t.end(root);
                    spanned(t, span::DETECTOR, 0, req, || rm.twin_pass());
                }
                _ => {
                    rm.monitor_pass(&buf);
                    rm.recorder_pass();
                    tally.events += rm.online_pass(&mut model) as u64;
                    if tracer.is_some() {
                        rm.twin_pass(); // keep the bare detector in step
                    }
                }
            }
        }
        tally.records += rm.records().len() as u64;
        tally.transitions += rm.transitions().len() as u64;
        machines.push(rm);
    }
    Replayed {
        machines,
        model,
        tally,
        query_mix: feed.spec.query_mix,
    }
}

/// What the server answers to `QueryAvail`, from the replay's state.
fn expected_avail(r: &Replayed, machine: u32) -> (u8, f64) {
    let rm = &r.machines[machine as usize];
    let prob = if rm.is_available() {
        r.model
            .predict_machine(machine, rm.last_t(), QUERY_HORIZON_S)
    } else {
        0.0
    };
    (rm.state_code(), prob)
}

/// What the server answers to `Place`, from the replay's state.
fn expected_place(r: &Replayed, job_len: u64) -> Option<(u32, f64)> {
    let now = r.model.horizon();
    let mut best: Option<(u32, f64)> = None;
    for (m, rm) in r.machines.iter().enumerate() {
        if rm.harvestable() {
            let p = r.model.predict_machine(m as u32, now, job_len);
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((m as u32, p));
            }
        }
    }
    best
}

/// Replays the window's sampled reads against the replay's final state.
fn replay_reads(r: &Replayed, sampled: &[Sampled], tracer: &mut Tracer) {
    let (mut bytes, mut decoder) = (Vec::new(), FrameDecoder::default());
    for s in sampled.iter().filter(|s| s.op.kind != Kind::Ingest) {
        let (req, t) = (s.req, &mut *tracer);
        let root = t.begin(span::OP, 0, req);
        spanned(t, span::ENCODE, root, req, || {
            encode_frame(&s.op.frame, &mut bytes)
        });
        let decoded = spanned(t, span::DECODE, root, req, || decoder.decode(&bytes));
        assert_eq!(decoded.as_ref(), Some(&s.op.frame), "codec round trip");
        let reply = spanned(t, span::ONLINE, root, req, || match s.op.kind {
            Kind::Query => {
                let (state, prob) = expected_avail(r, s.op.machine);
                Frame::AvailReply {
                    machine: s.op.machine,
                    state,
                    prob,
                }
            }
            _ => {
                let best = expected_place(r, PLACE_JOB_S);
                Frame::PlaceReply {
                    machine: best.map(|b| b.0),
                    prob: best.map_or(0.0, |b| b.1),
                }
            }
        });
        spanned(t, span::ENCODE_REPLY, root, req, || {
            encode_frame(&reply, &mut bytes)
        });
        t.end(root);
    }
}

// --------------------------------------------------------------- gates

fn gate_accounting(result: &mut RunResult, rig: &Rig, total: &Counts) {
    if !total.accounted() {
        result.fail(format!("replies + lost != sent: {total:?}"));
    }
    let server = rig.primary.counters();
    let acks = total.ok_by_kind[Kind::Ingest as usize];
    if server.ingested_batches != acks {
        result.fail(format!(
            "server ingested {} batches, clients hold {acks} acks",
            server.ingested_batches
        ));
    }
    if server.shed_batches != 0 || server.decode_errors != 0 {
        result.fail(format!("server shed or rejected frames: {server:?}"));
    }
}

fn gate_records(result: &mut RunResult, node: &Node, who: &str, r: &Replayed) {
    let mut differing = 0;
    for (m, rm) in r.machines.iter().enumerate() {
        let records = node.records(m as u32).unwrap_or_default();
        let transitions = node.transitions(m as u32).unwrap_or_default();
        if records != rm.records() || transitions != rm.transitions() {
            differing += 1;
        }
    }
    if differing > 0 {
        result.fail(format!(
            "{who}: records or transitions of {differing} of {} machines differ from the in-process replay",
            r.machines.len()
        ));
    }
    let behind: Vec<String> = node
        .last_ts()
        .into_iter()
        .filter(|&(m, t)| r.machines[m as usize].last_t() != t)
        .map(|(m, t)| format!("{m}: {t} vs {}", r.machines[m as usize].last_t()))
        .collect();
    if !behind.is_empty() {
        result.fail(format!(
            "{who}: {} machines stopped at another sample than the replay: {:?}",
            behind.len(),
            &behind[..behind.len().min(5)]
        ));
    }
}

/// Asks the quiesced server about every machine, and for one placement,
/// and compares each answer with the in-process model, bit for bit.
fn gate_requery(result: &mut RunResult, rig: &mut Rig, r: &Replayed) -> Result<Counts, String> {
    let mut next_machine = 0u32;
    let n = r.machines.len() as u32;
    let cfg = LoopCfg {
        slice_replies: u64::MAX,
        seconds: None,
        sample_every: 0,
        keep_read_replies: true,
        epoch: Instant::now(),
    };
    let w = closed_loop::run(
        &mut rig.pool,
        &cfg,
        |_| {
            next_machine += 1;
            let machine = next_machine - 1;
            match machine.cmp(&n) {
                std::cmp::Ordering::Less => Some(Op {
                    frame: Frame::QueryAvail {
                        machine,
                        horizon: QUERY_HORIZON_S,
                    },
                    kind: Kind::Query,
                    machine,
                    samples: 0,
                    frame_idx: 0,
                }),
                // One placement after the last machine.
                std::cmp::Ordering::Equal => Some(Op {
                    frame: Frame::Place {
                        job_len: PLACE_JOB_S,
                    },
                    kind: Kind::Place,
                    machine: 0,
                    samples: 0,
                    frame_idx: 0,
                }),
                std::cmp::Ordering::Greater => None,
            }
        },
        |_| {},
    )
    .map_err(|e| e.to_string())?;
    let best = expected_place(r, PLACE_JOB_S);
    let (mut wrong, mut first_wrong) = (0, None);
    for (machine, reply) in &w.read_replies {
        let same = match reply {
            Frame::AvailReply {
                machine: m,
                state,
                prob,
            } => {
                let (s, p) = expected_avail(r, *machine);
                m == machine && *state == s && prob.to_bits() == p.to_bits()
            }
            Frame::PlaceReply { machine, prob } => {
                *machine == best.map(|b| b.0)
                    && prob.to_bits() == best.map_or(0.0, |b| b.1).to_bits()
            }
            _ => false,
        };
        if !same {
            wrong += 1;
            first_wrong.get_or_insert_with(|| {
                format!("{reply:?}, expected {:?}", expected_avail(r, *machine))
            });
        }
    }
    if wrong > 0 || w.read_replies.len() as u32 != n + 1 {
        result.fail(format!(
            "{wrong} of {} answers about the quiesced state (every machine's availability, one \
             placement) differ from the in-process model ({} answered); first: {first_wrong:?}, \
             expected placement {best:?}",
            n + 1,
            w.read_replies.len()
        ));
    }
    Ok(w.counts)
}

/// The whole correctness gate of a serve workload, after the last
/// window: records and stopping points of primary and follower against
/// the replay, the quiesced answers (`query_mix`), the accounting
/// identity over `total` (to which the re-query's requests are added).
/// Returns whether a follower exists and matched.
fn gates(
    result: &mut RunResult,
    rig: &mut Rig,
    replayed: &Replayed,
    total: &mut Counts,
    window: &Window,
) -> Result<bool, String> {
    gate_records(result, &rig.primary, "primary", replayed);
    let mut follower_identical = false;
    if let Some(f) = &rig.follower {
        let before = result.problems.len();
        gate_records(result, f, "follower", replayed);
        if f.repl_failed() {
            result.fail("follower replication failed".into());
        }
        follower_identical = result.problems.len() == before;
    }
    if replayed.query_mix {
        total.add(&gate_requery(result, rig, replayed)?);
    }
    gate_accounting(result, rig, total);
    if window.slices.is_empty() {
        result.fail("the window ended before its first slice".into());
    }
    Ok(follower_identical)
}

// ------------------------------------------------------------ untraced

pub fn run(workload: &str, seed: u64, scale: &Scale) -> Result<RunResult, String> {
    let spec = spec(workload, scale.quick).ok_or("not a serve workload")?;
    let io_err = |e: io::Error| format!("set-up failed: {e}");
    let mut result = RunResult::default();

    // Set up several times, keep the last; the median is the metric.
    let mut setups = Vec::new();
    for _ in 1..scale.setup_reps {
        let t0 = Instant::now();
        let plans = make_plans(&spec, seed);
        let (rig, _, _) = set_up(&spec, &plans, seed, spec.replicated).map_err(io_err)?;
        setups.push(t0.elapsed().as_secs_f64());
        rig.shutdown();
    }
    let t0 = Instant::now();
    let plans = make_plans(&spec, seed);
    let (mut rig, mut feed, preload) =
        set_up(&spec, &plans, seed, spec.replicated).map_err(io_err)?;
    setups.push(t0.elapsed().as_secs_f64());

    let obs = observe(&mut rig, &mut feed, scale.seconds, false, t0)?;
    let peak_rss_mb = procfs::peak_rss_mb();

    // Correctness gate.
    let mut total = preload;
    total.add(&obs.window.counts);
    let replayed = replay(&plans, &feed, &BTreeMap::new(), None);
    gates(&mut result, &mut rig, &replayed, &mut total, &obs.window)?;

    // Metrics: medians over slices, quartiles printed beside them.
    let w = &obs.window;
    let per_s = quartiles(&slice_rates(w, &spec));
    let p50 = quartiles(&over_slices(w, |_, lat| percentile(lat, 50.0) / 1e3));
    println!(
        "{workload}: {} requests over {} slices in {:.2} s on {} connections, driver busy {:.0} %",
        w.counts.sent,
        w.slices.len(),
        obs.wall_s(),
        spec.conns,
        100.0 * obs.cpu.driver.on_cpu_ns as f64 / w.elapsed_ns as f64,
    );
    print_spread("work_per_s", "1/s", &per_s);
    print_spread("result_p50_us", "us", &p50);
    result.set("setup_s", median(&setups));
    result.set("work_per_s", per_s.median);
    result.set("result_p50_us", p50.median);
    result.set(
        "cpu_us_per_work",
        obs.cpu.others.on_cpu_ns as f64 / 1e3 / obs.work(&spec).max(1.0),
    );
    result.set("peak_rss_mb", peak_rss_mb);
    result.attempted = total.sent;
    result.failed = total.failed();
    rig.shutdown();
    result.correct = result.problems.is_empty() && result.failed == 0;
    Ok(result)
}

// -------------------------------------------------------------- traced

/// Sum of `name`'s span time over requests of `kind` (or all kinds),
/// and how many such spans there were.
fn span_total(
    tracer: &Tracer,
    kind_of: &BTreeMap<u64, Kind>,
    name: &str,
    kind: Option<Kind>,
) -> (f64, f64) {
    let (mut ns, mut n) = (0u64, 0u64);
    for s in tracer.spans() {
        if s.name == name && kind.is_none_or(|k| kind_of.get(&s.req) == Some(&k)) {
            ns += s.end_ns - s.start_ns;
            n += 1;
        }
    }
    (ns as f64, n as f64)
}

fn mean(total_count: (f64, f64)) -> f64 {
    if total_count.1 > 0.0 {
        total_count.0 / total_count.1
    } else {
        0.0
    }
}

fn sorted(lat: &[u32]) -> Vec<u32> {
    let mut v = lat.to_vec();
    v.sort_unstable();
    v
}

/// p99 where the sample supports it, else the highest percentile that
/// has ten samples beyond it (0 when even p75 has not).
fn tail_us(sorted_ns: &[u32]) -> f64 {
    tail_percentile(sorted_ns.len()).map_or(0.0, |p| percentile(sorted_ns, p.min(99.0)) / 1e3)
}

pub fn run_traced(
    workload: &str,
    seed: u64,
    scale: &Scale,
    out_dir: &std::path::Path,
) -> Result<RunResult, String> {
    let spec = spec(workload, scale.quick).ok_or("not a serve workload")?;
    let io_err = |e: io::Error| format!("set-up failed: {e}");
    let mut result = RunResult::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    let plans = make_plans(&spec, seed);
    let (mut rig, mut feed, preload) =
        set_up(&spec, &plans, seed, spec.replicated).map_err(io_err)?;
    let start_ms = rig.start_ms;

    // The traced window, then an untraced reference window on the same
    // (by then warm) server: their throughput ratio is the tracing
    // overhead.
    let obs = observe(&mut rig, &mut feed, 0.6 * scale.seconds, true, epoch)?;
    let reference = observe(&mut rig, &mut feed, 0.2 * scale.seconds, false, epoch)?;
    let mut total = preload;
    total.add(&reference.window.counts);
    total.add(&obs.window.counts);

    // Open loop at a fixed rate, for the record only (`ingest_small`).
    let open = if workload == "ingest_small" {
        let w = closed_loop::run_open(&mut rig.pool, OPEN_LOOP_RATE, 0.2 * scale.seconds, |slot| {
            feed.next(slot)
        })
        .map_err(|e| e.to_string())?;
        let mut c = w.counts;
        c.ok_by_kind[Kind::Ingest as usize] = c.ok;
        total.add(&c);
        Some(w)
    } else {
        None
    };

    // Replay: the correctness gate and, on the sampled requests, the
    // per-layer spans.
    let w = &obs.window;
    let kind_of: BTreeMap<u64, Kind> = w.sampled.iter().map(|s| (s.req, s.op.kind)).collect();
    let sampled_batches: BTreeMap<(u32, u32), u64> = w
        .sampled
        .iter()
        .filter(|s| s.op.kind == Kind::Ingest)
        .map(|s| ((s.op.machine, s.op.frame_idx), s.req))
        .collect();
    for s in &w.sampled {
        tracer.add(span::RTT, 0, s.req, s.start_ns, s.end_ns);
    }
    let replayed = replay(&plans, &feed, &sampled_batches, Some(&mut tracer));
    replay_reads(&replayed, &w.sampled, &mut tracer);
    let follower_identical = gates(&mut result, &mut rig, &replayed, &mut total, w)?;
    let server = rig.primary.counters();
    let shutdown_ms = rig.shutdown();

    // The same workload without log and follower: what replication costs.
    let mut repl_overhead = 0.0;
    let mut pull_cpu_us_per_batch = 0.0;
    if spec.replicated {
        let (mut bare, mut bare_feed, _) = set_up(&spec, &plans, seed, false).map_err(io_err)?;
        let bare_obs = observe(&mut bare, &mut bare_feed, 0.2 * scale.seconds, false, epoch)?;
        bare.shutdown();
        repl_overhead = obs.server_cpu_us_per_op() / bare_obs.server_cpu_us_per_op() - 1.0;
        pull_cpu_us_per_batch = obs.cpu.by_name.get("fgcs-repl-pull").copied().unwrap_or(0) as f64
            / 1e3
            / w.counts.ok.max(1) as f64;
    }

    // Per-layer table, from the spans and the counts.
    let t = &tracer;
    let ops = w.sampled.len().max(1) as f64;
    let replicas = if spec.replicated { 2.0 } else { 1.0 };
    let decode = span_total(t, &kind_of, span::DECODE, None).0;
    let monitor = span_total(t, &kind_of, span::MONITOR, None).0;
    let recorder = span_total(t, &kind_of, span::RECORDER, None).0;
    let online = span_total(t, &kind_of, span::ONLINE, None).0;
    let encode_reply = span_total(t, &kind_of, span::ENCODE_REPLY, None);
    // A follower pays recorder and online model again for every batch.
    let layers_us_per_op =
        (decode + monitor + replicas * (recorder + online) + encode_reply.0) / 1e3 / ops;
    let batch_decode = span_total(t, &kind_of, span::DECODE, Some(Kind::Ingest)).0;
    let per_sample_us_per_op = (batch_decode + monitor + replicas * recorder) / 1e3 / ops;
    let cpu_per_op = obs.server_cpu_us_per_op();
    let replies = w.counts.replies().max(1) as f64;
    let batch_samples = replayed.tally.batch_samples.max(1) as f64;

    result.set(
        "wire.encode_batch_ns",
        mean(span_total(t, &kind_of, span::ENCODE, Some(Kind::Ingest))),
    );
    result.set(
        "wire.decode_batch_ns",
        mean(span_total(t, &kind_of, span::DECODE, Some(Kind::Ingest))),
    );
    result.set("wire.encode_reply_ns", mean(encode_reply));
    result.set(
        "wire.bytes_per_sample",
        replayed.tally.batch_bytes as f64 / batch_samples,
    );
    result.set(
        "core.monitor_sample_ns",
        monitor / replayed.tally.counter_samples.max(1) as f64,
    );
    result.set(
        "core.detector_observe_ns",
        span_total(t, &kind_of, span::DETECTOR, None).0 / batch_samples,
    );
    result.set("testbed.recorder_observe_ns", recorder / batch_samples);
    result.set(
        "testbed.recorder_transitions",
        replayed.tally.transitions as f64,
    );
    result.set("testbed.recorder_records", replayed.tally.records as f64);
    result.set(
        "predict.online_update_ns",
        mean(span_total(t, &kind_of, span::ONLINE, Some(Kind::Ingest))),
    );
    result.set(
        "predict.predict_machine_ns",
        mean(span_total(t, &kind_of, span::ONLINE, Some(Kind::Query))),
    );
    result.set(
        "predict.place_scan_us",
        mean(span_total(t, &kind_of, span::ONLINE, Some(Kind::Place))) / 1e3,
    );
    result.set("predict.events", replayed.model.events() as f64);
    debug_assert_eq!(replayed.model.events(), replayed.tally.events);

    result.set("service.server_cpu_us_per_op", cpu_per_op);
    result.set(
        "service.server_user_us_per_op",
        obs.cpu.others.user_s * 1e6 / replies,
    );
    result.set(
        "service.server_sys_us_per_op",
        obs.cpu.others.sys_s * 1e6 / replies,
    );
    result.set(
        "service.driver_busy_share",
        obs.cpu.driver.on_cpu_ns as f64 / w.elapsed_ns.max(1) as f64,
    );
    result.set("service.layers_us_per_op", layers_us_per_op);
    // The closure row: what only tracing inside the server can split.
    result.set(
        "service.unattributed_us_per_op",
        cpu_per_op - layers_us_per_op,
    );
    result.set(
        "service.per_sample_share",
        per_sample_us_per_op / cpu_per_op,
    );
    for (name, contended, wait_us) in &obs.lock_deltas {
        result.set(&format!("service.lock_wait_us.{name}"), *wait_us as f64);
        result.set(&format!("service.lock_contended.{name}"), *contended as f64);
    }
    result.set("service.shed_batches", server.shed_batches as f64);
    result.set("service.decode_errors", server.decode_errors as f64);
    result.set("service.queue_depth_max", obs.queue_depth_max as f64);
    result.set("service.rss_growth_mb", obs.rss_growth_mb);
    result.set("service.start_ms", start_ms);
    result.set("service.shutdown_ms", shutdown_ms);

    let by_kind: Vec<Vec<u32>> = w.lat_ns.iter().map(|l| sorted(l)).collect();
    let all = sorted(&w.lat_ns.concat());
    result.set("service.rtt_p99_us", tail_us(&all));
    let (ingest, query, place) = (&by_kind[0], &by_kind[1], &by_kind[2]);
    result.set("service.ingest_p50_us", percentile(ingest, 50.0) / 1e3);
    result.set("service.ingest_p99_us", tail_us(ingest));
    result.set("service.query_p50_us", percentile(query, 50.0) / 1e3);
    result.set("service.query_p99_us", tail_us(query));
    result.set("service.place_p50_us", percentile(place, 50.0) / 1e3);

    let mut lag = obs.lag.clone();
    lag.sort_by(f64::total_cmp);
    result.set("repl.lag_seq_p50", percentile(&lag, 50.0));
    result.set("repl.lag_seq_max", lag.last().copied().unwrap_or(0.0));
    result.set("repl.catchup_ms", obs.catchup_ms);
    result.set("repl.pull_cpu_us_per_batch", pull_cpu_us_per_batch);
    result.set("repl.overhead_share", repl_overhead);
    result.set("repl.follower_identical", follower_identical as u8 as f64);

    if let Some(open) = &open {
        let (lat, late) = (sorted(&open.lat_ns), sorted(&open.late_ns));
        result.set("openloop.ingest_p50_us", percentile(&lat, 50.0) / 1e3);
        result.set("openloop.ingest_p99_us", tail_us(&lat));
        result.set("openloop.late_p99_us", tail_us(&late));
    }

    let per_s = |o: &Observed| median(&slice_rates(&o.window, &spec));
    result.set(
        "trace.overhead_share",
        per_s(&obs) / per_s(&reference) - 1.0,
    );

    println!(
        "{workload}: traced window of {} requests ({} sampled, {} latencies; tail = p{}), \
         reference window of {}; harness peak RSS {:.1} MB",
        w.counts.sent,
        w.sampled.len(),
        all.len(),
        tail_percentile(all.len()).map_or(0.0, |p| p.min(99.0)),
        reference.window.counts.sent,
        procfs::peak_rss_mb(),
    );
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{workload}: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );

    result.attempted = total.sent;
    result.failed = total.failed();
    result.correct = result.problems.is_empty() && result.failed == 0;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_always_rides_the_same_connection() {
        let s = spec("query_mix", true).unwrap();
        let plans = make_plans(&s, 7);
        let mut feed = Feed::new(&s, &plans, 7);
        for slot in 0..s.conns {
            for _ in 0..300 {
                let op = feed.next(slot).unwrap();
                if op.kind == Kind::Ingest {
                    assert_eq!(op.machine as usize % s.conns, slot);
                }
            }
        }
        // Frames of a machine are numbered in the order they were cut.
        let sent: u32 = feed.frames_sent.iter().sum();
        assert_eq!(sent as usize, 3 * s.conns);
    }

    #[test]
    fn the_request_stream_repeats_from_its_seed() {
        let s = spec("query_mix", true).unwrap();
        let describe = |seed: u64| -> Vec<(u8, u32)> {
            let plans = make_plans(&s, seed);
            let mut feed = Feed::new(&s, &plans, seed);
            (0..400)
                .map(|i| {
                    let op = feed.next(i % s.conns).unwrap();
                    (op.kind as u8, op.machine)
                })
                .collect()
        };
        assert_eq!(describe(11), describe(11));
        assert_ne!(describe(11), describe(12));
    }
}
