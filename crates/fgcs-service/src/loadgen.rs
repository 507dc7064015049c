//! The load driver: per-machine monitor sample streams replayed against a
//! running server from one thread (Linux only), over [`ClientPool`] —
//! the same epoll shim the server's event loops run on.
//!
//! A connection with one request in flight is a closed-loop source, so
//! concurrency is the connection count, not a thread count. Machine `m`
//! rides slot `m % conns`; a slot streams its machines one after
//! another and keeps exactly one request outstanding, so each machine's
//! samples reach the server in order however the slots interleave —
//! the property the bit-identity tests rest on. Every slot is a small
//! protocol state machine driven by the pool's events: a handshake,
//! then paced `SampleBatch`es, each answered before the next, with an
//! optional `QueryAvail` every few batches.
//!
//! The caller picks what each machine streams ([`Source`]). Encoded
//! batches can be corrupted on the way out — one deterministic
//! [`FrameCorruptor`] stream per machine — to exercise the decode error
//! paths. The report carries the client side of the accounting
//! identity, `acks + busys + error_replies == batches_sent`, which holds
//! whenever `conns_failed == 0` (a failed connection may have had a
//! batch in flight with no reply).

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::time::{Duration, Instant};

use fgcs_faults::{FaultConfig, FrameCorruptor};
use fgcs_testbed::{LabConfig, MachinePlan};
use fgcs_wire::{encode_into, Frame, SampleLoad, WireSample, HEADER_LEN};

use crate::pool::{ClientPool, PoolCloseReason, PoolEvent};

/// The deterministic replay wave: sample `i` of machine `m` is at
/// `t = i * 15` with a square-wave load (40 samples busy, 40 idle,
/// phase-shifted per machine) — long enough stretches to drive real
/// detector transitions and occurrence records.
pub fn wave_sample(machine: u32, i: u64) -> WireSample {
    let busy = ((i + 7 * machine as u64) / 40) % 2 == 1;
    WireSample {
        t: i * 15,
        load: SampleLoad::Direct(if busy { 0.9 } else { 0.05 }),
        host_resident_mb: 100,
        alive: true,
    }
}

/// What each machine streams, and which machines there are.
// One value per run: the lab variant's size costs nothing worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Source {
    /// Machines `0..lab.machines`, each replaying its
    /// [`MachinePlan::samples`], cut after `max_samples` when set.
    Lab {
        /// The lab model whose machines are replayed.
        lab: LabConfig,
        /// Cap on samples per machine; `None` replays the whole span.
        max_samples: Option<u64>,
    },
    /// Machines `0..machines`, each `samples` one-minute samples of
    /// light steady load — enough to drive the full decode → ingest →
    /// detector path without detector-state churn.
    Steady {
        /// Machine count.
        machines: u32,
        /// Samples per machine.
        samples: u64,
    },
    /// Machines `1..=machines`, each the first `samples` samples of
    /// [`wave_sample`] minus those at or before `resume_after[m]`: the
    /// client side of restart recovery. Strictly after, because the
    /// server accepts a duplicate of its `last_t` sample (only
    /// `t < last_t` is out of order) and it would skew availability
    /// means.
    Wave {
        /// Machine count.
        machines: u32,
        /// Wave samples per machine, before the resume floor.
        samples: u64,
        /// Per-machine resume floor (the server's `last_t`).
        resume_after: BTreeMap<u32, u64>,
    },
}

impl Source {
    /// The machine ids this source streams, ascending.
    pub fn machines(&self) -> Range<u32> {
        match self {
            Source::Lab { lab, .. } => 0..lab.machines as u32,
            Source::Steady { machines, .. } => 0..*machines,
            Source::Wave { machines, .. } => 1..machines + 1,
        }
    }

    /// One machine's whole stream, in send order.
    fn samples(&self, machine: u32) -> Vec<WireSample> {
        match self {
            Source::Lab { lab, max_samples } => MachinePlan::generate(lab, machine as usize)
                .samples()
                .take(max_samples.map_or(usize::MAX, |n| n as usize))
                .map(|s| WireSample {
                    t: s.t,
                    load: SampleLoad::Direct(s.host_load),
                    host_resident_mb: s.host_resident_mb,
                    alive: s.alive,
                })
                .collect(),
            Source::Steady { samples, .. } => (0..*samples)
                .map(|i| WireSample {
                    t: 60 * i,
                    load: SampleLoad::Direct(0.05),
                    host_resident_mb: 100,
                    alive: true,
                })
                .collect(),
            Source::Wave {
                samples,
                resume_after,
                ..
            } => {
                let floor = resume_after.get(&machine).copied();
                (0..*samples)
                    .map(|i| wave_sample(machine, i))
                    .filter(|s| floor.is_none_or(|lt| s.t > lt))
                    .collect()
            }
        }
    }
}

/// Load-driver configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// What each machine streams.
    pub source: Source,
    /// Connections to open; machine `m` rides slot `m % conns`.
    pub conns: usize,
    /// Samples per `SampleBatch` frame.
    pub batch_size: usize,
    /// Aggregate offered load across all connections, samples per
    /// second of wall clock; 0 = unpaced (each slot sends its next
    /// batch as soon as the last one is answered).
    pub samples_per_sec: u64,
    /// Fault injection; only `corrupt_rate` (frame corruption) and
    /// `seed` are consulted.
    pub faults: FaultConfig,
    /// Issue a `QueryAvail` (30-minute horizon) for a machine after
    /// every this many of its batches, measuring reply latency; 0
    /// disables querying.
    pub query_every_batches: u64,
    /// Auth token every connection presents as its first frame; `None`
    /// = no `Auth` frame.
    pub token: Option<String>,
    /// Give up after this many wall-clock seconds, marking every
    /// connection still streaming failed.
    pub deadline_secs: u64,
}

impl LoadGenConfig {
    /// One connection per machine of `source`, 64-sample batches,
    /// unpaced, clean, no queries, no auth, 120 s deadline.
    pub fn new(source: Source) -> Self {
        LoadGenConfig {
            conns: source.machines().len(),
            source,
            batch_size: 64,
            samples_per_sec: 0,
            faults: FaultConfig::off(0),
            query_every_batches: 0,
            token: None,
            deadline_secs: 120,
        }
    }
}

/// What one load-driver run did and observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadGenReport {
    /// Connections requested.
    pub conns_requested: usize,
    /// Connections that established TCP.
    pub conns_connected: usize,
    /// Connections that streamed every one of their machines.
    pub conns_sustained: usize,
    /// Connections the server refused during the handshake (conn cap or
    /// auth); they sent zero batches.
    pub conns_rejected: usize,
    /// Connections that died after the handshake, or were still
    /// streaming at the deadline (should be zero).
    pub conns_failed: usize,
    /// `SampleBatch` frames sent (including corrupted ones).
    pub batches_sent: u64,
    /// Samples inside those frames.
    pub samples_sent: u64,
    /// Frames the injector corrupted before sending.
    pub frames_corrupted: u64,
    /// `Ack` replies received.
    pub acks: u64,
    /// `Busy` replies received.
    pub busys: u64,
    /// `Error` replies received to sample batches (the corrupted ones,
    /// on a clean server).
    pub error_replies: u64,
    /// `QueryAvail` requests issued.
    pub queries_sent: u64,
    /// `AvailReply`s received.
    pub queries_answered: u64,
    /// `Error` replies received to queries.
    pub query_errors: u64,
    /// Reply latency of every answered query, µs.
    pub query_latencies_us: Vec<u64>,
    /// Wall-clock duration of the run, seconds: the connects and the
    /// streaming. Every machine's samples are built before the clock
    /// starts, so the source's cost is not in it.
    pub elapsed_secs: f64,
    /// Seconds of `elapsed_secs` spent on the serial TCP connects, which
    /// at thousands of connections would dominate a scaling comparison:
    /// the streaming window alone is `elapsed_secs - connect_secs`.
    pub connect_secs: f64,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// `Auth` (or, with no token, a `QueryStats` probe) sent, awaiting
    /// its `Ack`/`StatsReply`. Nothing is sent before the server has
    /// committed: a refused connection (conn cap, bad token) answers —
    /// or closes — here, so rejected connections send zero batches and
    /// the batch identity stays exact.
    Handshake,
    /// Waiting until the pacing deadline to send the next batch.
    Idle,
    /// Batch sent, awaiting `Ack`/`Busy`/`Error`.
    AwaitBatch,
    /// `QueryAvail` sent, awaiting its reply.
    AwaitQuery { sent_at: Instant },
}

/// One machine's stream on its slot.
struct Stream {
    machine: u32,
    unsent: std::vec::IntoIter<WireSample>,
    batches: u64,
    corruptor: FrameCorruptor,
}

/// One connection's protocol state (the pool owns the transport:
/// socket, reassembly, write buffering).
struct Slot {
    phase: Phase,
    /// The slot's machines, last one first: the last is the one
    /// streaming, and it is popped once it is sent out and answered.
    streams: Vec<Stream>,
    /// When the next batch may go out.
    due: Instant,
}

impl Slot {
    /// Readies the slot's next batch, from the first of its machines
    /// with samples left. `Finished` when it has streamed them all.
    fn ready(&mut self) -> Fate {
        while let Some(s) = self.streams.last() {
            if !s.unsent.as_slice().is_empty() {
                self.phase = Phase::Idle;
                return Fate::Keep;
            }
            self.streams.pop();
        }
        Fate::Finished
    }
}

enum Fate {
    Keep,
    Rejected,
    Failed,
    Finished,
}

/// Everything but the per-slot state, which the run loop keeps beside
/// it (indexed by pool slot, `None` once the slot's fate is settled).
struct Driver<'a> {
    cfg: &'a LoadGenConfig,
    pool: ClientPool,
    /// Time between one slot's batches at the configured aggregate rate.
    period: Option<Duration>,
    report: LoadGenReport,
    /// Encode buffer, reused across batches.
    buf: Vec<u8>,
}

impl Driver<'_> {
    /// Sends the slot's next batch. `false` = the socket is dead.
    fn send_batch(&mut self, index: usize, slot: &mut Slot) -> io::Result<bool> {
        let stream = slot.streams.last_mut().expect("a ready slot has a stream");
        let samples: Vec<WireSample> = stream
            .unsent
            .by_ref()
            .take(self.cfg.batch_size.max(1))
            .collect();
        self.report.samples_sent += samples.len() as u64;
        self.report.batches_sent += 1;
        let batch = Frame::SampleBatch {
            machine: stream.machine,
            samples,
        };
        encode_into(&batch, &mut self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        if stream.corruptor.corrupt(&mut self.buf, HEADER_LEN) {
            self.report.frames_corrupted += 1;
        }
        slot.phase = Phase::AwaitBatch;
        if let Some(p) = self.period {
            slot.due += p;
        }
        Ok(self.pool.send_encoded(index, &self.buf))
    }

    /// Advances one connection's state machine on a received frame.
    fn on_frame(&mut self, index: usize, slot: &mut Slot, frame: Frame) -> Fate {
        match (slot.phase, frame) {
            (Phase::Handshake, Frame::Ack { .. } | Frame::StatsReply(_)) => slot.ready(),
            // Typically a typed `ConnLimit` or `Unauthorized`.
            (Phase::Handshake, _) => Fate::Rejected,
            (Phase::AwaitBatch, reply) => {
                match reply {
                    Frame::Ack { .. } => self.report.acks += 1,
                    Frame::Busy { .. } => self.report.busys += 1,
                    Frame::Error { .. } => self.report.error_replies += 1,
                    _ => return Fate::Failed,
                }
                let stream = slot.streams.last_mut().expect("a batch was in flight");
                stream.batches += 1;
                let every = self.cfg.query_every_batches;
                if every == 0 || !stream.batches.is_multiple_of(every) {
                    return slot.ready();
                }
                let query = Frame::QueryAvail {
                    machine: stream.machine,
                    horizon: 1_800,
                };
                self.report.queries_sent += 1;
                slot.phase = Phase::AwaitQuery {
                    sent_at: Instant::now(),
                };
                if self.pool.send(index, &query) {
                    Fate::Keep
                } else {
                    Fate::Failed
                }
            }
            (Phase::AwaitQuery { sent_at }, Frame::AvailReply { .. }) => {
                self.report.queries_answered += 1;
                self.report
                    .query_latencies_us
                    .push(sent_at.elapsed().as_micros() as u64);
                slot.ready()
            }
            (Phase::AwaitQuery { .. }, Frame::Error { .. }) => {
                self.report.query_errors += 1;
                slot.ready()
            }
            _ => Fate::Failed, // unsolicited or out-of-protocol frame
        }
    }

    /// Books a settled fate and retires the slot.
    fn settle(&mut self, index: usize, fate: Fate, entry: &mut Option<Slot>) {
        match fate {
            Fate::Keep => return,
            Fate::Rejected => self.report.conns_rejected += 1,
            Fate::Failed => self.report.conns_failed += 1,
            Fate::Finished => self.report.conns_sustained += 1,
        }
        self.pool.close(index);
        *entry = None;
    }
}

/// Streams every machine of `cfg.source` to the server at `addr` and
/// returns what happened. Only a local failure (epoll setup, an
/// unencodable batch) is an error; the server's refusals and deaths are
/// counted in the report.
pub fn run_loadgen(addr: &str, cfg: &LoadGenConfig) -> io::Result<LoadGenReport> {
    let conns = cfg.conns.max(1);
    let mut streams: Vec<Vec<Stream>> = (0..conns).map(|_| Vec::new()).collect();
    for machine in cfg.source.machines().rev() {
        streams[machine as usize % conns].push(Stream {
            machine,
            unsent: cfg.source.samples(machine).into_iter(),
            batches: 0,
            corruptor: FrameCorruptor::new(&cfg.faults, machine as u64),
        });
    }
    // Fixed aggregate rate: each connection sends a batch every
    // `period`, so conns × batch_size / period == the target rate.
    let period = (cfg.batch_size.max(1) as u64)
        .saturating_mul(conns as u64)
        .saturating_mul(1_000_000_000)
        .checked_div(cfg.samples_per_sec)
        .map(Duration::from_nanos);

    let started = Instant::now();
    let deadline = started + Duration::from_secs(cfg.deadline_secs.max(1));
    let pool = ClientPool::connect(addr, conns)?;
    // Pacing starts once the serial connects are done (at thousands of
    // connections they outlast a period, and dues anchored at `started`
    // would all be past: one thundering burst), with first sends
    // staggered across one period so the aggregate rate is flat.
    let t0 = Instant::now();
    let mut d = Driver {
        cfg,
        report: LoadGenReport {
            conns_requested: conns,
            conns_connected: pool.open_count(),
            connect_secs: (t0 - started).as_secs_f64(),
            ..Default::default()
        },
        pool,
        period,
        buf: Vec::new(),
    };
    let first = match &cfg.token {
        Some(token) => Frame::Auth {
            token: token.clone(),
        },
        None => Frame::QueryStats,
    };
    let mut slots: Vec<Option<Slot>> = streams
        .into_iter()
        .enumerate()
        .map(|(index, streams)| {
            d.pool.send(index, &first).then(|| Slot {
                phase: Phase::Handshake,
                streams,
                due: t0 + period.map_or(Duration::ZERO, |p| p * index as u32 / conns as u32),
            })
        })
        .collect();
    // A refused connect, or a first send that found the socket dead.
    d.report.conns_rejected = conns - slots.iter().flatten().count();

    let mut events: Vec<PoolEvent> = Vec::new();
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // Fire every idle connection whose pacing deadline passed.
        let mut live = false;
        let mut next_due: Option<Instant> = None;
        for (index, entry) in slots.iter_mut().enumerate() {
            let Some(slot) = entry.as_mut() else {
                continue;
            };
            live = true;
            if !matches!(slot.phase, Phase::Idle) {
                continue;
            }
            if slot.due > now {
                next_due = Some(next_due.map_or(slot.due, |n: Instant| n.min(slot.due)));
            } else if !d.send_batch(index, slot)? {
                d.settle(index, Fate::Failed, entry);
            }
        }
        if !live {
            break;
        }
        let timeout_ms = match next_due {
            Some(due) => (due.saturating_duration_since(now).as_millis() as i32).clamp(0, 50),
            None => 50,
        };
        d.pool.poll(timeout_ms, &mut events)?;
        for ev in events.drain(..) {
            let (index, fate) = match ev {
                // Never emitted (see `PoolEvent::Connected`).
                PoolEvent::Connected { .. } => continue,
                PoolEvent::Frame { slot, frame } => {
                    let Some(state) = slots[slot].as_mut() else {
                        continue; // slot already settled this drain
                    };
                    (slot, d.on_frame(slot, state, frame))
                }
                // A close during the handshake is a refusal: a refusing
                // server's RST often races ahead of its typed error
                // frame, so a socket error there counts as one too.
                PoolEvent::Closed { slot, reason } => match &slots[slot] {
                    None => continue,
                    Some(s)
                        if matches!(s.phase, Phase::Handshake)
                            && reason != PoolCloseReason::Decode =>
                    {
                        (slot, Fate::Rejected)
                    }
                    Some(_) => (slot, Fate::Failed),
                },
            };
            d.settle(index, fate, &mut slots[index]);
        }
    }
    // Deadline hit with connections still open: they failed.
    for (index, entry) in slots.iter_mut().enumerate() {
        if entry.is_some() {
            d.settle(index, Fate::Failed, entry);
        }
    }
    d.report.elapsed_secs = started.elapsed().as_secs_f64();
    Ok(d.report)
}
