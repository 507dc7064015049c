//! Trace-replaying load generator: N machines × M samples/s against a
//! running server, optionally through frame corruption.
//!
//! One thread per simulated machine, each with its own
//! [`ServiceClient`] and its own deterministic
//! [`FrameCorruptor`](fgcs_faults::FrameCorruptor) stream. The report
//! carries both sides of the client accounting identity:
//! `acks + busys + error_replies == batches_sent`.

use std::io;
use std::time::{Duration, Instant};

use fgcs_faults::{FaultConfig, FrameCorruptor};
use fgcs_testbed::{LabConfig, MachinePlan, SupervisorConfig};
use fgcs_wire::{Frame, SampleLoad, WireSample, HEADER_LEN};

use crate::client::{ClientConfig, ServiceClient};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Lab model whose machines are replayed (`lab.machines` = fan-in).
    pub lab: LabConfig,
    /// Samples per `SampleBatch` frame.
    pub batch_size: usize,
    /// Pacing per machine, samples/second of wall clock; 0 = as fast as
    /// possible (the overload mode).
    pub samples_per_sec: u64,
    /// Fault injection; only `corrupt_rate` (frame corruption) and
    /// `seed` are consulted.
    pub faults: FaultConfig,
    /// Reconnect policy for each machine's client.
    pub sup: SupervisorConfig,
    /// Milliseconds per supervisor "second" (see
    /// [`ClientConfig::backoff_unit_ms`]).
    pub backoff_unit_ms: u64,
    /// Cap on samples replayed per machine; `None` replays the whole
    /// span.
    pub max_samples_per_machine: Option<u64>,
    /// Issue a `QueryAvail` every this many batches (per machine),
    /// measuring reply latency; 0 disables querying.
    pub query_every_batches: u64,
    /// Horizon for those queries, seconds of trace time.
    pub query_horizon: u64,
    /// Auth token each machine's client presents on connect.
    pub token: Option<String>,
}

impl LoadGenConfig {
    /// A small, fast configuration replaying `lab` unpaced and clean.
    pub fn new(lab: LabConfig) -> Self {
        LoadGenConfig {
            lab,
            batch_size: 64,
            samples_per_sec: 0,
            faults: FaultConfig::off(0),
            sup: SupervisorConfig::default(),
            backoff_unit_ms: 1,
            max_samples_per_machine: None,
            query_every_batches: 0,
            query_horizon: 1_800,
            token: None,
        }
    }
}

/// What one load-generation run did and observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadGenReport {
    /// Machines replayed.
    pub machines: usize,
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
    /// `Error` replies received *to sample batches* (the corrupted
    /// ones; must equal `frames_corrupted` exactly).
    pub error_replies: u64,
    /// `QueryAvail` requests issued.
    pub queries_sent: u64,
    /// `AvailReply`s received (a query for a machine the server has not
    /// ingested yet earns an `Error` instead; those are not counted
    /// here or in `error_replies`).
    pub queries_answered: u64,
    /// Reply latency of every query, µs, in issue order.
    pub query_latencies_us: Vec<u64>,
    /// Transparent reconnections across all clients.
    pub reconnects: u64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_secs: f64,
}

impl LoadGenReport {
    fn merge(&mut self, other: LoadGenReport) {
        self.machines += other.machines;
        self.batches_sent += other.batches_sent;
        self.samples_sent += other.samples_sent;
        self.frames_corrupted += other.frames_corrupted;
        self.acks += other.acks;
        self.busys += other.busys;
        self.error_replies += other.error_replies;
        self.queries_sent += other.queries_sent;
        self.queries_answered += other.queries_answered;
        self.query_latencies_us.extend(other.query_latencies_us);
        self.reconnects += other.reconnects;
        self.elapsed_secs = self.elapsed_secs.max(other.elapsed_secs);
    }
}

/// Replays every machine of `cfg.lab` against the server at `addr`,
/// one thread per machine. Returns the merged report; fails on the
/// first machine whose client gives up entirely.
pub fn run_loadgen(addr: &str, cfg: &LoadGenConfig) -> io::Result<LoadGenReport> {
    let started = Instant::now();
    let ids: Vec<usize> = (0..cfg.lab.machines).collect();
    let results: Vec<io::Result<LoadGenReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| scope.spawn(move || replay_machine(addr, cfg, id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread panicked"))
            .collect()
    });
    let mut report = LoadGenReport::default();
    for r in results {
        report.merge(r?);
    }
    report.elapsed_secs = started.elapsed().as_secs_f64();
    Ok(report)
}

fn replay_machine(addr: &str, cfg: &LoadGenConfig, machine_id: usize) -> io::Result<LoadGenReport> {
    let started = Instant::now();
    let mut client = ServiceClient::connect(ClientConfig {
        addr: addr.to_string(),
        sup: cfg.sup,
        backoff_unit_ms: cfg.backoff_unit_ms,
        read_timeout_ms: 10_000,
        token: cfg.token.clone(),
    })?;
    let mut corruptor = FrameCorruptor::new(&cfg.faults, machine_id as u64);
    let plan = MachinePlan::generate(&cfg.lab, machine_id);
    let mut report = LoadGenReport {
        machines: 1,
        ..Default::default()
    };

    let batch_size = cfg.batch_size.max(1);
    // Per-batch sleep that yields the configured per-machine rate
    // (unpaced when the rate is 0).
    let pace = (batch_size as u64)
        .saturating_mul(1_000_000)
        .checked_div(cfg.samples_per_sec)
        .map(Duration::from_micros);

    let mut pending: Vec<WireSample> = Vec::with_capacity(batch_size);
    let mut taken = 0u64;
    let mut samples = plan.samples();
    loop {
        let sample = samples.next();
        if let Some(s) = &sample {
            if cfg.max_samples_per_machine.is_some_and(|cap| taken >= cap) {
                // Cap reached: flush what's pending and stop.
            } else {
                taken += 1;
                pending.push(WireSample {
                    t: s.t,
                    load: SampleLoad::Direct(s.host_load),
                    host_resident_mb: s.host_resident_mb,
                    alive: s.alive,
                });
                if pending.len() < batch_size {
                    continue;
                }
            }
        }
        if !pending.is_empty() {
            let batch = Frame::SampleBatch {
                machine: machine_id as u32,
                samples: std::mem::take(&mut pending),
            };
            let mut bytes = batch
                .encode()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            corruptor.corrupt(&mut bytes, HEADER_LEN);
            let sample_count = match &batch {
                Frame::SampleBatch { samples, .. } => samples.len() as u64,
                _ => unreachable!(),
            };
            report.batches_sent += 1;
            report.samples_sent += sample_count;
            match client.request_encoded(&bytes)? {
                Frame::Ack { .. } => report.acks += 1,
                Frame::Busy { .. } => report.busys += 1,
                Frame::Error { .. } => report.error_replies += 1,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reply to SampleBatch: tag {}", other.tag()),
                    ))
                }
            }
            if let Some(d) = pace {
                std::thread::sleep(d);
            }
            if cfg.query_every_batches > 0
                && report.batches_sent.is_multiple_of(cfg.query_every_batches)
            {
                let q = Frame::QueryAvail {
                    machine: machine_id as u32,
                    horizon: cfg.query_horizon,
                };
                let sent_at = Instant::now();
                let reply = client.request(&q)?;
                report
                    .query_latencies_us
                    .push(sent_at.elapsed().as_micros() as u64);
                report.queries_sent += 1;
                if matches!(reply, Frame::AvailReply { .. }) {
                    report.queries_answered += 1;
                }
            }
        }
        let capped = cfg.max_samples_per_machine.is_some_and(|cap| taken >= cap);
        if sample.is_none() || capped {
            break;
        }
    }
    report.frames_corrupted = corruptor.frames_corrupted;
    report.reconnects = client.reconnects;
    report.elapsed_secs = started.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(target_os = "linux")]
pub use fanin::{run_fanin, FanInConfig, FanInReport};

/// The connection-scaling driver: thousands of monitor connections from
/// one thread (Linux only), multiplexed over [`crate::ClientPool`] —
/// the same epoll shim the server's event loops run on.
///
/// `run_loadgen` spends one OS thread per machine, which is exactly the
/// limitation the scaling experiment measures on the *server* — the
/// client must not hit it first. Here every connection is a small
/// protocol state machine (handshake → paced batches → replies →
/// optional query) driven by the pool's transport events, so a single
/// driver thread sustains 8192 concurrent streams at a fixed aggregate
/// sample rate.
#[cfg(target_os = "linux")]
mod fanin {
    use std::io;
    use std::time::{Duration, Instant};

    use fgcs_wire::{ErrorCode, Frame, SampleLoad, WireSample};

    use crate::pool::{ClientPool, PoolCloseReason, PoolEvent};

    /// Fan-in driver configuration.
    #[derive(Debug, Clone)]
    pub struct FanInConfig {
        /// Concurrent connections to open (one synthetic machine each;
        /// machine id == connection index).
        pub conns: usize,
        /// `SampleBatch` frames each connection sends.
        pub batches_per_conn: u64,
        /// Samples per batch.
        pub batch_size: usize,
        /// Aggregate offered load across *all* connections,
        /// samples/second; 0 = unpaced.
        pub aggregate_samples_per_sec: u64,
        /// Issue a `QueryAvail` after every this many batches (per
        /// connection), measuring reply latency; 0 disables.
        pub query_every_batches: u64,
        /// Horizon for those queries, seconds of trace time.
        pub query_horizon: u64,
        /// Auth token presented as each connection's first frame.
        pub token: Option<String>,
        /// Give up (marking unfinished connections failed) after this
        /// many wall-clock seconds.
        pub deadline_secs: u64,
    }

    impl FanInConfig {
        /// `conns` connections, 4 batches × 32 samples each, unpaced,
        /// no queries, 120 s deadline.
        pub fn new(conns: usize) -> Self {
            FanInConfig {
                conns,
                batches_per_conn: 4,
                batch_size: 32,
                aggregate_samples_per_sec: 0,
                query_every_batches: 0,
                query_horizon: 1_800,
                token: None,
                deadline_secs: 120,
            }
        }
    }

    /// What a fan-in run did and observed. The batch identity is
    /// `acks + busys + error_replies == batches_sent` (client side),
    /// reconciling against the server's `ingested + shed +
    /// decode-rejected` — but only when `conns_failed == 0`: a failed
    /// connection may have a batch in flight with no reply.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FanInReport {
        /// Connections requested.
        pub conns_requested: usize,
        /// Connections that established TCP.
        pub conns_connected: usize,
        /// Connections that completed every batch (the scaling curve's
        /// "sustained" number).
        pub conns_sustained: usize,
        /// Connections the server refused during the handshake (conn
        /// cap or auth); they sent zero batches.
        pub conns_rejected: usize,
        /// Connections that died after the handshake (should be zero).
        pub conns_failed: usize,
        /// `SampleBatch` frames sent.
        pub batches_sent: u64,
        /// Samples inside those frames.
        pub samples_sent: u64,
        /// `Ack` replies received.
        pub acks: u64,
        /// `Busy` replies received.
        pub busys: u64,
        /// `Error` replies received to sample batches.
        pub error_replies: u64,
        /// `QueryAvail` requests issued.
        pub queries_sent: u64,
        /// `AvailReply`s received.
        pub queries_answered: u64,
        /// `Error` replies received to queries.
        pub query_errors: u64,
        /// Reply latency of every answered query, µs.
        pub query_latencies_us: Vec<u64>,
        /// Wall-clock duration of the run, seconds.
        pub elapsed_secs: f64,
        /// Seconds of `elapsed_secs` spent establishing connections and
        /// sending handshakes, before the paced streaming window began.
        /// Throughput over the streaming window alone is
        /// `samples_sent / (elapsed_secs - connect_secs)` — at
        /// thousands of serial TCP connects the setup phase would
        /// otherwise dominate and flatten any scaling comparison.
        pub connect_secs: f64,
    }

    #[derive(Debug)]
    enum Phase {
        /// `Auth` sent, awaiting `Ack`.
        AwaitAuth,
        /// `QueryStats` probe sent, awaiting `StatsReply`. The probe
        /// forces the server to commit before any batch is sent: a
        /// refused connection (conn cap, bad token) answers — or
        /// closes — here, so rejected connections send zero batches
        /// and the batch identity stays exact.
        AwaitProbe,
        /// Waiting until the pacing deadline to send the next batch.
        Idle,
        /// Batch sent, awaiting `Ack`/`Busy`/`Error`.
        AwaitBatchReply,
        /// `QueryAvail` sent, awaiting its reply.
        AwaitQueryReply { sent_at: Instant },
        /// All batches acknowledged.
        Done,
    }

    /// Per-connection protocol state, indexed by pool slot (the pool
    /// owns the transport: socket, reassembly, write buffering).
    struct SlotState {
        phase: Phase,
        batches_done: u64,
        /// Next sample timestamp for this machine's synthetic stream.
        next_t: u64,
        due: Instant,
    }

    /// Builds the next synthetic batch for a machine: one-minute
    /// samples, light steady load — enough to drive the full decode →
    /// ring → detector path without detector-state churn.
    fn next_batch(machine: u32, state: &mut SlotState, batch_size: usize) -> Frame {
        let samples: Vec<WireSample> = (0..batch_size)
            .map(|i| WireSample {
                t: state.next_t + 60 * i as u64,
                load: SampleLoad::Direct(0.05),
                host_resident_mb: 100,
                alive: true,
            })
            .collect();
        state.next_t += 60 * batch_size as u64;
        Frame::SampleBatch { machine, samples }
    }

    enum Fate {
        Keep,
        Rejected,
        Failed,
        Finished,
    }

    /// Advances one connection's state machine on a received frame.
    fn on_frame(
        slot: usize,
        state: &mut SlotState,
        frame: Frame,
        cfg: &FanInConfig,
        report: &mut FanInReport,
        period: Option<Duration>,
        pool: &mut ClientPool,
    ) -> Fate {
        // A typed handshake rejection (conn cap or bad token) is a
        // rejection, not a failure, whatever phase follows it.
        if let Frame::Error { code, .. } = &frame {
            if matches!(state.phase, Phase::AwaitAuth | Phase::AwaitProbe)
                && matches!(code, ErrorCode::ConnLimit | ErrorCode::Unauthorized)
            {
                return Fate::Rejected;
            }
        }
        match state.phase {
            Phase::AwaitAuth => match frame {
                Frame::Ack { .. } => {
                    state.phase = Phase::AwaitProbe;
                    if pool.send(slot, &Frame::QueryStats) {
                        Fate::Keep
                    } else {
                        Fate::Rejected
                    }
                }
                _ => Fate::Rejected,
            },
            Phase::AwaitProbe => match frame {
                Frame::StatsReply(_) => {
                    state.phase = Phase::Idle;
                    Fate::Keep
                }
                _ => Fate::Rejected,
            },
            Phase::AwaitBatchReply => {
                match frame {
                    Frame::Ack { .. } => report.acks += 1,
                    Frame::Busy { .. } => report.busys += 1,
                    Frame::Error { .. } => report.error_replies += 1,
                    _ => return Fate::Failed,
                }
                state.batches_done += 1;
                if state.batches_done >= cfg.batches_per_conn {
                    state.phase = Phase::Done;
                    return Fate::Finished;
                }
                if cfg.query_every_batches > 0
                    && state.batches_done.is_multiple_of(cfg.query_every_batches)
                {
                    let q = Frame::QueryAvail {
                        machine: slot as u32,
                        horizon: cfg.query_horizon,
                    };
                    report.queries_sent += 1;
                    state.phase = Phase::AwaitQueryReply {
                        sent_at: Instant::now(),
                    };
                    if pool.send(slot, &q) {
                        Fate::Keep
                    } else {
                        Fate::Failed
                    }
                } else {
                    state.phase = Phase::Idle;
                    if let Some(p) = period {
                        state.due += p;
                    }
                    Fate::Keep
                }
            }
            Phase::AwaitQueryReply { sent_at } => {
                match frame {
                    Frame::AvailReply { .. } => {
                        report.queries_answered += 1;
                        report
                            .query_latencies_us
                            .push(sent_at.elapsed().as_micros() as u64);
                    }
                    Frame::Error { .. } => report.query_errors += 1,
                    _ => return Fate::Failed,
                }
                state.phase = Phase::Idle;
                if let Some(p) = period {
                    state.due += p;
                }
                Fate::Keep
            }
            Phase::Idle | Phase::Done => Fate::Failed, // unsolicited frame
        }
    }

    /// Maps a transport close to a protocol fate. A handshake-phase
    /// close is a rejection: the server refused before any batch was
    /// sent (a refusing server's close often arrives as an RST that
    /// races ahead of its typed error frame, so `Err` in the handshake
    /// counts the same as a clean EOF there).
    fn close_fate(state: &SlotState, reason: PoolCloseReason) -> Fate {
        match reason {
            PoolCloseReason::Eof | PoolCloseReason::Err => match state.phase {
                Phase::AwaitAuth | Phase::AwaitProbe => Fate::Rejected,
                Phase::Done if matches!(reason, PoolCloseReason::Eof) => Fate::Finished,
                _ => Fate::Failed,
            },
            PoolCloseReason::Decode => Fate::Failed,
        }
    }

    /// Runs the fan-in scaling driver against `addr`.
    pub fn run_fanin(addr: &str, cfg: &FanInConfig) -> io::Result<FanInReport> {
        let started = Instant::now();
        let deadline = started + Duration::from_secs(cfg.deadline_secs.max(1));
        let batch_size = cfg.batch_size.max(1);
        // Fixed aggregate rate: each connection sends a batch every
        // `period`, so conns × batch_size / period == the target rate.
        let period = (batch_size as u64)
            .saturating_mul(cfg.conns as u64)
            .saturating_mul(1_000_000_000)
            .checked_div(cfg.aggregate_samples_per_sec)
            .map(Duration::from_nanos);
        let mut report = FanInReport {
            conns_requested: cfg.conns,
            ..Default::default()
        };

        let mut pool = ClientPool::connect(addr, cfg.conns)?;
        report.conns_connected = pool.open_count();
        report.conns_rejected = cfg.conns - pool.open_count();

        let mut states: Vec<Option<SlotState>> = Vec::with_capacity(cfg.conns);
        for slot in 0..cfg.conns {
            if !pool.is_open(slot) {
                states.push(None);
                continue;
            }
            let mut state = SlotState {
                phase: Phase::AwaitProbe,
                batches_done: 0,
                next_t: 0,
                due: started,
            };
            let first = match &cfg.token {
                Some(token) => {
                    state.phase = Phase::AwaitAuth;
                    Frame::Auth {
                        token: token.clone(),
                    }
                }
                None => Frame::QueryStats,
            };
            if !pool.send(slot, &first) {
                report.conns_rejected += 1;
                states.push(None);
                continue;
            }
            states.push(Some(state));
        }

        // Stagger first-send deadlines across one period so the
        // aggregate rate is flat, not conns-sized bursts. Re-based
        // *after* the connect loop: at thousands of connections the
        // serial connects take longer than a period, and dues anchored
        // at `started` would all be past — one thundering burst.
        let t0 = Instant::now();
        report.connect_secs = (t0 - started).as_secs_f64();
        if let Some(p) = period {
            for (slot, state) in states.iter_mut().enumerate() {
                if let Some(s) = state {
                    s.due = t0 + p * slot as u32 / cfg.conns as u32;
                }
            }
        }

        let mut open = states.iter().filter(|s| s.is_some()).count();
        let mut events: Vec<PoolEvent> = Vec::new();

        while open > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Fire every idle connection whose pacing deadline passed.
            let mut next_due: Option<Instant> = None;
            for (slot, entry) in states.iter_mut().enumerate() {
                let Some(state) = entry.as_mut() else {
                    continue;
                };
                if !matches!(state.phase, Phase::Idle) {
                    continue;
                }
                if state.due <= now {
                    let batch = next_batch(slot as u32, state, batch_size);
                    report.batches_sent += 1;
                    report.samples_sent += batch_size as u64;
                    state.phase = Phase::AwaitBatchReply;
                    if !pool.send(slot, &batch) {
                        report.conns_failed += 1;
                        *entry = None;
                        open -= 1;
                    }
                } else {
                    next_due = Some(next_due.map_or(state.due, |d: Instant| d.min(state.due)));
                }
            }
            let timeout_ms = match next_due {
                Some(d) => (d.saturating_duration_since(now).as_millis() as i32).clamp(0, 50),
                None => 50,
            };
            pool.poll(timeout_ms, &mut events)?;
            for ev in events.drain(..) {
                let (slot, fate) = match ev {
                    // Never emitted (see `PoolEvent::Connected`).
                    PoolEvent::Connected { .. } => continue,
                    PoolEvent::Frame { slot, frame } => {
                        let Some(state) = states[slot].as_mut() else {
                            continue; // slot already resolved this drain
                        };
                        (
                            slot,
                            on_frame(slot, state, frame, cfg, &mut report, period, &mut pool),
                        )
                    }
                    PoolEvent::Closed { slot, reason } => {
                        let Some(state) = states[slot].as_ref() else {
                            continue;
                        };
                        (slot, close_fate(state, reason))
                    }
                };
                match fate {
                    Fate::Keep => {}
                    Fate::Rejected => {
                        report.conns_rejected += 1;
                        pool.close(slot);
                        states[slot] = None;
                        open -= 1;
                    }
                    Fate::Failed => {
                        report.conns_failed += 1;
                        pool.close(slot);
                        states[slot] = None;
                        open -= 1;
                    }
                    Fate::Finished => {
                        report.conns_sustained += 1;
                        pool.close(slot);
                        states[slot] = None;
                        open -= 1;
                    }
                }
            }
        }
        // Deadline hit with connections still open: they failed.
        for (slot, entry) in states.iter_mut().enumerate() {
            if entry.take().is_some() {
                report.conns_failed += 1;
                pool.close(slot);
            }
        }
        report.elapsed_secs = started.elapsed().as_secs_f64();
        Ok(report)
    }
}
