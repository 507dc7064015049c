//! The only file of the benchmark that names `fgcs_*` items. Everything
//! the benchmark calls in the product goes through here, so a change to
//! a public API shows up as an edit to this one file, and the list of
//! functions the instrument pins (repeated in the README) is the `use`
//! block below.
//!
//! Nothing here is timed: the workloads place their own clocks and spans
//! around these calls.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fgcs_core::detector::{Detector, EventEdge};
use fgcs_core::monitor::{Monitor, Observation, ResourceProbe};
use fgcs_predict::online::OnlineAvailabilityModel;
use fgcs_service::{Backend, ClientPool, PoolEvent, Server, ServiceConfig};
use fgcs_sim::machine::{Machine, MachineConfig};
use fgcs_sim::proc::{Demand, MemSpec, ProcClass, ProcSpec};
use fgcs_stats::sketch::RankSketch;
use fgcs_testbed::analysis;
use fgcs_testbed::calendar::DayType;
use fgcs_testbed::fleet::{run_fleet, FleetConfig};
use fgcs_testbed::lab::{MachinePlan, SampleIter};
use fgcs_testbed::runner::{trace_machine, trace_machine_batched, OccurrenceRecorder};
use fgcs_testbed::streaming::{StreamingAnalysis, Table2Summary};
use fgcs_testbed::{LabConfig, TestbedConfig, Trace, TraceMeta};
use fgcs_wire::{encode_into, Decoder};

pub use fgcs_testbed::TraceRecord;
pub use fgcs_wire::{Frame, SampleLoad, WireSample, WireTransition};

use crate::closed_loop::{Event, Transport};
use crate::trace::Tracer;

// ---------------------------------------------------------------- wire

/// Encodes `frame` into `buf` (cleared first). The benchmark only builds
/// frames the codec accepts, so a refusal is a bug in the benchmark.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    encode_into(frame, buf).expect("the benchmark builds only encodable frames");
}

/// Stream reassembly, as the server does per connection.
#[derive(Default)]
pub struct FrameDecoder(Decoder);

impl FrameDecoder {
    pub fn decode(&mut self, bytes: &[u8]) -> Option<Frame> {
        self.0.push(bytes);
        self.0.next_frame().ok().flatten()
    }
}

// -------------------------------------------------------------- inputs

/// Monitor ticks per 15 s sample for counter-level streams (100 Hz).
const TICKS_PER_SAMPLE: u64 = 1_500;

/// The machines a workload streams: `FleetConfig::default()`'s
/// five-archetype mix, laid out as `run_fleet` lays it out (archetype
/// blocks in canonical order). The seed reaches the product only here.
pub struct Inputs {
    testbeds: Vec<TestbedConfig>,
    /// `prefix[a]` is the first global machine index of archetype `a`.
    prefix: Vec<usize>,
}

impl Inputs {
    pub fn new(seed: u64, machines: usize, days: usize) -> Inputs {
        let cfg = fleet_config(seed, machines, days);
        let mut testbeds = Vec::new();
        let mut prefix = vec![0];
        for (arch, count) in cfg.archetype_counts() {
            testbeds.push(TestbedConfig {
                lab: cfg.resolved_lab(arch, count),
                detector: cfg.detector,
            });
            prefix.push(prefix.last().unwrap() + count);
        }
        Inputs { testbeds, prefix }
    }

    pub fn machines(&self) -> usize {
        *self.prefix.last().unwrap()
    }

    fn locate(&self, machine: usize) -> (&TestbedConfig, usize) {
        let a = self.prefix.partition_point(|&p| p <= machine) - 1;
        (&self.testbeds[a], machine - self.prefix[a])
    }

    /// Generates one machine's load history.
    pub fn plan(&self, machine: usize) -> Plan {
        let (tb, local) = self.locate(machine);
        Plan(MachinePlan::generate(&tb.lab, local))
    }
}

pub struct Plan(MachinePlan);

impl Plan {
    /// The machine's samples, lazily. `counters` sends CPU usage as
    /// cumulative tick counters (what a live monitor reads), which the
    /// server diffs through its `Monitor`; otherwise as computed load.
    pub fn stream(&self, counters: bool) -> Stream<'_> {
        Stream {
            samples: self.0.samples(),
            counters: counters.then_some((0, 0)),
        }
    }
}

pub struct Stream<'a> {
    samples: SampleIter<'a>,
    counters: Option<(u64, u64)>,
}

impl Iterator for Stream<'_> {
    type Item = WireSample;

    fn next(&mut self) -> Option<WireSample> {
        let s = self.samples.next()?;
        let load = match &mut self.counters {
            None => SampleLoad::Direct(s.host_load),
            Some((busy, total)) => {
                if s.alive {
                    *total += TICKS_PER_SAMPLE;
                    *busy += (s.host_load * TICKS_PER_SAMPLE as f64).round() as u64;
                }
                SampleLoad::Counters {
                    busy: *busy,
                    total: *total,
                }
            }
        };
        Some(WireSample {
            t: s.t,
            load,
            host_resident_mb: s.host_resident_mb,
            alive: s.alive,
        })
    }
}

// -------------------------------------------------------------- replay

/// One counter-level sample as a probe read, like the server's own.
struct SampleProbe {
    busy: u64,
    total: u64,
    free_mem_mb: u32,
    alive: bool,
}

impl ResourceProbe for SampleProbe {
    fn cpu_counters(&self) -> (u64, u64) {
        (self.busy, self.total)
    }

    fn free_mem_for_guest_mb(&self) -> u32 {
        self.free_mem_mb
    }

    fn service_alive(&self) -> bool {
        self.alive
    }
}

/// One machine's ingest pipeline run in-process, step for step what the
/// server does per sample: monitor → recorder (detector + occurrence
/// records) → transition log. The server's records must equal this
/// replay's bit for bit (the repo's own contract), which is the serve
/// workloads' correctness gate; the same passes, timed by the caller,
/// give the per-layer costs.
pub struct ReplayMachine {
    machine: u32,
    /// Physical memory minus the kernel's reserve, MB.
    guest_mem_mb: u32,
    monitor: Monitor,
    recorder: OccurrenceRecorder,
    /// A bare detector fed the same observations, so the detector's
    /// share of the recorder's time can be measured.
    twin: Detector,
    transitions: Vec<WireTransition>,
    next_seq: u64,
    last_t: Option<u64>,
    observations: Vec<(u64, Observation)>,
    started: Vec<u64>,
}

impl ReplayMachine {
    pub fn new(machine: u32) -> ReplayMachine {
        let cfg = ServiceConfig::default();
        ReplayMachine {
            machine,
            monitor: Monitor::new(),
            recorder: OccurrenceRecorder::new(machine, cfg.detector),
            twin: Detector::new(cfg.detector),
            transitions: Vec::new(),
            next_seq: 1,
            last_t: None,
            observations: Vec::new(),
            started: Vec::new(),
            guest_mem_mb: cfg.phys_mem_mb.saturating_sub(cfg.kernel_mem_mb),
        }
    }

    /// Pass 1: turns a batch into observations. Returns how many samples
    /// went through `Monitor::sample` (counter-level ones).
    pub fn monitor_pass(&mut self, samples: &[WireSample]) -> usize {
        self.observations.clear();
        let mut sampled = 0;
        for s in samples {
            if self.last_t.is_some_and(|lt| s.t < lt) {
                continue; // the server discards late samples
            }
            self.last_t = Some(s.t);
            let free_mem_mb = self.guest_mem_mb.saturating_sub(s.host_resident_mb);
            let obs = match s.load {
                SampleLoad::Direct(host_load) if s.alive => Observation {
                    host_load,
                    free_mem_mb,
                    alive: true,
                },
                SampleLoad::Direct(_) => Observation::dead(),
                SampleLoad::Counters { busy, total } => {
                    sampled += 1;
                    self.monitor.sample(&SampleProbe {
                        busy,
                        total,
                        free_mem_mb,
                        alive: s.alive,
                    })
                }
            };
            self.observations.push((s.t, obs));
        }
        sampled
    }

    /// Pass 2: feeds the observations of pass 1 to the recorder.
    pub fn recorder_pass(&mut self) {
        self.started.clear();
        for (t, obs) in &self.observations {
            let before = self.recorder.state();
            let step = self.recorder.observe(*t, obs);
            if step.state != before {
                self.transitions.push(WireTransition {
                    seq: self.next_seq,
                    at: *t,
                    state: step.state.code(),
                });
                self.next_seq += 1;
            }
            for e in &step.edges {
                if let EventEdge::Started { at, .. } = *e {
                    self.started.push(at);
                }
            }
        }
    }

    /// The same observations through the bare detector.
    pub fn twin_pass(&mut self) {
        for (t, obs) in &self.observations {
            std::hint::black_box(self.twin.observe(*t, obs));
        }
    }

    /// Pass 3: what `finish_ingest` tells the online model.
    pub fn online_pass(&self, model: &mut OnlineModel) -> usize {
        if let Some(&(t, _)) = self.observations.last() {
            model.0.observe_time(t);
        }
        for &at in &self.started {
            model.0.record_event(self.machine, at);
        }
        self.started.len()
    }

    pub fn records(&self) -> &[TraceRecord] {
        self.recorder.records()
    }

    pub fn transitions(&self) -> &[WireTransition] {
        &self.transitions
    }

    pub fn state_code(&self) -> u8 {
        self.recorder.state().code()
    }

    pub fn last_t(&self) -> u64 {
        self.last_t.unwrap_or(0)
    }

    pub fn is_available(&self) -> bool {
        self.recorder.is_available()
    }

    /// What `Place` and `MachineStat::harvestable` test.
    pub fn harvestable(&self) -> bool {
        self.recorder.is_available() && !self.recorder.spike_active()
    }
}

/// The server's online model, kept in-process from the same events.
pub struct OnlineModel(OnlineAvailabilityModel);

impl OnlineModel {
    pub fn new() -> OnlineModel {
        OnlineModel(OnlineAvailabilityModel::new(
            ServiceConfig::default().start_weekday,
        ))
    }

    /// What the server does when a machine's first batch arrives: the
    /// machine counts toward the pooled shape even with no event yet.
    pub fn register(&mut self, machine: u32) {
        self.0.ensure_machine(machine);
    }

    pub fn predict_machine(&self, machine: u32, t: u64, window: u64) -> f64 {
        self.0.predict_machine(machine, t, window)
    }

    pub fn horizon(&self) -> u64 {
        self.0.horizon()
    }

    pub fn events(&self) -> u64 {
        self.0.total_events()
    }
}

// -------------------------------------------------------------- server

pub struct NodeOpts {
    /// Replication log capacity; 0 runs without a log.
    pub repl_log: usize,
    /// Run as a follower of this address.
    pub follower_of: Option<String>,
}

/// Counters the server exposes through `Server::stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounters {
    pub ingested_batches: u64,
    pub shed_batches: u64,
    pub decode_errors: u64,
    pub queue_depth: u64,
}

/// Event loops a node runs: all cores but the one the driver needs.
pub fn resolved_event_loops() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// An in-process server on loopback: epoll backend, no artificial
/// ingest delay, default shards.
pub struct Node(Server);

impl Node {
    pub fn start(opts: &NodeOpts) -> io::Result<Node> {
        let follower = opts.follower_of.is_some();
        Server::start(ServiceConfig {
            backend: Backend::Epoll,
            event_loops: if follower { 1 } else { resolved_event_loops() },
            ingest_delay_us: 0,
            repl_log_capacity: opts.repl_log,
            follower_of: opts.follower_of.clone(),
            ..ServiceConfig::default()
        })
        .map(Node)
    }

    pub fn addr(&self) -> String {
        self.0.local_addr().to_string()
    }

    /// Walks every machine (that is what `Server::stats` does), so call
    /// it between slices, not per request.
    pub fn counters(&self) -> NodeCounters {
        let s = self.0.stats();
        NodeCounters {
            ingested_batches: s.ingested_batches,
            shed_batches: s.shed_batches,
            decode_errors: s.decode_errors,
            queue_depth: s.queue_depth,
        }
    }

    /// Timestamp of the last sample each machine ingested, by machine id.
    pub fn last_ts(&self) -> Vec<(u32, u64)> {
        let stats = self.0.stats();
        stats
            .machines
            .iter()
            .map(|m| (m.machine, m.last_t))
            .collect()
    }

    /// `(lock, contended acquisitions, µs waited)` per lock category.
    pub fn locks(&self) -> Vec<(&'static str, u64, u64)> {
        self.0
            .lock_contention()
            .into_iter()
            .map(|l| (l.lock, l.contended, l.wait_us))
            .collect()
    }

    pub fn records(&self, machine: u32) -> Option<Vec<TraceRecord>> {
        self.0.records(machine)
    }

    pub fn transitions(&self, machine: u32) -> Option<Vec<WireTransition>> {
        self.0.transitions(machine)
    }

    pub fn repl_seq(&self) -> u64 {
        self.0.repl_seq()
    }

    pub fn repl_failed(&self) -> bool {
        self.0.repl_failed()
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// `ClientPool` as the load generator's transport.
pub struct Pool {
    inner: ClientPool,
    scratch: Vec<PoolEvent>,
}

impl Pool {
    /// Opens `conns` connections; an unopened slot is an error here,
    /// because the workloads assign machines to slots up front.
    pub fn connect(addr: &str, conns: usize) -> io::Result<Pool> {
        let inner = ClientPool::connect(addr, conns)?;
        if inner.open_count() != conns {
            return Err(io::Error::other(format!(
                "only {} of {conns} connections to {addr} opened",
                inner.open_count()
            )));
        }
        Ok(Pool {
            inner,
            scratch: Vec::new(),
        })
    }
}

impl Transport for Pool {
    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn send(&mut self, slot: usize, frame: &Frame) -> bool {
        self.inner.send(slot, frame)
    }

    fn poll(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
        self.inner.poll(timeout_ms, &mut self.scratch)?;
        out.extend(self.scratch.drain(..).filter_map(|ev| match ev {
            PoolEvent::Frame { slot, frame } => Some(Event::Reply { slot, frame }),
            PoolEvent::Closed { slot, .. } => Some(Event::Closed { slot }),
            PoolEvent::Connected { .. } => None,
        }));
        Ok(())
    }
}

// --------------------------------------------------------------- fleet

/// Sketch capacity of the fleet sweep.
const SKETCH_K: usize = 4_096;

fn fleet_config(seed: u64, machines: usize, days: usize) -> FleetConfig {
    FleetConfig {
        seed,
        machines,
        days,
        sketch_k: SKETCH_K,
        ..FleetConfig::default()
    }
}

/// What a sweep reports, reduced to what the benchmark compares.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    pub machines: u64,
    pub occurrences: u64,
    /// Occurrences summed over the per-archetype accumulators; must
    /// equal `occurrences`.
    pub archetype_occurrences: u64,
    /// The sketch's own rank-error certificate (weekday intervals).
    pub rank_err_bound: u64,
    /// Debug rendering of the combined accumulator: two sweeps of the
    /// same fleet must agree on every byte of it.
    pub digest: String,
}

fn outcome(per: &[StreamingAnalysis], combined: &StreamingAnalysis) -> FleetOutcome {
    FleetOutcome {
        machines: combined.machines(),
        occurrences: combined.table2_summary().occurrences,
        archetype_occurrences: per.iter().map(|a| a.table2_summary().occurrences).sum(),
        rank_err_bound: combined
            .interval_sketch(DayType::Weekday)
            .rank_error_bound(),
        digest: format!("{combined:?}"),
    }
}

/// `run_fleet` on the default mix; workers come from `FGCS_PAR_WORKERS`
/// or the core count, as for every caller of `fgcs-par`.
pub fn fleet_sweep(seed: u64, machines: usize, days: usize) -> FleetOutcome {
    let result = run_fleet(&fleet_config(seed, machines, days));
    let per: Vec<StreamingAnalysis> = result.per_archetype.into_iter().map(|(_, a)| a).collect();
    outcome(&per, &result.combined)
}

/// Names of the spans [`fleet_sweep_traced`] records.
pub mod fleet_span {
    pub const CHUNK: &str = "fleet.chunk";
    pub const PLAN: &str = "testbed.plan_generate";
    pub const TRACE: &str = "testbed.trace_machine";
    pub const PUSH: &str = "testbed.fold_push";
    pub const MERGE_ROOT: &str = "fleet.merge";
    pub const MERGE: &str = "testbed.fold_merge";
}

/// The same sweep as [`fleet_sweep`] — same chunks, same fold, same
/// in-order merge — written out here so a span can go around each call.
/// `run_fleet` hides its loop, and spans inside the product are a later
/// change. The plan is generated twice per machine (once alone for its
/// span, once inside `trace_machine_batched`), which is part of the
/// tracing overhead the run reports.
pub fn fleet_sweep_traced(
    seed: u64,
    machines: usize,
    days: usize,
    workers: usize,
    epoch: Instant,
) -> (FleetOutcome, Tracer) {
    use fleet_span::*;
    let cfg = fleet_config(seed, machines, days);
    let inputs = Inputs::new(seed, machines, days);
    let archetypes = inputs.testbeds.len();
    let start_weekday = LabConfig::default().start_weekday;
    let fresh = || -> Vec<StreamingAnalysis> {
        (0..archetypes)
            .map(|_| StreamingAnalysis::new(days, start_weekday, cfg.sketch_k))
            .collect()
    };
    let total = inputs.machines();
    let chunks: Vec<(usize, usize)> = (0..total)
        .step_by(cfg.chunk_size)
        .map(|lo| (lo, (lo + cfg.chunk_size).min(total)))
        .collect();

    let next_chunk = AtomicUsize::new(0);
    let partials: Mutex<Vec<Option<Vec<StreamingAnalysis>>>> = Mutex::new(vec![None; chunks.len()]);
    let mut tracer = Tracer::new(epoch);
    let worker_tracers: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tracer::new(epoch);
                    loop {
                        let i = next_chunk.fetch_add(1, Ordering::Relaxed);
                        let Some(&(lo, hi)) = chunks.get(i) else {
                            return t;
                        };
                        let root = t.begin(CHUNK, 0, i as u64);
                        let mut accs = fresh();
                        for m in lo..hi {
                            let a = inputs.prefix.partition_point(|&p| p <= m) - 1;
                            let (tb, local) = inputs.locate(m);
                            let s = t.begin(PLAN, root, i as u64);
                            std::hint::black_box(MachinePlan::generate(&tb.lab, local));
                            t.end(s);
                            let s = t.begin(TRACE, root, i as u64);
                            let records = trace_machine_batched(tb, local);
                            t.end(s);
                            let s = t.begin(PUSH, root, i as u64);
                            accs[a].push_machine(&records);
                            t.end(s);
                        }
                        t.end(root);
                        partials.lock().expect("no worker panics holding this")[i] = Some(accs);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    for t in worker_tracers {
        tracer.absorb(t);
    }

    let root = tracer.begin(MERGE_ROOT, 0, 0);
    let mut per = fresh();
    let partials = partials.into_inner().expect("workers are joined");
    for accs in partials.iter().flatten() {
        let s = tracer.begin(MERGE, root, 0);
        for (mine, theirs) in per.iter_mut().zip(accs) {
            mine.merge(theirs);
        }
        tracer.end(s);
    }
    let mut combined = StreamingAnalysis::new(days, start_weekday, cfg.sketch_k);
    let s = tracer.begin(MERGE, root, 0);
    for acc in &per {
        combined.merge(acc);
    }
    tracer.end(s);
    tracer.end(root);
    (outcome(&per, &combined), tracer)
}

/// Sweeps a small fleet through `run_fleet` and checks it against the
/// exact oracle built from the sample-by-sample tracer: Table 2 and the
/// Figure 7 matrix identical, the Figure 6 CDFs inside the sketch's own
/// certificate.
pub fn fleet_oracle_check(seed: u64, machines: usize, days: usize) -> Result<(), String> {
    let cfg = fleet_config(seed, machines, days);
    let streamed = run_fleet(&cfg).combined;
    let inputs = Inputs::new(seed, machines, days);
    let mut records = Vec::new();
    for m in 0..machines {
        let (tb, local) = inputs.locate(m);
        records.extend(trace_machine(tb, local).into_iter().map(|mut r| {
            r.machine = m as u32;
            r
        }));
    }
    let lab = LabConfig::default();
    let trace = Trace {
        meta: TraceMeta {
            seed,
            machines: machines as u32,
            days: days as u32,
            sample_period: lab.sample_period,
            start_weekday: lab.start_weekday,
            span_secs: days as u64 * 86_400,
            thresholds: cfg.detector.thresholds,
        },
        records,
    };
    let exact = Table2Summary::from(&analysis::table2(&trace));
    if streamed.table2_summary() != exact {
        return Err(format!(
            "Table 2 diverged from the exact oracle: {:?} vs {exact:?}",
            streamed.table2_summary()
        ));
    }
    if streamed.day_hour_counts() != &analysis::day_hour_counts(&trace)[..] {
        return Err("Figure 7 matrix diverged from the exact oracle".into());
    }
    let iv = analysis::intervals(&trace);
    for (dt, ecdf) in [
        (DayType::Weekday, &iv.weekday),
        (DayType::Weekend, &iv.weekend),
    ] {
        let sk = streamed.interval_sketch(dt);
        if sk.count() != ecdf.len() as u64 {
            return Err(format!(
                "{dt} interval count {} vs exact {}",
                sk.count(),
                ecdf.len()
            ));
        }
        if sk.count() == 0 {
            continue;
        }
        let eps = sk.rank_error_bound() as f64 / sk.count() as f64;
        for i in 0..=48 {
            let x = i as f64 * 0.5;
            let (exact, sketched) = (ecdf.eval(x), sk.cdf(x).expect("non-empty sketch"));
            if (exact - sketched).abs() > eps + 1e-12 {
                return Err(format!(
                    "{dt} cdf({x}): exact {exact}, sketch {sketched}, certificate {eps}"
                ));
            }
        }
    }
    Ok(())
}

/// `RankSketch` at the sweep's capacity, for the `stats.*` rows.
pub struct Sketch(RankSketch);

impl Sketch {
    pub fn new() -> Sketch {
        Sketch(RankSketch::new(SKETCH_K))
    }

    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn merge(&mut self, other: &Sketch) {
        self.0.merge(&other.0);
    }

    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.quantile(q)
    }
}

// ----------------------------------------------------------------- sim

/// The three process mixes of the repo's `sim_throughput` bench.
#[derive(Debug, Clone, Copy)]
pub enum SimMix {
    /// Sub-percent-duty hosts: the machine sleeps most of every period.
    Idle,
    /// CPU-bound hosts and guests at mixed priorities.
    Contended,
    /// Memory overcommit on the 384 MB machine.
    Thrashing,
}

pub const SIM_TICKS_PER_S: u64 = fgcs_sim::time::TICKS_PER_SEC;

pub struct SimMachine(Machine);

impl SimMachine {
    pub fn new(mix: SimMix) -> SimMachine {
        let duty = |busy, idle| Demand::DutyCycle { busy, idle };
        let cpu = Demand::CpuBound { total_work: None };
        let (mut m, procs) = match mix {
            SimMix::Idle => (
                Machine::default_linux(),
                vec![
                    ("h1", ProcClass::Host, 0, duty(2, 998), MemSpec::tiny()),
                    ("h2", ProcClass::Host, 0, duty(5, 1995), MemSpec::tiny()),
                    ("sys", ProcClass::System, 0, duty(1, 4999), MemSpec::tiny()),
                    ("g", ProcClass::Guest, 19, duty(10, 3990), MemSpec::tiny()),
                ],
            ),
            SimMix::Contended => (
                Machine::default_linux(),
                vec![
                    ("h1", ProcClass::Host, 0, cpu.clone(), MemSpec::tiny()),
                    ("h2", ProcClass::Host, 5, cpu.clone(), MemSpec::tiny()),
                    ("g1", ProcClass::Guest, 19, cpu.clone(), MemSpec::tiny()),
                    ("g2", ProcClass::Guest, 10, cpu.clone(), MemSpec::tiny()),
                ],
            ),
            SimMix::Thrashing => (
                Machine::new(MachineConfig::solaris_384mb()),
                vec![
                    ("h", ProcClass::Host, 0, cpu.clone(), MemSpec::resident(250)),
                    (
                        "g",
                        ProcClass::Guest,
                        19,
                        cpu.clone(),
                        MemSpec::resident(250),
                    ),
                ],
            ),
        };
        for (name, class, nice, demand, mem) in procs {
            m.spawn(ProcSpec::new(name, class, nice, demand, mem));
        }
        SimMachine(m)
    }

    pub fn run_ticks(&mut self, n: u64) {
        self.0.run_ticks(n);
        std::hint::black_box(self.0.now());
    }
}
