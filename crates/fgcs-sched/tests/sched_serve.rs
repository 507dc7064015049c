//! The scheduler service end to end: the `Sched*` wire vocabulary over
//! a live `SchedServer` (and the `fgcs-sched` binary), quota
//! enforcement at the protocol surface, revocation-driven re-placement,
//! the frame-server skeleton's error paths and thread economy, and the
//! full loop against a real availability service through the cluster
//! router — verifying the `harvestable` stat bit and `QueryAvail`
//! predictions actually drive placement decisions across socket
//! boundaries. `SchedServer` runs on the epoll skeleton, so Linux only.
#![cfg(target_os = "linux")]

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fgcs_sched::{
    AvailabilitySource, MachineView, Policy, SchedConfig, SchedServeConfig, SchedServer,
};
use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs_wire::{Decoder, ErrorCode, Frame, SampleLoad, WireSample};

/// An in-process availability source tests can mutate mid-run.
#[derive(Clone, Default)]
struct FakeSource {
    state: Arc<Mutex<Vec<MachineView>>>,
}

impl FakeSource {
    fn with_machines(ids: &[u32]) -> FakeSource {
        let views = ids
            .iter()
            .map(|&machine| MachineView {
                machine,
                harvestable: true,
                occurrences: 0,
            })
            .collect();
        FakeSource {
            state: Arc::new(Mutex::new(views)),
        }
    }

    fn set_harvestable(&self, machine: u32, harvestable: bool) {
        let mut views = self.state.lock().unwrap();
        for v in views.iter_mut() {
            if v.machine == machine {
                v.harvestable = harvestable;
            }
        }
    }
}

impl AvailabilitySource for FakeSource {
    fn machines(&mut self) -> std::io::Result<Vec<MachineView>> {
        Ok(self.state.lock().unwrap().clone())
    }

    fn survival(&mut self, _machine: u32, _window: u64) -> std::io::Result<f64> {
        Ok(1.0)
    }
}

fn connect(addr: &str) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    ServiceClient::connect(cfg).expect("client connects")
}

fn query_job(client: &mut ServiceClient, id: u64) -> (u8, Option<u32>, u32) {
    match client.request(&Frame::SchedQueryJob { id }).unwrap() {
        Frame::SchedJobReply {
            state,
            machine,
            evictions,
            ..
        } => (state, machine, evictions),
        other => panic!("job reply expected, got tag {}", other.tag()),
    }
}

/// Polls until `pred` holds on the job or the deadline passes.
fn wait_job(
    client: &mut ServiceClient,
    id: u64,
    what: &str,
    mut pred: impl FnMut(u8, Option<u32>, u32) -> bool,
) -> (u8, Option<u32>, u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (state, machine, evictions) = query_job(client, id);
        if pred(state, machine, evictions) {
            return (state, machine, evictions);
        }
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn submit(client: &mut ServiceClient, user: u32, work: u64) -> Result<u64, ErrorCode> {
    match client.request(&Frame::SchedSubmit { user, work }).unwrap() {
        Frame::SchedJobReply { id, .. } => Ok(id),
        Frame::Error { code, .. } => Err(code),
        other => panic!("submit reply expected, got tag {}", other.tag()),
    }
}

#[test]
fn jobs_run_complete_and_respect_quotas_over_the_wire() {
    let source = FakeSource::with_machines(&[1, 2, 3, 4]);
    let server = SchedServer::start(
        SchedServeConfig {
            tick_ms: 2,
            tick_secs: 60,
            ..SchedServeConfig::default()
        },
        SchedConfig {
            max_backlog_factor: 2,
            pool_extra: 1,
            ..SchedConfig::default()
        },
        &[(1, 1), (2, 1)],
        source,
    )
    .expect("sched server starts");
    let addr = server.local_addr().to_string();
    let mut client = connect(&addr);

    // A 2-tick job completes.
    let id = submit(&mut client, 1, 120).expect("admitted");
    wait_job(&mut client, id, "job completes", |state, _, _| state == 3);

    // Admission control: backlog cap = factor 2 × allowance 1 = 2.
    let a = submit(&mut client, 2, 100_000).expect("first fits");
    let _b = submit(&mut client, 2, 100_000).expect("second fits");
    assert_eq!(
        submit(&mut client, 2, 100_000),
        Err(ErrorCode::QuotaExceeded),
        "third submission must be refused"
    );
    // Unknown users are refused too (strict mode: default_base 0), and
    // a share op neither answers a ledger row for them nor registers
    // them behind the strict gate's back.
    assert_eq!(submit(&mut client, 99, 60), Err(ErrorCode::QuotaExceeded));
    match client
        .request(&Frame::SchedShare {
            user: 99,
            op: 2,
            amount: 0,
        })
        .unwrap()
    {
        Frame::Error { code, detail } => {
            assert_eq!(code, ErrorCode::QuotaExceeded);
            assert_eq!(detail, "user 99 not registered");
        }
        other => panic!("share op for an unknown user answered tag {}", other.tag()),
    }
    assert_eq!(submit(&mut client, 99, 60), Err(ErrorCode::QuotaExceeded));

    // Only one of user 2's jobs may run on base quota 1...
    wait_job(&mut client, a, "first long job runs", |state, _, _| {
        state == 2
    });
    let stats = server.stats();
    assert_eq!(stats.running, 1, "base quota gates dispatch: {stats:?}");

    // ...until an extra slot is borrowed from the pool.
    match client
        .request(&Frame::SchedShare {
            user: 2,
            op: 1,
            amount: 5,
        })
        .unwrap()
    {
        Frame::SchedShareReply {
            base,
            extra,
            pool_free,
            ..
        } => {
            assert_eq!((base, extra, pool_free), (1, 1, 0), "pool of 1 runs dry");
        }
        other => panic!("share reply expected, got tag {}", other.tag()),
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().running < 2 {
        assert!(Instant::now() < deadline, "extra slot never dispatched");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Conservation at the wire surface.
    match client.request(&Frame::SchedQueryStats).unwrap() {
        Frame::SchedStatsReply(s) => {
            assert_eq!(s.submitted, s.completed + s.queued + s.running, "{s:?}");
            assert_eq!(s.rejected, 3);
        }
        other => panic!("stats reply expected, got tag {}", other.tag()),
    }
    // An unknown id earns a typed error, not a hang.
    match client
        .request(&Frame::SchedQueryJob { id: 10_000 })
        .unwrap()
    {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("error expected, got tag {}", other.tag()),
    }
    server.shutdown();
}

#[test]
fn revocation_requeues_and_replaces_the_guest() {
    let source = FakeSource::with_machines(&[1, 2]);
    let handle = source.clone();
    let server = SchedServer::start(
        SchedServeConfig {
            tick_ms: 2,
            tick_secs: 60,
            ..SchedServeConfig::default()
        },
        SchedConfig::default(),
        &[(1, 1)],
        source,
    )
    .expect("sched server starts");
    let mut client = connect(&server.local_addr().to_string());

    let id = submit(&mut client, 1, 1_000_000).expect("admitted");
    let (_, host, _) = wait_job(&mut client, id, "guest placed", |state, _, _| state == 2);
    let host = host.expect("running job has a host");

    // The host is revoked: the guest must requeue and land elsewhere.
    handle.set_harvestable(host, false);
    let (_, new_host, evictions) = wait_job(
        &mut client,
        id,
        "guest re-placed after revocation",
        |state, machine, _| state == 2 && machine.is_some() && machine != Some(host),
    );
    assert_ne!(new_host, Some(host));
    assert!(evictions >= 1, "the kill was accounted as an eviction");
    server.shutdown();
}

/// The full loop on Linux: a real availability service, the cluster
/// router as the scheduler's source, and guests placed/evicted off the
/// service's own detector state — `harvestable` bits and `QueryAvail`
/// predictions crossing two socket hops.
///
/// This test used to time out about 1 run in 20, on any server
/// backend. The tick read the stats first and asked the host's
/// survival afterwards, live; when the dead batch below landed between
/// the two, the stats still said harvestable and `QueryAvail` on a
/// dead machine answered 0, so the tick booked the kill as an SLO
/// *migration* — the guest left the host with `evictions == 0` and the
/// predicate below could never come true. The tick now reads survival
/// before stats (`serve.rs::tick_loop`), which books a host that dies
/// between the reads as the revocation it is; the predicate and the
/// 10 s deadline are unchanged.
#[test]
fn scheduler_follows_a_real_availability_service() {
    use fgcs_sched::ClusterSource;
    use fgcs_service::cluster::{ClusterClient, ClusterConfig, ShardSpec};

    let (svc, mut feeder) = availability_service();
    let svc_addr = svc.local_addr().to_string();

    let cluster = ClusterClient::connect(ClusterConfig::new(vec![ShardSpec {
        name: "s0".to_string(),
        primary_addr: svc_addr.clone(),
        follower_addr: None,
    }]))
    .expect("router connects");
    let server = SchedServer::start(
        SchedServeConfig {
            tick_ms: 2,
            tick_secs: 60,
            ..SchedServeConfig::default()
        },
        SchedConfig {
            policy: Policy::Predictive,
            ..SchedConfig::default()
        },
        &[(1, 2)],
        ClusterSource::new(cluster),
    )
    .expect("sched server starts");
    let mut client = connect(&server.local_addr().to_string());

    let id = submit(&mut client, 1, 1_000_000).expect("admitted");
    let (_, host, _) = wait_job(&mut client, id, "guest placed off real stats", |s, _, _| {
        s == 2
    });
    let host = host.expect("running job has a host");

    // Kill the host at the *service* level: dead samples flip its
    // detector state, the stats bit goes false, the scheduler evicts.
    let dead: Vec<WireSample> = (50..60).map(|i| idle(i * 15, false)).collect();
    let reply = feeder
        .request(&Frame::SampleBatch {
            machine: host,
            samples: dead,
        })
        .unwrap();
    assert!(matches!(reply, Frame::Ack { .. }));

    wait_job(
        &mut client,
        id,
        "guest re-placed off the service's revocation",
        |state, machine, evictions| state == 2 && machine != Some(host) && evictions >= 1,
    );
    server.shutdown();
    svc.shutdown();
}

fn idle(t: u64, alive: bool) -> WireSample {
    WireSample {
        t,
        load: SampleLoad::Direct(0.05),
        host_resident_mb: 100,
        alive,
    }
}

/// A real availability service with machines 1..=3 streamed idle (so
/// harvestable), and the feeder connection that streamed them.
fn availability_service() -> (Server, ServiceClient) {
    let svc = Server::start(ServiceConfig::default()).expect("availability service starts");
    let mut feeder = connect(&svc.local_addr().to_string());
    for machine in 1..=3u32 {
        let samples: Vec<WireSample> = (0..50).map(|i| idle(i * 15, true)).collect();
        let reply = feeder
            .request(&Frame::SampleBatch { machine, samples })
            .unwrap();
        assert!(matches!(reply, Frame::Ack { .. }));
    }
    (svc, feeder)
}

/// The `fgcs-sched` binary as a process: it announces its address,
/// schedules a job off a real availability service to completion, and
/// exits 0 soon after its stdin closes.
#[test]
fn the_binary_serves_until_stdin_closes() {
    use std::process::{Command, Stdio};

    let (svc, _feeder) = availability_service();
    let mut child = Command::new(env!("CARGO_BIN_EXE_fgcs-sched"))
        .args(["--addr", "127.0.0.1:0", "--tick-ms", "2", "--shard"])
        .arg(format!("s0={}", svc.local_addr()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("fgcs-sched spawns");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"));

    // The binary auto-registers unknown users (`--default-base` 1).
    let mut client = connect(addr);
    let id = submit(&mut client, 7, 120).expect("admitted");
    wait_job(&mut client, id, "job completes", |state, _, _| state == 3);
    drop(client);

    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("fgcs-sched still running 5 s after stdin closed");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "fgcs-sched exited with {status}");
    svc.shutdown();
}

fn sched_server(machines: &[u32]) -> SchedServer {
    SchedServer::start(
        SchedServeConfig {
            tick_ms: 2,
            tick_secs: 60,
            ..SchedServeConfig::default()
        },
        SchedConfig::default(),
        &[(1, 1)],
        FakeSource::with_machines(machines),
    )
    .expect("sched server starts")
}

/// Reads one reply frame; `None` when the server closed the stream.
fn read_reply(stream: &mut TcpStream, decoder: &mut Decoder) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = decoder.next_frame().expect("replies decode") {
            return Some(frame);
        }
        let n = stream.read(&mut buf).expect("reply readable");
        if n == 0 {
            return None;
        }
        decoder.push(&buf[..n]);
    }
}

fn ask_raw(stream: &mut TcpStream, decoder: &mut Decoder, bytes: &[u8]) -> Option<Frame> {
    stream.write_all(bytes).expect("request written");
    read_reply(stream, decoder)
}

fn stats_over(stream: &mut TcpStream, decoder: &mut Decoder) -> fgcs_wire::SchedStatsPayload {
    match ask_raw(stream, decoder, &Frame::SchedQueryStats.encode().unwrap()) {
        Some(Frame::SchedStatsReply(s)) => s,
        other => panic!("stats reply expected, got {other:?}"),
    }
}

fn raw_connect(server: &SchedServer) -> (TcpStream, Decoder) {
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (stream, Decoder::new())
}

/// A peer-chosen `work` of `u64::MAX` used to overflow the tick's
/// completion instant: the tick thread panicked, poisoning the
/// scheduler for every later request. The job now just runs.
#[test]
fn a_maximal_work_job_leaves_the_server_answering() {
    let server = sched_server(&[1]);
    let mut client = connect(&server.local_addr().to_string());
    let id = submit(&mut client, 1, u64::MAX).expect("admitted");
    wait_job(&mut client, id, "job placed", |state, _, _| state == 2);
    // Two ticks later (and then some): still answered, still running.
    std::thread::sleep(Duration::from_millis(20));
    match client.request(&Frame::SchedQueryStats).unwrap() {
        Frame::SchedStatsReply(s) => assert_eq!((s.running, s.completed), (1, 0), "{s:?}"),
        other => panic!("stats reply expected, got tag {}", other.tag()),
    }
    assert_eq!(server.stats().running, 1);
    server.shutdown();
}

/// A corrupted frame (sound header, bad CRC) earns `BadFrame`, and the
/// same connection keeps being served.
#[test]
fn a_bad_checksum_gets_bad_frame_and_the_connection_survives() {
    let server = sched_server(&[1]);
    let (mut stream, mut decoder) = raw_connect(&server);
    let mut corrupted = Frame::SchedSubmit { user: 1, work: 60 }.encode().unwrap();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0xff;
    match ask_raw(&mut stream, &mut decoder, &corrupted) {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("BadFrame expected, got {other:?}"),
    }
    let stats = stats_over(&mut stream, &mut decoder);
    assert_eq!(stats.submitted, 0, "the corrupted submit never landed");
    server.shutdown();
}

/// A fatal frame (announced length over `MAX_FRAME_LEN`) earns
/// `BadFrame` and closes that connection only; a neighbour and a new
/// connection are served.
#[test]
fn a_fatal_frame_closes_only_its_connection() {
    let server = sched_server(&[1]);
    let (mut neighbour, mut neighbour_dec) = raw_connect(&server);
    stats_over(&mut neighbour, &mut neighbour_dec);

    let (mut stream, mut decoder) = raw_connect(&server);
    let mut raw = Vec::new();
    raw.extend_from_slice(b"FC");
    raw.push(fgcs_wire::PROTOCOL_VERSION);
    raw.push(Frame::SchedQueryStats.tag());
    raw.extend_from_slice(&(fgcs_wire::codec::MAX_FRAME_LEN as u32 + 1).to_le_bytes());
    raw.extend_from_slice(&0u32.to_le_bytes());
    match ask_raw(&mut stream, &mut decoder, &raw) {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("BadFrame expected, got {other:?}"),
    }
    assert_eq!(read_reply(&mut stream, &mut decoder), None, "closed after");

    stats_over(&mut neighbour, &mut neighbour_dec);
    let (mut fresh, mut fresh_dec) = raw_connect(&server);
    stats_over(&mut fresh, &mut fresh_dec);
    server.shutdown();
}

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Connections cost file descriptors, not threads: 256 idle ones, each
/// served once, leave the process's thread count nearly flat.
#[test]
fn idle_connections_cost_no_threads() {
    let server = sched_server(&[1]);
    let before = process_threads();
    let mut conns: Vec<(TcpStream, Decoder)> = (0..256).map(|_| raw_connect(&server)).collect();
    for (stream, decoder) in &mut conns {
        stats_over(stream, decoder);
    }
    let after = process_threads();
    assert!(
        after < before + 32,
        "256 connections grew the process from {before} to {after} threads"
    );
    drop(conns);
    server.shutdown();
}
