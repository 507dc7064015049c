//! Bounded connects against a wedged peer.
//!
//! A listener that never accepts, with its accept queue full, leaves
//! further SYNs unanswered: a connect without a deadline then waits out
//! the kernel's SYN-retry period (about 127 s at the default
//! `tcp_syn_retries = 6`). Every client here must give up at its attempt
//! deadline instead. Each call under test runs on its own thread behind
//! a 5 s wait, so a regression fails the test rather than hanging it.

#![cfg(target_os = "linux")]

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use fgcs_core::backoff::BackoffPolicy;
use fgcs_service::cluster::{ClusterClient, ClusterConfig, ShardSpec};
use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig, ROLE_FOLLOWER};
use fgcs_testbed::SupervisorConfig;
use fgcs_wire::{Frame, SampleLoad, WireSample};

/// A listener that never accepts, with its one-deep backlog filled.
/// Hold the fillers as long as the listener.
fn wedged_listener() -> (TcpListener, Vec<TcpStream>) {
    let bind: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let listener = fgcs_sys::listen_backlog(&bind, 1).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut fillers = Vec::new();
    // The first connect that times out proves the backlog full.
    while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
        fillers.push(s);
        assert!(fillers.len() < 64, "the backlog never filled");
    }
    (listener, fillers)
}

/// Runs `f` on its own thread and waits at most 5 s for it.
fn within_5s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("the call ignored its deadline")
}

#[test]
fn connect_to_a_wedged_listener_times_out_at_the_attempt_deadline() {
    let (listener, _fillers) = wedged_listener();
    let cfg = ClientConfig {
        sup: SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        },
        backoff_unit_ms: 1,
        read_timeout_ms: 300,
        ..ClientConfig::new(listener.local_addr().unwrap().to_string())
    };
    let started = Instant::now();
    let err = within_5s(move || ServiceClient::connect(cfg).map(|_| ()))
        .expect_err("a never-accepting backlog must not connect");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(
        started.elapsed() < Duration::from_millis(900),
        "the attempt deadline must bound the connect (took {:?})",
        started.elapsed()
    );
}

#[test]
fn router_fails_over_from_a_wedged_primary_inside_its_budget() {
    let (listener, _fillers) = wedged_listener();
    let live = Server::start(ServiceConfig::default()).unwrap();
    let mut cfg = ClusterConfig::new(vec![ShardSpec {
        name: "s".into(),
        primary_addr: listener.local_addr().unwrap().to_string(),
        follower_addr: Some(live.local_addr().to_string()),
    }]);
    cfg.request_timeout_ms = 300;
    cfg.backoff = BackoffPolicy { base: 1, cap: 4 };
    let budget = Duration::from_millis(cfg.request_timeout_ms * u64::from(cfg.max_attempts));
    let started = Instant::now();
    let (reply, failovers) = within_5s(move || {
        let mut router = ClusterClient::connect(cfg).unwrap();
        let sample = WireSample {
            t: 0,
            load: SampleLoad::Direct(0.1),
            host_resident_mb: 100,
            alive: true,
        };
        let reply = router.ingest(1, vec![sample]);
        (reply, router.metrics.failovers)
    });
    assert!(matches!(reply, Ok(Frame::Ack { .. })), "{reply:?}");
    assert_eq!(failovers, 1, "one flip lands on the live endpoint");
    assert!(
        started.elapsed() < budget / 2,
        "failover took {:?} of a {budget:?} budget",
        started.elapsed()
    );
    live.shutdown();
}

#[test]
fn a_wedged_promotion_peer_cannot_hang_the_pull_thread() {
    let (peer, _fillers) = wedged_listener();
    let peer_addr = peer.local_addr().unwrap().to_string();
    // The election's probe: one attempt at the pull's deadline, which
    // is lease / 2 = 100 ms for the follower below.
    let probe_cfg = ClientConfig {
        sup: SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        },
        backoff_unit_ms: 1,
        read_timeout_ms: 100,
        ..ClientConfig::new(peer_addr.clone())
    };
    let started = Instant::now();
    let probe = within_5s(move || {
        ServiceClient::connect(probe_cfg).and_then(|mut c| c.request(&Frame::ReplStatus))
    });
    assert!(probe.is_err(), "a wedged peer answered: {probe:?}");
    assert!(
        started.elapsed() < Duration::from_millis(900),
        "the probe outlived its attempt deadline ({:?})",
        started.elapsed()
    );

    let server = Server::start(ServiceConfig {
        // A closed port: every pull fails fast.
        follower_of: Some("127.0.0.1:1".to_string()),
        auto_promote: true,
        lease_ms: 200,
        missed_pull_threshold: 2,
        promotion_peers: vec![peer_addr],
        ..ServiceConfig::default()
    })
    .unwrap();
    // Several elections' worth: the primary is declared dead after
    // ~200 ms, and every round's probe of the wedged peer times out.
    std::thread::sleep(Duration::from_millis(1_000));
    assert_eq!(
        server.role(),
        ROLE_FOLLOWER,
        "a peer that never answered must block promotion"
    );
    assert_eq!(server.epoch(), 1);
    let started = Instant::now();
    within_5s(move || server.shutdown());
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown waited {:?} on the pull thread",
        started.elapsed()
    );
}
