//! The failover election's identities, end to end: a follower ranks
//! itself by the address it actually bound, the loser follows the
//! winner, and a configuration whose bound address no sibling could
//! name is refused at start (DESIGN.md §13.5).

#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fgcs_service::{
    ClientConfig, Server, ServiceClient, ServiceConfig, ROLE_FOLLOWER, ROLE_PRIMARY,
};
use fgcs_wire::{Frame, SampleLoad, WireSample};

/// A closed port: every pull fails fast, so the primary is "dead".
const DEAD_PRIMARY: &str = "127.0.0.1:1";

fn candidate(addr: &str, peer: String) -> ServiceConfig {
    ServiceConfig {
        addr: addr.to_string(),
        follower_of: Some(DEAD_PRIMARY.to_string()),
        auto_promote: true,
        lease_ms: 200,
        missed_pull_threshold: 2,
        promotion_peers: vec![peer],
        event_loops: 1,
        ..ServiceConfig::default()
    }
}

/// A free loopback port below the kernel's ephemeral range, so that it
/// ranks below any port a port-0 bind can be given.
fn port_below_the_ephemeral_range() -> u16 {
    let low: u16 = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|range| range.split_whitespace().next()?.parse().ok())
        .unwrap_or(32_768);
    let offset = (std::process::id() % 4_096) as u16;
    (1_025..low)
        .rev()
        .cycle()
        .skip(usize::from(offset))
        .take(usize::from(low - 1_025))
        .find(|&port| TcpListener::bind(("127.0.0.1", port)).is_ok())
        .expect("a free port below the ephemeral range")
}

#[test]
fn a_follower_bound_to_port_zero_elects_with_its_bound_port() {
    // `c` binds port 0: the kernel gives it an ephemeral port, above
    // `p`'s. Both followers lose the same primary at equal applied
    // seqs, so the tie goes to the lower bound address, `p`. Had `c`
    // ranked itself by its bind string ("127.0.0.1:0"), it would have
    // placed itself first and promoted too.
    let p_addr = format!("127.0.0.1:{}", port_below_the_ephemeral_range());
    let c = Server::start(candidate("127.0.0.1:0", p_addr.clone())).unwrap();
    let p = Server::start(candidate(&p_addr, c.local_addr().to_string())).unwrap();
    assert!(p.local_addr() < c.local_addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    while (p.role() != ROLE_PRIMARY || c.epoch() < p.epoch()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(p.role(), ROLE_PRIMARY, "the lower bound address never won");
    assert_eq!(p.epoch(), 2);
    assert_eq!(c.role(), ROLE_FOLLOWER, "both followers promoted");
    assert_eq!(c.epoch(), 2, "the loser saw the winner's epoch");
    // The loser now follows the winner: what `p` ingests reaches `c`.
    let mut client = ServiceClient::connect(ClientConfig::new(&p_addr)).unwrap();
    for i in 0..8u64 {
        let samples = (0..16)
            .map(|k| WireSample {
                t: (i * 16 + k) * 15,
                load: SampleLoad::Direct(0.05),
                host_resident_mb: 100,
                alive: true,
            })
            .collect();
        let reply = client.request(&Frame::SampleBatch {
            machine: 3,
            samples,
        });
        assert!(matches!(reply, Ok(Frame::Ack { .. })), "{reply:?}");
    }
    assert_eq!(p.repl_seq(), 8);
    let deadline = Instant::now() + Duration::from_secs(2);
    while c.repl_seq() < p.repl_seq() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        c.repl_seq(),
        p.repl_seq(),
        "the loser never pulled from the winner"
    );
    assert_eq!(c.records(3), p.records(3));
    c.shutdown();
    p.shutdown();
}

#[test]
fn promotion_peers_with_a_wildcard_bind_are_refused() {
    for addr in ["0.0.0.0:0", "[::]:0"] {
        let err = Server::start(candidate(addr, "127.0.0.1:7".to_string()))
            .err()
            .unwrap_or_else(|| panic!("{addr} with promotion peers started"));
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{addr}: {err}"
        );
    }
    // Without peers there is no election to rank in.
    let lone = Server::start(ServiceConfig {
        promotion_peers: Vec::new(),
        ..candidate("0.0.0.0:0", String::new())
    })
    .unwrap();
    lone.shutdown();
}
