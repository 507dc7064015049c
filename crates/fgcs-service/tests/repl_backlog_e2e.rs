//! A follower that starts far behind: the backlog is several frames'
//! worth of entries, so the primary must hand it over in frame-sized
//! parts. Capping a reply by entry count alone produced a frame the
//! primary could not encode; it dropped the puller, which asked for the
//! same thing again, for ever.
#![cfg(target_os = "linux")]

use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs_wire::{Frame, SampleLoad, WireSample};

const MACHINES: u32 = 8;
const BATCHES: u64 = 1_000;
const SAMPLES: u64 = 128;

/// Batch `i` of the backlog: machines round-robin, each one's samples
/// 15 s apart with a busy stretch every so often, so the follower has
/// real transitions and occurrences to reproduce.
fn batch(i: u64) -> Frame {
    let nth = i / u64::from(MACHINES);
    let samples = (0..SAMPLES)
        .map(|k| {
            let n = nth * SAMPLES + k;
            WireSample {
                t: n * 15,
                load: SampleLoad::Direct(if (n / 40) % 5 == 4 { 0.9 } else { 0.05 }),
                host_resident_mb: 100,
                alive: true,
            }
        })
        .collect();
    Frame::SampleBatch {
        machine: (i % u64::from(MACHINES)) as u32,
        samples,
    }
}

#[test]
fn follower_a_thousand_bulk_entries_behind_catches_up_bit_identical() {
    let node = |follower_of| ServiceConfig {
        event_loops: 1,
        repl_log_capacity: 4_096,
        follower_of,
        ..Default::default()
    };
    let primary = Server::start(node(None)).expect("primary starts");
    let addr = primary.local_addr().to_string();
    let mut client = ServiceClient::connect(ClientConfig::new(&addr)).expect("client connects");
    for i in 0..BATCHES {
        let reply = client.request(&batch(i)).expect("batch answered");
        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    }
    assert_eq!(primary.repl_seq(), BATCHES, "one log entry per batch");

    // Only now does the follower exist: its first pull asks for
    // everything, ~2.8 MB of entries against a 1 MiB frame.
    let follower = Server::start(node(Some(addr))).expect("follower starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while follower.repl_seq() < BATCHES {
        assert!(
            std::time::Instant::now() < deadline,
            "follower stuck at seq {} of {BATCHES}",
            follower.repl_seq()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!follower.repl_failed());
    for m in 0..MACHINES {
        let records = primary.records(m).expect("machine streamed");
        assert!(
            !records.is_empty(),
            "machine {m} has occurrences to compare"
        );
        assert_eq!(follower.records(m), Some(records), "machine {m} records");
        assert_eq!(
            follower.transitions(m),
            primary.transitions(m),
            "machine {m} transitions"
        );
    }
    assert_eq!(follower.stats().machines, primary.stats().machines);
    // Both logs hold each batch as its wire bytes (a count, then 22
    // bytes a `Direct` sample), the follower's exactly as received.
    assert_eq!(primary.repl_log_bytes(), BATCHES * (4 + 22 * SAMPLES));
    assert_eq!(follower.repl_log_bytes(), primary.repl_log_bytes());
    follower.shutdown();
    primary.shutdown();
}
