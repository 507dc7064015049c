//! End-to-end tests over real localhost TCP: parity with the in-process
//! pipeline, overload accounting, corruption accounting, client
//! reconnection, and the write backlog on both ends of a socket.
#![cfg(target_os = "linux")]

mod common;

use common::{drain, expected_transitions};
use fgcs_faults::FaultConfig;
use fgcs_service::loadgen::Source;
use fgcs_service::{
    ClientConfig, ClientPool, LoadGenConfig, PoolEvent, Server, ServiceClient, ServiceConfig,
};
use fgcs_testbed::{trace_machine, TestbedConfig};
use fgcs_wire::{ErrorCode, Frame, SampleLoad, WireSample};

/// A server for `cfg` whose forwarding rings hold more batches than a
/// clean run sends, so a clean run sheds nothing however late the
/// scheduler runs a machine's home loop. With the default 256-deep ring
/// it can: a forwarded batch is acked at once, so on two cores the
/// client and the forwarding loop can stream a whole machine past a
/// home loop that never gets the CPU (ROADMAP small debts).
/// `backend_e2e::loop_counts_produce_bit_identical_records` replays on
/// the default ring.
fn unsheddable(cfg: &TestbedConfig) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 4096,
        ..ServiceConfig::for_testbed(cfg)
    }
}

/// Streaming a clean lab trace over TCP must produce **bit-identical**
/// occurrence records and state transitions to the in-process pipeline
/// — parity by construction through the shared `OccurrenceRecorder`.
#[test]
fn tcp_stream_matches_in_process_pipeline_bit_for_bit() {
    let cfg = TestbedConfig::tiny();
    let server = Server::start(unsheddable(&cfg)).expect("server starts");
    let addr = server.local_addr().to_string();

    let lg = LoadGenConfig::new(Source::Lab {
        lab: cfg.lab.clone(),
        max_samples: None,
    });
    let report = fgcs_service::run_loadgen(&addr, &lg).expect("loadgen runs");
    assert_eq!(report.conns_sustained, cfg.lab.machines);
    assert!(report.batches_sent > 0);
    assert_eq!(
        report.acks, report.batches_sent,
        "clean run: every batch acked"
    );
    assert_eq!(report.error_replies, 0);
    assert_eq!(report.frames_corrupted, 0);

    let stats = drain(&server, report.batches_sent);
    assert_eq!(stats.decode_errors, 0, "clean stream must decode fully");
    assert_eq!(stats.ingested_samples, report.samples_sent);

    for machine in 0..cfg.lab.machines {
        let streamed = server.records(machine as u32).expect("machine streamed");
        let local = trace_machine(&cfg, machine);
        assert_eq!(
            streamed, local,
            "machine {machine}: records must be bit-identical"
        );
        assert_eq!(server.out_of_order(machine as u32), 0);

        // Transitions: replay the same plan through a local recorder.
        let expected = expected_transitions(&cfg, machine);
        let got = server
            .transitions(machine as u32)
            .expect("machine streamed");
        assert_eq!(
            got, expected,
            "machine {machine}: transition log must match"
        );
    }
    server.shutdown();
}

/// Under overload the forwarding rings shed, the producers see `Busy`,
/// and the accounting reconciles *exactly*:
/// `sent == ingested + shed + decode-rejected`, while the server keeps
/// answering queries.
///
/// The recipe: two event loops, 2-deep rings, 2 ms per ingested batch,
/// and 64 unpaced machines with a connection each. The kernel deals the
/// connections over the two listeners and machine `m` is homed on loop
/// `m % 2`, so about 16 connections per direction carry nothing but
/// foreign-shard batches. A loop answers a forwarded batch at once and
/// pays its 2 ms only when it drains its own ring, so every pass over
/// its ready connections pushes ~16 batches at a ring that holds 2:
/// the rest are shed on the spot. (No shedding would need ≤ 2 foreign
/// connections in *both* directions; each of the 64 lands in a given
/// direction with probability 1/4, so that is P < 1e-10.)
#[test]
fn overload_sheds_and_reconciles_exactly() {
    let mut cfg = TestbedConfig::tiny();
    cfg.lab.machines = 64;
    let mut svc = ServiceConfig::for_testbed(&cfg);
    svc.event_loops = 2;
    svc.queue_capacity = 2;
    svc.ingest_delay_us = 2_000;
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut lg = LoadGenConfig::new(Source::Lab {
        lab: cfg.lab.clone(),
        max_samples: Some(320), // 20 batches per machine
    });
    lg.batch_size = 16;
    let report = std::thread::scope(|scope| {
        let load = scope.spawn(|| fgcs_service::run_loadgen(&addr, &lg));
        // Query responsiveness *during* the overload: 1,280 batches at
        // 2 ms over two loops keep the server saturated for over half a
        // second; ask well inside that.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut client = ServiceClient::connect(ClientConfig::new(&addr)).expect("connects");
        let reply = client
            .request(&Frame::QueryStats)
            .expect("stats answered under load");
        assert!(matches!(reply, Frame::StatsReply(_)));
        assert!(!load.is_finished(), "the query was answered mid-overload");
        load.join().expect("loadgen thread").expect("loadgen runs")
    });

    let stats = drain(&server, report.batches_sent);
    assert!(
        stats.shed_batches > 0,
        "load must actually overflow a forwarding ring: {stats:?}"
    );
    assert_eq!(
        stats.ingested_batches + stats.shed_batches + stats.decode_errors,
        report.batches_sent,
        "server-side identity: sent == ingested + shed + decode-rejected"
    );
    assert_eq!(
        stats.ingested_samples + stats.shed_samples,
        report.samples_sent,
        "samples reconcile too"
    );
    assert_eq!(stats.busy_replies, stats.shed_batches, "one Busy per shed");
    assert_eq!(
        report.acks + report.busys + report.error_replies,
        report.batches_sent,
        "client-side identity: every batch earned exactly one reply"
    );
    assert_eq!(report.busys, stats.shed_batches);
    server.shutdown();
}

/// Corrupted frames are detected by CRC and rejected — never ingested —
/// and the counts agree on both ends: injector == client Error replies
/// == server decode errors.
#[test]
fn corruption_is_detected_and_accounted_exactly() {
    let cfg = TestbedConfig::tiny();
    let server = Server::start(unsheddable(&cfg)).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut lg = LoadGenConfig::new(Source::Lab {
        lab: cfg.lab.clone(),
        max_samples: Some(3_000),
    });
    lg.faults = FaultConfig {
        corrupt_rate: 0.2,
        ..FaultConfig::off(11)
    };
    let report = fgcs_service::run_loadgen(&addr, &lg).expect("loadgen runs");
    assert!(
        report.frames_corrupted > 0,
        "rate 0.2 must corrupt something"
    );

    let stats = drain(&server, report.batches_sent);
    assert_eq!(report.error_replies, report.frames_corrupted);
    assert_eq!(stats.decode_errors, report.frames_corrupted);
    assert_eq!(
        stats.ingested_batches,
        report.batches_sent - report.frames_corrupted
    );
    assert_eq!(
        report.acks + report.busys + report.error_replies,
        report.batches_sent,
        "client-side identity holds under corruption"
    );
    server.shutdown();
}

/// A dropped connection heals transparently: the next request reconnects
/// with backoff and the server keeps its per-machine state.
#[test]
fn client_reconnects_transparently() {
    let server = Server::start(ServiceConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut cfg = ClientConfig::new(&addr);
    cfg.backoff_unit_ms = 1;
    let mut client = ServiceClient::connect(cfg).expect("client connects");
    let batch = |t: u64| Frame::SampleBatch {
        machine: 7,
        samples: vec![WireSample {
            t,
            load: SampleLoad::Direct(0.01),
            host_resident_mb: 64,
            alive: true,
        }],
    };
    assert!(matches!(
        client.request(&batch(0)).unwrap(),
        Frame::Ack { .. }
    ));
    assert_eq!(client.reconnects, 0);

    client.force_disconnect();
    assert!(!client.is_connected());
    assert!(matches!(
        client.request(&batch(60)).unwrap(),
        Frame::Ack { .. }
    ));
    assert_eq!(client.reconnects, 1, "exactly one transparent reconnect");

    let stats = drain(&server, 2);
    assert_eq!(stats.ingested_batches, 2, "state survived the reconnect");
    server.shutdown();
}

/// Querying a machine the server has never seen earns a typed error,
/// not a hang or a connection drop.
#[test]
fn unknown_machine_query_gets_typed_error() {
    let server = Server::start(ServiceConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();
    let mut client = ServiceClient::connect(ClientConfig::new(&addr)).expect("client connects");
    let reply = client
        .request(&Frame::QueryAvail {
            machine: 999,
            horizon: 1_800,
        })
        .expect("reply arrives");
    match reply {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownMachine),
        other => panic!("expected Error, got tag {}", other.tag()),
    }
    // The connection is still usable afterwards.
    let reply = client
        .request(&Frame::QueryStats)
        .expect("stats still answered");
    assert!(matches!(reply, Frame::StatsReply(_)));
    server.shutdown();
}

/// Polls `pool` until something happens and hands each frame to
/// `check`; any other event fails the test.
fn poll_frames(pool: &mut ClientPool, mut check: impl FnMut(Frame)) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut events = Vec::new();
    while events.is_empty() && std::time::Instant::now() < deadline {
        pool.poll(50, &mut events).expect("poll");
    }
    assert!(!events.is_empty(), "no reply within 120 s");
    for ev in events {
        match ev {
            PoolEvent::Frame { frame, .. } => check(frame),
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Both ends of one socket fall behind and queue. The client sends
/// every batch before reading a reply, so its socket refuses bytes once
/// the server falls behind: exactly one `Ack` per batch must come back,
/// numbered `1..=N`. Then the client asks for its transition log over
/// and over and waits, unread, until the server has answered: the large
/// replies pile up until the server's own socket refuses them, and
/// every one must still arrive, whole and in order. No connection may
/// close.
#[test]
fn write_backlogs_deliver_every_frame_in_order() {
    const BATCHES: u64 = 20_000;
    const QUERIES: u64 = 256;
    let server = Server::start(ServiceConfig {
        event_loops: 1, // own shard only: nothing is ever shed
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut pool = ClientPool::connect(&server.local_addr().to_string(), 1).expect("connects");
    // Alternating idle and busy stretches of 128 samples (~21 min) give
    // the machine a long transition log for the second half.
    for b in 0..BATCHES {
        let load = if b % 2 == 0 { 0.05 } else { 0.95 };
        let samples = (0..128)
            .map(|i| WireSample {
                t: (b * 128 + i) * 10,
                load: SampleLoad::Direct(load),
                host_resident_mb: 200,
                alive: true,
            })
            .collect();
        assert!(pool.send(
            0,
            &Frame::SampleBatch {
                machine: 1,
                samples
            }
        ));
    }
    let mut next_seq = 1;
    while next_seq <= BATCHES {
        poll_frames(&mut pool, |frame| {
            assert_eq!(frame, Frame::Ack { seq: next_seq }, "acks arrive in order");
            next_seq += 1;
        });
    }

    // A trailing availability query is answered after every log query
    // before it: once the server counts it, all their replies are
    // written or queued behind a socket that nobody reads.
    for since_seq in 1..=QUERIES {
        let query = Frame::QueryTransitions {
            machine: 1,
            since_seq,
            max: 4_096,
        };
        assert!(pool.send(0, &query));
    }
    let last = Frame::QueryAvail {
        machine: 1,
        horizon: 3_600,
    };
    assert!(pool.send(0, &last));
    while server.stats().queries_answered == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut since_seq = 1;
    while since_seq <= QUERIES + 1 {
        poll_frames(&mut pool, |frame| {
            if since_seq > QUERIES {
                assert!(matches!(frame, Frame::AvailReply { .. }), "{frame:?}");
            } else {
                let Frame::Transitions { transitions, .. } = frame else {
                    panic!("expected Transitions, got {frame:?}");
                };
                assert_eq!(transitions.len(), 4_096, "a whole reply");
                assert_eq!(transitions[0].seq, since_seq, "replies arrive in order");
            }
            since_seq += 1;
        });
    }
    server.shutdown();
}
