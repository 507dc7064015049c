//! Loop-count equivalence, auth-handshake, disconnect, malformed-frame
//! and connection-cap tests over real localhost TCP.
//!
//! The event-loop count must be *invisible* at the protocol and
//! accounting level: one loop and four (where cross-loop forwarding
//! rings carry foreign-shard batches over an `SO_REUSEPORT` listener
//! set) give the same replies, the same occurrence records bit for bit
//! — the in-process pipeline's — and the same identities.
#![cfg(target_os = "linux")]

mod common;

use common::{drain, expected_transitions};
use std::io::{Read, Write};
use std::net::TcpStream;

use fgcs_service::loadgen::Source;
use fgcs_service::{
    run_loadgen, ClientConfig, LoadGenConfig, Server, ServiceClient, ServiceConfig,
};
use fgcs_testbed::{trace_machine, OccurrenceRecorder, TestbedConfig};
use fgcs_wire::{Decoder, ErrorCode, Frame, SampleLoad, WireSample, WireTransition};

fn batch(machine: u32, t0: u64, n: u64) -> Frame {
    let samples = (0..n)
        .map(|i| WireSample {
            t: t0 + 60 * i,
            load: SampleLoad::Direct(0.05),
            host_resident_mb: 64,
            alive: true,
        })
        .collect();
    Frame::SampleBatch { machine, samples }
}

/// A default config running `loops` event loops.
fn loops_cfg(loops: usize) -> ServiceConfig {
    ServiceConfig {
        event_loops: loops,
        ..Default::default()
    }
}

/// Streams `TestbedConfig::tiny` through a server with `loops` event
/// loops and returns (per-machine records, per-machine transitions,
/// stats).
fn stream_tiny(
    loops: usize,
) -> (
    Vec<Vec<fgcs_testbed::TraceRecord>>,
    Vec<Vec<WireTransition>>,
    fgcs_wire::StatsPayload,
) {
    let cfg = TestbedConfig::tiny();
    let mut svc = ServiceConfig::for_testbed(&cfg);
    svc.event_loops = loops;
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();

    let lg = LoadGenConfig::new(Source::Lab {
        lab: cfg.lab.clone(),
        max_samples: None,
    });
    let report = run_loadgen(&addr, &lg).expect("loadgen runs");
    assert_eq!(report.acks, report.batches_sent, "clean run fully acked");
    let stats = drain(&server, report.batches_sent);
    assert_eq!(stats.decode_errors, 0);

    let mut records = Vec::new();
    let mut transitions = Vec::new();
    for machine in 0..cfg.lab.machines {
        records.push(server.records(machine as u32).expect("machine streamed"));
        transitions.push(server.transitions(machine as u32).expect("streamed"));
    }
    server.shutdown();
    (records, transitions, stats)
}

/// The equivalence proof: the same trace through one event loop and
/// through four (foreign-shard batches crossing the forwarding rings)
/// yields **byte-identical** occurrence records and transition logs,
/// both matching the in-process pipeline.
#[test]
fn loop_counts_produce_bit_identical_records() {
    let cfg = TestbedConfig::tiny();
    let (rec_1, tr_1, stats_1) = stream_tiny(1);
    let (rec_4, tr_4, stats_4) = stream_tiny(4);
    for machine in 0..cfg.lab.machines {
        let local = trace_machine(&cfg, machine);
        let expected = expected_transitions(&cfg, machine);
        assert_eq!(rec_1[machine], local, "1 loop vs in-process, {machine}");
        assert_eq!(tr_1[machine], expected, "1-loop transitions {machine}");
        assert_eq!(rec_4[machine], local, "4 loops vs in-process, {machine}");
        assert_eq!(tr_4[machine], expected, "4-loop transitions {machine}");
    }
    assert_eq!(stats_1.ingested_batches, stats_4.ingested_batches);
    assert_eq!(stats_1.ingested_samples, stats_4.ingested_samples);
    assert_eq!((stats_1.shed_batches, stats_4.shed_batches), (0, 0));
}

/// Running more event loops than state shards cannot partition the
/// shards exclusively, so startup must refuse it with `InvalidInput`
/// instead of silently starving a loop.
#[test]
fn more_loops_than_shards_is_refused_at_startup() {
    let svc = ServiceConfig {
        event_loops: 8,
        state_shards: 4,
        ..Default::default()
    };
    match Server::start(svc) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("loops > shards must not start"),
    }
}

/// A client dying mid-frame must not corrupt reassembly: the complete
/// frames before the cut are ingested, the fragment is discarded with
/// the connection, no decode error is charged, and a second connection
/// carries on to the exact in-process result.
fn mid_batch_disconnect(svc: ServiceConfig) {
    let loops = svc.event_loops;
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();

    let b1 = batch(3, 0, 4);
    let b2 = batch(3, 240, 4);
    let b3 = batch(3, 480, 4);

    // Connection A: batch 1 whole, then half of batch 2, then death.
    {
        let mut stream = TcpStream::connect(&addr).expect("conn A");
        stream.write_all(&b1.encode().unwrap()).unwrap();
        let mut dec = Decoder::new();
        let mut buf = [0u8; 4096];
        let reply = loop {
            if let Some(f) = dec.next_frame().unwrap() {
                break f;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            dec.push(&buf[..n]);
        };
        assert!(matches!(reply, Frame::Ack { .. }));
        let enc2 = b2.encode().unwrap();
        stream.write_all(&enc2[..enc2.len() / 2]).unwrap();
        stream.flush().unwrap();
        // Drop: RST/FIN with a partial frame buffered server-side.
    }

    // Connection B: resend batch 2, then batch 3.
    let mut cfg = ClientConfig::new(&addr);
    cfg.backoff_unit_ms = 1;
    let mut client = ServiceClient::connect(cfg).expect("conn B");
    assert!(matches!(client.request(&b2).unwrap(), Frame::Ack { .. }));
    assert!(matches!(client.request(&b3).unwrap(), Frame::Ack { .. }));

    let stats = drain(&server, 3);
    assert_eq!(stats.ingested_batches, 3, "{loops} loops: 3 whole batches");
    assert_eq!(
        stats.decode_errors, 0,
        "{loops} loops: a truncated tail is not a decode error"
    );
    assert_eq!(stats.shed_batches, 0);

    // Records equal an in-process run over the same 12 samples. The
    // default server derives its memory model from `LabConfig::default`.
    let lab = fgcs_testbed::LabConfig::default();
    let mut rec = OccurrenceRecorder::new(3, ServiceConfig::default().detector);
    for f in [&b1, &b2, &b3] {
        let Frame::SampleBatch { samples, .. } = f else {
            unreachable!()
        };
        for s in samples {
            let obs = fgcs_core::monitor::Observation {
                host_load: 0.05,
                free_mem_mb: lab.free_for_guest_mb(s.host_resident_mb),
                alive: true,
            };
            rec.observe(s.t, &obs);
        }
    }
    assert_eq!(
        server.records(3).expect("machine exists"),
        rec.into_records(),
        "{loops} loops: reassembly survived the mid-frame death"
    );
    server.shutdown();
}

#[test]
fn mid_batch_disconnect_one_loop() {
    mid_batch_disconnect(loops_cfg(1));
}

#[test]
fn mid_batch_disconnect_multiloop() {
    mid_batch_disconnect(loops_cfg(4));
}

/// The auth handshake: the right token opens the stream, the wrong
/// token (or none) earns a typed `Unauthorized` and a close, with the
/// server counting each rejection.
fn auth_handshake(mut svc: ServiceConfig) {
    let loops = svc.event_loops;
    svc.auth_token = Some("s3cret".to_string());
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();

    // Right token: full request cycle works, reconnect re-authenticates.
    let mut cfg = ClientConfig::new(&addr);
    cfg.backoff_unit_ms = 1;
    cfg.token = Some("s3cret".to_string());
    let mut client = ServiceClient::connect(cfg).expect("authed connect");
    assert!(matches!(
        client.request(&batch(1, 0, 2)).unwrap(),
        Frame::Ack { .. }
    ));
    client.force_disconnect();
    assert!(matches!(
        client.request(&batch(1, 120, 2)).unwrap(),
        Frame::Ack { .. }
    ));
    assert_eq!(client.reconnects, 1);

    // Wrong token: terminal PermissionDenied, no retry storm.
    let mut bad = ClientConfig::new(&addr);
    bad.backoff_unit_ms = 1;
    bad.token = Some("wrong".to_string());
    match ServiceClient::connect(bad) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::PermissionDenied, "{e}"),
        Ok(_) => panic!("wrong token accepted"),
    }

    // No token at all: the first data frame is refused with the typed
    // error before touching any machine state.
    let mut anon = ServiceClient::connect(ClientConfig::new(&addr)).expect("tcp connects");
    match anon.request(&batch(2, 0, 2)).unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("expected Unauthorized, got tag {}", other.tag()),
    }

    let stats = drain(&server, 2);
    assert_eq!(stats.ingested_batches, 2, "only authed batches ingested");
    assert_eq!(
        server.auth_rejects(),
        2,
        "{loops} loops: one wrong-token + one anonymous rejection"
    );
    assert!(
        server.records(2).is_none(),
        "anon batch never reached state"
    );
    server.shutdown();
}

#[test]
fn auth_handshake_one_loop() {
    auth_handshake(loops_cfg(1));
}

#[test]
fn auth_handshake_multiloop() {
    auth_handshake(loops_cfg(4));
}

/// Over the connection cap the server answers with a typed `ConnLimit`
/// error instead of hanging or silently dropping.
#[test]
fn over_cap_connection_gets_typed_error() {
    let svc = ServiceConfig {
        max_connections: 1,
        ..loops_cfg(2)
    };
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut first = ServiceClient::connect(ClientConfig::new(&addr)).expect("first conn");
    assert!(matches!(
        first.request(&Frame::QueryStats).unwrap(),
        Frame::StatsReply(_)
    ));

    // Second connection: expect Error { ConnLimit } then EOF.
    let mut stream = TcpStream::connect(&addr).expect("tcp connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut dec = Decoder::new();
    let mut buf = [0u8; 4096];
    let reply = loop {
        if let Some(f) = dec.next_frame().unwrap() {
            break f;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed without the typed error");
        dec.push(&buf[..n]);
    };
    match reply {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::ConnLimit),
        other => panic!("expected ConnLimit, got tag {}", other.tag()),
    }
    assert_eq!(server.conn_rejects(), 1);

    // The first connection is unaffected.
    assert!(matches!(
        first.request(&Frame::QueryStats).unwrap(),
        Frame::StatsReply(_)
    ));
    server.shutdown();
}

/// A client must survive a *full server restart* on the same port: the
/// next request transparently reconnects, the auth handshake is re-run
/// before any queued data, and nothing wedges.
fn reconnect_through_server_restart(mut svc: ServiceConfig) {
    let loops = svc.event_loops;
    svc.auth_token = Some("s3cret".to_string());

    let first = Server::start(svc.clone()).expect("first life");
    let addr = first.local_addr().to_string();
    let mut cfg = ClientConfig::new(&addr);
    cfg.backoff_unit_ms = 1;
    cfg.token = Some("s3cret".to_string());
    let mut client = ServiceClient::connect(cfg).expect("authed connect");
    assert!(matches!(
        client.request(&batch(1, 0, 2)).unwrap(),
        Frame::Ack { .. }
    ));
    drain(&first, 1);
    first.shutdown();

    // Second life on the *same* port — possible only because every
    // listener binds with SO_REUSEADDR (std's `bind` sets it) while the
    // first life's server-side sockets sit in TIME_WAIT.
    let second = Server::start(ServiceConfig {
        addr: addr.clone(),
        ..svc
    })
    .expect("rebind the same port across the restart");

    // The held stream is dead; the next request must reconnect AND
    // re-authenticate (the new server has no memory of the old
    // session) before the batch goes out.
    assert!(matches!(
        client.request(&batch(1, 120, 2)).unwrap(),
        Frame::Ack { .. }
    ));
    assert_eq!(client.reconnects, 1, "{loops} loops: exactly one reconnect");
    let stats = drain(&second, 1);
    assert_eq!(
        stats.ingested_batches, 1,
        "{loops} loops: the post-restart batch was ingested by the new life"
    );
    assert_eq!(
        second.auth_rejects(),
        0,
        "{loops} loops: the re-auth presented the token before any data"
    );
    second.shutdown();
}

#[test]
fn reconnect_through_server_restart_one_loop() {
    reconnect_through_server_restart(loops_cfg(1));
}

#[test]
fn reconnect_through_server_restart_multiloop() {
    reconnect_through_server_restart(loops_cfg(4));
}

/// When the server *stays* dead, a previously-healthy client must give
/// up within its retry budget. Regression test for a reconnect wedge:
/// the healthy-reset rule compared against `connected_at.elapsed()`,
/// which keeps growing after the stream dies, so every failed attempt
/// re-earned the budget and the client retried forever.
#[test]
fn previously_healthy_client_gives_up_when_server_stays_dead() {
    let server = Server::start(ServiceConfig::default()).expect("server");
    let addr = server.local_addr().to_string();
    let mut cfg = ClientConfig::new(&addr);
    cfg.backoff_unit_ms = 1;
    // Tiny budget, and a healthy-reset horizon (1 ms) that the healthy
    // connection below will definitely exceed — the exact precondition
    // that used to wedge.
    cfg.sup.max_retries = 3;
    cfg.sup.backoff_base_secs = 1;
    cfg.sup.backoff_cap_secs = 4;
    cfg.sup.healthy_reset_secs = 1;
    let mut client = ServiceClient::connect(cfg).expect("connects");
    assert!(matches!(
        client.request(&Frame::QueryStats).unwrap(),
        Frame::StatsReply(_)
    ));
    std::thread::sleep(std::time::Duration::from_millis(10)); // healthy long enough
    server.shutdown();

    let begin = std::time::Instant::now();
    let err = client
        .request(&Frame::QueryStats)
        .expect_err("the server is gone for good");
    assert_ne!(err.kind(), std::io::ErrorKind::PermissionDenied);
    assert!(
        begin.elapsed() < std::time::Duration::from_secs(30),
        "gave up within the budget instead of retrying forever"
    );
}

/// Small fan-in smoke at one and four loops through the load driver:
/// every connection sustains, the client- and server-side identities
/// reconcile exactly.
#[test]
fn fanin_driver_reconciles() {
    for loops in [1, 4] {
        let mut svc = loops_cfg(loops);
        svc.auth_token = Some("s3cret".to_string());
        let server = Server::start(svc).expect("server starts");
        let addr = server.local_addr().to_string();

        let mut lg = LoadGenConfig::new(Source::Steady {
            machines: 8,
            samples: 3 * 8, // 3 batches of 8
        });
        lg.batch_size = 8;
        lg.query_every_batches = 2;
        lg.token = Some("s3cret".to_string());
        let report = run_loadgen(&addr, &lg).expect("driver runs");

        assert_eq!(report.conns_connected, 8, "{loops} loops");
        assert_eq!(report.conns_sustained, 8, "{loops} loops");
        assert_eq!(report.conns_failed, 0, "{loops} loops");
        assert_eq!(report.conns_rejected, 0, "{loops} loops");
        assert_eq!(report.batches_sent, 24, "{loops} loops");
        assert_eq!(
            report.acks + report.busys + report.error_replies,
            report.batches_sent,
            "{loops} loops: client-side identity"
        );
        assert_eq!(report.queries_sent, 8, "{loops} loops");
        assert_eq!(
            report.queries_answered + report.query_errors,
            report.queries_sent,
            "{loops} loops"
        );

        let stats = drain(&server, report.batches_sent);
        assert_eq!(
            stats.ingested_batches + stats.shed_batches + stats.decode_errors,
            report.batches_sent,
            "{loops} loops: server-side identity"
        );
        assert_eq!(
            stats.ingested_samples + stats.shed_samples,
            report.samples_sent
        );
        server.shutdown();
    }
}

/// Rejection accounting through the load driver, one cause at a time,
/// on a one-loop server capped at 4 connections. First 2 connections
/// with a wrong token: both are admitted and refused at the auth gate.
/// (That run goes first because the server closes a refused connection
/// before its loop accepts again, so the next run starts from zero
/// occupancy; a finished run's own closes race the next run's
/// connects.) Then 8 with the right token: the pool connects all 8
/// before any frame, the loop admits the first 4 and refuses the rest at
/// the cap. Refused connections send zero batches, nothing fails, and
/// both identities stay exact.
#[test]
fn driver_accounts_rejected_connections() {
    let svc = ServiceConfig {
        max_connections: 4,
        auth_token: Some("s3cret".to_string()),
        ..loops_cfg(1)
    };
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();
    let driver = |conns: u32, token: &str| {
        let mut lg = LoadGenConfig::new(Source::Steady {
            machines: conns,
            samples: 3 * 8, // 3 batches of 8
        });
        lg.batch_size = 8;
        lg.token = Some(token.to_string());
        let report = run_loadgen(&addr, &lg).expect("driver runs");
        assert_eq!(report.conns_requested, conns as usize);
        assert_eq!(report.conns_failed, 0, "{report:?}");
        assert_eq!(
            report.acks + report.busys + report.error_replies,
            report.batches_sent,
            "client-side identity"
        );
        report
    };

    let bad = driver(2, "wrong");
    assert_eq!(bad.conns_connected, 2, "{bad:?}");
    assert_eq!(bad.conns_rejected, 2, "{bad:?}");
    assert_eq!(bad.batches_sent, 0, "refused connections sent zero batches");
    assert_eq!(server.auth_rejects(), 2, "both refused at the auth gate");
    assert_eq!(server.conn_rejects(), 0);

    let capped = driver(8, "s3cret");
    assert_eq!(capped.conns_sustained, 4, "{capped:?}");
    assert_eq!(capped.conns_rejected, 4, "{capped:?}");
    assert_eq!(
        capped.batches_sent,
        4 * 3,
        "refused connections sent zero batches"
    );
    assert_eq!(server.conn_rejects(), 4, "four refused at the cap");
    assert_eq!(server.auth_rejects(), 2);

    let stats = drain(&server, capped.batches_sent);
    assert_eq!(
        stats.ingested_batches + stats.shed_batches + stats.decode_errors,
        capped.batches_sent,
        "server-side identity"
    );
    server.shutdown();
}

/// A malformed frame — sound header, garbage payload — must come back
/// as a typed `BadFrame` error on the same stream, count as a decode
/// error, and leave the connection usable: the framing layer stays in
/// sync, so the next well-formed request still answers. A corrupted
/// payload (CRC mismatch) gets the same treatment.
fn malformed_frame_gets_typed_error_and_stream_survives(svc: ServiceConfig) {
    let loops = svc.event_loops;
    let server = Server::start(svc).expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut decoder = Decoder::new();
    let read_reply = |stream: &mut TcpStream, decoder: &mut Decoder| -> Frame {
        let mut buf = [0u8; 4096];
        loop {
            if let Ok(Some(frame)) = decoder.next_frame() {
                return frame;
            }
            let n = stream.read(&mut buf).expect("reply readable");
            assert!(n > 0, "{loops} loops: server closed on a recoverable frame");
            decoder.push(&buf[..n]);
        }
    };

    // Garbage payload under a sound header: magic, version, and a real
    // tag, but 3 junk bytes where QueryAvail's 12-byte payload belongs.
    // The CRC is *correct* for the junk, so this exercises the payload
    // decoder, not the checksum.
    let junk = [0xde, 0xad, 0xbe];
    let mut raw = Vec::new();
    raw.extend_from_slice(b"FC");
    raw.push(fgcs_wire::PROTOCOL_VERSION);
    raw.push(
        Frame::QueryAvail {
            machine: 0,
            horizon: 0,
        }
        .tag(),
    );
    raw.extend_from_slice(&(junk.len() as u32).to_le_bytes());
    raw.extend_from_slice(&fgcs_wire::codec::crc32(&junk).to_le_bytes());
    raw.extend_from_slice(&junk);
    stream.write_all(&raw).expect("junk frame written");
    match read_reply(&mut stream, &mut decoder) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame, "{loops} loops"),
        other => panic!("{loops} loops: expected BadFrame, got tag {}", other.tag()),
    }

    // Corrupted payload: a well-formed batch with one payload byte
    // flipped fails the CRC — same typed reply, same survival.
    let mut corrupted = batch(1, 0, 2).encode().expect("encodable");
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0xff;
    stream
        .write_all(&corrupted)
        .expect("corrupted frame written");
    match read_reply(&mut stream, &mut decoder) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame, "{loops} loops"),
        other => panic!("{loops} loops: expected BadFrame, got tag {}", other.tag()),
    }

    // The stream survived both: a valid request on the same socket
    // still answers, and nothing reached machine state.
    let ok = batch(1, 0, 2).encode().expect("encodable");
    stream.write_all(&ok).expect("valid frame written");
    match read_reply(&mut stream, &mut decoder) {
        Frame::Ack { .. } => {}
        other => panic!("{loops} loops: expected Ack, got tag {}", other.tag()),
    }
    let stats = drain(&server, 3);
    assert_eq!(
        stats.decode_errors, 2,
        "{loops} loops: both rejects counted"
    );
    assert_eq!(stats.ingested_batches, 1, "{loops} loops");
    server.shutdown();
}

#[test]
fn malformed_frame_recovery_one_loop() {
    malformed_frame_gets_typed_error_and_stream_survives(loops_cfg(1));
}

#[test]
fn malformed_frame_recovery_multiloop() {
    malformed_frame_gets_typed_error_and_stream_survives(loops_cfg(4));
}

/// `QueryAvail.horizon` and `Place.job_len` are peer-chosen and the
/// model's work is linear in the window's hours, so a window above the
/// server's 31-day cap must be refused before any model work — with a
/// typed error on the same stream, which then keeps answering.
fn oversized_window_gets_typed_error_and_stream_survives(svc: ServiceConfig) {
    const CAP: u64 = 31 * 86_400;
    let loops = svc.event_loops;
    let server = Server::start(svc).expect("server starts");
    let addr = server.local_addr().to_string();
    let mut client = ServiceClient::connect(ClientConfig::new(&addr)).expect("connects");
    assert!(matches!(
        client.request(&batch(1, 0, 4)).unwrap(),
        Frame::Ack { .. }
    ));
    drain(&server, 1);

    for window in [CAP + 1, u64::MAX] {
        for request in [
            Frame::QueryAvail {
                machine: 1,
                horizon: window,
            },
            Frame::Place { job_len: window },
        ] {
            match client.request(&request).unwrap() {
                Frame::Error { code, detail } => {
                    assert_eq!(code, ErrorCode::Unsupported, "{loops} loops: {detail}")
                }
                other => panic!("{loops} loops: window {window} answered {other:?}"),
            }
        }
    }
    // The cap itself is served, on the connection that was refused.
    assert!(matches!(
        client
            .request(&Frame::QueryAvail {
                machine: 1,
                horizon: CAP
            })
            .unwrap(),
        Frame::AvailReply { machine: 1, .. }
    ));
    assert!(matches!(
        client.request(&Frame::Place { job_len: CAP }).unwrap(),
        Frame::PlaceReply { .. }
    ));
    assert_eq!(client.reconnects, 0, "{loops} loops: the stream survived");
    let stats = server.stats();
    assert_eq!(
        (stats.queries_answered, stats.placements_answered),
        (1, 1),
        "{loops} loops: refused windows did no model work"
    );
    server.shutdown();
}

#[test]
fn oversized_window_one_loop() {
    oversized_window_gets_typed_error_and_stream_survives(loops_cfg(1));
}

#[test]
fn oversized_window_multiloop() {
    oversized_window_gets_typed_error_and_stream_survives(loops_cfg(4));
}
