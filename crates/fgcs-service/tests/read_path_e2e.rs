//! The read path against its independent witness (`witness/mod.rs`) on
//! every way a server comes to hold state: one and four event loops
//! ingesting over concurrent connections, a follower replaying the
//! primary's log, and a restart from a snapshot — plus the socket-level
//! case the event loop's short-read exit must not break.

#![cfg(target_os = "linux")]

mod witness;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

use fgcs_service::{Server, ServiceConfig};
use fgcs_wire::{Decoder, ErrorCode, Frame};
use witness::{
    assert_states_covered, check_place_after_flip, check_read_path, config, scenario, stream,
    wait_for,
};

const SEED: u64 = 20_060_301;
const MACHINES: u32 = 24;

/// One history, four servers: the placement table's flags equal the
/// recorders', every reply equals the brute-force answer, and all four
/// give the same answers as each other.
#[test]
fn place_reads_what_the_machine_cells_know_on_every_path() {
    let frames = scenario(SEED, MACHINES, false);

    let run = |svc: ServiceConfig| {
        let server = Server::start(svc).expect("server starts");
        stream(&server, &frames);
        let answers = check_read_path(&server);
        check_place_after_flip(&server);
        server.shutdown();
        answers
    };
    let reference = run(config(1));
    assert_states_covered(&reference);
    assert_eq!(run(config(4)), reference, "4 loops");

    // A follower holds the same table after replaying the log — its
    // flags were published by `apply_repl_entry`, not by ingest.
    let primary = Server::start(ServiceConfig {
        repl_log_capacity: 4_096,
        ..config(1)
    })
    .expect("primary starts");
    let follower = Server::start(ServiceConfig {
        follower_of: Some(primary.local_addr().to_string()),
        ..config(1)
    })
    .expect("follower starts");
    stream(&primary, &frames);
    wait_for("the follower to catch up", || {
        follower.repl_seq() == primary.repl_seq()
    });
    assert!(!follower.repl_failed());
    assert_eq!(check_read_path(&follower), reference, "follower");
    follower.shutdown();
    primary.shutdown();

    // A restart rebuilds the table from the snapshot's recorders.
    let dir = std::env::temp_dir().join(format!("fgcs-read-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap_cfg = || ServiceConfig {
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval_ms: 60_000,
        ..config(1)
    };
    let first = Server::start(snap_cfg()).expect("first life");
    stream(&first, &frames);
    first.shutdown(); // final checkpoint
    let second = Server::start(snap_cfg()).expect("second life");
    assert_eq!(check_read_path(&second), reference, "restored");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nothing harvestable: `Place` says so instead of naming a machine.
#[test]
fn place_with_no_harvestable_machine_places_nowhere() {
    let server = Server::start(config(1)).expect("server starts");
    stream(&server, &scenario(SEED, 8, true));
    let answers = check_read_path(&server);
    assert!(answers.machines.iter().all(|m| !m.1));
    assert!(answers
        .placements
        .iter()
        .all(|&p| p == (None, 0.0f64.to_bits())));
    server.shutdown();
}

/// Reads one frame off `stream`; `None` if the peer closed or reset
/// first.
fn read_reply(stream: &mut TcpStream) -> Option<Frame> {
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut dec = Decoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(f) = dec.next_frame().expect("well-formed reply") {
            return Some(f);
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => dec.push(&buf[..n]),
        }
    }
}

/// A client that sends its request and closes at once: the reply is
/// still delivered, the batch ingested, and the connection reaped. The
/// cap of one connection is the probe for the last part — the next
/// client is only served once the server has let go of this one.
fn request_then_close(svc: ServiceConfig) {
    let loops = svc.event_loops;
    let server = Server::start(ServiceConfig {
        max_connections: 1,
        ..svc
    })
    .expect("server starts");
    let frames = scenario(SEED, 1, false);
    // Opens a connection the server has admitted — a `QueryStats` round
    // trip says so — retrying while the cap still refuses it. (A
    // refusal closes with our request unread, which can turn into a
    // reset that overtakes the `ConnLimit` frame.)
    let connect_when_free = || {
        for _ in 0..500 {
            let mut s = TcpStream::connect(server.local_addr()).expect("connects");
            s.write_all(&Frame::QueryStats.encode().unwrap()).unwrap();
            match read_reply(&mut s) {
                Some(Frame::StatsReply(_)) => return s,
                Some(Frame::Error {
                    code: ErrorCode::ConnLimit,
                    ..
                })
                | None => std::thread::sleep(std::time::Duration::from_millis(10)),
                other => panic!("{loops} loops: {other:?}"),
            }
        }
        panic!("{loops} loops: the closed connection was never reaped");
    };

    // Half-close right behind the frame: FIN reaches the server with
    // (or just after) the request, and the reply must still come back,
    // followed by the server's own close.
    let mut a = TcpStream::connect(server.local_addr()).expect("connects");
    a.write_all(&frames[0].encode().unwrap()).unwrap();
    a.shutdown(Shutdown::Write).unwrap();
    let reply = read_reply(&mut a);
    assert!(
        matches!(reply, Some(Frame::Ack { seq: 1 })),
        "{loops} loops: {reply:?}"
    );
    assert_eq!(read_reply(&mut a), None, "{loops} loops: then EOF");
    drop(a);

    // Full close with the reply unread: nobody to deliver to, but the
    // batch counts and the connection still goes away.
    // (A forwarded batch is acked before its home loop has ingested
    // it, hence the wait.)
    wait_for("the acked batch", || server.stats().ingested_batches == 1);
    let mut b = connect_when_free();
    b.write_all(&frames[1].encode().unwrap()).unwrap();
    drop(b);
    wait_for("the orphaned batch", || {
        server.stats().ingested_batches == 2
    });
    connect_when_free();
    server.shutdown();
}

#[test]
fn request_then_close_one_loop() {
    request_then_close(config(1));
}

#[test]
fn request_then_close_multiloop() {
    request_then_close(config(4));
}
