//! The replication long-poll over real sockets (DESIGN.md §13.1): a
//! pull with less than a batch to take waits at the primary, on a
//! two-loop server whose `pull_interval_ms` (2 s) is far above the
//! 25 ms cap. An append on the other event loop wakes the one holding
//! the pull; a pull that never gets a batch is answered at the cap with
//! what is there; frames pipelined behind a parked pull are answered
//! after it; a connection's first pull never waits.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs_wire::{Decoder, Frame, SampleLoad, WireSample};

/// 24 entries of 128 `Direct` samples (2,820 bytes each) are the first
/// count to reach the 64 KiB batch.
const BATCH_ENTRIES: u64 = 24;
/// What a pull holds out for at most, whatever `pull_interval_ms` says.
const HOLD: Duration = Duration::from_millis(25);

fn primary() -> Server {
    Server::start(ServiceConfig {
        event_loops: 2,
        repl_log_capacity: 4_096,
        pull_interval_ms: 2_000,
        ..ServiceConfig::default()
    })
    .expect("primary starts")
}

/// A raw connection, so that requests can be pipelined and a reply
/// awaited while other connections ingest.
struct Raw {
    stream: TcpStream,
    decoder: Decoder,
}

impl Raw {
    /// Connects and sends the connection's first pull, at the head,
    /// which is answered at once although it finds nothing to take.
    fn connect(server: &Server) -> Raw {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = Raw {
            stream,
            decoder: Decoder::new(),
        };
        let sent = Instant::now();
        raw.send(&[pull(server.repl_seq())]);
        assert!(entries(&raw.recv()).is_empty());
        let waited = sent.elapsed();
        assert!(waited < HOLD, "a first pull waited {waited:?}");
        raw
    }

    fn send(&mut self, frames: &[Frame]) {
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.encode().unwrap()).collect();
        self.stream.write_all(&bytes).unwrap();
    }

    fn recv(&mut self) -> Frame {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame().unwrap() {
                return frame;
            }
            let n = self.stream.read(&mut buf).expect("a reply within 5 s");
            assert!(n > 0, "the server closed the connection");
            self.decoder.push(&buf[..n]);
        }
    }
}

/// A 128-sample batch for `machine`, its `nth`.
fn batch(machine: u32, nth: u64) -> Frame {
    let samples = (0..128)
        .map(|k| WireSample {
            t: (nth * 128 + k) * 15,
            load: SampleLoad::Direct(0.05),
            host_resident_mb: 100,
            alive: true,
        })
        .collect();
    Frame::SampleBatch { machine, samples }
}

fn pull(after_seq: u64) -> Frame {
    Frame::ReplPull {
        after_seq,
        max_entries: 1_024,
        epoch: 1,
    }
}

fn entries(reply: &Frame) -> Vec<u64> {
    match reply {
        Frame::ReplEntries { entries, .. } => entries.iter().map(|e| e.seq).collect(),
        other => panic!("expected entries, got {other:?}"),
    }
}

#[test]
fn a_batch_appended_on_the_other_loop_answers_a_parked_pull() {
    // 16 shards over two loops: an even machine lives on loop 0, an odd
    // one on loop 1, whichever loop its connection landed on. Four
    // pullers sit on the two loops as the kernel spread them, and one
    // of the two rounds appends only on the loop that the ingest
    // connection's frames do not wake: a puller on the other loop hears
    // of the batch only through the cross-loop wake.
    let primary = primary();
    let mut pullers: Vec<Raw> = (0..4).map(|_| Raw::connect(&primary)).collect();
    let mut ingest = ServiceClient::connect(ClientConfig::new(primary.local_addr().to_string()))
        .expect("client connects");
    let mut nth = 0;
    for machine in [2u32, 3] {
        // Answered by the batch, not the clock, means answered before
        // the hold ran out. A host too busy to fill the batch within
        // the hold gets another try; without the wake no try is early.
        let answered_early = (0..5).any(|_| {
            let head = primary.repl_seq();
            let sent = Instant::now();
            for puller in &mut pullers {
                puller.send(&[pull(head)]);
            }
            for _ in 0..BATCH_ENTRIES {
                let reply = ingest.request(&batch(machine, nth)).unwrap();
                assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
                nth += 1;
            }
            let mut early = true;
            for puller in &mut pullers {
                let seqs = entries(&puller.recv());
                let waited = sent.elapsed();
                assert!(
                    waited < Duration::from_millis(200),
                    "machine {machine}: a full batch waited {waited:?}"
                );
                assert_eq!(seqs.first(), Some(&(head + 1)));
                early &= waited < HOLD && seqs.len() as u64 >= BATCH_ENTRIES;
                // Whatever the reply left out comes at once, or at the
                // cap when it is less than a batch.
                let (last, rest) = (head + seqs.len() as u64, primary.repl_seq());
                if rest > last {
                    puller.send(&[pull(last)]);
                    assert_eq!(entries(&puller.recv()).len() as u64, rest - last);
                }
            }
            early
        });
        assert!(
            answered_early,
            "machine {machine}: a pull waited out its hold although a batch was there"
        );
    }
    primary.shutdown();
}

#[test]
fn a_pull_short_of_a_batch_is_answered_at_the_cap_and_keeps_its_place_in_line() {
    let primary = primary();
    let mut puller = Raw::connect(&primary);
    let mut ingest = ServiceClient::connect(ClientConfig::new(primary.local_addr().to_string()))
        .expect("client connects");
    for nth in 0..3 {
        let reply = ingest.request(&batch(5, nth)).unwrap();
        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    }
    // Three entries wait past seq 0: less than a batch. The status
    // request pipelined behind the pull is answered after it.
    let sent = Instant::now();
    puller.send(&[pull(0), Frame::ReplStatus]);
    let first = puller.recv();
    let waited = sent.elapsed();
    assert_eq!(entries(&first), vec![1, 2, 3], "what was there");
    assert!(waited >= HOLD, "answered after {waited:?}, before the cap");
    assert!(
        waited < Duration::from_secs(1),
        "answered after {waited:?}: held for pull_interval_ms, not the cap"
    );
    assert_eq!(primary.repl_acked_seq(), 0);
    match puller.recv() {
        Frame::ReplStatusReply { head_seq, .. } => assert_eq!(head_seq, 3),
        other => panic!("expected the status reply second, got {other:?}"),
    }
    // A caught-up pull waits out the cap too, then gets nothing.
    let sent = Instant::now();
    puller.send(&[pull(3)]);
    assert!(entries(&puller.recv()).is_empty());
    assert!(sent.elapsed() >= HOLD);
    assert_eq!(primary.repl_acked_seq(), 3);
    primary.shutdown();
}
