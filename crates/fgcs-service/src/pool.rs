//! A multiplexed outbound connection pool (Linux only): one thread
//! holding thousands of client connections as nonblocking state over
//! one epoll instance.
//!
//! It is the transport of the load driver ([`crate::loadgen`]) and the
//! benchmark's load generator, anything that keeps many connections
//! busy from one thread. The pool is slots and events over the framed
//! connection the server's event loops use too (`crate::epoll`), which
//! does all the socket I/O: writes and their backlog, reads, frame
//! reassembly, `EPOLLOUT` re-arming. The pool surfaces whole [`Frame`]s;
//! protocol state machines (handshakes, pacing, retries) stay with the
//! caller. Connections are established blockingly up front, so there is
//! no connect state to track. [`crate::ServiceClient`] is the
//! one-connection blocking counterpart, and the transport for anything
//! with one request outstanding.
//!
//! Connections are addressed by *slot* (their index at
//! [`ClientPool::connect`] time). Slots never shift: a closed slot
//! stays closed, so callers can keep per-slot protocol state in a
//! parallel `Vec`.

use std::io;
use std::net::TcpStream;

use fgcs_sys::{Epoll, EpollEvent};
use fgcs_wire::{encode_into, Frame};

use crate::epoll::FramedConn;

/// Why the pool closed a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolCloseReason {
    /// The peer closed the stream cleanly (EOF).
    Eof,
    /// A socket error (reset, broken pipe, `EPOLLERR`) or write
    /// failure.
    Err,
    /// The peer sent bytes that do not decode as a frame.
    Decode,
}

/// One thing that happened during [`ClientPool::poll`].
#[derive(Debug)]
pub enum PoolEvent {
    /// A whole frame arrived on a connection.
    Frame {
        /// The connection's slot.
        slot: usize,
        /// The decoded frame.
        frame: Frame,
    },
    /// Never emitted: a vestige kept only because the benchmark adapter
    /// still matches on it. It goes in the benchmark-only follow-up that
    /// edits the adapter (ROADMAP direction 6).
    Connected {
        /// The connection's slot.
        slot: usize,
    },
    /// The pool closed a connection (its slot is now dead). Frames that
    /// arrived before the close are delivered first, in order.
    Closed {
        /// The connection's slot.
        slot: usize,
        /// Why it closed.
        reason: PoolCloseReason,
    },
}

/// A pool of nonblocking client connections multiplexed over one epoll
/// instance. See the module docs for the slot model.
pub struct ClientPool {
    ep: Epoll,
    conns: Vec<Option<FramedConn>>,
    open: usize,
    events: Vec<EpollEvent>,
    rbuf: Vec<u8>,
    ebuf: Vec<u8>,
}

impl ClientPool {
    /// Opens `conns` connections to `addr`. A slot whose TCP connect is
    /// refused starts closed (no event is emitted for it) — check
    /// [`ClientPool::is_open`] after construction; the pool itself is
    /// only an error when epoll setup fails.
    pub fn connect(addr: &str, conns: usize) -> io::Result<ClientPool> {
        let mut pool = ClientPool {
            ep: Epoll::new()?,
            conns: Vec::with_capacity(conns),
            open: 0,
            events: vec![EpollEvent::zeroed(); 1024],
            rbuf: vec![0u8; 64 * 1024],
            ebuf: Vec::with_capacity(4096),
        };
        for slot in 0..conns {
            let Ok(stream) = TcpStream::connect(addr) else {
                pool.conns.push(None);
                continue;
            };
            stream.set_nonblocking(true)?;
            pool.conns
                .push(Some(FramedConn::register(stream, &pool.ep, slot as u64)?));
            pool.open += 1;
        }
        Ok(pool)
    }

    /// Whether a slot's connection is still open.
    pub fn is_open(&self, slot: usize) -> bool {
        self.conns.get(slot).is_some_and(|c| c.is_some())
    }

    /// How many connections are currently open.
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// The number of slots (open or closed).
    pub fn slots(&self) -> usize {
        self.conns.len()
    }

    /// Sends a frame on a slot, buffering whatever the nonblocking
    /// socket refuses (order preserved; the buffered tail flushes as
    /// the socket drains during [`ClientPool::poll`]). Returns `false`
    /// — and closes the slot — if the slot is already closed, encoding
    /// fails, or the socket is dead; no `Closed` event follows, the
    /// return value is the notification.
    pub fn send(&mut self, slot: usize, frame: &Frame) -> bool {
        if encode_into(frame, &mut self.ebuf).is_err() {
            self.close(slot);
            return false;
        }
        let bytes = std::mem::take(&mut self.ebuf);
        let sent = self.send_encoded(slot, &bytes);
        self.ebuf = bytes;
        sent
    }

    /// [`ClientPool::send`] for bytes the caller already encoded (and
    /// possibly corrupted on purpose): the one write path both share.
    pub(crate) fn send_encoded(&mut self, slot: usize, bytes: &[u8]) -> bool {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return false;
        };
        if conn.send(bytes).is_err() {
            self.close(slot);
            return false;
        }
        conn.sync_interest(&self.ep, slot as u64, true);
        true
    }

    /// Closes a slot (idempotent). The slot stays dead; no event is
    /// emitted.
    pub fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.ep.delete(conn.fd());
            self.open -= 1;
        }
    }

    /// Waits up to `timeout_ms` for socket readiness and appends what
    /// happened to `out`: decoded frames in arrival order, and a
    /// `Closed` event for every connection that died (after its last
    /// frames). Returns how many events were appended.
    pub fn poll(&mut self, timeout_ms: i32, out: &mut Vec<PoolEvent>) -> io::Result<usize> {
        let n = self.ep.wait(&mut self.events, timeout_ms)?;
        let before = out.len();
        for i in 0..n {
            let ev = self.events[i];
            let slot = ev.token() as usize;
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                continue; // stale event for an already-closed slot
            };
            let alive = conn.on_ready(ev.readiness(), &mut self.rbuf, |conn| loop {
                match conn.next_frame() {
                    Ok(Some(frame)) => out.push(PoolEvent::Frame { slot, frame }),
                    Ok(None) => return Ok(true),
                    Err(_) => return Err(PoolCloseReason::Decode),
                }
            });
            match alive {
                Ok(()) => conn.sync_interest(&self.ep, slot as u64, true),
                Err(reason) => {
                    self.close(slot);
                    out.push(PoolEvent::Closed { slot, reason });
                }
            }
        }
        Ok(out.len() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServiceConfig};

    #[test]
    fn pool_multiplexes_requests_over_many_slots() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let mut pool = ClientPool::connect(&addr, 8).unwrap();
        assert_eq!(pool.open_count(), 8);
        assert_eq!(pool.slots(), 8);
        for slot in 0..8 {
            assert!(pool.is_open(slot));
            assert!(pool.send(slot, &Frame::QueryStats));
        }
        // Every slot gets exactly one StatsReply.
        let mut replies = vec![0usize; 8];
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while replies.iter().sum::<usize>() < 8 && std::time::Instant::now() < deadline {
            events.clear();
            pool.poll(50, &mut events).unwrap();
            for ev in &events {
                match ev {
                    PoolEvent::Connected { .. } => panic!("Connected is never emitted"),
                    PoolEvent::Frame { slot, frame } => {
                        assert!(matches!(frame, Frame::StatsReply(_)));
                        replies[*slot] += 1;
                    }
                    PoolEvent::Closed { slot, reason } => {
                        panic!("slot {slot} closed unexpectedly: {reason:?}")
                    }
                }
            }
        }
        assert_eq!(replies, vec![1; 8]);

        // Explicit close is idempotent and send-to-closed fails cleanly.
        pool.close(3);
        pool.close(3);
        assert!(!pool.is_open(3));
        assert_eq!(pool.open_count(), 7);
        assert!(!pool.send(3, &Frame::QueryStats));

        // A server-side close surfaces as a Closed event. Force one by
        // sending garbage the decoder rejects fatally: the server
        // replies BadFrame and closes, so the slot sees EOF (after the
        // error frame).
        server.shutdown();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut closed = 0;
        while closed < 7 && std::time::Instant::now() < deadline {
            events.clear();
            pool.poll(50, &mut events).unwrap();
            for ev in &events {
                if let PoolEvent::Closed { .. } = ev {
                    closed += 1;
                }
            }
        }
        assert_eq!(closed, 7, "shutdown closes every remaining slot");
        assert_eq!(pool.open_count(), 0);
    }
}
