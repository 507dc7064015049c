//! A multiplexed outbound connection pool (Linux only): one thread
//! holding thousands of client connections as nonblocking state over
//! one epoll instance.
//!
//! This is the client-side twin of the server's event loops,
//! extracted from the fan-in load generator so anything that needs wide
//! fan-out — the scaling driver today, cluster replication tomorrow —
//! shares one multiplexer. The pool is transport only: it owns sockets,
//! per-connection reassembly [`Decoder`]s and write buffers, and
//! surfaces whole [`Frame`]s; protocol state machines (handshakes,
//! pacing, retries) stay with the caller. [`crate::ServiceClient`] is
//! the one-connection blocking counterpart.
//!
//! Connections are addressed by *slot* (their index at
//! [`ClientPool::connect`] time). Slots never shift: a closed slot
//! stays closed, so callers can keep per-slot protocol state in a
//! parallel `Vec`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Instant;

use fgcs_sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use fgcs_wire::{encode_into, Decoder, Frame};

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
    /// A nonblocking connect ([`ClientPool::add`]) missed its deadline
    /// — the listener's accept queue is wedged or the host is
    /// blackholed, exactly the hang a blocking connect would sit in
    /// forever.
    ConnectTimeout,
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
    /// A slot opened with [`ClientPool::add`] finished its handshake
    /// and is ready (sends queued while connecting flush now).
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

struct PoolConn {
    stream: TcpStream,
    decoder: Decoder,
    /// Unflushed output (nonblocking writes that didn't finish).
    out: Vec<u8>,
    out_pos: usize,
    registered_writable: bool,
    /// `Some(deadline)` while a nonblocking connect is in flight; the
    /// socket reports the outcome via `SO_ERROR` when it turns
    /// writable, and [`ClientPool::poll`] times the attempt out at the
    /// deadline.
    connecting: Option<Instant>,
}

impl PoolConn {
    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// A pool of nonblocking client connections multiplexed over one epoll
/// instance. See the module docs for the slot model.
pub struct ClientPool {
    ep: Epoll,
    conns: Vec<Option<PoolConn>>,
    open: usize,
    rbuf: Vec<u8>,
    ebuf: Vec<u8>,
}

fn write_some(stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
    let mut written = 0;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

impl ClientPool {
    /// Opens `conns` connections to `addr`. A slot whose TCP connect is
    /// refused starts closed (no event is emitted for it) — check
    /// [`ClientPool::is_open`] after construction; the pool itself is
    /// only an error when epoll setup fails.
    pub fn connect(addr: &str, conns: usize) -> io::Result<ClientPool> {
        let mut pool = ClientPool::new()?;
        for slot in 0..conns {
            let Ok(stream) = TcpStream::connect(addr) else {
                pool.conns.push(None);
                continue;
            };
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            pool.ep
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, slot as u64)?;
            pool.conns.push(Some(PoolConn {
                stream,
                decoder: Decoder::new(),
                out: Vec::new(),
                out_pos: 0,
                registered_writable: false,
                connecting: None,
            }));
            pool.open += 1;
        }
        Ok(pool)
    }

    /// An empty pool; grow it with [`ClientPool::add`]. Only an error
    /// when epoll setup fails.
    pub fn new() -> io::Result<ClientPool> {
        Ok(ClientPool {
            ep: Epoll::new()?,
            conns: Vec::new(),
            open: 0,
            rbuf: vec![0u8; 64 * 1024],
            ebuf: Vec::with_capacity(4096),
        })
    }

    /// Opens one *nonblocking* connection to `addr` in a fresh slot and
    /// returns the slot index. Unlike [`ClientPool::connect`], the
    /// calling thread never blocks in the TCP handshake: the attempt
    /// resolves during [`ClientPool::poll`] as either
    /// [`PoolEvent::Connected`] or a `Closed` event — with
    /// [`PoolCloseReason::ConnectTimeout`] if the peer has not accepted
    /// within `connect_timeout_ms`. Frames sent while the slot is still
    /// connecting are buffered and flush on success.
    pub fn add(&mut self, addr: &str, connect_timeout_ms: u64) -> io::Result<usize> {
        use std::net::ToSocketAddrs;
        let slot = self.conns.len();
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address {addr:?} resolves to nothing"),
            )
        })?;
        let (stream, _done) = fgcs_sys::connect_nonblocking(&sockaddr)?;
        let _ = stream.set_nodelay(true);
        // Registering EPOLLOUT even for an instantly-completed connect
        // keeps one code path: the socket is writable, the first poll
        // sees it, SO_ERROR confirms, Connected is emitted.
        self.ep
            .add(stream.as_raw_fd(), EPOLLOUT | EPOLLRDHUP, slot as u64)?;
        let deadline = Instant::now() + std::time::Duration::from_millis(connect_timeout_ms.max(1));
        self.conns.push(Some(PoolConn {
            stream,
            decoder: Decoder::new(),
            out: Vec::new(),
            out_pos: 0,
            registered_writable: true,
            connecting: Some(deadline),
        }));
        self.open += 1;
        Ok(slot)
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
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return false;
        };
        if encode_into(frame, &mut self.ebuf).is_err() {
            self.close(slot);
            return false;
        }
        if conn.connecting.is_some() || conn.has_pending_out() {
            // Not writable yet (or already backlogged): queue in order.
            conn.out.extend_from_slice(&self.ebuf);
        } else {
            match write_some(&mut conn.stream, &self.ebuf) {
                Ok(w) if w == self.ebuf.len() => {}
                Ok(w) => conn.out.extend_from_slice(&self.ebuf[w..]),
                Err(_) => {
                    self.close(slot);
                    return false;
                }
            }
        }
        self.sync_interest(slot);
        true
    }

    /// Closes a slot (idempotent). The slot stays dead; no event is
    /// emitted.
    pub fn close(&mut self, slot: usize) {
        if let Some(entry) = self.conns.get_mut(slot) {
            if let Some(conn) = entry.take() {
                let _ = self.ep.delete(conn.stream.as_raw_fd());
                self.open -= 1;
            }
        }
    }

    fn sync_interest(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if conn.connecting.is_some() {
            // Interest stays EPOLLOUT until the handshake resolves.
            return;
        }
        let wants_write = conn.has_pending_out();
        if wants_write != conn.registered_writable {
            let mut interest = EPOLLIN | EPOLLRDHUP;
            if wants_write {
                interest |= EPOLLOUT;
            }
            if self
                .ep
                .modify(conn.stream.as_raw_fd(), interest, slot as u64)
                .is_ok()
            {
                conn.registered_writable = wants_write;
            }
        }
    }

    /// Waits up to `timeout_ms` for socket readiness and appends what
    /// happened to `out`: decoded frames in arrival order, and a
    /// `Closed` event for every connection that died (after its last
    /// frames). Returns how many events were appended.
    pub fn poll(&mut self, timeout_ms: i32, out: &mut Vec<PoolEvent>) -> io::Result<usize> {
        let mut events = [EpollEvent::zeroed(); 1024];
        // Never sleep past the nearest connect deadline: a hung peer
        // produces no readiness event, so the timeout is enforced by
        // waking up in time to notice it.
        let wait = self.clamp_to_connect_deadlines(timeout_ms);
        let n = self.ep.wait(&mut events, wait)?;
        let before = out.len();
        for ev in &events[..n] {
            let slot = ev.token() as usize;
            if let Some(reason) = self.process(slot, ev.readiness(), out) {
                self.close(slot);
                out.push(PoolEvent::Closed { slot, reason });
            } else {
                self.sync_interest(slot);
            }
        }
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = matches!(
                &self.conns[slot],
                Some(c) if c.connecting.is_some_and(|d| d <= now)
            );
            if expired {
                self.close(slot);
                out.push(PoolEvent::Closed {
                    slot,
                    reason: PoolCloseReason::ConnectTimeout,
                });
            }
        }
        Ok(out.len() - before)
    }

    /// The epoll wait bound: `timeout_ms` (negative = infinite),
    /// clamped down to the soonest in-flight connect deadline.
    fn clamp_to_connect_deadlines(&self, timeout_ms: i32) -> i32 {
        let now = Instant::now();
        let nearest = self
            .conns
            .iter()
            .flatten()
            .filter_map(|c| c.connecting)
            .map(|d| {
                d.saturating_duration_since(now)
                    .as_millis()
                    .min(i32::MAX as u128) as i32
            })
            .min();
        match nearest {
            None => timeout_ms,
            Some(remaining) if timeout_ms < 0 => remaining,
            Some(remaining) => timeout_ms.min(remaining),
        }
    }

    /// Handles one readiness event. `Some(reason)` = close the slot.
    fn process(
        &mut self,
        slot: usize,
        readiness: u32,
        out: &mut Vec<PoolEvent>,
    ) -> Option<PoolCloseReason> {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return None; // stale event for an already-closed slot
        };
        if conn.connecting.is_some() {
            // Any readiness on a connecting socket resolves the
            // attempt; `SO_ERROR` is the verdict (writable + 0 =
            // established, otherwise the errno of the failed connect).
            match fgcs_sys::take_socket_error(conn.stream.as_raw_fd()) {
                Ok(None) => {
                    conn.connecting = None;
                    let mut interest = EPOLLIN | EPOLLRDHUP;
                    if conn.has_pending_out() {
                        interest |= EPOLLOUT;
                    }
                    if self
                        .ep
                        .modify(conn.stream.as_raw_fd(), interest, slot as u64)
                        .is_err()
                    {
                        return Some(PoolCloseReason::Err);
                    }
                    conn.registered_writable = conn.has_pending_out();
                    out.push(PoolEvent::Connected { slot });
                }
                _ => return Some(PoolCloseReason::Err),
            }
        }
        if readiness & EPOLLERR != 0 {
            return Some(PoolCloseReason::Err);
        }
        if readiness & EPOLLOUT != 0 {
            let flushed = (|| -> io::Result<()> {
                if !conn.has_pending_out() {
                    return Ok(());
                }
                let w = write_some(&mut conn.stream, &conn.out[conn.out_pos..])?;
                conn.out_pos += w;
                if !conn.has_pending_out() {
                    conn.out.clear();
                    conn.out_pos = 0;
                }
                Ok(())
            })();
            if flushed.is_err() {
                return Some(PoolCloseReason::Err);
            }
        }
        if readiness & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
            loop {
                match conn.stream.read(&mut self.rbuf) {
                    Ok(0) => return Some(PoolCloseReason::Eof),
                    Ok(n) => {
                        conn.decoder.push(&self.rbuf[..n]);
                        loop {
                            match conn.decoder.next_frame() {
                                Ok(Some(frame)) => out.push(PoolEvent::Frame { slot, frame }),
                                Ok(None) => break,
                                Err(_) => return Some(PoolCloseReason::Decode),
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Some(PoolCloseReason::Err),
                }
            }
        }
        None
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
                    // `connect` establishes slots blockingly, so no
                    // Connected events surface on this path.
                    PoolEvent::Connected { .. } => {}
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

    #[test]
    fn add_connects_nonblocking_and_flushes_queued_sends() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let mut pool = ClientPool::new().unwrap();
        assert_eq!(pool.slots(), 0);
        let slot = pool.add(&addr, 2_000).unwrap();
        // Send *before* the handshake resolves: must queue, then flush.
        assert!(pool.send(slot, &Frame::QueryStats));

        let mut connected = false;
        let mut got_reply = false;
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !got_reply && std::time::Instant::now() < deadline {
            events.clear();
            pool.poll(50, &mut events).unwrap();
            for ev in &events {
                match ev {
                    PoolEvent::Connected { slot: s } => {
                        assert_eq!(*s, slot);
                        connected = true;
                    }
                    PoolEvent::Frame { slot: s, frame } => {
                        assert_eq!(*s, slot);
                        assert!(matches!(frame, Frame::StatsReply(_)));
                        assert!(connected, "Connected must precede the first frame");
                        got_reply = true;
                    }
                    PoolEvent::Closed { reason, .. } => {
                        panic!("slot closed unexpectedly: {reason:?}")
                    }
                }
            }
        }
        assert!(got_reply);
        server.shutdown();
    }

    #[test]
    fn hung_connect_times_out_at_the_slot_deadline() {
        // A listener that never accepts, with a minimal backlog that is
        // pre-filled: further SYNs sit unanswered, exactly the state a
        // blocking connect would hang in.
        let bind: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
        let listener = fgcs_sys::listen_backlog(&bind, 1).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fillers = Vec::new();
        for _ in 0..8 {
            if let Ok((s, _)) = fgcs_sys::connect_nonblocking(&addr) {
                fillers.push(s); // hold them open; never accepted
            }
        }

        let mut pool = ClientPool::new().unwrap();
        let slot = pool.add(&addr.to_string(), 300).unwrap();
        assert!(pool.is_open(slot), "slot exists while connecting");

        let started = std::time::Instant::now();
        let mut events = Vec::new();
        let mut reason = None;
        while reason.is_none() && started.elapsed() < std::time::Duration::from_secs(10) {
            events.clear();
            pool.poll(1_000, &mut events).unwrap();
            for ev in &events {
                match ev {
                    PoolEvent::Closed { slot: s, reason: r } => {
                        assert_eq!(*s, slot);
                        reason = Some(*r);
                    }
                    PoolEvent::Connected { .. } => {
                        panic!("a never-accepting backlog must not complete the connect")
                    }
                    PoolEvent::Frame { .. } => panic!("no frames expected"),
                }
            }
        }
        assert_eq!(reason, Some(PoolCloseReason::ConnectTimeout));
        // The deadline, not the 1 s poll timeout, bounded the wait.
        assert!(
            started.elapsed() < std::time::Duration::from_millis(900),
            "deadline must clamp the poll wait (took {:?})",
            started.elapsed()
        );
        assert!(!pool.is_open(slot));
    }
}
