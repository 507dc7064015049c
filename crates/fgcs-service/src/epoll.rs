//! The frame-server skeleton (Linux only): a level-triggered epoll
//! event loop serving framed connections for a [`LoopHandler`], which
//! owns what frames mean. The service runs N of them (`crate::conn`),
//! `fgcs-sched` one. Skeleton invariants (DESIGN.md §10 and §12):
//!
//! * **Buffer reuse.** One shared 64 KiB read scratch and one shared
//!   encode scratch serve every connection of a loop; each connection's
//!   write buffer is cleared (capacity kept) once flushed. Steady state
//!   allocates nothing per frame.
//! * **Partial-frame reassembly.** Each connection owns a
//!   `fgcs_wire::Decoder`; bytes are pushed as they arrive and frames
//!   pulled out whole. A connection that dies mid-frame takes its
//!   decoder (and the fragment) with it — no cross-connection state.
//! * **One reply per frame.** Every decoded frame goes through
//!   [`LoopHandler::handle`] and earns exactly one reply; a decode error
//!   is reported to [`LoopHandler::decode_error`] and answered
//!   `BadFrame`, and a fatal one (or [`Outcome::ReplyThenClose`]) closes
//!   the connection once the reply is flushed.
//! * **A global cap.** Connections past [`LoopHandler::open_conns`]'s
//!   cap are refused with a best-effort `Error { ConnLimit }`.
//! * **Static dispatch.** The loop is generic over its handler, so the
//!   per-frame path is one inlinable call: no `dyn`, allocation, lock or
//!   atomic is added per frame.
//!
//! The handler owns everything else: request semantics, per-connection
//! protocol state ([`LoopHandler::Conn`]), work done once per wakeup
//! ([`LoopHandler::after_events`]) and the shutdown drain
//! ([`LoopHandler::finish`]).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fgcs_sys::{
    accept_nonblocking, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use fgcs_wire::{encode_into, Decoder, ErrorCode, Frame};

/// What to do with a handled frame's reply.
#[derive(Debug)]
pub enum Outcome {
    /// Write the reply; keep the connection.
    Reply(Frame),
    /// Write the reply, then close the connection (auth failures).
    ReplyThenClose(Frame),
}

/// The protocol half of a frame server: what an [`EventLoop`] calls.
pub trait LoopHandler {
    /// Per-connection protocol state, created when a connection is
    /// accepted and dropped with it.
    type Conn: Default;

    /// Answers one decoded frame; called exactly once per frame.
    fn handle(&mut self, frame: Frame, conn: &mut Self::Conn) -> Outcome;

    /// The open-connection gauge the cap is checked against. The loop
    /// keeps it current; every loop of one server shares it.
    fn open_conns(&self) -> &AtomicU64;

    /// A connection was refused at the cap.
    fn conn_refused(&mut self) {}

    /// A frame failed to decode (it is answered `BadFrame`).
    fn decode_error(&mut self) {}

    /// Runs on every wakeup, after the connection events and before the
    /// accepts.
    fn after_events(&mut self) {}

    /// Runs once on stop, after every connection and the listener are
    /// dropped.
    fn finish(self)
    where
        Self: Sized,
    {
    }
}

/// A running event loop: its thread, its stop flag and its wake fd.
/// Dropping it without [`EventLoop::stop`] and [`EventLoop::join`]
/// leaves the loop running.
pub struct EventLoop {
    stop: Arc<AtomicBool>,
    wake: Arc<EventFd>,
    thread: JoinHandle<()>,
}

impl EventLoop {
    /// Serves `listener` with `handler` on a new thread, refusing
    /// connections beyond `max_conns`. Every fallible setup step runs
    /// first: an `Err` starts no thread.
    pub fn spawn<H>(listener: TcpListener, max_conns: usize, handler: H) -> io::Result<EventLoop>
    where
        H: LoopHandler + Send + 'static,
    {
        EventLoop::spawn_woken(listener, max_conns, Arc::new(EventFd::new()?), handler)
    }

    /// [`EventLoop::spawn`] with a wake fd the caller shares (the
    /// service's forwarding rings signal their recipient loop on it).
    pub(crate) fn spawn_woken<H>(
        listener: TcpListener,
        max_conns: usize,
        wake: Arc<EventFd>,
        handler: H,
    ) -> io::Result<EventLoop>
    where
        H: LoopHandler + Send + 'static,
    {
        listener.set_nonblocking(true)?;
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), EPOLLIN, listener.as_raw_fd() as u64)?;
        ep.add(wake.fd(), EPOLLIN, wake.fd() as u64)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (stop, wake) = (Arc::clone(&stop), Arc::clone(&wake));
            std::thread::spawn(move || {
                if let Err(e) = run(ep, listener, max_conns, &stop, &wake, handler) {
                    eprintln!("fgcs-service: epoll event loop failed: {e}");
                }
            })
        };
        Ok(EventLoop { stop, wake, thread })
    }

    /// Asks the loop to stop and wakes it; [`EventLoop::join`] waits.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake.signal();
    }

    /// Waits for the loop thread (and its shutdown drain) to finish.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// One connection's state inside the event loop.
struct Conn<C> {
    stream: TcpStream,
    decoder: Decoder,
    ctx: C,
    /// Bytes queued for the peer that the socket would not take yet.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` drains (auth reject / fatal decode error).
    close_after_flush: bool,
    /// Whether the current epoll interest set includes `EPOLLOUT`.
    registered_writable: bool,
}

impl<C> Conn<C> {
    fn new(stream: TcpStream, ctx: C) -> Self {
        Conn {
            stream,
            decoder: Decoder::new(),
            ctx,
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            registered_writable: false,
        }
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Writes as much of `buf` as the nonblocking socket takes. Returns the
/// byte count written; `WouldBlock` stops early without error.
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

/// Flushes the connection's pending output; clears the buffer (keeping
/// its capacity — the reuse invariant) once fully drained.
fn flush_out<C>(conn: &mut Conn<C>) -> io::Result<()> {
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
}

/// Encodes `reply` through the shared scratch and sends it: straight to
/// the socket while no backlog exists, else appended to the
/// connection's write buffer (order preserved). `false` = connection
/// is dead.
fn queue_reply<C>(conn: &mut Conn<C>, reply: &Frame, ebuf: &mut Vec<u8>) -> bool {
    if encode_into(reply, ebuf).is_err() {
        return false;
    }
    if conn.has_pending_out() {
        conn.out.extend_from_slice(ebuf);
        return true;
    }
    match write_some(&mut conn.stream, ebuf) {
        Ok(w) if w == ebuf.len() => true,
        Ok(w) => {
            conn.out.extend_from_slice(&ebuf[w..]);
            true
        }
        Err(_) => false,
    }
}

/// Decodes and answers every complete frame buffered on the connection.
/// `false` = connection is dead (write failure).
fn drain_frames<H: LoopHandler>(
    handler: &mut H,
    conn: &mut Conn<H::Conn>,
    ebuf: &mut Vec<u8>,
) -> bool {
    while !conn.close_after_flush {
        match conn.decoder.next_frame() {
            Ok(Some(frame)) => match handler.handle(frame, &mut conn.ctx) {
                Outcome::Reply(reply) => {
                    if !queue_reply(conn, &reply, ebuf) {
                        return false;
                    }
                }
                Outcome::ReplyThenClose(reply) => {
                    let _ = queue_reply(conn, &reply, ebuf);
                    conn.close_after_flush = true;
                }
            },
            Ok(None) => break,
            Err(e) => {
                handler.decode_error();
                let reply = Frame::Error {
                    code: ErrorCode::BadFrame,
                    detail: e.to_string(),
                };
                if !queue_reply(conn, &reply, ebuf) {
                    return false;
                }
                if e.is_fatal() {
                    conn.close_after_flush = true;
                }
            }
        }
    }
    true
}

/// Handles one readiness event for a connection. `false` = close now.
fn process_conn<H: LoopHandler>(
    handler: &mut H,
    conn: &mut Conn<H::Conn>,
    readiness: u32,
    rbuf: &mut [u8],
    ebuf: &mut Vec<u8>,
) -> bool {
    if readiness & EPOLLERR != 0 {
        return false;
    }
    if readiness & EPOLLOUT != 0 && flush_out(conn).is_err() {
        return false;
    }
    if !conn.close_after_flush && readiness & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
        loop {
            match conn.stream.read(rbuf) {
                Ok(0) => return false, // peer closed
                Ok(n) => {
                    conn.decoder.push(&rbuf[..n]);
                    if !drain_frames(handler, conn, ebuf) {
                        return false;
                    }
                    // A short read drained the socket: skip the extra
                    // `read` that would only say `WouldBlock`. The
                    // registration is level-triggered, so bytes — or a
                    // peer's close — arriving after this read come back
                    // as the next readiness event.
                    if conn.close_after_flush || n < rbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
    // A closing connection with nothing left to flush is done.
    !conn.close_after_flush || conn.has_pending_out()
}

/// Re-registers the connection when its `EPOLLOUT` need changed.
fn sync_interest<C>(ep: &Epoll, conn: &mut Conn<C>, fd: RawFd) {
    let wants_write = conn.has_pending_out();
    if wants_write != conn.registered_writable {
        let mut interest = EPOLLIN | EPOLLRDHUP;
        if wants_write {
            interest |= EPOLLOUT;
        }
        if ep.modify(fd, interest, fd as u64).is_ok() {
            conn.registered_writable = wants_write;
        }
    }
}

/// Accepts every pending connection on the listener, refusing beyond
/// the *global* `max_conns` with a best-effort `Error { ConnLimit }`.
fn accept_ready<H: LoopHandler>(
    handler: &mut H,
    listener: &TcpListener,
    ep: &Epoll,
    conns: &mut HashMap<RawFd, Conn<H::Conn>>,
    max_conns: usize,
    ebuf: &mut Vec<u8>,
) {
    while let Ok(Some(mut stream)) = accept_nonblocking(listener) {
        // The cap is global occupancy across all loops.
        if handler.open_conns().load(Ordering::Relaxed) >= max_conns as u64 {
            handler.conn_refused();
            let reject = Frame::Error {
                code: ErrorCode::ConnLimit,
                detail: format!("server is at its connection cap ({max_conns})"),
            };
            if encode_into(&reject, ebuf).is_ok() {
                let _ = write_some(&mut stream, ebuf);
            }
            continue; // drop closes
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        if ep.add(fd, EPOLLIN | EPOLLRDHUP, fd as u64).is_ok() {
            handler.open_conns().fetch_add(1, Ordering::Relaxed);
            conns.insert(fd, Conn::new(stream, H::Conn::default()));
        }
    }
}

/// The loop body. Runs until `stop` is set; [`EventLoop::stop`] signals
/// the wake fd, and the 50 ms wait timeout bounds the latency
/// regardless. On exit it drops its connections and listener, then
/// hands over to [`LoopHandler::finish`].
fn run<H: LoopHandler>(
    ep: Epoll,
    listener: TcpListener,
    max_conns: usize,
    stop: &AtomicBool,
    wake: &EventFd,
    mut handler: H,
) -> io::Result<()> {
    let listen_token = listener.as_raw_fd() as u64;
    let wake_token = wake.fd() as u64;
    let mut conns: HashMap<RawFd, Conn<H::Conn>> = HashMap::new();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut ebuf: Vec<u8> = Vec::with_capacity(4096);

    loop {
        let n = ep.wait(&mut events, 50)?;
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Connection events first, accepts second: a fd closed in this
        // batch can then never be reused (by an accept) while stale
        // readiness for its previous owner is still queued behind it.
        for ev in &events[..n] {
            let token = ev.token();
            if token == listen_token || token == wake_token {
                continue;
            }
            let fd = token as RawFd;
            let Some(conn) = conns.get_mut(&fd) else {
                continue;
            };
            if process_conn(&mut handler, conn, ev.readiness(), &mut rbuf, &mut ebuf) {
                sync_interest(&ep, conn, fd);
            } else {
                let _ = ep.delete(fd);
                conns.remove(&fd);
                handler.open_conns().fetch_sub(1, Ordering::Relaxed);
            }
        }
        if events[..n].iter().any(|ev| ev.token() == wake_token) {
            wake.drain();
        }
        handler.after_events();
        if events[..n].iter().any(|ev| ev.token() == listen_token) {
            accept_ready(
                &mut handler,
                &listener,
                &ep,
                &mut conns,
                max_conns,
                &mut ebuf,
            );
        }
    }

    let count = conns.len() as u64;
    drop(conns);
    handler.open_conns().fetch_sub(count, Ordering::Relaxed);
    drop(listener);
    handler.finish();
    Ok(())
}
