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
//! * **Write backpressure.** A reply the socket refuses is queued
//!   behind any earlier backlog, in order, and `EPOLLOUT` is armed only
//!   while a backlog waits.
//! * **One reply per frame.** Every decoded frame goes through
//!   [`LoopHandler::handle`] and earns exactly one reply; a decode error
//!   is reported to [`LoopHandler::decode_error`] and answered
//!   `BadFrame`, and a fatal one (or [`Outcome::ReplyThenClose`]) closes
//!   the connection once the reply is flushed.
//! * **Parked requests keep the order.** A frame answered
//!   [`Outcome::Park`] is replied to later, from [`LoopHandler::resume`];
//!   until then its connection reads no further frames, so the frames
//!   pipelined behind it are answered after it. The wait ends by the
//!   deadline the handler named at the latest, and while nothing is
//!   parked the loop pays one emptiness check per wakeup for it.
//! * **A global cap.** Connections past [`LoopHandler::open_conns`]'s
//!   cap are refused with a best-effort `Error { ConnLimit }`.
//! * **Static dispatch.** The loop is generic over its handler, so the
//!   per-frame path is one inlinable call: no `dyn`, allocation, lock or
//!   atomic is added per frame.
//!
//! The first three hold in `FramedConn`, the connection half, which
//! every `ClientPool` slot is built on too: one copy for both ends.
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
use std::time::Instant;

use fgcs_sys::{
    accept_nonblocking, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use fgcs_wire::{encode_into, DecodeError, Decoder, ErrorCode, Frame};

use crate::pool::PoolCloseReason;

/// What to do with a handled frame's reply.
#[derive(Debug)]
pub enum Outcome {
    /// Write the reply; keep the connection.
    Reply(Frame),
    /// Write the reply, then close the connection (auth failures).
    ReplyThenClose(Frame),
    /// No reply yet: the handler keeps the request and answers it from
    /// [`LoopHandler::resume`], by this deadline at the latest.
    Park(Instant),
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

    /// The reply to a connection's parked request once it is ready;
    /// `None` keeps it parked. Polled on every wakeup, after
    /// [`LoopHandler::after_events`], for parked connections only; the
    /// loop wakes by the park's deadline, and by then it must answer.
    fn resume(&mut self, _conn: &mut Self::Conn) -> Option<Frame> {
        None
    }

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

/// The readiness bits that send a connection into its read loop.
const READABLE: u32 = EPOLLIN | EPOLLHUP | EPOLLRDHUP;

/// One nonblocking framed connection: the socket, its reassembly
/// [`Decoder`] and its write backlog. Both ends of the socket layer are
/// built on it — every [`EventLoop`] connection and every
/// [`ClientPool`](crate::ClientPool) slot — so how a connection writes,
/// queues, flushes, reads and re-arms `EPOLLOUT` exists once.
pub(crate) struct FramedConn {
    stream: TcpStream,
    decoder: Decoder,
    /// Bytes queued for the peer that the socket would not take yet.
    out: Vec<u8>,
    out_pos: usize,
    /// The current epoll interest set.
    interest: u32,
}

impl FramedConn {
    /// Registers a nonblocking `stream` with `ep` under `token`.
    pub(crate) fn register(stream: TcpStream, ep: &Epoll, token: u64) -> io::Result<FramedConn> {
        let _ = stream.set_nodelay(true);
        ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)?;
        Ok(FramedConn {
            stream,
            decoder: Decoder::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
        })
    }

    /// The socket's fd.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Sends `bytes`: straight to the socket while no backlog exists,
    /// the refused tail (or all of it, behind a backlog) appended to
    /// the backlog, order preserved. An `Err` means the socket is dead.
    pub(crate) fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        if !self.has_pending_out() {
            bytes = &bytes[write_some(&mut self.stream, bytes)?..];
        }
        self.out.extend_from_slice(bytes);
        Ok(())
    }

    /// Writes what the socket takes of the backlog; clears the buffer
    /// (keeping its capacity — the reuse invariant) once fully drained.
    fn flush(&mut self) -> io::Result<()> {
        if self.has_pending_out() {
            self.out_pos += write_some(&mut self.stream, &self.out[self.out_pos..])?;
            if !self.has_pending_out() {
                self.out.clear();
                self.out_pos = 0;
            }
        }
        Ok(())
    }

    /// The next whole frame reassembled from the bytes read so far.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        self.decoder.next_frame()
    }

    /// Handles one readiness event: the `EPOLLERR` check, the
    /// `EPOLLOUT` flush, then the read loop. Each read's bytes go into
    /// the decoder and `on_read` runs once after each to pull frames
    /// (and maybe [`FramedConn::send`] replies); it returns whether to
    /// keep reading. An `Err` means close the connection now.
    pub(crate) fn on_ready(
        &mut self,
        readiness: u32,
        rbuf: &mut [u8],
        mut on_read: impl FnMut(&mut FramedConn) -> Result<bool, PoolCloseReason>,
    ) -> Result<(), PoolCloseReason> {
        if readiness & EPOLLERR != 0 || (readiness & EPOLLOUT != 0 && self.flush().is_err()) {
            return Err(PoolCloseReason::Err);
        }
        if readiness & READABLE == 0 {
            return Ok(());
        }
        loop {
            match self.stream.read(rbuf) {
                Ok(0) => return Err(PoolCloseReason::Eof),
                Ok(n) => {
                    self.decoder.push(&rbuf[..n]);
                    // A short read drained the socket: skip the extra
                    // `read` that would only say `WouldBlock`. The
                    // registration is level-triggered, so bytes — or a
                    // peer's close — arriving after this read come back
                    // as the next readiness event.
                    if !on_read(self)? || n < rbuf.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(PoolCloseReason::Err),
            }
        }
    }

    /// Re-registers the connection when its interest changed: reads
    /// while `reading`, `EPOLLOUT` while a backlog waits.
    pub(crate) fn sync_interest(&mut self, ep: &Epoll, token: u64, reading: bool) {
        let interest = if reading { EPOLLIN | EPOLLRDHUP } else { 0 }
            | if self.has_pending_out() { EPOLLOUT } else { 0 };
        if interest != self.interest && ep.modify(self.fd(), interest, token).is_ok() {
            self.interest = interest;
        }
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

/// One connection inside the event loop: the framed connection plus
/// the handler's protocol state.
struct Conn<C> {
    io: FramedConn,
    ctx: C,
    flow: Flow,
}

/// Whether a connection takes frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Open,
    /// A request waits for [`LoopHandler::resume`], by this deadline.
    Parked(Instant),
    /// Close once the backlog drains (auth reject / fatal decode error).
    Closing,
}

impl<C> Conn<C> {
    /// Whether the connection stays: a closing one is done once it has
    /// nothing left to flush.
    fn keep(&self) -> bool {
        self.flow != Flow::Closing || self.io.has_pending_out()
    }

    fn sync_interest(&mut self, ep: &Epoll, token: u64) {
        self.io.sync_interest(ep, token, self.flow == Flow::Open);
    }
}

/// Encodes `reply` through the shared scratch and sends it. `false` =
/// connection is dead.
fn queue_reply(io: &mut FramedConn, reply: &Frame, ebuf: &mut Vec<u8>) -> bool {
    encode_into(reply, ebuf).is_ok() && io.send(ebuf).is_ok()
}

/// Decodes and answers the complete frames buffered on the connection
/// until one parks or closes it. `false` = connection is dead (write
/// failure).
fn drain_frames<H: LoopHandler>(
    handler: &mut H,
    io: &mut FramedConn,
    ctx: &mut H::Conn,
    flow: &mut Flow,
    ebuf: &mut Vec<u8>,
) -> bool {
    while *flow == Flow::Open {
        match io.next_frame() {
            Ok(Some(frame)) => match handler.handle(frame, ctx) {
                Outcome::Reply(reply) => {
                    if !queue_reply(io, &reply, ebuf) {
                        return false;
                    }
                }
                Outcome::ReplyThenClose(reply) => {
                    let _ = queue_reply(io, &reply, ebuf);
                    *flow = Flow::Closing;
                }
                Outcome::Park(deadline) => *flow = Flow::Parked(deadline),
            },
            Ok(None) => break,
            Err(e) => {
                handler.decode_error();
                let reply = Frame::Error {
                    code: ErrorCode::BadFrame,
                    detail: e.to_string(),
                };
                if !queue_reply(io, &reply, ebuf) {
                    return false;
                }
                if e.is_fatal() {
                    *flow = Flow::Closing;
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
    let Conn { io, ctx, flow } = &mut *conn;
    let readiness = match flow {
        Flow::Open => readiness,
        // A parked connection's peer is gone: nobody waits for its reply.
        Flow::Parked(_) if readiness & EPOLLHUP != 0 => return false,
        // A parked or closing connection only flushes.
        Flow::Parked(_) | Flow::Closing => readiness & !READABLE,
    };
    let alive = io.on_ready(readiness, rbuf, |io| {
        if drain_frames(handler, io, ctx, flow, ebuf) {
            Ok(*flow == Flow::Open)
        } else {
            Err(PoolCloseReason::Err)
        }
    });
    alive.is_ok() && conn.keep()
}

/// Offers each parked connection's request to [`LoopHandler::resume`].
/// An answered one sends its reply, answers the frames already buffered
/// behind it (which may park it again) and reads again. Returns the
/// connections that died meanwhile.
fn resume_parked<H: LoopHandler>(
    handler: &mut H,
    parked: &mut Vec<RawFd>,
    conns: &mut HashMap<RawFd, Conn<H::Conn>>,
    ep: &Epoll,
    ebuf: &mut Vec<u8>,
) -> Vec<RawFd> {
    let mut dead = Vec::new();
    parked.retain(|&fd| {
        let Some(conn) = conns.get_mut(&fd) else {
            return false;
        };
        let Some(reply) = handler.resume(&mut conn.ctx) else {
            return true;
        };
        conn.flow = Flow::Open;
        let Conn { io, ctx, flow } = &mut *conn;
        if queue_reply(io, &reply, ebuf)
            && drain_frames(handler, io, ctx, flow, ebuf)
            && conn.keep()
        {
            conn.sync_interest(ep, fd as u64);
        } else {
            dead.push(fd);
        }
        matches!(conn.flow, Flow::Parked(_))
    });
    dead
}

/// The wait timeout, ms: 50, or less to wake by the earliest park
/// deadline (rounded up, so the wait never ends before it).
fn wait_ms<C>(parked: &[RawFd], conns: &HashMap<RawFd, Conn<C>>) -> i32 {
    const IDLE_MS: i32 = 50;
    let earliest = parked.iter().filter_map(|fd| match conns.get(fd)?.flow {
        Flow::Parked(deadline) => Some(deadline),
        _ => None,
    });
    earliest.min().map_or(IDLE_MS, |deadline| {
        let left = deadline.saturating_duration_since(Instant::now());
        left.as_micros().div_ceil(1_000).min(IDLE_MS as u128) as i32
    })
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
        let fd = stream.as_raw_fd();
        if let Ok(io) = FramedConn::register(stream, ep, fd as u64) {
            handler.open_conns().fetch_add(1, Ordering::Relaxed);
            conns.insert(
                fd,
                Conn {
                    io,
                    ctx: H::Conn::default(),
                    flow: Flow::Open,
                },
            );
        }
    }
}

/// The loop body. Runs until `stop` is set; [`EventLoop::stop`] signals
/// the wake fd, and the 50 ms wait timeout bounds the latency
/// regardless. On exit it drops its connections and listener — a
/// parked request goes unanswered, as if the server had died — then
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
    // The parked connections, in the order they parked.
    let mut parked: Vec<RawFd> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut ebuf: Vec<u8> = Vec::with_capacity(4096);

    loop {
        let n = ep.wait(&mut events, wait_ms(&parked, &conns))?;
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
            let was_open = conn.flow == Flow::Open;
            if process_conn(&mut handler, conn, ev.readiness(), &mut rbuf, &mut ebuf) {
                conn.sync_interest(&ep, token);
                if was_open && matches!(conn.flow, Flow::Parked(_)) {
                    parked.push(fd);
                }
            } else {
                if !was_open {
                    parked.retain(|&p| p != fd);
                }
                close_conn(&mut handler, &ep, &mut conns, fd);
            }
        }
        if events[..n].iter().any(|ev| ev.token() == wake_token) {
            wake.drain();
        }
        handler.after_events();
        if !parked.is_empty() {
            for fd in resume_parked(&mut handler, &mut parked, &mut conns, &ep, &mut ebuf) {
                close_conn(&mut handler, &ep, &mut conns, fd);
            }
        }
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

/// Deregisters and drops a connection.
fn close_conn<H: LoopHandler>(
    handler: &mut H,
    ep: &Epoll,
    conns: &mut HashMap<RawFd, Conn<H::Conn>>,
    fd: RawFd,
) {
    let _ = ep.delete(fd);
    conns.remove(&fd);
    handler.open_conns().fetch_sub(1, Ordering::Relaxed);
}
