//! The epoll readiness-loop backend (Linux only) — N accept-sharing
//! event loops pinned to disjoint subsets of the state shards.
//!
//! Each loop owns its connections outright: the conn sockets are
//! nonblocking and registered with the loop's own epoll instance
//! (level-triggered). With `loops > 1`, every loop also gets its own
//! `SO_REUSEPORT` listener on the shared address (the kernel spreads
//! incoming connections across them); where `SO_REUSEPORT` is
//! unavailable — or `force_fd_handoff` is set — loop 0 keeps a single
//! listener and hands accepted sockets to the other loops round-robin
//! over bounded channels.
//!
//! Invariants (DESIGN.md §10 and §12):
//!
//! * **Buffer reuse.** One shared 64 KiB read scratch and one shared
//!   encode scratch serve every connection of a loop; each connection's
//!   write buffer is cleared (capacity kept) once flushed. Steady state
//!   allocates nothing per frame.
//! * **Partial-frame reassembly.** Each connection owns a
//!   `fgcs_wire::Decoder`; bytes are pushed as they arrive and frames
//!   pulled out whole. A connection that dies mid-frame takes its
//!   decoder (and the fragment) with it — no cross-connection state.
//! * **Identical semantics.** Every decoded frame goes through the same
//!   [`handle_conn_frame`] as the threaded backend; decode errors are
//!   counted and answered the same way.
//! * **Loop-local ingest.** A loop ingests batches for its own shards
//!   inline (no queue, no worker pool); batches homed on another loop
//!   travel over an SPSC ring ([`std::sync::mpsc::sync_channel`], one
//!   per ordered loop pair) and an `eventfd` wake — the hot path takes
//!   no cross-loop locks.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use fgcs_sys::{
    accept_nonblocking, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use fgcs_wire::{encode_into, Decoder, ErrorCode, Frame};

use crate::conn::{handle_conn_frame, ConnCtx, IngestSink, Outcome};
use crate::state::{Batch, Shared};

/// Capacity of each loop-0 → loop-i accepted-socket handoff channel.
const HANDOFF_RING_CAP: usize = 1024;

/// One connection's state inside the event loop.
struct Conn {
    stream: TcpStream,
    decoder: Decoder,
    ctx: ConnCtx,
    /// Bytes queued for the peer that the socket would not take yet.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` drains (auth reject / fatal decode error).
    close_after_flush: bool,
    /// Whether the current epoll interest set includes `EPOLLOUT`.
    registered_writable: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            decoder: Decoder::new(),
            ctx: ConnCtx::default(),
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

/// A loop's view of the shard-ownership map: enough to decide, per
/// batch, between inline ingest and forwarding to the home loop.
pub(crate) struct LoopRouter {
    loop_id: usize,
    /// `tx[dst]`: the SPSC ring into loop `dst`; `None` for self.
    forward_tx: Vec<Option<SyncSender<Batch>>>,
    /// Every loop's wake eventfd, to nudge a forward's recipient out of
    /// `epoll_wait`.
    wakes: Vec<Arc<EventFd>>,
}

impl LoopRouter {
    /// Routes one accepted batch. Owned shard → ingest inline, return
    /// `None`. Foreign shard → forward; a full ring sheds the arriving
    /// batch (returned for the caller's shed accounting + Busy reply).
    pub(crate) fn submit(&mut self, shared: &Shared, batch: Batch) -> Option<Batch> {
        let home = shared.home_loop(batch.machine);
        if home == self.loop_id {
            shared.ingest_batch(batch);
            return None;
        }
        let tx = self.forward_tx[home]
            .as_ref()
            .expect("every loop pair has a forwarding ring");
        // Count the batch in flight *before* sending: once it is in the
        // ring its Ack may race ahead of the ingest, and queue_depth
        // must never claim "drained" while it is.
        shared.pending_forwarded.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(batch) {
            Ok(()) => {
                self.wakes[home].signal();
                None
            }
            Err(TrySendError::Full(b)) | Err(TrySendError::Disconnected(b)) => {
                shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
                Some(b)
            }
        }
    }
}

/// Everything one event loop needs, built by [`spawn_loops`].
struct LoopCtx {
    loop_id: usize,
    max_conns: usize,
    /// This loop's own listener: every loop in `SO_REUSEPORT` mode,
    /// loop 0 only in fd-handoff mode.
    listener: Option<TcpListener>,
    /// Handoff mode, loops 1..N: accepted sockets arriving from loop 0.
    accept_rx: Option<Receiver<TcpStream>>,
    /// Handoff mode, loop 0: `tx[dst]` distributes accepted sockets.
    accept_tx: Vec<Option<SyncSender<TcpStream>>>,
    /// `rx[src]`: forwarded batches from loop `src`; `None` for self.
    forward_rx: Vec<Option<Receiver<Batch>>>,
    /// `tx[dst]`: forwarding rings out; `None` for self.
    forward_tx: Vec<Option<SyncSender<Batch>>>,
    /// This loop's wake eventfd (registered `EPOLLIN` in its epoll).
    wake: Arc<EventFd>,
    /// Every loop's wake eventfd, indexed by loop id.
    wakes: Vec<Arc<EventFd>>,
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
fn flush_out(conn: &mut Conn) -> io::Result<()> {
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
fn queue_reply(conn: &mut Conn, reply: &Frame, ebuf: &mut Vec<u8>) -> bool {
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
fn drain_frames(
    shared: &Shared,
    conn: &mut Conn,
    ebuf: &mut Vec<u8>,
    router: &mut LoopRouter,
) -> bool {
    while !conn.close_after_flush {
        match conn.decoder.next_frame() {
            Ok(Some(frame)) => {
                let mut sink = IngestSink::Loop(router);
                match handle_conn_frame(shared, frame, &mut conn.ctx, &mut sink) {
                    Outcome::Reply(reply) => {
                        if !queue_reply(conn, &reply, ebuf) {
                            return false;
                        }
                    }
                    Outcome::ReplyThenClose(reply) => {
                        let _ = queue_reply(conn, &reply, ebuf);
                        conn.close_after_flush = true;
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                shared.counters.update(|c| c.decode_errors += 1);
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
fn process_conn(
    shared: &Shared,
    conn: &mut Conn,
    readiness: u32,
    rbuf: &mut [u8],
    ebuf: &mut Vec<u8>,
    router: &mut LoopRouter,
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
                    if !drain_frames(shared, conn, ebuf, router) {
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
fn sync_interest(ep: &Epoll, conn: &mut Conn, fd: RawFd) {
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

fn close_conn(ep: &Epoll, conns: &mut HashMap<RawFd, Conn>, fd: RawFd, shared: &Shared) {
    let _ = ep.delete(fd);
    if conns.remove(&fd).is_some() {
        shared.active_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Registers an accepted (already nonblocking) socket with this loop.
fn register_conn(ep: &Epoll, conns: &mut HashMap<RawFd, Conn>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let fd = stream.as_raw_fd();
    if ep.add(fd, EPOLLIN | EPOLLRDHUP, fd as u64).is_ok() {
        conns.insert(fd, Conn::new(stream));
    }
}

/// Accepts every pending connection on this loop's listener, refusing
/// beyond the *global* `max_conns` with a best-effort
/// `Error { ConnLimit }`. In fd-handoff mode (loop 0 only), kept
/// connections are dealt round-robin across all loops; a loop whose
/// handoff ring is full keeps the connection here instead.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    shared: &Shared,
    listener: &TcpListener,
    ep: &Epoll,
    conns: &mut HashMap<RawFd, Conn>,
    max_conns: usize,
    ebuf: &mut Vec<u8>,
    ctx: &LoopCtx,
    next_handoff: &mut usize,
) {
    loop {
        match accept_nonblocking(listener) {
            Ok(Some(mut stream)) => {
                // The cap is global occupancy across all loops, like the
                // threaded backend's pre-spawn check.
                if shared.active_conns.load(Ordering::Relaxed) >= max_conns as u64 {
                    shared.counters.update(|c| c.conn_rejects += 1);
                    let reject = Frame::Error {
                        code: ErrorCode::ConnLimit,
                        detail: format!("server is at its connection cap ({max_conns})"),
                    };
                    if encode_into(&reject, ebuf).is_ok() {
                        let _ = write_some(&mut stream, ebuf);
                    }
                    continue; // drop closes
                }
                // Counted by the acceptor, decremented by whichever loop
                // ends up closing it.
                shared.active_conns.fetch_add(1, Ordering::Relaxed);
                if !ctx.accept_tx.is_empty() {
                    let target = *next_handoff % ctx.accept_tx.len();
                    *next_handoff += 1;
                    if let Some(tx) = &ctx.accept_tx[target] {
                        match tx.try_send(stream) {
                            Ok(()) => {
                                ctx.wakes[target].signal();
                                continue;
                            }
                            Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                                stream = s; // keep it locally instead
                            }
                        }
                    }
                }
                register_conn(ep, conns, stream);
            }
            Ok(None) => break,
            Err(_) => break,
        }
    }
}

/// Ingests everything currently queued on this loop's forwarding rings,
/// in source-loop order.
fn drain_forwarded(shared: &Shared, forward_rx: &[Option<Receiver<Batch>>]) {
    for rx in forward_rx.iter().flatten() {
        loop {
            match rx.try_recv() {
                Ok(batch) => {
                    shared.ingest_batch(batch);
                    shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
    }
}

/// One event loop. Runs until [`Shared::shutting_down`]; the shutdown
/// path signals every loop's eventfd (and the 50 ms wait timeout bounds
/// the latency regardless). On exit the loop drops its connections and
/// forward senders, then drains its inbound rings to completion —
/// batches accepted (Ack'd) before shutdown are ingested, not dropped.
fn run_event_loop(shared: &Arc<Shared>, mut ctx: LoopCtx) -> io::Result<()> {
    let ep = Epoll::new()?;
    let listen_token = match &ctx.listener {
        Some(l) => {
            let fd = l.as_raw_fd();
            ep.add(fd, EPOLLIN, fd as u64)?;
            Some(fd as u64)
        }
        None => None,
    };
    let wake_token = ctx.wake.fd() as u64;
    ep.add(ctx.wake.fd(), EPOLLIN, wake_token)?;

    let mut router = LoopRouter {
        loop_id: ctx.loop_id,
        forward_tx: std::mem::take(&mut ctx.forward_tx),
        wakes: ctx.wakes.clone(),
    };
    let mut conns: HashMap<RawFd, Conn> = HashMap::new();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut ebuf: Vec<u8> = Vec::with_capacity(4096);
    let mut next_handoff = 0usize;

    loop {
        let n = ep.wait(&mut events, 50)?;
        if shared.shutting_down() {
            break;
        }
        // Connection events first, accepts second: a fd closed in this
        // batch can then never be reused (by an accept) while stale
        // readiness for its previous owner is still queued behind it.
        for ev in &events[..n] {
            let token = ev.token();
            if Some(token) == listen_token || token == wake_token {
                continue;
            }
            let fd = token as RawFd;
            let Some(conn) = conns.get_mut(&fd) else {
                continue;
            };
            if process_conn(
                shared,
                conn,
                ev.readiness(),
                &mut rbuf,
                &mut ebuf,
                &mut router,
            ) {
                sync_interest(&ep, conn, fd);
            } else {
                close_conn(&ep, &mut conns, fd, shared);
            }
        }
        if events[..n].iter().any(|ev| ev.token() == wake_token) {
            ctx.wake.drain();
        }
        // Adopt connections handed off by loop 0 (handoff mode only).
        if let Some(rx) = &ctx.accept_rx {
            while let Ok(stream) = rx.try_recv() {
                register_conn(&ep, &mut conns, stream);
            }
        }
        // Ingest batches other loops forwarded for our shards. Checked
        // every iteration — the eventfd wake only bounds idle latency;
        // correctness never depends on catching a specific signal.
        drain_forwarded(shared, &ctx.forward_rx);
        for ev in &events[..n] {
            if Some(ev.token()) == listen_token {
                let listener = ctx.listener.as_ref().expect("token implies listener");
                accept_ready(
                    shared,
                    listener,
                    &ep,
                    &mut conns,
                    ctx.max_conns,
                    &mut ebuf,
                    &ctx,
                    &mut next_handoff,
                );
            }
        }
    }

    // Shutdown drain protocol (DESIGN.md §12). Order matters:
    //   1. stop accepting and drop our connections (no new batches),
    //   2. drop our forward *senders* and handoff senders,
    //   3. blocking-drain every inbound ring until its sender side
    //      disconnects.
    // Every loop drops its senders (step 2) before its first blocking
    // recv (step 3), so each drain terminates — no cyclic wait.
    let count = conns.len() as u64;
    drop(conns);
    shared.active_conns.fetch_sub(count, Ordering::Relaxed);
    drop(ctx.listener.take());
    drop(router);
    ctx.accept_tx.clear();
    if let Some(rx) = ctx.accept_rx.take() {
        // Handed-off sockets we never adopted: counted by the acceptor,
        // dropped unserved (exactly like a conn dropped at shutdown).
        while let Ok(stream) = rx.try_recv() {
            drop(stream);
            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
    for rx in ctx.forward_rx.iter().flatten() {
        while let Ok(batch) = rx.recv() {
            shared.ingest_batch(batch);
            shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
        }
    }
    Ok(())
}

fn resolve_addr(addr: &str) -> io::Result<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("address {addr:?} resolves to nothing"),
        )
    })
}

/// Binds `loops` listeners sharing one address via `SO_REUSEPORT`: the
/// first bind resolves a concrete port (the configured one, or an
/// OS-assigned one for port 0), the rest join it.
fn bind_reuseport_set(addr: &SocketAddr, loops: usize) -> io::Result<Vec<TcpListener>> {
    let first = fgcs_sys::listen_reuseport(addr)?;
    let concrete = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..loops {
        listeners.push(fgcs_sys::listen_reuseport(&concrete)?);
    }
    Ok(listeners)
}

/// Binds the listener set and spawns all event loops. Returns the bound
/// address, the loop join handles, and each loop's wake eventfd (for
/// shutdown signalling).
pub(crate) fn spawn_loops(
    shared: &Arc<Shared>,
    max_conns: usize,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>, Vec<Arc<EventFd>>)> {
    let loops = shared.event_loops;
    let cfg = &shared.cfg;
    let addr = resolve_addr(&cfg.addr)?;

    let mut listeners: Vec<TcpListener> = Vec::new();
    if loops > 1 && !cfg.force_fd_handoff {
        match bind_reuseport_set(&addr, loops) {
            Ok(set) => listeners = set,
            Err(e) => {
                eprintln!(
                    "fgcs-service: SO_REUSEPORT bind failed ({e}); \
                     falling back to fd handoff from one listener"
                );
            }
        }
    }
    if listeners.is_empty() {
        // Single listener: one loop, forced handoff, or reuseport
        // unavailable. SO_REUSEADDR still honors `reuse_addr`.
        let l = if cfg.reuse_addr {
            fgcs_sys::listen_reusable(&addr)?
        } else {
            TcpListener::bind(addr)?
        };
        listeners.push(l);
    }
    for l in &listeners {
        l.set_nonblocking(true)?;
    }
    let local = listeners[0].local_addr()?;
    let handoff = listeners.len() < loops;

    let wakes: Vec<Arc<EventFd>> = (0..loops)
        .map(|_| EventFd::new().map(Arc::new))
        .collect::<io::Result<_>>()?;

    // One SPSC ring per ordered loop pair: src owns tx_mat[src][dst],
    // dst owns rx_mat[dst][src]. Strictly one producer and one consumer
    // per channel, so std's array-backed sync_channel runs lock-free.
    let ring_cap = cfg.queue_capacity.max(1);
    let mut tx_mat: Vec<Vec<Option<SyncSender<Batch>>>> = (0..loops)
        .map(|_| (0..loops).map(|_| None).collect())
        .collect();
    let mut rx_mat: Vec<Vec<Option<Receiver<Batch>>>> = (0..loops)
        .map(|_| (0..loops).map(|_| None).collect())
        .collect();
    for src in 0..loops {
        for dst in 0..loops {
            if src != dst {
                let (tx, rx) = sync_channel(ring_cap);
                tx_mat[src][dst] = Some(tx);
                rx_mat[dst][src] = Some(rx);
            }
        }
    }

    let mut accept_tx: Vec<Option<SyncSender<TcpStream>>> = (0..loops).map(|_| None).collect();
    let mut accept_rx: Vec<Option<Receiver<TcpStream>>> = (0..loops).map(|_| None).collect();
    if handoff {
        for dst in 1..loops {
            let (tx, rx) = sync_channel(HANDOFF_RING_CAP);
            accept_tx[dst] = Some(tx);
            accept_rx[dst] = Some(rx);
        }
    }

    let mut listeners = listeners.into_iter();
    let handles = (0..loops)
        .map(|i| {
            let ctx = LoopCtx {
                loop_id: i,
                max_conns,
                listener: if handoff && i > 0 {
                    None
                } else {
                    listeners.next()
                },
                accept_rx: accept_rx[i].take(),
                accept_tx: if handoff && i == 0 {
                    std::mem::take(&mut accept_tx)
                } else {
                    Vec::new()
                },
                forward_rx: std::mem::take(&mut rx_mat[i]),
                forward_tx: std::mem::take(&mut tx_mat[i]),
                wake: Arc::clone(&wakes[i]),
                wakes: wakes.clone(),
            };
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                if let Err(e) = run_event_loop(&shared, ctx) {
                    eprintln!("fgcs-service: epoll event loop {i} failed: {e}");
                }
            })
        })
        .collect();
    Ok((local, handles, wakes))
}
