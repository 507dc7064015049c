//! The server's socket layer (Linux only) — N accept-sharing epoll
//! event loops pinned to disjoint subsets of the state shards.
//!
//! Each loop owns its connections outright: the conn sockets are
//! nonblocking and registered with the loop's own epoll instance
//! (level-triggered). With `loops > 1`, every loop also gets its own
//! `SO_REUSEPORT` listener on the shared address and the kernel spreads
//! incoming connections across them; a kernel without the option
//! (Linux < 3.9) fails the bind, and [`spawn_loops`] returns that error
//! rather than serve differently from what was asked.
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
//! * **One reply per frame.** Every decoded frame goes through
//!   [`handle_conn_frame`] and earns exactly one reply; a decode error
//!   is counted and answered `BadFrame`.
//! * **Loop-local ingest, one backpressure rule.** A loop ingests
//!   batches for its own shards inline, so a slow server shows up as
//!   TCP backpressure on the sender; batches homed on another loop
//!   travel over an SPSC ring ([`std::sync::mpsc::sync_channel`], one
//!   per ordered loop pair) and an `eventfd` wake, and a batch that
//!   finds its ring full is shed itself and answered `Busy`. The hot
//!   path takes no cross-loop locks.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use fgcs_sys::{
    accept_nonblocking, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use fgcs_wire::{encode_into, Decoder, ErrorCode, Frame};

use crate::conn::{handle_conn_frame, ConnCtx, Outcome};
use crate::state::{Batch, Shared};

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
    /// The router of a server with one event loop: every shard is its
    /// own, so nothing is ever forwarded.
    #[cfg(test)]
    pub(crate) fn solo() -> LoopRouter {
        LoopRouter {
            loop_id: 0,
            forward_tx: vec![None],
            wakes: Vec::new(),
        }
    }

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
    /// This loop's own listener on the shared address.
    listener: TcpListener,
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
            Ok(Some(frame)) => match handle_conn_frame(shared, frame, &mut conn.ctx, router) {
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

/// Accepts every pending connection on this loop's listener, refusing
/// beyond the *global* `max_conns` with a best-effort
/// `Error { ConnLimit }`.
fn accept_ready(
    shared: &Shared,
    listener: &TcpListener,
    ep: &Epoll,
    conns: &mut HashMap<RawFd, Conn>,
    max_conns: usize,
    ebuf: &mut Vec<u8>,
) {
    while let Ok(Some(mut stream)) = accept_nonblocking(listener) {
        // The cap is global occupancy across all loops.
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
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        if ep.add(fd, EPOLLIN | EPOLLRDHUP, fd as u64).is_ok() {
            shared.active_conns.fetch_add(1, Ordering::Relaxed);
            conns.insert(fd, Conn::new(stream));
        }
    }
}

/// Ingests everything currently queued on this loop's forwarding rings,
/// in source-loop order.
fn drain_forwarded(shared: &Shared, forward_rx: &[Option<Receiver<Batch>>]) {
    for rx in forward_rx.iter().flatten() {
        while let Ok(batch) = rx.try_recv() {
            shared.ingest_batch(batch);
            shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
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
    let listen_token = ctx.listener.as_raw_fd() as u64;
    ep.add(ctx.listener.as_raw_fd(), EPOLLIN, listen_token)?;
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
            if token == listen_token || token == wake_token {
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
        // Ingest batches other loops forwarded for our shards. Checked
        // every iteration — the eventfd wake only bounds idle latency;
        // correctness never depends on catching a specific signal.
        drain_forwarded(shared, &ctx.forward_rx);
        if events[..n].iter().any(|ev| ev.token() == listen_token) {
            accept_ready(
                shared,
                &ctx.listener,
                &ep,
                &mut conns,
                ctx.max_conns,
                &mut ebuf,
            );
        }
    }

    // Shutdown drain protocol (DESIGN.md §12). Order matters:
    //   1. stop accepting and drop our connections (no new batches),
    //   2. drop our forward *senders*,
    //   3. blocking-drain every inbound ring until its sender side
    //      disconnects.
    // Every loop drops its senders (step 2) before its first blocking
    // recv (step 3), so each drain terminates — no cyclic wait.
    let count = conns.len() as u64;
    drop(conns);
    shared.active_conns.fetch_sub(count, Ordering::Relaxed);
    drop(ctx.listener);
    drop(router);
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

/// What [`spawn_loops`] hands the server: the bound address, the loop
/// join handles, and each loop's wake eventfd.
type SpawnedLoops = (SocketAddr, Vec<JoinHandle<()>>, Vec<Arc<EventFd>>);

/// Binds the listener set and spawns all event loops. Returns the bound
/// address, the loop join handles, and each loop's wake eventfd (for
/// shutdown signalling). Nothing is spawned unless every bind and
/// eventfd succeeded.
pub(crate) fn spawn_loops(shared: &Arc<Shared>) -> io::Result<SpawnedLoops> {
    let loops = shared.event_loops;
    let cfg = &shared.cfg;
    let max_conns = cfg.effective_max_connections();
    let addr = resolve_addr(&cfg.addr)?;

    // One listener per loop. A lone loop needs no port sharing, so it
    // binds plainly (`SO_REUSEADDR` only on request); the
    // `SO_REUSEPORT` listeners always set `SO_REUSEADDR` as well.
    let listeners = if loops > 1 {
        bind_reuseport_set(&addr, loops)?
    } else if cfg.reuse_addr {
        vec![fgcs_sys::listen_reusable(&addr)?]
    } else {
        vec![TcpListener::bind(addr)?]
    };
    for l in &listeners {
        l.set_nonblocking(true)?;
    }
    let local = listeners[0].local_addr()?;

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

    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let ctx = LoopCtx {
                loop_id: i,
                max_conns,
                listener,
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
