//! The TCP server: two interchangeable connection backends in front of
//! one sharded state store. The threaded backend (thread per
//! connection) feeds a bounded queue drained by an ingest worker pool;
//! the epoll backend runs N accept-sharing event loops, each owning a
//! disjoint subset of the state shards and ingesting inline (DESIGN.md
//! §10 and §12).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fgcs_core::detector::DetectorConfig;
use fgcs_testbed::{LabConfig, TraceRecord};
use fgcs_wire::{Decoder, ErrorCode, Frame, StatsPayload, WireTransition};

use crate::conn::{handle_conn_frame, ConnCtx, IngestSink, Outcome};
use crate::state::Shared;

/// How the server multiplexes connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One OS thread per connection (the PR 3 design). Simple, but the
    /// thread budget caps fan-in; see [`ServiceConfig::max_connections`].
    #[default]
    Threads,
    /// One epoll readiness loop owning every connection as nonblocking
    /// state (Linux only). Fan-in is bounded by fds, not threads.
    Epoll,
}

impl Backend {
    /// Parses a `--backend` flag value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "threads" => Some(Backend::Threads),
            "epoll" => Some(Backend::Epoll),
            _ => None,
        }
    }

    /// The flag spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Epoll => "epoll",
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Bind address. Use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Connection backend.
    pub backend: Backend,
    /// Ingest worker count; 0 means [`fgcs_par::default_workers`].
    pub workers: usize,
    /// Ingest queue capacity, in batches. Arrivals beyond this shed the
    /// oldest queued batch and earn a `Busy` reply.
    pub queue_capacity: usize,
    /// Per-connection read timeout, ms. Bounds how long a connection
    /// thread can miss a shutdown request.
    pub read_timeout_ms: u64,
    /// Concurrent-connection cap; 0 picks the backend default (1024 for
    /// threads — a thread-budget ceiling — and 16384 for epoll).
    /// Connections beyond the cap are refused with
    /// `Error { ConnLimit }` and closed.
    pub max_connections: usize,
    /// Shard count for the per-machine state map; 0 means 16. More
    /// shards cut lock contention between ingest workers and query
    /// handlers; the read paths re-sort so results stay deterministic.
    pub state_shards: usize,
    /// Shared auth token. When set, every connection must present it in
    /// a [`Frame::Auth`] before any other frame; violations earn
    /// `Error { Unauthorized }` and a close. `None` disables the gate.
    pub auth_token: Option<String>,
    /// Detector configuration applied to every machine's stream.
    pub detector: DetectorConfig,
    /// Physical memory assumed per streamed machine, MB (for the
    /// free-for-guest computation, as in [`LabConfig`]).
    pub phys_mem_mb: u32,
    /// Kernel/system memory reserve per machine, MB.
    pub kernel_mem_mb: u32,
    /// Weekday of trace-time zero (0 = Monday), anchoring the online
    /// predictor's calendar.
    pub start_weekday: u8,
    /// Artificial per-batch ingest cost, µs. Zero in production; the
    /// overload tests use it to pin ingest capacity below offered load.
    pub ingest_delay_us: u64,
    /// Directory for crash-safe snapshots. When set, the server
    /// checkpoints its full ingest state there periodically and on
    /// graceful shutdown, and restores from the newest usable snapshot
    /// at startup (DESIGN.md §11). `None` disables snapshotting.
    pub snapshot_dir: Option<String>,
    /// Minimum milliseconds between periodic snapshots.
    pub snapshot_interval_ms: u64,
    /// Bind with `SO_REUSEADDR` (Linux, via `fgcs-sys`), so a restarted
    /// server can rebind its old port while the previous life's sockets
    /// sit in TIME_WAIT. Off by default.
    pub reuse_addr: bool,
    /// Epoll backend only: how many event loops to run, each with its
    /// own `SO_REUSEPORT` listener and an exclusive subset of the state
    /// shards (DESIGN.md §12). 0 means auto: `min(cores, shards)`.
    /// Must not exceed [`ServiceConfig::state_shards`]; ignored by the
    /// threaded backend.
    pub event_loops: usize,
    /// Testing hook: skip `SO_REUSEPORT` and run multi-loop through the
    /// single-listener fd-handoff fallback, as if the kernel lacked the
    /// option.
    pub force_fd_handoff: bool,
    /// Replication seq-log capacity, in entries. 0 disables replication
    /// on a primary (followers force a default — see
    /// [`ServiceConfig::repl_capacity`]). The log must retain enough
    /// entries to cover a follower's restart gap, or the follower falls
    /// back to a full snapshot resync (DESIGN.md §13).
    pub repl_log_capacity: usize,
    /// Run as a replication follower pulling from this primary address.
    /// A follower rejects `SampleBatch` with `Error { NotPrimary }`,
    /// answers queries from its replicated state, and can be promoted
    /// with [`fgcs_wire::Frame::Promote`].
    pub follower_of: Option<String>,
    /// Idle sleep between pulls when the follower is caught up, ms.
    pub pull_interval_ms: u64,
    /// Liveness lease this node grants with every `ReplEntries` reply,
    /// ms. A follower declares the primary dead only once this long
    /// passes without any reply AND the missed-pull threshold is hit.
    pub lease_ms: u64,
    /// Follower: self-promote when the primary's lease expires
    /// (DESIGN.md §13.5). Off by default — without it the node waits
    /// for an operator `Frame::Promote`, exactly as before.
    pub auto_promote: bool,
    /// Consecutive failed pulls (transport errors — typed errors from
    /// a live primary reset it) before a follower may declare the
    /// primary dead.
    pub missed_pull_threshold: u32,
    /// Sibling follower addresses of the same shard. Before
    /// self-promoting, a follower asks each for `ReplStatus` and
    /// defers to any peer that is strictly more caught up (ties break
    /// on the lower address), so the most-caught-up follower wins.
    pub promotion_peers: Vec<String>,
    /// Staleness bound for reads served by this node while a follower:
    /// `QueryAvail`/`Place`/`QueryStats` answer only while
    /// `primary_head_seen - applied_head <= bound`, else `TooStale`.
    /// `None` (default) serves follower reads unbounded.
    pub max_read_lag: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let lab = LabConfig::default();
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::Threads,
            workers: 0,
            queue_capacity: 256,
            read_timeout_ms: 200,
            max_connections: 0,
            state_shards: 0,
            auth_token: None,
            detector: DetectorConfig::wallclock_default(),
            phys_mem_mb: lab.phys_mem_mb,
            kernel_mem_mb: lab.kernel_mem_mb,
            start_weekday: lab.start_weekday,
            ingest_delay_us: 0,
            snapshot_dir: None,
            snapshot_interval_ms: 5000,
            reuse_addr: false,
            event_loops: 0,
            force_fd_handoff: false,
            repl_log_capacity: 0,
            follower_of: None,
            pull_interval_ms: 5,
            lease_ms: 1_000,
            auto_promote: false,
            missed_pull_threshold: 3,
            promotion_peers: Vec::new(),
            max_read_lag: None,
        }
    }
}

impl ServiceConfig {
    /// A configuration matching a [`fgcs_testbed::TestbedConfig`], so a
    /// streamed lab trace reproduces the in-process pipeline exactly.
    pub fn for_testbed(cfg: &fgcs_testbed::TestbedConfig) -> Self {
        ServiceConfig {
            detector: cfg.detector,
            phys_mem_mb: cfg.lab.phys_mem_mb,
            kernel_mem_mb: cfg.lab.kernel_mem_mb,
            start_weekday: cfg.lab.start_weekday,
            ..ServiceConfig::default()
        }
    }

    /// Memory left for a guest when host processes hold `resident_mb`.
    pub(crate) fn free_for_guest_mb(&self, resident_mb: u32) -> u32 {
        self.phys_mem_mb
            .saturating_sub(self.kernel_mem_mb)
            .saturating_sub(resident_mb)
    }

    /// The resolved state-map shard count.
    pub(crate) fn state_shards(&self) -> usize {
        if self.state_shards > 0 {
            self.state_shards
        } else {
            16
        }
    }

    /// The resolved event-loop count: `event_loops` when set, else
    /// `min(cores, shards)` for the epoll backend and always 1 for the
    /// threaded backend (which has no event loops to multiply).
    pub fn resolved_event_loops(&self) -> usize {
        match self.backend {
            Backend::Threads => 1,
            Backend::Epoll => {
                if self.event_loops > 0 {
                    self.event_loops
                } else {
                    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                    cores.min(self.state_shards()).max(1)
                }
            }
        }
    }

    /// The effective replication-log capacity: the explicit setting
    /// when given; otherwise followers get a working default (a
    /// promoted follower must be able to serve its own follower) and
    /// plain primaries get 0 (replication off).
    pub(crate) fn repl_capacity(&self) -> usize {
        if self.repl_log_capacity > 0 {
            self.repl_log_capacity
        } else if self.follower_of.is_some() {
            crate::repl::DEFAULT_REPL_LOG_CAPACITY
        } else {
            0
        }
    }

    /// The resolved connection cap for this configuration's backend.
    pub fn effective_max_connections(&self) -> usize {
        if self.max_connections > 0 {
            self.max_connections
        } else {
            match self.backend {
                Backend::Threads => 1024,
                Backend::Epoll => 16384,
            }
        }
    }
}

/// One instrumented lock category's contention numbers, from
/// [`Server::lock_contention`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockContention {
    /// Category name (`online`, `queue`, `machines`, `shards`,
    /// `counters`).
    pub lock: &'static str,
    /// Total instrumented acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held.
    pub contended: u64,
    /// Microseconds spent blocked on contended acquisitions.
    pub wait_us: u64,
}

/// A running availability server. Dropping the handle does *not* stop
/// the server; call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    backend: Backend,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    loop_handles: Vec<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    loop_wakes: Vec<Arc<fgcs_sys::EventFd>>,
    worker_handles: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    checkpoint_handle: Option<JoinHandle<()>>,
    /// The follower's replication pull loop (`follower_of` only).
    repl_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the server: the selected connection backend
    /// plus (threaded backend) a pool of ingest workers draining the
    /// queue. The epoll backend ingests on its event loops directly —
    /// each loop owns a disjoint shard subset — and spawns no workers.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        if cfg.backend == Backend::Epoll {
            let loops = cfg.resolved_event_loops();
            if loops > cfg.state_shards() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "event loops ({loops}) must not exceed state shards ({}): \
                         every loop needs at least one shard to own",
                        cfg.state_shards()
                    ),
                ));
            }
        }
        // Build (and possibly restore) the shared state *before*
        // binding: once the listener exists, clients can connect and
        // would race the restore with fresh machine state.
        let shared = Arc::new(Shared::new(cfg)?);
        let cfg = &shared.cfg;
        let backend = cfg.backend;
        let max_conns = cfg.effective_max_connections();
        let read_timeout = Duration::from_millis(cfg.read_timeout_ms.max(10));

        // Periodic checkpoints run on a dedicated thread for both
        // backends: event loops never block on snapshot I/O, and the
        // threaded accept loop blocks in `incoming()` anyway.
        let checkpoint_handle = if shared.snapshots_enabled() {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || {
                while !shared.shutting_down() {
                    shared.checkpoint_if_due();
                    std::thread::sleep(Duration::from_millis(50));
                }
            }))
        } else {
            None
        };

        // A follower starts its pull loop before (and independently of)
        // the listener: replication is outbound, and the node answers
        // queries from whatever state it has replicated so far.
        let repl_handle = if shared.cfg.follower_of.is_some() {
            Some(crate::repl::spawn_pull_thread(Arc::clone(&shared)))
        } else {
            None
        };

        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        match backend {
            Backend::Threads => {
                let listener = bind_listener(cfg)?;
                let addr = listener.local_addr()?;
                let workers = if cfg.workers > 0 {
                    cfg.workers
                } else {
                    fgcs_par::default_workers(usize::MAX)
                };
                let worker_handles: Vec<JoinHandle<()>> = (0..workers)
                    .map(|_| {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || ingest_worker(&shared))
                    })
                    .collect();
                let accept_handle = {
                    let shared = Arc::clone(&shared);
                    let conn_handles = Arc::clone(&conn_handles);
                    std::thread::spawn(move || {
                        accept_loop(&shared, &listener, max_conns, read_timeout, &conn_handles)
                    })
                };
                Ok(Server {
                    addr,
                    backend,
                    shared,
                    accept_handle: Some(accept_handle),
                    loop_handles: Vec::new(),
                    #[cfg(target_os = "linux")]
                    loop_wakes: Vec::new(),
                    worker_handles,
                    conn_handles,
                    checkpoint_handle,
                    repl_handle,
                })
            }
            Backend::Epoll => {
                #[cfg(target_os = "linux")]
                {
                    let (addr, loop_handles, loop_wakes) =
                        crate::epoll::spawn_loops(&shared, max_conns)?;
                    Ok(Server {
                        addr,
                        backend,
                        shared,
                        accept_handle: None,
                        loop_handles,
                        loop_wakes,
                        worker_handles: Vec::new(),
                        conn_handles,
                        checkpoint_handle,
                        repl_handle,
                    })
                }
                #[cfg(not(target_os = "linux"))]
                {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::Unsupported,
                        "the epoll backend requires Linux",
                    ))
                }
            }
        }
    }

    /// The bound address (with the OS-assigned port when binding to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which backend this server runs.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// A stats snapshot, identical to what a `QueryStats` frame returns.
    pub fn stats(&self) -> StatsPayload {
        self.shared.stats_snapshot()
    }

    /// Streams rejected by the auth gate so far.
    pub fn auth_rejects(&self) -> u64 {
        self.shared.counters.snapshot().auth_rejects
    }

    /// Connections refused at the connection cap so far.
    pub fn conn_rejects(&self) -> u64 {
        self.shared.counters.snapshot().conn_rejects
    }

    /// The occurrence records built so far for one machine (clone of the
    /// live recorder state), or `None` if it never streamed a sample.
    pub fn records(&self, machine: u32) -> Option<Vec<TraceRecord>> {
        self.shared
            .machine_get(machine)
            .map(|cell| cell.lock().unwrap().records().to_vec())
    }

    /// The state-transition log for one machine.
    pub fn transitions(&self, machine: u32) -> Option<Vec<WireTransition>> {
        self.shared
            .machine_get(machine)
            .map(|cell| cell.lock().unwrap().transitions().to_vec())
    }

    /// Out-of-order samples discarded for one machine.
    pub fn out_of_order(&self, machine: u32) -> u64 {
        self.shared
            .machine_get(machine)
            .map_or(0, |cell| cell.lock().unwrap().out_of_order)
    }

    /// The harvestable flag `Place` currently reads for one machine —
    /// the copy ingest publishes into the online model's placement
    /// table — or `None` if the model does not know the machine. The
    /// machine cells report theirs through [`Server::stats`]; the two
    /// must agree whenever ingest is quiescent.
    pub fn placement_flag(&self, machine: u32) -> Option<bool> {
        self.shared.lock_online().harvestable(machine)
    }

    /// How many event loops serve connections (1 for the threaded
    /// backend).
    pub fn event_loops(&self) -> usize {
        self.shared.event_loops
    }

    /// The replication role code: 1 = primary, 2 = follower.
    pub fn role(&self) -> u8 {
        self.shared.role_code()
    }

    /// Promotes this node to primary in-process (the wire equivalent is
    /// [`fgcs_wire::Frame::Promote`]). Idempotent.
    pub fn promote(&self) {
        self.shared.promote();
    }

    /// Newest replication seq this node has allocated (primary) or
    /// applied (follower); 0 before anything was replicated.
    pub fn repl_seq(&self) -> u64 {
        self.shared.repl.head_seq()
    }

    /// Highest applied-seq a pulling follower has acknowledged.
    pub fn repl_acked_seq(&self) -> u64 {
        self.shared.repl.acked_seq()
    }

    /// Whether the follower pull loop stopped on a divergence tripwire.
    pub fn repl_failed(&self) -> bool {
        self.shared.repl_failed.load(Ordering::Acquire)
    }

    /// The node's fencing epoch (DESIGN.md §13.5): 1 at birth, bumped
    /// past everything observed on each promotion.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// Contention numbers for every instrumented lock category, in a
    /// fixed order. `counters` covers the slotted stats counters; the
    /// rest are the [`crate::state`] categories (online model, ingest
    /// queue, machine cells on the ingest path, shard maps).
    pub fn lock_contention(&self) -> Vec<LockContention> {
        let mk = |lock: &'static str, stats: &crate::state::LockStats| {
            let (acquisitions, contended, wait_ns) = stats.values();
            LockContention {
                lock,
                acquisitions,
                contended,
                wait_us: wait_ns / 1_000,
            }
        };
        vec![
            mk("online", &self.shared.locks.online),
            mk("queue", &self.shared.locks.queue),
            mk("machines", &self.shared.locks.machines),
            mk("shards", &self.shared.locks.shards),
            mk("counters", self.shared.counters.lock_stats()),
        ]
    }

    /// Stops the server: drains the ingest queue and the cross-loop
    /// forwarding rings, then joins every thread. Accepted batches are
    /// ingested, not dropped — the reconciliation identity must hold at
    /// shutdown.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        match self.backend {
            Backend::Threads => {
                // Unblock the accept loop with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
            }
            Backend::Epoll => {
                // Wake every event loop out of epoll_wait.
                #[cfg(target_os = "linux")]
                for wake in &self.loop_wakes {
                    wake.signal();
                }
            }
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.loop_handles.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.checkpoint_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.repl_handle.take() {
            // The pull loop re-checks the shutdown flag between
            // requests and sleeps are capped, so this join is bounded.
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conn_handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Final checkpoint, after every thread has quiesced: the
        // snapshot captures the fully drained state.
        self.shared.checkpoint_final();
    }
}

/// Binds the listening socket per the configuration. With `reuse_addr`
/// set (Linux), binds through `fgcs-sys` with `SO_REUSEADDR` so a
/// restarted server can reclaim a port whose old sockets are still in
/// TIME_WAIT; elsewhere, or by default, a plain std bind.
fn bind_listener(cfg: &ServiceConfig) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    if cfg.reuse_addr {
        use std::net::ToSocketAddrs;
        let addr = cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("address {:?} resolves to nothing", cfg.addr),
            )
        })?;
        return fgcs_sys::listen_reusable(&addr);
    }
    TcpListener::bind(&cfg.addr)
}

/// The threaded backend's accept loop: one thread per connection, with
/// the connection cap enforced *before* the spawn.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    max_conns: usize,
    read_timeout: Duration,
    conn_handles: &Mutex<Vec<JoinHandle<()>>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if shared.active_conns.load(Ordering::Relaxed) >= max_conns as u64 {
            shared.counters.update(|c| c.conn_rejects += 1);
            // Best effort: tell the peer why before closing.
            let reject = Frame::Error {
                code: ErrorCode::ConnLimit,
                detail: format!("server is at its connection cap ({max_conns})"),
            };
            if let Ok(bytes) = reject.encode() {
                let _ = stream.write_all(&bytes);
            }
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            serve_connection(&shared, stream);
            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        });
        conn_handles.lock().unwrap().push(handle);
    }
}

/// Ingest worker: claims one machine's queued batches at a time,
/// preserving per-machine sample order. Drains the queue fully before
/// exiting on shutdown.
fn ingest_worker(shared: &Shared) {
    loop {
        let claimed = {
            let mut queue = shared.lock_queue();
            loop {
                match queue.claim() {
                    Some(work) => break Some(work),
                    None => {
                        if shared.shutting_down() && queue.len() == 0 {
                            break None;
                        }
                        // Either empty, or every queued machine is busy;
                        // a finishing worker or a new push wakes us.
                        let (q, _) = shared
                            .queue_cv
                            .wait_timeout(queue, Duration::from_millis(50))
                            .unwrap();
                        queue = q;
                    }
                }
            }
        };
        let Some((machine, batches)) = claimed else {
            return;
        };
        for batch in batches {
            shared.ingest_batch(batch);
        }
        let mut queue = shared.lock_queue();
        queue.finish(machine);
        drop(queue);
        // The machine may have accumulated new batches while busy, and
        // idle workers may be waiting for it to be released.
        shared.queue_cv.notify_all();
    }
}

/// Per-connection loop: strict request/reply. Every decoded frame earns
/// exactly one reply; every decode error earns an `Error` reply (and
/// closes the connection if the error is fatal).
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 64 * 1024];
    let mut ctx = ConnCtx::default();
    let mut sink = IngestSink::Queue;
    loop {
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => match handle_conn_frame(shared, frame, &mut ctx, &mut sink) {
                    Outcome::Reply(reply) => {
                        if !write_frame(&mut stream, &reply) {
                            return;
                        }
                    }
                    Outcome::ReplyThenClose(reply) => {
                        let _ = write_frame(&mut stream, &reply);
                        return;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    shared.counters.update(|c| c.decode_errors += 1);
                    let reply = Frame::Error {
                        code: ErrorCode::BadFrame,
                        detail: e.to_string(),
                    };
                    let sent = write_frame(&mut stream, &reply);
                    if e.is_fatal() || !sent {
                        return;
                    }
                }
            }
        }
        // Re-check between requests, not just on read timeouts: a
        // client that never pauses (a follower pulling the replication
        // log flat-out) would otherwise keep this thread alive — and
        // `Server::shutdown` joining it — forever. Frames already
        // decoded got their replies above, so the one-reply-per-frame
        // identity holds for everything the server accepted.
        if shared.shutting_down() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> bool {
    match frame.encode() {
        Ok(bytes) => stream.write_all(&bytes).is_ok(),
        Err(_) => false,
    }
}
