//! The TCP server: N accept-sharing epoll event loops in front of one
//! sharded state store. Each loop owns a disjoint subset of the state
//! shards and ingests inline; `event_loops = 1` is a value of that
//! design, not a different server (DESIGN.md §10 and §12). Linux only:
//! elsewhere [`Server::start`] returns `ErrorKind::Unsupported`.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use fgcs_core::detector::DetectorConfig;
use fgcs_testbed::{LabConfig, TraceRecord};
use fgcs_wire::{StatsPayload, WireTransition};

use crate::state::Shared;

/// The connection cap a server runs with unless configured otherwise
/// ([`ServiceConfig::max_connections`] = 0; `fgcs-sched` always).
pub const DEFAULT_MAX_CONNECTIONS: usize = 16384;

/// How the server multiplexes connections. One-valued since the
/// threaded backend was deleted: the epoll event loops *are* the
/// server. The type survives only because `benchmark/src/adapter.rs`
/// names `Backend::Epoll`; it goes, with [`ServiceConfig::backend`], in
/// the benchmark-only follow-up that edits the adapter (ROADMAP
/// direction 2(A)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Epoll readiness loops owning every connection as nonblocking
    /// state (Linux only). Fan-in is bounded by fds, not threads.
    #[default]
    Epoll,
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Bind address. Use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// A one-valued vestige (see [`Backend`]): not a choice, kept only
    /// until the benchmark adapter stops naming it.
    pub backend: Backend,
    /// Capacity, in batches, of each cross-loop forwarding ring (one per
    /// ordered loop pair). A batch homed on another loop that finds its
    /// ring full is shed itself and earns a `Busy` reply; batches for a
    /// loop's own shards are ingested inline and never shed. Unused at
    /// one event loop.
    pub queue_capacity: usize,
    /// Concurrent-connection cap; 0 means [`DEFAULT_MAX_CONNECTIONS`]. Connections beyond the
    /// cap are refused with `Error { ConnLimit }` and closed.
    pub max_connections: usize,
    /// Shard count for the per-machine state map; 0 means 16. Shards
    /// are what the event loops partition among themselves, and more of
    /// them cut lock contention between ingest and query handlers; the
    /// read paths re-sort so results stay deterministic.
    pub state_shards: usize,
    /// Shared auth token. When set, every connection must present it in
    /// a [`Frame::Auth`](fgcs_wire::Frame::Auth) before any other frame; violations earn
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
    /// How many event loops to run, each with an exclusive subset of
    /// the state shards and — beyond one — its own `SO_REUSEPORT`
    /// listener on the shared address (DESIGN.md §12; needs Linux
    /// ≥ 3.9, else [`Server::start`] returns the bind error). 0 means
    /// auto: `min(cores, shards)`. Must not exceed
    /// [`ServiceConfig::state_shards`](field@ServiceConfig::state_shards).
    pub event_loops: usize,
    /// Replication seq-log capacity, in entries. 0 disables replication
    /// on a primary; a follower given 0 uses a default capacity, so it
    /// can serve followers of its own once promoted. The log must
    /// retain enough entries to cover a follower's restart gap, or the
    /// follower falls back to a full snapshot resync (DESIGN.md §13).
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
            backend: Backend::Epoll,
            queue_capacity: 256,
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
    /// `min(cores, shards)`.
    pub fn resolved_event_loops(&self) -> usize {
        if self.event_loops > 0 {
            self.event_loops
        } else {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            cores.min(self.state_shards()).max(1)
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

    /// The resolved connection cap.
    pub fn effective_max_connections(&self) -> usize {
        if self.max_connections > 0 {
            self.max_connections
        } else {
            DEFAULT_MAX_CONNECTIONS
        }
    }
}

/// One instrumented lock category's contention numbers, from
/// [`Server::lock_contention`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockContention {
    /// Category name (`online`, `machines`, `shards`, `counters`).
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
    shared: Arc<Shared>,
    #[cfg(target_os = "linux")]
    loops: Vec<crate::epoll::EventLoop>,
    checkpoint_handle: Option<JoinHandle<()>>,
    /// The follower's replication pull loop (`follower_of` only).
    repl_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the server: the event loops (which ingest
    /// inline, each on its own shard subset), the checkpointer when
    /// snapshots are on, and a follower's pull loop.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        #[cfg(not(target_os = "linux"))]
        {
            let _ = cfg;
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll event loops require Linux",
            ))
        }
        #[cfg(target_os = "linux")]
        {
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
            // Build (and possibly restore) the shared state *before*
            // binding: once the listener exists, clients can connect
            // and would race the restore with fresh machine state.
            let shared = Arc::new(Shared::new(cfg)?);
            // Bind next, while nothing else runs: a failed bind (say
            // `SO_REUSEPORT` on a pre-3.9 kernel) returns with no
            // thread to unwind.
            let (addr, loops) = crate::conn::spawn_loops(&shared)?;

            // Periodic checkpoints run on a dedicated thread: event
            // loops never block on snapshot I/O.
            let checkpoint_handle = if shared.snapshots_enabled() {
                let shared = Arc::clone(&shared);
                Some(std::thread::spawn(move || {
                    while !shared.shutting_down() {
                        shared.checkpoint_if_due();
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                }))
            } else {
                None
            };

            // A follower's pull loop is independent of the listener:
            // replication is outbound, and the node answers queries
            // from whatever state it has replicated so far.
            let repl_handle = if shared.cfg.follower_of.is_some() {
                Some(crate::repl::spawn_pull_thread(Arc::clone(&shared)))
            } else {
                None
            };

            Ok(Server {
                addr,
                shared,
                loops,
                checkpoint_handle,
                repl_handle,
            })
        }
    }

    /// The bound address (with the OS-assigned port when binding to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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

    /// How many event loops serve connections.
    pub fn event_loops(&self) -> usize {
        self.shared.event_loops
    }

    /// The replication role code: 1 = primary, 2 = follower.
    pub fn role(&self) -> u8 {
        self.shared.role_code()
    }

    /// Promotes this node to primary in-process (the wire equivalent is
    /// [`fgcs_wire::Frame::Promote`]). Idempotent. Returns `false`, and
    /// changes nothing, when the fencing epoch is already `u64::MAX`.
    pub fn promote(&self) -> bool {
        self.shared.promote()
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

    /// Bytes of sample encodings the replication log retains: what
    /// its memory grows with, up to `repl_log_capacity` entries
    /// (DESIGN.md §13.1). 0 without a log.
    pub fn repl_log_bytes(&self) -> u64 {
        self.shared.repl.status().sample_bytes
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
    /// rest are the `state` module's categories (online model, machine
    /// cells on the ingest path, shard maps).
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
            mk("machines", &self.shared.locks.machines),
            mk("shards", &self.shared.locks.shards),
            mk("counters", self.shared.counters.lock_stats()),
        ]
    }

    /// Stops the server: drains the cross-loop forwarding rings, then
    /// joins every thread. Accepted batches are ingested, not dropped —
    /// the reconciliation identity must hold at shutdown.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Stop every event loop before joining any: each one's
        // shutdown drain waits on the others dropping their senders.
        #[cfg(target_os = "linux")]
        {
            self.loops.iter().for_each(crate::epoll::EventLoop::stop);
            self.loops.drain(..).for_each(crate::epoll::EventLoop::join);
        }
        if let Some(h) = self.checkpoint_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.repl_handle.take() {
            // The pull loop re-checks the shutdown flag between
            // requests and sleeps are capped, so this join is bounded.
            let _ = h.join();
        }
        // Final checkpoint, after every thread has quiesced: the
        // snapshot captures the fully drained state.
        self.shared.checkpoint_final();
    }
}
