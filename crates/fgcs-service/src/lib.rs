//! The FGCS availability service: the paper's monitor → detector →
//! predictor loop, turned into a real server/client system.
//!
//! iShare publishes machine availability so consumers can place guest
//! jobs on other people's idle cycles (§5). In this workspace that loop
//! had only existed as in-process function calls
//! (`fgcs_testbed::run_testbed`); this crate runs it across a TCP
//! boundary:
//!
//! * [`Server`] — a TCP server of N epoll readiness loops sharing one
//!   `SO_REUSEPORT` port (Linux, via the in-tree `fgcs-sys` shim), each
//!   loop owning an exclusive subset of the state shards
//!   ([`ServiceConfig::event_loops`]; one loop is a value of the same
//!   design, not another server). The loops ingest per-machine sample
//!   streams into the existing `fgcs-core`
//!   [`Monitor`](fgcs_core::monitor::Monitor) / detector (via
//!   [`fgcs_testbed::OccurrenceRecorder`], so a streamed trace yields
//!   **bit-identical** records to an in-process run at any loop
//!   count), maintain an online `fgcs-predict` model, and answer
//!   availability/placement queries from live state. Per-machine state
//!   is sharded ([`ServiceConfig::state_shards`](field@ServiceConfig::state_shards)); an optional shared
//!   auth token ([`ServiceConfig::auth_token`]) gates every stream.
//! * [`EventLoop`] — the frame-server skeleton under those loops:
//!   epoll, accept under a connection cap, frame reassembly, `BadFrame`
//!   replies, buffered writes. A [`LoopHandler`] supplies the protocol;
//!   `fgcs-sched` serves its wire API on the same skeleton.
//! * [`ServiceClient`] — the blocking transport: capped-backoff
//!   reconnection (reusing [`fgcs_testbed::SupervisorConfig`]
//!   semantics), the auth token presented on every (re)connect, and one
//!   deadline per attempt (connect + auth + reply). The follower's pull
//!   loop, its election and fencer, and the [`ClusterClient`] router
//!   (rendezvous-hashed shards with failover, [`cluster`]) all send
//!   through it.
//! * [`run_loadgen`] — the one load driver ([`loadgen`]): per-machine
//!   sample streams (testbed lab replays, a steady synthetic stream, or
//!   the shared replay wave) over any number of connections from one
//!   thread, on top of [`ClientPool`], the multiplexed transport
//!   ([`pool`]); optionally through `fgcs-faults` frame corruption to
//!   exercise the decode error paths.
//!
//! ## Backpressure
//!
//! One rule. A batch for a shard its event loop owns is ingested
//! before the reply is written, so the only queue in front of it is the
//! TCP socket and a slow server slows its senders. A batch bound for
//! another loop's shard crosses a bounded forwarding ring
//! ([`ServiceConfig::queue_capacity`] batches per ordered loop pair);
//! one that finds the ring full is itself shed and the producer gets a
//! [`fgcs_wire::Frame::Busy`] instead of an `Ack` — nothing already
//! accepted is ever dropped or reordered. Every client frame earns
//! exactly one reply, so the accounting reconciles exactly:
//!
//! ```text
//! batches sent == ingested + shed + decode-rejected
//! acks + busys + error replies == batches sent      (client side)
//! ```
//!
//! Shed batches are *exclusion*, not silent loss: they are counted and
//! reported via `Stats`, the same discipline as censored spans in the
//! fault pipeline (DESIGN.md §8.4 and §9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
#[cfg(target_os = "linux")]
mod conn;
#[cfg(target_os = "linux")]
mod epoll;
#[cfg(target_os = "linux")]
pub mod loadgen;
#[cfg(target_os = "linux")]
pub mod pool;
mod repl;
pub mod server;
mod snapshot;
mod state;

pub use repl::{ROLE_FOLLOWER, ROLE_PRIMARY};

pub use client::{ClientConfig, ServiceClient};
pub use cluster::{ClusterClient, ClusterConfig, ClusterMetrics, ShardSpec};
#[cfg(target_os = "linux")]
pub use epoll::{EventLoop, LoopHandler, Outcome};
#[cfg(target_os = "linux")]
pub use loadgen::{run_loadgen, LoadGenConfig, LoadGenReport};
#[cfg(target_os = "linux")]
pub use pool::{ClientPool, PoolCloseReason, PoolEvent};
pub use server::{Backend, LockContention, Server, ServiceConfig, DEFAULT_MAX_CONNECTIONS};
