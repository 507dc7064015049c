//! Blocking service client with capped-backoff reconnection.
//!
//! Reconnection reuses the testbed supervisor's semantics
//! ([`SupervisorConfig`]): retry with exponential backoff doubling from
//! `backoff_base_secs` up to `backoff_cap_secs`, give up after
//! `max_retries` consecutive failures, and reset the attempt counter
//! once a connection stays healthy. Tests scale the backoff unit down
//! to milliseconds via [`ClientConfig::backoff_unit_ms`].
//!
//! Every attempt runs against one deadline
//! ([`ClientConfig::read_timeout_ms`]): a (re)connect, its `Auth`
//! exchange and one reply together. A peer whose accept queue is full,
//! or that stopped answering, surfaces as `TimedOut` instead of holding
//! the caller for the kernel's SYN-retry period.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use fgcs_core::backoff::BackoffPolicy;
use fgcs_testbed::SupervisorConfig;
use fgcs_wire::{Decoder, ErrorCode, Frame};

use crate::repl::Probe;

/// Socket timeouts are kept in kernel jiffies (1–10 ms), so re-arming
/// the read timeout for a smaller drift than this buys nothing.
const REARM_SLACK: Duration = Duration::from_millis(1);

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:4715`.
    pub addr: String,
    /// Retry/backoff policy (the `*_secs` fields are multiplied by
    /// [`ClientConfig::backoff_unit_ms`]).
    pub sup: SupervisorConfig,
    /// Milliseconds per supervisor "second". 1000 gives the literal
    /// testbed policy; tests use 1 to keep retries fast.
    pub backoff_unit_ms: u64,
    /// Deadline per attempt, ms (at least 10): one (re)connect, its
    /// `Auth` exchange and one reply together.
    pub read_timeout_ms: u64,
    /// Auth token presented (as the first frame) on every connect and
    /// reconnect; `None` sends no `Auth` frame. A server rejection
    /// surfaces as `PermissionDenied` and is never retried — backoff
    /// cannot fix a wrong secret.
    pub token: Option<String>,
}

impl ClientConfig {
    /// Defaults for `addr`: testbed supervisor policy, 1 s backoff
    /// unit, 5 s attempt deadline, no auth token.
    pub fn new(addr: impl Into<String>) -> Self {
        ClientConfig {
            addr: addr.into(),
            sup: SupervisorConfig::default(),
            backoff_unit_ms: 1_000,
            read_timeout_ms: 5_000,
            token: None,
        }
    }

    /// One attempt per request and no resend, for callers that own
    /// their retry cadence: the replication loops and the cluster router
    /// (where a resent batch would break at-most-once ingest).
    pub(crate) fn single_attempt(addr: &str, timeout_ms: u64, token: Option<String>) -> Self {
        let mut cfg = ClientConfig::new(addr);
        cfg.sup.max_retries = 0;
        cfg.backoff_unit_ms = 1;
        cfg.read_timeout_ms = timeout_ms;
        cfg.token = token;
        cfg
    }

    /// The per-attempt deadline.
    fn budget(&self) -> Duration {
        Duration::from_millis(self.read_timeout_ms.max(10))
    }

    /// The supervisor policy expressed in milliseconds, for the shared
    /// backoff helper.
    fn backoff_ms(&self) -> BackoffPolicy {
        BackoffPolicy {
            base: self
                .sup
                .backoff_base_secs
                .saturating_mul(self.backoff_unit_ms),
            cap: self
                .sup
                .backoff_cap_secs
                .saturating_mul(self.backoff_unit_ms),
        }
    }
}

/// A blocking request/reply client. Every request sends one frame and
/// waits for exactly one reply, transparently reconnecting (with
/// capped backoff) on connection failure.
///
/// Reconnect-and-resend gives *at-least-once* delivery: if the
/// connection dies after the server processed a request but before the
/// reply arrived, the retry delivers it again. Idempotent queries don't
/// care; sample batches would be double-ingested, which the detector
/// tolerates (duplicate timestamps are not out-of-order) but accounting
/// tests avoid by not killing connections mid-stream. With
/// `max_retries: 0` nothing is ever resent.
pub struct ServiceClient {
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    decoder: Decoder,
    /// Scratch for socket reads, kept across requests.
    read_buf: Vec<u8>,
    /// The read timeout currently armed on `stream` (`None` right after
    /// a connect, before the first read).
    armed: Option<Duration>,
    /// Successful reconnections performed (first connect excluded).
    pub reconnects: u64,
    /// Time of the last successful connect, for the healthy-reset rule.
    connected_at: Option<Instant>,
    ever_connected: bool,
}

impl ServiceClient {
    /// Connects to the server, retrying with capped backoff per
    /// `cfg.sup`. Fails only after `max_retries` consecutive failures.
    pub fn connect(cfg: ClientConfig) -> io::Result<Self> {
        let mut client = ServiceClient::new(cfg);
        client.reconnect()?;
        Ok(client)
    }

    /// A client that dials on its first request, so that request's
    /// connect, `Auth` exchange and reply share one attempt deadline.
    pub(crate) fn new(cfg: ClientConfig) -> Self {
        ServiceClient {
            cfg,
            stream: None,
            decoder: Decoder::new(),
            read_buf: vec![0u8; 16 * 1024],
            armed: None,
            reconnects: 0,
            connected_at: None,
            ever_connected: false,
        }
    }

    /// Drops the current connection without telling the server — a
    /// fault-injection hook: the next request must transparently
    /// reconnect.
    pub fn force_disconnect(&mut self) {
        self.stream = None;
        self.decoder = Decoder::new();
    }

    /// True while a TCP connection is held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Dials until connected, each try against a fresh deadline, with
    /// capped backoff between tries. Returns the deadline of the try
    /// that connected: the reply to the request that triggered the dial
    /// must land inside it too.
    fn reconnect(&mut self) -> io::Result<Instant> {
        let mut attempts: u32 = 0;
        loop {
            let deadline = Instant::now() + self.cfg.budget();
            match self.open(deadline) {
                Ok(()) => {
                    if self.ever_connected {
                        self.reconnects += 1;
                    }
                    self.ever_connected = true;
                    self.connected_at = Some(Instant::now());
                    return Ok(deadline);
                }
                // A typed auth rejection is terminal; backoff cannot
                // fix a wrong secret.
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                Err(e) => {
                    // A connection that stayed healthy long enough earns
                    // its retry budget back, as in the testbed supervisor.
                    // The credit is *consumed* (`take`): `elapsed()`
                    // keeps growing after the stream died, so keeping
                    // `connected_at` around would reset the budget on
                    // every failed attempt and the client would retry a
                    // dead server forever instead of giving up.
                    let healthy_ms = self
                        .cfg
                        .sup
                        .healthy_reset_secs
                        .saturating_mul(self.cfg.backoff_unit_ms);
                    if attempts > 0
                        && self
                            .connected_at
                            .take()
                            .is_some_and(|t| t.elapsed() >= Duration::from_millis(healthy_ms))
                    {
                        attempts = 0;
                    }
                    attempts += 1;
                    if attempts > self.cfg.sup.max_retries {
                        return Err(e);
                    }
                    let delay_ms = self.cfg.backoff_ms().delay(attempts);
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
            }
        }
    }

    /// One connect plus `Auth` exchange, both before `deadline`.
    fn open(&mut self, deadline: Instant) -> io::Result<()> {
        let stream = dial(&self.cfg.addr, deadline)?;
        stream.set_write_timeout(Some(self.cfg.budget()))?;
        let _ = stream.set_nodelay(true);
        self.stream = Some(stream);
        self.armed = None;
        self.decoder = Decoder::new();
        self.authenticate(deadline)
    }

    /// Presents the configured auth token on a fresh connection; no-op
    /// without one. A typed `Unauthorized` rejection becomes
    /// `PermissionDenied` (terminal — see [`ClientConfig::token`]); any
    /// transport failure drops the stream so a retry reconnects.
    fn authenticate(&mut self, deadline: Instant) -> io::Result<()> {
        let Some(token) = self.cfg.token.clone() else {
            return Ok(());
        };
        let bytes = Frame::Auth { token }
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let reply = match self.exchange(&bytes, deadline) {
            Ok(reply) => reply,
            Err(e) => {
                self.force_disconnect();
                return Err(e);
            }
        };
        match reply {
            Frame::Ack { .. } => Ok(()),
            Frame::Error { code, detail } => {
                self.force_disconnect();
                let kind = if code == ErrorCode::Unauthorized {
                    io::ErrorKind::PermissionDenied
                } else {
                    io::ErrorKind::ConnectionRefused
                };
                Err(io::Error::new(kind, format!("auth rejected: {detail}")))
            }
            other => {
                self.force_disconnect();
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected reply to Auth: tag {}", other.tag()),
                ))
            }
        }
    }

    /// Sends one frame and waits for its reply.
    pub fn request(&mut self, frame: &Frame) -> io::Result<Frame> {
        let bytes = frame
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.request_encoded(&bytes)
    }

    /// Sends pre-encoded bytes (possibly deliberately corrupted — the
    /// load generator's fault path) and waits for one reply frame.
    pub fn request_encoded(&mut self, bytes: &[u8]) -> io::Result<Frame> {
        let mut attempts: u32 = 0;
        loop {
            match self.try_request(bytes) {
                Ok(frame) => return Ok(frame),
                // A typed auth rejection is terminal: retrying resends
                // the same wrong token.
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                Err(e) => {
                    // The connection is suspect (a late reply must never
                    // be read as the next request's); rebuild it and
                    // retry the whole request.
                    self.force_disconnect();
                    attempts += 1;
                    if attempts > self.cfg.sup.max_retries {
                        return Err(e);
                    }
                    let delay_ms = self.cfg.backoff_ms().delay(attempts);
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
            }
        }
    }

    /// One attempt: (re)connect if needed, then send and await the
    /// reply, all against one deadline.
    fn try_request(&mut self, bytes: &[u8]) -> io::Result<Frame> {
        let deadline = match self.stream {
            Some(_) => Instant::now() + self.cfg.budget(),
            None => self.reconnect()?,
        };
        self.exchange(bytes, deadline)
    }

    /// Writes pre-framed bytes on the held stream and reads one reply
    /// before `deadline`. The read timeout is re-armed only when it has
    /// drifted from what is left of the deadline — after a connect, or
    /// on a later read of a reply that spans several — so a reply that
    /// arrives in one read on an established connection costs exactly
    /// one write and one read.
    fn exchange(&mut self, bytes: &[u8], deadline: Instant) -> io::Result<Frame> {
        let stream = self.stream.as_mut().expect("connected");
        stream.write_all(bytes).map_err(past_deadline)?;
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => {
                    // The server sent something undecodable; the
                    // connection state is unknowable. Surface as I/O.
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(deadline_exceeded());
            }
            if self.armed.is_none_or(|a| a.abs_diff(left) > REARM_SLACK) {
                stream.set_read_timeout(Some(left))?;
                self.armed = Some(left);
            }
            let n = stream.read(&mut self.read_buf).map_err(past_deadline)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                ));
            }
            self.decoder.push(&self.read_buf[..n]);
        }
    }
}

/// `connect_timeout` over every address `addr` resolves to, each try
/// getting what is left of `deadline`.
fn dial(addr: &str, deadline: Instant) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("address {addr:?} resolves to nothing"),
    );
    for sa in addr.to_socket_addrs()? {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(deadline_exceeded());
        }
        match TcpStream::connect_timeout(&sa, left) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn deadline_exceeded() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "attempt deadline exceeded")
}

/// An expired socket timeout reads as `WouldBlock` on Unix; callers see
/// the deadline it enforces.
fn past_deadline(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        deadline_exceeded()
    } else {
        e
    }
}

/// `ReplStatus` against `addr` in one attempt over a throwaway
/// connection (`timeout_ms` covers connect, auth and reply; no retry):
/// [`Probe::Unreachable`] when the node is unreachable or answers
/// anything but a status reply.
pub(crate) fn probe_repl_status(addr: &str, token: Option<String>, timeout_ms: u64) -> Probe {
    let cfg = ClientConfig::single_attempt(addr, timeout_ms, token);
    match ServiceClient::new(cfg).request(&Frame::ReplStatus) {
        Ok(Frame::ReplStatusReply {
            role,
            epoch,
            applied_seq,
            ..
        }) => Probe::Reached {
            role,
            epoch,
            applied: applied_seq,
        },
        _ => Probe::Unreachable,
    }
}
