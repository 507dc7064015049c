//! The `fgcs-sched` service: a thin wire API over the scheduler loop.
//!
//! Two threads: an accept loop answering the `Frame::Sched*` vocabulary
//! (thread-per-connection, same framing as the availability service),
//! and a tick loop that polls the [`AvailabilitySource`] and drives the
//! scheduler — revocations first (any occupied host that stopped being
//! harvestable kills its guest), then progress accrual, then the SLO
//! migration sweep, then placement of the queue. Each tick reads its
//! guests' hosts' survival *before* the stats that decide revocation,
//! so a host that dies mid-tick is booked as the revocation it is.
//!
//! The scheduler clock is *logical*: every tick advances it by
//! [`SchedServeConfig::tick_secs`] guest-seconds, decoupling test/demo
//! pacing from wall time (a demo can run a simulated hour per wall
//! second). Submissions and queries serialize against the tick loop on
//! one mutex — the scheduler state is small, and ticks are dominated by
//! source round trips taken *outside* the lock where possible.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fgcs_wire::{Decoder, ErrorCode, Frame};

use crate::sched::{JobState, SchedConfig, Scheduler, SubmitError};
use crate::source::AvailabilitySource;

/// Service-level configuration (scheduler tuning lives in
/// [`SchedConfig`]).
#[derive(Debug, Clone)]
pub struct SchedServeConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Wall-clock tick period.
    pub tick_ms: u64,
    /// Guest-seconds the logical clock advances per tick.
    pub tick_secs: u64,
    /// Auto-register unknown submitting users with this base quota
    /// (0 = strict: unknown users are refused).
    pub default_base: u64,
}

impl Default for SchedServeConfig {
    fn default() -> SchedServeConfig {
        SchedServeConfig {
            addr: "127.0.0.1:0".to_string(),
            tick_ms: 100,
            tick_secs: 60,
            default_base: 0,
        }
    }
}

struct Inner {
    sched: Mutex<Clock>,
    shutdown: AtomicBool,
    default_base: u64,
}

struct Clock {
    sched: Scheduler,
    now: u64,
}

/// A running scheduler service. Dropping without [`SchedServer::shutdown`]
/// leaks the threads; tests and the binary always shut down.
pub struct SchedServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    tick: Option<std::thread::JoinHandle<()>>,
}

impl SchedServer {
    /// Binds `cfg.addr`, registers `users` as `(id, base quota)`, and
    /// starts the accept + tick threads over `source`.
    pub fn start<S>(
        cfg: SchedServeConfig,
        sched_cfg: SchedConfig,
        users: &[(u32, u64)],
        source: S,
    ) -> io::Result<SchedServer>
    where
        S: AvailabilitySource + Send + 'static,
    {
        let lookahead = sched_cfg.migrate_lookahead;
        let mut sched = Scheduler::new(sched_cfg);
        for &(user, base) in users {
            sched.add_user(user, base);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            sched: Mutex::new(Clock { sched, now: 0 }),
            shutdown: AtomicBool::new(false),
            default_base: cfg.default_base,
        });

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(listener, inner))
        };
        let tick = {
            let inner = Arc::clone(&inner);
            let tick_ms = cfg.tick_ms.max(1);
            let tick_secs = cfg.tick_secs.max(1);
            std::thread::spawn(move || tick_loop(inner, source, tick_ms, tick_secs, lookahead))
        };
        Ok(SchedServer {
            inner,
            local_addr,
            accept: Some(accept),
            tick: Some(tick),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> fgcs_wire::SchedStatsPayload {
        self.inner.sched.lock().unwrap().sched.stats()
    }

    /// Stops both threads and joins them.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.tick.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &inner);
        });
    }
}

fn tick_loop<S: AvailabilitySource>(
    inner: Arc<Inner>,
    mut source: S,
    tick_ms: u64,
    tick_secs: u64,
    lookahead: u64,
) {
    while !inner.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(tick_ms));
        // Read order keeps the books right: each guest's host is asked
        // for its survival first, the stats that decide revocation
        // second. A host that dies in between is alive to the older
        // read and dead to the newer, so its guest is evicted; read the
        // other way round, the stats still say harvestable, a dead
        // machine's survival is 0, and the kill is booked as an SLO
        // migration. Only this thread places or retires guests, so the
        // host set cannot change before the lock below; both reads
        // stay outside it (one round trip per host, one per shard).
        let hosts = inner.sched.lock().unwrap().sched.hosts();
        let outlook: Vec<(u32, f64)> = hosts
            .iter()
            .map(|&(m, _)| (m, source.survival(m, lookahead).unwrap_or(1.0)))
            .collect();
        let views = match source.machines() {
            Ok(v) => v,
            Err(_) => continue, // cluster briefly unreachable: skip the tick
        };
        let mut clock = inner.sched.lock().unwrap();
        clock.now += tick_secs;
        let now = clock.now;
        // Revocations: the service reported a transition out of the
        // available states under a guest (or the machine vanished).
        for &(machine, _) in &hosts {
            let gone = !views.iter().any(|v| v.machine == machine && v.harvestable);
            if gone {
                clock.sched.on_unavailable(machine, now);
            }
        }
        clock.sched.advance(now);
        clock.sched.check_migrations(now, &mut |m, _| {
            outlook.iter().find(|r| r.0 == m).map_or(1.0, |r| r.1)
        });
        clock.sched.place(now, &views, &mut |m, w| {
            source.survival(m, w).unwrap_or(1.0)
        });
    }
}

fn serve_connection(mut stream: TcpStream, inner: &Arc<Inner>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut dec = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => dec.push(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    let reply = handle(&frame, inner);
                    let bytes = reply.encode().map_err(io::Error::other)?;
                    stream.write_all(&bytes)?;
                }
                Ok(None) => break,
                Err(e) if e.is_fatal() => return Ok(()),
                Err(_) => {
                    let reply = Frame::Error {
                        code: ErrorCode::BadFrame,
                        detail: "undecodable frame".to_string(),
                    };
                    stream.write_all(&reply.encode().map_err(io::Error::other)?)?;
                }
            }
        }
    }
}

fn job_reply(sched: &Scheduler, id: u64) -> Frame {
    let job = sched.job(id).expect("caller checked the id");
    Frame::SchedJobReply {
        id: job.id,
        user: job.user,
        state: job.state.code(),
        machine: match job.state {
            JobState::Running { machine, .. } => Some(machine),
            _ => None,
        },
        done: job.done,
        work: job.work,
        evictions: job.evictions,
        migrations: job.migrations,
    }
}

fn handle(frame: &Frame, inner: &Arc<Inner>) -> Frame {
    match frame {
        Frame::SchedSubmit { user, work } => {
            let mut clock = inner.sched.lock().unwrap();
            if !clock.sched.has_user(*user) && inner.default_base > 0 {
                clock.sched.add_user(*user, inner.default_base);
            }
            let now = clock.now;
            match clock.sched.submit(*user, *work, now) {
                Ok(id) => job_reply(&clock.sched, id),
                Err(SubmitError::QuotaExceeded) => Frame::Error {
                    code: ErrorCode::QuotaExceeded,
                    detail: format!("user {user} backlog at quota cap"),
                },
                Err(SubmitError::UnknownUser) => Frame::Error {
                    code: ErrorCode::QuotaExceeded,
                    detail: format!("user {user} not registered (zero allowance)"),
                },
            }
        }
        Frame::SchedQueryJob { id } => {
            let clock = inner.sched.lock().unwrap();
            match clock.sched.job(*id) {
                Some(_) => job_reply(&clock.sched, *id),
                None => Frame::Error {
                    code: ErrorCode::UnknownJob,
                    detail: format!("job {id}"),
                },
            }
        }
        Frame::SchedShare { user, op, amount } => {
            let mut clock = inner.sched.lock().unwrap();
            if !clock.sched.has_user(*user) && inner.default_base > 0 {
                clock.sched.add_user(*user, inner.default_base);
            }
            match op {
                1 => {
                    clock.sched.share_request(*user, *amount);
                }
                2 => {
                    clock.sched.share_release(*user, *amount);
                }
                _ => {}
            }
            let st = clock.sched.share_status(*user);
            Frame::SchedShareReply {
                user: *user,
                base: st.base,
                extra: st.extra,
                in_use: st.in_use,
                pool_free: st.pool_free,
            }
        }
        Frame::SchedQueryStats => {
            let clock = inner.sched.lock().unwrap();
            Frame::SchedStatsReply(clock.sched.stats())
        }
        other => Frame::Error {
            code: ErrorCode::Unsupported,
            detail: format!("scheduler cannot answer tag {}", other.tag()),
        },
    }
}
