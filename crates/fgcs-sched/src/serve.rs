//! The `fgcs-sched` service: a thin wire API over the scheduler loop.
//!
//! Two threads, whatever the connection count. One is a frame-server
//! event loop — `fgcs_service::EventLoop`, the skeleton the
//! availability service's loops run on (Linux only) — answering the
//! `Frame::Sched*` vocabulary. The other is a tick loop that polls the
//! [`AvailabilitySource`] and drives the scheduler — revocations first
//! (any occupied host that stopped being harvestable kills its guest),
//! then progress accrual, then the SLO migration sweep, then placement
//! of the queue. Each tick reads its guests' hosts' survival *before*
//! the stats that decide revocation, so a host that dies mid-tick is
//! booked as the revocation it is.
//!
//! The scheduler clock is *logical*: every tick advances it by
//! [`SchedServeConfig::tick_secs`] guest-seconds, decoupling test/demo
//! pacing from wall time (a demo can run a simulated hour per wall
//! second). Requests serialize against the tick loop on one mutex — the
//! scheduler state is small, and ticks are dominated by source round
//! trips taken *outside* the lock where possible. A panic under that
//! lock poisons it: from then on every request is answered
//! `Error { Internal }` on a connection that stays open, and the tick
//! loop stops.

use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use fgcs_wire::{ErrorCode, Frame};

use crate::sched::{Job, JobState, SchedConfig, Scheduler, SubmitError};
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

struct Clock {
    sched: Scheduler,
    now: u64,
}

/// A running scheduler service. Dropping without [`SchedServer::shutdown`]
/// leaks the threads; tests and the binary always shut down.
pub struct SchedServer {
    clock: Arc<Mutex<Clock>>,
    local_addr: SocketAddr,
    #[cfg(target_os = "linux")]
    event_loop: fgcs_service::EventLoop,
    /// Dropped to stop the tick loop.
    stop_tick: Sender<()>,
    tick: JoinHandle<()>,
}

impl SchedServer {
    /// Binds `cfg.addr`, registers `users` as `(id, base quota)`, and
    /// starts the event loop and the tick loop over `source`. Linux
    /// only: elsewhere it returns `ErrorKind::Unsupported`.
    pub fn start<S>(
        cfg: SchedServeConfig,
        sched_cfg: SchedConfig,
        users: &[(u32, u64)],
        source: S,
    ) -> io::Result<SchedServer>
    where
        S: AvailabilitySource + Send + 'static,
    {
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (cfg, sched_cfg, users, source);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the scheduler's event loop requires Linux",
            ))
        }
        #[cfg(target_os = "linux")]
        {
            let lookahead = sched_cfg.migrate_lookahead;
            let mut sched = Scheduler::new(sched_cfg);
            for &(user, base) in users {
                sched.add_user(user, base);
            }
            let listener = std::net::TcpListener::bind(&cfg.addr)?;
            let local_addr = listener.local_addr()?;
            let clock = Arc::new(Mutex::new(Clock { sched, now: 0 }));
            let handler = SchedLoop {
                clock: Arc::clone(&clock),
                default_base: cfg.default_base,
                open_conns: Default::default(),
            };
            let event_loop = fgcs_service::EventLoop::spawn(
                listener,
                fgcs_service::DEFAULT_MAX_CONNECTIONS,
                handler,
            )?;
            let (stop_tick, stop) = std::sync::mpsc::channel();
            let tick = {
                let clock = Arc::clone(&clock);
                let tick = Duration::from_millis(cfg.tick_ms.max(1));
                let tick_secs = cfg.tick_secs.max(1);
                std::thread::spawn(move || {
                    tick_loop(&clock, source, &stop, tick, tick_secs, lookahead)
                })
            };
            Ok(SchedServer {
                clock,
                local_addr,
                event_loop,
                stop_tick,
                tick,
            })
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current scheduler counters (read through a poisoned lock: they
    /// are plain numbers, consistent as of the panic).
    pub fn stats(&self) -> fgcs_wire::SchedStatsPayload {
        let clock = self.clock.lock().unwrap_or_else(PoisonError::into_inner);
        clock.sched.stats()
    }

    /// Stops both threads and joins them.
    pub fn shutdown(self) {
        #[cfg(target_os = "linux")]
        {
            self.event_loop.stop();
            self.event_loop.join();
        }
        drop(self.stop_tick);
        let _ = self.tick.join();
    }
}

/// Ticks every `tick` until the server's stop sender is dropped, or
/// until the scheduler lock is found poisoned.
#[cfg(target_os = "linux")]
fn tick_loop<S: AvailabilitySource>(
    clock: &Mutex<Clock>,
    mut source: S,
    stop: &Receiver<()>,
    tick: Duration,
    tick_secs: u64,
    lookahead: u64,
) {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(tick) {
        // Read order keeps the books right: each guest's host is asked
        // for its survival first, the stats that decide revocation
        // second. A host that dies in between is alive to the older
        // read and dead to the newer, so its guest is evicted; read the
        // other way round, the stats still say harvestable, a dead
        // machine's survival is 0, and the kill is booked as an SLO
        // migration. Only this thread places or retires guests, so the
        // host set cannot change before the lock below; both reads
        // stay outside it (one round trip per host, one per shard).
        let Ok(hosts) = clock.lock().map(|c| c.sched.hosts()) else {
            return;
        };
        let outlook: Vec<(u32, f64)> = hosts
            .iter()
            .map(|&(m, _)| (m, source.survival(m, lookahead).unwrap_or(1.0)))
            .collect();
        let views = match source.machines() {
            Ok(v) => v,
            Err(_) => continue, // cluster briefly unreachable: skip the tick
        };
        let Ok(mut clock) = clock.lock() else {
            return;
        };
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

/// The scheduler's half of the event loop.
#[cfg(target_os = "linux")]
struct SchedLoop {
    clock: Arc<Mutex<Clock>>,
    default_base: u64,
    open_conns: std::sync::atomic::AtomicU64,
}

#[cfg(target_os = "linux")]
impl fgcs_service::LoopHandler for SchedLoop {
    type Conn = ();

    fn handle(&mut self, frame: Frame, _: &mut ()) -> fgcs_service::Outcome {
        fgcs_service::Outcome::Reply(match self.clock.lock() {
            Ok(mut clock) => answer(frame, &mut clock, self.default_base),
            Err(_) => Frame::Error {
                code: ErrorCode::Internal,
                detail: "scheduler state is poisoned by an earlier panic".to_string(),
            },
        })
    }

    fn open_conns(&self) -> &std::sync::atomic::AtomicU64 {
        &self.open_conns
    }
}

fn job_reply(job: &Job) -> Frame {
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

fn quota_error(detail: String) -> Frame {
    Frame::Error {
        code: ErrorCode::QuotaExceeded,
        detail,
    }
}

/// Answers one request under the scheduler lock.
fn answer(frame: Frame, clock: &mut Clock, default_base: u64) -> Frame {
    if let Frame::SchedSubmit { user, .. } | Frame::SchedShare { user, .. } = frame {
        if !clock.sched.has_user(user) && default_base > 0 {
            clock.sched.add_user(user, default_base);
        }
    }
    let now = clock.now;
    let sched = &mut clock.sched;
    match frame {
        Frame::SchedSubmit { user, work } => match sched.submit(user, work, now) {
            Ok(id) => job_reply(sched.job(id).expect("a new job exists")),
            Err(SubmitError::QuotaExceeded) => {
                quota_error(format!("user {user} backlog at quota cap"))
            }
            Err(SubmitError::UnknownUser) => {
                quota_error(format!("user {user} not registered (zero allowance)"))
            }
        },
        Frame::SchedQueryJob { id } => match sched.job(id) {
            Some(job) => job_reply(job),
            None => Frame::Error {
                code: ErrorCode::UnknownJob,
                detail: format!("job {id}"),
            },
        },
        // Strict mode: the ledger grows only by registration.
        Frame::SchedShare { user, .. } if !sched.has_user(user) => {
            quota_error(format!("user {user} not registered"))
        }
        Frame::SchedShare { user, op, amount } => {
            match op {
                1 => {
                    sched.share_request(user, amount);
                }
                2 => {
                    sched.share_release(user, amount);
                }
                _ => {}
            }
            let st = sched.share_status(user);
            Frame::SchedShareReply {
                user,
                base: st.base,
                extra: st.extra,
                in_use: st.in_use,
                pool_free: st.pool_free,
            }
        }
        Frame::SchedQueryStats => Frame::SchedStatsReply(sched.stats()),
        other => Frame::Error {
            code: ErrorCode::Unsupported,
            detail: format!("scheduler cannot answer tag {}", other.tag()),
        },
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use fgcs_service::{LoopHandler, Outcome};

    #[test]
    fn a_poisoned_scheduler_lock_is_a_typed_error_and_the_connection_survives() {
        let mut sched = Scheduler::new(SchedConfig::default());
        sched.add_user(1, 1);
        let clock = Arc::new(Mutex::new(Clock { sched, now: 0 }));
        let mut handler = SchedLoop {
            clock: Arc::clone(&clock),
            default_base: 0,
            open_conns: Default::default(),
        };
        assert!(matches!(
            handler.handle(Frame::SchedQueryStats, &mut ()),
            Outcome::Reply(Frame::SchedStatsReply(_))
        ));

        // A panic while the scheduler lock is held, as a scheduler bug
        // under the tick would leave it.
        let held = Arc::clone(&clock);
        let panicked = std::thread::spawn(move || {
            let _held = held.lock().unwrap();
            panic!("poisoning the scheduler on purpose");
        })
        .join();
        assert!(panicked.is_err());

        // A plain reply, not a reply-then-close: the connection stays.
        for frame in [Frame::SchedQueryStats, Frame::SchedQueryJob { id: 1 }] {
            match handler.handle(frame, &mut ()) {
                Outcome::Reply(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::Internal),
                other => panic!("expected an Internal error reply, got {other:?}"),
            }
        }
        // The counters stay readable through the poisoned lock.
        let clock = clock.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(clock.sched.stats().submitted, 0);
    }
}
