//! The load generator: one thread, a few connections, one request
//! outstanding per connection (closed loop), because the protocol is one
//! reply per frame and every client in the repo blocks on its reply. The
//! open-loop variant exists only for the informational `openloop.*`
//! rows; see the README for why its tail cannot be a headline here.
//!
//! A run is cut into slices of a fixed number of replies. Throughput and
//! latency are reported as medians over slices, so a stall that hits one
//! slice does not move the figure, and a slice always holds the same
//! work whatever the host's speed.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use crate::adapter::Frame;

/// What a request asks of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `SampleBatch`, answered by `Ack`.
    Ingest = 0,
    /// A `QueryAvail`, answered by `AvailReply`.
    Query = 1,
    /// A `Place`, answered by `PlaceReply`.
    Place = 2,
}

pub const KINDS: usize = 3;

/// One request, with what the harness must remember about it.
#[derive(Debug, Clone)]
pub struct Op {
    pub frame: Frame,
    pub kind: Kind,
    /// Machine the request names (0 for `Place`).
    pub machine: u32,
    /// Samples carried (0 for reads).
    pub samples: u32,
    /// For a batch: its index in its machine's stream of batches, so the
    /// replay can find the same samples again.
    pub frame_idx: u32,
}

pub enum Event {
    Reply { slot: usize, frame: Frame },
    Closed { slot: usize },
}

/// Connections to a server, addressed by slot. `adapter::Pool` is the
/// real one; the tests substitute a scripted fake.
pub trait Transport {
    fn slots(&self) -> usize;
    /// `false` means the slot is dead and the frame was not sent.
    fn send(&mut self, slot: usize, frame: &Frame) -> bool;
    /// Waits up to `timeout_ms` and appends what happened.
    fn poll(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()>;
}

/// Client-side accounting. The identity `ok + busys + errors + lost ==
/// sent` holds by construction and is asserted by the correctness gate
/// against the server's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sent: u64,
    /// Requests answered by the reply their kind expects.
    pub ok: u64,
    pub busys: u64,
    /// `Error` replies, and replies of the wrong type.
    pub errors: u64,
    /// Requests that never got a reply: dead slot, closed connection,
    /// or silence past the stall limit.
    pub lost: u64,
    pub ok_by_kind: [u64; KINDS],
    /// Samples inside acknowledged batches.
    pub samples_ok: u64,
}

impl Counts {
    pub fn replies(&self) -> u64 {
        self.ok + self.busys + self.errors
    }

    pub fn failed(&self) -> u64 {
        self.busys + self.errors + self.lost
    }

    pub fn accounted(&self) -> bool {
        self.replies() + self.lost == self.sent
    }

    pub fn add(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busys += o.busys;
        self.errors += o.errors;
        self.lost += o.lost;
        self.samples_ok += o.samples_ok;
        for k in 0..KINDS {
            self.ok_by_kind[k] += o.ok_by_kind[k];
        }
    }
}

/// One slice of a window: a fixed number of replies.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub elapsed_ns: u64,
    pub replies: u64,
    pub samples: u64,
    /// Where this slice's latencies end in `Window::lat_ns`, per kind.
    pub lat_end: [usize; KINDS],
}

/// A request picked by the 1-in-N sampler of a traced run.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// Sequence number of the request in the window.
    pub req: u64,
    pub op: Op,
    /// Send and reply times on the tracer's clock.
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Window {
    pub counts: Counts,
    /// Send→reply time of every answered request, ns, by kind.
    pub lat_ns: [Vec<u32>; KINDS],
    pub slices: Vec<Slice>,
    pub elapsed_ns: u64,
    pub sampled: Vec<Sampled>,
    /// `(machine, reply)` of every read, when asked for.
    pub read_replies: Vec<(u32, Frame)>,
}

pub struct LoopCfg {
    /// Replies per slice.
    pub slice_replies: u64,
    /// Stop issuing at the first slice boundary past this many seconds;
    /// `None` runs until the source is exhausted.
    pub seconds: Option<f64>,
    /// Keep every N-th request for the replay; 0 keeps none.
    pub sample_every: u64,
    pub keep_read_replies: bool,
    /// Clock origin for `Sampled` times.
    pub epoch: Instant,
}

/// A connection silent for this long has lost its request.
const STALL_LIMIT: Duration = Duration::from_secs(20);

struct Pending {
    op_kind: Kind,
    machine: u32,
    samples: u32,
    sent: Instant,
    sampled: Option<usize>,
}

fn clamp_ns(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Drives `next` through `transport` with one request outstanding per
/// slot. `next(slot)` yields the slot's next request, or `None` when the
/// slot has nothing more to send; `at_slice` runs at every slice
/// boundary (the serve workloads sample server gauges there).
pub fn run<T: Transport>(
    transport: &mut T,
    cfg: &LoopCfg,
    mut next: impl FnMut(usize) -> Option<Op>,
    mut at_slice: impl FnMut(&Slice),
) -> io::Result<Window> {
    let slots = transport.slots();
    let mut w = Window::default();
    let mut pending: Vec<Option<Pending>> = (0..slots).map(|_| None).collect();
    let mut outstanding = 0usize;
    let mut stopping = false;
    let start = Instant::now();
    let mut slice_start = start;
    let (mut slice_replies, mut slice_samples) = (0u64, 0u64);
    let mut last_progress = start;
    let mut events = Vec::new();

    macro_rules! issue {
        ($slot:expr) => {
            if let Some(op) = next($slot) {
                let req = w.counts.sent;
                w.counts.sent += 1;
                let sent = Instant::now();
                if transport.send($slot, &op.frame) {
                    let sampled =
                        (cfg.sample_every > 0 && req % cfg.sample_every == 0).then(|| {
                            let at = sent.duration_since(cfg.epoch).as_nanos() as u64;
                            w.sampled.push(Sampled {
                                req,
                                op: op.clone(),
                                start_ns: at,
                                end_ns: at,
                            });
                            w.sampled.len() - 1
                        });
                    pending[$slot] = Some(Pending {
                        op_kind: op.kind,
                        machine: op.machine,
                        samples: op.samples,
                        sent,
                        sampled,
                    });
                    outstanding += 1;
                } else {
                    w.counts.lost += 1;
                }
            }
        };
    }

    #[allow(clippy::needless_range_loop)] // `issue!` indexes more than `pending` by slot
    for slot in 0..slots {
        issue!(slot);
    }
    while outstanding > 0 {
        events.clear();
        transport.poll(100, &mut events)?;
        if events.is_empty() {
            if last_progress.elapsed() > STALL_LIMIT {
                w.counts.lost += outstanding as u64;
                break;
            }
            continue;
        }
        last_progress = Instant::now();
        for ev in events.drain(..) {
            match ev {
                Event::Closed { slot } => {
                    if pending[slot].take().is_some() {
                        w.counts.lost += 1;
                        outstanding -= 1;
                    }
                }
                Event::Reply { slot, frame } => {
                    let Some(p) = pending[slot].take() else {
                        w.counts.errors += 1; // a reply nobody asked for
                        continue;
                    };
                    outstanding -= 1;
                    let now = Instant::now();
                    let k = p.op_kind as usize;
                    match (p.op_kind, &frame) {
                        (Kind::Ingest, Frame::Ack { .. })
                        | (Kind::Query, Frame::AvailReply { .. })
                        | (Kind::Place, Frame::PlaceReply { .. }) => {
                            w.counts.ok += 1;
                            w.counts.ok_by_kind[k] += 1;
                            w.counts.samples_ok += p.samples as u64;
                            w.lat_ns[k].push(clamp_ns(now.duration_since(p.sent)));
                            slice_samples += p.samples as u64;
                        }
                        (_, Frame::Busy { .. }) => w.counts.busys += 1,
                        _ => w.counts.errors += 1,
                    }
                    if let Some(i) = p.sampled {
                        w.sampled[i].end_ns = now.duration_since(cfg.epoch).as_nanos() as u64;
                    }
                    if cfg.keep_read_replies && p.op_kind != Kind::Ingest {
                        w.read_replies.push((p.machine, frame));
                    }
                    slice_replies += 1;
                    if slice_replies == cfg.slice_replies && !stopping {
                        let slice = Slice {
                            elapsed_ns: now.duration_since(slice_start).as_nanos() as u64,
                            replies: slice_replies,
                            samples: slice_samples,
                            lat_end: [w.lat_ns[0].len(), w.lat_ns[1].len(), w.lat_ns[2].len()],
                        };
                        at_slice(&slice);
                        w.slices.push(slice);
                        // The hook's own time belongs to no slice.
                        slice_start = Instant::now();
                        (slice_replies, slice_samples) = (0, 0);
                        stopping = cfg
                            .seconds
                            .is_some_and(|s| start.elapsed().as_secs_f64() >= s);
                    }
                    if !stopping {
                        issue!(slot);
                    }
                }
            }
        }
    }
    w.elapsed_ns = start.elapsed().as_nanos() as u64;
    Ok(w)
}

/// Result of an open-loop run: latency timed from when each request was
/// *due*, and how late the generator itself ran.
#[derive(Default)]
pub struct OpenWindow {
    pub counts: Counts,
    pub lat_ns: Vec<u32>,
    pub late_ns: Vec<u32>,
}

/// Sends on a fixed schedule of `rate_per_s` for `seconds`, whatever the
/// replies do, spreading requests round-robin over the slots (several
/// may be in flight per connection; replies come back in order).
pub fn run_open<T: Transport>(
    transport: &mut T,
    rate_per_s: f64,
    seconds: f64,
    mut next: impl FnMut(usize) -> Option<Op>,
) -> io::Result<OpenWindow> {
    let slots = transport.slots();
    let total = (rate_per_s * seconds) as u64;
    let gap_ns = 1e9 / rate_per_s;
    let mut w = OpenWindow::default();
    let mut due: Vec<VecDeque<Instant>> = (0..slots).map(|_| VecDeque::new()).collect();
    let mut outstanding = 0usize;
    let mut events = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    let mut exhausted = false;
    let mut last_progress = start;
    while (k < total && !exhausted) || outstanding > 0 {
        let now = Instant::now();
        while k < total && !exhausted {
            let due_at = start + Duration::from_nanos((k as f64 * gap_ns) as u64);
            if due_at > now {
                break;
            }
            let slot = (k % slots as u64) as usize;
            let Some(op) = next(slot) else {
                exhausted = true;
                break;
            };
            k += 1;
            w.counts.sent += 1;
            w.late_ns
                .push(clamp_ns(Instant::now().duration_since(due_at)));
            if transport.send(slot, &op.frame) {
                due[slot].push_back(due_at);
                outstanding += 1;
            } else {
                w.counts.lost += 1;
            }
        }
        events.clear();
        transport.poll(0, &mut events)?;
        if events.is_empty() {
            if last_progress.elapsed() > STALL_LIMIT {
                w.counts.lost += outstanding as u64;
                break;
            }
            continue;
        }
        last_progress = Instant::now();
        for ev in events.drain(..) {
            match ev {
                Event::Closed { slot } => {
                    let n = due[slot].len();
                    due[slot].clear();
                    w.counts.lost += n as u64;
                    outstanding -= n;
                }
                Event::Reply { slot, frame } => {
                    let Some(due_at) = due[slot].pop_front() else {
                        w.counts.errors += 1;
                        continue;
                    };
                    outstanding -= 1;
                    match frame {
                        Frame::Ack { .. } => {
                            w.counts.ok += 1;
                            w.lat_ns
                                .push(clamp_ns(Instant::now().duration_since(due_at)));
                        }
                        Frame::Busy { .. } => w.counts.busys += 1,
                        _ => w.counts.errors += 1,
                    }
                }
            }
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that answers from a script: every request on a live
    /// slot is answered at the next poll, `Busy` for every `busy_every`-th
    /// request, and slot `close_slot` dies after `close_after` requests
    /// with its last request unanswered.
    struct Fake {
        slots: usize,
        queued: Vec<Event>,
        seen: u64,
        per_slot: Vec<u64>,
        dead: Vec<bool>,
        busy_every: u64,
        close_slot: usize,
        close_after: u64,
    }

    impl Transport for Fake {
        fn slots(&self) -> usize {
            self.slots
        }

        fn send(&mut self, slot: usize, frame: &Frame) -> bool {
            if self.dead[slot] {
                return false;
            }
            self.seen += 1;
            self.per_slot[slot] += 1;
            if slot == self.close_slot && self.per_slot[slot] == self.close_after {
                self.dead[slot] = true;
                self.queued.push(Event::Closed { slot });
                return true;
            }
            let reply = if self.seen.is_multiple_of(self.busy_every) {
                Frame::Busy { shed_batches: 1 }
            } else {
                match frame {
                    Frame::SampleBatch { .. } => Frame::Ack { seq: self.seen },
                    Frame::QueryAvail { machine, .. } => Frame::AvailReply {
                        machine: *machine,
                        state: 1,
                        prob: 0.5,
                    },
                    _ => Frame::PlaceReply {
                        machine: None,
                        prob: 0.0,
                    },
                }
            };
            self.queued.push(Event::Reply { slot, frame: reply });
            true
        }

        fn poll(&mut self, _timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            out.append(&mut self.queued);
            Ok(())
        }
    }

    fn batch_op(slot: usize, i: u32) -> Op {
        Op {
            frame: Frame::SampleBatch {
                machine: slot as u32,
                samples: Vec::new(),
            },
            kind: Kind::Ingest,
            machine: slot as u32,
            samples: 4,
            frame_idx: i,
        }
    }

    #[test]
    fn every_request_is_accounted_for_exactly_once() {
        let mut fake = Fake {
            slots: 4,
            queued: Vec::new(),
            seen: 0,
            per_slot: vec![0; 4],
            dead: vec![false; 4],
            busy_every: 7,
            close_slot: 2,
            close_after: 5,
        };
        let mut issued = [0u32; 4];
        let cfg = LoopCfg {
            slice_replies: 10,
            seconds: None,
            sample_every: 8,
            keep_read_replies: false,
            epoch: Instant::now(),
        };
        let mut slices_seen = 0;
        let w = run(
            &mut fake,
            &cfg,
            |slot| {
                (issued[slot] < 25).then(|| {
                    issued[slot] += 1;
                    batch_op(slot, issued[slot] - 1)
                })
            },
            |_| slices_seen += 1,
        )
        .unwrap();

        let c = w.counts;
        // Slot 2 sent 5 and lost the fifth; the other three sent 25 each.
        assert_eq!(c.sent, 80);
        assert_eq!(c.lost, 1);
        assert!(c.accounted(), "{c:?}");
        assert_eq!(c.replies(), 79);
        assert_eq!(c.busys, 80 / 7);
        assert_eq!(c.errors, 0);
        assert_eq!(c.ok, 79 - c.busys);
        assert_eq!(c.samples_ok, 4 * c.ok);
        assert_eq!(c.failed(), c.busys + 1);
        assert_eq!(w.lat_ns[Kind::Ingest as usize].len() as u64, c.ok);
        // 79 replies make 7 full slices of 10; the tail belongs to none.
        assert_eq!(w.slices.len(), 7);
        assert_eq!(slices_seen, 7);
        assert!(w.slices.iter().all(|s| s.replies == 10));
        // Requests 0, 8, 16, … were sampled, each with a send time.
        assert_eq!(w.sampled.len(), 10);
        assert!(w.sampled.iter().all(|s| s.req % 8 == 0));
    }

    #[test]
    fn a_time_limit_stops_issuing_at_a_slice_boundary() {
        let mut fake = Fake {
            slots: 2,
            queued: Vec::new(),
            seen: 0,
            per_slot: vec![0; 2],
            dead: vec![false; 2],
            busy_every: u64::MAX,
            close_slot: usize::MAX,
            close_after: 0,
        };
        let cfg = LoopCfg {
            slice_replies: 100,
            seconds: Some(0.0),
            sample_every: 0,
            keep_read_replies: false,
            epoch: Instant::now(),
        };
        let w = run(&mut fake, &cfg, |slot| Some(batch_op(slot, 0)), |_| {}).unwrap();
        // The limit is already past at the first boundary: one slice,
        // plus the one request the other slot still had in flight.
        assert_eq!(w.slices.len(), 1);
        assert_eq!(w.counts.sent, 101);
        assert!(w.counts.accounted());
        assert_eq!(w.counts.failed(), 0);
    }

    #[test]
    fn open_loop_sends_the_schedule_and_times_from_due() {
        let mut fake = Fake {
            slots: 2,
            queued: Vec::new(),
            seen: 0,
            per_slot: vec![0; 2],
            dead: vec![false; 2],
            busy_every: u64::MAX,
            close_slot: usize::MAX,
            close_after: 0,
        };
        let w = run_open(&mut fake, 10_000.0, 0.05, |slot| Some(batch_op(slot, 0))).unwrap();
        assert_eq!(w.counts.sent, 500);
        assert_eq!(w.counts.ok, 500);
        assert_eq!(w.lat_ns.len(), 500);
        assert_eq!(w.late_ns.len(), 500);
    }
}
