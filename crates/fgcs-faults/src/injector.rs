//! Sample-stream and probe-level fault injection.

use std::cell::Cell;
use std::collections::VecDeque;

use fgcs_core::monitor::ResourceProbe;
use fgcs_stats::dist::{Exponential, Geometric, Sample};
use fgcs_stats::rng::Rng;

use crate::{FaultConfig, InjectionStats};

/// Domain-separation constants so the stream, crash and probe RNGs of
/// the same `(seed, machine)` never overlap.
const STREAM_SALT: u64 = 0x6661_756c_7453_7472; // "faultStr"
const CRASH_SALT: u64 = 0x6661_756c_7443_7273; // "faultCrs"
const PROBE_SALT: u64 = 0x6661_756c_7450_7262; // "faultPrb"

/// The stream-level failure modes, indexed in the order
/// [`Injector::push`] tries them.
const RESTART: usize = 0;
const JUMP: usize = 1;
const DROP: usize = 2;
const DELAY: usize = 3;
const DUPLICATE: usize = 4;

/// Anything with a rewritable timestamp — the injector's only
/// requirement on a sample type. Implemented by the testbed's
/// `LoadSample`; implement it for any other observation record to make
/// that stream injectable too.
pub trait Timestamped {
    /// The sample's timestamp, in the stream's time unit.
    fn ts(&self) -> u64;
    /// Overwrites the timestamp (used for clock jumps/skew).
    fn set_ts(&mut self, t: u64);
}

/// A sample held back by a delay fault, due for delivery after
/// `after_slots` more underlying samples have been processed.
#[derive(Debug, Clone)]
struct Delayed<S> {
    sample: S,
    after_slots: u32,
}

/// The stream-level failure modes of a [`FaultConfig`], applied one
/// underlying sample at a time:
///
/// * **drops** — the sample never arrives;
/// * **duplicates** — the sample arrives twice;
/// * **delays** — the sample is held back a few slots and arrives out of
///   order (downstream must discard or reorder stale timestamps);
/// * **monitor restarts** — a contiguous run of samples is lost while
///   the monitor is down (and any cumulative counters it kept restart
///   from zero — see [`FaultyProbe`] for the probe-level counterpart);
/// * **clock jumps** — a persistent offset is added to every subsequent
///   timestamp, forward jumps opening artificial gaps and backward jumps
///   producing non-monotone time.
///
/// Push-style: [`Injector::push`] takes one underlying sample and returns
/// it if it is delivered; the slot's other deliveries wait in order for
/// [`Injector::next_queued`], and [`Injector::finish`] queues what is still
/// in flight at the end. [`FaultStream`] is the iterator adapter over it;
/// a caller walking its own sample source passes fault-free stretches with
/// [`Injector::pass_clean`] without building their samples.
///
/// Each sample outside a restart outage is one Bernoulli trial of each
/// mode the injector tries on it, at the mode's rate. A mode does not
/// draw per trial: it counts down the trials left before its next
/// fault, a [`Geometric`] draw, so a fault-free stretch costs O(1).
///
/// The injection is a pure function of `(cfg.seed, machine_id)` and the
/// input stream: the RNG is drawn only when a fault fires (the mode's
/// next countdown, then a jump's magnitude or a delay's slots), in
/// event order, never depending on a sample's content. With an
/// all-zero config the injector is the identity.
#[derive(Debug, Clone)]
pub struct Injector<S> {
    cfg: FaultConfig,
    rng: Rng,
    stats: InjectionStats,
    /// Samples in flight on the delay path.
    pending: Vec<Delayed<S>>,
    /// Delivered samples waiting behind the one [`Injector::push`]
    /// returned: released delayed samples, then the duplicate.
    queued: VecDeque<S>,
    /// Samples still to swallow for the current monitor restart.
    outage_left: u32,
    /// Cumulative clock offset, seconds (signed).
    clock_offset: i64,
    /// Set when a restart was injected since the last query; lets a
    /// cooperating probe wrapper reset its counters in lockstep.
    restart_pending: bool,
    /// Per mode (indexed by `RESTART` … `DUPLICATE`), the law of
    /// the trials between its faults; `None` for a mode that is off,
    /// by its rate or by its structural knob.
    gaps: [Option<Geometric>; 5],
    /// Per mode, the trials left before its next fault (`u64::MAX`
    /// for a mode that is off).
    countdown: [u64; 5],
}

impl<S: Timestamped + Clone> Injector<S> {
    /// The fault plan for `machine_id`.
    pub fn new(cfg: &FaultConfig, machine_id: u64) -> Self {
        let modes = [
            (cfg.restart_rate, true),
            (cfg.clock_jump_rate, cfg.clock_jump_max_secs > 0),
            (cfg.drop_rate, true),
            (cfg.delay_rate, cfg.max_delay_slots > 0),
            (cfg.duplicate_rate, true),
        ];
        let gaps = modes.map(|(rate, on)| (on && rate > 0.0).then(|| Geometric::new(rate)));
        let mut rng = Rng::for_stream(cfg.seed ^ STREAM_SALT, machine_id);
        let countdown = gaps.map(|g| g.map_or(u64::MAX, |g| g.sample(&mut rng)));
        Injector {
            cfg: cfg.clone(),
            rng,
            stats: InjectionStats::default(),
            pending: Vec::new(),
            queued: VecDeque::new(),
            outage_left: 0,
            clock_offset: 0,
            restart_pending: false,
            gaps,
            countdown,
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// True if a monitor restart was injected since the last call;
    /// clears the flag. The supervisor uses this to reset per-machine
    /// monitor state (counter baselines) at the right sample boundary.
    pub fn take_restart(&mut self) -> bool {
        std::mem::take(&mut self.restart_pending)
    }

    /// The clock offset every delivered timestamp currently carries,
    /// seconds (before the clamp at 0).
    pub fn clock_offset(&self) -> i64 {
        self.clock_offset
    }

    /// True when no sample is in flight on the delay path or queued, and
    /// no monitor restart is swallowing samples: the next underlying
    /// sample's fate is decided by its own draws alone.
    pub fn is_quiet(&self) -> bool {
        self.pending.is_empty() && self.queued.is_empty() && self.outage_left == 0
    }

    /// Feeds one underlying sample and returns it (clock applied) unless
    /// a restart swallowed it or it was dropped or delayed. The slot's
    /// other deliveries — delayed samples released at this slot in
    /// held-back order, then the sample's duplicate — are queued behind
    /// it: drain [`Self::next_queued`] before the next push.
    // Forced, with `inject`: left to the inliner, the per-sample
    // supervised oracle runs 1.2-1.5x slower.
    #[inline(always)]
    pub fn push(&mut self, s: S) -> Option<S> {
        // The delay queue is empty on all but a few samples in a
        // thousand: test, don't walk.
        if !self.pending.is_empty() {
            self.tick_pending();
        }
        let (s, duplicated) = self.inject(s)?;
        if duplicated {
            self.queued.push_back(s.clone());
        }
        Some(s)
    }

    /// The next delivered sample queued by [`Self::push`] or
    /// [`Self::finish`], in delivery order.
    #[inline]
    pub fn next_queued(&mut self) -> Option<S> {
        // Empty on all but a few samples in a thousand: test, don't pop.
        if self.queued.is_empty() {
            None
        } else {
            self.queued.pop_front()
        }
    }

    /// Queues the samples still in flight once the underlying stream has
    /// ended, preserving how long each was held back.
    pub fn finish(&mut self) {
        self.pending.sort_by_key(|d| d.after_slots);
        for d in self.pending.drain(..) {
            self.queued.push_back(d.sample);
        }
    }

    /// Passes up to `n` underlying samples the injector lets through
    /// untouched and returns how many it passed, `k`: each spends one
    /// trial of every mode that is on, and none faults, so `k` is `n` or
    /// the smallest countdown. Each passed sample is delivered once,
    /// unchanged but for [`Self::clock_offset`]; the caller delivers
    /// them itself. When `k < n`, pushing the next sample faults it, as
    /// the per-sample path does.
    ///
    /// Only valid while [`Self::is_quiet`].
    pub fn pass_clean(&mut self, n: u64) -> u64 {
        debug_assert!(self.is_quiet(), "pass_clean with samples in flight");
        let k = self.countdown.iter().fold(n, |k, &c| k.min(c));
        for c in &mut self.countdown {
            *c -= k;
        }
        k
    }

    /// Spends one trial of `mode`: true if it faults, and then the
    /// mode's next countdown is drawn.
    #[inline(always)]
    fn fires(&mut self, mode: usize) -> bool {
        let Some(gap) = self.gaps[mode] else {
            return false;
        };
        if self.countdown[mode] > 0 {
            self.countdown[mode] -= 1;
            return false;
        }
        self.countdown[mode] = gap.sample(&mut self.rng);
        true
    }

    /// Decides one underlying sample's fate: `None` if a restart
    /// swallowed it or it was dropped or delayed, else the sample (clock
    /// applied) and whether it is duplicated.
    #[inline(always)]
    fn inject(&mut self, mut s: S) -> Option<(S, bool)> {
        // Monitor down: the sample is never observed.
        if self.outage_left > 0 {
            self.outage_left -= 1;
            self.stats.lost_in_restart += 1;
            return None;
        }
        if self.fires(RESTART) {
            self.stats.restarts += 1;
            self.restart_pending = true;
            self.outage_left = self.cfg.restart_outage_samples;
            if self.outage_left > 0 {
                self.outage_left -= 1;
                self.stats.lost_in_restart += 1;
                return None;
            }
        }
        if self.fires(JUMP) {
            self.stats.clock_jumps += 1;
            let m = self.cfg.clock_jump_max_secs as i64;
            let jump = self.rng.range_u64(0, 2 * m as u64 + 1) as i64 - m;
            self.clock_offset += jump;
        }
        if self.clock_offset != 0 {
            let t = s.ts() as i64 + self.clock_offset;
            s.set_ts(t.max(0) as u64);
        }

        if self.fires(DROP) {
            self.stats.dropped += 1;
            return None;
        }
        if self.fires(DELAY) {
            self.stats.delayed += 1;
            let slots = self.rng.range_u64(1, self.cfg.max_delay_slots as u64 + 1) as u32;
            self.pending.push(Delayed {
                sample: s,
                after_slots: slots,
            });
            return None;
        }
        let duplicated = self.fires(DUPLICATE);
        if duplicated {
            self.stats.duplicated += 1;
        }
        Some((s, duplicated))
    }

    /// Advances the delay queue by one underlying slot, moving samples
    /// whose delay expired to the delivery queue (in held-back order).
    fn tick_pending(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].after_slots <= 1 {
                let d = self.pending.remove(i);
                self.queued.push_back(d.sample);
            } else {
                self.pending[i].after_slots -= 1;
                i += 1;
            }
        }
    }
}

/// Iterator adapter over an [`Injector`]: injects the stream-level
/// failure modes of a [`FaultConfig`] into any [`Timestamped`] sample
/// stream, delivering samples in the injector's order and flushing
/// delayed samples when the inner stream ends.
#[derive(Debug, Clone)]
pub struct FaultStream<I: Iterator> {
    inner: I,
    injector: Injector<I::Item>,
    inner_done: bool,
}

impl<I> FaultStream<I>
where
    I: Iterator,
    I::Item: Timestamped + Clone,
{
    /// Wraps `inner` with the fault plan for `machine_id`.
    pub fn new(inner: I, cfg: &FaultConfig, machine_id: u64) -> Self {
        FaultStream {
            inner,
            injector: Injector::new(cfg, machine_id),
            inner_done: false,
        }
    }

    /// What has been injected so far (complete once the stream is
    /// exhausted).
    pub fn stats(&self) -> InjectionStats {
        self.injector.stats()
    }

    /// True if a monitor restart was injected since the last call;
    /// clears the flag (see [`Injector::take_restart`]).
    pub fn take_restart(&mut self) -> bool {
        self.injector.take_restart()
    }
}

impl<I> Iterator for FaultStream<I>
where
    I: Iterator,
    I::Item: Timestamped + Clone,
{
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        loop {
            if let Some(s) = self.injector.next_queued() {
                return Some(s);
            }
            if self.inner_done {
                return None;
            }
            let Some(s) = self.inner.next() else {
                self.inner_done = true;
                self.injector.finish();
                continue;
            };
            if let Some(s) = self.injector.push(s) {
                return Some(s);
            }
        }
    }
}

/// The Poisson schedule of tracing-task crashes for one machine — the
/// mid-trace process deaths the testbed supervisor must recover from
/// with capped exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash timestamps, seconds since trace start, strictly increasing.
    pub times: Vec<u64>,
}

impl CrashPlan {
    /// Generates machine `machine_id`'s crash schedule over `span_secs`,
    /// deterministic in `(cfg.seed, machine_id)`.
    pub fn generate(cfg: &FaultConfig, machine_id: u64, span_secs: u64) -> CrashPlan {
        let mut times = Vec::new();
        if cfg.crash_rate_per_day > 0.0 {
            let mut rng = Rng::for_stream(cfg.seed ^ CRASH_SALT, machine_id);
            let gap = Exponential::new(cfg.crash_rate_per_day / 86_400.0);
            let mut t = gap.sample(&mut rng) as u64;
            while t < span_secs {
                times.push(t);
                t += 1 + gap.sample(&mut rng) as u64;
            }
        }
        CrashPlan { times }
    }
}

/// Wraps a [`ResourceProbe`] and injects monitor restarts at the counter
/// level: with probability `restart_rate` per read, the cumulative CPU
/// counters restart from zero — exactly what a rebooted monitor daemon
/// (or `/proc/stat` after a host reboot) presents. A naive consumer that
/// diffs counters across the reset computes a negative busy span and
/// reports garbage load; the hardened [`fgcs_core::monitor::Monitor`]
/// detects the reset and re-baselines instead.
#[derive(Debug)]
pub struct FaultyProbe<P> {
    inner: P,
    restart_rate: f64,
    rng: std::cell::RefCell<Rng>,
    /// Counter values at the last injected reset; reads report the
    /// inner counters minus this base (i.e. "since monitor start").
    base: Cell<(u64, u64)>,
    resets: Cell<u64>,
}

impl<P: ResourceProbe> FaultyProbe<P> {
    /// Wraps `inner`, resetting counters with probability
    /// `cfg.restart_rate` per read, deterministic in
    /// `(cfg.seed, machine_id)`.
    pub fn new(inner: P, cfg: &FaultConfig, machine_id: u64) -> Self {
        FaultyProbe {
            inner,
            restart_rate: cfg.restart_rate,
            rng: std::cell::RefCell::new(Rng::for_stream(cfg.seed ^ PROBE_SALT, machine_id)),
            base: Cell::new((0, 0)),
            resets: Cell::new(0),
        }
    }

    /// Number of counter resets injected so far.
    pub fn resets(&self) -> u64 {
        self.resets.get()
    }

    /// The wrapped probe.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: ResourceProbe> ResourceProbe for FaultyProbe<P> {
    fn cpu_counters(&self) -> (u64, u64) {
        let (busy, total) = self.inner.cpu_counters();
        if self.restart_rate > 0.0 && self.rng.borrow_mut().chance(self.restart_rate) {
            self.base.set((busy, total));
            self.resets.set(self.resets.get() + 1);
        }
        let (b0, t0) = self.base.get();
        (busy.saturating_sub(b0), total.saturating_sub(t0))
    }

    fn free_mem_for_guest_mb(&self) -> u32 {
        self.inner.free_mem_for_guest_mb()
    }

    fn service_alive(&self) -> bool {
        self.inner.service_alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct S(u64);

    impl Timestamped for S {
        fn ts(&self) -> u64 {
            self.0
        }
        fn set_ts(&mut self, t: u64) {
            self.0 = t;
        }
    }

    fn stream(n: u64) -> impl Iterator<Item = S> {
        (0..n).map(|i| S(i * 15))
    }

    #[test]
    fn zero_config_is_identity() {
        let cfg = FaultConfig::off(42);
        let mut fs = FaultStream::new(stream(1000), &cfg, 3);
        let out: Vec<S> = (&mut fs).collect();
        assert_eq!(out, stream(1000).collect::<Vec<_>>());
        assert_eq!(fs.stats(), InjectionStats::default());
    }

    #[test]
    fn injection_is_deterministic() {
        let cfg = FaultConfig::noisy(42);
        let a: Vec<S> = FaultStream::new(stream(5000), &cfg, 1).collect();
        let b: Vec<S> = FaultStream::new(stream(5000), &cfg, 1).collect();
        assert_eq!(a, b);
        let c: Vec<S> = FaultStream::new(stream(5000), &cfg, 2).collect();
        assert_ne!(a, c, "machines get independent fault streams");
    }

    #[test]
    fn drops_are_counted_exactly() {
        let mut cfg = FaultConfig::off(7);
        cfg.drop_rate = 0.2;
        let mut fs = FaultStream::new(stream(10_000), &cfg, 0);
        let out: Vec<S> = (&mut fs).collect();
        let st = fs.stats();
        assert_eq!(out.len() as u64 + st.dropped, 10_000);
        assert!(st.dropped > 1000, "dropped {}", st.dropped);
    }

    #[test]
    fn duplicates_add_samples() {
        let mut cfg = FaultConfig::off(7);
        cfg.duplicate_rate = 0.1;
        let mut fs = FaultStream::new(stream(10_000), &cfg, 0);
        let out: Vec<S> = (&mut fs).collect();
        let st = fs.stats();
        assert_eq!(out.len() as u64, 10_000 + st.duplicated);
        assert!(st.duplicated > 500);
    }

    #[test]
    fn delays_reorder_but_lose_nothing() {
        let mut cfg = FaultConfig::off(7);
        cfg.delay_rate = 0.1;
        cfg.max_delay_slots = 5;
        let mut fs = FaultStream::new(stream(10_000), &cfg, 0);
        let out: Vec<S> = (&mut fs).collect();
        let st = fs.stats();
        assert_eq!(out.len(), 10_000, "delays must not lose samples");
        assert!(st.delayed > 500);
        let mut sorted: Vec<S> = out.clone();
        sorted.sort_by_key(|s| s.0);
        assert_eq!(sorted, stream(10_000).collect::<Vec<_>>());
        assert_ne!(out, sorted, "some samples must arrive out of order");
    }

    #[test]
    fn restarts_swallow_contiguous_runs() {
        let mut cfg = FaultConfig::off(7);
        cfg.restart_rate = 0.01;
        cfg.restart_outage_samples = 4;
        let mut fs = FaultStream::new(stream(10_000), &cfg, 0);
        let out: Vec<S> = (&mut fs).collect();
        let st = fs.stats();
        assert!(st.restarts > 20);
        assert_eq!(out.len() as u64 + st.lost_in_restart, 10_000);
        // Outages are at most the configured length per restart.
        assert!(st.lost_in_restart <= st.restarts * 4);
    }

    #[test]
    fn clock_jumps_skew_persistently() {
        let mut cfg = FaultConfig::off(9);
        cfg.clock_jump_rate = 0.001;
        cfg.clock_jump_max_secs = 600;
        let mut fs = FaultStream::new(stream(20_000), &cfg, 0);
        let out: Vec<S> = (&mut fs).collect();
        let st = fs.stats();
        assert!(st.clock_jumps > 5);
        assert_eq!(out.len(), 20_000);
        // After the last jump the offset persists: the tail differs from
        // the clean timestamps by a constant.
        let clean: Vec<S> = stream(20_000).collect();
        let d_last = out.last().unwrap().0 as i64 - clean.last().unwrap().0 as i64;
        let d_prev = out[out.len() - 2].0 as i64 - clean[clean.len() - 2].0 as i64;
        assert_eq!(d_last, d_prev, "skew must persist between jumps");
    }

    /// The plans `pass_clean` must walk exactly as `push` does: all five
    /// modes, none, each mode alone, a pair, and the two modes a zero
    /// structural knob turns off despite their rate.
    fn clean_walk_configs() -> Vec<(String, FaultConfig)> {
        let mut cfgs: Vec<(String, FaultConfig)> = [0.0, 1.0, 20.0, 60.0]
            .into_iter()
            .map(|scale| {
                (
                    format!("noisy x{scale}"),
                    FaultConfig::noisy(5).scaled(scale),
                )
            })
            .collect();
        let one = |name: &str, set: fn(&mut FaultConfig)| {
            let mut cfg = FaultConfig::off(5);
            set(&mut cfg);
            (name.to_string(), cfg)
        };
        cfgs.extend([
            one("restart", |c| c.restart_rate = 0.01),
            one("jump", |c| c.clock_jump_rate = 0.01),
            one("drop", |c| c.drop_rate = 0.05),
            one("delay", |c| c.delay_rate = 0.02),
            one("duplicate", |c| c.duplicate_rate = 0.02),
            one("drop+duplicate", |c| {
                c.drop_rate = 0.05;
                c.duplicate_rate = 0.02;
            }),
            one("delay without slots", |c| {
                c.delay_rate = 0.05;
                c.max_delay_slots = 0;
                c.drop_rate = 0.01;
            }),
            one("jump without magnitude", |c| {
                c.clock_jump_rate = 0.05;
                c.clock_jump_max_secs = 0;
                c.duplicate_rate = 0.01;
            }),
        ]);
        cfgs
    }

    #[test]
    fn passing_clean_stretches_equals_pushing_every_sample() {
        let input: Vec<S> = stream(20_000).collect();
        for (name, cfg) in clean_walk_configs() {
            let mut pushed = Vec::new();
            let mut every = Injector::new(&cfg, 1);
            let drain = |inj: &mut Injector<S>, out: &mut Vec<S>| {
                while let Some(d) = inj.next_queued() {
                    out.push(d);
                }
            };
            for &s in &input {
                pushed.extend(every.push(s));
                drain(&mut every, &mut pushed);
            }
            every.finish();
            drain(&mut every, &mut pushed);

            let mut walked = Vec::new();
            let mut walker = Injector::new(&cfg, 1);
            let mut i = 0;
            while i < input.len() {
                if walker.is_quiet() {
                    let k = walker.pass_clean((input.len() - i) as u64) as usize;
                    for s in &input[i..i + k] {
                        walked.push(S((s.0 as i64 + walker.clock_offset()).max(0) as u64));
                    }
                    i += k;
                    if i == input.len() {
                        break;
                    }
                }
                walked.extend(walker.push(input[i]));
                drain(&mut walker, &mut walked);
                i += 1;
            }
            walker.finish();
            drain(&mut walker, &mut walked);

            assert_eq!(walked, pushed, "{name}");
            assert_eq!(walker.stats(), every.stats(), "{name}");
        }
    }

    #[test]
    fn crash_plan_is_deterministic_and_sorted() {
        let mut cfg = FaultConfig::off(3);
        cfg.crash_rate_per_day = 2.0;
        let span = 30 * 86_400;
        let a = CrashPlan::generate(&cfg, 5, span);
        let b = CrashPlan::generate(&cfg, 5, span);
        assert_eq!(a, b);
        assert!(!a.times.is_empty());
        for w in a.times.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(a.times.iter().all(|&t| t < span));
        let off = CrashPlan::generate(&FaultConfig::off(3), 5, span);
        assert!(off.times.is_empty());
    }

    #[test]
    fn faulty_probe_resets_counters() {
        struct P;
        impl ResourceProbe for P {
            fn cpu_counters(&self) -> (u64, u64) {
                (500, 1000)
            }
            fn free_mem_for_guest_mb(&self) -> u32 {
                512
            }
            fn service_alive(&self) -> bool {
                true
            }
        }
        let mut cfg = FaultConfig::off(11);
        cfg.restart_rate = 1.0; // reset on every read
        let probe = FaultyProbe::new(P, &cfg, 0);
        let (b, t) = probe.cpu_counters();
        assert_eq!((b, t), (0, 0), "fresh reset reports zeroed counters");
        assert_eq!(probe.resets(), 1);
        assert_eq!(probe.free_mem_for_guest_mb(), 512);
        assert!(probe.service_alive());
    }
}
