//! The injector's per-mode countdowns keep the per-sample fault law:
//! every sample outside a restart outage is one trial of each mode the
//! injector tries on it, and a mode faults on each of its trials with
//! its rate, independently of its other trials. Deterministic seeds;
//! every bound is 5σ of a binomial count.

use fgcs_faults::{FaultConfig, InjectionStats, Injector, Timestamped};

/// Modes in the order the injector tries them on a sample.
const RESTART: usize = 0;
const DROP: usize = 2;
const DELAY: usize = 3;

#[derive(Clone)]
struct S(u64);

impl Timestamped for S {
    fn ts(&self) -> u64 {
        self.0
    }
    fn set_ts(&mut self, t: u64) {
        self.0 = t;
    }
}

/// Faults so far per mode.
fn faults(st: &InjectionStats) -> [u64; 5] {
    [
        st.restarts,
        st.clock_jumps,
        st.dropped,
        st.delayed,
        st.duplicated,
    ]
}

fn rates(cfg: &FaultConfig) -> [f64; 5] {
    [
        cfg.restart_rate,
        cfg.clock_jump_rate,
        cfg.drop_rate,
        cfg.delay_rate,
        cfg.duplicate_rate,
    ]
}

/// Pushes `samples` underlying samples through machine `machine`'s
/// injector. Returns per mode `[trials, faults, gaps, zero gaps]`: a gap
/// is the run of trials between two consecutive faults of the mode.
fn push_and_count(cfg: &FaultConfig, machine: u64, samples: u64) -> [[u64; 4]; 5] {
    let mut inj = Injector::new(cfg, machine);
    let mut out = [[0; 4]; 5];
    let mut last_fault = [None; 5];
    for i in 0..samples {
        let before = inj.stats();
        inj.push(S(i * 15));
        while inj.next_queued().is_some() {}
        let after = inj.stats();
        // A sample inside a restart outage is swallowed untried.
        let mut tried =
            after.lost_in_restart == before.lost_in_restart || after.restarts > before.restarts;
        for (mode, (b, a)) in faults(&before).into_iter().zip(faults(&after)).enumerate() {
            if !tried {
                break;
            }
            let fired = a > b;
            let [trials, count, gaps, zeros] = &mut out[mode];
            if fired {
                *count += 1;
                if let Some(prev) = last_fault[mode] {
                    *gaps += 1;
                    *zeros += u64::from(*trials == prev + 1);
                }
                last_fault[mode] = Some(*trials);
            }
            *trials += 1;
            // A restart that swallows the sample, a drop and a delay end
            // the sample's trials.
            let swallows = mode == RESTART && cfg.restart_outage_samples > 0;
            tried = !(fired && (swallows || mode == DROP || mode == DELAY));
        }
    }
    out
}

/// `|x − n·p| ≤ 5σ` for a Binomial(`n`, `p`) count `x`.
fn within_five_sigma(x: u64, n: u64, p: f64) -> bool {
    let sigma = (n as f64 * p * (1.0 - p)).sqrt();
    (x as f64 - n as f64 * p).abs() <= 5.0 * sigma
}

#[test]
fn each_mode_alone_faults_as_bernoulli_trials() {
    for mode in 0..5 {
        for p in [0.003, 0.2] {
            let mut cfg = FaultConfig::off(23);
            *[
                &mut cfg.restart_rate,
                &mut cfg.clock_jump_rate,
                &mut cfg.drop_rate,
                &mut cfg.delay_rate,
                &mut cfg.duplicate_rate,
            ][mode] = p;
            let mut total = [0; 4];
            for machine in 0..4 {
                let counts = push_and_count(&cfg, machine, 500_000);
                for (other, c) in counts.iter().enumerate() {
                    assert!(other == mode || c[1] == 0, "mode {other} is off");
                }
                for (t, c) in total.iter_mut().zip(counts[mode]) {
                    *t += c;
                }
            }
            let [trials, count, gaps, zeros] = total;
            if mode != RESTART {
                assert_eq!(trials, 2_000_000, "mode {mode}: every sample is a trial");
            }
            assert!(
                within_five_sigma(count, trials, p),
                "mode {mode}, p = {p}: {count} faults in {trials} trials"
            );
            assert!(
                within_five_sigma(zeros, gaps, p),
                "mode {mode}, p = {p}: {zeros} of {gaps} gaps are zero"
            );
        }
    }
}

#[test]
fn noisy_x4_faults_each_mode_at_its_rate() {
    let cfg = FaultConfig::noisy(29).scaled(4.0);
    let mut total = [[0; 2]; 5];
    for machine in 0..4 {
        for (t, c) in total.iter_mut().zip(push_and_count(&cfg, machine, 500_000)) {
            t[0] += c[0];
            t[1] += c[1];
        }
    }
    for (mode, ([trials, count], p)) in total.into_iter().zip(rates(&cfg)).enumerate() {
        assert!(
            within_five_sigma(count, trials, p),
            "mode {mode}, p = {p}: {count} faults in {trials} trials"
        );
    }
}
