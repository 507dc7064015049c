//! A simulated time-sharing machine.
//!
//! [`Machine`] combines the process table, a Linux-2.4-style "goodness"
//! scheduler, and a physical-memory model with thrashing. It exposes the
//! control surface the FGCS middleware uses (`spawn`, `kill`, `renice`,
//! `suspend`, `resume`) and the observables a non-intrusive monitor can
//! read (`vmstat`-style cumulative CPU accounting and free memory).
//!
//! # The scheduler
//!
//! One decision per 10 ms tick (HZ = 100). Every process has a quantum
//! `counter`; the runnable process with the largest *goodness*
//! `counter + (20 − nice)` runs for the tick (goodness 0 when the counter
//! is exhausted). When every runnable process has exhausted its counter,
//! quanta are recalculated for **all** processes —
//! `counter = counter/2 + nice_to_ticks(nice)` — so a process that slept
//! through recalculations banks up to twice its quantum. That bank is the
//! interactivity bonus: it lets a low-duty host process preempt a
//! CPU-bound guest outright, and its size relative to the host's burst
//! length is what produces the paper's Th1/Th2 thresholds.
//!
//! Ties prefer the currently running process (avoiding gratuitous
//! context switches), then the lowest pid.
//!
//! # The memory model
//!
//! Resident sets of all non-suspended, non-exited processes plus a fixed
//! kernel share compete for physical memory. While their sum exceeds
//! physical memory, the machine thrashes: after every executed CPU tick
//! the whole machine stalls on page-fault I/O for
//! `(1 − eff)/eff` ticks, where `eff = (phys/total)^thrash_exponent` —
//! the disk, not the CPU, is the bottleneck, so those ticks are *iowait*,
//! consuming wall time without charging any process. Measured CPU usage
//! of every process collapses by the same factor, which reproduces the
//! §3.2.3 observation that thrashing drags the host down *regardless of
//! CPU priorities* (the starred bars of Figure 4).

use crate::proc::{nice_to_ticks, Demand, Pid, ProcClass, ProcSpec, Process, RunState, SleepOrRun};
use crate::time::Tick;

/// Machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Name used in reports.
    pub name: String,
    /// Physical memory in MB.
    pub phys_mem_mb: u32,
    /// Memory reserved by the kernel, in MB (the paper estimates
    /// "kernel memory usage of about 100 MB" on the Solaris machine).
    pub kernel_mem_mb: u32,
    /// Exponent of the thrashing-efficiency curve; larger is a steeper
    /// collapse. 1.5 reproduces the 20–35% host-CPU reductions of
    /// Figure 4's starred bars.
    pub thrash_exponent: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        // The Linux testbed machines: "the physical memory size is larger
        // than 1 GB on all the tested machines" (§5.1).
        MachineConfig {
            name: "linux-1.7ghz".to_string(),
            phys_mem_mb: 1024,
            kernel_mem_mb: 100,
            thrash_exponent: 1.5,
        }
    }
}

impl MachineConfig {
    /// The 300 MHz / 384 MB Solaris machine of §3.2.3.
    pub fn solaris_384mb() -> Self {
        MachineConfig {
            name: "solaris-300mhz".to_string(),
            phys_mem_mb: 384,
            kernel_mem_mb: 100,
            thrash_exponent: 1.5,
        }
    }
}

/// Errors from machine control calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The pid does not exist on this machine.
    NoSuchProcess(Pid),
    /// The pid exists but has exited.
    ProcessExited(Pid),
    /// Nice value outside −20..=19.
    BadNice(i8),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            SimError::ProcessExited(p) => write!(f, "process has exited: {p}"),
            SimError::BadNice(n) => write!(f, "nice value out of range: {n}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Cumulative CPU accounting, in ticks since boot. Snapshot-and-diff two
/// of these to get utilization over a window, exactly as `vmstat` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuAccounting {
    /// Ticks consumed by host-class processes.
    pub host: u64,
    /// Ticks consumed by system daemons (host load from the guest's view).
    pub system: u64,
    /// Ticks consumed by guest processes.
    pub guest: u64,
    /// Idle ticks.
    pub idle: u64,
    /// Ticks the machine spent stalled on page-fault I/O (thrashing).
    pub iowait: u64,
}

impl CpuAccounting {
    /// Total ticks covered.
    pub fn total(&self) -> u64 {
        self.host + self.system + self.guest + self.idle + self.iowait
    }

    /// Component-wise difference `self - earlier`.
    pub fn since(&self, earlier: &CpuAccounting) -> CpuAccounting {
        CpuAccounting {
            host: self.host - earlier.host,
            system: self.system - earlier.system,
            guest: self.guest - earlier.guest,
            idle: self.idle - earlier.idle,
            iowait: self.iowait - earlier.iowait,
        }
    }

    /// Host CPU utilization (host + system) over this accounting span;
    /// 0 for an empty span.
    pub fn host_load(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.host + self.system) as f64 / t as f64
        }
    }

    /// Guest CPU utilization over this accounting span.
    pub fn guest_load(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.guest as f64 / t as f64
        }
    }
}

/// A simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    now: Tick,
    procs: Vec<Process>,
    current: Option<usize>,
    acct: CpuAccounting,
    recalcs: u64,
    /// While `now < iowait_until`, the machine is stalled on page faults.
    iowait_until: Tick,
    /// Fractional page-fault stall owed but not yet long enough for a
    /// whole tick; keeps sub-tick stalls (mild overcommit) from being
    /// rounded away.
    stall_debt: f64,
    /// Optional scheduling-decision log: (tick, pid) per executed tick.
    run_log: Option<Vec<(Tick, Pid)>>,
    /// Cached sum of resident sets of all memory-occupying processes, in
    /// MB (excludes the kernel share). Maintained incrementally at every
    /// process state transition so `memory_efficiency` is O(1).
    resident_all_mb: u32,
    /// Cached resident sum of memory-occupying host+system processes.
    resident_host_mb: u32,
    /// Cached number of runnable processes.
    runnable_count: usize,
    /// Whether the FGCS service daemon on this machine still responds.
    /// Cleared by [`Machine::revoke`] (resource revocation / service
    /// death, the paper's S5) and restored by
    /// [`Machine::restore_service`]; the host itself keeps running.
    service_up: bool,
    /// Cached minimum `remaining` over sleeping processes (`None` when
    /// nobody sleeps) — the next-wake horizon for the batched fast path.
    /// Stored relative, not as an absolute wake tick: iowait stalls
    /// freeze sleep timers while `now` advances, and a relative horizon
    /// survives those batches unchanged. Only meaningful while
    /// `sleep_min_valid`; control calls that touch a sleeper invalidate
    /// it and the next scheduling scan recomputes it for free.
    sleep_min: Option<u64>,
    /// Whether `sleep_min` reflects the process table.
    sleep_min_valid: bool,
    /// The runnables of the current [`Machine::try_batch`] call, in pid
    /// order. Reused across calls so a race allocates nothing.
    race: Vec<Racer>,
    /// Ticks [`Machine::measure`] has retired by skipping whole periods.
    #[cfg(test)]
    skipped_ticks: u64,
}

/// Samples [`Machine::measure`] keeps per call while it looks for a
/// repeated scheduling state; past the cap it stops sampling and runs
/// the rest of the window through `run_ticks`. A Figure 1 window
/// (24 000 ticks, one sample per busy period of a 60–84-tick duty
/// cycle) takes at most ~400.
const PERIOD_SAMPLES: usize = 512;

/// Words (8 bytes each) the two sample arenas may hold, which lowers
/// the sample cap on machines with many processes: 512 KB.
const ARENA_WORDS: usize = 1 << 16;

/// Accumulator words ahead of the per-process ones in a sample: `now`,
/// the five [`CpuAccounting`] fields and `recalcs`.
const MACHINE_ACCS: usize = 7;

/// The scheduling states one [`Machine::measure`] call has sampled, for
/// its periodic fast-forward. Sample `s` owns `keys[s·key_len ..]` (the
/// state key [`Machine::push_state_key`] writes) and
/// `accs[s·acc_len ..]` (what [`Machine::push_accumulators`] writes);
/// `slots` is an open-addressed index over key hashes holding sample
/// numbers plus one (0 is empty). Keys are compared word for word: the
/// hash only picks where to look.
#[derive(Default)]
struct PeriodScan {
    key_len: usize,
    acc_len: usize,
    /// The sample cap for this machine's key and accumulator lengths.
    max_samples: usize,
    keys: Vec<u64>,
    accs: Vec<u64>,
    slots: Vec<u32>,
}

std::thread_local! {
    /// One scan per thread, emptied by each `measure` call, so a sweep
    /// that measures thousands of fresh machines allocates its arenas
    /// once per worker.
    static PERIOD_SCAN: std::cell::RefCell<PeriodScan> = Default::default();
}

impl PeriodScan {
    /// Empties the scan for a machine of `procs` processes.
    fn reset(&mut self, procs: usize) {
        self.key_len = 4 + 6 * procs;
        self.acc_len = MACHINE_ACCS + 3 * procs;
        self.max_samples = PERIOD_SAMPLES.min(ARENA_WORDS / (self.key_len + self.acc_len));
        self.keys.clear();
        self.accs.clear();
        self.slots.clear();
        self.slots.resize(2 * PERIOD_SAMPLES, 0);
    }

    fn samples(&self) -> usize {
        self.accs.len() / self.acc_len
    }

    fn full(&self) -> bool {
        self.samples() == self.max_samples
    }

    /// Samples `m`'s state: the accumulators of the earlier sample with
    /// the same key, or `None` after storing this one as new.
    fn sample(&mut self, m: &Machine) -> Option<&[u64]> {
        let start = self.keys.len();
        m.push_state_key(&mut self.keys);
        let key = &self.keys[start..];
        // FxHash's word step over four independent lanes, folded; the
        // index takes the well-mixed high bits.
        let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        let mut lanes = [0u64; 4];
        let mut words = key.chunks_exact(4);
        for chunk in &mut words {
            for (l, &w) in lanes.iter_mut().zip(chunk) {
                *l = step(*l, w);
            }
        }
        for (l, &w) in lanes.iter_mut().zip(words.remainder()) {
            *l = step(*l, w);
        }
        let h = lanes.into_iter().fold(0, step);
        let mask = self.slots.len() - 1;
        let mut slot = (h >> 32) as usize & mask;
        while self.slots[slot] != 0 {
            let s = self.slots[slot] as usize - 1;
            if self.keys[s * self.key_len..(s + 1) * self.key_len] == *key {
                self.keys.truncate(start);
                return Some(&self.accs[s * self.acc_len..(s + 1) * self.acc_len]);
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = self.samples() as u32 + 1;
        m.push_accumulators(&mut self.accs);
        None
    }
}

/// One runnable process as a race replays it: the fields `step()`'s
/// selection reads and its run writes.
#[derive(Debug, Clone, Copy)]
struct Racer {
    /// Index into the process table.
    idx: usize,
    counter: u64,
    /// `20 − nice`: the goodness is `counter + weight` while `counter > 0`.
    weight: i64,
    /// `nice_to_ticks(nice)`, the counter a recalculation from 0 gives.
    quantum: u64,
    busy_left: u64,
    /// Ticks run so far in the segment.
    ran: u64,
}

impl Racer {
    fn goodness(&self) -> i64 {
        if self.counter == 0 {
            0
        } else {
            self.counter as i64 + self.weight
        }
    }
}

/// `step()`'s selection over a race: the winner (largest goodness; ties
/// prefer `cur`, then the lowest pid), its goodness, and the largest
/// goodness among the others.
fn select(race: &[Racer], cur: Option<usize>) -> (usize, i64, i64) {
    let mut best = 0;
    let mut best_g = race[0].goodness();
    let mut runner_up_g = 0;
    for (j, r) in race.iter().enumerate().skip(1) {
        let g = r.goodness();
        if g > best_g || (g == best_g && Some(j) == cur) {
            runner_up_g = runner_up_g.max(best_g);
            best = j;
            best_g = g;
        } else {
            runner_up_g = runner_up_g.max(g);
        }
    }
    (best, best_g, runner_up_g)
}

/// Applies `epochs` recalculations `c → c/2 + q` to a process that is
/// not runnable through them. The map is monotone with its fixed point
/// at `2q − 1` or `2q`, reached within log2(c) steps, so the loop stops
/// there.
fn bank_epochs(p: &mut Process, epochs: u64) {
    let q = nice_to_ticks(p.nice);
    for _ in 0..epochs {
        let next = p.counter / 2 + q;
        if next == p.counter {
            break;
        }
        p.counter = next;
    }
}

impl Machine {
    /// Boots an empty machine.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            cfg,
            now: 0,
            procs: Vec::new(),
            current: None,
            acct: CpuAccounting::default(),
            recalcs: 0,
            iowait_until: 0,
            stall_debt: 0.0,
            run_log: None,
            service_up: true,
            resident_all_mb: 0,
            resident_host_mb: 0,
            runnable_count: 0,
            sleep_min: None,
            sleep_min_valid: true,
            race: Vec::new(),
            #[cfg(test)]
            skipped_ticks: 0,
        }
    }

    /// Boots a machine with the default (Linux testbed) configuration.
    pub fn default_linux() -> Self {
        Machine::new(MachineConfig::default())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time in ticks since boot.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of quantum recalculations so far (diagnostic).
    pub fn recalc_count(&self) -> u64 {
        self.recalcs
    }

    /// Starts recording one `(tick, pid)` entry per executed tick.
    /// Diagnostic aid for scheduler tests; keeps every entry, so enable
    /// only for short runs.
    pub fn enable_run_log(&mut self) {
        self.run_log = Some(Vec::new());
    }

    /// The recorded scheduling decisions, if logging is enabled.
    pub fn run_log(&self) -> &[(Tick, Pid)] {
        self.run_log.as_deref().unwrap_or(&[])
    }

    /// Spawns a process, returning its pid.
    pub fn spawn(&mut self, spec: ProcSpec) -> Pid {
        let pid = Pid(self.procs.len() as u32);
        let p = Process::spawn(pid, spec, self.now);
        if p.occupies_memory() {
            self.resident_all_mb += p.spec.mem.resident_mb;
            if p.spec.class.counts_as_host() {
                self.resident_host_mb += p.spec.mem.resident_mb;
            }
        }
        if p.is_runnable() {
            self.runnable_count += 1;
        }
        if let RunState::Sleeping { remaining } = p.state {
            // A spawn can begin asleep (phase list with zero leading
            // work); fold it into the wake horizon directly.
            self.sleep_min = Some(match self.sleep_min {
                Some(m) => m.min(remaining),
                None => remaining,
            });
        }
        self.procs.push(p);
        pid
    }

    /// Applies `f` to process `i` and reconciles the cached aggregates
    /// with whatever state transition it caused. Class and resident size
    /// never change after spawn, so diffing `(occupies_memory,
    /// is_runnable)` captures every transition that matters; the sleep
    /// horizon is invalidated whenever a sleeper is involved and
    /// recomputed by the next scheduling scan.
    fn mutate_proc(&mut self, i: usize, f: impl FnOnce(&mut Process)) {
        let was_occupying = self.procs[i].occupies_memory();
        let was_runnable = self.procs[i].is_runnable();
        let sleep_before = matches!(self.procs[i].state, RunState::Sleeping { .. });
        f(&mut self.procs[i]);
        self.reconcile_aggregates(i, was_occupying, was_runnable);
        if sleep_before || matches!(self.procs[i].state, RunState::Sleeping { .. }) {
            self.sleep_min_valid = false;
        }
    }

    /// Adjusts the cached aggregates after process `i` changed state.
    fn reconcile_aggregates(&mut self, i: usize, was_occupying: bool, was_runnable: bool) {
        let p = &self.procs[i];
        if p.occupies_memory() != was_occupying {
            let mb = p.spec.mem.resident_mb;
            if was_occupying {
                self.resident_all_mb -= mb;
                if p.spec.class.counts_as_host() {
                    self.resident_host_mb -= mb;
                }
            } else {
                self.resident_all_mb += mb;
                if p.spec.class.counts_as_host() {
                    self.resident_host_mb += mb;
                }
            }
        }
        if p.is_runnable() != was_runnable {
            if was_runnable {
                self.runnable_count -= 1;
            } else {
                self.runnable_count += 1;
            }
        }
    }

    /// Recomputes every cached aggregate from the process table and
    /// panics on any mismatch. Debug-build insurance that the
    /// incremental bookkeeping never drifts from the ground truth.
    #[cfg(debug_assertions)]
    fn assert_aggregates(&self) {
        let all: u32 = self
            .procs
            .iter()
            .filter(|p| p.occupies_memory())
            .map(|p| p.spec.mem.resident_mb)
            .sum();
        let host: u32 = self
            .procs
            .iter()
            .filter(|p| p.occupies_memory() && p.spec.class.counts_as_host())
            .map(|p| p.spec.mem.resident_mb)
            .sum();
        let runnable = self.procs.iter().filter(|p| p.is_runnable()).count();
        assert_eq!(self.resident_all_mb, all, "resident aggregate drifted");
        assert_eq!(
            self.resident_host_mb, host,
            "host resident aggregate drifted"
        );
        assert_eq!(self.runnable_count, runnable, "runnable count drifted");
        if self.sleep_min_valid {
            let min = self
                .procs
                .iter()
                .filter_map(|p| match p.state {
                    RunState::Sleeping { remaining } => Some(remaining),
                    _ => None,
                })
                .min();
            assert_eq!(self.sleep_min, min, "sleep horizon drifted");
        }
    }

    fn index(&self, pid: Pid) -> Result<usize, SimError> {
        let i = pid.0 as usize;
        if i < self.procs.len() {
            Ok(i)
        } else {
            Err(SimError::NoSuchProcess(pid))
        }
    }

    fn live_index(&self, pid: Pid) -> Result<usize, SimError> {
        let i = self.index(pid)?;
        if self.procs[i].is_exited() {
            Err(SimError::ProcessExited(pid))
        } else {
            Ok(i)
        }
    }

    /// Read access to a process.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(pid.0 as usize)
    }

    /// Iterates all processes ever spawned (including exited ones).
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.procs.iter()
    }

    /// Terminates a process (SIGKILL).
    pub fn kill(&mut self, pid: Pid) -> Result<(), SimError> {
        let i = self.live_index(pid)?;
        self.mutate_proc(i, |p| p.kill());
        Ok(())
    }

    /// Changes a process's nice value; takes effect at the next quantum
    /// recalculation, as in the kernel.
    pub fn renice(&mut self, pid: Pid, nice: i8) -> Result<(), SimError> {
        if !(-20..=19).contains(&nice) {
            return Err(SimError::BadNice(nice));
        }
        let i = self.live_index(pid)?;
        self.procs[i].nice = nice;
        Ok(())
    }

    /// Suspends a process (SIGSTOP).
    pub fn suspend(&mut self, pid: Pid) -> Result<(), SimError> {
        let i = self.live_index(pid)?;
        self.mutate_proc(i, |p| p.suspend());
        Ok(())
    }

    /// Resumes a suspended process (SIGCONT).
    pub fn resume(&mut self, pid: Pid) -> Result<(), SimError> {
        let i = self.live_index(pid)?;
        self.mutate_proc(i, |p| p.resume());
        Ok(())
    }

    /// Cumulative CPU accounting since boot.
    pub fn accounting(&self) -> CpuAccounting {
        self.acct
    }

    /// Resident memory of host + system processes, in MB (excludes
    /// suspended/exited processes and the kernel). O(1): served from the
    /// incrementally maintained aggregate.
    pub fn host_resident_mb(&self) -> u32 {
        self.resident_host_mb
    }

    /// Total resident memory including guest processes and the kernel.
    /// O(1): served from the incrementally maintained aggregate.
    pub fn total_resident_mb(&self) -> u32 {
        self.resident_all_mb + self.cfg.kernel_mem_mb
    }

    /// Memory available for a (new or running) guest working set, in MB:
    /// physical minus kernel minus host residents, floored at zero.
    pub fn free_mem_for_guest_mb(&self) -> u32 {
        self.cfg
            .phys_mem_mb
            .saturating_sub(self.cfg.kernel_mem_mb)
            .saturating_sub(self.host_resident_mb())
    }

    /// Marks the FGCS service as dead — the machine is revoked from the
    /// guest's point of view (URR, state S5). Host processes keep
    /// running; only the observable service liveness changes, which is
    /// exactly what the paper's monitor sees ("its termination indicates
    /// resource revocation").
    pub fn revoke(&mut self) {
        self.service_up = false;
    }

    /// Brings the FGCS service back after a revocation.
    pub fn restore_service(&mut self) {
        self.service_up = true;
    }

    /// Whether the FGCS service daemon responds. This is the liveness a
    /// non-intrusive probe reports; it is `true` on a freshly booted
    /// machine and toggled by [`Machine::revoke`] /
    /// [`Machine::restore_service`].
    pub fn service_alive(&self) -> bool {
        self.service_up
    }

    /// True while the active working sets exceed physical memory.
    pub fn is_thrashing(&self) -> bool {
        self.total_resident_mb() > self.cfg.phys_mem_mb
    }

    /// Current per-tick useful-work efficiency under the memory model.
    pub fn memory_efficiency(&self) -> f64 {
        let total = self.total_resident_mb();
        if total <= self.cfg.phys_mem_mb {
            1.0
        } else {
            (self.cfg.phys_mem_mb as f64 / total as f64).powf(self.cfg.thrash_exponent)
        }
    }

    /// Advances the machine by one tick.
    pub fn step(&mut self) {
        // 0. A thrashing machine stalls on page-fault I/O: the disk is
        //    the bottleneck and nobody computes. The stall evaporates if
        //    the memory pressure is gone (e.g. a process was killed).
        if self.now < self.iowait_until {
            if self.is_thrashing() {
                self.acct.iowait += 1;
                self.now += 1;
                return;
            }
            self.iowait_until = self.now;
        }

        // 1. Wake expiring sleepers so they can compete this tick. The
        //    loop already visits every sleeper, so refresh the wake
        //    horizon and the aggregates as it goes (a wake can also be an
        //    exit, via the phase-list sentinel).
        let mut min_sleep: Option<u64> = None;
        for i in 0..self.procs.len() {
            if !matches!(self.procs[i].state, RunState::Sleeping { .. }) {
                continue;
            }
            let was_occupying = self.procs[i].occupies_memory();
            self.procs[i].sleep_tick();
            self.reconcile_aggregates(i, was_occupying, false);
            if let RunState::Sleeping { remaining } = self.procs[i].state {
                min_sleep = Some(min_sleep.map_or(remaining, |m| m.min(remaining)));
            }
        }
        self.sleep_min = min_sleep;
        self.sleep_min_valid = true;

        // 2. Idle if nothing is runnable.
        if self.runnable_count == 0 {
            self.acct.idle += 1;
            self.now += 1;
            self.current = None;
            return;
        }

        // 3. Epoch end: every runnable has an exhausted counter →
        //    recalculate quanta for ALL processes (sleepers bank bonus).
        let all_exhausted = self
            .procs
            .iter()
            .filter(|p| p.is_runnable())
            .all(|p| p.counter == 0);
        if all_exhausted {
            self.recalcs += 1;
            for p in &mut self.procs {
                if !p.is_exited() {
                    p.counter = p.counter / 2 + nice_to_ticks(p.nice);
                }
            }
        }

        // 4. Pick max goodness; ties prefer the current process, then the
        //    lowest pid (stable iteration order).
        let mut best: Option<usize> = None;
        let mut best_goodness = 0i64;
        for (i, p) in self.procs.iter().enumerate() {
            if !p.is_runnable() {
                continue;
            }
            let g = goodness(p);
            let wins = match best {
                None => true,
                Some(b) => {
                    g > best_goodness
                        || (g == best_goodness
                            && Some(i) == self.current
                            && Some(b) != self.current)
                }
            };
            if wins {
                best = Some(i);
                best_goodness = g;
            }
        }
        let chosen = best.expect("a runnable process exists");

        // 5. Run it for the tick. Under thrashing the work itself
        //    retires, but the machine then stalls on page-fault I/O for
        //    (1-eff)/eff ticks, throttling everyone's CPU usage to eff.
        let eff = self.memory_efficiency();
        {
            let p = &mut self.procs[chosen];
            p.counter = p.counter.saturating_sub(1);
            p.run_tick();
        }
        // The tick may have completed the busy period: the chosen can now
        // be sleeping or exited.
        self.reconcile_aggregates(chosen, true, true);
        if let RunState::Sleeping { remaining } = self.procs[chosen].state {
            self.sleep_min = Some(match self.sleep_min {
                Some(m) => m.min(remaining),
                None => remaining,
            });
        }
        if eff < 1.0 {
            self.stall_debt += ((1.0 - eff) / eff).min(50.0);
            let whole = self.stall_debt.floor();
            if whole >= 1.0 {
                self.stall_debt -= whole;
                self.iowait_until = self.now + 1 + whole as u64;
            }
        } else {
            self.stall_debt = 0.0;
        }
        match self.procs[chosen].spec.class {
            ProcClass::Host => self.acct.host += 1,
            ProcClass::System => self.acct.system += 1,
            ProcClass::Guest => self.acct.guest += 1,
        }
        if let Some(log) = &mut self.run_log {
            log.push((self.now, self.procs[chosen].pid));
        }

        // 6. Everyone else who wanted the CPU waited.
        for (i, p) in self.procs.iter_mut().enumerate() {
            if i != chosen && p.is_runnable() {
                p.wait_ticks += 1;
            }
        }

        self.current = Some(chosen);
        self.now += 1;
    }

    /// Advances the machine by `n` ticks.
    ///
    /// Uses the event-horizon fast path: whole runs of ticks whose
    /// scheduling decisions are fully determined are retired in one
    /// bulk update, falling back to [`Machine::step`] only on the ticks
    /// the batcher declines (an epoch recalculation or an exhausted
    /// counter while thrashing, a zero-work phase, a last single tick).
    /// Tick-for-tick equivalent to calling `step()` `n` times — see
    /// `tests/equivalence.rs` and the DESIGN notes.
    pub fn run_ticks(&mut self, n: u64) {
        let mut rem = n;
        while rem > 0 {
            let k = self.try_batch(rem);
            if k == 0 {
                self.step();
                rem -= 1;
            } else {
                rem -= k;
            }
        }
    }

    /// Advances the machine by `n` ticks strictly through the per-tick
    /// reference path, never batching. The equivalence suite drives one
    /// machine through this and a twin through [`Machine::run_ticks`];
    /// the throughput benchmarks use it as the before-optimization
    /// baseline.
    pub fn run_ticks_stepwise(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Attempts to retire up to `rem` ticks whose outcome is fully
    /// determined, in bulk updates. Returns the number of ticks retired;
    /// 0 means the next tick must go through [`Machine::step`].
    ///
    /// Sleepers due to wake this tick are released first, exactly as
    /// `step()`'s wake pass releases them. Then one of four paths runs:
    ///
    /// * nobody runnable: idle up to the next wake;
    /// * thrashing: [`Machine::batch_thrash_span`], which replays the
    ///   stall-debt arithmetic scalar-exactly (an epoch boundary among
    ///   several runnables goes to `step()`);
    /// * several runnables: [`Machine::batch_race`], which replays
    ///   `step()`'s selection once per context switch and recalculates
    ///   quanta inline;
    /// * a lone runnable: nobody can take the CPU from it, so the batch
    ///   runs on through its epoch boundaries and applies the
    ///   recalculations they trigger in bulk.
    ///
    /// Every path stops at the next wake (`min_sleep`), at a busy-period
    /// end (on its last tick) and at `rem`.
    ///
    /// This and the two batch paths it calls are inlined into both loops
    /// that call it, `run_ticks` and `measure`'s, as they were into
    /// `run_ticks` when it was the only one.
    #[inline(always)]
    fn try_batch(&mut self, rem: u64) -> u64 {
        #[cfg(debug_assertions)]
        self.assert_aggregates();
        if rem < 2 {
            return 0;
        }

        // Pending page-fault stall: sleep timers are frozen and nobody
        // computes, so the whole remaining stall collapses into one
        // update while the memory pressure lasts. `step()` re-checks the
        // pressure every stall tick, but nothing can change it mid-stall
        // (only control calls can, and they end any batch by returning
        // to the caller), so one check covers the run.
        if self.now < self.iowait_until {
            if self.is_thrashing() {
                let k = rem.min(self.iowait_until - self.now);
                self.acct.iowait += k;
                self.now += k;
                return k;
            }
            self.iowait_until = self.now;
        }

        // One scan replaces step()'s separate wake / selection passes.
        // Sleepers due this tick wake (or exit through the phase-list
        // sentinel) as in step()'s wake pass; the others tick down in
        // the bulk update, and if this call retires nothing, step()'s
        // own wake pass finds only those and decrements them once, so a
        // release here is never applied twice. The scan also selects
        // under the exact step() rules and records the runner-up
        // goodness for the thrashing path's margin and the wake horizon.
        let mut best: Option<usize> = None;
        let mut best_g = 0i64;
        let mut runner_up_g = 0i64;
        let mut other_runnables = false;
        let mut min_sleep: Option<u64> = None;
        let mut woke = false;
        for i in 0..self.procs.len() {
            if let RunState::Sleeping { remaining } = self.procs[i].state {
                if remaining > 0 {
                    min_sleep = Some(min_sleep.map_or(remaining, |m| m.min(remaining)));
                    continue;
                }
                woke = true;
                let was_occupying = self.procs[i].occupies_memory();
                self.procs[i].sleep_tick();
                self.reconcile_aggregates(i, was_occupying, false);
            }
            let p = &self.procs[i];
            if !p.is_runnable() {
                continue;
            }
            let g = goodness(p);
            let wins = match best {
                None => true,
                Some(b) => {
                    g > best_g
                        || (g == best_g && Some(i) == self.current && Some(b) != self.current)
                }
            };
            if wins {
                if best.is_some() {
                    other_runnables = true;
                    runner_up_g = runner_up_g.max(best_g);
                }
                best = Some(i);
                best_g = g;
            } else {
                other_runnables = true;
                runner_up_g = runner_up_g.max(g);
            }
        }
        if self.sleep_min_valid {
            let before = if woke { Some(0) } else { min_sleep };
            debug_assert_eq!(self.sleep_min, before, "sleep horizon drifted");
        }
        self.sleep_min = min_sleep;
        self.sleep_min_valid = true;

        let Some(chosen) = best else {
            // Idle horizon: nothing can become runnable before the next
            // wake (or ever, if nobody sleeps).
            let k = min_sleep.map_or(rem, |m| rem.min(m));
            if k < 2 {
                return 0;
            }
            for p in &mut self.procs {
                p.sleep_bulk(k);
            }
            if let Some(m) = &mut self.sleep_min {
                *m -= k;
            }
            self.acct.idle += k;
            self.current = None;
            self.now += k;
            return k;
        };

        // Under memory pressure the chosen's work ticks interleave with
        // page-fault stalls; a dedicated path batches the whole span.
        // `is_thrashing()` (an O(1) compare on the cached aggregate) is
        // the same predicate as `memory_efficiency() < 1.0` sans `powf`.
        if self.is_thrashing() {
            if best_g == 0 && other_runnables {
                // Epoch boundary among several runnables: who runs next
                // depends on everyone's recalculated goodness — step()'s
                // job.
                return 0;
            }
            // The chosen's goodness decays by one per tick while every
            // other runnable's stays constant, and ties prefer the
            // current process (which the chosen is from its first
            // batched tick on), so it keeps winning for
            // `best_g - runner_up_g + 1` ticks.
            let margin = if other_runnables {
                (best_g - runner_up_g + 1) as u64
            } else {
                u64::MAX
            };
            return self.batch_thrash_span(rem, chosen, margin, min_sleep);
        }

        if other_runnables {
            return self.batch_race(rem, min_sleep);
        }

        // A lone runnable is re-chosen after every recalculation whatever
        // its goodness, so its quantum is not a horizon: it exhausts its
        // counter at tick `counter`, every `q` ticks after that, and each
        // time step() recalculates everyone.
        let p = &self.procs[chosen];
        let mut k = rem.min(p.progress.busy_left);
        if let Some(m) = min_sleep {
            k = k.min(m);
        }
        if k == 0 {
            return 0; // a zero-work phase settles through step()
        }
        let q = nice_to_ticks(p.nice);
        let epochs = if k > p.counter {
            (k - p.counter).div_ceil(q)
        } else {
            0
        };

        // Bulk-apply the k identical ticks in step() order. Sleep timers
        // tick down exactly as on the per-tick path; k <= min_sleep so
        // nobody wakes mid-batch, and the chosen's own new sleep (if its
        // busy period ends with the batch) starts *after* these ticks,
        // so it must not be decremented here — run_bulk runs after.
        for sp in &mut self.procs {
            sp.sleep_bulk(k);
        }
        if let Some(m) = &mut self.sleep_min {
            *m -= k;
        }
        if epochs > 0 {
            // Every non-exited process takes `c -> c/2 + q_p` once per
            // epoch. The chosen enters each epoch at zero and leaves it
            // with a full quantum.
            self.recalcs += epochs;
            for (i, sp) in self.procs.iter_mut().enumerate() {
                if i != chosen && !sp.is_exited() {
                    bank_epochs(sp, epochs);
                }
            }
        }
        {
            let p = &mut self.procs[chosen];
            p.counter = p.counter + epochs * q - k;
            p.run_bulk(k);
        }
        self.reconcile_aggregates(chosen, true, true);
        if let RunState::Sleeping { remaining } = self.procs[chosen].state {
            self.sleep_min = Some(match self.sleep_min {
                Some(m) => m.min(remaining),
                None => remaining,
            });
        }
        // Full efficiency on every batched tick: step() clears any
        // leftover fractional stall debt on such ticks.
        self.stall_debt = 0.0;
        match self.procs[chosen].spec.class {
            ProcClass::Host => self.acct.host += k,
            ProcClass::System => self.acct.system += k,
            ProcClass::Guest => self.acct.guest += k,
        }
        if let Some(log) = &mut self.run_log {
            let pid = self.procs[chosen].pid;
            let t0 = self.now;
            log.extend((0..k).map(|j| (t0 + j, pid)));
        }
        self.current = Some(chosen);
        self.now += k;
        k
    }

    /// Batches a race: two or more runnables, memory not overcommitted,
    /// compete up to the next wake, the first busy-period end or `rem`,
    /// whichever comes first. Returns 0 if a runnable sits at a
    /// zero-work phase, which settles through `step()`.
    ///
    /// Equivalence argument: nobody wakes before `min_sleep` and no
    /// racer's busy period ends before the segment's last tick, so the
    /// runnable set — and with it the memory aggregates — is constant,
    /// and the only state `step()`'s selection reads is each racer's
    /// counter and the current process. The replay selects once per
    /// context switch with `step()`'s rules; the winner then runs
    /// `min(counter, g_best − g_runner_up + 1)` ticks (its goodness
    /// decays by one per tick, the others' stay constant, and ties
    /// prefer it as the current process), cut by its busy period and the
    /// segment's end. When every racer is exhausted, `step()` would
    /// recalculate: each racer goes `0 → q`, and every non-runnable
    /// banks one `c → c/2 + q` (applied once at the end through
    /// [`bank_epochs`]; nothing inside the segment reads it).
    ///
    /// Repeating epochs: an epoch that starts at such a recalculation
    /// starts with every counter at its quantum. If it ends with the
    /// same current process it started with, the next epoch starts in
    /// the identical state and makes the identical choices, and so does
    /// every one after it. So `e` whole epochs retire at once, as many as
    /// fit before the segment's end and leave every racer at least one
    /// busy tick (a busy-period end must stay the segment's last tick),
    /// and the run log replays the recorded epoch `e` times.
    #[inline(always)]
    fn batch_race(&mut self, rem: u64, min_sleep: Option<u64>) -> u64 {
        self.race.clear();
        let mut cur = None;
        for (i, p) in self.procs.iter().enumerate() {
            if !p.is_runnable() {
                continue;
            }
            if p.progress.busy_left == 0 {
                return 0;
            }
            if Some(i) == self.current {
                cur = Some(self.race.len());
            }
            self.race.push(Racer {
                idx: i,
                counter: p.counter,
                weight: 20 - p.nice as i64,
                quantum: nice_to_ticks(p.nice),
                busy_left: p.progress.busy_left,
                ran: 0,
            });
        }
        let horizon = min_sleep.map_or(rem, |m| rem.min(m));
        let t0 = self.now;
        let race = &mut self.race;
        let mut log = self.run_log.as_mut();
        let mut k = 0;
        let mut epochs = 0;
        // Where the latest inline recalculation began an epoch: (k, the
        // current process, the run log's length).
        let mut epoch_start: Option<(u64, Option<usize>, usize)> = None;
        while k < horizon {
            let (mut w, mut best_g, mut runner_up_g) = select(race, cur);
            if best_g == 0 {
                // Every racer is exhausted: an epoch boundary.
                if let Some((k0, _, log0)) = epoch_start.filter(|s| s.1 == cur) {
                    let len = k - k0;
                    let e = race
                        .iter()
                        .map(|r| (r.busy_left - 1) / r.quantum)
                        .fold((horizon - k) / len, u64::min);
                    for r in race.iter_mut() {
                        r.ran += e * r.quantum;
                        r.busy_left -= e * r.quantum;
                    }
                    if let Some(log) = log.as_deref_mut() {
                        let end = log.len();
                        for n in 1..=e {
                            for j in log0..end {
                                let (t, pid) = log[j];
                                log.push((t + n * len, pid));
                            }
                        }
                    }
                    k += e * len;
                    epochs += e;
                    if k == horizon {
                        break;
                    }
                }
                for r in race.iter_mut() {
                    r.counter = r.quantum;
                }
                epochs += 1;
                epoch_start = Some((k, cur, log.as_ref().map_or(0, |l| l.len())));
                (w, best_g, runner_up_g) = select(race, cur);
            }
            let r = &mut race[w];
            let run = r
                .counter
                .min((best_g - runner_up_g + 1) as u64)
                .min(r.busy_left)
                .min(horizon - k);
            r.counter -= run;
            r.busy_left -= run;
            r.ran += run;
            if let Some(log) = log.as_deref_mut() {
                let pid = self.procs[r.idx].pid;
                log.extend((k..k + run).map(|j| (t0 + j, pid)));
            }
            k += run;
            cur = Some(w);
            if r.busy_left == 0 {
                break;
            }
        }

        // Apply the segment in step() order. Sleep timers tick down
        // first (k <= min_sleep, so nobody wakes), and every process
        // that is not runnable banks the counted recalculations; a racer
        // whose busy period ends on the last tick starts its sleep after.
        for sp in &mut self.procs {
            sp.sleep_bulk(k);
            if epochs > 0 && !sp.is_runnable() && !sp.is_exited() {
                bank_epochs(sp, epochs);
            }
        }
        if let Some(m) = &mut self.sleep_min {
            *m -= k;
        }
        self.recalcs += epochs;
        let mut ended = None;
        for r in &self.race {
            let p = &mut self.procs[r.idx];
            p.counter = r.counter;
            p.wait_ticks += k - r.ran;
            if r.ran > 0 {
                p.run_bulk(r.ran);
                match p.spec.class {
                    ProcClass::Host => self.acct.host += r.ran,
                    ProcClass::System => self.acct.system += r.ran,
                    ProcClass::Guest => self.acct.guest += r.ran,
                }
            }
            if r.busy_left == 0 {
                ended = Some(r.idx);
            }
        }
        if let Some(i) = ended {
            self.reconcile_aggregates(i, true, true);
            if let RunState::Sleeping { remaining } = self.procs[i].state {
                self.sleep_min = Some(self.sleep_min.map_or(remaining, |m| m.min(remaining)));
            }
        }
        self.stall_debt = 0.0;
        self.current = cur.map(|c| self.race[c].idx);
        self.now += k;
        k
    }

    /// Batches a thrashing span: `w` work ticks by `chosen`, each
    /// followed by the page-fault stall its fractional efficiency
    /// charges, exactly as the per-tick path interleaves them.
    ///
    /// Equivalence argument: memory aggregates cannot change inside the
    /// span (no wake lands before the bound `min_sleep`, nobody else
    /// runs, and the chosen's busy period can end only on the *last*
    /// work tick), so the efficiency — and therefore the per-tick debt
    /// increment `d` — is bit-constant. The scalar loop below replays
    /// `step()`'s float sequence verbatim (`debt += d; floor; subtract`)
    /// so the residual `stall_debt` lands on identical bits. Stalls of
    /// the final work tick are left *pending* (as `iowait_until`)
    /// whenever that tick ends the busy period or the tick budget runs
    /// out, because `step()` re-checks the memory pressure on every
    /// stall tick and the pressure may have just changed.
    #[inline(always)]
    fn batch_thrash_span(
        &mut self,
        rem: u64,
        chosen: usize,
        margin: u64,
        min_sleep: Option<u64>,
    ) -> u64 {
        let busy0 = self.procs[chosen].progress.busy_left;
        let mut cap_w = self.procs[chosen].counter.min(busy0).min(margin);
        if let Some(m) = min_sleep {
            cap_w = cap_w.min(m);
        }
        if cap_w == 0 {
            return 0; // an exhausted counter: step() recalculates quanta
        }
        let d = {
            let eff = self.memory_efficiency();
            ((1.0 - eff) / eff).min(50.0)
        };

        let log_on = self.run_log.is_some();
        let mut log_positions: Vec<u64> = Vec::new();
        let mut debt = self.stall_debt;
        let mut w: u64 = 0;
        let mut consumed_stalls: u64 = 0;
        // Absolute tick position as the span replays; becomes `now`.
        let mut pos = self.now;
        // `iowait_until` as the per-tick path would have left it: set by
        // the last work tick whose debt crossed a whole stall.
        let mut iowait_until = None;
        while w < cap_w && w + consumed_stalls < rem {
            if log_on {
                log_positions.push(pos);
            }
            w += 1;
            debt += d;
            let whole = debt.floor();
            pos += 1;
            if whole >= 1.0 {
                debt -= whole;
                let stall = whole as u64;
                iowait_until = Some(pos + stall);
                if w == busy0 {
                    // The busy period ends on this tick; the pressure
                    // may change, so its stall is re-checked per tick.
                    break;
                }
                let avail = rem - (w + consumed_stalls);
                let c = stall.min(avail);
                consumed_stalls += c;
                pos += c;
                if c < stall {
                    break; // tick budget exhausted mid-stall
                }
            }
        }
        let total = w + consumed_stalls;
        if total < 2 {
            return 0;
        }

        // Bulk-apply, in step() order. Sleep timers tick only on work
        // ticks (stall ticks return before the wake pass), hence `w`.
        for sp in &mut self.procs {
            sp.sleep_bulk(w);
        }
        if let Some(m) = &mut self.sleep_min {
            *m -= w;
        }
        {
            let p = &mut self.procs[chosen];
            p.counter -= w;
            p.run_bulk(w);
        }
        self.reconcile_aggregates(chosen, true, true);
        if let RunState::Sleeping { remaining } = self.procs[chosen].state {
            self.sleep_min = Some(match self.sleep_min {
                Some(m) => m.min(remaining),
                None => remaining,
            });
        }
        self.stall_debt = debt;
        if let Some(u) = iowait_until {
            self.iowait_until = u;
        }
        match self.procs[chosen].spec.class {
            ProcClass::Host => self.acct.host += w,
            ProcClass::System => self.acct.system += w,
            ProcClass::Guest => self.acct.guest += w,
        }
        self.acct.iowait += consumed_stalls;
        if let Some(log) = &mut self.run_log {
            let pid = self.procs[chosen].pid;
            log.extend(log_positions.into_iter().map(|t| (t, pid)));
        }
        for (i, sp) in self.procs.iter_mut().enumerate() {
            if i != chosen && sp.is_runnable() {
                sp.wait_ticks += w;
            }
        }
        self.current = Some(chosen);
        self.now = pos;
        total
    }

    /// Measures CPU accounting over the next `ticks` ticks and returns
    /// the delta — the primitive behind every utilization measurement in
    /// the contention experiments.
    ///
    /// Leaves the machine exactly as [`Machine::run_ticks`]`(ticks)`
    /// would, but skips what it already knows. Once its processes are
    /// spawned the machine is a deterministic integer state plus one
    /// float (`stall_debt`) compared bit for bit, so when the scheduling
    /// state at one moment equals the state at an earlier one,
    /// everything after repeats with period `L`, the ticks between
    /// them. `measure` samples that state each time process 0 falls
    /// asleep (a busy-period end, which ends every batch), keeps up to
    /// 512 samples (fewer when the machine's samples would pass 512 KB),
    /// and at the first repeat retires `⌊left / L⌋` whole periods in one
    /// update: each counter (accounting, `recalcs`, every process's
    /// `cpu_ticks`, `wait_ticks` and `busy_left`) moves by that many
    /// times its change over one period, and the clock moves by that
    /// many `L`. The rest of the window runs through `run_ticks`. With
    /// the run log on, every tick runs through `run_ticks`. See DESIGN
    /// §7.1, "Periodic fast-forward".
    pub fn measure(&mut self, ticks: u64) -> CpuAccounting {
        let before = self.acct;
        let rest = if self.run_log.is_none() {
            self.run_to_period(ticks)
        } else {
            ticks
        };
        self.run_ticks(rest);
        self.acct.since(&before)
    }

    /// CPU usage of one pid over the next `ticks` ticks, through
    /// [`Machine::measure`]; 0 for an empty window.
    pub fn measure_pid(&mut self, pid: Pid, ticks: u64) -> Result<f64, SimError> {
        let i = self.index(pid)?;
        let before = self.procs[i].cpu_ticks;
        self.measure(ticks);
        Ok(if ticks == 0 {
            0.0
        } else {
            (self.procs[i].cpu_ticks - before) as f64 / ticks as f64
        })
    }

    /// Advances up to `ticks` ticks exactly as `run_ticks` does, sampling
    /// the scheduling state each time process 0 falls asleep, until a
    /// sample repeats an earlier one; then retires as many whole periods
    /// as fit. Returns the ticks still to run.
    fn run_to_period(&mut self, ticks: u64) -> u64 {
        if self.procs.is_empty() || !self.endless_work_outlasts(ticks) {
            return ticks;
        }
        PERIOD_SCAN.with_borrow_mut(|scan| {
            scan.reset(self.procs.len());
            let mut rem = ticks;
            while rem > 0 && !scan.full() {
                let ran_before = self.procs[0].cpu_ticks;
                let k = self.try_batch(rem);
                if k == 0 {
                    self.step();
                    rem -= 1;
                } else {
                    rem -= k;
                }
                // Process 0 ran and is asleep: its busy period ended on
                // this batch's last tick.
                if self.procs[0].cpu_ticks == ran_before
                    || !matches!(self.procs[0].state, RunState::Sleeping { .. })
                {
                    continue;
                }
                if let Some(then) = scan.sample(self) {
                    let period = self.now - then[0];
                    let n = rem / period;
                    self.retire_periods(then, n);
                    return rem - n * period;
                }
            }
            rem
        })
    }

    /// Whether every endless CPU-bound process has more than `ticks`
    /// ticks of `busy_left` left. Such a process counts `busy_left` down
    /// from `u64::MAX` and `step()` reads it only when it reaches 0, so
    /// the state key leaves it out; this check keeps that 0 outside the
    /// window.
    fn endless_work_outlasts(&self, ticks: u64) -> bool {
        self.procs.iter().all(|p| {
            !matches!(p.spec.demand, Demand::CpuBound { total_work: None })
                || p.progress.busy_left > ticks
        })
    }

    /// Appends the state key: everything `step()` and `try_batch` read,
    /// less the caches derived from it (resident sums, runnable count,
    /// wake horizon) and the `busy_left` of endless CPU-bound processes.
    /// The stall debt goes in as its bits.
    fn push_state_key(&self, out: &mut Vec<u64>) {
        out.extend([
            self.current.map_or(u64::MAX, |c| c as u64),
            self.iowait_until.saturating_sub(self.now),
            self.stall_debt.to_bits(),
            self.service_up as u64,
        ]);
        for p in &self.procs {
            let (tag, val) = match p.state {
                RunState::Runnable => (0, 0),
                RunState::Sleeping { remaining } => (1, remaining),
                RunState::Suspended {
                    prev: SleepOrRun::Runnable,
                } => (2, 0),
                RunState::Suspended {
                    prev: SleepOrRun::Sleeping(r),
                } => (3, r),
                RunState::Exited => (4, 0),
            };
            let busy_left = match p.spec.demand {
                Demand::CpuBound { total_work: None } => 0,
                _ => p.progress.busy_left,
            };
            out.extend([
                p.nice as u64,
                p.counter,
                tag,
                val,
                p.progress.phase as u64,
                busy_left,
            ]);
        }
    }

    /// Appends the counters a skipped period advances: `now`, the
    /// accounting, `recalcs`, then each process's `cpu_ticks`,
    /// `wait_ticks` and `busy_left`.
    fn push_accumulators(&self, out: &mut Vec<u64>) {
        let a = &self.acct;
        out.extend([
            self.now,
            a.host,
            a.system,
            a.guest,
            a.idle,
            a.iowait,
            self.recalcs,
        ]);
        for p in &self.procs {
            out.extend([p.cpu_ticks, p.wait_ticks, p.progress.busy_left]);
        }
    }

    /// Retires `n` more periods of the cycle that began at the sample
    /// whose accumulators are `then` and ends now: every counter moves
    /// by `n` times its change since then (`busy_left` counts down), and
    /// the clock and the pending stall's end move by `n` periods.
    fn retire_periods(&mut self, then: &[u64], n: u64) {
        let fwd = |cur: &mut u64, old: u64| *cur += n * (*cur - old);
        let skip = n * (self.now - then[0]);
        self.now += skip;
        self.iowait_until += skip;
        let a = &mut self.acct;
        for (cur, &old) in [
            &mut a.host,
            &mut a.system,
            &mut a.guest,
            &mut a.idle,
            &mut a.iowait,
            &mut self.recalcs,
        ]
        .into_iter()
        .zip(&then[1..MACHINE_ACCS])
        {
            fwd(cur, old);
        }
        for (p, old) in self.procs.iter_mut().zip(then[MACHINE_ACCS..].chunks(3)) {
            fwd(&mut p.cpu_ticks, old[0]);
            fwd(&mut p.wait_ticks, old[1]);
            p.progress.busy_left -= n * (old[2] - p.progress.busy_left);
        }
        #[cfg(test)]
        {
            self.skipped_ticks += skip;
        }
    }
}

/// The Linux 2.4 goodness function (CPU-bound part): `0` when the quantum
/// is exhausted, else `counter + 20 − nice`.
#[inline]
fn goodness(p: &Process) -> i64 {
    if p.counter == 0 {
        0
    } else {
        p.counter as i64 + 20 - p.nice as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{Demand, MemSpec};
    use crate::time::secs;

    fn host(usage: f64) -> ProcSpec {
        ProcSpec::synthetic_host(format!("h{usage}"), usage, 40)
    }

    #[test]
    fn empty_machine_idles() {
        let mut m = Machine::default_linux();
        m.run_ticks(100);
        assert_eq!(m.accounting().idle, 100);
        assert_eq!(m.now(), 100);
    }

    #[test]
    fn lone_cpu_bound_process_gets_everything() {
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        let d = m.measure(secs(10));
        assert_eq!(d.guest, secs(10));
        assert_eq!(d.idle, 0);
    }

    #[test]
    fn duty_cycle_achieves_isolated_usage() {
        let mut m = Machine::default_linux();
        m.spawn(host(0.3));
        let d = m.measure(secs(60));
        let usage = d.host_load();
        assert!((usage - 0.3).abs() < 0.02, "usage {usage}");
    }

    #[test]
    fn equal_cpu_bound_processes_share_evenly() {
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::new(
            "a",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        ));
        m.spawn(ProcSpec::cpu_bound_guest("b", 0));
        let d = m.measure(secs(30));
        let host_share = d.host as f64 / d.total() as f64;
        assert!((host_share - 0.5).abs() < 0.02, "host share {host_share}");
    }

    #[test]
    fn nice19_gets_quantum_ratio_share() {
        // Two CPU-bound processes, nice 0 vs nice 19: per epoch the nice-0
        // process gets 6 ticks and the nice-19 process 1 tick, so the
        // shares approach 6/7 and 1/7.
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::new(
            "h",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        ));
        m.spawn(ProcSpec::cpu_bound_guest("g", 19));
        let d = m.measure(secs(60));
        let guest_share = d.guest as f64 / d.total() as f64;
        assert!(
            (guest_share - 1.0 / 7.0).abs() < 0.02,
            "guest share {guest_share}"
        );
    }

    #[test]
    fn interactive_host_preempts_cpu_bound_guest() {
        // A 10%-duty host with a nice-0 CPU-bound guest: the host's
        // banked quantum lets it preempt, so its usage barely drops.
        let mut m = Machine::default_linux();
        let h = m.spawn(host(0.1));
        m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        m.run_ticks(secs(5)); // warm up counters
        let usage = m.measure_pid(h, secs(60)).unwrap();
        assert!(usage > 0.09, "host usage {usage}");
    }

    #[test]
    fn cpu_time_is_conserved() {
        let mut m = Machine::default_linux();
        m.spawn(host(0.4));
        m.spawn(host(0.2));
        m.spawn(ProcSpec::cpu_bound_guest("g", 19));
        m.run_ticks(12_345);
        let a = m.accounting();
        assert_eq!(a.total(), 12_345);
        let proc_ticks: u64 = m.processes().map(|p| p.cpu_ticks).sum();
        assert_eq!(proc_ticks + a.idle, 12_345);
    }

    #[test]
    fn kill_stops_scheduling() {
        let mut m = Machine::default_linux();
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        m.run_ticks(100);
        m.kill(g).unwrap();
        let before = m.process(g).unwrap().cpu_ticks;
        m.run_ticks(100);
        assert_eq!(m.process(g).unwrap().cpu_ticks, before);
        assert_eq!(m.accounting().idle, 100);
    }

    #[test]
    fn suspend_and_resume_control_scheduling() {
        let mut m = Machine::default_linux();
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        m.suspend(g).unwrap();
        m.run_ticks(50);
        assert_eq!(m.process(g).unwrap().cpu_ticks, 0);
        m.resume(g).unwrap();
        m.run_ticks(50);
        assert_eq!(m.process(g).unwrap().cpu_ticks, 50);
    }

    #[test]
    fn renice_takes_effect() {
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::new(
            "h",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        ));
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        m.renice(g, 19).unwrap();
        let d = m.measure(secs(60));
        let guest_share = d.guest as f64 / d.total() as f64;
        assert!(guest_share < 0.2, "guest share {guest_share}");
    }

    #[test]
    fn control_calls_validate_pids() {
        let mut m = Machine::default_linux();
        assert_eq!(m.kill(Pid(0)), Err(SimError::NoSuchProcess(Pid(0))));
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        m.kill(g).unwrap();
        assert_eq!(m.kill(g), Err(SimError::ProcessExited(g)));
        assert_eq!(m.renice(g, 40), Err(SimError::BadNice(40)));
    }

    #[test]
    fn memory_accounting_and_thrashing_flag() {
        let mut m = Machine::new(MachineConfig::solaris_384mb());
        assert!(!m.is_thrashing());
        assert_eq!(m.free_mem_for_guest_mb(), 284);
        let h = m.spawn(ProcSpec::new(
            "bigh",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::resident(200),
        ));
        assert_eq!(m.free_mem_for_guest_mb(), 84);
        assert!(!m.is_thrashing());
        let g = m.spawn(ProcSpec::new(
            "bigg",
            ProcClass::Guest,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::resident(190),
        ));
        assert!(m.is_thrashing());
        assert!(m.memory_efficiency() < 1.0);
        // Suspending the guest pages it out and ends the thrashing.
        m.suspend(g).unwrap();
        assert!(!m.is_thrashing());
        assert_eq!(m.memory_efficiency(), 1.0);
        // Host resident unchanged by guest state.
        assert_eq!(m.host_resident_mb(), 200);
        m.kill(h).unwrap();
        assert_eq!(m.host_resident_mb(), 0);
    }

    #[test]
    fn thrashing_slows_progress() {
        // Same finite workload with and without memory pressure.
        let work = secs(5);
        let run = |extra_mem: u32| -> u64 {
            let mut m = Machine::new(MachineConfig::solaris_384mb());
            m.spawn(ProcSpec::new(
                "job",
                ProcClass::Host,
                0,
                Demand::CpuBound {
                    total_work: Some(work),
                },
                MemSpec::resident(150),
            ));
            if extra_mem > 0 {
                m.spawn(ProcSpec::new(
                    "hog",
                    ProcClass::Host,
                    0,
                    Demand::duty_cycle(0.01, 100),
                    MemSpec::resident(extra_mem),
                ));
            }
            let mut ticks = 0;
            while !m.processes().next().unwrap().is_exited() && ticks < secs(120) {
                m.step();
                ticks += 1;
            }
            ticks
        };
        let fast = run(0);
        let slow = run(350); // 150 + 350 + 100 kernel >> 384
        assert!(slow > fast + fast / 2, "fast {fast} slow {slow}");
        // And the iowait accounting must show the stall.
        let mut m = Machine::new(MachineConfig::solaris_384mb());
        m.spawn(ProcSpec::new(
            "hog",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::resident(500),
        ));
        let d = m.measure(secs(10));
        assert!(d.iowait > 0, "no iowait recorded: {d:?}");
        assert!(
            d.host_load() < 0.9,
            "host load should collapse: {}",
            d.host_load()
        );
    }

    #[test]
    fn goodness_prefers_higher_counter_at_same_nice() {
        let mut a = Process::spawn(Pid(0), ProcSpec::cpu_bound_guest("a", 0), 0);
        let b = Process::spawn(Pid(1), ProcSpec::cpu_bound_guest("b", 0), 0);
        a.counter = 10;
        assert!(goodness(&a) > goodness(&b));
    }

    #[test]
    fn goodness_zero_when_exhausted() {
        let mut p = Process::spawn(Pid(0), ProcSpec::cpu_bound_guest("a", -10), 0);
        p.counter = 0;
        assert_eq!(goodness(&p), 0);
    }

    #[test]
    fn epoch_pattern_is_six_to_one_for_nice19() {
        // Two CPU-bound processes, nice 0 and nice 19: after warm-up,
        // each scheduler epoch must run the nice-0 process for its 6-tick
        // quantum and the nice-19 process for its single tick — the 2.4
        // NICE_TO_TICKS table in action.
        let mut m = Machine::default_linux();
        let h = m.spawn(ProcSpec::new(
            "h",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        ));
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 19));
        m.run_ticks(secs(2)); // settle counters
        m.enable_run_log();
        m.run_ticks(70); // ten epochs
        let log = m.run_log();
        // Count maximal runs of each pid.
        let mut runs: Vec<(Pid, u64)> = Vec::new();
        for &(_, pid) in log {
            match runs.last_mut() {
                Some((p, n)) if *p == pid => *n += 1,
                _ => runs.push((pid, 1)),
            }
        }
        // Drop the possibly-truncated first and last runs.
        for (pid, len) in &runs[1..runs.len() - 1] {
            if *pid == h {
                assert_eq!(*len, 6, "host quantum run length");
            } else {
                assert_eq!(*pid, g);
                assert_eq!(*len, 1, "guest quantum run length");
            }
        }
        assert!(runs.len() >= 10, "expected several epochs, got {runs:?}");
    }

    #[test]
    fn run_log_is_empty_unless_enabled() {
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        m.run_ticks(10);
        assert!(m.run_log().is_empty());
        m.enable_run_log();
        m.run_ticks(5);
        assert_eq!(m.run_log().len(), 5);
        assert_eq!(m.run_log()[0].1, Pid(0));
    }

    #[test]
    fn revocation_toggles_service_liveness() {
        let mut m = Machine::default_linux();
        assert!(m.service_alive(), "a freshly booted machine serves");
        m.spawn(ProcSpec::cpu_bound_guest("g", 19));
        m.revoke();
        assert!(!m.service_alive());
        // The host keeps running while the service is down.
        let before = m.now();
        m.run_ticks(10);
        assert_eq!(m.now(), before + 10);
        m.restore_service();
        assert!(m.service_alive());
    }

    #[test]
    fn exhausted_process_waits_for_epoch() {
        // With one CPU-bound nice-0 process and one nice-19, the nice-19
        // process must still run within every epoch (starvation freedom).
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::new(
            "h",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        ));
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 19));
        m.run_ticks(secs(10));
        assert!(m.process(g).unwrap().cpu_ticks > 0, "nice 19 starved");
    }

    #[test]
    fn measure_pid_of_an_empty_window_is_zero() {
        let mut m = Machine::default_linux();
        let g = m.spawn(ProcSpec::cpu_bound_guest("g", 0));
        assert_eq!(m.measure_pid(g, 0), Ok(0.0));
        assert_eq!(m.measure_pid(g, 10), Ok(1.0));
        assert_eq!(
            m.measure_pid(Pid(7), 10),
            Err(SimError::NoSuchProcess(Pid(7)))
        );
    }

    /// Two Figure 1 points as `contention::reduction_point` builds
    /// them (seed, stream and combination 0) and a deeply thrashing
    /// machine: whole periods of the 240 s window must be skipped, not
    /// stepped. A change that silently stops skipping fails here, not
    /// only in the timings.
    #[test]
    fn measure_skips_whole_periods_on_figure1_points() {
        use crate::workloads::synthetic;
        use fgcs_stats::rng::Rng;
        for (m, lh, nice) in [(1usize, 0.5, 0i8), (3, 0.6, 19)] {
            let stream = (lh * 1000.0) as u64 ^ ((m as u64) << 20) ^ ((nice as u64) << 32);
            let mut rng = Rng::for_stream(0x4647_4353, stream);
            let mut machine = Machine::default_linux();
            for spec in synthetic::host_group(&mut rng, lh, m) {
                machine.spawn(spec);
            }
            machine.spawn(synthetic::guest_process(nice));
            assert_skips_half(machine, &format!("Figure 1, M={m}"));
        }
        // A machine so overcommitted that every work tick stalls for the
        // 50-tick cap: periodic, with a stall pending at every sample.
        let mut machine = Machine::new(MachineConfig::solaris_384mb());
        machine.spawn(ProcSpec::new(
            "host",
            ProcClass::Host,
            0,
            Demand::DutyCycle { busy: 5, idle: 40 },
            MemSpec::resident(6_000),
        ));
        machine.spawn(ProcSpec::cpu_bound_guest("g", 19));
        assert_skips_half(machine, "deep thrashing");
    }

    /// Warms `machine` up for 20 s, measures 240 s, and requires at
    /// least half the window retired by skipping.
    fn assert_skips_half(mut machine: Machine, ctx: &str) {
        machine.run_ticks(secs(20));
        let window = secs(240);
        assert_eq!(machine.measure(window).total(), window);
        assert!(
            machine.skipped_ticks * 2 >= window,
            "{ctx}: skipped {} of {window} ticks",
            machine.skipped_ticks
        );
    }
}
