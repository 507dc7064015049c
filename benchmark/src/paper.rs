//! `paper_all`: passes of `fgcs-exp all` in a scratch directory, each
//! followed by a byte-compare of every regenerated `results/*.csv` with
//! the committed file. This is what someone reproducing the paper runs,
//! and the only workload that reaches `fgcs-sim`'s contention sweeps,
//! `fgcs-core::cluster`, `fgcs-predict::proactive` and the exact
//! analysis oracles.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::adapter::{SimMachine, SimMix, SIM_TICKS_PER_S};
use crate::procfs;
use crate::registry::EXPERIMENTS;
use crate::report::{print_spread, RunResult};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::Scale;

/// CSVs one pass of `fgcs-exp all` writes.
const CSVS_PER_PASS: usize = 21;

/// The repository root: the benchmark package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory")
        .to_path_buf()
}

/// Builds `fgcs-exp` from the repository's own workspace, with its own
/// manifest and lock file, into the target directory cargo would use
/// anyway, and returns the binary's path. Not counted as set-up: it is a
/// build, and a no-op on every run but the first in a checkout.
fn build_experiments() -> Result<PathBuf, String> {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or("cargo".into()))
        .args(["build", "--release", "--offline", "-p", "fgcs-experiments"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fgcs-exp failed: {status}"));
    }
    let exe = target.join("release").join("fgcs-exp");
    if !exe.is_file() {
        return Err(format!("{} was not built", exe.display()));
    }
    Ok(exe)
}

struct Bench {
    exe: PathBuf,
    /// Scratch directory the experiments write into, inside `out/`.
    scratch: PathBuf,
    /// The committed CSVs, by file name.
    committed: BTreeMap<String, Vec<u8>>,
}

/// One finished `fgcs-exp` process.
struct Child {
    wall_s: f64,
    peak_rss_mb: f64,
    start_ns: u64,
    end_ns: u64,
}

impl Bench {
    /// Creates the scratch directory, loads the committed CSVs and runs
    /// the cheapest experiment once so the binary is paged in.
    fn set_up(exe: &Path, out_dir: &Path) -> Result<Bench, String> {
        let scratch = out_dir.join(format!("paper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let results = repo_root().join("results");
        let mut committed = BTreeMap::new();
        for entry in
            std::fs::read_dir(&results).map_err(|e| format!("{}: {e}", results.display()))?
        {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|e| e == "csv") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                committed.insert(name, std::fs::read(&path).map_err(|e| e.to_string())?);
            }
        }
        let bench = Bench {
            exe: exe.to_path_buf(),
            scratch,
            committed,
        };
        bench.spawn("fig5", Instant::now())?;
        Ok(bench)
    }

    /// Runs `fgcs-exp <experiment>` in the scratch directory and waits
    /// for it, sampling its peak resident set while it lives.
    fn spawn(&self, experiment: &str, epoch: Instant) -> Result<Child, String> {
        let start = Instant::now();
        let mut child = Command::new(&self.exe)
            .arg(experiment)
            .current_dir(&self.scratch)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", self.exe.display()))?;
        let mut peak_rss_mb = 0.0f64;
        let status = loop {
            if let Some(mb) = procfs::peak_rss_of_mb(child.id()) {
                peak_rss_mb = peak_rss_mb.max(mb);
            }
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                // Often enough to time a 4 ms experiment, seldom enough
                // not to compete with a 2 s one for the CPU.
                None => std::thread::sleep((start.elapsed() / 20).min(Duration::from_millis(20))),
            }
        };
        let end = Instant::now();
        if !status.success() {
            return Err(format!("fgcs-exp {experiment} exited with {status}"));
        }
        Ok(Child {
            wall_s: end.duration_since(start).as_secs_f64(),
            peak_rss_mb,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
        })
    }

    /// Byte-compares every CSV in the scratch `results/` with the
    /// committed file of the same name, then deletes them so the next
    /// pass cannot pass on stale output. Adds to `attempted`/`failed`.
    fn compare(&self, result: &mut RunResult) -> Result<(), String> {
        let dir = self.scratch.join("results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_none_or(|e| e != "csv") {
                continue;
            }
            seen += 1;
            result.attempted += 1;
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let fresh = std::fs::read(&path).map_err(|e| e.to_string())?;
            if self.committed.get(&name) != Some(&fresh) {
                result.failed += 1;
                result.fail(format!("results/{name} differs from the committed file"));
            }
        }
        if seen != CSVS_PER_PASS {
            result.failed += 1;
            result.fail(format!(
                "a pass wrote {seen} CSVs, expected {CSVS_PER_PASS}"
            ));
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

pub fn run(scale: &Scale, out_dir: &Path) -> Result<RunResult, String> {
    let exe = build_experiments()?;
    let mut result = RunResult::default();

    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..scale.setup_reps {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::set_up(&exe, out_dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");

    let (_, cpu_before) = procfs::process_cpu_s();
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < scale.seconds {
        passes.push(bench.spawn("all", start)?);
        bench.compare(&mut result)?;
        if scale.quick {
            break; // one full pass is the smallest unit that can be checked
        }
    }
    let (_, cpu_after) = procfs::process_cpu_s();

    let experiments = EXPERIMENTS.len() as f64;
    let secs: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let per_s = quartiles(&secs.iter().map(|s| experiments / s).collect::<Vec<_>>());
    let pass_us = quartiles(&secs.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    println!(
        "paper_all: {} passes of fgcs-exp all, {} CSVs compared",
        passes.len(),
        result.attempted
    );
    print_spread("work_per_s", "1/s", &per_s);
    print_spread("result_p50_us", "us", &pass_us);
    result.set("setup_s", median(&setups));
    result.set("work_per_s", per_s.median);
    result.set("result_p50_us", pass_us.median);
    result.set(
        "cpu_us_per_work",
        (cpu_after - cpu_before) * 1e6 / (experiments * passes.len() as f64),
    );
    result.set(
        "peak_rss_mb",
        passes.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max),
    );
    result.correct = result.problems.is_empty();
    Ok(result)
}

/// Ticks per wall second of `Machine::run_ticks` on one process mix,
/// measured past the spawn transients like the repo's own bench.
fn sim_ticks_per_s(mix: SimMix, budget_s: f64) -> f64 {
    let mut m = SimMachine::new(mix);
    m.run_ticks(5 * SIM_TICKS_PER_S);
    let span = 10 * SIM_TICKS_PER_S;
    let (t0, mut ticks) = (Instant::now(), 0u64);
    while t0.elapsed().as_secs_f64() < budget_s {
        m.run_ticks(span);
        ticks += span;
    }
    ticks as f64 / t0.elapsed().as_secs_f64()
}

pub fn run_traced(scale: &Scale, out_dir: &Path) -> Result<RunResult, String> {
    let exe = build_experiments()?;
    let mut result = RunResult::default();
    let bench = Bench::set_up(&exe, out_dir)?;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    // One pass, experiment by experiment, one process and one span each.
    let root = tracer.begin("paper.pass", 0, 0);
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        let child = bench.spawn(name, epoch)?;
        tracer.add(name, root, i as u64, child.start_ns, child.end_ns);
        result.set(&format!("exp.{name}_ms"), child.wall_s * 1e3);
    }
    tracer.end(root);
    bench.compare(&mut result)?;
    let split_s = tracer.layer_stats()["paper.pass"].total_ns as f64 / 1e9;

    // The same work as the single process a user runs.
    if !scale.quick {
        let whole = bench.spawn("all", epoch)?;
        bench.compare(&mut result)?;
        result.set("trace.overhead_share", whole.wall_s / split_s - 1.0);
    }

    let budget = 0.03 * scale.seconds;
    result.set(
        "sim.ticks_per_s_idle",
        sim_ticks_per_s(SimMix::Idle, budget),
    );
    result.set(
        "sim.ticks_per_s_contended",
        sim_ticks_per_s(SimMix::Contended, budget),
    );
    result.set(
        "sim.ticks_per_s_thrashing",
        sim_ticks_per_s(SimMix::Thrashing, budget),
    );

    println!(
        "paper_all: one pass as {} processes took {split_s:.2} s; {} CSVs compared",
        EXPERIMENTS.len(),
        result.attempted
    );
    let path = out_dir.join("trace-paper_all.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "paper_all: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    result.correct = result.problems.is_empty();
    Ok(result)
}
