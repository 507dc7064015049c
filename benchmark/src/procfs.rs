//! What the kernel reports about this process and its children, read
//! from `/proc`: per-thread on-CPU time, user/system split, resident
//! set. The benchmark measures the server from outside, so these files
//! are its only view of where the server's threads spent their time.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/*/stat`. Linux has reported 100 to user space on every
/// architecture since 2.6, whatever the kernel's own HZ.
const TICKS_PER_S: f64 = 100.0;

/// CPU time of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskCpu {
    /// Time on a CPU, ns (`schedstat` field 1; `utime + stime` where the
    /// kernel lacks schedstats).
    pub on_cpu_ns: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl TaskCpu {
    fn minus(self, earlier: TaskCpu) -> TaskCpu {
        TaskCpu {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }

    fn plus(self, o: TaskCpu) -> TaskCpu {
        TaskCpu {
            on_cpu_ns: self.on_cpu_ns + o.on_cpu_ns,
            user_s: self.user_s + o.user_s,
            sys_s: self.sys_s + o.sys_s,
        }
    }
}

/// The calling thread's kernel id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// `(utime, stime)` in seconds from a `stat` line. The command name may
/// contain spaces, so fields are counted from the closing parenthesis.
fn user_sys_from_stat(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

/// CPU time and name of every live thread of this process, by tid.
pub fn tasks() -> BTreeMap<u32, (String, TaskCpu)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let Some((user_s, sys_s)) = fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| user_sys_from_stat(&s))
        else {
            continue; // the thread exited between readdir and read
        };
        let on_cpu_ns = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(((user_s + sys_s) * 1e9) as u64);
        let name = fs::read_to_string(path.join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        out.insert(
            tid,
            (
                name,
                TaskCpu {
                    on_cpu_ns,
                    user_s,
                    sys_s,
                },
            ),
        );
    }
    out
}

/// CPU spent between two [`tasks`] snapshots, split into the driver
/// thread and everything else. Threads that lived only inside the
/// interval are missed; the serve workloads start every server thread
/// before the first snapshot.
pub struct CpuSplit {
    pub driver: TaskCpu,
    pub others: TaskCpu,
    /// On-CPU ns of the other threads, summed by thread name.
    pub by_name: BTreeMap<String, u64>,
}

pub fn cpu_between(
    before: &BTreeMap<u32, (String, TaskCpu)>,
    after: &BTreeMap<u32, (String, TaskCpu)>,
    driver_tid: u32,
) -> CpuSplit {
    let mut split = CpuSplit {
        driver: TaskCpu::default(),
        others: TaskCpu::default(),
        by_name: BTreeMap::new(),
    };
    for (tid, (name, now)) in after {
        let spent = now.minus(before.get(tid).map_or(TaskCpu::default(), |(_, c)| *c));
        if *tid == driver_tid {
            split.driver = spent;
        } else {
            split.others = split.others.plus(spent);
            *split.by_name.entry(name.clone()).or_default() += spent.on_cpu_ns;
        }
    }
    split
}

/// CPU seconds of the whole process, exited threads included, and of
/// its waited-for children: `(own, children)`.
pub fn process_cpu_s() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let own = user_sys_from_stat(&stat).map_or(0.0, |(u, s)| u + s);
    let children = (|| {
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace();
        // cutime is field 16, cstime 17.
        let cutime: f64 = fields.nth(13)?.parse().ok()?;
        let cstime: f64 = fields.next()?.parse().ok()?;
        Some((cutime + cstime) / TICKS_PER_S)
    })()
    .unwrap_or(0.0);
    (own, children)
}

fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("self", "VmHWM:").unwrap_or(0.0)
}

/// Current resident set of this process, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("self", "VmRSS:").unwrap_or(0.0)
}

/// Peak resident set of another live process, MB; `None` once it is a
/// zombie (its memory is gone, and so are the `Vm*` lines).
pub fn peak_rss_of_mb(pid: u32) -> Option<f64> {
    status_mb(&pid.to_string(), "VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        // A command name with spaces and parentheses must not shift the
        // field positions.
        let stat = "1234 (a b) c) S 1 1 1 0 -1 4194560 100 0 0 0 250 75 11 22 20 0 3 0 5 6 7";
        assert_eq!(user_sys_from_stat(stat), Some((2.5, 0.75)));
    }

    #[test]
    fn this_thread_is_listed_and_burns_cpu() {
        let tid = current_tid();
        let before = tasks();
        assert!(before.contains_key(&tid));
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let split = cpu_between(&before, &tasks(), tid);
        assert!(split.driver.on_cpu_ns > 10_000_000, "{:?}", split.driver);
        assert!(peak_rss_mb() >= rss_mb() && rss_mb() > 0.0);
    }
}
