//! Host context printed beside every run: core count, the CPU time the
//! hypervisor stole while the run measured, and the load average. These
//! explain a noisy run; they carry no bound.

use std::fs;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One `kB` field of `/proc/self/status`.
fn status_kib(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak anonymous resident memory of this process, in MiB: `VmHWM` minus
/// the file-backed pages resident now (`RssFile`). The program's text and
/// shared libraries are file-backed, and how many of their pages a process
/// maps depends on the page cache, so counting them made the same run
/// read 5.9 MB or 7.2 MB; the anonymous part (heap, stacks) repeats.
pub fn peak_rss_anon_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status_kib(&status, "VmHWM:")?;
    let file = status_kib(&status, "RssFile:")?;
    Some((hwm - file) / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn read() -> Option<CpuTimes> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user time.
        let total = fields.iter().take(8).sum();
        Some(CpuTimes {
            steal: *fields.get(7)?,
            total,
        })
    }

    /// Percent of all CPU time between `self` and `later` that was stolen.
    pub fn steal_pct_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The 1-, 5- and 15-minute load averages as printed by the kernel.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}
