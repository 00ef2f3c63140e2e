//! What the host was like while a run measured.

use std::process::Command;
use std::time::Instant;

/// `VmHWM` from a `/proc/<pid>/status` file \[MiB\]; 0 when unreadable
/// (the process is gone, or the host has no procfs).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    let text = std::fs::read_to_string(status_path).unwrap_or_default();
    vm_hwm_kib(&text) as f64 / 1024.0
}

fn vm_hwm_kib(status: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}

/// A fixed integer spin \[ms\]. Run before and after a workload, it
/// tells a slow host from a slow program: the work is constant, so a
/// drift between the two readings is the neighbours'.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..20_000_000u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance every result file carries.
pub struct HostInfo {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl HostInfo {
    pub fn collect() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            // A driver checkout is not a git repository; the commit is
            // then unknown rather than an error.
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_and_defaults_to_zero() {
        let status = "Name:\tqwm\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9 kB\n";
        assert_eq!(vm_hwm_kib(status), 12345);
        assert_eq!(vm_hwm_kib("Name:\tqwm\n"), 0);
        assert_eq!(peak_rss_mb("/nonexistent/status"), 0.0);
        assert!(peak_rss_mb("/proc/self/status") > 0.0);
    }
}
