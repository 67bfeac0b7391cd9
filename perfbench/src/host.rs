//! Host facts read from `/proc`: fingerprint, kernel UDP counters,
//! per-thread CPU time and peak RSS.

use std::collections::BTreeMap;
use std::path::Path;

/// Kernel clock ticks per second of `/proc/*/stat` CPU times (USER_HZ,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Host and configuration facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// File system type holding the data directory.
    pub data_fs: String,
}

impl Fingerprint {
    /// Reads the fingerprint; `data_dir` must exist.
    pub fn read(data_dir: &Path) -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            kernel,
            data_fs: fs_type(data_dir),
        }
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The type of the file system mounted at the longest mount point that
/// prefixes `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

/// The kernel's `Udp:` counters from `/proc/net/snmp`.
pub fn udp_counters() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut lines = text.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(names), Some(values)) = (lines.next(), lines.next()) else {
        return BTreeMap::new();
    };
    names
        .split_whitespace()
        .skip(1)
        .zip(values.split_whitespace().skip(1))
        .filter_map(|(n, v)| Some((n.to_string(), v.parse().ok()?)))
        .collect()
}

/// `b[key] − a[key]`, saturating.
pub fn counter_delta(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, key: &str) -> u64 {
    b.get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(a.get(key).copied().unwrap_or(0))
}

/// The calling thread's kernel task id.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU seconds (user + system) used by every thread of this process
/// except those in `exclude`.
pub fn cpu_s_except(exclude: &[u32]) -> f64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ticks = 0u64;
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if exclude.contains(&tid) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // Fields after the parenthesised command name: state is the
        // first, utime the 12th and stime the 13th.
        let Some(rest) = stat.rsplit(')').next() else {
            continue;
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        ticks += field(11) + field(12);
    }
    ticks as f64 / TICKS_PER_S
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Lowers the calling thread's timer slack to 1 ns so short sleeps end
/// on time: the open-loop sender paces with `sleep` instead of
/// spinning a core, and the default 50 µs slack would show up as
/// generator lag.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value
        // and touches no memory of the caller; failure only leaves the
        // default slack in place.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}
