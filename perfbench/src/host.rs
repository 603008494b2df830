//! Provenance of a result and the process's own resource use.

use serde::Value;

/// Host CPU model name (first `model name` in `/proc/cpuinfo`).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may use; the rayon shim caps its fan-out here.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs the calling thread may run on, ascending; empty where the
/// affinity mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    affinity::get().unwrap_or_default()
}

/// Restricts the calling thread, and every thread it spawns from then on,
/// to `cpu`. The rayon shim sizes its fan-out by this mask, so a pinned
/// thread runs its parallel iterators inline. Returns whether it worked.
pub fn pin_to(cpu: usize) -> bool {
    affinity::set(cpu)
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];
    const BITS: usize = 64 * 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<Vec<usize>> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable mask of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then(|| {
            (0..BITS)
                .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
                .collect()
        })
    }

    pub fn set(cpu: usize) -> bool {
        if cpu >= BITS {
            return false;
        }
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a mask of exactly the size passed; pid 0 is the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Option<Vec<usize>> {
        None
    }

    pub fn set(_cpu: usize) -> bool {
        false
    }
}

/// The checkout's commit, when it is a git repository.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Everything a result records about where and how it was measured:
/// `nproc` is the host's count before pinning, `threads` the count a set-up
/// or pass ran with.
pub fn provenance(workload: &str, seed: u64, trace: bool, nproc: usize, threads: usize) -> Value {
    Value::Map(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(seed)),
        ("trace".into(), Value::Bool(trace)),
        ("cpu".into(), Value::Str(cpu_model())),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("threads".into(), Value::U64(threads as u64)),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "profile".into(),
            Value::Str(env!("PERFBENCH_PROFILE").into()),
        ),
        ("commit".into(), Value::Str(commit())),
    ])
}
