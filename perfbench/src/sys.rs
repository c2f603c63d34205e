//! Host facts the benchmark reads from Linux: CPU pinning, per-process
//! CPU time, context switches and peak memory from `/proc`, the machine
//! fingerprint, and a fixed host-speed probe.

use std::time::Instant;

/// CPUs this process may run on, ascending (from `Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_to(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const MASK_WORDS: usize = 16;
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1u64 << (cpu % 64);
    }
    if mask == [0; MASK_WORDS] {
        return false;
    }
    // SAFETY: the mask pointer is valid for `MASK_WORDS * 8` bytes, the
    // call only reads it, and `pid = 0` targets the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Sends SIGKILL to `pid`.
pub fn kill(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: a plain syscall on a process id; no memory is shared.
        unsafe {
            kill(pid, 9);
        }
    }
}

/// The thread ids of a process.
fn tasks(pid: u32) -> Vec<String> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|dir| {
            dir.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_default()
}

/// CPU time of every live thread of `pid`, in microseconds, from
/// `/proc/<pid>/task/*/schedstat` (nanosecond on-CPU time, unlike the
/// 10 ms ticks of `/proc/<pid>/stat`).
pub fn cpu_us(pid: u32) -> f64 {
    let ns: u64 = tasks(pid)
        .iter()
        .filter_map(|t| std::fs::read_to_string(format!("/proc/{pid}/task/{t}/schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e3
}

/// Voluntary plus involuntary context switches of every live thread of
/// `pid`.
pub fn ctx_switches(pid: u32) -> u64 {
    tasks(pid)
        .iter()
        .filter_map(|t| std::fs::read_to_string(format!("/proc/{pid}/task/{t}/status")).ok())
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit the benchmark runs on, or `"unknown"` outside a git
/// checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A fixed host-speed probe: milliseconds for an integer ALU loop and
/// for eight streaming passes over a 32 MiB buffer. Identical work every run,
/// so drift between the probes before and after a run measures the
/// host (neighbours, frequency), not the program.
/// Each loop is the fastest of three tries.
pub fn speed_probe() -> (f64, f64) {
    let fastest = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let alu_ms = fastest(&|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..40_000_000u64 {
            x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        std::hint::black_box(x);
    });
    let buf = vec![1u64; 32 << 17];
    let stream_ms = fastest(&|| {
        for _ in 0..8 {
            let sum = buf.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            std::hint::black_box(sum);
        }
    });
    (alu_ms, stream_ms)
}
