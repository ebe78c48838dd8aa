//! What every result records about the machine and the build.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Keys in the speed probe's map.
const PROBE_KEYS: usize = 16_384;
/// Operations the speed probe times (about 50 ms on a 2-vCPU Xeon VM).
const PROBE_OPS: usize = 100_000;
/// The probe rate throughputs are scaled to, in operations per second:
/// roughly what the probe reads on an unloaded 2-vCPU Xeon VM.
pub const REFERENCE_SPEED: f64 = 2.5e6;

/// The host's current speed: operations per second of a fixed kernel
/// owned by this package, so no change to the program can move it. Each
/// operation finds the first key at or above a random one in an ordered
/// map of [`PROBE_KEYS`] keys, removes it and inserts a fresh key: the
/// pointer chasing, branching and allocation the scheduler's queues and
/// ledgers do. On a shared host the speed a program gets drifts by tens
/// of percent over seconds and minutes; a throughput measured next to a
/// probe and scaled by [`REFERENCE_SPEED`]` / speed()` keeps only the
/// program's own speed.
#[must_use]
pub fn speed() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 20
    };
    let mut map = BTreeMap::new();
    for _ in 0..PROBE_KEYS {
        let k = next();
        map.insert(k, k as f64);
    }
    let t0 = Instant::now();
    let mut acc = 0.0;
    for _ in 0..PROBE_OPS {
        let k = next();
        let found = map.range(k..).next().map(|(&f, _)| f);
        if let Some(v) = found.and_then(|f| map.remove(&f)) {
            acc += f64::sqrt(v);
        }
        map.insert(next(), acc);
    }
    black_box(acc);
    PROBE_OPS as f64 / t0.elapsed().as_secs_f64()
}

/// Confine the calling thread, and every thread it spawns from now on,
/// to the core it is running on; returns that core, or `None` (and
/// changes nothing) if the kernel refuses. The two vCPUs of a shared
/// host drift in speed independently, so a probe on one core says little
/// about a worker thread on the other; on one core the probe sees every
/// thread's host.
pub fn pin_to_current_core() -> Option<usize> {
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_void) -> c_int;
    }
    // SAFETY: sched_getcpu takes no arguments and touches no memory.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes of the mask, all of which
    // `mask` owns and which outlive the call; pid 0 is this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr().cast()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` under `root` without
/// running git; `unknown` outside a repository (e.g. an exported tree).
#[must_use]
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cores() >= 1);
    }

    #[test]
    fn pinning_confines_spawned_threads_to_one_core() {
        // On a thread of its own, so the test harness's threads stay free.
        std::thread::spawn(|| {
            let cpu = pin_to_current_core().expect("pinned");
            assert!(cpu < 1024);
            // Available parallelism follows the affinity mask.
            assert_eq!(std::thread::spawn(cores).join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn speed_is_a_positive_rate() {
        let s = speed();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    #[test]
    fn commit_is_unknown_outside_a_repository() {
        assert_eq!(git_commit(Path::new("/nonexistent/tree")), "unknown");
    }
}
