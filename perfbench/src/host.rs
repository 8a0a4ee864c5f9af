//! The host the benchmark runs on: CPU steal, resident memory, and the
//! idle-priority pollers that keep the VM's vCPUs awake.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Host CPU time as `(steal, total)` jiffies from `/proc/stat`: time the
/// hypervisor ran something else while this virtual machine wanted the CPU.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `(live, peak)` resident set of this process, MiB. Live is `VmRSS`
/// after handing freed heap pages back to the kernel; peak is `VmHWM`.
pub fn rss_mb() -> (f64, f64) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free memory of the process's
        // own heaps; it takes no pointers and is thread-safe in glibc.
        unsafe {
            malloc_trim(0);
        }
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// The memory line of a run's report.
pub fn memory_line() -> String {
    let (live, peak) = rss_mb();
    format!("rss_mb {live:.1} MiB live after the phase (freed heap returned), {peak:.1} MiB peak")
}

/// Moves the calling thread to `SCHED_IDLE`: it runs only when no other
/// thread of the VM wants the CPU. Returns false where unsupported.
fn make_idle_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a valid, initialized sched_param that
        // outlives the call; pid 0 names the calling thread only.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// Runs `body` while one idle-priority polling thread per CPU keeps the
/// VM's vCPUs from halting. On a VM, a halted vCPU must be rescheduled
/// by the hypervisor before a woken thread can run, and that delay
/// varies with the load of other guests; a polling vCPU switches to the
/// woken thread at once. The pollers yield to every normal thread, so
/// the daemon and the generator keep all the CPU they ask for.
pub fn with_awake_cpus<R>(body: impl FnOnce() -> R) -> R {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..cpus {
            scope.spawn(|| {
                if !make_idle_priority() {
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        // Stop the pollers on a panic too, or the scope would wait on
        // them forever.
        let r = catch_unwind(AssertUnwindSafe(body));
        stop.store(true, Ordering::Relaxed);
        r
    })
    .unwrap_or_else(|panic| resume_unwind(panic))
}
