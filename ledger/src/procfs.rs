//! What the ledger reads about its own process from `/proc` (Linux only;
//! every reader returns 0 elsewhere and the metric reads as missing).

/// A CPU-time clock of `clock_gettime`, nanoseconds; 0 where there is none.
fn cpu_clock_ns(clock: i32) -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid `struct timespec` (two 64-bit fields on
        // every 64-bit Linux ABI) for the call to fill in.
        if unsafe { clock_gettime(clock, &mut ts) } == 0 {
            return ts.sec as u64 * 1_000_000_000 + ts.nsec as u64;
        }
    }
    let _ = clock;
    0
}

/// User + system CPU nanoseconds consumed so far by every thread of this
/// process (`CLOCK_PROCESS_CPUTIME_ID`; `/proc/self/stat` counts in 10 ms
/// ticks, too coarse for a stretch of a few queries).
pub fn cpu_ns() -> u64 {
    cpu_clock_ns(2)
}

/// The same for the calling thread alone (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3)
}

/// Pins the calling thread — and every thread it later starts — to the core
/// it is running on; returns that core. The host slows the sandbox's cores
/// one at a time, so calibration ticks speak for the product only when both
/// run on the same core; and a request handed between threads on two cores
/// pays for waking an idle virtual CPU, the noisiest thing a shared host
/// does. Does nothing where the calls are missing or refused.
pub fn pin_to_current_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        // SAFETY: no arguments; returns the core's number or -1.
        let core = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        *mask.get_mut(core / 64)? |= 1 << (core % 64);
        // SAFETY: `mask` is a valid CPU set of the size passed; pid 0 is
        // the calling thread.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0 {
            return Some(core);
        }
    }
    None
}

/// A numeric field of `/proc/self/status` (`VmHWM:` in kB, `Threads:`).
pub fn status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status("VmHWM:") as f64 / 1024.0
}
