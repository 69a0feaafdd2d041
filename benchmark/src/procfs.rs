//! What `/proc` says about this process: CPU time, context switches,
//! resident memory and the file-descriptor limit. Linux only, std only.

use std::fs;

/// A `key:   value` line of `/proc/self/.../status` as an integer.
fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Sums `read(<task directory>)` over the live threads of the process,
/// with or without the calling one.
fn sum_threads(with_caller: bool, read: impl Fn(&str) -> Option<u64>) -> u64 {
    let me = fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()));
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| with_caller || Some(t.file_name().to_string_lossy().into_owned()) != me)
        .filter_map(|t| read(&t.path().display().to_string()))
        .sum()
}

/// Nanoseconds a thread has spent on a processor, from its `schedstat`.
/// (`utime + stime` of `stat` count 10 ms ticks: over a window of a second
/// or two they read the same to the digit on many runs.)
fn on_cpu_ns(task: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("{task}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Time on a processor of every live thread of the process, in
/// nanoseconds. A thread that exits takes its time with it, so compare
/// two readings only across a span in which none does.
pub fn process_cpu_ns() -> u64 {
    sum_threads(true, on_cpu_ns)
}

/// As [`process_cpu_ns`] without the calling thread: the replicas' share
/// when the load generator asks.
pub fn other_threads_cpu_ns() -> u64 {
    sum_threads(false, on_cpu_ns)
}

/// Voluntary context switches (sleeps and blocks) summed over every live
/// thread of the process except the calling one.
pub fn other_threads_vol_ctxsw() -> u64 {
    sum_threads(false, |task| {
        status_field(&format!("{task}/status"), "voluntary_ctxt_switches")
    })
}

/// Current resident set size in KiB.
pub fn rss_kb() -> u64 {
    status_field("/proc/self/status", "VmRSS").unwrap_or(0)
}

/// Peak resident set size in KiB.
pub fn rss_peak_kb() -> u64 {
    status_field("/proc/self/status", "VmHWM").unwrap_or(0)
}

/// Soft limit on open file descriptors, if `/proc/self/limits` states one
/// (`None` also for `unlimited`).
pub fn fd_soft_limit() -> Option<u64> {
    let text = fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// The 1-minute load average, as `/proc/loadavg` prints it.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "?".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        while process_cpu_ns() - before < 30_000_000 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
    }

    #[test]
    fn other_threads_cpu_counts_a_busy_thread_and_not_the_caller() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static STOP: AtomicBool = AtomicBool::new(false);
        let worker = std::thread::spawn(|| {
            while !STOP.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // The worker runs for most of each 60 ms; the sleeping caller adds
        // nothing. Another test's thread exiting between the two readings
        // takes its time out of the sum, hence the retries.
        let seen = (0..5).any(|_| {
            let before = other_threads_cpu_ns();
            std::thread::sleep(std::time::Duration::from_millis(60));
            other_threads_cpu_ns().saturating_sub(before) >= 20_000_000
        });
        STOP.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(seen);
    }

    #[test]
    fn limits_and_memory_are_readable() {
        assert!(rss_kb() > 0 && rss_peak_kb() >= rss_kb() / 2);
        assert!(fd_soft_limit().is_none_or(|l| l > 0));
        assert!(!loadavg().is_empty());
    }
}
