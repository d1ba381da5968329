//! Process accounting read from `/proc`.

/// Clock ticks per second of the `/proc/self/stat` CPU fields (Linux
/// `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields that follow start after
    // its closing parenthesis, with the state as field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15: indices 11 and 12 here.
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins glibc's allocator to one arena. With more, which arena a
/// short-lived search thread lands in depends on thread timing, and the
/// peak resident set of identical `siting` rounds differed by a third
/// between runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's allocator-tuning call: it takes two
    // integers and changes only allocator settings. It runs first thing in
    // `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() {}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_accounting_reads_nonzero_values() {
        // Burn CPU until the tick-granular clock moves.
        let start = std::time::Instant::now();
        while cpu_seconds() == 0.0 && start.elapsed().as_secs() < 5 {}
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
