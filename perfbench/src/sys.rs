//! Process-level readings from `/proc` (Linux).

use std::time::Duration;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system) this process has used so far, over all its
/// threads, at 10 ms resolution.
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // Fields 14 and 15 of the man page; the first after ')' is field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) / USER_HZ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_available() {
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        let before = cpu_time().expect("cpu time");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_time().expect("cpu time") >= before);
    }
}
