//! Peak-memory instrumentation for the streaming-engine benches.
//!
//! The streaming fleet engine's claim is O(workers + packets) live state;
//! the bench reports back it up with the process's resident-set high-water
//! mark so "flat memory at a million nodes" is a number in
//! `BENCH_fleet.json`, not an assertion in prose.

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
///
/// The high-water mark is monotonic for the process lifetime: sample it
/// after each run and the largest fleet dominates the reading.
pub fn max_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: `VmHWM:    123456 kB`.
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// Formats a byte count as an adaptive MiB/GiB figure for table output.
pub fn fmt_bytes(bytes: u64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let mib = bytes as f64 / MIB;
    if mib >= 1024.0 {
        format!("{:.2} GiB", mib / 1024.0)
    } else {
        format!("{mib:.1} MiB")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tbench\n"), None);
    }

    #[test]
    fn reads_own_high_water_mark_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            let hwm = max_rss_bytes().expect("procfs present but VmHWM missing");
            assert!(hwm > 0);
        }
    }

    #[test]
    fn formats_bytes_adaptively() {
        assert_eq!(fmt_bytes(50 * 1024 * 1024), "50.0 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }
}
