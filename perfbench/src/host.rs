//! Host-speed correction and process-level host measurements.
//!
//! The benchmark shares its machine with other tenants, and memory
//! contention moves the host between fast and slow modes that last from
//! half a second to tens of seconds. A fixed reference kernel that calls
//! no simulator code runs before and after every short timed rep. Each
//! rep's host time is scaled by the ratio of [`KERNEL_REF_S`], the
//! kernel's time on a nominal host, to the mean of the two kernel times
//! around it, raised to [`HOST_SENSITIVITY`]. The kernel churns the
//! allocator, the resource the simulator's slow mode tracks most closely.

use std::hint::black_box;
use std::time::Instant;

/// Nominal reference-kernel time, seconds. Frozen: changing it rescales
/// every corrected time and breaks comparison with earlier runs.
pub const KERNEL_REF_S: f64 = 0.0025;

/// How much more the simulator slows than the kernel when the host
/// changes mode, as an exponent: a kernel 10% slower than nominal marks
/// a host on which a rep takes about 1.1^1.5 ≈ 1.15× its nominal time.
/// Frozen, like [`KERNEL_REF_S`]. Over ten-run sets of 30 s runs on the
/// 2-vCPU host this benchmark was defined on, the exponent that made
/// per-run medians agree best was 1.25–1.75 for the fleet workloads.
pub const HOST_SENSITIVITY: f64 = 1.5;

/// Live allocations the kernel keeps in its ring.
const KERNEL_SLOTS: usize = 512;
/// Allocate/touch/free operations per kernel run.
const KERNEL_OPS: usize = 12_000;

/// Runs the reference kernel once and returns its host time, seconds.
///
/// A fixed xorshift sequence picks a ring slot and a size of 16 B to 4 KiB;
/// each step frees the slot's old buffer, allocates a new one, fills it
/// and folds one byte into a checksum, so the work (and every size) is
/// identical on every call.
pub fn reference_kernel() -> f64 {
    let start = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut ring: Vec<Vec<u8>> = (0..KERNEL_SLOTS).map(|_| Vec::new()).collect();
    let mut checksum = 0u64;
    for _ in 0..KERNEL_OPS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let slot = (state % KERNEL_SLOTS as u64) as usize;
        let size = 16 + ((state >> 20) % 4080) as usize;
        let buffer = vec![state as u8; size];
        checksum = checksum.wrapping_add(u64::from(buffer[size / 2]));
        ring[slot] = buffer;
    }
    black_box(checksum);
    drop(black_box(ring));
    start.elapsed().as_secs_f64()
}

/// Converts a host time into reference-host seconds, given the mean of
/// the kernel times measured just before and just after it.
pub fn correct(raw_s: f64, kernel_s: f64) -> f64 {
    raw_s * (KERNEL_REF_S / kernel_s).powf(HOST_SENSITIVITY)
}

/// One timed section, bracketed by reference-kernel runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall time of the section, seconds.
    pub raw_s: f64,
    /// Process CPU time (all threads) spent in the section, seconds.
    pub cpu_s: f64,
    /// Mean of the kernel times before and after, seconds.
    pub kernel_s: f64,
}

impl Timed {
    /// Host-corrected wall time, reference-host seconds.
    pub fn wall(&self) -> f64 {
        correct(self.raw_s, self.kernel_s)
    }

    /// Host-corrected CPU time, reference-host seconds.
    pub fn cpu(&self) -> f64 {
        correct(self.cpu_s, self.kernel_s)
    }
}

/// Times sections back to back, sharing each kernel run between the
/// section before it and the section after it.
#[derive(Debug)]
pub struct HostClock {
    last_kernel_s: f64,
    /// Every kernel time measured so far, in order.
    pub kernels: Vec<f64>,
}

impl HostClock {
    /// Starts a clock with one warm kernel run.
    pub fn new() -> Self {
        let first = reference_kernel();
        Self {
            last_kernel_s: first,
            kernels: vec![first],
        }
    }

    /// Runs `section` once between two kernel runs and returns its timing
    /// with the section's own result.
    pub fn time<T>(&mut self, section: impl FnOnce() -> T) -> (Timed, T) {
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let out = black_box(section());
        let raw_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let after = reference_kernel();
        let kernel_s = (self.last_kernel_s + after) / 2.0;
        self.last_kernel_s = after;
        self.kernels.push(after);
        (
            Timed {
                raw_s,
                cpu_s,
                kernel_s,
            },
            out,
        )
    }
}

#[cfg(target_os = "linux")]
mod cpu_clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPUTIME: i32 = 2;

    pub fn now_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer, which points at a live, exclusively borrowed `Timespec`
        // whose layout (two 64-bit fields) matches the C struct on 64-bit
        // Linux; the clock id is a constant the kernel always accepts.
        let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// CPU time consumed by this process so far, all threads (including
/// threads that have exited), seconds.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    cpu_clock::now_s()
}

/// CPU time is read through a Linux clock; elsewhere the benchmark
/// reports none.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s() -> f64 {
    0.0
}

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Bits in the kernel's default `cpu_set_t`.
    const CPU_SET_WORDS: usize = 1024 / 64;

    pub fn pin() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments and only reads the
        // calling thread's state.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut mask = [0u64; CPU_SET_WORDS];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live `cpu_set_t`-sized bitmap and the size
        // passed is its size in bytes; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
}

/// Pins the calling thread, and every thread or process it starts from
/// now on, to the CPU it is running on, and returns that CPU. The
/// reference kernel then measures the CPU that serial work runs on: the
/// mesh engine runs even a Serial run on a worker thread, which the
/// scheduler otherwise places on either vCPU, and unpinned its rep time
/// barely tracked the kernel (correlation 0.1–0.2, against 0.7–0.8
/// pinned). `None` where pinning is unavailable.
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    return affinity::pin();
    #[cfg(not(target_os = "linux"))]
    None
}

/// The process's peak resident set size in bytes (`VmHWM`), if procfs
/// reports it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_follows_the_sensitivity_exponent() {
        assert!((correct(0.050, KERNEL_REF_S) - 0.050).abs() < 1e-15);
        // A host on which the kernel takes twice as long slows the rep by
        // 2^HOST_SENSITIVITY; the corrected time is unchanged.
        let slow = correct(0.050 * 2f64.powf(HOST_SENSITIVITY), 2.0 * KERNEL_REF_S);
        assert!((slow - 0.050).abs() < 1e-12);
        // A fast host is scaled up the same way.
        let fast = correct(0.050 * 0.8f64.powf(HOST_SENSITIVITY), 0.8 * KERNEL_REF_S);
        assert!((fast - 0.050).abs() < 1e-12);
    }

    #[test]
    fn timed_sections_carry_their_kernel_mean() {
        let factor = 2f64.powf(HOST_SENSITIVITY);
        let timed = Timed {
            raw_s: 0.01 * factor,
            cpu_s: 0.02 * factor,
            kernel_s: 2.0 * KERNEL_REF_S,
        };
        assert!((timed.wall() - 0.01).abs() < 1e-12);
        assert!((timed.cpu() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn host_clock_brackets_every_section() {
        let mut clock = HostClock::new();
        let (timed, value) = clock.time(|| 6 * 7);
        assert_eq!(value, 42);
        assert_eq!(clock.kernels.len(), 2);
        assert!(timed.raw_s >= 0.0 && timed.kernel_s > 0.0);
        let (_, _) = clock.time(|| ());
        assert_eq!(clock.kernels.len(), 3);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        black_box(acc);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().expect("VmHWM present") > 0);
        }
    }
}
