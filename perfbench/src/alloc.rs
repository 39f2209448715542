//! A counting global allocator.
//!
//! Counting is off by default and costs one thread-local read per
//! allocation while off. [`count`] switches it on for the calling thread
//! around a closure and returns the allocations, bytes requested and peak
//! live bytes that closure caused on that thread. Work the closure hands
//! to other threads is not counted, so the benchmark counts Serial-mode
//! work only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// The system allocator plus opt-in counters.
#[derive(Debug)]
pub struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates and is safe inside the allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Serializes [`count`] windows, so two never share the counters.
static WINDOW: Mutex<()> = Mutex::new(());

/// Whether the current thread is inside a counting window; `false`
/// while the thread's locals are being torn down.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and the flag a const-initialized thread-local, so
// counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            on_alloc(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            on_alloc(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            on_free(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What one counting window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCount {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
    /// Highest live heap reached above the window's starting point, bytes.
    pub peak_live: u64,
}

/// Runs `section` with counting on and returns its result and counts.
pub fn count<T>(section: impl FnOnce() -> T) -> (T, AllocCount) {
    let _window = WINDOW.lock().expect("a counting window panicked");
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|on| on.set(true));
    let out = section();
    COUNTING.with(|on| on.set(false));
    let counts = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live: PEAK.load(Ordering::Relaxed).max(0) as u64,
    };
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_allocations_and_bytes() {
        let (_, counts) = count(|| {
            let a: Vec<u8> = black_box(Vec::with_capacity(1000));
            let b: Vec<u64> = black_box(Vec::with_capacity(10));
            (a, b)
        });
        assert_eq!(counts.allocs, 2);
        assert_eq!(counts.bytes, 1080);
        assert_eq!(counts.peak_live, 1080);
    }

    #[test]
    fn peak_tracks_the_high_water_not_the_total() {
        let (_, counts) = count(|| {
            for _ in 0..8 {
                drop(black_box(vec![0u8; 4096]));
            }
        });
        assert_eq!(counts.allocs, 8);
        assert_eq!(counts.bytes, 8 * 4096);
        // Each buffer is freed before the next is made.
        assert_eq!(counts.peak_live, 4096);
    }

    #[test]
    fn nothing_is_counted_outside_a_window_or_thread() {
        drop(black_box(vec![1u8; 1 << 16]));
        let (_, empty) = count(|| ());
        assert_eq!(empty, AllocCount::default());
        let (_, other_thread) = count(|| {
            std::thread::scope(|s| {
                s.spawn(|| drop(black_box(vec![1u8; 1 << 16])));
            })
        });
        assert!(other_thread.bytes < 1 << 16);
    }
}
