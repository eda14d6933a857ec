//! Host-side measurement helpers: an allocation-counting allocator,
//! peak resident memory, CPU time of the sweep pool, the cost of one
//! clock read, and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapper counting allocation calls, so the benchmark
/// can state allocations per session.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds the sweep pool's worker threads (`eavs-worker-*`) have
/// spent on a CPU, from the scheduler's per-thread accounting.
pub fn pool_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.starts_with("eavs-worker"))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Median cost of one `Instant::now()` in nanoseconds, over blocks of
/// back-to-back reads.
pub fn clock_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut per_read: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            started.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&mut per_read)
}

/// Elapsed nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; sorts in place. 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Fixed-width histogram of nanosecond durations for per-call timings
/// too numerous to keep individually (one per session step).
pub struct NsHistogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Default for NsHistogram {
    /// An empty histogram covering 0–100 µs in 4 ns bins.
    fn default() -> Self {
        NsHistogram {
            counts: vec![0; Self::BINS],
            overflow: 0,
            total: 0,
        }
    }
}

impl NsHistogram {
    const BIN_NS: u64 = 4;
    const BINS: usize = 25_000;

    /// Counts one duration.
    pub fn record(&mut self, ns: u64) {
        self.total += 1;
        match self.counts.get_mut((ns / Self::BIN_NS) as usize) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    /// Upper edge of the bin holding the `q`-quantile, in nanoseconds
    /// (the range's end when it falls in the overflow).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((i as u64 + 1) * Self::BIN_NS) as f64;
            }
        }
        (Self::BINS as u64 * Self::BIN_NS) as f64
    }
}
