//! Host-speed calibration.
//!
//! On a shared host the speed the benchmark gets drifts by tens of
//! percent within a minute, and the same code measured twice disagrees
//! by more than any useful bound. So every timed workload interleaves
//! its operations with bursts of a fixed reference kernel, run on as
//! many threads as the workload uses, and every end-to-end time is
//! scaled by how fast that kernel ran around the operation:
//!
//! ```text
//! host_speed = REF_NS_PER_ITER × iterations / measured burst ns
//! normalized time = wall time × host_speed
//! ```
//!
//! A normalized time is what the operation would take on a host where
//! the kernel runs at the reference speed (`REF_NS_PER_ITER`, its quiet
//! median on the two-vCPU Xeon host the baseline in `design.json` was
//! recorded on). The kernel is the benchmark's own code and touches no
//! part of the program, so a change to the program moves normalized
//! times exactly as it moves wall times; only the host's drift cancels.
//! Wall-clock figures and `bench.host_speed` are printed alongside.

use std::time::Instant;

/// Reference cost of one kernel iteration, in nanoseconds.
pub const REF_NS_PER_ITER: f64 = 40.0;
/// Operations are scaled by the bursts within this many seconds of
/// their midpoint.
const WINDOW_S: f64 = 1.0;

/// The reference kernel: a binary heap of pseudo-random keys, table
/// lookups and floating-point math, the mix an event-driven simulator
/// runs, without allocating. Returns a value the caller must consume.
pub fn kernel(iters: u64) -> f64 {
    const HEAP: usize = 255;
    let mut heap = [0u64; HEAP];
    let mut len = 0usize;
    let mut table = [0u32; 1024];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if len == HEAP {
            // Pop the minimum: move the last key to the root and sift it
            // down.
            acc += (heap[0] as f64).sqrt() * 1.0001;
            len -= 1;
            heap[0] = heap[len];
            let mut at = 0;
            loop {
                let (l, r) = (2 * at + 1, 2 * at + 2);
                let mut min = at;
                if l < len && heap[l] < heap[min] {
                    min = l;
                }
                if r < len && heap[r] < heap[min] {
                    min = r;
                }
                if min == at {
                    break;
                }
                heap.swap(at, min);
                at = min;
            }
        }
        // Push and sift up.
        let mut at = len;
        heap[at] = x % 1_000_003;
        len += 1;
        while at > 0 && heap[(at - 1) / 2] > heap[at] {
            heap.swap(at, (at - 1) / 2);
            at = (at - 1) / 2;
        }
        let slot = &mut table[(x % 1024) as usize];
        *slot = slot.wrapping_add(i as u32);
        if x & 15 == 0 {
            acc = acc.ln_1p() + f64::from(*slot) * 1e-9;
        }
    }
    acc + f64::from(table[(x % 1024) as usize])
}

/// Calibration bursts of one run, timestamped from a common origin.
pub struct Calib {
    width: usize,
    iters: u64,
    origin: Instant,
    /// (midpoint in seconds since `origin`, duration in ns), in time order.
    bursts: Vec<(f64, f64)>,
}

impl Calib {
    /// Bursts of `iters` kernel iterations on each of `width` threads.
    pub fn new(width: usize, iters: u64, origin: Instant) -> Calib {
        Calib {
            width: width.max(1),
            iters,
            origin,
            bursts: Vec::new(),
        }
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs one burst and records it; returns its duration in ns.
    pub fn burst(&mut self) -> u64 {
        let t = Instant::now();
        if self.width == 1 {
            std::hint::black_box(kernel(std::hint::black_box(self.iters)));
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.width {
                    s.spawn(|| std::hint::black_box(kernel(std::hint::black_box(self.iters))));
                }
            });
        }
        let ns = t.elapsed().as_nanos() as u64;
        let mid = self.at(t) + ns as f64 / 2e9;
        self.bursts.push((mid, ns as f64));
        ns
    }

    /// Total time spent in bursts, in ns.
    pub fn total_ns(&self) -> f64 {
        self.bursts.iter().map(|b| b.1).sum()
    }

    /// Host speed over the whole run (1 = reference; below 1 is slower).
    pub fn speed(&self) -> f64 {
        let ns = self.total_ns();
        if ns > 0.0 {
            REF_NS_PER_ITER * self.iters as f64 * self.bursts.len() as f64 / ns
        } else {
            1.0
        }
    }

    /// Normalized durations of operations given as (midpoint seconds,
    /// wall duration): each scaled by the host speed over the bursts
    /// within `WINDOW_S` of its midpoint, or over the whole run when
    /// there are none.
    pub fn normalize(&self, ops: &[(f64, f64)]) -> Vec<f64> {
        let mut prefix = Vec::with_capacity(self.bursts.len() + 1);
        prefix.push(0.0);
        for b in &self.bursts {
            prefix.push(prefix[prefix.len() - 1] + b.1);
        }
        let whole = self.speed();
        ops.iter()
            .map(|&(t, d)| {
                let lo = self.bursts.partition_point(|b| b.0 < t - WINDOW_S);
                let hi = self.bursts.partition_point(|b| b.0 <= t + WINDOW_S);
                let ns = prefix[hi] - prefix[lo];
                let speed = if ns > 0.0 {
                    REF_NS_PER_ITER * self.iters as f64 * (hi - lo) as f64 / ns
                } else {
                    whole
                };
                d * speed
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(5_000).to_bits(), kernel(5_000).to_bits());
    }

    #[test]
    fn speeds_scale_durations() {
        let origin = Instant::now();
        let mut c = Calib::new(1, 1_000, origin);
        c.bursts = vec![(0.5, 80_000.0), (5.0, 20_000.0)];
        // 40 µs is the reference for 1,000 iterations.
        assert!((c.speed() - 0.8).abs() < 1e-12);
        assert_eq!(
            c.normalize(&[(0.4, 10.0), (5.2, 10.0), (2.75, 10.0)]),
            vec![5.0, 20.0, 8.0]
        );
    }
}
