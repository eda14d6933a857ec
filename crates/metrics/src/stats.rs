//! Streaming summary statistics (Welford's algorithm).

use std::fmt;

use eavs_sim::time::round_to_i128;

/// Online mean/variance/min/max accumulator.
///
/// Uses Welford's numerically stable update; accumulators can be merged
/// (parallel sweeps combine per-shard statistics).
///
/// ```
/// use eavs_metrics::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (statistics over NaN are meaningless and would
    /// silently poison every downstream table).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al. parallel form).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; 0 when fewer than 1 observation).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n−1; 0 when fewer than 2 observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Snapshot of the summary values.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.sample_std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// A fixed-point sum whose merge is *bit-exact* associative and
/// commutative.
///
/// Observations are quantized to nanounits (1e-9) and accumulated in an
/// `i128`, so folding per-shard partial sums produces the identical total
/// no matter how the observations were partitioned or in which order the
/// partials merge — unlike floating-point addition, whose rounding depends
/// on evaluation order. This is what lets sharded campaigns promise
/// byte-identical output across `EAVS_JOBS` settings and kill/resume.
///
/// The representable range (±1.7e29 units) and the 1e-9 quantization are
/// both far beyond what session metrics (joules, seconds, counts) need.
///
/// ```
/// use eavs_metrics::stats::ExactSum;
///
/// let mut a = ExactSum::new();
/// a.add(1.5);
/// let mut b = ExactSum::new();
/// b.add(2.25);
/// a.merge(&b);
/// assert_eq!(a.value(), 3.75);
/// assert_eq!(a.count(), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSum {
    nanos: i128,
    count: u64,
}

impl ExactSum {
    /// Nanounits per unit: the fixed-point scale.
    const SCALE: f64 = 1e9;

    /// Creates an empty (zero) sum.
    pub fn new() -> Self {
        ExactSum { nanos: 0, count: 0 }
    }

    /// Adds one observation, quantized to the nearest nanounit.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite observations.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.nanos += round_to_i128(x * Self::SCALE);
        self.count += 1;
    }

    /// Merges another partial sum into this one (integer addition, so the
    /// result is independent of merge order and grouping).
    pub fn merge(&mut self, other: &ExactSum) {
        self.nanos += other.nanos;
        self.count += other.count;
    }

    /// The accumulated sum in units.
    pub fn value(&self) -> f64 {
        self.nanos as f64 / Self::SCALE
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.value() / self.count as f64
        }
    }

    /// The raw fixed-point accumulator, for serialization.
    pub fn raw(&self) -> (i128, u64) {
        (self.nanos, self.count)
    }

    /// Rebuilds a sum from [`raw`](Self::raw) parts.
    pub fn from_raw(nanos: i128, count: u64) -> Self {
        ExactSum { nanos, count }
    }
}

/// A plain-data snapshot of an [`OnlineStats`] accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.summary().min, 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0)
            .collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let all: OnlineStats = data.iter().copied().collect();
        let a: OnlineStats = data[..200].iter().copied().collect();
        let mut b: OnlineStats = data[200..].iter().copied().collect();
        b.merge(&a);
        assert_eq!(b.count(), all.count());
        assert!((b.mean() - all.mean()).abs() < 1e-9);
        assert!((b.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(b.min(), all.min());
        assert_eq!(b.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn sum_is_mean_times_count() {
        let s: OnlineStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn exact_sum_is_order_independent() {
        let data: Vec<f64> = (0..300)
            .map(|i| ((i as f64) * 0.7134).sin() * 42.0)
            .collect();
        let mut whole = ExactSum::new();
        for &x in &data {
            whole.add(x);
        }
        let mut parts: Vec<ExactSum> = (0..7).map(|_| ExactSum::new()).collect();
        for (i, &x) in data.iter().enumerate() {
            parts[i % 7].add(x);
        }
        // Fold forwards and backwards: bit-identical either way.
        let mut fwd = ExactSum::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = ExactSum::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        assert_eq!(fwd.count(), 300);
    }

    #[test]
    fn exact_sum_roundtrips_raw() {
        let mut s = ExactSum::new();
        s.add(-1.25);
        s.add(3.5);
        let (nanos, count) = s.raw();
        assert_eq!(ExactSum::from_raw(nanos, count), s);
        assert_eq!(s.value(), 2.25);
        assert_eq!(s.mean(), 1.125);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn exact_sum_rejects_infinity() {
        ExactSum::new().add(f64::INFINITY);
    }

    #[test]
    fn display_summary() {
        let s: OnlineStats = [1.0, 3.0].into_iter().collect();
        let text = s.summary().to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=2.0000"));
    }
}
