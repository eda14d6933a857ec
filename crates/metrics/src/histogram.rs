//! Fixed-bin histograms for distribution figures.

use std::fmt;

/// A linear-bin histogram over `[lo, hi)` with overflow/underflow counters.
///
/// ```
/// use eavs_metrics::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [0.5, 1.5, 1.7, 9.9, -3.0, 42.0] {
///     h.record(x);
/// }
/// assert_eq!(h.bin_count(0), 3); // [0,2) holds 0.5, 1.5, 1.7
/// assert_eq!(h.bin_count(4), 1); // [8,10) holds 9.9
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range [{lo}, {hi}) is empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            // Floating rounding can land exactly on bins.len() for x just
            // below hi; clamp.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// The `[lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Lower edge of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the range (exclusive).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Rebuilds a histogram from its raw parts (checkpoint decoding).
    ///
    /// # Errors
    ///
    /// Returns a message when the parts could not come from
    /// [`Histogram::new`]: a range that is empty, inverted, NaN or
    /// infinite, or zero bins.
    pub fn try_from_parts(
        lo: f64,
        hi: f64,
        bins: Vec<u64>,
        underflow: u64,
        overflow: u64,
    ) -> Result<Self, String> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(format!(
                "histogram range [{lo}, {hi}) is empty or not finite"
            ));
        }
        if bins.is_empty() {
            return Err("histogram needs at least one bin".to_owned());
        }
        Ok(Histogram {
            lo,
            hi,
            bins,
            underflow,
            overflow,
        })
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Fraction of in-range observations falling in bin `i`.
    pub fn bin_fraction(&self, i: usize) -> f64 {
        let in_range: u64 = self.bins.iter().sum();
        if in_range == 0 {
            0.0
        } else {
            self.bins[i] as f64 / in_range as f64
        }
    }

    /// Iterates `(bin_lo, bin_hi, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(|i| {
            let (lo, hi) = self.bin_edges(i);
            (lo, hi, self.bins[i])
        })
    }

    /// `true` when `other` has the identical range and bin count, i.e. the
    /// two histograms can be merged.
    pub fn same_shape(&self, other: &Histogram) -> bool {
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.bins.len() == other.bins.len()
    }

    /// Merges `other` into `self` by summing bin, underflow and overflow
    /// counts. Counts are integers, so merging is exactly associative and
    /// commutative — per-shard histograms fold to the same result in any
    /// order, which is what makes sharded campaign output deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different ranges or bin counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.same_shape(other),
            "merging histograms of different shape: [{}, {}) x{} vs [{}, {}) x{}",
            self.lo,
            self.hi,
            self.bins.len(),
            other.lo,
            other.hi,
            other.bins.len()
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += *b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) over *in-range* observations,
    /// linearly interpolated within the containing bin. Returns `None`
    /// when no in-range observations have been recorded.
    ///
    /// Resolution is one bin width, but the estimate depends only on the
    /// bin counts — so quantiles of merged histograms are identical no
    /// matter how the observations were sharded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside [0, 1].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let in_range: u64 = self.bins.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = q * in_range as f64;
        let mut cum = 0u64;
        for (i, &count) in self.bins.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cum + count;
            if next as f64 >= target {
                let (lo, hi) = self.bin_edges(i);
                let within = ((target - cum as f64) / count as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * within);
            }
            cum = next;
        }
        // Rounding pushed the target past the last occupied bin.
        let last = self.bins.iter().rposition(|&c| c > 0).unwrap_or(0);
        Some(self.bin_edges(last).1)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (lo, hi, count) in self.iter() {
            let width = (count * 40 / max) as usize;
            writeln!(
                f,
                "[{lo:>10.2}, {hi:>10.2}) {count:>8} {}",
                "#".repeat(width)
            )?;
        }
        Ok(())
    }
}

/// A counter over labeled categories (e.g. events per governor decision).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    counts: Vec<(String, u64)>,
}

impl Counter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Counter { counts: Vec::new() }
    }

    /// Increments `label` by one.
    pub fn incr(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Adds `n` to `label`.
    pub fn add(&mut self, label: &str, n: u64) {
        if let Some(entry) = self.counts.iter_mut().find(|(l, _)| l == label) {
            entry.1 += n;
        } else {
            self.counts.push((label.to_owned(), n));
        }
    }

    /// The count for `label` (0 if never seen).
    pub fn count(&self, label: &str) -> u64 {
        self.counts
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, c)| *c)
    }

    /// Total of all counts.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c).sum()
    }

    /// Iterates `(label, count)` in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(l, c)| (l.as_str(), *c))
    }

    /// Merges `other` into `self` by summing per-label counts. The counts
    /// are order-independent; the *iteration order* keeps `self`'s labels
    /// first, then `other`'s unseen labels in their first-seen order.
    pub fn merge(&mut self, other: &Counter) {
        for (label, n) in other.iter() {
            self.add(label, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_from_parts_rejects_what_new_refuses() {
        let ok = Histogram::try_from_parts(0.0, 1.0, vec![1, 2], 3, 4).unwrap();
        assert_eq!((ok.total(), ok.lo(), ok.hi()), (10, 0.0, 1.0));
        for (lo, hi) in [
            (1.0, 1.0),
            (2.0, 1.0),
            (f64::NAN, 1.0),
            (f64::NEG_INFINITY, 0.0),
        ] {
            assert!(Histogram::try_from_parts(lo, hi, vec![1], 0, 0).is_err());
        }
        assert!(Histogram::try_from_parts(0.0, 1.0, Vec::new(), 0, 0).is_err());
    }

    #[test]
    fn bins_cover_range_without_gaps() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..1000 {
            h.record(i as f64 / 1000.0);
        }
        assert_eq!(h.total(), 1000);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 100, "bin {i}");
        }
    }

    #[test]
    fn edge_values() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0); // first bin
        h.record(10.0); // overflow (half-open)
        h.record(9.999_999_999); // last bin
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn bin_edges_and_fraction() {
        let mut h = Histogram::new(2.0, 4.0, 4);
        assert_eq!(h.bin_edges(0), (2.0, 2.5));
        assert_eq!(h.bin_edges(3), (3.5, 4.0));
        h.record(2.1);
        h.record(2.2);
        h.record(3.9);
        assert!((h.bin_fraction(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn inverted_range_panics() {
        Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    fn display_renders_rows() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        let out = h.to_string();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains('#'));
    }

    #[test]
    fn merge_equals_single_recorder() {
        let data: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.173).fract() * 12.0 - 1.0)
            .collect();
        let mut whole = Histogram::new(0.0, 10.0, 8);
        for &x in &data {
            whole.record(x);
        }
        let mut a = Histogram::new(0.0, 10.0, 8);
        let mut b = Histogram::new(0.0, 10.0, 8);
        for (i, &x) in data.iter().enumerate() {
            if i % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        // Merge in both orders: identical to recording everything in one go.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(0.3);
        let before = h.clone();
        h.merge(&Histogram::new(0.0, 1.0, 4));
        assert_eq!(h, before);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn merge_rejects_shape_mismatch() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.merge(&Histogram::new(0.0, 1.0, 5));
    }

    #[test]
    fn quantile_interpolates_within_bins() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 10.0);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(100.0));
        // Empty histograms have no quantiles.
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
        // Out-of-range observations don't shift in-range quantiles.
        let mut spiky = Histogram::new(0.0, 10.0, 10);
        spiky.record(5.0);
        spiky.record(-100.0);
        spiky.record(1e9);
        let q = spiky.quantile(0.5).unwrap();
        assert!((5.0..6.0).contains(&q), "median {q} should sit in [5,6)");
    }

    #[test]
    fn counter_merge_sums_labels() {
        let mut a = Counter::new();
        a.add("x", 2);
        a.add("y", 1);
        let mut b = Counter::new();
        b.add("y", 4);
        b.add("z", 3);
        a.merge(&b);
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.count("y"), 5);
        assert_eq!(a.count("z"), 3);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr("a");
        c.incr("b");
        c.add("a", 3);
        assert_eq!(c.count("a"), 4);
        assert_eq!(c.count("b"), 1);
        assert_eq!(c.count("missing"), 0);
        assert_eq!(c.total(), 5);
        let labels: Vec<&str> = c.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["a", "b"], "first-seen order preserved");
    }
}
