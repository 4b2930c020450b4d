//! Explicitly-passed metrics: counters, gauges, histograms.
//!
//! There is deliberately no global registry and no interior mutability:
//! a [`Registry`] is a plain value owned by whoever runs the
//! experiment, preserving the workspace's bit-reproducibility rule.

use std::collections::BTreeMap;

/// Default bucket upper bounds (nanoseconds) for span-timing
/// histograms: log-spaced from 250 ns to 100 ms.
pub const SPAN_NS_BUCKETS: &[f64] = &[
    250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7,
    5e7, 1e8,
];

/// A monotonically non-decreasing event count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&mut self, value: f64) {
        self.value = value;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// A fixed-bucket histogram with streaming quantile estimation.
///
/// Buckets are defined by their upper bounds; one implicit overflow
/// bucket catches everything above the last bound. Quantiles are
/// estimated by linear interpolation inside the bucket containing the
/// requested rank, so the estimate is always within one bucket width of
/// the exact order statistic (the property the telemetry tests pin).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing bucket
    /// upper bounds (at least one).
    pub fn with_buckets(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Folds another histogram with identical bucket bounds into this
    /// one: bucket counts, totals, sums and min/max all combine as if
    /// every observation had been recorded here. The serving layer's
    /// shard workers each record locally and merge at join time, so no
    /// lock is shared on the hot path.
    ///
    /// Panics when the bucket bounds differ — merging histograms with
    /// different resolutions would silently corrupt quantiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (`q` clamped into `[0, 1]`), or `None`
    /// when empty. The estimate lies inside the bucket that contains
    /// the exact order statistic of the same rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Ceil-rank convention: the r-th smallest sample, 1-based.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if cum >= rank {
                let lower = if i == 0 { self.min } else { self.bounds[i - 1] };
                let upper = if i == self.bounds.len() {
                    self.max
                } else {
                    self.bounds[i]
                };
                let (lower, upper) = (lower.max(self.min), upper.min(self.max));
                if c == 0 || upper <= lower {
                    return Some(lower.min(upper));
                }
                // Interpolate the rank's position inside this bucket.
                let frac = (rank - prev) as f64 / c as f64;
                return Some(lower + (upper - lower) * frac);
            }
        }
        Some(self.max)
    }
}

/// A named collection of metrics, explicitly passed through an
/// experiment.
///
/// Names are `&'static str` so hot-path lookups never allocate;
/// iteration order is sorted by name, keeping exports deterministic.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created zeroed on first use.
    pub fn counter(&mut self, name: &'static str) -> &mut Counter {
        self.counters.entry(name).or_default()
    }

    /// The gauge named `name`, created zeroed on first use.
    pub fn gauge(&mut self, name: &'static str) -> &mut Gauge {
        self.gauges.entry(name).or_default()
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (later calls keep the original buckets).
    pub fn histogram(&mut self, name: &'static str, bounds: &[f64]) -> &mut Histogram {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::with_buckets(bounds))
    }

    /// Counter value by name, if it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|c| c.get())
    }

    /// Gauge value by name, if it exists.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|g| g.get())
    }

    /// `(count, mean)` of a histogram by name, if it exists and is
    /// non-empty.
    pub fn histogram_snapshot(&self, name: &str) -> Option<(u64, f64)> {
        let h = self.histograms.get(name)?;
        Some((h.count(), h.mean()?))
    }

    /// Histogram by name, if it exists.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.counters.keys().copied()
    }

    /// All gauge names, sorted.
    pub fn gauge_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.gauges.keys().copied()
    }

    /// All histogram names, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.histograms.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut r = Registry::new();
        r.counter("frames").inc();
        r.counter("frames").add(4);
        assert_eq!(r.counter_value("frames"), Some(5));
        r.gauge("esnr").set(31.5);
        assert_eq!(r.gauge_value("esnr"), Some(31.5));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(9.0));
        assert!((h.mean().expect("non-empty") - 3.12).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_land_in_right_bucket() {
        let mut h = Histogram::with_buckets(&[10.0, 20.0, 30.0]);
        for i in 0..100 {
            h.observe(i as f64 * 0.3); // 0.0 .. 29.7
        }
        let median = h.quantile(0.5).expect("non-empty");
        assert!((10.0..=20.0).contains(&median), "median {median}");
        assert_eq!(h.quantile(0.0), h.quantile(-1.0));
        assert!(h.quantile(1.0).expect("non-empty") <= 29.7 + 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = Histogram::with_buckets(&[1.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_buckets_panic() {
        Histogram::with_buckets(&[2.0, 1.0]);
    }

    #[test]
    fn registry_iteration_is_sorted() {
        let mut r = Registry::new();
        r.counter("zulu");
        r.counter("alpha");
        let names: Vec<_> = r.counter_names().collect();
        assert_eq!(names, vec!["alpha", "zulu"]);
    }

    #[test]
    fn histogram_merge_equals_single_recording() {
        let bounds = [1.0, 10.0, 100.0];
        let mut combined = Histogram::with_buckets(&bounds);
        let mut a = Histogram::with_buckets(&bounds);
        let mut b = Histogram::with_buckets(&bounds);
        for (i, v) in [0.5, 3.0, 42.0, 250.0, 7.0, 0.1].iter().enumerate() {
            combined.observe(*v);
            if i % 2 == 0 { &mut a } else { &mut b }.observe(*v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.count(), 6);
        assert_eq!(a.quantile(0.5), combined.quantile(0.5));
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let bounds = [1.0, 2.0];
        let mut a = Histogram::with_buckets(&bounds);
        a.observe(1.5);
        let before = a.clone();
        a.merge(&Histogram::with_buckets(&bounds));
        assert_eq!(a, before);
        let mut empty = Histogram::with_buckets(&bounds);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_buckets(&[1.0]);
        a.merge(&Histogram::with_buckets(&[2.0]));
    }
}
