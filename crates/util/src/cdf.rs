//! Empirical CDF construction.
//!
//! Nearly every figure in the paper's evaluation is a CDF; this module
//! turns a sample set into the exact `(value, fraction)` series the bench
//! harness prints.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. NaN samples are dropped.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Cdf { sorted }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inverse CDF (quantile) with linear interpolation; `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::stats::percentile(&self.sorted, q * 100.0)
    }

    /// Median shorthand.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The full `(value, cumulative fraction)` step series, one point per
    /// sample — what a plotting tool would consume.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// A decimated series with at most `points` entries, evenly spaced in
    /// probability. Used to print compact figure rows.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (0..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                (self.quantile(q).expect("non-empty"), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_samples_dropped() {
        let cdf = Cdf::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn quantiles() {
        let cdf = Cdf::from_samples(&[10.0, 20.0, 30.0]);
        assert_eq!(cdf.quantile(0.0), Some(10.0));
        assert_eq!(cdf.quantile(1.0), Some(30.0));
        assert_eq!(cdf.median(), Some(20.0));
    }

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert!(cdf.series(10).is_empty());
    }

    #[test]
    fn steps_monotone() {
        let cdf = Cdf::from_samples(&[5.0, 1.0, 3.0, 3.0, 2.0]);
        let steps = cdf.steps();
        assert_eq!(steps.len(), 5);
        for w in steps.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(steps.last().unwrap().1, 1.0);
    }

    #[test]
    fn series_has_requested_resolution() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        let s = cdf.series(10);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].1, 0.0);
        assert_eq!(s[10].1, 1.0);
    }
}
