//! Descriptive statistics used throughout the evaluation harness.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance. Returns `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median of a slice (by copy). Returns `None` for an empty slice.
///
/// The classification pipeline median-filters ToF readings every second
/// (paper section 2.5); this is the batch form of that filter.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Percentile in `[0, 100]` with linear interpolation between order
/// statistics. Returns `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// This is exactly the paper's Equation (1): the CSI similarity between two
/// CSI sample vectors is their Pearson correlation across subcarriers.
/// Returns `None` if the slices are empty, have different lengths, or if
/// either input has zero variance (the paper's formula is undefined there;
/// callers treat a flat-vs-flat comparison specially).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Ordinary least-squares slope of `ys` against their indices.
/// Returns `None` when fewer than two points are given.
pub fn slope(ys: &[f64]) -> Option<f64> {
    let n = ys.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = (nf - 1.0) / 2.0;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (i, &y) in ys.iter().enumerate() {
        let dx = i as f64 - mx;
        sxy += dx * (y - my);
        sxx += dx * dx;
    }
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slices_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(slope(&[]), None);
    }

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(variance(&xs), Some(4.0));
        assert_eq!(std_dev(&xs), Some(2.0));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        let r = pearson(&xs, &ys).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        let r = pearson(&xs, &neg).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_none() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn pearson_shift_scale_invariant() {
        let xs = [0.3, -1.2, 2.2, 0.0, 5.5];
        let ys = [1.0, 0.4, 3.3, -0.2, 4.9];
        let r0 = pearson(&xs, &ys).unwrap();
        let xs2: Vec<f64> = xs.iter().map(|x| 3.0 * x + 7.0).collect();
        let r1 = pearson(&xs2, &ys).unwrap();
        assert!((r0 - r1).abs() < 1e-12);
    }

    #[test]
    fn running_matches_batch() {
        let xs = [1.0, 4.0, -2.0, 8.5, 0.25, 3.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert!((r.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((r.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(r.min(), Some(-2.0));
        assert_eq!(r.max(), Some(8.5));
        assert_eq!(r.count(), 6);
    }

    #[test]
    fn slope_of_line() {
        let ys: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 1.0).collect();
        assert!((slope(&ys).unwrap() - 3.0).abs() < 1e-12);
        let flat = [2.0; 5];
        assert!(slope(&flat).unwrap().abs() < 1e-12);
    }
}
