//! Streaming filters used by the classification pipeline.
//!
//! The paper's AP-side pipeline (section 2.5) median-filters noisy ToF
//! readings once per second and keeps a moving average of CSI similarity;
//! the MAC-layer Atheros rate adaptation keeps an exponentially weighted
//! moving average of packet error rate with a mobility-dependent smoothing
//! factor (section 4). These filters live here so every crate shares one
//! audited implementation.

use std::collections::VecDeque;

/// Fixed-capacity sliding window over `f64` samples.
#[derive(Clone, Debug)]
pub struct SlidingWindow {
    buf: VecDeque<f64>,
    cap: usize,
}

impl SlidingWindow {
    /// Creates a window holding at most `cap` samples. `cap` must be > 0.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        SlidingWindow {
            buf: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Pushes a sample, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(x);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.cap
    }

    /// Contents oldest-first.
    pub fn as_vec(&self) -> Vec<f64> {
        self.buf.iter().copied().collect()
    }

    /// Copies the contents oldest-first into `out`, reusing its
    /// allocation.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.buf.iter().copied());
    }

    /// Replaces the contents with `samples` (oldest-first), keeping only
    /// the newest `cap` of them — what pushing each in turn would leave —
    /// without reallocating.
    pub fn restore_from(&mut self, samples: &[f64]) {
        self.buf.clear();
        let skip = samples.len().saturating_sub(self.cap);
        self.buf.extend(samples.iter().skip(skip).copied());
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Mean of the current contents, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
        }
    }

    /// Median of the current contents, or `None` when empty.
    pub fn median(&self) -> Option<f64> {
        crate::stats::median(&self.as_vec())
    }
}

/// Windowed median filter: feed raw samples, read the median of the last
/// `window` of them. This is the ToF de-noising step of the paper.
#[derive(Clone, Debug)]
pub struct MedianFilter {
    window: SlidingWindow,
}

impl MedianFilter {
    /// Creates a median filter over the last `window` samples.
    pub fn new(window: usize) -> Self {
        MedianFilter {
            window: SlidingWindow::new(window),
        }
    }

    /// Feeds one sample and returns the current median.
    pub fn push(&mut self, x: f64) -> f64 {
        self.window.push(x);
        self.window.median().expect("just pushed")
    }

    /// Current median without feeding, if any samples were fed.
    pub fn current(&self) -> Option<f64> {
        self.window.median()
    }

    /// Drops all history.
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

/// Batch median aggregator: collect samples for one aggregation period,
/// then drain them into a single median value. Matches the paper's
/// "sample ToF every 20 ms, aggregate every second using a median filter".
#[derive(Clone, Debug, Default)]
pub struct BatchMedian {
    samples: Vec<f64>,
}

impl BatchMedian {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one raw sample to the current batch.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of samples in the current batch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the current batch is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples of the current batch, oldest-first. Used to
    /// snapshot an in-flight aggregation period:
    /// [`restore_from`](Self::restore_from) reconstructs the batch
    /// exactly.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Replaces the current batch with `samples` (oldest-first), reusing
    /// the batch's allocation.
    pub fn restore_from(&mut self, samples: &[f64]) {
        self.samples.clear();
        self.samples.extend_from_slice(samples);
    }

    /// Ends the batch: returns its median (if non-empty) and clears it.
    pub fn drain(&mut self) -> Option<f64> {
        let m = crate::stats::median(&self.samples);
        self.samples.clear();
        m
    }
}

/// Exponentially-weighted moving average:
/// `avg <- alpha * x + (1 - alpha) * avg`.
///
/// The Atheros rate adaptation's PER low-pass filter (paper Eq. 2) with a
/// mobility-dependent smoothing factor `alpha` (paper Table 2).
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Current smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Changes the smoothing factor, keeping the accumulated value.
    /// This is exactly what the mobility-aware rate control does when the
    /// client's mobility mode changes.
    pub fn set_alpha(&mut self, alpha: f64) {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
    }

    /// Feeds one observation and returns the updated average. The first
    /// observation initialises the average directly.
    pub fn push(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(next);
        next
    }

    /// Current average, if any observation was fed.
    pub fn current(&self) -> Option<f64> {
        self.value
    }

    /// Drops accumulated state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Simple moving average over a fixed window.
#[derive(Clone, Debug)]
pub struct MovingAverage {
    window: SlidingWindow,
}

impl MovingAverage {
    /// Creates a moving average over the last `window` samples.
    pub fn new(window: usize) -> Self {
        MovingAverage {
            window: SlidingWindow::new(window),
        }
    }

    /// Feeds one sample and returns the current mean.
    pub fn push(&mut self, x: f64) -> f64 {
        self.window.push(x);
        self.window.mean().expect("just pushed")
    }

    /// Current mean without feeding, if any samples were fed.
    pub fn current(&self) -> Option<f64> {
        self.window.mean()
    }

    /// Copies the window's contents oldest-first into `out`, reusing
    /// its allocation. Used to snapshot the average:
    /// [`restore_from`](Self::restore_from) on an instance of the same
    /// capacity reconstructs it exactly.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) {
        self.window.snapshot_into(out);
    }

    /// Replaces the window with `values` (oldest-first); more values
    /// than the window holds keep the newest, exactly as pushing each
    /// in turn would.
    pub fn restore_from(&mut self, values: &[f64]) {
        self.window.restore_from(values);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no samples have been fed.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Drops all history.
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_window_eviction() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        assert_eq!(w.as_vec(), vec![2.0, 3.0, 4.0]);
        assert!(w.is_full());
        assert_eq!(w.mean(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    fn median_filter_rejects_outlier() {
        let mut f = MedianFilter::new(5);
        for x in [10.0, 10.0, 10.0, 10.0] {
            f.push(x);
        }
        // A single spike must not move the median.
        assert_eq!(f.push(1000.0), 10.0);
    }

    #[test]
    fn batch_median_drains() {
        let mut b = BatchMedian::new();
        assert_eq!(b.drain(), None);
        for x in [3.0, 1.0, 2.0] {
            b.push(x);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.drain(), Some(2.0));
        assert!(b.is_empty());
    }

    #[test]
    fn ewma_matches_paper_equation() {
        // PER_avg = alpha * PER_new + (1 - alpha) * PER_avg, alpha = 1/8.
        let mut e = Ewma::new(1.0 / 8.0);
        assert_eq!(e.push(0.8), 0.8); // first sample initialises
        let expect = 0.125 * 0.0 + 0.875 * 0.8;
        assert!((e.push(0.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn ewma_alpha_one_tracks_input() {
        let mut e = Ewma::new(1.0);
        e.push(5.0);
        assert_eq!(e.push(7.0), 7.0);
    }

    #[test]
    fn ewma_set_alpha_keeps_value() {
        let mut e = Ewma::new(0.5);
        e.push(10.0);
        e.set_alpha(0.1);
        assert_eq!(e.current(), Some(10.0));
        assert!((e.push(0.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_zero_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn restore_from_matches_pushing_each_sample() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        for n in 0..=samples.len() {
            let mut pushed = SlidingWindow::new(3);
            for &x in &samples[..n] {
                pushed.push(x);
            }
            // A dirty window: stale contents must not survive.
            let mut restored = SlidingWindow::new(3);
            restored.push(9.0);
            restored.restore_from(&samples[..n]);
            assert_eq!(restored.as_vec(), pushed.as_vec(), "{n} samples");
            let mut out = vec![7.0; 8];
            restored.snapshot_into(&mut out);
            assert_eq!(out, pushed.as_vec());
        }
    }

    #[test]
    fn moving_average_converges() {
        let mut m = MovingAverage::new(4);
        for _ in 0..10 {
            m.push(2.0);
        }
        assert_eq!(m.current(), Some(2.0));
    }
}
