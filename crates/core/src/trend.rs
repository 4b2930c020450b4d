//! ToF trend detection (paper section 2.4).
//!
//! Under macro-mobility a walking user covers a metre-plus per second, so
//! successive per-second ToF medians drift monotonically; under
//! micro-mobility the medians wander randomly within the noise floor.
//! "Only if all the ToF values in the moving window suggest an increasing
//! or decreasing trend, we declare that the client is under
//! macro-mobility" — with the trend's sign giving the radial direction.

use mobisense_util::filter::SlidingWindow;

/// Outcome of trend detection over a ToF window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trend {
    /// ToF (distance) growing: client moving away from the AP.
    Increasing,
    /// ToF (distance) shrinking: client moving towards the AP.
    Decreasing,
    /// No consistent trend: micro-mobility.
    None,
}

/// Configuration of the trend detector.
#[derive(Clone, Copy, Debug)]
pub struct TrendConfig {
    /// Number of per-second median samples in the detection window.
    /// The paper settles on a 4 s window (Figure 6b), i.e. 4 medians
    /// plus the anchor sample.
    pub window: usize,
    /// Minimum total ToF change (clock cycles) across the window for a
    /// trend to count. Filters residual noise on the medians.
    pub min_delta_cycles: f64,
    /// Tolerated per-step regression (cycles): a step may move against
    /// the trend by at most this much ("suggests" a trend, rather than
    /// demanding strict monotonicity of noisy data).
    pub backstep_tolerance: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            window: 5, // 4 seconds of motion = 5 one-second medians
            min_delta_cycles: 1.5,
            backstep_tolerance: 1.1,
        }
    }
}

impl TrendConfig {
    /// A config whose window covers `secs` seconds of per-second medians.
    pub fn with_window_secs(mut self, secs: usize) -> Self {
        assert!(secs >= 1);
        self.window = secs + 1;
        self
    }
}

/// Classifies the trend of a full window of ToF medians.
pub fn detect_trend(samples: &[f64], cfg: &TrendConfig) -> Trend {
    if samples.len() < cfg.window {
        return Trend::None;
    }
    let w = &samples[samples.len() - cfg.window..];
    let delta = w[w.len() - 1] - w[0];
    if delta >= cfg.min_delta_cycles {
        let consistent = w.windows(2).all(|p| p[1] - p[0] > -cfg.backstep_tolerance);
        if consistent {
            return Trend::Increasing;
        }
    } else if delta <= -cfg.min_delta_cycles {
        let consistent = w.windows(2).all(|p| p[1] - p[0] < cfg.backstep_tolerance);
        if consistent {
            return Trend::Decreasing;
        }
    }
    Trend::None
}

/// Streaming trend detector over per-second ToF medians.
#[derive(Clone, Debug)]
pub struct TrendDetector {
    cfg: TrendConfig,
    window: SlidingWindow,
}

impl TrendDetector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: TrendConfig) -> Self {
        TrendDetector {
            window: SlidingWindow::new(cfg.window),
            cfg,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &TrendConfig {
        &self.cfg
    }

    /// Feeds one median ToF sample and returns the current trend.
    /// Returns [`Trend::None`] until the window fills.
    pub fn push(&mut self, median_cycles: f64) -> Trend {
        self.window.push(median_cycles);
        if !self.window.is_full() {
            return Trend::None;
        }
        detect_trend(&self.window.as_vec(), &self.cfg)
    }

    /// Current trend without feeding a sample.
    pub fn current(&self) -> Trend {
        if !self.window.is_full() {
            return Trend::None;
        }
        detect_trend(&self.window.as_vec(), &self.cfg)
    }

    /// True once enough samples have been collected to decide.
    pub fn is_warm(&self) -> bool {
        self.window.is_full()
    }

    /// Drops accumulated samples (ToF measurement stopped/restarted).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// Copies the window's contents oldest-first into `out`, reusing
    /// its allocation, for session snapshots.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) {
        self.window.snapshot_into(out);
    }

    /// Reconstructs a detector holding `samples` (oldest-first). Excess
    /// samples beyond the configured window are trimmed oldest-first, so
    /// a state saved under a larger window restores safely.
    pub fn from_state(cfg: TrendConfig, samples: &[f64]) -> Self {
        let mut d = TrendDetector::new(cfg);
        d.restore_from(samples);
        d
    }

    /// [`from_state`](Self::from_state) into this detector, keeping its
    /// configuration and reusing its window.
    pub fn restore_from(&mut self, samples: &[f64]) {
        self.window.restore_from(samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::DetRng;

    fn cfg() -> TrendConfig {
        TrendConfig::default()
    }

    #[test]
    fn increasing_sequence_detected() {
        let s = [10.0, 11.0, 12.2, 13.0, 14.1];
        assert_eq!(detect_trend(&s, &cfg()), Trend::Increasing);
    }

    #[test]
    fn decreasing_sequence_detected() {
        let s = [20.0, 18.7, 17.9, 16.5, 15.0];
        assert_eq!(detect_trend(&s, &cfg()), Trend::Decreasing);
    }

    #[test]
    fn flat_sequence_is_none() {
        let s = [10.0, 10.3, 9.8, 10.1, 10.2];
        assert_eq!(detect_trend(&s, &cfg()), Trend::None);
    }

    #[test]
    fn small_total_change_is_none() {
        // Monotone but below min_delta: noise, not walking.
        let s = [10.0, 10.2, 10.4, 10.6, 10.8];
        assert_eq!(detect_trend(&s, &cfg()), Trend::None);
    }

    #[test]
    fn tolerates_small_backstep() {
        // One step regresses by 0.3 (< tolerance 0.5) but the walk is real.
        let s = [10.0, 11.5, 11.2, 12.5, 14.0];
        assert_eq!(detect_trend(&s, &cfg()), Trend::Increasing);
    }

    #[test]
    fn rejects_large_backstep() {
        // Total delta is large but one step regresses hard: not a walk.
        let s = [10.0, 14.0, 12.0, 15.0, 16.0];
        assert_eq!(detect_trend(&s, &cfg()), Trend::None);
    }

    #[test]
    fn tolerates_quantisation_backstep() {
        // Integer-quantised medians of a real walk: one step regresses by
        // exactly one cycle, within tolerance.
        let s = [13.0, 15.0, 14.0, 15.0, 16.0];
        assert_eq!(detect_trend(&s, &cfg()), Trend::Increasing);
    }

    #[test]
    fn short_window_is_none() {
        assert_eq!(detect_trend(&[1.0, 2.0], &cfg()), Trend::None);
    }

    #[test]
    fn streaming_detector_warms_up() {
        let mut d = TrendDetector::new(cfg());
        assert!(!d.is_warm());
        for (i, x) in [10.0, 11.0, 12.0, 13.0].iter().enumerate() {
            assert_eq!(d.push(*x), Trend::None, "sample {i} should not fire");
        }
        assert_eq!(d.push(14.0), Trend::Increasing);
        assert!(d.is_warm());
        assert_eq!(d.current(), Trend::Increasing);
    }

    #[test]
    fn streaming_detector_reset() {
        let mut d = TrendDetector::new(cfg());
        for x in [10.0, 11.0, 12.0, 13.0, 14.0] {
            d.push(x);
        }
        assert!(d.is_warm());
        d.reset();
        assert!(!d.is_warm());
        assert_eq!(d.current(), Trend::None);
    }

    #[test]
    fn random_walk_rarely_trends() {
        // Statistical sanity: white noise of the median-filter residual
        // magnitude must almost never fire the detector.
        let mut rng = DetRng::seed_from_u64(42);
        let mut d = TrendDetector::new(cfg());
        let mut fired = 0;
        let n = 2000;
        for _ in 0..n {
            // sigma 0.45 cycles: the residual noise of a per-second
            // median over fifty 2-cycle-sigma raw readings, plus
            // integer quantisation.
            if d.push(rng.normal(10.0, 0.45)) != Trend::None {
                fired += 1;
            }
        }
        let rate = fired as f64 / n as f64;
        assert!(rate < 0.08, "false trend rate {rate}");
    }

    #[test]
    fn walking_drift_fires_reliably() {
        // 0.7 cycles/s drift (1.2 m/s walk at 88 MHz) with 0.5-cycle
        // median noise: the detector should fire most of the time once
        // warm.
        let mut rng = DetRng::seed_from_u64(43);
        let mut d = TrendDetector::new(cfg());
        let mut fired = 0;
        let mut total = 0;
        for i in 0..200 {
            let x = 10.0 + 0.7 * i as f64 + rng.normal(0.0, 0.5);
            let t = d.push(x);
            if i >= 4 {
                total += 1;
                if t == Trend::Increasing {
                    fired += 1;
                }
            }
        }
        let rate = fired as f64 / total as f64;
        assert!(rate > 0.75, "detection rate {rate}");
    }

    #[test]
    fn window_secs_builder() {
        let c = TrendConfig::default().with_window_secs(6);
        assert_eq!(c.window, 7);
    }
}
