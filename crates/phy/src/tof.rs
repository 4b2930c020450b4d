//! Time-of-Flight measurement pipeline.
//!
//! The paper (section 2.4, Figure 3) recovers the round-trip propagation
//! time from the DATA -> SIFS -> ACK exchange: the chipset timestamps the
//! Time-of-Departure of the data frame and the Time-of-Arrival of the ACK;
//! after subtracting the fixed SIFS, the remainder is 2 x distance / c
//! plus measurement error. The Atheros hardware reports this in units of
//! its baseband clock, so we model the measurement in **clock cycles**.
//!
//! The raw readings are noisy (the paper's Figure 4 shows micro-mobility
//! noise comparable to several metres), so the pipeline samples every
//! `sampling_period` (20 ms) and aggregates each second with a median
//! filter before trend detection.

use mobisense_util::filter::BatchMedian;
use mobisense_util::rng::DetRngState;
use mobisense_util::units::{Nanos, SPEED_OF_LIGHT};
use mobisense_util::DetRng;

/// Configuration of the ToF measurement model.
#[derive(Clone, Debug)]
pub struct TofConfig {
    /// Baseband timestamp clock in Hz (88 MHz on AR93xx-class hardware
    /// when sampling a 40 MHz channel at 2x).
    pub clock_hz: f64,
    /// Standard deviation of the per-measurement error, in clock cycles.
    pub noise_cycles: f64,
    /// Probability that a measurement is an outlier (multipath-corrupted
    /// ACK detection), in `[0, 1]`.
    pub outlier_prob: f64,
    /// Standard deviation of outlier errors, in clock cycles.
    pub outlier_cycles: f64,
    /// Fixed processing bias in cycles (calibrated away in practice; kept
    /// non-zero so nothing downstream accidentally relies on zero bias).
    pub bias_cycles: f64,
    /// Raw sampling period.
    pub sampling_period: Nanos,
    /// Median aggregation period (the paper aggregates each second).
    pub aggregation_period: Nanos,
    /// Maximum filtered (median-per-period) samples retained in
    /// [`TofSampler::history`]. The classifier only ever consumes each
    /// median through its trend window, so per-session memory needs to
    /// be O(window), not O(session lifetime); the default comfortably
    /// covers the trend detector's horizon plus diagnostic slack.
    pub history_cap: usize,
}

impl Default for TofConfig {
    fn default() -> Self {
        TofConfig {
            clock_hz: 88e6,
            noise_cycles: 2.0,
            outlier_prob: 0.02,
            outlier_cycles: 20.0,
            bias_cycles: 7.0,
            sampling_period: 20 * mobisense_util::units::MILLISECOND,
            aggregation_period: mobisense_util::units::SECOND,
            history_cap: 32,
        }
    }
}

impl TofConfig {
    /// Round-trip clock cycles corresponding to a one-way distance.
    pub fn cycles_for_distance(&self, distance_m: f64) -> f64 {
        2.0 * distance_m / SPEED_OF_LIGHT * self.clock_hz
    }

    /// One-way distance corresponding to a round-trip cycle count
    /// (after bias removal).
    pub fn distance_for_cycles(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz * SPEED_OF_LIGHT / 2.0
    }
}

/// One raw ToF measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TofMeasurement {
    /// Measurement timestamp.
    pub at: Nanos,
    /// Measured round-trip time in clock cycles (bias included).
    pub cycles: f64,
}

/// Samples raw ToF readings on a fixed schedule and aggregates them with a
/// per-period median filter, exactly as the paper's pipeline does.
///
/// Drive it with [`TofSampler::poll`]: give it the current time and the
/// current true AP-client distance; it returns a filtered median sample
/// whenever an aggregation period completes.
#[derive(Clone, Debug)]
pub struct TofSampler {
    cfg: TofConfig,
    rng: DetRng,
    next_sample_at: Nanos,
    batch: BatchMedian,
    period_end: Nanos,
    /// Filtered (median-per-second) samples produced so far.
    history: Vec<TofMeasurement>,
}

impl TofSampler {
    /// Creates a sampler starting at time `start`.
    pub fn new(cfg: TofConfig, start: Nanos, rng: DetRng) -> Self {
        let period = cfg.aggregation_period;
        TofSampler {
            cfg,
            rng,
            next_sample_at: start,
            batch: BatchMedian::new(),
            period_end: start + period,
            history: Vec::new(),
        }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &TofConfig {
        &self.cfg
    }

    /// Draws one raw measurement for a given true distance.
    pub fn raw_measurement(&mut self, distance_m: f64) -> f64 {
        let true_cycles = self.cfg.cycles_for_distance(distance_m) + self.cfg.bias_cycles;
        let noise = if self.rng.chance(self.cfg.outlier_prob) {
            self.rng.normal(0.0, self.cfg.outlier_cycles)
        } else {
            self.rng.normal(0.0, self.cfg.noise_cycles)
        };
        // Hardware reports integer cycle counts.
        (true_cycles + noise).round()
    }

    /// Advances the sampler to time `now` with the client at the given
    /// true distance. Returns the median-filtered sample if an aggregation
    /// period completed, else `None`.
    ///
    /// `poll` may be called at any cadence at or above the sampling rate;
    /// raw measurements are taken only on the internal 20 ms schedule.
    pub fn poll(&mut self, now: Nanos, distance_m: f64) -> Option<TofMeasurement> {
        while self.next_sample_at <= now {
            let raw = self.raw_measurement(distance_m);
            self.batch.push(raw);
            self.next_sample_at += self.cfg.sampling_period;
        }
        if now >= self.period_end {
            let at = self.period_end;
            self.period_end += self.cfg.aggregation_period;
            if let Some(median) = self.batch.drain() {
                let m = TofMeasurement { at, cycles: median };
                if self.history.len() >= self.cfg.history_cap.max(1) {
                    // Bounded history: drop the oldest filtered sample.
                    // O(cap) per aggregation period (once a second), and
                    // cap is small, so the shift is in the noise.
                    self.history.remove(0);
                }
                self.history.push(m);
                return Some(m);
            }
        }
        None
    }

    /// All filtered samples produced so far.
    pub fn history(&self) -> &[TofMeasurement] {
        &self.history
    }

    /// Returns the sampler to its just-constructed state (schedule
    /// anchored at `start`, fresh noise stream, empty batch and history)
    /// without reallocating its buffers — the serving layer recycles one
    /// sampler per client session across fleet runs.
    ///
    /// `TofSampler::reset(cfg_start, rng)` is behaviourally identical to
    /// `TofSampler::new(cfg, cfg_start, rng)` with the same config.
    pub fn reset(&mut self, start: Nanos, rng: DetRng) {
        self.rng = rng;
        self.next_sample_at = start;
        self.batch.drain();
        self.period_end = start + self.cfg.aggregation_period;
        self.history.clear();
    }

    /// Clears filtered history (e.g. when ToF monitoring is restarted, as
    /// in the paper's Figure 5 state machine).
    pub fn reset_history(&mut self) {
        self.history.clear();
        self.batch = BatchMedian::new();
    }

    /// Approximate resident heap bytes of the sampler's buffers, for the
    /// serving layer's hot-working-set gauges.
    pub fn approx_bytes(&self) -> usize {
        8 * self.batch.len() + std::mem::size_of::<TofMeasurement>() * self.history.len()
    }

    /// Exports the sampler's complete dynamic state (noise-stream
    /// position, schedule anchors, the in-flight batch, and the bounded
    /// filtered history) for session hibernation. Round-trips through
    /// [`from_state`](Self::from_state): the restored sampler produces a
    /// bit-identical measurement stream from the saved point on.
    pub fn export_state(&self) -> TofSamplerState {
        let mut state = TofSamplerState::default();
        self.snapshot_into(&mut state);
        state
    }

    /// [`export_state`](Self::export_state) into a reused state: every
    /// field is overwritten and the vectors keep their allocations.
    pub fn snapshot_into(&self, out: &mut TofSamplerState) {
        out.rng = self.rng.export_state();
        out.next_sample_at = self.next_sample_at;
        out.period_end = self.period_end;
        out.batch.clear();
        out.batch.extend_from_slice(self.batch.samples());
        out.history.clear();
        out.history.extend_from_slice(&self.history);
    }

    /// Reconstructs a sampler from [`export_state`](Self::export_state)
    /// output. History beyond `cfg.history_cap` is trimmed oldest-first,
    /// so a state saved under a larger cap restores safely.
    pub fn from_state(cfg: TofConfig, state: TofSamplerState) -> Self {
        let mut sampler = TofSampler::new(cfg, 0, DetRng::seed_from_u64(0));
        sampler.restore_from(&state);
        sampler
    }

    /// [`from_state`](Self::from_state) into this sampler, keeping its
    /// configuration and reusing its buffers: afterwards it is
    /// indistinguishable from `TofSampler::from_state(cfg, state)`.
    pub fn restore_from(&mut self, state: &TofSamplerState) {
        self.rng = DetRng::from_state(&state.rng);
        self.next_sample_at = state.next_sample_at;
        self.period_end = state.period_end;
        self.batch.restore_from(&state.batch);
        let skip = state
            .history
            .len()
            .saturating_sub(self.cfg.history_cap.max(1));
        self.history.clear();
        self.history
            .extend(state.history.iter().skip(skip).copied());
    }
}

/// Serializable dynamic state of a [`TofSampler`], produced by
/// [`TofSampler::export_state`]. Plain data: the session snapshot codec
/// owns the byte-level encoding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TofSamplerState {
    /// Position of the measurement-noise stream.
    pub rng: DetRngState,
    /// Next raw-sample time on the 20 ms schedule.
    pub next_sample_at: Nanos,
    /// End of the current aggregation period.
    pub period_end: Nanos,
    /// Raw samples of the in-flight aggregation batch, oldest-first.
    pub batch: Vec<f64>,
    /// Bounded filtered history, oldest-first.
    pub history: Vec<TofMeasurement>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::units::{MILLISECOND, SECOND};

    fn sampler(seed: u64) -> TofSampler {
        TofSampler::new(TofConfig::default(), 0, DetRng::seed_from_u64(seed))
    }

    #[test]
    fn cycles_distance_roundtrip() {
        let cfg = TofConfig::default();
        let d = 12.5;
        let c = cfg.cycles_for_distance(d);
        assert!((cfg.distance_for_cycles(c) - d).abs() < 1e-9);
        // 10 m one-way = 20 m round trip ~ 66.7 ns ~ 5.9 cycles at 88 MHz.
        assert!((cfg.cycles_for_distance(10.0) - 5.87).abs() < 0.05);
    }

    #[test]
    fn median_filter_reduces_noise() {
        let mut s = sampler(1);
        let mut medians = Vec::new();
        let mut t = 0;
        while medians.len() < 30 {
            t += 20 * MILLISECOND;
            if let Some(m) = s.poll(t, 10.0) {
                medians.push(m.cycles);
            }
        }
        let sd = mobisense_util::stats::std_dev(&medians).unwrap();
        // Raw sigma is 3 cycles; medians of ~50 samples must be far tighter.
        assert!(sd < 1.2, "median std-dev {sd}");
        let mean = mobisense_util::stats::mean(&medians).unwrap();
        let expect = TofConfig::default().cycles_for_distance(10.0) + 7.0;
        assert!((mean - expect).abs() < 1.0, "mean {mean} expect {expect}");
    }

    #[test]
    fn one_median_per_second() {
        let mut s = sampler(2);
        let mut count = 0;
        let mut t = 0;
        while t < 10 * SECOND {
            t += 20 * MILLISECOND;
            if s.poll(t, 5.0).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn walking_towards_ap_decreases_filtered_tof() {
        let mut s = sampler(3);
        let mut medians = Vec::new();
        let mut t: Nanos = 0;
        // Walk from 25 m to 5 m over 16 s (1.25 m/s).
        while t < 16 * SECOND {
            t += 20 * MILLISECOND;
            let d = 25.0 - 1.25 * (t as f64 / 1e9);
            if let Some(m) = s.poll(t, d) {
                medians.push(m.cycles);
            }
        }
        assert!(medians.len() >= 15);
        // The overall trend must be decreasing even if individual steps
        // are noisy.
        let first = medians[..3].iter().sum::<f64>() / 3.0;
        let last = medians[medians.len() - 3..].iter().sum::<f64>() / 3.0;
        let expected_drop = TofConfig::default().cycles_for_distance(20.0 * 0.8);
        assert!(
            first - last > expected_drop * 0.6,
            "first {first} last {last}"
        );
    }

    #[test]
    fn micro_mobility_tof_has_no_trend() {
        let mut s = sampler(4);
        let mut medians = Vec::new();
        let mut t: Nanos = 0;
        let mut rng = DetRng::seed_from_u64(77);
        while t < 20 * SECOND {
            t += 20 * MILLISECOND;
            // Distance wobbles within +-0.4 m of 10 m.
            let d = 10.0 + 0.4 * (rng.uniform() - 0.5);
            if let Some(m) = s.poll(t, d) {
                medians.push(m.cycles);
            }
        }
        let slope = mobisense_util::stats::slope(&medians).unwrap();
        assert!(slope.abs() < 0.25, "slope {slope}");
    }

    #[test]
    fn reset_clears_history() {
        let mut s = sampler(5);
        let mut t = 0;
        for _ in 0..120 {
            t += 20 * MILLISECOND;
            s.poll(t, 8.0);
        }
        assert!(!s.history().is_empty());
        s.reset_history();
        assert!(s.history().is_empty());
    }

    #[test]
    fn history_is_bounded_at_config_cap() {
        let cfg = TofConfig {
            history_cap: 5,
            ..TofConfig::default()
        };
        let mut s = TofSampler::new(cfg, 0, DetRng::seed_from_u64(8));
        let mut medians = Vec::new();
        let mut t = 0;
        while medians.len() < 20 {
            t += 20 * MILLISECOND;
            if let Some(m) = s.poll(t, 10.0) {
                medians.push(m);
            }
        }
        assert_eq!(s.history().len(), 5);
        // The retained suffix is the newest five medians, in order.
        assert_eq!(s.history(), &medians[medians.len() - 5..]);
    }

    #[test]
    fn history_cap_does_not_change_the_measurement_stream() {
        // The cap only trims retained diagnostics; the medians returned
        // from poll (what the classifier consumes) must be identical.
        let tight = TofConfig {
            history_cap: 2,
            ..TofConfig::default()
        };
        let mut a = TofSampler::new(tight, 0, DetRng::seed_from_u64(9));
        let mut b = TofSampler::new(TofConfig::default(), 0, DetRng::seed_from_u64(9));
        let mut t = 0;
        for _ in 0..1500 {
            t += 20 * MILLISECOND;
            let d = 10.0 + (t as f64 / 1e9).sin();
            assert_eq!(a.poll(t, d), b.poll(t, d));
        }
    }

    #[test]
    fn state_round_trip_resumes_mid_period() {
        let mut a = sampler(10);
        let mut t = 0;
        // Stop mid-aggregation-period so the batch is non-empty.
        for _ in 0..130 {
            t += 20 * MILLISECOND;
            a.poll(t, 12.0);
        }
        let state = a.export_state();
        let mut b = TofSampler::from_state(a.config().clone(), state.clone());
        assert_eq!(a.export_state(), b.export_state());
        for _ in 0..500 {
            t += 20 * MILLISECOND;
            let d = 12.0 - (t as f64 / 1e9) * 0.5;
            assert_eq!(a.poll(t, d), b.poll(t, d));
        }
        assert_eq!(a.history(), b.history());
    }

    #[test]
    fn from_state_trims_oversized_history() {
        let mut a = sampler(11);
        let mut t = 0;
        for _ in 0..600 {
            t += 20 * MILLISECOND;
            a.poll(t, 9.0);
        }
        let state = a.export_state();
        let tight = TofConfig {
            history_cap: 3,
            ..TofConfig::default()
        };
        let b = TofSampler::from_state(tight, state.clone());
        assert_eq!(b.history(), &state.history[state.history.len() - 3..]);
    }

    #[test]
    fn measurements_are_integer_cycles() {
        let mut s = sampler(6);
        for _ in 0..50 {
            let raw = s.raw_measurement(9.0);
            assert_eq!(raw, raw.round());
        }
    }
}
