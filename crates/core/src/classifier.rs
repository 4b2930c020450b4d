//! The mobility classifier state machine (paper Figure 5).

use mobisense_mobility::{Direction, MobilityMode};
use mobisense_phy::csi::Csi;
use mobisense_telemetry::{Event, NoopSink, Sink};
use mobisense_util::units::{Nanos, MILLISECOND};

use crate::similarity::{SimilarityState, SimilarityTracker};
use crate::trend::{Trend, TrendConfig, TrendDetector};

/// Thresholds and periods of the classification pipeline.
#[derive(Clone, Debug)]
pub struct ClassifierConfig {
    /// CSI sampling period. The paper evaluates 50-3000 ms (Figure 6a)
    /// and settles on 500 ms.
    pub csi_sampling_period: Nanos,
    /// Moving-average window over similarity samples (section 2.5).
    pub similarity_window: usize,
    /// Similarity above this means "stationary, no environmental change"
    /// (paper: `Thr_sta = 0.98`).
    pub thr_static: f64,
    /// Similarity below this means device mobility
    /// (paper: `Thr_env = 0.70`).
    pub thr_env: f64,
    /// ToF trend detection parameters (4 s window by default).
    pub trend: TrendConfig,
    /// Once macro-mobility has been detected, keep reporting it (with
    /// the last direction) for up to this long after the ToF trend
    /// disappears, provided the CSI still indicates device mobility.
    /// Walking users turn; a turn shorter than the ToF window must not
    /// bounce the classification back to micro.
    pub macro_hold: Nanos,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            csi_sampling_period: 500 * MILLISECOND,
            similarity_window: 3,
            thr_static: 0.98,
            thr_env: 0.70,
            trend: TrendConfig::default(),
            macro_hold: 4 * mobisense_util::units::SECOND,
        }
    }
}

/// The classifier's output: one of the paper's four modes, with the
/// radial direction attached when the mode is macro-mobility.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Classification {
    /// Classified mobility mode.
    pub mode: MobilityMode,
    /// Direction relative to the AP (macro-mobility only).
    pub direction: Option<Direction>,
}

impl Classification {
    /// Classification for a non-macro mode.
    pub fn of(mode: MobilityMode) -> Self {
        Classification {
            mode,
            direction: None,
        }
    }

    /// Macro-mobility with a radial direction.
    pub fn macro_with(direction: Direction) -> Self {
        Classification {
            mode: MobilityMode::Macro,
            direction: Some(direction),
        }
    }
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.direction {
            Some(d) => write!(f, "{} ({})", self.mode, d),
            None => write!(f, "{}", self.mode),
        }
    }
}

/// Serializable dynamic state of a [`MobilityClassifier`], produced by
/// [`MobilityClassifier::export_state`]. Plain data: the session
/// snapshot codec owns the byte-level encoding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassifierState {
    /// Similarity tracker state.
    pub similarity: SimilarityState,
    /// ToF trend window contents, oldest-first.
    pub trend_samples: Vec<f64>,
    /// Whether demand-driven ToF measurement is running.
    pub tof_active: bool,
    /// Latest classification, if any.
    pub current: Option<Classification>,
    /// Number of decisions made so far.
    pub decisions: u64,
    /// Last time a ToF trend fired, with its direction.
    pub last_trend: Option<(Nanos, Direction)>,
}

/// AP-side mobility classifier: consumes CSI snapshots from ordinary
/// frame exchanges and median-filtered ToF samples, produces a
/// [`Classification`] every CSI sampling period.
///
/// ToF measurement is demand-driven exactly as in the paper's Figure 5:
/// it runs only while the CSI similarity indicates device mobility
/// (saving airtime otherwise), which callers observe through
/// [`MobilityClassifier::tof_measurement_active`].
#[derive(Clone, Debug)]
pub struct MobilityClassifier {
    cfg: ClassifierConfig,
    similarity: SimilarityTracker,
    trend: TrendDetector,
    tof_active: bool,
    current: Option<Classification>,
    decisions: u64,
    /// Last time a ToF trend fired, with its direction.
    last_trend: Option<(Nanos, Direction)>,
}

impl MobilityClassifier {
    /// Creates a classifier with the given configuration.
    pub fn new(cfg: ClassifierConfig) -> Self {
        assert!(
            cfg.thr_static > cfg.thr_env,
            "static threshold must exceed environmental threshold"
        );
        MobilityClassifier {
            similarity: SimilarityTracker::new(cfg.csi_sampling_period, cfg.similarity_window),
            trend: TrendDetector::new(cfg.trend),
            cfg,
            tof_active: false,
            current: None,
            decisions: 0,
            last_trend: None,
        }
    }

    /// The classifier's configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.cfg
    }

    /// Whether the AP should currently be taking ToF measurements.
    pub fn tof_measurement_active(&self) -> bool {
        self.tof_active
    }

    /// Latest classification, if one has been made.
    pub fn current(&self) -> Option<Classification> {
        self.current
    }

    /// Offers the CSI of a frame received at `now`. When a sampling
    /// period completes, runs the Figure-5 decision logic and returns the
    /// (possibly unchanged) classification.
    pub fn on_frame_csi(&mut self, now: Nanos, csi: &Csi) -> Option<Classification> {
        self.on_frame_csi_with(now, csi, &mut NoopSink)
    }

    /// [`MobilityClassifier::on_frame_csi`] with telemetry: each
    /// completed decision is recorded as an [`Event::Decision`] in
    /// `sink`.
    pub fn on_frame_csi_with<S: Sink + ?Sized>(
        &mut self,
        now: Nanos,
        csi: &Csi,
        sink: &mut S,
    ) -> Option<Classification> {
        let smoothed = self.similarity.offer(now, csi);
        self.finish_frame(now, smoothed, sink)
    }

    /// [`MobilityClassifier::on_frame_csi`] for callers that hold only
    /// the CSI magnitude digest (the per-subcarrier magnitude profile)
    /// instead of a full CSI matrix. The serving layer's wire frames
    /// carry this digest; classification is identical because the
    /// Equation-(1) similarity only ever consumes the profile.
    pub fn on_frame_profile(&mut self, now: Nanos, profile: Vec<f64>) -> Option<Classification> {
        self.on_frame_profile_with(now, profile, &mut NoopSink)
    }

    /// [`MobilityClassifier::on_frame_profile`] with telemetry.
    pub fn on_frame_profile_with<S: Sink + ?Sized>(
        &mut self,
        now: Nanos,
        profile: Vec<f64>,
        sink: &mut S,
    ) -> Option<Classification> {
        let smoothed = self.similarity.offer_profile(now, profile);
        self.finish_frame(now, smoothed, sink)
    }

    fn finish_frame<S: Sink + ?Sized>(
        &mut self,
        now: Nanos,
        smoothed: Option<f64>,
        sink: &mut S,
    ) -> Option<Classification> {
        let decision = self.decide(now, smoothed?)?;
        if sink.enabled() {
            sink.record(Event::Decision {
                at: now,
                mode: decision.mode.label().to_string(),
                direction: decision.direction.map(|d| d.label().to_string()),
            });
        }
        Some(decision)
    }

    fn decide(&mut self, now: Nanos, smoothed: f64) -> Option<Classification> {
        let decision = if smoothed > self.cfg.thr_static {
            self.stop_tof();
            Classification::of(MobilityMode::Static)
        } else if smoothed > self.cfg.thr_env {
            self.stop_tof();
            Classification::of(MobilityMode::Environmental)
        } else {
            // Device mobility: consult ToF.
            if !self.tof_active {
                self.tof_active = true;
                self.trend.reset();
            }
            match self.trend.current() {
                Trend::Increasing => {
                    self.last_trend = Some((now, Direction::Away));
                    Classification::macro_with(Direction::Away)
                }
                Trend::Decreasing => {
                    self.last_trend = Some((now, Direction::Towards));
                    Classification::macro_with(Direction::Towards)
                }
                Trend::None => match self.last_trend {
                    // Hysteresis: a recent trend plus ongoing device
                    // mobility still means the user is walking (turns
                    // break the monotone ToF run without ending the walk).
                    Some((at, d)) if now.saturating_sub(at) <= self.cfg.macro_hold => {
                        Classification::macro_with(d)
                    }
                    _ => Classification::of(MobilityMode::Micro),
                },
            }
        };
        self.current = Some(decision);
        self.decisions += 1;
        Some(decision)
    }

    /// Feeds one median-filtered ToF sample (clock cycles). Ignored when
    /// ToF measurement is inactive — the AP would not have taken it.
    pub fn on_tof_median(&mut self, median_cycles: f64) {
        if self.tof_active {
            self.trend.push(median_cycles);
        }
    }

    /// Exports the classifier's complete dynamic state for session
    /// hibernation. Round-trips through [`from_state`](Self::from_state):
    /// a restored classifier makes bit-identical decisions from the saved
    /// point on.
    pub fn export_state(&self) -> ClassifierState {
        let mut state = ClassifierState::default();
        self.snapshot_into(&mut state);
        state
    }

    /// [`export_state`](Self::export_state) into a reused state: every
    /// field is overwritten and the vectors keep their allocations.
    pub fn snapshot_into(&self, out: &mut ClassifierState) {
        self.similarity.snapshot_into(&mut out.similarity);
        self.trend.snapshot_into(&mut out.trend_samples);
        out.tof_active = self.tof_active;
        out.current = self.current;
        out.decisions = self.decisions;
        out.last_trend = self.last_trend;
    }

    /// Reconstructs a classifier from [`export_state`](Self::export_state)
    /// output under the given configuration. Panics only on the same
    /// configuration invariant as [`new`](Self::new).
    pub fn from_state(cfg: ClassifierConfig, state: ClassifierState) -> Self {
        let mut cl = MobilityClassifier::new(cfg);
        cl.restore_from(&state);
        cl
    }

    /// [`from_state`](Self::from_state) into this classifier, keeping its
    /// configuration and reusing its buffers: afterwards it is
    /// indistinguishable from `MobilityClassifier::from_state(cfg, state)`.
    pub fn restore_from(&mut self, state: &ClassifierState) {
        self.similarity.restore_from(&state.similarity);
        self.trend.restore_from(&state.trend_samples);
        self.tof_active = state.tof_active;
        self.current = state.current;
        self.decisions = state.decisions;
        self.last_trend = state.last_trend;
    }

    /// Approximate resident heap bytes of the classifier's buffers, for
    /// the serving layer's hot-working-set gauges.
    pub fn approx_bytes(&self) -> usize {
        self.similarity.approx_bytes() + 8 * self.cfg.trend.window
    }

    /// Resets all state, e.g. after the client roams to another AP.
    pub fn reset(&mut self) {
        self.similarity.reset();
        self.stop_tof();
        self.current = None;
    }

    fn stop_tof(&mut self) {
        self.tof_active = false;
        self.trend.reset();
        self.last_trend = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::DetRng;

    fn random_csi(rng: &mut DetRng) -> Csi {
        let mut c = Csi::zeros(3, 2, 52);
        for i in 0..c.as_slice().len() {
            let v = rng.complex_gaussian(1.0);
            c.as_mut_slice()[i] = v;
        }
        c
    }

    fn noisy(rng: &mut DetRng, base: &Csi, sigma: f64) -> Csi {
        let mut c = base.clone();
        for v in c.as_mut_slice() {
            *v += rng.complex_gaussian(sigma);
        }
        c
    }

    /// Mix of `base` and a fresh random channel with weight `w` on the
    /// fresh part — emulates partial (environmental) channel change.
    fn partially_changed(rng: &mut DetRng, base: &Csi, w: f64) -> Csi {
        let fresh = random_csi(rng);
        let mut c = base.clone();
        for (v, f) in c.as_mut_slice().iter_mut().zip(fresh.as_slice()) {
            *v = *v * (1.0 - w) + *f * w;
        }
        c
    }

    const PERIOD: Nanos = 500 * MILLISECOND;

    #[test]
    fn stable_csi_classifies_static() {
        let mut rng = DetRng::seed_from_u64(1);
        let base = random_csi(&mut rng);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        let mut last = None;
        for i in 0..10u64 {
            last = cl
                .on_frame_csi(i * PERIOD, &noisy(&mut rng, &base, 0.01))
                .or(last);
        }
        assert_eq!(last, Some(Classification::of(MobilityMode::Static)));
        assert!(!cl.tof_measurement_active());
    }

    #[test]
    fn partial_change_classifies_environmental() {
        let mut rng = DetRng::seed_from_u64(2);
        let base = random_csi(&mut rng);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        let mut prev = base.clone();
        let mut modes = Vec::new();
        for i in 0..20u64 {
            // Each sample shares most structure with the previous one.
            let cur = partially_changed(&mut rng, &prev, 0.12);
            if let Some(c) = cl.on_frame_csi(i * PERIOD, &cur) {
                modes.push(c.mode);
            }
            prev = cur;
        }
        let env = modes
            .iter()
            .filter(|m| **m == MobilityMode::Environmental)
            .count();
        assert!(
            env * 2 > modes.len(),
            "expected mostly environmental, got {modes:?}"
        );
    }

    #[test]
    fn fresh_csi_without_trend_classifies_micro() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        let mut last = None;
        for i in 0..10u64 {
            last = cl.on_frame_csi(i * PERIOD, &random_csi(&mut rng)).or(last);
            // ToF medians wander: no trend.
            cl.on_tof_median(10.0 + rng.normal(0.0, 0.4));
        }
        assert_eq!(last, Some(Classification::of(MobilityMode::Micro)));
        assert!(cl.tof_measurement_active());
    }

    #[test]
    fn fresh_csi_with_increasing_tof_classifies_macro_away() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        let mut tof = 10.0;
        let mut last = None;
        for i in 0..16u64 {
            last = cl.on_frame_csi(i * PERIOD, &random_csi(&mut rng)).or(last);
            if i % 2 == 1 {
                // One median per second (every other 500 ms sample).
                tof += 0.9;
                cl.on_tof_median(tof);
            }
        }
        assert_eq!(last, Some(Classification::macro_with(Direction::Away)));
    }

    #[test]
    fn fresh_csi_with_decreasing_tof_classifies_macro_towards() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        let mut tof = 50.0;
        let mut last = None;
        for i in 0..16u64 {
            last = cl.on_frame_csi(i * PERIOD, &random_csi(&mut rng)).or(last);
            if i % 2 == 1 {
                tof -= 0.9;
                cl.on_tof_median(tof);
            }
        }
        assert_eq!(last, Some(Classification::macro_with(Direction::Towards)));
    }

    #[test]
    fn tof_stops_when_returning_to_static() {
        let mut rng = DetRng::seed_from_u64(6);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        // Device mobility first.
        for i in 0..4u64 {
            cl.on_frame_csi(i * PERIOD, &random_csi(&mut rng));
        }
        assert!(cl.tof_measurement_active());
        // Then the channel stabilises.
        let base = random_csi(&mut rng);
        for i in 4..12u64 {
            cl.on_frame_csi(i * PERIOD, &noisy(&mut rng, &base, 0.01));
        }
        assert!(!cl.tof_measurement_active());
        assert_eq!(cl.current().unwrap().mode, MobilityMode::Static);
    }

    #[test]
    fn tof_medians_ignored_when_inactive() {
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        for _ in 0..10 {
            cl.on_tof_median(42.0); // must not panic or accumulate
        }
        assert!(!cl.tof_measurement_active());
    }

    #[test]
    fn trend_history_cleared_on_restart() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut cl = MobilityClassifier::new(ClassifierConfig::default());
        // Phase 1: device mobility with rising ToF.
        let mut tof = 10.0;
        for i in 0..12u64 {
            cl.on_frame_csi(i * PERIOD, &random_csi(&mut rng));
            tof += 0.9;
            cl.on_tof_median(tof);
        }
        assert_eq!(cl.current().unwrap().mode, MobilityMode::Macro);
        // Phase 2: static interlude stops ToF.
        let base = random_csi(&mut rng);
        for i in 12..20u64 {
            cl.on_frame_csi(i * PERIOD, &noisy(&mut rng, &base, 0.01));
        }
        // Phase 3: device mobility again — old trend must not leak: the
        // first device-mobility decisions are micro until a fresh window
        // fills.
        let c = cl.on_frame_csi(20 * PERIOD, &random_csi(&mut rng)).unwrap();
        assert_eq!(c.mode, MobilityMode::Micro);
    }

    #[test]
    #[should_panic(expected = "static threshold must exceed")]
    fn invalid_thresholds_panic() {
        let cfg = ClassifierConfig {
            thr_static: 0.5,
            thr_env: 0.9,
            ..ClassifierConfig::default()
        };
        MobilityClassifier::new(cfg);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Classification::of(MobilityMode::Static).to_string(),
            "static"
        );
        assert_eq!(
            Classification::macro_with(Direction::Away).to_string(),
            "macro (away)"
        );
    }
}
