//! End-to-end classification pipeline: scenario -> AP measurements ->
//! classifier decisions, with ground truth attached.
//!
//! This is the harness behind the paper's Table 1 and Figure 6: it drives
//! a [`Scenario`] at the AP's frame cadence, feeds CSI into the
//! [`MobilityClassifier`], runs the ToF sampling/median pipeline, and
//! records one `(decision, truth)` pair per classifier decision.

use mobisense_mobility::{GroundTruth, MobilityMode};
use mobisense_phy::csi::Csi;
use mobisense_phy::tof::{TofConfig, TofSampler, TofSamplerState};
use mobisense_telemetry::{timed, Event, NoopSink, Sink};
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};
use mobisense_util::DetRng;

use crate::classifier::{Classification, ClassifierConfig, ClassifierState, MobilityClassifier};
use crate::scenario::Scenario;

/// Configuration of a classification run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Classifier thresholds and periods.
    pub classifier: ClassifierConfig,
    /// ToF measurement model.
    pub tof: TofConfig,
    /// World step = how often the AP exchanges a frame with the client
    /// (and could therefore capture CSI / take a ToF reading).
    pub step: Nanos,
    /// Decisions made before this instant are discarded: the classifier
    /// needs its similarity average and ToF window to fill.
    pub warmup: Nanos,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            classifier: ClassifierConfig::default(),
            tof: TofConfig::default(),
            step: 20 * MILLISECOND,
            warmup: 6 * SECOND,
        }
    }
}

/// One recorded classification decision with its ground truth.
#[derive(Clone, Copy, Debug)]
pub struct DecisionRecord {
    /// Decision timestamp.
    pub at: Nanos,
    /// What the classifier said.
    pub decision: Classification,
    /// What the world was actually doing.
    pub truth: GroundTruth,
}

impl DecisionRecord {
    /// Mode-level correctness (the paper's Table 1 criterion).
    pub fn mode_correct(&self) -> bool {
        self.decision.mode == self.truth.mode
    }
}

/// One client's classification state: the classifier plus its ToF
/// sampling pipeline, bundled so callers that serve many clients (the
/// `mobisense-serve` shard workers) can hold one session per client and
/// recycle it with [`PipelineSession::reset`] instead of reallocating.
///
/// [`run_classification_with`] is a thin loop over this type, so the
/// single-scenario harness and the serving layer share one entry point.
#[derive(Clone, Debug)]
pub struct PipelineSession {
    cfg: PipelineConfig,
    classifier: MobilityClassifier,
    tof: TofSampler,
}

impl PipelineSession {
    /// Creates a fresh session. `seed` drives the ToF measurement noise
    /// stream (the same derivation [`run_classification`] uses, so a
    /// session-driven run reproduces the harness bit-for-bit).
    pub fn new(cfg: PipelineConfig, seed: u64) -> Self {
        let classifier = MobilityClassifier::new(cfg.classifier.clone());
        let tof = TofSampler::new(cfg.tof.clone(), 0, Self::tof_rng(seed));
        PipelineSession {
            cfg,
            classifier,
            tof,
        }
    }

    fn tof_rng(seed: u64) -> DetRng {
        DetRng::seed_from_u64(seed ^ 0x746f_665f)
    }

    /// The session's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The underlying classifier (e.g. for its latest classification).
    pub fn classifier(&self) -> &MobilityClassifier {
        &self.classifier
    }

    /// Returns the session to its just-constructed state under a new
    /// seed, reusing the existing allocations. A reset session produces
    /// exactly the same decisions as `PipelineSession::new(cfg, seed)`.
    pub fn reset(&mut self, seed: u64) {
        self.classifier.reset();
        self.tof.reset(0, Self::tof_rng(seed));
    }

    /// Feeds one observation instant: polls the ToF pipeline at the
    /// client's current distance, forwards any completed median to the
    /// classifier, then offers the frame's CSI. Returns the completed
    /// classification when a sampling period closed.
    pub fn observe(&mut self, at: Nanos, csi: &Csi, distance_m: f64) -> Option<Classification> {
        self.observe_with(at, csi, distance_m, &mut NoopSink)
    }

    /// [`PipelineSession::observe`] with telemetry.
    pub fn observe_with<S: Sink + ?Sized>(
        &mut self,
        at: Nanos,
        csi: &Csi,
        distance_m: f64,
        sink: &mut S,
    ) -> Option<Classification> {
        self.poll_tof(at, distance_m, sink);
        self.classifier.on_frame_csi_with(at, csi, sink)
    }

    /// [`PipelineSession::observe_with`] for callers holding only the
    /// CSI magnitude digest (the serving layer's wire frames).
    pub fn observe_profile_with<S: Sink + ?Sized>(
        &mut self,
        at: Nanos,
        profile: Vec<f64>,
        distance_m: f64,
        sink: &mut S,
    ) -> Option<Classification> {
        self.poll_tof(at, distance_m, sink);
        self.classifier.on_frame_profile_with(at, profile, sink)
    }

    /// Exports the session's complete dynamic state (classifier +
    /// ToF sampler, configs excluded — those travel separately) for
    /// hibernation or shard migration. The invariant the serving layer's
    /// golden-replay tests pin: `PipelineSession::restore(cfg,
    /// s.snapshot())` continues the decision stream bit-identically to
    /// `s` itself — hibernate→restore ≡ never-hibernated.
    pub fn snapshot(&self) -> SessionState {
        let mut state = SessionState::default();
        self.snapshot_into(&mut state);
        state
    }

    /// [`snapshot`](Self::snapshot) into a reused state: every field is
    /// overwritten, and the state's vectors keep their allocations, so a
    /// worker that pages sessions out repeatedly copies without
    /// allocating.
    pub fn snapshot_into(&self, out: &mut SessionState) {
        self.classifier.snapshot_into(&mut out.classifier);
        self.tof.snapshot_into(&mut out.tof);
    }

    /// Reconstructs a session from [`snapshot`](Self::snapshot) output
    /// under the given configuration.
    pub fn restore(cfg: PipelineConfig, state: SessionState) -> Self {
        let mut session = PipelineSession::new(cfg, 0);
        session.restore_from(&state);
        session
    }

    /// [`restore`](Self::restore) into this session, keeping its
    /// configuration and reusing its buffers. The session may have
    /// served any other client before: afterwards it continues exactly
    /// as `PipelineSession::restore(cfg, state.clone())` would.
    pub fn restore_from(&mut self, state: &SessionState) {
        self.classifier.restore_from(&state.classifier);
        self.tof.restore_from(&state.tof);
    }

    /// Approximate resident heap bytes of the session's buffers, for the
    /// serving layer's hot-working-set gauges and the hibernation bench.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.classifier.approx_bytes() + self.tof.approx_bytes()
    }

    fn poll_tof<S: Sink + ?Sized>(&mut self, at: Nanos, distance_m: f64, sink: &mut S) {
        if let Some(m) = self.tof.poll(at, distance_m) {
            if sink.enabled() {
                sink.record(Event::TofMedian {
                    at,
                    cycles: m.cycles,
                });
            }
            self.classifier.on_tof_median(m.cycles);
        }
    }
}

/// Serializable dynamic state of a [`PipelineSession`], produced by
/// [`PipelineSession::snapshot`]. Plain data — the `mobisense-session`
/// crate owns the versioned byte-level encoding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionState {
    /// Classifier state (similarity window, trend window, Figure-5
    /// machine registers, decision counter).
    pub classifier: ClassifierState,
    /// ToF sampler state (noise-stream position, schedule anchors,
    /// in-flight batch, bounded history).
    pub tof: TofSamplerState,
}

/// Runs the full pipeline over `duration` and returns every
/// post-warm-up decision.
pub fn run_classification(
    scenario: &mut Scenario,
    cfg: &PipelineConfig,
    duration: Nanos,
    seed: u64,
) -> Vec<DecisionRecord> {
    run_classification_with(scenario, cfg, duration, seed, &mut NoopSink)
}

/// [`run_classification`] with telemetry: every ToF median becomes an
/// [`Event::TofMedian`], every decision an [`Event::Decision`], and the
/// whole run is wall-clock timed under the `core.run_classification`
/// span.
pub fn run_classification_with<S: Sink + ?Sized>(
    scenario: &mut Scenario,
    cfg: &PipelineConfig,
    duration: Nanos,
    seed: u64,
    sink: &mut S,
) -> Vec<DecisionRecord> {
    timed(&mut *sink, "core.run_classification", |sink| {
        let mut session = PipelineSession::new(cfg.clone(), seed);
        let mut records = Vec::new();
        let mut t: Nanos = 0;
        while t <= duration {
            let obs = scenario.observe(t);
            if let Some(decision) = session.observe_with(t, &obs.csi, obs.distance_m, sink) {
                if t >= cfg.warmup {
                    records.push(DecisionRecord {
                        at: t,
                        decision,
                        truth: obs.truth,
                    });
                }
            }
            t += cfg.step;
        }
        records
    })
}

/// A confusion matrix over the four modes: `counts[truth][decision]`.
#[derive(Clone, Debug, Default)]
pub struct Confusion {
    counts: [[u64; 4]; 4],
}

impl Confusion {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(m: MobilityMode) -> usize {
        match m {
            MobilityMode::Static => 0,
            MobilityMode::Environmental => 1,
            MobilityMode::Micro => 2,
            MobilityMode::Macro => 3,
        }
    }

    /// Adds one decision record.
    pub fn add(&mut self, r: &DecisionRecord) {
        self.counts[Self::idx(r.truth.mode)][Self::idx(r.decision.mode)] += 1;
    }

    /// Adds a whole record set.
    pub fn add_all(&mut self, rs: &[DecisionRecord]) {
        for r in rs {
            self.add(r);
        }
    }

    /// Row of detection percentages for one ground-truth mode, in the
    /// order static / environmental / micro / macro (the layout of the
    /// paper's Table 1). Returns `None` for an unseen mode.
    pub fn row_percent(&self, truth: MobilityMode) -> Option<[f64; 4]> {
        let row = &self.counts[Self::idx(truth)];
        let total: u64 = row.iter().sum();
        if total == 0 {
            return None;
        }
        let mut out = [0.0; 4];
        for (o, &c) in out.iter_mut().zip(row) {
            *o = 100.0 * c as f64 / total as f64;
        }
        Some(out)
    }

    /// Diagonal accuracy for one ground-truth mode.
    pub fn accuracy(&self, truth: MobilityMode) -> Option<f64> {
        self.row_percent(truth).map(|r| r[Self::idx(truth)] / 100.0)
    }

    /// Raw counts, `counts[truth][decision]`.
    pub fn counts(&self) -> &[[u64; 4]; 4] {
        &self.counts
    }

    /// Total number of recorded decisions.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Fraction of all decisions on the diagonal (mode-level accuracy
    /// across every ground-truth mode). Returns `None` when empty.
    pub fn overall_accuracy(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let diag: u64 = (0..4).map(|i| self.counts[i][i]).sum();
        Some(diag as f64 / total as f64)
    }
}

/// The four modes in matrix order (the paper's Table 1 layout).
const MODE_ORDER: [MobilityMode; 4] = [
    MobilityMode::Static,
    MobilityMode::Environmental,
    MobilityMode::Micro,
    MobilityMode::Macro,
];

impl std::fmt::Display for Confusion {
    /// Renders the paper's Table-1-style percentage grid: one row per
    /// ground-truth mode, one column per decided mode; unseen truth
    /// rows show dashes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:>14}", "truth\\decided")?;
        for m in MODE_ORDER {
            write!(f, " {:>13}", m.label())?;
        }
        writeln!(f)?;
        for truth in MODE_ORDER {
            write!(f, "{:>14}", truth.label())?;
            match self.row_percent(truth) {
                Some(row) => {
                    for pct in row {
                        write!(f, " {pct:>12.1}%")?;
                    }
                }
                None => {
                    for _ in MODE_ORDER {
                        write!(f, " {:>13}", "-")?;
                    }
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;
    use mobisense_mobility::movers::EnvIntensity;
    use mobisense_mobility::Direction;

    fn accuracy_over_seeds(kind: ScenarioKind, seeds: std::ops::Range<u64>) -> f64 {
        let cfg = PipelineConfig::default();
        let mut conf = Confusion::new();
        let truth_mode = kind.true_mode();
        for seed in seeds {
            let mut sc = Scenario::new(kind, seed);
            let recs = run_classification(&mut sc, &cfg, 40 * SECOND, seed);
            assert!(!recs.is_empty());
            conf.add_all(&recs);
        }
        conf.accuracy(truth_mode).unwrap()
    }

    #[test]
    fn static_accuracy_high() {
        let acc = accuracy_over_seeds(ScenarioKind::Static, 0..6);
        assert!(acc > 0.9, "static accuracy {acc}");
    }

    #[test]
    fn environmental_accuracy_reasonable() {
        let acc = accuracy_over_seeds(ScenarioKind::Environmental(EnvIntensity::Strong), 10..16);
        assert!(acc > 0.7, "environmental accuracy {acc}");
    }

    #[test]
    fn micro_accuracy_reasonable() {
        let acc = accuracy_over_seeds(ScenarioKind::Micro, 20..26);
        assert!(acc > 0.75, "micro accuracy {acc}");
    }

    #[test]
    fn macro_radial_accuracy_high() {
        let cfg = PipelineConfig::default();
        let mut total = 0usize;
        let mut macro_ok = 0usize;
        let mut dir_ok = 0usize;
        for seed in 30..38u64 {
            let mut sc = Scenario::new(ScenarioKind::MacroAway, seed);
            // Walks last ~11 s (13.5 m at 1.2 m/s); classify while moving.
            let recs = run_classification(&mut sc, &cfg, 13 * SECOND, seed);
            // Only judge instants where the user is actually walking
            // (a finished walk has static ground truth).
            for r in recs.iter().filter(|r| r.truth.mode == MobilityMode::Macro) {
                total += 1;
                if r.mode_correct() {
                    macro_ok += 1;
                    if r.decision.direction == Some(Direction::Away) {
                        dir_ok += 1;
                    }
                }
            }
        }
        let acc = macro_ok as f64 / total as f64;
        assert!(acc > 0.6, "macro accuracy {acc} ({macro_ok}/{total})");
        // Direction, when macro was detected, must be right nearly always.
        let dir_acc = dir_ok as f64 / macro_ok.max(1) as f64;
        assert!(dir_acc > 0.9, "direction accuracy {dir_acc}");
    }

    #[test]
    fn orbit_misclassifies_as_micro() {
        // The paper's admitted limitation (section 9): an orbit around
        // the AP shows device mobility without a ToF trend and is called
        // micro-mobility.
        let cfg = PipelineConfig::default();
        let mut micro = 0usize;
        let mut total = 0usize;
        for seed in 40..43u64 {
            let mut sc = Scenario::new(ScenarioKind::Orbit, seed);
            let recs = run_classification(&mut sc, &cfg, 30 * SECOND, seed);
            total += recs.len();
            micro += recs
                .iter()
                .filter(|r| r.decision.mode == MobilityMode::Micro)
                .count();
        }
        assert!(
            micro as f64 / total as f64 > 0.7,
            "orbit should look like micro: {micro}/{total}"
        );
    }

    #[test]
    fn confusion_matrix_bookkeeping() {
        let mut c = Confusion::new();
        let r = DecisionRecord {
            at: 0,
            decision: Classification::of(MobilityMode::Micro),
            truth: GroundTruth::of(MobilityMode::Macro),
        };
        c.add(&r);
        assert_eq!(c.counts()[3][2], 1);
        assert_eq!(c.accuracy(MobilityMode::Macro), Some(0.0));
        assert_eq!(c.row_percent(MobilityMode::Static), None);
    }

    fn record(truth: MobilityMode, decision: MobilityMode) -> DecisionRecord {
        DecisionRecord {
            at: 0,
            decision: Classification::of(decision),
            truth: GroundTruth::of(truth),
        }
    }

    #[test]
    fn overall_accuracy_counts_all_diagonal_mass() {
        let mut c = Confusion::new();
        assert_eq!(c.overall_accuracy(), None);
        c.add(&record(MobilityMode::Static, MobilityMode::Static));
        c.add(&record(MobilityMode::Micro, MobilityMode::Micro));
        c.add(&record(MobilityMode::Macro, MobilityMode::Micro));
        c.add(&record(MobilityMode::Macro, MobilityMode::Macro));
        assert_eq!(c.total(), 4);
        assert_eq!(c.overall_accuracy(), Some(0.75));
    }

    #[test]
    fn confusion_display_renders_table_one_grid() {
        let mut c = Confusion::new();
        c.add(&record(MobilityMode::Static, MobilityMode::Static));
        c.add(&record(MobilityMode::Static, MobilityMode::Micro));
        let text = c.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "header + four truth rows:\n{text}");
        assert!(lines[0].contains("static") && lines[0].contains("macro"));
        assert!(
            lines[1].contains("50.0%"),
            "static row shows percentages:\n{text}"
        );
        // Unseen truth modes render as dashes, not percentages.
        assert!(lines[4].contains('-') && !lines[4].contains('%'));
    }

    #[test]
    fn instrumented_run_emits_decisions_and_tof_medians() {
        use mobisense_telemetry::Telemetry;
        let cfg = PipelineConfig::default();
        let mut sc = Scenario::new(ScenarioKind::MacroAway, 77);
        let mut tel = Telemetry::new();
        let recs = run_classification_with(&mut sc, &cfg, 13 * SECOND, 77, &mut tel);
        assert!(!recs.is_empty());
        let decisions: Vec<_> = tel
            .events()
            .filter(|e| matches!(e, mobisense_telemetry::Event::Decision { .. }))
            .collect();
        // One Decision event per classifier decision, including warm-up
        // ones that the record set filters out.
        assert!(decisions.len() >= recs.len());
        // A walking-away scenario must take ToF medians.
        assert!(tel
            .events()
            .any(|e| matches!(e, mobisense_telemetry::Event::TofMedian { .. })));
        // The run itself was span-timed.
        let (count, mean_ns) = tel
            .registry
            .histogram_snapshot("core.run_classification")
            .expect("span recorded");
        assert_eq!(count, 1);
        assert!(mean_ns > 0.0);
        // Event timestamps are monotone non-decreasing (single sim clock).
        let ats: Vec<u64> = tel.events().map(|e| e.at()).collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Drives a session over a scenario, mirroring the harness loop.
    fn drive_session(
        session: &mut PipelineSession,
        kind: ScenarioKind,
        scenario_seed: u64,
        duration: Nanos,
    ) -> Vec<(Nanos, Classification)> {
        let mut sc = Scenario::new(kind, scenario_seed);
        let step = session.config().step;
        let mut out = Vec::new();
        let mut t: Nanos = 0;
        while t <= duration {
            let obs = sc.observe(t);
            if let Some(c) = session.observe(t, &obs.csi, obs.distance_m) {
                out.push((t, c));
            }
            t += step;
        }
        out
    }

    #[test]
    fn reset_session_matches_fresh_session() {
        let cfg = PipelineConfig::default();
        // Dirty a session with one scenario...
        let mut recycled = PipelineSession::new(cfg.clone(), 3);
        drive_session(&mut recycled, ScenarioKind::MacroAway, 3, 12 * SECOND);
        assert!(recycled.classifier().current().is_some());
        // ...then reset it onto a different client/seed and compare
        // against a brand-new session, decision by decision.
        recycled.reset(9);
        let mut fresh = PipelineSession::new(cfg, 9);
        let a = drive_session(&mut recycled, ScenarioKind::Micro, 9, 15 * SECOND);
        let b = drive_session(&mut fresh, ScenarioKind::Micro, 9, 15 * SECOND);
        assert!(!a.is_empty());
        assert_eq!(a, b, "recycled session must match a fresh one");
    }

    /// Continues a session mid-scenario from time `from` to `to`.
    fn continue_session(
        session: &mut PipelineSession,
        sc: &mut Scenario,
        from: Nanos,
        to: Nanos,
    ) -> Vec<(Nanos, Classification)> {
        let step = session.config().step;
        let mut out = Vec::new();
        let mut t = from;
        while t <= to {
            let obs = sc.observe(t);
            if let Some(c) = session.observe(t, &obs.csi, obs.distance_m) {
                out.push((t, c));
            }
            t += step;
        }
        out
    }

    #[test]
    fn snapshot_restore_matches_uninterrupted_session() {
        // The hibernation invariant at the core layer: snapshot a session
        // mid-stream (at an awkward instant, between ToF medians and
        // mid-similarity-period), restore it into a brand-new session,
        // and both must continue with bit-identical decisions.
        for kind in [
            ScenarioKind::Static,
            ScenarioKind::Micro,
            ScenarioKind::MacroAway,
        ] {
            let cfg = PipelineConfig::default();
            let mut original = PipelineSession::new(cfg.clone(), 17);
            let mut sc_a = Scenario::new(kind, 17);
            let mut sc_b = Scenario::new(kind, 17);
            // 9.13 s: not a multiple of any pipeline period.
            let cut = 9 * SECOND + 130 * MILLISECOND;
            let head = continue_session(&mut original, &mut sc_a, 0, cut);
            {
                // Advance the twin scenario identically.
                let mut twin = PipelineSession::new(cfg.clone(), 17);
                let twin_head = continue_session(&mut twin, &mut sc_b, 0, cut);
                assert_eq!(head, twin_head);
            }
            let state = original.snapshot();
            let mut restored = PipelineSession::restore(cfg, state.clone());
            // The snapshot is lossless: re-snapshotting reproduces it.
            assert_eq!(restored.snapshot(), state);
            let next = cut + original.config().step;
            let tail_a = continue_session(&mut original, &mut sc_a, next, 25 * SECOND);
            let tail_b = continue_session(&mut restored, &mut sc_b, next, 25 * SECOND);
            assert!(!tail_a.is_empty());
            assert_eq!(tail_a, tail_b, "{kind:?}: restored session diverged");
        }
    }

    #[test]
    fn snapshot_into_a_dirty_state_equals_snapshot() {
        // Three sessions with very different state: a walk (full trend
        // window, ToF history, last trend), a short static run and a
        // fresh one. Snapshotting each into a state taken from each of
        // the others must leave no stale field behind.
        let cfg = PipelineConfig::default();
        let mut walk = PipelineSession::new(cfg.clone(), 41);
        drive_session(&mut walk, ScenarioKind::MacroAway, 41, 11 * SECOND);
        let mut still = PipelineSession::new(cfg.clone(), 42);
        drive_session(&mut still, ScenarioKind::Static, 42, 3 * SECOND);
        let fresh = PipelineSession::new(cfg, 43);
        let sessions = [&walk, &still, &fresh];
        for src in sessions {
            for dirty in sessions {
                let mut state = dirty.snapshot();
                src.snapshot_into(&mut state);
                assert_eq!(state, src.snapshot());
            }
        }
    }

    #[test]
    fn snapshot_of_fresh_session_restores_fresh() {
        let cfg = PipelineConfig::default();
        let fresh = PipelineSession::new(cfg.clone(), 23);
        let mut restored = PipelineSession::restore(cfg.clone(), fresh.snapshot());
        let mut reference = PipelineSession::new(cfg, 23);
        let a = drive_session(&mut restored, ScenarioKind::MacroAway, 23, 12 * SECOND);
        let b = drive_session(&mut reference, ScenarioKind::MacroAway, 23, 12 * SECOND);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn approx_bytes_is_positive_and_grows_with_activity() {
        let cfg = PipelineConfig::default();
        let mut s = PipelineSession::new(cfg, 31);
        let idle = s.approx_bytes();
        assert!(idle > 0);
        drive_session(&mut s, ScenarioKind::MacroAway, 31, 10 * SECOND);
        assert!(s.approx_bytes() > idle, "active session holds buffers");
    }

    #[test]
    fn session_run_matches_harness_run() {
        let cfg = PipelineConfig::default();
        let mut sc = Scenario::new(ScenarioKind::MacroAway, 21);
        let records = run_classification(&mut sc, &cfg, 12 * SECOND, 21);
        let mut session = PipelineSession::new(cfg.clone(), 21);
        let by_session: Vec<(Nanos, Classification)> =
            drive_session(&mut session, ScenarioKind::MacroAway, 21, 12 * SECOND)
                .into_iter()
                .filter(|&(t, _)| t >= cfg.warmup)
                .collect();
        assert_eq!(records.len(), by_session.len());
        for (r, (t, c)) in records.iter().zip(&by_session) {
            assert_eq!(r.at, *t);
            assert_eq!(r.decision, *c);
        }
    }

    #[test]
    fn profile_entry_matches_csi_entry() {
        let cfg = PipelineConfig::default();
        let mut a = PipelineSession::new(cfg.clone(), 5);
        let mut b = PipelineSession::new(cfg, 5);
        let mut sc1 = Scenario::new(ScenarioKind::Micro, 5);
        let mut sc2 = Scenario::new(ScenarioKind::Micro, 5);
        let mut t: Nanos = 0;
        while t <= 10 * SECOND {
            let o1 = sc1.observe(t);
            let o2 = sc2.observe(t);
            let via_csi = a.observe(t, &o1.csi, o1.distance_m);
            let via_profile = b.observe_profile_with(
                t,
                o2.csi.magnitude_profile(),
                o2.distance_m,
                &mut mobisense_telemetry::NoopSink,
            );
            assert_eq!(via_csi, via_profile);
            t += a.config().step;
        }
    }

    #[test]
    fn noop_sink_leaves_results_identical() {
        let cfg = PipelineConfig::default();
        let mut a = Scenario::new(ScenarioKind::Micro, 5);
        let mut b = Scenario::new(ScenarioKind::Micro, 5);
        let plain = run_classification(&mut a, &cfg, 20 * SECOND, 5);
        let mut tel = mobisense_telemetry::Telemetry::new();
        let instrumented = run_classification_with(&mut b, &cfg, 20 * SECOND, 5, &mut tel);
        assert_eq!(plain.len(), instrumented.len());
        for (p, i) in plain.iter().zip(&instrumented) {
            assert_eq!(p.at, i.at);
            assert_eq!(p.decision, i.decision);
        }
    }
}
