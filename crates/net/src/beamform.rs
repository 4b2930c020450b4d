//! MIMO beamforming with explicit, possibly stale, CSI feedback
//! (paper section 6).
//!
//! Single-user transmit beamforming precodes each subcarrier with the
//! maximum-ratio (matched-filter) weights computed from the most recent
//! CSI feedback. The combining gain over the non-beamformed baseline is
//! `|h^H w|^2 / (|h|^2 / Nt)` — up to `Nt` (4.8 dB for three antennas)
//! with fresh CSI, decaying towards unity as the channel drifts away from
//! the fed-back snapshot. Because the geometric channel has a strong
//! line-of-sight component, part of the gain survives much longer than
//! the scattering coherence time — which is exactly why different
//! mobility modes want different feedback periods (paper Figure 11a).
//!
//! MU-MIMO (zero-forcing) lives in [`crate::beamform::mumimo`].

pub mod mumimo;

use mobisense_core::scenario::Scenario;
use mobisense_phy::airtime;
use mobisense_phy::csi::Csi;
use mobisense_phy::per::{self, coherence_time_secs, REF_MPDU_BITS};
use mobisense_telemetry::{Event, NoopSink, Sink};
use mobisense_util::linalg;
use mobisense_util::units::{Nanos, MICROSECOND};
use mobisense_util::{DetRng, C64};

/// Airtime of one explicit CSI feedback exchange: NDP announcement +
/// sounding NDP + compressed feedback report at a basic rate. A 3x2,
/// 52-bin report with 8-bit quantisation is ~600 B at 24 Mbps, plus
/// preambles and SIFS gaps.
pub const CSI_FEEDBACK_AIRTIME: Nanos = 400 * MICROSECOND;

/// Per-subcarrier maximum-ratio transmit beamformer.
#[derive(Clone, Debug, Default)]
pub struct SuBeamformer {
    /// One unit-norm weight vector (over transmit antennas) per
    /// subcarrier, from the last feedback.
    weights: Option<Vec<Vec<C64>>>,
}

impl SuBeamformer {
    /// Creates a beamformer with no feedback yet (no gain).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a CSI feedback snapshot (uses receive chain 0, as the
    /// paper's single-stream beamforming does) and recomputes MRT
    /// weights.
    pub fn update_from_csi(&mut self, csi: &Csi) {
        let n_sc = csi.n_subcarriers();
        let mut w = Vec::with_capacity(n_sc);
        for sc in 0..n_sc {
            let h = csi.tx_vector(0, sc);
            let conj: Vec<C64> = h.iter().map(|z| z.conj()).collect();
            w.push(linalg::normalize(&conj));
        }
        self.weights = Some(w);
    }

    /// Forgets the feedback (e.g. after a roam to a different AP).
    pub fn reset(&mut self) {
        self.weights = None;
    }

    /// Combining gain in dB of beamforming with the stored weights over
    /// the *current* channel, relative to the non-beamformed baseline
    /// (power split across antennas). Returns 0 dB when no feedback has
    /// arrived yet.
    pub fn gain_db(&self, current_csi: &Csi) -> f64 {
        let Some(weights) = &self.weights else {
            return 0.0;
        };
        let n_tx = current_csi.n_tx() as f64;
        let n_sc = current_csi.n_subcarriers().min(weights.len());
        let mut num = 0.0;
        let mut den = 0.0;
        for (sc, w) in weights.iter().enumerate().take(n_sc) {
            let h = current_csi.tx_vector(0, sc);
            let combined = linalg::dot(&h, w);
            num += combined.norm_sq();
            den += h.iter().map(|z| z.norm_sq()).sum::<f64>() / n_tx;
        }
        if den <= 0.0 {
            return 0.0;
        }
        10.0 * (num / den).log10()
    }
}

/// Result of one SU-beamforming run.
#[derive(Clone, Copy, Debug)]
pub struct BfRunStats {
    /// Goodput including feedback overhead (Mbps).
    pub mbps: f64,
    /// Mean beamforming gain over the run (dB).
    pub mean_gain_db: f64,
    /// Number of CSI feedbacks performed.
    pub feedbacks: u64,
}

/// Runs SU transmit beamforming over a scenario with a fixed CSI
/// feedback period, returning goodput with the feedback airtime charged.
///
/// The transmitter uses threshold rate selection on the beamformed
/// effective SNR and a stock 4 ms aggregation window — identical across
/// feedback periods, so throughput differences isolate the
/// staleness-vs-overhead trade-off of Figure 11(a).
pub fn run_su_beamforming(
    scenario: &mut Scenario,
    feedback_period: Nanos,
    duration: Nanos,
    seed: u64,
) -> BfRunStats {
    run_su_beamforming_with(scenario, feedback_period, duration, seed, &mut NoopSink)
}

/// [`run_su_beamforming`] with telemetry: every CSI feedback exchange
/// becomes an [`Event::Beamsound`] (single-link runs report AP 0) and
/// the run is wall-clock timed under the `net.su_beamforming` span.
pub fn run_su_beamforming_with<S: Sink + ?Sized>(
    scenario: &mut Scenario,
    feedback_period: Nanos,
    duration: Nanos,
    seed: u64,
    sink: &mut S,
) -> BfRunStats {
    assert!(feedback_period > 0);
    mobisense_telemetry::timed(sink, "net.su_beamforming", |sink| {
        run_su_beamforming_inner(scenario, feedback_period, duration, seed, sink)
    })
}

fn run_su_beamforming_inner<S: Sink + ?Sized>(
    scenario: &mut Scenario,
    feedback_period: Nanos,
    duration: Nanos,
    seed: u64,
    sink: &mut S,
) -> BfRunStats {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x62666266);
    let mut bf = SuBeamformer::new();
    let mut now: Nanos = 0;
    let mut next_feedback: Nanos = 0;
    let mut bits = 0u64;
    let mut gain_sum = 0.0;
    let mut frames = 0u64;
    let mut feedbacks = 0u64;

    while now < duration {
        if now >= next_feedback {
            let obs = scenario.observe(now);
            bf.update_from_csi(&obs.csi);
            feedbacks += 1;
            if sink.enabled() {
                sink.record(Event::Beamsound { at: now, ap: 0 });
            }
            next_feedback = now + feedback_period;
            now += CSI_FEEDBACK_AIRTIME;
        }
        let obs = scenario.observe(now);
        let true_csi = scenario.channel().csi_at(obs.pos, obs.heading);
        let gain = bf.gain_db(&true_csi);
        gain_sum += gain;
        frames += 1;
        let esnr = per::csi_effective_snr_db(&obs.csi, obs.snr_db) + gain;
        let mcs = best_rate(esnr);
        let n = airtime::mpdus_for_time_limit(mcs, 1500, 4 * mobisense_util::units::MILLISECOND);
        let state = mobisense_mac::link::LinkState {
            esnr_db: esnr,
            coherence_secs: coherence_time_secs(
                obs.speed_mps,
                scenario.channel().config().wavelength(),
            ),
        };
        let outcome = mobisense_mac::link::simulate_ampdu(&state, mcs, n, 1500, &mut rng);
        bits += outcome.delivered_bits(1500);
        now += outcome.airtime;
    }

    BfRunStats {
        mbps: bits as f64 / (now as f64 / 1e9) / 1e6,
        mean_gain_db: if frames > 0 {
            gain_sum / frames as f64
        } else {
            0.0
        },
        feedbacks,
    }
}

/// Runs SU transmit beamforming with the paper's *mobility-aware* CSI
/// feedback period: the full classifier pipeline (CSI similarity + ToF
/// trend) runs on the link, and the feedback period follows Table 2 for
/// the classified mode. Compare against [`run_su_beamforming`] at the
/// stock 200 ms period to reproduce Figure 11(b).
pub fn run_su_beamforming_adaptive(
    scenario: &mut Scenario,
    duration: Nanos,
    seed: u64,
) -> BfRunStats {
    run_su_beamforming_adaptive_with(scenario, duration, seed, &mut NoopSink)
}

/// [`run_su_beamforming_adaptive`] with telemetry: classifier decisions,
/// ToF medians and soundings are all traced, and the run is wall-clock
/// timed under the `net.su_beamforming_adaptive` span.
pub fn run_su_beamforming_adaptive_with<S: Sink + ?Sized>(
    scenario: &mut Scenario,
    duration: Nanos,
    seed: u64,
    sink: &mut S,
) -> BfRunStats {
    mobisense_telemetry::timed(sink, "net.su_beamforming_adaptive", |sink| {
        run_su_beamforming_adaptive_inner(scenario, duration, seed, sink)
    })
}

fn run_su_beamforming_adaptive_inner<S: Sink + ?Sized>(
    scenario: &mut Scenario,
    duration: Nanos,
    seed: u64,
    sink: &mut S,
) -> BfRunStats {
    use mobisense_core::classifier::{ClassifierConfig, MobilityClassifier};
    use mobisense_core::policy::MobilityPolicy;
    use mobisense_phy::tof::{TofConfig, TofSampler};

    let mut rng = DetRng::seed_from_u64(seed ^ 0x62666266);
    let mut bf = SuBeamformer::new();
    let mut classifier = MobilityClassifier::new(ClassifierConfig::default());
    let mut tof = TofSampler::new(
        TofConfig::default(),
        0,
        DetRng::seed_from_u64(seed ^ 0x746f66),
    );
    let mut now: Nanos = 0;
    let mut next_feedback: Nanos = 0;
    let mut bits = 0u64;
    let mut gain_sum = 0.0;
    let mut frames = 0u64;
    let mut feedbacks = 0u64;

    while now < duration {
        let obs = scenario.observe(now);
        if let Some(m) = tof.poll(now, obs.distance_m) {
            if sink.enabled() {
                sink.record(Event::TofMedian {
                    at: now,
                    cycles: m.cycles,
                });
            }
            classifier.on_tof_median(m.cycles);
        }
        classifier.on_frame_csi_with(now, &obs.csi, sink);
        let period = classifier
            .current()
            .map(|c| MobilityPolicy::for_classification(c).bf_feedback_period)
            .unwrap_or_else(|| MobilityPolicy::oblivious_default().bf_feedback_period);

        if now >= next_feedback {
            bf.update_from_csi(&obs.csi);
            feedbacks += 1;
            if sink.enabled() {
                sink.record(Event::Beamsound { at: now, ap: 0 });
            }
            next_feedback = now + period;
            now += CSI_FEEDBACK_AIRTIME;
        }
        let true_csi = scenario.channel().csi_at(obs.pos, obs.heading);
        let gain = bf.gain_db(&true_csi);
        gain_sum += gain;
        frames += 1;
        let esnr = per::csi_effective_snr_db(&obs.csi, obs.snr_db) + gain;
        let mcs = best_rate(esnr);
        let n = airtime::mpdus_for_time_limit(mcs, 1500, 4 * mobisense_util::units::MILLISECOND);
        let state = mobisense_mac::link::LinkState {
            esnr_db: esnr,
            coherence_secs: coherence_time_secs(
                obs.speed_mps,
                scenario.channel().config().wavelength(),
            ),
        };
        let outcome = mobisense_mac::link::simulate_ampdu(&state, mcs, n, 1500, &mut rng);
        bits += outcome.delivered_bits(1500);
        now += outcome.airtime;
    }

    BfRunStats {
        mbps: bits as f64 / (now as f64 / 1e9) / 1e6,
        mean_gain_db: if frames > 0 {
            gain_sum / frames as f64
        } else {
            0.0
        },
        feedbacks,
    }
}

/// Threshold rate selection: fastest ladder rate with predicted PER
/// under 10% at the given effective SNR.
pub(crate) fn best_rate(esnr_db: f64) -> mobisense_phy::mcs::Mcs {
    let mut best = mobisense_phy::mcs::Mcs(0);
    for m in mobisense_phy::mcs::Mcs::ladder() {
        if per::mpdu_error_prob(esnr_db, m, REF_MPDU_BITS) <= 0.1 {
            best = m;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_core::scenario::ScenarioKind;
    use mobisense_util::units::{MILLISECOND, SECOND};

    #[test]
    fn fresh_feedback_gives_near_full_array_gain() {
        let mut sc = Scenario::new(ScenarioKind::Static, 1);
        let obs = sc.observe(0);
        let mut bf = SuBeamformer::new();
        bf.update_from_csi(&obs.csi);
        let true_csi = sc.channel().csi_at(obs.pos, obs.heading);
        let g = bf.gain_db(&true_csi);
        // 3 antennas: up to 4.77 dB; estimation noise eats a little.
        assert!(g > 3.5 && g < 5.0, "fresh gain {g} dB");
    }

    #[test]
    fn no_feedback_means_no_gain() {
        let mut sc = Scenario::new(ScenarioKind::Static, 2);
        let obs = sc.observe(0);
        let bf = SuBeamformer::new();
        assert_eq!(bf.gain_db(&obs.csi), 0.0);
    }

    #[test]
    fn stale_feedback_loses_gain_under_motion() {
        // Average over several walks: any single geometry can keep a
        // lucky alignment for a while.
        let mut fresh_sum = 0.0;
        let mut stale_sum = 0.0;
        for seed in 0..6u64 {
            let mut sc = Scenario::new(ScenarioKind::MacroRandom, 30 + seed);
            let obs0 = sc.observe(0);
            let mut bf = SuBeamformer::new();
            bf.update_from_csi(&obs0.csi);
            fresh_sum += bf.gain_db(&sc.channel().csi_at(obs0.pos, obs0.heading));
            // Four seconds later the user has walked ~5 m and turned.
            let obs2 = sc.observe(4 * SECOND);
            stale_sum += bf.gain_db(&sc.channel().csi_at(obs2.pos, obs2.heading));
        }
        assert!(
            stale_sum < fresh_sum - 6.0,
            "stale sum {stale_sum} vs fresh sum {fresh_sum} (6 walks)"
        );
    }

    #[test]
    fn static_client_keeps_gain_over_seconds() {
        let mut sc = Scenario::new(ScenarioKind::Static, 4);
        let obs0 = sc.observe(0);
        let mut bf = SuBeamformer::new();
        bf.update_from_csi(&obs0.csi);
        let obs5 = sc.observe(5 * SECOND);
        let g = bf.gain_db(&sc.channel().csi_at(obs5.pos, obs5.heading));
        assert!(g > 3.5, "static stale gain {g} dB");
    }

    #[test]
    fn static_prefers_long_feedback_period() {
        // Short periods only add overhead on a static link.
        let mut s1 = Scenario::new(ScenarioKind::Static, 5);
        let short = run_su_beamforming(&mut s1, 20 * MILLISECOND, 10 * SECOND, 5);
        let mut s2 = Scenario::new(ScenarioKind::Static, 5);
        let long = run_su_beamforming(&mut s2, 500 * MILLISECOND, 10 * SECOND, 5);
        assert!(
            long.mbps >= short.mbps,
            "long {:.1} vs short {:.1}",
            long.mbps,
            short.mbps
        );
        assert!(short.feedbacks > long.feedbacks * 10);
    }

    #[test]
    fn macro_prefers_short_feedback_period() {
        let mut s1 = Scenario::new(ScenarioKind::MacroAway, 6);
        let short = run_su_beamforming(&mut s1, 50 * MILLISECOND, 10 * SECOND, 6);
        let mut s2 = Scenario::new(ScenarioKind::MacroAway, 6);
        let long = run_su_beamforming(&mut s2, 2000 * MILLISECOND, 10 * SECOND, 6);
        assert!(
            short.mean_gain_db > long.mean_gain_db,
            "short gain {:.2} vs long gain {:.2}",
            short.mean_gain_db,
            long.mean_gain_db
        );
    }

    #[test]
    fn instrumented_beamforming_counts_soundings() {
        use mobisense_telemetry::Telemetry;
        let mut sc = Scenario::new(ScenarioKind::Static, 7);
        let mut tel = Telemetry::new();
        let stats = run_su_beamforming_with(&mut sc, 100 * MILLISECOND, 2 * SECOND, 7, &mut tel);
        let sounds = tel
            .events()
            .filter(|e| matches!(e, Event::Beamsound { .. }))
            .count() as u64;
        assert_eq!(sounds, stats.feedbacks);
        assert!(tel
            .registry
            .histogram_snapshot("net.su_beamforming")
            .is_some());

        let mut sc2 = Scenario::new(ScenarioKind::MacroAway, 8);
        let mut tel2 = Telemetry::new();
        let a = run_su_beamforming_adaptive_with(&mut sc2, 5 * SECOND, 8, &mut tel2);
        let sounds2 = tel2
            .events()
            .filter(|e| matches!(e, Event::Beamsound { .. }))
            .count() as u64;
        assert_eq!(sounds2, a.feedbacks);
        assert!(tel2.events().any(|e| matches!(e, Event::Decision { .. })));
    }

    #[test]
    fn best_rate_monotone() {
        assert!(best_rate(5.0) < best_rate(25.0));
        assert_eq!(best_rate(45.0), mobisense_phy::mcs::Mcs(15));
    }
}
