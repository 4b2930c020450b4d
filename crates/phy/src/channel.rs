//! Geometric multipath ray channel.
//!
//! The paper's classifier exploits two physical facts:
//!
//! 1. When the *device* moves, **every** propagation path changes length by
//!    a comparable amount (a fraction of a wavelength per millisecond at
//!    walking speed), so the whole frequency response decorrelates quickly.
//! 2. When only the *environment* moves (people walking nearby), **a few**
//!    reflected paths change while the line-of-sight and static reflections
//!    stay put, so the response changes partially and more slowly.
//!
//! Rather than postulating those correlation behaviours, we compute CSI
//! from actual path geometry: a line-of-sight ray plus one ray per
//! reflector, each with a complex gain and a length-dependent phase per
//! subcarrier. Moving the client or the reflectors then *produces* the
//! correct CSI dynamics, ToF changes, and RSSI fluctuations all at once,
//! from one consistent model.
//!
//! A path of length `d` with amplitude `a` and reflection phase `g`
//! contributes `a · e^{j(g + k f d)}` at frequency `f`, with
//! `k = −2π/c`. The subcarrier bins are evenly spaced,
//! `f_i = f_0 + i·Δf` ([`ChannelConfig::subcarrier_spacing_hz`]), so
//! across the bins that contribution is a geometric sequence:
//!
//! ```text
//!   h_0 = a · e^{j(g + k f_0 d)},   h_{i+1} = h_i · e^{j k Δf d}
//! ```
//!
//! [`RayChannel::csi_at`] therefore takes two `sin`/`cos` pairs per path
//! and antenna pair, then one complex multiply per bin, instead of one
//! `sin`/`cos` pair per path, antenna pair and bin. The recurrence rests
//! on the even spacing: bins at uneven frequencies would need a phasor
//! each. It rounds differently from a direct evaluation of every bin:
//! the two agree to about 1e-12 of the summed path amplitudes, even for
//! a client 40 m out, far below the estimation noise.

use crate::config::ChannelConfig;
use crate::csi::Csi;
use mobisense_util::units::SPEED_OF_LIGHT;
use mobisense_util::{DetRng, Vec2, C64};

use std::f64::consts::TAU;

/// One environment reflector (wall segment proxy, furniture, or a person).
///
/// A reflector re-radiates the signal from a point, with a complex gain
/// whose phase is a fixed property of the reflecting material/geometry.
/// People are `mobile` reflectors; walls and furniture are not.
#[derive(Clone, Debug)]
pub struct Reflector {
    /// Current position (metres).
    pub pos: Vec2,
    /// Complex reflection coefficient (magnitude < 1).
    pub gain: C64,
    /// Whether the environment driver may move this reflector.
    pub mobile: bool,
}

/// A sampled multipath channel between one AP and one client position.
///
/// The AP's antenna array is fixed; the client's position and orientation
/// are inputs to [`RayChannel::csi_at`], so one `RayChannel` serves an
/// entire mobility trace.
#[derive(Clone, Debug)]
pub struct RayChannel {
    cfg: ChannelConfig,
    ap_pos: Vec2,
    /// Orientation of the AP's uniform linear array (radians).
    ap_array_angle: f64,
    reflectors: Vec<Reflector>,
}

impl RayChannel {
    /// Creates a channel anchored at an AP position with the given
    /// reflector field.
    pub fn new(cfg: ChannelConfig, ap_pos: Vec2, reflectors: Vec<Reflector>) -> Self {
        RayChannel {
            cfg,
            ap_pos,
            ap_array_angle: 0.0,
            reflectors,
        }
    }

    /// Generates a random indoor reflector field: `n_static` fixed
    /// reflectors (walls/furniture) and `n_mobile` movable ones (people),
    /// uniformly placed in the box `[lo, hi]`.
    pub fn with_random_reflectors(
        cfg: ChannelConfig,
        ap_pos: Vec2,
        lo: Vec2,
        hi: Vec2,
        n_static: usize,
        n_mobile: usize,
        rng: &mut DetRng,
    ) -> Self {
        let reflection_gain = cfg.reflection_gain;
        let mut reflectors = Vec::with_capacity(n_static + n_mobile);
        for i in 0..(n_static + n_mobile) {
            let pos = rng.point_in_box(lo, hi);
            let mobile = i >= n_static;
            // Random per-reflector magnitude (material-dependent) and
            // phase. People (mobile reflectors) reflect notably less
            // than walls and metal furniture at 5 GHz — the body absorbs
            // a good part of the incident energy.
            let mag = reflection_gain * rng.uniform_in(0.5, 1.0) * if mobile { 0.4 } else { 1.0 };
            let phase = rng.uniform_in(0.0, std::f64::consts::TAU);
            reflectors.push(Reflector {
                pos,
                gain: C64::from_polar(mag, phase),
                mobile,
            });
        }
        RayChannel::new(cfg, ap_pos, reflectors)
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// The AP position.
    pub fn ap_pos(&self) -> Vec2 {
        self.ap_pos
    }

    /// Immutable view of the reflector field.
    pub fn reflectors(&self) -> &[Reflector] {
        &self.reflectors
    }

    /// Mutable access to reflector positions, used by the environmental
    /// mobility driver to move "people" between CSI samples.
    pub fn reflectors_mut(&mut self) -> &mut [Reflector] {
        &mut self.reflectors
    }

    /// Positions of the AP's antenna elements (uniform linear array
    /// centred on `ap_pos`).
    fn ap_elements(&self) -> Vec<Vec2> {
        array_elements(
            self.ap_pos,
            self.ap_array_angle,
            self.cfg.n_tx,
            self.cfg.element_spacing_m(),
        )
    }

    /// The *noiseless* CSI for a client at `pos` whose antenna array is
    /// oriented at `heading` radians.
    ///
    /// Each bin sums the line-of-sight path first, then the reflectors
    /// in field order; each path's phasor steps from bin to bin (see the
    /// module docs).
    pub fn csi_at(&self, pos: Vec2, heading: f64) -> Csi {
        let cfg = &self.cfg;
        let tx_el = self.ap_elements();
        let rx_el = array_elements(pos, heading, cfg.n_rx, cfg.element_spacing_m());
        let mut csi = Csi::zeros(cfg.n_tx, cfg.n_rx, cfg.n_subcarriers);
        let amp_ref = cfg.wavelength() / (4.0 * std::f64::consts::PI);
        // Amplitude falls as d^(eta/2) since eta is a power exponent.
        let amp_exp = cfg.path_loss_exp / 2.0;
        let los_scale = mobisense_util::units::db_to_ratio(-cfg.los_attenuation_db / 2.0).min(1.0);
        let (f0, df) = (cfg.subcarrier_hz(0), cfg.subcarrier_spacing_hz());
        let gains: Vec<(f64, f64)> = self
            .reflectors
            .iter()
            .map(|r| (r.gain.abs(), r.gain.arg()))
            .collect();
        // Per path: its phasor at the current bin, and the step to the next.
        let mut paths: Vec<(C64, C64)> = Vec::with_capacity(1 + self.reflectors.len());
        let antenna_pairs = tx_el
            .iter()
            .flat_map(|&te| rx_el.iter().map(move |&re| (te, re)));
        let bins_per_pair = csi.as_mut_slice().chunks_exact_mut(cfg.n_subcarriers);
        for ((te, re), bins) in antenna_pairs.zip(bins_per_pair) {
            paths.clear();
            let d_los = te.dist(re).max(0.1);
            let a_los = los_scale * amp_ref / d_los.powf(amp_exp);
            paths.push(path_phasors(a_los, 0.0, d_los, f0, df));
            for (r, &(mag, g_phase)) in self.reflectors.iter().zip(&gains) {
                let d = (te.dist(r.pos) + r.pos.dist(re)).max(0.1);
                let a = mag * amp_ref / d.powf(amp_exp);
                paths.push(path_phasors(a, g_phase, d, f0, df));
            }
            // Bin-major: the paths' phasor chains are independent, so
            // their multiplies overlap instead of waiting on each other.
            for h in bins {
                for (phasor, step) in &mut paths {
                    *h += *phasor;
                    *phasor *= *step;
                }
            }
        }
        csi
    }

    /// Adds channel-estimation noise to a noiseless CSI snapshot,
    /// producing what the chipset would report. Noise power follows the
    /// link SNR, capped by [`ChannelConfig::csi_est_snr_cap_db`].
    pub fn with_estimation_noise(&self, csi: &Csi, rng: &mut DetRng) -> Csi {
        let mut out = csi.clone();
        let snr_db = self.snr_db(csi);
        let est_snr_db = snr_db.min(self.cfg.csi_est_snr_cap_db);
        let mean_p = out.mean_power_gain();
        if mean_p > 0.0 {
            // Per-component sigma: total noise power = signal / est_snr.
            let noise_p = mean_p / mobisense_util::units::db_to_ratio(est_snr_db);
            let sigma = (noise_p / 2.0).sqrt();
            for h in out.as_mut_slice() {
                *h += rng.complex_gaussian(sigma);
            }
        }
        out
    }

    /// Link SNR in dB implied by a CSI snapshot (true received power over
    /// the thermal noise floor).
    pub fn snr_db(&self, csi: &Csi) -> f64 {
        csi.rx_power_dbm(self.cfg.tx_power_dbm) - self.cfg.noise_floor_dbm()
    }

    /// True line-of-sight distance from the AP to a client position.
    pub fn distance_to(&self, pos: Vec2) -> f64 {
        self.ap_pos.dist(pos)
    }
}

/// A path's phasor at the first bin, `from_polar(a, g + k·f0·d)`, and the
/// unit step `cis(k·df·d)` that carries it one bin of `df` hertz on
/// (`k = −2π/c`, path length `d` in metres).
fn path_phasors(a: f64, g_phase: f64, d: f64, f0: f64, df: f64) -> (C64, C64) {
    let start = C64::from_polar(a, g_phase - TAU * f0 * d / SPEED_OF_LIGHT);
    (start, C64::cis(-TAU * df * d / SPEED_OF_LIGHT))
}

/// Positions of `n` uniform-linear-array elements centred on `center`,
/// with the array axis at `angle` radians.
fn array_elements(center: Vec2, angle: f64, n: usize, spacing: f64) -> Vec<Vec2> {
    let axis = Vec2::from_angle(angle);
    (0..n)
        .map(|k| center + axis * ((k as f64 - (n as f64 - 1.0) / 2.0) * spacing))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csi::csi_similarity;

    fn test_channel(seed: u64) -> RayChannel {
        let cfg = ChannelConfig::default();
        let mut rng = DetRng::seed_from_u64(seed);
        RayChannel::with_random_reflectors(
            cfg,
            Vec2::new(0.0, 0.0),
            Vec2::new(-15.0, -15.0),
            Vec2::new(15.0, 15.0),
            9,
            3,
            &mut rng,
        )
    }

    /// The direct evaluation `csi_at` stands in for: one `from_polar`
    /// per antenna pair, path and bin, summed line-of-sight first, then
    /// the reflectors in field order. Also returns each antenna pair's
    /// sum of path amplitudes, in `[tx][rx]` order.
    fn csi_reference(ch: &RayChannel, pos: Vec2, heading: f64) -> (Csi, Vec<f64>) {
        let cfg = &ch.cfg;
        let rx_el = array_elements(pos, heading, cfg.n_rx, cfg.element_spacing_m());
        let mut csi = Csi::zeros(cfg.n_tx, cfg.n_rx, cfg.n_subcarriers);
        let mut amp_sums = Vec::new();
        let amp_ref = cfg.wavelength() / (4.0 * std::f64::consts::PI);
        let amp_exp = cfg.path_loss_exp / 2.0;
        let los_scale = mobisense_util::units::db_to_ratio(-cfg.los_attenuation_db / 2.0).min(1.0);
        for (tx, &te) in ch.ap_elements().iter().enumerate() {
            for (rx, &re) in rx_el.iter().enumerate() {
                let d_los = te.dist(re).max(0.1);
                let mut paths = vec![(los_scale * amp_ref / d_los.powf(amp_exp), 0.0, d_los)];
                for r in &ch.reflectors {
                    let d = (te.dist(r.pos) + r.pos.dist(re)).max(0.1);
                    let a = r.gain.abs() * amp_ref / d.powf(amp_exp);
                    paths.push((a, r.gain.arg(), d));
                }
                for sc in 0..cfg.n_subcarriers {
                    let f = cfg.subcarrier_hz(sc);
                    let h = paths
                        .iter()
                        .map(|&(a, g, d)| C64::from_polar(a, g - TAU * f * d / SPEED_OF_LIGHT))
                        .sum();
                    csi.set(tx, rx, sc, h);
                }
                amp_sums.push(paths.iter().map(|&(a, _, _)| a).sum());
            }
        }
        (csi, amp_sums)
    }

    #[test]
    fn csi_at_matches_the_per_bin_reference() {
        // Random reflector fields, several headings, and clients out to
        // 40 m, where a path's phase reaches thousands of radians. Bound:
        // 1e-9 of the antenna pair's summed path amplitudes; the two
        // evaluations differ by at most ~1.1e-12 of it here.
        let n_sc = ChannelConfig::default().n_subcarriers;
        for seed in 100..106 {
            let ch = test_channel(seed);
            for (pos, heading) in [
                (Vec2::new(3.0, 1.0), 0.0),
                (Vec2::new(-7.5, 9.0), 1.3),
                (Vec2::new(12.0, -4.0), -2.2),
                (Vec2::new(40.0, 3.0), 0.4),
                (Vec2::new(-28.0, -28.0), 3.0),
            ] {
                let got = ch.csi_at(pos, heading);
                let (want, amp_sums) = csi_reference(&ch, pos, heading);
                let pairs = got
                    .as_slice()
                    .chunks(n_sc)
                    .zip(want.as_slice().chunks(n_sc));
                for ((got, want), amp_sum) in pairs.zip(&amp_sums) {
                    for (sc, (&g, &w)) in got.iter().zip(want).enumerate() {
                        let err = (g - w).abs() / amp_sum;
                        assert!(err < 1e-9, "seed {seed}, {pos:?}, bin {sc}: {err:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn array_elements_centred_and_spaced() {
        let els = array_elements(Vec2::new(1.0, 2.0), 0.0, 3, 0.025);
        assert_eq!(els.len(), 3);
        assert!((els[1] - Vec2::new(1.0, 2.0)).norm() < 1e-12);
        assert!((els[0].dist(els[1]) - 0.025).abs() < 1e-12);
        assert!((els[0].dist(els[2]) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn csi_is_deterministic_function_of_geometry() {
        let ch = test_channel(1);
        let a = ch.csi_at(Vec2::new(5.0, 3.0), 0.7);
        let b = ch.csi_at(Vec2::new(5.0, 3.0), 0.7);
        assert_eq!(a, b);
    }

    #[test]
    fn static_channel_similarity_near_one_with_noise() {
        let ch = test_channel(2);
        let mut rng = DetRng::seed_from_u64(99);
        let pos = Vec2::new(6.0, 2.0);
        let csi = ch.csi_at(pos, 0.0);
        let a = ch.with_estimation_noise(&csi, &mut rng);
        let b = ch.with_estimation_noise(&csi, &mut rng);
        let s = csi_similarity(&a, &b);
        assert!(s > 0.97, "static similarity {s}");
    }

    #[test]
    fn large_displacement_decorrelates_csi() {
        let ch = test_channel(3);
        let a = ch.csi_at(Vec2::new(6.0, 2.0), 0.0);
        // Half a metre is ~10 wavelengths at 5.8 GHz.
        let b = ch.csi_at(Vec2::new(6.5, 2.0), 0.0);
        let s = csi_similarity(&a, &b);
        assert!(s < 0.7, "moved similarity {s}");
    }

    #[test]
    fn tiny_displacement_keeps_similarity_high() {
        let ch = test_channel(4);
        let a = ch.csi_at(Vec2::new(6.0, 2.0), 0.0);
        // 1 mm is ~0.02 wavelengths: channel barely changes.
        let b = ch.csi_at(Vec2::new(6.001, 2.0), 0.0);
        let s = csi_similarity(&a, &b);
        assert!(s > 0.95, "1mm similarity {s}");
    }

    #[test]
    fn moving_one_reflector_changes_channel_partially() {
        let mut ch = test_channel(5);
        let pos = Vec2::new(6.0, 2.0);
        let a = ch.csi_at(pos, 0.0);
        // Move one mobile reflector by ~1 m.
        let idx = ch
            .reflectors()
            .iter()
            .position(|r| r.mobile)
            .expect("has mobile reflector");
        ch.reflectors_mut()[idx].pos += Vec2::new(1.0, 0.4);
        let b = ch.csi_at(pos, 0.0);
        let s = csi_similarity(&a, &b);
        assert!(
            s > 0.3 && s < 0.999,
            "environmental similarity should change partially: {s}"
        );
        // And it must change less than moving the device itself.
        let c = ch.csi_at(pos + Vec2::new(1.0, 0.0), 0.0);
        let s_dev = csi_similarity(&b, &c);
        assert!(s_dev < s, "device motion ({s_dev}) vs env motion ({s})");
    }

    #[test]
    fn rx_power_decays_with_distance() {
        let ch = test_channel(6);
        let near = ch.csi_at(Vec2::new(2.0, 0.0), 0.0);
        let far = ch.csi_at(Vec2::new(20.0, 0.0), 0.0);
        let p_near = near.rx_power_dbm(18.0);
        let p_far = far.rx_power_dbm(18.0);
        assert!(
            p_near > p_far + 15.0,
            "near {p_near} dBm vs far {p_far} dBm"
        );
    }

    #[test]
    fn snr_positive_at_indoor_ranges() {
        let ch = test_channel(7);
        let csi = ch.csi_at(Vec2::new(10.0, 5.0), 0.0);
        let snr = ch.snr_db(&csi);
        assert!(snr > 10.0 && snr < 70.0, "snr={snr}");
    }

    #[test]
    fn frequency_selectivity_present() {
        // Multipath must produce visible ripples across the band, or the
        // similarity metric would be degenerate.
        let ch = test_channel(9);
        let csi = ch.csi_at(Vec2::new(7.0, 4.0), 0.0);
        let prof = csi.magnitude_profile();
        let mean = mobisense_util::stats::mean(&prof).unwrap();
        let sd = mobisense_util::stats::std_dev(&prof).unwrap();
        assert!(sd / mean > 0.05, "coefficient of variation {}", sd / mean);
    }
}
