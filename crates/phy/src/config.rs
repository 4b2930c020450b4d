//! Radio and channel-model configuration.

use mobisense_util::units::SPEED_OF_LIGHT;

/// Static configuration of the simulated radio link and channel model.
///
/// Defaults reproduce the paper's testbed: HP MSM 460 AP (Atheros AR9390,
/// 3 transmit antennas) talking to a Samsung Galaxy S5 (2 antennas) on a
/// 40 MHz channel at 5.825 GHz under 802.11n.
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// Carrier frequency in Hz.
    pub carrier_hz: f64,
    /// Channel bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// Number of CSI subcarrier bins the chipset exports.
    ///
    /// The AR9390 reports 52 grouped bins for a 40 MHz HT channel (the
    /// paper's section 2.3 describes the exported matrix).
    pub n_subcarriers: usize,
    /// Transmit antennas at the AP.
    pub n_tx: usize,
    /// Receive antennas at the client.
    pub n_rx: usize,
    /// Antenna element spacing in wavelengths (0.5 = half-wavelength ULA).
    pub element_spacing_wl: f64,
    /// Path-loss exponent for *power* (indoor office ~= 3.0).
    pub path_loss_exp: f64,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// CSI estimation quality cap, as an SNR in dB: even at very high link
    /// SNR, channel estimates carry at least this much relative noise.
    pub csi_est_snr_cap_db: f64,
    /// RSSI reporting noise (dB std-dev) on top of true received power.
    pub rssi_noise_db: f64,
    /// Magnitude of the reflection coefficient for environment reflectors.
    pub reflection_gain: f64,
    /// Extra attenuation (dB) applied to the line-of-sight path only —
    /// models a wall or cabinet blocking the direct path (NLOS link).
    /// Reflected paths arrive around the obstruction and are untouched.
    pub los_attenuation_db: f64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            carrier_hz: 5.825e9,
            bandwidth_hz: 40e6,
            n_subcarriers: 52,
            n_tx: 3,
            n_rx: 2,
            element_spacing_wl: 0.5,
            path_loss_exp: 3.0,
            tx_power_dbm: 18.0,
            noise_figure_db: 6.0,
            csi_est_snr_cap_db: 32.0,
            rssi_noise_db: 0.6,
            reflection_gain: 0.7,
            los_attenuation_db: 0.0,
        }
    }
}

impl ChannelConfig {
    /// Carrier wavelength in metres (~5.15 cm at 5.825 GHz).
    pub fn wavelength(&self) -> f64 {
        SPEED_OF_LIGHT / self.carrier_hz
    }

    /// Antenna element spacing in metres.
    pub fn element_spacing_m(&self) -> f64 {
        self.element_spacing_wl * self.wavelength()
    }

    /// Absolute frequency of subcarrier bin `i` in Hz.
    ///
    /// Bins are spread uniformly across the occupied bandwidth, centred on
    /// the carrier, so bin `i` sits at `subcarrier_hz(0) + i *`
    /// [`subcarrier_spacing_hz`](Self::subcarrier_spacing_hz).
    pub fn subcarrier_hz(&self, i: usize) -> f64 {
        debug_assert!(i < self.n_subcarriers);
        let offset = (i as f64 + 0.5) / self.n_subcarriers as f64 - 0.5;
        self.carrier_hz + offset * self.bandwidth_hz
    }

    /// Spacing between adjacent subcarrier bins in Hz.
    pub fn subcarrier_spacing_hz(&self) -> f64 {
        self.bandwidth_hz / self.n_subcarriers as f64
    }

    /// Thermal noise floor (dBm) for this bandwidth and noise figure.
    pub fn noise_floor_dbm(&self) -> f64 {
        mobisense_util::units::noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed() {
        let c = ChannelConfig::default();
        assert_eq!(c.n_subcarriers, 52);
        assert_eq!(c.n_tx, 3);
        assert_eq!(c.n_rx, 2);
        assert!((c.wavelength() - 0.05147).abs() < 1e-4);
    }

    #[test]
    fn subcarriers_span_bandwidth() {
        let c = ChannelConfig::default();
        let lo = c.subcarrier_hz(0);
        let hi = c.subcarrier_hz(c.n_subcarriers - 1);
        assert!(lo > c.carrier_hz - c.bandwidth_hz / 2.0);
        assert!(hi < c.carrier_hz + c.bandwidth_hz / 2.0);
        assert!(hi - lo > 0.9 * c.bandwidth_hz);
        // Symmetric around the carrier.
        assert!(((lo + hi) / 2.0 - c.carrier_hz).abs() < 1.0);
    }

    #[test]
    fn subcarriers_are_evenly_spaced() {
        // `RayChannel::csi_at` advances every path's phasor from bin to
        // bin by one fixed rotation, which is exact only for evenly
        // spaced bins. Bound: 1 mHz, about a thousand ulps at 5.8 GHz.
        let narrow = ChannelConfig {
            bandwidth_hz: 20e6,
            n_subcarriers: 56,
            ..ChannelConfig::default()
        };
        for c in [ChannelConfig::default(), narrow] {
            let (f0, df) = (c.subcarrier_hz(0), c.subcarrier_spacing_hz());
            for i in 0..c.n_subcarriers {
                let err = c.subcarrier_hz(i) - (f0 + i as f64 * df);
                assert!(err.abs() < 1e-3, "bin {i} of {}: {err} Hz", c.n_subcarriers);
            }
        }
    }

    #[test]
    fn noise_floor_reasonable() {
        let c = ChannelConfig::default();
        let nf = c.noise_floor_dbm();
        assert!(nf < -90.0 && nf > -94.0, "nf={nf}");
    }
}
