//! Channel-width and MIMO-mode selection (paper section 9).
//!
//! The paper's discussion suggests two further mobility-aware knobs and
//! reports a *negative* preliminary finding for both:
//!
//! > "Mobility-awareness could also guide the selection of channel width
//! > (a narrow 20 MHz channel may be more robust than the wider 40 MHz
//! > ...) and the type of MIMO mode (spatial diversity may be preferred
//! > over spatial multiplexing when the client is moving away from the
//! > AP). However, our preliminary experiments did not show any
//! > significant gains for these two cases."
//!
//! This module implements both knobs so that the ablation bench can
//! reproduce the negative result: the gains exist only in a narrow SNR
//! band that a walking client crosses too quickly to matter.

use mobisense_phy::mcs::Mcs;
use mobisense_phy::per::{mpdu_error_prob, REF_MPDU_BITS};

/// Operating channel width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelWidth {
    /// 20 MHz: half the rate, +3 dB SNR spectral density, and the PER
    /// cliff sits 3 dB lower.
    Mhz20,
    /// 40 MHz: the paper's default.
    Mhz40,
}

impl ChannelWidth {
    /// Label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            ChannelWidth::Mhz20 => "20MHz",
            ChannelWidth::Mhz40 => "40MHz",
        }
    }

    /// Rate multiplier relative to the 40 MHz MCS table.
    pub fn rate_scale(self) -> f64 {
        match self {
            ChannelWidth::Mhz20 => 0.5,
            ChannelWidth::Mhz40 => 1.0,
        }
    }

    /// Effective SNR bonus from concentrating power in less bandwidth.
    pub fn snr_bonus_db(self) -> f64 {
        match self {
            ChannelWidth::Mhz20 => 3.0,
            ChannelWidth::Mhz40 => 0.0,
        }
    }
}

/// MIMO transmission mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MimoMode {
    /// Space-time coding across the array: single-stream rates with an
    /// SNR diversity bonus.
    Diversity,
    /// Two spatial streams (the 3x2 link's default for MCS 8-15).
    Multiplexing,
}

impl MimoMode {
    /// Label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            MimoMode::Diversity => "diversity",
            MimoMode::Multiplexing => "multiplexing",
        }
    }
}

/// STBC diversity bonus on a 3-antenna array (array gain minus rate-1
/// code losses and channel-estimation overhead).
const DIVERSITY_BONUS_DB: f64 = 2.5;

/// Best expected goodput (bps) at a given width, picking the best MCS.
pub fn best_goodput_at_width(esnr_db: f64, width: ChannelWidth) -> f64 {
    let snr = esnr_db + width.snr_bonus_db();
    Mcs::ladder()
        .into_iter()
        .map(|m| width.rate_scale() * m.rate_bps() * (1.0 - mpdu_error_prob(snr, m, REF_MPDU_BITS)))
        .fold(0.0, f64::max)
}

/// Best expected goodput (bps) at a given MIMO mode.
pub fn best_goodput_at_mode(esnr_db: f64, mode: MimoMode) -> f64 {
    let (snr, streams) = match mode {
        MimoMode::Diversity => (esnr_db + DIVERSITY_BONUS_DB, 1),
        MimoMode::Multiplexing => (esnr_db, 2),
    };
    Mcs::ladder()
        .into_iter()
        .filter(|m| m.streams() <= streams)
        .map(|m| m.rate_bps() * (1.0 - mpdu_error_prob(snr, m, REF_MPDU_BITS)))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_channel_wins_only_at_the_cliff() {
        // High SNR: the wide channel's rate advantage dominates.
        assert!(
            best_goodput_at_width(30.0, ChannelWidth::Mhz40)
                > best_goodput_at_width(30.0, ChannelWidth::Mhz20)
        );
        // At the bottom of the ladder the +3 dB density keeps the link
        // alive where 40 MHz is already drowning.
        assert!(
            best_goodput_at_width(3.0, ChannelWidth::Mhz20)
                > best_goodput_at_width(3.0, ChannelWidth::Mhz40)
        );
    }

    #[test]
    fn diversity_wins_only_at_low_snr() {
        assert!(
            best_goodput_at_mode(35.0, MimoMode::Multiplexing)
                > best_goodput_at_mode(35.0, MimoMode::Diversity)
        );
        assert!(
            best_goodput_at_mode(6.0, MimoMode::Diversity)
                > best_goodput_at_mode(6.0, MimoMode::Multiplexing)
        );
    }

    #[test]
    fn mobility_aware_switching_gains_are_small() {
        // The paper's negative preliminary finding (section 9): on a
        // walking away-ramp, ideal mobility-aware width/mode switching
        // buys only a few percent over the static defaults, because the
        // robust options win only near the bottom of the SNR range.
        let ramp: Vec<f64> = (0..200).map(|i| 32.0 - i as f64 * 0.13).collect();
        let fixed_width: f64 = ramp
            .iter()
            .map(|&s| best_goodput_at_width(s, ChannelWidth::Mhz40))
            .sum();
        let adaptive_width: f64 = ramp
            .iter()
            .map(|&s| {
                best_goodput_at_width(s, ChannelWidth::Mhz40)
                    .max(best_goodput_at_width(s, ChannelWidth::Mhz20))
            })
            .sum();
        let width_gain = adaptive_width / fixed_width - 1.0;
        assert!(
            width_gain < 0.05,
            "width switching gain {:.1}% should be insignificant",
            width_gain * 100.0
        );

        let fixed_mode: f64 = ramp
            .iter()
            .map(|&s| best_goodput_at_mode(s, MimoMode::Multiplexing))
            .sum();
        let adaptive_mode: f64 = ramp
            .iter()
            .map(|&s| {
                best_goodput_at_mode(s, MimoMode::Multiplexing)
                    .max(best_goodput_at_mode(s, MimoMode::Diversity))
            })
            .sum();
        let mode_gain = adaptive_mode / fixed_mode - 1.0;
        assert!(
            mode_gain < 0.08,
            "MIMO-mode switching gain {:.1}% should be insignificant",
            mode_gain * 100.0
        );
    }
}
