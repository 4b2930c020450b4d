//! The 802.11n Modulation and Coding Scheme table (40 MHz, MCS 0-15).
//!
//! The testbed AP is a 3-antenna 802.11n device; with the paper's 2-antenna
//! smartphone client it can run one or two spatial streams, i.e. MCS 0-15.
//! Rates are the 800 ns (long) guard-interval values for a 40 MHz channel.

/// Modulation used by an MCS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying (1 bit/symbol).
    Bpsk,
    /// Quadrature phase-shift keying (2 bits/symbol).
    Qpsk,
    /// 16-point quadrature amplitude modulation (4 bits/symbol).
    Qam16,
    /// 64-point quadrature amplitude modulation (6 bits/symbol).
    Qam64,
}

/// An 802.11n MCS index (0-15: one or two spatial streams).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mcs(pub u8);

/// Per-MCS static parameters.
struct McsRow {
    modulation: Modulation,
    /// Coding rate numerator/denominator.
    code_rate: (u32, u32),
    /// PHY data rate in Mbps (40 MHz, long GI).
    rate_mbps: f64,
    /// SNR (dB) at which a 1500-byte packet sees roughly 50% error —
    /// the midpoint of the logistic PER curve in [`crate::per`]. Values
    /// follow published 802.11n receiver sensitivity ladders.
    snr_mid_db: f64,
}

/// Single-stream rows (MCS 0-7); the two-stream rows (8-15) reuse these
/// with doubled rate and a stream-separation SNR penalty.
const ROWS: [McsRow; 8] = [
    McsRow {
        modulation: Modulation::Bpsk,
        code_rate: (1, 2),
        rate_mbps: 13.5,
        snr_mid_db: 5.0,
    },
    McsRow {
        modulation: Modulation::Qpsk,
        code_rate: (1, 2),
        rate_mbps: 27.0,
        snr_mid_db: 7.5,
    },
    McsRow {
        modulation: Modulation::Qpsk,
        code_rate: (3, 4),
        rate_mbps: 40.5,
        snr_mid_db: 10.0,
    },
    McsRow {
        modulation: Modulation::Qam16,
        code_rate: (1, 2),
        rate_mbps: 54.0,
        snr_mid_db: 13.0,
    },
    McsRow {
        modulation: Modulation::Qam16,
        code_rate: (3, 4),
        rate_mbps: 81.0,
        snr_mid_db: 16.5,
    },
    McsRow {
        modulation: Modulation::Qam64,
        code_rate: (2, 3),
        rate_mbps: 108.0,
        snr_mid_db: 21.0,
    },
    McsRow {
        modulation: Modulation::Qam64,
        code_rate: (3, 4),
        rate_mbps: 121.5,
        snr_mid_db: 22.5,
    },
    McsRow {
        modulation: Modulation::Qam64,
        code_rate: (5, 6),
        rate_mbps: 135.0,
        snr_mid_db: 24.0,
    },
];

/// Extra SNR (dB) needed per MCS step when running two spatial streams on
/// the 3x2 link: power is split across streams and the receiver must
/// separate them.
const TWO_STREAM_PENALTY_DB: f64 = 5.0;

impl Mcs {
    /// Lowest valid index.
    pub const MIN: Mcs = Mcs(0);
    /// Highest valid index for a 2-antenna client.
    pub const MAX: Mcs = Mcs(15);

    /// All valid MCS indices in ascending order.
    pub fn all() -> impl DoubleEndedIterator<Item = Mcs> {
        (0..=15).map(Mcs)
    }

    /// Number of spatial streams (1 or 2).
    pub fn streams(self) -> u32 {
        if self.0 < 8 {
            1
        } else {
            2
        }
    }

    /// Row within the single-stream table.
    fn row(self) -> &'static McsRow {
        &ROWS[(self.0 % 8) as usize]
    }

    /// Modulation of this MCS.
    pub fn modulation(self) -> Modulation {
        self.row().modulation
    }

    /// Coding rate as (numerator, denominator).
    pub fn code_rate(self) -> (u32, u32) {
        self.row().code_rate
    }

    /// PHY data rate in Mbps (40 MHz, long guard interval).
    pub fn rate_mbps(self) -> f64 {
        self.row().rate_mbps * self.streams() as f64
    }

    /// PHY data rate in bits per second.
    pub fn rate_bps(self) -> f64 {
        self.rate_mbps() * 1e6
    }

    /// Midpoint SNR (dB) of the PER curve for this MCS (1500 B MPDU).
    pub fn snr_mid_db(self) -> f64 {
        self.row().snr_mid_db
            + if self.streams() == 2 {
                TWO_STREAM_PENALTY_DB
            } else {
                0.0
            }
    }

    /// Next higher MCS under the Atheros driver's monotonicity rule.
    ///
    /// The Atheros rate control skips MCS indices whose throughput or PER
    /// would break monotonicity of the probing ladder (paper section 4.1
    /// describes the driver skipping single-stream MCS 5-7 and one
    /// double-stream index). At 40 MHz the double-stream MCS 8-10 rates
    /// (27/54/81 Mbps) duplicate single-stream rates while needing more
    /// SNR, so the monotone ladder here is 0-4 then 11-15. Returns `None`
    /// at the top.
    pub fn next_up(self) -> Option<Mcs> {
        match self.0 {
            4 => Some(Mcs(11)), // skip MCS 5-10
            15 => None,         // top of the ladder
            n if n < 15 => Some(Mcs(n + 1)),
            _ => None,
        }
    }

    /// The Atheros monotone probing ladder from lowest to highest rate.
    pub fn ladder() -> Vec<Mcs> {
        let mut v = vec![Mcs(0)];
        while let Some(next) = v.last().unwrap().next_up() {
            v.push(next);
        }
        v
    }
}

impl std::fmt::Display for Mcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MCS{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_rates() {
        assert_eq!(Mcs(0).rate_mbps(), 13.5);
        assert_eq!(Mcs(7).rate_mbps(), 135.0);
        assert_eq!(Mcs(8).rate_mbps(), 27.0);
        assert_eq!(Mcs(15).rate_mbps(), 270.0);
    }

    #[test]
    fn streams() {
        assert_eq!(Mcs(3).streams(), 1);
        assert_eq!(Mcs(11).streams(), 2);
    }

    #[test]
    fn snr_mid_monotone_within_stream_group() {
        for w in (0..8).collect::<Vec<_>>().windows(2) {
            assert!(Mcs(w[1]).snr_mid_db() > Mcs(w[0]).snr_mid_db());
            assert!(Mcs(w[1] + 8).snr_mid_db() > Mcs(w[0] + 8).snr_mid_db());
        }
    }

    #[test]
    fn ladder_is_rate_monotone() {
        let ladder = Mcs::ladder();
        assert_eq!(ladder.first(), Some(&Mcs(0)));
        assert_eq!(ladder.last(), Some(&Mcs(15)));
        for w in ladder.windows(2) {
            assert!(
                w[1].rate_mbps() > w[0].rate_mbps(),
                "{} -> {} not rate-monotone",
                w[0],
                w[1]
            );
        }
        // MCS 5-10 are skipped to keep the ladder monotone (the driver's
        // PER-monotonicity rule from paper section 4.1, applied at 40 MHz).
        for skipped in [5, 6, 7, 8, 9, 10] {
            assert!(!ladder.contains(&Mcs(skipped)));
        }
        assert_eq!(ladder.len(), 10);
    }

    #[test]
    fn up_down_are_inverses_on_ladder() {
        assert_eq!(Mcs(15).next_up(), None);
    }

    #[test]
    fn modulation_bits() {
        assert_eq!(Mcs(7).modulation(), Modulation::Qam64);
        assert_eq!(Mcs(7).code_rate(), (5, 6));
    }

    #[test]
    fn two_stream_penalty_applied() {
        // Each double-stream MCS needs the stream-separation margin on
        // top of its single-stream modulation requirement.
        for i in 0..8u8 {
            let d = Mcs(i + 8).snr_mid_db() - Mcs(i).snr_mid_db();
            assert!((d - TWO_STREAM_PENALTY_DB).abs() < 1e-12);
        }
        assert_eq!(Mcs(9).rate_mbps(), 54.0);
        assert_eq!(Mcs(3).rate_mbps(), 54.0);
    }
}
