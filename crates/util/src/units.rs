//! Time and power units shared across the workspace.
//!
//! * Simulation time is an integer nanosecond count ([`Nanos`]) — no
//!   floating-point drift in event ordering, cheap comparisons.
//! * RF power is handled in dBm, with explicit dB ↔ linear-ratio
//!   conversions.

/// Simulation timestamp / duration in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Speed of light in vacuum (m/s). Indoor propagation is close enough.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Converts a duration in seconds (f64) to [`Nanos`], rounding.
#[inline]
pub fn secs_to_nanos(s: f64) -> Nanos {
    (s * 1e9).round() as Nanos
}

/// Converts [`Nanos`] to seconds.
#[inline]
pub fn nanos_to_secs(n: Nanos) -> f64 {
    n as f64 / 1e9
}

/// Converts milliseconds to [`Nanos`].
#[inline]
pub fn millis_to_nanos(ms: f64) -> Nanos {
    (ms * 1e6).round() as Nanos
}

/// Converts a linear power ratio to decibels.
#[inline]
pub fn ratio_to_db(r: f64) -> f64 {
    10.0 * r.log10()
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Thermal noise floor in dBm for the given bandwidth (Hz) at 290 K,
/// including a typical receiver noise figure of `noise_figure_db`.
///
/// kTB = -174 dBm/Hz at room temperature; a 40 MHz 802.11n channel with a
/// 6 dB noise figure lands at about -92 dBm — matching commodity hardware.
#[inline]
pub fn noise_floor_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    -174.0 + 10.0 * bandwidth_hz.log10() + noise_figure_db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(secs_to_nanos(1.5), 1_500_000_000);
        assert_eq!(millis_to_nanos(2.0), 2 * MILLISECOND);
        assert!((nanos_to_secs(secs_to_nanos(0.123456789)) - 0.123456789).abs() < 1e-12);
    }

    #[test]
    fn power_conversions() {
        assert!((db_to_ratio(ratio_to_db(42.0)) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_for_40mhz() {
        let nf = noise_floor_dbm(40e6, 6.0);
        // -174 + 10*log10(4e7) + 6 = -174 + 76.02 + 6 = -91.98
        assert!((nf + 91.98).abs() < 0.05, "nf={nf}");
    }
}
