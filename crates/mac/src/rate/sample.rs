//! SampleRate, RapidSample, and the sensor-hint scheme of Ravindranath
//! et al. (NSDI'11) — the paper's main prior-work comparison point
//! (sections 4.3 and 8).
//!
//! * **SampleRate** (Bicket'05): picks the rate with the best estimated
//!   throughput from long-memory per-rate statistics, spending a tenth of
//!   frames sampling nearby rates. Excellent when the channel is stable,
//!   sluggish when it is not.
//! * **RapidSample**: built for mobility — remembers only the recent
//!   past, abandons a failing rate immediately, and re-probes upward
//!   quickly after consecutive successes.
//! * **SensorHintRa**: the NSDI'11 hint architecture — an accelerometer
//!   says "moving"/"not moving", and the device switches between
//!   SampleRate (static) and RapidSample (mobile). It cannot see
//!   micro-vs-macro or towards-vs-away, which is exactly the gap the
//!   paper's PHY-layer classifier closes.

use mobisense_core::classifier::Classification;
use mobisense_phy::mcs::Mcs;
use mobisense_util::units::{Nanos, MILLISECOND};
use mobisense_util::DetRng;

use crate::link::FrameOutcome;
use crate::rate::{RateAdapter, RateTable};

/// Bicket's SampleRate with EWMA statistics.
#[derive(Clone, Debug)]
pub struct SampleRateRa {
    table: RateTable,
    frames: u64,
    rng: DetRng,
    sampling: Option<usize>,
}

impl SampleRateRa {
    /// One frame in `SAMPLE_EVERY` is a sampling frame.
    const SAMPLE_EVERY: u64 = 10;
    /// Long memory: the classic 10-second-window behaviour.
    const ALPHA: f64 = 0.05;

    /// Creates a SampleRate adapter.
    pub fn new(rng: DetRng) -> Self {
        SampleRateRa {
            table: RateTable::new(Self::ALPHA),
            frames: 0,
            rng,
            sampling: None,
        }
    }
}

impl RateAdapter for SampleRateRa {
    fn name(&self) -> &'static str {
        "samplerate"
    }

    fn select(&mut self, _now: Nanos) -> Mcs {
        self.frames += 1;
        let best = self.table.best_index();
        if self.frames.is_multiple_of(Self::SAMPLE_EVERY) {
            // Sample a random rate within two rungs of the current best.
            let lo = best.saturating_sub(2);
            let hi = (best + 2).min(self.table.len() - 1);
            let pick = lo + self.rng.index(hi - lo + 1);
            if pick != best {
                self.sampling = Some(pick);
                return self.table.mcs(pick);
            }
        }
        self.sampling = None;
        self.table.mcs(best)
    }

    fn report(&mut self, _now: Nanos, outcome: &FrameOutcome) {
        if let Some(idx) = self.table.index_of(outcome.mcs) {
            let inst = if outcome.block_ack {
                outcome.per()
            } else {
                1.0
            };
            self.table.update(idx, inst);
        }
        self.sampling = None;
    }
}

/// The mobility-optimised RapidSample.
#[derive(Clone, Debug)]
pub struct RapidSampleRa {
    cur: usize,
    table: RateTable,
    successes: u32,
    last_change: Nanos,
}

impl RapidSampleRa {
    /// Consecutive clean frames required before trying a higher rate.
    const UP_AFTER_SUCCESSES: u32 = 2;
    /// Very short memory.
    const ALPHA: f64 = 0.5;
    /// Minimum dwell time at a rate before moving again.
    const DWELL: Nanos = 10 * MILLISECOND;

    /// Creates a RapidSample adapter (starts mid-ladder: mobile channels
    /// rarely sustain the top rate).
    pub fn new() -> Self {
        let table = RateTable::new(Self::ALPHA);
        RapidSampleRa {
            cur: table.len() / 2,
            table,
            successes: 0,
            last_change: 0,
        }
    }
}

impl Default for RapidSampleRa {
    fn default() -> Self {
        Self::new()
    }
}

impl RateAdapter for RapidSampleRa {
    fn name(&self) -> &'static str {
        "rapidsample"
    }

    fn select(&mut self, _now: Nanos) -> Mcs {
        self.table.mcs(self.cur)
    }

    fn report(&mut self, now: Nanos, outcome: &FrameOutcome) {
        let Some(idx) = self.table.index_of(outcome.mcs) else {
            return;
        };
        let inst = if outcome.block_ack {
            outcome.per()
        } else {
            1.0
        };
        self.table.update(idx, inst);
        if idx != self.cur {
            return;
        }
        let dwell_ok = now.saturating_sub(self.last_change) >= Self::DWELL;
        if inst > 0.4 {
            // Failing now: abandon immediately (mobile channels do not
            // come back by themselves).
            self.successes = 0;
            if self.cur > 0 && dwell_ok {
                self.cur -= 1;
                self.last_change = now;
            }
        } else {
            self.successes += 1;
            if self.successes >= Self::UP_AFTER_SUCCESSES
                && self.cur + 1 < self.table.len()
                && dwell_ok
            {
                self.cur += 1;
                self.successes = 0;
                self.last_change = now;
            }
        }
    }
}

/// The NSDI'11 sensor-hint architecture: a binary device-motion hint
/// switches between SampleRate (static) and RapidSample (mobile).
#[derive(Clone, Debug)]
pub struct SensorHintRa {
    sample: SampleRateRa,
    rapid: RapidSampleRa,
    moving: bool,
}

impl SensorHintRa {
    /// Creates the hint-switched adapter.
    pub fn new(rng: DetRng) -> Self {
        SensorHintRa {
            sample: SampleRateRa::new(rng),
            rapid: RapidSampleRa::new(),
            moving: false,
        }
    }

    /// Whether the device currently believes it is moving.
    pub fn is_moving(&self) -> bool {
        self.moving
    }
}

impl RateAdapter for SensorHintRa {
    fn name(&self) -> &'static str {
        "sensor-hint"
    }

    fn select(&mut self, now: Nanos) -> Mcs {
        if self.moving {
            self.rapid.select(now)
        } else {
            self.sample.select(now)
        }
    }

    fn report(&mut self, now: Nanos, outcome: &FrameOutcome) {
        // Both learners observe every frame; only the active one selects.
        self.sample.report(now, outcome);
        self.rapid.report(now, outcome);
    }

    fn set_mobility_hint(&mut self, hint: Option<Classification>) {
        // An accelerometer can only see *device* motion: micro and macro
        // look identical to it, and environmental mobility is invisible.
        self.moving = hint.is_some_and(|c| c.mode.is_device_mobility());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{simulate_ampdu, LinkState};
    use mobisense_mobility::{Direction, MobilityMode};
    use mobisense_util::units::SECOND;

    fn run(ra: &mut dyn RateAdapter, esnr_db: f64, secs: u64, seed: u64) -> f64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let state = LinkState::static_at(esnr_db);
        let mut t: Nanos = 0;
        let mut bits = 0u64;
        while t < secs * SECOND {
            let mcs = ra.select(t);
            let o = simulate_ampdu(&state, mcs, 16, 1500, &mut rng);
            ra.report(t, &o);
            bits += o.delivered_bits(1500);
            t += o.airtime;
        }
        bits as f64 / secs as f64 / 1e6
    }

    #[test]
    fn samplerate_converges_on_stable_channel() {
        let mut ra = SampleRateRa::new(DetRng::seed_from_u64(1));
        let tp = run(&mut ra, 25.0, 8, 2);
        // 25 dB supports roughly MCS 12 (162 Mbps): expect solid goodput.
        assert!(tp > 80.0, "samplerate goodput {tp}");
    }

    #[test]
    fn rapidsample_steps_down_fast() {
        let mut ra = RapidSampleRa::new();
        let start = ra.select(0);
        let fail = FrameOutcome {
            mcs: start,
            n_mpdus: 16,
            n_delivered: 0,
            block_ack: false,
            airtime: MILLISECOND,
            esnr_db: 0.0,
            mid_aged_esnr_db: 0.0,
        };
        ra.report(20 * MILLISECOND, &fail);
        assert!(ra.select(21 * MILLISECOND) < start);
    }

    #[test]
    fn rapidsample_climbs_after_successes() {
        let mut ra = RapidSampleRa::new();
        let mut now = 0;
        let start = ra.select(now);
        for _ in 0..4 {
            now += 20 * MILLISECOND;
            let mcs = ra.select(now);
            let ok = FrameOutcome {
                mcs,
                n_mpdus: 16,
                n_delivered: 16,
                block_ack: true,
                airtime: MILLISECOND,
                esnr_db: 0.0,
                mid_aged_esnr_db: 0.0,
            };
            ra.report(now, &ok);
        }
        assert!(ra.select(now) > start);
    }

    #[test]
    fn sensor_hint_switches_between_learners() {
        let mut ra = SensorHintRa::new(DetRng::seed_from_u64(3));
        assert!(!ra.is_moving());
        ra.set_mobility_hint(Some(Classification::of(MobilityMode::Micro)));
        assert!(ra.is_moving());
        ra.set_mobility_hint(Some(Classification::of(MobilityMode::Environmental)));
        assert!(!ra.is_moving(), "accelerometer cannot see environmental");
        ra.set_mobility_hint(Some(Classification::macro_with(Direction::Away)));
        assert!(ra.is_moving());
        ra.set_mobility_hint(None);
        assert!(!ra.is_moving());
    }

    #[test]
    fn sensor_hint_delivers_on_stable_channel() {
        let mut ra = SensorHintRa::new(DetRng::seed_from_u64(4));
        ra.set_mobility_hint(Some(Classification::of(MobilityMode::Static)));
        let tp = run(&mut ra, 25.0, 8, 5);
        assert!(tp > 80.0, "sensor-hint static goodput {tp}");
    }
}
