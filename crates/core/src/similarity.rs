//! CSI sampling and similarity tracking (paper section 2.3).
//!
//! The AP opportunistically samples the CSI of frames it exchanges with
//! the client. Once per sampling period it computes the Equation-(1)
//! similarity between the newest CSI and the previous period's CSI, and
//! maintains a short moving average of those similarity values (paper
//! section 2.5) to smooth out single-sample flukes.

use mobisense_phy::csi::Csi;
use mobisense_util::filter::MovingAverage;
use mobisense_util::units::Nanos;
use std::collections::VecDeque;

/// Frame profiles no older than this are averaged into one sample
/// (noise averaging). ~3 frames at the usual 20 ms frame cadence:
/// enough to average estimation noise down by sqrt(3), short enough
/// that device motion is not blurred away.
const PROFILE_SMOOTHING_WINDOW: Nanos = 50 * mobisense_util::units::MILLISECOND;
/// Cap on how many profiles the smoothing window may hold.
const PROFILE_SMOOTHING_MAX: usize = 4;

/// Serializable dynamic state of a [`SimilarityTracker`], produced by
/// [`SimilarityTracker::export_state`]. Plain data: the session snapshot
/// codec owns the byte-level encoding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimilarityState {
    /// Timestamped profiles of the noise-averaging window, oldest-first.
    pub recent: Vec<(Nanos, Vec<f64>)>,
    /// The previous period's reference profile, if seeded.
    pub last_profile: Option<Vec<f64>>,
    /// Next sampling deadline, if seeded.
    pub next_sample_at: Option<Nanos>,
    /// Most recent raw similarity value.
    pub last_similarity: Option<f64>,
    /// Contents of the smoothing moving average, oldest-first.
    pub avg: Vec<f64>,
}

/// Tracks CSI similarity over time at a fixed sampling period.
#[derive(Clone, Debug)]
pub struct SimilarityTracker {
    period: Nanos,
    avg: MovingAverage,
    /// Timestamped magnitude profiles of the most recent frames
    /// (noise averaging).
    recent: VecDeque<(Nanos, Vec<f64>)>,
    last_profile: Option<Vec<f64>>,
    next_sample_at: Option<Nanos>,
    last_similarity: Option<f64>,
}

impl SimilarityTracker {
    /// Creates a tracker sampling every `period`, averaging the last
    /// `window` similarity values.
    pub fn new(period: Nanos, window: usize) -> Self {
        assert!(period > 0, "sampling period must be positive");
        SimilarityTracker {
            period,
            avg: MovingAverage::new(window),
            recent: VecDeque::with_capacity(PROFILE_SMOOTHING_MAX),
            last_profile: None,
            next_sample_at: None,
            last_similarity: None,
        }
    }

    fn push_profile(&mut self, now: Nanos, profile: Vec<f64>) {
        while self.recent.len() >= PROFILE_SMOOTHING_MAX {
            self.recent.pop_front();
        }
        self.recent.push_back((now, profile));
        let horizon = now.saturating_sub(PROFILE_SMOOTHING_WINDOW);
        while self.recent.front().is_some_and(|&(at, _)| at < horizon) {
            self.recent.pop_front();
        }
    }

    fn mean_profile(&self) -> Vec<f64> {
        let n = self.recent.len().max(1) as f64;
        let len = self.recent.front().map(|(_, p)| p.len()).unwrap_or(0);
        let mut out = vec![0.0; len];
        for (_, p) in &self.recent {
            for (o, v) in out.iter_mut().zip(p) {
                *o += v / n;
            }
        }
        out
    }

    /// The sampling period.
    pub fn period(&self) -> Nanos {
        self.period
    }

    /// Offers a CSI observation captured at time `now` (e.g. from an ACK
    /// the AP just received). Frames inside a sampling period contribute
    /// to a short noise-averaging window; once per period the averaged
    /// profile is compared against the previous period's.
    ///
    /// Returns the new smoothed similarity when a sample was taken and a
    /// previous sample existed to compare against.
    pub fn offer(&mut self, now: Nanos, csi: &Csi) -> Option<f64> {
        self.offer_profile(now, csi.magnitude_profile())
    }

    /// [`SimilarityTracker::offer`] for callers that already hold the
    /// magnitude profile rather than a full CSI matrix — the serving
    /// layer's wire frames carry exactly this digest, so remote
    /// observations skip the (tx, rx, subcarrier) reduction.
    pub fn offer_profile(&mut self, now: Nanos, profile: Vec<f64>) -> Option<f64> {
        self.push_profile(now, profile);
        match self.next_sample_at {
            None => {
                // First observation seeds the reference profile.
                self.last_profile = Some(self.mean_profile());
                self.next_sample_at = Some(now + self.period);
                None
            }
            Some(deadline) if now >= deadline => {
                let cur = self.mean_profile();
                let prev = self.last_profile.as_ref().expect("seeded on first offer");
                let s = mobisense_util::stats::pearson(prev, &cur).unwrap_or(1.0);
                self.last_similarity = Some(s);
                let smoothed = self.avg.push(s);
                self.last_profile = Some(cur);
                // Schedule relative to the deadline to keep a steady
                // cadence even if frames arrive late.
                let mut next = deadline + self.period;
                if next <= now {
                    next = now + self.period;
                }
                self.next_sample_at = Some(next);
                Some(smoothed)
            }
            Some(_) => None,
        }
    }

    /// Most recent raw (unsmoothed) similarity value.
    pub fn last_similarity(&self) -> Option<f64> {
        self.last_similarity
    }

    /// Current smoothed similarity (moving average).
    pub fn smoothed(&self) -> Option<f64> {
        self.avg.current()
    }

    /// Exports the tracker's complete dynamic state for session
    /// hibernation. Round-trips through [`from_state`](Self::from_state):
    /// a restored tracker produces bit-identical similarity samples from
    /// the saved point on.
    pub fn export_state(&self) -> SimilarityState {
        let mut state = SimilarityState::default();
        self.snapshot_into(&mut state);
        state
    }

    /// [`export_state`](Self::export_state) into a reused state: every
    /// field is overwritten, and profile vectors keep their allocations.
    pub fn snapshot_into(&self, out: &mut SimilarityState) {
        out.recent.truncate(self.recent.len());
        for (i, (at, profile)) in self.recent.iter().enumerate() {
            match out.recent.get_mut(i) {
                Some(slot) => copy_profile(slot, *at, profile),
                None => out.recent.push((*at, profile.clone())),
            }
        }
        copy_opt_profile(&mut out.last_profile, self.last_profile.as_deref());
        out.next_sample_at = self.next_sample_at;
        out.last_similarity = self.last_similarity;
        self.avg.snapshot_into(&mut out.avg);
    }

    /// Reconstructs a tracker from [`export_state`](Self::export_state)
    /// output. `period` and `window` come from configuration, exactly as
    /// in [`new`](Self::new); excess smoothing profiles or average
    /// samples (from a state saved under larger caps) are trimmed
    /// oldest-first.
    pub fn from_state(period: Nanos, window: usize, state: SimilarityState) -> Self {
        let mut tracker = SimilarityTracker::new(period, window);
        tracker.restore_from(&state);
        tracker
    }

    /// [`from_state`](Self::from_state) into this tracker, keeping its
    /// period and window and reusing its profile buffers.
    pub fn restore_from(&mut self, state: &SimilarityState) {
        let kept = state.recent.len().min(PROFILE_SMOOTHING_MAX);
        let newest = state.recent.iter().skip(state.recent.len() - kept);
        self.recent.truncate(kept);
        for (i, (at, profile)) in newest.enumerate() {
            match self.recent.get_mut(i) {
                Some(slot) => copy_profile(slot, *at, profile),
                None => self.recent.push_back((*at, profile.clone())),
            }
        }
        copy_opt_profile(&mut self.last_profile, state.last_profile.as_deref());
        self.next_sample_at = state.next_sample_at;
        self.last_similarity = state.last_similarity;
        self.avg.restore_from(&state.avg);
    }

    /// Approximate resident heap bytes of the tracker's buffers, for the
    /// serving layer's hot-working-set gauges. Deliberately coarse
    /// (length-based, not capacity-based).
    pub fn approx_bytes(&self) -> usize {
        let profiles: usize = self.recent.iter().map(|(_, p)| 16 + 8 * p.len()).sum();
        let last = self.last_profile.as_ref().map_or(0, |p| 8 * p.len());
        profiles + last + 8 * self.avg.len()
    }

    /// Forgets all state (e.g. after a roam to a different AP, where the
    /// channel baseline changes entirely).
    pub fn reset(&mut self) {
        self.avg.reset();
        self.recent.clear();
        self.last_profile = None;
        self.next_sample_at = None;
        self.last_similarity = None;
    }
}

/// Overwrites `slot` with `(at, profile)`, reusing its vector.
fn copy_profile(slot: &mut (Nanos, Vec<f64>), at: Nanos, profile: &[f64]) {
    slot.0 = at;
    slot.1.clear();
    slot.1.extend_from_slice(profile);
}

/// Overwrites `dst` with `src`, reusing `dst`'s vector when both hold
/// one.
fn copy_opt_profile(dst: &mut Option<Vec<f64>>, src: Option<&[f64]>) {
    match src {
        Some(src) => {
            let dst = dst.get_or_insert_with(Vec::new);
            dst.clear();
            dst.extend_from_slice(src);
        }
        None => *dst = None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::units::MILLISECOND;
    use mobisense_util::DetRng;

    fn noisy_csi(rng: &mut DetRng, base: &Csi, sigma: f64) -> Csi {
        let mut c = base.clone();
        for v in c.as_mut_slice() {
            *v += rng.complex_gaussian(sigma);
        }
        c
    }

    fn random_csi(rng: &mut DetRng) -> Csi {
        let mut c = Csi::zeros(3, 2, 52);
        for tx in 0..3 {
            for rx in 0..2 {
                for sc in 0..52 {
                    c.set(tx, rx, sc, rng.complex_gaussian(1.0));
                }
            }
        }
        c
    }

    #[test]
    fn first_offer_seeds_only() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut t = SimilarityTracker::new(500 * MILLISECOND, 3);
        let c = random_csi(&mut rng);
        assert_eq!(t.offer(0, &c), None);
        assert_eq!(t.smoothed(), None);
    }

    #[test]
    fn samples_at_period_boundaries() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut t = SimilarityTracker::new(500 * MILLISECOND, 3);
        let c = random_csi(&mut rng);
        t.offer(0, &c);
        // Frames arriving within the period are ignored.
        assert_eq!(t.offer(100 * MILLISECOND, &c), None);
        assert_eq!(t.offer(499 * MILLISECOND, &c), None);
        // At the deadline a similarity is produced.
        let s = t.offer(500 * MILLISECOND, &c);
        assert!(s.is_some());
        assert!((s.unwrap() - 1.0).abs() < 1e-9, "identical CSI");
    }

    #[test]
    fn stable_channel_high_similarity() {
        let mut rng = DetRng::seed_from_u64(3);
        let base = random_csi(&mut rng);
        let mut t = SimilarityTracker::new(500 * MILLISECOND, 3);
        let mut now = 0;
        t.offer(now, &noisy_csi(&mut rng, &base, 0.02));
        let mut sims = Vec::new();
        for _ in 0..10 {
            now += 500 * MILLISECOND;
            if let Some(s) = t.offer(now, &noisy_csi(&mut rng, &base, 0.02)) {
                sims.push(s);
            }
        }
        assert_eq!(sims.len(), 10);
        assert!(sims.iter().all(|&s| s > 0.97), "{sims:?}");
    }

    #[test]
    fn changing_channel_low_similarity() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut t = SimilarityTracker::new(500 * MILLISECOND, 1);
        let mut now = 0;
        t.offer(now, &random_csi(&mut rng));
        let mut min_s: f64 = 1.0;
        for _ in 0..10 {
            now += 500 * MILLISECOND;
            if let Some(s) = t.offer(now, &random_csi(&mut rng)) {
                min_s = min_s.min(s);
            }
        }
        assert!(min_s < 0.5, "min similarity {min_s}");
    }

    #[test]
    fn cadence_survives_late_frames() {
        let mut rng = DetRng::seed_from_u64(5);
        let c = random_csi(&mut rng);
        let mut t = SimilarityTracker::new(500 * MILLISECOND, 3);
        t.offer(0, &c);
        // Frame arrives very late (2.3 periods): sample taken, next
        // deadline re-anchored after `now`.
        assert!(t.offer(1150 * MILLISECOND, &c).is_some());
        assert_eq!(t.offer(1200 * MILLISECOND, &c), None);
        assert!(t.offer(1700 * MILLISECOND, &c).is_some());
    }

    #[test]
    fn reset_clears_everything() {
        let mut rng = DetRng::seed_from_u64(6);
        let c = random_csi(&mut rng);
        let mut t = SimilarityTracker::new(500 * MILLISECOND, 3);
        t.offer(0, &c);
        t.offer(500 * MILLISECOND, &c);
        assert!(t.smoothed().is_some());
        t.reset();
        assert!(t.smoothed().is_none());
        assert!(t.last_similarity().is_none());
        assert_eq!(t.offer(1000 * MILLISECOND, &c), None); // reseeds
    }
}
