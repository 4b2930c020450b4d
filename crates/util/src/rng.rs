//! Deterministic random-number fan-out.
//!
//! Every stochastic component in the workspace (channel fading, trajectory
//! jitter, ToF measurement noise, traffic arrivals, ...) owns its own
//! [`DetRng`], derived from a single experiment seed plus a component label.
//! This gives two properties the benchmark harness relies on:
//!
//! 1. **Reproducibility** — the same seed regenerates the same figure.
//! 2. **Isolation** — adding an extra draw inside one component does not
//!    perturb the random streams of unrelated components.
//!
//! `rand`'s `StdRng` is already seedable; the value added here is the
//! labelled `fork` discipline, plus Gaussian sampling (the approved crate
//! list has no `rand_distr`, so we carry a small, well-tested Box–Muller /
//! polar implementation).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::walk::{walk_opt, StateWalk};

/// A deterministic, forkable random-number generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: StdRng,
    /// Cached second output of the polar Gaussian transform.
    gauss_spare: Option<f64>,
}

/// FNV-1a 64-bit hash, used to mix fork labels into child seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl DetRng {
    /// Creates a generator from a raw 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Walks the generator's exact position (see [`crate::walk`]): the
    /// ChaCha key, block counter and word offset of the underlying
    /// `StdRng`, then the polar transform's cached spare. A read resumes
    /// the stream at exactly that position, so the walked generator and
    /// its never-walked twin draw identical values forever after; only a
    /// read rebuilds the in-flight keystream block.
    pub fn walk_state<W: StateWalk>(&mut self, w: &mut W) -> Result<(), W::Error> {
        let (mut key, mut counter, mut index) = self.inner.state_words();
        for k in &mut key {
            w.u32(k)?;
        }
        w.u64(&mut counter)?;
        w.u8(&mut index)?;
        walk_opt(w, "rng.gauss_spare", &mut self.gauss_spare, 0.0, W::f64)?;
        if W::READS {
            self.inner = StdRng::from_state_words(key, counter, index);
        }
        Ok(())
    }

    /// Derives a child generator for the component named `label`.
    ///
    /// The child stream is a pure function of `(parent position, label)`:
    /// forking the same label twice at the same parent state yields
    /// different children (the parent advances), while forking different
    /// labels from clones of the same parent yields decorrelated streams.
    pub fn fork(&mut self, label: &str) -> DetRng {
        let salt = self.inner.next_u64();
        DetRng::seed_from_u64(salt ^ fnv1a(label.as_bytes()))
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal sample via the Marsaglia polar method.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * k);
                return u * k;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Zero-mean circularly-symmetric complex Gaussian with per-component
    /// standard deviation `sigma` (total power `2 sigma^2`).
    #[inline]
    pub fn complex_gaussian(&mut self, sigma: f64) -> crate::C64 {
        crate::C64::new(self.normal(0.0, sigma), self.normal(0.0, sigma))
    }

    /// Random point in the axis-aligned box `[lo, hi]`.
    pub fn point_in_box(&mut self, lo: crate::Vec2, hi: crate::Vec2) -> crate::Vec2 {
        crate::Vec2::new(self.uniform_in(lo.x, hi.x), self.uniform_in(lo.y, hi.y))
    }

    /// Random unit vector (uniform direction).
    pub fn unit_vector(&mut self) -> crate::Vec2 {
        crate::Vec2::from_angle(self.uniform_in(0.0, std::f64::consts::TAU))
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::Tape;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn forks_with_different_labels_decorrelate() {
        let base = DetRng::seed_from_u64(42);
        let mut a = base.clone().fork("channel");
        let mut b = base.clone().fork("traffic");
        let overlap = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(overlap < 4, "forked streams should not coincide");
    }

    #[test]
    fn fork_is_reproducible() {
        let mut p1 = DetRng::seed_from_u64(9);
        let mut p2 = DetRng::seed_from_u64(9);
        let mut c1 = p1.fork("x");
        let mut c2 = p2.fork("x");
        for _ in 0..32 {
            assert_eq!(c1.uniform(), c2.uniform());
        }
    }

    #[test]
    fn state_round_trip_resumes_mid_stream() {
        // Odd gaussian count leaves `gauss_spare` populated, exercising the
        // cached-spare half of the state.
        for draws in [0usize, 1, 3, 7, 20] {
            let mut a = DetRng::seed_from_u64(11);
            for _ in 0..draws {
                a.gaussian();
            }
            let tape = Tape::record(|w| a.walk_state(w)).expect("records");
            // Played over another stream, mid-block, holding a spare.
            let mut b = DetRng::seed_from_u64(12);
            b.gaussian();
            tape.play(|w| b.walk_state(w)).expect("plays");
            assert_eq!(Tape::record(|w| b.walk_state(w)), Ok(tape));
            for _ in 0..64 {
                assert_eq!(a.gaussian().to_bits(), b.gaussian().to_bits());
                assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
            }
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = DetRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let z = r.gaussian();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from_u64(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed_from_u64(4);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn complex_gaussian_power() {
        let mut r = DetRng::seed_from_u64(5);
        let n = 100_000;
        let p: f64 = (0..n)
            .map(|_| r.complex_gaussian(1.0).norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((p - 2.0).abs() < 0.05, "power={p}");
    }
}
