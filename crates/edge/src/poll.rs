//! The readiness seam behind the reactor's sweep loop.
//!
//! A classic reactor blocks in `poll(2)`/`epoll` until a socket is
//! readable. This workspace is `#![forbid(unsafe_code)]` with no FFI
//! crates, so the syscall cannot be issued directly; what `std` exposes
//! portably is nonblocking I/O plus `WouldBlock`. The reactor therefore
//! runs **level-triggered sweeps** — try every socket, note whether any
//! byte moved — and delegates the "nothing was ready" case to a
//! [`Poller`]. The shipped [`SpinPark`] yields the CPU for a few empty
//! sweeps (cheap when the next arrival is close) and then parks in
//! `park_timeout` naps (cheap when it is not); how many sweeps yield
//! follows the idle stretches it has just seen, so a reactor whose
//! arrivals come in bursts far apart stops paying empty sweeps to
//! wait for them. A platform poller that really sleeps in the kernel
//! until readiness would implement the same one-method trait and slot
//! in without touching the sweep loop.

use std::time::Duration;

/// Most sweeps one idle stretch may yield before it parks.
const YIELD_CAP: u32 = 64;

/// How long one idle sweep parks the reactor (`park_timeout`; a
/// spurious wake-up ends it sooner).
const IDLE_PARK: Duration = Duration::from_micros(200);

/// What one [`Poller::wait`] call did with the reactor thread, so the
/// reactor can count its idle work without reading a clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waited {
    /// Returned at once.
    Ready,
    /// Gave up the CPU once (`yield_now`).
    Yielded,
    /// Parked the thread for one idle park (`park_timeout`).
    Parked,
}

/// Backoff/wakeup policy consulted once per reactor sweep.
pub trait Poller {
    /// Called after a full sweep; `progress` is true when the sweep
    /// accepted a connection, read a byte, or received a datagram. The
    /// implementation decides whether (and how long) to wait before the
    /// next sweep, and reports which it did.
    fn wait(&mut self, progress: bool) -> Waited;
}

/// Portable yield-then-park backoff whose yield budget follows the idle
/// stretches it sees.
///
/// While sweeps make progress it returns at once. An idle stretch is a
/// run of sweeps with nothing ready: its first `budget` sweeps yield
/// the CPU, and every later one parks for up to 200 µs. When a sweep
/// makes progress again, the stretch that just ended sizes the next
/// budget:
///
/// * it ended within the yields or the first park, so yielding caught
///   the next arrival: the budget doubles (at least 1, at most 64);
/// * it outlasted a park, so its yields only burned empty sweeps: the
///   budget halves, and at 0 the next idle sweep parks at once.
///
/// The budget starts at 64. The rule reads no clock and takes no
/// setting: it depends only on how many sweeps each gap between
/// arrivals lasted. `park_timeout` may wake spuriously; that only costs
/// an extra sweep, never correctness.
#[derive(Debug)]
pub struct SpinPark {
    /// Idle sweeps in the current stretch.
    idle_sweeps: u32,
    /// Sweeps the current stretch may yield before it parks.
    budget: u32,
}

impl Default for SpinPark {
    fn default() -> Self {
        SpinPark {
            idle_sweeps: 0,
            budget: YIELD_CAP,
        }
    }
}

impl Poller for SpinPark {
    fn wait(&mut self, progress: bool) -> Waited {
        if progress {
            match self.idle_sweeps {
                0 => {}
                n if n <= self.budget + 1 => self.budget = (self.budget * 2).clamp(1, YIELD_CAP),
                _ => self.budget /= 2,
            }
            self.idle_sweeps = 0;
            return Waited::Ready;
        }
        self.idle_sweeps = self.idle_sweeps.saturating_add(1);
        if self.idle_sweeps <= self.budget {
            std::thread::yield_now();
            Waited::Yielded
        } else {
            std::thread::park_timeout(IDLE_PARK);
            Waited::Parked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one idle stretch of `idle` sweeps and the sweep with
    /// progress that ends it; returns what each idle sweep did.
    fn stretch(p: &mut SpinPark, idle: u32) -> Vec<Waited> {
        let waits = (0..idle).map(|_| p.wait(false)).collect();
        assert_eq!(p.wait(true), Waited::Ready);
        waits
    }

    fn yields(waits: &[Waited]) -> u32 {
        waits.iter().filter(|w| **w == Waited::Yielded).count() as u32
    }

    /// Stretches that outlast one park; leaves the budget at 0.
    fn exhaust(p: &mut SpinPark) {
        for _ in 0..7 {
            let budget = p.budget;
            stretch(p, budget + 2);
        }
        assert_eq!(p.budget, 0);
    }

    #[test]
    fn progress_resets_backoff() {
        let mut p = SpinPark::default();
        assert_eq!(p.wait(false), Waited::Yielded);
        assert_eq!(p.wait(false), Waited::Yielded);
        assert_eq!(p.idle_sweeps, 2);
        assert_eq!(p.wait(true), Waited::Ready);
        assert_eq!(p.idle_sweeps, 0);
        // A stretch that ended within the yields keeps the full budget:
        // the next one yields 64 times before it parks.
        let waits = stretch(&mut p, YIELD_CAP + 1);
        assert_eq!(yields(&waits), YIELD_CAP);
        assert_eq!(waits.last(), Some(&Waited::Parked));
    }

    #[test]
    fn stretches_that_outlast_a_park_halve_the_budget_to_zero() {
        let mut p = SpinPark::default();
        let mut spent = Vec::new();
        for _ in 0..7 {
            // Each stretch yields its whole budget, then parks twice.
            let budget = p.budget;
            let waits = stretch(&mut p, budget + 2);
            let n = yields(&waits);
            assert!(waits.iter().take(n as usize).all(|w| *w == Waited::Yielded));
            assert_eq!(
                waits.get(n as usize..),
                Some(&[Waited::Parked, Waited::Parked][..])
            );
            spent.push(n);
        }
        assert_eq!(spent, [64, 32, 16, 8, 4, 2, 1]);
        assert_eq!(p.wait(false), Waited::Parked, "the budget is spent");
    }

    #[test]
    fn a_stretch_that_ends_within_the_first_park_brings_yielding_back() {
        let mut p = SpinPark::default();
        exhaust(&mut p);
        assert_eq!(stretch(&mut p, 1), [Waited::Parked]);
        assert_eq!(p.wait(false), Waited::Yielded);
        assert_eq!(p.wait(false), Waited::Parked);
    }

    #[test]
    fn the_budget_never_exceeds_the_cap() {
        let mut p = SpinPark::default();
        exhaust(&mut p);
        // Every stretch ends within the yields or the first park, so the
        // budget doubles each time, up to the cap and no further.
        let mut spent = Vec::new();
        for _ in 0..10 {
            let budget = p.budget;
            let waits = stretch(&mut p, budget + 1);
            spent.push(yields(&waits));
            assert!(p.budget <= YIELD_CAP);
        }
        assert_eq!(spent, [0, 1, 2, 4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn a_sweep_that_made_progress_never_sleeps() {
        let mut p = SpinPark::default();
        // Bursts and gaps of scripted lengths (a fixed-seed LCG, with a
        // gap longer than the whole budget every eighth round): a sweep
        // with progress always returns at once, an idle one always
        // yields or parks.
        let mut x = 0x2545_f491_u32;
        for round in 0..64 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let gap = if round % 8 == 7 {
                YIELD_CAP + 2
            } else {
                x >> 28
            };
            for _ in 0..gap {
                assert_ne!(p.wait(false), Waited::Ready);
            }
            for _ in 0..=(x & 3) {
                assert_eq!(p.wait(true), Waited::Ready);
            }
            assert!(p.budget <= YIELD_CAP);
        }
    }
}
