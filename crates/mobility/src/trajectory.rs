//! Client trajectory generators.
//!
//! A [`Trajectory`] answers "where is the device, which way is it facing
//! and how fast is it moving at time `t`". Implementations advance
//! internal state in small fixed steps, so they must be queried with
//! non-decreasing timestamps (which the discrete-event simulator
//! guarantees).

use mobisense_util::units::{nanos_to_secs, Nanos};
use mobisense_util::{DetRng, Vec2};

use crate::mode::MobilityMode;

/// Instantaneous kinematic state of the device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pose {
    /// Position in metres.
    pub pos: Vec2,
    /// Orientation of the device's antenna array, radians.
    pub heading: f64,
    /// Instantaneous speed in m/s.
    pub speed: f64,
}

/// A time-parameterised device trajectory.
pub trait Trajectory {
    /// Pose at time `t`. Must be called with non-decreasing `t`.
    fn pose_at(&mut self, t: Nanos) -> Pose;

    /// The device-motion mobility mode this trajectory represents
    /// (`Static` for a parked device — environmental mobility is a
    /// property of the surroundings, not the trajectory).
    fn device_mode(&self) -> MobilityMode;
}

/// A parked device: constant pose, zero speed.
#[derive(Clone, Debug)]
pub struct StaticPose {
    pose: Pose,
}

impl StaticPose {
    /// Parks the device at `pos` facing `heading`.
    pub fn new(pos: Vec2, heading: f64) -> Self {
        StaticPose {
            pose: Pose {
                pos,
                heading,
                speed: 0.0,
            },
        }
    }
}

impl Trajectory for StaticPose {
    fn pose_at(&mut self, _t: Nanos) -> Pose {
        self.pose
    }

    fn device_mode(&self) -> MobilityMode {
        MobilityMode::Static
    }
}

/// Micro-mobility: natural device handling confined to a small area.
///
/// The device drifts between random targets inside a disc of
/// `radius` metres around an anchor, at gesture speeds (a fraction of
/// walking pace), with occasional pauses — "the user may be attending a
/// VoIP call ... playing a game ... roaming within her cubicle"
/// (paper section 1).
#[derive(Clone, Debug)]
pub struct MicroWander {
    anchor: Vec2,
    radius: f64,
    rng: DetRng,
    pos: Vec2,
    heading: f64,
    target: Vec2,
    speed: f64,
    pause_until: Nanos,
    last_t: Nanos,
}

/// Mean gesture speed (m/s).
const GESTURE_SPEED_MEAN: f64 = 0.5;

impl MicroWander {
    /// Gesture motion around `anchor` within `radius` metres.
    pub fn new(anchor: Vec2, radius: f64, rng: DetRng) -> Self {
        MicroWander {
            anchor,
            radius,
            rng,
            pos: anchor,
            heading: 0.0,
            target: anchor,
            speed: 0.0,
            pause_until: 0,
            last_t: 0,
        }
    }

    fn pick_target(&mut self) {
        let r = self.radius * self.rng.uniform().sqrt();
        self.target = self.anchor + self.rng.unit_vector() * r;
        self.speed = self
            .rng
            .normal(GESTURE_SPEED_MEAN, GESTURE_SPEED_MEAN * 0.3)
            .clamp(0.05, 2.0 * GESTURE_SPEED_MEAN);
    }

    fn step(&mut self, now: Nanos, dt: f64) {
        if now < self.pause_until {
            self.speed = 0.0;
            return;
        }
        let to_target = self.target - self.pos;
        let dist = to_target.norm();
        if dist < 0.02 {
            // Reached the target: either pause briefly or pick a new one.
            if self.rng.chance(0.2) {
                self.pause_until =
                    now + mobisense_util::units::millis_to_nanos(self.rng.uniform_in(200.0, 800.0));
            }
            self.pick_target();
            return;
        }
        if self.speed == 0.0 {
            self.pick_target();
        }
        let step = (self.speed * dt).min(dist);
        let dir = to_target / dist;
        self.pos += dir * step;
        // The device's orientation wobbles with the gesture.
        self.heading += self.rng.normal(0.0, 0.3) * dt * 5.0;
    }
}

impl Trajectory for MicroWander {
    fn pose_at(&mut self, t: Nanos) -> Pose {
        const STEP: Nanos = 10 * mobisense_util::units::MILLISECOND;
        if self.speed == 0.0 && self.last_t == 0 && self.pause_until == 0 {
            self.pick_target();
        }
        while self.last_t + STEP <= t {
            self.last_t += STEP;
            let dt = nanos_to_secs(STEP);
            let now = self.last_t;
            self.step(now, dt);
        }
        Pose {
            pos: self.pos,
            heading: self.heading,
            speed: self.speed,
        }
    }

    fn device_mode(&self) -> MobilityMode {
        MobilityMode::Micro
    }
}

/// Macro-mobility: the user walks through a sequence of waypoints at
/// walking pace, with small speed jitter, lateral gait sway, and the
/// device's heading aligned with the direction of travel.
///
/// The sway matters: a hand-held device oscillates a few centimetres
/// (about a wavelength at 5.8 GHz) perpendicular to the direction of
/// travel with every stride, which prevents a perfectly straight walk
/// from keeping parts of the multipath interference pattern frozen.
#[derive(Clone, Debug)]
pub struct WaypointWalk {
    waypoints: Vec<Vec2>,
    speed_mean: f64,
    rng: DetRng,
    pos: Vec2,
    heading: f64,
    speed: f64,
    next_wp: usize,
    loop_walk: bool,
    last_t: Nanos,
    /// Gait phase (radians), advanced at stride frequency.
    sway_phase: f64,
}

/// Stride (sway) frequency in Hz.
const SWAY_HZ: f64 = 1.8;

/// Lateral gait-sway amplitude (m).
const SWAY_AMP: f64 = 0.04;

impl WaypointWalk {
    /// Walks through `waypoints` (at least 2) at `speed_mean` m/s.
    pub fn new(waypoints: Vec<Vec2>, speed_mean: f64, rng: DetRng) -> Self {
        assert!(waypoints.len() >= 2, "need at least two waypoints");
        assert!(speed_mean > 0.0, "walking speed must be positive");
        let pos = waypoints[0];
        WaypointWalk {
            waypoints,
            speed_mean,
            rng,
            pos,
            heading: 0.0,
            speed: speed_mean,
            next_wp: 1,
            loop_walk: false,
            last_t: 0,
            sway_phase: 0.0,
        }
    }

    /// A straight walk from `a` to `b`.
    pub fn between(a: Vec2, b: Vec2, speed: f64, rng: DetRng) -> Self {
        WaypointWalk::new(vec![a, b], speed, rng)
    }

    /// Keeps walking the waypoint cycle forever instead of stopping at the
    /// last waypoint.
    pub fn looping(mut self) -> Self {
        self.loop_walk = true;
        self
    }

    /// True once the walker has reached the final waypoint (non-looping).
    pub fn finished(&self) -> bool {
        !self.loop_walk && self.next_wp >= self.waypoints.len()
    }

    fn step(&mut self, dt: f64) {
        if self.next_wp >= self.waypoints.len() {
            if self.loop_walk {
                self.next_wp = 0;
            } else {
                self.speed = 0.0;
                return;
            }
        }
        let target = self.waypoints[self.next_wp];
        let to_target = target - self.pos;
        let dist = to_target.norm();
        if dist < 0.05 {
            self.next_wp += 1;
            return;
        }
        // Humans do not walk at constant speed: jitter around the mean.
        self.speed = (self.speed + self.rng.normal(0.0, 0.15) * dt.sqrt() * self.speed_mean)
            .clamp(0.6 * self.speed_mean, 1.4 * self.speed_mean);
        let step = (self.speed * dt).min(dist);
        let dir = to_target / dist;
        self.pos += dir * step;
        self.heading = dir.angle();
        self.sway_phase += std::f64::consts::TAU * SWAY_HZ * dt;
    }

    /// Device position including the gait sway.
    fn swayed_pos(&self) -> Vec2 {
        let lateral = Vec2::from_angle(self.heading).perp();
        self.pos + lateral * (SWAY_AMP * self.sway_phase.sin())
    }
}

impl Trajectory for WaypointWalk {
    fn pose_at(&mut self, t: Nanos) -> Pose {
        const STEP: Nanos = 10 * mobisense_util::units::MILLISECOND;
        if self.last_t == 0 {
            if let Some(&wp) = self.waypoints.get(1) {
                if self.pos == self.waypoints[0] {
                    self.heading = (wp - self.pos).angle();
                }
            }
        }
        while self.last_t + STEP <= t {
            self.last_t += STEP;
            self.step(nanos_to_secs(STEP));
        }
        Pose {
            pos: self.swayed_pos(),
            heading: self.heading,
            speed: if self.finished() { 0.0 } else { self.speed },
        }
    }

    fn device_mode(&self) -> MobilityMode {
        MobilityMode::Macro
    }
}

/// The paper's known failure mode (section 9): walking a circle around
/// the AP. Distance to the centre never changes, so ToF shows no trend
/// and the classifier calls it micro-mobility.
#[derive(Clone, Debug)]
pub struct CircularOrbit {
    center: Vec2,
    radius: f64,
    angular_speed: f64,
    phase0: f64,
}

impl CircularOrbit {
    /// Orbits `center` at `radius` metres with tangential speed
    /// `speed` m/s, starting at angle `phase0`.
    pub fn new(center: Vec2, radius: f64, speed: f64, phase0: f64) -> Self {
        assert!(radius > 0.0);
        CircularOrbit {
            center,
            radius,
            angular_speed: speed / radius,
            phase0,
        }
    }

    /// Tangential speed in m/s.
    pub fn speed(&self) -> f64 {
        self.angular_speed * self.radius
    }
}

impl Trajectory for CircularOrbit {
    fn pose_at(&mut self, t: Nanos) -> Pose {
        let theta = self.phase0 + self.angular_speed * nanos_to_secs(t);
        let pos = self.center + Vec2::from_angle(theta) * self.radius;
        Pose {
            pos,
            // Heading is tangential.
            heading: theta + std::f64::consts::FRAC_PI_2,
            speed: self.speed(),
        }
    }

    fn device_mode(&self) -> MobilityMode {
        MobilityMode::Macro
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::units::{MILLISECOND, SECOND};

    #[test]
    fn static_pose_never_moves() {
        let mut s = StaticPose::new(Vec2::new(3.0, 4.0), 1.0);
        let p0 = s.pose_at(0);
        let p1 = s.pose_at(100 * SECOND);
        assert_eq!(p0, p1);
        assert_eq!(p0.speed, 0.0);
        assert_eq!(s.device_mode(), MobilityMode::Static);
    }

    #[test]
    fn micro_wander_stays_in_radius() {
        let anchor = Vec2::new(5.0, 5.0);
        let mut m = MicroWander::new(anchor, 0.5, DetRng::seed_from_u64(1));
        let mut max_d: f64 = 0.0;
        let mut total_path = 0.0;
        let mut last = m.pose_at(0).pos;
        for i in 1..3000u64 {
            let p = m.pose_at(i * 10 * MILLISECOND);
            max_d = max_d.max(p.pos.dist(anchor));
            total_path += p.pos.dist(last);
            last = p.pos;
        }
        assert!(max_d <= 0.5 + 1e-6, "escaped radius: {max_d}");
        assert!(max_d > 0.1, "did not move at all: {max_d}");
        assert!(total_path > 1.0, "too little motion: {total_path}");
    }

    #[test]
    fn waypoint_walk_reaches_destination() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(12.0, 0.0);
        let mut w = WaypointWalk::between(a, b, 1.2, DetRng::seed_from_u64(2));
        // 12 m at ~1.2 m/s: done well within 20 s.
        let p = w.pose_at(20 * SECOND);
        assert!(p.pos.dist(b) < 0.1, "at {:?}", p.pos);
        assert!(w.finished());
        assert_eq!(p.speed, 0.0);
    }

    #[test]
    fn waypoint_walk_speed_near_mean() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(100.0, 0.0);
        let mut w = WaypointWalk::between(a, b, 1.2, DetRng::seed_from_u64(3));
        let p0 = w.pose_at(0).pos;
        let p10 = w.pose_at(10 * SECOND).pos;
        let avg_speed = p0.dist(p10) / 10.0;
        assert!((avg_speed - 1.2).abs() < 0.35, "avg speed {avg_speed} m/s");
    }

    #[test]
    fn waypoint_walk_heading_points_forward() {
        let mut w = WaypointWalk::between(
            Vec2::ZERO,
            Vec2::new(0.0, 50.0),
            1.2,
            DetRng::seed_from_u64(4),
        );
        let p = w.pose_at(5 * SECOND);
        // Walking +y: heading ~ pi/2.
        assert!((p.heading - std::f64::consts::FRAC_PI_2).abs() < 0.1);
    }

    #[test]
    fn looping_walk_never_finishes() {
        let pts = vec![Vec2::ZERO, Vec2::new(5.0, 0.0), Vec2::new(5.0, 5.0)];
        let mut w = WaypointWalk::new(pts, 1.4, DetRng::seed_from_u64(5)).looping();
        let p = w.pose_at(60 * SECOND);
        assert!(!w.finished());
        assert!(p.speed > 0.0);
    }

    #[test]
    fn orbit_keeps_constant_distance() {
        let c = Vec2::new(2.0, 3.0);
        let mut o = CircularOrbit::new(c, 4.0, 1.2, 0.0);
        for i in 0..60u64 {
            let p = o.pose_at(i * SECOND);
            assert!((p.pos.dist(c) - 4.0).abs() < 1e-9);
            assert!((p.speed - 1.2).abs() < 1e-12);
        }
        assert_eq!(o.device_mode(), MobilityMode::Macro);
    }

    #[test]
    fn orbit_actually_moves() {
        let mut o = CircularOrbit::new(Vec2::ZERO, 5.0, 1.0, 0.0);
        let p0 = o.pose_at(0).pos;
        let p5 = o.pose_at(5 * SECOND).pos;
        assert!(p0.dist(p5) > 3.0);
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn walk_needs_waypoints() {
        WaypointWalk::new(vec![Vec2::ZERO], 1.0, DetRng::seed_from_u64(6));
    }
}
