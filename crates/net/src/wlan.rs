//! A multi-AP WLAN world with one roaming client.
//!
//! Each AP owns its own ray channel (its own line-of-sight and reflector
//! geometry to the client); the client trajectory and the environment
//! movers are shared. This mirrors the paper's testbed: six HP APs on an
//! office floor, a user walking a corridor trajectory (Figure 13a).

use mobisense_core::scenario::ScenarioConfig;
use mobisense_mobility::movers::{EnvIntensity, MoverField};
use mobisense_mobility::trajectory::{Trajectory, WaypointWalk};
use mobisense_phy::channel::RayChannel;
use mobisense_phy::csi::Csi;
use mobisense_util::units::Nanos;
use mobisense_util::{DetRng, Vec2};

/// Configuration of the multi-AP world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Per-AP channel/geometry base configuration (room box, reflector
    /// counts, radio parameters).
    pub base: ScenarioConfig,
    /// AP positions. Defaults to the six-AP office floor used for the
    /// paper's end-to-end evaluation.
    pub ap_positions: Vec<Vec2>,
    /// Environment intensity (people on the floor).
    pub env: EnvIntensity,
    /// Mean walking speed (m/s).
    pub walk_speed: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        // A 50 m x 20 m office floor.
        let mut base = ScenarioConfig {
            room_lo: Vec2::new(0.0, 0.0),
            room_hi: Vec2::new(50.0, 20.0),
            ..ScenarioConfig::default()
        };
        // Dense enterprise deployments run APs at reduced transmit power
        // (cell sizing); it also stands in for the interior walls the
        // open-space ray model lacks. Without it every link on the floor
        // saturates at the top MCS and association would not matter.
        base.channel.tx_power_dbm = 8.0;
        WorldConfig {
            base,
            ap_positions: vec![
                Vec2::new(8.0, 5.0),
                Vec2::new(25.0, 5.0),
                Vec2::new(42.0, 5.0),
                Vec2::new(8.0, 15.0),
                Vec2::new(25.0, 15.0),
                Vec2::new(42.0, 15.0),
            ],
            env: EnvIntensity::Weak,
            walk_speed: 1.2,
        }
    }
}

/// What one AP measures about the client at an instant.
#[derive(Clone, Debug)]
pub struct ApView {
    /// Measured CSI at this AP.
    pub csi: Csi,
    /// Reported RSSI (dBm, quantised).
    pub rssi_dbm: f64,
    /// True mean link SNR (dB).
    pub snr_db: f64,
    /// True AP-client distance (m) — input to this AP's ToF pipeline.
    pub distance_m: f64,
}

/// A snapshot of the world: the client state plus every AP's view.
#[derive(Clone, Debug)]
pub struct WorldObservation {
    /// Timestamp.
    pub at: Nanos,
    /// True client position.
    pub pos: Vec2,
    /// Instantaneous client speed (m/s).
    pub speed_mps: f64,
    /// Per-AP views, indexed like [`WorldConfig::ap_positions`].
    pub aps: Vec<ApView>,
}

impl WorldObservation {
    /// Index of the AP with the strongest RSSI.
    pub fn strongest_ap(&self) -> usize {
        self.aps
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.rssi_dbm
                    .partial_cmp(&b.1.rssi_dbm)
                    .expect("finite RSSI")
            })
            .map(|(i, _)| i)
            .expect("at least one AP")
    }
}

/// The multi-AP world.
pub struct MultiApWorld {
    cfg: WorldConfig,
    channels: Vec<RayChannel>,
    mobile_idx: Vec<Vec<usize>>,
    trajectory: Box<dyn Trajectory + Send>,
    movers: MoverField,
    rng: DetRng,
}

impl MultiApWorld {
    /// Builds a world with a client walking through the given waypoints.
    pub fn new(cfg: WorldConfig, waypoints: Vec<Vec2>, seed: u64) -> Self {
        assert!(!cfg.ap_positions.is_empty(), "need at least one AP");
        let mut rng = DetRng::seed_from_u64(seed);
        let mut channels = Vec::new();
        let mut mobile_idx = Vec::new();
        for (i, &ap) in cfg.ap_positions.iter().enumerate() {
            let mut geom_rng = rng.fork(&format!("geometry-{i}"));
            let ch = RayChannel::with_random_reflectors(
                cfg.base.channel.clone(),
                ap,
                cfg.base.room_lo,
                cfg.base.room_hi,
                cfg.base.n_static_reflectors,
                cfg.base.n_mobile_reflectors,
                &mut geom_rng,
            );
            let idx = ch
                .reflectors()
                .iter()
                .enumerate()
                .filter_map(|(j, r)| r.mobile.then_some(j))
                .collect();
            channels.push(ch);
            mobile_idx.push(idx);
        }
        let movers = MoverField::new(
            cfg.base.room_lo,
            cfg.base.room_hi,
            cfg.base.n_mobile_reflectors,
            cfg.env,
            rng.fork("movers"),
        );
        let trajectory: Box<dyn Trajectory + Send> = Box::new(WaypointWalk::new(
            waypoints,
            cfg.walk_speed,
            rng.fork("walk"),
        ));
        let meas_rng = rng.fork("measurement");
        MultiApWorld {
            cfg,
            channels,
            mobile_idx,
            trajectory,
            movers,
            rng: meas_rng,
        }
    }

    /// A world with a random corridor walk across the floor.
    pub fn with_random_walk(cfg: WorldConfig, n_waypoints: usize, seed: u64) -> Self {
        let mut wp_rng = DetRng::seed_from_u64(seed ^ 0x77616c6b);
        let lo = cfg.base.room_lo;
        let hi = cfg.base.room_hi;
        let pts: Vec<Vec2> = (0..n_waypoints.max(2))
            .map(|_| wp_rng.point_in_box(lo + Vec2::new(2.0, 2.0), hi - Vec2::new(2.0, 2.0)))
            .collect();
        MultiApWorld::new(cfg, pts, seed)
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Number of APs.
    pub fn n_aps(&self) -> usize {
        self.channels.len()
    }

    /// Position of AP `i`.
    pub fn ap_pos(&self, i: usize) -> Vec2 {
        self.cfg.ap_positions[i]
    }

    /// The ray channel of AP `i` (for beamforming experiments).
    pub fn channel(&self, i: usize) -> &RayChannel {
        &self.channels[i]
    }

    /// Advances the world to `t` and returns the client state plus every
    /// AP's measurements.
    pub fn observe(&mut self, t: Nanos) -> WorldObservation {
        let positions = self.movers.advance_to(t);
        for (ch, idx) in self.channels.iter_mut().zip(&self.mobile_idx) {
            for (&ri, &p) in idx.iter().zip(&positions) {
                ch.reflectors_mut()[ri].pos = p;
            }
        }
        let pose = self.trajectory.pose_at(t);
        let aps = self
            .channels
            .iter()
            .map(|ch| {
                let true_csi = ch.csi_at(pose.pos, pose.heading);
                let snr_db = ch.snr_db(&true_csi);
                let csi = ch.with_estimation_noise(&true_csi, &mut self.rng);
                let rssi_dbm = (true_csi.rx_power_dbm(self.cfg.base.channel.tx_power_dbm)
                    + self.rng.normal(0.0, self.cfg.base.channel.rssi_noise_db))
                .round();
                ApView {
                    csi,
                    rssi_dbm,
                    snr_db,
                    distance_m: ch.distance_to(pose.pos),
                }
            })
            .collect();
        WorldObservation {
            at: t,
            pos: pose.pos,
            speed_mps: pose.speed,
            aps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::units::SECOND;

    fn corridor_world(seed: u64) -> MultiApWorld {
        MultiApWorld::new(
            WorldConfig::default(),
            vec![Vec2::new(4.0, 10.0), Vec2::new(46.0, 10.0)],
            seed,
        )
    }

    #[test]
    fn observation_covers_all_aps() {
        let mut w = corridor_world(1);
        let o = w.observe(0);
        assert_eq!(o.aps.len(), 6);
        assert!(o.aps.iter().all(|a| a.rssi_dbm < -20.0));
    }

    #[test]
    fn strongest_ap_follows_the_walk() {
        let mut w = corridor_world(2);
        // Near the west end, a west AP (0 or 3) should be strongest;
        // near the east end, an east AP (2 or 5).
        let start = w.observe(0).strongest_ap();
        assert!(start == 0 || start == 3, "west AP expected, got {start}");
        // 42 m at ~1.2 m/s: by 40 s the client is near the east end.
        let end = w.observe(40 * SECOND).strongest_ap();
        assert!(end == 2 || end == 5, "east AP expected, got {end}");
    }

    #[test]
    fn distances_change_during_walk() {
        let mut w = corridor_world(3);
        let d0 = w.observe(0).aps[2].distance_m;
        let d1 = w.observe(20 * SECOND).aps[2].distance_m;
        assert!((d0 - d1).abs() > 5.0, "{d0} vs {d1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = corridor_world(7);
        let mut b = corridor_world(7);
        let oa = a.observe(5 * SECOND);
        let ob = b.observe(5 * SECOND);
        assert_eq!(oa.pos, ob.pos);
        assert_eq!(oa.aps[0].rssi_dbm, ob.aps[0].rssi_dbm);
    }
}
