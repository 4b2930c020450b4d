//! Client roaming: association control and handoffs (paper section 3).
//!
//! Three schemes are implemented:
//!
//! * [`RoamingScheme::ClientDefault`] — what stock clients do: associate
//!   with the strongest AP, stay until RSSI falls below a threshold, then
//!   scan all channels (~200 ms outage) and associate with the strongest.
//! * [`RoamingScheme::SensorHint`] — the client-side scheme of
//!   Ravindranath et al.: when the accelerometer says the device is
//!   moving, scan periodically for better APs (paying the scan cost each
//!   time) and switch on a hysteresis margin.
//! * [`RoamingScheme::Controller`] — the paper's controller-based
//!   protocol: the current AP classifies the client's mobility; only when
//!   the client is *moving away* does the controller look for candidate
//!   APs (similar-or-better signal, client heading towards them per their
//!   ToF trend) and force a roam. Static, environmental, micro-mobility
//!   and towards-the-AP macro clients are left alone.

use mobisense_core::classifier::{Classification, ClassifierConfig, MobilityClassifier};
use mobisense_core::trend::{Trend, TrendConfig, TrendDetector};
use mobisense_mobility::Direction;
use mobisense_phy::airtime;
use mobisense_phy::per::{self, REF_MPDU_BITS};
use mobisense_phy::tof::{TofConfig, TofSampler};
use mobisense_telemetry::{Event, NoopSink, Sink};
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};
use mobisense_util::DetRng;

use crate::wlan::{MultiApWorld, WorldObservation};

/// Which roaming protocol the client/network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoamingScheme {
    /// Stock client: roam only when the signal floor is breached.
    ClientDefault,
    /// Accelerometer-hinted periodic scanning (client-side).
    SensorHint,
    /// The paper's controller-based mobility-aware roaming (AP-side).
    Controller,
}

impl RoamingScheme {
    /// Scheme label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            RoamingScheme::ClientDefault => "default",
            RoamingScheme::SensorHint => "sensor-hint",
            RoamingScheme::Controller => "controller",
        }
    }
}

/// Roaming machinery parameters.
#[derive(Clone, Debug)]
pub struct RoamingConfig {
    /// Scheme under test.
    pub scheme: RoamingScheme,
    /// Default scheme's roam trigger: scan when RSSI drops below this.
    pub rssi_floor_dbm: f64,
    /// Full scan + reassociation outage (paper: ~200 ms; 40 ms with
    /// 802.11r fast BSS transition).
    pub handoff_outage: Nanos,
    /// Sensor-hint scheme's scan interval while moving.
    pub scan_interval: Nanos,
    /// Hysteresis for switching to a new AP (dB).
    pub hysteresis_db: f64,
    /// Controller: a neighbour is a candidate if its RSSI is within this
    /// margin of (or better than) the current AP's.
    pub candidate_margin_db: f64,
    /// Controller: minimum time between forced roams.
    pub roam_cooldown: Nanos,
    /// Classifier configuration (controller scheme).
    pub classifier: ClassifierConfig,
    /// ToF model (controller scheme).
    pub tof: TofConfig,
}

impl Default for RoamingConfig {
    fn default() -> Self {
        RoamingConfig {
            scheme: RoamingScheme::ClientDefault,
            rssi_floor_dbm: -75.0,
            handoff_outage: 200 * MILLISECOND,
            scan_interval: 5 * SECOND,
            hysteresis_db: 5.0,
            candidate_margin_db: 3.0,
            roam_cooldown: 5 * SECOND,
            classifier: ClassifierConfig::default(),
            tof: TofConfig::default(),
        }
    }
}

impl RoamingConfig {
    /// Config for a given scheme with defaults elsewhere.
    pub fn for_scheme(scheme: RoamingScheme) -> Self {
        RoamingConfig {
            scheme,
            ..Default::default()
        }
    }
}

/// Client association state at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Association {
    /// Index of the associated AP.
    pub ap: usize,
    /// True while scanning/reassociating (no data flows).
    pub in_outage: bool,
}

/// The roaming state machine. Feed it one [`WorldObservation`] per step.
pub struct Roamer {
    cfg: RoamingConfig,
    current: usize,
    outage_until: Nanos,
    last_scan: Nanos,
    last_roam: Nanos,
    handoffs: u32,
    // Controller internals.
    classifier: MobilityClassifier,
    tof_samplers: Vec<TofSampler>,
    neighbor_trends: Vec<TrendDetector>,
    /// Latest classification (exposed for the end-to-end simulator).
    last_classification: Option<Classification>,
    initialized: bool,
}

impl Roamer {
    /// Creates a roamer for a world with `n_aps` APs, initially
    /// unassociated (the first observation picks the strongest AP).
    pub fn new(cfg: RoamingConfig, n_aps: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x726f616d);
        let tof_samplers = (0..n_aps)
            .map(|i| TofSampler::new(cfg.tof.clone(), 0, rng.fork(&format!("tof-{i}"))))
            .collect();
        let trend_cfg = TrendConfig::default();
        Roamer {
            classifier: MobilityClassifier::new(cfg.classifier.clone()),
            cfg,
            current: 0,
            outage_until: 0,
            last_scan: 0,
            last_roam: 0,
            handoffs: 0,
            tof_samplers,
            neighbor_trends: (0..n_aps).map(|_| TrendDetector::new(trend_cfg)).collect(),
            last_classification: None,
            initialized: false,
        }
    }

    /// Handoffs performed so far.
    pub fn handoffs(&self) -> u32 {
        self.handoffs
    }

    /// The latest mobility classification (controller scheme only).
    pub fn classification(&self) -> Option<Classification> {
        self.last_classification
    }

    fn start_roam<S: Sink + ?Sized>(&mut self, now: Nanos, target: usize, sink: &mut S) {
        if target == self.current {
            return;
        }
        if sink.enabled() {
            sink.record(Event::Handoff {
                at: now,
                from_ap: self.current as u32,
                to_ap: target as u32,
            });
        }
        self.current = target;
        self.outage_until = now + self.cfg.handoff_outage;
        self.last_roam = now;
        self.handoffs += 1;
        self.classifier.reset();
    }

    /// Advances the state machine and returns the current association.
    pub fn step(&mut self, obs: &WorldObservation) -> Association {
        self.step_with(obs, &mut NoopSink)
    }

    /// [`Roamer::step`] with telemetry: each completed handoff becomes
    /// an [`Event::Handoff`] and (controller scheme) each mobility
    /// classification an [`Event::Decision`].
    pub fn step_with<S: Sink + ?Sized>(
        &mut self,
        obs: &WorldObservation,
        sink: &mut S,
    ) -> Association {
        let now = obs.at;
        if !self.initialized {
            self.initialized = true;
            self.current = obs.strongest_ap();
        }
        let in_outage = now < self.outage_until;

        // Per-AP ToF pipelines run regardless of scheme (they are cheap
        // NULL-frame exchanges); only the controller consults them.
        for (i, s) in self.tof_samplers.iter_mut().enumerate() {
            if let Some(m) = s.poll(now, obs.aps[i].distance_m) {
                self.neighbor_trends[i].push(m.cycles);
                if i == self.current {
                    self.classifier.on_tof_median(m.cycles);
                }
            }
        }

        if in_outage {
            return Association {
                ap: self.current,
                in_outage: true,
            };
        }

        match self.cfg.scheme {
            RoamingScheme::ClientDefault => {
                if obs.aps[self.current].rssi_dbm < self.cfg.rssi_floor_dbm {
                    let best = obs.strongest_ap();
                    if best != self.current {
                        self.start_roam(now, best, sink);
                    } else {
                        // Scanned and found nothing better: pay the scan
                        // cost anyway and back off one interval.
                        self.outage_until = now + self.cfg.handoff_outage;
                        self.last_scan = now;
                    }
                }
            }
            RoamingScheme::SensorHint => {
                let moving = obs.speed_mps > 0.05;
                let due = now.saturating_sub(self.last_scan) >= self.cfg.scan_interval;
                let floor_breach = obs.aps[self.current].rssi_dbm < self.cfg.rssi_floor_dbm;
                if floor_breach || (moving && due) {
                    self.last_scan = now;
                    // Scanning costs the outage whether or not we switch.
                    self.outage_until = now + self.cfg.handoff_outage;
                    let best = obs.strongest_ap();
                    if best != self.current
                        && obs.aps[best].rssi_dbm
                            >= obs.aps[self.current].rssi_dbm + self.cfg.hysteresis_db
                    {
                        self.start_roam(now, best, sink);
                    }
                }
            }
            RoamingScheme::Controller => {
                // The current AP classifies the client from its CSI.
                if let Some(c) =
                    self.classifier
                        .on_frame_csi_with(now, &obs.aps[self.current].csi, sink)
                {
                    self.last_classification = Some(c);
                }
                let floor_breach = obs.aps[self.current].rssi_dbm < self.cfg.rssi_floor_dbm;
                if floor_breach {
                    // The client's own last-resort behaviour still exists.
                    let best = obs.strongest_ap();
                    if best != self.current {
                        self.start_roam(now, best, sink);
                    }
                    return Association {
                        ap: self.current,
                        in_outage: now < self.outage_until,
                    };
                }
                let moving_away =
                    self.last_classification == Some(Classification::macro_with(Direction::Away));
                let cooled = now.saturating_sub(self.last_roam) >= self.cfg.roam_cooldown;
                if moving_away && cooled {
                    // Candidate set: neighbours the client is moving
                    // towards, with similar-or-better signal.
                    let cur_rssi = obs.aps[self.current].rssi_dbm;
                    let best_candidate = (0..obs.aps.len())
                        .filter(|&i| i != self.current)
                        .filter(|&i| {
                            self.neighbor_trends[i].current() == Trend::Decreasing
                                && obs.aps[i].rssi_dbm >= cur_rssi - self.cfg.candidate_margin_db
                        })
                        .max_by(|&a, &b| {
                            obs.aps[a]
                                .rssi_dbm
                                .partial_cmp(&obs.aps[b].rssi_dbm)
                                .expect("finite RSSI")
                        });
                    if let Some(t) = best_candidate {
                        self.start_roam(now, t, sink);
                    }
                }
            }
        }

        Association {
            ap: self.current,
            in_outage: now < self.outage_until,
        }
    }
}

/// Expected MAC-layer throughput (Mbps) of a saturated downlink at the
/// given mean link SNR, using the oracle rate and a stock 4 ms
/// aggregation window. Used to score roaming decisions, exactly as the
/// paper computes "expected throughput from different APs" from RSSI
/// (section 3.1, citing CSpy-style estimation).
pub fn expected_throughput_mbps(snr_db: f64) -> f64 {
    let mcs = per::oracle_mcs(snr_db, REF_MPDU_BITS);
    let n = airtime::mpdus_for_time_limit(mcs, 1500, 4 * MILLISECOND);
    let t = airtime::ampdu_exchange(mcs, n, 1500) as f64 / 1e9;
    let p = per::mpdu_error_prob(snr_db, mcs, REF_MPDU_BITS);
    (n as f64 * 1500.0 * 8.0 * (1.0 - p)) / t / 1e6
}

/// Result of one roaming run.
#[derive(Clone, Debug)]
pub struct RoamingStats {
    /// Time-averaged expected throughput over the run (Mbps).
    pub mean_mbps: f64,
    /// Number of handoffs.
    pub handoffs: u32,
    /// Fraction of time spent in scan/handoff outage.
    pub outage_fraction: f64,
}

/// Runs a roaming scheme over a world for `duration`, stepping every
/// `step`, and returns aggregate statistics.
pub fn run_roaming(
    world: &mut MultiApWorld,
    cfg: RoamingConfig,
    duration: Nanos,
    step: Nanos,
    seed: u64,
) -> RoamingStats {
    run_roaming_with(world, cfg, duration, step, seed, &mut NoopSink)
}

/// [`run_roaming`] with telemetry threaded into the [`Roamer`], and the
/// whole run wall-clock timed under the `net.run_roaming` span.
pub fn run_roaming_with<S: Sink + ?Sized>(
    world: &mut MultiApWorld,
    cfg: RoamingConfig,
    duration: Nanos,
    step: Nanos,
    seed: u64,
    sink: &mut S,
) -> RoamingStats {
    mobisense_telemetry::timed(sink, "net.run_roaming", |sink| {
        let mut roamer = Roamer::new(cfg, world.n_aps(), seed);
        let mut t: Nanos = 0;
        let mut tp_sum = 0.0;
        let mut outage_steps = 0u64;
        let mut steps = 0u64;
        while t <= duration {
            let obs = world.observe(t);
            let assoc = roamer.step_with(&obs, sink);
            steps += 1;
            if assoc.in_outage {
                outage_steps += 1;
            } else {
                tp_sum += expected_throughput_mbps(obs.aps[assoc.ap].snr_db);
            }
            t += step;
        }
        RoamingStats {
            mean_mbps: tp_sum / steps as f64,
            handoffs: roamer.handoffs(),
            outage_fraction: outage_steps as f64 / steps as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wlan::WorldConfig;
    use mobisense_util::Vec2;

    fn corridor(seed: u64) -> MultiApWorld {
        MultiApWorld::new(
            WorldConfig::default(),
            vec![Vec2::new(4.0, 10.0), Vec2::new(46.0, 10.0)],
            seed,
        )
    }

    const STEP: Nanos = 20 * MILLISECOND;

    #[test]
    fn expected_throughput_monotone_in_snr() {
        let mut last = 0.0;
        for snr in (0..45).step_by(5) {
            let tp = expected_throughput_mbps(snr as f64);
            assert!(tp >= last, "tp dropped at {snr} dB");
            last = tp;
        }
        assert!(expected_throughput_mbps(40.0) > 100.0);
    }

    #[test]
    fn first_step_associates_strongest() {
        let mut w = corridor(1);
        let obs = w.observe(0);
        let mut r = Roamer::new(
            RoamingConfig::for_scheme(RoamingScheme::ClientDefault),
            w.n_aps(),
            1,
        );
        let a = r.step(&obs);
        assert_eq!(a.ap, obs.strongest_ap());
        assert!(!a.in_outage);
    }

    #[test]
    fn default_scheme_roams_eventually_on_long_walk() {
        // Walking 42 m across a 6-AP floor must eventually breach the
        // RSSI floor of the first AP and trigger a handoff.
        let mut w = corridor(2);
        let stats = run_roaming(
            &mut w,
            RoamingConfig::for_scheme(RoamingScheme::ClientDefault),
            40 * SECOND,
            STEP,
            2,
        );
        assert!(stats.handoffs >= 1, "no handoff on a 42 m walk");
        assert!(stats.mean_mbps > 10.0);
    }

    #[test]
    fn controller_roams_earlier_than_default() {
        // The controller acts on "moving away" long before the RSSI
        // floor is breached, so its average association quality (and
        // hence throughput) should be at least as good.
        let mut wd = corridor(3);
        let d = run_roaming(
            &mut wd,
            RoamingConfig::for_scheme(RoamingScheme::ClientDefault),
            40 * SECOND,
            STEP,
            3,
        );
        let mut wc = corridor(3);
        let c = run_roaming(
            &mut wc,
            RoamingConfig::for_scheme(RoamingScheme::Controller),
            40 * SECOND,
            STEP,
            3,
        );
        assert!(c.handoffs >= 1, "controller never roamed");
        assert!(
            c.mean_mbps > d.mean_mbps * 0.95,
            "controller {:.1} Mbps vs default {:.1} Mbps",
            c.mean_mbps,
            d.mean_mbps
        );
    }

    #[test]
    fn sensor_hint_pays_scan_overhead() {
        let mut w = corridor(4);
        let s = run_roaming(
            &mut w,
            RoamingConfig::for_scheme(RoamingScheme::SensorHint),
            40 * SECOND,
            STEP,
            4,
        );
        // Periodic scans while moving: noticeable outage fraction.
        assert!(s.outage_fraction > 0.01, "outage {}", s.outage_fraction);
    }

    #[test]
    fn instrumented_roaming_traces_handoffs() {
        use mobisense_telemetry::Telemetry;
        let mut w = corridor(2);
        let mut tel = Telemetry::new();
        let stats = run_roaming_with(
            &mut w,
            RoamingConfig::for_scheme(RoamingScheme::ClientDefault),
            40 * SECOND,
            STEP,
            2,
            &mut tel,
        );
        let handoffs: Vec<(Nanos, u32, u32)> = tel
            .events()
            .filter_map(|e| match *e {
                mobisense_telemetry::Event::Handoff { at, from_ap, to_ap } => {
                    Some((at, from_ap, to_ap))
                }
                _ => None,
            })
            .collect();
        assert_eq!(handoffs.len() as u32, stats.handoffs);
        // One event per actual re-association, never a self-handoff, and
        // timestamps strictly increase.
        for h in &handoffs {
            assert_ne!(h.1, h.2);
        }
        assert!(handoffs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(tel.registry.histogram_snapshot("net.run_roaming").is_some());
    }

    #[test]
    fn controller_leaves_static_clients_alone() {
        // A static client parked near an AP: the controller must not
        // force any roams.
        let mut w = MultiApWorld::new(
            WorldConfig::default(),
            vec![Vec2::new(10.0, 6.0), Vec2::new(10.0, 6.05)],
            5,
        );
        let stats = run_roaming(
            &mut w,
            RoamingConfig::for_scheme(RoamingScheme::Controller),
            30 * SECOND,
            STEP,
            5,
        );
        assert_eq!(stats.handoffs, 0, "roamed a static client");
        assert_eq!(stats.outage_fraction, 0.0);
    }
}
