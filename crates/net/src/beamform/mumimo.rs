//! Zero-forcing MU-MIMO emulation (paper section 6.2).
//!
//! The paper could not run MU-MIMO on its 802.11n testbed, so it fed
//! simultaneously collected CSI traces from three single-antenna laptops
//! into a trace-driven emulator. We reproduce that methodology: three
//! single-receive-antenna clients (one each in environmental, micro- and
//! macro-mobility) share one 3-antenna AP; the emulator computes the
//! zero-forcing precoder from each client's *last fed back* CSI and
//! evaluates the resulting SINR against the *current* channels —
//! stale feedback turns into inter-user interference leakage, which is
//! what makes per-client feedback periods matter (Figure 12).

use mobisense_core::scenario::{Scenario, ScenarioConfig, ScenarioKind};
use mobisense_mobility::movers::EnvIntensity;
use mobisense_phy::csi::Csi;
use mobisense_util::linalg::CMat;
use mobisense_util::units::Nanos;
use mobisense_util::{DetRng, C64};

use crate::beamform::CSI_FEEDBACK_AIRTIME;

/// Number of clients the emulator serves concurrently.
pub const N_CLIENTS: usize = 3;

/// The MU-MIMO emulator: one AP with three antennas, three
/// single-antenna clients with independent mobility scenarios.
pub struct MuMimoEmulator {
    scenarios: Vec<Scenario>,
    /// Last fed-back CSI per client.
    fed_back: Vec<Option<Csi>>,
    /// Feedback schedule per client.
    next_feedback: Vec<Nanos>,
    rng: DetRng,
}

/// Per-client throughput result of an emulation run.
#[derive(Clone, Debug)]
pub struct MuMimoStats {
    /// Per-client goodput (Mbps), ordered as the input scenarios.
    pub per_client_mbps: Vec<f64>,
    /// Sum goodput (Mbps).
    pub total_mbps: f64,
    /// Total CSI feedbacks across clients.
    pub feedbacks: u64,
}

impl MuMimoEmulator {
    /// Builds the emulator with the paper's client mix: one client each
    /// in environmental, micro- and macro-mobility.
    pub fn paper_mix(seed: u64) -> Self {
        let kinds = [
            ScenarioKind::Environmental(EnvIntensity::Strong),
            ScenarioKind::Micro,
            ScenarioKind::MacroRandom,
        ];
        MuMimoEmulator::with_kinds(&kinds, seed)
    }

    /// Builds the emulator with arbitrary client scenarios.
    pub fn with_kinds(kinds: &[ScenarioKind; N_CLIENTS], seed: u64) -> Self {
        let scenarios = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let mut cfg = ScenarioConfig::default();
                cfg.channel.n_rx = 1; // single-antenna laptops
                Scenario::with_config(k, cfg, seed.wrapping_add(1000 * i as u64))
            })
            .collect();
        MuMimoEmulator {
            scenarios,
            fed_back: vec![None; N_CLIENTS],
            next_feedback: vec![0; N_CLIENTS],
            rng: DetRng::seed_from_u64(seed ^ 0x6d756d69),
        }
    }

    /// Runs the emulation for `duration` with per-client CSI feedback
    /// periods, transmitting one MU-MIMO slot every `slot`.
    pub fn run(
        &mut self,
        feedback_periods: [Nanos; N_CLIENTS],
        slot: Nanos,
        duration: Nanos,
    ) -> MuMimoStats {
        assert!(feedback_periods.iter().all(|&p| p > 0));
        let mut now: Nanos = 0;
        let mut bits = [0u64; N_CLIENTS];
        let mut feedbacks = 0u64;
        for f in self.next_feedback.iter_mut() {
            *f = 0;
        }

        while now < duration {
            // Feedback phase: any client due for feedback sounds now.
            // (Indexes four parallel per-client arrays, so a range loop
            // is the clearest form.)
            #[allow(clippy::needless_range_loop)]
            for k in 0..N_CLIENTS {
                if now >= self.next_feedback[k] {
                    let obs = self.scenarios[k].observe(now);
                    self.fed_back[k] = Some(obs.csi);
                    self.next_feedback[k] = now + feedback_periods[k];
                    feedbacks += 1;
                    now += CSI_FEEDBACK_AIRTIME;
                }
            }
            if self.fed_back.iter().any(|f| f.is_none()) {
                now += slot;
                continue;
            }
            let slot_bits = self.transmit_slot(now, slot);
            for k in 0..N_CLIENTS {
                bits[k] += slot_bits[k];
            }
            now += slot;
        }

        let secs = duration as f64 / 1e9;
        let per_client: Vec<f64> = bits.iter().map(|&b| b as f64 / secs / 1e6).collect();
        MuMimoStats {
            total_mbps: per_client.iter().sum(),
            per_client_mbps: per_client,
            feedbacks,
        }
    }

    /// One MU-MIMO transmission slot: zero-forcing precoder from the
    /// last fed-back CSI, SINR against the current channels, payload
    /// bits per client for this slot.
    fn transmit_slot(&mut self, now: Nanos, slot: Nanos) -> [u64; N_CLIENTS] {
        // Current true channels.
        let obs: Vec<_> = (0..N_CLIENTS)
            .map(|k| self.scenarios[k].observe(now))
            .collect();
        let current: Vec<Csi> = (0..N_CLIENTS)
            .map(|k| {
                self.scenarios[k]
                    .channel()
                    .csi_at(obs[k].pos, obs[k].heading)
            })
            .collect();
        // Per-client noise power in channel-gain units, recovered from
        // the true mean SNR and mean channel power.
        let noise: Vec<f64> = (0..N_CLIENTS)
            .map(|k| {
                let p = current[k].mean_power_gain() * current[k].n_tx() as f64;
                p / mobisense_util::units::db_to_ratio(obs[k].snr_db)
            })
            .collect();

        // Average per-client capacity across subcarriers.
        let n_sc = current[0].n_subcarriers();
        let mut cap = [0.0f64; N_CLIENTS];
        for sc in 0..n_sc {
            let stale = CMat::from_rows(
                &(0..N_CLIENTS)
                    .map(|k| {
                        self.fed_back[k]
                            .as_ref()
                            .expect("feedback checked by caller")
                            .tx_vector(0, sc)
                    })
                    .collect::<Vec<_>>(),
            );
            let Some(w) = stale.pinv_right() else {
                continue; // singular stale channel: skip subcarrier
            };
            // Power normalisation: total transmit power 1.
            let beta = 1.0 / w.fro_norm();
            for k in 0..N_CLIENTS {
                let h_now = current[k].tx_vector(0, sc);
                let mut signal = 0.0;
                let mut interference = 0.0;
                for j in 0..N_CLIENTS {
                    let wj: Vec<C64> = w.col(j);
                    let rx = mobisense_util::linalg::dot(&h_now, &wj);
                    let p = rx.norm_sq() * beta * beta;
                    if j == k {
                        signal = p;
                    } else {
                        interference += p;
                    }
                }
                let sinr = signal / (noise[k] + interference);
                cap[k] += (1.0 + sinr).log2();
            }
        }
        // Capacity-equivalent SINR -> rate via the MCS ladder.
        let mut bits = [0u64; N_CLIENTS];
        for k in 0..N_CLIENTS {
            let mean_cap = cap[k] / n_sc as f64;
            let sinr_eff = 2f64.powf(mean_cap) - 1.0;
            let sinr_db = 10.0 * sinr_eff.max(1e-6).log10();
            let mcs = crate::beamform::best_rate(sinr_db);
            // One spatial stream per client in MU-MIMO.
            let stream_rate = mcs.rate_bps() / mcs.streams() as f64;
            let p = mobisense_phy::per::mpdu_error_prob(
                sinr_db,
                mcs,
                mobisense_phy::per::REF_MPDU_BITS,
            );
            // 80% of the slot carries payload (preamble + BA gaps).
            let payload_secs = slot as f64 / 1e9 * 0.8;
            let ok = if self.rng.chance(p) { 0.0 } else { 1.0 };
            bits[k] = (stream_rate * payload_secs * ok) as u64;
        }
        bits
    }
}

impl MuMimoEmulator {
    /// Runs the emulation with *mobility-aware per-client feedback
    /// periods*: each client's mobility is estimated every second by the
    /// paper's classifier pipeline running on that client's link, and
    /// the client's CSI feedback period follows Table 2
    /// (reproducing section 6.3 / Figure 12b).
    pub fn run_adaptive(&mut self, slot: Nanos, duration: Nanos) -> MuMimoStats {
        use mobisense_core::classifier::{ClassifierConfig, MobilityClassifier};
        use mobisense_core::policy::MobilityPolicy;
        use mobisense_phy::tof::{TofConfig, TofSampler};

        let mut classifiers: Vec<MobilityClassifier> = (0..N_CLIENTS)
            .map(|_| MobilityClassifier::new(ClassifierConfig::default()))
            .collect();
        let mut tofs: Vec<TofSampler> = (0..N_CLIENTS)
            .map(|k| TofSampler::new(TofConfig::default(), 0, self.rng.fork(&format!("tof-{k}"))))
            .collect();
        let period_for = |c: Option<mobisense_core::classifier::Classification>| {
            c.map(|c| MobilityPolicy::for_classification(c).mu_mimo_feedback_period)
                .unwrap_or_else(|| MobilityPolicy::oblivious_default().mu_mimo_feedback_period)
        };

        // Same structure as `run`, with per-step period recomputation.
        assert!(slot > 0);
        let mut now: Nanos = 0;
        let mut bits = [0u64; N_CLIENTS];
        let mut feedbacks = 0u64;
        for f in self.next_feedback.iter_mut() {
            *f = 0;
        }

        while now < duration {
            for k in 0..N_CLIENTS {
                // Classification pipeline per client.
                let obs = self.scenarios[k].observe(now);
                if let Some(m) = tofs[k].poll(now, obs.distance_m) {
                    classifiers[k].on_tof_median(m.cycles);
                }
                classifiers[k].on_frame_csi(now, &obs.csi);
                if now >= self.next_feedback[k] {
                    self.fed_back[k] = Some(obs.csi);
                    self.next_feedback[k] = now + period_for(classifiers[k].current());
                    feedbacks += 1;
                    now += CSI_FEEDBACK_AIRTIME;
                }
            }
            if self.fed_back.iter().any(|f| f.is_none()) {
                now += slot;
                continue;
            }
            let slot_bits = self.transmit_slot(now, slot);
            for k in 0..N_CLIENTS {
                bits[k] += slot_bits[k];
            }
            now += slot;
        }

        let secs = duration as f64 / 1e9;
        let per_client: Vec<f64> = bits.iter().map(|&b| b as f64 / secs / 1e6).collect();
        MuMimoStats {
            total_mbps: per_client.iter().sum(),
            per_client_mbps: per_client,
            feedbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_util::units::{MILLISECOND, SECOND};

    #[test]
    fn produces_throughput_for_all_clients() {
        let mut e = MuMimoEmulator::paper_mix(1);
        let s = e.run([200 * MILLISECOND; 3], 2 * MILLISECOND, 5 * SECOND);
        assert_eq!(s.per_client_mbps.len(), 3);
        for (k, tp) in s.per_client_mbps.iter().enumerate() {
            assert!(*tp > 1.0, "client {k} starved: {tp} Mbps");
        }
        assert!(s.feedbacks >= 3 * 25);
    }

    #[test]
    fn fresh_feedback_beats_stale_for_mobile_client() {
        // Macro client (index 2) with fast vs slow feedback, everything
        // else equal.
        let mut e1 = MuMimoEmulator::paper_mix(2);
        let fast = e1.run(
            [200 * MILLISECOND, 200 * MILLISECOND, 20 * MILLISECOND],
            2 * MILLISECOND,
            5 * SECOND,
        );
        let mut e2 = MuMimoEmulator::paper_mix(2);
        let slow = e2.run(
            [200 * MILLISECOND, 200 * MILLISECOND, 2000 * MILLISECOND],
            2 * MILLISECOND,
            5 * SECOND,
        );
        assert!(
            fast.per_client_mbps[2] > slow.per_client_mbps[2] * 1.2,
            "macro client: fast {:.1} vs slow {:.1}",
            fast.per_client_mbps[2],
            slow.per_client_mbps[2]
        );
    }

    #[test]
    fn stale_mobile_csi_mostly_hurts_the_mobile_client() {
        // Degrading only the macro client's feedback must not crater the
        // static-ish clients (the paper's observation that MU-MIMO
        // precoding errors mainly hurt the corresponding client).
        let mut e1 = MuMimoEmulator::paper_mix(3);
        let good = e1.run(
            [100 * MILLISECOND, 100 * MILLISECOND, 20 * MILLISECOND],
            2 * MILLISECOND,
            5 * SECOND,
        );
        let mut e2 = MuMimoEmulator::paper_mix(3);
        let bad = e2.run(
            [100 * MILLISECOND, 100 * MILLISECOND, 2000 * MILLISECOND],
            2 * MILLISECOND,
            5 * SECOND,
        );
        let env_drop =
            (good.per_client_mbps[0] - bad.per_client_mbps[0]) / good.per_client_mbps[0].max(1e-9);
        let macro_drop =
            (good.per_client_mbps[2] - bad.per_client_mbps[2]) / good.per_client_mbps[2].max(1e-9);
        assert!(
            macro_drop > env_drop,
            "macro drop {macro_drop:.2} should exceed env drop {env_drop:.2}"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            MuMimoEmulator::paper_mix(9).run(
                [100 * MILLISECOND; N_CLIENTS],
                2 * MILLISECOND,
                2 * SECOND,
            )
        };
        assert_eq!(run().per_client_mbps, run().per_client_mbps);
    }
}
