//! Output checks: a sample of clients is re-served in-process and must
//! decide exactly what the workload decided.
//!
//! Sessions are seeded per client id and consume their own frames in
//! `seq` order, so serving a client alone, at one shard, with sessions
//! always resident, reproduces its rows of any run's decision log
//! exactly — whatever sockets, shard counts or hibernation the run used.

use std::collections::BTreeSet;
use std::io;

use mobisense_serve::{decision_log_csv, ServeConfig, ServeDecision, ShardEngine, Ticket};
use mobisense_session::HibernationConfig;

use crate::load::Plan;

/// Every `RESERVE_EVERY`-th client id is re-served.
pub const RESERVE_EVERY: u32 = 64;

/// Re-serves every [`RESERVE_EVERY`]-th client that received frames —
/// exactly the frames it received, given each lane's sent count — and
/// compares its decision rows with its rows in `log`. Returns how many
/// clients were checked.
pub fn reserve_sample(
    plan: &Plan,
    lane_sent: &[u64],
    cfg: &ServeConfig,
    log: &[ServeDecision],
) -> io::Result<Result<usize, String>> {
    let reached = plan.clients_reached(lane_sent);
    let sample: Vec<(u32, u64)> = (0..reached)
        .step_by(RESERVE_EVERY as usize)
        .map(|id| {
            (
                id,
                plan.frames_sent(id, lane_sent[plan.lane_of(id) as usize]),
            )
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    let alone = ServeConfig {
        n_shards: 1,
        hibernation: HibernationConfig::default(),
        stage_sampling: 0,
        snapshot: None,
        ..cfg.clone()
    };
    let engine = ShardEngine::spawn(&alone)?;
    let mut submitted = 0u64;
    for &(id, n) in &sample {
        for frame in plan.client_frames(id, n) {
            engine.submit(Ticket::untraced(), frame);
            submitted += 1;
        }
    }
    let (got, _) = engine.finish(submitted);
    let ids: BTreeSet<u32> = sample.iter().map(|&(id, _)| id).collect();
    let want: Vec<ServeDecision> = log
        .iter()
        .filter(|d| ids.contains(&d.client_id))
        .copied()
        .collect();
    Ok(compare_rows(&want, &got).map(|()| sample.len()))
}

/// Compares two decision logs row by row, naming the first difference.
pub fn compare_rows(want: &[ServeDecision], got: &[ServeDecision]) -> Result<(), String> {
    let (want, got) = (decision_log_csv(want), decision_log_csv(got));
    if want == got {
        return Ok(());
    }
    let (w, g) = (want.lines().count() - 1, got.lines().count() - 1);
    let first = want
        .lines()
        .zip(got.lines())
        .find(|(a, b)| a != b)
        .map_or_else(String::new, |(a, b)| {
            format!(": first difference `{a}` vs `{b}`")
        });
    Err(format!(
        "re-served decision rows differ from the workload's log ({w} rows vs {g}){first}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_serve::{EncodedFleet, FleetConfig};
    use mobisense_util::units::{MILLISECOND, SECOND};

    fn plan() -> Plan {
        let base = EncodedFleet::generate(&FleetConfig {
            n_clients: 3,
            duration: 9 * SECOND,
            step: 50 * MILLISECOND,
            base_seed: 11,
            gen_threads: 2,
            ..FleetConfig::default()
        })
        .streams;
        Plan::new(11, base, 128, 2, 0, 1)
    }

    /// Serves every frame the lanes carried, lane by lane, the way a
    /// socket run would hand them to the engine.
    fn serve_all(plan: &Plan, lane_sent: &[u64]) -> Vec<ServeDecision> {
        let engine = ShardEngine::spawn(&ServeConfig::default()).expect("engine");
        let mut n = 0;
        for (lane, &sent) in lane_sent.iter().enumerate() {
            for i in 0..sent {
                engine.submit(Ticket::untraced(), plan.obs(lane as u32, i));
                n += 1;
            }
        }
        engine.finish(n).0
    }

    #[test]
    fn sampled_clients_match_and_an_injected_row_does_not() {
        let plan = plan();
        // A partial last step: some clients got one frame fewer.
        let lane_sent = [plan.steps() * 64 - 5, plan.steps() * 64 - 9];
        let mut log = serve_all(&plan, &lane_sent);
        assert!(
            log.iter().any(|d| d.client_id == 64),
            "sampled client decided"
        );
        let checked = reserve_sample(&plan, &lane_sent, &ServeConfig::default(), &log)
            .expect("engine")
            .expect("rows match");
        assert_eq!(checked, 2);

        let row = log.iter().position(|d| d.client_id == 64).expect("row");
        log[row].seq += 1;
        let err = reserve_sample(&plan, &lane_sent, &ServeConfig::default(), &log)
            .expect("engine")
            .expect_err("mismatch caught");
        assert!(err.contains("first difference"), "{err}");
    }
}
