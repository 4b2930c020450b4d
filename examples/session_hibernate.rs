//! Session hibernation: serving a fleet far larger than the hot set.
//!
//! Serves the same pre-encoded fleet twice — once fully resident and
//! once with an aggressive hibernation policy that pages idle and
//! over-cap sessions out through the versioned snapshot codec (and a
//! live migration wave halfway through) — then proves the decision
//! logs are byte-identical and prints what hibernation bought:
//! resident session bytes bounded by the hot-set cap instead of the
//! client count, at the cost of fault-in latency on cold frames and
//! the wall time of each live migration.
//!
//! Run with: `cargo run --release --example session_hibernate`
//! Optional args: `[n_clients] [max_hot_per_shard]` (defaults 2000, 8).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::queue::Ticket;
use mobisense_serve::service::{decision_log_csv, ServeConfig, ServeReport, ShardEngine};
use mobisense_serve::SessionGauges;
use mobisense_session::{HibernationConfig, RetirePolicy};
use mobisense_util::units::{MILLISECOND, SECOND};

/// What one [`run`] produced.
struct RunOut {
    csv: String,
    report: ServeReport,
    /// Peak resident-bytes gauge sum observed along the way.
    peak: u64,
    /// Wall time of each migrate call, microseconds.
    migrate_us: Vec<f64>,
}

/// Serves the fleet time-major, migrating two clients at the halfway
/// mark.
fn run(cfg: &ServeConfig, fleet: &EncodedFleet) -> RunOut {
    let engine = ShardEngine::spawn(cfg).expect("spawn engine");
    let gauges: Vec<Arc<SessionGauges>> = engine.session_gauges().to_vec();
    let resident = |gauges: &[Arc<SessionGauges>]| -> u64 {
        gauges
            .iter()
            .map(|g| g.resident_bytes.load(Ordering::Relaxed))
            .sum()
    };

    let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
    let mut submitted = 0u64;
    let mut peak = 0u64;
    let mut migrate_us = Vec::new();
    for i in 0..max_frames {
        if i == max_frames / 2 {
            for s in fleet.streams.iter().take(2) {
                let to = (engine.route_of(s.client_id) + 1) % engine.n_shards();
                let t0 = Instant::now();
                engine.migrate(s.client_id, to).expect("migrate");
                migrate_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        for s in &fleet.streams {
            if i < s.n_frames {
                engine.submit(Ticket::untraced(), s.obs(i));
                submitted += 1;
                if submitted.is_multiple_of(1024) {
                    peak = peak.max(resident(&gauges));
                }
            }
        }
    }
    let (decisions, report) = engine.finish(submitted);
    peak = peak.max(resident(&gauges));
    RunOut {
        csv: decision_log_csv(&decisions),
        report,
        peak,
        migrate_us,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_clients: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let max_hot: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let fleet_cfg = FleetConfig {
        n_clients,
        duration: 20 * SECOND,
        step: 100 * MILLISECOND,
        base_seed: 513,
        ..FleetConfig::default()
    };
    println!(
        "generating {} clients x {} frames...",
        n_clients,
        fleet_cfg.frames_per_client()
    );
    let fleet = EncodedFleet::generate(&fleet_cfg);

    let base = ServeConfig::default();
    let hibernating = ServeConfig {
        hibernation: HibernationConfig {
            idle_after: Some(300 * MILLISECOND),
            max_hot: Some(max_hot),
            policy: RetirePolicy::Hibernate,
        },
        ..base.clone()
    };

    println!("serving fully resident...");
    let gold = run(&base, &fleet);
    println!(
        "serving with hibernation (idle 300 ms, max {} hot per shard)...",
        max_hot
    );
    let hib = run(&hibernating, &fleet);

    assert_eq!(
        gold.csv, hib.csv,
        "hibernation/migration changed the decision log"
    );
    println!();
    println!(
        "decision log: {} decisions, byte-identical with hibernation on/off \
         (migrations included)",
        gold.report.decisions
    );
    let s = &hib.report.sessions;
    println!(
        "sessions: {} hibernated, {} restored, {} migrated; {} hot / {} paged out at exit",
        s.hibernated, s.restored, s.migrations, s.hot_final, s.hibernated_final
    );
    println!(
        "peak resident session bytes: {} resident-only vs {} hibernating ({:.1}%)",
        gold.peak,
        hib.peak,
        100.0 * hib.peak as f64 / gold.peak.max(1) as f64
    );
    let q = |p: f64| hib.report.fault_in_ns.quantile(p).unwrap_or(0.0) / 1e3;
    println!(
        "fault-in latency: p50 {:.1} us, p99 {:.1} us over {} restores",
        q(0.50),
        q(0.99),
        s.restored
    );
    println!(
        "migrate latency: mean {:.1} us over {} moves",
        hib.migrate_us.iter().sum::<f64>() / hib.migrate_us.len().max(1) as f64,
        hib.migrate_us.len()
    );
    println!(
        "throughput: {:.0} frames/sec resident, {:.0} frames/sec hibernating",
        gold.report.frames_per_sec(),
        hib.report.frames_per_sec()
    );
}
