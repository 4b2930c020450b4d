//! Fleet serving: one controller classifying a thousand clients at once.
//!
//! Generates a synthetic building population (parked phones, handled
//! phones, people walking) as pre-encoded wire streams, then replays it
//! through the sharded serving layer with load shedding enabled —
//! printing throughput, shed rate, decision latency and the per-mode
//! decision mix.
//!
//! Run with: `cargo run --release --example serve_in_process`
//! Optional args: `[n_clients] [sim_minutes]` (defaults 1000, 2).

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::queue::OverflowPolicy;
use mobisense_serve::service::{serve_streams, ServeConfig};
use mobisense_telemetry::{Event, Telemetry};
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_clients: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let sim_minutes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    let fleet_cfg = FleetConfig {
        n_clients,
        duration: sim_minutes * 60 * SECOND,
        step: 100 * MILLISECOND,
        base_seed: 42,
        ..FleetConfig::default()
    };
    println!(
        "generating {} clients x {} sim-minutes ({} frames each)...",
        n_clients,
        sim_minutes,
        fleet_cfg.frames_per_client()
    );
    let t0 = std::time::Instant::now();
    let fleet = EncodedFleet::generate(&fleet_cfg);
    println!(
        "fleet ready in {:.1} s: {} frames, {:.1} MiB on the wire",
        t0.elapsed().as_secs_f64(),
        fleet.total_frames(),
        fleet.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    let cfg = ServeConfig {
        n_shards: 4,
        queue_capacity: 256,
        overflow: OverflowPolicy::ShedOldestPerClient,
        ..ServeConfig::default()
    };
    let mut tel = Telemetry::new();
    let (decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut tel);

    println!();
    println!(
        "served {} frames in {:.2} s ({:.0} frames/sec) across {} shards",
        report.frames_processed,
        report.wall.as_secs_f64(),
        report.frames_per_sec(),
        cfg.n_shards
    );
    println!(
        "decisions: {} ({:.0}/sec wall clock), shed rate {:.2}% ({} of {} frames)",
        report.decisions,
        report.decisions as f64 / report.wall.as_secs_f64().max(1e-9),
        100.0 * report.shed_rate(),
        report.shed,
        report.frames_in
    );
    println!(
        "(producers replay the fleet at memory speed rather than real time, so the \
         shed rate shows the overload path working, not a real-time deficit)"
    );
    let q = |p: f64| report.latency_ns.quantile(p).unwrap_or(f64::NAN) / 1e3;
    println!(
        "decision latency: p50 {:.1} us, p99 {:.1} us; peak queue depth {}",
        q(0.50),
        q(0.99),
        report
            .per_shard
            .iter()
            .map(|s| s.max_depth)
            .max()
            .unwrap_or(0)
    );

    println!();
    println!("decision mix (mode transitions, post warm-up):");
    for (label, n) in ["static", "environmental", "micro", "macro"]
        .iter()
        .zip(report.per_mode)
    {
        println!("  {label:<14} {n}");
    }
    let roams = decisions
        .iter()
        .filter(|d| d.policy.encourage_roaming)
        .count();
    println!("  of which {roams} macro-away transitions armed roaming");

    println!();
    println!("per-shard accounting (from telemetry events):");
    for e in tel.events() {
        if let Event::ServeShard {
            shard,
            frames,
            decisions,
            shed,
            max_depth,
            ..
        } = e
        {
            println!(
                "  shard {shard}: {frames} frames, {decisions} decisions, \
                 {shed} shed, max depth {max_depth}"
            );
        }
    }
}
