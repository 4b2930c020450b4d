//! Live ops observability: per-frame stage tracing, periodic snapshot
//! JSONL, and the stall watchdog — on one serving run.
//!
//! Serves a synthetic fleet with 1-in-N stage sampling and the ops
//! monitor ticking in the background, then prints the per-stage
//! latency table the traces produced, the snapshot stream the monitor
//! captured (parsed back through the versioned JSONL schema), and a
//! deliberately gated shard to show the watchdog flagging a stall.
//!
//! Run with: `cargo run --release --example ops_snapshot`
//! Optional args: `[n_clients] [sample_every]` (defaults 200, 8).

use std::sync::Arc;
use std::time::Duration;

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::service::{serve_streams, ServeConfig};
use mobisense_serve::{
    ObsFrame, OpsMonitor, OverflowPolicy, ShardQueue, SnapshotPolicy, Ticket, WorkItem,
};
use mobisense_telemetry::{parse_snapshots, Event, Snapshot, Stage, Telemetry};
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_clients: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let sample_every: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let fleet_cfg = FleetConfig {
        n_clients,
        duration: 20 * SECOND,
        step: 20 * MILLISECOND,
        base_seed: 42,
        ..FleetConfig::default()
    };
    println!(
        "generating {} clients x {} frames...",
        n_clients,
        fleet_cfg.frames_per_client()
    );
    let fleet = EncodedFleet::generate(&fleet_cfg);

    // Stage tracing samples 1-in-N frames; the ops monitor snapshots
    // queue health every 5 ms and watches for stalls.
    let cfg = ServeConfig {
        stage_sampling: sample_every,
        snapshot: Some(SnapshotPolicy {
            interval: Duration::from_millis(5),
            stall_intervals: 2,
        }),
        ..ServeConfig::default()
    };
    let mut tel = Telemetry::new();
    let (_decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut tel);

    println!();
    println!(
        "served {} frames in {:.2} s ({:.0} frames/sec); {} frames carried a stage trace (1 in {})",
        report.frames_processed,
        report.wall.as_secs_f64(),
        report.frames_per_sec(),
        report.stages.traces(),
        sample_every,
    );
    println!();
    println!("per-stage latency (sampled traces):");
    println!(
        "  {:<12} {:>8} {:>12} {:>12}",
        "stage", "traces", "p50_ns", "p99_ns"
    );
    for stage in Stage::ALL {
        let h = report.stages.get(stage);
        if h.count() == 0 {
            continue;
        }
        let label = if stage == Stage::Ingest {
            "total"
        } else {
            stage.name()
        };
        let q = |p: f64| h.quantile(p).unwrap_or(f64::NAN);
        println!(
            "  {label:<12} {:>8} {:>12.0} {:>12.0}",
            h.count(),
            q(0.50),
            q(0.99)
        );
    }

    // The monitor's snapshot stream: versioned JSONL blocks, one per
    // tick, parseable by anything downstream.
    let snaps = parse_snapshots(&report.ops.snapshots.concat()).expect("snapshot stream parses");
    println!();
    println!(
        "ops monitor: {} snapshots over the run ({} Event::Snapshot in the sink)",
        snaps.len(),
        tel.events()
            .filter(|e| matches!(e, Event::Snapshot { .. }))
            .count()
    );
    if let Some(last) = snaps.last() {
        println!(
            "last snapshot (seq {}, wall {} ms):",
            last.seq,
            last.wall_ns / 1_000_000
        );
        for (name, v) in &last.counters {
            println!("  counter  {name:<26} {v}");
        }
        for (name, v) in &last.gauges {
            println!("  gauge    {name:<26} {v}");
        }
    }

    // Anything holding a registry can snapshot on demand — here the
    // end-of-run report, stage histograms included.
    let end = Snapshot::capture(1, report.wall.as_nanos() as u64, &report.registry());
    println!();
    println!(
        "on-demand registry snapshot: {} metrics, {} bytes of JSONL",
        end.metrics(),
        end.to_jsonl().len()
    );

    // The watchdog, demonstrated honestly: a shard queue nobody pops
    // has frozen progress and pending work, so two quiet intervals flag
    // it. This is the signal a wedged worker would produce in
    // production.
    let gated = Arc::new(ShardQueue::new(16));
    for seq in 0..5 {
        let frame = ObsFrame {
            client_id: 9,
            seq,
            at: u64::from(seq),
            distance_m: 3.0,
            digest: vec![0.25; 4],
        };
        gated.push(
            WorkItem::frame(Ticket::untraced(), frame),
            OverflowPolicy::Block,
        );
    }
    let monitor = OpsMonitor::spawn(
        vec![Arc::clone(&gated)],
        None,
        Vec::new(),
        SnapshotPolicy {
            interval: Duration::from_millis(5),
            stall_intervals: 2,
        },
    )
    .expect("spawn monitor");
    std::thread::sleep(Duration::from_millis(30));
    let out = monitor.stop();
    println!();
    println!(
        "gated-shard demo: {} ticks, {} stall flag(s)",
        out.ticks,
        out.stalls.len()
    );
    for stall in &out.stalls {
        println!(
            "  STALL {}: no progress for {} intervals, {} frames pending",
            stall.source, stall.intervals, stall.backlog
        );
    }
    gated.close();
}
