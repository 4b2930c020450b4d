//! Cross-crate ops-observability tests: live snapshot JSONL from a
//! real serving run round-trips losslessly with sane invariants, the
//! stall watchdog is deterministic and fires on a genuinely gated
//! shard, and stage tracing never perturbs the decision log.

use std::sync::Arc;
use std::time::Duration;

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_serve::{
    ObsFrame, OpsMonitor, OverflowPolicy, ShardQueue, SnapshotPolicy, StallDetector, Ticket,
    WorkItem,
};
use mobisense_telemetry::{parse_snapshots, Event, NoopSink, Snapshot, Stage, Telemetry};
use mobisense_util::units::{MILLISECOND, SECOND};

fn small_fleet() -> EncodedFleet {
    EncodedFleet::generate(&FleetConfig {
        n_clients: 8,
        duration: 4 * SECOND,
        step: 20 * MILLISECOND,
        base_seed: 77,
        ..FleetConfig::default()
    })
}

/// A serving run with the ops monitor attached yields a JSONL stream
/// where every block parses, every metric appears exactly once per
/// block, histogram quantiles are monotone, and re-serializing a parsed
/// snapshot reproduces it bit-for-bit.
#[test]
fn live_snapshot_stream_round_trips_with_unique_monotone_metrics() {
    let fleet = small_fleet();
    let cfg = ServeConfig {
        stage_sampling: 4,
        snapshot: Some(SnapshotPolicy {
            interval: Duration::from_millis(5),
            stall_intervals: 2,
        }),
        ..ServeConfig::default()
    };
    let (_decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
    assert!(
        !report.ops.snapshots.is_empty(),
        "the monitor takes a final snapshot even on a fast run"
    );

    let stream = report.ops.snapshots.concat();
    let snaps = parse_snapshots(&stream).expect("live stream parses");
    assert_eq!(snaps.len(), report.ops.snapshots.len());
    for snap in &snaps {
        // `metrics()` counts each map's entries; the parser enforced
        // the header's declared count and rejected duplicates, so
        // together these say: every metric exactly once.
        assert!(snap.metrics() > 0, "snapshot seq {} is empty", snap.seq);
        for (name, h) in &snap.histograms {
            assert!(
                h.min <= h.p50 && h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max,
                "quantiles of {name} not monotone: {h:?}"
            );
        }
        // Lossless round-trip: serialize the parsed value again.
        let back = parse_snapshots(&snap.to_jsonl()).expect("re-parses");
        assert_eq!(back, vec![snap.clone()]);
    }
    // Sequence numbers are 1-based and strictly increasing.
    for (i, snap) in snaps.iter().enumerate() {
        assert_eq!(snap.seq, i as u64 + 1);
    }

    // The end-of-run registry snapshots the same way: stage histograms
    // and serve counters all present, exactly once.
    let reg = report.registry();
    let end = Snapshot::capture(1, 0, &reg);
    assert!(end.counters.contains_key("serve.frames_processed"));
    assert!(end.histograms.contains_key("stage.total"));
    let back = parse_snapshots(&end.to_jsonl()).expect("registry snapshot parses");
    assert_eq!(back, vec![end]);
}

/// Stage tracing and the ops monitor are observers: with both enabled
/// the decision log stays byte-identical to the untraced run, while
/// traces fill the per-stage histograms and every monitor tick surfaces
/// as an [`Event::Snapshot`].
#[test]
fn observability_never_perturbs_the_decision_log() {
    let fleet = small_fleet();
    let plain = ServeConfig::default();
    let observed = ServeConfig {
        stage_sampling: 4,
        snapshot: Some(SnapshotPolicy {
            interval: Duration::from_millis(5),
            stall_intervals: 2,
        }),
        ..ServeConfig::default()
    };
    let (d_plain, _) = serve_streams(&plain, &fleet.streams, None, &mut NoopSink);
    let mut tel = Telemetry::new();
    let (d_observed, report) = serve_streams(&observed, &fleet.streams, None, &mut tel);
    assert_eq!(
        decision_log_csv(&d_plain),
        decision_log_csv(&d_observed),
        "observability changed the decision log"
    );
    assert!(report.stages.traces() > 0, "sampled traces were folded in");
    for stage in [
        Stage::Enqueue,
        Stage::Dequeue,
        Stage::Classify,
        Stage::Decide,
    ] {
        assert_eq!(
            report.stages.get(stage).count(),
            report.stages.traces(),
            "every trace passed {stage:?}"
        );
    }
    let snapshot_events = tel
        .events()
        .filter(|e| matches!(e, Event::Snapshot { .. }))
        .count();
    assert_eq!(snapshot_events, report.ops.snapshots.len());
    assert!(
        tel.events().all(|e| !matches!(e, Event::Stall { .. })),
        "a healthy run must not flag stalls"
    );
}

/// The detector is a pure function of its input sequence: identical
/// sequences produce identical flag trains, and a flag requires both
/// frozen progress *and* pending work for the full window.
#[test]
fn stall_detector_is_deterministic_and_demands_backlog() {
    let ticks: Vec<Vec<(u64, u64)>> = vec![
        vec![(0, 3), (0, 0)],
        vec![(0, 3), (0, 0)],
        vec![(0, 3), (4, 2)],
        vec![(7, 0), (4, 2)],
        vec![(7, 0), (4, 2)],
    ];
    let drive = || {
        let mut d = StallDetector::new(2, 2);
        ticks.iter().map(|t| d.observe(t)).collect::<Vec<_>>()
    };
    let first = drive();
    assert_eq!(first, drive(), "same input, same flags");
    // Source 0 stalls at tick 2 (two frozen intervals with backlog);
    // source 1 idles backlog-free, then stalls at tick 5.
    assert_eq!(first[1], vec![(0, 2, 3)]);
    assert_eq!(first[4], vec![(1, 2, 2)]);
    assert!(first[0].is_empty() && first[2].is_empty() && first[3].is_empty());
}

/// A shard whose worker never runs is the deterministic stall: backlog
/// pinned, progress frozen. The monitor must flag it exactly once per
/// episode and keep snapshotting all the while.
#[test]
fn monitor_flags_a_deterministically_gated_shard() {
    let q = Arc::new(ShardQueue::new(16));
    for seq in 0..7 {
        let frame = ObsFrame {
            client_id: 1,
            seq,
            at: u64::from(seq),
            distance_m: 2.0,
            digest: vec![0.5; 4],
        };
        q.push(
            WorkItem::frame(Ticket::untraced(), frame),
            OverflowPolicy::Block,
        );
    }
    let monitor = OpsMonitor::spawn(
        vec![Arc::clone(&q)],
        None,
        Vec::new(),
        SnapshotPolicy {
            interval: Duration::from_millis(2),
            stall_intervals: 2,
        },
    )
    .expect("spawn monitor");
    std::thread::sleep(Duration::from_millis(25));
    let out = monitor.stop();
    assert!(out.ticks >= 3, "monitor ticked {} times", out.ticks);
    let flags: Vec<_> = out
        .stalls
        .iter()
        .filter(|s| s.source == "shard-0")
        .collect();
    assert_eq!(flags.len(), 1, "one flag per episode: {:?}", out.stalls);
    assert_eq!(flags[0].backlog, 7);
    assert!(flags[0].intervals >= 2);
    let snaps = parse_snapshots(&out.snapshots.concat()).expect("parses");
    assert_eq!(snaps.len() as u64, out.ticks);
    assert_eq!(
        snaps.last().expect("non-empty").gauges["serve.queue.depth"],
        7.0
    );
    q.close();
}
