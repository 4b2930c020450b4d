//! Cross-crate serving-layer tests: the shard-count determinism
//! contract over a real synthetic fleet, and a small soak run under
//! load shedding (the CI smoke test).

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::queue::OverflowPolicy;
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_telemetry::{Event, NoopSink, Telemetry};
use mobisense_util::units::{MILLISECOND, SECOND};

fn fleet_64() -> EncodedFleet {
    EncodedFleet::generate(&FleetConfig {
        n_clients: 64,
        duration: 10 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 2014,
        ..FleetConfig::default()
    })
}

/// The tentpole contract: under blocking backpressure the merged
/// decision log is byte-identical for 1, 2 and 8 shards.
#[test]
fn decision_log_identical_across_shard_counts() {
    let fleet = fleet_64();
    let mut logs = Vec::new();
    for n_shards in [1usize, 2, 8] {
        let cfg = ServeConfig {
            n_shards,
            ..ServeConfig::default()
        };
        let (decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
        assert_eq!(
            report.frames_processed,
            fleet.total_frames(),
            "{n_shards} shards lost frames"
        );
        assert_eq!(report.shed, 0, "{n_shards} shards shed under Block");
        assert!(!decisions.is_empty());
        logs.push((n_shards, decision_log_csv(&decisions)));
    }
    let (_, ref base) = logs[0];
    for (n_shards, log) in &logs[1..] {
        assert_eq!(
            base, log,
            "decision log differs between 1 and {n_shards} shards"
        );
    }
    // And the whole run replays: a second pass over the same fleet
    // yields the same log again.
    let (decisions, _) =
        serve_streams(&ServeConfig::default(), &fleet.streams, None, &mut NoopSink);
    assert_eq!(base, &decision_log_csv(&decisions), "replay diverged");
}

/// CI soak smoke: 64 clients through 2 shards with tiny queues and
/// load shedding. Whatever the host scheduler does, the accounting
/// invariants must hold and telemetry must describe every shard.
#[test]
fn soak_smoke_64_clients_2_shards() {
    let fleet = fleet_64();
    let cfg = ServeConfig {
        n_shards: 2,
        queue_capacity: 8,
        overflow: OverflowPolicy::ShedOldestPerClient,
        ..ServeConfig::default()
    };
    let mut tel = Telemetry::new();
    let (decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut tel);

    // Frame conservation: every submitted frame was processed or shed.
    assert_eq!(report.frames_in, fleet.total_frames());
    assert_eq!(report.frames_in, report.frames_processed + report.shed);
    assert!(report.shed_rate() <= 1.0);

    // Decisions are consistent with the report and sorted canonically.
    assert_eq!(report.decisions as usize, decisions.len());
    assert_eq!(report.per_mode.iter().sum::<u64>(), report.decisions);
    assert!(decisions
        .windows(2)
        .all(|w| (w[0].client_id, w[0].seq) < (w[1].client_id, w[1].seq)));

    // Telemetry: one ServeShard event per shard, agreeing with the
    // report, plus the run-level span.
    let shard_events: Vec<(u32, u64, u64)> = tel
        .events()
        .filter_map(|e| match e {
            Event::ServeShard {
                shard,
                frames,
                shed,
                ..
            } => Some((*shard, *frames, *shed)),
            _ => None,
        })
        .collect();
    assert_eq!(shard_events.len(), 2);
    assert_eq!(
        shard_events.iter().map(|&(_, f, _)| f).sum::<u64>(),
        report.frames_processed
    );
    assert_eq!(
        shard_events.iter().map(|&(_, _, s)| s).sum::<u64>(),
        report.shed
    );
    let (count, _) = tel
        .registry
        .histogram_snapshot("serve.run")
        .expect("serve.run span recorded");
    assert_eq!(count, 1);

    // Depth is sampled at every pop; latency at every completed
    // classification. Under shedding the host scheduler decides how
    // many classifications complete (possibly none on a loaded
    // machine), so assert the counting invariants, not a minimum.
    assert_eq!(report.depth.count(), report.frames_processed);
    assert!(report.latency_ns.count() >= report.decisions);
}

/// The serving layer and the single-link harness agree: a one-client
/// fleet served through the wire codec produces exactly the decisions
/// its scenario would produce in-process (modulo the f32 digest
/// quantisation, which the in-process leg reproduces here).
#[test]
fn served_decisions_match_in_process_session() {
    use mobisense_core::pipeline::PipelineSession;
    use mobisense_core::scenario::Scenario;
    use mobisense_serve::wire::decode_stream;

    let fleet_cfg = FleetConfig {
        n_clients: 1,
        duration: 12 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 77,
        ..FleetConfig::default()
    };
    let fleet = EncodedFleet::generate(&fleet_cfg);
    let serve_cfg = ServeConfig::default();
    let (decisions, _) = serve_streams(&serve_cfg, &fleet.streams, None, &mut NoopSink);

    // In-process replay: same scenario, same wire-quantised digests.
    let kind = fleet_cfg.kind_for(0);
    let mut scenario = Scenario::new(kind, fleet_cfg.seed_for(0));
    let mut session =
        PipelineSession::new(serve_cfg.pipeline.clone(), serve_cfg.session_seed_for(0));
    let frames = decode_stream(&fleet.streams[0].bytes).expect("stream decodes");
    let mut expected = Vec::new();
    let mut last = None;
    for frame in &frames {
        let obs = scenario.observe(frame.at);
        assert_eq!(obs.distance_m, frame.distance_m);
        if let Some(c) =
            session.observe_profile_with(frame.at, frame.profile(), frame.distance_m, &mut NoopSink)
        {
            if frame.at >= serve_cfg.pipeline.warmup && last != Some(c) {
                last = Some(c);
                expected.push((frame.seq, frame.at, c));
            }
        }
    }
    assert!(!expected.is_empty(), "scenario {kind:?} never decided");
    assert_eq!(decisions.len(), expected.len());
    for (d, (seq, at, c)) in decisions.iter().zip(&expected) {
        assert_eq!((d.seq, d.at, d.classification), (*seq, *at, *c));
    }
}
