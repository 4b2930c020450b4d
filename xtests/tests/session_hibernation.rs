//! Cross-crate session-hibernation tests: the hibernate → restore ≡
//! never-hibernated invariant through the trace store (golden replay
//! with hibernation toggled, at several shard counts), the resident
//! footprint bounded by the hot-set cap, live shard rebalancing over
//! disk-backed pagers, and crash recovery of paged-out sessions.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mobisense_core::pipeline::PipelineSession;
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::queue::Ticket;
use mobisense_serve::service::{
    decision_log_csv, serve_streams, BoxedPager, ServeConfig, ServeReport, ShardEngine,
};
use mobisense_session::{codec, HibernationConfig, RetirePolicy, SnapshotPager};
use mobisense_store::{record_fleet, replay_fleet, StoreConfig, StorePager, TraceReader};
use mobisense_telemetry::NoopSink;
use mobisense_util::units::{MILLISECOND, SECOND};
use mobisense_xtests::{assert_decision_rows, golden_serve_config};

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mobisense-xtest-hib-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn fleet_64() -> EncodedFleet {
    EncodedFleet::generate(&FleetConfig {
        n_clients: 64,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 814,
        ..FleetConfig::default()
    })
}

/// An aggressive retirement policy: tiny idle window plus a hot-set
/// cap far below the client count, so sessions thrash through
/// hibernate / fault-in constantly.
fn thrash(base: ServeConfig) -> ServeConfig {
    ServeConfig {
        hibernation: HibernationConfig {
            idle_after: Some(100 * MILLISECOND),
            max_hot: Some(8),
            policy: RetirePolicy::Hibernate,
        },
        ..base
    }
}

/// One disk-backed pager per shard, each in its own subdirectory of
/// `dir` (shards may not share a segment store).
fn store_pagers(dir: &std::path::Path, n_shards: usize) -> Vec<BoxedPager> {
    (0..n_shards)
        .map(|shard| {
            let cfg = StoreConfig::new(dir.join(format!("shard-{shard}")));
            Box::new(StorePager::create(cfg).expect("pager creates")) as BoxedPager
        })
        .collect()
}

/// The headline invariant through disk: a fleet recorded by a live
/// **non-hibernating** run replays byte-identically through
/// hibernating services at several shard counts — and a live
/// **hibernating** run records the same golden log in the first place.
#[test]
fn hibernation_golden_replay_across_shard_counts() {
    let fleet = fleet_64();
    let base_cfg = golden_serve_config();

    let dir = fresh_dir("golden-base");
    let store = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
    let rec = record_fleet(&store, &base_cfg, &fleet, &mut NoopSink).expect("record");
    assert_decision_rows(&rec.golden, 64);

    // Replay the stored frames through hibernating services: 1 shard
    // (pure single-stream) and 4 shards (cross-shard merge), both
    // thrashing the hot set. The decision log must not move a byte.
    let replay =
        replay_fleet(&store, &thrash(base_cfg.clone()), &[1, 4], &mut NoopSink).expect("replay");
    assert_eq!(replay.golden, rec.golden);
    assert!(
        replay.all_match(),
        "hibernating replay diverged at shard counts {:?}",
        replay.mismatches()
    );

    // And the converse: a live hibernating run produces the same
    // golden log a non-hibernating one does.
    let dir_hib = fresh_dir("golden-hib");
    let store_hib = StoreConfig::new(&dir_hib).with_target_segment_bytes(1 << 20);
    let rec_hib =
        record_fleet(&store_hib, &thrash(base_cfg), &fleet, &mut NoopSink).expect("record");
    assert_eq!(
        rec_hib.golden, rec.golden,
        "live hibernation changed the recorded golden log"
    );
}

/// Serves `fleet` time-major through `cfg`, sampling the cross-shard
/// `resident_bytes` gauge every 256 submits and once after the workers
/// drain. Returns the decision log, the report and the peak sample.
fn serve_sampling_residency(cfg: &ServeConfig, fleet: &EncodedFleet) -> (String, ServeReport, u64) {
    let engine = ShardEngine::spawn(cfg).expect("engine");
    let gauges = engine.session_gauges().to_vec();
    let resident = || -> u64 {
        gauges
            .iter()
            .map(|g| g.resident_bytes.load(Ordering::Relaxed))
            .sum()
    };
    let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
    let mut submitted = 0u64;
    let mut peak = 0u64;
    for i in 0..max_frames {
        for s in &fleet.streams {
            if i < s.n_frames {
                engine.submit(Ticket::untraced(), s.obs(i));
                submitted += 1;
                if submitted.is_multiple_of(256) {
                    peak = peak.max(resident());
                }
            }
        }
    }
    let (decisions, report) = engine.finish(submitted);
    (decision_log_csv(&decisions), report, peak.max(resident()))
}

/// The footprint hibernation exists for: with the hot set capped at a
/// tenth of the clients and every client touched every tick, resident
/// session bytes track the cap, not the client count. The peak stays
/// under 60 % of the fully resident footprint (it reads ~10 %), and
/// the decision log does not move.
#[test]
fn hibernation_bounds_resident_bytes_to_the_hot_set() {
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 1_000,
        duration: SECOND,
        step: 100 * MILLISECOND,
        base_seed: 5_113,
        ..FleetConfig::default()
    });
    let base = golden_serve_config();
    let hibernating = ServeConfig {
        hibernation: HibernationConfig {
            idle_after: Some(300 * MILLISECOND),
            max_hot: Some(fleet.streams.len() / (base.n_shards * 10)),
            policy: RetirePolicy::Hibernate,
        },
        ..base.clone()
    };

    let (full_log, _, full) = serve_sampling_residency(&base, &fleet);
    assert_decision_rows(&full_log, 1_000);
    let (log, report, peak) = serve_sampling_residency(&hibernating, &fleet);
    assert!(
        (peak as f64) < 0.6 * full as f64,
        "peak resident bytes {peak} are not under 60% of the fully resident {full}"
    );
    assert_eq!(log, full_log, "hibernation changed the decision log");
    assert!(report.sessions.hibernated > 0, "{:?}", report.sessions);
    assert!(report.sessions.restored > 0, "{:?}", report.sessions);
}

/// Hibernation over disk-backed pagers: every page-out lands in a
/// per-shard segment store as a checksummed snapshot record, the
/// decision log is untouched, and after the run (workers gone, pager
/// tails unsealed — the crash shape) `StorePager::recover` gets every
/// paged-out session back.
#[test]
fn disk_paged_hibernation_is_invisible_and_recoverable() {
    let fleet = fleet_64();
    let (golden, _) = serve_streams(&golden_serve_config(), &fleet.streams, None, &mut NoopSink);
    assert_decision_rows(&decision_log_csv(&golden), 64);

    let cfg = thrash(golden_serve_config());
    let dir = fresh_dir("disk-paged");
    let engine = ShardEngine::start(
        &cfg,
        Some(store_pagers(&dir, cfg.n_shards)),
        None,
        Vec::new(),
    )
    .expect("engine");
    let mut submitted = 0u64;
    let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
    for i in 0..max_frames {
        for s in &fleet.streams {
            if i < s.n_frames {
                engine.submit(Ticket::untraced(), s.obs(i));
                submitted += 1;
            }
        }
    }
    let (decisions, report) = engine.finish(submitted);
    assert_eq!(
        decision_log_csv(&decisions),
        decision_log_csv(&golden),
        "disk-paged hibernation must be invisible in the decision log"
    );
    assert!(report.sessions.hibernated > 0, "{:?}", report.sessions);
    assert!(report.sessions.restored > 0);

    // The workers dropped their pagers without sealing — exactly a
    // crash. Recovery must hand back at least every session that was
    // still paged out at the end, each snapshot decoding to its
    // client.
    let mut recovered_total = 0u64;
    for shard in 0..cfg.n_shards {
        let shard_dir = dir.join(format!("shard-{shard}"));
        let recovery = TraceReader::open(&shard_dir)
            .expect("open shard store")
            .recover()
            .expect("recover shard store");
        assert!(recovery.frames.is_empty(), "pager stores hold no frames");
        let mut pager = StorePager::recover(StoreConfig::new(&shard_dir)).expect("pager recovers");
        recovered_total += pager.len() as u64;
        let clients: Vec<u32> = recovery
            .session_snapshots
            .iter()
            .map(|(client, _)| *client)
            .collect();
        for client in clients {
            if let Some(bytes) = pager.page_in(client).expect("page in") {
                let mut session = PipelineSession::new(cfg.pipeline.clone(), 0);
                let (snap_client, _) =
                    codec::decode_into(&bytes, &mut session).expect("snapshot decodes");
                assert_eq!(snap_client, client);
            }
        }
    }
    assert!(
        recovered_total >= report.sessions.hibernated_final,
        "recovered {recovered_total} sessions, but {} were paged out at shutdown",
        report.sessions.hibernated_final
    );
}

/// Elastic rebalancing under the harshest mix: hibernation thrashing
/// on disk-backed pagers while clients live-migrate between shards
/// mid-stream (one of them twice, round-tripping home). Decisions are
/// byte-identical to the plain run and every submitted frame is
/// accounted for.
#[test]
fn migration_with_disk_pagers_preserves_decisions_and_conserves_frames() {
    let fleet = fleet_64();
    let (golden, _) = serve_streams(&golden_serve_config(), &fleet.streams, None, &mut NoopSink);
    assert_decision_rows(&decision_log_csv(&golden), 64);

    let cfg = thrash(golden_serve_config());
    let dir = fresh_dir("migrate");
    let engine = ShardEngine::start(
        &cfg,
        Some(store_pagers(&dir, cfg.n_shards)),
        None,
        Vec::new(),
    )
    .expect("engine");

    let mut frames = Vec::new();
    let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
    for i in 0..max_frames {
        for s in &fleet.streams {
            if i < s.n_frames {
                frames.push(s.obs(i));
            }
        }
    }
    let wanderer = fleet.streams[3].client_id;
    let mover = fleet.streams[40].client_id;
    let third = frames.len() / 3;
    let mut submitted = 0u64;
    let mut migrations = 0u64;
    for (k, frame) in frames.into_iter().enumerate() {
        if k == third {
            // Move both clients off their hash-routed shards.
            for client in [wanderer, mover] {
                let to = (engine.route_of(client) + 1) % engine.n_shards();
                engine.migrate(client, to).expect("migrate out");
                migrations += 1;
                assert_eq!(engine.route_of(client), to);
            }
        }
        if k == 2 * third {
            // And send the wanderer back home.
            let to = (engine.route_of(wanderer) + 1) % engine.n_shards();
            engine.migrate(wanderer, to).expect("migrate home");
            migrations += 1;
        }
        engine.submit(Ticket::untraced(), frame);
        submitted += 1;
    }
    let (decisions, report) = engine.finish(submitted);
    assert_eq!(
        decision_log_csv(&decisions),
        decision_log_csv(&golden),
        "migration over disk pagers must be invisible in the decision log"
    );
    assert_eq!(report.sessions.migrations, migrations);
    assert_eq!(
        report.frames_in,
        report.frames_processed + report.shed,
        "every submitted frame must be processed or accounted as shed"
    );
    assert!(report.sessions.hibernated > 0, "thrash config must page");
}
