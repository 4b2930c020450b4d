//! The always-on flight recorder: record *while* serving, tail live,
//! keep the store bounded, replay bit-exactly.
//!
//! Serves a synthetic fleet with a background recorder teeing every
//! observation frame (and the merged decision log) into the segmented
//! store, while a live `tail()` cursor follows the recording from a
//! second thread. Afterwards the store is replayed through several
//! shard counts and checked byte-identical against the live golden
//! log, then a retention sweep trims the store to a byte budget —
//! refusing to touch a protected per-client replay window.
//!
//! Run with: `cargo run --release --example flight_recorder`
//! Optional args: `[n_clients] [sim_seconds]` (defaults 128, 10).

use std::sync::atomic::{AtomicBool, Ordering};

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::recording::{RecordPolicy, RecordingConfig};
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_store::{
    enforce_retention, replay_fleet, spawn_flight_recorder, RetentionPolicy, StoreConfig,
    TailCursor, TailItem, TraceReader,
};
use mobisense_telemetry::NoopSink;
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_clients: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(128);
    let sim_seconds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);

    let dir =
        std::env::temp_dir().join(format!("mobisense-flight-recorder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreConfig::new(&dir).with_target_segment_bytes(512 << 10);
    let serve_cfg = ServeConfig::default();

    // --- Serve with the recorder on -------------------------------
    let fleet_cfg = FleetConfig {
        n_clients,
        duration: sim_seconds * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 42,
        ..FleetConfig::default()
    };
    println!(
        "generating {} clients x {} frames...",
        n_clients,
        fleet_cfg.frames_per_client()
    );
    let fleet = EncodedFleet::generate(&fleet_cfg);

    let stop = AtomicBool::new(false);
    let (golden, stats, summary, tail_frames, tail_rows, polls) = std::thread::scope(|scope| {
        // A live tailer follows the store while the service writes it.
        let tailer = scope.spawn(|| {
            let mut cursor = TailCursor::new(&dir);
            let mut rows = 0u64;
            let mut polls = 0u64;
            loop {
                let done = stop.load(Ordering::Acquire);
                for item in cursor.poll().expect("tail poll") {
                    if let TailItem::Row(_) = item {
                        rows += 1;
                    }
                }
                polls += 1;
                if done {
                    break;
                }
                std::thread::yield_now();
            }
            (cursor.frames_seen(), rows, polls)
        });

        let rec = spawn_flight_recorder(
            store.clone(),
            RecordingConfig {
                capacity: 4096,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn recorder");
        let handle = rec.handle();
        let (decisions, report) =
            serve_streams(&serve_cfg, &fleet.streams, Some(&handle), &mut NoopSink);
        let (summary, stats) = rec.finish().expect("recorder finish");
        stop.store(true, Ordering::Release);
        let (tail_frames, tail_rows, polls) = tailer.join().expect("tailer");
        println!(
            "served {} frames across {} shards with the recorder on",
            report.frames_processed,
            report.per_shard.len()
        );
        (
            decision_log_csv(&decisions),
            stats,
            summary,
            tail_frames,
            tail_rows,
            polls,
        )
    });
    println!(
        "recorded {} frames + {} decision rows into {} segments ({:.1} MiB), {} dropped, queue depth peaked at {}",
        stats.frames,
        stats.rows,
        summary.segments.len(),
        summary.bytes as f64 / (1024.0 * 1024.0),
        stats.dropped,
        stats.max_depth
    );
    println!(
        "live tail followed along: {} frames + {} rows over {} polls",
        tail_frames, tail_rows, polls
    );
    assert_eq!(tail_frames, stats.frames, "tail saw the whole recording");

    // --- Replay and verify ----------------------------------------
    let replay = replay_fleet(&store, &serve_cfg, &[1, 2, 4], &mut NoopSink).expect("replay");
    assert_eq!(replay.golden, golden, "stored golden == live golden");
    assert!(
        replay.all_match(),
        "replay diverged: {:?}",
        replay.mismatches()
    );
    println!(
        "\nreplayed through 1, 2 and 4 shards: all decision logs byte-identical to the live golden log ({} bytes)",
        golden.len()
    );

    // --- Retention sweep ------------------------------------------
    // Trim the store hard, but client 0's last 3 sim-seconds are
    // protected by a replay window: segments covering them cannot be
    // dropped, no matter the budget.
    let reader = TraceReader::open(&dir).expect("open");
    let before: u64 = reader.segments().iter().map(|m| m.bytes).sum();
    let client0_before = reader.client_frames(0).expect("client 0");
    let newest_at = client0_before.iter().map(|f| f.at).max().unwrap_or(0);
    let window = 3 * SECOND;
    let policy = RetentionPolicy::keep_everything()
        .with_max_bytes(before / 8)
        .with_keep_last_segments(1)
        .with_replay_window(0, window);
    let plan = enforce_retention(&dir, &policy, &mut NoopSink).expect("sweep");
    let client0_after = TraceReader::open(&dir)
        .expect("open")
        .client_frames(0)
        .expect("client 0");
    println!(
        "\nretention sweep to {:.1} MiB: dropped {} segments ({:.1} MiB), protected {} segments in client 0's 3 s replay window",
        before as f64 / (8.0 * 1024.0 * 1024.0),
        plan.drop.len(),
        plan.dropped_bytes() as f64 / (1024.0 * 1024.0),
        plan.protected.len()
    );
    let in_window = |frames: &[mobisense_serve::wire::ObsFrame]| {
        frames
            .iter()
            .filter(|f| f.at >= newest_at.saturating_sub(window))
            .count()
    };
    assert_eq!(
        in_window(&client0_after),
        in_window(&client0_before),
        "every frame inside the replay window survived the sweep"
    );
    println!(
        "client 0 kept all {} frames of its window ({} of {} total remain)",
        in_window(&client0_after),
        client0_after.len(),
        client0_before.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
