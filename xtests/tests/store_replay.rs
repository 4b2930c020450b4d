//! Cross-crate trace-store tests: the golden-regression contract (a
//! recorded 256-client fleet replays byte-identically through 1, 2, 4
//! and 8 shards), kill-mid-write recovery, index-filtered
//! single-client replay, and compaction transparency.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_store::{
    compact, record_fleet, replay_client, replay_fleet, StoreConfig, TraceReader, TraceWriter,
};
use mobisense_telemetry::{NoopSink, Telemetry};
use mobisense_util::units::{MILLISECOND, SECOND};
use mobisense_xtests::{assert_decision_rows, golden_serve_config};

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mobisense-xtest-store-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn fleet_256() -> EncodedFleet {
    EncodedFleet::generate(&FleetConfig {
        n_clients: 256,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 2014,
        ..FleetConfig::default()
    })
}

/// The tentpole contract, now through disk: record a 256-client fleet
/// plus its live decision log, then replay the *stored* frames through
/// 1, 2, 4 and 8 shards and demand the golden bytes back every time.
#[test]
fn golden_replay_256_clients_across_shard_counts() {
    let dir = fresh_dir("golden");
    let fleet = fleet_256();
    let store = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
    let serve_cfg = golden_serve_config();
    let mut sink = Telemetry::new();

    let rec = record_fleet(&store, &serve_cfg, &fleet, &mut sink).expect("record");
    assert_eq!(rec.frames, fleet.total_frames());
    assert_decision_rows(&rec.golden, 256);
    assert!(rec.bytes > 0);
    assert!(rec.segments.len() > 1, "1 MiB target must rotate");
    assert!(
        sink.events().any(|e| e.kind() == "store_segment"),
        "recording reports segments"
    );

    let replay = replay_fleet(&store, &serve_cfg, &[1, 2, 4, 8], &mut NoopSink).expect("replay");
    assert_eq!(replay.frames, rec.frames);
    assert_eq!(replay.clients, 256);
    assert_eq!(replay.golden, rec.golden, "stored golden log reads back");
    assert!(
        replay.all_match(),
        "replay diverged at shard counts {:?}",
        replay.mismatches()
    );
}

/// Kill-mid-write: a writer that dies between rotations loses nothing
/// that was sealed. Every sealed frame is recovered, plus a clean
/// prefix of the in-flight tail.
#[test]
fn kill_mid_write_recovers_every_sealed_frame() {
    let dir = fresh_dir("crash");
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 32,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 7,
        ..FleetConfig::default()
    });
    // Small segments so the "crash" lands mid-store with several
    // segments already sealed.
    let cfg = StoreConfig::new(&dir).with_target_segment_bytes(64 << 10);
    let mut w = TraceWriter::create(cfg).expect("create");
    let mut written = 0u64;
    for bytes in fleet.encoded_frames_time_major() {
        w.append_encoded(bytes).expect("append");
        written += 1;
    }
    let sealed_frames: u64 = w
        .sealed()
        .iter()
        .map(|m| m.index.as_ref().expect("index").frames)
        .sum();
    assert!(sealed_frames > 0, "need sealed segments before the crash");
    assert!(sealed_frames < written, "need an in-flight tail too");
    // The process dies here: buffered bytes reach the OS, no seal.
    let tail = w.abandon().expect("abandon");
    // Make the cut ragged, as a real crash usually would.
    let mut bytes = std::fs::read(&tail).expect("read");
    let cut = bytes.len() - 3;
    bytes.truncate(cut);
    std::fs::write(&tail, &bytes).expect("write");

    let reader = TraceReader::open(&dir).expect("open");
    let rec = reader.recover().expect("recover");
    assert!(rec.skipped.is_empty(), "no sealed segment may be lost");
    assert_eq!(rec.tail_segments, 1);
    assert!(
        rec.frames.len() as u64 >= sealed_frames,
        "recovered {} of {sealed_frames} sealed frames",
        rec.frames.len()
    );
    // The recovered stream is a prefix of what was written: frame i of
    // the time-major order, byte for byte.
    for (got, want) in rec.frames.iter().zip(fleet.encoded_frames_time_major()) {
        assert_eq!(got.encode().as_slice(), want);
    }
}

/// Index-filtered single-client replay reproduces exactly that
/// client's rows of the fleet golden log.
#[test]
fn filtered_replay_matches_golden_rows() {
    let dir = fresh_dir("filter");
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 48,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 99,
        ..FleetConfig::default()
    });
    let store = StoreConfig::new(&dir).with_target_segment_bytes(128 << 10);
    let serve_cfg = golden_serve_config();
    let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
    assert_decision_rows(&rec.golden, 48);
    for client in [0u32, 17, 47] {
        let rows = replay_client(&store, &serve_cfg, client, &mut NoopSink).expect("replay");
        let want: Vec<&str> = rec
            .golden
            .lines()
            .skip(1)
            .filter(|l| l.starts_with(&format!("{client},")))
            .collect();
        assert_eq!(rows, want, "client {client} rows diverged");
    }
}

/// Compaction changes the files but not one byte of replay output.
#[test]
fn compaction_is_invisible_to_replay() {
    let dir = fresh_dir("compact");
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 32,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 3,
        ..FleetConfig::default()
    });
    let store = StoreConfig::new(&dir).with_target_segment_bytes(32 << 10);
    let serve_cfg = golden_serve_config();
    let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
    assert_decision_rows(&rec.golden, 32);
    let before = TraceReader::open(&dir).expect("open").segments().len();
    assert!(before > 2, "fragmented store expected");

    let merged = StoreConfig::new(&dir).with_target_segment_bytes(4 << 20);
    let report = compact(&merged, &mut NoopSink).expect("compact");
    assert_eq!(report.segments_before, before);
    assert!(report.segments_after < before);
    assert_eq!(report.frames, rec.frames);

    let replay = replay_fleet(&store, &serve_cfg, &[1, 4], &mut NoopSink).expect("replay");
    assert_eq!(replay.golden, rec.golden);
    assert!(replay.all_match(), "compaction changed replay output");
}
