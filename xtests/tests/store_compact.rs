//! Cross-crate tests for crash-safe streaming compaction: a child
//! process killed (aborted, not unwound) at every promotion-protocol
//! step must leave a fully recoverable store; randomly generated
//! mixed-kind stores must compact order-preservingly, idempotently and
//! within the O(segment) resident-byte budget; a 16 MiB store must
//! compact with exactly one input segment resident; and the golden
//! 256-client fleet must replay byte-identically after compaction.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::service::ServeConfig;
use mobisense_serve::wire::ObsFrame;
use mobisense_session::SessionSnapshot;
use mobisense_store::segment::scan_segment;
use mobisense_store::{
    compact, record_fleet, replay_fleet, CrashPoint, RecordKind, StoreConfig, TraceReader,
    TraceWriter,
};
use mobisense_telemetry::NoopSink;
use mobisense_util::units::{MILLISECOND, SECOND};
use proptest::prelude::*;
use proptest::strategy::StrategyExt;

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mobisense-xtest-compact-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn frame(client: u32, seq: u32, at_step: u64) -> ObsFrame {
    ObsFrame {
        client_id: client,
        seq,
        at: 500 * at_step,
        distance_m: 3.0 + f64::from(client % 9),
        digest: vec![0.25; 6],
    }
}

/// An encoded session snapshot whose pipeline state varies with
/// `seed`, so distinct snapshots have distinct bytes on disk.
fn snapshot_for(client: u32, seed: u64) -> Vec<u8> {
    SessionSnapshot {
        client_id: client,
        last_emitted: None,
        state: PipelineSession::new(PipelineConfig::default(), seed).snapshot(),
    }
    .encode()
    .expect("encode snapshot")
}

/// The store's full record stream — every record of every kind, in
/// global order, as `(kind, payload)` pairs. This is the quantity
/// compaction must preserve exactly: replay output is a pure function
/// of it, and segment boundaries are not part of it.
fn record_stream(dir: &Path) -> Vec<(RecordKind, Vec<u8>)> {
    let reader = TraceReader::open(dir).expect("open");
    let mut stream = Vec::new();
    for meta in reader.segments() {
        assert!(meta.sealed, "segment {} not sealed", meta.id);
        let bytes = std::fs::read(&meta.path).expect("read segment");
        let scan = scan_segment(&bytes).expect("scan segment");
        assert!(scan.error.is_none(), "segment {} damaged", meta.id);
        for record in &scan.records {
            stream.push((record.kind, record.payload.to_vec()));
        }
    }
    stream
}

/// The sealed segment files' raw bytes, in id order. Two stores with
/// equal lists are the same store, boundaries included.
fn segment_bytes(dir: &Path) -> Vec<Vec<u8>> {
    TraceReader::open(dir)
        .expect("open")
        .segments()
        .iter()
        .map(|m| std::fs::read(&m.path).expect("read segment"))
        .collect()
}

/// A fragmented mixed-kind store: frames, decision rows and session
/// snapshots interleaved across many small segments.
fn build_mixed_store(dir: &Path) {
    let cfg = StoreConfig::new(dir).with_target_segment_bytes(2048);
    let mut w = TraceWriter::create(cfg).expect("create");
    for i in 0..60u32 {
        w.append_frame(&frame(i % 7, i / 7, u64::from(i) + 1))
            .expect("frame");
        if i % 8 == 7 {
            w.append_decision_row(&format!("{},{i},hold", i % 7))
                .expect("row");
        }
        if i % 20 == 19 {
            let snap = snapshot_for(i % 3, u64::from(i));
            w.append_session_snapshot(&snap).expect("snapshot");
        }
    }
    w.finish().expect("finish");
}

/// Kill-mid-compact matrix: a separate process runs the compactor and
/// **aborts** — no destructors, no buffered flush on drop — at each
/// protocol step in turn. After every kill the store must be complete
/// (strict read returns every record, recovery reports nothing lost),
/// and a rerun must converge with no stale files left.
#[test]
fn a_child_killed_at_every_protocol_step_leaves_a_complete_store() {
    for point in CrashPoint::ALL {
        let dir = fresh_dir(&format!("kill-{}", point.as_str()));
        build_mixed_store(&dir);
        let expected = record_stream(&dir);
        assert!(expected.len() > 60, "mixed store expected");

        let status = Command::new(env!("CARGO_BIN_EXE_compact_crash"))
            .arg(&dir)
            .arg(point.as_str())
            .arg((1usize << 20).to_string())
            .status()
            .expect("spawn compact_crash");
        assert!(
            !status.success(),
            "child must die at {point:?}, got {status:?}"
        );
        #[cfg(unix)]
        assert!(
            status.code().is_none(),
            "child must abort (die by signal) at {point:?}, got {status:?}"
        );

        // Either the old or the new generation is fully current.
        let r = TraceReader::open(&dir).expect("open after kill");
        r.read_frames()
            .unwrap_or_else(|e| panic!("strict read failed after kill at {point:?}: {e}"));
        let rec = r.recover().expect("recover");
        assert!(
            rec.complete(),
            "recovery incomplete after kill at {point:?}"
        );
        assert_eq!(
            record_stream(&dir),
            expected,
            "record stream changed after kill at {point:?}"
        );

        // Rerunning to completion converges and sweeps every leftover.
        let status = Command::new(env!("CARGO_BIN_EXE_compact_crash"))
            .arg(&dir)
            .arg("none")
            .arg((1usize << 20).to_string())
            .status()
            .expect("spawn compact_crash rerun");
        assert!(status.success(), "rerun failed after {point:?}: {status:?}");
        let r = TraceReader::open(&dir).expect("open after rerun");
        assert!(r.generation() > 0, "rerun promoted a new generation");
        assert_eq!(r.stale_files(), 0, "rerun left garbage after {point:?}");
        assert_eq!(record_stream(&dir), expected, "rerun changed the stream");
    }
}

/// One record of a randomly generated mixed-kind store.
#[derive(Clone, Debug)]
enum Op {
    Frame(u32),
    Row(u32),
    Snapshot(u32, u64),
}

/// A weighted mixed-kind op: mostly frames, some decision rows, the
/// occasional session snapshot (the vendored proptest shim has no
/// `prop_oneof`, so the weighting rides on an integer selector).
fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..9, 0u64..250).prop_map(|(kind, extra)| {
        let client = (extra % 5) as u32;
        match kind {
            0..=5 => Op::Frame(client),
            6 | 7 => Op::Row(client),
            _ => Op::Snapshot(client % 3, extra / 5),
        }
    })
}

proptest! {
    /// Streaming compaction over an arbitrary mixed-kind store is
    /// order-preserving (the full interleaved record stream survives
    /// byte for byte), resident-bounded, and idempotent (a second pass
    /// reproduces the first's output files exactly).
    #[test]
    fn compaction_preserves_any_mixed_record_stream(
        ops in prop::collection::vec(arb_op(), 1..60),
        write_target in 512usize..4096,
        compact_target in 1024usize..(64 << 10),
    ) {
        let dir = fresh_dir("prop");
        let mut w = TraceWriter::create(
            StoreConfig::new(&dir).with_target_segment_bytes(write_target),
        ).expect("create");
        let mut next_seq = [0u32; 5];
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Frame(client) => {
                    let seq = next_seq[*client as usize];
                    next_seq[*client as usize] += 1;
                    w.append_frame(&frame(*client, seq, i as u64 + 1)).expect("frame");
                }
                Op::Row(client) => {
                    w.append_decision_row(&format!("{client},{i},steer")).expect("row");
                }
                Op::Snapshot(client, seed) => {
                    w.append_session_snapshot(&snapshot_for(*client, *seed)).expect("snap");
                }
            }
        }
        w.finish().expect("finish");
        let expected = record_stream(&dir);
        let max_input = TraceReader::open(&dir)
            .expect("open")
            .segments()
            .iter()
            .map(|m| m.bytes as usize)
            .max()
            .unwrap_or(0);

        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(compact_target);
        let report = compact(&cfg, &mut NoopSink).expect("compact");
        prop_assert_eq!(report.records, ops.len() as u64);
        prop_assert_eq!(report.generation, 1);
        // The streaming contract: resident bytes never exceed twice
        // the larger of the output target and the biggest input
        // segment (inputs can be bigger than a tiny compact target).
        prop_assert!(
            report.peak_resident_bytes <= 2 * compact_target.max(max_input),
            "peak {} over budget (target {compact_target}, max input {max_input})",
            report.peak_resident_bytes
        );
        prop_assert_eq!(record_stream(&dir), expected.clone());

        // Idempotent: re-compacting reproduces the same output files.
        let first_files = segment_bytes(&dir);
        let second = compact(&cfg, &mut NoopSink).expect("re-compact");
        prop_assert_eq!(second.records, ops.len() as u64);
        prop_assert_eq!(second.generation, 2);
        prop_assert_eq!(segment_bytes(&dir), first_files);
        prop_assert_eq!(record_stream(&dir), expected);
    }
}

/// The streaming contract at a size where buffering cannot hide: a
/// 16 MiB store of 256 KiB segments compacted toward 1 MiB holds
/// exactly one input segment resident at its peak (~0.25 × target;
/// buffering the store would read 16 ×), and the record stream
/// survives byte for byte.
#[test]
fn compacting_16_mib_keeps_one_input_segment_resident() {
    let dir = fresh_dir("resident");
    let mut w = TraceWriter::create(StoreConfig::new(&dir).with_target_segment_bytes(256 << 10))
        .expect("create");
    let mut written = 0u64;
    let mut seq = 0u32;
    while written < 16 << 20 {
        let frame = ObsFrame {
            client_id: seq % 64,
            seq: seq / 64,
            at: 500 * u64::from(seq) + 500,
            distance_m: 2.0 + f64::from(seq % 11),
            digest: vec![0.125; 16],
        };
        w.append_frame(&frame).expect("append");
        written += frame.encode().len() as u64;
        if seq % 512 == 511 {
            w.append_decision_row(&format!("{},{seq},steer", seq % 64))
                .expect("row");
        }
        seq += 1;
    }
    w.finish().expect("finish");
    let expected = record_stream(&dir);
    let inputs = TraceReader::open(&dir).expect("open");
    let largest_input = inputs.segments().iter().map(|m| m.bytes).max();
    assert_eq!((inputs.segments().len(), expected.len()), (71, 182_718));

    let target = 1usize << 20;
    let cfg = StoreConfig::new(&dir).with_target_segment_bytes(target);
    let report = compact(&cfg, &mut NoopSink).expect("compact");
    assert_eq!(
        Some(report.peak_resident_bytes as u64),
        largest_input,
        "peak resident bytes must be exactly the largest input segment"
    );
    assert_eq!(
        record_stream(&dir),
        expected,
        "compaction changed the stream"
    );
    // Unlike the other tests' stores, 16 MiB is worth reclaiming.
    let _ = std::fs::remove_dir_all(&dir);
}

/// The golden-regression contract survives compaction: a recorded
/// 256-client fleet, compacted, still replays byte-identically through
/// 1, 2, 4 and 8 shards — and the pass stays within its resident
/// budget while doing it.
#[test]
fn golden_256_client_replay_is_identical_after_compaction() {
    let dir = fresh_dir("golden");
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 256,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 2014,
        ..FleetConfig::default()
    });
    let store = StoreConfig::new(&dir).with_target_segment_bytes(256 << 10);
    let serve_cfg = ServeConfig::default();
    let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
    let before = TraceReader::open(&dir).expect("open").segments().len();
    assert!(before > 2, "fragmented store expected, got {before}");

    let target = 2usize << 20;
    let merged = StoreConfig::new(&dir).with_target_segment_bytes(target);
    let report = compact(&merged, &mut NoopSink).expect("compact");
    assert_eq!(report.frames, rec.frames);
    assert!(report.segments_after < before);
    assert!(
        report.peak_resident_bytes <= 2 * target,
        "peak {} over 2x target {target}",
        report.peak_resident_bytes
    );

    let replay = replay_fleet(&store, &serve_cfg, &[1, 2, 4, 8], &mut NoopSink).expect("replay");
    assert_eq!(replay.golden, rec.golden, "stored golden log changed");
    assert!(
        replay.all_match(),
        "replay diverged after compaction at shard counts {:?}",
        replay.mismatches()
    );
}
