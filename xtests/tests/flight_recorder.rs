//! Cross-crate flight-recorder tests: the always-on recording path
//! (serve with a background recorder → store → byte-identical replay),
//! live tailing concurrent with both serving and a raw writer,
//! retention/GC with protected replay windows, and the seal-rename
//! crash window the directory fsync closes.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::recording::{RecordBackend, RecordPolicy, Recorder, RecordingConfig};
use mobisense_serve::service::{decision_log_csv, serve_streams};
use mobisense_serve::wire::ObsFrame;
use mobisense_store::{
    enforce_retention, replay_fleet, spawn_flight_recorder, RetentionPolicy, StoreConfig,
    StoreError, TailCursor, TailItem, TraceReader, TraceWriter,
};
use mobisense_telemetry::{NoopSink, Telemetry};
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};
use mobisense_xtests::{assert_decision_rows, golden_serve_config};

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mobisense-xtest-flightrec-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn obs(client: u32, seq: u32) -> ObsFrame {
    ObsFrame {
        client_id: client,
        seq,
        at: 1_000_000 * seq as Nanos,
        distance_m: 2.5,
        digest: vec![0.75; 8],
    }
}

/// The tentpole acceptance path: `serve_streams` with recording
/// enabled produces a store whose replay yields a decision log
/// byte-identical to the live run's golden log — while a concurrent
/// `tail()` cursor observes a strict, never-regressing prefix of the
/// recording.
#[test]
fn recorded_serve_replays_byte_identically_with_concurrent_tail() {
    let dir = fresh_dir("serve");
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 48,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 1401,
        ..FleetConfig::default()
    });
    let store = StoreConfig::new(&dir).with_target_segment_bytes(256 << 10);
    let serve_cfg = golden_serve_config();

    let stop = AtomicBool::new(false);
    let (golden, stats, tail_rows, tail_frames) = std::thread::scope(|scope| {
        let tailer = scope.spawn(|| {
            let mut cursor = TailCursor::new(&dir);
            let mut rows: Vec<String> = Vec::new();
            let mut frames_floor = 0u64;
            loop {
                // Read the flag *before* polling: once the recorder has
                // finished, one more poll is guaranteed to see the
                // whole (now sealed) store.
                let done = stop.load(Ordering::Acquire);
                for item in cursor.poll().expect("tail poll") {
                    if let TailItem::Row(row) = item {
                        rows.push(row);
                    }
                }
                assert!(
                    cursor.frames_seen() >= frames_floor,
                    "verified prefix regressed"
                );
                frames_floor = cursor.frames_seen();
                if done {
                    break;
                }
                std::thread::yield_now();
            }
            (rows, cursor.frames_seen())
        });

        let rec = spawn_flight_recorder(
            store.clone(),
            RecordingConfig {
                capacity: 1024,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn recorder");
        let handle = rec.handle();
        let (decisions, report) =
            serve_streams(&serve_cfg, &fleet.streams, Some(&handle), &mut NoopSink);
        assert_eq!(report.frames_processed, fleet.total_frames());
        let (_summary, stats) = rec.finish().expect("recorder finish");
        stop.store(true, Ordering::Release);
        let (tail_rows, tail_frames) = tailer.join().expect("tailer");
        (decision_log_csv(&decisions), stats, tail_rows, tail_frames)
    });

    assert_decision_rows(&golden, 48);
    // Block policy: lossless, every frame and row recorded.
    assert_eq!(stats.frames, fleet.total_frames());
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.rows as usize, golden.lines().count());

    // The concurrent tail ended up with exactly the golden log (its
    // mid-run views were prefixes of this by append-only order).
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(tail_rows, golden_lines);
    assert_eq!(tail_frames, fleet.total_frames());

    // And the store replays byte-identically at several shard counts.
    let replay = replay_fleet(&store, &serve_cfg, &[1, 4], &mut NoopSink).expect("replay");
    assert_eq!(replay.golden, golden, "stored golden == live golden");
    assert!(
        replay.all_match(),
        "replay diverged at shard counts {:?}",
        replay.mismatches()
    );
}

/// A raw writer hammered from one thread while a tail cursor polls
/// from another: every yielded frame arrives exactly once, in order,
/// across flushes, seals and rotations.
#[test]
fn tail_follows_a_live_writer_without_regressing() {
    let dir = fresh_dir("livetail");
    const N: u32 = 400;
    let stop = AtomicBool::new(false);
    let seqs = std::thread::scope(|scope| {
        let tailer = scope.spawn(|| {
            let mut cursor = TailCursor::new(&dir);
            let mut seqs: Vec<u32> = Vec::new();
            loop {
                let done = stop.load(Ordering::Acquire);
                for item in cursor.poll().expect("poll") {
                    if let TailItem::Frame(f) = item {
                        seqs.push(f.seq);
                    }
                }
                if done {
                    break;
                }
                std::thread::yield_now();
            }
            seqs
        });

        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(4 << 10);
        let mut w = TraceWriter::create(cfg).expect("create");
        for seq in 0..N {
            w.append_frame(&obs(1, seq)).expect("append");
            if seq % 7 == 0 {
                w.flush().expect("flush");
            }
            if seq % 97 == 96 {
                w.seal_segment().expect("seal");
            }
        }
        w.finish().expect("finish");
        stop.store(true, Ordering::Release);
        tailer.join().expect("tailer")
    });
    // Exactly once, in order: the verified prefix only ever grows.
    assert_eq!(seqs, (0..N).collect::<Vec<u32>>());
}

/// Retention under a hostile byte budget never deletes a segment
/// inside a configured replay window, and the standalone sweep
/// reports what it dropped.
#[test]
fn retention_never_gcs_a_protected_replay_window() {
    let dir = fresh_dir("retention");
    // Client 7's whole history is protected; everything else is fair
    // game under a budget far smaller than the write volume.
    let policy = RetentionPolicy::keep_everything()
        .with_max_bytes(64 << 10)
        .with_keep_last_segments(1)
        .with_replay_window(7, Nanos::MAX);
    let cfg = StoreConfig::new(&dir)
        .with_target_segment_bytes(8 << 10)
        .with_retention(policy.clone());
    let mut w = TraceWriter::create(cfg).expect("create");
    // Protected client first, so its segments are the oldest — the
    // ones GC wants most.
    for seq in 0..40u32 {
        w.append_frame(&obs(7, seq)).expect("append");
    }
    for seq in 0..2_000u32 {
        w.append_frame(&obs(100 + seq % 5, seq)).expect("append");
    }
    let summary = w.finish().expect("finish");
    assert!(summary.gc_segments > 0, "budget must force GC");

    let r = TraceReader::open(&dir).expect("open");
    let protected = r.client_frames(7).expect("client 7");
    assert_eq!(protected.len(), 40, "protected frames survived GC whole");
    let seqs: Vec<u32> = protected.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, (0..40).collect::<Vec<u32>>());

    // A standalone sweep with the same policy is now a no-op (the
    // writer already enforced it) and protected ids are reported.
    let mut sink = Telemetry::new();
    let plan = enforce_retention(&dir, &policy, &mut sink).expect("sweep");
    assert!(plan.drop.is_empty(), "seal-time GC already converged");
    assert!(
        sink.events().all(|e| e.kind() != "store_retention"),
        "nothing deleted, nothing reported"
    );

    // Dropping the window (and tightening the budget) lets the sweep
    // reclaim client 7's segments, with one StoreRetention event per
    // deletion.
    let unprotected = RetentionPolicy::keep_everything()
        .with_max_bytes(8 << 10)
        .with_keep_last_segments(1);
    let plan = enforce_retention(&dir, &unprotected, &mut sink).expect("sweep");
    assert!(!plan.drop.is_empty());
    assert_eq!(
        sink.events()
            .filter(|e| e.kind() == "store_retention")
            .count(),
        plan.drop.len()
    );
    assert!(
        TraceReader::open(&dir)
            .expect("open")
            .client_frames(7)
            .expect("client 7")
            .len()
            < 40,
        "without the window the frames are reclaimable"
    );
}

/// The seal-durability crash window: `seal_segment` renames
/// `.open → .seg`, but without the parent-directory fsync a crash can
/// revert the *name* while every byte — seal footer included — is on
/// disk. Simulate exactly that outcome and prove (a) strict reads
/// refuse the store, (b) recovery salvages every record, so the sync
/// closes a window that loses names, never data.
#[test]
fn crash_between_rename_and_dir_sync_loses_no_records() {
    let dir = fresh_dir("crashwindow");
    let cfg = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
    let mut w = TraceWriter::create(cfg).expect("create");
    for seq in 0..200u32 {
        w.append_frame(&obs(3, seq)).expect("append");
    }
    w.append_decision_row("3,done").expect("row");
    let summary = w.finish().expect("finish");
    assert!(summary.segments.len() > 1);

    // The crash: the last rename's directory entry never became
    // durable, so after reboot the file is back to its `.open` name.
    // Its contents (with the seal footer) are intact — file data was
    // fsynced before the rename.
    let last = summary.segments.last().expect("segments");
    let reverted = dir.join(format!("seg-{:08}.open", last.id));
    std::fs::rename(&last.path, &reverted).expect("simulate lost rename");

    // Strict reads refuse the store: the durability promise of the
    // sealed name is gone.
    let r = TraceReader::open(&dir).expect("open");
    assert!(matches!(
        r.read_frames(),
        Err(StoreError::Unsealed { segment_id }) if segment_id == last.id
    ));

    // Recovery salvages every single record — the window only ever
    // loses the name.
    let rec = r.recover().expect("recover");
    assert!(rec.skipped.is_empty());
    assert_eq!(rec.frames.len(), 200, "no frame lost to the crash window");
    assert_eq!(rec.decision_rows, vec!["3,done"]);
    assert_eq!(rec.tail_segments, 1, "the reverted segment reads as a tail");
}

/// A backend whose first write parks on a gate, exposing counters the
/// test can read after the recorder is gone. Lets the shutdown tests
/// pin the channel in a known state (backend busy, queue full,
/// producer parked) before racing `drop` against a blocked push.
struct GatedBackend {
    /// While false, `record_frame` spins; the drain stalls here.
    gate: Arc<AtomicBool>,
    /// Set when `record_frame` is first entered (the backend holds a
    /// frame that is no longer in the queue).
    entered: Arc<AtomicBool>,
    /// Frames the backend has durably "written".
    written: Arc<AtomicU64>,
}

impl RecordBackend for GatedBackend {
    type Output = ();

    fn record_frame(&mut self, _bytes: &[u8]) -> io::Result<()> {
        self.entered.store(true, Ordering::Release);
        while !self.gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.written.fetch_add(1, Ordering::Release);
        Ok(())
    }

    fn record_row(&mut self, _row: &str) -> io::Result<()> {
        Ok(())
    }

    fn finish(self) -> io::Result<()> {
        Ok(())
    }
}

/// Dropping a `Recorder` while a producer is parked on a full channel
/// must wake the producer (its push fails, counted dropped), let the
/// backend drain the backlog, and join the thread — under *every*
/// interleaving of the drop and the blocked push. The channel is
/// pinned first: capacity 1, the backend gated holding frame 0, frame
/// 1 filling the queue, and a producer thread blocked pushing frame 2.
#[test]
fn dropping_recorder_wakes_blocked_producer_and_drains() {
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicU64::new(0));
    let rec = Recorder::spawn(
        GatedBackend {
            gate: Arc::clone(&gate),
            entered: Arc::clone(&entered),
            written: Arc::clone(&written),
        },
        RecordingConfig {
            capacity: 1,
            policy: RecordPolicy::Block,
        },
    )
    .expect("spawn");
    let h = rec.handle();

    // Frame 0: drained immediately; the backend parks on the gate.
    assert!(h.record_frame(&[0]));
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    // Frame 1: fills the capacity-1 queue (the backend isn't popping).
    assert!(h.record_frame(&[1]));

    // Frame 2: must block — the producer thread parks on `not_full`.
    // It can only return once the channel closes (the gate stays shut
    // until after its push fails), so its result is deterministic.
    let producer = std::thread::spawn({
        let h = h.clone();
        let gate = Arc::clone(&gate);
        move || {
            let ok = h.record_frame(&[2]);
            // Only now may the backend drain; the recorder thread is
            // still parked in `record_frame` holding frame 0.
            gate.store(true, Ordering::Release);
            ok
        }
    });

    // Give the producer a chance to actually park (the outcome is the
    // same even if the drop wins this race and closes first).
    for _ in 0..100 {
        std::thread::yield_now();
    }

    // The race under test: drop closes the channel, wakes the parked
    // producer, and joins the recorder thread.
    drop(rec);

    let accepted = producer.join().expect("producer");
    assert!(
        !accepted,
        "the parked push must fail once the channel closes"
    );
    assert_eq!(
        written.load(Ordering::Acquire),
        2,
        "the backlog (frames 0 and 1) drained before the thread exited"
    );
    let stats = h.stats();
    assert_eq!(stats.frames, 2, "two frames were accepted");
    assert_eq!(stats.dropped, 1, "the parked push was counted dropped");
}

/// Conservation under a racing shutdown: whatever interleaving `drop`
/// lands in, every *accepted* frame is written and every refused frame
/// is counted dropped — no frame is lost or double-counted. Runs many
/// rounds so the drop strikes at varied points of the producer's loop.
#[test]
fn racing_drop_conserves_every_accepted_frame() {
    /// Counts writes through an `Arc` that outlives the recorder.
    struct Counting(Arc<AtomicU64>);
    impl RecordBackend for Counting {
        type Output = ();
        fn record_frame(&mut self, _bytes: &[u8]) -> io::Result<()> {
            self.0.fetch_add(1, Ordering::Release);
            Ok(())
        }
        fn record_row(&mut self, _row: &str) -> io::Result<()> {
            Ok(())
        }
        fn finish(self) -> io::Result<()> {
            Ok(())
        }
    }

    const ROUNDS: usize = 40;
    const FRAMES_PER_ROUND: u64 = 100;
    for round in 0..ROUNDS {
        let written = Arc::new(AtomicU64::new(0));
        let rec = Recorder::spawn(
            Counting(Arc::clone(&written)),
            RecordingConfig {
                capacity: 2,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        let producer = std::thread::spawn({
            let h = h.clone();
            move || {
                let mut accepted = 0u64;
                for i in 0..FRAMES_PER_ROUND {
                    if h.record_frame(&i.to_le_bytes()) {
                        accepted += 1;
                    }
                }
                accepted
            }
        });
        // Vary where in the producer's loop the drop lands.
        for _ in 0..round * 8 {
            std::thread::yield_now();
        }
        drop(rec); // closes, drains the backlog, joins
        let accepted = producer.join().expect("producer");
        let stats = h.stats();
        assert_eq!(
            written.load(Ordering::Acquire),
            accepted,
            "round {round}: every accepted frame reached the backend"
        );
        assert_eq!(stats.frames, accepted, "round {round}: stats agree");
        assert_eq!(
            accepted + stats.dropped,
            FRAMES_PER_ROUND,
            "round {round}: accepted + dropped covers every push"
        );
    }
}
