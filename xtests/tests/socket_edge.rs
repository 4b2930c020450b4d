//! Cross-crate socket-edge tests: the network frontend feeding the
//! serve layer over real loopback sockets.
//!
//! Covers the edge's four contracts end to end:
//!
//! * **determinism** — a socket session's merged decision log is
//!   byte-identical to the in-process run of the same streams, and a
//!   recorded socket session replays byte-identically through the
//!   trace store at multiple shard counts;
//! * **conservation** — every frame decoded off the wire is processed,
//!   shed, or rejected (`accepted == processed + shed + rejected`),
//!   asserted under a ≥10k-connection overload soak with tiny queues;
//! * **robustness** — corrupt bytes resynchronize, oversize buffers
//!   and over-quota connections are closed and accounted, UDP
//!   datagrams are decoded standalone;
//! * **crash salvage** — killing a recorded session mid-store leaves a
//!   verified prefix the recovery path salvages per-client in order.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mobisense_edge::{serve_sockets, ConnOutcome, Edge, EdgeConfig, EdgeStats};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::recording::{RecordPolicy, RecordingConfig};
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_serve::wire::ObsFrame;
use mobisense_serve::{OverflowPolicy, SnapshotPolicy};
use mobisense_store::{replay_fleet, spawn_flight_recorder, StoreConfig, TraceReader};
use mobisense_telemetry::{parse_snapshots, Event, NoopSink, Stage, Telemetry};
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mobisense-xtest-socketedge-{}-{tag}-{n}",
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

/// Polls the edge counters until `pred` holds or the deadline passes.
fn wait_for(edge: &Edge, deadline: Duration, pred: impl Fn(&EdgeStats) -> bool) -> EdgeStats {
    let start = Instant::now();
    loop {
        let stats = edge.stats();
        if pred(&stats) {
            return stats;
        }
        assert!(
            start.elapsed() < deadline,
            "timed out waiting on edge stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The headline determinism contract on the wire: serving a fleet over
/// real loopback TCP yields a decision log byte-identical to the
/// in-process run, and the recorded session replays byte-identically
/// through the store at shard counts 1 and 4 — whatever the read size
/// and however a sweep's reads fill its batch: 7-byte writes into 4 KiB
/// reads, 7-byte reads (zero or one frame per read, so a sweep's batch
/// holds about one frame per connection), and whole streams into 64 KiB
/// reads (hundreds of frames per read).
#[test]
fn socket_serve_matches_in_process_golden_and_replays() {
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 24,
        duration: 10 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 2107,
        ..FleetConfig::default()
    });
    let serve_cfg = ServeConfig::default();
    let lossless = RecordingConfig {
        capacity: 1024,
        policy: RecordPolicy::Block,
    };

    // The in-process golden run, recorded through the same tail.
    let in_dir = fresh_dir("golden-in-process");
    let in_rec =
        spawn_flight_recorder(StoreConfig::new(&in_dir), lossless).expect("spawn recorder");
    let mut in_sink = Telemetry::new();
    let (in_process, _) = serve_streams(
        &serve_cfg,
        &fleet.streams,
        Some(&in_rec.handle()),
        &mut in_sink,
    );
    in_rec.finish().expect("in-process recorder finish");
    let golden = decision_log_csv(&in_process);
    assert!(
        golden.lines().count() > 24,
        "the fleet clears warm-up, so the golden log has content"
    );

    let rows = |dir: &PathBuf| {
        TraceReader::open(dir)
            .expect("open")
            .read_frames()
            .expect("read")
            .1
    };
    let recorder_at = |tel: &Telemetry| -> Vec<Nanos> {
        tel.events()
            .filter_map(|e| match e {
                Event::ServeRecorder { at, .. } => Some(*at),
                _ => None,
            })
            .collect()
    };
    let in_at = recorder_at(&in_sink);
    assert_eq!(in_at.len(), 1, "one serve_recorder event in process");

    for (read_chunk, write_chunk) in [(4096, 7), (7, 7), (64 << 10, 0)] {
        let case = format!("read_chunk {read_chunk}");
        let dir = fresh_dir(&format!("golden-{read_chunk}"));
        let store = StoreConfig::new(&dir).with_target_segment_bytes(64 << 10);
        let edge_cfg = EdgeConfig {
            read_chunk,
            ..EdgeConfig::default()
        };
        let rec = spawn_flight_recorder(store.clone(), lossless).expect("spawn recorder");
        let handle = rec.handle();
        let mut sink = Telemetry::new();
        let (decisions, report) = serve_sockets(
            &serve_cfg,
            &edge_cfg,
            &fleet.streams,
            write_chunk,
            Some(&handle),
            &mut sink,
        )
        .expect("socket serve");
        let (_summary, stats) = rec.finish().expect("recorder finish");

        assert_eq!(
            decision_log_csv(&decisions),
            golden,
            "{case}: socket path diverged from the in-process decision log"
        );
        assert_eq!(report.stats.frames, fleet.total_frames(), "{case}");
        assert_eq!(
            report.serve.frames_processed,
            fleet.total_frames(),
            "{case}"
        );
        assert_eq!(report.stats.conns_accepted, 24, "{case}");
        assert_eq!(report.stats.resyncs, 0, "{case}");
        assert_eq!(report.truncated_bytes, 0, "{case}");
        assert!(report.conserved(), "{case}: conservation broke");
        assert!(report
            .conns
            .iter()
            .all(|c| c.outcome == ConnOutcome::Eof && c.frames > 0));

        // Lossless recording (Block policy): every frame and row.
        assert_eq!(stats.frames, fleet.total_frames(), "{case}");
        assert_eq!(stats.dropped, 0, "{case}");
        assert_eq!(stats.rows as usize, golden.lines().count(), "{case}");

        // The edge emitted its lifecycle telemetry.
        assert_eq!(
            sink.events().filter(|e| e.kind() == "edge_conn").count(),
            24
        );
        assert_eq!(
            sink.events().filter(|e| e.kind() == "edge_serve").count(),
            1
        );

        // Both drivers end a recorded run through the same tail: the
        // same golden rows on disk and exactly one `serve_recorder`
        // event each, stamped with the same latest per-shard frame time.
        assert_eq!(rows(&in_dir), rows(&dir), "{case}: golden rows differ");
        assert_eq!(recorder_at(&sink), in_at, "{case}: serve_recorder event");

        // And the store replays byte-identically at several shard
        // counts.
        let replay = replay_fleet(&store, &serve_cfg, &[1, 4], &mut NoopSink).expect("replay");
        assert_eq!(replay.golden, golden, "{case}: stored golden == live");
        assert!(
            replay.all_match(),
            "{case}: replay diverged at shard counts {:?}",
            replay.mismatches()
        );
    }
}

/// Socket runs honour `ServeConfig::stage_sampling`: sampled frames
/// carry a stage trace from the edge's per-read ingest stamp through
/// the recorder tee, the queue and the worker — and tracing changes no
/// decision.
#[test]
fn socket_runs_trace_stages_without_perturbing_decisions() {
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 8,
        duration: 8 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 77,
        ..FleetConfig::default()
    });
    let (plain, plain_report) = serve_sockets(
        &ServeConfig::default(),
        &EdgeConfig::default(),
        &fleet.streams,
        0,
        None,
        &mut NoopSink,
    )
    .expect("untraced socket serve");
    assert_eq!(plain_report.serve.stages.traces(), 0);

    let traced_cfg = ServeConfig {
        stage_sampling: 4,
        ..ServeConfig::default()
    };
    let dir = fresh_dir("stage-traces");
    let rec = spawn_flight_recorder(StoreConfig::new(&dir), RecordingConfig::default())
        .expect("spawn recorder");
    let (traced, report) = serve_sockets(
        &traced_cfg,
        &EdgeConfig::default(),
        &fleet.streams,
        0,
        Some(&rec.handle()),
        &mut NoopSink,
    )
    .expect("traced socket serve");
    rec.finish().expect("recorder finish");

    assert_eq!(
        decision_log_csv(&traced),
        decision_log_csv(&plain),
        "tracing must not perturb decisions"
    );
    let stages = &report.serve.stages;
    let traces = stages.traces();
    // One sampler over the reactor's whole frame stream.
    assert_eq!(traces, fleet.total_frames() / 4);
    for stage in [
        Stage::Record,
        Stage::Enqueue,
        Stage::Dequeue,
        Stage::Classify,
        Stage::Decide,
    ] {
        assert_eq!(stages.get(stage).count(), traces, "{stage:?}");
    }
}

/// A socket-fed run with the ops monitor on snapshots the session
/// gauges an in-process run does, alongside the edge's own counters.
#[test]
fn socket_snapshots_carry_session_gauges() {
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 4,
        duration: SECOND,
        step: 50 * MILLISECOND,
        base_seed: 31,
        ..FleetConfig::default()
    });
    let serve_cfg = ServeConfig {
        snapshot: Some(SnapshotPolicy {
            interval: Duration::from_millis(5),
            stall_intervals: 2,
        }),
        ..ServeConfig::default()
    };
    let (_decisions, report) = serve_sockets(
        &serve_cfg,
        &EdgeConfig::default(),
        &fleet.streams,
        0,
        None,
        &mut NoopSink,
    )
    .expect("socket serve");
    let snaps = parse_snapshots(&report.serve.ops.snapshots.concat()).expect("snapshots parse");
    // The final tick runs after the workers joined: every session is
    // resident and the edge has counted every frame.
    let last = snaps.last().expect("the monitor takes a final snapshot");
    assert_eq!(last.gauges.get("serve.sessions.hot"), Some(&4.0));
    assert_eq!(
        last.counters.get("edge.frames"),
        Some(&fleet.total_frames())
    );
    // The reactor's idle work: every idle sweep ended in a yield or a
    // park, and no more sweeps were idle than ran.
    let counter = |name: &str| {
        *last
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("the final snapshot carries {name}"))
    };
    let sweeps = counter("edge.sweeps");
    let idle = counter("edge.sweeps.idle");
    assert_eq!(idle, counter("edge.yields") + counter("edge.parks"));
    assert!(sweeps >= idle, "{sweeps} sweeps, {idle} idle");
}

/// UDP ingestion: every datagram is decoded standalone and served.
#[test]
fn udp_datagrams_are_decoded_and_conserved() {
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 3,
        duration: 2 * SECOND,
        step: 50 * MILLISECOND,
        base_seed: 4242,
        ..FleetConfig::default()
    });
    let total = fleet.total_frames();
    let edge = Edge::bind(&ServeConfig::default(), &EdgeConfig::default(), None).expect("bind");
    let sent =
        mobisense_edge::send_datagrams_udp(edge.udp_addr(), &fleet.streams).expect("send udp");
    assert_eq!(sent, total);
    // Loopback UDP with a tiny payload volume: nothing can drop, but
    // delivery is asynchronous — wait until the reactor has them all.
    wait_for(&edge, Duration::from_secs(30), |s| s.frames >= total);
    let (_decisions, report) = edge.finish(&mut NoopSink).expect("finish");
    assert_eq!(report.stats.datagrams, total);
    assert_eq!(report.stats.frames, total);
    assert_eq!(report.serve.frames_processed, total);
    assert!(report.conserved());
}

/// A connection over its frame quota is condemned: the overflow frames
/// are counted rejected (never enqueued, never lost) and the socket is
/// closed with a `rejected` outcome.
#[test]
fn frame_quota_condemns_connection_and_conserves() {
    let edge_cfg = EdgeConfig {
        frame_quota: 3,
        ..EdgeConfig::default()
    };
    let edge = Edge::bind(&ServeConfig::default(), &edge_cfg, None).expect("bind");
    let mut sock = TcpStream::connect(edge.tcp_addr()).expect("connect");
    let mut bytes = Vec::new();
    for seq in 0..10 {
        obs(1, seq).encode_into(&mut bytes);
    }
    sock.write_all(&bytes).expect("write");
    sock.shutdown(Shutdown::Write).expect("half-close");
    // The edge closes the socket at condemnation; read to EOF/reset.
    let mut drain = [0u8; 16];
    while matches!(sock.read(&mut drain), Ok(n) if n > 0) {}
    drop(sock);

    wait_for(&edge, Duration::from_secs(30), |s| {
        s.conns_accepted >= 1 && s.conns_active == 0
    });
    let (decisions, report) = edge.finish(&mut NoopSink).expect("finish");
    assert!(report.conserved(), "quota path must not lose frames");
    assert!(report.stats.frames_rejected >= 1, "overflow was rejected");
    assert!(
        report.serve.frames_processed <= 3,
        "quota bounds processing"
    );
    assert_eq!(
        report.stats.frames,
        report.serve.frames_processed + report.stats.frames_rejected
    );
    assert_eq!(report.conns.len(), 1);
    assert_eq!(report.conns[0].outcome, ConnOutcome::Rejected);
    assert!(decisions.len() <= 3);
}

/// A connection whose buffered, undecodable bytes exceed the cap is
/// closed as oversize; the bytes are accounted truncated, not lost.
#[test]
fn oversize_pending_buffer_closes_connection() {
    let edge_cfg = EdgeConfig {
        read_buf_cap: 128,
        ..EdgeConfig::default()
    };
    let edge = Edge::bind(&ServeConfig::default(), &edge_cfg, None).expect("bind");
    let mut sock = TcpStream::connect(edge.tcp_addr()).expect("connect");
    // A valid header promising a 255-float digest (1048 bytes total),
    // then silence: the pending buffer can only grow.
    let full = ObsFrame {
        digest: vec![1.0; 255],
        ..obs(9, 0)
    }
    .encode();
    sock.write_all(&full[..200]).expect("write partial frame");

    wait_for(&edge, Duration::from_secs(30), |s| {
        s.conns_accepted >= 1 && s.conns_active == 0
    });
    drop(sock);
    let (_decisions, report) = edge.finish(&mut NoopSink).expect("finish");
    assert_eq!(report.conns.len(), 1);
    assert_eq!(report.conns[0].outcome, ConnOutcome::Oversize);
    assert_eq!(report.stats.frames, 0);
    assert_eq!(report.truncated_bytes, 200);
    assert!(report.conserved());
}

/// Corruption on a live socket: the assembler skips the garbage,
/// resynchronizes on the next magic pair, and both flanking frames are
/// served.
#[test]
fn corrupt_bytes_resync_on_a_live_socket() {
    let edge = Edge::bind(&ServeConfig::default(), &EdgeConfig::default(), None).expect("bind");
    let mut sock = TcpStream::connect(edge.tcp_addr()).expect("connect");
    let mut bytes = obs(5, 0).encode();
    bytes.extend_from_slice(&[0xFF; 16]);
    bytes.extend_from_slice(&obs(5, 1).encode());
    sock.write_all(&bytes).expect("write");
    drop(sock);

    wait_for(&edge, Duration::from_secs(30), |s| {
        s.conns_accepted >= 1 && s.conns_active == 0
    });
    let (_decisions, report) = edge.finish(&mut NoopSink).expect("finish");
    assert_eq!(report.stats.frames, 2, "both flanking frames decoded");
    assert_eq!(report.stats.resyncs, 1);
    assert_eq!(report.serve.frames_processed, 2);
    assert!(report.conserved());
}

/// CI-sized soak: modest concurrency, tiny shedding queues, in-process
/// senders. Asserts the conservation invariant end to end.
#[test]
fn socket_soak_smoke() {
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 64,
        duration: SECOND,
        step: 100 * MILLISECOND,
        base_seed: 77,
        ..FleetConfig::default()
    });
    let serve_cfg = ServeConfig {
        queue_capacity: 4,
        overflow: OverflowPolicy::ShedOldestPerClient,
        ..ServeConfig::default()
    };
    let (_decisions, report) = serve_sockets(
        &serve_cfg,
        &EdgeConfig::default(),
        &fleet.streams,
        32,
        None,
        &mut NoopSink,
    )
    .expect("socket serve");
    assert_eq!(report.stats.frames, fleet.total_frames());
    assert_eq!(report.stats.conns_accepted, 64);
    assert!(report.conserved(), "conservation broke under shedding");
    assert_eq!(
        report.serve.frames_processed + report.serve.shed,
        fleet.total_frames()
    );
}

struct LoadChild {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
}

impl LoadChild {
    fn spawn(addr: &str, n_conns: u32, frames: u32, client_base: u32) -> LoadChild {
        let mut child = Command::new(env!("CARGO_BIN_EXE_edge_load"))
            .args([
                addr,
                &n_conns.to_string(),
                &frames.to_string(),
                &client_base.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn edge_load");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        LoadChild { child, stdout }
    }

    fn expect_line(&mut self, want: &str) {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("child stdout");
        assert!(n > 0, "edge_load exited before printing {want:?}");
        assert_eq!(line.trim(), want);
    }

    fn send_line(&mut self, line: &str) {
        let stdin = self.child.stdin.as_mut().expect("child stdin");
        writeln!(stdin, "{line}").expect("child stdin write");
        stdin.flush().expect("child stdin flush");
    }
}

/// The overload soak: ≥10k concurrent loopback connections (client
/// fds held by child processes to stay inside the fd budget), tiny
/// shedding queues, conservation asserted exactly —
/// `accepted == processed + shed + rejected` with `shed > 0`.
#[test]
fn soak_10k_connections_conserve_under_overload() {
    const CHILDREN: u32 = 5;
    const CONNS_PER_CHILD: u32 = 2048;
    const FRAMES_PER_CONN: u32 = 4;
    const TOTAL_CONNS: u64 = (CHILDREN * CONNS_PER_CHILD) as u64;
    const TOTAL_FRAMES: u64 = TOTAL_CONNS * FRAMES_PER_CONN as u64;

    let serve_cfg = ServeConfig {
        queue_capacity: 4,
        overflow: OverflowPolicy::ShedOldestPerClient,
        ..ServeConfig::default()
    };
    let edge_cfg = EdgeConfig::default();
    let edge = Edge::bind(&serve_cfg, &edge_cfg, None).expect("bind");
    let addr = edge.tcp_addr().to_string();

    let mut children: Vec<LoadChild> = (0..CHILDREN)
        .map(|i| {
            LoadChild::spawn(
                &addr,
                CONNS_PER_CHILD,
                FRAMES_PER_CONN,
                1 + i * CONNS_PER_CHILD,
            )
        })
        .collect();
    for c in children.iter_mut() {
        c.expect_line("ready");
    }
    // Every connection is up and held open: peak concurrency is now.
    let stats = wait_for(&edge, Duration::from_secs(300), |s| {
        s.conns_active >= TOTAL_CONNS
    });
    assert!(stats.conns_peak >= 10_000, "peak {:?}", stats.conns_peak);
    assert_eq!(stats.conns_accepted, TOTAL_CONNS);

    for c in children.iter_mut() {
        c.send_line("go");
    }
    for c in children.iter_mut() {
        c.expect_line("done");
    }
    for c in children.iter_mut() {
        let status = c.child.wait().expect("child wait");
        assert!(status.success(), "edge_load failed: {status}");
    }

    let (_decisions, report) = edge.finish(&mut NoopSink).expect("finish");
    assert_eq!(report.stats.frames, TOTAL_FRAMES, "every frame decoded");
    assert_eq!(report.stats.conns_accepted, TOTAL_CONNS);
    assert!(
        report.conserved(),
        "conservation broke: frames {} != processed {} + shed {} + rejected {}",
        report.stats.frames,
        report.serve.frames_processed,
        report.serve.shed,
        report.stats.frames_rejected
    );
    assert!(
        report.serve.shed > 0,
        "tiny queues under a 10k burst must shed"
    );
    assert_eq!(report.conns.len() as u64, TOTAL_CONNS);
    assert!(report
        .conns
        .iter()
        .all(|c| c.outcome == ConnOutcome::Eof && c.frames == FRAMES_PER_CONN as u64));
}

/// Kill-mid-session salvage: a recorded socket session whose store is
/// torn mid-record (the crash leaves the last segment unsealed and
/// truncated) still recovers a **verified prefix** — per client, the
/// salvaged frames are exactly the stream's first k frames, bit-equal.
#[test]
fn killed_socket_session_salvages_verified_prefix() {
    let dir = fresh_dir("kill");
    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients: 24,
        duration: SECOND,
        step: 50 * MILLISECOND,
        base_seed: 909,
        ..FleetConfig::default()
    });
    let total = fleet.total_frames();
    let store = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
    let rec = spawn_flight_recorder(
        store,
        RecordingConfig {
            capacity: 1024,
            policy: RecordPolicy::Block,
        },
    )
    .expect("spawn recorder");
    let handle = rec.handle();

    let edge = Edge::bind(
        &ServeConfig::default(),
        &EdgeConfig::default(),
        Some(handle),
    )
    .expect("bind");
    mobisense_edge::send_streams_tcp(edge.tcp_addr(), &fleet.streams, 0).expect("send");
    let (_decisions, report) = edge.finish(&mut NoopSink).expect("finish");
    assert_eq!(report.stats.frames, total);
    let (summary, stats) = rec.finish().expect("recorder finish");
    assert_eq!(stats.frames, total);
    assert_eq!(stats.dropped, 0);
    assert!(summary.segments.len() > 1, "need multiple segments");

    // The kill: the last segment's seal rename never became durable
    // and its tail write was torn mid-record.
    let last = summary.segments.last().expect("segments");
    let reverted = dir.join(format!("seg-{:08}.open", last.id));
    std::fs::rename(&last.path, &reverted).expect("simulate lost rename");
    let torn = std::fs::metadata(&reverted).expect("meta").len() / 2;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&reverted)
        .expect("open tail");
    f.set_len(torn).expect("truncate mid-record");
    drop(f);

    let reader = TraceReader::open(&dir).expect("open");
    let rec = reader.recover().expect("recover");
    assert_eq!(rec.tail_segments, 1, "the torn segment reads as a tail");
    assert!(rec.skipped.is_empty(), "sealed segments are intact");
    let salvaged = rec.frames.len() as u64;
    assert!(salvaged > 0, "something salvaged");
    assert!(salvaged < total, "the torn tail lost frames");

    // Verified prefix, per client: frame k of the salvage is bit-equal
    // to frame k of the client's original stream, with no gaps.
    let mut next_seq = std::collections::BTreeMap::<u32, u32>::new();
    for frame in &rec.frames {
        let k = next_seq.entry(frame.client_id).or_insert(0);
        let stream = fleet
            .streams
            .iter()
            .find(|s| s.client_id == frame.client_id)
            .expect("salvaged frame from a known client");
        assert_eq!(frame.seq, *k, "client {} has a gap", frame.client_id);
        assert_eq!(
            frame,
            &stream.obs(*k as usize),
            "salvaged frame diverges from the original"
        );
        *k += 1;
    }
}
