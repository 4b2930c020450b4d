//! The golden-regression harness: record a fleet and the decision log
//! it produced, then replay the stored frames through the serving
//! layer and demand the byte-identical log back.
//!
//! This is the store-backed version of the determinism contract the
//! serving layer already proves in memory: the merged decision log
//! (sorted by client id, then sequence) is a pure function of the
//! observation streams, independent of shard count. Recording
//! [`record_fleet`] persists the streams **and** the log, writing the
//! frames on a `store-writer` thread while the live service classifies
//! the same fleet; replaying [`replay_fleet`] walks the store — without
//! trusting any in-memory state — and hands each verified frame
//! straight to a [`ShardEngine`] at each requested shard count, then
//! compares every log against the stored golden bytes. A mismatch
//! means the classifier, the pipeline or the store changed observable
//! behaviour; CI fails on it.
//!
//! [`replay_client`] is the filtered variant: the sparse per-segment
//! index selects only segments containing the requested client, and a
//! single-client serve must reproduce exactly that client's rows of
//! the golden log (per-client sessions are seeded by client id alone,
//! so serving a client in isolation is behaviour-identical).

use std::collections::BTreeSet;

use mobisense_serve::fleet::{ClientStream, EncodedFleet};
use mobisense_serve::service::{
    decision_log_csv, emit_report_events, serve_streams, ServeConfig, ServeReport, ShardEngine,
};
use mobisense_telemetry::event::Event;
use mobisense_telemetry::sink::{timed, Sink};

use crate::reader::{self, decode_obs, decode_row, Listing, SegmentMeta, TraceReader};
use crate::segment::RecordKind;
use crate::writer::{StoreConfig, TraceWriter};
use crate::StoreError;

/// What [`record_fleet`] wrote and observed.
#[derive(Debug)]
pub struct RecordSummary {
    /// Metadata of every sealed segment.
    pub segments: Vec<SegmentMeta>,
    /// Observation frames recorded.
    pub frames: u64,
    /// Total sealed-segment bytes.
    pub bytes: u64,
    /// The golden decision log (canonical CSV) of the live run.
    pub golden: String,
    /// The live run's serving report.
    pub report: ServeReport,
}

/// What [`replay_fleet`] reproduced.
#[derive(Debug)]
pub struct ReplayReport {
    /// Frames replayed (all of them, every shard count).
    pub frames: u64,
    /// Distinct clients in the stored trace.
    pub clients: usize,
    /// The golden decision log read back from the store.
    pub golden: String,
    /// `(shard count, decision log)` for every requested count.
    pub logs: Vec<(usize, String)>,
}

impl ReplayReport {
    /// Whether every replayed log matched the golden bytes.
    pub fn all_match(&self) -> bool {
        self.logs.iter().all(|(_, log)| *log == self.golden)
    }

    /// Shard counts whose logs diverged from the golden log.
    pub fn mismatches(&self) -> Vec<usize> {
        self.logs
            .iter()
            .filter(|(_, log)| *log != self.golden)
            .map(|(n, _)| *n)
            .collect()
    }
}

/// Records `fleet` into the store at `store.dir` — frames in
/// time-major ingest order via the zero-copy encoded path — while the
/// live service classifies the same fleet, then appends its decision
/// log as the golden reference. The frames are written on a
/// `store-writer` thread, so the store I/O overlaps classification;
/// the writer alone decides the bytes, so every segment file is the
/// same for any shard count. Emits one `StoreSegment` event per sealed
/// segment and a `store.record` wall-clock span.
pub fn record_fleet<S: Sink + ?Sized>(
    store: &StoreConfig,
    serve_cfg: &ServeConfig,
    fleet: &EncodedFleet,
    sink: &mut S,
) -> Result<RecordSummary, StoreError> {
    timed(sink, "store.record", |sink| {
        let mut writer = TraceWriter::create(store.clone())?;
        let (decisions, report) = std::thread::scope(|scope| {
            let writing = std::thread::Builder::new()
                .name("store-writer".into())
                .spawn_scoped(scope, || {
                    fleet
                        .encoded_frames_time_major()
                        .try_for_each(|bytes| writer.append_encoded(bytes))
                })?;
            let served = serve_streams(serve_cfg, &fleet.streams, None, sink);
            writing
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            Ok::<_, StoreError>(served)
        })?;
        let golden = decision_log_csv(&decisions);
        for line in golden.lines() {
            writer.append_decision_row(line)?;
        }
        let summary = writer.finish()?;
        for meta in &summary.segments {
            let index = meta.index.as_ref().expect("writer seals with an index");
            sink.record(Event::StoreSegment {
                at: index.max_at,
                segment: meta.id,
                frames: index.frames,
                bytes: meta.bytes,
            });
        }
        Ok(RecordSummary {
            segments: summary.segments,
            frames: summary.frames,
            bytes: summary.bytes,
            golden,
            report,
        })
    })
}

/// What one walk over a store saw besides serving it.
#[derive(Default)]
struct Contents {
    frames: u64,
    clients: BTreeSet<u32>,
    rows: Vec<String>,
}

/// One strict walk over the store in record order, collecting its
/// frames, clients and decision rows into `contents`. With an
/// `engine`, each verified frame goes to it, one [`IngestBatch`] at a
/// time. Session snapshots are skipped: the strict walk already
/// CRC-verified them, and [`TraceReader::latest_snapshots`] is the
/// read path that decodes them.
///
/// [`IngestBatch`]: mobisense_serve::IngestBatch
fn walk_store(
    listing: &Listing,
    engine: Option<&ShardEngine>,
    contents: &mut Contents,
) -> Result<(), StoreError> {
    let mut feed = engine.map(|engine| (engine, engine.ingest_batch()));
    let walked = listing.visit_records(|segment_id, kind, payload| {
        match kind {
            RecordKind::Obs => {
                let frame = decode_obs(segment_id, payload)?;
                contents.frames += 1;
                contents.clients.insert(frame.client_id);
                if let Some((engine, batch)) = feed.as_mut() {
                    batch.push(frame, payload);
                    if batch.is_full() {
                        engine.submit_ingest(batch);
                    }
                }
            }
            RecordKind::DecisionRow => contents.rows.push(decode_row(segment_id, payload)?),
            RecordKind::SessionSnapshot => {}
            RecordKind::Seal => unreachable!("scanner never yields seal records"),
        }
        Ok(())
    });
    // Frames verified before any damage are served too, so every
    // counted frame reaches the engine.
    if let Some((engine, batch)) = feed.as_mut() {
        engine.submit_ingest(batch);
    }
    walked
}

/// Replays the store through the serving layer at every shard count in
/// `shard_counts`, comparing each merged decision log against the
/// stored golden log. Each shard count is one strict walk over the
/// store that hands every verified frame, in record order, to a fresh
/// [`ShardEngine`] — the same frontend calls the socket edge makes —
/// so reading the next segment overlaps classifying the last. A walk
/// that hits damage finishes its engine before the error returns, so
/// no worker outlives the call. With no shard count the store is still
/// walked once, for the report's frames, clients and golden log. The
/// comparison itself is left to the caller (tests want to assert,
/// tools want to diff) — see [`ReplayReport::all_match`].
pub fn replay_fleet<S: Sink + ?Sized>(
    store: &StoreConfig,
    serve_cfg: &ServeConfig,
    shard_counts: &[usize],
    sink: &mut S,
) -> Result<ReplayReport, StoreError> {
    timed(sink, "store.replay", |sink| {
        let listing = reader::list(&store.dir)?;
        let mut contents = Contents::default();
        if shard_counts.is_empty() {
            walk_store(&listing, None, &mut contents)?;
        }
        let mut logs = Vec::with_capacity(shard_counts.len());
        for &n_shards in shard_counts {
            let cfg = ServeConfig {
                n_shards,
                ..serve_cfg.clone()
            };
            let engine = ShardEngine::spawn(&cfg)?;
            contents = Contents::default();
            let walked = walk_store(&listing, Some(&engine), &mut contents);
            let (decisions, report) = engine.finish(contents.frames);
            emit_report_events(&report, sink);
            walked?;
            logs.push((n_shards, decision_log_csv(&decisions)));
        }
        let mut golden = contents.rows.join("\n");
        if !contents.rows.is_empty() {
            golden.push('\n');
        }
        Ok(ReplayReport {
            frames: contents.frames,
            clients: contents.clients.len(),
            golden,
            logs,
        })
    })
}

/// Replays a single client using the sparse index to skip segments
/// that cannot contain it, returning that client's decision rows
/// (header excluded). Because sessions are seeded per client id, these
/// rows must equal the client's rows within the fleet golden log.
pub fn replay_client<S: Sink + ?Sized>(
    store: &StoreConfig,
    serve_cfg: &ServeConfig,
    client_id: u32,
    sink: &mut S,
) -> Result<Vec<String>, StoreError> {
    let reader = TraceReader::open(&store.dir)?;
    let frames = reader.client_frames(client_id)?;
    if frames.is_empty() {
        return Ok(Vec::new());
    }
    let stream = ClientStream::from_frames(client_id, &frames);
    let cfg = ServeConfig {
        n_shards: 1,
        ..serve_cfg.clone()
    };
    let (decisions, _) = serve_streams(&cfg, &[stream], None, sink);
    Ok(decision_log_csv(&decisions)
        .lines()
        .skip(1)
        .map(str::to_owned)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir;
    use mobisense_serve::fleet::FleetConfig;
    use mobisense_telemetry::sink::NoopSink;
    use mobisense_telemetry::Telemetry;
    use mobisense_util::units::{MILLISECOND, SECOND};
    use std::path::Path;
    use std::time::{Duration, Instant};

    /// The defaults with a 1 s classifier warm-up: the fleets run 2 s,
    /// so the default 6 s warm-up would leave every golden log a bare
    /// CSV header.
    fn serve_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.pipeline.warmup = SECOND;
        cfg
    }

    /// Decision rows below the golden log's CSV header.
    fn rows(golden: &str) -> usize {
        golden.lines().count().saturating_sub(1)
    }

    fn small_fleet() -> EncodedFleet {
        EncodedFleet::generate(&FleetConfig {
            n_clients: 8,
            duration: 2 * SECOND,
            step: 50 * MILLISECOND,
            base_seed: 42,
            gen_threads: 2,
            ..FleetConfig::default()
        })
    }

    /// Every file in `dir` as `(name, bytes)`, sorted by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("list")
            .map(|entry| {
                let entry = entry.expect("entry");
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).expect("read"))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn recorded_fleet_replays_byte_identically() {
        let dir = testdir::fresh("replay-roundtrip");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir).with_target_segment_bytes(16 << 10);
        let serve_cfg = serve_cfg();
        let mut sink = Telemetry::new();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut sink).expect("record");
        assert_eq!(rec.frames, 8 * fleet.cfg.frames_per_client() as u64);
        assert!(
            rows(&rec.golden) >= 8,
            "{} decision rows",
            rows(&rec.golden)
        );
        assert!(
            sink.events().any(|e| e.kind() == "store_segment"),
            "recording reports its segments"
        );

        let replay = replay_fleet(&store, &serve_cfg, &[1, 2, 4], &mut NoopSink).expect("replay");
        assert_eq!(replay.frames, rec.frames);
        assert_eq!(replay.clients, 8);
        assert_eq!(replay.golden, rec.golden, "stored golden reads back");
        assert!(replay.all_match(), "diverged: {:?}", replay.mismatches());
    }

    #[test]
    fn stream_rebuild_matches_the_original_fleet() {
        let dir = testdir::fresh("replay-rebuild");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir);
        let rec = record_fleet(&store, &serve_cfg(), &fleet, &mut NoopSink).expect("record");
        let reader = TraceReader::open(&dir).expect("open");
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut rows: Vec<String> = Vec::new();
        reader
            .visit_records(|segment_id, kind, payload| {
                match kind {
                    RecordKind::Obs => {
                        assert!(rows.is_empty(), "every frame precedes the golden rows");
                        frames.push(payload.to_vec());
                    }
                    RecordKind::DecisionRow => rows.push(decode_row(segment_id, payload)?),
                    other => panic!("unexpected {other:?} record"),
                }
                Ok(())
            })
            .expect("walk");
        let want: Vec<&[u8]> = fleet.encoded_frames_time_major().collect();
        assert_eq!(frames.len(), want.len());
        assert_eq!(frames.len() as u64, fleet.total_frames());
        for (i, (got, want)) in frames.iter().zip(&want).enumerate() {
            assert_eq!(got.as_slice(), *want, "frame {i}: byte-exact, time-major");
        }
        assert_eq!(rows, rec.golden.lines().collect::<Vec<_>>());
    }

    #[test]
    fn recorded_segments_match_a_plain_writer_at_any_shard_count() {
        let fleet = small_fleet();
        let target = 8 << 10;
        let mut recorded = Vec::new();
        for n_shards in [1, 4] {
            let dir = testdir::fresh(&format!("replay-record-{n_shards}-shards"));
            let store = StoreConfig::new(&dir).with_target_segment_bytes(target);
            let cfg = ServeConfig {
                n_shards,
                ..serve_cfg()
            };
            let rec = record_fleet(&store, &cfg, &fleet, &mut NoopSink).expect("record");
            recorded.push((n_shards, rec.golden, files(&dir)));
        }
        let golden = recorded[0].1.clone();
        assert!(rows(&golden) >= 8, "{} decision rows", rows(&golden));

        // The reference: one thread appending the fleet time-major,
        // then the golden rows.
        let plain = testdir::fresh("replay-plain-writer");
        let mut writer =
            TraceWriter::create(StoreConfig::new(&plain).with_target_segment_bytes(target))
                .expect("create");
        for bytes in fleet.encoded_frames_time_major() {
            writer.append_encoded(bytes).expect("append");
        }
        for line in golden.lines() {
            writer.append_decision_row(line).expect("row");
        }
        writer.finish().expect("finish");
        let want = files(&plain);
        assert!(want.len() > 2, "the target must rotate");
        for (n_shards, log, got) in &recorded {
            assert_eq!(*log, golden, "{n_shards} shards: golden log");
            let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
                files.iter().map(|(name, _)| name.clone()).collect()
            };
            assert_eq!(names(got), names(&want), "{n_shards} shards: file names");
            for ((name, got), (_, want)) in got.iter().zip(&want) {
                assert!(got == want, "{n_shards} shards: {name} differs");
            }
        }
    }

    #[test]
    fn replay_stops_at_a_damaged_segment_and_finishes_its_engine() {
        let dir = testdir::fresh("replay-damaged");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
        let serve_cfg = serve_cfg();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
        assert!(rec.segments.len() >= 3, "{} segments", rec.segments.len());
        let victim = &rec.segments[rec.segments.len() / 2];
        let mut bytes = std::fs::read(&victim.path).expect("read");
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        std::fs::write(&victim.path, &bytes).expect("write");

        let mut sink = Telemetry::new();
        let t0 = Instant::now();
        let result = replay_fleet(&store, &serve_cfg, &[1, 4], &mut sink);
        let elapsed = t0.elapsed();
        match result {
            Err(StoreError::Corrupt { segment_id, .. }) => assert_eq!(segment_id, victim.id),
            other => panic!("expected Corrupt for segment {}, got {other:?}", victim.id),
        }
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
        // Only `finish` reports shards, and it joins every worker: one
        // report from the one-shard walk means its engine was finished
        // before the error returned, and no four-shard engine started.
        let served: Vec<(u32, u64)> = sink
            .events()
            .filter_map(|e| match e {
                Event::ServeShard { shard, frames, .. } => Some((*shard, *frames)),
                _ => None,
            })
            .collect();
        assert_eq!(served.len(), 1, "{served:?}");
        let (shard, frames) = served[0];
        assert_eq!(shard, 0);
        assert!(
            frames > 0 && frames < rec.frames,
            "served {frames} of {} frames before the damage",
            rec.frames
        );
    }

    #[test]
    fn replay_scans_each_segment_once_per_shard_count() {
        let dir = testdir::fresh("replay-scans");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
        let serve_cfg = serve_cfg();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
        let segments = rec.segments.len() as u64;
        assert!(segments >= 3, "{segments} segments");
        // The walks run on this thread; the engines' workers never scan.
        let scans = || crate::segment::SEGMENT_SCANS.with(|c| c.get());
        let before = scans();
        let replay = replay_fleet(&store, &serve_cfg, &[1, 2], &mut NoopSink).expect("replay");
        assert!(replay.all_match(), "diverged: {:?}", replay.mismatches());
        assert_eq!(
            scans() - before,
            2 * segments,
            "one scan per segment per shard count"
        );
    }

    #[test]
    fn replay_without_shard_counts_still_reads_the_store() {
        let dir = testdir::fresh("replay-no-shards");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
        let serve_cfg = serve_cfg();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
        let mut sink = Telemetry::new();
        let read = replay_fleet(&store, &serve_cfg, &[], &mut sink).expect("read");
        assert_eq!(read.frames, rec.frames);
        assert_eq!(read.clients, 8);
        assert_eq!(read.golden, rec.golden);
        assert!(read.logs.is_empty() && read.all_match());
        assert!(
            !sink.events().any(|e| e.kind() == "serve_shard"),
            "nothing is served"
        );
    }

    #[test]
    fn single_client_replay_matches_its_golden_rows() {
        let dir = testdir::fresh("replay-client");
        let fleet = small_fleet();
        // Tiny segments so the index actually gets to skip some.
        let store = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
        let serve_cfg = serve_cfg();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
        assert!(
            rows(&rec.golden) >= 8,
            "{} decision rows",
            rows(&rec.golden)
        );
        for client in [0u32, 3, 7] {
            let rows = replay_client(&store, &serve_cfg, client, &mut NoopSink).expect("replay");
            let want: Vec<&str> = rec
                .golden
                .lines()
                .skip(1)
                .filter(|l| l.starts_with(&format!("{client},")))
                .collect();
            assert_eq!(rows, want, "client {client}");
        }
        assert!(replay_client(&store, &serve_cfg, 999, &mut NoopSink)
            .expect("absent client")
            .is_empty());
    }

    #[test]
    fn replay_after_compaction_is_unchanged() {
        let dir = testdir::fresh("replay-compacted");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir).with_target_segment_bytes(4 << 10);
        let serve_cfg = serve_cfg();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
        assert!(
            rows(&rec.golden) >= 8,
            "{} decision rows",
            rows(&rec.golden)
        );
        let before = TraceReader::open(&dir).expect("open").segments().len();
        let merged = StoreConfig::new(&dir).with_target_segment_bytes(4 << 20);
        let report = crate::compact(&merged, &mut NoopSink).expect("compact");
        assert!(report.segments_after < before);
        let replay = replay_fleet(&store, &serve_cfg, &[1, 2], &mut NoopSink).expect("replay");
        assert_eq!(replay.golden, rec.golden);
        assert!(replay.all_match());
    }
}
