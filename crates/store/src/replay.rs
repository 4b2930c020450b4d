//! The golden-regression harness: record a fleet and the decision log
//! it produced, then replay the stored frames through the serving
//! layer and demand the byte-identical log back.
//!
//! This is the store-backed version of the determinism contract the
//! serving layer already proves in memory: the merged decision log
//! (sorted by client id, then sequence) is a pure function of the
//! observation streams, independent of shard count. Recording
//! [`record_fleet`] persists the streams **and** the log; replaying
//! [`replay_fleet`] rebuilds the streams from disk — without trusting
//! any in-memory state — serves them at each requested shard count and
//! compares every log against the stored golden bytes. A mismatch
//! means the classifier, the pipeline or the store changed observable
//! behaviour; CI fails on it.
//!
//! [`replay_client`] is the filtered variant: the sparse per-segment
//! index selects only segments containing the requested client, and a
//! single-client serve must reproduce exactly that client's rows of
//! the golden log (per-client sessions are seeded by client id alone,
//! so serving a client in isolation is behaviour-identical).

use std::collections::BTreeMap;

use mobisense_serve::fleet::{ClientStream, EncodedFleet};
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig, ServeReport};
use mobisense_serve::wire::{ObsFrame, WireError};
use mobisense_telemetry::event::Event;
use mobisense_telemetry::sink::{timed, Sink};

use crate::reader::{SegmentMeta, TraceReader};
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
/// time-major ingest order via the zero-copy encoded path — runs the
/// live service once, and appends its decision log as the golden
/// reference. Emits one `StoreSegment` event per sealed segment and a
/// `store.record` wall-clock span.
pub fn record_fleet<S: Sink + ?Sized>(
    store: &StoreConfig,
    serve_cfg: &ServeConfig,
    fleet: &EncodedFleet,
    sink: &mut S,
) -> Result<RecordSummary, StoreError> {
    timed(sink, "store.record", |sink| {
        let mut writer = TraceWriter::create(store.clone())?;
        for bytes in fleet.encoded_frames_time_major() {
            writer.append_encoded(bytes)?;
        }
        let (decisions, report) = serve_streams(serve_cfg, &fleet.streams, None, sink);
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

/// Rebuilds per-client streams and the stored golden log from a
/// sealed store, strictly. Streams come back in client-id order; the
/// golden log is the stored rows re-joined with trailing newline —
/// byte-identical to what [`record_fleet`] was handed.
pub fn rebuild_streams(reader: &TraceReader) -> Result<(Vec<ClientStream>, String), StoreError> {
    let mut by_client: BTreeMap<u32, (usize, Vec<u8>)> = BTreeMap::new();
    let mut rows: Vec<String> = Vec::new();
    reader.visit_records(|segment_id, kind, payload| {
        match kind {
            RecordKind::Obs => {
                let meta = ObsFrame::peek_meta(payload)
                    .map_err(|error| StoreError::BadFrame { segment_id, error })?;
                if meta.encoded_len != payload.len() {
                    return Err(StoreError::BadFrame {
                        segment_id,
                        error: WireError::Truncated {
                            needed: meta.encoded_len,
                            got: payload.len(),
                        },
                    });
                }
                let entry = by_client
                    .entry(meta.client_id)
                    .or_insert_with(|| (payload.len(), Vec::new()));
                if entry.0 != payload.len() {
                    // A client's stream is fixed-stride; ragged frame
                    // lengths mean the trace is not a fleet recording.
                    return Err(StoreError::BadFrame {
                        segment_id,
                        error: WireError::Truncated {
                            needed: entry.0,
                            got: payload.len(),
                        },
                    });
                }
                entry.1.extend_from_slice(payload);
            }
            RecordKind::DecisionRow => {
                rows.push(
                    std::str::from_utf8(payload)
                        .map_err(|_| StoreError::BadUtf8 { segment_id })?
                        .to_owned(),
                );
            }
            // Hibernation snapshots ride in the same store but are not
            // part of the fleet's observation streams; the strict walk
            // already CRC-verified them, and `TraceReader::
            // latest_snapshots` is the read path that decodes them.
            RecordKind::SessionSnapshot => {}
            RecordKind::Seal => unreachable!("scanner never yields seal records"),
        }
        Ok(())
    })?;
    let streams = by_client
        .into_iter()
        .map(|(client_id, (frame_len, bytes))| {
            ClientStream::from_encoded(client_id, frame_len, bytes)
        })
        .collect();
    let golden = if rows.is_empty() {
        String::new()
    } else {
        let mut g = rows.join("\n");
        g.push('\n');
        g
    };
    Ok((streams, golden))
}

/// Replays the store through the serving layer at every shard count in
/// `shard_counts`, comparing each merged decision log against the
/// stored golden log. The comparison itself is left to the caller
/// (tests want to assert, tools want to diff) — see
/// [`ReplayReport::all_match`].
pub fn replay_fleet<S: Sink + ?Sized>(
    store: &StoreConfig,
    serve_cfg: &ServeConfig,
    shard_counts: &[usize],
    sink: &mut S,
) -> Result<ReplayReport, StoreError> {
    timed(sink, "store.replay", |sink| {
        let reader = TraceReader::open(&store.dir)?;
        let (streams, golden) = rebuild_streams(&reader)?;
        let frames: u64 = streams.iter().map(|s| s.n_frames as u64).sum();
        let mut logs = Vec::with_capacity(shard_counts.len());
        for &n_shards in shard_counts {
            let cfg = ServeConfig {
                n_shards,
                ..serve_cfg.clone()
            };
            let (decisions, _) = serve_streams(&cfg, &streams, None, sink);
            logs.push((n_shards, decision_log_csv(&decisions)));
        }
        Ok(ReplayReport {
            frames,
            clients: streams.len(),
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

    #[test]
    fn recorded_fleet_replays_byte_identically() {
        let dir = testdir::fresh("replay-roundtrip");
        let fleet = small_fleet();
        let store = StoreConfig::new(&dir).with_target_segment_bytes(16 << 10);
        let serve_cfg = ServeConfig::default();
        let mut sink = Telemetry::new();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut sink).expect("record");
        assert_eq!(rec.frames, 8 * fleet.cfg.frames_per_client() as u64);
        assert!(!rec.golden.is_empty());
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
        record_fleet(&store, &ServeConfig::default(), &fleet, &mut NoopSink).expect("record");
        let reader = TraceReader::open(&dir).expect("open");
        let (streams, _) = rebuild_streams(&reader).expect("rebuild");
        assert_eq!(streams.len(), fleet.streams.len());
        for (rebuilt, original) in streams.iter().zip(&fleet.streams) {
            assert_eq!(rebuilt.client_id, original.client_id);
            assert_eq!(rebuilt.n_frames, original.n_frames);
            assert_eq!(rebuilt.bytes, original.bytes, "byte-exact rebuild");
            assert!(rebuilt.kind.is_none(), "replayed streams have no scenario");
        }
    }

    #[test]
    fn single_client_replay_matches_its_golden_rows() {
        let dir = testdir::fresh("replay-client");
        let fleet = small_fleet();
        // Tiny segments so the index actually gets to skip some.
        let store = StoreConfig::new(&dir).with_target_segment_bytes(8 << 10);
        let serve_cfg = ServeConfig::default();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
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
        let serve_cfg = ServeConfig::default();
        let rec = record_fleet(&store, &serve_cfg, &fleet, &mut NoopSink).expect("record");
        let before = TraceReader::open(&dir).expect("open").segments().len();
        let merged = StoreConfig::new(&dir).with_target_segment_bytes(4 << 20);
        let report = crate::compact(&merged, &mut NoopSink).expect("compact");
        assert!(report.segments_after < before);
        let replay = replay_fleet(&store, &serve_cfg, &[1, 2], &mut NoopSink).expect("replay");
        assert_eq!(replay.golden, rec.golden);
        assert!(replay.all_match());
    }
}
