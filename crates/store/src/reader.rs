//! [`TraceReader`]: strict and recovering reads over a segment
//! directory.
//!
//! Two read disciplines share one scanner:
//!
//! * **Strict** ([`visit_records`](TraceReader::visit_records),
//!   [`read_frames`](TraceReader::read_frames)) — any unsealed
//!   segment, damaged byte or undecodable payload is a typed
//!   [`StoreError`]. This is what replay verification uses: a golden
//!   comparison over silently-patched data would be meaningless.
//! * **Recovering** ([`recover`](TraceReader::recover)) — the
//!   after-a-crash discipline. A sealed segment either passes every
//!   check and contributes all of its records, or is skipped *whole*
//!   (sealed data never goes half-in). An unsealed `.open` tail
//!   contributes its longest verified record prefix. The outcome is
//!   accounted in [`Recovery`] and emitted as
//!   [`Event::StoreRecovery`](mobisense_telemetry::event::Event)
//!   telemetry.
//!
//! Filtered reads ([`client_frames`](TraceReader::client_frames)) use
//! the sparse index cached at open time to skip segments that cannot
//! contain the requested client without re-reading their bytes; the
//! segments they do read get the strict scan.
//!
//! **Listing, then classifying.** [`TraceReader::open`] lists the
//! current generation, then reads and scans every segment once to
//! classify it (sealed and intact, damaged, or an open tail) and cache
//! its index. Only the callers that use that classification open a
//! reader: retention, filtered reads, recovery (the
//! [`StorePager`](crate::pager::StorePager) rebuilds through it) and a
//! writer's retention preload. Compaction and
//! [`replay_fleet`](crate::replay::replay_fleet) need none of it: they
//! walk the bare listing (ids, paths, sealed names and sizes from the
//! directory entries) with one strict scan per segment, so each of
//! their passes reads every segment once.
//!
//! **One buffer per thread.** The sequential passes (strict visits,
//! replay and compaction) read each segment into a buffer their thread
//! keeps and reuses (`with_segment_bytes`), so a thread allocates it
//! once, at the size of the largest segment it has read. A fresh
//! buffer per segment would land wherever the allocator finds room,
//! which depends on what other threads freed meanwhile, so the passes'
//! peak memory would vary from one run to the next.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use mobisense_serve::wire::ObsFrame;
use mobisense_session::codec;
use mobisense_telemetry::event::Event;
use mobisense_telemetry::sink::Sink;

use crate::segment::{scan_segment, RecordKind, ScannedSegment, SegmentIndex};
use crate::StoreError;

/// What is known about one segment file after listing and scanning.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    /// Segment id (from the file name; the header must agree).
    pub id: u64,
    /// Path of the segment file.
    pub path: PathBuf,
    /// Whether the file carries the sealed (`.seg`) name.
    pub sealed: bool,
    /// File size in bytes.
    pub bytes: u64,
    /// CRC-verified records found by the opening scan.
    pub records: u64,
    /// The sparse index, when the segment is sealed and intact.
    pub index: Option<SegmentIndex>,
}

/// Per-store accounting of a recovering read.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Observation frames salvaged, in record order.
    pub frames: Vec<ObsFrame>,
    /// Decision-log lines salvaged, in record order.
    pub decision_rows: Vec<String>,
    /// Session snapshots salvaged as `(client_id, encoded_bytes)`, in
    /// record order — later entries supersede earlier ones for the
    /// same client (see [`TraceReader::latest_snapshots`]).
    pub session_snapshots: Vec<(u32, Vec<u8>)>,
    /// Sealed segments that passed every check.
    pub sealed_segments: usize,
    /// Ids of sealed segments skipped whole because of damage.
    pub skipped: Vec<u64>,
    /// Unsealed `.open` tails found (0 or 1 after a single crash).
    pub tail_segments: usize,
    /// Frames salvaged out of unsealed tails.
    pub tail_frames: u64,
}

impl Recovery {
    /// Whether the store was fully intact: everything sealed, nothing
    /// skipped, no tail to salvage.
    pub fn complete(&self) -> bool {
        self.skipped.is_empty() && self.tail_segments == 0
    }
}

/// Read-side view of a segment directory.
pub struct TraceReader {
    dir: PathBuf,
    generation: u64,
    stale_files: usize,
    segments: Vec<SegmentMeta>,
}

impl TraceReader {
    /// Lists every segment file of the **current generation** under
    /// `dir` (per the store [`manifest`](crate::manifest); other
    /// generations are compaction leftovers awaiting GC and are never
    /// read), then reads and scans each one. Scanning here only
    /// classifies (sealed-intact vs damaged vs open tail) and caches
    /// the sparse indexes; record payloads are re-read by the read
    /// methods. The callers that need that classification open a
    /// reader: retention, filtered reads ([`client_frames`]), recovery
    /// and a writer's retention preload. Compaction and
    /// [`replay_fleet`](crate::replay::replay_fleet) only walk the
    /// listing, reading each segment once. Never fails on damaged
    /// *contents* — only on I/O.
    ///
    /// [`client_frames`]: TraceReader::client_frames
    pub fn open(dir: &Path) -> io::Result<TraceReader> {
        let listing = list(dir)?;
        let mut segments = Vec::with_capacity(listing.segments.len());
        for listed in listing.segments {
            let bytes = fs::read(&listed.path)?;
            let (records, index) = match scan_segment(&bytes) {
                Ok(scan) => (
                    scan.records.len() as u64,
                    if listed.sealed && scan.sealed_ok() {
                        scan.seal.map(|s| s.index)
                    } else {
                        None
                    },
                ),
                Err(_) => (0, None),
            };
            segments.push(SegmentMeta {
                id: listed.id,
                path: listed.path,
                sealed: listed.sealed,
                bytes: bytes.len() as u64,
                records,
                index,
            });
        }
        Ok(TraceReader {
            dir: dir.to_path_buf(),
            generation: listing.generation,
            stale_files: listing.stale_files,
            segments,
        })
    }

    /// The segments found at open time, in id order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// The generation this reader resolved from the manifest.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Segment files of losing generations seen (and skipped) at open
    /// time — compaction leftovers the next writer open will GC.
    pub fn stale_files(&self) -> usize {
        self.stale_files
    }

    /// A live tail cursor positioned at the start of the store: the
    /// first poll yields everything currently readable (unsealed
    /// `.open` tails included) and later polls follow the writer. See
    /// [`TailCursor`](crate::tail::TailCursor) for the semantics.
    pub fn tail(&self) -> crate::tail::TailCursor {
        crate::tail::TailCursor::new(&self.dir)
    }

    /// Strict sequential visit of every non-seal record. The callback
    /// receives `(segment_id, kind, payload)`. Any unsealed or damaged
    /// segment aborts the walk with a typed error.
    pub fn visit_records<F>(&self, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(u64, RecordKind, &[u8]) -> Result<(), StoreError>,
    {
        for meta in &self.segments {
            visit_segment(meta.id, &meta.path, meta.sealed, &mut f)?;
        }
        Ok(())
    }

    /// Strict read of the whole store: every observation frame and
    /// every decision row, in record order.
    pub fn read_frames(&self) -> Result<(Vec<ObsFrame>, Vec<String>), StoreError> {
        let mut frames = Vec::new();
        let mut rows = Vec::new();
        self.visit_records(|segment_id, kind, payload| {
            match kind {
                RecordKind::Obs => frames.push(decode_obs(segment_id, payload)?),
                RecordKind::DecisionRow => rows.push(decode_row(segment_id, payload)?),
                // Snapshots are not part of the frame/decision replay
                // stream, but the strict discipline still validates
                // them — a corrupt snapshot in a "strictly read" store
                // would be a lie by omission.
                RecordKind::SessionSnapshot => {
                    decode_snapshot(segment_id, payload)?;
                }
                RecordKind::Seal => unreachable!("scanner never yields seal records"),
            }
            Ok(())
        })?;
        Ok((frames, rows))
    }

    /// Strict read of the newest session snapshot per client, in
    /// client-id order. Record order is authoritative: a client
    /// hibernated, restored and hibernated again keeps only the last
    /// snapshot. This is what [`StorePager`](crate::pager::StorePager)
    /// rebuilds its resident map from when reopening a sealed store.
    pub fn latest_snapshots(&self) -> Result<BTreeMap<u32, Vec<u8>>, StoreError> {
        let mut latest: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        self.visit_records(|segment_id, kind, payload| {
            if kind == RecordKind::SessionSnapshot {
                let client = decode_snapshot(segment_id, payload)?;
                latest.insert(client, payload.to_vec());
            }
            Ok(())
        })?;
        Ok(latest)
    }

    /// Strict filtered read: every frame of one client, in record
    /// order. Segments whose index rules the client out are skipped
    /// without re-reading their bytes — this is the sparse index
    /// earning its keep on single-client replay. Every segment that is
    /// read is scanned as strictly as [`visit_records`] scans it, so
    /// damage done after [`open`] is an error, never a shorter answer.
    ///
    /// [`visit_records`]: TraceReader::visit_records
    /// [`open`]: TraceReader::open
    pub fn client_frames(&self, client_id: u32) -> Result<Vec<ObsFrame>, StoreError> {
        let mut frames = Vec::new();
        for meta in &self.segments {
            if !meta.sealed {
                return Err(StoreError::Unsealed {
                    segment_id: meta.id,
                });
            }
            // A segment the opening scan found damaged has no index and
            // is read, so the strict scan names its damage.
            if meta
                .index
                .as_ref()
                .is_some_and(|index| !index.contains_client(client_id))
            {
                continue;
            }
            let bytes = fs::read(&meta.path)?;
            for record in &scan_sealed(meta.id, &bytes)?.records {
                if record.kind != RecordKind::Obs {
                    continue;
                }
                // Peek before decoding: most records are other clients.
                let peek =
                    ObsFrame::peek_meta(record.payload).map_err(|error| StoreError::BadFrame {
                        segment_id: meta.id,
                        error,
                    })?;
                if peek.client_id == client_id {
                    frames.push(decode_obs(meta.id, record.payload)?);
                }
            }
        }
        Ok(frames)
    }

    /// Recovering read (see the module docs for the discipline),
    /// without telemetry.
    pub fn recover(&self) -> io::Result<Recovery> {
        self.recover_with(&mut mobisense_telemetry::sink::NoopSink)
    }

    /// Recovering read, emitting one `StoreRecovery` event per
    /// salvaged tail or skipped segment.
    pub fn recover_with<S: Sink + ?Sized>(&self, sink: &mut S) -> io::Result<Recovery> {
        let mut out = Recovery::default();
        for meta in &self.segments {
            let bytes = fs::read(&meta.path)?;
            let scan = match scan_segment(&bytes) {
                Ok(scan) => scan,
                Err(_) => {
                    // Header damage: nothing in the file is usable. A
                    // sealed segment is a loss; an open tail cut this
                    // short simply salvages nothing.
                    if meta.sealed {
                        self.note_loss(&mut out, sink, meta, 0);
                    } else {
                        out.tail_segments += 1;
                        sink.record(Event::StoreRecovery {
                            at: 0,
                            segment: meta.id,
                            frames: 0,
                            lost: 0,
                        });
                    }
                    continue;
                }
            };
            // Salvage candidates: decode everything first so a bad
            // payload can fail the whole segment before any of it is
            // committed (sealed segments are all-or-nothing).
            let mut frames = Vec::new();
            let mut rows = Vec::new();
            let mut snapshots = Vec::new();
            let mut decodable = true;
            for record in &scan.records {
                match record.kind {
                    RecordKind::Obs => match decode_obs(meta.id, record.payload) {
                        Ok(f) => frames.push(f),
                        Err(_) => {
                            decodable = false;
                            break;
                        }
                    },
                    RecordKind::DecisionRow => match decode_row(meta.id, record.payload) {
                        Ok(r) => rows.push(r),
                        Err(_) => {
                            decodable = false;
                            break;
                        }
                    },
                    RecordKind::SessionSnapshot => match decode_snapshot(meta.id, record.payload) {
                        Ok(client) => snapshots.push((client, record.payload.to_vec())),
                        Err(_) => {
                            decodable = false;
                            break;
                        }
                    },
                    RecordKind::Seal => unreachable!("scanner never yields seal records"),
                }
            }
            if meta.sealed {
                if scan.sealed_ok() && decodable {
                    out.sealed_segments += 1;
                    out.frames.append(&mut frames);
                    out.decision_rows.append(&mut rows);
                    out.session_snapshots.append(&mut snapshots);
                } else {
                    self.note_loss(&mut out, sink, meta, 0);
                }
            } else {
                // Open tail: commit the verified, decodable prefix.
                out.tail_segments += 1;
                out.tail_frames += frames.len() as u64;
                let at = frames.last().map(|f| f.at).unwrap_or(0);
                sink.record(Event::StoreRecovery {
                    at,
                    segment: meta.id,
                    frames: frames.len() as u64,
                    lost: 0,
                });
                out.frames.append(&mut frames);
                out.decision_rows.append(&mut rows);
                out.session_snapshots.append(&mut snapshots);
            }
        }
        Ok(out)
    }

    /// Accounts one skipped sealed segment and emits its event. The
    /// `lost` figure comes from the cached index when the seal is
    /// still readable (e.g. a CRC-valid record that fails to decode);
    /// damage inside the body stops the scan before the seal, so the
    /// count is unknown and reported as 0 known-lost.
    fn note_loss<S: Sink + ?Sized>(
        &self,
        out: &mut Recovery,
        sink: &mut S,
        meta: &SegmentMeta,
        salvaged: u64,
    ) {
        out.skipped.push(meta.id);
        let lost = meta.index.as_ref().map(|i| i.frames).unwrap_or(0);
        sink.record(Event::StoreRecovery {
            at: meta.index.as_ref().map(|i| i.max_at).unwrap_or(0),
            segment: meta.id,
            frames: salvaged,
            lost,
        });
    }
}

/// One segment file of the current generation as its directory entry
/// describes it: nothing has been read from the file.
#[derive(Clone, Debug)]
pub(crate) struct ListedSegment {
    /// Segment id (from the file name).
    pub(crate) id: u64,
    /// Path of the segment file.
    pub(crate) path: PathBuf,
    /// Whether the file carries the sealed (`.seg`) name.
    pub(crate) sealed: bool,
    /// File size in bytes, from the directory entry.
    pub(crate) bytes: u64,
}

/// The segment files of a store's current generation, listed without
/// reading any of them.
#[derive(Clone, Debug)]
pub(crate) struct Listing {
    /// The generation resolved from the manifest.
    pub(crate) generation: u64,
    /// Segment files of other generations seen (and skipped).
    pub(crate) stale_files: usize,
    /// The current generation's segment files, in id order.
    pub(crate) segments: Vec<ListedSegment>,
}

impl Listing {
    /// Strict sequential visit of every non-seal record, as
    /// [`TraceReader::visit_records`] makes it: each segment is read and
    /// scanned once, and any unsealed or damaged segment aborts the
    /// walk with a typed error.
    pub(crate) fn visit_records<F>(&self, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(u64, RecordKind, &[u8]) -> Result<(), StoreError>,
    {
        for listed in &self.segments {
            visit_segment(listed.id, &listed.path, listed.sealed, &mut f)?;
        }
        Ok(())
    }
}

/// Lists the segment files of the current generation under `dir`: ids,
/// paths, sealed names and sizes from the directory entries alone.
pub(crate) fn list(dir: &Path) -> io::Result<Listing> {
    let generation = crate::manifest::current_generation(dir)?;
    let mut stale_files = 0usize;
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let Some((gen, id, sealed)) = entry
            .file_name()
            .to_str()
            .and_then(crate::parse_segment_name)
        else {
            continue;
        };
        if gen != generation {
            stale_files += 1;
            continue;
        }
        segments.push(ListedSegment {
            id,
            path: entry.path(),
            sealed,
            bytes: entry.metadata()?.len(),
        });
    }
    segments.sort_by_key(|s| s.id);
    Ok(Listing {
        generation,
        stale_files,
        segments,
    })
}

/// Reads one segment and hands its records to `f` in order, strictly:
/// an unsealed name, damage or a missing seal is a typed error before
/// any of its records is handed over.
fn visit_segment<F>(id: u64, path: &Path, sealed: bool, f: &mut F) -> Result<(), StoreError>
where
    F: FnMut(u64, RecordKind, &[u8]) -> Result<(), StoreError>,
{
    if !sealed {
        return Err(StoreError::Unsealed { segment_id: id });
    }
    with_segment_bytes(path, |bytes| {
        for record in &scan_sealed(id, bytes)?.records {
            f(id, record.kind, record.payload)?;
        }
        Ok(())
    })
}

/// Reads the file at `path` into this thread's segment buffer and runs
/// `f` over its bytes.
///
/// The buffer outlives the call: the next read on the thread reuses it,
/// so it grows only to the largest segment the thread has read and a
/// walk allocates nothing per segment. A call made from inside `f`
/// reads into a buffer of its own.
pub(crate) fn with_segment_bytes<T>(
    path: &Path,
    f: impl FnOnce(&[u8]) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    thread_local! {
        static BUFFER: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    }
    let mut buffer = BUFFER.take();
    buffer.clear();
    let out = match File::open(path).and_then(|mut file| file.read_to_end(&mut buffer)) {
        Ok(_) => f(&buffer),
        Err(e) => Err(StoreError::Io(e)),
    };
    BUFFER.set(buffer);
    out
}

/// Scans one sealed segment's bytes strictly: header damage, a record
/// that fails its checks and a missing or bad seal are all typed
/// errors, so a caller sees every record of the segment or none.
pub(crate) fn scan_sealed(segment_id: u64, bytes: &[u8]) -> Result<ScannedSegment<'_>, StoreError> {
    let scan = scan_segment(bytes).map_err(|error| StoreError::Corrupt { segment_id, error })?;
    if let Some(error) = scan.error {
        return Err(StoreError::Corrupt { segment_id, error });
    }
    if scan.seal.is_none() {
        // A `.seg` name without a seal record: the rename promised a
        // footer that is not there.
        return Err(StoreError::Unsealed { segment_id });
    }
    Ok(scan)
}

/// Decodes an observation-frame record: one whole wire frame.
pub(crate) fn decode_obs(segment_id: u64, payload: &[u8]) -> Result<ObsFrame, StoreError> {
    let (frame, used) =
        ObsFrame::decode(payload).map_err(|error| StoreError::BadFrame { segment_id, error })?;
    if used != payload.len() {
        return Err(StoreError::BadFrame {
            segment_id,
            error: mobisense_serve::wire::WireError::Truncated {
                needed: used,
                got: payload.len(),
            },
        });
    }
    Ok(frame)
}

/// Decodes a decision-row record: one UTF-8 line.
pub(crate) fn decode_row(segment_id: u64, payload: &[u8]) -> Result<String, StoreError> {
    std::str::from_utf8(payload)
        .map(str::to_owned)
        .map_err(|_| StoreError::BadUtf8 { segment_id })
}

/// Fully validates a session-snapshot record and returns its client id.
pub(crate) fn decode_snapshot(segment_id: u64, payload: &[u8]) -> Result<u32, StoreError> {
    codec::validate(payload).map_err(|error| StoreError::BadSnapshot { segment_id, error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir;
    use crate::writer::{StoreConfig, TraceWriter};
    use mobisense_telemetry::Telemetry;
    use mobisense_util::units::Nanos;

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 1_000_000 * seq as Nanos,
            distance_m: 1.5,
            digest: vec![0.25; 6],
        }
    }

    /// Writes 30 frames of clients 0..3 across several tiny segments,
    /// plus one decision row per client.
    fn build_store(dir: &Path) -> usize {
        let cfg = StoreConfig::new(dir).with_target_segment_bytes(200);
        let mut w = TraceWriter::create(cfg).expect("create");
        for seq in 0..10u32 {
            for client in 0..3u32 {
                w.append_frame(&frame(client, seq)).expect("append");
            }
        }
        for client in 0..3u32 {
            w.append_decision_row(&format!("{client},done"))
                .expect("row");
        }
        w.finish().expect("finish").segments.len()
    }

    #[test]
    fn strict_read_round_trips_everything() {
        let dir = testdir::fresh("reader-strict");
        let n_segments = build_store(&dir);
        assert!(n_segments > 1);
        let r = TraceReader::open(&dir).expect("open");
        assert_eq!(r.segments().len(), n_segments);
        let (frames, rows) = r.read_frames().expect("read");
        assert_eq!(frames.len(), 30);
        assert_eq!(rows, vec!["0,done", "1,done", "2,done"]);
        assert_eq!(frames[0], frame(0, 0));
        assert_eq!(frames[29], frame(2, 9));
    }

    #[test]
    fn client_filter_uses_the_index() {
        let dir = testdir::fresh("reader-filter");
        build_store(&dir);
        // Add one segment that only holds client 77, so the filter has
        // segments to skip for other clients.
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(200);
        let mut w = TraceWriter::create(cfg).expect("create");
        w.append_frame(&frame(77, 0)).expect("append");
        w.finish().expect("finish");

        let r = TraceReader::open(&dir).expect("open");
        let only_77: Vec<_> = r
            .segments()
            .iter()
            .filter(|m| m.index.as_ref().is_some_and(|i| i.contains_client(77)))
            .collect();
        assert_eq!(only_77.len(), 1, "client 77 lives in exactly one segment");

        let frames = r.client_frames(1).expect("filter");
        assert_eq!(frames.len(), 10);
        assert!(frames.iter().all(|f| f.client_id == 1));
        let seqs: Vec<u32> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(r.client_frames(77).expect("filter").len(), 1);
        assert!(r.client_frames(555).expect("filter").is_empty());
    }

    #[test]
    fn segment_reads_reuse_one_buffer_per_thread() {
        let dir = testdir::fresh("reader-buffer");
        let (big, small) = (dir.join("big"), dir.join("small"));
        fs::write(&big, vec![7u8; 4096]).expect("write");
        fs::write(&small, b"abc").expect("write");
        let read = |path: &Path| {
            with_segment_bytes(path, |bytes| Ok((bytes.to_vec(), bytes.as_ptr()))).expect("read")
        };
        let (bytes, first) = read(&big);
        assert_eq!(bytes, vec![7u8; 4096]);
        let (bytes, second) = read(&small);
        assert_eq!(bytes, b"abc");
        assert_eq!(first, second, "a smaller file is read into the same buffer");

        // A read from inside another gets a buffer of its own.
        let nested = with_segment_bytes(&big, |outer| {
            let inner = with_segment_bytes(&small, |inner| Ok(inner.to_vec()))?;
            Ok((outer.to_vec(), inner))
        })
        .expect("nested");
        assert_eq!(nested, (vec![7u8; 4096], b"abc".to_vec()));

        // A failed open is an I/O error and leaves the buffer usable.
        let missing = with_segment_bytes(&dir.join("missing"), |_| Ok(()));
        assert!(matches!(missing, Err(StoreError::Io(_))), "{missing:?}");
        assert_eq!(read(&big).0, vec![7u8; 4096]);
    }

    #[test]
    fn open_scans_every_segment_and_a_filtered_read_only_those_it_reads() {
        let dir = testdir::fresh("reader-scans");
        build_store(&dir);
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(200);
        let mut w = TraceWriter::create(cfg).expect("create");
        w.append_frame(&frame(77, 0)).expect("append");
        w.finish().expect("finish");

        let scans = || crate::segment::SEGMENT_SCANS.with(|c| c.get());
        let before = scans();
        let r = TraceReader::open(&dir).expect("open");
        let segments = r.segments().len() as u64;
        assert!(segments > 1);
        assert_eq!(scans() - before, segments, "open classifies every segment");
        for client in [1u32, 77, 555] {
            let holding = r
                .segments()
                .iter()
                .filter(|m| m.index.as_ref().is_some_and(|i| i.contains_client(client)))
                .count() as u64;
            let before = scans();
            r.client_frames(client).expect("filter");
            assert_eq!(scans() - before, holding, "client {client}");
        }
    }

    #[test]
    fn client_filter_rejects_damage_done_after_open() {
        let dir = testdir::fresh("reader-filter-late-damage");
        build_store(&dir);
        let r = TraceReader::open(&dir).expect("open");
        // The last segment holding client 1, damaged mid-body once the
        // reader has cached an index that says it is intact.
        let victim = r
            .segments()
            .iter()
            .rev()
            .find(|m| m.index.as_ref().is_some_and(|i| i.contains_client(1)))
            .expect("a segment of client 1");
        let mut bytes = fs::read(&victim.path).expect("read");
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        fs::write(&victim.path, &bytes).expect("write");
        match r.client_frames(1) {
            Err(StoreError::Corrupt { segment_id, .. }) => assert_eq!(segment_id, victim.id),
            other => panic!("expected Corrupt for segment {}, got {other:?}", victim.id),
        }
        assert!(matches!(
            TraceReader::open(&dir).expect("reopen").client_frames(1),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn strict_read_rejects_open_tails_and_corruption() {
        let dir = testdir::fresh("reader-strictfail");
        build_store(&dir);
        // Abandoned tail → Unsealed.
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(4096);
        let mut w = TraceWriter::create(cfg).expect("create");
        w.append_frame(&frame(5, 0)).expect("append");
        let open_path = w.abandon().expect("abandon");
        let r = TraceReader::open(&dir).expect("open");
        assert!(matches!(r.read_frames(), Err(StoreError::Unsealed { .. })));
        fs::remove_file(open_path).expect("rm tail");

        // Flip one payload byte in a sealed segment → Corrupt.
        let victim = dir.join(crate::sealed_name(0, 0));
        let mut bytes = fs::read(&victim).expect("read");
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        fs::write(&victim, &bytes).expect("write");
        let r = TraceReader::open(&dir).expect("open");
        assert!(matches!(
            r.read_frames(),
            Err(StoreError::Corrupt { segment_id: 0, .. })
        ));
        assert!(matches!(
            r.client_frames(0),
            Err(StoreError::Corrupt { segment_id: 0, .. })
        ));
    }

    #[test]
    fn recovery_salvages_tail_and_skips_damaged_segment() {
        let dir = testdir::fresh("reader-recover");
        build_store(&dir);
        // Crash tail with 4 whole frames and a ragged cut.
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
        let mut w = TraceWriter::create(cfg).expect("create");
        for seq in 0..4u32 {
            w.append_frame(&frame(9, seq)).expect("append");
        }
        let open_path = w.abandon().expect("abandon");
        let mut tail = fs::read(&open_path).expect("read");
        let cut = tail.len() - 5;
        tail.truncate(cut);
        fs::write(&open_path, &tail).expect("write");
        // Damage one sealed segment's bytes.
        let victim = dir.join(crate::sealed_name(0, 1));
        let expected_lost = {
            let r = TraceReader::open(&dir).expect("open");
            let meta = r.segments().iter().find(|m| m.id == 1).expect("seg 1");
            meta.index.as_ref().expect("index").frames
        };
        let mut bytes = fs::read(&victim).expect("read");
        bytes[crate::segment::SEGMENT_HEADER_LEN + 6] ^= 0x01;
        fs::write(&victim, &bytes).expect("write");

        let mut sink = Telemetry::new();
        let r = TraceReader::open(&dir).expect("open");
        let rec = r.recover_with(&mut sink).expect("recover");
        assert!(!rec.complete());
        assert_eq!(rec.skipped, vec![1]);
        assert_eq!(rec.tail_segments, 1);
        assert_eq!(rec.tail_frames, 3, "ragged cut loses the 4th frame");
        // 30 original minus segment 1's frames, plus the 3 tail frames.
        assert_eq!(rec.frames.len() as u64, 30 - expected_lost + 3);
        assert_eq!(rec.decision_rows.len(), 3);
        let events: Vec<_> = sink
            .events()
            .filter(|e| e.kind() == "store_recovery")
            .cloned()
            .collect();
        assert_eq!(events.len(), 2, "one skip, one tail salvage");
        // Body damage hides the seal, so the loss count is unknown (0).
        assert!(events.iter().any(|e| matches!(
            e,
            Event::StoreRecovery {
                segment: 1,
                frames: 0,
                lost: 0,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::StoreRecovery {
                frames: 3,
                lost: 0,
                ..
            }
        )));
    }

    #[test]
    fn recovery_of_an_intact_store_is_complete() {
        let dir = testdir::fresh("reader-recover-clean");
        build_store(&dir);
        let r = TraceReader::open(&dir).expect("open");
        let rec = r.recover().expect("recover");
        assert!(rec.complete());
        assert_eq!(rec.frames.len(), 30);
        assert_eq!(rec.decision_rows.len(), 3);
        let (strict_frames, strict_rows) = r.read_frames().expect("strict");
        assert_eq!(rec.frames, strict_frames);
        assert_eq!(rec.decision_rows, strict_rows);
    }
}
