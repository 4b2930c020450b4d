//! Live tailing: following a store while a writer is still appending.
//!
//! A [`TailCursor`] polls the segment directory and yields every new
//! record exactly once, in global record order — including records in
//! the current `.open` segment, **before** it is sealed. That is safe
//! because the scanner ([`scan_segment`]) is total and CRC-verifies
//! each record: what a tail yields from an open file is its longest
//! *verified prefix*, and the cursor only ever moves forward, so the
//! prefix a dashboard has seen can never regress or be contradicted by
//! a later poll. A ragged last record (the writer mid-append, or a
//! crash) simply isn't yielded yet.
//!
//! The cursor survives writer **rotation** (the `.open → .seg` rename
//! happens between or even during polls; the sealed name is checked
//! first and rechecked after an open-file miss) and **retention** (a
//! GC'd segment id is skipped once a younger segment proves the store
//! moved on). Sealed-segment damage is *not* skipped: a tail is a live
//! view, not a recovery tool, so it surfaces [`StoreError::Corrupt`]
//! and lets the operator decide.
//!
//! No file-system notification API is used — polling keeps the module
//! `std`-only and works on any filesystem; callers pick the cadence.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mobisense_serve::wire::ObsFrame;

use crate::reader::{decode_obs, decode_row, decode_snapshot, scan_sealed};
use crate::segment::{scan_segment, RecordKind, SEGMENT_HEADER_LEN};
use crate::{open_name, parse_segment_name, sealed_name, StoreError};

/// One record yielded by a tail poll, in record order.
#[derive(Clone, Debug, PartialEq)]
pub enum TailItem {
    /// An observation frame.
    Frame(ObsFrame),
    /// A decision-log line.
    Row(String),
    /// A session snapshot was paged out for a client. The payload
    /// itself stays on disk — a live dashboard cares that hibernation
    /// happened (and how big the page was), not about the state bytes.
    Snapshot {
        /// The hibernated client.
        client_id: u32,
        /// Encoded snapshot size in bytes.
        bytes: usize,
    },
}

/// A polling cursor over a (possibly live) store directory.
///
/// Create via [`TailCursor::new`] or
/// [`TraceReader::tail`](crate::reader::TraceReader::tail); call
/// [`poll`](TailCursor::poll) whenever fresh data is wanted.
#[derive(Clone, Debug)]
pub struct TailCursor {
    dir: PathBuf,
    /// Generation being followed, resolved from the store manifest at
    /// the first poll that finds the directory and pinned from then
    /// on: a tail is a live view of one generation's record stream.
    /// (Compaction requires a quiescent store, so a generation switch
    /// under a live tail is an operator error, not a supported race.)
    generation: Option<u64>,
    /// Segment currently being followed.
    segment_id: u64,
    /// File offset of the first record not yet yielded.
    offset: usize,
    frames: u64,
    rows: u64,
}

impl TailCursor {
    /// A cursor at the very beginning of the store in `dir`: the first
    /// poll yields every record already present. Tailing a directory
    /// that does not exist yet is fine — polls return empty until a
    /// writer creates it.
    pub fn new(dir: impl Into<PathBuf>) -> TailCursor {
        TailCursor {
            dir: dir.into(),
            generation: None,
            segment_id: 0,
            offset: SEGMENT_HEADER_LEN,
            frames: 0,
            rows: 0,
        }
    }

    /// Id of the segment the cursor is currently following.
    pub fn segment_id(&self) -> u64 {
        self.segment_id
    }

    /// Frames yielded so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames
    }

    /// Decision rows yielded so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows
    }

    /// Yields every record that became visible since the last poll, in
    /// global record order. An empty vec means the cursor is caught up
    /// with the writer (or nothing exists yet).
    pub fn poll(&mut self) -> Result<Vec<TailItem>, StoreError> {
        let Some(generation) = self.resolve_generation()? else {
            // No directory yet: nothing to follow, nothing to pin.
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        loop {
            let sealed_path = self.dir.join(sealed_name(generation, self.segment_id));
            if let Some(bytes) = read_if_exists(&sealed_path)? {
                self.consume_sealed(&bytes, &mut out)?;
                continue;
            }
            let open_path = self.dir.join(open_name(generation, self.segment_id));
            match read_if_exists(&open_path)? {
                Some(bytes) => {
                    if self.consume_open(&bytes, &mut out)? {
                        // The open file we read already ends in a seal:
                        // the writer sealed it mid-poll (rename still
                        // pending). Everything verified; move on.
                        continue;
                    }
                    break;
                }
                None => {
                    // Neither name. Re-check sealed once: the writer
                    // may have renamed between our two stats.
                    if let Some(bytes) = read_if_exists(&sealed_path)? {
                        self.consume_sealed(&bytes, &mut out)?;
                        continue;
                    }
                    // Still nothing: either the store hasn't reached
                    // this id yet (caught up), or retention deleted it
                    // from under us — provable by a younger segment
                    // existing.
                    if self.newer_segment_exists(generation)? {
                        self.advance();
                        continue;
                    }
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Consumes a sealed segment from the cursor's offset to its end
    /// and advances to the next id. Damage is an error, not a skip.
    fn consume_sealed(&mut self, bytes: &[u8], out: &mut Vec<TailItem>) -> Result<(), StoreError> {
        let scan = scan_sealed(self.segment_id, bytes)?;
        self.yield_from_offset(&scan.records, out)?;
        self.advance();
        Ok(())
    }

    /// Consumes the verified prefix of an open segment. Returns `true`
    /// when the bytes turned out to be a complete sealed body (rename
    /// raced the read) and the cursor advanced past it.
    fn consume_open(&mut self, bytes: &[u8], out: &mut Vec<TailItem>) -> Result<bool, StoreError> {
        let scan = match scan_segment(bytes) {
            Ok(scan) => scan,
            // A header still being written (too short) is "no data
            // yet", not corruption — the writer creates the file and
            // writes the header in separate syscalls.
            Err(_) => return Ok(false),
        };
        self.yield_from_offset(&scan.records, out)?;
        if scan.sealed_ok() {
            self.advance();
            return Ok(true);
        }
        Ok(false)
    }

    /// Yields every verified record at or past the cursor offset and
    /// moves the offset to just past the last one.
    fn yield_from_offset(
        &mut self,
        records: &[crate::segment::Record<'_>],
        out: &mut Vec<TailItem>,
    ) -> Result<(), StoreError> {
        for record in records {
            if record.offset < self.offset {
                continue;
            }
            match record.kind {
                RecordKind::Obs => {
                    out.push(TailItem::Frame(decode_obs(
                        self.segment_id,
                        record.payload,
                    )?));
                    self.frames += 1;
                }
                RecordKind::DecisionRow => {
                    out.push(TailItem::Row(decode_row(self.segment_id, record.payload)?));
                    self.rows += 1;
                }
                RecordKind::SessionSnapshot => {
                    out.push(TailItem::Snapshot {
                        client_id: decode_snapshot(self.segment_id, record.payload)?,
                        bytes: record.payload.len(),
                    });
                }
                RecordKind::Seal => unreachable!("scanner never yields seal records"),
            }
            self.offset = record.offset + crate::segment::RECORD_OVERHEAD + record.payload.len();
        }
        Ok(())
    }

    fn advance(&mut self) {
        self.segment_id += 1;
        self.offset = SEGMENT_HEADER_LEN;
    }

    /// The generation this cursor follows, pinned at the first poll
    /// that finds the directory; `None` while the directory does not
    /// exist yet (a missing directory and a missing manifest are
    /// indistinguishable to the manifest reader alone, and pinning
    /// generation 0 before a writer ever ran would be a guess).
    fn resolve_generation(&mut self) -> io::Result<Option<u64>> {
        if let Some(generation) = self.generation {
            return Ok(Some(generation));
        }
        match fs::metadata(&self.dir) {
            Ok(_) => {
                let generation = crate::manifest::current_generation(&self.dir)?;
                self.generation = Some(generation);
                Ok(Some(generation))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Whether any same-generation segment file with an id beyond the
    /// cursor's exists (the retention-GC detector). Other generations
    /// are invisible: their ids order a different record stream.
    fn newer_segment_exists(&self, generation: u64) -> io::Result<bool> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if let Some((gen, id, _)) = entry.file_name().to_str().and_then(parse_segment_name) {
                if gen == generation && id > self.segment_id {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

/// Reads a file whole, treating "not found" as `None` (the tail's
/// normal rotation/creation races) and every other failure as an
/// error.
fn read_if_exists(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir;
    use crate::writer::{StoreConfig, TraceWriter};
    use mobisense_util::units::Nanos;

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 1_000 * seq as Nanos,
            distance_m: 1.0,
            digest: vec![0.5; 4],
        }
    }

    #[test]
    fn tail_yields_each_record_exactly_once_across_polls() {
        let dir = testdir::fresh("tail-incremental");
        let mut cursor = TailCursor::new(&dir);
        assert!(cursor.poll().expect("empty dir").is_empty());

        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(200);
        let mut w = TraceWriter::create(cfg).expect("create");
        let mut expected = Vec::new();
        let mut seen = Vec::new();
        for seq in 0..12u32 {
            let f = frame(seq % 2, seq);
            w.append_frame(&f).expect("append");
            expected.push(TailItem::Frame(f));
            w.flush().expect("flush");
            // Poll after every append: each frame appears exactly once.
            seen.extend(cursor.poll().expect("poll"));
        }
        w.append_decision_row("0,done").expect("row");
        expected.push(TailItem::Row("0,done".into()));
        w.finish().expect("finish");
        seen.extend(cursor.poll().expect("final poll"));
        assert_eq!(seen, expected);
        assert_eq!(cursor.frames_seen(), 12);
        assert_eq!(cursor.rows_seen(), 1);
        assert!(cursor.poll().expect("idle poll").is_empty());
    }

    #[test]
    fn tail_reads_unsealed_open_segments_without_a_seal() {
        let dir = testdir::fresh("tail-open");
        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("create");
        for seq in 0..3 {
            w.append_frame(&frame(4, seq)).expect("append");
        }
        w.flush().expect("flush");
        let mut cursor = TailCursor::new(&dir);
        let items = cursor.poll().expect("poll");
        assert_eq!(items.len(), 3, "open segment is readable pre-seal");
        // A ragged partial append is not yielded (verified prefix).
        let open_path = w.abandon().expect("abandon");
        let mut bytes = fs::read(&open_path).expect("read");
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 42]); // half a record
        fs::write(&open_path, &bytes).expect("write");
        assert!(cursor.poll().expect("ragged poll").is_empty());
    }

    #[test]
    fn tail_survives_rotation_and_catches_up() {
        let dir = testdir::fresh("tail-rotate");
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(150);
        let mut w = TraceWriter::create(cfg).expect("create");
        let mut cursor = TailCursor::new(&dir);
        let mut n_seen = 0usize;
        for seq in 0..30u32 {
            w.append_frame(&frame(1, seq)).expect("append");
            w.flush().expect("flush");
            n_seen += cursor.poll().expect("poll").len();
        }
        w.finish().expect("finish");
        n_seen += cursor.poll().expect("poll").len();
        assert_eq!(n_seen, 30);
        assert!(
            cursor.segment_id() > 1,
            "tiny segments forced rotation under the cursor"
        );
    }

    #[test]
    fn tail_skips_segments_deleted_by_retention() {
        let dir = testdir::fresh("tail-gc");
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(150);
        let mut w = TraceWriter::create(cfg).expect("create");
        for seq in 0..30u32 {
            w.append_frame(&frame(1, seq)).expect("append");
        }
        let summary = w.finish().expect("finish");
        assert!(summary.segments.len() > 2);
        // GC the two oldest before the cursor ever polls.
        fs::remove_file(&summary.segments[0].path).expect("rm");
        fs::remove_file(&summary.segments[1].path).expect("rm");
        let mut cursor = TailCursor::new(&dir);
        let items = cursor.poll().expect("poll");
        let expected: u64 = summary.segments[2..]
            .iter()
            .map(|m| m.index.as_ref().expect("index").frames)
            .sum();
        assert_eq!(items.len() as u64, expected);
    }

    #[test]
    fn sealed_damage_is_an_error_not_a_skip() {
        let dir = testdir::fresh("tail-damage");
        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("create");
        for seq in 0..3 {
            w.append_frame(&frame(2, seq)).expect("append");
        }
        let summary = w.finish().expect("finish");
        let victim = &summary.segments[0].path;
        let mut bytes = fs::read(victim).expect("read");
        bytes[SEGMENT_HEADER_LEN + 7] ^= 0x20;
        fs::write(victim, &bytes).expect("write");
        let mut cursor = TailCursor::new(&dir);
        assert!(matches!(
            cursor.poll(),
            Err(StoreError::Corrupt { segment_id: 0, .. })
        ));
    }
}
