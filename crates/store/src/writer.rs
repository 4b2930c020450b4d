//! [`TraceWriter`]: the append-only, rotating segment writer.
//!
//! The writer streams records into `seg-N.open` through a buffered
//! file handle while folding every byte into a running body CRC and
//! the segment's sparse index. When the body would exceed the
//! configured target size it **rotates**: the current segment is
//! sealed — footer written, file flushed and synced, then atomically
//! renamed to `seg-N.seg` — and a fresh `.open` file starts. A crash
//! at any point therefore leaves a set of fully-sealed segments plus
//! at most one truncated `.open` tail, which is exactly the shape
//! [`TraceReader::recover`](crate::reader::TraceReader::recover)
//! knows how to salvage.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use mobisense_serve::wire::ObsFrame;
use mobisense_util::units::Nanos;

use crate::reader::{SegmentMeta, TraceReader};
use crate::retention::RetentionPolicy;
use crate::segment::{
    self, RecordKind, SealInfo, SegmentIndex, MAX_RECORD_LEN, RECORD_OVERHEAD, SEGMENT_HEADER_LEN,
};
use crate::{open_name, parse_segment_name, sealed_name, StoreError};
use mobisense_util::crc::{CheckedRuns, Crc32};

/// Where and how a trace store writes its segments.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the segment files (created on demand).
    pub dir: PathBuf,
    /// Rotate once a segment's body reaches this many bytes. The seal
    /// footer is written on top, so files end slightly larger.
    pub target_segment_bytes: usize,
    /// Retention enforced at every seal; `None` keeps everything.
    pub retention: Option<RetentionPolicy>,
}

impl StoreConfig {
    /// A config with the default 4 MiB segment target.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            target_segment_bytes: 4 << 20,
            retention: None,
        }
    }

    /// Overrides the rotation threshold (tests use tiny segments).
    pub fn with_target_segment_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > SEGMENT_HEADER_LEN, "segment target too small");
        self.target_segment_bytes = bytes;
        self
    }

    /// Enforces `policy` at every seal boundary.
    pub fn with_retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = Some(policy);
        self
    }
}

/// Makes directory-entry changes (renames, deletions) in `dir`
/// durable. On non-Unix platforms directory handles cannot be synced
/// portably; the no-op keeps behaviour consistent with pre-fix
/// builds there.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(test)]
    DIR_SYNCS.with(|c| c.set(c.get() + 1));
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    // lint: error-swallow -- non-unix: no portable directory fsync; the parameter is deliberately unused
    let _ = dir;
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// Per-thread count of `sync_dir` calls, so unit tests can prove
    /// a seal syncs without cross-test interference.
    pub(crate) static DIR_SYNCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What a completed write produced.
#[derive(Debug)]
pub struct WriteSummary {
    /// Metadata of every segment sealed by this writer and still on
    /// disk (retention may have deleted some), in id order.
    pub segments: Vec<SegmentMeta>,
    /// Observation frames appended.
    pub frames: u64,
    /// Total bytes of the surviving sealed segment files.
    pub bytes: u64,
    /// Sealed segments deleted by retention during this write
    /// (preexisting ones included).
    pub gc_segments: u64,
    /// Bytes freed by those deletions.
    pub gc_bytes: u64,
}

/// Append-only writer over a directory of rotating segments.
///
/// Records go to `seg-N.open`; sealing renames it to `seg-N.seg`.
/// Call [`finish`](TraceWriter::finish) to seal the last segment — a
/// writer that is merely dropped leaves its `.open` tail behind, which
/// is also how a crash looks (see [`abandon`](TraceWriter::abandon)
/// for simulating exactly that).
pub struct TraceWriter {
    cfg: StoreConfig,
    /// Generation every segment this writer produces belongs to.
    generation: u64,
    segment_id: u64,
    file: BufWriter<File>,
    open_path: PathBuf,
    body_crc: Crc32,
    /// Folds each record into `body_crc` after its own CRC is known.
    runs: CheckedRuns,
    body_len: usize,
    records: u64,
    index: SegmentIndex,
    frames_total: u64,
    sealed: Vec<SegmentMeta>,
    /// Sealed segments that predate this writer, tracked (and kept
    /// up to date) only when retention is configured — GC must see
    /// the whole store, not just this writer's output.
    preexisting: Vec<SegmentMeta>,
    gc_segments: u64,
    gc_bytes: u64,
    scratch: Vec<u8>,
}

impl TraceWriter {
    /// Opens a writer over `cfg.dir`, creating the directory if
    /// needed. The store's current generation comes from the
    /// [`manifest`](crate::manifest); any losing-generation leftovers
    /// (a crash between compaction's promote and its GC) are swept
    /// here first. Segment ids continue after any files already
    /// present in the current generation, so appending to an existing
    /// store never collides.
    pub fn create(cfg: StoreConfig) -> io::Result<TraceWriter> {
        fs::create_dir_all(&cfg.dir)?;
        let generation = crate::manifest::current_generation(&cfg.dir)?;
        crate::manifest::gc_losers(&cfg.dir, generation)?;
        Self::create_in(cfg, generation, true)
    }

    /// A staging writer for the compactor: writes segments under a
    /// generation that is **not yet current**, so nothing it produces
    /// is visible to readers until the manifest promotes it. Skips the
    /// manifest read, the loser GC (it would delete our own staging
    /// namespace's predecessors mid-retry) and the preexisting scan;
    /// retention must be `None` — enforcing a budget against a
    /// half-staged generation would GC live data.
    pub(crate) fn create_staging(cfg: StoreConfig, generation: u64) -> io::Result<TraceWriter> {
        debug_assert!(cfg.retention.is_none(), "staging writers take no retention");
        fs::create_dir_all(&cfg.dir)?;
        Self::create_in(cfg, generation, false)
    }

    fn create_in(
        cfg: StoreConfig,
        generation: u64,
        load_preexisting: bool,
    ) -> io::Result<TraceWriter> {
        let next_id = next_segment_id(&cfg.dir, generation)?;
        let preexisting =
            if load_preexisting && cfg.retention.as_ref().is_some_and(|p| !p.is_noop()) {
                TraceReader::open(&cfg.dir)?
                    .segments()
                    .iter()
                    .filter(|m| m.sealed)
                    .cloned()
                    .collect()
            } else {
                Vec::new()
            };
        let (file, open_path, body_crc) = start_segment(&cfg.dir, generation, next_id)?;
        Ok(TraceWriter {
            cfg,
            generation,
            segment_id: next_id,
            file,
            open_path,
            body_crc,
            runs: CheckedRuns::new(),
            body_len: SEGMENT_HEADER_LEN,
            records: 0,
            index: SegmentIndex::empty(),
            frames_total: 0,
            sealed: Vec::new(),
            preexisting,
            gc_segments: 0,
            gc_bytes: 0,
            scratch: Vec::new(),
        })
    }

    /// Id of the segment currently being written.
    pub fn segment_id(&self) -> u64 {
        self.segment_id
    }

    /// Generation this writer's segments belong to (the store's
    /// current generation, except for compaction staging writers).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configuration this writer was created with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Segments sealed so far (not counting the one in progress).
    pub fn sealed(&self) -> &[SegmentMeta] {
        &self.sealed
    }

    /// Appends one observation frame.
    pub fn append_frame(&mut self, frame: &ObsFrame) -> Result<(), StoreError> {
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        frame.encode_into(&mut bytes);
        let res = self.append_obs(&bytes, frame.client_id, frame.seq, frame.at);
        self.scratch = bytes;
        res
    }

    /// Appends one already-encoded observation frame without decoding
    /// it — only the frame header is peeked for the index. This is the
    /// zero-copy path recording straight off a wire buffer or an
    /// [`EncodedFleet`](mobisense_serve::fleet::EncodedFleet).
    pub fn append_encoded(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let meta = ObsFrame::peek_meta(bytes).map_err(|error| StoreError::BadFrame {
            segment_id: self.segment_id,
            error,
        })?;
        if meta.encoded_len != bytes.len() {
            return Err(StoreError::BadFrame {
                segment_id: self.segment_id,
                error: mobisense_serve::wire::WireError::Truncated {
                    needed: meta.encoded_len,
                    got: bytes.len(),
                },
            });
        }
        self.append_obs(bytes, meta.client_id, meta.seq, meta.at)?;
        Ok(())
    }

    /// Appends one decision-log line (no trailing newline). A row with
    /// an embedded newline is refused — on read-back it would forge an
    /// extra golden-log row.
    pub fn append_decision_row(&mut self, row: &str) -> Result<(), StoreError> {
        if row.contains('\n') {
            return Err(StoreError::BadDecisionRow);
        }
        self.append_record(RecordKind::DecisionRow, row.as_bytes())
    }

    /// Appends one encoded session snapshot (a hibernated client's
    /// paged-out pipeline state). The payload is validated up front —
    /// a snapshot that would not decode is refused here rather than
    /// discovered at fault-in time, when the client is waiting.
    pub fn append_session_snapshot(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        crate::reader::decode_snapshot(self.segment_id, bytes)?;
        self.append_record(RecordKind::SessionSnapshot, bytes)
    }

    /// Seals the current segment now (even below the size target) and
    /// starts a new one. No-op when the current segment is empty.
    pub fn seal_segment(&mut self) -> io::Result<()> {
        if self.records == 0 {
            return Ok(());
        }
        self.rotate()
    }

    /// Pushes buffered records to the OS so live tail readers can see
    /// them. Visibility only, **not** durability — sealing is what
    /// makes records crash-safe.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// Seals the final segment and returns what was written. An empty
    /// in-progress segment is deleted rather than sealed.
    pub fn finish(mut self) -> io::Result<WriteSummary> {
        if self.records > 0 {
            self.seal_current()?;
        } else {
            // Nothing in the tail segment: drop the handle, remove it.
            self.file.flush()?;
            fs::remove_file(&self.open_path)?;
        }
        let bytes = self.sealed.iter().map(|m| m.bytes).sum();
        Ok(WriteSummary {
            segments: std::mem::take(&mut self.sealed),
            frames: self.frames_total,
            bytes,
            gc_segments: self.gc_segments,
            gc_bytes: self.gc_bytes,
        })
    }

    /// Flushes buffered bytes and walks away, leaving the current
    /// segment as an unsealed `.open` file — byte-for-byte what a
    /// process crash after the last OS write would leave. Returns the
    /// abandoned path. Tests and the crash-recovery example use this.
    pub fn abandon(mut self) -> io::Result<PathBuf> {
        self.file.flush()?;
        Ok(std::mem::take(&mut self.open_path))
    }

    fn append_obs(
        &mut self,
        bytes: &[u8],
        client_id: u32,
        seq: u32,
        at: Nanos,
    ) -> Result<(), StoreError> {
        let crc = segment::record_crc(RecordKind::Obs.as_u8(), bytes);
        self.append_raw(RecordKind::Obs, bytes, crc, Some((client_id, seq, at)))
    }

    /// Checksums one record and appends it.
    fn append_record(&mut self, kind: RecordKind, payload: &[u8]) -> Result<(), StoreError> {
        let crc = segment::record_crc(kind.as_u8(), payload);
        self.append_raw(kind, payload, crc, None)
    }

    /// Streams one framed record (length, kind, payload, CRC) to the
    /// file, rotating first when it would overflow the size target.
    /// `crc` must be the record's CRC over kind byte + payload: the
    /// body CRC folds the record in from its length alone. The
    /// compactor calls this directly, carrying each record and its
    /// verified CRC across byte-for-byte; observation records pass
    /// their peeked header as `obs`, so the output segment's sparse
    /// index is rebuilt without decoding the frame.
    pub(crate) fn append_raw(
        &mut self,
        kind: RecordKind,
        payload: &[u8],
        crc: u32,
        obs: Option<(u32, u32, Nanos)>,
    ) -> Result<(), StoreError> {
        if payload.len() > MAX_RECORD_LEN {
            return Err(StoreError::RecordTooLarge { len: payload.len() });
        }
        if self.records > 0
            && self.body_len + RECORD_OVERHEAD + payload.len() > self.cfg.target_segment_bytes
        {
            self.rotate()?;
        }
        let len = (payload.len() as u32).to_le_bytes();
        let kind_byte = [kind.as_u8()];
        for part in [len.as_slice(), &kind_byte, payload, &crc.to_le_bytes()] {
            self.file.write_all(part)?;
        }
        self.body_crc.update(&len);
        self.runs.fold(&mut self.body_crc, 1 + payload.len() + 4);
        self.body_len += RECORD_OVERHEAD + payload.len();
        self.records += 1;
        // After the rotation: this frame's metadata belongs to the
        // segment it landed in, never the previous one.
        if let Some((client_id, seq, at)) = obs {
            self.index.note(client_id, seq, at);
            self.frames_total += 1;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.seal_current()?;
        self.segment_id += 1;
        let (file, open_path, body_crc) =
            start_segment(&self.cfg.dir, self.generation, self.segment_id)?;
        self.file = file;
        self.open_path = open_path;
        self.body_crc = body_crc;
        self.body_len = SEGMENT_HEADER_LEN;
        self.records = 0;
        self.index = SegmentIndex::empty();
        Ok(())
    }

    fn seal_current(&mut self) -> io::Result<()> {
        let seal = SealInfo {
            records: self.records,
            body_crc: self.body_crc.finish(),
            index: std::mem::replace(&mut self.index, SegmentIndex::empty()),
        };
        self.scratch.clear();
        segment::append_record(&mut self.scratch, RecordKind::Seal, &seal.encode());
        self.file.write_all(&self.scratch)?;
        self.file.flush()?;
        // The footer must be durable before the sealed name appears.
        self.file.get_ref().sync_all()?;
        let sealed_path = self
            .cfg
            .dir
            .join(sealed_name(self.generation, self.segment_id));
        fs::rename(&self.open_path, &sealed_path)?;
        // The rename updated the *directory*, and directories have
        // their own durability: until the parent dir is fsynced, a
        // crash can revert the file to its `.open` name even though
        // every byte (seal included) is safely on disk. That window
        // would make "the sealed name is the durability promise" a
        // lie, so close it before reporting the segment sealed.
        sync_dir(&self.cfg.dir)?;
        self.sealed.push(SegmentMeta {
            id: self.segment_id,
            path: sealed_path,
            sealed: true,
            bytes: (self.body_len + self.scratch.len()) as u64,
            records: seal.records,
            index: Some(seal.index),
        });
        self.enforce_retention()
    }

    /// Applies the configured retention policy across the whole store
    /// (preexisting segments included), deleting what the plan says
    /// and keeping the in-memory segment lists in step with the disk.
    fn enforce_retention(&mut self) -> io::Result<()> {
        let Some(policy) = &self.cfg.retention else {
            return Ok(());
        };
        if policy.is_noop() {
            return Ok(());
        }
        let mut all: Vec<SegmentMeta> = self
            .preexisting
            .iter()
            .chain(self.sealed.iter())
            .cloned()
            .collect();
        all.sort_by_key(|m| m.id);
        let plan = policy.plan(&all);
        if plan.drop.is_empty() {
            return Ok(());
        }
        let mut dropped_ids = Vec::with_capacity(plan.drop.len());
        for meta in &plan.drop {
            fs::remove_file(&meta.path)?;
            self.gc_segments += 1;
            self.gc_bytes += meta.bytes;
            dropped_ids.push(meta.id);
        }
        self.preexisting.retain(|m| !dropped_ids.contains(&m.id));
        self.sealed.retain(|m| !dropped_ids.contains(&m.id));
        // Deletions are directory mutations too.
        sync_dir(&self.cfg.dir)
    }
}

fn start_segment(
    dir: &Path,
    generation: u64,
    id: u64,
) -> io::Result<(BufWriter<File>, PathBuf, Crc32)> {
    let open_path = dir.join(open_name(generation, id));
    let mut file = BufWriter::new(File::create(&open_path)?);
    let header = segment::segment_header(id);
    file.write_all(&header)?;
    let mut crc = Crc32::new();
    crc.update(&header);
    Ok((file, open_path, crc))
}

/// One past the highest segment id present in `dir` within
/// `generation` (sealed or open). Other generations' ids are
/// irrelevant: ids only order records within one generation.
fn next_segment_id(dir: &Path, generation: u64) -> io::Result<u64> {
    let mut next = 0u64;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some((gen, id, _)) = entry.file_name().to_str().and_then(parse_segment_name) {
            if gen == generation {
                next = next.max(id + 1);
            }
        }
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::scan_segment;
    use crate::testdir;
    use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
    use mobisense_telemetry::NoopSink;
    use mobisense_util::units::MILLISECOND;

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 1_000_000 * seq as Nanos,
            distance_m: 2.0 + seq as f64,
            digest: vec![0.5; 8],
        }
    }

    #[test]
    fn single_sealed_segment_round_trips() {
        let dir = testdir::fresh("writer-single");
        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("create");
        for seq in 0..5 {
            w.append_frame(&frame(9, seq)).expect("append");
        }
        w.append_decision_row("9,4,x").expect("row");
        let summary = w.finish().expect("finish");
        assert_eq!(summary.segments.len(), 1);
        assert_eq!(summary.frames, 5);
        let meta = &summary.segments[0];
        assert_eq!(meta.id, 0);
        assert!(meta.sealed);
        assert_eq!(meta.records, 6);

        let bytes = fs::read(&meta.path).expect("read");
        assert_eq!(bytes.len() as u64, meta.bytes);
        assert_eq!(summary.bytes, meta.bytes);
        let scan = scan_segment(&bytes).expect("header");
        assert!(scan.sealed_ok());
        assert_eq!(scan.records.len(), 6);
        let seal = scan.seal.expect("seal");
        assert_eq!(seal.index.frames, 5);
        assert_eq!(seal.index.clients, vec![9]);
        // No .open leftovers.
        assert!(!dir.join(open_name(0, 0)).exists());
    }

    #[test]
    fn rotation_splits_by_size_and_indexes_per_segment() {
        let dir = testdir::fresh("writer-rotate");
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(256);
        let mut w = TraceWriter::create(cfg).expect("create");
        for seq in 0..20 {
            w.append_frame(&frame(seq % 3, seq)).expect("append");
        }
        let summary = w.finish().expect("finish");
        assert!(summary.segments.len() > 1, "tiny target must rotate");
        let total: u64 = summary
            .segments
            .iter()
            .map(|m| m.index.as_ref().expect("index").frames)
            .sum();
        assert_eq!(total, 20);
        // Ids are consecutive from zero and every file scans sealed.
        for (i, meta) in summary.segments.iter().enumerate() {
            assert_eq!(meta.id, i as u64);
            let bytes = fs::read(&meta.path).expect("read");
            assert!(scan_segment(&bytes).expect("header").sealed_ok());
        }
    }

    #[test]
    fn create_continues_ids_after_existing_segments() {
        let dir = testdir::fresh("writer-continue");
        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("create");
        w.append_frame(&frame(1, 0)).expect("append");
        w.finish().expect("finish");

        let w = TraceWriter::create(StoreConfig::new(&dir)).expect("recreate");
        assert_eq!(w.segment_id(), 1);
        // Finishing with no records must not leave an empty segment.
        w.finish().expect("finish empty");
        assert!(!dir.join(sealed_name(0, 1)).exists());
        assert!(!dir.join(open_name(0, 1)).exists());
    }

    #[test]
    fn abandon_leaves_a_salvageable_open_tail() {
        let dir = testdir::fresh("writer-abandon");
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(256);
        let mut w = TraceWriter::create(cfg).expect("create");
        for seq in 0..20 {
            w.append_frame(&frame(7, seq)).expect("append");
        }
        let open_path = w.abandon().expect("abandon");
        assert!(open_path.exists());
        let scan_bytes = fs::read(&open_path).expect("read");
        let scan = scan_segment(&scan_bytes).expect("header");
        assert!(scan.seal.is_none());
        assert!(scan.error.is_none(), "clean open tail");
        assert!(!scan.records.is_empty());
    }

    #[test]
    fn seal_syncs_the_directory() {
        // DIR_SYNCS is thread-local and every seal below runs on this
        // thread, so the deltas are exact even under parallel tests.
        let dir = testdir::fresh("writer-dirsync");
        let before = DIR_SYNCS.with(|c| c.get());
        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("create");
        w.append_frame(&frame(1, 0)).expect("append");
        w.finish().expect("finish");
        assert!(
            DIR_SYNCS.with(|c| c.get()) > before,
            "sealing must fsync the parent directory"
        );
    }

    #[test]
    fn retention_at_seal_gcs_budget_overruns_but_never_replay_windows() {
        let dir = testdir::fresh("writer-retention");
        let policy = crate::retention::RetentionPolicy::keep_everything()
            .with_max_bytes(600)
            .with_keep_last_segments(1)
            .with_replay_window(0, Nanos::MAX);
        let cfg = StoreConfig::new(&dir)
            .with_target_segment_bytes(200)
            .with_retention(policy);
        let mut w = TraceWriter::create(cfg).expect("create");
        // Client 0 (protected forever) fills the earliest segments,
        // then client 1 floods the store far past the byte budget.
        for seq in 0..8u32 {
            w.append_frame(&frame(0, seq)).expect("append");
        }
        for seq in 0..60u32 {
            w.append_frame(&frame(1, seq)).expect("append");
        }
        let summary = w.finish().expect("finish");
        assert!(summary.gc_segments > 0, "budget overrun must GC");
        assert!(summary.gc_bytes > 0);

        let r = crate::reader::TraceReader::open(&dir).expect("open");
        let protected = r.client_frames(0).expect("client 0");
        assert_eq!(protected.len(), 8, "protected window survives GC whole");
        assert!(
            r.client_frames(1).expect("client 1").len() < 60,
            "unprotected frames were dropped"
        );
    }

    #[test]
    fn retention_sees_preexisting_segments() {
        let dir = testdir::fresh("writer-retention-preexisting");
        // First writer: no retention, leaves several sealed segments.
        let mut w = TraceWriter::create(StoreConfig::new(&dir).with_target_segment_bytes(200))
            .expect("create");
        for seq in 0..30u32 {
            w.append_frame(&frame(2, seq)).expect("append");
        }
        let first = w.finish().expect("finish");
        assert!(first.segments.len() > 2);

        // Second writer: tight budget. Its first seal must GC the old
        // writer's segments, not just its own.
        let policy = crate::retention::RetentionPolicy::keep_everything()
            .with_max_bytes(400)
            .with_keep_last_segments(1);
        let cfg = StoreConfig::new(&dir)
            .with_target_segment_bytes(200)
            .with_retention(policy);
        let mut w = TraceWriter::create(cfg).expect("recreate");
        for seq in 30..40u32 {
            w.append_frame(&frame(2, seq)).expect("append");
        }
        let second = w.finish().expect("finish");
        assert!(second.gc_segments > 0);
        let r = crate::reader::TraceReader::open(&dir).expect("open");
        assert!(
            r.segments().iter().all(|m| m.sealed),
            "GC leaves only sealed segments"
        );
        let total: u64 = r.segments().iter().map(|m| m.bytes).sum();
        assert!(total <= 400 + 300, "store shrank toward the budget");
        assert!(
            first.segments.iter().any(|m| !m.path.exists()),
            "a preexisting segment was deleted"
        );
    }

    /// An encoded page of a session driven `frames` 20 ms steps over a
    /// synthetic 16-bin digest.
    fn session_page(client: u32, frames: u32) -> Vec<u8> {
        let mut session = PipelineSession::new(PipelineConfig::default(), u64::from(client));
        for i in 0..frames {
            let profile = (0..16u32)
                .map(|k| 1.0 + f64::from((i * 7 + k) % 13) / 13.0)
                .collect();
            let at = 20 * MILLISECOND * Nanos::from(i);
            session.observe_profile_with(at, profile, 3.0 + f64::from(i) / 100.0, &mut NoopSink);
        }
        let mut page = Vec::new();
        mobisense_session::codec::encode_into(&mut page, client, None, &mut session)
            .expect("encode");
        page
    }

    #[test]
    fn sealed_segments_match_the_reference_builder() {
        // The writer folds each record into the body CRC from its
        // length; `build_sealed_segment` runs the byte-wise CRC over the
        // whole body. Every file must come out byte-identical.
        let page = session_page(5, 300);
        assert!(
            (1_100..1_400).contains(&page.len()),
            "{} B page",
            page.len()
        );
        let mut records: Vec<(RecordKind, Vec<u8>)> = Vec::new();
        for seq in 0..24u32 {
            records.push((RecordKind::Obs, frame(seq % 4, seq).encode()));
            if seq % 5 == 0 {
                let row = format!("{},{seq},row", seq % 4);
                records.push((RecordKind::DecisionRow, row.into_bytes()));
            }
            if seq % 7 == 3 {
                records.push((RecordKind::DecisionRow, Vec::new()));
            }
            if seq == 11 {
                records.push((RecordKind::SessionSnapshot, page.clone()));
            }
        }
        let dir = testdir::fresh("writer-reference");
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1_500);
        let mut w = TraceWriter::create(cfg).expect("create");
        for (kind, payload) in &records {
            match kind {
                RecordKind::Obs => w.append_encoded(payload),
                RecordKind::DecisionRow => {
                    w.append_decision_row(std::str::from_utf8(payload).expect("utf-8"))
                }
                RecordKind::SessionSnapshot => w.append_session_snapshot(payload),
                RecordKind::Seal => unreachable!("the writer seals by itself"),
            }
            .expect("append");
        }
        let summary = w.finish().expect("finish");
        assert!(summary.segments.len() > 2, "the target must rotate");
        let mut rest = records.as_slice();
        for meta in &summary.segments {
            let (mine, later) = rest.split_at(meta.records as usize);
            let mut index = SegmentIndex::empty();
            for (kind, payload) in mine {
                if *kind == RecordKind::Obs {
                    let peek = ObsFrame::peek_meta(payload).expect("peek");
                    index.note(peek.client_id, peek.seq, peek.at);
                }
            }
            let want = segment::build_sealed_segment(meta.id, mine.iter().cloned(), index);
            let got = fs::read(&meta.path).expect("read");
            assert!(
                got == want,
                "segment {} differs from the reference",
                meta.id
            );
            rest = later;
        }
        assert!(rest.is_empty(), "every record sealed");
    }

    #[test]
    fn append_encoded_rejects_damaged_frames() {
        let dir = testdir::fresh("writer-badframe");
        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("create");
        let good = frame(4, 2).encode();
        w.append_encoded(&good).expect("good frame");
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            w.append_encoded(&bad),
            Err(StoreError::BadFrame { .. })
        ));
        // Trailing garbage (length mismatch).
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            w.append_encoded(&long),
            Err(StoreError::BadFrame { .. })
        ));
        let summary = w.finish().expect("finish");
        assert_eq!(summary.frames, 1);
    }
}
