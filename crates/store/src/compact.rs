//! Streaming segment compaction: many small sealed segments become
//! few large ones, one input segment resident at a time.
//!
//! Long recording runs with frequent sealing (or tiny rotation
//! targets) leave a directory of undersized segments; every read then
//! pays per-segment open/scan overhead. [`StreamingCompactor`]
//! rewrites the store so segments fill the configured target size,
//! renumbering them from zero while preserving **global record
//! order** — which is the whole correctness story, because replay
//! output is a pure function of record order. The golden-regression
//! suite replays a compacted store and expects byte-identical
//! decision logs.
//!
//! # Streaming, not buffering
//!
//! The pass reads one sealed input segment, re-appends its records
//! through a real [`TraceWriter`] (so outputs get the writer's full
//! seal discipline: per-record CRC, sparse index rebuilt from peeked
//! headers, file `sync_all` before the sealing rename, directory
//! fsync), then drops the input buffer before reading the next. Peak
//! resident record bytes are therefore O(max input segment), not
//! O(store) — asserted by a byte-accounting probe whose high-water
//! mark is reported as [`CompactReport::peak_resident_bytes`]; the
//! `store_compact` xtest pins it to exactly the largest input segment
//! on a 16 MiB store.
//!
//! # Crash-safe promotion
//!
//! Outputs are staged under the **next generation**'s file names
//! (`gen-G-seg-N.seg`, see the [`manifest`] module),
//! invisible to every reader until one atomic manifest rename makes
//! the new generation current. The full protocol, with what a crash
//! at each step leaves behind:
//!
//! | step                         | crash leaves                      |
//! |------------------------------|-----------------------------------|
//! | 1. sweep stale generations   | old store intact                  |
//! | 2. stage outputs (gen G+1)   | old store + invisible staging     |
//! | 3. seal last staged output   | old store + invisible staging     |
//! | 4. write+fsync manifest .tmp | old store + invisible staging     |
//! | 5. rename manifest (commit)  | **new** store + old-gen garbage   |
//! | 6. delete old-gen files      | new store + partial garbage       |
//!
//! Before step 5 the old generation is current and untouched; from
//! step 5 on the new generation is current and fully sealed. At no
//! instant is neither store recoverable — `TraceReader::recover()`
//! reports a complete store at every row, and the garbage rows are
//! swept by the next open's loser GC (`manifest::gc_losers`).
//! The kill-mid-compact xtest aborts a child process at each step and
//! proves exactly this table.
//!
//! Compaction is strict over its input: an unsealed tail or a damaged
//! segment aborts it untouched (run recovery first, decide what to
//! do, then compact). It also assumes a quiescent store — no live
//! writer appending to the generation being replaced.

use std::fs;
use std::io;
use std::time::Instant;

use mobisense_serve::wire::ObsFrame;
use mobisense_telemetry::event::Event;
use mobisense_telemetry::sink::{timed, Sink};
use mobisense_util::units::Nanos;

use crate::reader::{scan_sealed, SegmentMeta};
use crate::segment::RecordKind;
use crate::writer::{StoreConfig, TraceWriter};
use crate::{manifest, StoreError, TraceReader};

/// What a compaction did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Sealed segments before.
    pub segments_before: usize,
    /// Sealed segments after.
    pub segments_after: usize,
    /// Total segment-file bytes before.
    pub bytes_before: u64,
    /// Total segment-file bytes after.
    pub bytes_after: u64,
    /// Observation frames carried across (every one of them).
    pub frames: u64,
    /// Records carried across (frames, decision rows and session
    /// snapshots alike — compaction is kind-agnostic).
    pub records: u64,
    /// The generation the compacted store lives in (input generation
    /// plus one; unchanged when the store was empty).
    pub generation: u64,
    /// High-water mark of record bytes held in memory: the byte
    /// accounting probe behind the streaming contract. Counts input
    /// segment buffers (the only O(data) allocations; outputs stream
    /// through the writer's fixed-size I/O buffer).
    pub peak_resident_bytes: usize,
    /// Wall-clock duration of the pass.
    pub wall: std::time::Duration,
}

impl CompactReport {
    /// Records rewritten per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Input MiB processed per wall-clock second.
    pub fn mib_per_sec(&self) -> f64 {
        (self.bytes_before as f64 / (1 << 20) as f64) / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A step of the promotion protocol at which [`CompactOptions`] can
/// inject a crash (an `Interrupted` error after flushing exactly the
/// bytes a real kill would have handed the OS). The crash-matrix
/// tests drive one compaction per variant and prove
/// `TraceReader::recover()` finds a complete store every time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the stale-generation sweep, before any staging output
    /// exists.
    BeforeStaging,
    /// After the first input segment was re-appended: staged outputs
    /// exist, the last one an unsealed `.open` tail.
    MidStage,
    /// Every output staged and sealed, manifest untouched.
    AfterStaging,
    /// The new manifest written and fsynced under its `.tmp` name,
    /// commit rename not yet done.
    ManifestStaged,
    /// Manifest committed (the new generation is current), old
    /// generation not yet deleted.
    AfterPromote,
    /// One old-generation file deleted, the rest still present.
    MidGc,
}

impl CrashPoint {
    /// Every protocol step, in order.
    pub const ALL: [CrashPoint; 6] = [
        CrashPoint::BeforeStaging,
        CrashPoint::MidStage,
        CrashPoint::AfterStaging,
        CrashPoint::ManifestStaged,
        CrashPoint::AfterPromote,
        CrashPoint::MidGc,
    ];

    /// Stable token naming this step (the crash-test child process
    /// protocol).
    pub fn as_str(self) -> &'static str {
        match self {
            CrashPoint::BeforeStaging => "before-staging",
            CrashPoint::MidStage => "mid-stage",
            CrashPoint::AfterStaging => "after-staging",
            CrashPoint::ManifestStaged => "manifest-staged",
            CrashPoint::AfterPromote => "after-promote",
            CrashPoint::MidGc => "mid-gc",
        }
    }

    /// Inverse of [`as_str`](CrashPoint::as_str).
    pub fn parse(s: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.iter().copied().find(|p| p.as_str() == s)
    }
}

/// Knobs for a [`StreamingCompactor`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactOptions {
    /// Inject a crash at this protocol step (tests only; `None` in
    /// production).
    pub crash_at: Option<CrashPoint>,
}

/// Byte accounting for the streaming contract: how many record bytes
/// are resident right now, and the run's high-water mark.
#[derive(Clone, Copy, Debug, Default)]
struct ResidentProbe {
    current: usize,
    peak: usize,
}

impl ResidentProbe {
    fn acquire(&mut self, bytes: usize) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    fn release(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes);
    }
}

/// The segment-at-a-time compactor (see the module docs for the
/// streaming and promotion story). [`compact`] is the one-call
/// convenience wrapper.
#[derive(Clone, Debug)]
pub struct StreamingCompactor {
    cfg: StoreConfig,
    opts: CompactOptions,
}

impl StreamingCompactor {
    /// A compactor over `cfg.dir`, packing outputs toward
    /// `cfg.target_segment_bytes`. Retention does not apply to the
    /// pass itself (compaction preserves every record; enforce
    /// budgets with a writer or [`enforce`](crate::retention)).
    pub fn new(cfg: StoreConfig) -> StreamingCompactor {
        StreamingCompactor {
            cfg,
            opts: CompactOptions::default(),
        }
    }

    /// Replaces the run options (crash injection for tests).
    pub fn with_options(mut self, opts: CompactOptions) -> StreamingCompactor {
        self.opts = opts;
        self
    }

    /// Runs the pass. Emits per-input-segment progress counters, one
    /// `StoreSegment` event per sealed output, and a final
    /// `StoreCompaction` summary.
    pub fn run<S: Sink + ?Sized>(&self, sink: &mut S) -> Result<CompactReport, StoreError> {
        timed(sink, "store.compact", |sink| self.run_inner(sink))
    }

    fn run_inner<S: Sink + ?Sized>(&self, sink: &mut S) -> Result<CompactReport, StoreError> {
        // lint: determinism -- wall clock feeds throughput telemetry only, never a record byte
        let started = Instant::now();
        let dir = &self.cfg.dir;
        let old_generation = manifest::current_generation(dir)?;
        // Step 1: a previously crashed compaction may have left losing
        // generations or staging leftovers; sweep so this run's
        // staging namespace is provably ours alone.
        let swept = manifest::gc_losers(dir, old_generation)?;
        if swept.files > 0 {
            sink.count("store.compact.stale_gc_files", swept.files);
        }
        self.fail_at(CrashPoint::BeforeStaging)?;

        let reader = TraceReader::open(dir)?;
        for meta in reader.segments() {
            if !meta.sealed {
                return Err(StoreError::Unsealed {
                    segment_id: meta.id,
                });
            }
        }
        let segments_before = reader.segments().len();
        let bytes_before: u64 = reader.segments().iter().map(|m| m.bytes).sum();
        if segments_before == 0 {
            // Nothing to rewrite; the generation does not move.
            let report = CompactReport {
                segments_before: 0,
                segments_after: 0,
                bytes_before: 0,
                bytes_after: 0,
                frames: 0,
                records: 0,
                generation: old_generation,
                peak_resident_bytes: 0,
                wall: started.elapsed(),
            };
            emit_summary(sink, &report, 0);
            return Ok(report);
        }

        // Step 2: stage outputs under the next generation, one input
        // segment resident at a time.
        let new_generation = old_generation + 1;
        let staging_cfg = StoreConfig {
            dir: dir.clone(),
            target_segment_bytes: self.cfg.target_segment_bytes,
            retention: None,
        };
        let mut writer = TraceWriter::create_staging(staging_cfg, new_generation)?;
        let mut probe = ResidentProbe::default();
        let mut records = 0u64;
        let mut max_at: Nanos = 0;
        let mut emitted = 0usize;
        for (done, meta) in reader.segments().iter().enumerate() {
            let bytes = fs::read(&meta.path)?;
            probe.acquire(bytes.len());
            sink.gauge_set("store.compact.resident_bytes", probe.current as f64);
            let scan = scan_sealed(meta.id, &bytes)?;
            let mut seg_records = 0u64;
            for record in &scan.records {
                let obs = match record.kind {
                    RecordKind::Obs => {
                        // The input scan CRC-verified the payload, but
                        // the peek still gets a typed error path: a
                        // record that checksums yet does not parse is
                        // data damage, not a programming invariant.
                        let peek = ObsFrame::peek_meta(record.payload).map_err(|error| {
                            StoreError::BadFrame {
                                segment_id: meta.id,
                                error,
                            }
                        })?;
                        max_at = max_at.max(peek.at);
                        Some((peek.client_id, peek.seq, peek.at))
                    }
                    // The scanner never yields seal records; skipping
                    // (rather than asserting) keeps the pass panic-free
                    // if that contract ever shifts.
                    RecordKind::Seal => continue,
                    RecordKind::DecisionRow | RecordKind::SessionSnapshot => None,
                };
                writer.append_raw(record.kind, record.payload, obs)?;
                seg_records += 1;
            }
            probe.release(bytes.len());
            records += seg_records;
            // Per-input-segment progress: a long pass over a big store
            // shows movement in ops snapshots, not one end-of-run jump.
            sink.count("store.compact.segments_in", 1);
            sink.count("store.compact.bytes_in", meta.bytes);
            sink.count("store.compact.records", seg_records);
            emitted = emit_new_outputs(sink, writer.sealed(), emitted);
            if done == 0 && self.opts.crash_at == Some(CrashPoint::MidStage) {
                // Hand the OS what a real kill at this instant would
                // have (the buffered tail), then die.
                writer.flush().map_err(StoreError::Io)?;
                return Err(crashed(CrashPoint::MidStage));
            }
        }

        // Step 3: seal the last staged output.
        let summary = writer.finish()?;
        emit_new_outputs(sink, &summary.segments, emitted);
        self.fail_at(CrashPoint::AfterStaging)?;

        // Steps 4–5: the manifest swing. The rename is the commit
        // point — before it the old generation is current, after it
        // the new one is.
        manifest::stage(dir, new_generation)?;
        self.fail_at(CrashPoint::ManifestStaged)?;
        manifest::commit(dir)?;
        self.fail_at(CrashPoint::AfterPromote)?;

        // Step 6: the old generation is garbage now; delete it. A
        // crash in here leaves files the next open sweeps.
        for (removed, meta) in reader.segments().iter().enumerate() {
            fs::remove_file(&meta.path)?;
            if removed == 0 {
                self.fail_at(CrashPoint::MidGc)?;
            }
        }
        crate::writer::sync_dir(dir)?;

        let report = CompactReport {
            segments_before,
            segments_after: summary.segments.len(),
            bytes_before,
            bytes_after: summary.bytes,
            frames: summary.frames,
            records,
            generation: new_generation,
            peak_resident_bytes: probe.peak,
            wall: started.elapsed(),
        };
        emit_summary(sink, &report, max_at);
        Ok(report)
    }

    /// Returns the injected-crash error when this run is configured
    /// to die at `point`.
    fn fail_at(&self, point: CrashPoint) -> Result<(), StoreError> {
        if self.opts.crash_at == Some(point) {
            return Err(crashed(point));
        }
        Ok(())
    }
}

/// The error an injected crash surfaces in-process (the child-process
/// harness aborts instead, for real-kill coverage).
fn crashed(point: CrashPoint) -> StoreError {
    StoreError::Io(io::Error::new(
        io::ErrorKind::Interrupted,
        format!("compaction crash injected at {}", point.as_str()),
    ))
}

/// Emits one `StoreSegment` event per newly sealed output beyond
/// `from`; returns the new high-water count.
fn emit_new_outputs<S: Sink + ?Sized>(sink: &mut S, sealed: &[SegmentMeta], from: usize) -> usize {
    for meta in sealed.iter().skip(from) {
        let (at, frames) = meta
            .index
            .as_ref()
            .map(|i| (i.max_at, i.frames))
            .unwrap_or((0, 0));
        sink.record(Event::StoreSegment {
            at,
            segment: meta.id,
            frames,
            bytes: meta.bytes,
        });
    }
    sealed.len()
}

/// Publishes the end-of-run counters, gauges and summary event.
fn emit_summary<S: Sink + ?Sized>(sink: &mut S, report: &CompactReport, max_at: Nanos) {
    sink.count("store.compact.bytes_out", report.bytes_after);
    sink.count("store.compact.segments_out", report.segments_after as u64);
    sink.gauge_set("store.compact.records_per_sec", report.records_per_sec());
    sink.gauge_set("store.compact.mib_per_sec", report.mib_per_sec());
    sink.gauge_set(
        "store.compact.peak_resident_bytes",
        report.peak_resident_bytes as f64,
    );
    sink.record(Event::StoreCompaction {
        at: max_at,
        segments_in: report.segments_before as u64,
        segments_out: report.segments_after as u64,
        records: report.records,
        bytes_in: report.bytes_before,
        bytes_out: report.bytes_after,
    });
}

/// Compacts the store at `cfg.dir` toward `cfg.target_segment_bytes`
/// per segment: [`StreamingCompactor`] with default options.
pub fn compact<S: Sink + ?Sized>(
    cfg: &StoreConfig,
    sink: &mut S,
) -> Result<CompactReport, StoreError> {
    StreamingCompactor::new(cfg.clone()).run(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::scan_segment;
    use crate::writer::TraceWriter;
    use crate::{open_name, sealed_name, testdir};
    use mobisense_telemetry::{NoopSink, Telemetry};

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 500 * seq as Nanos,
            distance_m: 4.0,
            digest: vec![1.0; 5],
        }
    }

    fn build_fragmented_store(dir: &std::path::Path) -> (Vec<ObsFrame>, Vec<String>) {
        let cfg = StoreConfig::new(dir).with_target_segment_bytes(128);
        let mut w = TraceWriter::create(cfg).expect("create");
        let mut frames = Vec::new();
        let mut rows = Vec::new();
        for seq in 0..40u32 {
            let f = frame(seq % 5, seq);
            w.append_frame(&f).expect("append");
            frames.push(f);
            if seq % 10 == 9 {
                let row = format!("{},{seq},row", seq % 5);
                w.append_decision_row(&row).expect("row");
                rows.push(row);
            }
        }
        w.finish().expect("finish");
        (frames, rows)
    }

    #[test]
    fn compaction_preserves_order_and_shrinks_segment_count() {
        let dir = testdir::fresh("compact-basic");
        let (frames, rows) = build_fragmented_store(&dir);
        let before = TraceReader::open(&dir).expect("open").segments().len();
        assert!(before > 4, "fragmented input expected, got {before}");

        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
        let mut sink = Telemetry::new();
        let report = compact(&cfg, &mut sink).expect("compact");
        assert_eq!(report.segments_before, before);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.frames, 40);
        assert_eq!(report.generation, 1, "compaction moved to generation 1");
        assert!(report.bytes_after < report.bytes_before);
        // Streaming contract: resident bytes stay O(input segment),
        // far under the 2× target ceiling.
        assert!(report.peak_resident_bytes > 0);
        assert!(report.peak_resident_bytes <= 2 * (1 << 20));
        assert_eq!(
            sink.events()
                .filter(|e| e.kind() == "store_segment")
                .count(),
            1
        );
        // The pass publishes progress telemetry: a summary event plus
        // counters and throughput gauges in the registry.
        assert_eq!(report.records, 44, "40 frames + 4 decision rows");
        assert!(report.records_per_sec() > 0.0);
        assert!(report.mib_per_sec() > 0.0);
        let compactions: Vec<_> = sink
            .events()
            .filter(|e| e.kind() == "store_compaction")
            .collect();
        assert_eq!(compactions.len(), 1);
        if let Event::StoreCompaction {
            records, bytes_out, ..
        } = compactions[0]
        {
            assert_eq!(*records, 44);
            assert_eq!(*bytes_out, report.bytes_after);
        }
        assert_eq!(
            sink.registry.counter_value("store.compact.records"),
            Some(44)
        );
        assert_eq!(
            sink.registry.counter_value("store.compact.segments_in"),
            Some(before as u64)
        );
        assert!(sink
            .registry
            .gauge_value("store.compact.mib_per_sec")
            .is_some_and(|v| v > 0.0));
        assert!(sink
            .registry
            .gauge_value("store.compact.peak_resident_bytes")
            .is_some_and(|v| v > 0.0));

        let r = TraceReader::open(&dir).expect("reopen");
        assert_eq!(r.generation(), 1);
        assert_eq!(r.stale_files(), 0, "old generation fully collected");
        assert_eq!(r.segments().len(), 1);
        assert!(r.segments()[0].sealed);
        let bytes = fs::read(&r.segments()[0].path).expect("read");
        assert!(scan_segment(&bytes).expect("header").sealed_ok());
        let (got_frames, got_rows) = r.read_frames().expect("strict read");
        assert_eq!(got_frames, frames);
        assert_eq!(got_rows, rows);
    }

    #[test]
    fn compaction_respects_the_size_target() {
        let dir = testdir::fresh("compact-split");
        build_fragmented_store(&dir);
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(512);
        let report = compact(&cfg, &mut NoopSink).expect("compact");
        assert!(
            report.segments_after > 1,
            "512-byte target must split 40 frames"
        );
        let r = TraceReader::open(&dir).expect("reopen");
        for (i, meta) in r.segments().iter().enumerate() {
            assert_eq!(meta.id, i as u64);
            assert!(meta.index.is_some(), "every output sealed and intact");
        }
        assert_eq!(r.read_frames().expect("read").0.len(), 40);
    }

    #[test]
    fn compaction_refuses_unsealed_and_damaged_stores() {
        let dir = testdir::fresh("compact-refuse");
        build_fragmented_store(&dir);
        // Leave an abandoned tail.
        let mut w =
            TraceWriter::create(StoreConfig::new(&dir).with_target_segment_bytes(4096)).expect("w");
        w.append_frame(&frame(1, 0)).expect("append");
        let tail = w.abandon().expect("abandon");
        let cfg = StoreConfig::new(&dir);
        assert!(matches!(
            compact(&cfg, &mut NoopSink),
            Err(StoreError::Unsealed { .. })
        ));
        fs::remove_file(&tail).expect("rm");

        // Damage a sealed segment.
        let victim = dir.join(sealed_name(0, 2));
        let mut bytes = fs::read(&victim).expect("read");
        let n = bytes.len();
        bytes[n - 10] ^= 0x08;
        fs::write(&victim, &bytes).expect("write");
        assert!(matches!(
            compact(&cfg, &mut NoopSink),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn compacting_a_compacted_store_is_stable() {
        let dir = testdir::fresh("compact-idempotent");
        let (frames, _) = build_fragmented_store(&dir);
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
        let first_report = compact(&cfg, &mut NoopSink).expect("first");
        assert_eq!(first_report.generation, 1);
        let first = fs::read(dir.join(sealed_name(1, 0))).expect("read");
        let report = compact(&cfg, &mut NoopSink).expect("second");
        assert_eq!(report.segments_before, 1);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.generation, 2);
        let second = fs::read(dir.join(sealed_name(2, 0))).expect("read");
        assert_eq!(first, second, "compaction is a fixed point");
        let r = TraceReader::open(&dir).expect("open");
        assert_eq!(r.read_frames().expect("read").0, frames);
    }

    #[test]
    fn compacting_an_empty_store_is_a_noop() {
        let dir = testdir::fresh("compact-empty");
        let cfg = StoreConfig::new(&dir);
        let report = compact(&cfg, &mut NoopSink).expect("compact");
        assert_eq!(report.segments_before, 0);
        assert_eq!(report.segments_after, 0);
        assert_eq!(report.generation, 0, "the generation does not move");
        assert!(
            !dir.join(manifest::MANIFEST_NAME).exists(),
            "no manifest is written for a no-op pass"
        );
    }

    #[test]
    fn a_writer_continues_the_compacted_generation() {
        let dir = testdir::fresh("compact-then-append");
        let (mut frames, _) = build_fragmented_store(&dir);
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
        compact(&cfg, &mut NoopSink).expect("compact");

        let mut w = TraceWriter::create(StoreConfig::new(&dir)).expect("reopen writer");
        assert_eq!(w.generation(), 1, "the writer joins the live generation");
        assert_eq!(w.segment_id(), 1, "ids continue after the compacted output");
        let extra = frame(9, 99);
        w.append_frame(&extra).expect("append");
        frames.push(extra);
        w.finish().expect("finish");

        let r = TraceReader::open(&dir).expect("open");
        assert_eq!(r.segments().len(), 2);
        assert_eq!(
            r.read_frames().expect("read").0,
            frames,
            "compacted records come first, appended ones after"
        );
    }

    #[test]
    fn every_crash_point_leaves_a_complete_recoverable_store() {
        for point in CrashPoint::ALL {
            let dir = testdir::fresh(&format!("compact-crash-{}", point.as_str()));
            let (frames, rows) = build_fragmented_store(&dir);
            let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
            let err = StreamingCompactor::new(cfg.clone())
                .with_options(CompactOptions {
                    crash_at: Some(point),
                })
                .run(&mut NoopSink)
                .expect_err("the injected crash must surface");
            assert!(
                matches!(&err, StoreError::Io(e) if e.kind() == io::ErrorKind::Interrupted),
                "unexpected error at {point:?}: {err}"
            );

            // Either the old or the new store is fully current: the
            // strict read sees every record, and recovery is complete.
            let r = TraceReader::open(&dir).expect("open after crash");
            let (got_frames, got_rows) = r.read_frames().expect("strict read after crash");
            assert_eq!(got_frames, frames, "crash at {point:?} lost frames");
            assert_eq!(got_rows, rows, "crash at {point:?} lost rows");
            let rec = r.recover().expect("recover");
            assert!(rec.complete(), "recovery incomplete after {point:?}");

            // A rerun converges and sweeps every leftover.
            let report = compact(&cfg, &mut NoopSink).expect("rerun");
            assert_eq!(report.frames, frames.len() as u64);
            let r = TraceReader::open(&dir).expect("open after rerun");
            assert_eq!(r.stale_files(), 0, "rerun left garbage after {point:?}");
            assert_eq!(r.read_frames().expect("read").0, frames);
        }
    }

    #[test]
    fn mid_stage_crash_leaves_an_invisible_staging_tail() {
        let dir = testdir::fresh("compact-crash-shape");
        build_fragmented_store(&dir);
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
        StreamingCompactor::new(cfg)
            .with_options(CompactOptions {
                crash_at: Some(CrashPoint::MidStage),
            })
            .run(&mut NoopSink)
            .expect_err("crash");
        // The staged generation-1 tail exists on disk but the reader,
        // pinned to generation 0, never sees it.
        assert!(dir.join(open_name(1, 0)).exists(), "staging tail on disk");
        let r = TraceReader::open(&dir).expect("open");
        assert_eq!(r.generation(), 0);
        assert_eq!(r.stale_files(), 1);
        // The next writer open sweeps it.
        TraceWriter::create(StoreConfig::new(&dir))
            .expect("writer open")
            .finish()
            .expect("finish");
        assert!(!dir.join(open_name(1, 0)).exists(), "staging tail swept");
    }
}
