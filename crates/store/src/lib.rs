//! mobisense-store: the durable trace log under the serving layer.
//!
//! The paper's whole methodology is replay — recorded PHY observations
//! (CSI digests + ToF distances) driven back through the classifier
//! and the Table-2 adaptations. At controller scale that recording has
//! to be a first-class subsystem: observation streams must survive
//! crashes and partial corruption, and must replay **bit-exactly** so
//! any production decision can be reproduced on a laptop. This crate
//! is that subsystem, built entirely on `std`:
//!
//! * [`segment`] — the on-disk format: a versioned header,
//!   length-prefixed records checksummed with
//!   [`mobisense_util::crc`]'s CRC-32, and a sealing footer
//!   carrying the record count, a whole-body checksum and a **sparse
//!   index** (client-id set, sequence and timestamp ranges);
//! * [`writer`] — [`TraceWriter`]: append-only, size-based rotation,
//!   atomic sealing (`seg-N.open` → `seg-N.seg` via rename);
//! * [`reader`] — [`TraceReader`]: strict reads with typed errors,
//!   plus a recovering read that salvages a crash-truncated tail and
//!   skips (whole, detectably-damaged) segments;
//! * [`mod@compact`] — merges many small sealed segments into few large
//!   ones, preserving record order and hence replay output;
//! * [`replay`] — the golden-regression harness: record a fleet
//!   together with the decision log the live service produced, then
//!   replay the stored frames through [`serve_streams`] (the serve
//!   layer's one in-process driver) and verify the merged decision log
//!   is byte-identical for any shard count;
//! * [`recording`] — the store as a flight-recorder backend: plugs a
//!   [`TraceWriter`] into `mobisense-serve`'s background recording
//!   channel so frames are persisted *during* normal serving;
//! * [`tail`] — live tailing: a polling cursor with verified-prefix
//!   reads over the unsealed `.open` segment, surviving writer
//!   rotation and retention GC;
//! * [`pager`] — [`StorePager`]: the trace store as the durable
//!   backing for `mobisense-session` hibernation — paged-out session
//!   snapshots become checksummed records, survive crashes, and fault
//!   back in from an in-memory latest-per-client map rebuilt from
//!   disk on recovery;
//! * [`retention`] — bounded stores: size/age budgets enforced at
//!   every seal, refusing to drop segments inside a configured
//!   per-client replay window.
//!
//! [`serve_streams`]: mobisense_serve::service::serve_streams
//!
//! The durability story is deliberately boring: every record carries
//! its own CRC, the seal's body CRC covers every remaining byte, and a
//! segment only gets its sealed name after its footer is on disk — so
//! a reader can always tell "crash-truncated tail" (salvage the
//! prefix) from "sealed data that went bad" (skip the segment, say
//! so). Nothing is ever silently wrong.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod manifest;
pub mod pager;
pub mod reader;
pub mod recording;
pub mod replay;
pub mod retention;
pub mod segment;
pub mod tail;
pub mod writer;

pub use compact::{compact, CompactOptions, CompactReport, CrashPoint, StreamingCompactor};
pub use manifest::current_generation;
pub use pager::StorePager;
pub use reader::{Recovery, SegmentMeta, TraceReader};
pub use recording::{spawn_flight_recorder, FlightRecorder};
pub use replay::{record_fleet, replay_client, replay_fleet, RecordSummary, ReplayReport};
pub use retention::{enforce as enforce_retention, ReplayWindow, RetentionPlan, RetentionPolicy};
pub use segment::{RecordKind, SegmentError, SegmentIndex};
pub use tail::{TailCursor, TailItem};
pub use writer::{StoreConfig, TraceWriter, WriteSummary};

use mobisense_serve::wire::WireError;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment's bytes are damaged (strict reads report this; the
    /// recovering read skips the segment instead).
    Corrupt {
        /// The damaged segment.
        segment_id: u64,
        /// What the scanner found.
        error: SegmentError,
    },
    /// A strict read found an unsealed segment (crash leftovers); use
    /// the recovering read to salvage it.
    Unsealed {
        /// The unsealed segment.
        segment_id: u64,
    },
    /// An observation record's payload is not a single well-formed
    /// wire frame.
    BadFrame {
        /// The segment holding the record (the writer's current
        /// segment when appending).
        segment_id: u64,
        /// The wire-level reason.
        error: WireError,
    },
    /// A decision-row record's payload is not UTF-8.
    BadUtf8 {
        /// The segment holding the record.
        segment_id: u64,
    },
    /// A session-snapshot record's payload is not a well-formed
    /// `mobisense_session` snapshot.
    BadSnapshot {
        /// The segment holding the record (the writer's current
        /// segment when appending).
        segment_id: u64,
        /// The codec-level reason.
        error: mobisense_session::SnapshotError,
    },
    /// An appended record's payload exceeds the format's 24-bit length
    /// budget ([`segment`] frames lengths as `u32` capped well below).
    RecordTooLarge {
        /// The rejected payload's length in bytes.
        len: usize,
    },
    /// An appended decision row contains a newline — rows are the
    /// line-oriented golden log, so an embedded newline would forge an
    /// extra row on read-back.
    BadDecisionRow,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { segment_id, error } => {
                write!(f, "segment {segment_id} corrupt: {error}")
            }
            StoreError::Unsealed { segment_id } => {
                write!(f, "segment {segment_id} is unsealed (crash leftovers?)")
            }
            StoreError::BadFrame { segment_id, error } => {
                write!(f, "segment {segment_id}: bad observation frame: {error}")
            }
            StoreError::BadUtf8 { segment_id } => {
                write!(f, "segment {segment_id}: decision row is not UTF-8")
            }
            StoreError::BadSnapshot { segment_id, error } => {
                write!(f, "segment {segment_id}: bad session snapshot: {error}")
            }
            StoreError::RecordTooLarge { len } => {
                write!(f, "record payload of {len} bytes exceeds the format limit")
            }
            StoreError::BadDecisionRow => {
                write!(f, "decision row contains a newline")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { error, .. } => Some(error),
            StoreError::BadFrame { error, .. } => Some(error),
            StoreError::BadSnapshot { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// File name of a sealed segment in `generation`. Generation 0 keeps
/// the legacy `seg-N.seg` form so every pre-manifest store (and its
/// tooling) stays readable; compacted generations are tagged
/// `gen-G-seg-N.seg` and selected via the [`manifest`].
pub(crate) fn sealed_name(generation: u64, id: u64) -> String {
    if generation == 0 {
        format!("seg-{id:08}.seg")
    } else {
        format!("gen-{generation:08}-seg-{id:08}.seg")
    }
}

/// File name of an in-progress (unsealed) segment in `generation`.
pub(crate) fn open_name(generation: u64, id: u64) -> String {
    if generation == 0 {
        format!("seg-{id:08}.open")
    } else {
        format!("gen-{generation:08}-seg-{id:08}.open")
    }
}

/// Parses a segment file name into `(generation, id, sealed)`. The
/// legacy ungapped form is generation 0; a `gen-00000000-` prefix is
/// rejected so every generation has exactly one spelling.
pub(crate) fn parse_segment_name(name: &str) -> Option<(u64, u64, bool)> {
    let (stem, sealed) = name
        .strip_suffix(".seg")
        .map(|s| (s, true))
        .or_else(|| name.strip_suffix(".open").map(|s| (s, false)))?;
    let (generation, stem) = match stem.strip_prefix("gen-") {
        Some(rest) => {
            let (digits, stem) = rest.split_at_checked(8)?;
            let stem = stem.strip_prefix('-')?;
            if !digits.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let generation: u64 = digits.parse().ok()?;
            if generation == 0 {
                return None;
            }
            (generation, stem)
        }
        None => (0, stem),
    };
    let digits = stem.strip_prefix("seg-")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().map(|id| (generation, id, sealed))
}

#[cfg(test)]
pub(crate) mod testdir {
    //! Unique scratch directories for file-backed unit tests.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Creates a fresh, empty directory under the system temp dir.
    pub fn fresh(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mobisense-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        // A stale run's leftovers must not leak into this test.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(sealed_name(0, 7), "seg-00000007.seg");
        assert_eq!(open_name(0, 42), "seg-00000042.open");
        assert_eq!(parse_segment_name("seg-00000007.seg"), Some((0, 7, true)));
        assert_eq!(
            parse_segment_name("seg-00000042.open"),
            Some((0, 42, false))
        );
        assert_eq!(parse_segment_name("seg-00000042.tmp"), None);
        assert_eq!(parse_segment_name("seg-42.seg"), None);
        assert_eq!(parse_segment_name("other.seg"), None);
        assert_eq!(parse_segment_name("seg-0000004x.seg"), None);
    }

    #[test]
    fn generation_tagged_names_round_trip() {
        assert_eq!(sealed_name(3, 7), "gen-00000003-seg-00000007.seg");
        assert_eq!(open_name(1, 0), "gen-00000001-seg-00000000.open");
        for generation in [1u64, 3, 99_999_999] {
            for id in [0u64, 7, 12345678] {
                for sealed in [true, false] {
                    let name = if sealed {
                        sealed_name(generation, id)
                    } else {
                        open_name(generation, id)
                    };
                    assert_eq!(
                        parse_segment_name(&name),
                        Some((generation, id, sealed)),
                        "{name}"
                    );
                }
            }
        }
        // Generation 0 has exactly one spelling: the legacy one.
        assert_eq!(parse_segment_name("gen-00000000-seg-00000001.seg"), None);
        assert_eq!(parse_segment_name("gen-0000001-seg-00000001.seg"), None);
        assert_eq!(parse_segment_name("gen-0000000x-seg-00000001.seg"), None);
        assert_eq!(parse_segment_name("gen-00000001-seg-00000001.tmp"), None);
        assert_eq!(parse_segment_name("gen-00000001-other.seg"), None);
    }

    #[test]
    fn store_error_display_and_source() {
        use std::error::Error as _;
        let e = StoreError::Corrupt {
            segment_id: 3,
            error: SegmentError::RecordCorrupt { offset: 21 },
        };
        assert!(e.to_string().contains("segment 3"));
        assert!(e.source().is_some());
        assert!(StoreError::Unsealed { segment_id: 1 }
            .to_string()
            .contains("unsealed"));
        let io = StoreError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }
}
