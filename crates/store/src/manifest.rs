//! The store manifest: a tiny CRC'd record naming the **current
//! generation** of segment files.
//!
//! Compaction must replace many sealed segments with few — atomically,
//! under a crash-at-any-instant threat model. Renaming files in place
//! cannot do that (some step deletes an old file before the new name
//! exists, or vice versa), so the store borrows the classic
//! CURRENT-file design: segment files carry a generation in their
//! name, and one small manifest says which generation is live.
//!
//! * A store that has never been compacted has **no manifest** and all
//!   of its segments use the legacy `seg-N.{seg,open}` names — that is
//!   generation 0. Absence of the file *is* a valid state, which keeps
//!   every pre-manifest store readable unchanged.
//! * Compaction stages its outputs under generation G+1 names
//!   (`gen-XXXXXXXX-seg-N.seg`), fully sealed and fsynced, while the
//!   old generation stays untouched and live.
//! * Promotion is one atomic step: write `store.manifest.tmp`, fsync
//!   it, rename over `store.manifest`, fsync the directory. Before the
//!   rename the old generation is current; after it the new one is.
//!   There is no instant at which neither is.
//! * The losing generation's files are garbage, collected by
//!   `gc_losers` on the next open (writer create or compaction
//!   start). A crash mid-GC just leaves some garbage for next time —
//!   readers filter by generation and never see it.
//!
//! The manifest itself is rename-replaced, never written in place, so
//! the only way its bytes go bad is storage-level corruption — which
//! the CRC turns into a loud [`std::io::ErrorKind::InvalidData`] error
//! instead of a silent wrong-generation read.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::segment::{le_u16, le_u32, le_u64};
use mobisense_util::crc::crc32;

/// Magic word opening the manifest ("MSMF" little-endian).
pub const MANIFEST_MAGIC: u32 = 0x464D_534D;

/// Manifest format version.
pub const MANIFEST_VERSION: u16 = 1;

/// Exact manifest size: magic, version, reserved, generation, CRC.
pub const MANIFEST_LEN: usize = 20;

/// File name of the committed manifest.
pub const MANIFEST_NAME: &str = "store.manifest";

/// Staging name the manifest is written under before the commit
/// rename.
pub const MANIFEST_TMP_NAME: &str = "store.manifest.tmp";

/// Encodes a manifest naming `generation` as current.
fn encode(generation: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(MANIFEST_LEN);
    b.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    b.extend_from_slice(&0u16.to_le_bytes()); // reserved
    b.extend_from_slice(&generation.to_le_bytes());
    let crc = crc32(&b);
    b.extend_from_slice(&crc.to_le_bytes());
    b
}

/// Decodes manifest bytes, `None` on any mismatch.
fn decode(b: &[u8]) -> Option<u64> {
    if b.len() != MANIFEST_LEN {
        return None;
    }
    let (body, crc_bytes) = b.split_at(MANIFEST_LEN - 4);
    if le_u32(crc_bytes, 0)? != crc32(body) {
        return None;
    }
    if le_u32(b, 0)? != MANIFEST_MAGIC {
        return None;
    }
    if le_u16(b, 4)? != MANIFEST_VERSION {
        return None;
    }
    if le_u16(b, 6)? != 0 {
        return None;
    }
    le_u64(b, 8)
}

/// The generation currently live in `dir`. A missing manifest is
/// generation 0 (a store that has never been compacted); damaged
/// manifest bytes are a loud error — the file is only ever
/// rename-replaced, so damage means storage rot, and guessing a
/// generation could resurrect deleted data or hide live data.
pub fn current_generation(dir: &Path) -> io::Result<u64> {
    match fs::read(dir.join(MANIFEST_NAME)) {
        Ok(bytes) => decode(&bytes).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{MANIFEST_NAME} in {} is damaged ({} bytes); refusing to guess \
                     the live generation",
                    dir.display(),
                    bytes.len()
                ),
            )
        }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

/// Writes the new manifest under its staging name and makes the file
/// contents durable. Returns the staged path. The store's current
/// generation is unchanged until [`commit`] renames it into place —
/// this split exists so the crash-injection tests can die between the
/// two steps.
pub(crate) fn stage(dir: &Path, generation: u64) -> io::Result<PathBuf> {
    let tmp = dir.join(MANIFEST_TMP_NAME);
    let mut file = File::create(&tmp)?;
    file.write_all(&encode(generation))?;
    // The bytes must be durable before the committed name can ever
    // point at them.
    file.sync_all()?;
    Ok(tmp)
}

/// Atomically commits a previously [`stage`]d manifest: rename over
/// the live name, then fsync the directory so the rename itself is
/// durable. This is the compaction commit point.
pub(crate) fn commit(dir: &Path) -> io::Result<()> {
    fs::rename(dir.join(MANIFEST_TMP_NAME), dir.join(MANIFEST_NAME))?;
    crate::writer::sync_dir(dir)
}

/// Stages and commits in one call (no crash window wanted). The
/// compactor always uses the two-step form so its crash injection can
/// land between them; tests promote directly.
#[cfg(test)]
pub(crate) fn promote(dir: &Path, generation: u64) -> io::Result<()> {
    stage(dir, generation)?;
    commit(dir)
}

/// What a stale-generation sweep deleted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files removed.
    pub files: u64,
    /// Bytes those files held.
    pub bytes: u64,
}

/// Deletes every segment file in `dir` that does not belong to the
/// `current` generation, plus any abandoned staging files (an
/// uncommitted `store.manifest.tmp`, legacy `seg-N.tmp` leftovers).
/// Run at every open: a crash between promotion and GC leaves the
/// losing generation on disk, and this sweep is how it finally goes.
pub(crate) fn gc_losers(dir: &Path, current: u64) -> io::Result<GcReport> {
    let mut report = GcReport::default();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match crate::parse_segment_name(name) {
            Some((generation, _, _)) => generation != current,
            None => {
                name == MANIFEST_TMP_NAME
                    || (name.ends_with(".tmp")
                        && (name.starts_with("seg-") || name.starts_with("gen-")))
            }
        };
        if !stale {
            continue;
        }
        let bytes = entry.metadata()?.len();
        fs::remove_file(entry.path())?;
        report.files += 1;
        report.bytes += bytes;
    }
    // Deletions are directory mutations; make them durable so a crash
    // cannot resurrect a losing generation after we reported it gone.
    if report.files > 0 {
        crate::writer::sync_dir(dir)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir;

    #[test]
    fn manifest_round_trips_and_absence_means_generation_zero() {
        let dir = testdir::fresh("manifest-roundtrip");
        assert_eq!(current_generation(&dir).expect("absent"), 0);
        promote(&dir, 3).expect("promote");
        assert_eq!(current_generation(&dir).expect("read"), 3);
        promote(&dir, 4).expect("re-promote");
        assert_eq!(current_generation(&dir).expect("read"), 4);
        assert!(!dir.join(MANIFEST_TMP_NAME).exists(), "tmp consumed");
    }

    #[test]
    fn damaged_manifest_is_a_loud_error_not_a_guess() {
        let dir = testdir::fresh("manifest-damaged");
        promote(&dir, 7).expect("promote");
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).expect("read");
        bytes[8] ^= 0x01; // flip a generation bit; CRC now disagrees
        fs::write(&path, &bytes).expect("write");
        let err = current_generation(&dir).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation is damage too.
        fs::write(&path, &bytes[..10]).expect("write");
        assert!(current_generation(&dir).is_err());
    }

    #[test]
    fn staged_but_uncommitted_manifest_changes_nothing() {
        let dir = testdir::fresh("manifest-staged");
        promote(&dir, 1).expect("promote");
        let tmp = stage(&dir, 2).expect("stage");
        assert!(tmp.exists());
        assert_eq!(current_generation(&dir).expect("read"), 1);
        commit(&dir).expect("commit");
        assert_eq!(current_generation(&dir).expect("read"), 2);
    }

    #[test]
    fn gc_sweeps_losing_generations_and_staging_leftovers() {
        let dir = testdir::fresh("manifest-gc");
        for name in [
            "seg-00000000.seg",              // gen 0: loser once gen 1 is current
            "seg-00000001.open",             // gen 0 tail: loser too
            "gen-00000001-seg-00000000.seg", // current
            "seg-00000003.tmp",              // legacy compactor staging leftover
            "store.manifest.tmp",            // uncommitted manifest
            "unrelated.txt",                 // not ours; untouched
        ] {
            fs::write(dir.join(name), b"x").expect("write");
        }
        let report = gc_losers(&dir, 1).expect("gc");
        assert_eq!(report.files, 4);
        assert_eq!(report.bytes, 4);
        assert!(dir.join("gen-00000001-seg-00000000.seg").exists());
        assert!(dir.join("unrelated.txt").exists());
        assert!(!dir.join("seg-00000000.seg").exists());
        assert!(!dir.join("store.manifest.tmp").exists());
        // Idempotent: a second sweep finds nothing.
        assert_eq!(gc_losers(&dir, 1).expect("gc"), GcReport::default());
    }
}
