//! [`StorePager`]: the trace store as the durable copy of session
//! hibernation.
//!
//! `mobisense-serve`'s shard workers keep every hibernated page in the
//! client's slot of their `HibernationManager` and fault it back in
//! from there; that copy dies with the process. A worker given a
//! [`SnapshotPager`] also writes each page-out through it, and this
//! module is the production implementation: every page-out becomes a
//! [`RecordKind::SessionSnapshot`](crate::segment::RecordKind) record
//! in an ordinary segment store, with the same CRC framing, rotation,
//! sealing and retention as observation frames.
//!
//! Segments are append-only, so a client hibernated twice has two
//! records; the *later* one is the live snapshot (record order is
//! authoritative, exactly like the decision log). Nothing is erased on
//! fault-in: an old record simply stops being the latest once the
//! session hibernates again, and retention GC reaps old segments
//! wholesale.
//!
//! After a crash, [`StorePager::recover`] reads the newest snapshot per
//! client back from the store via the recovering read discipline
//! (sealed-intact segments wholly, the `.open` tail's verified prefix),
//! scanning each segment once. A snapshot still buffered in the OS when
//! the machine died is lost — that client restarts cold, which the
//! serving layer already treats as a new session. Same trade the
//! flight recorder makes.

use std::collections::BTreeMap;

use mobisense_session::{codec, PageError, SnapshotPager};
use mobisense_telemetry::sink::NoopSink;

use crate::reader::{list, recover_segments};
use crate::writer::{StoreConfig, TraceWriter, WriteSummary};
use crate::StoreError;

/// Disk-backed [`SnapshotPager`] over a segment store.
///
/// One pager per shard worker (the trait is `&mut self`; sharing a
/// store directory between shards would interleave their rotation).
/// Dropping the pager without [`finish`](StorePager::finish) leaves an
/// unsealed `.open` tail — exactly the crash shape
/// [`recover`](StorePager::recover) salvages.
pub struct StorePager {
    writer: TraceWriter,
}

impl StorePager {
    /// Opens a pager over `cfg.dir`, creating the directory if needed.
    /// Snapshots already on disk are left alone (use
    /// [`recover`](StorePager::recover) to read them back).
    pub fn create(cfg: StoreConfig) -> Result<StorePager, StoreError> {
        Ok(StorePager {
            writer: TraceWriter::create(cfg)?,
        })
    }

    /// Reopens a pager over an existing store and returns, beside it,
    /// the newest snapshot per client that reached disk: sealed-intact
    /// segments contribute wholly, a crash-truncated `.open` tail
    /// contributes its verified prefix, and a later record replaces an
    /// earlier one. Each segment is read and scanned once. New
    /// page-outs append after the existing segments.
    pub fn recover(cfg: StoreConfig) -> Result<(StorePager, BTreeMap<u32, Vec<u8>>), StoreError> {
        let mut latest = BTreeMap::new();
        if cfg.dir.is_dir() {
            let listing = list(&cfg.dir)?;
            let segments = listing
                .segments
                .iter()
                .map(|s| (s.id, s.path.as_path(), s.sealed));
            let recovery = recover_segments(segments, &mut NoopSink)?;
            // Record order: a later snapshot replaces an earlier.
            latest.extend(recovery.session_snapshots);
        }
        Ok((StorePager::create(cfg)?, latest))
    }

    /// Seals the current segment and returns what this pager's writer
    /// produced. Call at orderly shutdown; every snapshot written stays
    /// recoverable because its bytes are in the sealed segments.
    pub fn finish(self) -> Result<WriteSummary, StoreError> {
        Ok(self.writer.finish()?)
    }
}

impl SnapshotPager for StorePager {
    fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError> {
        // Pair the page with its client before anything is appended:
        // recovery files every record under the id the page carries, so
        // a refused record that reached the segment would come back.
        let page_client = codec::peek_client_id(bytes)?;
        if page_client != client {
            return Err(PageError::Misfiled {
                client,
                page_client,
            });
        }
        // The writer re-validates the payload; translate its refusal
        // into the pager vocabulary so the manager's caller sees one
        // error type.
        self.writer
            .append_session_snapshot(bytes)
            .map_err(|e| match e {
                StoreError::BadSnapshot { error, .. } => PageError::Codec(error),
                other => PageError::Io(other.to_string()),
            })?;
        // Visibility flush so live tails (and post-crash recovery of
        // everything the OS accepted) see the record promptly.
        self.writer
            .flush()
            .map_err(|e| PageError::Io(e.to_string()))
    }
}

impl std::fmt::Debug for StorePager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorePager")
            .field("dir", &self.writer.config().dir)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir;
    use mobisense_core::classifier::Classification;
    use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
    use mobisense_session::{HibernationConfig, HibernationManager, RetirePolicy};

    fn session(seed: u64) -> PipelineSession {
        PipelineSession::new(PipelineConfig::default(), seed)
    }

    fn page_of(
        client: u32,
        last_emitted: Option<Classification>,
        session: &mut PipelineSession,
    ) -> Vec<u8> {
        let mut bytes = Vec::new();
        codec::encode_into(&mut bytes, client, last_emitted, session).expect("encode");
        bytes
    }

    /// An encoded snapshot whose pipeline state varies with `seed`,
    /// so "old" and "newer" snapshots of one client differ on disk.
    fn snapshot_for(client: u32, seed: u64) -> Vec<u8> {
        page_of(client, None, &mut session(seed))
    }

    /// The newest snapshot per client that `dir` holds.
    fn recovered(dir: &std::path::Path) -> BTreeMap<u32, Vec<u8>> {
        StorePager::recover(StoreConfig::new(dir))
            .expect("recover")
            .1
    }

    #[test]
    fn page_out_appends_and_recover_reads_it_back() {
        let dir = testdir::fresh("pager-roundtrip");
        let mut pager = StorePager::create(StoreConfig::new(&dir)).expect("create");
        let bytes = snapshot_for(7, 3);
        pager.page_out(7, &bytes).expect("page out");
        pager.finish().expect("finish");
        assert_eq!(recovered(&dir), BTreeMap::from([(7, bytes)]));
    }

    #[test]
    fn page_out_rejects_garbage_and_mismatched_client() {
        let dir = testdir::fresh("pager-reject");
        let mut pager = StorePager::create(StoreConfig::new(&dir)).expect("create");
        assert!(matches!(
            pager.page_out(1, b"not a snapshot"),
            Err(PageError::Codec(_))
        ));
        let bytes = snapshot_for(7, 2);
        assert_eq!(
            pager.page_out(8, &bytes),
            Err(PageError::Misfiled {
                client: 8,
                page_client: 7
            })
        );
        pager.finish().expect("finish");
        assert!(
            recovered(&dir).is_empty(),
            "rejected pages must not become durable"
        );
    }

    #[test]
    fn recover_rebuilds_latest_per_client_from_sealed_store() {
        let dir = testdir::fresh("pager-recover-sealed");
        let old = snapshot_for(1, 2);
        let newer = snapshot_for(1, 5);
        let other = snapshot_for(2, 4);
        let mut pager = StorePager::create(StoreConfig::new(&dir)).expect("create");
        pager.page_out(1, &old).expect("out");
        pager.page_out(2, &other).expect("out");
        // Client 1 faulted in and hibernated again: newer snapshot.
        pager.page_out(1, &newer).expect("out");
        pager.finish().expect("finish");
        assert_eq!(recovered(&dir), BTreeMap::from([(1, newer), (2, other)]));
    }

    #[test]
    fn recover_salvages_a_crash_tail() {
        let dir = testdir::fresh("pager-recover-crash");
        let bytes = snapshot_for(9, 3);
        {
            let mut pager = StorePager::create(StoreConfig::new(&dir)).expect("create");
            pager.page_out(9, &bytes).expect("out");
            // Drop without finish(): the `.open` tail is the crash
            // shape — page_out flushed, so the record bytes are there.
        }
        assert_eq!(recovered(&dir), BTreeMap::from([(9, bytes)]));
    }

    #[test]
    fn recover_from_a_missing_directory_is_empty() {
        let dir = testdir::fresh("pager-recover-empty").join("never-written");
        assert!(recovered(&dir).is_empty());
    }

    #[test]
    fn recover_scans_each_segment_once() {
        let dir = testdir::fresh("pager-recover-scans");
        let cfg = StoreConfig::new(&dir).with_target_segment_bytes(300);
        let mut pager = StorePager::create(cfg).expect("create");
        for client in 0..12u32 {
            pager
                .page_out(client, &snapshot_for(client, u64::from(client)))
                .expect("out");
        }
        // Left unsealed: the last segment is the crash tail.
        drop(pager);
        let segments = list(&dir).expect("list").segments.len() as u64;
        assert!(segments > 2, "{segments} segments");
        let scans = || crate::segment::SEGMENT_SCANS.with(|c| c.get());
        let before = scans();
        assert_eq!(recovered(&dir).len(), 12);
        assert_eq!(scans() - before, segments);
    }

    #[test]
    fn the_durable_copy_restores_what_the_slot_restores() {
        // Through the real manager: what the pager wrote for each
        // hibernated client decodes to the session the manager's own
        // page faults back in.
        let dir = testdir::fresh("pager-under-manager");
        let mut mgr = HibernationManager::new(HibernationConfig {
            idle_after: Some(10),
            max_hot: None,
            policy: RetirePolicy::Hibernate,
        });
        let mut disk = StorePager::create(StoreConfig::new(&dir)).expect("create");
        for client in [3u32, 4, 5] {
            let slot = mgr.slot(client);
            mgr.touch(slot, 0);
        }
        let mut victims = Vec::new();
        mgr.victims_into(100, &mut victims);
        assert_eq!(victims.len(), 3);
        for &(slot, client) in &victims {
            let mut live = session(u64::from(client));
            mgr.hibernate(slot, None, &mut live, Some(&mut disk))
                .expect("hibernate");
        }
        disk.finish().expect("finish");
        let pages = recovered(&dir);
        assert_eq!(pages.len(), 3);
        for (slot, client) in victims {
            let (mut from_slot, mut last_slot) = (session(0), None);
            assert_eq!(mgr.fault_in(slot, &mut from_slot, &mut last_slot), Ok(true));
            let mut from_disk = session(1);
            let (page_client, last_disk) =
                codec::decode_into(&pages[&client], &mut from_disk).expect("decodes");
            assert_eq!((page_client, last_disk), (client, last_slot));
            assert_eq!(
                page_of(client, last_slot, &mut from_slot),
                page_of(client, last_disk, &mut from_disk),
                "client {client} restored differently"
            );
        }
    }
}
