//! [`StorePager`]: the trace store as the durable backing for session
//! hibernation.
//!
//! `mobisense-serve`'s shard workers page idle sessions out through
//! the [`SnapshotPager`] trait. The in-memory
//! [`MemoryPager`](mobisense_session::MemoryPager) satisfies the
//! trait's contract but loses every snapshot with the process; this
//! module is the production implementation — every page-out becomes a
//! [`RecordKind::SessionSnapshot`](crate::segment::RecordKind) record
//! in an ordinary segment store, with the same CRC framing, rotation,
//! sealing and retention as observation frames.
//!
//! Two truths are kept in two places, deliberately:
//!
//! * **Disk is the durable history.** Segments are append-only, so a
//!   client hibernated twice has two records; the *later* one is the
//!   live snapshot (record order is authoritative, exactly like the
//!   decision log).
//! * **Memory is the resident map.** `page_in` must be fast (a client
//!   is waiting on its frame) and must *consume* the snapshot per the
//!   trait contract, which an append-only log cannot express. So the
//!   pager keeps a `client → latest bytes` map: `page_out` inserts,
//!   `page_in` removes. The disk record is not erased — it simply
//!   stops being the latest once the session hibernates again, and
//!   retention GC reaps old segments wholesale.
//!
//! After a crash the map is gone; [`StorePager::recover`] rebuilds it
//! from the store via the recovering read discipline (sealed-intact
//! segments wholly, the `.open` tail's verified prefix), so every
//! hibernated client whose snapshot reached disk faults back in. A
//! snapshot still buffered in the OS when the machine died is lost —
//! that client restarts cold, which the serving layer already treats
//! as a new session. Same trade the flight recorder makes.

use std::collections::BTreeMap;

use mobisense_session::{codec, PageError, SnapshotPager};

use crate::writer::{StoreConfig, TraceWriter, WriteSummary};
use crate::{StoreError, TraceReader};

/// Disk-backed [`SnapshotPager`] over a segment store.
///
/// One pager per shard worker (the trait is `&mut self`; sharing a
/// store directory between shards would interleave their rotation).
/// Dropping the pager without [`finish`](StorePager::finish) leaves an
/// unsealed `.open` tail — exactly the crash shape
/// [`recover`](StorePager::recover) salvages.
pub struct StorePager {
    writer: TraceWriter,
    latest: BTreeMap<u32, Vec<u8>>,
    written: u64,
}

impl StorePager {
    /// Opens a pager over `cfg.dir`, creating the directory if needed.
    /// Starts with an empty resident map: any snapshots already on
    /// disk are ignored (use [`recover`](StorePager::recover) to adopt
    /// them).
    pub fn create(cfg: StoreConfig) -> Result<StorePager, StoreError> {
        Ok(StorePager {
            writer: TraceWriter::create(cfg)?,
            latest: BTreeMap::new(),
            written: 0,
        })
    }

    /// Reopens a pager over an existing store, rebuilding the resident
    /// map from disk: sealed-intact segments contribute wholly, a
    /// crash-truncated `.open` tail contributes its verified prefix,
    /// and for each client only the newest snapshot survives. New
    /// page-outs append after the existing segments.
    pub fn recover(cfg: StoreConfig) -> Result<StorePager, StoreError> {
        let mut latest = BTreeMap::new();
        if cfg.dir.is_dir() {
            let recovery = TraceReader::open(&cfg.dir)?.recover()?;
            for (client, bytes) in recovery.session_snapshots {
                // Record order: a later snapshot replaces an earlier.
                latest.insert(client, bytes);
            }
        }
        Ok(StorePager {
            writer: TraceWriter::create(cfg)?,
            latest,
            written: 0,
        })
    }

    /// Clients currently paged out (resident in the map, durable on
    /// disk).
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// Whether no client is currently paged out.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }

    /// Snapshot records appended by this pager instance (lifetime
    /// counter; re-hibernations of the same client each count).
    pub fn snapshots_written(&self) -> u64 {
        self.written
    }

    /// Encoded bytes of the snapshot currently held for `client`, if
    /// any.
    pub fn stored_bytes(&self, client: u32) -> Option<usize> {
        self.latest.get(&client).map(Vec::len)
    }

    /// Seals the current segment and returns what this pager's writer
    /// produced. Call at orderly shutdown; snapshots still resident in
    /// the map stay recoverable because their bytes are in the sealed
    /// segments.
    pub fn finish(self) -> Result<WriteSummary, StoreError> {
        Ok(self.writer.finish()?)
    }

    /// The store configuration backing this pager.
    pub fn config(&self) -> &StoreConfig {
        self.writer.config()
    }
}

impl SnapshotPager for StorePager {
    fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError> {
        // The writer re-validates the payload; translate its refusal
        // into the pager vocabulary so the manager's caller sees one
        // error type.
        self.writer
            .append_session_snapshot(bytes)
            .map_err(|e| match e {
                StoreError::BadSnapshot { error, .. } => PageError::Codec(error),
                other => PageError::Io(other.to_string()),
            })?;
        // Defense in depth for the resident map: the append above
        // proved the bytes decode, but make the client-id pairing
        // explicit — filing a snapshot under the wrong client would
        // resurrect the wrong user's state.
        let snap_client = codec::peek_client_id(bytes).map_err(PageError::Codec)?;
        if snap_client != client {
            return Err(PageError::Io(format!(
                "snapshot for client {snap_client} paged out under client {client}"
            )));
        }
        // Visibility flush so live tails (and post-crash recovery of
        // everything the OS accepted) see the record promptly.
        self.writer
            .flush()
            .map_err(|e| PageError::Io(e.to_string()))?;
        self.latest.insert(client, bytes.to_vec());
        self.written += 1;
        Ok(())
    }

    fn page_in(&mut self, client: u32) -> Result<Option<Vec<u8>>, PageError> {
        Ok(self.latest.remove(&client))
    }
}

impl std::fmt::Debug for StorePager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorePager")
            .field("dir", &self.writer.config().dir)
            .field("resident", &self.latest.len())
            .field("written", &self.written)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir;
    use mobisense_core::classifier::Classification;
    use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
    use mobisense_session::{HibernationConfig, HibernationManager, MemoryPager, RetirePolicy};

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

    #[test]
    fn page_out_page_in_round_trips_and_consumes() {
        let dir = testdir::fresh("pager-roundtrip");
        let mut pager = StorePager::create(StoreConfig::new(&dir)).expect("create");
        let bytes = snapshot_for(7, 3);
        pager.page_out(7, &bytes).expect("page out");
        assert_eq!(pager.len(), 1);
        assert_eq!(pager.stored_bytes(7), Some(bytes.len()));
        assert_eq!(pager.page_in(7).expect("page in"), Some(bytes));
        // Consumed: a second fault-in finds nothing.
        assert_eq!(pager.page_in(7).expect("page in"), None);
        assert!(pager.is_empty());
        assert_eq!(pager.snapshots_written(), 1);
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
        assert!(matches!(pager.page_out(8, &bytes), Err(PageError::Io(_))));
        assert!(pager.is_empty(), "rejected pages must not become resident");
    }

    #[test]
    fn recover_rebuilds_latest_per_client_from_sealed_store() {
        let dir = testdir::fresh("pager-recover-sealed");
        let old = snapshot_for(1, 2);
        let newer = snapshot_for(1, 5);
        let other = snapshot_for(2, 4);
        {
            let mut pager = StorePager::create(StoreConfig::new(&dir)).expect("create");
            pager.page_out(1, &old).expect("out");
            pager.page_out(2, &other).expect("out");
            // Client 1 faulted in and hibernated again: newer snapshot.
            assert!(pager.page_in(1).expect("in").is_some());
            pager.page_out(1, &newer).expect("out");
            pager.finish().expect("finish");
        }
        let mut pager = StorePager::recover(StoreConfig::new(&dir)).expect("recover");
        assert_eq!(pager.len(), 2);
        assert_eq!(pager.page_in(1).expect("in"), Some(newer));
        assert_eq!(pager.page_in(2).expect("in"), Some(other));
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
        let mut pager = StorePager::recover(StoreConfig::new(&dir)).expect("recover");
        assert_eq!(pager.page_in(9).expect("in"), Some(bytes));
    }

    #[test]
    fn recover_from_a_missing_directory_is_empty() {
        let dir = testdir::fresh("pager-recover-empty").join("never-written");
        let pager = StorePager::recover(StoreConfig::new(&dir)).expect("recover");
        assert!(pager.is_empty());
    }

    #[test]
    fn store_pager_agrees_with_memory_pager_under_the_manager() {
        // The trait contract, exercised through the real manager: the
        // disk-backed pager must be observationally identical to the
        // in-memory reference.
        let dir = testdir::fresh("pager-vs-memory");
        let cfg = HibernationConfig {
            idle_after: Some(10),
            max_hot: None,
            policy: RetirePolicy::Hibernate,
        };
        let mut mem_mgr = HibernationManager::new(cfg.clone());
        let mut disk_mgr = HibernationManager::new(cfg);
        let mut mem = MemoryPager::new();
        let mut disk = StorePager::create(StoreConfig::new(&dir)).expect("create");

        for client in [3u32, 4, 5] {
            mem_mgr.touch(client, 0);
            disk_mgr.touch(client, 0);
        }
        assert_eq!(mem_mgr.victims(100), disk_mgr.victims(100));
        for client in mem_mgr.victims(100) {
            let mut live = session(u64::from(client));
            mem_mgr
                .hibernate(client, None, &mut live, &mut mem)
                .expect("mem hibernate");
            disk_mgr
                .hibernate(client, None, &mut live, &mut disk)
                .expect("disk hibernate");
        }
        assert_eq!(mem_mgr.hibernated_count(), disk_mgr.hibernated_count());
        let (mut a, mut b) = (session(0), session(1));
        for client in [3u32, 4, 5] {
            let (mut last_a, mut last_b) = (None, None);
            let fa = mem_mgr
                .fault_in(client, &mut mem, &mut a, &mut last_a)
                .expect("mem fault");
            let fb = disk_mgr
                .fault_in(client, &mut disk, &mut b, &mut last_b)
                .expect("disk fault");
            let restored_a = page_of(client, last_a, &mut a);
            let restored_b = page_of(client, last_b, &mut b);
            assert_eq!(
                (fa, restored_a),
                (fb, restored_b),
                "client {client} restored differently"
            );
        }
    }
}
