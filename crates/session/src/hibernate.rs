//! Idle-session paging: who leaves the hot set, when, and where the
//! snapshot goes.
//!
//! The [`HibernationManager`] tracks last-activity per client and
//! answers one question for the serving layer's worker loop each tick:
//! *which sessions should stop being resident right now?* Victims are
//! chosen deterministically — idle past a configured threshold, or the
//! least-recently-active overflow beyond a hot-set capacity — so two
//! replicas replaying the same frame stream retire the same clients at
//! the same instants (a prerequisite for the golden-replay tests).
//!
//! The manager does not own session state; the worker does. The flow,
//! with the buffer each step writes into, is:
//!
//! ```text
//!   worker tick ──► victims_into(now, &mut victims)              worker's Vec<u32>
//!     for each ──► manager.hibernate(id, last, &mut session, pager)
//!                    ├─► codec::encode_into(buf, .., session)    manager's encode buffer
//!                    └─► pager.page_out(id, &buf)                pager's exact-size page
//!   frame for hibernated client
//!          ──► manager.fault_in(id, pager, &mut spare.session, &mut last)
//!                    └─► codec::decode_into(&page, session)      last victim's session
//! ```
//!
//! One hibernate → fault-in cycle therefore copies no session state:
//! the page is encoded straight from the victim's live session and
//! decoded straight into the session the last victim left behind. It
//! allocates only the pager's page; the encode buffer, the spare
//! session and the victim list are reused.
//!
//! Storage is abstracted behind [`SnapshotPager`]: [`MemoryPager`] here
//! for tests and memory-only deployments, and the trace store's
//! disk-backed pager in `mobisense-store`.

use std::collections::{BTreeMap, BTreeSet};

use mobisense_core::classifier::Classification;
use mobisense_core::pipeline::PipelineSession;
use mobisense_util::units::Nanos;

use crate::codec::{self, SnapshotError};

/// Where paged-out snapshots live.
///
/// Contract: [`page_in`](SnapshotPager::page_in) returns the bytes most
/// recently paged out for the client and *consumes* them — a second
/// `page_in` for the same client yields `Ok(None)` until another
/// `page_out`. Implementations must hand back byte-identical buffers;
/// the codec's CRC turns any storage corruption into a typed error at
/// restore time rather than a divergent session.
pub trait SnapshotPager {
    /// Stores the encoded snapshot for `client`, replacing any previous
    /// one.
    fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError>;

    /// Retrieves and consumes the stored snapshot for `client`, or
    /// `Ok(None)` when nothing is paged out for it.
    fn page_in(&mut self, client: u32) -> Result<Option<Vec<u8>>, PageError>;
}

/// Why paging a session out or in failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageError {
    /// The backing store failed (disk error, segment roll failure, ...).
    Io(String),
    /// The snapshot bytes would not encode, or came back corrupt.
    Codec(SnapshotError),
    /// The manager believed this client was hibernated but the pager
    /// holds no snapshot for it — a bookkeeping split-brain that must
    /// surface, never silently produce a fresh session.
    Missing(u32),
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(msg) => write!(f, "pager I/O failure: {msg}"),
            PageError::Codec(e) => write!(f, "snapshot codec failure: {e}"),
            PageError::Missing(client) => {
                write!(f, "no paged snapshot for hibernated client {client}")
            }
        }
    }
}

impl std::error::Error for PageError {}

impl From<SnapshotError> for PageError {
    fn from(e: SnapshotError) -> Self {
        PageError::Codec(e)
    }
}

/// In-memory snapshot storage: the reference [`SnapshotPager`] used by
/// tests and memory-only deployments. Every page is copied into a `Vec`
/// of exactly its length, so tens of thousands of hibernated sessions
/// carry no slack capacity.
#[derive(Debug, Default)]
pub struct MemoryPager {
    pages: BTreeMap<u32, Vec<u8>>,
}

impl MemoryPager {
    /// Creates an empty pager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots currently paged out.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no snapshots are paged out.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total bytes held (the hibernated side of the resident-bytes
    /// ledger in the hibernation bench).
    pub fn stored_bytes(&self) -> usize {
        self.pages.values().map(Vec::len).sum()
    }
}

impl SnapshotPager for MemoryPager {
    fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError> {
        self.pages.insert(client, bytes.to_vec());
        Ok(())
    }

    fn page_in(&mut self, client: u32) -> Result<Option<Vec<u8>>, PageError> {
        Ok(self.pages.remove(&client))
    }
}

/// What happens to a session selected for retirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetirePolicy {
    /// Snapshot the session into the pager; fault it back in on the
    /// client's next frame. Decision streams are unaffected.
    Hibernate,
    /// Drop the session outright (no snapshot). The client's next frame
    /// starts a fresh session — cheaper, but the classifier re-warms.
    Evict,
}

/// When sessions leave the hot set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HibernationConfig {
    /// Retire a session once this much time passed since its last
    /// frame. `None` disables idle-based retirement.
    pub idle_after: Option<Nanos>,
    /// Retire least-recently-active sessions whenever the hot set
    /// exceeds this size. `None` disables capacity-based retirement.
    pub max_hot: Option<usize>,
    /// Whether retired sessions are snapshotted or dropped.
    pub policy: RetirePolicy,
}

impl Default for HibernationConfig {
    /// Everything off: sessions stay hot forever.
    fn default() -> Self {
        HibernationConfig {
            idle_after: None,
            max_hot: None,
            policy: RetirePolicy::Hibernate,
        }
    }
}

impl HibernationConfig {
    /// Whether any retirement trigger is configured.
    pub fn enabled(&self) -> bool {
        self.idle_after.is_some() || self.max_hot.is_some()
    }
}

/// Counters the serving layer surfaces through its ops snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HibernationStats {
    /// Sessions paged out (total, monotone).
    pub hibernated: u64,
    /// Sessions faulted back in (total, monotone).
    pub restored: u64,
    /// Sessions dropped without a snapshot (total, monotone).
    pub evicted: u64,
}

/// Deterministic retirement bookkeeping for one shard worker's clients.
///
/// Tracks last-activity per hot client and the set of currently
/// hibernated clients. All internal collections are ordered
/// (`BTreeMap`/`BTreeSet`), so victim selection depends only on the
/// observed `(timestamp, client)` stream — never on hash seeds or
/// insertion order.
#[derive(Debug)]
pub struct HibernationManager {
    cfg: HibernationConfig,
    /// client -> last frame timestamp, for O(log n) touch updates.
    last_touch: BTreeMap<u32, Nanos>,
    /// (last frame timestamp, client), oldest first: the LRU order.
    lru: BTreeSet<(Nanos, u32)>,
    /// Clients whose snapshot currently lives in the pager.
    hibernated: BTreeSet<u32>,
    stats: HibernationStats,
    /// Reused encode buffer: every page-out encodes here and the pager
    /// copies the bytes out.
    page: Vec<u8>,
}

impl HibernationManager {
    /// Creates a manager with no tracked clients.
    pub fn new(cfg: HibernationConfig) -> Self {
        HibernationManager {
            cfg,
            last_touch: BTreeMap::new(),
            lru: BTreeSet::new(),
            hibernated: BTreeSet::new(),
            stats: HibernationStats::default(),
            page: Vec::new(),
        }
    }

    /// The manager's configuration.
    pub fn config(&self) -> &HibernationConfig {
        &self.cfg
    }

    /// Records activity for a hot client at `now`. Call once per
    /// processed frame, after any needed [`fault_in`](Self::fault_in).
    /// A no-op when no retirement trigger is configured: nothing would
    /// ever read the recency order.
    pub fn touch(&mut self, client: u32, now: Nanos) {
        if !self.cfg.enabled() {
            return;
        }
        if let Some(prev) = self.last_touch.insert(client, now) {
            self.lru.remove(&(prev, client));
        }
        self.lru.insert((now, client));
    }

    /// Whether the client's session is currently paged out.
    pub fn is_hibernated(&self, client: u32) -> bool {
        self.hibernated.contains(&client)
    }

    /// Number of clients currently tracked as hot (always 0 when
    /// retirement is disabled, since nothing is tracked then).
    pub fn hot_count(&self) -> usize {
        self.last_touch.len()
    }

    /// Number of clients currently hibernated.
    pub fn hibernated_count(&self) -> usize {
        self.hibernated.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> HibernationStats {
        self.stats
    }

    /// The clients that should be retired at `now`, least recently
    /// active first: every client idle past `idle_after`, plus — when
    /// the hot set still exceeds `max_hot` — the oldest survivors down
    /// to capacity. Read-only; the worker retires each victim with
    /// [`hibernate`](Self::hibernate) or [`evict`](Self::evict).
    pub fn victims(&self, now: Nanos) -> Vec<u32> {
        let mut out = Vec::new();
        self.victims_into(now, &mut out);
        out
    }

    /// [`victims`](Self::victims) into a reused buffer, replacing its
    /// contents — the worker asks after every frame, so the usual empty
    /// answer costs one ordered-set probe and no allocation.
    pub fn victims_into(&self, now: Nanos, out: &mut Vec<u32>) {
        out.clear();
        let mut remaining = self.last_touch.len();
        for &(at, client) in &self.lru {
            let idle = self
                .cfg
                .idle_after
                .is_some_and(|d| now.saturating_sub(at) >= d);
            let overflow = self.cfg.max_hot.is_some_and(|cap| remaining > cap);
            if !(idle || overflow) {
                // The LRU set is ordered by touch time: every later
                // entry is more recent, so no further victim exists.
                break;
            }
            out.push(client);
            remaining -= 1;
        }
    }

    /// Pages the client's live session and `last_emitted` register out
    /// and moves the client from the hot set to the hibernated set.
    /// Returns the encoded size. The page is encoded straight from
    /// `session` into the manager's own reused buffer, which the pager
    /// copies from; the session is left as it was, for the worker to
    /// recycle. On error nothing changes: the client stays hot and the
    /// worker keeps its session.
    pub fn hibernate(
        &mut self,
        client: u32,
        last_emitted: Option<Classification>,
        session: &mut PipelineSession,
        pager: &mut dyn SnapshotPager,
    ) -> Result<usize, PageError> {
        codec::encode_into(&mut self.page, client, last_emitted, session)?;
        pager.page_out(client, &self.page)?;
        self.drop_hot(client);
        self.hibernated.insert(client);
        self.stats.hibernated += 1;
        Ok(self.page.len())
    }

    /// Drops a client from the hot set without a snapshot (the
    /// [`RetirePolicy::Evict`] arm). Counts nothing for a client that
    /// is not tracked as hot — which, with no retirement trigger
    /// configured, is every client.
    pub fn evict(&mut self, client: u32) {
        if self.drop_hot(client) {
            self.stats.evicted += 1;
        }
    }

    /// Brings a hibernated client back: pages it in and decodes the
    /// page straight into `session` (any session of the serving
    /// configuration, whatever client it served before) and
    /// `last_emitted`. Returns `Ok(false)`, leaving both untouched, when
    /// the client is not hibernated (the common case — a hot client's
    /// frame). On error the client stays hibernated and `session` must
    /// not be used.
    ///
    /// The caller must [`touch`](Self::touch) the client afterwards to
    /// re-enter it into the hot set.
    pub fn fault_in(
        &mut self,
        client: u32,
        pager: &mut dyn SnapshotPager,
        session: &mut PipelineSession,
        last_emitted: &mut Option<Classification>,
    ) -> Result<bool, PageError> {
        if !self.hibernated.contains(&client) {
            return Ok(false);
        }
        let page = pager.page_in(client)?.ok_or(PageError::Missing(client))?;
        (_, *last_emitted) = codec::decode_into(&page, session)?;
        self.hibernated.remove(&client);
        self.stats.restored += 1;
        Ok(true)
    }

    /// Forgets a client entirely (disconnect): removed from the hot and
    /// hibernated sets. Any paged snapshot is left for the pager's own
    /// retention to reap.
    pub fn forget(&mut self, client: u32) {
        self.drop_hot(client);
        self.hibernated.remove(&client);
    }

    fn drop_hot(&mut self, client: u32) -> bool {
        match self.last_touch.remove(&client) {
            Some(at) => {
                self.lru.remove(&(at, client));
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{busy_session, page};
    use mobisense_core::pipeline::PipelineConfig;
    use mobisense_util::units::SECOND;

    fn session_for(client: u32) -> PipelineSession {
        PipelineSession::new(PipelineConfig::default(), client as u64)
    }

    /// Pages a fresh session out for `client`.
    fn hibernate_fresh(mgr: &mut HibernationManager, client: u32, pager: &mut MemoryPager) {
        mgr.hibernate(client, None, &mut session_for(client), pager)
            .expect("pages out");
    }

    fn idle_cfg(idle_after: Nanos) -> HibernationConfig {
        HibernationConfig {
            idle_after: Some(idle_after),
            ..HibernationConfig::default()
        }
    }

    #[test]
    fn default_config_is_disabled_and_never_selects_victims() {
        let cfg = HibernationConfig::default();
        assert!(!cfg.enabled());
        let mut mgr = HibernationManager::new(cfg);
        for c in 0..10 {
            mgr.touch(c, 0);
        }
        assert!(mgr.victims(u64::MAX).is_empty());
    }

    #[test]
    fn disabled_manager_tracks_nothing_and_selects_no_victims() {
        let mut mgr = HibernationManager::new(HibernationConfig::default());
        for c in 0..10 {
            mgr.touch(c, c as Nanos);
        }
        assert_eq!(mgr.hot_count(), 0, "touch is a no-op without a trigger");
        assert!(mgr.last_touch.is_empty() && mgr.lru.is_empty());
        let mut victims = vec![99];
        mgr.victims_into(u64::MAX, &mut victims);
        assert!(victims.is_empty());
    }

    #[test]
    fn victims_into_replaces_a_dirty_buffer() {
        let mut mgr = HibernationManager::new(idle_cfg(5 * SECOND));
        mgr.touch(3, SECOND);
        mgr.touch(1, 2 * SECOND);
        let mut victims = vec![7, 8, 9];
        mgr.victims_into(7 * SECOND, &mut victims);
        assert_eq!(victims, mgr.victims(7 * SECOND));
        assert_eq!(victims, vec![3, 1]);
    }

    #[test]
    fn memory_pager_stores_pages_at_exact_length() {
        // The manager encodes into a reused buffer with slack capacity;
        // the pager must not keep that slack per hibernated session.
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        let (mut busy, last) = busy_session();
        mgr.touch(99, 0);
        mgr.hibernate(99, last, &mut busy, &mut pager)
            .expect("pages out");
        for c in 0..4 {
            mgr.touch(c, 0);
            hibernate_fresh(&mut mgr, c, &mut pager);
        }
        assert!(mgr.page.capacity() > page(0, None, &mut session_for(0)).len());
        assert_eq!(pager.len(), 5);
        for page in pager.pages.values() {
            assert_eq!(page.capacity(), page.len());
        }
    }

    #[test]
    fn idle_clients_become_victims_oldest_first() {
        let mut mgr = HibernationManager::new(idle_cfg(5 * SECOND));
        mgr.touch(3, SECOND);
        mgr.touch(1, 2 * SECOND);
        mgr.touch(2, 4 * SECOND);
        // At t=7s: client 3 idle 6s, client 1 idle 5s, client 2 idle 3s.
        assert_eq!(mgr.victims(7 * SECOND), vec![3, 1]);
        // Touching client 3 rescues it.
        mgr.touch(3, 7 * SECOND);
        assert_eq!(mgr.victims(7 * SECOND), vec![1]);
    }

    #[test]
    fn hot_set_overflow_retires_lru_down_to_capacity() {
        let cfg = HibernationConfig {
            max_hot: Some(2),
            ..HibernationConfig::default()
        };
        let mut mgr = HibernationManager::new(cfg);
        for (i, c) in [9u32, 4, 7, 2].iter().enumerate() {
            mgr.touch(*c, i as Nanos);
        }
        // Four hot, capacity two: the two least recently active go.
        assert_eq!(mgr.victims(100), vec![9, 4]);
    }

    #[test]
    fn idle_and_overflow_triggers_compose() {
        let cfg = HibernationConfig {
            idle_after: Some(10),
            max_hot: Some(2),
            policy: RetirePolicy::Hibernate,
        };
        let mut mgr = HibernationManager::new(cfg);
        mgr.touch(1, 0); // idle at t=20
        mgr.touch(2, 15); // not idle, but over capacity
        mgr.touch(3, 16);
        mgr.touch(4, 17);
        // Victims: 1 (idle), then 2 (oldest overflow). 3 and 4 fit.
        assert_eq!(mgr.victims(20), vec![1, 2]);
    }

    #[test]
    fn hibernate_then_fault_in_round_trips_and_counts() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        let (mut busy, last) = busy_session();
        let want = page(42, last, &mut busy);
        mgr.touch(42, 0);
        let n = mgr
            .hibernate(42, last, &mut busy, &mut pager)
            .expect("pages out");
        assert_eq!(n, want.len());
        assert_eq!(
            page(42, last, &mut busy),
            want,
            "paging out leaves the session"
        );
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 1);
        assert!(mgr.is_hibernated(42));
        assert_eq!(pager.len(), 1);
        assert_eq!(pager.stored_bytes(), n);

        let (mut back, mut back_last) = (session_for(7), None);
        let faulted = mgr
            .fault_in(42, &mut pager, &mut back, &mut back_last)
            .expect("pages in");
        assert!(faulted);
        assert_eq!(back_last, last);
        assert_eq!(page(42, back_last, &mut back), want);
        assert_eq!(mgr.hibernated_count(), 0);
        assert!(pager.is_empty());
        assert_eq!(
            mgr.stats(),
            HibernationStats {
                hibernated: 1,
                restored: 1,
                evicted: 0
            }
        );
    }

    #[test]
    fn fault_in_of_hot_client_is_none() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(7, 0);
        let (mut busy, last) = busy_session();
        let before = page(3, last, &mut busy);
        let mut into_last = last;
        assert_eq!(
            mgr.fault_in(7, &mut pager, &mut busy, &mut into_last),
            Ok(false)
        );
        assert_eq!(
            page(3, into_last, &mut busy),
            before,
            "a hot client's fault-in leaves the target alone"
        );
        assert_eq!(mgr.stats().restored, 0);
    }

    #[test]
    fn missing_page_is_a_typed_error_and_client_stays_hibernated() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(5, 0);
        hibernate_fresh(&mut mgr, 5, &mut pager);
        // Simulate a lost page.
        pager.page_in(5).expect("drains");
        assert_eq!(
            mgr.fault_in(5, &mut pager, &mut session_for(0), &mut None),
            Err(PageError::Missing(5))
        );
        // The split-brain is visible, not papered over.
        assert!(mgr.is_hibernated(5));
    }

    #[test]
    fn corrupt_page_is_a_codec_error() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(6, 0);
        hibernate_fresh(&mut mgr, 6, &mut pager);
        // Flip a body bit behind the manager's back.
        let mut bytes = pager.page_in(6).expect("drains").expect("present");
        bytes[20] ^= 0x10;
        pager.page_out(6, &bytes).expect("re-pages");
        assert!(matches!(
            mgr.fault_in(6, &mut pager, &mut session_for(0), &mut None),
            Err(PageError::Codec(SnapshotError::BadCrc { .. }))
        ));
    }

    #[test]
    fn evict_drops_without_snapshot() {
        let mut mgr = HibernationManager::new(HibernationConfig {
            idle_after: Some(SECOND),
            max_hot: None,
            policy: RetirePolicy::Evict,
        });
        mgr.touch(9, 0);
        mgr.evict(9);
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 0);
        assert_eq!(mgr.stats().evicted, 1);
        // Evicting an unknown client is a no-op, not a counted event.
        mgr.evict(1234);
        assert_eq!(mgr.stats().evicted, 1);
    }

    #[test]
    fn forget_clears_both_sets() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = MemoryPager::new();
        mgr.touch(1, 0);
        mgr.touch(2, 0);
        hibernate_fresh(&mut mgr, 2, &mut pager);
        mgr.forget(1);
        mgr.forget(2);
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 0);
        // The page itself is left to the store's retention.
        assert_eq!(pager.len(), 1);
    }

    #[test]
    fn touch_keeps_lru_and_map_in_lockstep() {
        let mut mgr = HibernationManager::new(idle_cfg(10));
        for round in 0..5u64 {
            for c in 0..4u32 {
                mgr.touch(c, round * 3 + c as u64);
            }
        }
        assert_eq!(mgr.hot_count(), 4);
        assert_eq!(mgr.lru.len(), 4);
        // All four idle far in the future, ordered by last touch.
        assert_eq!(mgr.victims(1_000), vec![0, 1, 2, 3]);
    }

    #[test]
    fn page_error_messages_are_informative() {
        assert!(PageError::Io("disk full".into())
            .to_string()
            .contains("disk full"));
        assert!(PageError::Missing(8).to_string().contains('8'));
        let codec = PageError::from(SnapshotError::BadMagic(3));
        assert!(codec.to_string().contains("magic"));
    }
}
