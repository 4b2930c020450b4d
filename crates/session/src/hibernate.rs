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
//! **Slots.** The manager gives each client a dense slot the first time
//! it sees it ([`slot`](HibernationManager::slot)): one client → slot
//! `BTreeMap` lookup per frame, the only ordered-tree operation on the
//! worker's path. Everything else is indexed by slot: the last-touch
//! time, an intrusive recency list over the hot slots, and a hibernated
//! client's page, whose presence is the hibernated flag. The worker
//! keeps its sessions by slot too. The list keeps the order an ordered
//! set of `(timestamp, client)` pairs would: a touch appends at the
//! newest end and walks towards the oldest only while the entry before
//! it sorts after it. A time-major stream that touches ascending ids at
//! each instant never walks.
//!
//! The manager does not own session state; the worker does. The flow,
//! with the buffer each step writes into, is:
//!
//! ```text
//!   frame ──► slot(client)                                       the client's slot
//!   worker tick ──► victims_into(now, &mut victims)              worker's Vec<(slot, client)>
//!     for each ──► manager.hibernate(slot, last, &mut session, pager)
//!                    ├─► codec::encode_into(buf, .., session)    manager's encode buffer
//!                    ├─► pager.page_out(client, &buf)            durable copy, if any
//!                    └─► the slot's page                         exact-size copy of buf
//!   frame for hibernated client
//!          ──► manager.fault_in(slot, &mut spare.session, &mut last)
//!                    └─► codec::decode_into(&page, session)      last victim's session
//! ```
//!
//! One hibernate → fault-in cycle therefore copies no session state:
//! the page is encoded straight from the victim's live session and
//! decoded straight into the session the last victim left behind. It
//! allocates only the page, at exactly its length, so tens of thousands
//! of hibernated sessions carry no slack capacity; the encode buffer,
//! the spare session and the victim list are reused.
//!
//! A [`SnapshotPager`] only writes the durable copy: the trace store's
//! disk-backed pager in `mobisense-store` appends each page-out to a
//! segment store, and a memory-only deployment passes none.

use std::collections::btree_map::{BTreeMap, Entry};

use mobisense_core::classifier::Classification;
use mobisense_core::pipeline::PipelineSession;
use mobisense_util::units::Nanos;

use crate::codec::{self, SnapshotError};

/// Where the durable copy of a paged-out session goes.
///
/// Contract: the manager keeps every page in its client's slot and
/// faults it back in from there; a pager only writes the copy that
/// outlives the process, and is never read by the manager. A refused
/// write leaves the session hot.
pub trait SnapshotPager {
    /// Stores the encoded snapshot for `client` durably.
    fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError>;
}

/// Why paging a session out or in failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageError {
    /// The backing store failed (disk error, segment roll failure, ...).
    Io(String),
    /// The snapshot bytes would not encode, or came back corrupt.
    Codec(SnapshotError),
    /// A page carries a client id other than the one it was paged out
    /// or in for: filed under that client, it would resume another
    /// client's session.
    Misfiled {
        /// The client the page was paged out or in for.
        client: u32,
        /// The client id the page itself carries.
        page_client: u32,
    },
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(msg) => write!(f, "pager I/O failure: {msg}"),
            PageError::Codec(e) => write!(f, "snapshot codec failure: {e}"),
            PageError::Misfiled {
                client,
                page_client,
            } => write!(
                f,
                "snapshot of client {page_client} filed under client {client}"
            ),
        }
    }
}

impl std::error::Error for PageError {}

impl From<SnapshotError> for PageError {
    fn from(e: SnapshotError) -> Self {
        PageError::Codec(e)
    }
}

/// What happens to a session selected for retirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetirePolicy {
    /// Snapshot the session into its slot (and the pager, if any);
    /// fault it back in on the client's next frame. Decision streams
    /// are unaffected.
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

/// The end of the recency list: no slot has this index.
const NIL: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Steps a touch walked towards the oldest entry to find its place,
    /// on this thread (test builds only).
    pub(crate) static WALK_BACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One client's residency record, at its slot.
#[derive(Debug)]
struct ClientSlot {
    client: u32,
    /// Last frame timestamp; meaningful while `listed`.
    at: Nanos,
    /// The next older and next newer slot in the recency list, [`NIL`]
    /// at its ends.
    older: u32,
    newer: u32,
    /// Whether the slot is in the recency list, i.e. tracked as hot.
    listed: bool,
    /// The paged-out session at exactly its encoded length, present
    /// exactly while the client is hibernated.
    page: Option<Box<[u8]>>,
}

/// Deterministic retirement bookkeeping for one shard worker's clients.
///
/// Each client has a dense slot, handed out on first sight in frame
/// order. The one ordered collection is the client → slot map (a
/// `BTreeMap`: the determinism lint bans hash maps); per slot the
/// manager keeps the last touch, the links of the recency list and the
/// hibernated page. The list holds the hot slots in `(timestamp,
/// client)` order, so victim selection depends only on the observed
/// `(timestamp, client)` stream — never on hash seeds or touch order.
#[derive(Debug)]
pub struct HibernationManager {
    cfg: HibernationConfig,
    /// client -> slot.
    slots: BTreeMap<u32, u32>,
    /// Per-slot records, indexed by slot.
    clients: Vec<ClientSlot>,
    /// Least and most recently touched hot slots, [`NIL`] when none is.
    oldest: u32,
    newest: u32,
    /// Slots in the recency list.
    hot: usize,
    /// Slots holding a page.
    hibernated: usize,
    stats: HibernationStats,
    /// Reused encode buffer: every page-out encodes here, and the slot
    /// and the pager copy the bytes out.
    page: Vec<u8>,
}

impl HibernationManager {
    /// Creates a manager with no tracked clients.
    pub fn new(cfg: HibernationConfig) -> Self {
        HibernationManager {
            cfg,
            slots: BTreeMap::new(),
            clients: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hot: 0,
            hibernated: 0,
            stats: HibernationStats::default(),
            page: Vec::new(),
        }
    }

    /// The client's slot, handed out the first time the client is seen:
    /// slots are dense, numbered from 0 in order of first sight, and
    /// kept for the manager's lifetime. Every other method takes the
    /// slot; one handed out by another manager means nothing here.
    pub fn slot(&mut self, client: u32) -> u32 {
        let next = self.clients.len() as u32;
        match self.slots.entry(client) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                assert!(next < NIL, "a shard holds fewer than u32::MAX slots");
                self.clients.push(ClientSlot {
                    client,
                    at: 0,
                    older: NIL,
                    newer: NIL,
                    listed: false,
                    page: None,
                });
                *slot.insert(next)
            }
        }
    }

    /// Records activity for a hot client at `now`. Call once per
    /// processed frame, after any needed [`fault_in`](Self::fault_in).
    /// A no-op when no retirement trigger is configured: nothing would
    /// ever read the recency order.
    pub fn touch(&mut self, slot: u32, now: Nanos) {
        if !self.cfg.enabled() {
            return;
        }
        if let Some(client) = self.clients.get(slot as usize).map(|c| c.client) {
            self.unlink(slot);
            self.link(slot, now, client);
        }
    }

    /// Whether the client's session is currently paged out.
    pub fn is_hibernated(&self, slot: u32) -> bool {
        self.clients
            .get(slot as usize)
            .is_some_and(|c| c.page.is_some())
    }

    /// Number of clients currently tracked as hot (always 0 when
    /// retirement is disabled, since nothing is tracked then).
    pub fn hot_count(&self) -> usize {
        self.hot
    }

    /// Number of clients currently hibernated.
    pub fn hibernated_count(&self) -> usize {
        self.hibernated
    }

    /// Lifetime counters.
    pub fn stats(&self) -> HibernationStats {
        self.stats
    }

    /// The `(slot, client)` of every client that should be retired at
    /// `now`, least recently active first, into a reused buffer
    /// (replacing its contents): every client idle past `idle_after`,
    /// plus — when the hot set still exceeds `max_hot` — the oldest
    /// survivors down to capacity. Read-only; the worker retires each
    /// victim with [`hibernate`](Self::hibernate) or
    /// [`evict`](Self::evict). The worker asks after every frame, so the
    /// usual empty answer reads one slot and allocates nothing.
    pub fn victims_into(&self, now: Nanos, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let mut remaining = self.hot;
        let mut slot = self.oldest;
        while let Some(c) = self.clients.get(slot as usize) {
            let idle = self
                .cfg
                .idle_after
                .is_some_and(|d| now.saturating_sub(c.at) >= d);
            let overflow = self.cfg.max_hot.is_some_and(|cap| remaining > cap);
            if !(idle || overflow) {
                // The list is ordered by touch time: every later entry
                // is more recent, so no further victim exists.
                break;
            }
            out.push((slot, c.client));
            remaining -= 1;
            slot = c.newer;
        }
    }

    /// Pages the client's live session and `last_emitted` register out
    /// into its slot (and through `pager`, when given, to its durable
    /// store) and moves the client from the hot set to the hibernated
    /// set. Returns the encoded size. The page is encoded straight from
    /// `session` into the manager's own reused buffer and copied into
    /// the slot at exactly its length; the session is left as it was,
    /// for the worker to recycle. On error nothing changes: the client
    /// stays hot and the worker keeps its session. A slot this manager
    /// never handed out pages nothing and returns 0.
    pub fn hibernate(
        &mut self,
        slot: u32,
        last_emitted: Option<Classification>,
        session: &mut PipelineSession,
        pager: Option<&mut dyn SnapshotPager>,
    ) -> Result<usize, PageError> {
        let Some(client) = self.clients.get(slot as usize).map(|c| c.client) else {
            return Ok(0);
        };
        codec::encode_into(&mut self.page, client, last_emitted, session)?;
        if let Some(pager) = pager {
            pager.page_out(client, &self.page)?;
        }
        self.unlink(slot);
        if let Some(c) = self.clients.get_mut(slot as usize) {
            if c.page.replace(self.page.as_slice().into()).is_none() {
                self.hibernated += 1;
            }
        }
        self.stats.hibernated += 1;
        Ok(self.page.len())
    }

    /// Drops a client from the hot set without a snapshot (the
    /// [`RetirePolicy::Evict`] arm). Counts nothing for a client that
    /// is not tracked as hot — which, with no retirement trigger
    /// configured, is every client.
    pub fn evict(&mut self, slot: u32) {
        if self.unlink(slot) {
            self.stats.evicted += 1;
        }
    }

    /// Brings a hibernated client back: decodes its slot's page
    /// straight into `session` (any session of the serving
    /// configuration, whatever client it served before) and
    /// `last_emitted`, and frees the page. Returns `Ok(false)`, leaving
    /// both untouched, when the client is not hibernated (the common
    /// case — a hot client's frame). On error the client stays
    /// hibernated and keeps its page. A page that carries another
    /// client's id ([`PageError::Misfiled`]) or fails its header, length
    /// or CRC check is refused before `session` is touched; after any
    /// other error `session` must not be used.
    ///
    /// The caller must [`touch`](Self::touch) the client afterwards to
    /// re-enter it into the hot set.
    pub fn fault_in(
        &mut self,
        slot: u32,
        session: &mut PipelineSession,
        last_emitted: &mut Option<Classification>,
    ) -> Result<bool, PageError> {
        let Some(c) = self.clients.get_mut(slot as usize) else {
            return Ok(false);
        };
        let Some(page) = c.page.as_deref() else {
            return Ok(false);
        };
        let page_client = codec::peek_client_id(page)?;
        if page_client != c.client {
            return Err(PageError::Misfiled {
                client: c.client,
                page_client,
            });
        }
        (_, *last_emitted) = codec::decode_into(page, session)?;
        c.page = None;
        self.hibernated -= 1;
        self.stats.restored += 1;
        Ok(true)
    }

    /// Forgets a client's residency (disconnect or migration): it
    /// leaves the hot set, and a hibernated client's page is handed
    /// back. The slot stays the client's. A durable copy in the pager
    /// is left for the store's own retention to reap.
    pub fn forget(&mut self, slot: u32) -> Option<Box<[u8]>> {
        self.unlink(slot);
        let page = self.clients.get_mut(slot as usize)?.page.take();
        if page.is_some() {
            self.hibernated -= 1;
        }
        page
    }

    /// Takes a listed slot out of the recency list; `false` when it was
    /// not in it.
    fn unlink(&mut self, slot: u32) -> bool {
        let Some(c) = self.clients.get_mut(slot as usize).filter(|c| c.listed) else {
            return false;
        };
        c.listed = false;
        let (older, newer) = (c.older, c.newer);
        match self.clients.get_mut(older as usize) {
            Some(o) => o.newer = newer,
            None => self.oldest = newer,
        }
        match self.clients.get_mut(newer as usize) {
            Some(n) => n.older = older,
            None => self.newest = older,
        }
        self.hot -= 1;
        true
    }

    /// Puts an unlisted slot touched at `at` into the recency list where
    /// `(at, client)` sorts: after the newest entry, unless that one
    /// sorts after it, and so on towards the oldest.
    fn link(&mut self, slot: u32, at: Nanos, client: u32) {
        let mut older = self.newest;
        while let Some(o) = self.clients.get(older as usize) {
            if (o.at, o.client) < (at, client) {
                break;
            }
            older = o.older;
            #[cfg(test)]
            WALK_BACKS.with(|n| n.set(n.get() + 1));
        }
        let newer = match self.clients.get_mut(older as usize) {
            Some(o) => std::mem::replace(&mut o.newer, slot),
            None => std::mem::replace(&mut self.oldest, slot),
        };
        match self.clients.get_mut(newer as usize) {
            Some(n) => n.older = slot,
            None => self.newest = slot,
        }
        if let Some(c) = self.clients.get_mut(slot as usize) {
            c.at = at;
            c.older = older;
            c.newer = newer;
            c.listed = true;
            self.hot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{busy_session, page};
    use mobisense_core::pipeline::PipelineConfig;
    use mobisense_util::units::{MILLISECOND, SECOND};
    use std::collections::BTreeSet;

    fn session_for(client: u32) -> PipelineSession {
        PipelineSession::new(PipelineConfig::default(), client as u64)
    }

    /// Touches `client` at `at` through its slot, as the worker does.
    fn touch(mgr: &mut HibernationManager, client: u32, at: Nanos) {
        let slot = mgr.slot(client);
        mgr.touch(slot, at);
    }

    /// The clients [`HibernationManager::victims_into`] names at `now`.
    fn victims(mgr: &HibernationManager, now: Nanos) -> Vec<u32> {
        let mut out = vec![(7, 7)];
        mgr.victims_into(now, &mut out);
        for &(slot, client) in &out {
            assert_eq!(
                mgr.clients.get(slot as usize).map(|c| c.client),
                Some(client)
            );
        }
        out.into_iter().map(|(_, client)| client).collect()
    }

    /// Pages a fresh session out for `client`.
    fn hibernate_fresh(mgr: &mut HibernationManager, client: u32) {
        let slot = mgr.slot(client);
        mgr.hibernate(slot, None, &mut session_for(client), None)
            .expect("pages out");
    }

    /// The page held in `client`'s slot.
    fn page_of(mgr: &mut HibernationManager, client: u32) -> &mut Option<Box<[u8]>> {
        let slot = mgr.slot(client);
        &mut mgr.clients[slot as usize].page
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
            touch(&mut mgr, c, 0);
        }
        assert!(victims(&mgr, u64::MAX).is_empty());
    }

    #[test]
    fn disabled_manager_tracks_nothing_and_selects_no_victims() {
        let mut mgr = HibernationManager::new(HibernationConfig::default());
        for c in 0..10 {
            touch(&mut mgr, c, c as Nanos);
        }
        assert_eq!(mgr.hot_count(), 0, "touch is a no-op without a trigger");
        assert_eq!((mgr.oldest, mgr.newest), (NIL, NIL));
        assert!(mgr.clients.iter().all(|c| !c.listed));
        assert!(victims(&mgr, u64::MAX).is_empty());
    }

    #[test]
    fn slots_are_dense_in_order_of_first_sight() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let slots: Vec<u32> = [40, 7, 40, 9, 7, 1].map(|c| mgr.slot(c)).to_vec();
        assert_eq!(slots, vec![0, 1, 0, 2, 1, 3]);
        hibernate_fresh(&mut mgr, 7);
        assert!(mgr.forget(1).is_some());
        assert_eq!(mgr.slot(7), 1, "a forgotten client keeps its slot");
    }

    #[test]
    fn victims_into_replaces_a_dirty_buffer() {
        let mut mgr = HibernationManager::new(idle_cfg(5 * SECOND));
        touch(&mut mgr, 3, SECOND);
        touch(&mut mgr, 1, 2 * SECOND);
        let mut out = vec![(7, 7), (8, 8), (9, 9)];
        mgr.victims_into(7 * SECOND, &mut out);
        assert_eq!(out, vec![(0, 3), (1, 1)]);
    }

    #[test]
    fn hibernated_pages_are_exact_size() {
        // The manager encodes into a reused buffer with slack capacity;
        // a slot must not keep that slack per hibernated session.
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let (mut busy, last) = busy_session();
        touch(&mut mgr, 99, 0);
        let slot = mgr.slot(99);
        mgr.hibernate(slot, last, &mut busy, None)
            .expect("pages out");
        for c in 0..4 {
            touch(&mut mgr, c, 0);
            hibernate_fresh(&mut mgr, c);
        }
        let fresh = page(0, None, &mut session_for(0));
        assert!(mgr.page.capacity() > fresh.len());
        assert_eq!(mgr.hibernated_count(), 5);
        for c in 0..4 {
            let want = page(c, None, &mut session_for(c));
            assert_eq!(page_of(&mut mgr, c).as_deref(), Some(&want[..]));
        }
    }

    #[test]
    fn idle_clients_become_victims_oldest_first() {
        let mut mgr = HibernationManager::new(idle_cfg(5 * SECOND));
        touch(&mut mgr, 3, SECOND);
        touch(&mut mgr, 1, 2 * SECOND);
        touch(&mut mgr, 2, 4 * SECOND);
        // At t=7s: client 3 idle 6s, client 1 idle 5s, client 2 idle 3s.
        assert_eq!(victims(&mgr, 7 * SECOND), vec![3, 1]);
        // Touching client 3 rescues it.
        touch(&mut mgr, 3, 7 * SECOND);
        assert_eq!(victims(&mgr, 7 * SECOND), vec![1]);
    }

    #[test]
    fn hot_set_overflow_retires_lru_down_to_capacity() {
        let cfg = HibernationConfig {
            max_hot: Some(2),
            ..HibernationConfig::default()
        };
        let mut mgr = HibernationManager::new(cfg);
        for (i, c) in [9u32, 4, 7, 2].iter().enumerate() {
            touch(&mut mgr, *c, i as Nanos);
        }
        // Four hot, capacity two: the two least recently active go.
        assert_eq!(victims(&mgr, 100), vec![9, 4]);
    }

    #[test]
    fn idle_and_overflow_triggers_compose() {
        let cfg = HibernationConfig {
            idle_after: Some(10),
            max_hot: Some(2),
            policy: RetirePolicy::Hibernate,
        };
        let mut mgr = HibernationManager::new(cfg);
        touch(&mut mgr, 1, 0); // idle at t=20
        touch(&mut mgr, 2, 15); // not idle, but over capacity
        touch(&mut mgr, 3, 16);
        touch(&mut mgr, 4, 17);
        // Victims: 1 (idle), then 2 (oldest overflow). 3 and 4 fit.
        assert_eq!(victims(&mgr, 20), vec![1, 2]);
    }

    #[test]
    fn equal_and_late_touches_sort_like_timestamp_client_pairs() {
        let mut mgr = HibernationManager::new(idle_cfg(1));
        let walks = || WALK_BACKS.with(|n| n.get());
        let before = walks();
        // Equal timestamps in descending id order, then a late touch.
        for client in [5, 3, 8] {
            touch(&mut mgr, client, 10);
        }
        touch(&mut mgr, 6, 4);
        touch(&mut mgr, 9, 10);
        assert_eq!(victims(&mgr, 100), vec![6, 3, 5, 8, 9]);
        // 3 walks past 5; 6 walks past 8, 3 and 5; 9 sorts last.
        assert_eq!(walks() - before, 4);
    }

    #[test]
    fn a_time_major_stream_with_ascending_ids_never_walks_back() {
        // `hibernate_churn`'s shape, scaled down: every client touched
        // once per 100 ms tick in ascending id order, a tenth of them
        // hot, victims paged out after every frame and faulted back in
        // on the client's next one.
        let mut mgr = HibernationManager::new(HibernationConfig {
            idle_after: Some(300 * MILLISECOND),
            max_hot: Some(50),
            policy: RetirePolicy::Hibernate,
        });
        let (mut spare, mut last) = (session_for(0), None);
        let mut out = Vec::new();
        let before = WALK_BACKS.with(|n| n.get());
        for tick in 0..8u64 {
            let at = tick * 100 * MILLISECOND;
            for client in 0..500u32 {
                let slot = mgr.slot(client);
                mgr.fault_in(slot, &mut spare, &mut last)
                    .expect("faults in");
                mgr.touch(slot, at);
                mgr.victims_into(at, &mut out);
                for &(victim, _) in &out {
                    mgr.hibernate(victim, None, &mut spare, None)
                        .expect("pages out");
                }
            }
        }
        assert!(mgr.stats().restored > 3_000, "{:?}", mgr.stats());
        assert_eq!(WALK_BACKS.with(|n| n.get()) - before, 0);
    }

    #[test]
    fn hibernate_then_fault_in_round_trips_and_counts() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let (mut busy, last) = busy_session();
        let want = page(42, last, &mut busy);
        touch(&mut mgr, 42, 0);
        let slot = mgr.slot(42);
        let n = mgr
            .hibernate(slot, last, &mut busy, None)
            .expect("pages out");
        assert_eq!(n, want.len());
        assert_eq!(
            page(42, last, &mut busy),
            want,
            "paging out leaves the session"
        );
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 1);
        assert!(mgr.is_hibernated(slot));
        assert_eq!(page_of(&mut mgr, 42).as_deref().map(<[u8]>::len), Some(n));

        let (mut back, mut back_last) = (session_for(7), None);
        let faulted = mgr
            .fault_in(slot, &mut back, &mut back_last)
            .expect("pages in");
        assert!(faulted);
        assert_eq!(back_last, last);
        assert_eq!(page(42, back_last, &mut back), want);
        assert_eq!(mgr.hibernated_count(), 0);
        assert!(page_of(&mut mgr, 42).is_none(), "fault-in frees the page");
        assert_eq!(
            mgr.stats(),
            HibernationStats {
                hibernated: 1,
                restored: 1,
                evicted: 0
            }
        );
    }

    /// A pager that keeps what it is handed, or refuses it.
    struct Recording {
        pages: Vec<(u32, Vec<u8>)>,
        refuse: bool,
    }

    impl SnapshotPager for Recording {
        fn page_out(&mut self, client: u32, bytes: &[u8]) -> Result<(), PageError> {
            if self.refuse {
                return Err(PageError::Io("disk full".into()));
            }
            self.pages.push((client, bytes.to_vec()));
            Ok(())
        }
    }

    #[test]
    fn the_pager_gets_the_durable_copy_and_a_refusal_keeps_the_client_hot() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        let mut pager = Recording {
            pages: Vec::new(),
            refuse: true,
        };
        touch(&mut mgr, 4, 0);
        let slot = mgr.slot(4);
        let mut session = session_for(4);
        assert_eq!(
            mgr.hibernate(slot, None, &mut session, Some(&mut pager)),
            Err(PageError::Io("disk full".into()))
        );
        assert!(!mgr.is_hibernated(slot));
        assert_eq!((mgr.hot_count(), mgr.stats().hibernated), (1, 0));

        pager.refuse = false;
        mgr.hibernate(slot, None, &mut session, Some(&mut pager))
            .expect("pages out");
        let held = page_of(&mut mgr, 4).as_deref().map(<[u8]>::to_vec);
        assert_eq!(pager.pages, vec![(4, held.expect("hibernated"))]);
    }

    #[test]
    fn fault_in_of_hot_client_is_none() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        touch(&mut mgr, 7, 0);
        let (mut busy, last) = busy_session();
        let before = page(3, last, &mut busy);
        let mut into_last = last;
        let slot = mgr.slot(7);
        assert_eq!(mgr.fault_in(slot, &mut busy, &mut into_last), Ok(false));
        assert_eq!(
            page(3, into_last, &mut busy),
            before,
            "a hot client's fault-in leaves the target alone"
        );
        assert_eq!(mgr.stats().restored, 0);
    }

    #[test]
    fn a_truncated_page_is_refused_and_the_client_stays_hibernated() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        touch(&mut mgr, 5, 0);
        hibernate_fresh(&mut mgr, 5);
        // Cut the page behind the manager's back.
        let whole = page_of(&mut mgr, 5).take().expect("hibernated");
        *page_of(&mut mgr, 5) = Some(whole[..whole.len() - 1].into());
        let slot = mgr.slot(5);
        assert!(matches!(
            mgr.fault_in(slot, &mut session_for(0), &mut None),
            Err(PageError::Codec(_))
        ));
        // The damage is visible, not papered over: the client stays
        // hibernated with its page, and a good page faults in.
        assert!(mgr.is_hibernated(slot));
        *page_of(&mut mgr, 5) = Some(whole);
        assert_eq!(mgr.fault_in(slot, &mut session_for(0), &mut None), Ok(true));
    }

    #[test]
    fn corrupt_page_is_a_codec_error() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        touch(&mut mgr, 6, 0);
        hibernate_fresh(&mut mgr, 6);
        // Flip a body bit behind the manager's back.
        if let Some(bytes) = page_of(&mut mgr, 6) {
            bytes[20] ^= 0x10;
        }
        let slot = mgr.slot(6);
        assert!(matches!(
            mgr.fault_in(slot, &mut session_for(0), &mut None),
            Err(PageError::Codec(SnapshotError::BadCrc { .. }))
        ));
    }

    #[test]
    fn a_misfiled_page_is_refused_and_leaves_the_session_alone() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        for client in [1, 2] {
            touch(&mut mgr, client, 0);
            hibernate_fresh(&mut mgr, client);
        }
        // Swap the two clients' pages behind the manager's back.
        let one = page_of(&mut mgr, 1).take();
        let two = page_of(&mut mgr, 2).take();
        *page_of(&mut mgr, 1) = two;
        *page_of(&mut mgr, 2) = one;

        let (mut busy, last) = busy_session();
        let before = page(3, last, &mut busy);
        let mut into_last = last;
        let slot = mgr.slot(1);
        assert_eq!(
            mgr.fault_in(slot, &mut busy, &mut into_last),
            Err(PageError::Misfiled {
                client: 1,
                page_client: 2
            })
        );
        assert_eq!(
            page(3, into_last, &mut busy),
            before,
            "a refused page leaves the target alone"
        );
        assert!(mgr.is_hibernated(0) && mgr.is_hibernated(1));
        assert_eq!(mgr.stats().restored, 0);
    }

    #[test]
    fn evict_drops_without_snapshot() {
        let mut mgr = HibernationManager::new(HibernationConfig {
            idle_after: Some(SECOND),
            max_hot: None,
            policy: RetirePolicy::Evict,
        });
        touch(&mut mgr, 9, 0);
        let slot = mgr.slot(9);
        mgr.evict(slot);
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 0);
        assert_eq!(mgr.stats().evicted, 1);
        // Evicting a client that is not hot is a no-op, not a counted
        // event.
        mgr.evict(slot);
        let unknown = mgr.slot(1234);
        mgr.evict(unknown);
        assert_eq!(mgr.stats().evicted, 1);
    }

    #[test]
    fn forget_clears_both_sets() {
        let mut mgr = HibernationManager::new(idle_cfg(SECOND));
        touch(&mut mgr, 1, 0);
        touch(&mut mgr, 2, 0);
        hibernate_fresh(&mut mgr, 2);
        let want = page(2, None, &mut session_for(2));
        assert_eq!(mgr.forget(0), None);
        assert_eq!(mgr.forget(1).as_deref(), Some(&want[..]));
        assert_eq!(mgr.hot_count(), 0);
        assert_eq!(mgr.hibernated_count(), 0);
        assert!(victims(&mgr, u64::MAX).is_empty());
    }

    #[test]
    fn touch_keeps_lru_and_map_in_lockstep() {
        let mut mgr = HibernationManager::new(idle_cfg(10));
        for round in 0..5u64 {
            for c in 0..4u32 {
                touch(&mut mgr, c, round * 3 + c as u64);
            }
        }
        assert_eq!(mgr.hot_count(), 4);
        // All four idle far in the future, ordered by last touch.
        assert_eq!(victims(&mgr, 1_000), vec![0, 1, 2, 3]);
    }

    #[test]
    fn page_error_messages_are_informative() {
        assert!(PageError::Io("disk full".into())
            .to_string()
            .contains("disk full"));
        let misfiled = PageError::Misfiled {
            client: 8,
            page_client: 7,
        }
        .to_string();
        assert!(misfiled.contains("client 7") && misfiled.contains("client 8"));
        let codec = PageError::from(SnapshotError::BadMagic(3));
        assert!(codec.to_string().contains("magic"));
    }

    /// The ordered-set bookkeeping the slots replaced, kept as the
    /// reference their victim order must match.
    struct Reference {
        cfg: HibernationConfig,
        last_touch: BTreeMap<u32, Nanos>,
        lru: BTreeSet<(Nanos, u32)>,
        hibernated: BTreeSet<u32>,
    }

    impl Reference {
        fn touch(&mut self, client: u32, now: Nanos) {
            if !self.cfg.enabled() {
                return;
            }
            if let Some(prev) = self.last_touch.insert(client, now) {
                self.lru.remove(&(prev, client));
            }
            self.lru.insert((now, client));
        }

        fn drop_hot(&mut self, client: u32) -> bool {
            match self.last_touch.remove(&client) {
                Some(at) => self.lru.remove(&(at, client)),
                None => false,
            }
        }

        fn victims(&self, now: Nanos) -> Vec<u32> {
            let mut out = Vec::new();
            let mut remaining = self.last_touch.len();
            for &(at, client) in &self.lru {
                let idle = self
                    .cfg
                    .idle_after
                    .is_some_and(|d| now.saturating_sub(at) >= d);
                let overflow = self.cfg.max_hot.is_some_and(|cap| remaining > cap);
                if !(idle || overflow) {
                    break;
                }
                out.push(client);
                remaining -= 1;
            }
            out
        }
    }

    proptest::proptest! {
        /// The slots, their recency list and their pages agree with the
        /// ordered-set reference after every step of a random mix of
        /// touches (equal, later and late timestamps, any id order),
        /// retirements, fault-ins, evictions and forgets.
        #[test]
        fn victims_match_the_ordered_set_reference(
            triggers in (0u64..12, 0usize..6),
            steps in proptest::collection::vec((0u32..48, 0u64..8), 0..80),
        ) {
            let cfg = HibernationConfig {
                idle_after: (triggers.0 > 0).then_some(triggers.0),
                max_hot: (triggers.1 < 5).then_some(triggers.1),
                policy: RetirePolicy::Hibernate,
            };
            let mut mgr = HibernationManager::new(cfg.clone());
            let mut reference = Reference {
                cfg,
                last_touch: BTreeMap::new(),
                lru: BTreeSet::new(),
                hibernated: BTreeSet::new(),
            };
            let (mut spare, mut last) = (session_for(0), None);
            let mut now: Nanos = 20;
            for (op, t) in steps {
                let client = op % 8;
                let slot = mgr.slot(client);
                match op / 8 {
                    0..=2 => {
                        // Same instant, up to 4 later, or up to 6 late.
                        let at = match t {
                            0 | 1 => now,
                            2..=5 => now + t - 1,
                            _ => now.saturating_sub(3 * (t - 5)),
                        };
                        now = now.max(at);
                        let faulted = mgr.fault_in(slot, &mut spare, &mut last);
                        proptest::prop_assert_eq!(
                            faulted,
                            Ok(reference.hibernated.remove(&client))
                        );
                        mgr.touch(slot, at);
                        reference.touch(client, at);
                    }
                    3 => {
                        let mut out = Vec::new();
                        mgr.victims_into(now, &mut out);
                        for (victim, victim_client) in out {
                            mgr.hibernate(victim, None, &mut session_for(victim_client), None)
                                .expect("pages out");
                            reference.drop_hot(victim_client);
                            reference.hibernated.insert(victim_client);
                        }
                    }
                    4 => {
                        mgr.evict(slot);
                        reference.drop_hot(client);
                    }
                    _ => {
                        let page = mgr.forget(slot);
                        reference.drop_hot(client);
                        proptest::prop_assert_eq!(
                            page.is_some(),
                            reference.hibernated.remove(&client)
                        );
                    }
                }
                for at in [now, now + 5, now + 100] {
                    proptest::prop_assert_eq!(victims(&mgr, at), reference.victims(at));
                }
                proptest::prop_assert_eq!(mgr.hot_count(), reference.last_touch.len());
                proptest::prop_assert_eq!(mgr.hibernated_count(), reference.hibernated.len());
                proptest::prop_assert_eq!(
                    mgr.is_hibernated(slot),
                    reference.hibernated.contains(&client)
                );
            }
        }
    }
}
