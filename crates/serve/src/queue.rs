//! Bounded per-shard ingest queues with explicit overflow policy, and
//! the batches frontends fill on their way into them.
//!
//! `std::sync::mpsc` offers bounded channels, but its only overflow
//! behaviours are "block" and "fail"; the serving layer also needs
//! **drop-oldest-per-client** shedding (an overloaded controller serves
//! every client its freshest frame rather than a backlog of stale
//! ones). So the queue is hand-rolled: a `Mutex<VecDeque>` with two
//! condvars, one item type, no unsafe.
//!
//! Every hand-off moves a batch, not a frame. A frontend collects what
//! one socket read, one UDP sweep or one producer step yields into an
//! [`IngestBatch`] — every ticket stamped from one clock read — and
//! [`ShardQueue::push_batch`] enqueues it under one lock hold; the
//! worker's [`ShardQueue::pop_batch`] takes the whole queue under one
//! lock. Each side counts its parked waiters under the mutex and
//! notifies only when one exists, so a queue that never fills or runs
//! dry costs no wake-up syscall at all, and a batch costs at most one.
//!
//! The serve layer has exactly two locks. A worker never takes the
//! recorder channel lock while holding its shard-queue lock-order
//! position's guard (it pops, drops the guard, then records), but the
//! declared order below documents the intent and lets the analyzer
//! reject a future declaration that contradicts it.
// lock-order: serve.shard-queue < serve.recorder-channel

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mobisense_telemetry::{Sampler, Stage, StageTrace};
use mobisense_util::units::Nanos;

use crate::recording::{FrameBatch, RecorderHandle};
use crate::wire::ObsFrame;

/// What a producer does when a shard's queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producer until the worker drains a slot
    /// (backpressure). Lossless: every submitted frame is processed,
    /// which is what makes the merged decision log independent of the
    /// shard count.
    Block,
    /// Shed load: evict the oldest queued frame of the same client (or
    /// the oldest frame overall when that client has nothing queued)
    /// and enqueue the new one. Lossy and timing-dependent — the shed
    /// counter records every eviction.
    ShedOldestPerClient,
}

/// Per-frame bookkeeping riding alongside an enqueued observation: the
/// ingest wall-clock instant (decision-latency telemetry) plus an
/// optional sampled [`StageTrace`] (per-stage latency telemetry).
#[derive(Clone, Copy, Debug)]
pub struct Ticket {
    /// When the producer materialized the frame.
    pub ingested: Instant,
    /// The sampled stage trace, `None` for the untraced majority.
    pub trace: Option<StageTrace>,
}

impl Ticket {
    /// A plain ticket: ingest stamp only, no stage trace.
    pub fn untraced() -> Self {
        Self::at(Instant::now(), false)
    }

    /// A ticket carrying a stage trace started at `Ingest`. One clock
    /// read serves both the ingest stamp and the trace origin, so the
    /// traced path pays no extra read here and the trace origin *is*
    /// the latency epoch.
    pub fn traced() -> Self {
        Self::at(Instant::now(), true)
    }

    /// A ticket stamped at an already-read instant.
    fn at(ingested: Instant, traced: bool) -> Self {
        Ticket {
            ingested,
            trace: traced.then(|| StageTrace::start_at(ingested)),
        }
    }
}

/// One hand-off's worth of decoded frames — everything one socket
/// read, one UDP sweep or one producer step yields — on their way to
/// the shard queues, plus their wire bytes on their way to the flight
/// recorder when one is attached. Build one per frontend with
/// [`ShardEngine::ingest_batch`] and hand it over with
/// [`ShardEngine::submit_ingest`].
///
/// Every ticket in a batch shares one ingest clock read, taken when the
/// batch's first frame arrives; a [`Sampler`] running across batches
/// picks which tickets carry a stage trace. The buffers survive each
/// hand-off, so a warm frontend allocates nothing per batch.
///
/// [`ShardEngine::ingest_batch`]: crate::service::ShardEngine::ingest_batch
/// [`ShardEngine::submit_ingest`]: crate::service::ShardEngine::submit_ingest
#[derive(Debug)]
pub struct IngestBatch {
    frames: Vec<(Ticket, ObsFrame)>,
    /// The frames' wire bytes, kept only when recording.
    raw: Option<FrameBatch>,
    sampler: Sampler,
    /// The batch's ingest stamp, read at its first frame.
    ingested: Option<Instant>,
    /// Frames past which [`is_full`](Self::is_full) says hand over.
    limit: usize,
}

impl IngestBatch {
    /// An empty batch tracing every `stage_sampling`-th frame (0 =
    /// never), keeping wire bytes when `record` is set, and reporting
    /// full at `limit` frames.
    pub(crate) fn new(stage_sampling: u32, record: bool, limit: usize) -> Self {
        IngestBatch {
            frames: Vec::new(),
            raw: record.then(FrameBatch::new),
            sampler: Sampler::every(stage_sampling),
            ingested: None,
            limit: limit.max(1),
        }
    }

    /// Adds one decoded frame and its exact wire bytes.
    pub fn push(&mut self, frame: ObsFrame, raw: &[u8]) {
        let ingested = *self.ingested.get_or_insert_with(Instant::now);
        self.frames
            .push((Ticket::at(ingested, self.sampler.sample()), frame));
        if let Some(bytes) = self.raw.as_mut() {
            bytes.push(raw);
        }
    }

    /// Whether the batch holds no frame.
    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the batch reached its limit — the memory bound for
    /// sources with no natural end (a UDP sweep under a flood, a
    /// producer step over a huge shard); one queue's capacity.
    pub fn is_full(&self) -> bool {
        self.frames.len() >= self.limit
    }

    /// Tees the batch's wire bytes to `recorder` as one message, then
    /// stamps `Record` on every traced ticket from one clock read.
    pub(crate) fn tee(&mut self, recorder: &RecorderHandle) {
        if let Some(bytes) = self.raw.as_mut() {
            recorder.record_batch(bytes);
        }
        let mut recorded = None;
        for (ticket, _) in &mut self.frames {
            if let Some(trace) = ticket.trace.as_mut() {
                trace.mark_at(Stage::Record, *recorded.get_or_insert_with(Instant::now));
            }
        }
    }

    /// Hands the frames over in arrival order; the next frame pushed
    /// starts a new batch with a fresh ingest stamp.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (Ticket, ObsFrame)> {
        self.ingested = None;
        self.frames.drain(..)
    }
}

/// A migrating client's session in transit between two shard workers:
/// the encoded [`SessionSnapshot`] bytes (codec-sealed, so transfer
/// corruption is detected at adoption) plus the bookkeeping the target
/// needs to resume exactly where the source stopped.
///
/// [`SessionSnapshot`]: mobisense_session::SessionSnapshot
#[derive(Clone, Debug)]
pub struct MigrateParcel {
    /// The migrating client.
    pub client_id: u32,
    /// Encoded snapshot bytes, or `None` when the source worker had no
    /// live or hibernated session for the client (the target starts a
    /// fresh session on the client's next frame, exactly as the source
    /// would have).
    pub bytes: Option<Vec<u8>>,
    /// The client's last sim-clock activity at the source (0 when
    /// unknown), so the target's hibernation LRU resumes accurately.
    pub last_at: Nanos,
}

/// One unit of work on a shard queue: the overwhelmingly common decoded
/// observation frame, or a rare control item steering a live session
/// migration. Control items ride the same FIFO as frames so their
/// ordering relative to the frame stream is exact — a `Migrate` marker
/// drains every frame enqueued before it, and an `Adopt` precedes every
/// frame routed to the target after the move.
#[derive(Debug)]
pub enum WorkItem {
    /// One decoded observation frame with its [`Ticket`].
    Frame(Ticket, ObsFrame),
    /// Drain marker: the worker snapshots (or pages in) `client_id`'s
    /// session, forgets it, and sends the parcel back through `reply`.
    Migrate {
        /// The client to extract.
        client_id: u32,
        /// Where the source worker sends the drained parcel.
        reply: mpsc::Sender<MigrateParcel>,
    },
    /// Adoption: the worker restores the parcel's session into its own
    /// client map before processing any frame behind this item.
    Adopt(Box<MigrateParcel>),
}

impl WorkItem {
    /// Wraps a ticketed frame (the shape every frontend submits).
    pub fn frame(ticket: Ticket, frame: ObsFrame) -> Self {
        WorkItem::Frame(ticket, frame)
    }

    /// Whether this is an observation frame (control items are exempt
    /// from capacity accounting and shedding).
    pub fn is_frame(&self) -> bool {
        matches!(self, WorkItem::Frame(..))
    }
}

/// One enqueued work item.
pub type QueueItem = WorkItem;

#[derive(Debug, Default)]
struct Inner {
    q: VecDeque<QueueItem>,
    closed: bool,
    shed: u64,
    popped: u64,
    max_depth: usize,
    /// Deepest occupancy since the last [`ShardQueue::take_high_water`]
    /// read (the ops monitor's between-ticks peak detector).
    high_water: usize,
    /// Producers parked on `not_full`.
    producers_waiting: usize,
    /// Whether the worker is parked on `not_empty`.
    worker_waiting: bool,
}

/// A bounded FIFO between one ingest producer and one shard worker.
#[derive(Debug)]
pub struct ShardQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl ShardQueue {
    /// Creates a queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        ShardQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(capacity),
                ..Inner::default()
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The queue's capacity, in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the queue state, recovering a poisoned guard. Poisoning
    /// here only means some peer panicked *while holding the lock*;
    /// every critical section in this module either leaves the
    /// `VecDeque` consistent or is a pure read, so read-side callers
    /// (`shed`, `max_depth`, `close`) must not cascade one worker's
    /// panic into unrelated producers.
    fn lock_recovered(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `items` in order under the given overflow policy and
    /// returns the number of frames shed to make room (always 0 under
    /// [`OverflowPolicy::Block`]).
    ///
    /// The whole batch goes in under one lock hold unless Block
    /// backpressure parks the producer mid-batch, in which case the
    /// worker first gets to see what is already queued, or a
    /// [`OverflowPolicy::ShedOldestPerClient`] eviction ends the hold:
    /// each eviction scans the queue, and a batch of them under one
    /// hold would lock an overloaded worker out for the whole scan
    /// series. The worker is notified at most once per hold, and only
    /// when it is parked; traced tickets share one `Enqueue` clock read
    /// per hold.
    ///
    /// Pushing to a closed queue drops the rest of the batch silently;
    /// the service only closes queues after every producer has
    /// finished.
    ///
    /// The frame paths (`push_batch`/`pop_batch`) deliberately keep the
    /// loud `expect`: if a peer died mid-mutation the FIFO's contents
    /// can no longer be trusted, and silently serving a
    /// maybe-reordered or maybe-truncated stream would break the
    /// determinism contract. Failing the whole run is the correct
    /// outcome there.
    pub fn push_batch<I>(&self, items: I, policy: OverflowPolicy) -> u64
    where
        I: IntoIterator<Item = QueueItem>,
    {
        let mut items = items.into_iter().peekable();
        let mut shed_now = 0u64;
        while items.peek().is_some() {
            // lint: poison-loud -- frame path: a poisoned FIFO cannot be trusted, fail the run
            let mut inner = self.inner.lock().expect("queue poisoned");
            // Items enqueued since the worker last had a chance to see
            // them.
            let mut unseen = false;
            let mut enqueued_at: Option<Instant> = None;
            let mut evicted = false;
            while !evicted {
                let Some(mut item) = items.next() else {
                    break;
                };
                match (&item, policy) {
                    // Control items never wait and never shed: a
                    // `Migrate` marker that blocked behind its own
                    // shard's backlog while the submit frontend waits on
                    // the reply would deadlock the engine, and shedding
                    // one would silently lose a session. They are rare
                    // (one per migration), so the transient
                    // one-over-capacity occupancy is harmless.
                    (WorkItem::Migrate { .. } | WorkItem::Adopt(_), _) => {}
                    (WorkItem::Frame(..), OverflowPolicy::Block) => {
                        while inner.q.len() >= self.capacity && !inner.closed {
                            if unseen && inner.worker_waiting {
                                self.not_empty.notify_one();
                            }
                            unseen = false;
                            enqueued_at = None;
                            inner.producers_waiting += 1;
                            // lint: poison-loud, hot-path -- fail fast on poison; Block backpressure parks the producer until the worker drains (woken by pop_batch/close)
                            inner = self.not_full.wait(inner).expect("queue poisoned");
                            inner.producers_waiting -= 1;
                        }
                    }
                    (WorkItem::Frame(_, new), OverflowPolicy::ShedOldestPerClient) => {
                        if inner.q.len() >= self.capacity {
                            let client = new.client_id;
                            // Only frames are sheddable; control items
                            // must survive overload, so the eviction
                            // scan skips them.
                            let same_client = inner.q.iter().position(
                                |it| matches!(it, WorkItem::Frame(_, f) if f.client_id == client),
                            );
                            let victim =
                                same_client.or_else(|| inner.q.iter().position(WorkItem::is_frame));
                            if let Some(i) = victim {
                                inner.q.remove(i);
                                shed_now += 1;
                                inner.shed += 1;
                                evicted = true;
                            }
                        }
                    }
                }
                if inner.closed {
                    return shed_now;
                }
                // Stamped after any backpressure wait, immediately
                // before insertion, so the dequeue delta is pure queue
                // residency.
                if let WorkItem::Frame(ticket, _) = &mut item {
                    if let Some(trace) = ticket.trace.as_mut() {
                        trace.mark_at(
                            Stage::Enqueue,
                            *enqueued_at.get_or_insert_with(Instant::now),
                        );
                    }
                }
                inner.q.push_back(item);
                let len = inner.q.len();
                inner.max_depth = inner.max_depth.max(len);
                inner.high_water = inner.high_water.max(len);
                unseen = true;
            }
            let wake = unseen && inner.worker_waiting;
            drop(inner);
            if wake {
                self.not_empty.notify_one();
            }
        }
        shed_now
    }

    /// Enqueues one item: a one-element [`push_batch`](Self::push_batch).
    pub fn push(&self, item: QueueItem, policy: OverflowPolicy) -> u64 {
        self.push_batch(std::iter::once(item), policy)
    }

    /// Enqueues a control item ([`WorkItem::Migrate`] /
    /// [`WorkItem::Adopt`]), bypassing capacity accounting entirely —
    /// equivalent to `push` but named so call sites read as what they
    /// are. Returns `true` if the item was enqueued, `false` if the
    /// queue was already closed (the engine treats that as "shard gone",
    /// not an error).
    pub fn push_control(&self, item: QueueItem) -> bool {
        // lint: poison-loud -- control path: a poisoned FIFO cannot be trusted, fail the run
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return false;
        }
        inner.q.push_back(item);
        inner.max_depth = inner.max_depth.max(inner.q.len());
        inner.high_water = inner.high_water.max(inner.q.len());
        let wake = inner.worker_waiting;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        true
    }

    /// Moves every queued item into `out`, oldest first, under one
    /// lock, blocking while the queue is open and empty; parked
    /// producers are woken (all of them: the whole capacity just
    /// freed) only if there are any. Returns `false` once the queue is
    /// closed and drained.
    ///
    /// `out` is normally empty on entry and then simply trades buffers
    /// with the queue; anything already in it stays ahead of the new
    /// items.
    pub fn pop_batch(&self, out: &mut VecDeque<QueueItem>) -> bool {
        // lint: poison-loud -- frame path: a poisoned FIFO cannot be trusted, fail the run
        let mut inner = self.inner.lock().expect("queue poisoned");
        while inner.q.is_empty() {
            if inner.closed {
                return false;
            }
            inner.worker_waiting = true;
            // lint: poison-loud, hot-path -- fail fast on poison; the worker idles here until a producer enqueues (woken by push_batch/close)
            inner = self.not_empty.wait(inner).expect("queue poisoned");
            inner.worker_waiting = false;
        }
        inner.popped += inner.q.len() as u64;
        if out.is_empty() {
            std::mem::swap(&mut inner.q, out);
        } else {
            out.append(&mut inner.q);
        }
        let wake = inner.producers_waiting > 0;
        drop(inner);
        if wake {
            self.not_full.notify_all();
        }
        true
    }

    /// Closes the queue: blocked producers unblock, and the worker's
    /// [`pop_batch`](Self::pop_batch) returns `false` once the backlog
    /// drains.
    pub fn close(&self) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Frames shed by this queue so far.
    pub fn shed(&self) -> u64 {
        self.lock_recovered().shed
    }

    /// Deepest occupancy the queue has reached.
    pub fn max_depth(&self) -> usize {
        self.lock_recovered().max_depth
    }

    /// Current occupancy (frames queued right now).
    pub fn depth(&self) -> usize {
        self.lock_recovered().q.len()
    }

    /// Items dequeued by the worker so far (the watchdog's progress
    /// counter).
    pub fn popped(&self) -> u64 {
        self.lock_recovered().popped
    }

    /// Deepest occupancy since the previous call, then resets the
    /// window to the *current* occupancy — so transient overload peaks
    /// between two reads are never lost the way a plain depth gauge
    /// loses them.
    pub fn take_high_water(&self) -> usize {
        let mut inner = self.lock_recovered();
        let hw = inner.high_water;
        inner.high_water = inner.q.len();
        hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn frame(client_id: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id,
            seq,
            at: seq as u64,
            distance_m: 1.0,
            digest: vec![1.0; 4],
        }
    }

    fn item(client_id: u32, seq: u32) -> QueueItem {
        WorkItem::frame(Ticket::untraced(), frame(client_id, seq))
    }

    /// Pops one batch, describing each item as `kind:client:seq`.
    fn pop_kinds(q: &ShardQueue) -> Option<Vec<String>> {
        let mut out = VecDeque::new();
        q.pop_batch(&mut out).then(|| {
            out.into_iter()
                .map(|it| match it {
                    WorkItem::Frame(_, f) => format!("frame:{}:{}", f.client_id, f.seq),
                    WorkItem::Migrate { client_id, .. } => format!("migrate:{client_id}"),
                    WorkItem::Adopt(p) => format!("adopt:{}", p.client_id),
                })
                .collect()
        })
    }

    /// Drains the queue, asserting every item is a frame.
    fn drain_frames(q: &ShardQueue) -> Vec<(u32, u32)> {
        let mut got = Vec::new();
        let mut out = VecDeque::new();
        while q.pop_batch(&mut out) {
            for it in out.drain(..) {
                match it {
                    WorkItem::Frame(_, f) => got.push((f.client_id, f.seq)),
                    other => panic!("expected frame, got {other:?}"),
                }
            }
        }
        got
    }

    #[test]
    fn fifo_order_preserved() {
        let q = ShardQueue::new(8);
        for seq in 0..5 {
            q.push(item(1, seq), OverflowPolicy::Block);
        }
        q.close();
        let seqs: Vec<u32> = drain_frames(&q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shed_evicts_oldest_of_same_client() {
        let q = ShardQueue::new(3);
        q.push(item(1, 0), OverflowPolicy::ShedOldestPerClient);
        q.push(item(2, 0), OverflowPolicy::ShedOldestPerClient);
        q.push(item(1, 1), OverflowPolicy::ShedOldestPerClient);
        // Full; pushing client 1 again evicts its seq 0, not client 2.
        assert_eq!(q.push(item(1, 2), OverflowPolicy::ShedOldestPerClient), 1);
        q.close();
        assert_eq!(drain_frames(&q), vec![(2, 0), (1, 1), (1, 2)]);
        assert_eq!(q.shed(), 1);
    }

    #[test]
    fn shed_falls_back_to_global_oldest() {
        let q = ShardQueue::new(2);
        q.push(item(1, 0), OverflowPolicy::ShedOldestPerClient);
        q.push(item(2, 0), OverflowPolicy::ShedOldestPerClient);
        // Client 3 has nothing queued: the global oldest (1, 0) goes.
        q.push(item(3, 0), OverflowPolicy::ShedOldestPerClient);
        q.close();
        let clients: Vec<u32> = drain_frames(&q).into_iter().map(|(c, _)| c).collect();
        assert_eq!(clients, vec![2, 3]);
    }

    #[test]
    fn shed_batch_conserves_frames() {
        // One batch of 20 frames over 3 clients into a capacity-4
        // queue: the batch sheds against itself exactly as 20 single
        // pushes would, and every pushed frame is popped or shed.
        let q = ShardQueue::new(4);
        q.push(item(9, 0), OverflowPolicy::ShedOldestPerClient);
        let batch = (0..20u32).map(|seq| item(seq % 3, seq));
        let shed = q.push_batch(batch, OverflowPolicy::ShedOldestPerClient);
        q.close();
        let popped = drain_frames(&q);
        assert_eq!(shed, q.shed());
        assert_eq!(21, popped.len() as u64 + q.shed());
        assert_eq!(popped.len(), 4);
        assert!(q.max_depth() <= 4);
        // Client 9 kept its only frame; clients 0–2 each kept their
        // freshest, in arrival order.
        assert_eq!(popped, vec![(9, 0), (2, 17), (0, 18), (1, 19)]);
    }

    #[test]
    fn control_items_bypass_capacity_and_survive_shedding() {
        let q = ShardQueue::new(2);
        q.push(item(1, 0), OverflowPolicy::ShedOldestPerClient);
        // A control item enqueues even at capacity, without shedding.
        q.push(item(2, 0), OverflowPolicy::ShedOldestPerClient);
        let (tx, _rx) = mpsc::channel();
        assert!(q.push_control(WorkItem::Migrate {
            client_id: 9,
            reply: tx,
        }));
        assert_eq!(q.depth(), 3, "control item rode over capacity");
        assert_eq!(q.shed(), 0);
        // A frame push at capacity sheds a *frame*, never the marker —
        // client 3 has nothing queued, so the global-oldest frame goes.
        q.push(item(3, 0), OverflowPolicy::ShedOldestPerClient);
        q.close();
        assert_eq!(
            pop_kinds(&q).expect("one batch"),
            vec!["frame:2:0", "migrate:9", "frame:3:0"]
        );
        assert_eq!(pop_kinds(&q), None, "closed and drained");
        assert_eq!(q.shed(), 1);
    }

    #[test]
    fn push_control_to_closed_queue_reports_shard_gone() {
        let q = ShardQueue::new(2);
        q.close();
        assert!(!q.push_control(WorkItem::Adopt(Box::new(MigrateParcel {
            client_id: 1,
            bytes: None,
            last_at: 0,
        }))));
    }

    #[test]
    fn close_unblocks_empty_pop() {
        let q = Arc::new(ShardQueue::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop_batch(&mut VecDeque::new()));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(!h.join().expect("no panic"));
    }

    #[test]
    fn stat_reads_survive_a_poisoned_lock() {
        let q = Arc::new(ShardQueue::new(2));
        q.push(item(1, 0), OverflowPolicy::Block);
        let q2 = q.clone();
        // A worker dying while holding the lock poisons the mutex...
        let worker = std::thread::spawn(move || {
            let _guard = q2.inner.lock().expect("first locker");
            panic!("worker died holding the queue lock");
        });
        assert!(worker.join().is_err(), "worker panicked as arranged");
        // ...but stat reads and close still work for everyone else,
        assert_eq!(q.shed(), 0);
        assert_eq!(q.max_depth(), 1);
        q.close();
        // while the frame path stays loud by design: a FIFO whose
        // mutation was interrupted can no longer be trusted.
        let q3 = q.clone();
        let popper = std::thread::spawn(move || q3.pop_batch(&mut VecDeque::new()));
        assert!(popper.join().is_err(), "pop fails fast on poison");
    }

    #[test]
    fn high_water_window_keeps_peaks_and_resets() {
        let q = ShardQueue::new(8);
        for seq in 0..6 {
            q.push(item(1, seq), OverflowPolicy::Block);
        }
        assert_eq!(pop_kinds(&q).expect("queued frames").len(), 6);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.popped(), 6);
        // The drained queue still reports the peak once...
        assert_eq!(q.take_high_water(), 6);
        // ...then the window resets to the current occupancy.
        assert_eq!(q.take_high_water(), 0);
        q.push(item(1, 6), OverflowPolicy::Block);
        assert_eq!(q.take_high_water(), 1);
        // All-time max_depth is unaffected by window reads.
        assert_eq!(q.max_depth(), 6);
    }

    #[test]
    fn enqueue_stage_is_stamped_on_traced_items() {
        let q = ShardQueue::new(4);
        q.push(
            WorkItem::frame(Ticket::traced(), frame(1, 0)),
            OverflowPolicy::Block,
        );
        q.close();
        let mut out = VecDeque::new();
        assert!(q.pop_batch(&mut out));
        let Some(WorkItem::Frame(ticket, _)) = out.pop_front() else {
            panic!("expected frame");
        };
        let trace = ticket.trace.expect("traced ticket");
        assert!(trace.is_marked(Stage::Enqueue));
        assert!(!trace.is_marked(Stage::Dequeue), "worker marks dequeue");
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(ShardQueue::new(1));
        q.push(item(1, 0), OverflowPolicy::Block);
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            q2.push(item(1, 1), OverflowPolicy::Block);
        });
        std::thread::sleep(Duration::from_millis(10));
        // The producer is parked; draining the queue lets it through.
        assert_eq!(pop_kinds(&q).expect("first frame"), vec!["frame:1:0"]);
        h.join().expect("producer finished");
        assert_eq!(pop_kinds(&q).expect("second frame"), vec!["frame:1:1"]);
        assert_eq!(q.shed(), 0);
        assert_eq!(q.max_depth(), 1);
    }

    #[test]
    fn block_batch_larger_than_capacity_completes_in_order() {
        let q = Arc::new(ShardQueue::new(3));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            q2.push_batch((0..50).map(|seq| item(1, seq)), OverflowPolicy::Block)
        });
        let mut got = Vec::new();
        let mut out = VecDeque::new();
        while got.len() < 50 {
            assert!(q.pop_batch(&mut out));
            got.extend(out.drain(..).map(|it| match it {
                WorkItem::Frame(_, f) => f.seq,
                other => panic!("expected frame, got {other:?}"),
            }));
        }
        assert_eq!(producer.join().expect("producer"), 0, "Block never sheds");
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert!(q.max_depth() <= 3, "max depth {}", q.max_depth());
        assert_eq!(q.popped(), 50);
    }

    /// Waiter-gated wakes lose nothing: ~200k frames in batches of 1–7
    /// through queues of capacity 1 and 3, so nearly every hand-off
    /// parks one side. Guarded by a timeout so a lost wake-up fails
    /// instead of hanging.
    #[test]
    fn handoff_stress_queue_capacity_1_and_3() {
        const FRAMES: u32 = 200_000;
        for capacity in [1, 3] {
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let q = Arc::new(ShardQueue::new(capacity));
                let producer = std::thread::spawn({
                    let q = q.clone();
                    move || {
                        let (mut next, mut size) = (0u32, 1u32);
                        while next < FRAMES {
                            let end = (next + size).min(FRAMES);
                            q.push_batch(
                                (next..end).map(|s| item(s % 5, s)),
                                OverflowPolicy::Block,
                            );
                            next = end;
                            size = size % 7 + 1;
                        }
                        q.close();
                    }
                });
                let (mut expect, mut in_order) = (0u32, true);
                let mut out = VecDeque::new();
                while q.pop_batch(&mut out) {
                    for it in out.drain(..) {
                        if let WorkItem::Frame(_, f) = it {
                            in_order &= f.seq == expect;
                            expect += 1;
                        }
                    }
                }
                producer.join().expect("producer");
                done_tx
                    .send((expect, in_order, q.max_depth(), q.popped()))
                    .expect("report");
            });
            let (seen, in_order, max_depth, popped) = done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("queue stress finished without a lost wake-up");
            assert_eq!(seen, FRAMES, "capacity {capacity}");
            assert!(in_order, "capacity {capacity}: FIFO order");
            assert!(max_depth <= capacity);
            assert_eq!(popped, u64::from(FRAMES));
        }
    }
}
