//! The always-on flight recorder: a background recording channel
//! between the serving hot path and a durable trace backend.
//!
//! Production serving must not pay disk latency on the frame path, so
//! recording is asynchronous: producers hand encoded frames (and,
//! after the run, decision-log rows) to a bounded channel via a cheap
//! [`RecorderHandle`], and one dedicated thread drains the channel
//! into a [`RecordBackend`] — in practice `mobisense-store`'s
//! `TraceWriter`, but the trait keeps this crate free of a dependency
//! cycle (the store crate depends on this one, not vice versa).
//!
//! The unit of hand-off is a batch, not a frame. A producer tees every
//! frame of one socket read (or one producer step) as a single
//! `FrameBatch` message; the recorder thread takes the whole queue
//! under one lock and writes it frame by frame through
//! [`RecordBackend::record_frame`]. Both sides count their parked
//! waiters under the channel mutex and notify only when one exists, so
//! a steady stream costs one lock per batch on each side and no wake-up
//! syscall at all. Batch buffers are recycled: the recorder thread
//! returns each written buffer to a small spare pool, and the next
//! producer batch swaps one out, so the tee allocates nothing once warm.
//!
//! Capacity and every counter are in frames (a decision row counts as
//! one), never messages. Frames the recorder thread has taken but not
//! yet handed to the backend still count against
//! [`RecordingConfig::capacity`]; only the one frame inside
//! `record_frame` does not — exactly as a popped frame did when the
//! channel moved one frame at a time — so batching leaves peak
//! in-flight memory at `capacity + 1` frames.
//!
//! Overflow is an explicit policy, mirroring the ingest queues:
//!
//! * [`RecordPolicy::Block`] — lossless. Producers wait until their
//!   whole batch fits (a batch larger than the channel goes in
//!   capacity-sized messages), so the store holds **every** served
//!   frame and a replay of it reproduces the live decision log
//!   byte-for-byte. Recording backpressure can slow serving, which the
//!   bench measures.
//! * [`RecordPolicy::DropNewest`] — bounded overhead. A batch that does
//!   not fit keeps the prefix that fits and counts the rest dropped;
//!   serving never waits on the recorder, but the trace is a sample,
//!   not a replayable whole.
//!
//! Decision rows always block: they are appended once, after the
//! run, by [`record_golden_log`](crate::service::record_golden_log),
//! and losing one would silently corrupt the golden log.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Written batch buffers the channel keeps for producers to reuse.
const SPARE_BATCHES: usize = 4;

/// What a producer does when the recording channel is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordPolicy {
    /// Wait for the recorder thread to drain a slot (lossless; the
    /// recorded trace replays byte-identically).
    Block,
    /// Drop the incoming frames that do not fit and count them
    /// (bounded overhead; the trace becomes a sample).
    DropNewest,
}

/// Configuration of the recording channel.
#[derive(Clone, Copy, Debug)]
pub struct RecordingConfig {
    /// Channel capacity, in frames: queued, plus taken by the recorder
    /// thread but not yet handed to the backend.
    pub capacity: usize,
    /// Overflow policy for observation frames.
    pub policy: RecordPolicy,
}

impl Default for RecordingConfig {
    fn default() -> Self {
        RecordingConfig {
            capacity: 4096,
            policy: RecordPolicy::Block,
        }
    }
}

/// Where recorded bytes go. Implemented by `mobisense-store`'s
/// `TraceWriter` (sealed rotating segments); tests use in-memory
/// backends.
pub trait RecordBackend: Send {
    /// What [`finish`](RecordBackend::finish) yields (e.g. a write
    /// summary).
    type Output: Send;

    /// Persists one wire-encoded observation frame.
    fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Persists one decision-log row (no trailing newline).
    fn record_row(&mut self, row: &str) -> io::Result<()>;

    /// The channel just drained; flush buffered bytes so live tail
    /// readers can see them. Called between bursts, never per record.
    fn idle(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Finalizes the backend (seal segments, close files).
    fn finish(self) -> io::Result<Self::Output>;
}

/// Counters of one recording run, readable at any time. Every count is
/// in frames (rows count one each), not channel messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Observation frames accepted onto the channel.
    pub frames: u64,
    /// Decision rows accepted onto the channel.
    pub rows: u64,
    /// Frames refused by [`RecordPolicy::DropNewest`] or by a channel a
    /// backend failure closed, plus every accepted frame that failure
    /// left unwritten — so every offered frame is written or dropped.
    pub dropped: u64,
    /// Deepest channel occupancy observed (queued plus taken but not
    /// yet handed to the backend).
    pub max_depth: u64,
    /// Records the backend has written — the stall watchdog's progress
    /// counter for the recorder.
    pub drained: u64,
}

/// Wire-encoded frames travelling to the recorder as one message: their
/// bytes back to back, plus where each one ends.
#[derive(Debug, Default)]
pub(crate) struct FrameBatch {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one frame's wire bytes.
    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    /// Frames in the batch.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no frame.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Empties the batch, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// The frames' wire bytes, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let frame = self.bytes.get(start..end).unwrap_or_default();
            start = end;
            frame
        })
    }

    /// Byte offset at which frame `n` starts.
    fn offset(&self, n: usize) -> usize {
        n.checked_sub(1)
            .and_then(|last| self.ends.get(last))
            .copied()
            .unwrap_or(0)
    }

    /// Keeps the first `n` frames.
    fn truncate(&mut self, n: usize) {
        let n = n.min(self.len());
        self.bytes.truncate(self.offset(n));
        self.ends.truncate(n);
    }

    /// Moves frames `at..` into a new batch.
    fn split_off(&mut self, at: usize) -> FrameBatch {
        let at = at.min(self.len());
        let cut = self.offset(at);
        let bytes = self.bytes.split_off(cut);
        let ends = self
            .ends
            .split_off(at)
            .into_iter()
            .map(|end| end - cut)
            .collect();
        FrameBatch { bytes, ends }
    }
}

enum Msg {
    Frames(FrameBatch),
    Row(String),
}

#[derive(Default)]
struct ChannelInner {
    q: VecDeque<Msg>,
    /// Frames (and rows) in `q`.
    queued: usize,
    /// Written batch buffers waiting for a producer to reuse them.
    spare: Vec<FrameBatch>,
    /// Producers parked on `not_full`.
    producers_waiting: usize,
    /// Whether the recorder thread is parked on `not_empty`.
    drainer_waiting: bool,
    closed: bool,
}

/// The bounded MPSC channel between producers and the recorder thread.
/// Counters live outside the mutex so [`RecorderHandle::stats`] never
/// contends with the hot path.
struct Channel {
    inner: Mutex<ChannelInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Frames the recorder thread has taken off the queue but not yet
    /// handed to the backend. Decremented per frame without the lock;
    /// producers read it under the lock and are woken by
    /// [`release`](Channel::release), which locks after the decrements.
    /// `Relaxed` suffices: it publishes no data, a stale read only
    /// overstates occupancy, and that lock orders every decrement
    /// before a woken producer's re-read.
    pending: AtomicUsize,
    frames: AtomicU64,
    rows: AtomicU64,
    dropped: AtomicU64,
    max_depth: AtomicU64,
    drained: AtomicU64,
}

impl Channel {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recording channel capacity must be non-zero");
        Channel {
            inner: Mutex::new(ChannelInner::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            pending: AtomicUsize::new(0),
            frames: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Frames counting against capacity: queued plus taken-but-unhanded.
    fn occupancy(&self, inner: &ChannelInner) -> usize {
        inner.queued + self.pending.load(Ordering::Relaxed)
    }

    /// Enqueues at most `capacity` frames as one message and returns
    /// how many were accepted: all of them, the prefix that fits
    /// ([`RecordPolicy::DropNewest`]), or none (channel closed by a
    /// backend failure). The caller's batch comes back empty, its
    /// buffer swapped for a recycled spare.
    fn push_frames(&self, batch: &mut FrameBatch, policy: RecordPolicy) -> usize {
        let block = policy == RecordPolicy::Block;
        let mut inner = self.lock_with_room(if block { batch.len() } else { 0 });
        if !block {
            let room = self.capacity.saturating_sub(self.occupancy(&inner));
            if batch.len() > room {
                self.dropped
                    .fetch_add((batch.len() - room) as u64, Ordering::Relaxed);
                batch.truncate(room);
            }
        }
        let n = batch.len();
        if inner.closed {
            self.dropped.fetch_add(n as u64, Ordering::Relaxed);
            batch.clear();
            return 0;
        }
        if n == 0 {
            return 0;
        }
        let spare = inner.spare.pop().unwrap_or_default();
        let full = std::mem::replace(batch, spare);
        self.enqueue(inner, Msg::Frames(full), n);
        n
    }

    /// Enqueues one decision row, always waiting for room (rows are
    /// the golden log). Returns `false` when a backend failure closed
    /// the channel.
    fn push_row(&self, row: String) -> bool {
        let inner = self.lock_with_room(1);
        if inner.closed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.enqueue(inner, Msg::Row(row), 1);
        true
    }

    /// Locks the channel once `n` more frames fit or it has closed.
    fn lock_with_room(&self, n: usize) -> MutexGuard<'_, ChannelInner> {
        let mut inner = self.lock_recovered();
        while self.occupancy(&inner) + n > self.capacity && !inner.closed {
            inner.producers_waiting += 1;
            // lint: hot-path -- lossless-policy backpressure: the producer parks until the backend drains (woken by release/close)
            inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
            inner.producers_waiting -= 1;
        }
        inner
    }

    /// Appends a message weighing `n` frames and wakes the recorder
    /// thread only if it is parked.
    fn enqueue(&self, mut inner: MutexGuard<'_, ChannelInner>, msg: Msg, n: usize) {
        inner.q.push_back(msg);
        inner.queued += n;
        self.max_depth
            .fetch_max(self.occupancy(&inner) as u64, Ordering::Relaxed);
        let wake = inner.drainer_waiting;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Moves every queued message into `taken` (empty on entry) under
    /// one lock; their frames stay pending against capacity until
    /// handed to the backend. Calls `on_idle` once whenever the queue
    /// runs dry while still open (so the backend can flush between
    /// bursts). Returns `false` once closed and drained.
    fn take_all(&self, taken: &mut VecDeque<Msg>, on_idle: &mut dyn FnMut()) -> bool {
        let mut idled = false;
        let mut inner = self.lock_recovered();
        loop {
            if !inner.q.is_empty() {
                std::mem::swap(&mut inner.q, taken);
                self.pending.fetch_add(inner.queued, Ordering::Relaxed);
                inner.queued = 0;
                return true;
            }
            if inner.closed {
                return false;
            }
            if !idled {
                // Flush outside the lock: producers keep enqueueing.
                drop(inner);
                on_idle();
                idled = true;
                inner = self.lock_recovered();
                continue;
            }
            inner.drainer_waiting = true;
            inner = self
                .not_empty
                .wait(inner) // lint: hot-path -- drain loop idles until a producer enqueues (woken by enqueue/close)
                .unwrap_or_else(|e| e.into_inner());
            inner.drainer_waiting = false;
        }
    }

    /// One pending frame (or row) is going to the backend now.
    fn hand_over(&self) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts `written` records drained, recycles the message's batch
    /// buffer, and wakes parked producers: the room the message's
    /// hand-overs freed is visible to them from here on.
    fn release(&self, written: usize, buffer: Option<FrameBatch>) {
        self.drained.fetch_add(written as u64, Ordering::Relaxed);
        let mut inner = self.lock_recovered();
        if let Some(mut buffer) = buffer {
            if inner.spare.len() < SPARE_BATCHES {
                buffer.clear();
                inner.spare.push(buffer);
            }
        }
        let wake = inner.producers_waiting > 0;
        drop(inner);
        if wake {
            self.not_full.notify_all();
        }
    }

    fn close(&self) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes *and* discards the backlog — the backend died, so queued
    /// and pending records can never be written; leaving them would
    /// park blocking producers forever. Every one of them, plus the
    /// `in_hand` records the backend failed on, counts as dropped.
    fn poison(&self, in_hand: usize) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        let pending = self.pending.swap(0, Ordering::Relaxed);
        self.dropped
            .fetch_add((inner.queued + pending + in_hand) as u64, Ordering::Relaxed);
        inner.q.clear();
        inner.queued = 0;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Locks the channel, recovering from poisoning: the recorder
    /// thread holds this lock only around queue ops that cannot leave
    /// the queue malformed, so a panicking peer must not cascade.
    fn lock_recovered(&self) -> MutexGuard<'_, ChannelInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The cheap, cloneable producer side of the recording channel.
/// Both drivers ([`serve_streams`](crate::service::serve_streams) and
/// `mobisense_edge::serve_sockets`) take an optional one; every
/// producer thread (or the socket reactor) records through it.
#[derive(Clone)]
pub struct RecorderHandle {
    chan: Arc<Channel>,
    policy: RecordPolicy,
}

impl RecorderHandle {
    /// Submits a batch of wire-encoded observation frames as one
    /// message and returns how many were accepted: every frame under
    /// [`RecordPolicy::Block`] unless a backend failure closed the
    /// channel, the prefix that fit under
    /// [`RecordPolicy::DropNewest`]. The batch comes back empty, its
    /// buffer swapped for a recycled one.
    pub(crate) fn record_batch(&self, batch: &mut FrameBatch) -> usize {
        let capacity = self.chan.capacity;
        let mut accepted = 0;
        if self.policy == RecordPolicy::Block {
            // A batch larger than the channel goes in capacity-sized
            // messages, so it never waits for room that cannot exist.
            while batch.len() > capacity {
                let mut rest = batch.split_off(capacity);
                accepted += self.chan.push_frames(batch, self.policy);
                std::mem::swap(batch, &mut rest);
            }
        }
        if !batch.is_empty() {
            accepted += self.chan.push_frames(batch, self.policy);
        }
        self.chan
            .frames
            .fetch_add(accepted as u64, Ordering::Relaxed);
        accepted
    }

    /// Submits one wire-encoded observation frame as a one-frame batch
    /// (the path every frontend's batches take). Returns `false` when
    /// the frame was dropped (overflow under
    /// [`RecordPolicy::DropNewest`], or backend failure).
    pub fn record_frame(&self, bytes: &[u8]) -> bool {
        let mut batch = FrameBatch::new();
        batch.push(bytes);
        self.record_batch(&mut batch) == 1
    }

    /// Submits one decision-log row. Always lossless (blocks on a full
    /// channel): rows are the golden log, and there are few of them.
    pub fn record_row(&self, row: &str) -> bool {
        let ok = self.chan.push_row(row.to_owned());
        if ok {
            self.chan.rows.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// A point-in-time snapshot of the run's counters (lock-free; never
    /// contends with the hot path).
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            frames: self.chan.frames.load(Ordering::Relaxed),
            rows: self.chan.rows.load(Ordering::Relaxed),
            dropped: self.chan.dropped.load(Ordering::Relaxed),
            max_depth: self.chan.max_depth.load(Ordering::Relaxed),
            drained: self.chan.drained.load(Ordering::Relaxed),
        }
    }

    /// Current channel occupancy in frames (queued plus taken but not
    /// yet handed to the backend) — the recorder backlog gauge. Takes
    /// the channel lock, so it belongs on monitoring paths, not the
    /// frame path.
    pub fn depth(&self) -> usize {
        let inner = self.chan.lock_recovered();
        self.chan.occupancy(&inner)
    }
}

/// A running background recorder: the channel plus the thread draining
/// it into a backend. Create with [`Recorder::spawn`], pass
/// [`Recorder::handle`] clones to the service, then
/// [`Recorder::finish`] to seal and join.
pub struct Recorder<B: RecordBackend + 'static> {
    handle: RecorderHandle,
    /// `Some` until `finish` (or drop) joins the thread.
    thread: Option<JoinHandle<io::Result<B::Output>>>,
}

impl<B: RecordBackend + 'static> Recorder<B> {
    /// Spawns the recorder thread over `backend`. Errs when the OS
    /// refuses the thread.
    pub fn spawn(backend: B, cfg: RecordingConfig) -> io::Result<Recorder<B>> {
        let chan = Arc::new(Channel::new(cfg.capacity));
        let thread_chan = Arc::clone(&chan);
        let thread = std::thread::Builder::new()
            .name("flight-recorder".into())
            .spawn(move || run_backend(backend, &thread_chan))?;
        Ok(Recorder {
            handle: RecorderHandle {
                chan,
                policy: cfg.policy,
            },
            thread: Some(thread),
        })
    }

    /// The producer-side handle (clone freely; all clones feed the
    /// same channel).
    pub fn handle(&self) -> RecorderHandle {
        self.handle.clone()
    }

    /// Closes the channel, waits for the backlog to drain and the
    /// backend to finalize, and returns the backend's output plus the
    /// run's final counters.
    pub fn finish(mut self) -> io::Result<(B::Output, RecorderStats)> {
        self.handle.chan.close();
        let out = match self.thread.take() {
            Some(thread) => thread
                .join() // lint: hot-path -- shutdown: the channel is closed, so the backend drains its backlog and exits
                .unwrap_or_else(|_| Err(io::Error::other("recorder thread panicked")))?,
            None => return Err(io::Error::other("recorder already joined")),
        };
        Ok((out, self.handle.stats()))
    }
}

impl<B: RecordBackend + 'static> Drop for Recorder<B> {
    /// A recorder dropped without [`Recorder::finish`] closes the
    /// channel — waking any producer parked on a full queue, whose
    /// pending message is counted dropped — and joins the thread, so
    /// dropping can never deadlock producers. The backend's output and
    /// any backend error are discarded; call `finish` to observe them.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.chan.close();
            // lint: error-swallow -- Drop cannot surface backend output or a panic; finish() is the observing path
            let _ = thread.join();
        }
    }
}

/// Writes one message through the backend, handing each record over as
/// it goes. Returns how many records were written and, on failure, the
/// backend's error (the failed record was handed over, not written).
fn write_msg<B: RecordBackend>(
    backend: &mut B,
    chan: &Channel,
    msg: &Msg,
) -> (usize, io::Result<()>) {
    match msg {
        Msg::Frames(batch) => {
            let mut written = 0;
            for frame in batch.iter() {
                chan.hand_over();
                if let Err(e) = backend.record_frame(frame) {
                    return (written, Err(e));
                }
                written += 1;
            }
            (written, Ok(()))
        }
        Msg::Row(row) => {
            chan.hand_over();
            match backend.record_row(row) {
                Ok(()) => (1, Ok(())),
                Err(e) => (0, Err(e)),
            }
        }
    }
}

fn run_backend<B: RecordBackend>(mut backend: B, chan: &Channel) -> io::Result<B::Output> {
    let mut taken = VecDeque::new();
    // On failure: the error plus how many handed-over records it lost.
    let result = 'drain: loop {
        let mut idle_err = None;
        let open = chan.take_all(&mut taken, &mut || {
            if let Err(e) = backend.idle() {
                idle_err = Some(e);
            }
        });
        if let Some(e) = idle_err {
            break Err((e, 0));
        }
        if !open {
            break Ok(());
        }
        while let Some(msg) = taken.pop_front() {
            let (written, verdict) = write_msg(&mut backend, chan, &msg);
            let buffer = match msg {
                Msg::Frames(batch) => Some(batch),
                Msg::Row(_) => None,
            };
            chan.release(written, buffer);
            if let Err(e) = verdict {
                break 'drain Err((e, 1));
            }
        }
    };
    match result {
        Ok(()) => backend.finish(),
        Err((e, in_hand)) => {
            // Unblock producers before surfacing the failure; every
            // unwritten frame counts as dropped from here on.
            chan.poison(in_hand);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Collects everything in memory; optionally fails after N frames.
    /// `written` counts frames through an `Arc` that outlives a failed
    /// backend.
    struct MemBackend {
        frames: Vec<Vec<u8>>,
        rows: Vec<String>,
        idles: u64,
        fail_after: Option<usize>,
        written: Arc<AtomicU64>,
    }

    impl MemBackend {
        fn new() -> Self {
            MemBackend {
                frames: Vec::new(),
                rows: Vec::new(),
                idles: 0,
                fail_after: None,
                written: Arc::new(AtomicU64::new(0)),
            }
        }
    }

    impl RecordBackend for MemBackend {
        type Output = (Vec<Vec<u8>>, Vec<String>, u64);

        fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
            if self.fail_after.is_some_and(|n| self.frames.len() >= n) {
                return Err(io::Error::other("backend full"));
            }
            self.frames.push(bytes.to_vec());
            self.written.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn record_row(&mut self, row: &str) -> io::Result<()> {
            self.rows.push(row.to_owned());
            Ok(())
        }

        fn idle(&mut self) -> io::Result<()> {
            self.idles += 1;
            Ok(())
        }

        fn finish(self) -> io::Result<Self::Output> {
            Ok((self.frames, self.rows, self.idles))
        }
    }

    fn batch_of(frames: impl IntoIterator<Item = u32>) -> FrameBatch {
        let mut batch = FrameBatch::new();
        for f in frames {
            batch.push(&f.to_le_bytes());
        }
        batch
    }

    #[test]
    fn frame_batch_splits_and_truncates_on_frame_boundaries() {
        let mut batch = FrameBatch::new();
        batch.push(&[1]);
        batch.push(&[2, 2]);
        batch.push(&[3, 3, 3]);
        let tail = batch.split_off(1);
        assert_eq!(batch.iter().collect::<Vec<_>>(), vec![&[1u8][..]]);
        assert_eq!(
            tail.iter().collect::<Vec<_>>(),
            vec![&[2u8, 2][..], &[3u8, 3, 3][..]]
        );
        let mut tail = tail;
        tail.truncate(1);
        assert_eq!(tail.iter().collect::<Vec<_>>(), vec![&[2u8, 2][..]]);
        tail.clear();
        assert!(tail.is_empty());
    }

    #[test]
    fn block_policy_is_lossless_and_ordered() {
        let rec = Recorder::spawn(
            MemBackend::new(),
            RecordingConfig {
                capacity: 4,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        for i in 0..100u8 {
            assert!(h.record_frame(&[i, i.wrapping_mul(3)]));
        }
        // A batch larger than the channel goes through whole, in order.
        let mut big = FrameBatch::new();
        for i in 100..110u8 {
            big.push(&[i, i.wrapping_mul(3)]);
        }
        assert_eq!(h.record_batch(&mut big), 10);
        assert!(big.is_empty(), "the batch comes back empty");
        assert!(h.record_row("0,done"));
        let ((frames, rows, idles), stats) = rec.finish().expect("finish");
        assert_eq!(frames.len(), 110);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.as_slice(), &[i as u8, (i as u8).wrapping_mul(3)]);
        }
        assert_eq!(rows, vec!["0,done"]);
        assert_eq!(stats.frames, 110);
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.drained, 111, "frames plus the row");
        assert!(stats.max_depth >= 1 && stats.max_depth <= 4);
        assert!(idles >= 1, "idle flush ran at least once");
    }

    #[test]
    fn drop_newest_bounds_the_queue_and_counts() {
        // A backend that blocks until released, so the channel must
        // fill and the policy must engage deterministically.
        struct Gated {
            gate: Arc<AtomicBool>,
            entered: Arc<AtomicBool>,
            frames: Vec<Vec<u8>>,
        }
        impl RecordBackend for Gated {
            type Output = Vec<Vec<u8>>;
            fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
                self.entered.store(true, Ordering::Release);
                while !self.gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                self.frames.push(bytes.to_vec());
                Ok(())
            }
            fn record_row(&mut self, _row: &str) -> io::Result<()> {
                Ok(())
            }
            fn finish(self) -> io::Result<Vec<Vec<u8>>> {
                Ok(self.frames)
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicBool::new(false));
        let rec = Recorder::spawn(
            Gated {
                gate: Arc::clone(&gate),
                entered: Arc::clone(&entered),
                frames: Vec::new(),
            },
            RecordingConfig {
                capacity: 8,
                policy: RecordPolicy::DropNewest,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        // Batch A (5 frames) fits; the backend takes it and parks on
        // its first frame, so 4 taken-but-unwritten frames stay
        // counted against the capacity of 8.
        assert_eq!(h.record_batch(&mut batch_of(0..5)), 5);
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert_eq!(h.depth(), 4, "taken frames still occupy the channel");
        // Batch B (6 frames) does not fit: its 4-frame prefix is kept,
        // the rest counted dropped.
        assert_eq!(h.record_batch(&mut batch_of(100..106)), 4);
        assert_eq!(h.depth(), 8);
        let mut accepted = 9u64;
        for i in 0..1000u32 {
            if h.record_frame(&i.to_le_bytes()) {
                accepted += 1;
            }
        }
        gate.store(true, Ordering::Release);
        let (written, stats) = rec.finish().expect("finish");
        assert_eq!(stats.frames, accepted);
        assert_eq!(accepted, 9, "nothing fits while the backend is gated");
        assert_eq!(stats.frames + stats.dropped, 5 + 6 + 1000);
        assert!(stats.max_depth <= 8);
        // Everything accepted was written (conservation), in order:
        // all of A, then B's prefix.
        let want: Vec<Vec<u8>> = (0..5u32)
            .chain(100..104)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        assert_eq!(written, want);
        assert_eq!(stats.drained, 9);
    }

    #[test]
    fn backend_failure_poisons_without_deadlock() {
        let mut backend = MemBackend::new();
        backend.fail_after = Some(3);
        let written = Arc::clone(&backend.written);
        let rec = Recorder::spawn(
            backend,
            RecordingConfig {
                capacity: 2,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        // A batch the backend dies in the middle of, then far more
        // frames than it accepts: blocking pushes must not hang once
        // the backend dies.
        let mut accepted = h.record_batch(&mut batch_of(0..10)) as u64;
        let mut refused = 10 - accepted;
        for i in 0..64u8 {
            if h.record_frame(&[i]) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        assert!(refused > 0, "pushes after the failure are refused");
        let err = rec.finish().expect_err("backend failed");
        assert!(err.to_string().contains("backend full"));
        let stats = h.stats();
        let written = written.load(Ordering::Relaxed);
        assert_eq!(written, 3);
        assert_eq!(stats.frames, accepted);
        // Every offered frame was written or counted dropped, and the
        // accepted ones the failure stranded are among the dropped.
        assert_eq!(written + stats.dropped, 10 + 64);
        assert_eq!(stats.frames, written + (stats.dropped - refused));
    }

    #[test]
    fn stats_are_readable_mid_run() {
        let rec = Recorder::spawn(MemBackend::new(), RecordingConfig::default()).expect("spawn");
        let h = rec.handle();
        assert_eq!(h.stats(), RecorderStats::default());
        h.record_frame(&[1, 2, 3]);
        assert_eq!(h.stats().frames, 1);
        rec.finish().expect("finish");
    }

    /// Waiter-gated wakes lose nothing: a producer thread streams
    /// ~200k frames in batches of 1–7 through a capacity-1 channel, so
    /// nearly every hand-off parks one side. Guarded by a timeout so a
    /// lost wake-up fails instead of hanging.
    #[test]
    fn handoff_stress_recorder_capacity_1() {
        const FRAMES: u32 = 200_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rec = Recorder::spawn(
                MemBackend::new(),
                RecordingConfig {
                    capacity: 1,
                    policy: RecordPolicy::Block,
                },
            )
            .expect("spawn");
            let h = rec.handle();
            let producer = std::thread::spawn(move || {
                let (mut next, mut size) = (0u32, 1u32);
                let mut batch = FrameBatch::new();
                while next < FRAMES {
                    let end = (next + size).min(FRAMES);
                    for f in next..end {
                        batch.push(&f.to_le_bytes());
                    }
                    assert_eq!(h.record_batch(&mut batch), (end - next) as usize);
                    next = end;
                    size = size % 7 + 1;
                }
            });
            producer.join().expect("producer");
            let ((frames, _, _), stats) = rec.finish().expect("finish");
            done_tx.send((frames, stats)).expect("report");
        });
        let (frames, stats) = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("recorder stress finished without a lost wake-up");
        assert_eq!(frames.len(), FRAMES as usize);
        assert!(frames
            .iter()
            .enumerate()
            .all(|(i, f)| f.as_slice() == (i as u32).to_le_bytes()));
        assert_eq!(stats.frames, u64::from(FRAMES));
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.max_depth, 1);
    }
}
