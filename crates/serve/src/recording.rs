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
//! Overflow is an explicit policy, mirroring the ingest queues:
//!
//! * [`RecordPolicy::Block`] — lossless. Producers wait for channel
//!   space, so the store holds **every** served frame and a replay of
//!   it reproduces the live decision log byte-for-byte. Recording
//!   backpressure can slow serving, which the bench measures.
//! * [`RecordPolicy::DropNewest`] — bounded overhead. A full channel
//!   drops the incoming frame and counts it; serving never waits on
//!   the recorder, but the trace is a sample, not a replayable whole.
//!
//! Decision rows always block: they are appended once, after the
//! run, by [`record_golden_log`](crate::service::record_golden_log),
//! and losing one would silently corrupt the golden log.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What a producer does when the recording channel is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordPolicy {
    /// Wait for the recorder thread to drain a slot (lossless; the
    /// recorded trace replays byte-identically).
    Block,
    /// Drop the incoming frame and count it (bounded overhead; the
    /// trace becomes a sample).
    DropNewest,
}

/// Configuration of the recording channel.
#[derive(Clone, Copy, Debug)]
pub struct RecordingConfig {
    /// Channel capacity, in queued records.
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

/// Counters of one recording run, readable at any time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Observation frames accepted onto the channel.
    pub frames: u64,
    /// Decision rows accepted onto the channel.
    pub rows: u64,
    /// Frames dropped by [`RecordPolicy::DropNewest`] (or arriving
    /// after a backend failure closed the channel).
    pub dropped: u64,
    /// Deepest channel occupancy observed.
    pub max_depth: u64,
    /// Records the recorder thread has handed to the backend — the
    /// stall watchdog's progress counter for the recorder.
    pub drained: u64,
}

enum Msg {
    Frame(Vec<u8>),
    Row(String),
}

#[derive(Default)]
struct ChannelInner {
    q: VecDeque<Msg>,
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
            frames: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Enqueues one message. Returns `false` when the message was
    /// dropped (DropNewest overflow, or the channel closed because the
    /// backend failed). `block` forces the lossless path regardless of
    /// the frame policy (decision rows use this).
    fn push(&self, msg: Msg, policy: RecordPolicy, block: bool) -> bool {
        let mut inner = self.lock_recovered();
        if !block && policy == RecordPolicy::DropNewest && inner.q.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        while inner.q.len() >= self.capacity && !inner.closed {
            // lint: hot-path -- lossless-policy backpressure: the producer parks until the backend drains (woken by pop/close)
            inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        if inner.closed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        inner.q.push_back(msg);
        self.max_depth
            .fetch_max(inner.q.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the oldest message, calling `on_idle` once whenever
    /// the queue transitions to empty while still open (so the backend
    /// can flush between bursts). Returns `None` once closed and
    /// drained.
    fn pop(&self, on_idle: &mut dyn FnMut()) -> Option<Msg> {
        let mut idled = false;
        let mut inner = self.lock_recovered();
        loop {
            if let Some(msg) = inner.q.pop_front() {
                drop(inner);
                self.drained.fetch_add(1, Ordering::Relaxed);
                self.not_full.notify_one();
                return Some(msg);
            }
            if inner.closed {
                return None;
            }
            if !idled {
                // Flush outside the lock: producers keep enqueueing.
                drop(inner);
                on_idle();
                idled = true;
                inner = self.lock_recovered();
                continue;
            }
            inner = self
                .not_empty
                .wait(inner) // lint: hot-path -- drain loop idles until a producer enqueues (woken by push/close)
                .unwrap_or_else(|e| e.into_inner());
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
    /// records can never be written; leaving them would park blocking
    /// producers forever.
    fn poison(&self) {
        let mut inner = self.lock_recovered();
        inner.closed = true;
        self.dropped
            .fetch_add(inner.q.len() as u64, Ordering::Relaxed);
        inner.q.clear();
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Locks the channel, recovering from poisoning: the recorder
    /// thread holds this lock only around queue ops that cannot leave
    /// the queue malformed, so a panicking peer must not cascade.
    fn lock_recovered(&self) -> std::sync::MutexGuard<'_, ChannelInner> {
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
    /// Submits one wire-encoded observation frame. Returns `false`
    /// when the frame was dropped (overflow under
    /// [`RecordPolicy::DropNewest`], or backend failure).
    pub fn record_frame(&self, bytes: &[u8]) -> bool {
        let ok = self
            .chan
            .push(Msg::Frame(bytes.to_vec()), self.policy, false);
        if ok {
            self.chan.frames.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Submits one decision-log row. Always lossless (blocks on a full
    /// channel): rows are the golden log, and there are few of them.
    pub fn record_row(&self, row: &str) -> bool {
        let ok = self.chan.push(Msg::Row(row.to_owned()), self.policy, true);
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

    /// Current channel occupancy — the recorder backlog gauge. Takes
    /// the channel lock, so it belongs on monitoring paths, not the
    /// frame path.
    pub fn depth(&self) -> usize {
        self.chan.lock_recovered().q.len()
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

fn run_backend<B: RecordBackend>(mut backend: B, chan: &Channel) -> io::Result<B::Output> {
    let result = loop {
        let mut idle_err = None;
        let msg = chan.pop(&mut || {
            if let Err(e) = backend.idle() {
                idle_err = Some(e);
            }
        });
        if let Some(e) = idle_err {
            break Err(e);
        }
        match msg {
            Some(Msg::Frame(bytes)) => {
                if let Err(e) = backend.record_frame(&bytes) {
                    break Err(e);
                }
            }
            Some(Msg::Row(row)) => {
                if let Err(e) = backend.record_row(&row) {
                    break Err(e);
                }
            }
            None => break Ok(()),
        }
    };
    match result {
        Ok(()) => backend.finish(),
        Err(e) => {
            // Unblock producers before surfacing the failure; their
            // frames count as dropped from here on.
            chan.poison();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Collects everything in memory; optionally fails after N frames.
    struct MemBackend {
        frames: Vec<Vec<u8>>,
        rows: Vec<String>,
        idles: u64,
        fail_after: Option<usize>,
    }

    impl MemBackend {
        fn new() -> Self {
            MemBackend {
                frames: Vec::new(),
                rows: Vec::new(),
                idles: 0,
                fail_after: None,
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
        assert!(h.record_row("0,done"));
        let ((frames, rows, idles), stats) = rec.finish().expect("finish");
        assert_eq!(frames.len(), 100);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.as_slice(), &[i as u8, (i as u8).wrapping_mul(3)]);
        }
        assert_eq!(rows, vec!["0,done"]);
        assert_eq!(stats.frames, 100);
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.dropped, 0);
        assert!(stats.max_depth >= 1 && stats.max_depth <= 4);
        assert!(idles >= 1, "idle flush ran at least once");
    }

    #[test]
    fn drop_newest_bounds_the_queue_and_counts() {
        // A backend that blocks until released, so the channel must
        // fill and the policy must engage deterministically.
        struct Gated(Arc<AtomicBool>, Vec<Vec<u8>>);
        impl RecordBackend for Gated {
            type Output = usize;
            fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
                while !self.0.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                self.1.push(bytes.to_vec());
                Ok(())
            }
            fn record_row(&mut self, _row: &str) -> io::Result<()> {
                Ok(())
            }
            fn finish(self) -> io::Result<usize> {
                Ok(self.1.len())
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let rec = Recorder::spawn(
            Gated(Arc::clone(&gate), Vec::new()),
            RecordingConfig {
                capacity: 8,
                policy: RecordPolicy::DropNewest,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        let mut accepted = 0u64;
        for i in 0..1000u32 {
            if h.record_frame(&i.to_le_bytes()) {
                accepted += 1;
            }
        }
        gate.store(true, Ordering::Release);
        let (written, stats) = rec.finish().expect("finish");
        assert_eq!(stats.frames, accepted);
        assert_eq!(stats.frames + stats.dropped, 1000);
        assert!(stats.dropped > 0, "tiny gated channel must drop");
        assert!(stats.max_depth <= 8);
        // Everything accepted was written (conservation).
        assert_eq!(written as u64, accepted);
    }

    #[test]
    fn backend_failure_poisons_without_deadlock() {
        let mut backend = MemBackend::new();
        backend.fail_after = Some(3);
        let rec = Recorder::spawn(
            backend,
            RecordingConfig {
                capacity: 2,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        // Far more frames than the backend accepts: blocking pushes
        // must not hang once the backend dies.
        let mut all_accepted = true;
        for i in 0..64u8 {
            all_accepted &= h.record_frame(&[i]);
        }
        assert!(!all_accepted, "pushes after the failure are refused");
        let err = rec.finish().expect_err("backend failed");
        assert!(err.to_string().contains("backend full"));
        assert!(h.stats().dropped > 0);
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
}
