//! Live ops monitoring of a serving run: a background ticker that
//! captures periodic [`Snapshot`]s of queue / recorder health and a
//! stall watchdog flagging sources that stop making progress.
//!
//! The monitor thread owns nothing on the frame path: each tick it
//! reads per-shard queue statistics (depth, the high-water mark since
//! the previous tick, cumulative pops and sheds) and, when a flight
//! recorder is attached, the recording channel's counters and backlog.
//! It serializes them as one `telemetry::snapshot` JSONL block and
//! feeds a [`StallDetector`]: a source whose progress counter is frozen
//! across `stall_intervals` consecutive ticks *while it has pending
//! work* is flagged once per stall episode (re-armed when progress
//! resumes), surfacing as an [`Event::Stall`] in the run's sink.
//!
//! [`Event::Stall`]: mobisense_telemetry::Event::Stall

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mobisense_telemetry::{Registry, Snapshot};

use crate::queue::ShardQueue;
use crate::recording::RecorderHandle;

/// When and how aggressively the ops monitor runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Time between snapshot ticks.
    pub interval: Duration,
    /// Consecutive no-progress intervals before a source is flagged
    /// stalled (the watchdog window).
    pub stall_intervals: u32,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy {
            interval: Duration::from_millis(100),
            stall_intervals: 2,
        }
    }
}

/// One stall the watchdog flagged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallFlag {
    /// The stalled source: `"shard-<n>"` or `"recorder"`.
    pub source: String,
    /// Consecutive no-progress intervals observed when flagged.
    pub intervals: u64,
    /// Items pending at the source when flagged.
    pub backlog: u64,
}

/// Header facts of one captured snapshot (the serialized text lives in
/// [`OpsOutcome::snapshots`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Sequence number within the run (1-based).
    pub seq: u64,
    /// Metrics the snapshot carried.
    pub metrics: u64,
    /// Serialized JSONL size, bytes.
    pub bytes: u64,
}

/// Everything the monitor observed, returned at join time.
#[derive(Clone, Debug, Default)]
pub struct OpsOutcome {
    /// One serialized snapshot block per tick, in order.
    pub snapshots: Vec<String>,
    /// Header facts for each block in [`OpsOutcome::snapshots`].
    pub meta: Vec<SnapshotMeta>,
    /// Stalls flagged, in detection order.
    pub stalls: Vec<StallFlag>,
    /// Ticks the monitor ran (equals `snapshots.len()`).
    pub ticks: u64,
}

/// Pure stall detection over per-source `(progress, backlog)` samples.
///
/// A source stalls when its progress counter is unchanged across
/// `window` consecutive observations while its backlog is non-zero; it
/// fires once per episode and re-arms when progress resumes or the
/// backlog clears. Deterministic — unit tests drive it with synthetic
/// sequences, no threads or clocks involved.
#[derive(Clone, Debug)]
pub struct StallDetector {
    window: u64,
    /// Per source: (last progress value, consecutive stalled ticks,
    /// fired this episode).
    state: Vec<(u64, u64, bool)>,
}

impl StallDetector {
    /// Creates a detector over `sources` sources with the given window
    /// (`window` must be non-zero).
    pub fn new(sources: usize, window: u64) -> Self {
        assert!(window > 0, "stall window must be non-zero");
        StallDetector {
            window,
            state: vec![(0, 0, false); sources],
        }
    }

    /// Feeds one tick of `(progress, backlog)` per source (same order
    /// and length every call). Returns `(source index, stalled
    /// intervals, backlog)` for each source newly flagged this tick.
    pub fn observe(&mut self, samples: &[(u64, u64)]) -> Vec<(usize, u64, u64)> {
        assert_eq!(
            samples.len(),
            self.state.len(),
            "sample count must match source count"
        );
        let mut fired = Vec::new();
        for (i, (&(progress, backlog), state)) in
            samples.iter().zip(self.state.iter_mut()).enumerate()
        {
            let (last, stalled, flagged) = *state;
            if progress == last && backlog > 0 {
                let stalled = stalled + 1;
                let mut flagged = flagged;
                if stalled >= self.window && !flagged {
                    fired.push((i, stalled, backlog));
                    flagged = true;
                }
                *state = (progress, stalled, flagged);
            } else {
                *state = (progress, 0, false);
            }
        }
        fired
    }
}

/// An additional monitored source beyond the shard queues and the
/// recorder. The socket edge registers its reactor through this so
/// connection/byte/frame counters and accept-queue / read-buffer
/// gauges ride the same snapshot blocks — and the same stall watchdog
/// — as everything else.
pub trait OpsSource: Send {
    /// Stable source name for stall flags (e.g. `"edge"`).
    fn name(&self) -> String;

    /// Fills this source's counters and gauges into the tick's registry
    /// and returns the `(progress, backlog)` sample the watchdog
    /// consumes: a frozen progress counter with a non-zero backlog
    /// across consecutive ticks flags the source stalled.
    fn observe(&self, reg: &mut Registry) -> (u64, u64);
}

/// A running ops monitor thread. Create with [`OpsMonitor::spawn`],
/// collect with [`OpsMonitor::stop`] (which takes one final snapshot
/// before returning).
pub struct OpsMonitor {
    thread: std::thread::JoinHandle<OpsOutcome>,
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl OpsMonitor {
    /// Spawns the monitor over the given shard queues, optional
    /// recorder handle and extra sources (watchdog sample order:
    /// shards, recorder, then `sources` in the given order). Errs only
    /// when the OS refuses the thread.
    pub fn spawn(
        queues: Vec<Arc<ShardQueue>>,
        recorder: Option<RecorderHandle>,
        sources: Vec<Box<dyn OpsSource>>,
        policy: SnapshotPolicy,
    ) -> std::io::Result<OpsMonitor> {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("serve-ops".into())
            .spawn(move || {
                run_monitor(&queues, recorder.as_ref(), &sources, policy, &thread_stop)
            })?;
        Ok(OpsMonitor { thread, stop })
    }

    /// Signals the monitor to take one last snapshot and exit, then
    /// joins it and returns everything it observed.
    pub fn stop(self) -> OpsOutcome {
        let (lock, cv) = &*self.stop;
        let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
        *stopped = true;
        drop(stopped);
        cv.notify_all();
        self.thread.join().unwrap_or_default()
    }
}

fn run_monitor(
    queues: &[Arc<ShardQueue>],
    recorder: Option<&RecorderHandle>,
    sources: &[Box<dyn OpsSource>],
    policy: SnapshotPolicy,
    stop: &(Mutex<bool>, Condvar),
) -> OpsOutcome {
    let origin = Instant::now();
    let n_sources = queues.len() + usize::from(recorder.is_some()) + sources.len();
    let mut detector = StallDetector::new(n_sources, policy.stall_intervals.max(1) as u64);
    let mut out = OpsOutcome::default();
    let (lock, cv) = stop;
    loop {
        let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _) = cv
            .wait_timeout(guard, policy.interval)
            .unwrap_or_else(|e| e.into_inner());
        let stopping = *guard;
        drop(guard);

        out.ticks += 1;
        let (mut registry, mut progress) = observe_sources(queues, recorder);
        for src in sources {
            progress.push(src.observe(&mut registry));
        }
        let snap = Snapshot::capture(out.ticks, origin.elapsed().as_nanos() as u64, &registry);
        let text = snap.to_jsonl();
        out.meta.push(SnapshotMeta {
            seq: snap.seq,
            metrics: snap.metrics(),
            bytes: text.len() as u64,
        });
        out.snapshots.push(text);
        let builtin = queues.len() + usize::from(recorder.is_some());
        for (idx, intervals, backlog) in detector.observe(&progress) {
            let source = if idx < queues.len() {
                format!("shard-{idx}")
            } else if idx < builtin {
                "recorder".to_string()
            } else {
                sources[idx - builtin].name()
            };
            out.stalls.push(StallFlag {
                source,
                intervals,
                backlog,
            });
        }
        if stopping {
            return out;
        }
    }
}

/// Reads every source's health into a fresh registry and the
/// per-source `(progress, backlog)` samples the watchdog consumes
/// (shards first, recorder last; extra [`OpsSource`]s are appended by
/// the monitor loop).
fn observe_sources(
    queues: &[Arc<ShardQueue>],
    recorder: Option<&RecorderHandle>,
) -> (Registry, Vec<(u64, u64)>) {
    let mut reg = Registry::new();
    let mut progress = Vec::with_capacity(queues.len() + 1);
    let (mut depth_sum, mut popped_sum, mut shed_sum) = (0u64, 0u64, 0u64);
    let mut high_water = 0u64;
    for q in queues {
        let depth = q.depth() as u64;
        let popped = q.popped();
        depth_sum += depth;
        popped_sum += popped;
        shed_sum += q.shed();
        high_water = high_water.max(q.take_high_water() as u64);
        progress.push((popped, depth));
    }
    reg.counter("serve.queue.popped").add(popped_sum);
    reg.counter("serve.queue.shed").add(shed_sum);
    reg.gauge("serve.queue.depth").set(depth_sum as f64);
    reg.gauge("serve.queue.high_water").set(high_water as f64);
    reg.gauge("serve.shards").set(queues.len() as f64);
    if let Some(rec) = recorder {
        let stats = rec.stats();
        let depth = rec.depth() as u64;
        reg.counter("serve.recorder.frames").add(stats.frames);
        reg.counter("serve.recorder.rows").add(stats.rows);
        reg.counter("serve.recorder.dropped").add(stats.dropped);
        reg.counter("serve.recorder.drained").add(stats.drained);
        reg.gauge("serve.recorder.depth").set(depth as f64);
        reg.gauge("serve.recorder.max_depth")
            .set(stats.max_depth as f64);
        progress.push((stats.drained, depth));
    }
    (reg, progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{OverflowPolicy, Ticket, WorkItem};
    use crate::wire::ObsFrame;
    use mobisense_telemetry::parse_snapshots;

    #[test]
    fn detector_fires_after_exactly_window_intervals() {
        let mut d = StallDetector::new(2, 2);
        // Tick 1: both have backlog, neither has progressed yet — one
        // stalled interval each, no flag.
        assert!(d.observe(&[(0, 4), (0, 1)]).is_empty());
        // Tick 2: source 0 progresses, source 1 is frozen → flagged.
        assert_eq!(d.observe(&[(5, 4), (0, 1)]), vec![(1, 2, 1)]);
        // Tick 3: still frozen — flagged episodes fire only once.
        assert!(d.observe(&[(5, 0), (0, 1)]).is_empty());
        // Progress resumes, then a new stall fires a fresh episode.
        assert!(d.observe(&[(5, 0), (9, 3)]).is_empty());
        assert!(d.observe(&[(5, 0), (9, 3)]).is_empty());
        assert_eq!(d.observe(&[(5, 0), (9, 3)]), vec![(1, 2, 3)]);
    }

    #[test]
    fn detector_needs_backlog_to_stall() {
        let mut d = StallDetector::new(1, 2);
        // Frozen progress with an empty backlog is idle, not stalled.
        for _ in 0..10 {
            assert!(d.observe(&[(7, 0)]).is_empty());
        }
    }

    fn frame(client_id: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id,
            seq,
            at: seq as u64,
            distance_m: 1.0,
            digest: vec![1.0; 4],
        }
    }

    #[test]
    fn monitor_flags_a_gated_shard_and_snapshots_it() {
        // A queue nobody ever pops: backlog stays positive, the popped
        // counter stays frozen, so the watchdog must fire.
        let q = Arc::new(ShardQueue::new(8));
        for seq in 0..5 {
            q.push(
                WorkItem::frame(Ticket::untraced(), frame(1, seq)),
                OverflowPolicy::Block,
            );
        }
        let policy = SnapshotPolicy {
            interval: Duration::from_millis(2),
            stall_intervals: 2,
        };
        let monitor =
            OpsMonitor::spawn(vec![Arc::clone(&q)], None, Vec::new(), policy).expect("spawn");
        // Sleep long enough for several ticks; the stalled state is
        // stable the whole time, so this cannot flake.
        std::thread::sleep(Duration::from_millis(20));
        let out = monitor.stop();
        assert!(out.ticks >= 3, "monitor ticked: {}", out.ticks);
        assert_eq!(out.snapshots.len() as u64, out.ticks);
        assert!(
            out.stalls
                .iter()
                .any(|s| s.source == "shard-0" && s.backlog == 5),
            "stall flagged: {:?}",
            out.stalls
        );
        // Snapshots parse and carry the queue gauges.
        let snaps = parse_snapshots(&out.snapshots.concat()).expect("parses");
        assert_eq!(snaps.len() as u64, out.ticks);
        let last = snaps.last().expect("non-empty");
        assert_eq!(last.gauges["serve.queue.depth"], 5.0);
        assert_eq!(last.counters["serve.queue.popped"], 0);
        q.close();
    }

    #[test]
    fn high_water_gauge_sees_transient_peaks() {
        let q = Arc::new(ShardQueue::new(16));
        for seq in 0..10 {
            q.push(
                WorkItem::frame(Ticket::untraced(), frame(1, seq)),
                OverflowPolicy::Block,
            );
        }
        // Drain fully: instantaneous depth is 0, but the high-water
        // mark since the last read must still show the peak.
        assert!(q.pop_batch(&mut std::collections::VecDeque::new()));
        let (reg, _) = observe_sources(&[Arc::clone(&q)], None);
        assert_eq!(reg.gauge_value("serve.queue.depth"), Some(0.0));
        assert_eq!(reg.gauge_value("serve.queue.high_water"), Some(10.0));
        // The window reset: a second observation reports the current
        // (empty) occupancy, not the stale peak.
        let (reg, _) = observe_sources(&[Arc::clone(&q)], None);
        assert_eq!(reg.gauge_value("serve.queue.high_water"), Some(0.0));
    }
}
