//! Per-frame stage tracing for the serving path.
//!
//! A [`StageTrace`] is a fixed-size array of wall-clock timestamps, one
//! per pipeline stage, stamped as a frame moves ingest → record →
//! enqueue → dequeue → fault-in → classify → decide → retire. Fault-in
//! and retire are marked only on frames that paged a session in or out,
//! so resident frames leave both slots empty. Traces are sampled 1-in-N by
//! a [`Sampler`] so the hot path pays only a counter increment for the
//! other N−1 frames, and folded into [`StageHistograms`] (per-stage
//! fixed-bucket histograms over [`SPAN_NS_BUCKETS`]) by each shard
//! worker locally — merged at join time like every other serve metric,
//! so no lock is shared while frames flow.
//!
//! Stage timing is *wall-clock* host performance measurement, the one
//! permitted wall-clock use in this workspace: it never feeds back into
//! simulation state, and the decision log is byte-identical with
//! tracing on or off (pinned by `xtests`).

use std::time::Instant;

use crate::metrics::{Histogram, Registry, SPAN_NS_BUCKETS};

/// Number of traced pipeline stages.
pub const N_STAGES: usize = 8;

/// One stage of the serving pipeline, in chronological order.
///
/// `Record` sits between `Ingest` and `Enqueue` because the flight
/// recorder tees the encoded frame off in the producer, before the
/// observation enters the shard queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The producer materialized the frame (trace origin; delta 0).
    Ingest = 0,
    /// The flight recorder accepted the teed-off encoded frame.
    Record = 1,
    /// The frame entered the shard queue (stamped after any
    /// backpressure wait, immediately before insertion).
    Enqueue = 2,
    /// A shard worker popped the frame off the queue.
    Dequeue = 3,
    /// The client's hibernated session was paged in, decoded and
    /// restored (marked only on frames that faulted a session in).
    FaultIn = 4,
    /// The mobility classifier consumed the frame's profile.
    Classify = 5,
    /// A mode-transition decision was published for the frame.
    Decide = 6,
    /// Retirement after the frame paged at least one session out
    /// (marked only then).
    Retire = 7,
}

impl Stage {
    /// All stages, chronological.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Ingest,
        Stage::Record,
        Stage::Enqueue,
        Stage::Dequeue,
        Stage::FaultIn,
        Stage::Classify,
        Stage::Decide,
        Stage::Retire,
    ];

    /// Position in the fixed timestamp array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Record => "record",
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "dequeue",
            Stage::FaultIn => "fault_in",
            Stage::Classify => "classify",
            Stage::Decide => "decide",
            Stage::Retire => "retire",
        }
    }
}

/// Registry/snapshot names for the per-stage delta histograms kept by
/// [`StageHistograms`], index-aligned with [`Stage::ALL`]. Index 0
/// (`stage.total`) holds the end-to-end ingest→last-marked-stage span
/// instead of a delta (ingest itself has no predecessor).
pub const STAGE_HIST_NAMES: [&str; N_STAGES] = [
    "stage.total",
    "stage.record",
    "stage.enqueue",
    "stage.queue_wait",
    "stage.fault_in",
    "stage.classify",
    "stage.decide",
    "stage.retire",
];

/// Per-frame stage timestamps: one wall-clock origin plus elapsed
/// nanoseconds per marked stage. `Copy` and fixed-size so it rides
/// inside a queue item without allocation.
#[derive(Clone, Copy, Debug)]
pub struct StageTrace {
    origin: Instant,
    marks: [u64; N_STAGES],
    seen: u8,
}

impl StageTrace {
    /// Starts a trace at the `Ingest` stage (mark 0 at the origin).
    pub fn start() -> Self {
        Self::start_at(Instant::now())
    }

    /// Starts a trace at an already-taken `origin` instant, so a caller
    /// that just read the clock for its own bookkeeping (e.g. an ingest
    /// ticket) does not pay a second read.
    pub fn start_at(origin: Instant) -> Self {
        StageTrace {
            origin,
            marks: [0; N_STAGES],
            seen: 1 << Stage::Ingest.index(),
        }
    }

    /// Stamps `stage` with the nanoseconds elapsed since the origin.
    #[inline]
    pub fn mark(&mut self, stage: Stage) {
        self.mark_at(stage, Instant::now());
    }

    /// Stamps `stage` using an already-taken `now` instant — the
    /// one-clock-read variant for call sites that need the same instant
    /// for other telemetry (saturates to 0 if `now` predates the
    /// origin).
    #[inline]
    pub fn mark_at(&mut self, stage: Stage, now: Instant) {
        let i = stage.index();
        self.marks[i] = now.saturating_duration_since(self.origin).as_nanos() as u64;
        self.seen |= 1 << i;
    }

    /// Whether `stage` has been stamped.
    #[inline]
    pub fn is_marked(&self, stage: Stage) -> bool {
        self.seen & (1 << stage.index()) != 0
    }

    /// Elapsed nanoseconds from the origin to `stage`, when stamped.
    pub fn mark_ns(&self, stage: Stage) -> Option<u64> {
        self.is_marked(stage).then(|| self.marks[stage.index()])
    }
}

/// Samples 1-in-N frames for stage tracing; `every == 0` disables
/// tracing entirely (the production default).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sampler {
    every: u32,
    n: u32,
}

impl Sampler {
    /// Creates a sampler selecting every `every`-th call (0 = never).
    pub fn every(every: u32) -> Self {
        Sampler { every, n: 0 }
    }

    /// Advances the counter; `true` when this frame should be traced.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.n += 1;
        if self.n >= self.every {
            self.n = 0;
            true
        } else {
            false
        }
    }
}

/// Per-stage latency histograms over [`SPAN_NS_BUCKETS`].
///
/// Each stage's histogram records the delta from the *previous marked*
/// stage, so a trace with no recorder tee still yields clean enqueue /
/// queue-wait / classify spans. Index 0 records the end-to-end span
/// from ingest to the last marked stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageHistograms {
    hists: [Histogram; N_STAGES],
}

impl Default for StageHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl StageHistograms {
    /// Creates empty per-stage histograms.
    pub fn new() -> Self {
        StageHistograms {
            hists: std::array::from_fn(|_| Histogram::with_buckets(SPAN_NS_BUCKETS)),
        }
    }

    /// Folds one finished trace in: per-stage deltas plus the total.
    pub fn observe_trace(&mut self, trace: &StageTrace) {
        let mut prev = 0u64;
        for stage in &Stage::ALL[1..] {
            if let Some(ns) = trace.mark_ns(*stage) {
                self.hists[stage.index()].observe(ns.saturating_sub(prev) as f64);
                prev = ns;
            }
        }
        self.hists[0].observe(prev as f64);
    }

    /// The histogram for `stage` (index 0 / `Ingest` is the total).
    pub fn get(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.index()]
    }

    /// Traces folded in so far (count of the total histogram).
    pub fn traces(&self) -> u64 {
        self.hists[0].count()
    }

    /// Folds another set of stage histograms into this one (shard
    /// workers record locally and merge at join time).
    pub fn merge(&mut self, other: &StageHistograms) {
        for (h, o) in self.hists.iter_mut().zip(&other.hists) {
            h.merge(o);
        }
    }

    /// Copies every non-empty stage histogram into `registry` under
    /// its [`STAGE_HIST_NAMES`] name, for snapshot export.
    pub fn fill_registry(&self, registry: &mut Registry) {
        for (h, name) in self.hists.iter().zip(STAGE_HIST_NAMES) {
            if h.count() > 0 {
                registry.histogram(name, SPAN_NS_BUCKETS).merge(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_marks_accumulate_in_order() {
        let mut t = StageTrace::start();
        assert!(t.is_marked(Stage::Ingest));
        assert_eq!(t.mark_ns(Stage::Ingest), Some(0));
        assert!(!t.is_marked(Stage::Decide));
        t.mark(Stage::Enqueue);
        t.mark(Stage::Dequeue);
        let enq = t.mark_ns(Stage::Enqueue).expect("marked");
        let deq = t.mark_ns(Stage::Dequeue).expect("marked");
        assert!(deq >= enq, "monotonic marks: {enq} then {deq}");
        assert_eq!(t.mark_ns(Stage::Record), None);
    }

    #[test]
    fn sampler_selects_one_in_n() {
        let mut s = Sampler::every(4);
        let picks: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(picks.iter().filter(|&&p| p).count(), 2);
        assert!(picks[3] && picks[7], "{picks:?}");
        let mut off = Sampler::every(0);
        assert!((0..100).all(|_| !off.sample()));
        let mut all = Sampler::every(1);
        assert!((0..10).all(|_| all.sample()));
    }

    #[test]
    fn histograms_skip_unmarked_stages() {
        let mut t = StageTrace::start();
        t.mark(Stage::Enqueue);
        t.mark(Stage::Dequeue);
        t.mark(Stage::Classify);
        let mut h = StageHistograms::new();
        h.observe_trace(&t);
        assert_eq!(h.traces(), 1);
        assert_eq!(h.get(Stage::Record).count(), 0);
        assert_eq!(h.get(Stage::Decide).count(), 0);
        for s in [Stage::Enqueue, Stage::Dequeue, Stage::Classify] {
            assert_eq!(h.get(s).count(), 1, "{}", s.name());
        }
        // Total equals the last marked stage's offset from ingest.
        assert_eq!(
            h.get(Stage::Ingest).sum(),
            t.mark_ns(Stage::Classify).expect("marked") as f64
        );
    }

    #[test]
    fn fault_in_and_retire_sit_between_the_worker_stages() {
        let mut t = StageTrace::start();
        for s in [
            Stage::Dequeue,
            Stage::FaultIn,
            Stage::Classify,
            Stage::Decide,
            Stage::Retire,
        ] {
            t.mark(s);
        }
        let mut h = StageHistograms::new();
        h.observe_trace(&t);
        for s in Stage::ALL {
            assert_eq!(
                h.get(s).count(),
                u64::from(s != Stage::Record && s != Stage::Enqueue)
            );
        }
        // Classify measures from fault-in, and the total ends at retire.
        let ns = |s| t.mark_ns(s).expect("marked") as f64;
        assert_eq!(
            h.get(Stage::Classify).sum(),
            ns(Stage::Classify) - ns(Stage::FaultIn)
        );
        assert_eq!(h.get(Stage::Ingest).sum(), ns(Stage::Retire));
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "ingest", "record", "enqueue", "dequeue", "fault_in", "classify", "decide",
                "retire"
            ]
        );
        assert_eq!(STAGE_HIST_NAMES[Stage::FaultIn.index()], "stage.fault_in");
        assert_eq!(STAGE_HIST_NAMES[Stage::Retire.index()], "stage.retire");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = StageHistograms::new();
        let mut b = StageHistograms::new();
        let mut t = StageTrace::start();
        t.mark(Stage::Enqueue);
        a.observe_trace(&t);
        b.observe_trace(&t);
        b.observe_trace(&t);
        a.merge(&b);
        assert_eq!(a.traces(), 3);
    }

    #[test]
    fn fill_registry_uses_stable_names() {
        let mut t = StageTrace::start();
        t.mark(Stage::Enqueue);
        t.mark(Stage::Dequeue);
        let mut h = StageHistograms::new();
        h.observe_trace(&t);
        let mut reg = Registry::new();
        h.fill_registry(&mut reg);
        let names: Vec<&str> = reg.histogram_names().collect();
        assert_eq!(
            names,
            vec!["stage.enqueue", "stage.queue_wait", "stage.total"]
        );
    }
}
