//! Typed event trace with sim-clock timestamps.
//!
//! Events carry only primitive payloads (`String` labels, numeric ids)
//! so this crate sits below the simulation crates in the dependency
//! graph: anything from `core` up can emit events without `telemetry`
//! knowing its types.

use std::collections::VecDeque;

use mobisense_util::json::{self, Field as _};
use mobisense_util::units::Nanos;

/// Declares [`Event`] from one table. Each row is a variant: its JSONL
/// `"type"` tag and its documented fields, in JSONL order. The table
/// generates the enum, [`Event::at`], [`Event::kind`], the tag list and
/// both directions of the JSONL codec, so a variant, a field or a tag
/// is written once and the encoder and parser cannot disagree.
macro_rules! event_table {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)+
        }
    )+) => {
        /// One telemetry event, stamped with the *simulation* clock (`at`, in
        /// nanoseconds since run start) — never the wall clock, so traces are
        /// bit-reproducible per seed.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)+ },)+
        }

        /// Every variant's `"type"` tag, in table order.
        pub const KINDS: &[&str] = &[$($tag),+];

        impl Event {
            /// The event's sim-clock timestamp.
            pub fn at(&self) -> Nanos {
                match *self {
                    $(Event::$variant { at, .. })|+ => at,
                }
            }

            /// Stable snake-case tag identifying the variant (the `"type"`
            /// field of the JSONL encoding).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)+
                }
            }

            /// Appends the event as one flat JSON object: the `"type"` tag,
            /// then the fields in table order.
            pub(crate) fn write_json(&self, out: &mut String) {
                match self {
                    $(Event::$variant { $($field),+ } => {
                        out.push_str(concat!("{\"type\":\"", $tag, "\""));
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write(out);
                        )+
                    })+
                }
                out.push('}');
            }

            /// Reads an event from a flat JSON object written by
            /// [`Event::write_json`].
            pub(crate) fn read_json(obj: &json::Object) -> Result<Event, String> {
                match obj.get::<String>("type")?.as_str() {
                    $($tag => Ok(Event::$variant { $($field: obj.get(stringify!($field))?,)+ }),)+
                    other => Err(format!("unknown event type {other:?}")),
                }
            }
        }
    };
}

event_table! {
    /// The mobility classifier published a decision.
    Decision = "decision" {
        /// Sim time of the decision.
        at: Nanos,
        /// Decided mobility mode label (`MobilityMode::label()`).
        mode: String,
        /// Macro-mobility direction label, when resolved.
        direction: Option<String>,
    }
    /// A ToF median over one measurement window was produced.
    TofMedian = "tof_median" {
        /// Sim time the window closed.
        at: Nanos,
        /// Median time-of-flight, in 88 MHz clock cycles.
        cycles: f64,
    }
    /// The rate adapter switched MCS between consecutive A-MPDUs.
    RateChange = "rate_change" {
        /// Sim time of the first frame at the new rate.
        at: Nanos,
        /// Previous MCS index.
        from_mcs: u8,
        /// New MCS index.
        to_mcs: u8,
    }
    /// A station re-associated to a different AP.
    Handoff = "handoff" {
        /// Sim time the roam completed.
        at: Nanos,
        /// Previous AP id.
        from_ap: u32,
        /// New AP id.
        to_ap: u32,
    }
    /// A beamforming sounding (CSI feedback) exchange occurred.
    Beamsound = "beamsound" {
        /// Sim time of the sounding.
        at: Nanos,
        /// AP id performing the sounding.
        ap: u32,
    }
    /// One A-MPDU transmission attempt finished.
    AmpduTx = "ampdu_tx" {
        /// Sim time the A-MPDU exchange completed.
        at: Nanos,
        /// MCS index used.
        mcs: u8,
        /// MPDUs aggregated in the frame.
        n_mpdus: u32,
        /// MPDUs delivered (acked).
        n_delivered: u32,
        /// Airtime consumed by the exchange.
        airtime: Nanos,
    }
    /// Payload bits delivered during one accounting interval.
    Goodput = "goodput" {
        /// Sim time the interval ended.
        at: Nanos,
        /// Interval length.
        elapsed: Nanos,
        /// Payload bits delivered within the interval.
        bits: u64,
    }
    /// One serving shard's end-of-run accounting (`mobisense-serve`).
    ServeShard = "serve_shard" {
        /// Sim time of the last frame the shard processed.
        at: Nanos,
        /// Shard index.
        shard: u32,
        /// Frames the shard worker processed.
        frames: u64,
        /// Mode-transition decisions the shard emitted.
        decisions: u64,
        /// Frames shed by the shard's bounded ingest queue.
        shed: u64,
        /// Deepest ingest-queue occupancy the worker observed.
        max_depth: u64,
    }
    /// The trace store sealed one segment (`mobisense-store`).
    StoreSegment = "store_segment" {
        /// Sim time of the newest frame in the segment (0 for
        /// segments holding no observation frames).
        at: Nanos,
        /// Segment id.
        segment: u64,
        /// Observation frames the segment holds.
        frames: u64,
        /// Sealed segment size on disk, bytes.
        bytes: u64,
    }
    /// The trace store salvaged or skipped damaged data during a
    /// recovering read (`mobisense-store`).
    StoreRecovery = "store_recovery" {
        /// Sim time of the newest frame recovered from the damaged
        /// segment (0 when nothing was salvageable).
        at: Nanos,
        /// The damaged segment's id.
        segment: u64,
        /// Frames salvaged from the segment's good prefix.
        frames: u64,
        /// Frames known lost (sealed segments record their count; 0
        /// when the loss is unknowable, e.g. a truncated tail).
        lost: u64,
    }
    /// End-of-run accounting of the background flight recorder behind
    /// the serving layer (`mobisense-serve`).
    ServeRecorder = "serve_recorder" {
        /// Sim time of the last frame the run consumed.
        at: Nanos,
        /// Observation frames accepted onto the recording channel.
        frames: u64,
        /// Decision-log rows accepted onto the recording channel.
        rows: u64,
        /// Frames dropped by the `DropNewest` overflow policy.
        dropped: u64,
        /// Deepest recording-queue occupancy observed.
        max_depth: u64,
    }
    /// The trace store's retention policy deleted one sealed segment
    /// (`mobisense-store`).
    StoreRetention = "store_retention" {
        /// Sim time of the newest frame the deleted segment held.
        at: Nanos,
        /// The deleted segment's id.
        segment: u64,
        /// Observation frames the segment held.
        frames: u64,
        /// Bytes freed on disk.
        bytes: u64,
    }
    /// The serving layer's stall watchdog saw a shard or recorder make
    /// no progress across consecutive snapshot intervals while work was
    /// pending (`mobisense-serve`). `at` is 0: stalls are wall-clock
    /// phenomena observed outside the simulation clock.
    Stall = "stall" {
        /// Sim time (always 0; see above).
        at: Nanos,
        /// The stalled source, e.g. `"shard-3"` or `"recorder"`.
        source: String,
        /// Consecutive no-progress snapshot intervals observed.
        intervals: u64,
        /// Items pending at the stalled source when flagged.
        backlog: u64,
    }
    /// The serving layer's ops monitor captured one live registry
    /// snapshot (`telemetry::snapshot` JSONL block). `at` is 0 for the
    /// same reason as [`Event::Stall`].
    Snapshot = "snapshot" {
        /// Sim time (always 0; see above).
        at: Nanos,
        /// The snapshot's sequence number within the run.
        seq: u64,
        /// Metrics the snapshot carried.
        metrics: u64,
        /// Serialized size of the JSONL block, bytes.
        bytes: u64,
    }
    /// One socket connection's lifecycle accounting from the network
    /// edge (`mobisense-edge`), emitted when the connection closes.
    EdgeConn = "edge_conn" {
        /// Sim time of the last frame decoded on the connection (0 when
        /// it closed before delivering a whole frame).
        at: Nanos,
        /// Reactor-assigned connection id (accept order, starting
        /// at 0).
        conn: u64,
        /// Whole frames decoded and accepted off this connection.
        frames: u64,
        /// Payload bytes read from the socket.
        bytes: u64,
        /// Resync scans the framing layer ran over corrupt input.
        resyncs: u64,
        /// How the connection ended: `"eof"` (clean close),
        /// `"reset"` (I/O error), `"rejected"` (over the connection
        /// limit) or `"oversize"` (a frame exceeded the read-buffer
        /// cap).
        outcome: String,
    }
    /// End-of-run accounting of the socket ingestion frontend
    /// (`mobisense-edge`).
    EdgeServe = "edge_serve" {
        /// Sim time of the newest frame the edge accepted (0 when no
        /// frame ever decoded).
        at: Nanos,
        /// Connections accepted over the run.
        conns: u64,
        /// Connections rejected (accept-limit overflow).
        rejected_conns: u64,
        /// Frames decoded and submitted to the shard queues.
        frames: u64,
        /// Frames the edge itself rejected before submission
        /// (post-kill arrivals on a condemned connection).
        rejected_frames: u64,
        /// Total payload bytes read off all sockets.
        bytes: u64,
        /// UDP datagrams received.
        datagrams: u64,
    }
    /// A shard worker paged an idle client's session out of the hot set
    /// (`mobisense-serve`): the session was snapshotted into the
    /// configured pager and its resident state dropped.
    SessionHibernate = "session_hibernate" {
        /// Sim time of the worker tick that retired the session.
        at: Nanos,
        /// The hibernated client.
        client_id: u32,
        /// Shard whose worker paged the session out.
        shard: u32,
        /// Encoded snapshot size, bytes.
        bytes: u64,
    }
    /// A hibernated session was faulted back in on its client's next
    /// frame (`mobisense-serve`).
    SessionRestore = "session_restore" {
        /// Sim time of the frame that triggered the fault-in.
        at: Nanos,
        /// The restored client.
        client_id: u32,
        /// Shard whose worker faulted the session in.
        shard: u32,
        /// Wall-clock fault-in latency (page-in + decode + restore),
        /// nanoseconds. Telemetry only, never decisions.
        wait_ns: u64,
    }
    /// A live session migrated between shard workers
    /// (`mobisense-serve`): drained at the source, snapshotted,
    /// transferred, and resumed at the target with zero decision-log
    /// divergence.
    SessionMigrate = "session_migrate" {
        /// Sim time of the client's last activity before the move (0
        /// when the client had no live session to move).
        at: Nanos,
        /// The migrated client.
        client_id: u32,
        /// Source shard.
        from_shard: u32,
        /// Target shard.
        to_shard: u32,
        /// Encoded snapshot size transferred, bytes (0 when the client
        /// had no session and the target starts it fresh).
        bytes: u64,
    }
    /// The trace store finished one compaction pass
    /// (`mobisense-store`).
    StoreCompaction = "store_compaction" {
        /// Sim time of the newest frame carried into the compacted
        /// output (0 when nothing survived).
        at: Nanos,
        /// Sealed segments consumed.
        segments_in: u64,
        /// Sealed segments written.
        segments_out: u64,
        /// Records (frames and rows) carried across.
        records: u64,
        /// Input bytes read.
        bytes_in: u64,
        /// Output bytes written.
        bytes_out: u64,
    }
}

/// An append-only sequence of [`Event`]s, optionally bounded.
///
/// Unbounded by default; [`EventTrace::ring`] keeps only the most
/// recent `capacity` events and counts what it evicts, so long soak
/// runs can stay within fixed memory.
#[derive(Clone, Debug, Default)]
pub struct EventTrace {
    events: VecDeque<Event>,
    capacity: Option<usize>,
    dropped: u64,
}

impl EventTrace {
    /// Creates an empty, unbounded trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace that retains only the most recent `capacity`
    /// events (`capacity` must be non-zero).
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        EventTrace {
            events: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest in ring mode.
    pub fn push(&mut self, event: Event) {
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by ring mode since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes all retained events (the dropped count is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Extend<Event> for EventTrace {
    fn extend<T: IntoIterator<Item = Event>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Nanos) -> Event {
        Event::Beamsound { at, ap: 1 }
    }

    #[test]
    fn unbounded_trace_keeps_everything() {
        let mut t = EventTrace::new();
        for at in 0..1000 {
            t.push(ev(at));
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.dropped(), 0);
        assert!(!t.is_empty());
    }

    #[test]
    fn ring_trace_evicts_oldest_and_counts() {
        let mut t = EventTrace::ring(3);
        for at in 0..7 {
            t.push(ev(at));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 4);
        let ats: Vec<Nanos> = t.iter().map(Event::at).collect();
        assert_eq!(ats, vec![4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_ring_panics() {
        EventTrace::ring(0);
    }

    #[test]
    fn kind_tags_are_stable() {
        let e = Event::AmpduTx {
            at: 0,
            mcs: 7,
            n_mpdus: 16,
            n_delivered: 15,
            airtime: 1000,
        };
        assert_eq!(e.kind(), "ampdu_tx");
        assert_eq!(e.at(), 0);
        assert_eq!(
            Event::Decision {
                at: 9,
                mode: "static".into(),
                direction: None
            }
            .kind(),
            "decision"
        );
    }

    #[test]
    fn clear_keeps_dropped_count() {
        let mut t = EventTrace::ring(1);
        t.push(ev(0));
        t.push(ev(1));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
