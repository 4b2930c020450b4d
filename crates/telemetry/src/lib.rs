//! # mobisense-telemetry
//!
//! Cross-cutting observability substrate for the `mobisense` workspace:
//!
//! * [`metrics`] — an explicitly-passed registry of monotonic counters,
//!   gauges and fixed-bucket histograms (with streaming quantile
//!   estimation);
//! * [`event`] — a typed event trace with nanosecond sim-clock
//!   timestamps and an optional ring-buffer mode for bounded memory.
//!   [`Event`] is declared once, as a table of variants with their
//!   JSONL tags and fields, from which its JSONL codec is generated;
//! * [`sink`] — the [`Sink`] trait the simulation crates are
//!   instrumented against, with a zero-cost [`NoopSink`] so that
//!   telemetry-off runs pay (almost) nothing;
//! * span-style wall-clock timing of hot paths via [`timed`], recorded
//!   into registry histograms;
//! * [`export`] — JSON-lines and CSV writers and the JSONL parser (on
//!   `mobisense_util::json`, no serde) so benches and integration
//!   tests can dump and diff runs;
//! * [`stage`] — sampled per-frame stage tracing for the serving path
//!   ([`StageTrace`] stamps, [`StageHistograms`] per-stage quantiles);
//! * [`snapshot`] — versioned JSONL snapshots of a full registry for
//!   live ops observation ([`Snapshot`] / [`parse_snapshots`]).
//!
//! ## Design rules
//!
//! Following `mobisense-util`'s reproducibility contract, there is **no
//! global state**: a [`Telemetry`] value is created by the caller and
//! threaded (as `&mut impl Sink`) through the code under observation.
//! Event timestamps come from the *simulation* clock ([`Nanos`]), never
//! from the wall clock, so traces are bit-reproducible per seed. The
//! only wall-clock use is span timing ([`timed`]), which measures host
//! performance and deliberately never feeds back into simulation state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod sink;
pub mod snapshot;
pub mod stage;

pub use event::{Event, EventTrace};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use sink::{timed, NoopSink, Sink};
pub use snapshot::{parse_snapshots, HistogramSummary, Snapshot, SNAPSHOT_VERSION};
pub use stage::{Sampler, Stage, StageHistograms, StageTrace, N_STAGES, STAGE_HIST_NAMES};

use mobisense_util::units::Nanos;

/// A full telemetry capture for one run: a metrics [`Registry`] plus an
/// [`EventTrace`]. Implements [`Sink`], so it plugs directly into any
/// instrumented simulation entry point.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Counters, gauges and histograms for the run.
    pub registry: Registry,
    /// The typed event trace.
    pub trace: EventTrace,
}

impl Telemetry {
    /// Creates an empty capture with an unbounded event trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a capture whose trace keeps only the most recent
    /// `capacity` events (ring-buffer mode).
    pub fn with_ring(capacity: usize) -> Self {
        Telemetry {
            registry: Registry::new(),
            trace: EventTrace::ring(capacity),
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.trace.iter()
    }

    /// The per-interval goodput series recorded by instrumented
    /// simulators, as `(interval end, interval length, payload bits)`.
    pub fn goodput_series(&self) -> Vec<(Nanos, Nanos, u64)> {
        self.trace
            .iter()
            .filter_map(|e| match *e {
                Event::Goodput { at, elapsed, bits } => Some((at, elapsed, bits)),
                _ => None,
            })
            .collect()
    }

    /// Serializes the event trace to JSON-lines.
    pub fn to_jsonl(&self) -> String {
        export::events_to_jsonl(self.trace.iter())
    }
}

impl Sink for Telemetry {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, event: Event) {
        self.trace.push(event);
    }

    fn span_ns(&mut self, name: &'static str, wall_ns: u64) {
        self.registry
            .histogram(name, metrics::SPAN_NS_BUCKETS)
            .observe(wall_ns as f64);
    }

    fn count(&mut self, name: &'static str, n: u64) {
        self.registry.counter(name).add(n);
    }

    fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.registry.gauge(name).set(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_records_events_and_spans() {
        let mut tel = Telemetry::new();
        tel.record(Event::TofMedian { at: 5, cycles: 1.5 });
        tel.record(Event::Goodput {
            at: 10,
            elapsed: 10,
            bits: 800,
        });
        assert_eq!(tel.events().count(), 2);
        assert_eq!(tel.goodput_series(), vec![(10, 10, 800)]);
        tel.span_ns("hot", 123);
        assert_eq!(tel.registry.histogram_names().count(), 1);
    }

    #[test]
    fn ring_mode_bounds_memory() {
        let mut tel = Telemetry::with_ring(2);
        for at in 0..10u64 {
            tel.record(Event::TofMedian {
                at,
                cycles: at as f64,
            });
        }
        assert_eq!(tel.events().count(), 2);
        assert_eq!(tel.trace.dropped(), 8);
        assert_eq!(tel.events().next().expect("first event").at(), 8);
    }
}
