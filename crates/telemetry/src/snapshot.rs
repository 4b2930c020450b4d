//! Versioned live-ops snapshots of a metrics [`Registry`].
//!
//! A [`Snapshot`] is one point-in-time serialization of every metric in
//! a registry — counters, gauges, and histograms reduced to
//! count/mean/min/max plus p50/p90/p99 — as a block of JSONL: one
//! header line (`"type":"ops_snapshot"`, schema [`SNAPSHOT_VERSION`],
//! sequence number, wall-clock offset, metric count) followed by one
//! line per metric. Blocks concatenate, so a periodic ticker appends to
//! a single stream that [`parse_snapshots`] splits back apart, checking
//! the header's declared metric count against what actually follows.
//!
//! The serving layer's ops monitor emits these on a timer while frames
//! flow (`serve::ops`); anything holding a registry can emit one on
//! demand.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mobisense_util::json::{self, Num, Str};

use crate::metrics::Registry;

/// Schema version stamped into every snapshot header.
pub const SNAPSHOT_VERSION: u64 = 1;

/// A histogram reduced to its summary statistics. All-zero when the
/// histogram had no observations (`count == 0`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// One point-in-time capture of a registry's metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic sequence number within the emitting stream.
    pub seq: u64,
    /// Wall-clock nanoseconds since the emitter started.
    pub wall_ns: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Captures every metric currently in `registry`.
    pub fn capture(seq: u64, wall_ns: u64, registry: &Registry) -> Snapshot {
        let mut snap = Snapshot {
            seq,
            wall_ns,
            ..Snapshot::default()
        };
        for name in registry.counter_names() {
            let v = registry.counter_value(name).unwrap_or(0);
            snap.counters.insert(name.to_string(), v);
        }
        for name in registry.gauge_names() {
            let v = registry.gauge_value(name).unwrap_or(0.0);
            snap.gauges.insert(name.to_string(), v);
        }
        for name in registry.histogram_names() {
            let h = registry.get_histogram(name).expect("name from iterator");
            let q = |p: f64| h.quantile(p).unwrap_or(0.0);
            snap.histograms.insert(
                name.to_string(),
                HistogramSummary {
                    count: h.count(),
                    mean: h.mean().unwrap_or(0.0),
                    min: h.min().unwrap_or(0.0),
                    max: h.max().unwrap_or(0.0),
                    p50: q(0.50),
                    p90: q(0.90),
                    p99: q(0.99),
                },
            );
        }
        snap
    }

    /// Total metrics captured (what the header's `metrics` field
    /// declares).
    pub fn metrics(&self) -> u64 {
        (self.counters.len() + self.gauges.len() + self.histograms.len()) as u64
    }

    /// Serializes the snapshot as one JSONL block: header line plus one
    /// line per metric, sorted by kind then name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.metrics() as usize);
        let _ = writeln!(
            out,
            "{{\"type\":\"ops_snapshot\",\"version\":{SNAPSHOT_VERSION},\"seq\":{},\
             \"wall_ns\":{},\"metrics\":{}}}",
            self.seq,
            self.wall_ns,
            self.metrics()
        );
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}",
                Str(name)
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                Str(name),
                Num(*v)
            );
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"mean\":{},\"min\":{},\
                 \"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                Str(name),
                h.count,
                Num(h.mean),
                Num(h.min),
                Num(h.max),
                Num(h.p50),
                Num(h.p90),
                Num(h.p99),
            );
        }
        out
    }
}

/// Parses a stream of concatenated snapshot blocks produced by
/// [`Snapshot::to_jsonl`], preserving order. Blank lines are ignored.
/// Fails on unknown schema versions, metric lines outside a block,
/// duplicate metric names within a block, or a header whose declared
/// metric count disagrees with the lines that follow.
pub fn parse_snapshots(text: &str) -> Result<Vec<Snapshot>, String> {
    let mut out: Vec<Snapshot> = Vec::new();
    let mut declared: Option<u64> = None;
    let close = |snap: &Snapshot, declared: Option<u64>| -> Result<(), String> {
        match declared {
            Some(want) if want != snap.metrics() => Err(format!(
                "snapshot seq {} declared {want} metrics but carried {}",
                snap.seq,
                snap.metrics()
            )),
            _ => Ok(()),
        }
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = |e: String| format!("line {}: {e}", i + 1);
        let fields = json::parse_object(line).map_err(ctx)?;
        let kind: String = fields.get("type").map_err(ctx)?;
        match kind.as_str() {
            "ops_snapshot" => {
                if let Some(last) = out.last() {
                    close(last, declared)?;
                }
                let version: u64 = fields.get("version").map_err(ctx)?;
                if version != SNAPSHOT_VERSION {
                    return Err(ctx(format!("unsupported snapshot version {version}")));
                }
                declared = Some(fields.get("metrics").map_err(ctx)?);
                out.push(Snapshot {
                    seq: fields.get("seq").map_err(ctx)?,
                    wall_ns: fields.get("wall_ns").map_err(ctx)?,
                    ..Snapshot::default()
                });
            }
            "counter" | "gauge" | "histogram" => {
                let snap = out
                    .last_mut()
                    .ok_or_else(|| ctx("metric before any header".into()))?;
                let name: String = fields.get("name").map_err(ctx)?;
                let dup = match kind.as_str() {
                    "counter" => snap
                        .counters
                        .insert(name.clone(), fields.get("value").map_err(ctx)?)
                        .is_some(),
                    "gauge" => snap
                        .gauges
                        .insert(name.clone(), fields.get("value").map_err(ctx)?)
                        .is_some(),
                    _ => snap
                        .histograms
                        .insert(
                            name.clone(),
                            HistogramSummary {
                                count: fields.get("count").map_err(ctx)?,
                                mean: fields.get("mean").map_err(ctx)?,
                                min: fields.get("min").map_err(ctx)?,
                                max: fields.get("max").map_err(ctx)?,
                                p50: fields.get("p50").map_err(ctx)?,
                                p90: fields.get("p90").map_err(ctx)?,
                                p99: fields.get("p99").map_err(ctx)?,
                            },
                        )
                        .is_some(),
                };
                if dup {
                    return Err(ctx(format!("duplicate {kind} {name:?}")));
                }
            }
            other => return Err(ctx(format!("unknown line type {other:?}"))),
        }
    }
    if let Some(last) = out.last() {
        close(last, declared)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SPAN_NS_BUCKETS;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter("serve.frames").add(1024);
        r.counter("serve.shed").add(3);
        r.gauge("serve.queue.depth").set(7.5);
        let h = r.histogram("stage.classify", SPAN_NS_BUCKETS);
        for v in [300.0, 900.0, 4_000.0, 90_000.0] {
            h.observe(v);
        }
        r.histogram("stage.decide", SPAN_NS_BUCKETS); // registered, empty
        r
    }

    #[test]
    fn round_trip_is_lossless_and_complete() {
        let reg = sample_registry();
        let snap = Snapshot::capture(3, 1_000_000, &reg);
        assert_eq!(snap.metrics(), 5);
        let text = snap.to_jsonl();
        let back = parse_snapshots(&text).expect("parses");
        assert_eq!(back, vec![snap]);
    }

    #[test]
    fn quantiles_are_monotone() {
        let reg = sample_registry();
        let snap = Snapshot::capture(1, 0, &reg);
        let h = &snap.histograms["stage.classify"];
        assert!(h.min <= h.p50 && h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
    }

    #[test]
    fn concatenated_blocks_split_apart() {
        let reg = sample_registry();
        let mut stream = String::new();
        for seq in 1..=3u64 {
            stream.push_str(&Snapshot::capture(seq, seq * 1000, &reg).to_jsonl());
        }
        let snaps = parse_snapshots(&stream).expect("parses");
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[2].seq, 3);
        assert_eq!(snaps[2].wall_ns, 3000);
    }

    #[test]
    fn parse_rejects_malformed_streams() {
        // Metric before any header.
        assert!(parse_snapshots("{\"type\":\"counter\",\"name\":\"x\",\"value\":1}").is_err());
        // Wrong version.
        assert!(parse_snapshots(
            "{\"type\":\"ops_snapshot\",\"version\":99,\"seq\":1,\"wall_ns\":0,\"metrics\":0}"
        )
        .is_err());
        // Declared metric count disagrees.
        assert!(parse_snapshots(
            "{\"type\":\"ops_snapshot\",\"version\":1,\"seq\":1,\"wall_ns\":0,\"metrics\":2}\n\
             {\"type\":\"counter\",\"name\":\"x\",\"value\":1}"
        )
        .is_err());
        // Duplicate metric.
        assert!(parse_snapshots(
            "{\"type\":\"ops_snapshot\",\"version\":1,\"seq\":1,\"wall_ns\":0,\"metrics\":2}\n\
             {\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n\
             {\"type\":\"counter\",\"name\":\"x\",\"value\":2}"
        )
        .is_err());
        // Unknown line type.
        assert!(parse_snapshots("{\"type\":\"mystery\"}").is_err());
    }

    #[test]
    fn duplicate_keys_in_a_line_are_rejected() {
        let header = "{\"type\":\"ops_snapshot\",\"version\":1,\"seq\":1,\"seq\":2,\
                      \"wall_ns\":0,\"metrics\":0}";
        let err = parse_snapshots(header).expect_err("two seq fields");
        assert!(err.contains("duplicate key \"seq\""), "{err}");
        let counter =
            "{\"type\":\"ops_snapshot\",\"version\":1,\"seq\":1,\"wall_ns\":0,\"metrics\":1}\n\
                       {\"type\":\"counter\",\"name\":\"x\",\"value\":1,\"value\":2}";
        let err = parse_snapshots(counter).expect_err("two values");
        assert!(err.contains("line 2: duplicate key \"value\""), "{err}");
    }

    #[test]
    fn empty_registry_snapshots_cleanly() {
        let snap = Snapshot::capture(1, 42, &Registry::new());
        assert_eq!(snap.metrics(), 0);
        let back = parse_snapshots(&snap.to_jsonl()).expect("parses");
        assert_eq!(back, vec![snap]);
    }
}
