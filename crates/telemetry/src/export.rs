//! JSON-lines and CSV export of a run, and JSONL parse-back.
//!
//! The JSONL encoding is one flat object per event with a `"type"` tag
//! (see [`Event::kind`]); [`parse_jsonl`] reverses it field-for-field,
//! which the test-suite uses to prove dumps are lossless. Both
//! directions are generated from the variant table in
//! [`crate::event`] and written with `mobisense_util::json`, whose
//! floats print in Rust's shortest round-trip form, so re-parsing
//! yields bit-identical values.

use std::fmt::Write as _;

use mobisense_util::json;
use mobisense_util::units::Nanos;

use crate::event::Event;
use crate::metrics::Registry;

/// Serializes one event as a single-line flat JSON object.
pub fn event_to_json(event: &Event) -> String {
    let mut s = String::with_capacity(96);
    event.write_json(&mut s);
    s
}

/// Serializes events as JSON-lines, one object per line, in iteration
/// order.
pub fn events_to_jsonl<'a>(events: impl Iterator<Item = &'a Event>) -> String {
    let mut out = String::new();
    for e in events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines event dump produced by [`events_to_jsonl`] back
/// into events, preserving order. Blank lines are ignored.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_event(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Parses one flat JSON event object.
pub fn parse_event(line: &str) -> Result<Event, String> {
    Event::read_json(&json::parse_object(line)?)
}

/// Serializes a goodput series (`(interval end, interval length,
/// payload bits)`) as CSV with a header row.
pub fn goodput_to_csv(series: &[(Nanos, Nanos, u64)]) -> String {
    let mut out = String::from("at_ns,elapsed_ns,bits\n");
    for &(at, elapsed, bits) in series {
        let _ = writeln!(out, "{at},{elapsed},{bits}");
    }
    out
}

/// Serializes a registry snapshot as CSV: one row per metric, with
/// histograms reduced to count / mean / p50 / p95 / max. Floats print
/// in shortest round-trip form.
///
/// Metric names are `&'static str` identifiers chosen by the
/// instrumentation (no commas or quotes), so no CSV quoting is needed.
pub fn registry_to_csv(registry: &Registry) -> String {
    let mut out = String::from("kind,name,count,value,p50,p95,max\n");
    for name in registry.counter_names() {
        let v = registry.counter_value(name).unwrap_or(0);
        let _ = writeln!(out, "counter,{name},,{v},,,");
    }
    for name in registry.gauge_names() {
        let v = registry.gauge_value(name).unwrap_or(0.0);
        let _ = writeln!(out, "gauge,{name},,{v},,,");
    }
    for name in registry.histogram_names() {
        let h = registry.get_histogram(name).expect("name from iterator");
        let fmt = |o: Option<f64>| o.map(|v| v.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "histogram,{name},{},{},{},{},{}",
            h.count(),
            fmt(h.mean()),
            fmt(h.quantile(0.5)),
            fmt(h.quantile(0.95)),
            fmt(h.max()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::event::KINDS;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Decision {
                at: 100,
                mode: "macro".into(),
                direction: Some("towards".into()),
            },
            Event::Decision {
                at: 150,
                mode: "static".into(),
                direction: None,
            },
            Event::TofMedian {
                at: 200,
                cycles: 13.75,
            },
            Event::RateChange {
                at: 300,
                from_mcs: 7,
                to_mcs: 4,
            },
            Event::Handoff {
                at: 400,
                from_ap: 0,
                to_ap: 2,
            },
            Event::Beamsound { at: 500, ap: 2 },
            Event::AmpduTx {
                at: 600,
                mcs: 4,
                n_mpdus: 32,
                n_delivered: 30,
                airtime: 123_456,
            },
            Event::Goodput {
                at: 700,
                elapsed: 100,
                bits: 360_000,
            },
            Event::ServeShard {
                at: 800,
                shard: 3,
                frames: 120_000,
                decisions: 512,
                shed: 7,
                max_depth: 96,
            },
            Event::StoreSegment {
                at: 900,
                segment: 12,
                frames: 4096,
                bytes: 1_048_576,
            },
            Event::StoreRecovery {
                at: 950,
                segment: 13,
                frames: 118,
                lost: 3978,
            },
            Event::ServeRecorder {
                at: 1000,
                frames: 240_000,
                rows: 1024,
                dropped: 17,
                max_depth: 2048,
            },
            Event::StoreRetention {
                at: 1100,
                segment: 2,
                frames: 8192,
                bytes: 2_097_152,
            },
            Event::Stall {
                at: 0,
                source: "shard-3".into(),
                intervals: 2,
                backlog: 64,
            },
            Event::Snapshot {
                at: 0,
                seq: 9,
                metrics: 23,
                bytes: 2_311,
            },
            Event::EdgeConn {
                at: 1150,
                conn: 17,
                frames: 501,
                bytes: 118_236,
                resyncs: 1,
                outcome: "eof".into(),
            },
            Event::EdgeServe {
                at: 1160,
                conns: 10_000,
                rejected_conns: 3,
                frames: 240_000,
                rejected_frames: 12,
                bytes: 56_640_000,
                datagrams: 128,
            },
            Event::StoreCompaction {
                at: 1200,
                segments_in: 6,
                segments_out: 2,
                records: 24_576,
                bytes_in: 6_291_456,
                bytes_out: 5_242_880,
            },
            Event::SessionHibernate {
                at: 1300,
                client_id: 77,
                shard: 1,
                bytes: 431,
            },
            Event::SessionRestore {
                at: 1350,
                client_id: 77,
                shard: 1,
                wait_ns: 18_500,
            },
            Event::SessionMigrate {
                at: 1400,
                client_id: 78,
                from_shard: 0,
                to_shard: 3,
                bytes: 512,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let events = sample_events();
        let kinds: BTreeSet<&str> = events.iter().map(Event::kind).collect();
        let table: BTreeSet<&str> = KINDS.iter().copied().collect();
        assert_eq!(kinds, table, "the samples cover every variant in the table");
        let text = events_to_jsonl(events.iter());
        assert_eq!(text.lines().count(), events.len());
        assert!(text.starts_with(
            "{\"type\":\"decision\",\"at\":100,\"mode\":\"macro\",\"direction\":\"towards\"}\n\
             {\"type\":\"decision\",\"at\":150,\"mode\":\"static\",\"direction\":null}\n\
             {\"type\":\"tof_median\",\"at\":200,\"cycles\":13.75}\n"
        ));
        let back = parse_jsonl(&text).expect("well-formed dump");
        assert_eq!(back, events);
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_narrowed() {
        let err = parse_event("{\"type\":\"rate_change\",\"at\":1,\"from_mcs\":300,\"to_mcs\":4}")
            .expect_err("300 is not a u8");
        assert!(err.contains("\"from_mcs\""), "{err}");
        let err = parse_event(
            "{\"type\":\"session_restore\",\"at\":1,\"client_id\":4294967296,\"shard\":0,\"wait_ns\":5}",
        )
        .expect_err("2^32 is not a u32");
        assert!(err.contains("\"client_id\""), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse_event("{\"type\":\"goodput\",\"at\":1,\"at\":2,\"elapsed\":3,\"bits\":4}")
            .expect_err("two \"at\" fields");
        assert!(err.contains("duplicate key \"at\""), "{err}");
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        let e = Event::TofMedian {
            at: 1,
            cycles: 0.1 + 0.2, // a value with an ugly shortest repr
        };
        let back = parse_event(&event_to_json(&e)).expect("parses");
        assert_eq!(back, e);
    }

    #[test]
    fn string_escaping_round_trips() {
        let e = Event::Decision {
            at: 0,
            mode: "we\"ird\\mo\nde\t\u{1}".into(),
            direction: None,
        };
        let back = parse_event(&event_to_json(&e)).expect("parses");
        assert_eq!(back, e);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"type\":\"goodput\"").is_err());
        assert!(parse_jsonl("{\"type\":\"nonsense\",\"at\":1}").is_err());
        assert!(parse_jsonl("{\"at\":1}").is_err());
        assert!(parse_jsonl("{\"type\":\"beamsound\",\"at\":1,\"ap\":2} x").is_err());
        // Missing required field.
        assert!(parse_jsonl("{\"type\":\"beamsound\",\"at\":1}").is_err());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = "\n{\"type\":\"beamsound\",\"at\":1,\"ap\":0}\n\n";
        assert_eq!(parse_jsonl(text).expect("parses").len(), 1);
    }

    #[test]
    fn large_u64_fields_survive() {
        let e = Event::Goodput {
            at: u64::MAX - 1,
            elapsed: 1 << 60,
            bits: u64::MAX,
        };
        let back = parse_event(&event_to_json(&e)).expect("parses");
        assert_eq!(back, e);
    }

    #[test]
    fn goodput_csv_shape() {
        let csv = goodput_to_csv(&[(100, 100, 800), (200, 100, 1600)]);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "at_ns,elapsed_ns,bits");
        assert_eq!(lines[1], "100,100,800");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn registry_csv_lists_all_metrics() {
        let mut r = Registry::new();
        r.counter("frames").add(3);
        r.gauge("esnr").set(30.25);
        r.histogram("span", &[10.0, 100.0]).observe(42.0);
        let csv = registry_to_csv(&r);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,count,value,p50,p95,max");
        assert!(lines.iter().any(|l| l.starts_with("counter,frames,,3")));
        assert!(lines.iter().any(|l| l.starts_with("gauge,esnr,,30.25")));
        assert!(lines.iter().any(|l| l.starts_with("histogram,span,1,42")));
    }
}
