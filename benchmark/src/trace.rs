//! Benchmark-side tracing: spans around the calls into each layer and
//! counter snapshots, kept in memory and written out once at exit.
//!
//! A span is `(id, parent, name, start_ns, end_ns)`; its self time is
//! its duration minus the part of it that its children cover. Spans
//! come from the benchmark's own code — the program under test is not
//! instrumented for this.

use std::time::Instant;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Unique within one run, starting at 1.
    pub id: u32,
    /// The enclosing span, 0 for a root.
    pub parent: u32,
    /// What the span covers, e.g. `edge.finish`.
    pub name: &'static str,
    /// Start, ns after the tracer's epoch.
    pub start_ns: u64,
    /// End, ns after the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans and counter snapshots. A disabled tracer records
/// nothing, so untraced runs pay one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<String>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Whether this tracer records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserves a span id for a parent whose end is not known yet;
    /// [`close`](Self::close) fills in its end.
    pub fn open(&mut self, name: &'static str, parent: u32, start: Instant) -> u32 {
        self.record(name, parent, start, start)
    }

    /// Sets the end of a span reserved with [`open`](Self::open).
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, start, Instant::now());
        r
    }

    /// Records one counter snapshot taken at `at`.
    pub fn counters(&mut self, at: Instant, fields: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        let mut line = format!("{{\"kind\":\"counters\",\"t_ns\":{}", self.ns(at));
        for (name, value) in fields {
            line.push_str(&format!(
                ",{}:{}",
                crate::json::string(name),
                crate::json::number(*value)
            ));
        }
        line.push('}');
        self.counters.push(line);
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans (with self time) then counter snapshots, one JSON object a
    /// line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            out.push_str(&format!(
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                span.id,
                span.parent,
                crate::json::string(span.name),
                span.start_ns,
                span.end_ns,
                self_ns
            ));
        }
        for line in &self.counters {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = s
            .parent
            .checked_sub(1)
            .and_then(|p| children.get_mut(p as usize))
        {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps 2: union 10..50
            span(4, 1, 90, 120), // clipped to the parent's end
            span(5, 2, 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("a", 0, now, now), 0);
        t.counters(now, &[("x", 1.0)]);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn open_close_and_jsonl() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let root = t.open("workload", 0, start);
        let child = t.span("edge.bind", root, || 7);
        assert_eq!(child, 7);
        t.close(root, Instant::now());
        t.counters(Instant::now(), &[("edge.frames", 3.0)]);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"workload\""));
        assert!(lines[1].contains("\"parent\":1"));
        assert!(lines[2].contains("\"edge.frames\":3"));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
