//! Persisted performance trajectory: every perf-oriented bench emits a
//! `BENCH_<name>.json` report of its headline metrics, and a `compare`
//! mode diffs a fresh run against committed baselines with per-metric
//! tolerances — the CI regression gate (`bench_gate`).
//!
//! The JSON goes through `mobisense_util::json` (workspace rule: no
//! external deps) and is schema-versioned, so a gate comparing reports
//! from two different layouts fails loudly instead of silently passing.
//! Metric names are stored in a `BTreeMap`, making the serialization
//! byte-deterministic for a given set of values.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use mobisense_util::json::{self, Num, Str};

/// Version of the on-disk report layout. Bump on any breaking change;
/// [`compare`] refuses to diff mismatched versions.
pub const SCHEMA_VERSION: u64 = 1;

/// One benchmark metric: its value plus how the gate should judge it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The measured value (units are part of the metric name).
    pub value: f64,
    /// Whether larger values are better (throughput) or worse
    /// (latency, drop counts).
    pub higher_is_better: bool,
    /// Allowed worsening versus the baseline, in percent. `0` demands
    /// exact-or-better (used for correctness ratios like
    /// `golden_match`); large values absorb host-to-host variance.
    pub tol_pct: f64,
}

/// One bench's persisted report: schema version, host facts, metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`] when written by this code).
    pub schema_version: u64,
    /// The bench name (`BENCH_<name>.json`).
    pub name: String,
    /// Host OS (`std::env::consts::OS`).
    pub os: String,
    /// Host architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPUs available when the bench ran.
    pub cpus: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl BenchReport {
    /// An empty report for this host.
    pub fn new(name: &str) -> Self {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            name: name.to_owned(),
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) one metric.
    pub fn push(&mut self, name: &str, value: f64, higher_is_better: bool, tol_pct: f64) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                higher_is_better,
                tol_pct,
            },
        );
    }

    /// Serializes the report as pretty-printed JSON (deterministic:
    /// metrics are name-sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {},\n  \"name\": {},\n  \"os\": {},\n  \"arch\": {},\n  \
             \"cpus\": {},\n  \"metrics\": {{",
            self.schema_version,
            Str(&self.name),
            Str(&self.os),
            Str(&self.arch),
            self.cpus
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {{\"value\": {}, \"higher_is_better\": {}, \"tol_pct\": {}}}",
                if i == 0 { "" } else { "," },
                Str(name),
                Num(m.value),
                m.higher_is_better,
                Num(m.tol_pct)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a report previously written by [`BenchReport::to_json`]
    /// (or hand-edited to the same shape).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = json::parse_object(text)?;
        let raw = root.object("metrics")?;
        let mut metrics = BTreeMap::new();
        for name in raw.keys() {
            let m = raw.object(name)?;
            let metric = Metric {
                value: m.get("value")?,
                higher_is_better: m.get("higher_is_better")?,
                tol_pct: m.get("tol_pct")?,
            };
            metrics.insert(name.to_owned(), metric);
        }
        Ok(BenchReport {
            schema_version: root.get("schema_version")?,
            name: root.get("name")?,
            os: root.get("os")?,
            arch: root.get("arch")?,
            cpus: root.get("cpus")?,
            metrics,
        })
    }

    /// The report's canonical file name.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Writes the report into `dir` (created as needed) under its
    /// canonical name, returning the path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads a report from a file.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::from_json(&text)
    }
}

/// Where bench reports land: `$MOBISENSE_BENCH_DIR`, else
/// `target/bench-reports`.
pub fn default_dir() -> PathBuf {
    match std::env::var_os("MOBISENSE_BENCH_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target").join("bench-reports"),
    }
}

/// Whether benches should run in CI smoke mode (tiny workloads that
/// exercise every code path without meaningful timing): set
/// `MOBISENSE_BENCH_SMOKE` to anything but `0`.
pub fn smoke_mode() -> bool {
    matches!(std::env::var("MOBISENSE_BENCH_SMOKE"), Ok(v) if !v.is_empty() && v != "0")
}

/// One metric the gate judged worse than the baseline allows.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The failing metric.
    pub metric: String,
    /// Its baseline value.
    pub baseline: f64,
    /// Its value in the current run.
    pub current: f64,
    /// How much worsening the baseline tolerates, percent.
    pub allowed_pct: f64,
    /// The observed worsening, percent (positive = worse).
    pub change_pct: f64,
}

/// Diffs `current` against `baseline`: every baseline metric must be
/// present in `current` and within its tolerance. Returns the list of
/// regressions (empty = gate passes). Errs on schema or name mismatch
/// and on metrics the current run no longer reports — silent metric
/// loss must fail the gate, not shrink it.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Result<Vec<Regression>, String> {
    if baseline.schema_version != current.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{}, current v{}",
            baseline.schema_version, current.schema_version
        ));
    }
    if baseline.name != current.name {
        return Err(format!(
            "report mismatch: baseline {:?}, current {:?}",
            baseline.name, current.name
        ));
    }
    let mut regressions = Vec::new();
    for (name, base) in &baseline.metrics {
        let cur = current
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} missing from current run"))?;
        // Relative to the larger magnitude of the two, not the
        // baseline alone: a (near-)zero baseline would otherwise turn
        // any nonzero measurement into an unboundedly large percentage
        // (e.g. an overhead metric that happened to measure 0.0 in the
        // baseline run would fail every later run). This caps the
        // worsening at 100% for same-sign values while `tol_pct: 0`
        // still demands exact-or-better.
        let denom = base.value.abs().max(cur.value.abs()).max(1e-12);
        let change_pct = if base.higher_is_better {
            (base.value - cur.value) / denom * 100.0
        } else {
            (cur.value - base.value) / denom * 100.0
        };
        if change_pct > base.tol_pct {
            regressions.push(Regression {
                metric: name.clone(),
                baseline: base.value,
                current: cur.value,
                allowed_pct: base.tol_pct,
                change_pct,
            });
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("unit");
        r.push("frames_per_sec", 12345.5, true, 90.0);
        r.push("p99_latency_ns", 842.0, false, 200.0);
        r.push("golden_match", 1.0, true, 0.0);
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = sample();
        let mut cur = sample();
        cur.push("frames_per_sec", 12345.5 * 0.5, true, 90.0); // -50% < 90% tol
        cur.push("p99_latency_ns", 842.0 * 2.5, false, 200.0); // +150% < 200% tol
        assert!(compare(&base, &cur).expect("comparable").is_empty());
    }

    #[test]
    fn compare_flags_a_twenty_percent_regression() {
        let mut base = sample();
        base.push("frames_per_sec", 1000.0, true, 10.0);
        let mut cur = sample();
        cur.push("frames_per_sec", 800.0, true, 10.0); // 20% down, 10% allowed
        let regs = compare(&base, &cur).expect("comparable");
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "frames_per_sec");
        assert!((regs[0].change_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_with_loose_tolerance_is_not_an_infinite_regression() {
        let mut base = sample();
        base.push("overhead_pct", 0.0, false, 10_000.0);
        let mut cur = sample();
        cur.push("overhead_pct", 0.5, false, 10_000.0);
        // 0 -> 0.5 reads as 100% of the larger magnitude, well inside
        // the loose tolerance; the old baseline-relative denominator
        // called this a ~5e13% regression.
        assert!(compare(&base, &cur).expect("comparable").is_empty());
        // A zero tolerance on a zero baseline still demands
        // exact-or-better.
        let mut strict = sample();
        strict.push("overhead_pct", 0.0, false, 0.0);
        let regs = compare(&strict, &cur).expect("comparable");
        assert!(regs.iter().any(|r| r.metric == "overhead_pct"));
    }

    #[test]
    fn exact_ratio_metrics_tolerate_nothing() {
        let base = sample();
        let mut cur = sample();
        cur.push("golden_match", 0.99, true, 0.0);
        let regs = compare(&base, &cur).expect("comparable");
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "golden_match");
    }

    #[test]
    fn missing_metric_and_schema_drift_fail_loudly() {
        let base = sample();
        let mut cur = sample();
        cur.metrics.remove("golden_match");
        assert!(compare(&base, &cur).is_err());
        let mut v2 = sample();
        v2.schema_version = 2;
        assert!(compare(&base, &v2).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(BenchReport::from_json("").is_err());
        assert!(BenchReport::from_json("[1,2]").is_err());
        assert!(BenchReport::from_json("{\"schema_version\": 1}").is_err());
        assert!(BenchReport::from_json("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn integer_fields_reject_fractions_and_negatives() {
        let text = sample().to_json();
        let cpus = format!("\"cpus\": {}", sample().cpus);
        for (from, to, field) in [
            (cpus.as_str(), "\"cpus\": 1.5", "cpus"),
            (cpus.as_str(), "\"cpus\": -1", "cpus"),
            (
                "\"schema_version\": 1",
                "\"schema_version\": 1.0",
                "schema_version",
            ),
        ] {
            let err = BenchReport::from_json(&text.replacen(from, to, 1)).expect_err(to);
            assert!(err.contains(&format!("field \"{field}\"")), "{err}");
        }
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("mobisense-bench-report-{}", std::process::id()));
        let r = sample();
        let path = r.write_to(&dir).expect("write");
        assert!(path.ends_with("BENCH_unit.json"));
        assert_eq!(BenchReport::load(&path).expect("load"), r);
        std::fs::remove_dir_all(&dir).ok();
    }
}
