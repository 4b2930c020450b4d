//! The repository benchmark: four loopback workloads over the edge →
//! serve → store path, measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Prints every metric as `workload metric value unit`, then one JSON
//! line with the run's verdict and its end-to-end metrics (per-layer
//! metrics with `--trace`). Writes `target/benchmark/<seed>/results.json`
//! and, when tracing, `trace-<workload>.jsonl` beside it. Exits non-zero
//! when any output check fails. See README.md for the workloads.

mod check;
mod json;
mod load;
mod probe;
mod trace;
mod workloads;

use std::fs;
use std::io;
use std::path::PathBuf;

use workloads::{Ctx, Outcome, WORKLOADS};

/// End-to-end metrics: what a user of the controller sees.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_fps", "frames/s"),
    ("cpu_us_per_frame", "us"),
    ("rss_peak_mib", "MiB"),
];

/// Printed beside the end-to-end metrics, never bounded. `error_rate`
/// is failed over offered frames, carried in the result line as
/// `failed` / `attempted`. The late counts depend on the host's
/// scheduler, so they are reported, not failed.
const INFO: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("late_frames", "count"),
    ("decided_late_frames", "count"),
];

/// Per-layer metrics of the traced run. A layer that a workload
/// bypasses reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("phy.fleet_generate_s", "s"),
    ("edge.cpu_us_per_frame", "us"),
    ("edge.sys_share", "ratio"),
    ("edge.bytes_per_frame", "B"),
    ("serve.worker_cpu_us_per_frame", "us"),
    ("serve.queue_depth_p99", "frames"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.decision_p50_us", "us"),
    ("serve.decision_p99_us", "us"),
    ("serve.decide_p99_ns", "ns"),
    ("serve.submit_wait_s", "s"),
    ("generator.cpu_us_per_frame", "us"),
    ("generator.write_wait_s", "s"),
    ("generator.late_p99_us", "us"),
    ("core.classify_p50_ns", "ns"),
    ("core.classify_p99_ns", "ns"),
    ("session.fault_in_p50_us", "us"),
    ("session.fault_in_p99_us", "us"),
    ("session.restore_ratio", "ratio"),
    ("session.resident_peak_mib", "MiB"),
    ("store.writer_cpu_us_per_frame", "us"),
    ("store.recorder_depth_max", "records"),
    ("store.bytes_per_frame", "B"),
    ("store.segments_sealed", "count"),
    ("store.record_s", "s"),
    ("store.compact_s", "s"),
    ("store.replay_s", "s"),
    ("store.compact_resident_peak_mib", "MiB"),
    ("telemetry.trace_overhead_pct", "%"),
];

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke]";

/// Command-line options.
#[derive(Debug)]
struct Args {
    /// One workload, or `None` for all of them.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 2014,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let w = value("--workload")?;
                    if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload {w}"));
                    }
                    out.workload = (w != "all").then_some(w);
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {s} outside (0, 3600]"));
                    }
                    out.seconds = s;
                }
                "--trace" => {
                    out.trace = !matches!(args.peek().map(String::as_str), Some("0"));
                    if matches!(args.peek().map(String::as_str), Some("0" | "1")) {
                        args.next();
                    }
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.smoke {
            out.seconds = 0.5;
        }
        Ok(out)
    }

    fn workloads(&self) -> Vec<&'static str> {
        WORKLOADS
            .into_iter()
            .filter(|w| self.workload.as_deref().is_none_or(|x| x == *w))
            .collect()
    }
}

/// Runs one workload; with `--trace`, an untraced pass first (for the
/// end-to-end numbers and the tracing overhead), then the traced pass.
fn measure(workload: &str, args: &Args, dir: &std::path::Path) -> io::Result<Outcome> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: false,
        setups: if args.smoke || args.trace { 1 } else { 3 },
        dir: dir.to_path_buf(),
    };
    let plain = workloads::run(workload, &ctx)?;
    if !args.trace {
        return Ok(plain);
    }
    let mut traced = workloads::run(workload, &Ctx { trace: true, ..ctx })?;
    let cpu = |o: &Outcome| o.metrics.get("cpu_us_per_frame").copied().unwrap_or(0.0);
    let overhead = (cpu(&traced) / cpu(&plain).max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    for (name, _) in END_TO_END.iter().chain(INFO) {
        if let Some(&v) = plain.metrics.get(name) {
            traced.metrics.insert(name, v);
        }
    }
    traced
        .metrics
        .insert("telemetry.trace_overhead_pct", overhead);
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.failures.extend(plain.failures);
    Ok(traced)
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics.get(name).copied().unwrap_or(0.0)
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `workload metric value unit` lines for every metric measured.
fn metric_lines(outcomes: &[Outcome], trace: bool) -> Vec<String> {
    let mut lines = Vec::new();
    for o in outcomes {
        let mut names: Vec<(&str, &str)> = END_TO_END.to_vec();
        names.extend_from_slice(INFO);
        if trace {
            names.extend_from_slice(PER_LAYER);
        }
        for (name, unit) in names {
            lines.push(format!("{} {name} {} {unit}", o.workload, value(o, name)));
        }
    }
    lines
}

/// The final result line.
fn result_line(outcomes: &[Outcome], trace: bool) -> String {
    let mut metrics = Vec::new();
    for o in outcomes {
        for (name, unit) in reported(trace) {
            let key = if outcomes.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", o.workload)
            };
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(&key),
                json::number(value(o, name)),
                json::string(unit)
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcomes.iter().all(|o| o.failures.is_empty()),
        outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(",")
    )
}

fn results_json(args: &Args, outcomes: &[Outcome]) -> String {
    let runs: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
                .collect();
            let failures: Vec<String> = o.failures.iter().map(|f| json::string(f)).collect();
            format!(
                "{{\"name\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}}}}",
                json::string(o.workload),
                o.failures.is_empty(),
                o.attempted,
                o.failed,
                failures.join(","),
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"workloads\":[{}]}}\n",
        args.seed,
        json::number(args.seconds),
        args.trace,
        args.smoke,
        runs.join(",")
    )
}

/// Non-zero when any output check failed.
fn exit_code(outcomes: &[Outcome]) -> i32 {
    i32::from(outcomes.iter().any(|o| !o.failures.is_empty()))
}

/// Runs the selected workloads and writes the result files into `dir`.
fn run(args: &Args, dir: &std::path::Path) -> io::Result<Vec<Outcome>> {
    fs::create_dir_all(dir)?;
    let mut outcomes = Vec::new();
    for w in args.workloads() {
        let o = measure(w, args, dir)?;
        for f in &o.failures {
            eprintln!("benchmark: {w}: check failed: {f}");
        }
        if args.trace {
            fs::write(dir.join(format!("trace-{w}.jsonl")), &o.trace)?;
        }
        outcomes.push(o);
    }
    fs::write(dir.join("results.json"), results_json(args, &outcomes))?;
    Ok(outcomes)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from("target/benchmark").join(args.seed.to_string());
    match run(&args, &dir) {
        Ok(outcomes) => {
            for line in metric_lines(&outcomes, args.trace) {
                println!("{line}");
            }
            println!("{}", result_line(&outcomes, args.trace));
            std::process::exit(exit_code(&outcomes));
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    /// The `name`s listed under `key` in BENCHMARK.json.
    fn names_under(spec: &str, key: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{key}\"")).expect("key present");
        let section = &spec[start..];
        let section = &section[..section.find(']').expect("array closes")];
        section
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn parses_the_driver_and_issue_spellings() {
        let a = args(&[
            "--workload",
            "hibernate_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("hibernate_churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(args(&["--trace", "1"]).expect("parses").trace);
        let b = args(&["--trace", "--smoke", "--workload", "all"]).expect("parses");
        assert!(b.trace && b.smoke && b.workload.is_none());
        assert_eq!(b.workloads().len(), 4);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn a_mismatched_row_fails_the_run() {
        use mobisense_serve::{ServeConfig, ServeDecision, ShardEngine, Ticket};
        let plan_decisions = |seq_bump: u32| -> Vec<ServeDecision> {
            let fleet = mobisense_serve::EncodedFleet::generate(&mobisense_serve::FleetConfig {
                n_clients: 2,
                duration: 8 * mobisense_util::units::SECOND,
                step: 50 * mobisense_util::units::MILLISECOND,
                base_seed: 3,
                gen_threads: 1,
                ..mobisense_serve::FleetConfig::default()
            });
            let engine = ShardEngine::spawn(&ServeConfig::default()).expect("engine");
            let mut n = 0;
            for s in &fleet.streams {
                for f in s.frames() {
                    engine.submit(Ticket::untraced(), f);
                    n += 1;
                }
            }
            let mut log = engine.finish(n).0;
            log[0].seq += seq_bump;
            log
        };
        let good = plan_decisions(0);
        assert!(!good.is_empty());
        assert!(check::compare_rows(&good, &plan_decisions(0)).is_ok());
        let mut outcome = Outcome {
            workload: "live_steady",
            metrics: Default::default(),
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
            trace: String::new(),
        };
        assert_eq!(exit_code(std::slice::from_ref(&outcome)), 0);
        let err = check::compare_rows(&good, &plan_decisions(1)).expect_err("row differs");
        outcome.failures.push(err);
        assert_ne!(exit_code(std::slice::from_ref(&outcome)), 0);
        assert!(
            result_line(std::slice::from_ref(&outcome), false).starts_with("{\"correct\":false")
        );
    }

    #[test]
    fn smoke_run_prints_every_benchmark_metric() {
        let spec = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        assert_eq!(names_under(&spec, "workloads"), WORKLOADS);
        let e2e = names_under(&spec, "end_to_end");
        let layers = names_under(&spec, "per_layer");
        assert_eq!(e2e, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
        assert_eq!(layers, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());

        let a = args(&["--smoke", "--trace"]).expect("parses");
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/smoke-test"));
        let t = std::time::Instant::now();
        let outcomes = run(&a, &dir).expect("smoke run");
        eprintln!(
            "smoke run (traced, so twice over): {:.1} s",
            t.elapsed().as_secs_f64()
        );
        for o in &outcomes {
            assert!(o.failures.is_empty(), "{}: {:?}", o.workload, o.failures);
            assert!(o.attempted > 0, "{} offered nothing", o.workload);
            assert!(dir.join(format!("trace-{}.jsonl", o.workload)).exists());
        }
        let lines = metric_lines(&outcomes, true);
        for w in WORKLOADS {
            for name in e2e.iter().chain(&layers) {
                let prefix = format!("{w} {name} ");
                assert!(
                    lines.iter().any(|l| l.starts_with(&prefix)),
                    "missing `{prefix}`"
                );
            }
        }
        let last = result_line(&outcomes, true);
        for name in &layers {
            assert!(
                last.contains(&format!("\"{}/{name}\"", WORKLOADS[0])),
                "{name}"
            );
        }
        assert!(dir.join("results.json").exists());
        fs::remove_dir_all(&dir).expect("clean up");
    }
}
