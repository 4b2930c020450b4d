//! Serving-layer throughput: frames/sec and decision latency versus
//! shard count, with the determinism contract checked along the way.
//!
//! Not a paper artefact — this measures the `mobisense-serve` scale-up
//! layer (DESIGN.md section 5.7). One pre-encoded fleet is replayed
//! through 1, 2, 4 and 8 shards; because shards share no state, frames
//! per second should scale near-linearly with physical cores (on a
//! single-core host every shard count collapses to the same wall
//! clock). Whatever the shard count, the merged decision log must stay
//! byte-identical — that is asserted here, not just reported.
//!
//! The run also measures stage-trace overhead: the same fleet is
//! served untraced and with 1-in-16 stage sampling (best of two runs
//! each); the traced decision log must stay byte-identical, and in
//! full mode the throughput cost must stay within 2%. Headline numbers
//! land in `BENCH_serve_throughput.json` for the CI regression gate.
//! Set `MOBISENSE_BENCH_SMOKE=1` for a tiny CI-sized workload.

use mobisense_bench::header;
use mobisense_bench::report::{self, BenchReport};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_telemetry::{NoopSink, Stage};
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    header(
        "serve_throughput",
        "sharded serving: frames/sec and decision latency vs shard count",
        "frames/sec grows with shards on multicore hosts; decision log is shard-count invariant; 1-in-16 stage tracing costs <= 2%",
    );
    let smoke = report::smoke_mode();

    let fleet_cfg = FleetConfig {
        n_clients: if smoke { 24 } else { 192 },
        duration: if smoke { 3 * SECOND } else { 12 * SECOND },
        step: 20 * MILLISECOND,
        base_seed: 2014,
        ..FleetConfig::default()
    };
    eprintln!(
        "generating fleet: {} clients x {} frames...",
        fleet_cfg.n_clients,
        fleet_cfg.frames_per_client()
    );
    let fleet = EncodedFleet::generate(&fleet_cfg);
    eprintln!(
        "fleet ready: {} frames, {:.1} MiB on the wire",
        fleet.total_frames(),
        fleet.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    let mut out = BenchReport::new("serve_throughput");

    println!("shards, frames_per_sec, speedup_vs_1, p50_latency_us, p99_latency_us, decisions");
    let mut baseline_fps = None;
    let mut baseline_log: Option<String> = None;
    let mut best_fps = 0.0f64;
    let mut latency_p50 = 0.0;
    let mut latency_p99 = 0.0;
    for n_shards in [1usize, 2, 4, 8] {
        let cfg = ServeConfig {
            n_shards,
            ..ServeConfig::default()
        };
        let (decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
        assert_eq!(report.frames_processed, fleet.total_frames());
        assert_eq!(report.shed, 0, "blocking mode never sheds");

        let log = decision_log_csv(&decisions);
        match &baseline_log {
            None => baseline_log = Some(log),
            Some(base) => assert_eq!(
                base, &log,
                "decision log changed between 1 and {n_shards} shards"
            ),
        }

        let fps = report.frames_per_sec();
        best_fps = best_fps.max(fps);
        let base = *baseline_fps.get_or_insert(fps);
        let q = |p: f64| report.latency_ns.quantile(p).unwrap_or(f64::NAN);
        if n_shards == 2 {
            latency_p50 = q(0.50);
            latency_p99 = q(0.99);
        }
        println!(
            "{n_shards}, {fps:.0}, {:.2}, {:.1}, {:.1}, {}",
            fps / base,
            q(0.50) / 1e3,
            q(0.99) / 1e3,
            report.decisions,
        );
    }
    println!("# decision log byte-identical across 1/2/4/8 shards: yes");

    // Stage-trace overhead: untraced vs 1-in-16 sampling, run in
    // interleaved pairs (best of 4 each in full mode) so scheduler
    // drift biases neither mode and a hiccup cannot fake a regression.
    let untraced_cfg = ServeConfig::default();
    let traced_cfg = ServeConfig {
        stage_sampling: 16,
        ..ServeConfig::default()
    };
    let run = |cfg: &ServeConfig| serve_streams(cfg, &fleet.streams, None, &mut NoopSink);
    let rounds = if smoke { 2 } else { 4 };
    let mut untraced_fps = 0.0f64;
    let mut traced_fps = 0.0f64;
    let mut untraced_decisions = None;
    let mut traced_kept = None;
    for _ in 0..rounds {
        let (d, r) = run(&untraced_cfg);
        untraced_fps = untraced_fps.max(r.frames_per_sec());
        untraced_decisions.get_or_insert(d);
        let (d, r) = run(&traced_cfg);
        traced_fps = traced_fps.max(r.frames_per_sec());
        traced_kept.get_or_insert((d, r));
    }
    let untraced_decisions = untraced_decisions.expect("ran at least one round");
    let (traced_decisions, traced_report) = traced_kept.expect("ran at least one round");
    assert_eq!(
        decision_log_csv(&untraced_decisions),
        decision_log_csv(&traced_decisions),
        "stage tracing perturbed the decision log"
    );
    let overhead_pct = ((1.0 - traced_fps / untraced_fps) * 100.0).max(0.0);
    println!(
        "# stage tracing 1-in-16: untraced {untraced_fps:.0} f/s, traced {traced_fps:.0} f/s, overhead {overhead_pct:.2}%"
    );
    if smoke {
        println!("# smoke mode: overhead bound not asserted (workload too small to time)");
    } else {
        assert!(
            overhead_pct <= 2.0,
            "1-in-16 stage tracing cost {overhead_pct:.2}% > 2%"
        );
    }

    println!("stage, traces, p50_ns, p99_ns");
    for stage in Stage::ALL {
        let h = traced_report.stages.get(stage);
        if h.count() == 0 {
            continue;
        }
        let q = |p: f64| h.quantile(p).unwrap_or(f64::NAN);
        println!(
            "{}, {}, {:.0}, {:.0}",
            stage.name(),
            h.count(),
            q(0.50),
            q(0.99)
        );
    }
    let stage_q = |stage: Stage, p: f64| traced_report.stages.get(stage).quantile(p).unwrap_or(0.0);

    // Persist the trajectory. Throughput tolerances are loose (CI
    // hosts differ wildly); the determinism ratios tolerate nothing.
    out.push("frames_per_sec", best_fps, true, 90.0);
    out.push("p50_latency_ns", latency_p50, false, 400.0);
    out.push("p99_latency_ns", latency_p99, false, 400.0);
    // The `Ingest` slot of the stage histograms holds the end-to-end
    // total (see `mobisense_telemetry::STAGE_HIST_NAMES`).
    out.push(
        "stage_total_p50_ns",
        stage_q(Stage::Ingest, 0.50),
        false,
        400.0,
    );
    out.push(
        "stage_queue_wait_p99_ns",
        stage_q(Stage::Dequeue, 0.99),
        false,
        400.0,
    );
    out.push(
        "stage_classify_p99_ns",
        stage_q(Stage::Classify, 0.99),
        false,
        400.0,
    );
    out.push("trace_overhead_pct", overhead_pct, false, 10_000.0);
    out.push("decision_log_invariant", 1.0, true, 0.0);
    let dir = report::default_dir();
    let path = out.write_to(&dir).expect("write bench report");
    println!("# report: {}", path.display());
}
