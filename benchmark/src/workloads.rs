//! The four workloads. Each sets up the system through its public calls,
//! measures one timed phase from the outside, and checks the outputs.
//!
//! Every workload runs one shard (`ServeConfig::n_shards = 1`): the host
//! has two cores, and generator, reactor, worker and recorder must share
//! them. A second shard only adds hand-offs that wait for a core.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mobisense_edge::{Edge, EdgeConfig};
use mobisense_serve::{
    decision_log_csv, ClientStream, EncodedFleet, FleetConfig, RecordPolicy, Recorder,
    RecordingConfig, ServeConfig, ShardEngine, Ticket,
};
use mobisense_session::{HibernationConfig, RetirePolicy};
use mobisense_store::{
    compact, record_fleet, replay_fleet, spawn_flight_recorder, FlightRecorder, RetentionPolicy,
    StoreConfig,
};
use mobisense_telemetry::metrics::Histogram;
use mobisense_telemetry::{NoopSink, Sampler, Stage};
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};

use crate::check;
use crate::load::{self, Plan, Schedule};
use crate::probe::{self, Cpu, ThreadCpu};
use crate::trace::Tracer;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "live_steady",
    "ingest_saturate",
    "hibernate_churn",
    "store_cycle",
];

/// Base streams the relabelled clients replay.
const BASE_CLIENTS: u32 = 32;
/// The paper's per-frame CSI cadence.
const STEP: Nanos = 20 * MILLISECOND;
/// How often the open-loop generator wakes to write what came due.
const TICK: Duration = Duration::from_millis(1);
/// A frame counts as late when it is handed to the socket, or decided,
/// this long after it was due: a tenth of the 500 ms decision period.
/// Late frames are counted, not failed: on a shared host a scheduler
/// stall makes them, so they would not repeat between identical runs.
const LATE_LIMIT: Duration = Duration::from_millis(50);
/// Counter snapshots, taken from the generator thread when tracing.
const SNAPSHOT_EVERY: Duration = Duration::from_millis(100);
/// Spans cover one in this many generator ticks and engine submits.
const SPAN_SAMPLE: u64 = 64;
/// Stage-trace sampling when tracing.
const STAGE_SAMPLING: u32 = 16;

/// How one invocation runs its workloads.
#[derive(Debug)]
pub struct Ctx {
    /// Seeds the base fleet and the relabel plan.
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Shrinks every workload to a fraction of a second.
    pub smoke: bool,
    /// Records spans, counter snapshots and stage traces.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where stores are written (and removed again).
    pub dir: PathBuf,
}

impl Ctx {
    /// Base streams for an open loop or a batch last the timed phase,
    /// since an open-loop client sends one frame per step. A closed loop
    /// gets twice the phase plus 4 s: at the calibrated rates that leaves
    /// room for a 2x speed-up before a new epoch of client ids starts.
    /// Fresh ids add sessions, so crossing an epoch would show up as a
    /// jump in `rss_peak_mib`.
    fn base_cfg(&self, closed: bool) -> FleetConfig {
        let phase = self.seconds.ceil() as u64;
        let secs = match (self.smoke, closed) {
            (true, _) => 3,
            (false, false) => (phase + 2).max(12),
            (false, true) => (2 * phase + 4).max(12),
        };
        FleetConfig {
            n_clients: if self.smoke { 8 } else { BASE_CLIENTS },
            duration: secs * SECOND,
            step: STEP,
            base_seed: self.seed,
            gen_threads: 0,
            ..FleetConfig::default()
        }
    }

    fn serve_cfg(&self) -> ServeConfig {
        ServeConfig {
            n_shards: 1,
            stage_sampling: if self.trace { STAGE_SAMPLING } else { 0 },
            ..ServeConfig::default()
        }
    }

    fn scale(&self, full: u32, smoke: u32) -> u32 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Frames offered.
    pub attempted: u64,
    /// Frames that failed: shed, rejected, never decoded or dropped by
    /// the recorder.
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    /// Spans and counter snapshots, JSONL (empty unless tracing).
    pub trace: String,
}

impl Outcome {
    fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            trace: String::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs one workload by name.
pub fn run(workload: &str, ctx: &Ctx) -> io::Result<Outcome> {
    match workload {
        "live_steady" => socket_workload(ctx, "live_steady", ctx.scale(3072, 256), Drive::Open),
        "ingest_saturate" => {
            socket_workload(ctx, "ingest_saturate", ctx.scale(6144, 512), Drive::Closed)
        }
        "hibernate_churn" => hibernate_churn(ctx),
        "store_cycle" => store_cycle(ctx),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn quantile(h: &Histogram, q: f64) -> f64 {
    h.quantile(q).unwrap_or(0.0)
}

/// Frames whose decision latency landed in a bucket wholly above
/// [`LATE_LIMIT`].
fn decided_late(h: &Histogram) -> u64 {
    let limit = LATE_LIMIT.as_nanos() as f64;
    h.bounds()
        .iter()
        .zip(&h.counts()[1..])
        .filter(|(&lower, _)| lower >= limit)
        .map(|(_, &n)| n)
        .sum()
}

fn us_per_frame(cpu: &Cpu, frames: u64) -> f64 {
    cpu.total() * 1e6 / frames.max(1) as f64
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Sets up `setups` times and keeps the last rig; returns it with the
/// median set-up time. Each set-up runs from workload start to just
/// before the first frame is offered.
fn set_up<R>(
    tracer: &mut Tracer,
    setups: usize,
    mut make: impl FnMut(&mut Tracer) -> io::Result<R>,
    mut discard: impl FnMut(R) -> io::Result<()>,
) -> io::Result<(R, f64)> {
    let mut times = Vec::with_capacity(setups);
    let mut rig = None;
    for _ in 0..setups.max(1) {
        if let Some(old) = rig.take() {
            discard(old)?;
        }
        let t = Instant::now();
        rig = Some(make(tracer)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.ok_or_else(|| io::Error::other("no set-up ran"))?;
    Ok((rig, median(&mut times)))
}

/// Generates the base fleet; returns its streams and the seconds taken.
fn generate(ctx: &Ctx, closed: bool, tracer: &mut Tracer, root: u32) -> (Vec<ClientStream>, f64) {
    let t = Instant::now();
    let fleet = EncodedFleet::generate(&ctx.base_cfg(closed));
    let end = Instant::now();
    tracer.record("phy.generate", root, t, end);
    (fleet.streams, (end - t).as_secs_f64())
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)
}

/// The timed phase: peak RSS reset, CPU read at the start.
struct Phase {
    t0: Instant,
    cpu: Cpu,
    threads: ThreadCpu,
}

impl Phase {
    fn start() -> io::Result<Phase> {
        probe::reset_peak_rss()?;
        let cpu = probe::process_cpu()?;
        let threads = probe::thread_cpu()?;
        Ok(Phase {
            t0: Instant::now(),
            cpu,
            threads,
        })
    }

    /// Wall seconds, process CPU and peak RSS (MiB) of the phase.
    fn end(&self) -> io::Result<(f64, Cpu, f64)> {
        let wall = self.t0.elapsed().as_secs_f64();
        let cpu = probe::process_cpu()?.since(&self.cpu);
        let rss = mib(probe::peak_rss_kib()? as f64 * 1024.0);
        Ok((wall, cpu, rss))
    }
}

/// Per-role thread CPU for a counter snapshot. Snapshots are
/// best-effort: a failed `/proc` read gives zeros in that one snapshot.
fn thread_fields() -> [(&'static str, f64); 4] {
    let t = probe::thread_cpu().unwrap_or_default();
    [
        ("cpu.generator_s", t.generator.total()),
        ("cpu.edge_s", t.edge.total()),
        ("cpu.worker_s", t.worker.total()),
        ("cpu.recorder_s", t.recorder.total()),
    ]
}

/// How the generator offers load over the sockets.
enum Drive {
    /// 50 Hz per client on a fixed schedule, whatever the system does.
    Open,
    /// 64 KiB chunks as fast as backpressure allows.
    Closed,
}

struct SocketRig {
    plan: Plan,
    recorder: Recorder<FlightRecorder>,
    edge: Edge,
    conns: Vec<TcpStream>,
    gen_s: f64,
}

fn socket_rig(
    ctx: &Ctx,
    store_dir: &Path,
    n_clients: u32,
    closed: bool,
    tracer: &mut Tracer,
    root: u32,
) -> io::Result<SocketRig> {
    let (base, gen_s) = generate(ctx, closed, tracer, root);
    let plan = Plan::new(ctx.seed, base, n_clients, 2, 0, 1);
    fresh_dir(store_dir)?;
    let store = StoreConfig::new(store_dir)
        .with_target_segment_bytes(4 << 20)
        .with_retention(RetentionPolicy::keep_everything().with_max_bytes(256 << 20));
    let recorder = spawn_flight_recorder(
        store,
        RecordingConfig {
            policy: RecordPolicy::Block,
            ..RecordingConfig::default()
        },
    )?;
    let handle = recorder.handle();
    let edge = tracer.span("edge.bind", root, || {
        Edge::bind(&ctx.serve_cfg(), &EdgeConfig::default(), Some(handle))
    })?;
    let conns = (0..2)
        .map(|_| {
            let sock = TcpStream::connect(edge.tcp_addr())?;
            sock.set_nodelay(true)?;
            Ok(sock)
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(SocketRig {
        plan,
        recorder,
        edge,
        conns,
        gen_s,
    })
}

fn discard_socket_rig(rig: SocketRig) -> io::Result<()> {
    drop(rig.conns);
    rig.edge.finish(&mut NoopSink)?;
    rig.recorder.finish()?;
    Ok(())
}

/// `live_steady` and `ingest_saturate`: the generator feeds two
/// loopback TCP connections into the edge, which submits to the engine
/// and tees every frame to the Block flight recorder.
fn socket_workload(
    ctx: &Ctx,
    name: &'static str,
    n_clients: u32,
    drive: Drive,
) -> io::Result<Outcome> {
    let mut out = Outcome::new(name);
    let mut tracer = Tracer::new(ctx.trace);
    let root = tracer.open(name, 0, Instant::now());
    let store_dir = ctx.dir.join(format!("store-{name}"));
    let closed = matches!(drive, Drive::Closed);
    let (rig, setup_s) = set_up(
        &mut tracer,
        ctx.setups,
        |t| socket_rig(ctx, &store_dir, n_clients, closed, t, root),
        discard_socket_rig,
    )?;
    let SocketRig {
        plan,
        recorder,
        edge,
        mut conns,
        gen_s,
    } = rig;
    let handle = recorder.handle();

    let phase = Phase::start()?;
    let t0 = phase.t0;
    let load = {
        let (mut ticks, mut last_snapshot) = (0u64, t0);
        let mut on_tick = |start: Instant, end: Instant| {
            if tracer.enabled() {
                if ticks % SPAN_SAMPLE == 0 {
                    tracer.record("generator.tick", root, start, end);
                }
                if end - last_snapshot >= SNAPSHOT_EVERY {
                    last_snapshot = end;
                    let (e, r) = (edge.stats(), handle.stats());
                    let mut fields = vec![
                        ("edge.frames", e.frames as f64),
                        ("edge.bytes", e.bytes as f64),
                        ("edge.buffered_bytes", e.buffered_bytes as f64),
                        ("recorder.frames", r.frames as f64),
                        ("recorder.drained", r.drained as f64),
                        ("recorder.depth", handle.depth() as f64),
                    ];
                    fields.extend(thread_fields());
                    tracer.counters(end, &fields);
                }
            }
            ticks += 1;
        };
        match drive {
            Drive::Open => load::open_loop(
                &plan,
                &Schedule::new(&plan, STEP),
                &mut conns,
                ctx.seconds,
                TICK,
                LATE_LIMIT,
                &mut on_tick,
            )?,
            Drive::Closed => load::closed_loop(
                &plan,
                &mut conns,
                t0 + Duration::from_secs_f64(ctx.seconds),
                u64::MAX,
                &mut on_tick,
            )?,
        }
    };
    // Thread CPU before the drain: the threads exit inside finish.
    let threads = probe::thread_cpu()?.since(&phase.threads);
    for sock in &conns {
        sock.shutdown(Shutdown::Write)?;
    }
    drop(conns);
    let (decisions, report) = tracer.span("edge.finish", root, || edge.finish(&mut NoopSink))?;
    for row in decision_log_csv(&decisions).lines() {
        handle.record_row(row);
    }
    let (written, rec) = tracer.span("recorder.finish", root, || recorder.finish())?;
    let (wall, cpu, rss) = phase.end()?;
    tracer.close(root, Instant::now());

    let decoded = report.stats.frames;
    let processed = report.serve.frames_processed;
    out.attempted = load.offered;
    out.failed = report.serve.shed
        + report.stats.frames_rejected
        + load.offered.saturating_sub(decoded)
        + rec.dropped;
    out.check(report.conserved(), || "edge conservation broke".into());
    out.check(decoded == load.offered, || {
        format!("{} frames sent but {decoded} decoded", load.offered)
    });
    out.check(report.stats.resyncs == 0, || {
        format!("{} edge resyncs on a clean stream", report.stats.resyncs)
    });
    out.check(
        rec.dropped == 0 && rec.frames == decoded && written.frames == decoded,
        || {
            format!(
                "Block recorder lost frames: {} decoded, {} recorded, {} written, {} dropped",
                decoded, rec.frames, written.frames, rec.dropped
            )
        },
    );
    match check::reserve_sample(&plan, &load.lane_sent, &ctx.serve_cfg(), &decisions)? {
        Ok(n) => out.check(n > 0, || "no client was re-served".into()),
        Err(e) => out.failures.push(e),
    }
    fs::remove_dir_all(&store_dir)?;

    out.set("setup_s", setup_s);
    out.set("throughput_fps", processed as f64 / wall);
    out.set("cpu_us_per_frame", us_per_frame(&cpu, processed));
    out.set("rss_peak_mib", rss);
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("late_frames", load.late as f64);
    out.set(
        "decided_late_frames",
        decided_late(&report.serve.latency_ns) as f64,
    );
    out.set("phy.fleet_generate_s", gen_s);
    out.set(
        "edge.cpu_us_per_frame",
        us_per_frame(&threads.edge, decoded),
    );
    out.set(
        "edge.sys_share",
        threads.edge.sys_s / threads.edge.total().max(f64::MIN_POSITIVE),
    );
    out.set(
        "edge.bytes_per_frame",
        report.stats.bytes as f64 / decoded.max(1) as f64,
    );
    out.set(
        "serve.worker_cpu_us_per_frame",
        us_per_frame(&threads.worker, processed),
    );
    out.set("serve.queue_depth_p99", quantile(&report.serve.depth, 0.99));
    out.set(
        "serve.decision_p50_us",
        quantile(&report.serve.latency_ns, 0.5) / 1e3,
    );
    out.set(
        "serve.decision_p99_us",
        quantile(&report.serve.latency_ns, 0.99) / 1e3,
    );
    out.set(
        "generator.cpu_us_per_frame",
        us_per_frame(&threads.generator, load.offered),
    );
    out.set("generator.write_wait_s", load.write_wait.as_secs_f64());
    let mut late: Vec<f64> = load.lateness_us.iter().map(|&u| f64::from(u)).collect();
    late.sort_by(f64::total_cmp);
    let p99 = late.len().saturating_sub(1).min(late.len() * 99 / 100);
    out.set(
        "generator.late_p99_us",
        late.get(p99).copied().unwrap_or(0.0),
    );
    out.set(
        "store.writer_cpu_us_per_frame",
        us_per_frame(&threads.recorder, decoded),
    );
    out.set("store.recorder_depth_max", rec.max_depth as f64);
    out.set(
        "store.bytes_per_frame",
        (written.bytes + written.gc_bytes) as f64 / written.frames.max(1) as f64,
    );
    out.set(
        "store.segments_sealed",
        (written.segments.len() as u64 + written.gc_segments) as f64,
    );
    out.trace = tracer.to_jsonl();
    Ok(out)
}

/// `hibernate_churn`: the generator submits in-process, time-major over
/// 20,000 clients at a 100 ms step, with a hot set of a tenth of them,
/// so nearly every frame faults one session in and pages another out.
fn hibernate_churn(ctx: &Ctx) -> io::Result<Outcome> {
    let name = "hibernate_churn";
    let n_clients = ctx.scale(20_000, 2_000);
    // Streams join 4 s into their recordings, so the 6 s classifier
    // warm-up ends (and decisions flow) within a 10 s phase.
    let offset = if ctx.smoke { 0 } else { 200 };
    let cfg = ServeConfig {
        hibernation: HibernationConfig {
            idle_after: Some(300 * MILLISECOND),
            max_hot: Some(n_clients as usize / 10),
            policy: RetirePolicy::Hibernate,
        },
        ..ctx.serve_cfg()
    };
    let mut out = Outcome::new(name);
    let mut tracer = Tracer::new(ctx.trace);
    let root = tracer.open(name, 0, Instant::now());
    let ((plan, engine, gen_s), setup_s) = set_up(
        &mut tracer,
        ctx.setups,
        |t| {
            let (base, gen_s) = generate(ctx, true, t, root);
            let plan = Plan::new(ctx.seed, base, n_clients, 1, offset, 5);
            Ok((plan, ShardEngine::spawn(&cfg)?, gen_s))
        },
        |(_, engine, _)| {
            engine.finish(0);
            Ok(())
        },
    )?;
    let gauges = engine.session_gauges().to_vec();

    let phase = Phase::start()?;
    let deadline = phase.t0 + Duration::from_secs_f64(ctx.seconds);
    let mut sampler = Sampler::every(cfg.stage_sampling);
    let (mut submitted, mut shed, mut submit_wait) = (0u64, 0u64, Duration::ZERO);
    let (mut batch_start, mut last_snapshot, mut resident_peak) = (phase.t0, phase.t0, 0u64);
    loop {
        if submitted % 1024 == 0 {
            let now = Instant::now();
            if tracer.enabled() && submitted > 0 {
                if (submitted / 1024) % SPAN_SAMPLE == 1 {
                    tracer.record("generator.tick", root, batch_start, now);
                }
                if now - last_snapshot >= SNAPSHOT_EVERY {
                    last_snapshot = now;
                    let sum = |f: fn(&mobisense_serve::SessionGauges) -> u64| -> u64 {
                        gauges.iter().map(|g| f(g)).sum()
                    };
                    use std::sync::atomic::Ordering::Relaxed;
                    let resident = sum(|g| g.resident_bytes.load(Relaxed));
                    resident_peak = resident_peak.max(resident);
                    let mut fields = vec![
                        ("serve.submitted", submitted as f64),
                        ("session.hot", sum(|g| g.hot.load(Relaxed)) as f64),
                        (
                            "session.hibernated",
                            sum(|g| g.hibernated.load(Relaxed)) as f64,
                        ),
                        ("session.resident_bytes", resident as f64),
                        ("session.restores", sum(|g| g.restores.load(Relaxed)) as f64),
                    ];
                    fields.extend(thread_fields());
                    tracer.counters(now, &fields);
                }
            }
            if now >= deadline {
                break;
            }
            batch_start = now;
        }
        let frame = plan.obs(0, submitted);
        let ticket = if sampler.sample() {
            Ticket::traced()
        } else {
            Ticket::untraced()
        };
        if tracer.enabled() {
            let start = Instant::now();
            shed += engine.submit(ticket, frame);
            let end = Instant::now();
            submit_wait += end - start;
            if submitted % SPAN_SAMPLE == 0 {
                tracer.record("serve.submit", root, start, end);
            }
        } else {
            shed += engine.submit(ticket, frame);
        }
        submitted += 1;
    }
    let threads = probe::thread_cpu()?.since(&phase.threads);
    let (decisions, report) = tracer.span("serve.finish", root, || engine.finish(submitted));
    let (wall, cpu, rss) = phase.end()?;
    tracer.close(root, Instant::now());

    let processed = report.frames_processed;
    out.attempted = submitted;
    out.failed = shed;
    out.check(processed == submitted && report.shed == 0, || {
        format!(
            "{submitted} submitted, {processed} processed, {} shed",
            report.shed
        )
    });
    out.check(
        report.sessions.hibernated > 0 && report.sessions.restored > 0,
        || format!("sessions never churned: {:?}", report.sessions),
    );
    match check::reserve_sample(&plan, &[submitted], &cfg, &decisions)? {
        Ok(n) => out.check(n > 0, || "no client was re-served".into()),
        Err(e) => out.failures.push(e),
    }

    let stage = |s: Stage, q: f64| quantile(report.stages.get(s), q);
    out.set("setup_s", setup_s);
    out.set("throughput_fps", processed as f64 / wall);
    out.set("cpu_us_per_frame", us_per_frame(&cpu, processed));
    out.set("rss_peak_mib", rss);
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("late_frames", 0.0);
    out.set(
        "decided_late_frames",
        decided_late(&report.latency_ns) as f64,
    );
    out.set("phy.fleet_generate_s", gen_s);
    out.set(
        "serve.worker_cpu_us_per_frame",
        us_per_frame(&threads.worker, processed),
    );
    out.set("serve.queue_depth_p99", quantile(&report.depth, 0.99));
    out.set("serve.queue_wait_p99_us", stage(Stage::Dequeue, 0.99) / 1e3);
    out.set(
        "serve.decision_p50_us",
        quantile(&report.latency_ns, 0.5) / 1e3,
    );
    out.set(
        "serve.decision_p99_us",
        quantile(&report.latency_ns, 0.99) / 1e3,
    );
    out.set("serve.decide_p99_ns", stage(Stage::Decide, 0.99));
    out.set("serve.submit_wait_s", submit_wait.as_secs_f64());
    out.set(
        "generator.cpu_us_per_frame",
        us_per_frame(&threads.generator, submitted),
    );
    out.set("core.classify_p50_ns", stage(Stage::Classify, 0.5));
    out.set("core.classify_p99_ns", stage(Stage::Classify, 0.99));
    out.set(
        "session.fault_in_p50_us",
        quantile(&report.fault_in_ns, 0.5) / 1e3,
    );
    out.set(
        "session.fault_in_p99_us",
        quantile(&report.fault_in_ns, 0.99) / 1e3,
    );
    out.set(
        "session.restore_ratio",
        report.sessions.restored as f64 / report.sessions.hibernated.max(1) as f64,
    );
    out.set("session.resident_peak_mib", mib(resident_peak as f64));
    out.trace = tracer.to_jsonl();
    Ok(out)
}

/// One record → compact → replay cycle of `store_cycle`.
struct Cycle {
    wall: f64,
    record: f64,
    compact: f64,
    replay: f64,
}

/// `store_cycle`: record a fleet into 1 MiB segments, compact toward
/// 16 MiB, replay at one shard; repeated until the phase ends.
fn store_cycle(ctx: &Ctx) -> io::Result<Outcome> {
    let name = "store_cycle";
    let n_clients = ctx.scale(512, 64);
    let steps = u64::from(ctx.scale(401, 51));
    let cfg = ctx.serve_cfg();
    let dir = ctx.dir.join(format!("store-{name}"));
    let mut out = Outcome::new(name);
    let mut tracer = Tracer::new(ctx.trace);
    let root = tracer.open(name, 0, Instant::now());
    let ((fleet, gen_s), setup_s) = set_up(
        &mut tracer,
        ctx.setups,
        |t| {
            let (base, gen_s) = generate(ctx, false, t, root);
            let plan = Plan::new(ctx.seed, base, n_clients, 1, 0, 1);
            Ok((plan.fleet(&ctx.base_cfg(false), steps), gen_s))
        },
        |_| Ok(()),
    )?;
    let store_err = |e: mobisense_store::StoreError| io::Error::other(e.to_string());

    let phase = Phase::start()?;
    let deadline = phase.t0 + Duration::from_secs_f64(ctx.seconds);
    let mut cycles: Vec<Cycle> = Vec::new();
    let (mut frames, mut failed, mut decided_late_n) = (0u64, 0u64, 0u64);
    let (mut last_report, mut compact_peak) = (None, 0usize);
    let (mut bytes, mut segments) = (0u64, 0usize);
    while cycles.is_empty() || Instant::now() < deadline {
        fresh_dir(&dir)?;
        let t0 = Instant::now();
        let rec = tracer
            .span("store.record_fleet", root, || {
                let store = StoreConfig::new(&dir).with_target_segment_bytes(1 << 20);
                record_fleet(&store, &cfg, &fleet, &mut NoopSink)
            })
            .map_err(store_err)?;
        let t1 = Instant::now();
        let merged = tracer
            .span("store.compact", root, || {
                let store = StoreConfig::new(&dir).with_target_segment_bytes(16 << 20);
                compact(&store, &mut NoopSink)
            })
            .map_err(store_err)?;
        let t2 = Instant::now();
        let replay = tracer
            .span("store.replay_fleet", root, || {
                replay_fleet(&StoreConfig::new(&dir), &cfg, &[1], &mut NoopSink)
            })
            .map_err(store_err)?;
        let t3 = Instant::now();
        fs::remove_dir_all(&dir)?;

        let rows = rec.golden.lines().count() as u64;
        out.check(rec.frames == fleet.total_frames(), || {
            format!("recorded {} of {} frames", rec.frames, fleet.total_frames())
        });
        out.check(
            merged.frames == rec.frames && merged.records == rec.frames + rows,
            || {
                format!(
                    "compaction carried {} frames / {} records, recorded {} frames + {rows} rows",
                    merged.frames, merged.records, rec.frames
                )
            },
        );
        out.check(replay.frames == rec.frames && replay.all_match(), || {
            format!("replay diverged at shard counts {:?}", replay.mismatches())
        });
        frames += rec.frames;
        failed += rec.report.shed;
        decided_late_n += decided_late(&rec.report.latency_ns);
        bytes = rec.bytes;
        segments = rec.segments.len();
        compact_peak = compact_peak.max(merged.peak_resident_bytes);
        cycles.push(Cycle {
            wall: (t3 - t0).as_secs_f64(),
            record: (t1 - t0).as_secs_f64(),
            compact: (t2 - t1).as_secs_f64(),
            replay: (t3 - t2).as_secs_f64(),
        });
        last_report = Some(rec.report);
    }
    let threads = probe::thread_cpu()?.since(&phase.threads);
    let (_, cpu, rss) = phase.end()?;
    tracer.close(root, Instant::now());
    let report = last_report.ok_or_else(|| io::Error::other("no store cycle ran"))?;

    let per_cycle = fleet.total_frames() as f64;
    let mut fps: Vec<f64> = cycles.iter().map(|c| per_cycle / c.wall).collect();
    let pick = |f: fn(&Cycle) -> f64| median(&mut cycles.iter().map(f).collect::<Vec<_>>());
    let stage = |s: Stage, q: f64| quantile(report.stages.get(s), q);
    out.attempted = frames;
    out.failed = failed;
    out.set("setup_s", setup_s);
    out.set("throughput_fps", median(&mut fps));
    out.set("cpu_us_per_frame", us_per_frame(&cpu, frames));
    out.set("rss_peak_mib", rss);
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("late_frames", 0.0);
    out.set("decided_late_frames", decided_late_n as f64);
    out.set("phy.fleet_generate_s", gen_s);
    out.set("serve.queue_depth_p99", quantile(&report.depth, 0.99));
    out.set("serve.queue_wait_p99_us", stage(Stage::Dequeue, 0.99) / 1e3);
    out.set(
        "serve.decision_p50_us",
        quantile(&report.latency_ns, 0.5) / 1e3,
    );
    out.set(
        "serve.decision_p99_us",
        quantile(&report.latency_ns, 0.99) / 1e3,
    );
    out.set("serve.decide_p99_ns", stage(Stage::Decide, 0.99));
    out.set(
        "generator.cpu_us_per_frame",
        us_per_frame(&threads.generator, frames),
    );
    out.set("core.classify_p50_ns", stage(Stage::Classify, 0.5));
    out.set("core.classify_p99_ns", stage(Stage::Classify, 0.99));
    out.set("store.bytes_per_frame", bytes as f64 / per_cycle);
    out.set("store.segments_sealed", segments as f64);
    out.set("store.record_s", pick(|c| c.record));
    out.set("store.compact_s", pick(|c| c.compact));
    out.set("store.replay_s", pick(|c| c.replay));
    out.set("store.compact_resident_peak_mib", mib(compact_peak as f64));
    out.trace = tracer.to_jsonl();
    Ok(out)
}
