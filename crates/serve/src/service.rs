//! The sharded serving loop: producers pump encoded fleet streams into
//! per-shard queues; shard workers decode nothing (frames arrive
//! decoded), run one [`PipelineSession`] per client, and emit a policy
//! decision on every post-warm-up mode transition.
//!
//! Frames move in batches. A frontend hands the [`ShardEngine`] one
//! [`IngestBatch`] per reactor sweep or producer step
//! ([`ShardEngine::submit_ingest`]); the engine tees it to the flight
//! recorder as one message and pushes each shard's share under one
//! queue lock. A worker takes its whole queue per lock
//! ([`ShardQueue::pop_batch`]) and publishes its session gauges once per
//! batch.
//!
//! ## Determinism contract
//!
//! Each client id hashes to exactly one shard, its producer submits its
//! frames in sequence order, and the queue is FIFO — so a client's
//! session consumes exactly the same frame sequence whatever the shard
//! count. Under [`OverflowPolicy::Block`] no frame is ever lost, so the
//! merged decision log, sorted by `(client_id, seq)`, is bit-identical
//! for 1, 2 or 8 shards. Under
//! [`OverflowPolicy::ShedOldestPerClient`] losses depend on scheduler
//! timing: throughput survives overload, reproducibility is
//! deliberately given up, and the shed counter says how much was
//! dropped.
//!
//! Workers never share state (one session map, one latency histogram
//! and one depth histogram per shard, merged after join), so shard
//! scaling costs no cross-shard synchronisation.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

use mobisense_core::classifier::Classification;
use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
use mobisense_core::policy::MobilityPolicy;
use mobisense_mobility::{Direction, MobilityMode};
use mobisense_session::codec;
use mobisense_session::{HibernationConfig, HibernationManager, RetirePolicy, SnapshotPager};
use mobisense_telemetry::metrics::{Histogram, SPAN_NS_BUCKETS};
use mobisense_telemetry::{Event, NoopSink, Registry, Sink, Stage, StageHistograms};
use mobisense_util::units::Nanos;

use crate::fleet::ClientStream;
use crate::ops::{OpsMonitor, OpsOutcome, OpsSource, SnapshotPolicy};
use crate::queue::{IngestBatch, MigrateParcel, OverflowPolicy, ShardQueue, Ticket, WorkItem};
use crate::recording::{RecorderHandle, RecorderStats};
use crate::routing::{mix64, shard_of};
use crate::sessions::{SessionGauges, SessionOpsSource};
use crate::wire::ObsFrame;

/// A worker's durable snapshot store, one per shard.
pub type BoxedPager = Box<dyn SnapshotPager + Send>;

/// Queue-depth histogram bucket bounds (frames).
pub const DEPTH_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// Configuration of a serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker shards (each gets one ingest producer and one queue).
    pub n_shards: usize,
    /// Per-shard queue capacity (frames).
    pub queue_capacity: usize,
    /// What producers do when a queue fills up.
    pub overflow: OverflowPolicy,
    /// Per-client classification pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Base seed for per-client session noise streams (ToF measurement
    /// noise); the per-client seed derives from it and the client id,
    /// never from the shard, so re-sharding cannot change a session.
    pub session_seed: u64,
    /// Stage-trace sampling: every Nth submitted frame (per producer)
    /// carries a [`mobisense_telemetry::StageTrace`] that stamps each
    /// pipeline stage, feeding the per-stage histograms in
    /// [`ServeReport::stages`]. `0` disables tracing entirely; traces
    /// never influence decisions, only telemetry.
    pub stage_sampling: u32,
    /// When set, a background ops monitor snapshots queue / recorder /
    /// session health at this cadence and flags stalled sources
    /// ([`ServeReport::ops`]).
    pub snapshot: Option<SnapshotPolicy>,
    /// Session residency policy: when idle (or hot-set-overflow)
    /// sessions are hibernated into their slots (and the shard's pager,
    /// if any) — or, under
    /// [`RetirePolicy::Evict`], dropped outright. The default disables
    /// both triggers: sessions stay resident forever, exactly the
    /// pre-hibernation behaviour. Retirement uses the **sim clock**
    /// (frame timestamps), so victim selection is deterministic and the
    /// decision log stays byte-identical with hibernation on or off.
    pub hibernation: HibernationConfig,
    /// When `true`, workers record one [`Event::SessionHibernate`] /
    /// [`Event::SessionRestore`] per lifecycle transition into
    /// [`ServeReport::session_events`] (replayed to the sink at end of
    /// run). Off by default: a 100k-client fleet cycling its working
    /// set generates far more lifecycle events than anyone wants to
    /// buffer; the aggregate counters in [`ServeReport::sessions`] and
    /// the live `serve.sessions.*` gauges are always on.
    pub session_events: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_shards: 2,
            queue_capacity: 512,
            overflow: OverflowPolicy::Block,
            pipeline: PipelineConfig::default(),
            session_seed: 0x5345_5256, // "SERV"
            stage_sampling: 0,
            snapshot: None,
            hibernation: HibernationConfig::default(),
            session_events: false,
        }
    }
}

impl ServeConfig {
    /// The ToF-noise seed for one client's session.
    pub fn session_seed_for(&self, client_id: u32) -> u64 {
        self.session_seed ^ mix64(client_id as u64 ^ 0x7365_7373)
    }
}

/// One emitted decision: a client's mobility state changed after
/// warm-up, and the Table-2 policy column to apply with it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeDecision {
    /// The client that transitioned.
    pub client_id: u32,
    /// Sequence number of the frame that completed the classification.
    pub seq: u32,
    /// Capture timestamp of that frame (sim clock).
    pub at: Nanos,
    /// The new mobility state.
    pub classification: Classification,
    /// The protocol parameters to push to the AP for this client.
    pub policy: MobilityPolicy,
}

/// Per-shard accounting, reported after the run.
#[derive(Clone, Copy, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// Frames this shard's worker processed.
    pub frames: u64,
    /// Decisions this shard emitted.
    pub decisions: u64,
    /// Frames this shard's queue shed.
    pub shed: u64,
    /// Deepest queue occupancy observed.
    pub max_depth: u64,
    /// Latest frame timestamp the worker consumed (sim clock).
    pub last_at: Nanos,
}

/// Aggregate outcome of one serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Frames submitted by producers (shed frames included).
    pub frames_in: u64,
    /// Frames consumed by shard workers.
    pub frames_processed: u64,
    /// Frames evicted under load shedding.
    pub shed: u64,
    /// Emitted mode-transition decisions.
    pub decisions: u64,
    /// Emitted decisions per decided mode, in static / environmental /
    /// micro / macro order.
    pub per_mode: [u64; 4],
    /// Ingest-to-decision wall-clock latency (ns) of every frame that
    /// completed a classification.
    pub latency_ns: Histogram,
    /// Queue depth (frames) sampled at every worker pop.
    pub depth: Histogram,
    /// Per-stage latency histograms merged across shards (empty unless
    /// [`ServeConfig::stage_sampling`] > 0).
    pub stages: StageHistograms,
    /// Per-shard stage histograms, index = shard (empty vec when
    /// tracing is off).
    pub per_stage_shard: Vec<StageHistograms>,
    /// Per-shard accounting, index = shard.
    pub per_shard: Vec<ShardSummary>,
    /// What the ops monitor observed: one serialized snapshot block per
    /// tick plus the stalls its watchdog flagged (empty unless
    /// [`ServeConfig::snapshot`] is set).
    pub ops: OpsOutcome,
    /// Recording-channel counters at the end of the run, when a flight
    /// recorder was attached.
    pub recorder: Option<RecorderStats>,
    /// Session lifecycle totals (hibernate / restore / evict / migrate)
    /// summed across shards.
    pub sessions: SessionsSummary,
    /// Wall-clock latency (ns) of every session fault-in — page-in,
    /// decode and restore: the price a hibernated client pays on its
    /// first frame back.
    pub fault_in_ns: Histogram,
    /// Per-occurrence session lifecycle events, in shard order then
    /// migrations (empty unless [`ServeConfig::session_events`] is set;
    /// migrations are always included). Replayed to the sink by
    /// [`emit_report_events`].
    pub session_events: Vec<Event>,
    /// Wall-clock duration of the whole run.
    pub wall: std::time::Duration,
}

/// Session lifecycle totals for one run, summed across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionsSummary {
    /// Sessions paged out over the run.
    pub hibernated: u64,
    /// Sessions faulted back in over the run.
    pub restored: u64,
    /// Sessions dropped without a snapshot over the run.
    pub evicted: u64,
    /// Live migrations completed over the run.
    pub migrations: u64,
    /// Sessions still resident when the run finished.
    pub hot_final: u64,
    /// Sessions still paged out when the run finished.
    pub hibernated_final: u64,
}

impl ServeReport {
    /// Processed frames per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames_processed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fraction of submitted frames that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.frames_in == 0 {
            0.0
        } else {
            self.shed as f64 / self.frames_in as f64
        }
    }

    /// Assembles the report into a metrics [`Registry`] — the same
    /// shape the live ops monitor snapshots, so a finished run can be
    /// serialized with [`mobisense_telemetry::Snapshot`] too.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.counter("serve.frames_in").add(self.frames_in);
        reg.counter("serve.frames_processed")
            .add(self.frames_processed);
        reg.counter("serve.shed").add(self.shed);
        reg.counter("serve.decisions").add(self.decisions);
        reg.gauge("serve.shards").set(self.per_shard.len() as f64);
        reg.gauge("serve.wall_ns").set(self.wall.as_nanos() as f64);
        if self.latency_ns.count() > 0 {
            reg.histogram("serve.latency_ns", SPAN_NS_BUCKETS)
                .merge(&self.latency_ns);
        }
        if self.depth.count() > 0 {
            reg.histogram("serve.depth", DEPTH_BUCKETS)
                .merge(&self.depth);
        }
        self.stages.fill_registry(&mut reg);
        reg.counter("serve.sessions.hibernates")
            .add(self.sessions.hibernated);
        reg.counter("serve.sessions.restores")
            .add(self.sessions.restored);
        reg.counter("serve.sessions.evictions")
            .add(self.sessions.evicted);
        reg.counter("serve.sessions.migrations")
            .add(self.sessions.migrations);
        reg.gauge("serve.sessions.hot")
            .set(self.sessions.hot_final as f64);
        reg.gauge("serve.sessions.hibernated")
            .set(self.sessions.hibernated_final as f64);
        if self.fault_in_ns.count() > 0 {
            reg.histogram("serve.sessions.fault_in_ns", SPAN_NS_BUCKETS)
                .merge(&self.fault_in_ns);
        }
        if let Some(stats) = &self.recorder {
            reg.counter("serve.recorder.frames").add(stats.frames);
            reg.counter("serve.recorder.rows").add(stats.rows);
            reg.counter("serve.recorder.dropped").add(stats.dropped);
            reg.counter("serve.recorder.drained").add(stats.drained);
            reg.gauge("serve.recorder.max_depth")
                .set(stats.max_depth as f64);
        }
        reg
    }
}

fn mode_index(mode: MobilityMode) -> usize {
    match mode {
        MobilityMode::Static => 0,
        MobilityMode::Environmental => 1,
        MobilityMode::Micro => 2,
        MobilityMode::Macro => 3,
    }
}

/// One shard worker's client state.
struct ClientState {
    session: PipelineSession,
    /// Last classification emitted post-warm-up (warm-up decisions never
    /// update this, so the first settled state is always reported).
    last_emitted: Option<Classification>,
    /// Latest frame timestamp this session consumed (sim clock) — what
    /// a migration parcel carries so the target's LRU stays accurate.
    last_at: Nanos,
    /// Bytes currently charged to the resident-bytes gauge for this
    /// session (re-measured after every frame; sessions grow while
    /// their ToF history fills).
    bytes: usize,
}

struct WorkerResult {
    decisions: Vec<ServeDecision>,
    frames: u64,
    last_at: Nanos,
    latency_ns: Histogram,
    depth: Histogram,
    stages: StageHistograms,
    sessions: SessionsSummary,
    fault_in_ns: Histogram,
    session_events: Vec<Event>,
}

/// One shard worker's session-residency bookkeeping, split from the
/// frame loop so the lifecycle arms ([`WorkItem::Migrate`] /
/// [`WorkItem::Adopt`] / victim retirement) share one implementation.
///
/// The manager hands each client a dense slot on first sight, and the
/// worker keeps its sessions by slot: a frame costs one client → slot
/// lookup, and everything after it indexes vectors. A hibernate →
/// fault-in cycle copies no session state and reuses everything but
/// the page: the victim's live session is encoded straight into the
/// manager's buffer and its box kept as `spare`; a fault-in decodes the
/// slot's page straight into `spare`. Client states are boxed, so
/// retiring or faulting one in moves a pointer, not the whole session.
struct WorkerSessions<'a> {
    cfg: &'a ServeConfig,
    shard: u32,
    /// Resident sessions, indexed by the manager's slots.
    sessions: Vec<Option<Box<ClientState>>>,
    /// Number of `Some` entries in `sessions`.
    resident: u64,
    manager: HibernationManager,
    /// Where page-outs are also written durably, if anywhere.
    pager: Option<BoxedPager>,
    gauges: Arc<SessionGauges>,
    resident_bytes: u64,
    /// The last retired client's state, recycled by the next fault-in.
    spare: Option<Box<ClientState>>,
    /// Reused victim list.
    victims: Vec<(u32, u32)>,
}

impl WorkerSessions<'_> {
    /// The client's slot, with room for its session.
    fn slot(&mut self, client: u32) -> u32 {
        let slot = self.manager.slot(client);
        if self.sessions.len() <= slot as usize {
            self.sessions.resize_with(slot as usize + 1, || None);
        }
        slot
    }

    /// Makes `state` the resident session of `slot`.
    fn insert(&mut self, slot: u32, state: Box<ClientState>) {
        let prev = self.sessions[slot as usize].replace(state);
        assert!(prev.is_none(), "slot {slot} already resident");
        self.resident += 1;
    }

    /// Takes the resident session of `slot` out, if it has one.
    fn take(&mut self, slot: u32) -> Option<Box<ClientState>> {
        let state = self.sessions.get_mut(slot as usize)?.take()?;
        self.resident -= 1;
        self.resident_bytes -= state.bytes as u64;
        Some(state)
    }

    /// Faults the client's session back in if it is hibernated,
    /// recording the fault-in latency, and returns the instant the
    /// session became resident again; `None` (no-op) for resident or
    /// new clients, which a resident run's frames all are. The page is decoded straight into the spare state the
    /// last victim left — or, with no spare, a new one. A failed
    /// fault-in (a corrupt or misfiled page) panics the
    /// worker: serving a fresh session where a hibernated one exists
    /// would silently diverge the decision log, and the workspace's
    /// poison philosophy is that corrupt state fails the run loudly.
    fn fault_in_if_hibernated(
        &mut self,
        slot: u32,
        client: u32,
        at: Nanos,
        out: &mut WorkerResult,
    ) -> Option<Instant> {
        if self.sessions[slot as usize].is_some() || !self.manager.is_hibernated(slot) {
            return None;
        }
        // lint: determinism -- fault-in wall latency is telemetry only, never decisions
        let t0 = Instant::now();
        let mut state = match self.spare.take() {
            Some(spare) => spare,
            None => Box::new(ClientState {
                session: PipelineSession::new(self.cfg.pipeline.clone(), 0),
                last_emitted: None,
                last_at: 0,
                bytes: 0,
            }),
        };
        let faulted = self
            .manager
            .fault_in(slot, &mut state.session, &mut state.last_emitted)
            .expect("session fault-in failed: paged state unusable, refusing to diverge");
        assert!(faulted, "a hibernated slot holds its page");
        state.last_at = at;
        state.bytes = 0;
        self.insert(slot, state);
        // One read ends the span; the same instant stamps `FaultIn`.
        let wait = t0.elapsed();
        let wait_ns = wait.as_nanos() as u64;
        out.fault_in_ns.observe(wait_ns as f64);
        self.gauges
            .fault_in_ns
            .fetch_add(wait_ns, Ordering::Relaxed);
        if self.cfg.session_events {
            out.session_events.push(Event::SessionRestore {
                at,
                client_id: client,
                shard: self.shard,
                wait_ns,
            });
        }
        Some(t0 + wait)
    }

    /// Retires every victim the manager selects at sim time `now`:
    /// snapshot-and-page-out under [`RetirePolicy::Hibernate`], drop
    /// under [`RetirePolicy::Evict`]. Runs after every processed frame;
    /// cheap when nobody is due (one slot read). Returns whether any
    /// session was paged out.
    fn retire_victims(&mut self, now: Nanos, out: &mut WorkerResult) -> bool {
        if !self.cfg.hibernation.enabled() {
            return false;
        }
        let mut victims = std::mem::take(&mut self.victims);
        self.manager.victims_into(now, &mut victims);
        let mut paged = false;
        for &(slot, victim) in &victims {
            let mut state = self
                .take(slot)
                .expect("victim selection tracks exactly the resident sessions");
            match self.cfg.hibernation.policy {
                RetirePolicy::Hibernate => {
                    let pager = self
                        .pager
                        .as_deref_mut()
                        .map(|p| p as &mut dyn SnapshotPager);
                    let bytes = self
                        .manager
                        .hibernate(slot, state.last_emitted, &mut state.session, pager)
                        .expect("session page-out failed: cannot retire without losing state")
                        as u64;
                    paged = true;
                    if self.cfg.session_events {
                        out.session_events.push(Event::SessionHibernate {
                            at: now,
                            client_id: victim,
                            shard: self.shard,
                            bytes,
                        });
                    }
                }
                RetirePolicy::Evict => self.manager.evict(slot),
            }
            self.spare = Some(state);
        }
        self.victims = victims;
        paged
    }

    /// Extracts the client's full session as a [`MigrateParcel`] —
    /// resident, hibernated, or never-seen — and forgets it locally.
    fn extract_parcel(&mut self, client: u32) -> MigrateParcel {
        let slot = self.slot(client);
        let (bytes, last_at) = if let Some(mut state) = self.take(slot) {
            let mut bytes = Vec::new();
            codec::encode_into(&mut bytes, client, state.last_emitted, &mut state.session)
                .expect("migrating session failed to encode: state unusable");
            self.manager.forget(slot);
            (Some(bytes), state.last_at)
        } else {
            // A hibernated page transfers as-is: the target decodes
            // (and so CRC-checks) it at adoption.
            (self.manager.forget(slot).map(Vec::from), 0)
        };
        MigrateParcel {
            client_id: client,
            bytes,
            last_at,
        }
    }

    /// Restores a migrated session into this worker's slots.
    fn adopt(&mut self, parcel: MigrateParcel) {
        let MigrateParcel {
            client_id,
            bytes,
            last_at,
        } = parcel;
        let Some(bytes) = bytes else {
            return; // source had nothing: fresh session on next frame
        };
        let mut session = PipelineSession::new(self.cfg.pipeline.clone(), 0);
        let (page_client, last_emitted) = codec::decode_into(&bytes, &mut session)
            .expect("adopted session parcel failed to decode: transfer corrupted");
        assert_eq!(page_client, client_id, "parcel/snapshot client mismatch");
        let bytes_resident = session.approx_bytes();
        self.resident_bytes += bytes_resident as u64;
        let slot = self.slot(client_id);
        self.insert(
            slot,
            Box::new(ClientState {
                session,
                last_emitted,
                last_at,
                bytes: bytes_resident,
            }),
        );
        self.manager.touch(slot, last_at);
    }

    /// Classifies one frame: faults its session in if hibernated,
    /// observes it, records a decision on a post-warm-up transition,
    /// and retires whatever the frame's sim time makes due. `depth` is
    /// the queue depth the frame was popped at. A traced frame is marked
    /// `FaultIn` only when it faulted a session in and `Retire` only
    /// when its retirement paged one out, and folded after retirement.
    fn serve_frame(
        &mut self,
        mut ticket: Ticket,
        frame: ObsFrame,
        depth: usize,
        out: &mut WorkerResult,
    ) {
        let cfg = self.cfg;
        if let Some(trace) = ticket.trace.as_mut() {
            trace.mark(Stage::Dequeue);
        }
        out.depth.observe(depth as f64);
        out.frames += 1;
        out.last_at = out.last_at.max(frame.at);
        let slot = self.slot(frame.client_id);
        if let Some(resident) = self.fault_in_if_hibernated(slot, frame.client_id, frame.at, out) {
            if let Some(trace) = ticket.trace.as_mut() {
                trace.mark_at(Stage::FaultIn, resident);
            }
        }
        let state = self.sessions[slot as usize].get_or_insert_with(|| {
            self.resident += 1;
            Box::new(ClientState {
                session: PipelineSession::new(
                    cfg.pipeline.clone(),
                    cfg.session_seed_for(frame.client_id),
                ),
                last_emitted: None,
                last_at: 0,
                bytes: 0,
            })
        });
        let decided = state.session.observe_profile_with(
            frame.at,
            frame.profile(),
            frame.distance_m,
            &mut NoopSink,
        );
        if let Some(trace) = ticket.trace.as_mut() {
            trace.mark(Stage::Classify);
        }
        if let Some(c) = decided {
            if frame.at >= cfg.pipeline.warmup && state.last_emitted != Some(c) {
                state.last_emitted = Some(c);
                out.decisions.push(ServeDecision {
                    client_id: frame.client_id,
                    seq: frame.seq,
                    at: frame.at,
                    classification: c,
                    policy: MobilityPolicy::for_classification(c),
                });
            }
        }
        state.last_at = frame.at;
        // Re-measure the session's footprint (O(1): sizes, not walks)
        // and keep the running resident-bytes ledger exact.
        let now_bytes = state.session.approx_bytes();
        self.resident_bytes = self.resident_bytes - state.bytes as u64 + now_bytes as u64;
        state.bytes = now_bytes;
        self.manager.touch(slot, frame.at);
        if let Some(trace) = ticket.trace.as_mut() {
            // One clock read stamps the `Decide` span and, when the
            // classifier emitted, the end-to-end decision latency — the
            // traced path pays no read the untraced path doesn't.
            // lint: determinism -- wall-clock latency telemetry only, never decisions
            let now = Instant::now();
            trace.mark_at(Stage::Decide, now);
            if decided.is_some() {
                out.latency_ns
                    .observe(now.saturating_duration_since(ticket.ingested).as_nanos() as f64);
            }
        } else if decided.is_some() {
            out.latency_ns
                .observe(ticket.ingested.elapsed().as_nanos() as f64);
        }
        // Retirement runs on the sim clock of the frame just served, so
        // victim choice replays identically run over run.
        let paged = self.retire_victims(frame.at, out);
        if let Some(trace) = ticket.trace.as_mut() {
            if paged {
                trace.mark(Stage::Retire);
            }
            out.stages.observe_trace(trace);
        }
    }

    /// Publishes the current residency picture to the shared gauges
    /// (absolute stores; this worker is the only writer).
    fn publish_gauges(&self) {
        let stats = self.manager.stats();
        self.gauges.hot.store(self.resident, Ordering::Relaxed);
        self.gauges
            .hibernated
            .store(self.manager.hibernated_count() as u64, Ordering::Relaxed);
        self.gauges
            .resident_bytes
            .store(self.resident_bytes, Ordering::Relaxed);
        self.gauges
            .hibernates
            .store(stats.hibernated, Ordering::Relaxed);
        self.gauges
            .restores
            .store(stats.restored, Ordering::Relaxed);
        self.gauges
            .evictions
            .store(stats.evicted, Ordering::Relaxed);
    }
}

fn run_worker(
    queue: &ShardQueue,
    cfg: &ServeConfig,
    shard: u32,
    gauges: Arc<SessionGauges>,
    pager: Option<BoxedPager>,
) -> WorkerResult {
    let mut ws = WorkerSessions {
        cfg,
        shard,
        sessions: Vec::new(),
        resident: 0,
        manager: HibernationManager::new(cfg.hibernation.clone()),
        pager,
        gauges,
        resident_bytes: 0,
        spare: None,
        victims: Vec::new(),
    };
    let mut out = WorkerResult {
        decisions: Vec::new(),
        frames: 0,
        last_at: 0,
        latency_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
        depth: Histogram::with_buckets(DEPTH_BUCKETS),
        stages: StageHistograms::new(),
        sessions: SessionsSummary::default(),
        fault_in_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
        session_events: Vec::new(),
    };
    let mut batch = VecDeque::with_capacity(cfg.queue_capacity);
    while queue.pop_batch(&mut batch) {
        let popped = batch.len();
        for (k, item) in batch.drain(..).enumerate() {
            match item {
                // The depth a one-at-a-time pop would have seen, so the
                // histogram keeps one sample per processed frame.
                WorkItem::Frame(ticket, frame) => {
                    ws.serve_frame(ticket, frame, popped - k, &mut out)
                }
                WorkItem::Migrate { client_id, reply } => {
                    let parcel = ws.extract_parcel(client_id);
                    // lint: error-swallow -- a dropped receiver means the engine is already finishing; the parcel has nowhere to go
                    let _ = reply.send(parcel);
                }
                WorkItem::Adopt(parcel) => ws.adopt(*parcel),
            }
        }
        // Absolute stores, so once per batch is as fresh as the ops
        // monitor can observe.
        ws.publish_gauges();
    }
    let stats = ws.manager.stats();
    out.sessions.hibernated = stats.hibernated;
    out.sessions.restored = stats.restored;
    out.sessions.evicted = stats.evicted;
    out.sessions.hot_final = ws.resident;
    out.sessions.hibernated_final = ws.manager.hibernated_count() as u64;
    out
}

/// Pumps one shard's client streams into the engine, time-major (frame
/// `i` of every client before frame `i + 1` of any), which preserves
/// each client's sequence order and interleaves clients fairly. Frames
/// are decoded through the wire codec on the way in — the replay path
/// exercises exactly the parser an ingest socket would.
///
/// Each step (capped at one queue's capacity) is one [`IngestBatch`]:
/// teed to the recorder, when attached, as one message and pushed as
/// one batch — so the recording channel sees frames in the same
/// per-client order the shard consumes them, which is what makes a
/// lossless recording replay byte-identically.
fn run_producer(engine: &ShardEngine, clients: &[&ClientStream]) -> u64 {
    let max_frames = clients.iter().map(|s| s.n_frames).max().unwrap_or(0);
    let mut submitted = 0u64;
    let mut batch = engine.ingest_batch();
    for i in 0..max_frames {
        for stream in clients {
            if i >= stream.n_frames {
                continue;
            }
            batch.push(stream.obs(i), stream.frame(i));
            submitted += 1;
            if batch.is_full() {
                engine.submit_ingest(&mut batch);
            }
        }
        engine.submit_ingest(&mut batch);
    }
    submitted
}

/// The decode-side half of a serving run, shared by every frontend:
/// per-shard bounded queues plus one owned worker thread each, and the
/// run lifecycle around them (ops monitor, recorder counters, report).
///
/// Three frontends feed the same engine one [`IngestBatch`] at a time
/// through [`ShardEngine::submit_ingest`]: [`serve_streams`]'
/// in-process producers, `mobisense-edge`'s socket reactor, and
/// `mobisense-store`'s replay, which walks a recorded store and hands
/// over each verified frame. So a frame ingested over a socket runs
/// through exactly the recorder tee, worker, session map and decision
/// path a replayed frame does — which is what makes a socket-fed
/// decision log comparable byte-for-byte to the golden in-process log.
pub struct ShardEngine {
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<std::thread::JoinHandle<WorkerResult>>,
    overflow: OverflowPolicy,
    stage_sampling: u32,
    started: Instant,
    /// Per-client shard overrides installed by [`migrate`]
    /// (`Self::migrate`); clients not present route by [`shard_of`].
    /// Read once per submitted batch, written once per migration.
    routes: RwLock<BTreeMap<u32, usize>>,
    /// Per-shard session-residency gauges, written by each worker.
    session_gauges: Vec<Arc<SessionGauges>>,
    migrations: AtomicU64,
    /// One [`Event::SessionMigrate`] per completed migration, replayed
    /// into the report at [`finish`](Self::finish).
    migrate_log: Mutex<Vec<Event>>,
    /// The ops monitor, running when [`ServeConfig::snapshot`] is set.
    monitor: Option<OpsMonitor>,
    /// The flight recorder frontends tee frames into, if any.
    recorder: Option<RecorderHandle>,
}

impl ShardEngine {
    /// Spawns `cfg.n_shards` queues and worker threads with no durable
    /// snapshot store, no recorder and no extra ops sources. Errs only
    /// when the OS refuses a thread.
    pub fn spawn(cfg: &ServeConfig) -> std::io::Result<ShardEngine> {
        Self::start(cfg, None, None, Vec::new())
    }

    /// Spawns the engine together with its run lifecycle.
    ///
    /// * `pagers` — one [`SnapshotPager`] per shard (how the trace
    ///   store's disk-backed pager slots in), which writes each page-out
    ///   durably; with `None`, hibernated pages live only in the
    ///   workers' slots.
    /// * `recorder` — the flight recorder the frontend tees frames
    ///   into: the ops monitor watches its channel and
    ///   [`finish`](Self::finish) reports its counters.
    /// * `sources` — extra monitored sources (the socket edge
    ///   registers its reactor here).
    ///
    /// When [`ServeConfig::snapshot`] is set the ops monitor starts
    /// here, watching the shards, the recorder, the workers' session
    /// gauges (`serve.sessions.*`), then `sources`, in that order;
    /// otherwise `sources` are dropped unused.
    pub fn start(
        cfg: &ServeConfig,
        pagers: Option<Vec<BoxedPager>>,
        recorder: Option<RecorderHandle>,
        sources: Vec<Box<dyn OpsSource>>,
    ) -> std::io::Result<ShardEngine> {
        assert!(cfg.n_shards > 0, "need at least one shard");
        assert!(
            pagers.as_ref().is_none_or(|p| p.len() == cfg.n_shards),
            "one pager per shard"
        );
        let mut pagers = pagers.map(Vec::into_iter);
        // lint: determinism -- run wall clock feeds the serve report only, never decisions
        let started = Instant::now();
        let queues: Vec<Arc<ShardQueue>> = (0..cfg.n_shards)
            .map(|_| Arc::new(ShardQueue::new(cfg.queue_capacity)))
            .collect();
        let session_gauges: Vec<Arc<SessionGauges>> = (0..cfg.n_shards)
            .map(|_| Arc::new(SessionGauges::new()))
            .collect();
        let workers = queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let pager = pagers.as_mut().and_then(Iterator::next);
                let q = Arc::clone(q);
                let cfg = cfg.clone();
                let gauges = Arc::clone(&session_gauges[i]);
                std::thread::Builder::new()
                    .name(format!("shard-worker-{i}"))
                    .spawn(move || run_worker(&q, &cfg, i as u32, gauges, pager))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let monitor = match cfg.snapshot {
            Some(policy) => {
                let mut watched: Vec<Box<dyn OpsSource>> =
                    vec![Box::new(SessionOpsSource::new(session_gauges.clone()))];
                watched.extend(sources);
                Some(OpsMonitor::spawn(
                    queues.clone(),
                    recorder.clone(),
                    watched,
                    policy,
                )?)
            }
            None => None,
        };
        Ok(ShardEngine {
            queues,
            workers,
            overflow: cfg.overflow,
            stage_sampling: cfg.stage_sampling,
            started,
            routes: RwLock::new(BTreeMap::new()),
            session_gauges,
            migrations: AtomicU64::new(0),
            migrate_log: Mutex::new(Vec::new()),
            monitor,
            recorder,
        })
    }

    /// The engine's shard count.
    pub fn n_shards(&self) -> usize {
        self.queues.len()
    }

    /// The per-shard session-residency gauges (hot / hibernated /
    /// resident bytes / lifecycle counters), index = shard. The ops
    /// monitor already watches them; frontends may poll them mid-run.
    pub fn session_gauges(&self) -> &[Arc<SessionGauges>] {
        &self.session_gauges
    }

    /// The shard a client's frames currently route to: the hash route,
    /// unless a migration moved it.
    pub fn route_of(&self, client_id: u32) -> usize {
        let routes = self.routes.read().unwrap_or_else(|e| e.into_inner());
        self.route_in(&routes, client_id)
    }

    fn route_in(&self, routes: &BTreeMap<u32, usize>, client_id: u32) -> usize {
        routes
            .get(&client_id)
            .copied()
            .unwrap_or_else(|| shard_of(client_id, self.queues.len()))
    }

    /// Routes a batch of decoded frames to their shards — reading the
    /// route table once — and enqueues each shard's share, in arrival
    /// order, with one [`ShardQueue::push_batch`] under the engine's
    /// overflow policy. Returns the number of frames shed to make room
    /// (always 0 under [`OverflowPolicy::Block`]).
    pub fn submit_batch<I>(&self, frames: I) -> u64
    where
        I: IntoIterator<Item = (Ticket, ObsFrame)>,
    {
        let frames = frames.into_iter();
        if let [queue] = self.queues.as_slice() {
            return queue.push_batch(frames.map(|(t, f)| WorkItem::frame(t, f)), self.overflow);
        }
        let mut per_shard: Vec<Vec<WorkItem>> = self.queues.iter().map(|_| Vec::new()).collect();
        let routes = self.routes.read().unwrap_or_else(|e| e.into_inner());
        for (ticket, frame) in frames {
            let shard = self.route_in(&routes, frame.client_id);
            per_shard[shard].push(WorkItem::frame(ticket, frame));
        }
        drop(routes);
        per_shard
            .into_iter()
            .zip(&self.queues)
            .filter(|(items, _)| !items.is_empty())
            .map(|(items, queue)| queue.push_batch(items, self.overflow))
            .sum()
    }

    /// Routes one decoded frame: a one-element
    /// [`submit_batch`](Self::submit_batch).
    pub fn submit(&self, ticket: Ticket, frame: ObsFrame) -> u64 {
        self.submit_batch(std::iter::once((ticket, frame)))
    }

    /// An empty [`IngestBatch`] for a frontend of this engine: tracing
    /// every [`ServeConfig::stage_sampling`]-th frame, keeping wire
    /// bytes when a recorder is attached, full at one queue's capacity.
    pub fn ingest_batch(&self) -> IngestBatch {
        let limit = self.queues.first().map_or(1, |q| q.capacity());
        IngestBatch::new(self.stage_sampling, self.recorder.is_some(), limit)
    }

    /// Hands one ingest batch over and leaves it empty for reuse: its
    /// wire bytes go to the recorder (when attached) as one message,
    /// then its frames to [`submit_batch`](Self::submit_batch). Teeing
    /// first keeps the recording in the per-client order the shards
    /// consume, which is what lets a lossless recording replay
    /// byte-identically. Returns the number of frames shed.
    pub fn submit_ingest(&self, batch: &mut IngestBatch) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        if let Some(recorder) = &self.recorder {
            batch.tee(recorder);
        }
        self.submit_batch(batch.drain())
    }

    /// Live-migrates one client's session to `to_shard`:
    /// drain → snapshot → transfer → resume. A [`WorkItem::Migrate`]
    /// marker FIFO-drains every frame already queued for the client at
    /// its current shard, the extracted parcel crosses over, a
    /// [`WorkItem::Adopt`] lands ahead of anything the new shard will
    /// receive for it, and the route flips — so the session consumes
    /// exactly the same frame sequence it would have unmigrated, and
    /// the decision log cannot diverge.
    ///
    /// Must be called from the thread that also calls
    /// [`submit`](Self::submit) (the single-submitter contract): the
    /// call blocks until the source worker hands the session over, and
    /// no frame for the client may be submitted while it is in flight.
    ///
    /// Returns the transferred snapshot size in bytes (0 when the
    /// client had no session anywhere, or was already on `to_shard`).
    pub fn migrate(&self, client_id: u32, to_shard: usize) -> std::io::Result<usize> {
        assert!(to_shard < self.queues.len(), "target shard out of range");
        let from_shard = self.route_of(client_id);
        if from_shard == to_shard {
            return Ok(0);
        }
        let (tx, rx) = mpsc::channel();
        if !self.queues[from_shard].push_control(WorkItem::Migrate {
            client_id,
            reply: tx,
        }) {
            return Err(std::io::Error::other(format!(
                "source shard {from_shard} already closed"
            )));
        }
        let parcel = rx.recv().map_err(|_| {
            std::io::Error::other(format!(
                "source shard {from_shard} worker gone before handing over client {client_id}"
            ))
        })?;
        let bytes = parcel.bytes.as_ref().map_or(0, Vec::len);
        let last_at = parcel.last_at;
        if !self.queues[to_shard].push_control(WorkItem::Adopt(Box::new(parcel))) {
            return Err(std::io::Error::other(format!(
                "target shard {to_shard} already closed"
            )));
        }
        let mut routes = self.routes.write().unwrap_or_else(|e| e.into_inner());
        routes.insert(client_id, to_shard);
        drop(routes);
        self.migrations.fetch_add(1, Ordering::Relaxed);
        let mut log = self.migrate_log.lock().unwrap_or_else(|e| e.into_inner());
        log.push(Event::SessionMigrate {
            at: last_at,
            client_id,
            from_shard: from_shard as u32,
            to_shard: to_shard as u32,
            bytes: bytes as u64,
        });
        Ok(bytes)
    }

    /// Closes every queue, joins the workers, stops the ops monitor
    /// (one final tick, so its snapshots bracket the whole run) and
    /// assembles the run's merged decision log (sorted by
    /// `(client_id, seq)`) and report, recorder counters included.
    /// `frames_in` is the frontend's count of submitted frames (shed
    /// frames included).
    pub fn finish(self, frames_in: u64) -> (Vec<ServeDecision>, ServeReport) {
        for q in &self.queues {
            q.close();
        }
        let results: Vec<WorkerResult> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked")) // lint: hot-path -- shutdown join: queues are closed, workers drain and exit
            .collect();
        let wall = self.started.elapsed();
        let ops = self.monitor.map(OpsMonitor::stop).unwrap_or_default();
        let mut decisions: Vec<ServeDecision> = Vec::new();
        let mut report = ServeReport {
            frames_in,
            frames_processed: 0,
            shed: 0,
            decisions: 0,
            per_mode: [0; 4],
            latency_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
            depth: Histogram::with_buckets(DEPTH_BUCKETS),
            stages: StageHistograms::new(),
            per_stage_shard: Vec::new(),
            per_shard: Vec::with_capacity(self.queues.len()),
            ops,
            recorder: self.recorder.as_ref().map(RecorderHandle::stats),
            sessions: SessionsSummary {
                migrations: self.migrations.load(Ordering::Relaxed),
                ..SessionsSummary::default()
            },
            fault_in_ns: Histogram::with_buckets(SPAN_NS_BUCKETS),
            session_events: Vec::new(),
            wall,
        };
        for (shard, (result, queue)) in results.iter().zip(&self.queues).enumerate() {
            report.frames_processed += result.frames;
            report.shed += queue.shed();
            report.latency_ns.merge(&result.latency_ns);
            report.depth.merge(&result.depth);
            report.sessions.hibernated += result.sessions.hibernated;
            report.sessions.restored += result.sessions.restored;
            report.sessions.evicted += result.sessions.evicted;
            report.sessions.hot_final += result.sessions.hot_final;
            report.sessions.hibernated_final += result.sessions.hibernated_final;
            report.fault_in_ns.merge(&result.fault_in_ns);
            report
                .session_events
                .extend(result.session_events.iter().cloned());
            if self.stage_sampling > 0 {
                report.stages.merge(&result.stages);
                report.per_stage_shard.push(result.stages.clone());
            }
            report.per_shard.push(ShardSummary {
                shard: shard as u32,
                frames: result.frames,
                decisions: result.decisions.len() as u64,
                shed: queue.shed(),
                max_depth: queue.max_depth() as u64,
                last_at: result.last_at,
            });
            decisions.extend_from_slice(&result.decisions);
        }
        let migrate_events = self
            .migrate_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        report.session_events.extend(migrate_events);
        decisions.sort_by_key(|d| (d.client_id, d.seq));
        report.decisions = decisions.len() as u64;
        for d in &decisions {
            report.per_mode[mode_index(d.classification.mode)] += 1;
        }
        (decisions, report)
    }
}

/// Emits the standard end-of-run telemetry for a serve report: one
/// [`Event::ServeShard`] per shard, one [`Event::Snapshot`] per ops
/// tick, one [`Event::Stall`] per watchdog flag, and the `serve.run`
/// wall-clock span. Shared by the in-process service and the socket
/// edge so both run shapes trace identically.
pub fn emit_report_events<S: Sink + ?Sized>(report: &ServeReport, sink: &mut S) {
    if !sink.enabled() {
        return;
    }
    for s in &report.per_shard {
        sink.record(Event::ServeShard {
            at: s.last_at,
            shard: s.shard,
            frames: s.frames,
            decisions: s.decisions,
            shed: s.shed,
            max_depth: s.max_depth,
        });
    }
    // Ops events are wall-clock phenomena with no sim timestamp;
    // `at` is 0 by convention (documented on the variants).
    for m in &report.ops.meta {
        sink.record(Event::Snapshot {
            at: 0,
            seq: m.seq,
            metrics: m.metrics,
            bytes: m.bytes,
        });
    }
    for stall in &report.ops.stalls {
        sink.record(Event::Stall {
            at: 0,
            source: stall.source.clone(),
            intervals: stall.intervals,
            backlog: stall.backlog,
        });
    }
    // Session lifecycle events were buffered per worker during the run
    // (workers own no sink); replay them now, in shard order then
    // migrations.
    for event in &report.session_events {
        sink.record(event.clone());
    }
    sink.span_ns("serve.run", report.wall.as_nanos() as u64);
}

/// Serves a set of client streams in process — the one in-process
/// driver. Spawns one producer and one worker per shard, waits for
/// every stream to drain, and returns the merged decision log (sorted
/// by client id, then sequence) plus the run report. A generated
/// fleet serves as `serve_streams(cfg, &fleet.streams, None, sink)`;
/// single-client replay hands it a stream rebuilt from a recorded
/// trace.
///
/// With a `recorder`, every frame's wire encoding is teed onto its
/// channel as the producer submits it (one message per producer step),
/// and the run ends with
/// [`record_golden_log`]. Under
/// [`crate::recording::RecordPolicy::Block`] the recording is
/// lossless, so replaying the resulting store reproduces this run's
/// decision log byte-for-byte; under `DropNewest` serving never waits
/// on the recorder and the drop counter says what the trace is
/// missing.
///
/// Telemetry lands in `sink` after the threads join (see
/// [`emit_report_events`]).
pub fn serve_streams<S: Sink + ?Sized>(
    cfg: &ServeConfig,
    streams: &[ClientStream],
    recorder: Option<&RecorderHandle>,
    sink: &mut S,
) -> (Vec<ServeDecision>, ServeReport) {
    let engine =
        ShardEngine::start(cfg, None, recorder.cloned(), Vec::new()).expect("shard workers spawn");
    let mut by_shard: Vec<Vec<&ClientStream>> = vec![Vec::new(); cfg.n_shards];
    for stream in streams {
        by_shard[shard_of(stream.client_id, cfg.n_shards)].push(stream);
    }

    let mut frames_in = 0u64;
    std::thread::scope(|scope| {
        let engine = &engine;
        let producers: Vec<_> = by_shard
            .iter()
            .map(|clients| {
                let clients: &[&ClientStream] = clients;
                scope.spawn(move || run_producer(engine, clients))
            })
            .collect();
        for p in producers {
            frames_in += p.join().expect("producer panicked");
        }
    });
    let (decisions, mut report) = engine.finish(frames_in);
    emit_report_events(&report, sink);
    if let Some(recorder) = recorder {
        record_golden_log(recorder, &decisions, &mut report, sink);
    }
    (decisions, report)
}

/// The tail of every recorded run, shared by the in-process and socket
/// drivers: appends the golden decision log (every CSV line of
/// [`decision_log_csv`], header included — the store's `record_fleet`
/// layout) to `recorder` as decision rows, refreshes
/// [`ServeReport::recorder`], and emits one [`Event::ServeRecorder`]
/// stamped with the latest per-shard `last_at`.
pub fn record_golden_log<S: Sink + ?Sized>(
    recorder: &RecorderHandle,
    decisions: &[ServeDecision],
    report: &mut ServeReport,
    sink: &mut S,
) {
    for line in decision_log_csv(decisions).lines() {
        recorder.record_row(line);
    }
    let stats = recorder.stats();
    report.recorder = Some(stats);
    if sink.enabled() {
        let at = report
            .per_shard
            .iter()
            .map(|s| s.last_at)
            .max()
            .unwrap_or(0);
        sink.record(Event::ServeRecorder {
            at,
            frames: stats.frames,
            rows: stats.rows,
            dropped: stats.dropped,
            max_depth: stats.max_depth,
        });
    }
}

/// Renders a decision log as canonical CSV — the byte string the
/// determinism tests compare across shard counts.
pub fn decision_log_csv(decisions: &[ServeDecision]) -> String {
    let mut out = String::from(
        "client_id,seq,at_ns,mode,direction,roam,probe_ns,retries,agg_ns,bf_ns,mu_ns\n",
    );
    for d in decisions {
        let dir = match d.classification.direction {
            Some(Direction::Towards) => "towards",
            Some(Direction::Away) => "away",
            None => "-",
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            d.client_id,
            d.seq,
            d.at,
            d.classification.mode.label(),
            dir,
            u8::from(d.policy.encourage_roaming),
            d.policy.probe_interval,
            d.policy.rate_retries,
            d.policy.aggregation_limit,
            d.policy.bf_feedback_period,
            d.policy.mu_mimo_feedback_period,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{EncodedFleet, FleetConfig};
    use mobisense_util::units::{MILLISECOND, SECOND};

    fn small_fleet() -> EncodedFleet {
        EncodedFleet::generate(&FleetConfig {
            n_clients: 8,
            duration: 9 * SECOND,
            step: 50 * MILLISECOND,
            base_seed: 11,
            gen_threads: 2,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn serves_every_frame_and_emits_decisions() {
        let fleet = small_fleet();
        let cfg = ServeConfig::default();
        let (decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
        assert_eq!(report.frames_in, fleet.total_frames());
        assert_eq!(report.frames_processed, fleet.total_frames());
        assert_eq!(report.shed, 0, "blocking mode never sheds");
        assert!(!decisions.is_empty(), "fleet produced no decisions");
        assert_eq!(report.decisions as usize, decisions.len());
        assert_eq!(report.per_mode.iter().sum::<u64>(), report.decisions);
        // Every client settles into at least one post-warm-up state.
        let clients: std::collections::BTreeSet<u32> =
            decisions.iter().map(|d| d.client_id).collect();
        assert_eq!(clients.len(), 8, "all clients decided: {clients:?}");
        // Decision latency was measured for at least every emitted one.
        assert!(report.latency_ns.count() >= report.decisions);
        assert_eq!(report.depth.count(), report.frames_processed);
    }

    #[test]
    fn decision_log_is_shard_count_invariant() {
        let fleet = small_fleet();
        let mut logs = Vec::new();
        for n_shards in [1usize, 2, 8] {
            let cfg = ServeConfig {
                n_shards,
                ..ServeConfig::default()
            };
            let (decisions, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
            assert_eq!(report.per_shard.len(), n_shards);
            logs.push(decision_log_csv(&decisions));
        }
        assert_eq!(logs[0], logs[1], "1 vs 2 shards");
        assert_eq!(logs[0], logs[2], "1 vs 8 shards");
    }

    #[test]
    fn sorted_log_and_policies_are_consistent() {
        let fleet = small_fleet();
        let (decisions, _) =
            serve_streams(&ServeConfig::default(), &fleet.streams, None, &mut NoopSink);
        assert!(
            decisions
                .windows(2)
                .all(|w| (w[0].client_id, w[0].seq) < (w[1].client_id, w[1].seq)),
            "log sorted by (client, seq)"
        );
        for d in &decisions {
            assert!(d.at >= PipelineConfig::default().warmup);
            assert_eq!(
                d.policy,
                MobilityPolicy::for_classification(d.classification)
            );
        }
        // Consecutive decisions of one client differ (transitions only).
        for w in decisions.windows(2) {
            if w[0].client_id == w[1].client_id {
                assert_ne!(w[0].classification, w[1].classification);
            }
        }
    }

    #[test]
    fn shard_events_and_span_reach_the_sink() {
        let fleet = small_fleet();
        let mut tel = mobisense_telemetry::Telemetry::new();
        let cfg = ServeConfig {
            n_shards: 2,
            ..ServeConfig::default()
        };
        let (_, report) = serve_streams(&cfg, &fleet.streams, None, &mut tel);
        let shard_events: Vec<_> = tel
            .events()
            .filter(|e| matches!(e, Event::ServeShard { .. }))
            .collect();
        assert_eq!(shard_events.len(), 2);
        let total: u64 = report.per_shard.iter().map(|s| s.frames).sum();
        assert_eq!(total, report.frames_processed);
        let (count, mean_ns) = tel
            .registry
            .histogram_snapshot("serve.run")
            .expect("span recorded");
        assert_eq!(count, 1);
        assert!(mean_ns > 0.0);
    }

    #[test]
    fn overload_sheds_and_conserves_frames() {
        let fleet = small_fleet();
        // A tiny queue under an 8-client burst: whatever the scheduler
        // does, frame conservation must hold exactly.
        let cfg = ServeConfig {
            n_shards: 1,
            queue_capacity: 4,
            overflow: OverflowPolicy::ShedOldestPerClient,
            ..ServeConfig::default()
        };
        let (_, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
        assert_eq!(
            report.frames_in,
            report.frames_processed + report.shed,
            "every submitted frame is processed or shed"
        );
        assert!(report.shed_rate() <= 1.0);
    }

    #[test]
    fn stage_tracing_changes_no_decision_and_fills_histograms() {
        let fleet = small_fleet();
        let plain = ServeConfig::default();
        let traced = ServeConfig {
            stage_sampling: 4,
            ..ServeConfig::default()
        };
        let (d_plain, r_plain) = serve_streams(&plain, &fleet.streams, None, &mut NoopSink);
        let (d_traced, r_traced) = serve_streams(&traced, &fleet.streams, None, &mut NoopSink);
        // Tracing is telemetry-only: the decision log stays byte-identical.
        assert_eq!(
            decision_log_csv(&d_plain),
            decision_log_csv(&d_traced),
            "tracing must not perturb decisions"
        );
        assert_eq!(r_plain.stages.traces(), 0);
        let expected = fleet.total_frames() / 4;
        let traces = r_traced.stages.traces();
        // Each producer samples every 4th of its own submissions, so
        // the total is within one frame per producer of the ideal.
        assert!(
            traces >= expected.saturating_sub(traced.n_shards as u64) && traces <= expected + 1,
            "sampled ~1 in 4: {traces} vs {expected}"
        );
        assert_eq!(r_traced.per_stage_shard.len(), traced.n_shards);
        // Every traced frame passed enqueue, dequeue, classify, decide.
        for stage in [
            Stage::Enqueue,
            Stage::Dequeue,
            Stage::Classify,
            Stage::Decide,
        ] {
            assert_eq!(r_traced.stages.get(stage).count(), traces, "{stage:?}");
        }
        // No recorder attached, so the record stage never fired, and a
        // resident run pages nothing in or out.
        for stage in [Stage::Record, Stage::FaultIn, Stage::Retire] {
            assert_eq!(r_traced.stages.get(stage).count(), 0, "{stage:?}");
        }
    }

    #[test]
    fn traced_thrashing_run_attributes_fault_in_and_retire() {
        let fleet = small_fleet();
        let thrash = ServeConfig {
            hibernation: HibernationConfig {
                idle_after: Some(25 * MILLISECOND),
                max_hot: Some(2),
                policy: RetirePolicy::Hibernate,
            },
            ..ServeConfig::default()
        };
        let traced = ServeConfig {
            stage_sampling: 1,
            ..thrash.clone()
        };
        let (d_plain, r_plain) = serve_streams(&thrash, &fleet.streams, None, &mut NoopSink);
        let (d_traced, r_traced) = serve_streams(&traced, &fleet.streams, None, &mut NoopSink);
        assert_eq!(
            decision_log_csv(&d_plain),
            decision_log_csv(&d_traced),
            "tracing the residency cycle must not perturb decisions"
        );
        assert_eq!(r_plain.stages.traces(), 0);
        assert_eq!(r_traced.sessions, r_plain.sessions);
        // Every frame is traced: each fault-in is one `FaultIn` mark,
        // and each frame whose retirement paged out is one `Retire`.
        let stages = &r_traced.stages;
        assert_eq!(stages.traces(), fleet.total_frames());
        assert_eq!(
            stages.get(Stage::FaultIn).count(),
            r_traced.sessions.restored
        );
        let retires = stages.get(Stage::Retire).count();
        assert!(retires > 0 && retires <= r_traced.sessions.hibernated);
        for stage in [Stage::Dequeue, Stage::Classify, Stage::Decide] {
            assert_eq!(stages.get(stage).count(), fleet.total_frames(), "{stage:?}");
        }
    }

    #[test]
    fn snapshot_monitor_reports_and_emits_events() {
        let fleet = small_fleet();
        let mut tel = mobisense_telemetry::Telemetry::new();
        let cfg = ServeConfig {
            stage_sampling: 8,
            snapshot: Some(SnapshotPolicy {
                interval: std::time::Duration::from_millis(5),
                stall_intervals: 2,
            }),
            ..ServeConfig::default()
        };
        let (_, report) = serve_streams(&cfg, &fleet.streams, None, &mut tel);
        // The monitor's final tick guarantees at least one snapshot
        // even on a fast run.
        assert!(!report.ops.snapshots.is_empty());
        let snaps = mobisense_telemetry::parse_snapshots(&report.ops.snapshots.concat())
            .expect("snapshots parse");
        assert_eq!(snaps.len(), report.ops.snapshots.len());
        let snap_events = tel
            .events()
            .filter(|e| matches!(e, Event::Snapshot { .. }))
            .count();
        assert_eq!(snap_events, report.ops.snapshots.len());
        // A healthy drain never stalls.
        assert!(
            report.ops.stalls.is_empty(),
            "stalls: {:?}",
            report.ops.stalls
        );
        assert!(!tel.events().any(|e| matches!(e, Event::Stall { .. })));
        // The report assembles into a registry with the stage hists.
        let reg = report.registry();
        assert_eq!(
            reg.counter_value("serve.frames_processed"),
            Some(report.frames_processed)
        );
        assert!(reg.histogram_snapshot("stage.total").is_some());
    }

    #[test]
    fn hibernation_is_invisible_in_the_decision_log() {
        let fleet = small_fleet();
        let base = ServeConfig::default();
        // An aggressively small idle threshold + hot-set cap: with the
        // time-major pump every client thrashes through hibernate /
        // fault-in constantly, the worst case for the invariant.
        let hib = ServeConfig {
            hibernation: HibernationConfig {
                idle_after: Some(25 * MILLISECOND),
                max_hot: Some(2),
                policy: RetirePolicy::Hibernate,
            },
            session_events: true,
            ..ServeConfig::default()
        };
        let (d_base, r_base) = serve_streams(&base, &fleet.streams, None, &mut NoopSink);
        let (d_hib, r_hib) = serve_streams(&hib, &fleet.streams, None, &mut NoopSink);
        assert_eq!(
            decision_log_csv(&d_base),
            decision_log_csv(&d_hib),
            "hibernate → restore must be invisible in the decision log"
        );
        // Hibernation off: no lifecycle transitions, all 8 resident.
        assert_eq!(
            r_base.sessions,
            SessionsSummary {
                hot_final: 8,
                ..SessionsSummary::default()
            }
        );
        assert!(r_hib.sessions.hibernated > 0, "{:?}", r_hib.sessions);
        assert!(r_hib.sessions.restored > 0);
        assert_eq!(r_hib.sessions.evicted, 0);
        assert_eq!(r_hib.fault_in_ns.count(), r_hib.sessions.restored);
        assert_eq!(
            r_hib
                .session_events
                .iter()
                .filter(|e| matches!(e, Event::SessionHibernate { .. }))
                .count() as u64,
            r_hib.sessions.hibernated
        );
        assert_eq!(
            r_hib
                .session_events
                .iter()
                .filter(|e| matches!(e, Event::SessionRestore { .. }))
                .count() as u64,
            r_hib.sessions.restored
        );
        // Every client ends the run either resident or paged out.
        assert_eq!(
            r_hib.sessions.hot_final + r_hib.sessions.hibernated_final,
            8
        );
        // The registry carries the lifecycle counters.
        let reg = r_hib.registry();
        assert_eq!(
            reg.counter_value("serve.sessions.hibernates"),
            Some(r_hib.sessions.hibernated)
        );
        assert!(reg
            .histogram_snapshot("serve.sessions.fault_in_ns")
            .is_some());
    }

    #[test]
    fn a_thrashing_run_pins_its_hibernation_sequence() {
        // Victim choice is a function of the `(timestamp, client)`
        // stream: this pins which sessions page out and in, when, and
        // at what size. `wait_ns` is wall time, so it stays out.
        let cfg = ServeConfig {
            hibernation: HibernationConfig {
                idle_after: Some(25 * MILLISECOND),
                max_hot: Some(2),
                policy: RetirePolicy::Hibernate,
            },
            session_events: true,
            ..ServeConfig::default()
        };
        let (_, report) = serve_streams(&cfg, &small_fleet().streams, None, &mut NoopSink);
        // FNV-1a 64 over each event's fields, little-endian.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (mut hibernates, mut restores) = (0u64, 0u64);
        for event in &report.session_events {
            match *event {
                Event::SessionHibernate {
                    at,
                    client_id,
                    bytes,
                    ..
                } => {
                    hibernates += 1;
                    feed(&[0]);
                    feed(&client_id.to_le_bytes());
                    feed(&at.to_le_bytes());
                    feed(&bytes.to_le_bytes());
                }
                Event::SessionRestore { at, client_id, .. } => {
                    restores += 1;
                    feed(&[1]);
                    feed(&client_id.to_le_bytes());
                    feed(&at.to_le_bytes());
                }
                _ => {}
            }
        }
        assert_eq!((hibernates, restores), (1444, 1440));
        assert_eq!(hash, 0x62aa_26db_4b8c_7ee1);
    }

    #[test]
    fn idle_eviction_hook_drops_sessions_without_snapshots() {
        let fleet = small_fleet();
        let cfg = ServeConfig {
            hibernation: HibernationConfig {
                idle_after: Some(25 * MILLISECOND),
                max_hot: None,
                policy: RetirePolicy::Evict,
            },
            ..ServeConfig::default()
        };
        let (_, report) = serve_streams(&cfg, &fleet.streams, None, &mut NoopSink);
        assert!(report.sessions.evicted > 0);
        assert_eq!(report.sessions.hibernated, 0);
        assert_eq!(report.sessions.restored, 0);
        assert_eq!(report.sessions.hibernated_final, 0);
    }

    #[test]
    fn live_migration_preserves_decisions_and_conserves_frames() {
        let fleet = small_fleet();
        let (golden, _) =
            serve_streams(&ServeConfig::default(), &fleet.streams, None, &mut NoopSink);

        // A manual single-submitter frontend (the contract migrate()
        // requires), moving one client to the other shard mid-stream.
        let cfg = ServeConfig::default();
        let engine = ShardEngine::spawn(&cfg).expect("engine spawns");
        let max_frames = fleet.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
        let mut frames = Vec::new();
        for i in 0..max_frames {
            for s in &fleet.streams {
                if i < s.n_frames {
                    frames.push(s.obs(i));
                }
            }
        }
        let victim = fleet.streams[0].client_id;
        let mid = frames.len() / 2;
        let mut submitted = 0u64;
        for (k, frame) in frames.into_iter().enumerate() {
            if k == mid {
                let from = engine.route_of(victim);
                let to = (from + 1) % engine.n_shards();
                let bytes = engine.migrate(victim, to).expect("migration completes");
                assert!(bytes > 0, "mid-run session has state to move");
                assert_eq!(engine.route_of(victim), to);
                // Migrating to the current shard is a free no-op.
                assert_eq!(engine.migrate(victim, to).expect("no-op"), 0);
            }
            engine.submit(Ticket::untraced(), frame);
            submitted += 1;
        }
        let (decisions, report) = engine.finish(submitted);
        assert_eq!(
            decision_log_csv(&decisions),
            decision_log_csv(&golden),
            "migration must be invisible in the decision log"
        );
        assert_eq!(report.sessions.migrations, 1);
        assert_eq!(report.frames_in, report.frames_processed + report.shed);
        assert!(report
            .session_events
            .iter()
            .any(|e| matches!(e, Event::SessionMigrate { .. })));
        let reg = report.registry();
        assert_eq!(reg.counter_value("serve.sessions.migrations"), Some(1));
    }

    #[test]
    fn csv_log_has_header_and_one_row_per_decision() {
        let fleet = small_fleet();
        let (decisions, _) =
            serve_streams(&ServeConfig::default(), &fleet.streams, None, &mut NoopSink);
        let csv = decision_log_csv(&decisions);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), decisions.len() + 1);
        assert!(lines[0].starts_with("client_id,seq,at_ns,mode"));
        assert!(lines[1].split(',').count() == 11);
    }
}
