//! The poll-based socket reactor: nonblocking accept / read / decode /
//! submit sweeps feeding the serve layer's shard queues.
//!
//! One thread owns every socket. Each sweep is level-triggered: accept
//! until `WouldBlock` (rejecting past [`EdgeConfig::max_conns`]), give
//! every live connection one bounded read (fairness: no connection can
//! monopolize a sweep), drain the UDP socket, then consult the
//! [`Poller`] with whether anything moved.
//!
//! Decoded frames travel in batches: everything one connection read
//! yields, or everything one UDP sweep yields, is one [`IngestBatch`]
//! whose tickets share a single ingest clock read (and which carries a
//! stage trace on every [`ServeConfig::stage_sampling`]-th frame).
//! [`ShardEngine::submit_ingest`] tees the batch's exact wire bytes to
//! the flight recorder (when attached) as one message, stamps `Record`,
//! then routes the frames with one queue push per shard — the same
//! hash(client id) → shard mapping and overflow policies as the
//! in-process path, at one lock and at most one wake-up per batch
//! instead of per frame. The engine owns the run lifecycle (ops monitor
//! with the edge as an extra source, recorder counters, report);
//! [`Edge`] only adds the sockets and their accounting.
//!
//! **Conservation invariant**: every frame decoded off the wire is
//! accounted for exactly once — `accepted == processed + shed +
//! rejected` ([`EdgeReport::conserved`]). `accepted` counts decoded
//! frames, `rejected` the ones the edge itself refused (a connection
//! over its [`EdgeConfig::frame_quota`]), `shed` the queue evictions,
//! `processed` the worker pops. Bytes that never became a frame
//! (mid-frame truncation at close, resync skips, trailing datagram
//! fragments) are counted separately, never silently dropped.
//!
//! **Determinism**: TCP preserves per-connection byte order and each
//! client owns one connection, so per-client frame order matches the
//! stream. Under [`OverflowPolicy::Block`](mobisense_serve::OverflowPolicy)
//! nothing is lost, and the merged `(client_id, seq)`-sorted decision
//! log is bit-identical to [`mobisense_serve::serve_streams`] on the
//! same streams, whatever the shard count or read fragmentation.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mobisense_serve::{
    emit_report_events, record_golden_log, ClientStream, IngestBatch, OpsSource, RecorderHandle,
    ServeConfig, ServeDecision, ServeReport, ShardEngine,
};
use mobisense_telemetry::{Event, Registry, Sink};
use mobisense_util::units::Nanos;

use crate::conn::FrameAssembler;
use crate::poll::{Poller, SpinPark, Waited};

/// Tuning for the socket edge. `Default` suits loopback tests; a real
/// deployment raises `max_conns` toward its fd budget. How long an idle
/// reactor yields and parks is not a setting: [`SpinPark`] sizes it
/// from the gaps between arrivals that the sweeps see.
#[derive(Clone, Debug)]
pub struct EdgeConfig {
    /// Connection ceiling: accepts past this are closed immediately and
    /// counted rejected.
    pub max_conns: usize,
    /// Bytes read per connection per sweep (fairness quantum).
    pub read_chunk: usize,
    /// Per-connection assembly-buffer ceiling; a connection whose
    /// pending (undecodable) bytes exceed this is closed as `Oversize`.
    pub read_buf_cap: usize,
    /// Frames a single connection may deliver; past it the connection
    /// is condemned, further frames are counted rejected (not lost),
    /// and the socket is closed. `0` = unlimited.
    pub frame_quota: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            max_conns: 16_384,
            read_chunk: 4096,
            read_buf_cap: 64 * 1024,
            frame_quota: 0,
        }
    }
}

/// Counters shared between the reactor thread, the ops monitor, and
/// callers polling [`Edge::stats`] mid-run.
#[derive(Debug, Default)]
struct EdgeShared {
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_active: AtomicU64,
    conns_peak: AtomicU64,
    bytes: AtomicU64,
    frames: AtomicU64,
    frames_rejected: AtomicU64,
    datagrams: AtomicU64,
    buffered_bytes: AtomicU64,
    resyncs: AtomicU64,
    sweeps: AtomicU64,
    idle_sweeps: AtomicU64,
    yields: AtomicU64,
    parks: AtomicU64,
}

/// A point-in-time snapshot of the edge counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted into the reactor.
    pub conns_accepted: u64,
    /// Connections refused (over `max_conns`, or setup failure).
    pub conns_rejected: u64,
    /// Connections currently open.
    pub conns_active: u64,
    /// Peak concurrently-open connections.
    pub conns_peak: u64,
    /// Bytes read off all sockets (TCP + UDP payloads).
    pub bytes: u64,
    /// Frames decoded off the wire (the conservation total).
    pub frames: u64,
    /// Decoded frames the edge refused (quota) — never enqueued.
    pub frames_rejected: u64,
    /// UDP datagrams received.
    pub datagrams: u64,
    /// Bytes currently buffered mid-frame across all connections.
    pub buffered_bytes: u64,
    /// Corruption resynchronization events (TCP assemblers at close +
    /// corrupt datagrams).
    pub resyncs: u64,
    /// Reactor sweeps: passes over the listener, the connections and
    /// the UDP socket.
    pub sweeps: u64,
    /// Sweeps that accepted, read and received nothing.
    pub idle_sweeps: u64,
    /// Idle sweeps the poller ended with a `yield_now`.
    pub yields: u64,
    /// Idle sweeps the poller ended with a park. Every idle sweep
    /// yields or parks: `idle_sweeps == yields + parks`.
    pub parks: u64,
}

impl EdgeShared {
    fn snapshot(&self) -> EdgeStats {
        EdgeStats {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            conns_peak: self.conns_peak.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            datagrams: self.datagrams.load(Ordering::Relaxed),
            buffered_bytes: self.buffered_bytes.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            idle_sweeps: self.idle_sweeps.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }

    /// Counts what the poller did after an idle sweep.
    fn count_idle(&self, waited: Waited) {
        self.idle_sweeps.fetch_add(1, Ordering::Relaxed);
        match waited {
            Waited::Ready => {}
            Waited::Yielded => {
                self.yields.fetch_add(1, Ordering::Relaxed);
            }
            Waited::Parked => {
                self.parks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Publishes the edge counters into the serve ops monitor: `edge.*`
/// metrics in every snapshot, plus a `(progress, backlog)` sample so
/// the stall watchdog flags a reactor that stops moving bytes while
/// connections still hold buffered partial frames.
struct EdgeOpsSource {
    shared: Arc<EdgeShared>,
    last_accepted: AtomicU64,
}

impl OpsSource for EdgeOpsSource {
    fn name(&self) -> String {
        "edge".to_string()
    }

    fn observe(&self, reg: &mut Registry) -> (u64, u64) {
        let s = self.shared.snapshot();
        reg.counter("edge.conns.accepted").add(s.conns_accepted);
        reg.counter("edge.conns.rejected").add(s.conns_rejected);
        reg.counter("edge.bytes").add(s.bytes);
        reg.counter("edge.frames").add(s.frames);
        reg.counter("edge.frames.rejected").add(s.frames_rejected);
        reg.counter("edge.datagrams").add(s.datagrams);
        reg.counter("edge.resyncs").add(s.resyncs);
        reg.counter("edge.sweeps").add(s.sweeps);
        reg.counter("edge.sweeps.idle").add(s.idle_sweeps);
        reg.counter("edge.yields").add(s.yields);
        reg.counter("edge.parks").add(s.parks);
        reg.gauge("edge.conns.active").set(s.conns_active as f64);
        reg.gauge("edge.conns.peak").set(s.conns_peak as f64);
        reg.gauge("edge.read_buffer").set(s.buffered_bytes as f64);
        // Accepts since the previous tick: the live accept-rate gauge.
        let prev = self.last_accepted.swap(s.conns_accepted, Ordering::Relaxed);
        reg.gauge("edge.accept.window")
            .set(s.conns_accepted.saturating_sub(prev) as f64);
        (s.bytes + s.frames + s.conns_accepted, s.buffered_bytes)
    }
}

/// Why a connection ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnOutcome {
    /// Peer closed cleanly after its stream.
    Eof,
    /// Read error (connection reset mid-stream).
    Reset,
    /// Closed by the edge: over `max_conns` at accept, or over its
    /// frame quota.
    Rejected,
    /// Closed by the edge: pending undecodable bytes exceeded
    /// `read_buf_cap`.
    Oversize,
}

impl ConnOutcome {
    /// Stable label carried in [`Event::EdgeConn`].
    pub fn label(&self) -> &'static str {
        match self {
            ConnOutcome::Eof => "eof",
            ConnOutcome::Reset => "reset",
            ConnOutcome::Rejected => "rejected",
            ConnOutcome::Oversize => "oversize",
        }
    }
}

/// Per-connection accounting, reported after the connection closes.
#[derive(Clone, Debug)]
pub struct ConnSummary {
    /// Reactor-assigned connection id (accept order).
    pub conn: u64,
    /// Frames decoded and enqueued from this connection.
    pub frames: u64,
    /// Bytes read from this connection.
    pub bytes: u64,
    /// Corruption resynchronizations on this connection.
    pub resyncs: u64,
    /// Largest frame timestamp seen on this connection.
    pub last_at: Nanos,
    /// How the connection ended.
    pub outcome: ConnOutcome,
}

/// Everything a finished edge run reports: the serve-layer report for
/// the shard/worker side plus the socket-side accounting.
#[derive(Clone, Debug)]
pub struct EdgeReport {
    /// The serve layer's report (decisions, latency, queue depths, ops
    /// snapshots and stalls, recorder counters).
    pub serve: ServeReport,
    /// One summary per connection, accept order.
    pub conns: Vec<ConnSummary>,
    /// Final edge counters.
    pub stats: EdgeStats,
    /// Bytes that never became a frame: mid-frame tails at close plus
    /// trailing fragments of datagrams.
    pub truncated_bytes: u64,
    /// Largest frame timestamp decoded during the run.
    pub last_at: Nanos,
}

impl EdgeReport {
    /// The conservation invariant: every decoded frame was processed by
    /// a worker, shed by a queue, or rejected by the edge.
    pub fn conserved(&self) -> bool {
        self.stats.frames
            == self.serve.frames_processed + self.serve.shed + self.stats.frames_rejected
    }
}

/// One live TCP connection: socket, assembler, accounting.
struct Conn {
    id: u64,
    sock: TcpStream,
    asm: FrameAssembler,
    bytes: u64,
    frames: u64,
    last_at: Nanos,
    condemned: bool,
}

/// Result of giving one connection its read quantum.
enum Pump {
    /// Still open; the flag says whether any byte was read.
    Open(bool),
    Closed(ConnOutcome),
}

impl Conn {
    fn new(id: u64, sock: TcpStream) -> Self {
        Conn {
            id,
            sock,
            asm: FrameAssembler::new(),
            bytes: 0,
            frames: 0,
            last_at: 0,
            condemned: false,
        }
    }

    /// One bounded read + decode pass, collecting the frames it yields
    /// (with their wire bytes) into `batch`.
    fn pump(
        &mut self,
        scratch: &mut [u8],
        cfg: &EdgeConfig,
        shared: &EdgeShared,
        batch: &mut IngestBatch,
    ) -> Pump {
        match self.sock.read(scratch) {
            Ok(0) => Pump::Closed(if self.condemned {
                ConnOutcome::Rejected
            } else {
                ConnOutcome::Eof
            }),
            Ok(n) => {
                self.bytes += n as u64;
                shared.bytes.fetch_add(n as u64, Ordering::Relaxed);
                let chunk = scratch.get(..n).unwrap_or_default();
                let quota = cfg.frame_quota;
                let (mut decoded, mut rejected) = (0u64, 0u64);
                let Conn {
                    asm,
                    frames,
                    last_at,
                    condemned,
                    ..
                } = self;
                asm.feed(chunk, &mut |frame, raw| {
                    decoded += 1;
                    if *condemned || (quota > 0 && *frames >= quota) {
                        *condemned = true;
                        rejected += 1;
                        return;
                    }
                    *frames += 1;
                    if frame.at > *last_at {
                        *last_at = frame.at;
                    }
                    batch.push(frame, raw);
                });
                shared.frames.fetch_add(decoded, Ordering::Relaxed);
                shared
                    .frames_rejected
                    .fetch_add(rejected, Ordering::Relaxed);
                if self.condemned {
                    Pump::Closed(ConnOutcome::Rejected)
                } else if self.asm.pending() > cfg.read_buf_cap {
                    Pump::Closed(ConnOutcome::Oversize)
                } else {
                    Pump::Open(true)
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Pump::Open(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Pump::Open(false),
            Err(_) => Pump::Closed(ConnOutcome::Reset),
        }
    }

    fn summary(&self, outcome: ConnOutcome) -> ConnSummary {
        ConnSummary {
            conn: self.id,
            frames: self.frames,
            bytes: self.bytes,
            resyncs: self.asm.resyncs(),
            last_at: self.last_at,
            outcome,
        }
    }
}

/// What the reactor thread hands back at exit.
struct ReactorOutcome {
    engine: ShardEngine,
    conns: Vec<ConnSummary>,
    truncated_bytes: u64,
    last_at: Nanos,
}

/// A running socket edge: reactor thread + shard engine (which owns the
/// ops monitor), bound to loopback TCP and UDP sockets.
///
/// Lifecycle: [`Edge::bind`] → clients connect to [`Edge::tcp_addr`] /
/// send to [`Edge::udp_addr`] → [`Edge::finish`] drains: every
/// connection whose `connect()` completed before the call — including
/// those still queued in the kernel accept backlog — is accepted and
/// read to EOF, then the reactor and workers are joined and the merged
/// decision log plus the [`EdgeReport`] returned.
/// Dropping an `Edge` without calling `finish` signals the reactor to
/// stop but does not wait for it.
pub struct Edge {
    tcp_addr: SocketAddr,
    udp_addr: SocketAddr,
    shared: Arc<EdgeShared>,
    stop: Arc<AtomicBool>,
    reactor: Option<std::thread::JoinHandle<io::Result<ReactorOutcome>>>,
}

impl Edge {
    /// Binds loopback TCP + UDP sockets and spawns the shard engine
    /// (with the edge registered as an extra ops source, watched when
    /// `serve_cfg.snapshot` is set) and the reactor thread.
    pub fn bind(
        serve_cfg: &ServeConfig,
        edge_cfg: &EdgeConfig,
        recorder: Option<RecorderHandle>,
    ) -> io::Result<Edge> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let udp = UdpSocket::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        udp.set_nonblocking(true)?;
        let tcp_addr = listener.local_addr()?;
        let udp_addr = udp.local_addr()?;

        let shared = Arc::new(EdgeShared::default());
        let stop = Arc::new(AtomicBool::new(false));
        let engine = ShardEngine::start(
            serve_cfg,
            None,
            recorder,
            vec![Box::new(EdgeOpsSource {
                shared: Arc::clone(&shared),
                last_accepted: AtomicU64::new(0),
            })],
        )?;

        let reactor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let cfg = edge_cfg.clone();
            std::thread::Builder::new()
                .name("edge-reactor".to_string())
                .spawn(move || run_reactor(listener, udp, engine, &cfg, &shared, &stop))?
        };

        Ok(Edge {
            tcp_addr,
            udp_addr,
            shared,
            stop,
            reactor: Some(reactor),
        })
    }

    /// The TCP accept address clients connect to.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The UDP address clients send datagrams to.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// Live counters (safe to poll from any thread mid-run).
    pub fn stats(&self) -> EdgeStats {
        self.shared.snapshot()
    }

    /// Drains and shuts down: accepts whatever is still queued in the
    /// kernel backlog, reads every connection to EOF, joins the
    /// reactor and finishes the engine (workers and monitor), emits
    /// telemetry into `sink` (per-shard + per-connection events,
    /// snapshots, stalls, one [`Event::EdgeServe`] summary), and
    /// returns the merged decision log plus the run report.
    ///
    /// Blocks until every connected peer closes its socket.
    pub fn finish<S: Sink + ?Sized>(
        mut self,
        sink: &mut S,
    ) -> io::Result<(Vec<ServeDecision>, EdgeReport)> {
        self.stop.store(true, Ordering::Relaxed);
        let handle = match self.reactor.take() {
            Some(h) => h,
            None => return Err(io::Error::other("edge already finished")),
        };
        let outcome = handle
            .join()
            .map_err(|_| io::Error::other("edge reactor panicked"))??;

        let stats = self.shared.snapshot();
        let frames_in = stats.frames.saturating_sub(stats.frames_rejected);
        let (decisions, serve) = outcome.engine.finish(frames_in);

        emit_report_events(&serve, sink);
        if sink.enabled() {
            for c in &outcome.conns {
                sink.record(Event::EdgeConn {
                    at: c.last_at,
                    conn: c.conn,
                    frames: c.frames,
                    bytes: c.bytes,
                    resyncs: c.resyncs,
                    outcome: c.outcome.label().to_string(),
                });
            }
            sink.record(Event::EdgeServe {
                at: outcome.last_at,
                conns: stats.conns_accepted,
                rejected_conns: stats.conns_rejected,
                frames: stats.frames,
                rejected_frames: stats.frames_rejected,
                bytes: stats.bytes,
                datagrams: stats.datagrams,
            });
        }

        let report = EdgeReport {
            serve,
            conns: outcome.conns,
            stats,
            truncated_bytes: outcome.truncated_bytes,
            last_at: outcome.last_at,
        };
        Ok((decisions, report))
    }
}

impl Drop for Edge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// The reactor loop. Runs on the dedicated `edge-reactor` thread and
/// owns every socket plus the shard engine until exit.
fn run_reactor(
    listener: TcpListener,
    udp: UdpSocket,
    engine: ShardEngine,
    cfg: &EdgeConfig,
    shared: &EdgeShared,
    stop: &AtomicBool,
) -> io::Result<ReactorOutcome> {
    let mut poller = SpinPark::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut summaries: Vec<ConnSummary> = Vec::new();
    let mut scratch = vec![0u8; cfg.read_chunk.max(1)];
    let mut udp_buf = vec![0u8; 64 * 1024];
    let mut next_id = 0u64;
    let mut truncated = 0u64;
    let mut last_at: Nanos = 0;

    // The frame path: each read (or UDP sweep) fills `batch`, and
    // `submit_ingest` tees its exact wire bytes to the recorder (the
    // byte-identical-replay contract), then hands its frames to the
    // shard engine. Under Block overflow this is where socket-side
    // backpressure happens: the reactor stalls, the kernel buffers
    // fill, senders block — pressure propagates to the wire.
    let mut batch = engine.ingest_batch();

    // Consecutive read sweeps skipped under an accept storm (bounded:
    // reads are delayed, never starved).
    let mut read_skips = 0u32;

    loop {
        shared.sweeps.fetch_add(1, Ordering::Relaxed);
        let mut progress = false;
        let mut accepts_this_sweep = 0u32;

        // Accept sweep: drain the backlog. This runs even after stop —
        // a client whose `connect()` returned may still be sitting in
        // the kernel accept queue, and the shutdown contract is that
        // every connection established before `finish()` gets served.
        // The loop below only exits once this sweep drained the queue
        // dry (WouldBlock) with no connections left open.
        loop {
            match listener.accept() {
                Ok((sock, _peer)) => {
                    progress = true;
                    accepts_this_sweep += 1;
                    if conns.len() >= cfg.max_conns || sock.set_nonblocking(true).is_err() {
                        shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
                        summaries.push(ConnSummary {
                            conn: next_id,
                            frames: 0,
                            bytes: 0,
                            resyncs: 0,
                            last_at: 0,
                            outcome: ConnOutcome::Rejected,
                        });
                        next_id += 1;
                        continue;
                    }
                    conns.push(Conn::new(next_id, sock));
                    next_id += 1;
                    shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    let active = shared.conns_active.fetch_add(1, Ordering::Relaxed) + 1;
                    shared.conns_peak.fetch_max(active, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. fd exhaustion):
                // the pending connection stays queued; retry next
                // sweep rather than killing the edge.
                Err(_) => break,
            }
        }

        // Read sweep: one quantum per connection. During a connection
        // storm the sweep's cost (one syscall per live connection)
        // would throttle the accept rate below the kernel's 1s SYN
        // retransmit threshold, so a sweep that accepted a large batch
        // defers reads — boundedly: at most ACCEPT_BIAS_MAX sweeps in
        // a row, then reads run regardless.
        const ACCEPT_BIAS_BATCH: u32 = 64;
        const ACCEPT_BIAS_MAX: u32 = 16;
        if accepts_this_sweep >= ACCEPT_BIAS_BATCH && read_skips < ACCEPT_BIAS_MAX {
            read_skips += 1;
            continue;
        }
        read_skips = 0;

        // One quantum per connection.
        let mut i = 0;
        let mut buffered = 0u64;
        while i < conns.len() {
            let pumped = match conns.get_mut(i) {
                Some(conn) => conn.pump(&mut scratch, cfg, shared, &mut batch),
                None => break,
            };
            engine.submit_ingest(&mut batch);
            match pumped {
                Pump::Open(moved) => {
                    progress |= moved;
                    buffered += conns.get(i).map(|c| c.asm.pending() as u64).unwrap_or(0);
                    i += 1;
                }
                Pump::Closed(outcome) => {
                    progress = true;
                    let conn = conns.swap_remove(i);
                    truncated += conn.asm.pending() as u64;
                    shared
                        .resyncs
                        .fetch_add(conn.asm.resyncs(), Ordering::Relaxed);
                    if conn.last_at > last_at {
                        last_at = conn.last_at;
                    }
                    shared.conns_active.fetch_sub(1, Ordering::Relaxed);
                    summaries.push(conn.summary(outcome));
                }
            }
        }
        shared.buffered_bytes.store(buffered, Ordering::Relaxed);

        // UDP sweep: each datagram is a self-contained frame batch; a
        // trailing fragment or corrupt tail is dropped (counted), never
        // reassembled across datagrams. The whole sweep is one hand-off
        // unless a flood fills the batch first.
        loop {
            match udp.recv_from(&mut udp_buf) {
                Ok((n, _peer)) => {
                    progress = true;
                    shared.datagrams.fetch_add(1, Ordering::Relaxed);
                    shared.bytes.fetch_add(n as u64, Ordering::Relaxed);
                    let datagram = udp_buf.get(..n).unwrap_or_default();
                    let (frames, consumed, err) = mobisense_serve::decode_stream_lossy(datagram);
                    shared
                        .frames
                        .fetch_add(frames.len() as u64, Ordering::Relaxed);
                    let mut off = 0usize;
                    for frame in frames {
                        let len = frame.encoded_len();
                        last_at = last_at.max(frame.at);
                        batch.push(frame, datagram.get(off..off + len).unwrap_or_default());
                        off += len;
                    }
                    if err.is_some() {
                        shared.resyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    truncated += (n - consumed) as u64;
                    if batch.is_full() {
                        engine.submit_ingest(&mut batch);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        engine.submit_ingest(&mut batch);

        if stop.load(Ordering::Relaxed) && conns.is_empty() {
            break;
        }
        let waited = poller.wait(progress);
        if !progress {
            shared.count_idle(waited);
        }
    }

    Ok(ReactorOutcome {
        engine,
        conns: summaries,
        truncated_bytes: truncated,
        last_at,
    })
}

/// Plays a set of client streams against `addr` over TCP, one
/// connection per stream, writing in `chunk`-byte pieces (`0` = the
/// whole stream in one write). Returns once every byte is written and
/// every socket is closed. This is the loopback test/bench harness for
/// an [`Edge`]; real clients are APs speaking the same wire format.
pub fn send_streams_tcp(
    addr: SocketAddr,
    streams: &[ClientStream],
    chunk: usize,
) -> io::Result<()> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || -> io::Result<()> {
                    let mut sock = TcpStream::connect(addr)?;
                    let step = if chunk == 0 {
                        stream.bytes.len().max(1)
                    } else {
                        chunk
                    };
                    for piece in stream.bytes.chunks(step) {
                        sock.write_all(piece)?;
                    }
                    sock.shutdown(Shutdown::Write)?;
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| io::Error::other("sender thread panicked"))??;
        }
        Ok(())
    })
}

/// Sends each encoded frame of each stream as one UDP datagram to
/// `addr` from a single ephemeral socket.
pub fn send_datagrams_udp(addr: SocketAddr, streams: &[ClientStream]) -> io::Result<u64> {
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    let mut sent = 0u64;
    for stream in streams {
        for i in 0..stream.n_frames {
            sock.send_to(stream.frame(i), addr)?;
            sent += 1;
        }
    }
    Ok(sent)
}

/// Serves client streams over real loopback sockets — the one socket
/// driver. Binds an [`Edge`], plays every stream through
/// [`send_streams_tcp`], and finishes. The socket-path analogue of
/// [`mobisense_serve::serve_streams`]: under blocking backpressure the
/// returned decision log is bit-identical to it.
///
/// With a `recorder`, the reactor tees every decoded frame's exact wire
/// bytes onto it (one message per read) and the run ends with
/// [`record_golden_log`], exactly as in process: under
/// [`RecordPolicy::Block`](mobisense_serve::RecordPolicy) the recording
/// is lossless and replaying the resulting store reproduces this run's
/// decision log byte-for-byte.
pub fn serve_sockets<S: Sink + ?Sized>(
    serve_cfg: &ServeConfig,
    edge_cfg: &EdgeConfig,
    streams: &[ClientStream],
    chunk: usize,
    recorder: Option<&RecorderHandle>,
    sink: &mut S,
) -> io::Result<(Vec<ServeDecision>, EdgeReport)> {
    let edge = Edge::bind(serve_cfg, edge_cfg, recorder.cloned())?;
    send_streams_tcp(edge.tcp_addr(), streams, chunk)?;
    let (decisions, mut report) = edge.finish(sink)?;
    if let Some(recorder) = recorder {
        record_golden_log(recorder, &decisions, &mut report.serve, sink);
    }
    Ok((decisions, report))
}
