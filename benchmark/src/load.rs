//! The seeded load generator: one thread, at most two connections.
//!
//! Generating frames means simulating a ray channel per client per
//! frame, which is far too slow to do for thousands of clients at set-up
//! time. So a [`Plan`] takes a few generated *base* streams and relabels
//! them to many client ids by rewriting bytes 4..8 (the client id) of
//! each encoded frame. A seeded hash of `(seed, id)` picks each id's base
//! stream. Sessions are seeded per client id, so relabelled clients are
//! independent sessions even when they share a base stream.
//!
//! Frames are ordered per *lane* (one TCP connection, or the in-process
//! submit loop): epoch-major, then step-major, then client — frame `i`
//! of every client before frame `i + 1` of any. Client id `id` lives on
//! lane `id % lanes`, so a client's frames stay on one connection and in
//! `seq` order. When a closed loop outruns the base streams it starts a
//! new epoch of fresh client ids rather than wrapping a stream (which
//! would make a session see time run backwards).

use std::io::{self, Write};
use std::time::{Duration, Instant};

use mobisense_serve::{mix64, ClientStream, EncodedFleet, FleetConfig, ObsFrame};
use mobisense_util::units::Nanos;

/// Closed-loop write size: whole frames up to this many bytes.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Every `LATENESS_SAMPLE`-th offered frame has its lateness recorded.
pub const LATENESS_SAMPLE: u64 = 64;

/// Maps client ids onto base streams and orders their frames per lane.
pub struct Plan {
    seed: u64,
    base: Vec<ClientStream>,
    n_clients: u32,
    lanes: u32,
    /// First base frame a client's stream starts at.
    offset: usize,
    /// Base frames per client step (5 turns a 20 ms base into 100 ms).
    stride: usize,
    /// Steps per client per epoch.
    steps: u64,
}

impl Plan {
    /// Relabels `base` to `n_clients` ids spread over `lanes` lanes.
    /// Each client takes base frames `offset, offset + stride, ...`.
    pub fn new(
        seed: u64,
        base: Vec<ClientStream>,
        n_clients: u32,
        lanes: u32,
        offset: usize,
        stride: usize,
    ) -> Plan {
        assert!(!base.is_empty(), "a plan needs base streams");
        assert!(
            lanes > 0 && n_clients.is_multiple_of(lanes),
            "clients must split evenly over lanes"
        );
        assert!(stride > 0, "stride must be positive");
        let base_frames = base.iter().map(|s| s.n_frames).min().unwrap_or(0);
        assert!(base_frames > offset, "base streams shorter than the offset");
        let steps = ((base_frames - offset - 1) / stride + 1) as u64;
        Plan {
            seed,
            base,
            n_clients,
            lanes,
            offset,
            stride,
            steps,
        }
    }

    /// Steps (frames) per client per epoch.
    #[cfg(test)]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Encoded size of one frame.
    pub fn frame_len(&self) -> usize {
        self.base[0].frame_len
    }

    fn per_lane(&self) -> u64 {
        u64::from(self.n_clients / self.lanes)
    }

    /// The base stream client `id` replays.
    pub fn base_index(&self, id: u32) -> usize {
        (mix64(self.seed ^ mix64(u64::from(id) ^ 0x0072_656c_6162_656c)) % self.base.len() as u64)
            as usize
    }

    /// The lane client `id` lives on.
    pub fn lane_of(&self, id: u32) -> u32 {
        (id % self.n_clients) % self.lanes
    }

    /// The client and step of the `i`-th frame on `lane`.
    pub fn locate(&self, lane: u32, i: u64) -> (u32, u64) {
        let m = self.per_lane();
        let per_epoch = self.steps * m;
        let (epoch, r) = (i / per_epoch, i % per_epoch);
        let (step, p) = (r / m, r % m);
        let id = epoch * u64::from(self.n_clients) + p * u64::from(self.lanes) + u64::from(lane);
        (u32::try_from(id).expect("client id fits u32"), step)
    }

    fn base_frame(&self, id: u32, step: u64) -> &[u8] {
        self.base[self.base_index(id)].frame(self.offset + step as usize * self.stride)
    }

    /// Appends the `i`-th frame of `lane`, relabelled, to `out`.
    pub fn push_frame(&self, lane: u32, i: u64, out: &mut Vec<u8>) {
        let (id, step) = self.locate(lane, i);
        let at = out.len();
        out.extend_from_slice(self.base_frame(id, step));
        out[at + 4..at + 8].copy_from_slice(&id.to_le_bytes());
    }

    /// The `i`-th frame of `lane`, relabelled and decoded.
    pub fn obs(&self, lane: u32, i: u64) -> ObsFrame {
        let (id, step) = self.locate(lane, i);
        self.decoded(id, step)
    }

    fn decoded(&self, id: u32, step: u64) -> ObsFrame {
        let mut frame = ObsFrame::decode(self.base_frame(id, step))
            .expect("base frames are well-formed")
            .0;
        frame.client_id = id;
        frame
    }

    /// How many frames client `id` received once its lane carried
    /// `lane_sent` frames.
    pub fn frames_sent(&self, id: u32, lane_sent: u64) -> u64 {
        let m = self.per_lane();
        let epoch = u64::from(id / self.n_clients);
        let p = u64::from(id % self.n_clients) / u64::from(self.lanes);
        let first = epoch * self.steps * m + p;
        if lane_sent <= first {
            0
        } else {
            (lane_sent - first).div_ceil(m).min(self.steps)
        }
    }

    /// Client ids `0..n` cover every client the lanes reached, once
    /// each lane carried `lane_sent` frames.
    pub fn clients_reached(&self, lane_sent: &[u64]) -> u32 {
        let per_epoch = self.steps * self.per_lane();
        let epochs = lane_sent
            .iter()
            .map(|&n| n.div_ceil(per_epoch))
            .max()
            .unwrap_or(0);
        u32::try_from(epochs * u64::from(self.n_clients)).expect("client ids fit u32")
    }

    /// The first `count` frames of client `id`, decoded.
    pub fn client_frames(&self, id: u32, count: u64) -> Vec<ObsFrame> {
        (0..count).map(|step| self.decoded(id, step)).collect()
    }

    /// Epoch 0 as an in-memory fleet of `steps` frames per client (at
    /// most [`steps`](Self::steps)).
    pub fn fleet(&self, base_cfg: &FleetConfig, steps: u64) -> EncodedFleet {
        let steps = steps.min(self.steps);
        let streams = (0..self.n_clients)
            .map(|id| {
                let mut bytes = Vec::with_capacity(self.frame_len() * steps as usize);
                for step in 0..steps {
                    let at = bytes.len();
                    bytes.extend_from_slice(self.base_frame(id, step));
                    bytes[at + 4..at + 8].copy_from_slice(&id.to_le_bytes());
                }
                ClientStream::from_encoded(id, self.frame_len(), bytes)
            })
            .collect();
        EncodedFleet {
            cfg: FleetConfig {
                n_clients: self.n_clients,
                ..base_cfg.clone()
            },
            streams,
        }
    }
}

/// The open-loop schedule: every client is due once per `step`, with
/// phases spread evenly over the step, so frame `j` of the global due
/// order is due at `j · step / n_clients`. Global frame `j` is frame
/// `j / lanes` of lane `j % lanes`.
pub struct Schedule {
    n_clients: u64,
    step: Nanos,
    total: u64,
}

impl Schedule {
    /// One epoch of `plan` at one frame per client per `step`.
    pub fn new(plan: &Plan, step: Nanos) -> Schedule {
        Schedule {
            n_clients: u64::from(plan.n_clients),
            step,
            total: plan.steps * u64::from(plan.n_clients),
        }
    }

    /// Frames in the schedule.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// When global frame `j` is due, in ns from the start.
    pub fn due_ns(&self, j: u64) -> u64 {
        (u128::from(j) * u128::from(self.step) / u128::from(self.n_clients)) as u64
    }

    /// How many frames are due at or before `t_ns` (capped at the
    /// schedule's end).
    pub fn due_by(&self, t_ns: u64) -> u64 {
        let n = (u128::from(t_ns) + 1) * u128::from(self.n_clients);
        (n.div_ceil(u128::from(self.step)) as u64).min(self.total)
    }
}

/// Appends global frames `from..to` of the open-loop order to their
/// lanes' buffers.
pub fn fill_lanes(plan: &Plan, from: u64, to: u64, bufs: &mut [Vec<u8>]) {
    let lanes = u64::from(plan.lanes);
    for j in from..to {
        let lane = (j % lanes) as usize;
        plan.push_frame(lane as u32, j / lanes, &mut bufs[lane]);
    }
}

/// What one generator run offered.
#[derive(Default)]
pub struct LoadStats {
    /// Frames handed to the sockets.
    pub offered: u64,
    /// Frames offered on each lane.
    pub lane_sent: Vec<u64>,
    /// Time spent inside socket writes.
    pub write_wait: Duration,
    /// Frames handed to the socket later than the lateness limit after
    /// they were due (open loop only).
    pub late: u64,
    /// Sampled lateness in µs, one per [`LATENESS_SAMPLE`] frames (open
    /// loop only).
    pub lateness_us: Vec<u32>,
}

/// Runs the open-loop schedule over `conns` (one per lane) until
/// `seconds` pass or the schedule ends. Every `tick` the generator
/// writes whatever has come due. `on_tick(start, end)` runs after each
/// tick's writes.
pub fn open_loop<W: Write>(
    plan: &Plan,
    sched: &Schedule,
    conns: &mut [W],
    seconds: f64,
    tick: Duration,
    late_limit: Duration,
    on_tick: &mut dyn FnMut(Instant, Instant),
) -> io::Result<LoadStats> {
    assert_eq!(conns.len(), plan.lanes as usize, "one connection per lane");
    let limit_ns = late_limit.as_nanos() as u64;
    let end_ns = (seconds * 1e9) as u64;
    let mut bufs: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
    let mut stats = LoadStats::default();
    let t0 = Instant::now();
    let mut next = 0u64;
    while next < sched.total() {
        let start = Instant::now();
        let now_ns = start.duration_since(t0).as_nanos() as u64;
        if now_ns >= end_ns {
            break;
        }
        let upto = sched.due_by(now_ns);
        if upto > next {
            for b in &mut bufs {
                b.clear();
            }
            fill_lanes(plan, next, upto, &mut bufs);
            let w0 = Instant::now();
            for (conn, buf) in conns.iter_mut().zip(&bufs) {
                conn.write_all(buf)?;
            }
            let end = Instant::now();
            stats.write_wait += end - w0;
            let written_ns = end.duration_since(t0).as_nanos() as u64;
            if written_ns > limit_ns {
                let on_time_from = sched.due_by(written_ns - limit_ns - 1);
                stats.late += on_time_from.clamp(next, upto) - next;
            }
            let mut j = next.next_multiple_of(LATENESS_SAMPLE);
            while j < upto {
                let late_us = written_ns.saturating_sub(sched.due_ns(j)) / 1_000;
                stats
                    .lateness_us
                    .push(late_us.min(u64::from(u32::MAX)) as u32);
                j += LATENESS_SAMPLE;
            }
            stats.offered += upto - next;
            next = upto;
            on_tick(start, end);
        }
        let next_tick = t0 + tick * (now_ns / tick.as_nanos() as u64 + 1) as u32;
        let now = Instant::now();
        if next_tick > now {
            std::thread::sleep(next_tick - now);
        }
    }
    let lanes = u64::from(plan.lanes);
    stats.lane_sent = (0..lanes)
        .map(|l| next / lanes + u64::from(l < next % lanes))
        .collect();
    Ok(stats)
}

/// Runs the closed loop over `conns` (one per lane): each round writes
/// one chunk of whole frames per lane, as fast as backpressure allows,
/// until `until` passes or `max_frames` are offered. `on_tick(start,
/// end)` runs after each round.
pub fn closed_loop<W: Write>(
    plan: &Plan,
    conns: &mut [W],
    until: Instant,
    max_frames: u64,
    on_tick: &mut dyn FnMut(Instant, Instant),
) -> io::Result<LoadStats> {
    assert_eq!(conns.len(), plan.lanes as usize, "one connection per lane");
    let per_chunk = (CHUNK_BYTES / plan.frame_len()).max(1) as u64;
    let mut stats = LoadStats {
        lane_sent: vec![0; conns.len()],
        ..LoadStats::default()
    };
    let mut buf = Vec::with_capacity(CHUNK_BYTES);
    while stats.offered < max_frames && Instant::now() < until {
        let start = Instant::now();
        for (lane, conn) in conns.iter_mut().enumerate() {
            let n = per_chunk.min(max_frames - stats.offered);
            let sent = &mut stats.lane_sent[lane];
            buf.clear();
            for i in *sent..*sent + n {
                plan.push_frame(lane as u32, i, &mut buf);
            }
            let w0 = Instant::now();
            conn.write_all(&buf)?;
            stats.write_wait += w0.elapsed();
            *sent += n;
            stats.offered += n;
        }
        on_tick(start, Instant::now());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_serve::decode_stream;
    use mobisense_util::units::{MILLISECOND, SECOND};
    use std::collections::BTreeMap;

    fn base(seed: u64) -> Vec<ClientStream> {
        EncodedFleet::generate(&FleetConfig {
            n_clients: 4,
            duration: SECOND,
            step: 100 * MILLISECOND,
            base_seed: seed,
            gen_threads: 1,
            ..FleetConfig::default()
        })
        .streams
    }

    fn lanes_bytes(plan: &Plan, frames: u64) -> Vec<Vec<u8>> {
        let mut bufs = vec![Vec::new(), Vec::new()];
        fill_lanes(plan, 0, frames, &mut bufs);
        bufs
    }

    #[test]
    fn each_client_lives_on_one_lane_in_seq_order() {
        let plan = Plan::new(5, base(5), 16, 2, 0, 1);
        let total = plan.steps() * 16;
        let mut lane_of: BTreeMap<u32, usize> = BTreeMap::new();
        let mut last_seq: BTreeMap<u32, u32> = BTreeMap::new();
        for (lane, bytes) in lanes_bytes(&plan, total).iter().enumerate() {
            for f in decode_stream(bytes).expect("relabelled frames decode") {
                assert_eq!(*lane_of.entry(f.client_id).or_insert(lane), lane);
                assert_eq!(plan.lane_of(f.client_id) as usize, lane);
                if let Some(prev) = last_seq.insert(f.client_id, f.seq) {
                    assert!(
                        f.seq > prev,
                        "client {} seq {} after {prev}",
                        f.client_id,
                        f.seq
                    );
                }
            }
        }
        assert_eq!(lane_of.len(), 16);
        assert!(last_seq.values().all(|&s| u64::from(s) == plan.steps() - 1));
    }

    #[test]
    fn closed_loop_writes_the_same_lane_order_and_counts_per_client() {
        let plan = Plan::new(5, base(5), 8, 2, 0, 1);
        // Two epochs and a bit: the third epoch's ids follow the second.
        let max = 2 * plan.steps() * 8 + 5;
        let mut conns = vec![Vec::new(), Vec::new()];
        let far = Instant::now() + Duration::from_secs(60);
        let stats = closed_loop(&plan, &mut conns, far, max, &mut |_, _| {}).expect("in-memory");
        assert_eq!(stats.offered, max);
        let mut per_client: BTreeMap<u32, u64> = BTreeMap::new();
        for (lane, bytes) in conns.iter().enumerate() {
            let frames = decode_stream(bytes).expect("decodes");
            assert_eq!(frames.len() as u64, stats.lane_sent[lane]);
            for (i, f) in frames.iter().enumerate() {
                assert_eq!(plan.locate(lane as u32, i as u64).0, f.client_id);
                *per_client.entry(f.client_id).or_default() += 1;
            }
        }
        assert!(
            per_client.keys().any(|&id| id >= 16),
            "a third epoch started"
        );
        for (&id, &n) in &per_client {
            let lane = plan.lane_of(id) as usize;
            assert_eq!(
                plan.frames_sent(id, stats.lane_sent[lane]),
                n,
                "client {id}"
            );
        }
        assert_eq!(plan.frames_sent(40, stats.lane_sent[0]), 0);
    }

    #[test]
    fn due_times_are_monotone_per_client() {
        let plan = Plan::new(5, base(5), 16, 2, 0, 1);
        let sched = Schedule::new(&plan, 20 * MILLISECOND);
        let mut last_due: BTreeMap<u32, u64> = BTreeMap::new();
        for j in 0..sched.total() {
            let (id, _) = plan.locate((j % 2) as u32, j / 2);
            let due = sched.due_ns(j);
            if let Some(prev) = last_due.insert(id, due) {
                assert_eq!(due - prev, 20 * MILLISECOND, "client {id} due every step");
            }
            // due_by is the inverse of due_ns.
            assert!(sched.due_by(due) > j);
            if due > 0 {
                assert!(sched.due_by(due - 1) <= j);
            }
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_plan() {
        let frames = 200;
        let a = lanes_bytes(&Plan::new(7, base(7), 64, 2, 0, 1), frames);
        let b = lanes_bytes(&Plan::new(7, base(7), 64, 2, 0, 1), frames);
        assert_eq!(a, b);
        let shared = base(7);
        let p7 = Plan::new(7, shared.clone(), 64, 2, 0, 1);
        let p8 = Plan::new(8, shared, 64, 2, 0, 1);
        let picks = |p: &Plan| (0..64).map(|id| p.base_index(id)).collect::<Vec<_>>();
        assert_ne!(picks(&p7), picks(&p8));
        assert_ne!(a, lanes_bytes(&Plan::new(8, base(8), 64, 2, 0, 1), frames));
    }

    #[test]
    fn offset_and_stride_pick_base_frames() {
        let plan = Plan::new(3, base(3), 4, 1, 2, 3);
        assert_eq!(plan.steps(), 3); // base frames 2, 5, 8 of 11
        let f = plan.obs(0, 4); // client 0, step 1
        assert_eq!((f.client_id, f.seq), (0, 5));
        let fleet = plan.fleet(&FleetConfig::default(), 10);
        assert_eq!(fleet.total_frames(), 12);
        assert_eq!(plan.fleet(&FleetConfig::default(), 2).total_frames(), 8);
        assert_eq!(fleet.streams[3].obs(2), plan.client_frames(3, 3)[2]);
    }
}
