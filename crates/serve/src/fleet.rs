//! Synthetic client fleets: thousands of encoded observation streams
//! generated from `mobisense-core` ground-truth scenarios.
//!
//! Stream generation is the expensive part of a serving experiment (it
//! runs the full ray channel per client per frame), so the fleet is
//! **pre-encoded**: each client's whole lifetime becomes one contiguous
//! byte buffer of wire frames, generated once — in parallel across
//! generator threads — and replayed by the service as fast as the
//! shards can drain it. Every per-client property (scenario kind, world
//! seed) derives from the client id alone, so the same `FleetConfig`
//! always yields byte-identical streams regardless of generator thread
//! count or shard count.

use mobisense_core::scenario::{Scenario, ScenarioKind};
use mobisense_mobility::movers::EnvIntensity;
use mobisense_util::units::{Nanos, MILLISECOND, SECOND};

use crate::routing::mix64;
use crate::wire::ObsFrame;

/// Parameters of a synthetic fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of clients (ids `0..n_clients`).
    pub n_clients: u32,
    /// Simulated lifetime of every client.
    pub duration: Nanos,
    /// Frame cadence (one wire frame per step per client).
    pub step: Nanos,
    /// Base seed; per-client world seeds derive from it and the id.
    pub base_seed: u64,
    /// Weighted scenario mix the clients are drawn from.
    pub mix: Vec<(ScenarioKind, u32)>,
    /// Generator threads (`0` = one per available core).
    pub gen_threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_clients: 64,
            duration: 10 * SECOND,
            step: 20 * MILLISECOND,
            base_seed: 1,
            mix: default_mix(),
            gen_threads: 0,
        }
    }
}

/// A plausible building population: mostly parked devices, a few
/// handled, a few walking (weights sum to 16).
pub fn default_mix() -> Vec<(ScenarioKind, u32)> {
    vec![
        (ScenarioKind::Static, 5),
        (ScenarioKind::Environmental(EnvIntensity::Weak), 3),
        (ScenarioKind::Environmental(EnvIntensity::Strong), 2),
        (ScenarioKind::Micro, 3),
        (ScenarioKind::MacroAway, 1),
        (ScenarioKind::MacroTowards, 1),
        (ScenarioKind::MacroRandom, 1),
    ]
}

impl FleetConfig {
    /// The deterministic scenario kind for one client id.
    pub fn kind_for(&self, client_id: u32) -> ScenarioKind {
        assert!(!self.mix.is_empty(), "fleet mix must not be empty");
        let total: u64 = self.mix.iter().map(|&(_, w)| w as u64).sum();
        assert!(total > 0, "fleet mix weights must not all be zero");
        let mut roll = mix64(client_id as u64 ^ 0x6d69_785f) % total;
        for &(kind, w) in &self.mix {
            if roll < w as u64 {
                return kind;
            }
            roll -= w as u64;
        }
        unreachable!("roll < total by construction")
    }

    /// The deterministic world seed for one client id.
    pub fn seed_for(&self, client_id: u32) -> u64 {
        self.base_seed ^ mix64(client_id as u64 ^ 0x636c_6965)
    }

    /// Frames each client emits over its lifetime.
    pub fn frames_per_client(&self) -> usize {
        (self.duration / self.step) as usize + 1
    }
}

/// One client's pre-encoded lifetime: `n_frames` equally sized wire
/// frames back to back.
#[derive(Clone, Debug)]
pub struct ClientStream {
    /// The client id carried in every frame.
    pub client_id: u32,
    /// The ground-truth scenario behind the stream, when the stream was
    /// generated synthetically; `None` for streams rebuilt from a
    /// recorded trace (the store only knows what was on the wire).
    pub kind: Option<ScenarioKind>,
    /// Number of encoded frames.
    pub n_frames: usize,
    /// Encoded size of each frame (fixed: the digest length is the
    /// channel's subcarrier count).
    pub frame_len: usize,
    /// The concatenated frame encodings.
    pub bytes: Vec<u8>,
}

impl ClientStream {
    /// Wraps already-encoded frames (e.g. payloads read back from the
    /// trace store) as a stream, without decoding them.
    ///
    /// Panics if `frame_len` is zero or does not divide the buffer —
    /// streams are fixed-stride by construction.
    pub fn from_encoded(client_id: u32, frame_len: usize, bytes: Vec<u8>) -> Self {
        assert!(frame_len > 0, "frame_len must be non-zero");
        assert!(
            bytes.len().is_multiple_of(frame_len),
            "stream of {} bytes is not a multiple of frame_len {frame_len}",
            bytes.len()
        );
        ClientStream {
            client_id,
            kind: None,
            n_frames: bytes.len() / frame_len,
            frame_len,
            bytes,
        }
    }

    /// Encodes a sequence of frames into a stream. All frames must
    /// belong to `client_id` and share one digest length.
    pub fn from_frames<'a>(client_id: u32, frames: impl IntoIterator<Item = &'a ObsFrame>) -> Self {
        let mut bytes = Vec::new();
        let mut frame_len = 0usize;
        let mut n_frames = 0usize;
        for f in frames {
            assert_eq!(f.client_id, client_id, "frame from a different client");
            if n_frames == 0 {
                frame_len = f.encoded_len();
            } else {
                assert_eq!(f.encoded_len(), frame_len, "mixed digest lengths");
            }
            f.encode_into(&mut bytes);
            n_frames += 1;
        }
        assert!(n_frames > 0, "a stream needs at least one frame");
        ClientStream {
            client_id,
            kind: None,
            n_frames,
            frame_len,
            bytes,
        }
    }

    /// The `i`-th encoded frame.
    pub fn frame(&self, i: usize) -> &[u8] {
        let o = i * self.frame_len;
        &self.bytes[o..o + self.frame_len]
    }

    /// The `i`-th frame, decoded. Panics on out-of-range `i`; stream
    /// bytes are well-formed by construction.
    pub fn obs(&self, i: usize) -> ObsFrame {
        ObsFrame::decode(self.frame(i))
            .expect("fleet frames well-formed")
            .0
    }

    /// The decoded frames, in sequence order.
    pub fn frames(&self) -> impl Iterator<Item = ObsFrame> + '_ {
        (0..self.n_frames).map(|i| self.obs(i))
    }
}

/// A generated fleet: one encoded stream per client, in client-id order.
#[derive(Clone, Debug)]
pub struct EncodedFleet {
    /// The config the fleet was generated from.
    pub cfg: FleetConfig,
    /// Per-client streams, index = client id.
    pub streams: Vec<ClientStream>,
}

impl EncodedFleet {
    /// Generates every client stream, fanning the (embarrassingly
    /// parallel) per-client world simulation across
    /// [`FleetConfig::gen_threads`] threads. The output is
    /// byte-identical for any thread count.
    pub fn generate(cfg: &FleetConfig) -> Self {
        let threads = if cfg.gen_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.gen_threads
        };
        let ids: Vec<u32> = (0..cfg.n_clients).collect();
        let chunk = ids.len().div_ceil(threads.max(1)).max(1);
        let mut streams: Vec<ClientStream> = Vec::with_capacity(ids.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .map(|chunk_ids| {
                    scope.spawn(move || {
                        chunk_ids
                            .iter()
                            .map(|&id| generate_stream(cfg, id))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                streams.extend(h.join().expect("fleet generator panicked"));
            }
        });
        EncodedFleet {
            cfg: cfg.clone(),
            streams,
        }
    }

    /// Total frames across all streams.
    pub fn total_frames(&self) -> u64 {
        self.streams.iter().map(|s| s.n_frames as u64).sum()
    }

    /// Total encoded bytes across all streams.
    pub fn total_bytes(&self) -> usize {
        self.streams.iter().map(|s| s.bytes.len()).sum()
    }

    /// Every frame of every client, decoded lazily, client-major (all
    /// of client 0, then client 1, ...).
    pub fn frames(&self) -> impl Iterator<Item = ObsFrame> + '_ {
        self.streams.iter().flat_map(|s| s.frames())
    }

    /// Every encoded frame, zero-copy, **time-major** (frame `i` of
    /// every client before frame `i + 1` of any) — the order an ingest
    /// tap would see them and the order the trace store records them,
    /// so recording never decodes or re-encodes a frame.
    pub fn encoded_frames_time_major(&self) -> impl Iterator<Item = &[u8]> {
        let max_frames = self.streams.iter().map(|s| s.n_frames).max().unwrap_or(0);
        (0..max_frames).flat_map(move |i| {
            self.streams
                .iter()
                .filter(move |s| i < s.n_frames)
                .map(move |s| s.frame(i))
        })
    }
}

fn generate_stream(cfg: &FleetConfig, client_id: u32) -> ClientStream {
    let kind = cfg.kind_for(client_id);
    let mut scenario = Scenario::new(kind, cfg.seed_for(client_id));
    let n_frames = cfg.frames_per_client();
    let mut bytes = Vec::new();
    let mut frame_len = 0;
    for seq in 0..n_frames {
        let at = seq as Nanos * cfg.step;
        let obs = scenario.observe(at);
        let frame = ObsFrame::from_csi(client_id, seq as u32, at, obs.distance_m, &obs.csi);
        if seq == 0 {
            frame_len = frame.encoded_len();
            bytes.reserve_exact(frame_len * n_frames);
        }
        frame.encode_into(&mut bytes);
    }
    ClientStream {
        client_id,
        kind: Some(kind),
        n_frames,
        frame_len,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::shard_of;
    use crate::wire::decode_stream;

    fn tiny() -> FleetConfig {
        FleetConfig {
            n_clients: 4,
            duration: SECOND,
            step: 100 * MILLISECOND,
            base_seed: 7,
            gen_threads: 1,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn streams_decode_and_index_cleanly() {
        let fleet = EncodedFleet::generate(&tiny());
        assert_eq!(fleet.streams.len(), 4);
        for (id, s) in fleet.streams.iter().enumerate() {
            assert_eq!(s.client_id, id as u32);
            assert_eq!(s.n_frames, 11);
            assert_eq!(s.bytes.len(), s.n_frames * s.frame_len);
            let frames = decode_stream(&s.bytes).expect("well-formed stream");
            for (seq, f) in frames.iter().enumerate() {
                assert_eq!(f.client_id, id as u32);
                assert_eq!(f.seq, seq as u32);
                assert_eq!(f.at, seq as Nanos * 100 * MILLISECOND);
                // Frame indexing agrees with sequential decoding.
                let (indexed, _) = ObsFrame::decode(s.frame(seq)).expect("frame");
                assert_eq!(&indexed, f);
            }
        }
    }

    #[test]
    fn stream_iterators_agree_with_indexing() {
        let fleet = EncodedFleet::generate(&tiny());
        let s = &fleet.streams[2];
        assert!(s.kind.is_some(), "generated streams carry ground truth");
        let tiled: Vec<u8> = (0..s.n_frames).flat_map(|i| s.frame(i).to_vec()).collect();
        assert_eq!(tiled, s.bytes, "indexed frames tile the stream");
        let decoded: Vec<ObsFrame> = s.frames().collect();
        assert_eq!(decoded, decode_stream(&s.bytes).expect("stream decodes"));
        assert_eq!(decoded[3], s.obs(3));

        // Fleet-level client-major iteration covers every frame once.
        assert_eq!(fleet.frames().count() as u64, fleet.total_frames());

        // Time-major order: capture times never decrease.
        let ats: Vec<Nanos> = fleet
            .encoded_frames_time_major()
            .map(|b| ObsFrame::peek_meta(b).expect("well-formed").at)
            .collect();
        assert_eq!(ats.len() as u64, fleet.total_frames());
        assert!(ats.windows(2).all(|w| w[0] <= w[1]), "time-major order");
    }

    #[test]
    fn rebuilt_streams_round_trip() {
        let fleet = EncodedFleet::generate(&tiny());
        let s = &fleet.streams[1];

        // From raw encoded bytes: byte-identical, no ground truth.
        let raw = ClientStream::from_encoded(s.client_id, s.frame_len, s.bytes.clone());
        assert_eq!(raw.n_frames, s.n_frames);
        assert_eq!(raw.bytes, s.bytes);
        assert_eq!(raw.kind, None);

        // From decoded frames: re-encoding is exact.
        let frames: Vec<ObsFrame> = s.frames().collect();
        let rebuilt = ClientStream::from_frames(s.client_id, &frames);
        assert_eq!(rebuilt.bytes, s.bytes);
        assert_eq!(rebuilt.frame_len, s.frame_len);
    }

    #[test]
    #[should_panic(expected = "multiple of frame_len")]
    fn from_encoded_rejects_ragged_buffers() {
        ClientStream::from_encoded(1, 44, vec![0u8; 45]);
    }

    #[test]
    fn generation_is_thread_count_invariant() {
        let one = EncodedFleet::generate(&FleetConfig {
            gen_threads: 1,
            ..tiny()
        });
        let four = EncodedFleet::generate(&FleetConfig {
            gen_threads: 4,
            ..tiny()
        });
        for (a, b) in one.streams.iter().zip(&four.streams) {
            assert_eq!(a.client_id, b.client_id);
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn client_assignment_ignores_fleet_size() {
        // Growing the fleet must not reshuffle existing clients'
        // scenarios or seeds (ids are stable identities).
        let small = tiny();
        let big = FleetConfig {
            n_clients: 64,
            ..tiny()
        };
        for id in 0..4 {
            assert_eq!(small.kind_for(id), big.kind_for(id));
            assert_eq!(small.seed_for(id), big.seed_for(id));
        }
    }

    #[test]
    fn mix_covers_all_weighted_kinds() {
        let cfg = FleetConfig {
            n_clients: 256,
            ..FleetConfig::default()
        };
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..cfg.n_clients {
            seen.insert(cfg.kind_for(id).label());
        }
        for (kind, _) in default_mix() {
            assert!(seen.contains(kind.label()), "unseen kind {}", kind.label());
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 8] {
            let mut hit = vec![false; n];
            for id in 0..256u32 {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, shard_of(id, n), "stable");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "all {n} shards used");
        }
    }
}
