//! Property tests for the incremental frame assembler: decoding is
//! **chunk-boundary-invariant**. However the kernel fragments a byte
//! stream across reads — 1-byte trickles, random splits, or one big
//! buffer — the assembler emits exactly the same frames, the same raw
//! wire bytes, and the same loss counters, on clean streams and through
//! the lossy resynchronization path alike.

use mobisense_edge::conn::MAX_FRAME_LEN;
use mobisense_edge::FrameAssembler;
use mobisense_serve::wire::{decode_stream, decode_stream_lossy, ObsFrame};
use proptest::prelude::*;
use proptest::strategy::StrategyExt;

fn frame_strategy() -> impl Strategy<Value = ObsFrame> {
    (
        ((0u32..1000, 0u32..u32::MAX), 0u64..u64::MAX),
        (
            -1e9..1e9f64,
            prop::collection::vec((-1e30..1e30f64).prop_map(|v| v as f32), 1..64),
        ),
    )
        .prop_map(|(((client_id, seq), at), (distance_m, digest))| ObsFrame {
            client_id,
            seq,
            at,
            distance_m,
            digest,
        })
}

/// Frames of any digest length the codec allows (1..=255 bins, so up
/// to `MAX_FRAME_LEN` = 1,048 bytes): long enough for a frame to span
/// several reads, short enough for a read to hold several frames.
fn any_length_frame_strategy() -> impl Strategy<Value = ObsFrame> {
    ((0u32..1000, 0u32..u32::MAX), (0u64..u64::MAX, 1usize..256)).prop_map(
        |((client_id, seq), (at, bins))| ObsFrame {
            client_id,
            seq,
            at,
            distance_m: 2.25,
            digest: (0..bins).map(|i| i as f32 * 0.5 - 7.0).collect(),
        },
    )
}

/// Garbage bytes biased toward the magic pair's halves (`0x53`, `0x4D`)
/// and a valid version byte, so corrupt runs hold lone halves, whole
/// pairs and headers that look valid, not only bytes no hunt stops at.
fn garbage_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (
            prop::sample::select(vec![0x53u8, 0x4D, 0x01, 0x00, 0xFF]),
            (0usize..4, 0usize..256),
        )
            .prop_map(|(biased, (pick, any))| if pick == 0 { any as u8 } else { biased }),
        len,
    )
}

/// Emitted (frame, raw wire bytes) pairs plus the assembler's final
/// (frames, resyncs, skipped, pending) counters.
type FeedResult = (Vec<(ObsFrame, Vec<u8>)>, u64, u64, u64, usize);

/// Feed `bytes` split at the given byte offsets (any order, any
/// repeats); collect every emitted (frame, raw bytes) pair plus the
/// final counters.
fn feed_at(bytes: &[u8], mut points: Vec<usize>) -> FeedResult {
    points.push(0);
    points.push(bytes.len());
    points.sort_unstable();
    let mut asm = FrameAssembler::new();
    let mut out = Vec::new();
    for pair in points.windows(2) {
        let chunk = &bytes[pair[0]..pair[1]];
        asm.feed(chunk, &mut |f, raw| out.push((f, raw.to_vec())));
    }
    (
        out,
        asm.frames(),
        asm.resyncs(),
        asm.skipped(),
        asm.pending(),
    )
}

/// Feed `bytes` split at the given fractional cut points.
fn feed_split(bytes: &[u8], cuts: &[f64]) -> FeedResult {
    let points = cuts
        .iter()
        .map(|f| (*f * bytes.len() as f64) as usize)
        .collect();
    feed_at(bytes, points)
}

/// Feed `bytes` in reads of the given lengths, cycled until the bytes
/// run out.
fn feed_lengths(bytes: &[u8], lens: &[usize]) -> FeedResult {
    let mut points = Vec::new();
    let mut at = 0;
    for len in lens.iter().cycle() {
        at += len;
        if at >= bytes.len() {
            break;
        }
        points.push(at);
    }
    feed_at(bytes, points)
}

/// Feed one byte at a time.
fn feed_trickle(bytes: &[u8]) -> FeedResult {
    feed_lengths(bytes, &[1])
}

/// Frames with a garbage run spliced in after the first `gap_after`
/// (clamped); returns the bytes and where the garbage starts.
fn splice(frames: &[ObsFrame], garbage: &[u8], gap_after: usize) -> (Vec<u8>, usize) {
    let gap_at = gap_after.min(frames.len());
    let mut bytes = Vec::new();
    for f in &frames[..gap_at] {
        f.encode_into(&mut bytes);
    }
    let start = bytes.len();
    bytes.extend_from_slice(garbage);
    for f in &frames[gap_at..] {
        f.encode_into(&mut bytes);
    }
    (bytes, start)
}

proptest! {
    /// Clean streams: any split yields exactly `decode_stream`'s
    /// frames, each with its verbatim wire encoding.
    #[test]
    fn clean_stream_any_split_matches_decode_stream(
        frames in prop::collection::vec(frame_strategy(), 1..8),
        cuts in prop::collection::vec(0.0..1.0f64, 0..12),
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let reference = decode_stream(&bytes).expect("clean stream decodes");
        let (got, n, resyncs, skipped, pending) = feed_split(&bytes, &cuts);
        prop_assert_eq!(got.len(), reference.len());
        for ((g, raw), want) in got.iter().zip(&reference) {
            prop_assert_eq!(g, want);
            prop_assert_eq!(raw, &want.encode());
        }
        prop_assert_eq!(n, frames.len() as u64);
        prop_assert_eq!(resyncs, 0);
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(pending, 0);
    }

    /// Corrupted streams: whole-buffer feed and arbitrary-split feed
    /// agree exactly — frames, raw bytes, and loss counters — so the
    /// lossy resync path is chunk-boundary-invariant too.
    #[test]
    fn corrupt_stream_split_matches_whole_buffer(
        frames in prop::collection::vec(frame_strategy(), 1..6),
        garbage in prop::collection::vec(0usize..256, 1..40),
        gap_after in 0usize..6,
        cuts in prop::collection::vec(0.0..1.0f64, 0..12),
    ) {
        // Splice a garbage run between two frames (or at the ends).
        let garbage: Vec<u8> = garbage.iter().map(|b| *b as u8).collect();
        let (bytes, _) = splice(&frames, &garbage, gap_after);

        let (whole, wn, wr, ws, wp) = feed_split(&bytes, &[]);
        let (split, sn, sr, ss, sp) = feed_split(&bytes, &cuts);
        let (trickle, tn, tr, ts, tp) = feed_trickle(&bytes);
        prop_assert_eq!(&split, &whole);
        prop_assert_eq!(&trickle, &whole);
        prop_assert_eq!((sn, sr, ss, sp), (wn, wr, ws, wp));
        prop_assert_eq!((tn, tr, ts, tp), (wn, wr, ws, wp));
    }

    /// The assembler's good prefix agrees with `decode_stream_lossy`'s
    /// salvage: everything before the first corruption is emitted
    /// identically, and the frames after resync are a subset decoded at
    /// true frame boundaries (prefix frames first, in order).
    #[test]
    fn good_prefix_matches_lossy_salvage(
        frames in prop::collection::vec(frame_strategy(), 1..6),
        garbage in prop::collection::vec(1usize..256, 1..24),
        gap_after in 0usize..6,
    ) {
        let garbage: Vec<u8> = garbage.iter().map(|b| *b as u8).collect();
        let (bytes, _) = splice(&frames, &garbage, gap_after);

        let (salvage, _, _) = decode_stream_lossy(&bytes);
        let (got, _, _, _, _) = feed_split(&bytes, &[]);
        // The lossy salvage stops at the first error; the assembler
        // carries on past it, so salvage must be a prefix of what the
        // assembler recovered.
        prop_assert!(got.len() >= salvage.len());
        for ((g, _), want) in got.iter().zip(&salvage) {
            prop_assert_eq!(g, want);
        }
    }

    /// Reads longer than a frame: read lengths up to four longest
    /// frames over frames of every length, clean or with a garbage run,
    /// agree with the whole-buffer and one-byte feeds — the tail a read
    /// leaves is finished by the next one however far it reaches — and
    /// a clean stream yields exactly `decode_stream`'s frames.
    #[test]
    fn reads_longer_than_a_frame_match_whole_buffer(
        frames in prop::collection::vec(any_length_frame_strategy(), 1..16),
        garbage in garbage_strategy(0..48),
        gap_after in 0usize..16,
        lens in prop::collection::vec(1usize..4 * MAX_FRAME_LEN, 1..6),
    ) {
        let (bytes, _) = splice(&frames, &garbage, gap_after);
        let whole = feed_split(&bytes, &[]);
        let long = feed_lengths(&bytes, &lens);
        let trickle = feed_trickle(&bytes);
        prop_assert_eq!(&long, &whole);
        prop_assert_eq!(&trickle, &whole);
        if garbage.is_empty() {
            let reference = decode_stream(&bytes).expect("clean stream decodes");
            let got: Vec<&ObsFrame> = long.0.iter().map(|(f, _)| f).collect();
            prop_assert_eq!(got, reference.iter().collect::<Vec<_>>());
            prop_assert_eq!(long.4, 0);
        }
    }

    /// Corrupt bytes straddling a read edge: one cut falls inside (or
    /// at either end of) the garbage run, so the hunt for magic, a lone
    /// magic half or a header that looks valid is split across reads;
    /// whole, split and one-byte feeds stay equal.
    #[test]
    fn corruption_straddling_a_read_edge_matches_whole_buffer(
        frames in prop::collection::vec(any_length_frame_strategy(), 1..8),
        garbage in garbage_strategy(1..40),
        gap_after in 0usize..8,
        into_garbage in 0.0..1.0f64,
        cuts in prop::collection::vec(0.0..1.0f64, 0..6),
    ) {
        let (bytes, start) = splice(&frames, &garbage, gap_after);
        let edge = start + (into_garbage * (garbage.len() + 1) as f64) as usize;
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|f| (*f * bytes.len() as f64) as usize)
            .collect();
        points.push(edge);
        let whole = feed_split(&bytes, &[]);
        prop_assert_eq!(&feed_at(&bytes, points), &whole);
        prop_assert_eq!(&feed_at(&bytes, vec![edge]), &whole);
        prop_assert_eq!(&feed_trickle(&bytes), &whole);
    }
}
