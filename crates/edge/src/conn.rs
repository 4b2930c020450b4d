//! Incremental frame assembly in place, over each read's own bytes.
//!
//! A TCP read hands the reactor an arbitrary byte fragment: half a
//! header, three frames and a tail, one byte. [`FrameAssembler`] turns
//! that fragment stream back into whole frames with one invariant —
//! **chunk-boundary invariance**: feeding the same bytes in any split
//! (1-byte reads up to the whole buffer at once) emits exactly the same
//! frames with the same counters, because the assembler's state is
//! nothing but the unconsumed bytes themselves (and whether it is
//! hunting for magic). That is also what makes the lossy path
//! deterministic: corruption recovery is a pure function of buffer
//! content (skip one byte, hunt for the next magic pair), so a recorded
//! session replays the same however the kernel fragmented the reads.
//!
//! Whole frames are decoded where the read put them, in the reactor's
//! one read buffer. Only the unconsumed tail is copied out: the first
//! bytes of a frame the next read completes, or the last byte of a
//! magic hunt that may pair with the next read's first. The next read
//! first tops that tail up, one longest frame at a time, until decoding
//! crosses into its own bytes, and goes on in place from there. So a
//! connection carries fewer than [`MAX_FRAME_LEN`] bytes between reads
//! whatever the read size; a buffer that took every read whole would
//! reach a read's size per connection (1 GiB at 64 KiB reads over
//! 16,384 connections).
//!
//! The emit callback receives each frame **and its exact wire bytes**,
//! so the flight recorder tees the verbatim encoding rather than a
//! re-encode — the byte-identical-replay contract extends to the
//! socket path for free.

use mobisense_serve::wire::{ObsFrame, WireError, HEADER_LEN, MAGIC};

/// The longest frame the wire codec encodes: a 255-bin digest, 1,048
/// bytes. What a connection carries between reads is always shorter.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + 4 * u8::MAX as usize;

/// Incremental, resynchronizing frame decoder for one byte stream.
///
/// Feed reads in with [`feed`](FrameAssembler::feed); whole frames are
/// emitted through the callback the moment their last byte arrives.
/// Corrupt input (bad magic / version / empty digest) is skipped one
/// byte at a time until the next `MAGIC` pair, mirroring
/// [`decode_stream_lossy`](mobisense_serve::wire::decode_stream_lossy)'s
/// stop-at-first-error semantics but continuing across the gap — the
/// counters say how much was lost.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Bytes carried over from earlier reads that are not yet a whole
    /// frame: a frame's first bytes, or the last byte of a magic hunt.
    /// Shorter than [`MAX_FRAME_LEN`] between feeds, and its capacity
    /// never exceeds it.
    tail: Vec<u8>,
    /// True while hunting for the next magic pair after corruption.
    resyncing: bool,
    frames: u64,
    resyncs: u64,
    skipped: u64,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits every frame that `chunk` completes, decoding in place from
    /// `chunk` wherever no carried tail is involved, and keeps what is
    /// left over for the next feed.
    ///
    /// The callback gets the decoded frame plus the exact wire bytes it
    /// was decoded from (a subslice of `chunk`, or of the carried tail
    /// for a frame split across reads).
    pub fn feed(&mut self, chunk: &[u8], emit: &mut dyn FnMut(ObsFrame, &[u8])) {
        // Bytes of `chunk` already copied into the tail or decoded.
        let mut pos = 0usize;
        // Finish what earlier reads left: top the tail up to one longest
        // frame and decode it, until decoding crosses into `chunk`'s own
        // bytes. The tail is shorter than a longest frame, so each round
        // takes at least one byte.
        while !self.tail.is_empty() && pos < chunk.len() {
            let carried = self.tail.len();
            let take = MAX_FRAME_LEN
                .saturating_sub(carried)
                .max(1)
                .min(chunk.len() - pos);
            self.tail.reserve_exact(take);
            self.tail
                .extend_from_slice(chunk.get(pos..pos + take).unwrap_or_default());
            let tail = std::mem::take(&mut self.tail);
            let used = self.decode(&tail, emit);
            self.tail = tail;
            if used >= carried {
                // Decoding reached this read's bytes: go on in place.
                pos += used - carried;
                self.tail.clear();
            } else {
                pos += take;
                self.tail.drain(..used);
            }
        }
        if self.tail.is_empty() {
            let rest = chunk.get(pos..).unwrap_or_default();
            let used = self.decode(rest, emit);
            let left = rest.get(used..).unwrap_or_default();
            self.tail.reserve_exact(left.len());
            self.tail.extend_from_slice(left);
        }
    }

    /// Bytes carried awaiting a complete frame (or more magic).
    pub fn pending(&self) -> usize {
        self.tail.len()
    }

    /// Frames emitted so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Corruption events recovered from (one per decode error, however
    /// many bytes the subsequent hunt discarded).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Bytes discarded while resynchronizing.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Decodes whole frames from the front of `buf`, hunting for the
    /// next `MAGIC` pair after corruption, and returns the bytes
    /// consumed. It stops where more bytes could still change the
    /// outcome: a frame not yet whole, or a hunt down to its last byte
    /// (possibly the first half of a pair split across reads), which
    /// keeps the hunt chunk-boundary-invariant.
    fn decode(&mut self, buf: &[u8], emit: &mut dyn FnMut(ObsFrame, &[u8])) -> usize {
        let magic = MAGIC.to_le_bytes();
        let mut at = 0usize;
        loop {
            let rest = buf.get(at..).unwrap_or_default();
            if self.resyncing {
                let found = rest.windows(2).position(|pair| pair == magic);
                let skip = found.unwrap_or(rest.len().saturating_sub(1));
                self.skipped += skip as u64;
                at += skip;
                if found.is_none() {
                    return at;
                }
                self.resyncing = false;
                continue;
            }
            match ObsFrame::decode(rest) {
                Ok((frame, len)) => {
                    emit(frame, rest.get(..len).unwrap_or_default());
                    self.frames += 1;
                    at += len;
                }
                // Clean boundary, or a frame still missing bytes: wait
                // for the next read.
                Err(WireError::Truncated { .. }) => return at,
                // Corrupt header where a frame should start: skip the
                // offending byte and hunt for the next magic pair.
                Err(_) => {
                    at += 1;
                    self.skipped += 1;
                    self.resyncs += 1;
                    self.resyncing = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisense_serve::wire::decode_stream;

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 1_000 * u64::from(seq),
            distance_m: 3.5,
            digest: vec![0.25; 8],
        }
    }

    fn collect(asm: &mut FrameAssembler, chunk: &[u8]) -> Vec<(ObsFrame, Vec<u8>)> {
        let mut out = Vec::new();
        asm.feed(chunk, &mut |f, raw| out.push((f, raw.to_vec())));
        out
    }

    #[test]
    fn whole_buffer_matches_decode_stream() {
        let mut bytes = Vec::new();
        let frames: Vec<ObsFrame> = (0..5).map(|i| frame(7, i)).collect();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut asm = FrameAssembler::new();
        let got = collect(&mut asm, &bytes);
        let reference = decode_stream(&bytes).expect("clean stream decodes");
        assert_eq!(got.len(), reference.len());
        for ((g, raw), r) in got.iter().zip(&reference) {
            assert_eq!(g, r);
            assert_eq!(raw, &r.encode(), "emitted raw bytes are the wire encoding");
        }
        assert_eq!(asm.pending(), 0);
        assert_eq!(asm.frames(), 5);
        assert_eq!(asm.resyncs(), 0);
    }

    #[test]
    fn one_byte_feeds_match_whole_buffer() {
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(&frame(9, i).encode());
        }
        let mut whole = FrameAssembler::new();
        let want = collect(&mut whole, &bytes);

        let mut trickle = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &bytes {
            trickle.feed(std::slice::from_ref(b), &mut |f, raw| {
                got.push((f, raw.to_vec()));
            });
        }
        assert_eq!(got, want);
        assert_eq!(trickle.frames(), whole.frames());
        assert_eq!(trickle.pending(), whole.pending());
    }

    #[test]
    fn resyncs_across_garbage_and_counts_it() {
        let good = frame(3, 0).encode();
        let mut bytes = good.clone();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x53]); // junk incl. a lone magic half
        let tail = frame(3, 1).encode();
        bytes.extend_from_slice(&tail);

        let mut asm = FrameAssembler::new();
        let got = collect(&mut asm, &bytes);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0.seq, 1);
        assert_eq!(asm.resyncs(), 1);
        assert_eq!(asm.skipped(), 5);
        assert_eq!(asm.pending(), 0);
    }

    /// A 64 KiB read leaves at most one frame behind: the first bytes of
    /// the frame it ends in, or the last byte of a magic hunt, in a tail
    /// whose capacity stays within one longest frame.
    #[test]
    fn a_64_kib_feed_retains_at_most_one_frame() {
        const READ: usize = 64 << 10;
        let longest = ObsFrame {
            digest: vec![0.5; 255],
            ..frame(4, 0)
        };
        assert_eq!(longest.encoded_len(), MAX_FRAME_LEN);
        let mut stream = Vec::new();
        let mut seq = 0;
        while stream.len() < 3 * READ {
            ObsFrame {
                seq,
                ..longest.clone()
            }
            .encode_into(&mut stream);
            seq += 1;
        }

        // Mid-frame: 62 whole frames, then 560 bytes of the 63rd.
        let mut asm = FrameAssembler::new();
        let got = collect(&mut asm, &stream[..READ]);
        assert_eq!(got.len(), READ / MAX_FRAME_LEN);
        assert_eq!(asm.pending(), READ % MAX_FRAME_LEN);
        assert!(asm.tail.capacity() <= MAX_FRAME_LEN);
        // The next reads finish that frame from the tail and go on in
        // place; every feed leaves less than one frame behind.
        let mut emitted = got.len();
        for read in stream[READ..].chunks(READ) {
            emitted += collect(&mut asm, read).len();
            assert!(asm.pending() < MAX_FRAME_LEN);
            assert!(asm.tail.capacity() <= MAX_FRAME_LEN);
        }
        assert_eq!(emitted as u32, seq);
        assert_eq!((asm.pending(), asm.resyncs()), (0, 0));

        // Mid-resync: frames, a corrupt byte, then no magic pair before
        // the read ends — only the hunt's last byte is kept.
        let mut read = stream[..10 * MAX_FRAME_LEN].to_vec();
        read.push(0x00);
        read.resize(READ - 1, 0xEE);
        read.push(MAGIC.to_le_bytes()[0]);
        let mut asm = FrameAssembler::new();
        assert_eq!(collect(&mut asm, &read).len(), 10);
        assert_eq!((asm.pending(), asm.resyncs()), (1, 1));
        assert_eq!(asm.skipped() as usize, READ - 10 * MAX_FRAME_LEN - 1);
        assert!(asm.tail.capacity() <= MAX_FRAME_LEN);
        // The kept byte pairs with the next read's first: the hunt ends
        // and the frame whose magic straddled the edge decodes.
        let next = &stream[1..MAX_FRAME_LEN];
        let got = collect(&mut asm, next);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, stream[..MAX_FRAME_LEN]);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn truncated_tail_stays_pending() {
        let bytes = frame(2, 0).encode();
        let (head, tail) = bytes.split_at(bytes.len() - 3);
        let mut asm = FrameAssembler::new();
        assert!(collect(&mut asm, head).is_empty());
        assert_eq!(asm.pending(), head.len());
        let got = collect(&mut asm, tail);
        assert_eq!(got.len(), 1);
        assert_eq!(asm.pending(), 0);
    }
}
