//! The versioned binary codec for per-client session pages.
//!
//! A page captures everything a [`PipelineSession`] needs to resume
//! bit-identically — the classifier's similarity and trend windows, the
//! Figure-5 machine registers, and the ToF sampler's noise-stream
//! position, schedule anchors, in-flight batch and bounded history —
//! plus the serving layer's per-client `last_emitted` suppression state
//! and the client id itself. It is the unit of both hibernation (paged
//! into the trace store, faulted back in on the client's next frame)
//! and live shard rebalancing (drained, transferred, resumed).
//!
//! One page on disk or on the wire is:
//!
//! ```text
//! offset      size  field
//!      0         4  magic 0x5053534D ("MSSP", little-endian)
//!      4         2  codec version (u16 LE, currently 2)
//!      6         2  reserved (zero)
//!      8         4  body length   (u32 LE)
//!     12      body  body (field-by-field little-endian encoding)
//! 12+body        4  CRC-32 over bytes [0, 12+body)  (u32 LE)
//! ```
//!
//! The CRC covers the header too, so **any** single bit flip — magic,
//! version, length field, body or the checksum itself — is detected;
//! the corruption proptests pin exactly that. Decoding is total:
//! truncated, oversized, or corrupt input yields a [`SnapshotError`],
//! never a panic and never a silently-divergent restore.
//!
//! The body is one state walk ([`mobisense_util::walk`]): the client
//! id, `last_emitted`, then [`PipelineSession::walk_state`]. This module
//! runs it as a [`StateWalk`] in each direction, and nothing else
//! touches page bytes. [`encode_into`] writes the live session's fields
//! straight into the caller's buffer: the header goes out with a zero
//! length, the body follows, then the length is patched and the CRC
//! appended. [`decode_into`] checks the header, length and CRC, then
//! reads the body straight into a live session, overwriting every
//! dynamic field and reusing its buffers. No copy of the state exists
//! between the session and its page in either direction.

use std::cell::RefCell;
use std::ops::RangeInclusive;

use mobisense_core::classifier::Classification;
use mobisense_core::pipeline::{PipelineConfig, PipelineSession};
use mobisense_util::crc::crc32;
use mobisense_util::walk::{StateWalk, MAX_ELEMS};

/// Page magic: `"MSSP"` little-endian (MobiSense Session Page),
/// sibling of the segment magic `"MSSG"` and the wire magic `"MS"`.
pub const SNAPSHOT_MAGIC: u32 = 0x5053_534D;
/// Current codec version. Version 2 dropped the classifier's
/// write-only decision counter; version 1 pages are refused with
/// [`SnapshotError::BadVersion`].
pub const SNAPSHOT_CODEC_VERSION: u16 = 2;
/// Bytes before the body (magic + version + reserved + body length).
pub const SNAPSHOT_HEADER_LEN: usize = 12;
/// Fixed overhead around the body (header plus trailing CRC).
pub const OVERHEAD: usize = SNAPSHOT_HEADER_LEN + 4;
/// Upper bound on the body length field. A real page is a few KiB;
/// this cap keeps a corrupt length field from driving a giant read.
pub const MAX_BODY_LEN: usize = 1 << 24;

/// Why a buffer failed to encode or decode as a session page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the page requires.
    Truncated {
        /// Bytes the page needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The first four bytes were not [`SNAPSHOT_MAGIC`].
    BadMagic(u32),
    /// The version field named a codec this parser does not speak.
    BadVersion(u16),
    /// The reserved field was non-zero (a later version would bump the
    /// version field, so this is corruption, not forward compatibility).
    BadReserved(u16),
    /// The body length field exceeds [`MAX_BODY_LEN`].
    BodyTooLong {
        /// The claimed body length.
        len: usize,
    },
    /// The trailing CRC-32 did not match the header + body bytes.
    BadCrc {
        /// Checksum computed over the received bytes.
        expected: u32,
        /// Checksum carried by the page.
        got: u32,
    },
    /// Bytes remained after the page (the buffer must hold exactly
    /// one page), or the body ended before its declared length.
    TrailingBytes {
        /// Surplus byte count.
        extra: usize,
    },
    /// An enum field carried an unknown discriminant.
    BadEnum {
        /// Which field.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A vector field declared more elements than any session state
    /// can legitimately hold ([`MAX_ELEMS`]).
    FieldTooLong {
        /// Which field.
        field: &'static str,
        /// The claimed element count.
        len: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "truncated snapshot: needed {needed} bytes, got {got}")
            }
            SnapshotError::BadMagic(m) => {
                write!(f, "bad magic {m:#010x} (expected {SNAPSHOT_MAGIC:#010x})")
            }
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadReserved(r) => write!(f, "non-zero reserved field {r:#06x}"),
            SnapshotError::BodyTooLong { len } => {
                write!(f, "body length {len} exceeds the {MAX_BODY_LEN}-byte cap")
            }
            SnapshotError::BadCrc { expected, got } => {
                write!(
                    f,
                    "snapshot CRC mismatch: computed {expected:#010x}, stored {got:#010x}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} surplus bytes after the snapshot")
            }
            SnapshotError::BadEnum { field, value } => {
                write!(f, "field {field}: unknown discriminant {value}")
            }
            SnapshotError::FieldTooLong { field, len } => {
                write!(f, "field {field}: {len} elements exceeds the cap")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encodes one client's page straight from its live session into `out`,
/// replacing its contents. `session` is borrowed mutably only because
/// one walk serves both directions; encoding leaves it as it was.
///
/// Total: a state vector too long for the format (beyond any real
/// configuration) is reported as [`SnapshotError::FieldTooLong`], never
/// a panic. On error `out` holds a partial encoding and must not be
/// used.
pub fn encode_into(
    out: &mut Vec<u8>,
    client_id: u32,
    last_emitted: Option<Classification>,
    session: &mut PipelineSession,
) -> Result<(), SnapshotError> {
    out.clear();
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_CODEC_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // body length, patched below
    let (mut client_id, mut last_emitted) = (client_id, last_emitted);
    walk_page(
        &mut Writer { out },
        &mut client_id,
        &mut last_emitted,
        session,
    )?;
    let body_len = out.len() - SNAPSHOT_HEADER_LEN;
    if body_len > MAX_BODY_LEN {
        return Err(SnapshotError::BodyTooLong { len: body_len });
    }
    if let Some(len_field) = out.get_mut(8..SNAPSHOT_HEADER_LEN) {
        len_field.copy_from_slice(&(body_len as u32).to_le_bytes());
    }
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Decodes a buffer holding exactly one page straight into `session`
/// and returns the page's client id and `last_emitted` register. Every
/// dynamic field of `session` is overwritten and its buffers reused, so
/// decoding into a session that served another client gives the same
/// session a fresh one would; its configuration is kept.
///
/// Total: every malformation — truncation, surplus bytes, any single
/// bit flip — yields a typed error. The header, length and CRC are
/// checked before any body byte is read, so a failed check leaves
/// `session` untouched; an error past them leaves a partial decode that
/// must not be used.
pub fn decode_into(
    buf: &[u8],
    session: &mut PipelineSession,
) -> Result<(u32, Option<Classification>), SnapshotError> {
    let body = sealed_body(buf)?;
    let mut r = Reader { buf: body, pos: 0 };
    let (mut client_id, mut last_emitted) = (0, None);
    walk_page(&mut r, &mut client_id, &mut last_emitted, session)?;
    if r.pos != body.len() {
        return Err(SnapshotError::TrailingBytes {
            extra: body.len() - r.pos,
        });
    }
    Ok((client_id, last_emitted))
}

/// Fully checks a page — header, length, CRC and every field — by
/// decoding it into a scratch session, and returns its client id: the
/// check the store runs on every snapshot record.
///
/// Each thread keeps one scratch session and reuses it. A session that
/// decoded another page, or failed partway through one, decodes a page
/// exactly as a fresh one does, so reuse changes no result; it only
/// spares building a session per call.
pub fn validate(buf: &[u8]) -> Result<u32, SnapshotError> {
    thread_local! {
        static SCRATCH: RefCell<PipelineSession> =
            RefCell::new(PipelineSession::new(PipelineConfig::default(), 0));
    }
    SCRATCH.with_borrow_mut(|scratch| decode_into(buf, scratch).map(|(client_id, _)| client_id))
}

/// Reads the client id out of an encoded page without decoding or
/// CRC-checking the rest (page-table rebuilds peek this).
pub fn peek_client_id(buf: &[u8]) -> Result<u32, SnapshotError> {
    let magic = u32::from_le_bytes(le_bytes::<4>(buf, 0)?);
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    Ok(u32::from_le_bytes(le_bytes::<4>(buf, SNAPSHOT_HEADER_LEN)?))
}

/// The page body, in byte order.
fn walk_page<W: StateWalk>(
    w: &mut W,
    client_id: &mut u32,
    last_emitted: &mut Option<Classification>,
    session: &mut PipelineSession,
) -> Result<(), W::Error> {
    w.u32(client_id)?;
    Classification::walk_opt(w, "last_emitted", last_emitted)?;
    session.walk_state(w)
}

/// Checks the header, the body length and the CRC of a page and returns
/// its body.
fn sealed_body(buf: &[u8]) -> Result<&[u8], SnapshotError> {
    if buf.len() < OVERHEAD {
        return Err(SnapshotError::Truncated {
            needed: OVERHEAD,
            got: buf.len(),
        });
    }
    let magic = u32::from_le_bytes(le_bytes::<4>(buf, 0)?);
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(le_bytes::<2>(buf, 4)?);
    if version != SNAPSHOT_CODEC_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let reserved = u16::from_le_bytes(le_bytes::<2>(buf, 6)?);
    if reserved != 0 {
        return Err(SnapshotError::BadReserved(reserved));
    }
    let body_len = u32::from_le_bytes(le_bytes::<4>(buf, 8)?) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(SnapshotError::BodyTooLong { len: body_len });
    }
    let total = OVERHEAD + body_len;
    if buf.len() < total {
        return Err(SnapshotError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    if buf.len() > total {
        return Err(SnapshotError::TrailingBytes {
            extra: buf.len() - total,
        });
    }
    let sealed = buf
        .get(..SNAPSHOT_HEADER_LEN + body_len)
        .ok_or(SnapshotError::Truncated {
            needed: total,
            got: buf.len(),
        })?;
    let expected = crc32(sealed);
    let got = u32::from_le_bytes(le_bytes::<4>(buf, SNAPSHOT_HEADER_LEN + body_len)?);
    if expected != got {
        return Err(SnapshotError::BadCrc { expected, got });
    }
    sealed
        .get(SNAPSHOT_HEADER_LEN..)
        .ok_or(SnapshotError::Truncated {
            needed: total,
            got: buf.len(),
        })
}

/// Reads `N` little-endian bytes at `offset`, as a typed error instead
/// of a panicking slice-index on short input.
#[inline]
fn le_bytes<const N: usize>(buf: &[u8], offset: usize) -> Result<[u8; N], SnapshotError> {
    buf.get(offset..offset + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(SnapshotError::Truncated {
            needed: offset + N,
            got: buf.len(),
        })
}

/// The encoding walk: appends each visited field to the page buffer.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl StateWalk for Writer<'_> {
    type Error = SnapshotError;
    const READS: bool = false;

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        self.out.push(*v);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn f64(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
        Ok(())
    }

    fn f64s(&mut self, field: &'static str, vs: &mut Vec<f64>) -> Result<(), SnapshotError> {
        self.len(field, &mut vs.len())?;
        let start = self.out.len();
        self.out.resize(start + 8 * vs.len(), 0);
        if let Some(run) = self.out.get_mut(start..) {
            for (bytes, v) in run.as_chunks_mut::<8>().0.iter_mut().zip(vs.iter()) {
                *bytes = v.to_bits().to_le_bytes();
            }
        }
        Ok(())
    }

    fn len(&mut self, field: &'static str, len: &mut usize) -> Result<(), SnapshotError> {
        if *len > MAX_ELEMS {
            return Err(SnapshotError::FieldTooLong { field, len: *len });
        }
        self.u32(&mut (*len as u32))
    }

    fn tag(
        &mut self,
        field: &'static str,
        tag: &mut u8,
        valid: RangeInclusive<u8>,
    ) -> Result<(), SnapshotError> {
        if !valid.contains(tag) {
            return Err(SnapshotError::BadEnum { field, value: *tag });
        }
        self.u8(tag)
    }
}

/// The decoding walk over a CRC-checked body: overwrites each visited
/// field with the next bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let bytes = le_bytes::<N>(self.buf, self.pos)?;
        self.pos += N;
        Ok(bytes)
    }

    /// The next `n` bytes, or `Truncated` when fewer remain.
    fn take_run(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos + n;
        let run = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated {
                needed: end,
                got: self.buf.len(),
            })?;
        self.pos = end;
        Ok(run)
    }
}

impl StateWalk for Reader<'_> {
    type Error = SnapshotError;
    const READS: bool = true;

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        let [byte] = self.take()?;
        *v = byte;
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        *v = u32::from_le_bytes(self.take()?);
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        *v = u64::from_le_bytes(self.take()?);
        Ok(())
    }

    fn f64(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        *v = f64::from_bits(u64::from_le_bytes(self.take()?));
        Ok(())
    }

    fn f64s(&mut self, field: &'static str, vs: &mut Vec<f64>) -> Result<(), SnapshotError> {
        let mut len = 0;
        self.len(field, &mut len)?;
        let run = self.take_run(8 * len)?;
        vs.clear();
        let floats = run.as_chunks::<8>().0.iter();
        vs.extend(floats.map(|bytes| f64::from_bits(u64::from_le_bytes(*bytes))));
        Ok(())
    }

    fn len(&mut self, field: &'static str, len: &mut usize) -> Result<(), SnapshotError> {
        let read = u32::from_le_bytes(self.take()?) as usize;
        if read > MAX_ELEMS {
            return Err(SnapshotError::FieldTooLong { field, len: read });
        }
        *len = read;
        Ok(())
    }

    fn tag(
        &mut self,
        field: &'static str,
        tag: &mut u8,
        valid: RangeInclusive<u8>,
    ) -> Result<(), SnapshotError> {
        self.u8(tag)?;
        if !valid.contains(tag) {
            return Err(SnapshotError::BadEnum { field, value: *tag });
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mobisense_core::{Scenario, ScenarioKind};
    use mobisense_mobility::{Direction, MobilityMode};
    use mobisense_phy::csi::Csi;
    use mobisense_util::units::{Nanos, MILLISECOND, SECOND};
    use mobisense_util::DetRng;
    use std::convert::Infallible;

    /// Encodes a page into a fresh buffer.
    pub(crate) fn page(
        client_id: u32,
        last_emitted: Option<Classification>,
        session: &mut PipelineSession,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(&mut out, client_id, last_emitted, session).expect("encodes");
        out
    }

    /// Decodes a page into a fresh default-config session.
    fn decode_fresh(
        buf: &[u8],
    ) -> Result<(u32, Option<Classification>, PipelineSession), SnapshotError> {
        let mut session = PipelineSession::new(PipelineConfig::default(), 0);
        let (client_id, last_emitted) = decode_into(buf, &mut session)?;
        Ok((client_id, last_emitted, session))
    }

    /// Drives a fresh session over a scenario through every frame
    /// instant up to `until`, returning the session, its scenario (to
    /// continue from) and its classifications.
    fn drive(
        cfg: &PipelineConfig,
        kind: ScenarioKind,
        seed: u64,
        until: Nanos,
    ) -> (PipelineSession, Scenario, Vec<(Nanos, Classification)>) {
        let mut session = PipelineSession::new(cfg.clone(), seed);
        let mut sc = Scenario::new(kind, seed);
        let head = continue_session(&mut session, &mut sc, 0, until);
        (session, sc, head)
    }

    /// Continues `session` over `sc` at every frame instant in
    /// `[from, to]`, returning its classifications.
    fn continue_session(
        session: &mut PipelineSession,
        sc: &mut Scenario,
        from: Nanos,
        to: Nanos,
    ) -> Vec<(Nanos, Classification)> {
        let step = session.config().step;
        let mut out = Vec::new();
        let mut t = from;
        while t <= to {
            let obs = sc.observe(t);
            if let Some(c) = session.observe(t, &obs.csi, obs.distance_m) {
                out.push((t, c));
            }
            t += step;
        }
        out
    }

    /// Drives `session` over `steps` frames of a synthetic channel
    /// seeded by `seed`, while the client walks away at 2.5 m/s: each
    /// frame keeps `memory` of the last frame's CSI and adds a fresh
    /// Gaussian draw (1.0 is a random walk, which settles as it grows;
    /// 0.0 fades completely every frame). Cheap enough for proptests,
    /// and it still moves every part of the state. Returns the last
    /// classification.
    fn drive_synthetic(
        session: &mut PipelineSession,
        seed: u64,
        steps: u64,
        memory: f64,
    ) -> Option<Classification> {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut csi = Csi::zeros(3, 2, 52);
        let mut last = None;
        for i in 0..steps {
            for v in csi.as_mut_slice() {
                *v = v.scale(memory) + rng.complex_gaussian(0.5);
            }
            let at = i * session.config().step;
            if let Some(c) = session.observe(at, &csi, 5.0 + 0.05 * i as f64) {
                last = Some(c);
            }
        }
        last
    }

    /// A session with every optional field populated and non-trivial
    /// window contents, driven over a genuine walk, and its last
    /// classification.
    pub(crate) fn busy_session() -> (PipelineSession, Option<Classification>) {
        let cfg = PipelineConfig::default();
        let (session, _, head) = drive(&cfg, ScenarioKind::MacroAway, 99, 11 * SECOND);
        (session, head.last().map(|&(_, c)| c))
    }

    /// The [`busy_session`] page, built once: the corruption proptests
    /// mutate hundreds of copies and must not re-drive the scenario per
    /// case.
    fn busy_bytes() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let (mut session, last) = busy_session();
            page(0xDEAD_BEEF, last, &mut session)
        })
    }

    /// A writer-side walk that records, for every sequence length and
    /// tag it visits, the field and the words that follow it (the length
    /// or tag first): what a page holds, field by field.
    #[derive(Default)]
    struct Census {
        groups: Vec<(&'static str, Vec<u64>)>,
    }

    impl Census {
        fn of(last_emitted: Option<Classification>, session: &mut PipelineSession) -> Census {
            let mut census = Census::default();
            let (mut client_id, mut last_emitted) = (0, last_emitted);
            match walk_page(&mut census, &mut client_id, &mut last_emitted, session) {
                Ok(()) => census,
                Err(never) => match never {},
            }
        }

        /// The first group of `field`.
        fn words(&self, field: &str) -> &[u64] {
            self.groups
                .iter()
                .find(|(f, _)| *f == field)
                .map(|(_, words)| words.as_slice())
                .unwrap_or_else(|| panic!("no field {field}"))
        }

        fn word(&mut self, v: u64) -> Result<(), Infallible> {
            if let Some((_, words)) = self.groups.last_mut() {
                words.push(v);
            }
            Ok(())
        }
    }

    impl StateWalk for Census {
        type Error = Infallible;
        const READS: bool = false;

        fn u8(&mut self, v: &mut u8) -> Result<(), Infallible> {
            self.word(u64::from(*v))
        }

        fn u32(&mut self, v: &mut u32) -> Result<(), Infallible> {
            self.word(u64::from(*v))
        }

        fn u64(&mut self, v: &mut u64) -> Result<(), Infallible> {
            self.word(*v)
        }

        fn f64(&mut self, v: &mut f64) -> Result<(), Infallible> {
            self.word(v.to_bits())
        }

        fn f64s(&mut self, field: &'static str, vs: &mut Vec<f64>) -> Result<(), Infallible> {
            self.len(field, &mut vs.len())?;
            vs.iter_mut().try_for_each(|v| self.f64(v))
        }

        fn len(&mut self, field: &'static str, len: &mut usize) -> Result<(), Infallible> {
            self.groups.push((field, Vec::new()));
            self.word(*len as u64)
        }

        fn tag(
            &mut self,
            field: &'static str,
            tag: &mut u8,
            _: RangeInclusive<u8>,
        ) -> Result<(), Infallible> {
            self.groups.push((field, Vec::new()));
            self.word(u64::from(*tag))
        }
    }

    /// Rewrites the page's CRC after a deliberate body edit, so decoding
    /// gets past the seal to the field under test.
    fn reseal(bytes: &mut [u8]) {
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip_is_exact() {
        let (mut busy, last) = busy_session();
        let mut minimal = PipelineSession::new(PipelineConfig::default(), 7);
        for (client, last, session) in [(0xDEAD_BEEF, last, &mut busy), (7, None, &mut minimal)] {
            let bytes = page(client, last, session);
            let (id, emitted, mut back) = decode_fresh(&bytes).expect("decodes");
            assert_eq!((id, emitted), (client, last));
            assert_eq!(page(id, emitted, &mut back), bytes);
        }
    }

    /// Asserts that the page of `session` populates every optional
    /// field and window.
    fn assert_every_optional_field(last: Option<Classification>, session: &mut PipelineSession) {
        let census = Census::of(last, session);
        for field in [
            "last_emitted",
            "similarity.recent",
            "similarity.last_profile",
            "similarity.next_sample_at",
            "similarity.last_similarity",
            "similarity.avg",
            "trend_samples",
            "tof_active",
            "current",
            "last_trend",
            "tof.history",
        ] {
            assert!(census.words(field)[0] > 0, "{field} is empty");
        }
    }

    #[test]
    fn busy_snapshot_exercises_every_optional_field() {
        // Guard: if the session drive ever stops populating the state,
        // the corruption proptests would silently lose coverage.
        let (mut session, last) = busy_session();
        assert_every_optional_field(last, &mut session);
    }

    #[test]
    fn restored_state_continues_identically() {
        // Codec-level version of the hibernation invariant: a page
        // decoded into a fresh session, and into one that served
        // another client (a walk, so every window is full of foreign
        // state), continues decision-for-decision with the original.
        let cfg = PipelineConfig::default();
        let cut = 8 * SECOND;
        let (mut original, mut sc_a, _) = drive(&cfg, ScenarioKind::Micro, 5, cut);
        let (_, mut sc_b, _) = drive(&cfg, ScenarioKind::Micro, 5, cut);
        let (_, mut sc_c, _) = drive(&cfg, ScenarioKind::Micro, 5, cut);
        let bytes = page(1, None, &mut original);

        let (mut recycled, _, _) = drive(&cfg, ScenarioKind::MacroAway, 77, 12 * SECOND);
        assert_ne!(page(1, None, &mut recycled), bytes);
        assert_eq!(decode_into(&bytes, &mut recycled), Ok((1, None)));
        assert_eq!(page(1, None, &mut recycled), bytes);
        let (_, _, mut restored) = decode_fresh(&bytes).expect("decodes");

        let from = cut + cfg.step;
        let want = continue_session(&mut original, &mut sc_a, from, 20 * SECOND);
        assert!(!want.is_empty());
        assert_eq!(
            continue_session(&mut restored, &mut sc_b, from, 20 * SECOND),
            want
        );
        assert_eq!(
            continue_session(&mut recycled, &mut sc_c, from, 20 * SECOND),
            want
        );
    }

    #[test]
    fn a_restored_page_continues_the_uninterrupted_session() {
        // The hibernation invariant at awkward instants — between ToF
        // medians, mid-similarity-period, with and without the noise
        // stream's cached Gaussian spare: the page is lossless and the
        // restored session continues with bit-identical decisions.
        let cfg = PipelineConfig::default();
        // 9.13 s is not a multiple of any pipeline period; one frame
        // later the noise stream has drawn one more measurement.
        let cut = 9 * SECOND + 130 * MILLISECOND;
        let mut spares = Vec::new();
        let mut batches = Vec::new();
        for (kind, cut) in [
            (ScenarioKind::Static, cut),
            (ScenarioKind::Micro, cut),
            (ScenarioKind::MacroAway, cut),
            (ScenarioKind::MacroAway, cut + cfg.step),
        ] {
            let (mut original, mut sc_a, head) = drive(&cfg, kind, 17, cut);
            // A twin driven identically agrees, so its scenario is the
            // original's at the cut.
            let (_, mut sc_b, twin_head) = drive(&cfg, kind, 17, cut);
            assert_eq!(head, twin_head);
            let bytes = page(17, None, &mut original);
            let census = Census::of(None, &mut original);
            spares.push(census.words("rng.gauss_spare")[0]);
            batches.push(census.words("tof.batch")[0]);
            let (_, _, mut restored) = decode_fresh(&bytes).expect("decodes");
            assert_eq!(page(17, None, &mut restored), bytes, "{kind:?}: lossy page");
            let from = cut + cfg.step;
            let tail_a = continue_session(&mut original, &mut sc_a, from, 25 * SECOND);
            let tail_b = continue_session(&mut restored, &mut sc_b, from, 25 * SECOND);
            assert!(!tail_a.is_empty());
            assert_eq!(tail_a, tail_b, "{kind:?}: restored session diverged");
        }
        assert!(spares.contains(&0) && spares.contains(&1), "{spares:?}");
        assert!(
            batches.iter().all(|&n| n > 0),
            "mid-period cuts: {batches:?}"
        );
    }

    #[test]
    fn a_fresh_session_page_restores_fresh() {
        let cfg = PipelineConfig::default();
        let bytes = page(23, None, &mut PipelineSession::new(cfg.clone(), 23));
        let (mut dirty, _, _) = drive(&cfg, ScenarioKind::Micro, 4, 9 * SECOND);
        decode_into(&bytes, &mut dirty).expect("decodes");
        let mut reference = PipelineSession::new(cfg, 23);
        let until = 12 * SECOND;
        let mut sc_a = Scenario::new(ScenarioKind::MacroAway, 23);
        let mut sc_b = Scenario::new(ScenarioKind::MacroAway, 23);
        let a = continue_session(&mut dirty, &mut sc_a, 0, until);
        let b = continue_session(&mut reference, &mut sc_b, 0, until);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn a_page_under_larger_caps_keeps_the_newest_samples() {
        // Written under a wider similarity average, trend window and
        // ToF history than the reader's session holds: the reader keeps
        // the newest samples of each, exactly as pushing them through
        // its own windows would.
        let mut loose_cfg = PipelineConfig::default();
        loose_cfg.classifier.similarity_window = 6;
        loose_cfg.classifier.trend = loose_cfg.classifier.trend.with_window_secs(5);
        let mut tight_cfg = PipelineConfig::default();
        tight_cfg.tof.history_cap = 3;
        let (mut loose, _, _) = drive(&loose_cfg, ScenarioKind::MacroAway, 61, 11 * SECOND);
        let mut tight = PipelineSession::new(tight_cfg.clone(), 0);
        decode_into(&page(61, None, &mut loose), &mut tight).expect("decodes");

        let wide = Census::of(None, &mut loose);
        let narrow = Census::of(None, &mut tight);
        let caps = [
            ("similarity.avg", tight_cfg.classifier.similarity_window, 1),
            ("trend_samples", tight_cfg.classifier.trend.window, 1),
            ("tof.history", tight_cfg.tof.history_cap, 2),
        ];
        for (field, cap, words_per_item) in caps {
            let (written, kept) = (wide.words(field), narrow.words(field));
            assert!(written[0] as usize > cap, "{field}: nothing to trim");
            assert_eq!(kept[0] as usize, cap, "{field}");
            assert_eq!(
                kept[1..],
                written[written.len() - cap * words_per_item..],
                "{field}"
            );
        }
    }

    #[test]
    fn decode_into_a_dirty_session_matches_every_source() {
        // Sessions with very different state — a walk (full windows,
        // ToF history, a last trend), a short static run and a fresh
        // one — decoded into one another leave no stale field behind.
        let cfg = PipelineConfig::default();
        let (walk, _, _) = drive(&cfg, ScenarioKind::MacroAway, 41, 11 * SECOND);
        let (still, _, _) = drive(&cfg, ScenarioKind::Static, 42, 3 * SECOND);
        let fresh = PipelineSession::new(cfg, 43);
        let sessions = [walk, still, fresh];
        for src in &sessions {
            let bytes = page(1, None, &mut src.clone());
            for dirty in &sessions {
                let mut dirty = dirty.clone();
                decode_into(&bytes, &mut dirty).expect("decodes");
                assert_eq!(page(1, None, &mut dirty), bytes);
            }
        }
    }

    #[test]
    fn a_reset_session_pages_out_like_a_fresh_one() {
        // `PipelineSession::reset` promises a session indistinguishable
        // from a fresh one with the same seed; its page must agree byte
        // for byte, so a recycled session carries nothing of its past.
        let cfg = PipelineConfig::default();
        let (mut recycled, _, _) = drive(&cfg, ScenarioKind::MacroAway, 3, 12 * SECOND);
        recycled.reset(9);
        let mut fresh = PipelineSession::new(cfg, 9);
        assert_eq!(page(9, None, &mut recycled), page(9, None, &mut fresh));
    }

    /// FNV-1a 64 of a byte string: a compact fingerprint for pinning an
    /// encoding.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn encode_into_a_dirty_buffer_matches_encode_and_the_pinned_bytes() {
        // Driven over the synthetic channel, not a scenario walk, so
        // the pin moves with the codec and the pipeline only, never
        // with the PHY simulator's numerics. 11 s of a channel that
        // fades every frame fill every optional field.
        let mut busy = PipelineSession::new(PipelineConfig::default(), 99);
        let last = drive_synthetic(&mut busy, 99, 550, 0.0);
        assert_every_optional_field(last, &mut busy);
        let owned = page(0xDEAD_BEEF, last, &mut busy);
        // Longer and shorter than the encoding, full of stale bytes.
        for dirty_len in [3 * owned.len(), 7] {
            let mut buf = vec![0xA5; dirty_len];
            encode_into(&mut buf, 0xDEAD_BEEF, last, &mut busy).expect("encodes");
            assert_eq!(buf, owned, "dirty buffer of {dirty_len} bytes");
        }
        // Codec version 2 bytes.
        assert_eq!(owned.len(), 2454);
        assert_eq!(fnv1a64(&owned), 0x00ae_b21a_9b23_2a37);
        assert_eq!(
            owned.get(owned.len() - 4..),
            Some(&0x21bb_68dau32.to_le_bytes()[..])
        );
    }

    #[test]
    fn validate_reuses_its_scratch_and_answers_as_a_fresh_decode() {
        // One thread validates a busy page, one that fails late in its
        // body (leaving the scratch half-decoded), a bit flip and a
        // fresh page, then the busy and fresh pages again: each answer
        // is what a decode into a brand-new session gives.
        let (mut busy, last) = busy_session();
        let history = Census::of(last, &mut busy).words("tof.history")[0];
        let bytes = busy_bytes();
        let mut late = bytes.to_vec();
        let at = late.len() - 4 - 16 * history as usize - 4;
        late[at..at + 4].copy_from_slice(&(MAX_ELEMS as u32).to_le_bytes());
        reseal(&mut late);
        let mut flipped = bytes.to_vec();
        flipped[SNAPSHOT_HEADER_LEN + 9] ^= 0x10;
        let mut fresh_session = PipelineSession::new(PipelineConfig::default(), 3);
        let fresh = page(7, None, &mut fresh_session);

        let mut answers = Vec::new();
        for buf in [bytes, &late, &flipped, &fresh, bytes, &fresh] {
            let answer = validate(buf);
            assert_eq!(answer, decode_fresh(buf).map(|(client_id, ..)| client_id));
            answers.push(answer);
        }
        assert_eq!(answers[0], Ok(0xDEAD_BEEF));
        assert!(matches!(answers[1], Err(SnapshotError::Truncated { .. })));
        assert!(matches!(answers[2], Err(SnapshotError::BadCrc { .. })));
        assert_eq!(answers[3], Ok(7));
        assert_eq!((&answers[4], &answers[5]), (&answers[0], &answers[3]));
    }

    #[test]
    fn peek_client_id_matches_decode() {
        let bytes = busy_bytes();
        assert_eq!(peek_client_id(bytes), Ok(0xDEAD_BEEF));
        assert_eq!(validate(bytes), Ok(0xDEAD_BEEF));
        assert!(peek_client_id(&bytes[..3]).is_err());
    }

    #[test]
    fn corrupt_header_fields_rejected_with_typed_errors() {
        let bytes = busy_bytes().to_vec();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_fresh(&bad_magic),
            Err(SnapshotError::BadMagic(_))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFE;
        assert!(matches!(
            decode_fresh(&bad_version),
            Err(SnapshotError::BadVersion(_))
        ));

        // Version 1 pages, which carried the classifier's decision
        // counter, are refused.
        let mut v1 = bytes.clone();
        v1[4] = 1;
        assert_eq!(
            decode_fresh(&v1).map(|_| ()),
            Err(SnapshotError::BadVersion(1))
        );

        let mut bad_reserved = bytes.clone();
        bad_reserved[6] = 1;
        assert!(matches!(
            decode_fresh(&bad_reserved),
            Err(SnapshotError::BadReserved(_))
        ));

        let mut huge_body = bytes.clone();
        huge_body[8..12].copy_from_slice(&(MAX_BODY_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_fresh(&huge_body),
            Err(SnapshotError::BodyTooLong { .. })
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_fresh(&trailing),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn a_failed_seal_check_leaves_the_session_untouched() {
        let (mut busy, _) = busy_session();
        let before = page(1, None, &mut busy);
        let mut flipped = busy_bytes().to_vec();
        flipped[40] ^= 1;
        assert!(matches!(
            decode_into(&flipped, &mut busy),
            Err(SnapshotError::BadCrc { .. })
        ));
        assert_eq!(page(1, None, &mut busy), before);
    }

    #[test]
    fn a_corrupt_length_fails_on_truncation_before_it_allocates() {
        // The page ends with the ToF batch (a float run) and the ToF
        // history (a sequence of items), each a length word then its
        // elements, then the CRC. A resealed length of a million
        // elements fails on the bytes that are not there; one past the
        // cap is refused outright.
        let (mut busy, last) = busy_session();
        let census = Census::of(last, &mut busy);
        let (batch, history) = (census.words("tof.batch")[0], census.words("tof.history")[0]);
        let bytes = busy_bytes();
        let history_at = bytes.len() - 4 - 16 * history as usize - 4;
        let batch_at = history_at - 8 * batch as usize - 4;
        for (field, at) in [("tof.batch", batch_at), ("tof.history", history_at)] {
            for (len, field_too_long) in [(MAX_ELEMS, false), (MAX_ELEMS + 1, true)] {
                let mut corrupt = bytes.to_vec();
                corrupt[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
                reseal(&mut corrupt);
                let err = decode_fresh(&corrupt).map(|_| ()).expect_err("refused");
                if field_too_long {
                    assert_eq!(err, SnapshotError::FieldTooLong { field, len });
                } else {
                    assert!(matches!(err, SnapshotError::Truncated { .. }), "{err:?}");
                }
            }
        }
    }

    #[test]
    fn bad_tags_and_oversize_lengths_are_typed_in_both_directions() {
        // Decode: the `last_emitted` presence tag follows the client id.
        let mut corrupt = busy_bytes().to_vec();
        corrupt[SNAPSHOT_HEADER_LEN + 4] = 2;
        reseal(&mut corrupt);
        assert_eq!(
            decode_fresh(&corrupt).map(|_| ()),
            Err(SnapshotError::BadEnum {
                field: "last_emitted",
                value: 2
            })
        );
        // Encode: the writer refuses what the reader would.
        let mut out = Vec::new();
        let mut w = Writer { out: &mut out };
        assert_eq!(
            w.tag("current", &mut 4, 0..=3),
            Err(SnapshotError::BadEnum {
                field: "current",
                value: 4
            })
        );
        assert_eq!(
            w.len("tof.batch", &mut (MAX_ELEMS + 1)),
            Err(SnapshotError::FieldTooLong {
                field: "tof.batch",
                len: MAX_ELEMS + 1
            })
        );
        assert!(out.is_empty(), "a refused field writes nothing");
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(SnapshotError::BadMagic(7).to_string().contains("0x"));
        assert!(SnapshotError::Truncated { needed: 16, got: 3 }
            .to_string()
            .contains("16"));
        assert!(SnapshotError::BadEnum {
            field: "tof_active",
            value: 9
        }
        .to_string()
        .contains("tof_active"));
        assert!(SnapshotError::FieldTooLong {
            field: "tof.batch",
            len: 1 << 21
        }
        .to_string()
        .contains("tof.batch"));
    }

    #[test]
    fn oversize_state_vector_is_a_typed_encode_error() {
        // A ToF batch that never closes, sampled every nanosecond,
        // outgrows the format's element cap.
        let mut cfg = PipelineConfig::default();
        cfg.tof.sampling_period = 1;
        cfg.tof.aggregation_period = 1 << 40;
        let mut session = PipelineSession::new(cfg, 3);
        session.observe(MAX_ELEMS as Nanos, &Csi::zeros(1, 1, 4), 5.0);
        assert!(matches!(
            encode_into(&mut Vec::new(), 3, None, &mut session),
            Err(SnapshotError::FieldTooLong {
                field: "tof.batch",
                len
            }) if len == MAX_ELEMS + 1
        ));
    }

    /// Every value `last_emitted` can hold.
    fn classifications() -> Vec<Option<Classification>> {
        let mut all = vec![None];
        for mode in MobilityMode::ALL {
            for direction in [None, Some(Direction::Towards), Some(Direction::Away)] {
                all.push(Some(Classification { mode, direction }));
            }
        }
        all
    }

    proptest::proptest! {
        /// Satellite invariant: ANY single bit flip anywhere in an
        /// encoded snapshot — header, body, length field, or the CRC
        /// itself — is detected as a typed error. There is no silently
        /// divergent restore.
        #[test]
        fn any_single_bit_flip_is_detected(bit in 0usize..8 * 512) {
            let bytes = busy_bytes();
            let bit = bit % (bytes.len() * 8);
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert!(
                decode_fresh(&flipped).is_err(),
                "bit flip at byte {} bit {} went undetected",
                bit / 8,
                bit % 8
            );
        }

        /// Any truncation of a snapshot is detected.
        #[test]
        fn any_truncation_is_detected(cut in 0usize..8 * 512) {
            let bytes = busy_bytes();
            let cut = cut % bytes.len();
            proptest::prop_assert!(decode_fresh(&bytes[..cut]).is_err());
        }

        /// Random garbage never panics the decoder and never yields a
        /// snapshot (the magic alone makes accidental success all but
        /// impossible; combined with the CRC it is astronomically so).
        #[test]
        fn random_garbage_never_panics(
            seeds in proptest::collection::vec(0u64..u64::MAX, 0..256),
        ) {
            let data: Vec<u8> = seeds.iter().map(|&s| (s % 256) as u8).collect();
            let _ = decode_fresh(&data);
        }

        /// Decoding into a session that served another client — more
        /// smoothing profiles, a longer ToF history and batch, `Some`
        /// where the source has `None`, or the reverse — equals decoding
        /// into a fresh one: no stale field survives the recycled
        /// fault-in path.
        #[test]
        fn decode_into_a_dirty_snapshot_equals_decode(
            src in (0u64..1_000, 0u64..300),
            dirty in (0u64..1_000, 0u64..300),
        ) {
            let cfg = PipelineConfig::default();
            let mut source = PipelineSession::new(cfg.clone(), src.0);
            drive_synthetic(&mut source, src.0, src.1, 1.0);
            let bytes = page(9, None, &mut source);
            let mut recycled = PipelineSession::new(cfg, dirty.0);
            drive_synthetic(&mut recycled, dirty.0 ^ 1, dirty.1, 1.0);
            proptest::prop_assert_eq!(decode_into(&bytes, &mut recycled), Ok((9, None)));
            let (_, _, mut fresh) = decode_fresh(&bytes).expect("decodes");
            proptest::prop_assert_eq!(page(9, None, &mut recycled), bytes.clone());
            proptest::prop_assert_eq!(page(9, None, &mut fresh), bytes);
        }

        /// Round trip over randomly driven sessions, every client id and
        /// every `last_emitted` value: decode ∘ encode = identity.
        #[test]
        fn random_snapshot_round_trips(
            client_id in 0u32..u32::MAX,
            seed in 0u64..1_000,
            steps in 0u64..300,
            emitted in 0usize..13,
        ) {
            let mut session = PipelineSession::new(PipelineConfig::default(), seed);
            drive_synthetic(&mut session, seed, steps, 1.0);
            let last = classifications()[emitted];
            let bytes = page(client_id, last, &mut session);
            let (id, back_last, mut back) = decode_fresh(&bytes).expect("decodes");
            proptest::prop_assert_eq!((id, back_last), (client_id, last));
            proptest::prop_assert_eq!(page(id, back_last, &mut back), bytes);
        }
    }
}
