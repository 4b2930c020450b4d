//! The on-disk segment format: a versioned header, length-prefixed
//! CRC-checksummed records, and a sealing footer that makes a segment
//! self-verifying.
//!
//! ```text
//! segment := header record* seal?
//!
//! header (16 bytes):
//!   offset  size  field
//!        0     4  magic 0x4753534D ("MSSG", little-endian)
//!        4     2  format version (u16 LE, currently 1)
//!        6     2  reserved (0)
//!        8     8  segment id (u64 LE)
//!
//! record:
//!   offset  size  field
//!        0     4  payload length n (u32 LE)
//!        4     1  record kind (1 = obs frame, 2 = decision row, 3 = seal)
//!        5     n  payload
//!      5+n     4  CRC-32 over kind byte + payload (u32 LE)
//!
//! seal payload (the footer; kind = 3, always the last record):
//!   [records u64] [body crc u32] [frames u64]
//!   [min_seq u32] [max_seq u32] [min_at u64] [max_at u64]
//!   [n_clients u32] [client id u32]*
//! ```
//!
//! The **body CRC** covers every byte of the file before the seal
//! record (header included), so a sealed segment detects any single
//! corruption: record payloads via their own CRC, framing and header
//! bytes via the body CRC, and the seal itself via its record CRC.
//! The seal payload doubles as the segment's **sparse index**: the
//! client-id set plus sequence and timestamp ranges, enough to skip
//! whole segments during filtered replay without decoding a frame.
//!
//! Scanning is *total*: [`scan_segment`] never panics on hostile
//! bytes. Header damage is a hard error (nothing in the file can be
//! trusted); record-level damage yields the good record prefix plus a
//! typed [`SegmentError`] saying why the scan stopped.

use mobisense_util::units::Nanos;

use mobisense_util::crc::{crc32, Crc32};

/// Segment file magic: `"MSSG"` little-endian.
pub const SEGMENT_MAGIC: u32 = 0x4753_534D;
/// Current segment format version.
pub const SEGMENT_VERSION: u16 = 1;
/// Bytes of the segment header.
pub const SEGMENT_HEADER_LEN: usize = 16;
/// Framing bytes around a record payload (length + kind + CRC).
pub const RECORD_OVERHEAD: usize = 9;
/// Upper bound on a record payload; longer length prefixes are treated
/// as corruption rather than attempted as allocations.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// What a record's payload holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// One wire-encoded `ObsFrame` (`mobisense_serve::wire`).
    Obs,
    /// One line of a decision log (UTF-8, no trailing newline).
    DecisionRow,
    /// The sealing footer (count + body CRC + sparse index).
    Seal,
    /// One encoded `mobisense_session` snapshot — a hibernated
    /// client's full pipeline state paged out of the serving layer.
    SessionSnapshot,
}

impl RecordKind {
    /// The kind's on-disk byte.
    pub fn as_u8(self) -> u8 {
        match self {
            RecordKind::Obs => 1,
            RecordKind::DecisionRow => 2,
            RecordKind::Seal => 3,
            RecordKind::SessionSnapshot => 4,
        }
    }

    /// Parses an on-disk kind byte.
    pub fn from_u8(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Obs),
            2 => Some(RecordKind::DecisionRow),
            3 => Some(RecordKind::Seal),
            4 => Some(RecordKind::SessionSnapshot),
            _ => None,
        }
    }
}

/// Why a segment (or part of one) could not be read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// Shorter than the fixed header.
    TooShort {
        /// Bytes available.
        got: usize,
    },
    /// The first four bytes were not [`SEGMENT_MAGIC`].
    BadMagic(u32),
    /// The version field named a format this reader does not speak.
    BadVersion(u16),
    /// The file ended in the middle of a record (crash-truncated tail).
    RecordTruncated {
        /// File offset of the incomplete record.
        offset: usize,
    },
    /// A record failed its CRC, declared an absurd length, or carried
    /// an unknown kind byte.
    RecordCorrupt {
        /// File offset of the damaged record.
        offset: usize,
    },
    /// The seal record disagreed with the body (record count or body
    /// CRC mismatch, or undecodable seal payload).
    BadSeal {
        /// File offset of the seal record.
        offset: usize,
    },
    /// Bytes followed the seal record (a sealed segment must end at
    /// its seal).
    TrailingData {
        /// File offset where the trailing bytes start.
        offset: usize,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SegmentError::TooShort { got } => {
                write!(f, "{got} bytes is shorter than a segment header")
            }
            SegmentError::BadMagic(m) => {
                write!(
                    f,
                    "bad segment magic {m:#010x} (expected {SEGMENT_MAGIC:#010x})"
                )
            }
            SegmentError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            SegmentError::RecordTruncated { offset } => {
                write!(f, "segment ends mid-record at offset {offset}")
            }
            SegmentError::RecordCorrupt { offset } => {
                write!(f, "corrupt record at offset {offset}")
            }
            SegmentError::BadSeal { offset } => {
                write!(f, "seal at offset {offset} does not match segment body")
            }
            SegmentError::TrailingData { offset } => {
                write!(f, "unexpected data after seal at offset {offset}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// The sparse per-segment index carried in the seal: enough to decide
/// whether a segment can contain a given client, sequence window or
/// time window without decoding any payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentIndex {
    /// Observation frames in the segment.
    pub frames: u64,
    /// Smallest per-client sequence number seen (meaningless when
    /// `frames == 0`).
    pub min_seq: u32,
    /// Largest per-client sequence number seen.
    pub max_seq: u32,
    /// Earliest capture timestamp seen.
    pub min_at: Nanos,
    /// Latest capture timestamp seen.
    pub max_at: Nanos,
    /// Sorted, deduplicated ids of every client with a frame here.
    pub clients: Vec<u32>,
}

impl SegmentIndex {
    /// An index covering no frames.
    pub fn empty() -> Self {
        SegmentIndex {
            frames: 0,
            min_seq: u32::MAX,
            max_seq: 0,
            min_at: Nanos::MAX,
            max_at: 0,
            clients: Vec::new(),
        }
    }

    /// Folds one observation frame's header metadata into the index.
    pub fn note(&mut self, client_id: u32, seq: u32, at: Nanos) {
        self.frames += 1;
        self.min_seq = self.min_seq.min(seq);
        self.max_seq = self.max_seq.max(seq);
        self.min_at = self.min_at.min(at);
        self.max_at = self.max_at.max(at);
        if let Err(i) = self.clients.binary_search(&client_id) {
            self.clients.insert(i, client_id);
        }
    }

    /// Whether the segment holds at least one frame of `client_id`.
    pub fn contains_client(&self, client_id: u32) -> bool {
        self.clients.binary_search(&client_id).is_ok()
    }

    /// Folds another segment's index into this one (compaction).
    pub fn merge(&mut self, other: &SegmentIndex) {
        if other.frames == 0 {
            return;
        }
        self.frames += other.frames;
        self.min_seq = self.min_seq.min(other.min_seq);
        self.max_seq = self.max_seq.max(other.max_seq);
        self.min_at = self.min_at.min(other.min_at);
        self.max_at = self.max_at.max(other.max_at);
        for &c in &other.clients {
            if let Err(i) = self.clients.binary_search(&c) {
                self.clients.insert(i, c);
            }
        }
    }
}

/// A decoded seal footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealInfo {
    /// Records the seal claims precede it (observation + decision).
    pub records: u64,
    /// CRC-32 over the segment body (header + all records).
    pub body_crc: u32,
    /// The sparse index.
    pub index: SegmentIndex,
}

/// Fixed-size prefix of the seal payload, before the client-id list.
const SEAL_FIXED_LEN: usize = 8 + 4 + 8 + 4 + 4 + 8 + 8 + 4;

impl SealInfo {
    /// Encodes the seal payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEAL_FIXED_LEN + 4 * self.index.clients.len());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.body_crc.to_le_bytes());
        out.extend_from_slice(&self.index.frames.to_le_bytes());
        out.extend_from_slice(&self.index.min_seq.to_le_bytes());
        out.extend_from_slice(&self.index.max_seq.to_le_bytes());
        out.extend_from_slice(&self.index.min_at.to_le_bytes());
        out.extend_from_slice(&self.index.max_at.to_le_bytes());
        out.extend_from_slice(&(self.index.clients.len() as u32).to_le_bytes());
        for &c in &self.index.clients {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Decodes a seal payload; `None` when the payload is malformed.
    pub fn decode(b: &[u8]) -> Option<SealInfo> {
        if b.len() < SEAL_FIXED_LEN {
            return None;
        }
        let n_clients = le_u32(b, 44)? as usize;
        if b.len() != SEAL_FIXED_LEN + 4 * n_clients {
            return None;
        }
        let mut clients = Vec::with_capacity(n_clients);
        for ch in b.get(SEAL_FIXED_LEN..)?.chunks_exact(4) {
            if let &[c0, c1, c2, c3] = ch {
                clients.push(u32::from_le_bytes([c0, c1, c2, c3]));
            }
        }
        if !clients.windows(2).all(|w| matches!(*w, [a, b] if a < b)) {
            return None;
        }
        Some(SealInfo {
            records: le_u64(b, 0)?,
            body_crc: le_u32(b, 8)?,
            index: SegmentIndex {
                frames: le_u64(b, 12)?,
                min_seq: le_u32(b, 20)?,
                max_seq: le_u32(b, 24)?,
                min_at: le_u64(b, 28)?,
                max_at: le_u64(b, 36)?,
                clients,
            },
        })
    }
}

/// Reads a little-endian `u16` at `o`; `None` on short input.
#[inline]
pub(crate) fn le_u16(b: &[u8], o: usize) -> Option<u16> {
    b.get(o..o + 2)
        .and_then(|s| <[u8; 2]>::try_from(s).ok())
        .map(u16::from_le_bytes)
}

/// Reads a little-endian `u32` at `o`; `None` on short input.
#[inline]
pub(crate) fn le_u32(b: &[u8], o: usize) -> Option<u32> {
    b.get(o..o + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
}

/// Reads a little-endian `u64` at `o`; `None` on short input.
#[inline]
pub(crate) fn le_u64(b: &[u8], o: usize) -> Option<u64> {
    b.get(o..o + 8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_le_bytes)
}

/// Writes the 16-byte segment header.
pub fn segment_header(segment_id: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..4].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes()); // lint: checked-index -- const range in [u8; 16]
    h[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes()); // lint: checked-index -- const range in [u8; 16]
    h[8..16].copy_from_slice(&segment_id.to_le_bytes()); // lint: checked-index -- const range in [u8; 16]
    h
}

/// Appends one framed record (length, kind, payload, CRC) to `out`.
pub fn append_record(out: &mut Vec<u8>, kind: RecordKind, payload: &[u8]) {
    assert!(payload.len() <= MAX_RECORD_LEN, "record payload too large");
    out.reserve(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(kind.as_u8());
    out.extend_from_slice(payload);
    let mut c = Crc32::new();
    c.update(&[kind.as_u8()]);
    c.update(payload);
    out.extend_from_slice(&c.finish().to_le_bytes());
}

/// One record found by a scan, borrowing the segment bytes.
#[derive(Clone, Copy, Debug)]
pub struct Record<'a> {
    /// The record's kind.
    pub kind: RecordKind,
    /// The payload bytes (CRC already verified).
    pub payload: &'a [u8],
    /// File offset of the record's length prefix.
    pub offset: usize,
}

/// The outcome of scanning one segment's bytes.
#[derive(Clone, Debug)]
pub struct ScannedSegment<'a> {
    /// Segment id from the header.
    pub segment_id: u64,
    /// CRC-verified records, in file order, up to the first problem.
    pub records: Vec<Record<'a>>,
    /// The verified seal, when the segment is sealed and consistent.
    pub seal: Option<SealInfo>,
    /// Why the scan stopped early, if it did. `None` with `seal: None`
    /// means a clean unsealed tail (every byte was a whole record).
    pub error: Option<SegmentError>,
}

impl ScannedSegment<'_> {
    /// Whether the segment is sealed and fully intact.
    pub fn sealed_ok(&self) -> bool {
        self.seal.is_some() && self.error.is_none()
    }
}

/// Scans a segment's bytes. Header-level damage (too short, bad magic
/// or version) is a hard error — nothing else in the file can be
/// trusted. Everything after the header is scanned losslessly: the
/// returned records are the longest verified prefix, and `error` says
/// what stopped the scan.
pub fn scan_segment(bytes: &[u8]) -> Result<ScannedSegment<'_>, SegmentError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(SegmentError::TooShort { got: bytes.len() });
    }
    let too_short = SegmentError::TooShort { got: bytes.len() };
    let magic = le_u32(bytes, 0).ok_or(too_short)?;
    if magic != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic(magic));
    }
    let version = le_u16(bytes, 4).ok_or(too_short)?;
    if version != SEGMENT_VERSION {
        return Err(SegmentError::BadVersion(version));
    }
    let segment_id = le_u64(bytes, 8).ok_or(too_short)?;

    let mut out = ScannedSegment {
        segment_id,
        records: Vec::new(),
        seal: None,
        error: None,
    };
    let mut pos = SEGMENT_HEADER_LEN;
    while pos < bytes.len() {
        let (Some(len), Some(&kind_byte)) = (le_u32(bytes, pos), bytes.get(pos + 4)) else {
            out.error = Some(SegmentError::RecordTruncated { offset: pos });
            break;
        };
        let len = len as usize;
        if len > MAX_RECORD_LEN {
            out.error = Some(SegmentError::RecordCorrupt { offset: pos });
            break;
        }
        let end = pos + RECORD_OVERHEAD + len;
        let (Some(payload), Some(stored)) = (bytes.get(pos + 5..end - 4), le_u32(bytes, end - 4))
        else {
            out.error = Some(SegmentError::RecordTruncated { offset: pos });
            break;
        };
        let mut c = Crc32::new();
        c.update(&[kind_byte]);
        c.update(payload);
        if c.finish() != stored {
            out.error = Some(SegmentError::RecordCorrupt { offset: pos });
            break;
        }
        let Some(kind) = RecordKind::from_u8(kind_byte) else {
            out.error = Some(SegmentError::RecordCorrupt { offset: pos });
            break;
        };
        if kind == RecordKind::Seal {
            // lint: checked-index -- pos < bytes.len() loop invariant
            let body_crc = crc32(&bytes[..pos]);
            match SealInfo::decode(payload) {
                Some(info)
                    if info.records == out.records.len() as u64 && info.body_crc == body_crc =>
                {
                    if end != bytes.len() {
                        out.error = Some(SegmentError::TrailingData { offset: end });
                    } else {
                        out.seal = Some(info);
                    }
                }
                _ => out.error = Some(SegmentError::BadSeal { offset: pos }),
            }
            break;
        }
        out.records.push(Record {
            kind,
            payload,
            offset: pos,
        });
        pos = end;
    }
    Ok(out)
}

/// Builds a complete sealed segment in memory: header, the given
/// records, and the seal footer. The writer streams this shape to
/// disk incrementally; the compactor and tests use this buffer form.
pub fn build_sealed_segment(
    segment_id: u64,
    records: impl IntoIterator<Item = (RecordKind, Vec<u8>)>,
    index: SegmentIndex,
) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&segment_header(segment_id));
    let mut n = 0u64;
    for (kind, payload) in records {
        assert!(kind != RecordKind::Seal, "seal is appended automatically");
        append_record(&mut buf, kind, &payload);
        n += 1;
    }
    let seal = SealInfo {
        records: n,
        body_crc: crc32(&buf),
        index,
    };
    append_record(&mut buf, RecordKind::Seal, &seal.encode());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_payload(client: u32, seq: u32) -> Vec<u8> {
        mobisense_serve::wire::ObsFrame {
            client_id: client,
            seq,
            at: 1000 * seq as Nanos,
            distance_m: 3.5,
            digest: vec![1.0, 2.0, 3.0],
        }
        .encode()
    }

    fn sealed_bytes() -> Vec<u8> {
        let mut index = SegmentIndex::empty();
        let mut records = Vec::new();
        for (client, seq) in [(7u32, 0u32), (3, 0), (7, 1)] {
            index.note(client, seq, 1000 * seq as Nanos);
            records.push((RecordKind::Obs, obs_payload(client, seq)));
        }
        records.push((RecordKind::DecisionRow, b"7,1,1000,static".to_vec()));
        build_sealed_segment(42, records, index)
    }

    #[test]
    fn sealed_segment_scans_clean() {
        let bytes = sealed_bytes();
        let scan = scan_segment(&bytes).expect("header ok");
        assert!(scan.sealed_ok());
        assert_eq!(scan.segment_id, 42);
        assert_eq!(scan.records.len(), 4);
        let seal = scan.seal.expect("sealed");
        assert_eq!(seal.records, 4);
        assert_eq!(seal.index.frames, 3);
        assert_eq!(seal.index.clients, vec![3, 7]);
        assert_eq!((seal.index.min_seq, seal.index.max_seq), (0, 1));
        assert_eq!((seal.index.min_at, seal.index.max_at), (0, 1000));
        assert!(seal.index.contains_client(7));
        assert!(!seal.index.contains_client(8));
    }

    #[test]
    fn header_damage_is_a_hard_error() {
        let bytes = sealed_bytes();
        assert_eq!(
            scan_segment(&bytes[..10]).err(),
            Some(SegmentError::TooShort { got: 10 })
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0x01;
        assert!(matches!(
            scan_segment(&bad_magic),
            Err(SegmentError::BadMagic(_))
        ));
        let mut bad_version = bytes;
        bad_version[4] = 0xEE;
        assert!(matches!(
            scan_segment(&bad_version),
            Err(SegmentError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_keeps_the_good_prefix() {
        let bytes = sealed_bytes();
        // Cut inside the third record.
        let third_offset = {
            let scan = scan_segment(&bytes).expect("header ok");
            scan.records[2].offset
        };
        let cut = &bytes[..third_offset + 3];
        let scan = scan_segment(cut).expect("header ok");
        assert_eq!(scan.records.len(), 2);
        assert!(scan.seal.is_none());
        assert!(matches!(
            scan.error,
            Some(SegmentError::RecordTruncated { .. })
        ));
    }

    #[test]
    fn clean_unsealed_tail_has_no_error() {
        let bytes = sealed_bytes();
        let scan = scan_segment(&bytes).expect("header ok");
        // Cut exactly before the seal record: a clean open tail.
        let seal_offset = scan.records.last().expect("records").offset
            + RECORD_OVERHEAD
            + scan.records.last().expect("records").payload.len();
        let open = &bytes[..seal_offset];
        let scan = scan_segment(open).expect("header ok");
        assert_eq!(scan.records.len(), 4);
        assert!(scan.seal.is_none());
        assert!(scan.error.is_none());
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut bytes = sealed_bytes();
        // Flip a bit inside the second record's payload.
        let offset = {
            let scan = scan_segment(&bytes).expect("header ok");
            scan.records[1].offset + 7
        };
        bytes[offset] ^= 0x10;
        let scan = scan_segment(&bytes).expect("header ok");
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            scan.error,
            Some(SegmentError::RecordCorrupt { .. })
        ));
        assert!(scan.seal.is_none(), "scan stops before the seal");
    }

    #[test]
    fn seal_body_crc_catches_framing_damage() {
        let mut bytes = sealed_bytes();
        // Flip a reserved header byte: no record CRC covers it, but the
        // seal's body CRC must.
        bytes[6] ^= 0xFF;
        let scan = scan_segment(&bytes).expect("header ok");
        assert!(matches!(scan.error, Some(SegmentError::BadSeal { .. })));
        assert!(scan.seal.is_none());
    }

    #[test]
    fn trailing_data_after_seal_is_rejected() {
        let mut bytes = sealed_bytes();
        bytes.push(0xAA);
        let scan = scan_segment(&bytes).expect("header ok");
        assert!(matches!(
            scan.error,
            Some(SegmentError::TrailingData { .. })
        ));
    }

    #[test]
    fn seal_info_round_trips() {
        let mut index = SegmentIndex::empty();
        index.note(9, 4, 400);
        index.note(2, 5, 500);
        let seal = SealInfo {
            records: 2,
            body_crc: 0xDEAD_BEEF,
            index,
        };
        assert_eq!(SealInfo::decode(&seal.encode()), Some(seal.clone()));
        // Truncated payloads and bad client counts are rejected.
        assert_eq!(SealInfo::decode(&seal.encode()[..20]), None);
        let mut bad = seal.encode();
        bad[44] = 99; // claim 99 clients
        assert_eq!(SealInfo::decode(&bad), None);
    }

    #[test]
    fn index_merge_is_a_union() {
        let mut a = SegmentIndex::empty();
        a.note(1, 0, 100);
        a.note(2, 1, 200);
        let mut b = SegmentIndex::empty();
        b.note(2, 7, 50);
        b.note(5, 3, 900);
        a.merge(&b);
        assert_eq!(a.frames, 4);
        assert_eq!(a.clients, vec![1, 2, 5]);
        assert_eq!((a.min_seq, a.max_seq), (0, 7));
        assert_eq!((a.min_at, a.max_at), (50, 900));
        // Merging an empty index is a no-op.
        let before = a.clone();
        a.merge(&SegmentIndex::empty());
        assert_eq!(a, before);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SegmentError::BadMagic(7).to_string().contains("0x"));
        assert!(SegmentError::RecordTruncated { offset: 99 }
            .to_string()
            .contains("99"));
    }
}
