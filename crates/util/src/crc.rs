//! Hand-rolled CRC-32 (IEEE 802.3 / zlib: reflected, polynomial
//! `0xEDB88320`, initial and final XOR `0xFFFFFFFF`).
//!
//! This lives in the foundation crate so that every on-disk and
//! on-the-wire format in the workspace (store segments, session
//! snapshots) shares a single audited checksum. The update uses
//! **slicing-by-16**: sixteen 256-entry tables (16 KiB) built in a
//! `const fn`, consuming one 16-byte chunk per iteration instead of one
//! byte. The flight recorder checksums every served frame inline, and a
//! session hibernate → fault-in cycle checksums a ~1.2 KB snapshot
//! twice, so the checksum sits on the per-frame path. A byte-at-a-time
//! loop (table 0 only) handles the unaligned tail.

const POLY: u32 = 0xEDB8_8320;

/// Number of slicing tables, and bytes consumed per sliced step.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b] = crc_of(b followed by k zero bytes)`, which is what
/// lets sixteen table lookups advance the state over sixteen input
/// bytes at once.
const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c; // lint: checked-index -- i < 256, table is [_; 256]
        i += 1;
    }
    let mut t = 1usize;
    while t < SLICES {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i]; // lint: checked-index -- 1 <= t < SLICES, i < 256
                                         // lint: checked-index -- index masked to u8
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// One table lookup: `t` is a literal 0..16 at every call site and the
/// byte index is masked, so the access is always in bounds.
#[inline(always)]
fn tbl(t: usize, b: u32) -> u32 {
    // lint: checked-index -- t < SLICES const at call sites, index masked to u8
    TABLES[t][(b & 0xFF) as usize]
}

/// Streaming CRC-32 state, for checksumming data as it is written.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(SLICES);
        for ch in &mut chunks {
            // Slice pattern, not indexing: `chunks_exact(SLICES)`
            // guarantees the shape, and the pattern lets the compiler
            // see it too.
            let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = ch else {
                continue;
            };
            let w0 = u32::from_le_bytes([b0, b1, b2, b3]) ^ c;
            let w1 = u32::from_le_bytes([b4, b5, b6, b7]);
            let w2 = u32::from_le_bytes([b8, b9, b10, b11]);
            let w3 = u32::from_le_bytes([b12, b13, b14, b15]);
            c = tbl(15, w0)
                ^ tbl(14, w0 >> 8)
                ^ tbl(13, w0 >> 16)
                ^ tbl(12, w0 >> 24)
                ^ tbl(11, w1)
                ^ tbl(10, w1 >> 8)
                ^ tbl(9, w1 >> 16)
                ^ tbl(8, w1 >> 24)
                ^ tbl(7, w2)
                ^ tbl(6, w2 >> 8)
                ^ tbl(5, w2 >> 16)
                ^ tbl(4, w2 >> 24)
                ^ tbl(3, w3)
                ^ tbl(2, w3 >> 8)
                ^ tbl(1, w3 >> 16)
                ^ tbl(0, w3 >> 24);
        }
        for &b in chunks.remainder() {
            c = tbl(0, c ^ b as u32) ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything folded in so far. Non-destructive:
    /// more updates may follow.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original byte-at-a-time update, kept as the reference the
    /// sliced implementation must match bit-for-bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_check_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_reference() {
        // Every start offset 0..16 (so chunks begin at every alignment)
        // times every length 0..=64 plus the rest of a large buffer, so
        // chunk boundaries and all remainder sizes are exercised.
        let data: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(37) % 256) as u8)
            .collect();
        for start in 0..16usize {
            let data = &data[start..];
            for len in 0..=64usize {
                assert_eq!(
                    crc32(&data[..len]),
                    crc32_bytewise(&data[..len]),
                    "start {start} len {len}"
                );
            }
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for split in [
            0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 1024, 2041, 2047, 2048,
        ] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = [0x4Du8, 0x53, 0x53, 0x47, 0x01, 0x00, 0xAB, 0xCD];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip {byte}:{bit} undetected");
            }
        }
    }
}
