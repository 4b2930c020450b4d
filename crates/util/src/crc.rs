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
//!
//! [`CheckedRuns`] advances a running checksum over a run that ends in
//! its own CRC without reading the run: any such run checksums to
//! [`RESIDUE`], so only its length matters. The trace store uses it to
//! fold each verified record into a segment's body CRC, so a record's
//! bytes go through the tables once, not twice.

const POLY: u32 = 0xEDB8_8320;

/// The CRC-32 of every run `data ++ le32(crc32(data))`, whatever
/// `data` is: a run that ends in its own checksum always checksums to
/// this constant.
pub const RESIDUE: u32 = 0x2144_DF1C;

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

/// `v · x mod P` in the tables' bit-reflected representation, where
/// bit 31 holds the coefficient of x^0 and bit 0 that of x^31: one
/// step of the CRC's shift register.
const fn times_x(v: u32) -> u32 {
    (v >> 1) ^ (POLY & 0u32.wrapping_sub(v & 1))
}

/// `a · b mod P`, both bit-reflected.
const fn mul_mod_p(a: u32, b: u32) -> u32 {
    let mut product = 0;
    let mut b_times_xk = b;
    let mut k = 0;
    while k < 32 {
        // Bit 31 - k of `a` is its coefficient of x^k.
        product ^= b_times_xk & 0u32.wrapping_sub((a >> (31 - k)) & 1);
        b_times_xk = times_x(b_times_xk);
        k += 1;
    }
    product
}

/// `X2N[k]` is x^(2^k) mod P. For this P, x^(2^32) = x, so the table
/// repeats with period 32 (a unit test checks it).
const fn make_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut square = 1 << 30; // x
    let mut rest: &mut [u32] = &mut table;
    while let [first, tail @ ..] = rest {
        *first = square;
        square = mul_mod_p(square, square);
        rest = tail;
    }
    table
}

static X2N: [u32; 32] = make_x2n();

/// x^(8n) mod P: what a CRC state is multiplied by when `n` bytes pass
/// through the register.
fn x_pow_8n(n: usize) -> u32 {
    let mut power = 1 << 31; // x^0
    let mut rest = n;
    // x^(8n) is the product of x^(2^(k+3)) over the set bits k of n.
    for &square in X2N.iter().cycle().skip(3) {
        if rest == 0 {
            break;
        }
        if rest & 1 != 0 {
            power = mul_mod_p(square, power);
        }
        rest >>= 1;
    }
    power
}

/// Advances a running [`Crc32`] over a run that ends in its own
/// checksum, from the run's length alone.
///
/// A run `data ++ le32(crc32(data))` always checksums to [`RESIDUE`],
/// so the state after it follows from zlib's `crc32_combine`
/// arithmetic: the state before it, multiplied by x^(8·len) mod P,
/// plus the run's constant contribution. The multiply is a 32 × 32
/// GF(2) matrix, one column per state bit, and the matrix for the last
/// length is kept: a stream of equal-length runs costs 32 masked XORs
/// per run where [`Crc32::update`] would look up every byte. A new
/// length rebuilds the matrix, which costs more than a table pass over
/// a run of a few hundred bytes, so the fold pays off where lengths
/// repeat, as a store's frames do. The trace store folds each record
/// whose CRC it has just verified or computed into its segment's body
/// CRC this way.
#[derive(Clone, Debug, Default)]
pub struct CheckedRuns {
    /// The run length `op` belongs to; `None` before the first run.
    len: Option<usize>,
    /// `op[b]` is x^(8·len) times the state's bit `b` alone, x^(31-b).
    op: [u32; 32],
}

impl CheckedRuns {
    /// An empty cache: the first fold computes its operator.
    pub fn new() -> Self {
        CheckedRuns::default()
    }

    /// Advances `crc` exactly as `crc.update(run)` would, for any `run`
    /// of `len` bytes whose last four are the little-endian CRC-32 of
    /// the bytes before them. `len` counts those four bytes, so it is
    /// at least 4. The run's bytes are never read: the result rests on
    /// that CRC being right, so fold a record only after checking it.
    pub fn fold(&mut self, crc: &mut Crc32, len: usize) {
        debug_assert!(len >= 4, "a checked run ends in its 4-byte CRC");
        if self.len != Some(len) {
            let mut column = x_pow_8n(len);
            for slot in self.op.iter_mut().rev() {
                *slot = column;
                column = times_x(column);
            }
            self.len = Some(len);
        }
        // In `Crc32::finish` terms: crc(prefix ++ run) =
        // x^(8·len) · crc(prefix) + crc(run), and crc(run) = RESIDUE.
        let prefix = crc.state ^ 0xFFFF_FFFF;
        let shifted = self.op.iter().enumerate().fold(0, |acc, (bit, &column)| {
            acc ^ (column & 0u32.wrapping_sub((prefix >> bit) & 1))
        });
        crc.state = shifted ^ RESIDUE ^ 0xFFFF_FFFF;
    }
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

    /// `data ++ le32(crc32(data))`: a run that ends in its own CRC.
    fn checked_run(data: &[u8]) -> Vec<u8> {
        let mut run = data.to_vec();
        run.extend_from_slice(&crc32(data).to_le_bytes());
        run
    }

    /// Deterministic filler bytes.
    fn bytes(n: usize, salt: u32) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(131).wrapping_add(salt) >> 3) as u8)
            .collect()
    }

    /// The running state after `prefix` then `run`, byte by byte and
    /// folded, as `finish()` values.
    fn updated_and_folded(runs: &mut CheckedRuns, prefix: &[u8], run: &[u8]) -> (u32, u32) {
        let mut updated = Crc32::new();
        updated.update(prefix);
        let mut folded = updated;
        updated.update(run);
        runs.fold(&mut folded, run.len());
        (updated.finish(), folded.finish())
    }

    #[test]
    fn every_checked_run_checksums_to_the_residue() {
        for n in [0usize, 1, 4, 15, 16, 17, 255, 1000] {
            assert_eq!(crc32(&checked_run(&bytes(n, 7))), RESIDUE, "len {n}");
        }
    }

    #[test]
    fn the_power_table_repeats_with_period_32() {
        let x = 1u32 << 30;
        assert_eq!(X2N.first(), Some(&x));
        assert_eq!(X2N.last().map(|&s| mul_mod_p(s, s)), Some(x));
        // x^(8n) is the state `n` zero bytes leave behind a state of 1.
        for n in [0usize, 1, 2, 3, 7, 64, 300, 65_537] {
            let mut state = 1u32 << 31;
            for _ in 0..n {
                state = TABLES[0][(state & 0xFF) as usize] ^ (state >> 8);
            }
            assert_eq!(x_pow_8n(n), state, "n {n}");
        }
    }

    #[test]
    fn fold_matches_the_byte_wise_update_at_every_short_length() {
        // Each length is folded after 18 prefixes: the first fold
        // fills the cache, the other 17 reuse it.
        let mut runs = CheckedRuns::new();
        let prefix_bytes = bytes(17, 3);
        for n in 0..=300usize {
            let run = checked_run(&bytes(n, n as u32));
            for p in 0..=17usize {
                let (updated, folded) = updated_and_folded(&mut runs, &prefix_bytes[..p], &run);
                assert_eq!(folded, updated, "data len {n} after {p} prefix bytes");
            }
        }
    }

    #[test]
    fn fold_matches_the_byte_wise_update_over_a_long_run() {
        let run = checked_run(&bytes(70_000, 11));
        let (updated, folded) = updated_and_folded(&mut CheckedRuns::new(), b"MSSG", &run);
        assert_eq!(folded, updated);
    }

    #[test]
    fn a_cache_filled_at_one_length_serves_another() {
        let short = checked_run(&bytes(40, 1));
        let long = checked_run(&bytes(241, 2));
        let mut runs = CheckedRuns::new();
        for (prefix, run) in [
            (&b"a"[..], &short),
            (b"bc", &long),
            (b"def", &short),
            (b"", &long),
            (b"ghij", &long),
        ] {
            let (updated, folded) = updated_and_folded(&mut runs, prefix, run);
            assert_eq!(folded, updated, "run of {} after {prefix:?}", run.len());
        }
        // A copy of a filled cache answers for its own length and
        // refills for a new one.
        let mut copy = runs.clone();
        let (updated, folded) = updated_and_folded(&mut copy, b"k", &short);
        assert_eq!(folded, updated);
    }
}
