//! Cyclic redundancy checks for packet corruption detection.
//!
//! The paper adopts CRC for per-packet error detection because of its
//! "low computational cost and high error coverage" (§4.1). The wire
//! framing in [`crate::packet`] uses CRC-16/CCITT so that the total
//! per-packet overhead (2-byte sequence number + 2-byte CRC) matches the
//! 4-byte overhead `O` of the paper's Table 2. CRC-32/IEEE is provided
//! as a stronger alternative for whole-document integrity checks.
//!
//! Each checksum has two kernels, and [`tier`] names the one this CPU
//! runs. On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes or more fold
//! 16 bytes per carry-less multiply pair (Intel's "Fast CRC Computation
//! Using PCLMULQDQ Instruction" scheme); everywhere else, and for short
//! inputs and tails, *sliced* table kernels run: CRC-32 slicing-by-8
//! (eight 256-entry tables, one 64-bit load per step) and CRC-16
//! slicing-by-4, at about 0.8 and 1.15 ns/B — slower per byte than the
//! SIMD dispersal kernels in [`crate::gf256`], which is why the
//! carry-less tier exists. [`crc32_portable`]/[`crc16_portable`] pin the
//! sliced kernels whatever the CPU. The obvious bit-at-a-time shift
//! registers are kept as [`crc32_reference`]/[`crc16_reference`]: slow,
//! table-free, and straight off the polynomial definition, they are the
//! oracles the property tests compare both tiers against.

/// The low 32 terms of the CRC-32/IEEE polynomial (MSB-first).
const CRC32_POLY: u32 = 0x04C1_1DB7;
/// The low 16 terms of the CRC-16/CCITT polynomial (MSB-first).
const CRC16_POLY: u16 = 0x1021;

/// CRC kernel tiers, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Carry-less-multiply folding: PCLMULQDQ, with SSSE3 byte
    /// shuffles.
    Clmul,
    /// The sliced table kernels; always available.
    Portable,
}

/// The tier [`crc32`], [`Crc32`] and [`crc16`] dispatch to on this CPU.
pub fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            return Tier::Clmul;
        }
    }
    Tier::Portable
}

/// Slicing tables for CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`).
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]` advances
/// a byte through `k` extra zero bytes, letting eight input bytes fold
/// into the state with eight independent lookups.
const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY.reverse_bits() ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

/// Folds `data` into a raw (pre-inversion) CRC-32 state on the widest
/// kernel this CPU runs.
fn crc32_update_state(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= clmul::MIN_LEN && tier() == Tier::Clmul {
            // SAFETY: `tier` verified PCLMULQDQ and SSSE3 at runtime,
            // and the input holds at least four 16-byte blocks.
            return unsafe { clmul::crc32_update(state, data) };
        }
    }
    crc32_sliced(state, data)
}

/// Folds `data` into a raw (pre-inversion) CRC-32 state, slicing by 8.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Computes the CRC-32/IEEE checksum of `data`.
///
/// # Example
///
/// ```
/// // The canonical CRC-32 check value.
/// assert_eq!(mrtweb_erasure::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update_state(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// [`crc32`] on the sliced kernel whatever the CPU: the portable
/// fallback, kept reachable so tests and benchmarks can pin it.
pub fn crc32_portable(data: &[u8]) -> u32 {
    crc32_sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Bit-at-a-time CRC-32/IEEE, straight off the reflected polynomial.
///
/// Table-free and obviously correct; kept as the oracle both kernel
/// tiers are property-tested against. Do not use on hot paths.
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 hasher for streaming use.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::crc::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), mrtweb_erasure::crc::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc32_update_state(self.state, data);
    }

    /// Returns the final checksum without consuming the hasher.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Slicing tables for CRC-16/CCITT-FALSE (poly `0x1021`, MSB-first).
///
/// Same construction as the CRC-32 tables: `TABLES[k]` advances a byte
/// through `k` extra zero bytes. With a 16-bit state, two bytes flush
/// the register entirely, so four bytes fold with four lookups where
/// only the first two see state bits.
const fn build_crc16_tables() -> [[u16; 256]; 4] {
    let mut tables = [[0u16; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut c = (i as u16) << 8;
        let mut k = 0;
        while k < 8 {
            c = if c & 0x8000 != 0 {
                (c << 1) ^ CRC16_POLY
            } else {
                c << 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev >> 8) as usize] ^ (prev << 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC16_TABLES: [[u16; 256]; 4] = build_crc16_tables();

/// Folds `data` into a CRC-16 register, slicing by 4.
fn crc16_sliced(mut c: u16, data: &[u8]) -> u16 {
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        c = CRC16_TABLES[3][((c >> 8) as u8 ^ chunk[0]) as usize]
            ^ CRC16_TABLES[2][(c as u8 ^ chunk[1]) as usize]
            ^ CRC16_TABLES[1][chunk[2] as usize]
            ^ CRC16_TABLES[0][chunk[3] as usize];
    }
    for &b in chunks.remainder() {
        c = CRC16_TABLES[0][(((c >> 8) ^ b as u16) & 0xFF) as usize] ^ (c << 8);
    }
    c
}

/// Computes the CRC-16/CCITT-FALSE checksum of `data` on the widest
/// kernel this CPU runs.
///
/// # Example
///
/// ```
/// // The canonical CRC-16/CCITT-FALSE check value.
/// assert_eq!(mrtweb_erasure::crc::crc16(b"123456789"), 0x29B1);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= clmul::MIN_LEN && tier() == Tier::Clmul {
            // SAFETY: `tier` verified PCLMULQDQ and SSSE3 at runtime,
            // and the input holds at least four 16-byte blocks.
            return unsafe { clmul::crc16_update(0xFFFF, data) };
        }
    }
    crc16_sliced(0xFFFF, data)
}

/// [`crc16`] on the sliced kernel whatever the CPU: the portable
/// fallback, kept reachable so tests and benchmarks can pin it.
pub fn crc16_portable(data: &[u8]) -> u16 {
    crc16_sliced(0xFFFF, data)
}

/// Bit-at-a-time CRC-16/CCITT-FALSE: the property-test oracle for
/// [`crc16`]. Do not use on hot paths.
pub fn crc16_reference(data: &[u8]) -> u16 {
    let mut c = 0xFFFFu16;
    for &b in data {
        c ^= (b as u16) << 8;
        for _ in 0..8 {
            c = if c & 0x8000 != 0 {
                (c << 1) ^ 0x1021
            } else {
                c << 1
            };
        }
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! Carry-less-multiply folding kernels.
    //!
    //! Read as a polynomial over GF(2), a 128-bit block `B` followed by
    //! `D` more message bits contributes `B·x^D` to the CRC, and
    //! `B·x^D ≡ B_hi·(x^(D+64) mod P) + B_lo·(x^D mod P)`: two
    //! carry-less multiplies by constants move a block `D` bits down the
    //! message into a 128-bit value that can be XORed onto the block
    //! there. Four lanes fold the block 64 bytes ahead until fewer than
    //! 64 bytes remain, fold into one lane, and absorb the remaining
    //! whole blocks one at a time. The last lane, read back as 16 bytes,
    //! is a message with the same CRC from a zero register, which the
    //! sliced kernel finishes along with the tail.
    //!
    //! Every constant is `x^k mod P`, derived from the polynomial at
    //! compile time by [`xpow_mod`].
    // The `loadu`/`storeu` intrinsics are specified for arbitrarily
    // aligned pointers; the casts below change only the pointee type
    // and never assume alignment.
    #![allow(clippy::cast_ptr_alignment)]

    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_set_epi64x,
        _mm_set_epi8, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };

    use super::{crc16_sliced, crc32_sliced, CRC16_POLY, CRC32_POLY};

    /// Inputs shorter than this run the sliced kernels: the carry-less
    /// kernels start from four 16-byte lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^k mod P` for the degree-`width` polynomial `P = x^width + low`.
    const fn xpow_mod(k: u32, low: u64, width: u32) -> u64 {
        let top = 1u64 << width;
        let mut r = 1u64;
        let mut i = 0;
        while i < k {
            r <<= 1;
            if r & top != 0 {
                r ^= top | low;
            }
            i += 1;
        }
        r
    }

    /// `x^k mod P` for CRC-32, bit-reversed into 33 bits (bit `32 − d`
    /// holds the `x^d` term): a carry-less product of two reflected
    /// operands lands one bit short of the reflected 128-bit layout, and
    /// the extra bit makes up for it.
    const fn crc32_key(k: u32) -> i64 {
        (xpow_mod(k, CRC32_POLY as u64, 32).reverse_bits() >> 31).cast_signed()
    }

    /// `x^k mod P` for CRC-16, in natural bit order.
    const fn crc16_key(k: u32) -> i64 {
        xpow_mod(k, CRC16_POLY as u64, 16).cast_signed()
    }

    /// `a·x^D + b`: `a`'s low half times `k`'s low half plus its high
    /// half times `k`'s high half, where `k` holds the constants that
    /// move each half `D` bits down the message.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128::<0x00>(a, k)),
            _mm_clmulepi64_si128::<0x11>(a, k),
        )
    }

    /// Folds the whole 16-byte blocks of `data` (at least four) into
    /// one, returned with the bytes after them: the CRC of that block
    /// from a zero register, continued over the tail, is the CRC of
    /// `data` from the register `seed` holds. `order` shuffles each
    /// block into the layout the constants expect, and back; `far` and
    /// `near` hold the `[low, high]` half constants for folding across
    /// 64 and 16 bytes.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn fold_message(
        data: &[u8],
        order: __m128i,
        seed: __m128i,
        [far_lo, far_hi]: [i64; 2],
        [near_lo, near_hi]: [i64; 2],
    ) -> ([u8; 16], &[u8]) {
        let (far, near) = (
            _mm_set_epi64x(far_hi, far_lo),
            _mm_set_epi64x(near_hi, near_lo),
        );
        let load = |block: &[u8; 16]| {
            // SAFETY: `block` is 16 readable bytes and `loadu` takes
            // any alignment.
            _mm_shuffle_epi8(unsafe { _mm_loadu_si128(block.as_ptr().cast()) }, order)
        };
        let (blocks, tail) = data.as_chunks::<16>();
        let (head, rest) = blocks.split_at(4);
        let mut lanes = [
            _mm_xor_si128(load(&head[0]), seed),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];
        let mut quads = rest.chunks_exact(4);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), far);
            }
        }
        let mut acc = fold(
            fold(fold(lanes[0], lanes[1], near), lanes[2], near),
            lanes[3],
            near,
        );
        for block in quads.remainder() {
            acc = fold(acc, load(block), near);
        }
        let mut folded = [0u8; 16];
        // SAFETY: `folded` is 16 writable bytes and `storeu` takes any
        // alignment.
        unsafe { _mm_storeu_si128(folded.as_mut_ptr().cast(), _mm_shuffle_epi8(acc, order)) };
        (folded, tail)
    }

    /// Folds `data` into a raw reflected CRC-32 state.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSSE3 (the dispatcher checks
    /// at runtime), and `data` must be at least [`MIN_LEN`] bytes long.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) unsafe fn crc32_update(state: u32, data: &[u8]) -> u32 {
        // Reflected, a half's leading bit sits 32 bits further from the
        // end of the message than in natural order: the low half moves
        // by x^(D+32), the high half by x^(D−32).
        const FAR: [i64; 2] = [crc32_key(4 * 128 + 32), crc32_key(4 * 128 - 32)];
        const NEAR: [i64; 2] = [crc32_key(128 + 32), crc32_key(128 - 32)];
        // Reflected, memory order is already the constants' layout, and
        // the register is the first 32 message bits.
        let order = _mm_set_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let seed = _mm_cvtsi32_si128(state.cast_signed());
        let (folded, tail) = fold_message(data, order, seed, FAR, NEAR);
        crc32_sliced(crc32_sliced(0, &folded), tail)
    }

    /// Folds `data` into a CRC-16/CCITT register.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSSE3 (the dispatcher checks
    /// at runtime), and `data` must be at least [`MIN_LEN`] bytes long.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) unsafe fn crc16_update(state: u16, data: &[u8]) -> u16 {
        const FAR: [i64; 2] = [crc16_key(4 * 128), crc16_key(4 * 128 + 64)];
        const NEAR: [i64; 2] = [crc16_key(128), crc16_key(128 + 64)];
        // MSB-first: byte-reverse each block so the first message bit
        // is the vector's top bit, where the register's 16 bits go.
        let order = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let seed = _mm_set_epi64x((u64::from(state) << 48).cast_signed(), 0);
        let (folded, tail) = fold_message(data, order, seed, FAR, NEAR);
        crc16_sliced(crc16_sliced(0, &folded), tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc16_known_vectors() {
        assert_eq!(crc16(b""), 0xFFFF);
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b"A"), 0xB915);
    }

    #[test]
    fn reference_implementations_hit_known_vectors() {
        assert_eq!(crc32_reference(b""), 0x0000_0000);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc16_reference(b""), 0xFFFF);
        assert_eq!(crc16_reference(b"123456789"), 0x29B1);
    }

    #[test]
    fn both_tiers_match_reference_at_every_length_and_alignment() {
        // Every length through 1 KiB covers each remainder of the 4-lane
        // and 16-byte loops many times over; a few longer lengths run
        // the 4-lane loop for longer. Five start offsets vary alignment.
        let data: Vec<u8> = (0..4200).map(|i| (i as u32 * 167 + 41) as u8).collect();
        let lengths = (0..=1024).chain([1500, 2047, 2048, 2049, 4095, 4096]);
        for len in lengths {
            for offset in 0..5 {
                let buf = &data[offset..offset + len];
                let (want32, want16) = (crc32_reference(buf), crc16_reference(buf));
                assert_eq!(crc32(buf), want32, "crc32 len {len} offset {offset}");
                assert_eq!(crc16(buf), want16, "crc16 len {len} offset {offset}");
                assert_eq!(crc32_portable(buf), want32, "portable crc32 len {len}");
                assert_eq!(crc16_portable(buf), want16, "portable crc16 len {len}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn dispatch_takes_the_carry_less_path_where_the_cpu_has_it() {
        // The bench gate's CRC baselines are sliced speeds, so a silent
        // fallback would pass it: pin the dispatch here instead.
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            assert_eq!(tier(), Tier::Clmul);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 500, 935, 936, 999, 1000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let data =
            b"a representative cooked packet payload, long enough that the carry-less tier runs"
                .to_vec();
        let base16 = crc16(&data);
        let base32 = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc16(&corrupted), base16, "crc16 missed flip {byte}:{bit}");
                assert_ne!(crc32(&corrupted), base32, "crc32 missed flip {byte}:{bit}");
            }
        }
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Crc32::default().finish(), Crc32::new().finish());
    }
}
