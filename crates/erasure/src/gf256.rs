//! Arithmetic over the finite field GF(2⁸).
//!
//! All information-dispersal operations run over GF(2⁸) with the
//! primitive polynomial `x⁸ + x⁴ + x³ + x² + 1` (`0x11d`), the same field
//! used by Reed–Solomon codes. Multiplication and division are
//! table-driven: discrete logarithm and exponential tables are computed
//! at compile time from the generator element `2`.
//!
//! [`Gf256`] is a transparent newtype over `u8`; addition is XOR, so the
//! field has characteristic 2 and every element is its own additive
//! inverse.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The reduction polynomial `x⁸ + x⁴ + x³ + x² + 1` (high bit implied).
pub const POLY: u16 = 0x11d;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Duplicate the cycle so `exp[log a + log b]` never needs a modulo.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();

/// `EXP[i] = g^i` for the generator `g = 2`, doubled to length 512.
pub(crate) const EXP: [u8; 512] = TABLES.0;

/// `LOG[a] = log_g a` for `a != 0`; `LOG[0]` is unused and zero.
pub(crate) const LOG: [u8; 256] = TABLES.1;

const fn const_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

// Const-evaluated only (it feeds the split-table statics); the 64 KiB
// scratch array never lives on a runtime stack.
#[allow(clippy::large_stack_arrays)]
const fn build_mul_rows() -> [[u8; 256]; 256] {
    let mut rows = [[0u8; 256]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 256 {
            rows[c][x] = const_mul(c as u8, x as u8);
            x += 1;
        }
        c += 1;
    }
    rows
}

const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut n = 0;
        while n < 16 {
            lo[c][n] = const_mul(c as u8, n as u8);
            hi[c][n] = const_mul(c as u8, (n << 4) as u8);
            n += 1;
        }
        c += 1;
    }
    (lo, hi)
}

/// `MUL[c][x] = c·x`: one dense 256-byte product row per coefficient.
///
/// A row fits in four cache lines, so the portable [`mul_acc`] path is a
/// single branch-free table lookup per byte instead of the
/// zero-test + log + add + exp chain of the scalar reference.
pub(crate) static MUL: [[u8; 256]; 256] = build_mul_rows();

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();

/// `MUL_LO[c][n] = c·n` for low nibbles `n < 16`.
///
/// Together with [`MUL_HI`] this is the classic split-table formulation
/// (ISA-L / vectorized Reed–Solomon): since GF(2⁸) multiplication is
/// linear over XOR, `c·x = c·(x & 0x0f) ⊕ c·(x & 0xf0)`, and each
/// 16-entry half-table fits exactly in one SIMD register lane group for
/// byte-shuffle lookups.
pub(crate) const MUL_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;

/// `MUL_HI[c][n] = c·(n << 4)` for high nibbles `n < 16`.
pub(crate) const MUL_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

/// Packs multiplication by `c` as an 8×8 GF(2) bit matrix in the qword
/// layout `GF2P8AFFINEQB` expects.
///
/// Multiplication by a constant is GF(2)-linear on the bits of `x`:
/// `bit_i(c·x) = ⊕_k M[i][k]·bit_k(x)` with `M[i][k] = bit_i(c·2ᵏ)`.
/// The instruction computes `dst.bit[i] = parity(A.byte[7−i] & x)`, so
/// row `i` of `M` (as a bit mask over `k`) lands in byte `7−i` of the
/// qword.
const fn gfni_matrix(c: u8) -> u64 {
    let mut m: u64 = 0;
    let mut i = 0;
    while i < 8 {
        let mut row: u64 = 0;
        let mut k = 0;
        while k < 8 {
            if (const_mul(c, 1 << k) >> i) & 1 != 0 {
                row |= 1 << k;
            }
            k += 1;
        }
        m |= row << (8 * (7 - i));
        i += 1;
    }
    m
}

const fn build_gfni_table() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        t[c] = gfni_matrix(c as u8);
        c += 1;
    }
    t
}

/// `GFNI_AFFINE[c]` = the affine-transform qword computing `x ↦ c·x`.
///
/// `gf2p8mulb` itself is useless here — it is hardwired to the AES
/// polynomial `0x11b`, not this codec's `0x11d` — but `gf2p8affineqb`
/// applies an *arbitrary* 8×8 bit matrix per byte, and multiplication
/// by a constant in any GF(2⁸) representation is such a matrix. One
/// broadcast of this qword replaces both nibble-table shuffles.
pub(crate) const GFNI_AFFINE: [u64; 256] = build_gfni_table();

/// An element of GF(2⁸).
///
/// # Example
///
/// ```
/// use mrtweb_erasure::gf256::Gf256;
///
/// let a = Gf256::new(0x53);
/// let b = Gf256::new(0xca);
/// assert_eq!((a * b) / b, a);
/// assert_eq!(a + a, Gf256::ZERO); // characteristic 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator element used for the log/exp tables.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// Returns the underlying byte.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The generator raised to the power `i` (taken mod 255).
    #[inline]
    pub fn exp(i: usize) -> Self {
        Gf256(EXP[i % 255])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero, which has no inverse.
    #[inline]
    pub fn inverse(self) -> Self {
        assert!(
            !self.is_zero(),
            "zero has no multiplicative inverse in GF(256)"
        );
        Gf256(EXP[255 - LOG[self.0 as usize] as usize])
    }

    /// Raises `self` to the power `n`.
    ///
    /// `pow(0)` is [`Gf256::ONE`] for every element, including zero, which
    /// matches the empty-product convention used by Vandermonde matrices.
    pub fn pow(self, n: usize) -> Self {
        if n == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let e = (LOG[self.0 as usize] as usize * n) % 255;
        Gf256(EXP[e])
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    fn from(v: Gf256) -> Self {
        v.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // Addition in GF(2^8) *is* XOR; clippy's suspicion is unwarranted here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Subtraction coincides with addition in characteristic 2.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        Gf256(EXP[LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        assert!(!rhs.is_zero(), "division by zero in GF(256)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        Gf256(EXP[255 + LOG[self.0 as usize] as usize - LOG[rhs.0 as usize] as usize])
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

/// Multiplies `src` by the scalar `c` and XOR-accumulates into `dst`.
///
/// This is the inner loop of both encoding and decoding:
/// `dst[i] += c * src[i]` over GF(2⁸). Slices must have equal length.
///
/// Dispatches at runtime to the widest kernel this CPU runs, the first
/// of [`detected_tiers`] ([`Tier`] names each): GFNI affine kernels on
/// 512-bit or 256-bit vectors, AVX2 or SSSE3 byte shuffles over split
/// nibble tables, or, on any CPU, a branch-free lookup into a dense
/// product row. The original log/exp formulation survives as
/// [`mul_acc_scalar`], the reference the property tests and benchmarks
/// compare against.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
#[inline]
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_acc requires equal-length slices");
    if c.is_zero() {
        return;
    }
    if c == Gf256::ONE {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    kernel::<true>(dst, src, c.0);
}

/// Multiplies `src` by the scalar `c`, overwriting `dst` (`dst[i] = c·src[i]`).
///
/// The overwrite twin of [`mul_acc`]: row reconstructions start with
/// `mul_row` for the first term instead of zero-filling the output and
/// accumulating into it, saving one full pass over the buffer.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
#[inline]
pub fn mul_row(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_row requires equal-length slices");
    if c.is_zero() {
        dst.fill(0);
        return;
    }
    if c == Gf256::ONE {
        dst.copy_from_slice(src);
        return;
    }
    kernel::<false>(dst, src, c.0);
}

/// Scalar log/exp reference for `dst[i] ^= c·src[i]`.
///
/// This is the seed implementation, kept as the correctness oracle for
/// the table kernels and as the benchmark baseline. Not used on any hot
/// path.
#[inline]
pub fn mul_acc_scalar(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_acc requires equal-length slices");
    if c.is_zero() {
        return;
    }
    if c == Gf256::ONE {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let lc = LOG[c.0 as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[lc + LOG[*s as usize] as usize];
        }
    }
}

/// SIMD dispatch tiers for the bulk GF(2⁸) kernels, widest first.
///
/// [`mul_acc`]/[`mul_row`] pick the widest detected tier automatically;
/// the per-tier entry points ([`mul_acc_with_tier`]/[`mul_row_with_tier`])
/// exist so equivalence tests can pin each kernel against the scalar
/// oracle on whatever hardware the suite happens to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `gf2p8affineqb` on 64-byte ZMM vectors (GFNI + AVX-512F).
    Gfni512,
    /// `gf2p8affineqb` on 32-byte YMM vectors (GFNI + AVX2).
    Gfni256,
    /// `vpshufb` split-nibble tables on 32-byte vectors.
    Avx2,
    /// `pshufb` split-nibble tables on 16-byte vectors.
    Ssse3,
    /// Dense-row table lookups; always available.
    Portable,
}

/// Tiers usable on this CPU, widest first; [`Tier::Portable`] is always
/// present and always last.
pub fn detected_tiers() -> Vec<Tier> {
    let mut tiers = Vec::with_capacity(5);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("gfni") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Gfni512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Gfni256);
            }
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Tier::Avx2);
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            tiers.push(Tier::Ssse3);
        }
    }
    tiers.push(Tier::Portable);
    tiers
}

/// `dst[i] ^= c·src[i]` through one specific dispatch tier.
///
/// # Panics
///
/// Panics if the slices differ in length or `tier` is not in
/// [`detected_tiers`] on this CPU.
pub fn mul_acc_with_tier(tier: Tier, dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_acc requires equal-length slices");
    kernel_at_tier::<true>(tier, dst, src, c.0);
}

/// `dst[i] = c·src[i]` through one specific dispatch tier.
///
/// # Panics
///
/// Panics if the slices differ in length or `tier` is not in
/// [`detected_tiers`] on this CPU.
pub fn mul_row_with_tier(tier: Tier, dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_row requires equal-length slices");
    kernel_at_tier::<false>(tier, dst, src, c.0);
}

fn kernel_at_tier<const ACC: bool>(tier: Tier, dst: &mut [u8], src: &[u8], c: u8) {
    assert!(
        detected_tiers().contains(&tier),
        "tier {tier:?} not supported on this CPU"
    );
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above verified the tier's CPU features at
        // runtime; every kernel bounds its accesses to
        // min(dst.len(), src.len()).
        Tier::Gfni512 => unsafe { simd::mul_gfni512::<ACC>(dst, src, c) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — tier membership implies GFNI + AVX2.
        Tier::Gfni256 => unsafe { simd::mul_gfni256::<ACC>(dst, src, c) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — tier membership implies AVX2.
        Tier::Avx2 => unsafe { simd::mul_avx2::<ACC>(dst, src, c) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — tier membership implies SSSE3.
        Tier::Ssse3 => unsafe { simd::mul_ssse3::<ACC>(dst, src, c) },
        _ => mul_portable::<ACC>(dst, src, c),
    }
}

/// Shared dispatch for [`mul_acc`] (`ACC = true`) and [`mul_row`]
/// (`ACC = false`) once the `c ∈ {0, 1}` fast paths are handled.
#[inline]
fn kernel<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("gfni") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: GFNI + AVX-512F support was just verified at
                // runtime; the kernel bounds all accesses to
                // min(dst.len(), src.len()).
                unsafe { simd::mul_gfni512::<ACC>(dst, src, c) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: GFNI + AVX2 support was just verified at
                // runtime; the kernel bounds all accesses to
                // min(dst.len(), src.len()).
                unsafe { simd::mul_gfni256::<ACC>(dst, src, c) };
                return;
            }
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime; the
            // kernel bounds all accesses to min(dst.len(), src.len()).
            unsafe { simd::mul_avx2::<ACC>(dst, src, c) };
            return;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 support was just verified at runtime; the
            // kernel bounds all accesses to min(dst.len(), src.len()).
            unsafe { simd::mul_ssse3::<ACC>(dst, src, c) };
            return;
        }
    }
    mul_portable::<ACC>(dst, src, c);
}

/// Branch-free fallback: one dense-row lookup per byte, walked in
/// 64-byte blocks so the compiler can unroll the inner loop.
fn mul_portable<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    let mut d_blocks = dst.chunks_exact_mut(64);
    let mut s_blocks = src.chunks_exact(64);
    for (db, sb) in d_blocks.by_ref().zip(s_blocks.by_ref()) {
        for i in 0..64 {
            if ACC {
                db[i] ^= row[sb[i] as usize];
            } else {
                db[i] = row[sb[i] as usize];
            }
        }
    }
    for (d, s) in d_blocks
        .into_remainder()
        .iter_mut()
        .zip(s_blocks.remainder())
    {
        if ACC {
            *d ^= row[*s as usize];
        } else {
            *d = row[*s as usize];
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! x86-64 byte-shuffle kernels over the split nibble tables.
    //!
    //! `pshufb`/`vpshufb` performs sixteen parallel 4-bit table lookups
    //! per 128-bit lane, so with the 16-entry half-tables for a
    //! coefficient `c` loaded into two registers, a whole vector of
    //! products is `shuffle(LO, x & 0x0f) ⊕ shuffle(HI, x >> 4)`.
    // The `loadu`/`storeu` intrinsics are specified for arbitrarily
    // aligned pointers; the casts below change only the pointee type
    // and never assume alignment.
    #![allow(clippy::cast_ptr_alignment)]

    use super::{GFNI_AFFINE, MUL_HI, MUL_LO};

    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_gf2p8affine_epi64_epi8, _mm256_loadu_si256, _mm256_set1_epi64x, _mm256_set1_epi8,
        _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
        _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512, _mm512_set1_epi64, _mm512_storeu_si512,
        _mm512_xor_si512, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8,
        _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    /// GFNI + AVX-512 kernel: 64 bytes per step.
    ///
    /// One `vgf2p8affineqb` against the broadcast [`GFNI_AFFINE`] qword
    /// multiplies 64 bytes by `c` — the 8×8 bit matrix encodes the
    /// `0x11d` field, sidestepping `gf2p8mulb`'s hardwired `0x11b`.
    ///
    /// # Safety
    ///
    /// Caller must ensure GFNI and AVX-512F are available (checked at
    /// runtime by the dispatcher). Length mismatches are tolerated: the
    /// kernel only touches the first `min(dst.len(), src.len())` bytes,
    /// exactly like the scalar path's zip.
    #[target_feature(enable = "gfni,avx512f")]
    pub(super) unsafe fn mul_gfni512<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        let mat = _mm512_set1_epi64(GFNI_AFFINE[c as usize].cast_signed());
        let len = dst.len().min(src.len());
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + 64 <= len {
            // SAFETY: `i + 64 <= len <= dst.len(), src.len()`, so the
            // 64-byte unaligned loads and store at offset `i` stay in
            // bounds of the live `dst`/`src` borrows; `dp`/`sp` are
            // derived from those borrows and unaligned access is what
            // the *_loadu_*/*_storeu_* intrinsics are specified for.
            unsafe {
                let x = _mm512_loadu_si512(sp.add(i).cast::<__m512i>());
                let mut prod = _mm512_gf2p8affine_epi64_epi8::<0>(x, mat);
                if ACC {
                    let d = _mm512_loadu_si512(dp.add(i).cast::<__m512i>());
                    prod = _mm512_xor_si512(prod, d);
                }
                _mm512_storeu_si512(dp.add(i).cast::<__m512i>(), prod);
            }
            i += 64;
        }
        super::mul_portable::<ACC>(&mut dst[i..], &src[i..], c);
    }

    /// GFNI (VEX-encoded) + AVX2 kernel: 32 bytes per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure GFNI and AVX2 are available (checked at
    /// runtime by the dispatcher). Length mismatches are tolerated: the
    /// kernel only touches the first `min(dst.len(), src.len())` bytes,
    /// exactly like the scalar path's zip.
    #[target_feature(enable = "gfni,avx2")]
    pub(super) unsafe fn mul_gfni256<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        let mat = _mm256_set1_epi64x(GFNI_AFFINE[c as usize].cast_signed());
        let len = dst.len().min(src.len());
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + 32 <= len {
            // SAFETY: `i + 32 <= len <= dst.len(), src.len()`, so the
            // 32-byte unaligned loads and store at offset `i` stay in
            // bounds of the live `dst`/`src` borrows; `dp`/`sp` are
            // derived from those borrows and unaligned access is what
            // the *_loadu_*/*_storeu_* intrinsics are specified for.
            unsafe {
                let x = _mm256_loadu_si256(sp.add(i).cast::<__m256i>());
                let mut prod = _mm256_gf2p8affine_epi64_epi8::<0>(x, mat);
                if ACC {
                    let d = _mm256_loadu_si256(dp.add(i).cast::<__m256i>());
                    prod = _mm256_xor_si256(prod, d);
                }
                _mm256_storeu_si256(dp.add(i).cast::<__m256i>(), prod);
            }
            i += 32;
        }
        super::mul_portable::<ACC>(&mut dst[i..], &src[i..], c);
    }

    /// AVX2 kernel: 32 bytes per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available (checked at runtime by the
    /// dispatcher). Length mismatches are tolerated: the kernel only
    /// touches the first `min(dst.len(), src.len())` bytes, exactly
    /// like the scalar path's zip.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: MUL_LO/MUL_HI rows are [u8; 16], so each row supports
        // exactly one 128-bit unaligned load.
        let (lo128, hi128) = unsafe {
            (
                _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast::<__m128i>()),
                _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast::<__m128i>()),
            )
        };
        // vpshufb indexes within each 128-bit lane, so the half-tables
        // are replicated into both lanes.
        let lo_tbl = _mm256_broadcastsi128_si256(lo128);
        let hi_tbl = _mm256_broadcastsi128_si256(hi128);
        let mask = _mm256_set1_epi8(0x0f);

        let len = dst.len().min(src.len());
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + 32 <= len {
            // SAFETY: `i + 32 <= len <= dst.len(), src.len()`, so the
            // 32-byte unaligned loads and store at offset `i` stay in
            // bounds of the live `dst`/`src` borrows; `dp`/`sp` are
            // derived from those borrows and unaligned access is what
            // the *_loadu_*/*_storeu_* intrinsics are specified for.
            unsafe {
                let x = _mm256_loadu_si256(sp.add(i).cast::<__m256i>());
                let lo_idx = _mm256_and_si256(x, mask);
                let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
                let mut prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo_idx),
                    _mm256_shuffle_epi8(hi_tbl, hi_idx),
                );
                if ACC {
                    let d = _mm256_loadu_si256(dp.add(i) as *const __m256i);
                    prod = _mm256_xor_si256(prod, d);
                }
                _mm256_storeu_si256(dp.add(i).cast::<__m256i>(), prod);
            }
            i += 32;
        }
        super::mul_portable::<ACC>(&mut dst[i..], &src[i..], c);
    }

    /// SSSE3 kernel: 16 bytes per step.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSSE3 is available (checked at runtime by
    /// the dispatcher). Length mismatches are tolerated: the kernel
    /// only touches the first `min(dst.len(), src.len())` bytes,
    /// exactly like the scalar path's zip.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: MUL_LO/MUL_HI rows are [u8; 16], so each row supports
        // exactly one 128-bit unaligned load.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast::<__m128i>()),
                _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast::<__m128i>()),
            )
        };
        let mask = _mm_set1_epi8(0x0f);

        let len = dst.len().min(src.len());
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len <= dst.len(), src.len()`, so the
            // 16-byte unaligned loads and store at offset `i` stay in
            // bounds of the live `dst`/`src` borrows; `dp`/`sp` are
            // derived from those borrows and unaligned access is what
            // the *_loadu_*/*_storeu_* intrinsics are specified for.
            unsafe {
                let x = _mm_loadu_si128(sp.add(i).cast::<__m128i>());
                let lo_idx = _mm_and_si128(x, mask);
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
                let mut prod = _mm_xor_si128(
                    _mm_shuffle_epi8(lo_tbl, lo_idx),
                    _mm_shuffle_epi8(hi_tbl, hi_idx),
                );
                if ACC {
                    let d = _mm_loadu_si128(dp.add(i) as *const __m128i);
                    prod = _mm_xor_si128(prod, d);
                }
                _mm_storeu_si128(dp.add(i).cast::<__m128i>(), prod);
            }
            i += 16;
        }
        super::mul_portable::<ACC>(&mut dst[i..], &src[i..], c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = Gf256> {
        (0u16..256).map(|v| Gf256(v as u8))
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in all() {
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(-a, a);
            assert_eq!(a - a, Gf256::ZERO);
        }
    }

    #[test]
    fn multiplicative_identity_and_zero() {
        for a in all() {
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn inverse_round_trips() {
        for a in all().skip(1) {
            assert_eq!(a * a.inverse(), Gf256::ONE, "inverse failed for {a}");
            assert_eq!(a / a, Gf256::ONE);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative_spot() {
        // Full O(n^3) associativity is expensive; check a dense sample.
        for a in all().step_by(7) {
            for b in all().step_by(11) {
                assert_eq!(a * b, b * a);
                for c in all().step_by(31) {
                    assert_eq!((a * b) * c, a * (b * c));
                }
            }
        }
    }

    #[test]
    fn distributivity_spot() {
        for a in all().step_by(5) {
            for b in all().step_by(13) {
                for c in all().step_by(17) {
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(!seen[x.0 as usize], "generator order < 255");
            seen[x.0 as usize] = true;
            x *= Gf256::GENERATOR;
        }
        assert_eq!(x, Gf256::ONE, "generator order != 255");
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in all().step_by(3) {
            let mut acc = Gf256::ONE;
            for n in 0..20 {
                assert_eq!(a.pow(n), acc, "pow mismatch for {a}^{n}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    #[test]
    fn exp_wraps_modulo_255() {
        assert_eq!(Gf256::exp(0), Gf256::ONE);
        assert_eq!(Gf256::exp(255), Gf256::ONE);
        assert_eq!(Gf256::exp(256), Gf256::GENERATOR);
    }

    #[test]
    fn mul_acc_matches_scalar_loop() {
        let src: Vec<u8> = (0..64).map(|i| (i * 37 + 11) as u8).collect();
        for c in [0u8, 1, 2, 0x1d, 0xff] {
            let mut dst = vec![0xa5u8; 64];
            let mut expect = dst.clone();
            for (e, s) in expect.iter_mut().zip(&src) {
                *e ^= (Gf256(c) * Gf256(*s)).0;
            }
            mul_acc(&mut dst, &src, Gf256(c));
            assert_eq!(dst, expect, "mul_acc mismatch for c={c}");
        }
    }

    #[test]
    fn mul_tables_match_field_multiplication() {
        for c in all() {
            for x in all() {
                let expect = (c * x).0;
                assert_eq!(MUL[c.0 as usize][x.0 as usize], expect);
                let split = MUL_LO[c.0 as usize][(x.0 & 0x0f) as usize]
                    ^ MUL_HI[c.0 as usize][(x.0 >> 4) as usize];
                assert_eq!(split, expect, "split tables wrong at c={c} x={x}");
            }
        }
    }

    /// Lengths straddling every kernel boundary: sub-16-byte tails,
    /// 16/32-byte SIMD steps, and the 64-byte portable block.
    const KERNEL_LENGTHS: [usize; 9] = [0, 1, 15, 16, 31, 33, 64, 100, 257];

    fn pseudo_bytes(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn mul_acc_matches_scalar_for_all_coefficients() {
        for len in KERNEL_LENGTHS {
            let src = pseudo_bytes(len, 17);
            let init = pseudo_bytes(len, 91);
            for c in all() {
                let mut fast = init.clone();
                let mut reference = init.clone();
                mul_acc(&mut fast, &src, c);
                mul_acc_scalar(&mut reference, &src, c);
                assert_eq!(fast, reference, "mul_acc mismatch at c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_row_matches_scalar_for_all_coefficients() {
        for len in KERNEL_LENGTHS {
            let src = pseudo_bytes(len, 54);
            for c in all() {
                let mut fast = pseudo_bytes(len, 200);
                let mut reference = vec![0u8; len];
                mul_acc_scalar(&mut reference, &src, c);
                mul_row(&mut fast, &src, c);
                assert_eq!(fast, reference, "mul_row mismatch at c={c} len={len}");
            }
        }
    }

    /// The affine qwords must encode exactly the multiplication tables:
    /// applying the bit matrix in scalar mirrors what `gf2p8affineqb`
    /// does per byte, independent of whether the CPU has GFNI.
    #[test]
    fn gfni_affine_matrices_encode_multiplication() {
        fn apply(mat: u64, x: u8) -> u8 {
            let mut out = 0u8;
            for i in 0..8 {
                let row = (mat >> (8 * (7 - i))) as u8;
                out |= (((row & x).count_ones() & 1) as u8) << i;
            }
            out
        }
        for c in all() {
            let mat = GFNI_AFFINE[c.0 as usize];
            for x in all() {
                assert_eq!(
                    apply(mat, x.0),
                    (c * x).0,
                    "affine matrix wrong at c={c} x={x}"
                );
            }
        }
    }

    #[test]
    fn every_detected_tier_matches_scalar() {
        let tiers = detected_tiers();
        assert_eq!(tiers.last(), Some(&Tier::Portable));
        for tier in tiers {
            for len in KERNEL_LENGTHS {
                let src = pseudo_bytes(len, 33);
                let init = pseudo_bytes(len, 77);
                for c in [Gf256(0), Gf256(1), Gf256(2), Gf256(0x1d), Gf256(0xff)] {
                    let mut acc = init.clone();
                    let mut acc_ref = init.clone();
                    mul_acc_with_tier(tier, &mut acc, &src, c);
                    mul_acc_scalar(&mut acc_ref, &src, c);
                    assert_eq!(acc, acc_ref, "acc mismatch tier={tier:?} c={c} len={len}");

                    let mut row = init.clone();
                    let mut row_ref = vec![0u8; len];
                    mul_row_with_tier(tier, &mut row, &src, c);
                    mul_acc_scalar(&mut row_ref, &src, c);
                    assert_eq!(row, row_ref, "row mismatch tier={tier:?} c={c} len={len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let _ = Gf256::ZERO.inverse();
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }
}
