//! The AVX2 pair-lane kernel of the quantized scan, and the only `unsafe`
//! code of `lt-linalg` (the library's other `unsafe` kernel is
//! `lightlt-core`'s carry-less CRC32).
//!
//! A pair lane holds one byte per item: level `2p`'s id in the low nibble,
//! level `2p + 1`'s in the high one ([`super::Lanes::Pairs`]). Each level's
//! 16 quantized entries fit one 128-bit register, so `_mm256_shuffle_epi8`
//! looks up 32 items' nibbles at once in a table broadcast to both halves
//! of a 256-bit register (Bolt, Blalock & Guttag, KDD 2017). The looked-up
//! bytes are widened to `u16` and added with saturation, exactly as the
//! scalar kernel adds them, so the lanes match it bit for bit.
//!
//! What the unsafe code relies on, and what guarantees it:
//! - the CPU has AVX2: only [`Avx2::detect`] makes an [`Avx2`], and only
//!   when the CPU reports the feature;
//! - the tables hold 32 bytes per lane (low-nibble table, then high), and
//!   every lane holds at least `start + acc.len()` bytes: the safe wrapper
//!   asserts both before it calls the kernel.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256i, _mm256_adds_epu16, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
    _mm256_permute2x128_si256, _mm256_set1_epi16, _mm256_set1_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256, _mm256_unpackhi_epi16,
    _mm256_unpacklo_epi16, _mm_loadu_si128,
};

/// Items per step of the kernel: one 256-bit load of a pair lane.
#[cfg(target_arch = "x86_64")]
const GROUP: usize = 32;

/// Proof that the CPU running this process has AVX2. Only
/// [`Avx2::detect`] makes one, so holding it is what makes the kernel
/// call sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(super) struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// `Some` when the CPU has AVX2. The answer is cached by the standard
    /// library, and scans ask once per call.
    pub(super) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Self(()))
    }

    /// Adds the pair lanes' table entries for items `start..start + len`
    /// into `acc[..len]` with saturating `u16` adds, where `len` is
    /// `acc.len()` rounded down to a multiple of 32, and returns `len`. The
    /// caller finishes the remaining items with the scalar kernel.
    ///
    /// `tables` holds 32 bytes per lane: 16 entries for the low nibble,
    /// then 16 for the high one (all zero past an odd `M`).
    ///
    /// # Panics
    /// Panics if `tables` does not hold 32 bytes per lane or a lane is
    /// shorter than `start + acc.len()`.
    pub(super) fn accumulate_pairs(
        self,
        acc: &mut [u16],
        lanes: &[Vec<u8>],
        start: usize,
        tables: &[u8],
    ) -> usize {
        assert_eq!(tables.len(), 2 * 16 * lanes.len(), "need two 16-entry tables per lane");
        let end = start.checked_add(acc.len()).expect("item range overflows");
        assert!(lanes.iter().all(|lane| lane.len() >= end), "lane shorter than the item range");
        let len = acc.len() / GROUP * GROUP;
        // SAFETY: `self` exists, so the CPU has AVX2 (see `detect`); the
        // asserts above give 32 table bytes per lane and `start +
        // acc.len()` bytes in every lane, which is what `pairs_u16` needs.
        unsafe { pairs_u16(&mut acc[..len], lanes, start, tables) };
        len
    }
}

/// `acc[i] += lo_p[b & 15] + hi_p[b >> 4]` over every pair lane `p`, with
/// `b = lanes[p][start + i]`, saturating in `u16`, for every `i` in
/// `acc`.
///
/// # Safety
/// - The CPU must support AVX2.
/// - `acc.len()` must be a multiple of 32.
/// - Every lane must hold at least `start + acc.len()` bytes.
/// - `tables` must hold 32 bytes per lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pairs_u16(acc: &mut [u16], lanes: &[Vec<u8>], start: usize, tables: &[u8]) {
    let nibble = _mm256_set1_epi8(0x0F);
    let low_byte = _mm256_set1_epi16(0x00FF);
    for (g, out) in acc.chunks_exact_mut(GROUP).enumerate() {
        let at = start + g * GROUP;
        // Items 0, 2, …, 30 of the group in `even`'s u16 slots and 1, 3,
        // …, 31 in `odd`'s, in per-128-bit-half order (see the unpack).
        let mut even = _mm256_setzero_si256();
        let mut odd = _mm256_setzero_si256();
        for (lane, table) in lanes.iter().zip(tables.chunks_exact(32)) {
            // SAFETY: the caller guarantees `start + acc.len()` bytes in
            // every lane, and `at + 32 ≤ start + acc.len()`; each table
            // chunk holds 32 bytes, two 16-byte loads.
            let (codes, lo_t, hi_t) = unsafe {
                (
                    _mm256_loadu_si256(lane.as_ptr().add(at).cast::<__m256i>()),
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast())),
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(16).cast())),
                )
            };
            let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(codes, nibble));
            let hi =
                _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi16(codes, 4), nibble));
            // Two entries of ≤ 255 sum to ≤ 510: exact in u16.
            let pair_even =
                _mm256_adds_epu16(_mm256_and_si256(lo, low_byte), _mm256_and_si256(hi, low_byte));
            let pair_odd = _mm256_adds_epu16(_mm256_srli_epi16(lo, 8), _mm256_srli_epi16(hi, 8));
            even = _mm256_adds_epu16(even, pair_even);
            odd = _mm256_adds_epu16(odd, pair_odd);
        }
        // unpacklo gives items 0..8 | 16..24, unpackhi 8..16 | 24..32;
        // the permutes put them back in item order.
        let a = _mm256_unpacklo_epi16(even, odd);
        let b = _mm256_unpackhi_epi16(even, odd);
        let first = _mm256_permute2x128_si256::<0x20>(a, b);
        let second = _mm256_permute2x128_si256::<0x31>(a, b);
        let dst = out.as_mut_ptr().cast::<__m256i>();
        // SAFETY: `out` is one 32-item chunk of `acc`: 64 bytes, two
        // unaligned 32-byte loads and stores.
        unsafe {
            _mm256_storeu_si256(dst, _mm256_adds_epu16(_mm256_loadu_si256(dst), first));
            let dst = dst.add(1);
            _mm256_storeu_si256(dst, _mm256_adds_epu16(_mm256_loadu_si256(dst), second));
        }
    }
}

/// No SIMD kernel off x86-64: this type has no values, so `detect` is
/// always `None` and the scalar kernel runs.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(super) enum Avx2 {}

#[cfg(not(target_arch = "x86_64"))]
impl Avx2 {
    pub(super) fn detect() -> Option<Self> {
        None
    }

    pub(super) fn accumulate_pairs(
        self,
        _: &mut [u16],
        _: &[Vec<u8>],
        _: usize,
        _: &[u8],
    ) -> usize {
        match self {}
    }
}
