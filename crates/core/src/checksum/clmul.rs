//! The carry-less-multiply CRC32 kernel, and the only `unsafe` code of
//! `lightlt-core`.
//!
//! CRC32 is the remainder of the message polynomial modulo `P`, so a
//! 128-bit block `x` that sits `t` bits ahead of the rest of the message
//! contributes what `x · (x^t mod P)` contributes: folding replaces a block
//! by two 64×64-bit carry-less products (`PCLMULQDQ`) with precomputed
//! powers of `x` and xors them into the block `t` bits further on (Gopal
//! et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction", Intel 2009). The kernel keeps four 128-bit lanes, so
//! each 64-byte step folds every lane 512 bits forward; it then folds the
//! four lanes into one, that lane to 64 bits, and Barrett-reduces the
//! rest to the 32-bit state. Every constant is derived from the
//! polynomial at compile time ([`fold_constant`], [`barrett_quotient`]).
//!
//! What the unsafe code relies on, and what guarantees it:
//! - the CPU has PCLMULQDQ (SSE2 is part of x86-64): only
//!   [`Clmul::detect`] makes a [`Clmul`], and only when the CPU reports
//!   the feature;
//! - every load reads one 16-byte block through a `&[u8; 16]`, so no read
//!   leaves the input.

// Off x86-64 only the tests read the constants.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use super::POLY;

/// Bytes of one folding step: four 128-bit lanes. The kernel takes no
/// shorter input.
pub(super) const MIN_LEN: usize = 64;

/// `x^n mod P` as a 32-bit remainder, bit `i` the coefficient of `x^i`
/// (the unreflected order), by shifting one bit at a time.
const fn x_pow_mod(n: u32) -> u32 {
    let p = POLY.reverse_bits();
    let mut r = 1u32;
    let mut i = 0;
    while i < n {
        r = if r & 0x8000_0000 != 0 { (r << 1) ^ p } else { r << 1 };
        i += 1;
    }
    r
}

/// The multiplier that moves a 64-bit half of a lane `n - 32` bits
/// forward in the reflected domain: `x^n mod P`, bit-reflected, shifted
/// left once because a reflected 64×64 product lands one bit low.
const fn fold_constant(n: u32) -> u64 {
    (x_pow_mod(n).reverse_bits() as u64) << 1
}

/// `⌊x^64 / P⌋`, the 33-bit Barrett quotient, bit-reflected.
const fn barrett_quotient() -> u64 {
    let p = (1u128 << 32) | POLY.reverse_bits() as u128;
    let mut rem = 1u128 << 64;
    let mut q = 0u64;
    let mut bit = 64;
    while bit >= 32 {
        if rem & (1 << bit) != 0 {
            rem ^= p << (bit - 32);
            q |= 1 << (bit - 32);
        }
        bit -= 1;
    }
    q.reverse_bits() >> 31
}

/// Folds a lane 512 bits forward, to the same lane of the next 64-byte
/// step: low half, then high half.
const K1_K2: (u64, u64) = (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32));
/// Folds a lane 128 bits forward, onto the next lane.
const K3_K4: (u64, u64) = (fold_constant(128 + 32), fold_constant(128 - 32));
/// Folds the low 32 of the last 96 bits past the top 64.
const K5: u64 = fold_constant(64);
/// `P` with its `x^32` term, and the Barrett quotient, both reflected.
const P_MU: (u64, u64) = (((POLY as u64) << 1) | 1, barrett_quotient());

#[cfg(target_arch = "x86_64")]
pub(super) use x86::Clmul;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{K1_K2, K3_K4, K5, MIN_LEN, P_MU};

    /// Proof that the CPU running this process has PCLMULQDQ. Only
    /// [`Clmul::detect`] makes one, so holding it is what makes the kernel
    /// call sound.
    #[derive(Debug, Clone, Copy)]
    pub(in crate::checksum) struct Clmul(());

    impl Clmul {
        /// `Some` when the CPU has PCLMULQDQ. The answer is cached by the
        /// standard library.
        pub(in crate::checksum) fn detect() -> Option<Self> {
            is_x86_feature_detected!("pclmulqdq").then_some(Self(()))
        }

        /// Advances the raw CRC `state` over the longest prefix of `bytes`
        /// that is a whole number of 16-byte blocks, and returns the new
        /// state with the rest (fewer than 16 bytes) for the caller to
        /// finish.
        ///
        /// # Panics
        /// Panics if `bytes` is shorter than [`MIN_LEN`].
        pub(in crate::checksum) fn update(self, state: u32, bytes: &[u8]) -> (u32, &[u8]) {
            assert!(bytes.len() >= MIN_LEN, "the fold needs at least {MIN_LEN} bytes");
            let (blocks, rest) = bytes.split_at(bytes.len() / 16 * 16);
            // SAFETY: `self` exists, so the CPU has PCLMULQDQ (see
            // `detect`), the one condition of `fold`.
            (unsafe { fold(state, blocks) }, rest)
        }
    }

    /// One 16-byte block as a lane.
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes and the load is unaligned;
        // SSE2 is part of x86-64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` folded forward by the pair of multipliers in `k` (low half ×
    /// `k.0`, high half × `k.1`), xored into `next`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The raw CRC state after `bytes`, from `state`. `bytes` must be a
    /// whole number of 16-byte blocks: a shorter last block is ignored.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than [`MIN_LEN`].
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(state: u32, bytes: &[u8]) -> u32 {
        let pair = |(lo, hi): (u64, u64)| _mm_set_epi64x(hi as i64, lo as i64);
        let (first, body) = bytes.split_at(MIN_LEN);
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k1_k2 = pair(K1_K2);
        let mut steps = body.chunks_exact(MIN_LEN);
        for step in &mut steps {
            for (lane, block) in lanes.iter_mut().zip(step.chunks_exact(16)) {
                *lane = fold_into(*lane, k1_k2, load(block));
            }
        }

        let k3_k4 = pair(K3_K4);
        let [a, b, c, d] = lanes;
        let mut x = fold_into(fold_into(fold_into(a, k3_k4, b), k3_k4, c), k3_k4, d);
        for block in steps.remainder().chunks_exact(16) {
            x = fold_into(x, k3_k4, load(block));
        }

        // 128 → 64 bits: the low half moves 64 bits forward onto the high
        // one; then the low 32 of the 96 that remain move 64 bits forward.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3_k4));
        let k5 = pair((K5, 0));
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
        );

        // Barrett reduction of the 64 bits left: t is the low 32 bits of
        // (low 32 bits of x) · μ, and x ⊕ t · P leaves the remainder in
        // bits 32..64.
        let p_mu = pair(P_MU);
        let t = _mm_and_si128(_mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu), low32);
        x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(t, p_mu));
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(x)) as u32
    }
}

/// No carry-less kernel off x86-64: this type has no values, so `detect`
/// is always `None` and slice-by-8 runs.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(super) enum Clmul {}

#[cfg(not(target_arch = "x86_64"))]
impl Clmul {
    pub(super) fn detect() -> Option<Self> {
        None
    }

    pub(super) fn update(self, _: u32, _: &[u8]) -> (u32, &[u8]) {
        match self {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_published_values() {
        // The reflected-domain constants as printed in Intel's paper and
        // used by zlib and Linux: an independent check of the derivation.
        assert_eq!(K1_K2, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(K3_K4, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(K5, 0x1_63CD_6124);
        assert_eq!(P_MU, (0x1_DB71_0641, 0x1_F701_1641));
    }
}
