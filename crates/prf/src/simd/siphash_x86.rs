//! AVX2 4-state SipHash-2-4 sweeps.
//!
//! The scalar batched paths already interleave four independent SipHash
//! states (two inputs × the low/high output-half keys) to expose ILP; the
//! vector path packs those same four states into the four 64-bit lanes of
//! one set of `__m256i` registers — lane layout `[input0·low-key,
//! input0·high-key, input1·low-key, input1·high-key]` — and runs one
//! `SipRound` per vector instruction group instead of four scalar chains.
//! The message word differs per lane (inputs differ, keys don't), so each
//! absorbed word is a `[m0, m0, m1, m1]` vector.
//!
//! Rotations by 32 use a lane shuffle, 16 a byte shuffle, the rest shift+or.
//! Adds, XORs and rotations act lane-wise, so every lane computes exactly
//! the scalar `sip_round` sequence.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_or_si256, _mm256_set1_epi64x, _mm256_setr_epi64x,
    _mm256_setr_epi8, _mm256_shuffle_epi32, _mm256_shuffle_epi8, _mm256_slli_epi64,
    _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
};

use pir_field::Block128;

/// One vectorized SipHash state: `v0..v3` for four independent instances.
#[derive(Clone, Copy)]
struct SipVec {
    v0: __m256i,
    v1: __m256i,
    v2: __m256i,
    v3: __m256i,
}

/// The padded final message word of the PRF's fixed 24-byte message shape.
const SIP_FINAL_WORD_24: u64 = 24u64 << 56;

#[inline]
#[target_feature(enable = "avx2")]
fn rotl32(x: __m256i) -> __m256i {
    // Swap the 32-bit halves of each 64-bit lane.
    _mm256_shuffle_epi32::<0b10_11_00_01>(x)
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl16(x: __m256i) -> __m256i {
    // Per-u64 left rotation by 16 = byte rotation by 2 within each lane.
    let mask = _mm256_setr_epi8(
        6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13, //
        6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
    );
    _mm256_shuffle_epi8(x, mask)
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl13(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi64::<13>(x), _mm256_srli_epi64::<51>(x))
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl17(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi64::<17>(x), _mm256_srli_epi64::<47>(x))
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl21(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi64::<21>(x), _mm256_srli_epi64::<43>(x))
}

#[inline]
#[target_feature(enable = "avx2")]
fn sip_round(s: &mut SipVec) {
    s.v0 = _mm256_add_epi64(s.v0, s.v1);
    s.v1 = rotl13(s.v1);
    s.v1 = _mm256_xor_si256(s.v1, s.v0);
    s.v0 = rotl32(s.v0);
    s.v2 = _mm256_add_epi64(s.v2, s.v3);
    s.v3 = rotl16(s.v3);
    s.v3 = _mm256_xor_si256(s.v3, s.v2);
    s.v0 = _mm256_add_epi64(s.v0, s.v3);
    s.v3 = rotl21(s.v3);
    s.v3 = _mm256_xor_si256(s.v3, s.v0);
    s.v2 = _mm256_add_epi64(s.v2, s.v1);
    s.v1 = rotl17(s.v1);
    s.v1 = _mm256_xor_si256(s.v1, s.v2);
    s.v2 = rotl32(s.v2);
}

/// Absorb one message word: `v3 ^= m; 2×SipRound; v0 ^= m`.
#[inline]
#[target_feature(enable = "avx2")]
fn absorb(s: &mut SipVec, m: __m256i) {
    s.v3 = _mm256_xor_si256(s.v3, m);
    sip_round(s);
    sip_round(s);
    s.v0 = _mm256_xor_si256(s.v0, m);
}

/// Finalize: `v2 ^= 0xff; 4×SipRound; v0 ^ v1 ^ v2 ^ v3` per lane.
#[inline]
#[target_feature(enable = "avx2")]
fn finish(mut s: SipVec) -> [u64; 4] {
    s.v2 = _mm256_xor_si256(s.v2, _mm256_set1_epi64x(0xff));
    for _ in 0..4 {
        sip_round(&mut s);
    }
    let folded = _mm256_xor_si256(_mm256_xor_si256(s.v0, s.v1), _mm256_xor_si256(s.v2, s.v3));
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is 32 writable bytes; the store is unaligned.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), folded) };
    lanes
}

/// The key-derived initial state for lanes `[low, high, low, high]`.
#[target_feature(enable = "avx2")]
fn init_state(low_key: (u64, u64), high_key: (u64, u64)) -> SipVec {
    let splat2 =
        |low: u64, high: u64| _mm256_setr_epi64x(low as i64, high as i64, low as i64, high as i64);
    SipVec {
        v0: splat2(
            low_key.0 ^ 0x736f_6d65_7073_6575,
            high_key.0 ^ 0x736f_6d65_7073_6575,
        ),
        v1: splat2(
            low_key.1 ^ 0x646f_7261_6e64_6f6d,
            high_key.1 ^ 0x646f_7261_6e64_6f6d,
        ),
        v2: splat2(
            low_key.0 ^ 0x6c79_6765_6e65_7261,
            high_key.0 ^ 0x6c79_6765_6e65_7261,
        ),
        v3: splat2(
            low_key.1 ^ 0x7465_6462_7974_6573,
            high_key.1 ^ 0x7465_6462_7974_6573,
        ),
    }
}

/// A message-word vector for the lane layout: `[m_a, m_a, m_b, m_b]`.
#[inline]
#[target_feature(enable = "avx2")]
fn word_pair(m_a: u64, m_b: u64) -> __m256i {
    _mm256_setr_epi64x(m_a as i64, m_a as i64, m_b as i64, m_b as i64)
}

/// Vectorized single-tweak `eval_blocks` over an even-length batch.
///
/// Must only be called when the Avx2 backend passed runtime detection, and
/// with `inputs.len() % 2 == 0` (the caller evaluates the remainder with the
/// scalar path).
pub(crate) fn eval_blocks(
    low_key: (u64, u64),
    high_key: (u64, u64),
    inputs: &[Block128],
    tweak: u64,
    out: &mut [Block128],
) {
    debug_assert_eq!(inputs.len() % 2, 0);
    debug_assert_eq!(inputs.len(), out.len());
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { eval_blocks_impl(low_key, high_key, inputs, tweak, out) }
}

#[target_feature(enable = "avx2")]
fn eval_blocks_impl(
    low_key: (u64, u64),
    high_key: (u64, u64),
    inputs: &[Block128],
    tweak: u64,
    out: &mut [Block128],
) {
    let base = init_state(low_key, high_key);
    let tweak_v = _mm256_set1_epi64x(tweak as i64);
    let final_v = _mm256_set1_epi64x(SIP_FINAL_WORD_24 as i64);
    for (pair, slots) in inputs.chunks_exact(2).zip(out.chunks_exact_mut(2)) {
        let (a0, a1) = pair[0].halves();
        let (b0, b1) = pair[1].halves();
        let mut s = base;
        absorb(&mut s, word_pair(a0, b0));
        absorb(&mut s, word_pair(a1, b1));
        absorb(&mut s, tweak_v);
        absorb(&mut s, final_v);
        let lanes = finish(s);
        slots[0] = Block128::from_halves(lanes[0], lanes[1]);
        slots[1] = Block128::from_halves(lanes[2], lanes[3]);
    }
}

/// Vectorized paired-tweak GGM sweep (optionally with the Matyas–Meyer–Oseas
/// feed-forward) over an even-length batch.
///
/// Mirrors the scalar prefix-sharing: the input-dependent first two words
/// are absorbed once, then the state forks for the two child tweaks.
///
/// Must only be called when the Avx2 backend passed runtime detection, and
/// with `inputs.len() % 2 == 0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_sweep(
    low_key: (u64, u64),
    high_key: (u64, u64),
    inputs: &[Block128],
    tweak_a: u64,
    tweak_b: u64,
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    debug_assert_eq!(inputs.len() % 2, 0);
    debug_assert_eq!(inputs.len(), out_a.len());
    debug_assert_eq!(inputs.len(), out_b.len());
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe {
        pair_sweep_impl(
            low_key, high_key, inputs, tweak_a, tweak_b, out_a, out_b, mmo,
        )
    }
}

#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn pair_sweep_impl(
    low_key: (u64, u64),
    high_key: (u64, u64),
    inputs: &[Block128],
    tweak_a: u64,
    tweak_b: u64,
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    let base = init_state(low_key, high_key);
    let tweak_a_v = _mm256_set1_epi64x(tweak_a as i64);
    let tweak_b_v = _mm256_set1_epi64x(tweak_b as i64);
    let final_v = _mm256_set1_epi64x(SIP_FINAL_WORD_24 as i64);
    let feed = (mmo as u64).wrapping_neg();
    for (i, pair) in inputs.chunks_exact(2).enumerate() {
        let (a0, a1) = pair[0].halves();
        let (b0, b1) = pair[1].halves();
        // Input-dependent prefix, shared by both child tweaks.
        let mut prefix = base;
        absorb(&mut prefix, word_pair(a0, b0));
        absorb(&mut prefix, word_pair(a1, b1));
        // Fork per child tweak.
        let mut s_a = prefix;
        absorb(&mut s_a, tweak_a_v);
        absorb(&mut s_a, final_v);
        let mut s_b = prefix;
        absorb(&mut s_b, tweak_b_v);
        absorb(&mut s_b, final_v);
        let lanes_a = finish(s_a);
        let lanes_b = finish(s_b);
        out_a[2 * i] = Block128::from_halves(lanes_a[0] ^ (a0 & feed), lanes_a[1] ^ (a1 & feed));
        out_a[2 * i + 1] =
            Block128::from_halves(lanes_a[2] ^ (b0 & feed), lanes_a[3] ^ (b1 & feed));
        out_b[2 * i] = Block128::from_halves(lanes_b[0] ^ (a0 & feed), lanes_b[1] ^ (a1 & feed));
        out_b[2 * i + 1] =
            Block128::from_halves(lanes_b[2] ^ (b0 & feed), lanes_b[3] ^ (b1 & feed));
    }
}
