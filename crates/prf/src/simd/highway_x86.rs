//! AVX2 HighwayHash-style sweeps.
//!
//! Unlike the other primitives, the HighwayHash-style state is itself four
//! 64-bit lanes per register group — the algorithm was designed for exactly
//! this mapping — so one block occupies one `__m256i` per state group
//! (`v0`, `v1`, `mul0`, `mul1`) and the update/permute/zipper-merge steps
//! become single instructions: `VPMULUDQ` is precisely the scalar
//! `(x & 0xffff_ffff) * (y >> 32)` cross-half multiply, `VPSHUFB` the
//! zipper-merge byte interleave, and `VPERMQ` the lane permutation. Two
//! blocks run interleaved to cover multiply latency.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32, _mm256_permute4x64_epi64,
    _mm256_setr_epi64x, _mm256_setr_epi8, _mm256_shuffle_epi32, _mm256_shuffle_epi8,
    _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
};

use pir_field::Block128;

/// One vectorized state: the four 64-bit lanes of each group.
#[derive(Clone, Copy)]
struct StateVec {
    v0: __m256i,
    v1: __m256i,
    mul0: __m256i,
    mul1: __m256i,
}

/// The key-derived base state, as raw lane arrays.
pub(crate) struct BaseState {
    /// `v0` lanes.
    pub v0: [u64; 4],
    /// `v1` lanes.
    pub v1: [u64; 4],
    /// `mul0` lanes.
    pub mul0: [u64; 4],
    /// `mul1` lanes.
    pub mul1: [u64; 4],
}

#[inline]
#[target_feature(enable = "avx2")]
fn zipper_merge(x: __m256i) -> __m256i {
    // Scalar: dest LE bytes = src bytes [3, 1, 4, 0, 6, 2, 7, 5] per u64.
    let mask = _mm256_setr_epi8(
        3, 1, 4, 0, 6, 2, 7, 5, 11, 9, 12, 8, 14, 10, 15, 13, //
        3, 1, 4, 0, 6, 2, 7, 5, 11, 9, 12, 8, 14, 10, 15, 13,
    );
    _mm256_shuffle_epi8(x, mask)
}

/// `(a & 0xffff_ffff) * (b >> 32)` per 64-bit lane — `VPMULUDQ` multiplies
/// the low 32 bits of each lane, so shifting `b` down selects its high half.
#[inline]
#[target_feature(enable = "avx2")]
fn cross_mul(a: __m256i, b: __m256i) -> __m256i {
    _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b))
}

#[inline]
#[target_feature(enable = "avx2")]
fn update(s: &mut StateVec, packet: __m256i) {
    s.v1 = _mm256_add_epi64(s.v1, _mm256_add_epi64(packet, s.mul0));
    s.mul0 = _mm256_xor_si256(s.mul0, cross_mul(s.v1, s.v0));
    s.v0 = _mm256_add_epi64(s.v0, s.mul1);
    s.mul1 = _mm256_xor_si256(s.mul1, cross_mul(s.v0, s.v1));
    s.v0 = _mm256_add_epi64(s.v0, zipper_merge(s.v1));
    s.v1 = _mm256_add_epi64(s.v1, zipper_merge(s.v0));
}

#[inline]
#[target_feature(enable = "avx2")]
fn permute_and_update(s: &mut StateVec) {
    // Scalar permuted[i] = v0[[2, 3, 0, 1][i]].rotate_left(32): a 64-bit
    // lane swap (imm 0x4e) followed by a 32-bit half swap within each lane.
    let swapped = _mm256_permute4x64_epi64::<0x4e>(s.v0);
    let permuted = _mm256_shuffle_epi32::<0b10_11_00_01>(swapped);
    update(s, permuted);
}

#[inline]
#[target_feature(enable = "avx2")]
fn finalize128(mut s: StateVec) -> (u64, u64) {
    for _ in 0..6 {
        permute_and_update(&mut s);
    }
    let mut v0 = [0u64; 4];
    let mut v1 = [0u64; 4];
    let mut mul0 = [0u64; 4];
    let mut mul1 = [0u64; 4];
    // SAFETY: each array is 32 writable bytes; the stores are unaligned.
    unsafe {
        _mm256_storeu_si256(v0.as_mut_ptr().cast::<__m256i>(), s.v0);
        _mm256_storeu_si256(v1.as_mut_ptr().cast::<__m256i>(), s.v1);
        _mm256_storeu_si256(mul0.as_mut_ptr().cast::<__m256i>(), s.mul0);
        _mm256_storeu_si256(mul1.as_mut_ptr().cast::<__m256i>(), s.mul1);
    }
    let low = v0[0]
        .wrapping_add(mul0[0])
        .wrapping_add(v1[2])
        .wrapping_add(mul1[2]);
    let high = v0[1]
        .wrapping_add(mul0[1])
        .wrapping_add(v1[3])
        .wrapping_add(mul1[3]);
    (low, high)
}

/// Vectorized `eval_blocks` (any length; one state per block, two blocks
/// interleaved).
///
/// Must only be called when the Avx2 backend passed runtime detection.
pub(crate) fn eval_blocks(
    base: &BaseState,
    t2: u64,
    t3: u64,
    inputs: &[Block128],
    out: &mut [Block128],
) {
    debug_assert_eq!(inputs.len(), out.len());
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { eval_blocks_impl(base, t2, t3, inputs, out) }
}

#[target_feature(enable = "avx2")]
fn eval_blocks_impl(base: &BaseState, t2: u64, t3: u64, inputs: &[Block128], out: &mut [Block128]) {
    // SAFETY: each base-state array is 32 readable bytes; the loads are
    // unaligned.
    let base_vec = unsafe {
        StateVec {
            v0: _mm256_loadu_si256(base.v0.as_ptr().cast::<__m256i>()),
            v1: _mm256_loadu_si256(base.v1.as_ptr().cast::<__m256i>()),
            mul0: _mm256_loadu_si256(base.mul0.as_ptr().cast::<__m256i>()),
            mul1: _mm256_loadu_si256(base.mul1.as_ptr().cast::<__m256i>()),
        }
    };
    let packet = |input: Block128| {
        let (low, high) = input.halves();
        _mm256_setr_epi64x(low as i64, high as i64, t2 as i64, t3 as i64)
    };

    let mut input_pairs = inputs.chunks_exact(2);
    let mut output_pairs = out.chunks_exact_mut(2);
    for (pair, slots) in input_pairs.by_ref().zip(output_pairs.by_ref()) {
        let mut s_a = base_vec;
        let mut s_b = base_vec;
        update(&mut s_a, packet(pair[0]));
        update(&mut s_b, packet(pair[1]));
        let (low_a, high_a) = finalize128(s_a);
        let (low_b, high_b) = finalize128(s_b);
        slots[0] = Block128::from_halves(low_a, high_a);
        slots[1] = Block128::from_halves(low_b, high_b);
    }
    for (input, slot) in input_pairs
        .remainder()
        .iter()
        .zip(output_pairs.into_remainder())
    {
        let mut s = base_vec;
        update(&mut s, packet(*input));
        let (low, high) = finalize128(s);
        *slot = Block128::from_halves(low, high);
    }
}
