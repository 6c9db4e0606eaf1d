//! AVX2 4-state and AVX-512 8-state SipHash-2-4 sweeps.
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
//! In the ymm kernels, rotations by 32 use a lane shuffle, 16 a byte
//! shuffle, the rest shift+or. Adds, XORs and rotations act lane-wise, so
//! every lane computes exactly the scalar `sip_round` sequence.
//!
//! On CPUs with AVX-512F (`is_x86_feature_detected!("avx512f")`, which std
//! caches) the paired GGM sweep runs whole 4-input steps on a zmm kernel
//! instead: the same lane layout over eight 64-bit lanes (four inputs × the
//! two keys), `VPROLQ` for every rotation, and the two child-tweak forks in
//! flight together. A 2-input remainder and every host without AVX-512F
//! keep the ymm pair kernel.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, __m512i, _mm256_add_epi64, _mm256_or_si256, _mm256_set1_epi64x, _mm256_setr_epi64x,
    _mm256_setr_epi8, _mm256_shuffle_epi32, _mm256_shuffle_epi8, _mm256_slli_epi64,
    _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm512_add_epi64, _mm512_and_si512,
    _mm512_broadcast_i64x4, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi64, _mm512_xor_si512,
};

use pir_field::Block128;

use super::chacha_x86::{load4, store4};

/// One vectorized SipHash state: `v0..v3` for four independent instances.
#[derive(Clone, Copy)]
struct SipVec {
    v0: __m256i,
    v1: __m256i,
    v2: __m256i,
    v3: __m256i,
}

/// [`SipVec`] over eight instances: lanes `2i` and `2i + 1` are input `i`
/// under the low and the high key.
#[derive(Clone, Copy)]
struct SipZmm {
    v0: __m512i,
    v1: __m512i,
    v2: __m512i,
    v3: __m512i,
}

/// The padded final message word of the PRF's fixed 24-byte message shape.
const SIP_FINAL_WORD_24: u64 = 24u64 << 56;

/// Inputs per step of the zmm pair sweep: four inputs × the two keys.
const ZMM_INPUTS: usize = 4;

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
    assert_eq!(inputs.len() % 2, 0, "whole input pairs only");
    assert_eq!(inputs.len(), out.len(), "input/output length mismatch");
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
/// are absorbed once, then the state forks for the two child tweaks. Whole
/// [`ZMM_INPUTS`]-input steps take the zmm kernel where the CPU has
/// AVX-512F, the rest the ymm kernel.
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
    assert_eq!(inputs.len() % 2, 0, "whole input pairs only");
    assert_eq!(inputs.len(), out_a.len(), "paired sweep length mismatch");
    assert_eq!(inputs.len(), out_b.len(), "paired sweep length mismatch");
    let wide = inputs.len() / ZMM_INPUTS * ZMM_INPUTS;
    let (inputs, out_a, out_b) = if wide > 0 && std::arch::is_x86_feature_detected!("avx512f") {
        let (head, tail) = inputs.split_at(wide);
        let (head_a, tail_a) = out_a.split_at_mut(wide);
        let (head_b, tail_b) = out_b.split_at_mut(wide);
        // SAFETY: AVX-512F is detected above.
        unsafe {
            pair_sweep_zmm(
                low_key, high_key, head, tweak_a, tweak_b, head_a, head_b, mmo,
            )
        };
        (tail, tail_a, tail_b)
    } else {
        (inputs, out_a, out_b)
    };
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe {
        pair_sweep_ymm(
            low_key, high_key, inputs, tweak_a, tweak_b, out_a, out_b, mmo,
        )
    }
}

/// The ymm pair kernel over whole input pairs.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn pair_sweep_ymm(
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

#[inline]
#[target_feature(enable = "avx512f")]
fn sip_round_zmm(s: &mut SipZmm) {
    s.v0 = _mm512_add_epi64(s.v0, s.v1);
    s.v1 = _mm512_rol_epi64::<13>(s.v1);
    s.v1 = _mm512_xor_si512(s.v1, s.v0);
    s.v0 = _mm512_rol_epi64::<32>(s.v0);
    s.v2 = _mm512_add_epi64(s.v2, s.v3);
    s.v3 = _mm512_rol_epi64::<16>(s.v3);
    s.v3 = _mm512_xor_si512(s.v3, s.v2);
    s.v0 = _mm512_add_epi64(s.v0, s.v3);
    s.v3 = _mm512_rol_epi64::<21>(s.v3);
    s.v3 = _mm512_xor_si512(s.v3, s.v0);
    s.v2 = _mm512_add_epi64(s.v2, s.v1);
    s.v1 = _mm512_rol_epi64::<17>(s.v1);
    s.v1 = _mm512_xor_si512(s.v1, s.v2);
    s.v2 = _mm512_rol_epi64::<32>(s.v2);
}

/// [`absorb`] over eight instances.
#[inline]
#[target_feature(enable = "avx512f")]
fn absorb_zmm(s: &mut SipZmm, m: __m512i) {
    s.v3 = _mm512_xor_si512(s.v3, m);
    sip_round_zmm(s);
    sip_round_zmm(s);
    s.v0 = _mm512_xor_si512(s.v0, m);
}

/// [`finish`] over eight instances, the result left in its lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn finish_zmm(mut s: SipZmm) -> __m512i {
    s.v2 = _mm512_xor_si512(s.v2, _mm512_set1_epi64(0xff));
    for _ in 0..4 {
        sip_round_zmm(&mut s);
    }
    _mm512_xor_si512(_mm512_xor_si512(s.v0, s.v1), _mm512_xor_si512(s.v2, s.v3))
}

/// The zmm pair kernel over whole [`ZMM_INPUTS`]-input steps (equal-length
/// slices). Four loaded blocks are already in the lane layout: lanes `2i`
/// and `2i + 1` hold message words 0 and 1 of input `i`, which is also
/// where its output halves and their feed-forward go.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn pair_sweep_zmm(
    low_key: (u64, u64),
    high_key: (u64, u64),
    inputs: &[Block128],
    tweak_a: u64,
    tweak_b: u64,
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    assert_eq!(inputs.len() % ZMM_INPUTS, 0, "whole zmm steps only");
    let half = init_state(low_key, high_key);
    let base = SipZmm {
        v0: _mm512_broadcast_i64x4(half.v0),
        v1: _mm512_broadcast_i64x4(half.v1),
        v2: _mm512_broadcast_i64x4(half.v2),
        v3: _mm512_broadcast_i64x4(half.v3),
    };
    let tweak_a_v = _mm512_set1_epi64(tweak_a as i64);
    let tweak_b_v = _mm512_set1_epi64(tweak_b as i64);
    let final_v = _mm512_set1_epi64(SIP_FINAL_WORD_24 as i64);
    let feed = _mm512_set1_epi64((mmo as u64).wrapping_neg() as i64);
    let (steps, _) = inputs.as_chunks::<ZMM_INPUTS>();
    let (steps_a, _) = out_a.as_chunks_mut::<ZMM_INPUTS>();
    let (steps_b, _) = out_b.as_chunks_mut::<ZMM_INPUTS>();
    for ((step, slots_a), slots_b) in steps.iter().zip(steps_a).zip(steps_b) {
        let loaded = load4(step);
        // Input-dependent prefix, shared by both child tweaks: words 0 and 1
        // of each input, repeated for its two keys.
        let mut prefix = base;
        absorb_zmm(&mut prefix, _mm512_unpacklo_epi64(loaded, loaded));
        absorb_zmm(&mut prefix, _mm512_unpackhi_epi64(loaded, loaded));
        // Fork per child tweak.
        let mut s_a = prefix;
        let mut s_b = prefix;
        absorb_zmm(&mut s_a, tweak_a_v);
        absorb_zmm(&mut s_b, tweak_b_v);
        absorb_zmm(&mut s_a, final_v);
        absorb_zmm(&mut s_b, final_v);
        let fed = _mm512_and_si512(loaded, feed);
        store4(slots_a, _mm512_xor_si512(finish_zmm(s_a), fed));
        store4(slots_b, _mm512_xor_si512(finish_zmm(s_b), fed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::siphash::SipHashPrf;
    use crate::Prf;
    use pir_field::SimdBackend;

    /// Both pair kernels, called directly, against the scalar block function:
    /// on an AVX-512 host the public sweep routes whole 4-input steps to the
    /// zmm kernel, so the ymm kernel would otherwise go untested there (and
    /// vice versa).
    #[test]
    fn kernels_match_scalar() {
        if !SimdBackend::Avx2.is_supported() {
            eprintln!("skipped both kernels: this host lacks AVX2");
            return;
        }
        let low_key = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let prf = SipHashPrf::new(low_key.0, low_key.1);
        let high_key = prf.high_key();
        let (tweak_a, tweak_b) = (0x5eed_0000_0000_0002, 3);
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        if !avx512 {
            eprintln!("skipped the zmm kernel: this host lacks AVX-512F (ymm kernel checked)");
        }
        for len in 0..=12usize {
            let inputs: Vec<Block128> = (0..len as u128)
                .map(|i| Block128::from_u128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1))
                .collect();
            for mmo in [false, true] {
                let reference = |tweak: u64| -> Vec<Block128> {
                    inputs
                        .iter()
                        .map(|x| {
                            let y = prf.eval_block(*x, tweak);
                            if mmo {
                                y ^ *x
                            } else {
                                y
                            }
                        })
                        .collect()
                };
                let (want_a, want_b) = (reference(tweak_a), reference(tweak_b));

                let pairs = len / 2 * 2;
                let mut got_a = vec![Block128::ZERO; pairs];
                let mut got_b = vec![Block128::ZERO; pairs];
                // SAFETY: AVX2 checked at the top of the test.
                unsafe {
                    pair_sweep_ymm(
                        low_key,
                        high_key,
                        &inputs[..pairs],
                        tweak_a,
                        tweak_b,
                        &mut got_a,
                        &mut got_b,
                        mmo,
                    );
                }
                assert_eq!(
                    (&got_a[..], &got_b[..]),
                    (&want_a[..pairs], &want_b[..pairs]),
                    "ymm len={pairs} mmo={mmo}"
                );

                if avx512 {
                    let whole = len / ZMM_INPUTS * ZMM_INPUTS;
                    let mut got_a = vec![Block128::ZERO; whole];
                    let mut got_b = vec![Block128::ZERO; whole];
                    // SAFETY: AVX-512F checked above.
                    unsafe {
                        pair_sweep_zmm(
                            low_key,
                            high_key,
                            &inputs[..whole],
                            tweak_a,
                            tweak_b,
                            &mut got_a,
                            &mut got_b,
                            mmo,
                        );
                    }
                    assert_eq!(
                        (&got_a[..], &got_b[..]),
                        (&want_a[..whole], &want_b[..whole]),
                        "zmm len={whole} mmo={mmo}"
                    );
                }
            }
        }
    }

    /// The length contract holds in release builds too: an odd batch would
    /// otherwise leave its last output slot stale.
    #[test]
    #[should_panic(expected = "whole input pairs only")]
    fn eval_blocks_rejects_an_odd_batch() {
        let inputs = [Block128::ZERO; 3];
        let mut out = [Block128::ZERO; 3];
        eval_blocks((1, 2), (3, 4), &inputs, 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "paired sweep length mismatch")]
    fn pair_sweep_rejects_a_short_output() {
        let inputs = [Block128::ZERO; 4];
        let (mut out_a, mut out_b) = ([Block128::ZERO; 4], [Block128::ZERO; 2]);
        pair_sweep((1, 2), (3, 4), &inputs, 0, 1, &mut out_a, &mut out_b, false);
    }
}
