//! AVX2 8-way and AVX-512 16-way block-parallel ChaCha20 sweeps.
//!
//! The PRF runs one 20-round ChaCha20 block function per input with the
//! input occupying key words 0–3; keystream words 0–3 are its output under
//! the even tweak of a pair, words 4–7 under the odd one (see
//! `ChaCha20Prf`). ChaCha has no intra-block parallelism to speak of (the
//! quarter-rounds form one dependency chain), but blocks are fully
//! independent, so the vector path transposes eight inputs into sixteen
//! `__m256i` state vectors — lane `j` of every vector belongs to block `j`
//! — and runs the identical round schedule once. Adds, XORs and shifts act
//! lane-wise, so every lane computes exactly the scalar result. Each step
//! stores either half or both, with the Matyas–Meyer–Oseas XOR if asked.
//!
//! In the ymm kernel, rotations by 16 and 8 are byte-granular and use
//! `PSHUFB`; 12 and 7 use shift+or. Its 16 state vectors fill all 16 ymm
//! registers, so the rounds spill.
//!
//! On CPUs with AVX-512F (`is_x86_feature_detected!("avx512f")`, which std
//! caches) each pair of 8-block steps runs a zmm kernel instead: sixteen
//! blocks per state vector, `VPROLD` for all four rotations, and 32
//! registers, so the state never leaves them. An odd 8-block step, the
//! padded tails of `ChaCha20Prf`'s sweeps and every host without AVX-512F
//! keep the ymm kernel.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, __m512i, _mm256_add_epi32, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256,
    _mm256_set1_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
    _mm256_storeu_si256, _mm256_xor_si256, _mm512_add_epi32, _mm512_and_si512, _mm512_loadu_si512,
    _mm512_permutex2var_epi32, _mm512_rol_epi32, _mm512_set1_epi32, _mm512_setr_epi32,
    _mm512_shuffle_i64x2, _mm512_storeu_si512, _mm512_xor_si512,
};
use core::slice;

use pir_field::Block128;

use crate::chacha::{block_from_words, twenty_rounds, Halves, CONSTANTS};

/// Number of blocks processed per vector step (u32 lanes in a `__m256i`).
pub(crate) const WIDTH: usize = 8;
/// Blocks per step of the zmm kernel (u32 lanes in a `__m512i`): two
/// [`WIDTH`] steps.
const ZMM_WIDTH: usize = 2 * WIDTH;

#[inline]
#[target_feature(enable = "avx2")]
fn rotl16(x: __m256i) -> __m256i {
    // Per-u32 left rotation by 16 = swap the two 16-bit halves of each lane.
    let mask = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    _mm256_shuffle_epi8(x, mask)
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl8(x: __m256i) -> __m256i {
    // Per-u32 left rotation by 8: dest byte k takes source byte (k + 3) % 4.
    let mask = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    _mm256_shuffle_epi8(x, mask)
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl12(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<12>(x), _mm256_srli_epi32::<20>(x))
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl7(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<7>(x), _mm256_srli_epi32::<25>(x))
}

#[inline]
#[target_feature(enable = "avx2")]
fn quarter_round(state: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = _mm256_add_epi32(state[a], state[b]);
    state[d] = rotl16(_mm256_xor_si256(state[d], state[a]));
    state[c] = _mm256_add_epi32(state[c], state[d]);
    state[b] = rotl12(_mm256_xor_si256(state[b], state[c]));
    state[a] = _mm256_add_epi32(state[a], state[b]);
    state[d] = rotl8(_mm256_xor_si256(state[d], state[a]));
    state[c] = _mm256_add_epi32(state[c], state[d]);
    state[b] = rotl7(_mm256_xor_si256(state[b], state[c]));
}

/// Vectorized sweep over a whole-multiple-of-[`WIDTH`] batch under one
/// `nonce`, into [`Halves`], XORing each input into its outputs if `mmo`.
/// Whole [`ZMM_WIDTH`]-block steps take the zmm kernel where the CPU has
/// AVX-512F, the rest the ymm kernel.
///
/// Must only be called when the Avx2 backend passed runtime detection, and
/// with `inputs.len() % WIDTH == 0` (the caller pads the remainder up to one
/// more step).
pub(crate) fn eval_blocks(
    key_high: &[u32; 4],
    nonce: &[u32; 3],
    inputs: &[Block128],
    halves: Halves<'_>,
    mmo: bool,
) {
    assert_eq!(inputs.len() % WIDTH, 0, "whole vector steps only");
    for out in halves.iter().flatten() {
        assert_eq!(inputs.len(), out.len(), "input/output length mismatch");
    }
    let wide = inputs.len() / ZMM_WIDTH * ZMM_WIDTH;
    let (inputs, halves) = if wide > 0 && std::arch::is_x86_feature_detected!("avx512f") {
        let (head, tail) = inputs.split_at(wide);
        let [(low, low_tail), (high, high_tail)] =
            halves.map(|half| half.map(|out| out.split_at_mut(wide)).unzip());
        // SAFETY: AVX-512F is detected above.
        unsafe { eval_blocks_zmm(key_high, nonce, head, [low, high], mmo) };
        (tail, [low_tail, high_tail])
    } else {
        (inputs, halves)
    };
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { eval_blocks_ymm(key_high, nonce, inputs, halves, mmo) }
}

/// The ymm kernel over whole [`WIDTH`]-block steps.
#[target_feature(enable = "avx2")]
fn eval_blocks_ymm(
    key_high: &[u32; 4],
    nonce: &[u32; 3],
    inputs: &[Block128],
    halves: Halves<'_>,
    mmo: bool,
) {
    // The state words that do not depend on the input: constants, key
    // words 4–7, counter and nonce.
    let splat = |words: [u32; 4]| words.map(|word| _mm256_set1_epi32(word as i32));
    let constants = splat(CONSTANTS);
    let key_high_v = splat(*key_high);
    let tail = splat([0, nonce[0], nonce[1], nonce[2]]);
    let feed = _mm256_set1_epi32(-(mmo as i32));

    // SAFETY: `Block128` is a transparent `u128`, so `inputs` is `4 * len`
    // contiguous little-endian `u32` words (and `u32` alignment divides
    // `u128` alignment).
    let words = unsafe { slice::from_raw_parts(inputs.as_ptr().cast::<u32>(), 4 * inputs.len()) };
    let (steps, _) = words.as_chunks::<{ 4 * WIDTH }>();
    let mut outs = halves.map(|half| half.map(|out| out.as_chunks_mut::<WIDTH>().0.iter_mut()));
    for step in steps {
        // Transpose: vector j holds input word j of the eight blocks.
        let input_words: [__m256i; 4] = core::array::from_fn(|j| {
            let lanes: [u32; WIDTH] = core::array::from_fn(|block| step[4 * block + j]);
            // SAFETY: `lanes` is 32 readable bytes; the load is unaligned.
            unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
        });
        let parts = [constants, input_words, key_high_v, tail];
        let mut state: [__m256i; 16] = core::array::from_fn(|i| parts[i / 4][i % 4]);
        twenty_rounds!(quarter_round, &mut state);

        // Feed-forward (constants into words 0–3, the input into 4–7) and
        // the MMO XOR, then transpose back: block j reads lane j of each
        // output vector.
        let fed = input_words.map(|word| _mm256_and_si256(word, feed));
        let [s0, s1, s2, s3, s4, s5, s6, s7, ..] = state;
        let words = [[s0, s1, s2, s3], [s4, s5, s6, s7]];
        for ((out, words), initial) in outs.iter_mut().zip(words).zip([constants, input_words]) {
            let Some(out_step) = out.as_mut().and_then(Iterator::next) else {
                continue;
            };
            let mut w = [[0u32; WIDTH]; 4];
            for (k, lanes) in w.iter_mut().enumerate() {
                let word = _mm256_xor_si256(_mm256_add_epi32(words[k], initial[k]), fed[k]);
                // SAFETY: `lanes` is 32 writable bytes; the store is unaligned.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), word) };
            }
            *out_step = core::array::from_fn(|j| block_from_words(w.map(|lanes| lanes[j])));
        }
    }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn quarter_round_zmm(state: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = _mm512_add_epi32(state[a], state[b]);
    state[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(state[d], state[a]));
    state[c] = _mm512_add_epi32(state[c], state[d]);
    state[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(state[b], state[c]));
    state[a] = _mm512_add_epi32(state[a], state[b]);
    state[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(state[d], state[a]));
    state[c] = _mm512_add_epi32(state[c], state[d]);
    state[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(state[b], state[c]));
}

/// Four adjacent blocks (16 words, block-major) in a zmm register; the
/// SipHash, AES and GGM-pass zmm kernels load and store through these too.
#[inline]
#[target_feature(enable = "avx512f")]
pub(super) fn load4(blocks: &[Block128; 4]) -> __m512i {
    // SAFETY: `blocks` is 64 readable bytes; the load is unaligned.
    unsafe { _mm512_loadu_si512(blocks.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
pub(super) fn store4(blocks: &mut [Block128; 4], value: __m512i) {
    // SAFETY: `blocks` is 64 writable bytes of plain data; the store is
    // unaligned.
    unsafe { _mm512_storeu_si512(blocks.as_mut_ptr().cast(), value) }
}

/// Sixteen blocks, four per register and block-major, to one register per
/// word: `words[w]` lane `j` is word `w` of block `j`.
#[inline]
#[target_feature(enable = "avx512f")]
fn to_word_major(rows: [__m512i; 4]) -> [__m512i; 4] {
    // Words 0|1 (`even`) and 2|3 (`odd`) of eight blocks, from two rows.
    let even = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1, 5, 9, 13, 17, 21, 25, 29);
    let odd = _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 3, 7, 11, 15, 19, 23, 27, 31);
    let low01 = _mm512_permutex2var_epi32(rows[0], even, rows[1]);
    let low23 = _mm512_permutex2var_epi32(rows[0], odd, rows[1]);
    let high01 = _mm512_permutex2var_epi32(rows[2], even, rows[3]);
    let high23 = _mm512_permutex2var_epi32(rows[2], odd, rows[3]);
    // Join the low halves of both (blocks 0–7 | 8–15), then the high halves.
    [
        _mm512_shuffle_i64x2::<0x44>(low01, high01),
        _mm512_shuffle_i64x2::<0xee>(low01, high01),
        _mm512_shuffle_i64x2::<0x44>(low23, high23),
        _mm512_shuffle_i64x2::<0xee>(low23, high23),
    ]
}

/// The inverse of [`to_word_major`].
#[inline]
#[target_feature(enable = "avx512f")]
fn to_block_major(words: [__m512i; 4]) -> [__m512i; 4] {
    let low01 = _mm512_shuffle_i64x2::<0x44>(words[0], words[1]);
    let high01 = _mm512_shuffle_i64x2::<0xee>(words[0], words[1]);
    let low23 = _mm512_shuffle_i64x2::<0x44>(words[2], words[3]);
    let high23 = _mm512_shuffle_i64x2::<0xee>(words[2], words[3]);
    // Lane `4k + w` of a row takes word `w` of block `k`: element `8w + k`
    // of the `01 | 23` pair.
    let first = _mm512_setr_epi32(0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 18, 26, 3, 11, 19, 27);
    let second = _mm512_setr_epi32(4, 12, 20, 28, 5, 13, 21, 29, 6, 14, 22, 30, 7, 15, 23, 31);
    [
        _mm512_permutex2var_epi32(low01, first, low23),
        _mm512_permutex2var_epi32(low01, second, low23),
        _mm512_permutex2var_epi32(high01, first, high23),
        _mm512_permutex2var_epi32(high01, second, high23),
    ]
}

/// The zmm kernel over whole [`ZMM_WIDTH`]-block steps.
#[target_feature(enable = "avx512f")]
fn eval_blocks_zmm(
    key_high: &[u32; 4],
    nonce: &[u32; 3],
    inputs: &[Block128],
    halves: Halves<'_>,
    mmo: bool,
) {
    assert_eq!(inputs.len() % ZMM_WIDTH, 0, "whole zmm steps only");
    let splat = |words: [u32; 4]| words.map(|word| _mm512_set1_epi32(word as i32));
    let constants = splat(CONSTANTS);
    let key_high_v = splat(*key_high);
    let tail = splat([0, nonce[0], nonce[1], nonce[2]]);
    let feed = _mm512_set1_epi32(-(mmo as i32));

    let (steps, _) = inputs.as_chunks::<ZMM_WIDTH>();
    let mut outs = halves.map(|half| half.map(|out| out.as_chunks_mut::<ZMM_WIDTH>().0.iter_mut()));
    for step in steps {
        let (rows, _) = step.as_chunks::<4>();
        let input_words = to_word_major(core::array::from_fn(|row| load4(&rows[row])));
        let parts = [constants, input_words, key_high_v, tail];
        let mut state: [__m512i; 16] = core::array::from_fn(|i| parts[i / 4][i % 4]);
        twenty_rounds!(quarter_round_zmm, &mut state);

        // Feed-forward and MMO XOR as in the ymm kernel.
        let fed = input_words.map(|word| _mm512_and_si512(word, feed));
        let [s0, s1, s2, s3, s4, s5, s6, s7, ..] = state;
        let words = [[s0, s1, s2, s3], [s4, s5, s6, s7]];
        for ((out, words), initial) in outs.iter_mut().zip(words).zip([constants, input_words]) {
            let Some(out_step) = out.as_mut().and_then(Iterator::next) else {
                continue;
            };
            let rows_out = to_block_major(core::array::from_fn(|w| {
                _mm512_xor_si512(_mm512_add_epi32(words[w], initial[w]), fed[w])
            }));
            let (slots, _) = out_step.as_chunks_mut::<4>();
            for (slot, value) in slots.iter_mut().zip(rows_out) {
                store4(slot, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::ChaCha20Prf;
    use crate::Prf;
    use pir_field::SimdBackend;

    /// Both kernels, called directly, against the scalar block function: on
    /// an AVX-512 host the public sweep routes whole 16-block steps to the
    /// zmm kernel, so the ymm kernel would otherwise go untested there (and
    /// vice versa). Each kernel stores both keystream halves — the PRF under
    /// the even and the odd tweak of a pair — then each half alone, with and
    /// without the feed-forward XOR.
    #[test]
    fn kernels_match_scalar() {
        if !SimdBackend::Avx2.is_supported() {
            eprintln!("skipped both kernels: this host lacks AVX2");
            return;
        }
        type Kernel = unsafe fn(&[u32; 4], &[u32; 3], &[Block128], Halves<'_>, bool);
        let mut kernels: Vec<(&str, Kernel, usize)> = vec![("ymm", eval_blocks_ymm, WIDTH)];
        if std::arch::is_x86_feature_detected!("avx512f") {
            kernels.push(("zmm", eval_blocks_zmm, ZMM_WIDTH));
        } else {
            eprintln!("skipped the zmm kernel: this host lacks AVX-512F (ymm kernel checked)");
        }
        let key_high = [0x0123_4567, 0x89ab_cdef, 0xfedc_ba98, 0x7654_3210];
        let prf = ChaCha20Prf::new(key_high);
        for (name, kernel, step) in kernels {
            for (pair, mmo) in [(0u64, false), (0x9e37, true), (3 << 32 | 5, true)] {
                let nonce = ChaCha20Prf::nonce(pair);
                // The kernels take whole steps: every multiple of one up to 48.
                for len in (0..=48).step_by(step) {
                    let what = format!("{name} pair={pair} mmo={mmo} len={len}");
                    let inputs: Vec<Block128> = (0..len as u128)
                        .map(|i| {
                            Block128::from_u128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1)
                        })
                        .collect();
                    let want = [0, 1].map(|half| {
                        let tweak = 2 * pair + half;
                        let want = inputs
                            .iter()
                            .map(|x| prf.eval_block(*x, tweak).xor_if(mmo, *x));
                        want.collect::<Vec<_>>()
                    });
                    let mut got = [vec![Block128::ZERO; len], vec![Block128::ZERO; len]];
                    let [low, high] = &mut got;
                    let halves = [Some(low.as_mut_slice()), Some(high.as_mut_slice())];
                    // SAFETY: the host has the kernel's features (checked above).
                    unsafe { kernel(&key_high, &nonce, &inputs, halves, mmo) };
                    assert_eq!(got, want, "{what}");
                    for (half, want) in want.iter().enumerate() {
                        let mut alone = vec![Block128::ZERO; len];
                        let mut halves = [None, None];
                        halves[half] = Some(alone.as_mut_slice());
                        // SAFETY: as above.
                        unsafe { kernel(&key_high, &nonce, &inputs, halves, mmo) };
                        assert_eq!(&alone, want, "half {half} alone, {what}");
                    }
                }
            }
        }
    }
}
