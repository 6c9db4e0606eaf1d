//! AVX2 8-way block-parallel ChaCha20 sweeps.
//!
//! The scalar PRF runs one 20-round ChaCha20 block function per input with
//! the input occupying key words 0–3. ChaCha has no intra-block parallelism
//! to speak of (the quarter-rounds form one dependency chain), but blocks
//! are fully independent, so the vector path transposes eight inputs into
//! sixteen `__m256i` state vectors — lane `j` of every vector belongs to
//! block `j` — and runs the identical round schedule once. Adds, XORs and
//! shifts act lane-wise, so every lane computes exactly the scalar result.
//!
//! Rotations by 16 and 8 are byte-granular and use `PSHUFB`; 12 and 7 use
//! shift+or.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi32,
    _mm256_setr_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
    _mm256_storeu_si256, _mm256_xor_si256,
};
use core::slice;

use pir_field::Block128;

/// Number of blocks processed per vector step (u32 lanes in a `__m256i`).
pub(crate) const WIDTH: usize = 8;

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

/// Vectorized `eval_blocks` over a whole-multiple-of-[`WIDTH`] batch.
///
/// `nonces[w]` holds nonce word `w` of every lane: lane `j` of each vector
/// step evaluates under `(nonces[0][j], nonces[1][j], nonces[2][j])`. A
/// uniform sweep repeats one nonce in all lanes; a padded tail mixes both
/// child tweaks in one step.
///
/// Must only be called when the Avx2 backend passed runtime detection, and
/// with `inputs.len() % WIDTH == 0` (the caller pads the remainder up to one
/// more step).
pub(crate) fn eval_blocks(
    key_high: &[u32; 4],
    nonces: &[[u32; WIDTH]; 3],
    inputs: &[Block128],
    out: &mut [Block128],
) {
    assert_eq!(inputs.len() % WIDTH, 0, "whole vector steps only");
    assert_eq!(inputs.len(), out.len(), "input/output length mismatch");
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { eval_blocks_impl(key_high, nonces, inputs, out) }
}

#[target_feature(enable = "avx2")]
fn eval_blocks_impl(
    key_high: &[u32; 4],
    nonces: &[[u32; WIDTH]; 3],
    inputs: &[Block128],
    out: &mut [Block128],
) {
    // The state words that do not depend on the input are the same for every
    // block of the sweep.
    let constants: [__m256i; 4] = [
        _mm256_set1_epi32(0x6170_7865),
        _mm256_set1_epi32(0x3320_646e),
        _mm256_set1_epi32(0x7962_2d32),
        _mm256_set1_epi32(0x6b20_6574_u32 as i32),
    ];
    let key_high_v: [__m256i; 4] = [
        _mm256_set1_epi32(key_high[0] as i32),
        _mm256_set1_epi32(key_high[1] as i32),
        _mm256_set1_epi32(key_high[2] as i32),
        _mm256_set1_epi32(key_high[3] as i32),
    ];
    // SAFETY: each `nonces[w]` is 32 readable bytes; the loads are unaligned.
    let nonce_v =
        unsafe { nonces.map(|lanes| _mm256_loadu_si256(lanes.as_ptr().cast::<__m256i>())) };

    // SAFETY: `Block128` is a transparent `u128`, so `inputs` is `4 * len`
    // contiguous little-endian `u32` words (and `u32` alignment divides
    // `u128` alignment).
    let words = unsafe { slice::from_raw_parts(inputs.as_ptr().cast::<u32>(), 4 * inputs.len()) };
    let (steps, _) = words.as_chunks::<{ 4 * WIDTH }>();
    let (out_steps, _) = out.as_chunks_mut::<WIDTH>();
    for (step, out_step) in steps.iter().zip(out_steps) {
        // Transpose: vector j holds input word j of the eight blocks.
        let mut input_words = [constants[0]; 4];
        for (j, slot) in input_words.iter_mut().enumerate() {
            *slot = _mm256_setr_epi32(
                step[j] as i32,
                step[4 + j] as i32,
                step[8 + j] as i32,
                step[12 + j] as i32,
                step[16 + j] as i32,
                step[20 + j] as i32,
                step[24 + j] as i32,
                step[28 + j] as i32,
            );
        }

        let mut state: [__m256i; 16] = [
            constants[0],
            constants[1],
            constants[2],
            constants[3],
            input_words[0],
            input_words[1],
            input_words[2],
            input_words[3],
            key_high_v[0],
            key_high_v[1],
            key_high_v[2],
            key_high_v[3],
            _mm256_set1_epi32(0), // counter
            nonce_v[0],
            nonce_v[1],
            nonce_v[2],
        ];
        for _ in 0..10 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        // Feed-forward of the initial state; only words 0–3 are emitted.
        let out0 = _mm256_add_epi32(state[0], constants[0]);
        let out1 = _mm256_add_epi32(state[1], constants[1]);
        let out2 = _mm256_add_epi32(state[2], constants[2]);
        let out3 = _mm256_add_epi32(state[3], constants[3]);

        // Transpose back: block j reads lane j of each output vector.
        let mut w = [[0u32; WIDTH]; 4];
        for (vector, lanes) in [out0, out1, out2, out3].into_iter().zip(w.iter_mut()) {
            // SAFETY: `lanes` is 32 writable bytes; the store is unaligned.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), vector) };
        }
        for (j, slot) in out_step.iter_mut().enumerate() {
            *slot = Block128::from_halves(
                (w[0][j] as u64) | ((w[1][j] as u64) << 32),
                (w[2][j] as u64) | ((w[3][j] as u64) << 32),
            );
        }
    }
}
