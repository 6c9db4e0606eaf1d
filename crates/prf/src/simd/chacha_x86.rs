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

use pir_field::Block128;

/// Number of blocks processed per vector step (u32 lanes in a `__m256i`).
pub(crate) const WIDTH: usize = 8;

// SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotl16(x: __m256i) -> __m256i {
    // Per-u32 left rotation by 16 = swap the two 16-bit halves of each lane.
    let mask = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    _mm256_shuffle_epi8(x, mask)
}

// SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotl8(x: __m256i) -> __m256i {
    // Per-u32 left rotation by 8: dest byte k takes source byte (k + 3) % 4.
    let mask = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    _mm256_shuffle_epi8(x, mask)
}

// SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotl12(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<12>(x), _mm256_srli_epi32::<20>(x))
}

// SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotl7(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<7>(x), _mm256_srli_epi32::<25>(x))
}

// SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quarter_round(state: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
    // SAFETY: register-only lane arithmetic; no memory preconditions.
    unsafe {
        state[a] = _mm256_add_epi32(state[a], state[b]);
        state[d] = rotl16(_mm256_xor_si256(state[d], state[a]));
        state[c] = _mm256_add_epi32(state[c], state[d]);
        state[b] = rotl12(_mm256_xor_si256(state[b], state[c]));
        state[a] = _mm256_add_epi32(state[a], state[b]);
        state[d] = rotl8(_mm256_xor_si256(state[d], state[a]));
        state[c] = _mm256_add_epi32(state[c], state[d]);
        state[b] = rotl7(_mm256_xor_si256(state[b], state[c]));
    }
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
    // SAFETY: caller contract — AVX2 detected at runtime.
    unsafe { eval_blocks_impl(key_high, nonces, inputs, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn eval_blocks_impl(
    key_high: &[u32; 4],
    nonces: &[[u32; WIDTH]; 3],
    inputs: &[Block128],
    out: &mut [Block128],
) {
    // SAFETY: AVX2 is enabled by the caller; Block128 is #[repr(transparent)]
    // over u128, so the word reads at base + 28 + j stay inside `inputs`
    // (whose length the safe wrapper checked to be a multiple of WIDTH);
    // each `nonces[w]` is 32 readable bytes (unaligned load), and the only
    // stores target local [u32; 8] arrays.
    unsafe {
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
        let tail_v: [__m256i; 4] = [
            _mm256_set1_epi32(0), // counter
            _mm256_loadu_si256(nonces[0].as_ptr().cast::<__m256i>()),
            _mm256_loadu_si256(nonces[1].as_ptr().cast::<__m256i>()),
            _mm256_loadu_si256(nonces[2].as_ptr().cast::<__m256i>()),
        ];

        // Block128 is #[repr(transparent)] over u128 — each block is four
        // contiguous little-endian u32 words.
        let words = inputs.as_ptr().cast::<u32>();

        for (chunk, out_chunk) in (0..inputs.len() / WIDTH).zip(out.chunks_exact_mut(WIDTH)) {
            let base = chunk * WIDTH * 4;
            // Transpose: vector j holds input word j of the eight blocks;
            // base + 7 * 4 + j < inputs.len() * 4.
            let mut input_words = [constants[0]; 4];
            for (j, slot) in input_words.iter_mut().enumerate() {
                *slot = _mm256_setr_epi32(
                    *words.add(base + j) as i32,
                    *words.add(base + 4 + j) as i32,
                    *words.add(base + 8 + j) as i32,
                    *words.add(base + 12 + j) as i32,
                    *words.add(base + 16 + j) as i32,
                    *words.add(base + 20 + j) as i32,
                    *words.add(base + 24 + j) as i32,
                    *words.add(base + 28 + j) as i32,
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
                tail_v[0],
                tail_v[1],
                tail_v[2],
                tail_v[3],
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

            // Transpose back: block j reads lane j of each output vector
            // ([u32; 8] is 32 writable bytes; unaligned store).
            let mut w = [[0u32; WIDTH]; 4];
            for (vector, lanes) in [out0, out1, out2, out3].into_iter().zip(w.iter_mut()) {
                _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), vector);
            }
            for (j, slot) in out_chunk.iter_mut().enumerate() {
                *slot = Block128::from_halves(
                    (w[0][j] as u64) | ((w[1][j] as u64) << 32),
                    (w[2][j] as u64) | ((w[3][j] as u64) << 32),
                );
            }
        }
    }
}
