//! AVX2 8-way and AVX-512 16-way block-parallel ChaCha20 sweeps.
//!
//! The scalar PRF runs one 20-round ChaCha20 block function per input with
//! the input occupying key words 0–3. ChaCha has no intra-block parallelism
//! to speak of (the quarter-rounds form one dependency chain), but blocks
//! are fully independent, so the vector path transposes eight inputs into
//! sixteen `__m256i` state vectors — lane `j` of every vector belongs to
//! block `j` — and runs the identical round schedule once. Adds, XORs and
//! shifts act lane-wise, so every lane computes exactly the scalar result.
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
    __m256i, __m512i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi32,
    _mm256_setr_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
    _mm256_storeu_si256, _mm256_xor_si256, _mm512_add_epi32, _mm512_broadcast_i64x4,
    _mm512_loadu_si512, _mm512_permutex2var_epi32, _mm512_rol_epi32, _mm512_set1_epi32,
    _mm512_setr_epi32, _mm512_setzero_si512, _mm512_shuffle_i64x2, _mm512_storeu_si512,
    _mm512_xor_si512,
};
use core::slice;

use pir_field::Block128;

use crate::chacha::CONSTANTS;

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

/// Vectorized `eval_blocks` over a whole-multiple-of-[`WIDTH`] batch.
///
/// `nonces[w]` holds nonce word `w` of every lane: lane `j` of each vector
/// step evaluates under `(nonces[0][j], nonces[1][j], nonces[2][j])`. A
/// uniform sweep repeats one nonce in all lanes; a padded tail mixes both
/// child tweaks in one step.
///
/// Whole [`ZMM_WIDTH`]-block steps take the zmm kernel where the CPU has
/// AVX-512F (each of its steps is two `WIDTH` steps, lane `j` and lane
/// `WIDTH + j` under the same nonce), the rest the ymm kernel.
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
    let wide = inputs.len() / ZMM_WIDTH * ZMM_WIDTH;
    let (inputs, out) = if wide > 0 && std::arch::is_x86_feature_detected!("avx512f") {
        let (head, tail) = inputs.split_at(wide);
        let (head_out, tail_out) = out.split_at_mut(wide);
        // SAFETY: AVX-512F is detected above.
        unsafe { eval_blocks_zmm(key_high, nonces, head, head_out) };
        (tail, tail_out)
    } else {
        (inputs, out)
    };
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { eval_blocks_ymm(key_high, nonces, inputs, out) }
}

/// The ymm kernel over whole [`WIDTH`]-block steps.
#[target_feature(enable = "avx2")]
fn eval_blocks_ymm(
    key_high: &[u32; 4],
    nonces: &[[u32; WIDTH]; 3],
    inputs: &[Block128],
    out: &mut [Block128],
) {
    // The state words that do not depend on the input are the same for every
    // block of the sweep.
    let constants = CONSTANTS.map(|word| _mm256_set1_epi32(word as i32));
    let key_high_v = key_high.map(|word| _mm256_set1_epi32(word as i32));
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

/// The zmm kernel over whole [`ZMM_WIDTH`]-block steps: lanes `j` and
/// `WIDTH + j` of every step under nonce lane `j`.
#[target_feature(enable = "avx512f")]
fn eval_blocks_zmm(
    key_high: &[u32; 4],
    nonces: &[[u32; WIDTH]; 3],
    inputs: &[Block128],
    out: &mut [Block128],
) {
    assert_eq!(inputs.len() % ZMM_WIDTH, 0, "whole zmm steps only");
    let constants = CONSTANTS.map(|word| _mm512_set1_epi32(word as i32));
    let key_high_v = key_high.map(|word| _mm512_set1_epi32(word as i32));
    // Lanes `j` and `WIDTH + j` share nonce lane `j`.
    let nonce_v = nonces.map(|lanes| {
        // SAFETY: `lanes` is 32 readable bytes; the load is unaligned.
        let half = unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) };
        _mm512_broadcast_i64x4(half)
    });

    let (steps, _) = inputs.as_chunks::<ZMM_WIDTH>();
    let (out_steps, _) = out.as_chunks_mut::<ZMM_WIDTH>();
    for (step, out_step) in steps.iter().zip(out_steps) {
        let (rows, _) = step.as_chunks::<4>();
        let input_words = to_word_major([
            load4(&rows[0]),
            load4(&rows[1]),
            load4(&rows[2]),
            load4(&rows[3]),
        ]);
        let mut state: [__m512i; 16] = [
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
            _mm512_setzero_si512(), // counter
            nonce_v[0],
            nonce_v[1],
            nonce_v[2],
        ];
        for _ in 0..10 {
            quarter_round_zmm(&mut state, 0, 4, 8, 12);
            quarter_round_zmm(&mut state, 1, 5, 9, 13);
            quarter_round_zmm(&mut state, 2, 6, 10, 14);
            quarter_round_zmm(&mut state, 3, 7, 11, 15);
            quarter_round_zmm(&mut state, 0, 5, 10, 15);
            quarter_round_zmm(&mut state, 1, 6, 11, 12);
            quarter_round_zmm(&mut state, 2, 7, 8, 13);
            quarter_round_zmm(&mut state, 3, 4, 9, 14);
        }
        // Feed-forward of the initial state; only words 0–3 are emitted.
        let rows_out = to_block_major([
            _mm512_add_epi32(state[0], constants[0]),
            _mm512_add_epi32(state[1], constants[1]),
            _mm512_add_epi32(state[2], constants[2]),
            _mm512_add_epi32(state[3], constants[3]),
        ]);
        let (slots, _) = out_step.as_chunks_mut::<4>();
        for (slot, row) in slots.iter_mut().zip(rows_out) {
            store4(slot, row);
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
    /// vice versa). Every lane of a step runs under its own tweak.
    #[test]
    fn kernels_match_scalar() {
        if !SimdBackend::Avx2.is_supported() {
            eprintln!("skipped both kernels: this host lacks AVX2");
            return;
        }
        let key_high = [0x0123_4567, 0x89ab_cdef, 0xfedc_ba98, 0x7654_3210];
        let prf = ChaCha20Prf::new(key_high);
        let tweaks: [u64; WIDTH] =
            core::array::from_fn(|j| (j as u64 % 3) << 32 | (j as u64).wrapping_mul(0x9e37));
        let mut nonces = [[0u32; WIDTH]; 3];
        for (lane, tweak) in tweaks.iter().enumerate() {
            for (lanes, word) in nonces.iter_mut().zip(ChaCha20Prf::nonce(*tweak)) {
                lanes[lane] = word;
            }
        }
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        if !avx512 {
            eprintln!("skipped the zmm kernel: this host lacks AVX-512F (ymm kernel checked)");
        }
        // The kernels take whole steps: every multiple of `WIDTH` up to 40.
        for len in (0..=40).step_by(WIDTH) {
            let inputs: Vec<Block128> = (0..len as u128)
                .map(|i| Block128::from_u128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1))
                .collect();
            let want: Vec<Block128> = inputs
                .iter()
                .enumerate()
                .map(|(i, x)| prf.eval_block(*x, tweaks[i % WIDTH]))
                .collect();
            let mut got = vec![Block128::ZERO; len];
            // SAFETY: AVX2 checked at the top of the test.
            unsafe { eval_blocks_ymm(&key_high, &nonces, &inputs, &mut got) };
            assert_eq!(got, want, "ymm len={len}");

            if avx512 {
                let whole = len / ZMM_WIDTH * ZMM_WIDTH;
                let mut got = vec![Block128::ZERO; whole];
                // SAFETY: AVX-512F checked above.
                unsafe { eval_blocks_zmm(&key_high, &nonces, &inputs[..whole], &mut got) };
                assert_eq!(got[..], want[..whole], "zmm len={whole}");
            }
        }
    }
}
