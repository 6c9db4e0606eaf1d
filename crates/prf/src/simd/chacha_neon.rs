//! NEON 4-way block-parallel ChaCha20 sweeps (aarch64).
//!
//! Same structure as the AVX2 path, at half the width: four independent
//! blocks occupy the four u32 lanes of each `uint32x4_t` state vector, and
//! the 20-round schedule runs once across all of them. Adds, XORs and
//! rotations act lane-wise, so every lane computes exactly the scalar
//! result. NEON has a native per-lane rotate-by-constant idiom via
//! `vsriq_n_u32(vshlq_n_u32(x, n), x, 32 - n)`.

#![allow(unsafe_code)]

use core::arch::aarch64::{
    uint32x4_t, vaddq_u32, vdupq_n_u32, veorq_u32, vld1q_u32, vshlq_n_u32, vsriq_n_u32, vst1q_u32,
};

use pir_field::Block128;

/// Number of blocks processed per vector step (u32 lanes in a `uint32x4_t`).
pub(crate) const WIDTH: usize = 4;

macro_rules! rotl {
    ($x:expr, $n:literal, $m:literal) => {
        vsriq_n_u32::<$m>(vshlq_n_u32::<$n>($x), $x)
    };
}

// SAFETY: caller must ensure NEON is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn quarter_round(state: &mut [uint32x4_t; 16], a: usize, b: usize, c: usize, d: usize) {
    // SAFETY: register-only lane arithmetic; no memory preconditions.
    unsafe {
        state[a] = vaddq_u32(state[a], state[b]);
        state[d] = rotl!(veorq_u32(state[d], state[a]), 16, 16);
        state[c] = vaddq_u32(state[c], state[d]);
        state[b] = rotl!(veorq_u32(state[b], state[c]), 12, 20);
        state[a] = vaddq_u32(state[a], state[b]);
        state[d] = rotl!(veorq_u32(state[d], state[a]), 8, 24);
        state[c] = vaddq_u32(state[c], state[d]);
        state[b] = rotl!(veorq_u32(state[b], state[c]), 7, 25);
    }
}

/// Vectorized `eval_blocks` over a whole-multiple-of-[`WIDTH`] batch.
///
/// `nonces[w]` holds nonce word `w` of every lane: lane `j` of each vector
/// step evaluates under `(nonces[0][j], nonces[1][j], nonces[2][j])`. A
/// uniform sweep repeats one nonce in all lanes; a padded tail mixes both
/// child tweaks in one step.
///
/// Must only be called when the Neon backend passed runtime detection, and
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
    // SAFETY: caller contract — NEON available (baseline on aarch64).
    unsafe { eval_blocks_impl(key_high, nonces, inputs, out) }
}

#[target_feature(enable = "neon")]
unsafe fn eval_blocks_impl(
    key_high: &[u32; 4],
    nonces: &[[u32; WIDTH]; 3],
    inputs: &[Block128],
    out: &mut [Block128],
) {
    // SAFETY: NEON is enabled by the caller; Block128 is #[repr(transparent)]
    // over u128, so the word reads at base + 12 + j stay inside `inputs`
    // (whose length the safe wrapper checked to be a multiple of WIDTH);
    // each `nonces[w]` is 16 readable bytes, and the only stores target
    // local [u32; 4] arrays.
    unsafe {
        let constants: [uint32x4_t; 4] = [
            vdupq_n_u32(0x6170_7865),
            vdupq_n_u32(0x3320_646e),
            vdupq_n_u32(0x7962_2d32),
            vdupq_n_u32(0x6b20_6574),
        ];
        let key_high_v: [uint32x4_t; 4] = [
            vdupq_n_u32(key_high[0]),
            vdupq_n_u32(key_high[1]),
            vdupq_n_u32(key_high[2]),
            vdupq_n_u32(key_high[3]),
        ];
        let tail_v: [uint32x4_t; 4] = [
            vdupq_n_u32(0), // counter
            vld1q_u32(nonces[0].as_ptr()),
            vld1q_u32(nonces[1].as_ptr()),
            vld1q_u32(nonces[2].as_ptr()),
        ];

        // Block128 is #[repr(transparent)] over u128 — each block is four
        // contiguous little-endian u32 words.
        let words = inputs.as_ptr().cast::<u32>();

        for (chunk, out_chunk) in (0..inputs.len() / WIDTH).zip(out.chunks_exact_mut(WIDTH)) {
            let base = chunk * WIDTH * 4;
            // Transpose: vector j holds input word j of the four blocks;
            // base + 3 * 4 + j < inputs.len() * 4.
            let mut input_words = [constants[0]; 4];
            for (j, slot) in input_words.iter_mut().enumerate() {
                let gathered = [
                    *words.add(base + j),
                    *words.add(base + 4 + j),
                    *words.add(base + 8 + j),
                    *words.add(base + 12 + j),
                ];
                *slot = vld1q_u32(gathered.as_ptr());
            }

            let mut state: [uint32x4_t; 16] = [
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
            let outs = [
                vaddq_u32(state[0], constants[0]),
                vaddq_u32(state[1], constants[1]),
                vaddq_u32(state[2], constants[2]),
                vaddq_u32(state[3], constants[3]),
            ];

            // Transpose back: block j reads lane j of each output vector.
            let mut w = [[0u32; WIDTH]; 4];
            for (vector, lanes) in outs.into_iter().zip(w.iter_mut()) {
                vst1q_u32(lanes.as_mut_ptr(), vector);
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
