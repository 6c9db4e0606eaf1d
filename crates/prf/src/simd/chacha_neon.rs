//! NEON 4-way block-parallel ChaCha20 sweeps (aarch64).
//!
//! Same structure as the AVX2 path, at half the width: four independent
//! blocks occupy the four u32 lanes of each `uint32x4_t` state vector, and
//! the 20-round schedule runs once across all of them. Adds, XORs and
//! rotations act lane-wise, so every lane computes exactly the scalar
//! result. NEON has a native per-lane rotate-by-constant idiom via
//! `vsriq_n_u32(vshlq_n_u32(x, n), x, 32 - n)`. As on x86, each step stores
//! keystream words 0–3 (the even tweak of a pair), 4–7 (the odd one) or
//! both, with the Matyas–Meyer–Oseas XOR if asked (see `ChaCha20Prf`).

#![allow(unsafe_code)]

use core::arch::aarch64::{
    uint32x4_t, vaddq_u32, vandq_u32, vdupq_n_u32, veorq_u32, vld1q_dup_u32, vld1q_u32,
    vshlq_n_u32, vsriq_n_u32, vst1q_u32,
};

use pir_field::Block128;

use crate::chacha::{block_from_words, twenty_rounds, Halves, CONSTANTS};

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

/// Vectorized sweep over a whole-multiple-of-[`WIDTH`] batch under one
/// `nonce`, into [`Halves`], XORing each input into its outputs if `mmo`.
///
/// Must only be called when the Neon backend passed runtime detection, and
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
    // SAFETY: caller contract — NEON available (baseline on aarch64).
    unsafe { eval_blocks_impl(key_high, nonce, inputs, halves, mmo) }
}

#[target_feature(enable = "neon")]
unsafe fn eval_blocks_impl(
    key_high: &[u32; 4],
    nonce: &[u32; 3],
    inputs: &[Block128],
    halves: Halves<'_>,
    mmo: bool,
) {
    // SAFETY: NEON is enabled by the caller; Block128 is #[repr(transparent)]
    // over u128, so the word reads at base + 12 + j stay inside `inputs`
    // (whose length the safe wrapper checked to be a multiple of WIDTH), the
    // splat loads read one local u32 each, and the only stores target local
    // [u32; 4] arrays.
    unsafe {
        // Constants, key words 4–7, then counter and nonce: the same for
        // every block of the sweep.
        let splat = |words: [u32; 4]| words.map(|word| vld1q_dup_u32(&word));
        let constants = splat(CONSTANTS);
        let key_high_v = splat(*key_high);
        let tail = splat([0, nonce[0], nonce[1], nonce[2]]);
        let feed = vdupq_n_u32((mmo as u32).wrapping_neg());

        // Block128 is #[repr(transparent)] over u128 — each block is four
        // contiguous little-endian u32 words.
        let words = inputs.as_ptr().cast::<u32>();
        let mut outs = halves.map(|half| half.map(|out| out.as_chunks_mut::<WIDTH>().0.iter_mut()));

        for chunk in 0..inputs.len() / WIDTH {
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
            let parts = [constants, input_words, key_high_v, tail];
            let mut state: [uint32x4_t; 16] = core::array::from_fn(|i| parts[i / 4][i % 4]);
            twenty_rounds!(quarter_round, &mut state);

            // Feed-forward (constants into words 0–3, the input into 4–7)
            // and the MMO XOR, then transpose back: block j reads lane j of
            // each output vector.
            let [s0, s1, s2, s3, s4, s5, s6, s7, ..] = state;
            let words_out = [[s0, s1, s2, s3], [s4, s5, s6, s7]];
            for ((out, half), initial) in
                outs.iter_mut().zip(words_out).zip([constants, input_words])
            {
                let Some(out_chunk) = out.as_mut().and_then(Iterator::next) else {
                    continue;
                };
                let mut w = [[0u32; WIDTH]; 4];
                for (word, lanes) in w.iter_mut().enumerate() {
                    let fed = vandq_u32(input_words[word], feed);
                    let value = vaddq_u32(half[word], initial[word]);
                    vst1q_u32(lanes.as_mut_ptr(), veorq_u32(value, fed));
                }
                *out_chunk = core::array::from_fn(|j| block_from_words(w.map(|lanes| lanes[j])));
            }
        }
    }
}
