//! AES-NI and VAES sweeps for the AES-128 PRF.
//!
//! The scalar path computes standard FIPS-197 AES-128 with fused T-tables;
//! `AESENC`/`AESENCLAST` compute exactly one round of the same cipher on the
//! same little-endian column-major state layout, so the hardware path is
//! bit-identical by construction (and checked by the parity tests). The
//! expanded key schedule is already stored as little-endian column words,
//! whose memory image is precisely the 16 round-key bytes each `AESENC`
//! round expects — the keys are loaded directly, with no reshuffling.
//!
//! Eight blocks are kept in flight per loop iteration to cover the `AESENC`
//! latency (the instruction pipelines one block per cycle but takes several
//! cycles to retire, so a single dependent chain would idle the unit).
//!
//! On CPUs with VAES (`is_x86_feature_detected!("vaes")`, which std caches)
//! the paired GGM sweep runs a ymm kernel instead: `VAESENC ymm` is one round
//! on two blocks, and four ymm registers under both tweaks keep 16 blocks in
//! flight. Where the CPU also has AVX-512F, a zmm kernel takes whole 16-input
//! steps first: `VAESENC zmm` is one round on four blocks, and four zmm
//! registers under both tweaks keep 32 blocks in flight. The ymm and xmm
//! kernels take the remainder, and the xmm kernel every host without VAES.
//!
//! The kernels walk their slices in whole steps (`as_chunks`) and move blocks
//! through references, so they are memory-safe for any slices; `unsafe` is
//! left to the load/store helpers and to the calls into the
//! `#[target_feature]` kernels, which the detected backend justifies.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_aesenc_epi128, _mm256_aesenclast_epi128, _mm256_broadcastsi128_si256,
    _mm256_loadu_si256, _mm256_setzero_si256, _mm256_storeu_si256, _mm256_xor_si256,
    _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_setzero_si512,
    _mm512_xor_si512, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

use pir_field::Block128;

use super::chacha_x86::{load4, store4};

const ROUNDS: usize = 10;
const PIPELINE: usize = 8;
/// Inputs per step of the VAES pair sweep: four ymm registers of two blocks,
/// each encrypted under both tweaks.
const YMM_INPUTS: usize = 8;
/// Inputs per step of the zmm VAES pair sweep: four zmm registers of four
/// blocks, each encrypted under both tweaks.
const ZMM_INPUTS: usize = 16;

/// Whether the pair sweep's zmm kernel runs on this host (VAES and
/// AVX-512F); `Aes128Prf::backend_label` reports it.
pub(crate) fn has_zmm_kernel() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("vaes")
}

type RoundKeys = [__m128i; ROUNDS + 1];

/// `block` in an xmm register (a `Block128` is a transparent `u128`, whose
/// 16 bytes are the little-endian lane image).
#[inline(always)]
fn load(block: &Block128) -> __m128i {
    // SAFETY: `block` is 16 readable bytes; the load is unaligned.
    unsafe { _mm_loadu_si128((block as *const Block128).cast()) }
}

#[inline(always)]
fn store(slot: &mut Block128, value: __m128i) {
    // SAFETY: `slot` is 16 writable bytes of plain data; the store is
    // unaligned.
    unsafe { _mm_storeu_si128((slot as *mut Block128).cast(), value) }
}

/// Two adjacent blocks in the two lanes of a ymm register.
#[inline]
#[target_feature(enable = "avx")]
fn load2(pair: &[Block128; 2]) -> __m256i {
    // SAFETY: `pair` is 32 readable bytes; the load is unaligned.
    unsafe { _mm256_loadu_si256(pair.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx")]
fn store2(pair: &mut [Block128; 2], value: __m256i) {
    // SAFETY: `pair` is 32 writable bytes of plain data; the store is
    // unaligned.
    unsafe { _mm256_storeu_si256(pair.as_mut_ptr().cast(), value) }
}

fn load_round_keys(columns: &[[u32; 4]; ROUNDS + 1]) -> RoundKeys {
    // SAFETY: each column is 16 readable bytes; the loads are unaligned.
    columns.map(|column| unsafe { _mm_loadu_si128(column.as_ptr().cast()) })
}

/// Encrypt one loaded state (already XORed with the tweak mask).
#[inline]
#[target_feature(enable = "aes")]
fn encrypt(keys: &RoundKeys, mut state: __m128i) -> __m128i {
    state = _mm_xor_si128(state, keys[0]);
    for key in keys.iter().take(ROUNDS).skip(1) {
        state = _mm_aesenc_si128(state, *key);
    }
    _mm_aesenclast_si128(state, keys[ROUNDS])
}

/// `out[i] = AES_k(inputs[i] ^ mask)` for every block.
///
/// Must only be called when the Avx2 backend (which requires AES-NI) passed
/// runtime detection.
pub(crate) fn eval_blocks(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask: Block128,
    inputs: &[Block128],
    out: &mut [Block128],
) {
    assert_eq!(inputs.len(), out.len(), "input/output length mismatch");
    // SAFETY: caller contract — the Avx2 backend detected AES-NI at runtime.
    unsafe { eval_blocks_impl(columns, mask, inputs, out) }
}

#[target_feature(enable = "aes")]
fn eval_blocks_impl(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask: Block128,
    inputs: &[Block128],
    out: &mut [Block128],
) {
    let keys = load_round_keys(columns);
    let mask_v = load(&mask);
    let (steps, tail) = inputs.as_chunks::<PIPELINE>();
    let (out_steps, out_tail) = out.as_chunks_mut::<PIPELINE>();
    for (step, slots) in steps.iter().zip(out_steps) {
        let mut states = [_mm_setzero_si128(); PIPELINE];
        for (state, block) in states.iter_mut().zip(step) {
            *state = _mm_xor_si128(load(block), mask_v);
        }
        for state in &mut states {
            *state = encrypt(&keys, *state);
        }
        for (slot, state) in slots.iter_mut().zip(states) {
            store(slot, state);
        }
    }
    for (block, slot) in tail.iter().zip(out_tail) {
        store(slot, encrypt(&keys, _mm_xor_si128(load(block), mask_v)));
    }
}

/// The paired-tweak GGM sweep: `out_a[i] = AES_k(inputs[i] ^ mask_a)` and
/// likewise for `b`, with the Matyas–Meyer–Oseas feed-forward
/// (`^ inputs[i]`) fused in when `mmo` is set.
///
/// Loading each input once and encrypting it under both tweak masks halves
/// the memory traffic of two separate sweeps; the two states per input also
/// provide the instruction-level parallelism `AESENC` wants. Whole 16-input
/// steps take the zmm VAES kernel where the CPU has VAES and AVX-512F, whole
/// 8-input steps of the rest the ymm VAES kernel where it has VAES, and what
/// is left the AES-NI one.
///
/// Must only be called when the Avx2 backend passed runtime detection.
/// Always inlined: out of line, this dispatch cost a lone-node expansion
/// (`GgmPrg::expand`) 1.3 ns of extra call.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_sweep(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask_a: Block128,
    mask_b: Block128,
    inputs: &[Block128],
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    assert_eq!(inputs.len(), out_a.len(), "paired sweep length mismatch");
    assert_eq!(inputs.len(), out_b.len(), "paired sweep length mismatch");
    let wide = inputs.len() / ZMM_INPUTS * ZMM_INPUTS;
    let (inputs, out_a, out_b) = if wide > 0 && has_zmm_kernel() {
        let (head, tail) = inputs.split_at(wide);
        let (head_a, tail_a) = out_a.split_at_mut(wide);
        let (head_b, tail_b) = out_b.split_at_mut(wide);
        // SAFETY: VAES and AVX-512F are detected above.
        unsafe { pair_sweep_zmm(columns, mask_a, mask_b, head, head_a, head_b, mmo) };
        (tail, tail_a, tail_b)
    } else {
        (inputs, out_a, out_b)
    };
    let wide = inputs.len() / YMM_INPUTS * YMM_INPUTS;
    let (inputs, out_a, out_b) = if wide > 0 && std::arch::is_x86_feature_detected!("vaes") {
        let (head, tail) = inputs.split_at(wide);
        let (head_a, tail_a) = out_a.split_at_mut(wide);
        let (head_b, tail_b) = out_b.split_at_mut(wide);
        // SAFETY: caller contract — the Avx2 backend detected AVX2 at
        // runtime; VAES is detected above.
        unsafe { pair_sweep_ymm(columns, mask_a, mask_b, head, head_a, head_b, mmo) };
        (tail, tail_a, tail_b)
    } else {
        (inputs, out_a, out_b)
    };
    // SAFETY: caller contract — the Avx2 backend detected AES-NI at runtime.
    unsafe { pair_sweep_xmm(columns, mask_a, mask_b, inputs, out_a, out_b, mmo) }
}

/// The AES-NI pair sweep over any number of inputs (equal-length slices).
#[target_feature(enable = "aes")]
#[allow(clippy::too_many_arguments)]
fn pair_sweep_xmm(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask_a: Block128,
    mask_b: Block128,
    inputs: &[Block128],
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    let keys = load_round_keys(columns);
    let mask_a_v = load(&mask_a);
    let mask_b_v = load(&mask_b);

    const PAIRS: usize = PIPELINE / 2;
    let (steps, tail) = inputs.as_chunks::<PAIRS>();
    let (steps_a, tail_a) = out_a.as_chunks_mut::<PAIRS>();
    let (steps_b, tail_b) = out_b.as_chunks_mut::<PAIRS>();
    for ((step, slots_a), slots_b) in steps.iter().zip(steps_a).zip(steps_b) {
        let mut loaded = [_mm_setzero_si128(); PAIRS];
        let mut states_a = [_mm_setzero_si128(); PAIRS];
        let mut states_b = [_mm_setzero_si128(); PAIRS];
        for j in 0..PAIRS {
            loaded[j] = load(&step[j]);
            states_a[j] = _mm_xor_si128(loaded[j], mask_a_v);
            states_b[j] = _mm_xor_si128(loaded[j], mask_b_v);
        }
        for j in 0..PAIRS {
            states_a[j] = encrypt(&keys, states_a[j]);
            states_b[j] = encrypt(&keys, states_b[j]);
        }
        for j in 0..PAIRS {
            if mmo {
                states_a[j] = _mm_xor_si128(states_a[j], loaded[j]);
                states_b[j] = _mm_xor_si128(states_b[j], loaded[j]);
            }
            store(&mut slots_a[j], states_a[j]);
            store(&mut slots_b[j], states_b[j]);
        }
    }
    for ((block, slot_a), slot_b) in tail.iter().zip(tail_a).zip(tail_b) {
        let input = load(block);
        let mut ca = encrypt(&keys, _mm_xor_si128(input, mask_a_v));
        let mut cb = encrypt(&keys, _mm_xor_si128(input, mask_b_v));
        if mmo {
            ca = _mm_xor_si128(ca, input);
            cb = _mm_xor_si128(cb, input);
        }
        store(slot_a, ca);
        store(slot_b, cb);
    }
}

/// The VAES pair sweep over whole [`YMM_INPUTS`]-input steps (equal-length
/// slices, a multiple of the step long): each round key is broadcast to both
/// lanes, and every round is applied to all eight states before the next.
#[target_feature(enable = "avx2,vaes")]
#[allow(clippy::too_many_arguments)]
fn pair_sweep_ymm(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask_a: Block128,
    mask_b: Block128,
    inputs: &[Block128],
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    assert_eq!(inputs.len() % YMM_INPUTS, 0, "whole VAES steps only");
    let mut keys = [_mm256_setzero_si256(); ROUNDS + 1];
    for (wide, narrow) in keys.iter_mut().zip(load_round_keys(columns)) {
        *wide = _mm256_broadcastsi128_si256(narrow);
    }
    // The tweak mask and round-0 key fold into one whitening XOR.
    let whiten_a = _mm256_xor_si256(_mm256_broadcastsi128_si256(load(&mask_a)), keys[0]);
    let whiten_b = _mm256_xor_si256(_mm256_broadcastsi128_si256(load(&mask_b)), keys[0]);

    // Each step is `REGS` registers of two blocks.
    const REGS: usize = YMM_INPUTS / 2;
    let (pairs, _) = inputs.as_chunks::<2>();
    let (pairs_a, _) = out_a.as_chunks_mut::<2>();
    let (pairs_b, _) = out_b.as_chunks_mut::<2>();
    let (steps, _) = pairs.as_chunks::<REGS>();
    let (steps_a, _) = pairs_a.as_chunks_mut::<REGS>();
    let (steps_b, _) = pairs_b.as_chunks_mut::<REGS>();
    for ((step, slots_a), slots_b) in steps.iter().zip(steps_a).zip(steps_b) {
        let mut loaded = [_mm256_setzero_si256(); REGS];
        // States `[0, REGS)` under tweak a, `[REGS, 2 * REGS)` under b.
        let mut states = [_mm256_setzero_si256(); 2 * REGS];
        for j in 0..REGS {
            loaded[j] = load2(&step[j]);
            states[j] = _mm256_xor_si256(loaded[j], whiten_a);
            states[REGS + j] = _mm256_xor_si256(loaded[j], whiten_b);
        }
        for key in &keys[1..ROUNDS] {
            for state in &mut states {
                *state = _mm256_aesenc_epi128(*state, *key);
            }
        }
        for state in &mut states {
            *state = _mm256_aesenclast_epi128(*state, keys[ROUNDS]);
        }
        for j in 0..REGS {
            let (mut ca, mut cb) = (states[j], states[REGS + j]);
            if mmo {
                ca = _mm256_xor_si256(ca, loaded[j]);
                cb = _mm256_xor_si256(cb, loaded[j]);
            }
            store2(&mut slots_a[j], ca);
            store2(&mut slots_b[j], cb);
        }
    }
}

/// The zmm VAES pair sweep over whole [`ZMM_INPUTS`]-input steps
/// (equal-length slices, a multiple of the step long): [`pair_sweep_ymm`]
/// with each round key broadcast to four lanes.
#[target_feature(enable = "avx512f,vaes")]
#[allow(clippy::too_many_arguments)]
fn pair_sweep_zmm(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask_a: Block128,
    mask_b: Block128,
    inputs: &[Block128],
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    assert_eq!(inputs.len() % ZMM_INPUTS, 0, "whole zmm steps only");
    let mut keys = [_mm512_setzero_si512(); ROUNDS + 1];
    for (wide, narrow) in keys.iter_mut().zip(load_round_keys(columns)) {
        *wide = _mm512_broadcast_i32x4(narrow);
    }
    let whiten_a = _mm512_xor_si512(_mm512_broadcast_i32x4(load(&mask_a)), keys[0]);
    let whiten_b = _mm512_xor_si512(_mm512_broadcast_i32x4(load(&mask_b)), keys[0]);

    // Each step is `REGS` registers of four blocks.
    const REGS: usize = ZMM_INPUTS / 4;
    let (quads, _) = inputs.as_chunks::<4>();
    let (quads_a, _) = out_a.as_chunks_mut::<4>();
    let (quads_b, _) = out_b.as_chunks_mut::<4>();
    let (steps, _) = quads.as_chunks::<REGS>();
    let (steps_a, _) = quads_a.as_chunks_mut::<REGS>();
    let (steps_b, _) = quads_b.as_chunks_mut::<REGS>();
    for ((step, slots_a), slots_b) in steps.iter().zip(steps_a).zip(steps_b) {
        let mut loaded = [_mm512_setzero_si512(); REGS];
        // States `[0, REGS)` under tweak a, `[REGS, 2 * REGS)` under b.
        let mut states = [_mm512_setzero_si512(); 2 * REGS];
        for j in 0..REGS {
            loaded[j] = load4(&step[j]);
            states[j] = _mm512_xor_si512(loaded[j], whiten_a);
            states[REGS + j] = _mm512_xor_si512(loaded[j], whiten_b);
        }
        for key in &keys[1..ROUNDS] {
            for state in &mut states {
                *state = _mm512_aesenc_epi128(*state, *key);
            }
        }
        for state in &mut states {
            *state = _mm512_aesenclast_epi128(*state, keys[ROUNDS]);
        }
        for j in 0..REGS {
            let (mut ca, mut cb) = (states[j], states[REGS + j]);
            if mmo {
                ca = _mm512_xor_si512(ca, loaded[j]);
                cb = _mm512_xor_si512(cb, loaded[j]);
            }
            store4(&mut slots_a[j], ca);
            store4(&mut slots_b[j], cb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use pir_field::SimdBackend;

    /// The three kernels, called directly, against the scalar cipher: on a
    /// host with VAES and AVX-512F the public sweep routes whole 16-input
    /// steps to the zmm kernel and only remainders to the narrower ones, so
    /// each kernel is checked on its own here.
    #[test]
    fn pair_sweep_kernels_match_scalar() {
        if !SimdBackend::Avx2.is_supported() {
            eprintln!("skipped every kernel: this host lacks AVX2/AES-NI");
            return;
        }
        let cipher = Aes128::new(*b"kernel-parity-k!");
        let columns = &cipher.round_key_columns;
        let (mask_a, mask_b) = (Block128::from_u128(0xA5 << 64 | 3), Block128::from_u128(7));
        let vaes = std::arch::is_x86_feature_detected!("vaes");
        if !vaes {
            eprintln!("skipped the ymm and zmm kernels: this host lacks VAES (xmm kernel checked)");
        }
        let zmm = has_zmm_kernel();
        if vaes && !zmm {
            eprintln!("skipped the zmm kernel: this host lacks AVX-512F (xmm and ymm checked)");
        }
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 48, 64] {
            let inputs: Vec<Block128> = (0..len as u128)
                .map(|i| Block128::from_u128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1))
                .collect();
            for mmo in [false, true] {
                let reference = |mask: Block128| -> Vec<Block128> {
                    inputs
                        .iter()
                        .map(|x| {
                            let c = Block128::from_le_bytes(
                                cipher.encrypt_block((*x ^ mask).to_le_bytes()),
                            );
                            if mmo {
                                c ^ *x
                            } else {
                                c
                            }
                        })
                        .collect()
                };
                let (want_a, want_b) = (reference(mask_a), reference(mask_b));
                type Kernel = fn(
                    &[[u32; 4]; ROUNDS + 1],
                    Block128,
                    Block128,
                    &[Block128],
                    &mut [Block128],
                    &mut [Block128],
                    bool,
                );
                // Each kernel over the longest prefix of whole steps it takes.
                let mut kernels: Vec<(&str, usize, Kernel)> = vec![
                    ("public", 1, pair_sweep),
                    ("xmm", 1, |c, a, b, i, oa, ob, m| {
                        // SAFETY: AES-NI checked at the top of the test.
                        unsafe { pair_sweep_xmm(c, a, b, i, oa, ob, m) }
                    }),
                ];
                if vaes {
                    kernels.push(("ymm", YMM_INPUTS, |c, a, b, i, oa, ob, m| {
                        // SAFETY: AVX2 checked at the top of the test, VAES above.
                        unsafe { pair_sweep_ymm(c, a, b, i, oa, ob, m) }
                    }));
                }
                if zmm {
                    kernels.push(("zmm", ZMM_INPUTS, |c, a, b, i, oa, ob, m| {
                        // SAFETY: VAES and AVX-512F checked above.
                        unsafe { pair_sweep_zmm(c, a, b, i, oa, ob, m) }
                    }));
                }
                for (name, step, kernel) in kernels {
                    let whole = len / step * step;
                    let mut got_a = vec![Block128::ZERO; whole];
                    let mut got_b = vec![Block128::ZERO; whole];
                    kernel(
                        columns,
                        mask_a,
                        mask_b,
                        &inputs[..whole],
                        &mut got_a,
                        &mut got_b,
                        mmo,
                    );
                    assert_eq!(
                        (&got_a[..], &got_b[..]),
                        (&want_a[..whole], &want_b[..whole]),
                        "{name} len={whole} mmo={mmo}"
                    );
                }
            }
        }
    }
}
