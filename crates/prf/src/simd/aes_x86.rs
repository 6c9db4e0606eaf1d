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
//! On CPUs with VAES (CPUID leaf 7, ECX bit 9) the paired GGM sweep runs a
//! ymm kernel instead: `VAESENC ymm` is one round on two blocks, and four
//! ymm registers under both tweaks keep 16 blocks in flight. The xmm kernel
//! takes the sub-step tail and every host without VAES. The `vaes` target
//! feature and `is_x86_feature_detected!("vaes")` are newer than the
//! workspace MSRV (1.87), so the two VAES instructions are emitted with
//! `asm!` on `ymm_reg` operands inside `avx2` functions, and the CPU bit is
//! read with `CPUID` directly.

#![allow(unsafe_code)]

use core::arch::asm;
use core::arch::x86_64::{
    __m128i, __m256i, _mm256_broadcastsi128_si256, _mm256_loadu_si256, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
    _mm_xor_si128,
};
use std::sync::OnceLock;

use pir_field::Block128;

const ROUNDS: usize = 10;
const PIPELINE: usize = 8;
/// Inputs per step of the VAES pair sweep: four ymm registers of two blocks,
/// each encrypted under both tweaks.
const YMM_INPUTS: usize = 8;

type RoundKeys = [__m128i; ROUNDS + 1];

/// Whether the running CPU implements VAES, read once per process.
///
/// Only consulted behind the Avx2 backend, whose detection already proved
/// AVX2 and the OS-enabled ymm state the VAES kernel also needs.
// `__cpuid_count` is an `unsafe fn` on older toolchains only.
#[allow(unused_unsafe)]
pub(crate) fn has_vaes() -> bool {
    use core::arch::x86_64::__cpuid_count;
    static VAES: OnceLock<bool> = OnceLock::new();
    // SAFETY: CPUID exists on every x86_64 CPU, and leaf 7 is read only when
    // leaf 0 reports it as implemented.
    *VAES.get_or_init(|| unsafe {
        __cpuid_count(0, 0).eax >= 7 && __cpuid_count(7, 0).ecx & (1 << 9) != 0
    })
}

// SAFETY: caller must ensure AES-NI is available (`#[target_feature]`).
#[target_feature(enable = "aes")]
unsafe fn load_round_keys(columns: &[[u32; 4]; ROUNDS + 1]) -> RoundKeys {
    // SAFETY: an all-zero __m128i is a valid value; each [u32; 4] column is
    // 16 readable bytes and the loads are unaligned.
    unsafe {
        let mut keys = [core::mem::zeroed(); ROUNDS + 1];
        for (key, column) in keys.iter_mut().zip(columns) {
            *key = _mm_loadu_si128(column.as_ptr().cast::<__m128i>());
        }
        keys
    }
}

/// Encrypt one loaded state (already XORed with the tweak mask).
// SAFETY: caller must ensure AES-NI is available (`#[target_feature]`).
#[inline]
#[target_feature(enable = "aes")]
unsafe fn encrypt(keys: &RoundKeys, mut state: __m128i) -> __m128i {
    state = _mm_xor_si128(state, keys[0]);
    for key in keys.iter().take(ROUNDS).skip(1) {
        state = _mm_aesenc_si128(state, *key);
    }
    _mm_aesenclast_si128(state, keys[ROUNDS])
}

/// `VAESENC ymm`: one middle AES round on both 128-bit lanes of `state`.
// SAFETY: caller must ensure AVX2 and VAES are available (`has_vaes`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vaesenc(state: __m256i, round_key: __m256i) -> __m256i {
    let out: __m256i;
    // SAFETY: register-only instruction (no memory, stack or flags); the
    // caller guarantees the CPU implements VAES.
    unsafe {
        asm!(
            "vaesenc {out}, {state}, {key}",
            out = lateout(ymm_reg) out,
            state = in(ymm_reg) state,
            key = in(ymm_reg) round_key,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    out
}

/// `VAESENCLAST ymm`: the final AES round on both 128-bit lanes of `state`.
// SAFETY: caller must ensure AVX2 and VAES are available (`has_vaes`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vaesenclast(state: __m256i, round_key: __m256i) -> __m256i {
    let out: __m256i;
    // SAFETY: register-only instruction (no memory, stack or flags); the
    // caller guarantees the CPU implements VAES.
    unsafe {
        asm!(
            "vaesenclast {out}, {state}, {key}",
            out = lateout(ymm_reg) out,
            state = in(ymm_reg) state,
            key = in(ymm_reg) round_key,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    out
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
    debug_assert_eq!(inputs.len(), out.len());
    // SAFETY: caller contract — AES-NI detected at runtime.
    unsafe { eval_blocks_impl(columns, mask, inputs, out) }
}

#[target_feature(enable = "aes")]
unsafe fn eval_blocks_impl(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask: Block128,
    inputs: &[Block128],
    out: &mut [Block128],
) {
    // SAFETY: Block128 is #[repr(transparent)] over u128 — 16 raw LE bytes —
    // so the unaligned loads/stores at offsets < len stay in bounds of the
    // equal-length `inputs`/`out` slices; AES-NI is enabled by the caller.
    unsafe {
        let keys = load_round_keys(columns);
        let mask_bytes = mask.to_le_bytes();
        let mask_v = _mm_loadu_si128(mask_bytes.as_ptr().cast::<__m128i>());

        let len = inputs.len();
        let in_ptr = inputs.as_ptr().cast::<__m128i>();
        let out_ptr = out.as_mut_ptr().cast::<__m128i>();

        let full = len / PIPELINE * PIPELINE;
        let mut i = 0;
        while i < full {
            let mut states = [core::mem::zeroed::<__m128i>(); PIPELINE];
            for (j, state) in states.iter_mut().enumerate() {
                *state = _mm_xor_si128(_mm_loadu_si128(in_ptr.add(i + j)), mask_v);
            }
            for state in &mut states {
                *state = encrypt(&keys, *state);
            }
            for (j, state) in states.iter().enumerate() {
                _mm_storeu_si128(out_ptr.add(i + j), *state);
            }
            i += PIPELINE;
        }
        while i < len {
            let state = _mm_xor_si128(_mm_loadu_si128(in_ptr.add(i)), mask_v);
            _mm_storeu_si128(out_ptr.add(i), encrypt(&keys, state));
            i += 1;
        }
    }
}

/// The paired-tweak GGM sweep: `out_a[i] = AES_k(inputs[i] ^ mask_a)` and
/// likewise for `b`, with the Matyas–Meyer–Oseas feed-forward
/// (`^ inputs[i]`) fused in when `mmo` is set.
///
/// Loading each input once and encrypting it under both tweak masks halves
/// the memory traffic of two separate sweeps; the two states per input also
/// provide the instruction-level parallelism `AESENC` wants. Whole 8-input
/// steps take the VAES kernel where the CPU has it, the rest the AES-NI one.
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
    let wide = inputs.len() / YMM_INPUTS * YMM_INPUTS;
    let (inputs, out_a, out_b) = if wide > 0 && has_vaes() {
        let (head, tail) = inputs.split_at(wide);
        let (head_a, tail_a) = out_a.split_at_mut(wide);
        let (head_b, tail_b) = out_b.split_at_mut(wide);
        // SAFETY: caller contract — AVX2 detected at runtime; VAES checked
        // above; `head` is a whole number of steps.
        unsafe { pair_sweep_ymm(columns, mask_a, mask_b, head, head_a, head_b, mmo) };
        (tail, tail_a, tail_b)
    } else {
        (inputs, out_a, out_b)
    };
    // SAFETY: caller contract — AES-NI detected at runtime.
    unsafe { pair_sweep_xmm(columns, mask_a, mask_b, inputs, out_a, out_b, mmo) }
}

/// The AES-NI pair sweep over any number of inputs (equal-length slices).
// SAFETY: caller must ensure AES-NI is available (`#[target_feature]`).
#[target_feature(enable = "aes")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_sweep_xmm(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask_a: Block128,
    mask_b: Block128,
    inputs: &[Block128],
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    // SAFETY: Block128 is #[repr(transparent)] over u128, so the unaligned
    // loads/stores at offsets < len stay in bounds of the equal-length
    // `inputs`/`out_a`/`out_b` slices; AES-NI is enabled by the caller.
    unsafe {
        let keys = load_round_keys(columns);
        let mask_a_bytes = mask_a.to_le_bytes();
        let mask_b_bytes = mask_b.to_le_bytes();
        let mask_a_v = _mm_loadu_si128(mask_a_bytes.as_ptr().cast::<__m128i>());
        let mask_b_v = _mm_loadu_si128(mask_b_bytes.as_ptr().cast::<__m128i>());

        let len = inputs.len();
        let in_ptr = inputs.as_ptr().cast::<__m128i>();
        let a_ptr = out_a.as_mut_ptr().cast::<__m128i>();
        let b_ptr = out_b.as_mut_ptr().cast::<__m128i>();

        const PAIRS: usize = PIPELINE / 2;
        let full = len / PAIRS * PAIRS;
        let mut i = 0;
        while i < full {
            let mut loaded = [core::mem::zeroed::<__m128i>(); PAIRS];
            let mut states_a = [core::mem::zeroed::<__m128i>(); PAIRS];
            let mut states_b = [core::mem::zeroed::<__m128i>(); PAIRS];
            for j in 0..PAIRS {
                loaded[j] = _mm_loadu_si128(in_ptr.add(i + j));
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
                _mm_storeu_si128(a_ptr.add(i + j), states_a[j]);
                _mm_storeu_si128(b_ptr.add(i + j), states_b[j]);
            }
            i += PAIRS;
        }
        while i < len {
            let input = _mm_loadu_si128(in_ptr.add(i));
            let mut ca = encrypt(&keys, _mm_xor_si128(input, mask_a_v));
            let mut cb = encrypt(&keys, _mm_xor_si128(input, mask_b_v));
            if mmo {
                ca = _mm_xor_si128(ca, input);
                cb = _mm_xor_si128(cb, input);
            }
            _mm_storeu_si128(a_ptr.add(i), ca);
            _mm_storeu_si128(b_ptr.add(i), cb);
            i += 1;
        }
    }
}

/// The VAES pair sweep over whole [`YMM_INPUTS`]-input steps (equal-length
/// slices, a multiple of the step long): each round key is broadcast to both
/// lanes, and every round is applied to all eight states before the next.
// SAFETY: caller must ensure AVX2 and VAES are available (`has_vaes`).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_sweep_ymm(
    columns: &[[u32; 4]; ROUNDS + 1],
    mask_a: Block128,
    mask_b: Block128,
    inputs: &[Block128],
    out_a: &mut [Block128],
    out_b: &mut [Block128],
    mmo: bool,
) {
    debug_assert_eq!(inputs.len() % YMM_INPUTS, 0);
    // SAFETY: AVX2 (hence AES-NI per the backend's detection) and VAES are
    // guaranteed by the caller. Block128 is #[repr(transparent)] over u128,
    // so a 32-byte unaligned load/store at block offset `i + 2j` with
    // `i + 2j + 2 <= len` stays in bounds of the equal-length slices.
    unsafe {
        let mut keys = [core::mem::zeroed::<__m256i>(); ROUNDS + 1];
        for (wide, narrow) in keys.iter_mut().zip(load_round_keys(columns)) {
            *wide = _mm256_broadcastsi128_si256(narrow);
        }
        let broadcast = |mask: Block128| {
            let bytes = mask.to_le_bytes();
            _mm256_broadcastsi128_si256(_mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()))
        };
        // The tweak mask and round-0 key fold into one whitening XOR.
        let whiten_a = _mm256_xor_si256(broadcast(mask_a), keys[0]);
        let whiten_b = _mm256_xor_si256(broadcast(mask_b), keys[0]);

        let in_ptr = inputs.as_ptr();
        let a_ptr = out_a.as_mut_ptr();
        let b_ptr = out_b.as_mut_ptr();

        const REGS: usize = YMM_INPUTS / 2;
        let mut i = 0;
        while i < inputs.len() {
            let mut loaded = [core::mem::zeroed::<__m256i>(); REGS];
            // States `[0, REGS)` under tweak a, `[REGS, 2 * REGS)` under b.
            let mut states = [core::mem::zeroed::<__m256i>(); 2 * REGS];
            for j in 0..REGS {
                loaded[j] = _mm256_loadu_si256(in_ptr.add(i + 2 * j).cast::<__m256i>());
                states[j] = _mm256_xor_si256(loaded[j], whiten_a);
                states[REGS + j] = _mm256_xor_si256(loaded[j], whiten_b);
            }
            for key in &keys[1..ROUNDS] {
                for state in &mut states {
                    *state = vaesenc(*state, *key);
                }
            }
            for state in &mut states {
                *state = vaesenclast(*state, keys[ROUNDS]);
            }
            for j in 0..REGS {
                let (mut ca, mut cb) = (states[j], states[REGS + j]);
                if mmo {
                    ca = _mm256_xor_si256(ca, loaded[j]);
                    cb = _mm256_xor_si256(cb, loaded[j]);
                }
                _mm256_storeu_si256(a_ptr.add(i + 2 * j).cast::<__m256i>(), ca);
                _mm256_storeu_si256(b_ptr.add(i + 2 * j).cast::<__m256i>(), cb);
            }
            i += YMM_INPUTS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use pir_field::SimdBackend;

    /// Both kernels, called directly, against the scalar cipher: on a VAES
    /// host the public sweep routes whole steps to the ymm kernel, so the
    /// xmm kernel would otherwise go untested there (and vice versa).
    #[test]
    fn xmm_and_ymm_kernels_match_scalar() {
        if !SimdBackend::Avx2.is_supported() {
            eprintln!("skipped both kernels: this host lacks AVX2/AES-NI");
            return;
        }
        let cipher = Aes128::new(*b"kernel-parity-k!");
        let columns = &cipher.round_key_columns;
        let (mask_a, mask_b) = (Block128::from_u128(0xA5 << 64 | 3), Block128::from_u128(7));
        let vaes = has_vaes();
        if !vaes {
            eprintln!("skipped the ymm kernel: this host lacks VAES (xmm kernel checked)");
        }
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 64] {
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
                let mut got_a = vec![Block128::ZERO; len];
                let mut got_b = vec![Block128::ZERO; len];
                // SAFETY: AVX2 + AES-NI checked at the top of the test.
                unsafe {
                    pair_sweep_xmm(
                        columns, mask_a, mask_b, &inputs, &mut got_a, &mut got_b, mmo,
                    );
                }
                assert_eq!(
                    (&got_a, &got_b),
                    (&want_a, &want_b),
                    "xmm len={len} mmo={mmo}"
                );

                let whole = len / YMM_INPUTS * YMM_INPUTS;
                if vaes {
                    let mut got_a = vec![Block128::ZERO; whole];
                    let mut got_b = vec![Block128::ZERO; whole];
                    // SAFETY: AVX2 checked above, VAES by `has_vaes`.
                    unsafe {
                        pair_sweep_ymm(
                            columns,
                            mask_a,
                            mask_b,
                            &inputs[..whole],
                            &mut got_a,
                            &mut got_b,
                            mmo,
                        );
                    }
                    assert_eq!(
                        (&got_a[..], &got_b[..]),
                        (&want_a[..whole], &want_b[..whole]),
                        "ymm len={whole} mmo={mmo}"
                    );
                }
            }
        }
    }
}
