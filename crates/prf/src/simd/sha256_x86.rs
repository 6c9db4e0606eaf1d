//! AVX2 8-way multi-buffer HMAC-SHA-256 sweeps.
//!
//! SHA-256's compression function is one long dependency chain, so (as with
//! ChaCha) the vector path parallelizes across messages: eight independent
//! HMAC evaluations run in the eight u32 lanes of each `__m256i`, executing
//! the identical two-compression midstate schedule the scalar `mac_block`
//! uses (one compression for the padded 24-byte message, one for the padded
//! inner digest). All operations are lane-wise adds, rotations and boolean
//! functions, so every lane computes exactly the scalar result.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_loadu_si256,
    _mm256_or_si256, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8,
    _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
};
use core::slice;

use pir_field::Block128;

use crate::sha256::{INNER_LEN_BITS, K, OUTER_LEN_BITS};

/// Number of independent HMAC evaluations per vector step.
pub(crate) const WIDTH: usize = 8;

/// `rotr!(x, n, 32 - n)` — per-u32 right rotation (both literals spelled out
/// because intrinsic shift counts must be const generics).
macro_rules! rotr {
    ($x:expr, $n:literal, $m:literal) => {
        _mm256_or_si256(_mm256_srli_epi32::<$n>($x), _mm256_slli_epi32::<$m>($x))
    };
}

#[inline]
#[target_feature(enable = "avx2")]
fn bswap32(x: __m256i) -> __m256i {
    let mask = _mm256_setr_epi8(
        3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, //
        3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
    );
    _mm256_shuffle_epi8(x, mask)
}

/// One SHA-256 compression over eight lanes: `state` is the eight working
/// variables (one vector per variable), `w[0..16]` the prefilled message
/// words; the remaining schedule is expanded in place.
#[target_feature(enable = "avx2")]
fn compress8(state: &mut [__m256i; 8], w: &mut [__m256i; 64]) {
    for i in 16..64 {
        let s0 = _mm256_xor_si256(
            _mm256_xor_si256(rotr!(w[i - 15], 7, 25), rotr!(w[i - 15], 18, 14)),
            _mm256_srli_epi32::<3>(w[i - 15]),
        );
        let s1 = _mm256_xor_si256(
            _mm256_xor_si256(rotr!(w[i - 2], 17, 15), rotr!(w[i - 2], 19, 13)),
            _mm256_srli_epi32::<10>(w[i - 2]),
        );
        w[i] = _mm256_add_epi32(
            _mm256_add_epi32(w[i - 16], s0),
            _mm256_add_epi32(w[i - 7], s1),
        );
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = _mm256_xor_si256(
            _mm256_xor_si256(rotr!(e, 6, 26), rotr!(e, 11, 21)),
            rotr!(e, 25, 7),
        );
        // ch = (e & f) ^ (!e & g); andnot computes !a & b.
        let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
        let temp1 = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[i])),
            _mm256_set1_epi32(K[i] as i32),
        );
        let s0 = _mm256_xor_si256(
            _mm256_xor_si256(rotr!(a, 2, 30), rotr!(a, 13, 19)),
            rotr!(a, 22, 10),
        );
        let maj = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
            _mm256_and_si256(b, c),
        );
        let temp2 = _mm256_add_epi32(s0, maj);
        h = g;
        g = f;
        f = e;
        e = _mm256_add_epi32(d, temp1);
        d = c;
        c = b;
        b = a;
        a = _mm256_add_epi32(temp1, temp2);
    }

    state[0] = _mm256_add_epi32(state[0], a);
    state[1] = _mm256_add_epi32(state[1], b);
    state[2] = _mm256_add_epi32(state[2], c);
    state[3] = _mm256_add_epi32(state[3], d);
    state[4] = _mm256_add_epi32(state[4], e);
    state[5] = _mm256_add_epi32(state[5], f);
    state[6] = _mm256_add_epi32(state[6], g);
    state[7] = _mm256_add_epi32(state[7], h);
}

#[inline]
#[target_feature(enable = "avx2")]
fn broadcast_state(words: &[u32; 8]) -> [__m256i; 8] {
    let mut out = [_mm256_set1_epi32(0); 8];
    for (slot, word) in out.iter_mut().zip(words) {
        *slot = _mm256_set1_epi32(*word as i32);
    }
    out
}

/// Vectorized `eval_blocks` over a whole-multiple-of-[`WIDTH`] batch; lane
/// `j` of every vector step evaluates under `tweaks[j]` (a uniform sweep
/// repeats one tweak, a padded tail mixes both child tweaks in one step).
///
/// Must only be called when the Avx2 backend passed runtime detection, and
/// with `inputs.len() % WIDTH == 0` (the caller pads the remainder up to one
/// more step).
pub(crate) fn eval_blocks(
    inner_midstate: &[u32; 8],
    outer_midstate: &[u32; 8],
    inputs: &[Block128],
    tweaks: &[u64; WIDTH],
    out: &mut [Block128],
) {
    assert_eq!(inputs.len() % WIDTH, 0, "whole vector steps only");
    assert_eq!(inputs.len(), out.len(), "input/output length mismatch");
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { eval_blocks_impl(inner_midstate, outer_midstate, inputs, tweaks, out) }
}

#[target_feature(enable = "avx2")]
fn eval_blocks_impl(
    inner_midstate: &[u32; 8],
    outer_midstate: &[u32; 8],
    inputs: &[Block128],
    tweaks: &[u64; WIDTH],
    out: &mut [Block128],
) {
    let zero = _mm256_set1_epi32(0);
    let pad_word = _mm256_set1_epi32(0x8000_0000_u32 as i32);
    // Message words 4–5 (the lane's tweak) and 14–15 (the bit length) are
    // the same for every step; as big-endian words they are byte-swapped
    // u32s.
    let tweak_low = tweaks.map(|tweak| (tweak as u32).swap_bytes());
    let tweak_high = tweaks.map(|tweak| ((tweak >> 32) as u32).swap_bytes());
    // SAFETY: each array is 32 readable bytes; the loads are unaligned.
    let (w4, w5) = unsafe {
        (
            _mm256_loadu_si256(tweak_low.as_ptr().cast::<__m256i>()),
            _mm256_loadu_si256(tweak_high.as_ptr().cast::<__m256i>()),
        )
    };
    let inner_len_hi = _mm256_set1_epi32(((INNER_LEN_BITS >> 32) as u32) as i32);
    let inner_len_lo = _mm256_set1_epi32((INNER_LEN_BITS as u32) as i32);
    let outer_len_hi = _mm256_set1_epi32(((OUTER_LEN_BITS >> 32) as u32) as i32);
    let outer_len_lo = _mm256_set1_epi32((OUTER_LEN_BITS as u32) as i32);

    // SAFETY: `Block128` is a transparent `u128`, so `inputs` is `4 * len`
    // contiguous little-endian `u32` words (and `u32` alignment divides
    // `u128` alignment).
    let words = unsafe { slice::from_raw_parts(inputs.as_ptr().cast::<u32>(), 4 * inputs.len()) };
    let (steps, _) = words.as_chunks::<{ 4 * WIDTH }>();
    let (out_steps, _) = out.as_chunks_mut::<WIDTH>();
    for (step, out_step) in steps.iter().zip(out_steps) {
        let mut w = [zero; 64];
        // Words 0–3: the input block's bytes read big-endian — a transpose
        // of the little-endian u32 words followed by a byte swap.
        #[allow(clippy::needless_range_loop)] // j offsets `step` too, not just `w`
        for j in 0..4 {
            let gathered = _mm256_setr_epi32(
                step[j] as i32,
                step[4 + j] as i32,
                step[8 + j] as i32,
                step[12 + j] as i32,
                step[16 + j] as i32,
                step[20 + j] as i32,
                step[24 + j] as i32,
                step[28 + j] as i32,
            );
            w[j] = bswap32(gathered);
        }
        w[4] = w4;
        w[5] = w5;
        w[6] = pad_word; // 0x80 directly after the 24-byte message
        w[14] = inner_len_hi;
        w[15] = inner_len_lo;

        let mut state = broadcast_state(inner_midstate);
        compress8(&mut state, &mut w);

        // Outer block: the 32-byte inner digest is written big-endian and
        // re-read big-endian, so its words carry over untouched.
        let mut w = [zero; 64];
        w[..8].copy_from_slice(&state);
        w[8] = pad_word;
        w[14] = outer_len_hi;
        w[15] = outer_len_lo;

        let mut state = broadcast_state(outer_midstate);
        compress8(&mut state, &mut w);

        // The PRF output is the first four state words serialized big-endian
        // then reinterpreted as a little-endian u128: byte-swap each word
        // and transpose back per block.
        let mut lanes = [[0u32; WIDTH]; 4];
        for (slot, vector) in lanes.iter_mut().zip(state.iter().take(4)) {
            // SAFETY: `slot` is 32 writable bytes; the store is unaligned.
            unsafe { _mm256_storeu_si256(slot.as_mut_ptr().cast::<__m256i>(), bswap32(*vector)) };
        }
        for (j, slot) in out_step.iter_mut().enumerate() {
            *slot = Block128::from_halves(
                (lanes[0][j] as u64) | ((lanes[1][j] as u64) << 32),
                (lanes[2][j] as u64) | ((lanes[3][j] as u64) << 32),
            );
        }
    }
}
