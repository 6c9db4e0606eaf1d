//! The correction-and-leaf pass of one GGM level, for every PRF, at AVX2
//! and AVX-512 width.
//!
//! The pass turns a level's raw sweep outputs into corrected children: it
//! splits off each output's control bit (its LSB) and, under the parent's
//! control bit, XORs in the correction word — the step the paper's fused
//! kernel (§3.2.4) runs on GPU lanes under a per-lane mask. Everything is
//! branch-free in seeds and control bits, and no table is indexed by them.
//!
//! The ymm kernels hold two nodes' outputs per register as 64-bit lanes
//! `[x.low, x.high, y.low, y.high]` (a `Block128` is a little-endian
//! `u128`), and the parent bits become a lane mask by `cmpeq(set1(bits) &
//! [1, 1, 2, 2], [1, 1, 2, 2])`; a lone last node takes the scalar
//! reference's per-node step (`prg::correct_node`).
//!
//! On CPUs with AVX-512F (`is_x86_feature_detected!("avx512f")`, which std
//! caches) the zmm kernels take the whole steps instead, and the parent
//! bits go to a k-mask by `vptestmq`/`vptestmd` of the broadcast parent word
//! against a shifting pick vector. The correction word is a masked XOR
//! under it. The correction pass corrects four nodes per zmm, writes the
//! children in order with two `vpermt2q`, and takes the child bits as
//! `test(l, lsb) | test(r, lsb) << 1`. The leaf pass gathers the low dwords
//! of eight nodes' left and right outputs into one zmm of 16 leaves (two
//! `vpermt2d` and an interleave) and adds the final correction word under
//! the child-bit mask. The ymm kernels take the sub-step remainder, with the
//! remainder's parent bits shifted down to bit 0 of one word.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m256i, __m512i, __mmask16, _mm256_add_epi64, _mm256_and_si256, _mm256_castsi256_pd,
    _mm256_castsi256_si128, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
    _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32, _mm256_set1_epi64x, _mm256_set_epi64x,
    _mm256_setr_epi32, _mm256_slli_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
    _mm256_unpacklo_epi64, _mm256_xor_si256, _mm512_andnot_si512, _mm512_mask_add_epi32,
    _mm512_mask_xor_epi32, _mm512_mask_xor_epi64, _mm512_permutex2var_epi32,
    _mm512_permutex2var_epi64, _mm512_set1_epi32, _mm512_set1_epi64, _mm512_setr_epi32,
    _mm512_setr_epi64, _mm512_slli_epi32, _mm512_slli_epi64, _mm512_storeu_si512, _mm512_sub_epi32,
    _mm512_test_epi32_mask, _mm512_test_epi64_mask, _mm512_unpacklo_epi32, _mm512_xor_si512,
    _mm_storeu_si128,
};

use pir_field::Block128;

use super::chacha_x86::{load4, store4};
use crate::prg::{check_pass_shape, correct_node, leaf_lane, LevelCorrection};

/// Nodes whose child bits fill one packed output word.
const GROUP: usize = 32;

/// The all-ones/all-zeros parent mask of the pair whose two parent bits
/// `pick` selects from the broadcast parent word `parents`. Pair `k`'s pick
/// is `[1, 1, 2, 2] << 2k`: its first node's bit into lanes 0–1, its
/// second's into lanes 2–3.
#[inline]
#[target_feature(enable = "avx2")]
fn parent_mask(parents: __m256i, pick: __m256i) -> __m256i {
    _mm256_cmpeq_epi64(_mm256_and_si256(parents, pick), pick)
}

/// The children-and-bits pass ([`crate::GgmPrg::correct_frontier`]), whose
/// caller has checked the shape. Only reached through a PRF whose backend
/// passed AVX2 detection; whole 32-node groups take the zmm kernel where the
/// CPU has AVX-512F.
pub(crate) fn correct(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    children: &mut [Block128],
    child_t: &mut [u64],
) {
    let wide = left.len() / GROUP * GROUP;
    if wide == 0 || !std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
        return unsafe { correct_ymm(left, right, parent_t, cw, children, child_t) };
    }
    let (children_head, children_tail) = children.split_at_mut(2 * wide);
    let (words_head, words_tail) = child_t.split_at_mut(wide / GROUP);
    // SAFETY: AVX-512F is detected above.
    unsafe {
        correct_zmm(
            &left[..wide],
            &right[..wide],
            parent_t,
            cw,
            children_head,
            words_head,
        );
    }
    if wide < left.len() {
        // The remainder's (under 32) parent bits, from bit 0 of one word.
        let parents = [parent_t[wide / 64] >> (wide % 64)];
        // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
        unsafe {
            correct_ymm(
                &left[wide..],
                &right[wide..],
                &parents,
                cw,
                children_tail,
                words_tail,
            );
        }
    }
}

#[target_feature(enable = "avx2")]
fn correct_ymm(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    children: &mut [Block128],
    child_t: &mut [u64],
) {
    // The shape the loads and stores below rely on.
    check_pass_shape(left, right, parent_t, children.len());
    assert_eq!(child_t.len(), (2 * left.len()).div_ceil(64));
    let n = left.len();
    let (cw_low, cw_high) = cw.seed.halves();
    let cw_v = _mm256_set_epi64x(cw_high as i64, cw_low as i64, cw_high as i64, cw_low as i64);
    // Clears each seed's LSB, where its control bit was.
    let clear = _mm256_set_epi64x(-1, !1, -1, !1);
    // The four child bits of a pair XOR in `parent & t_cw` per child.
    let t_cw = (u64::from(cw.t_left) | u64::from(cw.t_right) << 1) * 0b0101;
    let l_ptr = left.as_ptr();
    let r_ptr = right.as_ptr();
    let c_ptr = children.as_mut_ptr();
    for (group, word) in child_t.iter_mut().enumerate() {
        let first = group * GROUP;
        let len = (n - first).min(GROUP);
        let parents = parent_t[group / 2] >> (GROUP * (group % 2));
        // The parent word once per group; each pair shifts its pick by two.
        let parents_v = _mm256_set1_epi64x(parents as i64);
        let mut pick = _mm256_set_epi64x(2, 2, 1, 1);
        let mut bits = 0u64;
        for pair in 0..len / 2 {
            let node = first + 2 * pair;
            // SAFETY: `node + 1 < n`, so the 32-byte loads read nodes `node`
            // and `node + 1` of the length-`n` sweeps (`Block128` is a
            // transparent `u128`: 16 plain bytes).
            let (l, r) = unsafe {
                (
                    _mm256_loadu_si256(l_ptr.add(node).cast::<__m256i>()),
                    _mm256_loadu_si256(r_ptr.add(node).cast::<__m256i>()),
                )
            };
            let mask = parent_mask(parents_v, pick);
            pick = _mm256_slli_epi64::<2>(pick);
            let fix = _mm256_and_si256(cw_v, mask);
            let l_fixed = _mm256_xor_si256(_mm256_and_si256(l, clear), fix);
            let r_fixed = _mm256_xor_si256(_mm256_and_si256(r, clear), fix);
            // `[l0, r0]` and `[l1, r1]`: children in output order.
            let first_node = _mm256_permute2x128_si256::<0x20>(l_fixed, r_fixed);
            let second_node = _mm256_permute2x128_si256::<0x31>(l_fixed, r_fixed);
            // SAFETY: the stores write children `2 * node .. 2 * node + 4`
            // of the length-`2n` output.
            unsafe {
                _mm256_storeu_si256(c_ptr.add(2 * node).cast::<__m256i>(), first_node);
                _mm256_storeu_si256(c_ptr.add(2 * node + 2).cast::<__m256i>(), second_node);
            }
            // Raw LSBs of `[l0, r0, l1, r1]` in the sign bits, then the
            // parent mask spread to the same four children.
            let lows = _mm256_unpacklo_epi64(l, r);
            let raw = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_slli_epi64::<63>(lows)));
            let spread = _mm256_movemask_pd(_mm256_castsi256_pd(mask));
            bits |= ((raw ^ (spread & t_cw as i32)) as u64) << (4 * pair);
        }
        if len % 2 == 1 {
            let node = first + len - 1;
            let parent = (parents >> (len - 1)) & 1;
            let (l, r, two) = correct_node(left[node], right[node], parent, cw);
            children[2 * node] = l;
            children[2 * node + 1] = r;
            bits |= two << (2 * (len - 1));
        }
        *word = bits;
    }
}

/// The leaf pass ([`crate::GgmPrg::correct_frontier_leaves`]), whose caller
/// has checked the shape. Only reached through a PRF whose backend passed
/// AVX2 detection; whole 8-node steps take the zmm kernel where the CPU has
/// AVX-512F.
pub(crate) fn leaves(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    final_cw: u32,
    negate: bool,
    out: &mut [u32],
) {
    let wide = left.len() / LEAF_STEP * LEAF_STEP;
    if wide == 0 || !std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
        return unsafe { leaves_ymm(left, right, parent_t, cw, final_cw, negate, out) };
    }
    let (out_head, out_tail) = out.split_at_mut(2 * wide);
    // SAFETY: AVX-512F is detected above.
    unsafe {
        leaves_zmm(
            &left[..wide],
            &right[..wide],
            parent_t,
            cw,
            final_cw,
            negate,
            out_head,
        );
    }
    if wide < left.len() {
        // The remainder's (under 8) parent bits, from bit 0 of one word.
        let parents = [parent_t[wide / 64] >> (wide % 64)];
        // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
        unsafe {
            leaves_ymm(
                &left[wide..],
                &right[wide..],
                &parents,
                cw,
                final_cw,
                negate,
                out_tail,
            );
        }
    }
}

#[target_feature(enable = "avx2")]
fn leaves_ymm(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    final_cw: u32,
    negate: bool,
    out: &mut [u32],
) {
    // The shape the loads and stores below rely on.
    check_pass_shape(left, right, parent_t, out.len());
    let n = left.len();
    let sign = u32::from(negate).wrapping_neg();
    // Per child in output order `[l0, r0, l1, r1]`: the control-bit
    // correction, the final correction word and the party's sign, as 64-bit
    // lanes (a `u32` leaf is the low half of the 64-bit sum).
    let t_cw = _mm256_set_epi64x(
        i64::from(cw.t_right),
        i64::from(cw.t_left),
        i64::from(cw.t_right),
        i64::from(cw.t_left),
    );
    let cw_low = _mm256_set1_epi64x(cw.seed.halves().0 as i64);
    let final_v = _mm256_set1_epi64x(i64::from(final_cw));
    let sign_v = _mm256_set1_epi64x(i64::from(sign as i32));
    let one = _mm256_set1_epi64x(1);
    let not_one = _mm256_set1_epi64x(!1);
    let zero = _mm256_set1_epi64x(0);
    let low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    let l_ptr = left.as_ptr();
    let r_ptr = right.as_ptr();
    let o_ptr = out.as_mut_ptr();
    for (word, parents) in parent_t[..n.div_ceil(64)].iter().enumerate() {
        let first = 64 * word;
        let parents_v = _mm256_set1_epi64x(*parents as i64);
        let mut pick = _mm256_set_epi64x(2, 2, 1, 1);
        for pair in 0..(n - first).min(64) / 2 {
            let node = first + 2 * pair;
            // SAFETY: `node + 1 < n`, so the loads read nodes `node` and
            // `node + 1` of the length-`n` sweeps.
            let (l, r) = unsafe {
                (
                    _mm256_loadu_si256(l_ptr.add(node).cast::<__m256i>()),
                    _mm256_loadu_si256(r_ptr.add(node).cast::<__m256i>()),
                )
            };
            // The mask's lanes `[p0, p0, p1, p1]` line up with the
            // children `[l0, r0, l1, r1]` of the low halves.
            let mask = parent_mask(parents_v, pick);
            pick = _mm256_slli_epi64::<2>(pick);
            let lows = _mm256_unpacklo_epi64(l, r);
            let seeds = _mm256_xor_si256(
                _mm256_and_si256(lows, not_one),
                _mm256_and_si256(cw_low, mask),
            );
            let t = _mm256_xor_si256(_mm256_and_si256(lows, one), _mm256_and_si256(mask, t_cw));
            let weight = _mm256_and_si256(_mm256_sub_epi64(zero, t), final_v);
            let sum = _mm256_add_epi64(seeds, weight);
            let signed = _mm256_sub_epi64(_mm256_xor_si256(sum, sign_v), sign_v);
            let packed = _mm256_permutevar8x32_epi32(signed, low_halves);
            // SAFETY: the 16-byte store writes leaves `2 * node .. 2 * node
            // + 4` of the length-`2n` output.
            unsafe {
                _mm_storeu_si128(
                    o_ptr.add(2 * node).cast::<__m128i>(),
                    _mm256_castsi256_si128(packed),
                )
            };
        }
    }
    if n % 2 == 1 {
        let node = n - 1;
        let parent = (parent_t[node / 64] >> (node % 64)) & 1;
        let (l, r, two) = correct_node(left[node], right[node], parent, cw);
        out[2 * node] = leaf_lane(l, two & 1, final_cw, sign);
        out[2 * node + 1] = leaf_lane(r, two >> 1, final_cw, sign);
    }
}

/// Nodes per step of the zmm leaf pass: 16 leaves, one zmm register.
const LEAF_STEP: usize = 8;

/// Sixteen `u32` leaves from a zmm register.
#[inline]
#[target_feature(enable = "avx512f")]
fn store16(leaves: &mut [u32; 16], value: __m512i) {
    // SAFETY: `leaves` is 64 writable bytes; the store is unaligned.
    unsafe { _mm512_storeu_si512(leaves.as_mut_ptr().cast(), value) }
}

/// The zmm correction pass over whole [`GROUP`]s: four nodes per register,
/// eight steps per output word.
#[target_feature(enable = "avx512f")]
fn correct_zmm(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    children: &mut [Block128],
    child_t: &mut [u64],
) {
    check_pass_shape(left, right, parent_t, children.len());
    assert_eq!(left.len() % GROUP, 0, "whole groups only");
    assert_eq!(child_t.len(), left.len() / GROUP);
    let (cw_low, cw_high) = cw.seed.halves();
    let (low, high) = (cw_low as i64, cw_high as i64);
    let cw_v = _mm512_setr_epi64(low, high, low, high, low, high, low, high);
    // Each seed's LSB, where its control bit is.
    let lsb = _mm512_setr_epi64(1, 0, 1, 0, 1, 0, 1, 0);
    // The eight child bits of a step XOR in `parent & t_cw` per child.
    let t_cw = (u8::from(cw.t_left) | u8::from(cw.t_right) << 1) * 0x55;
    // `[l0, r0, l1, r1]` and `[l2, r2, l3, r3]`: children in output order.
    let first_pair = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    let second_pair = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    // Node `k`'s parent bit into both of its 64-bit lanes.
    let first_pick = _mm512_setr_epi64(1, 1, 2, 2, 4, 4, 8, 8);

    let (lefts, _) = left.as_chunks::<4>();
    let (rights, _) = right.as_chunks::<4>();
    let (outs, _) = children.as_chunks_mut::<4>();
    let (outs, _) = outs.as_chunks_mut::<2>();
    let groups = lefts
        .chunks_exact(GROUP / 4)
        .zip(rights.chunks_exact(GROUP / 4))
        .zip(outs.chunks_exact_mut(GROUP / 4));
    for (group, ((lefts, rights), outs)) in groups.enumerate() {
        let parents = parent_t[group / 2] >> (GROUP * (group % 2));
        let parents_v = _mm512_set1_epi64(parents as i64);
        let mut pick = first_pick;
        let mut bits = 0u64;
        let steps = lefts.iter().zip(rights).zip(outs);
        for (step, ((l, r), out)) in steps.enumerate() {
            let (l, r) = (load4(l), load4(r));
            let parent = _mm512_test_epi64_mask(parents_v, pick);
            pick = _mm512_slli_epi64::<4>(pick);
            let (l_seeds, r_seeds) = (_mm512_andnot_si512(lsb, l), _mm512_andnot_si512(lsb, r));
            let l_fixed = _mm512_mask_xor_epi64(l_seeds, parent, l_seeds, cw_v);
            let r_fixed = _mm512_mask_xor_epi64(r_seeds, parent, r_seeds, cw_v);
            store4(
                &mut out[0],
                _mm512_permutex2var_epi64(l_fixed, first_pair, r_fixed),
            );
            store4(
                &mut out[1],
                _mm512_permutex2var_epi64(l_fixed, second_pair, r_fixed),
            );
            // Raw bits `[l0, r0, l1, r1, …]`, then the correction per child.
            let raw = _mm512_test_epi64_mask(l, lsb) | _mm512_test_epi64_mask(r, lsb) << 1;
            bits |= u64::from(raw ^ (parent & t_cw)) << (8 * step);
        }
        child_t[group] = bits;
    }
}

/// The zmm leaf pass over whole [`LEAF_STEP`]-node steps.
#[target_feature(enable = "avx512f")]
fn leaves_zmm(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    final_cw: u32,
    negate: bool,
    out: &mut [u32],
) {
    check_pass_shape(left, right, parent_t, out.len());
    assert_eq!(left.len() % LEAF_STEP, 0, "whole steps only");
    let sign = _mm512_set1_epi32(i32::from(negate).wrapping_neg());
    let cw_low = _mm512_set1_epi32(cw.seed.halves().0 as i32);
    let final_v = _mm512_set1_epi32(final_cw as i32);
    let one = _mm512_set1_epi32(1);
    // Leaves `[l0, r0, l1, r1, …]` take `t_left`, `t_right` alternately.
    let t_cw: __mmask16 = (u16::from(cw.t_left) | u16::from(cw.t_right) << 1) * 0x5555;
    // The low dwords of nodes `2i` and `2i + 1` of a register pair into
    // dwords 0–1 of 128-bit lane `i`; the interleave then pairs each left
    // leaf with its right one.
    let gather = _mm512_setr_epi32(0, 4, 0, 0, 8, 12, 0, 0, 16, 20, 0, 0, 24, 28, 0, 0);
    // Node `k`'s parent bit into both of its leaves.
    let first_pick = _mm512_setr_epi32(1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128);

    let (lefts, _) = left.as_chunks::<4>();
    let (lefts, _) = lefts.as_chunks::<2>();
    let (rights, _) = right.as_chunks::<4>();
    let (rights, _) = rights.as_chunks::<2>();
    let (outs, _) = out.as_chunks_mut::<16>();
    // Four steps per 32-bit half of a parent word.
    let halves = lefts
        .chunks(4)
        .zip(rights.chunks(4))
        .zip(outs.chunks_mut(4));
    for (half, ((lefts, rights), outs)) in halves.enumerate() {
        let parents = parent_t[half / 2] >> (32 * (half % 2));
        let parents_v = _mm512_set1_epi32(parents as i32);
        let mut pick = first_pick;
        for ((l, r), out) in lefts.iter().zip(rights).zip(outs) {
            let l_lows = _mm512_permutex2var_epi32(load4(&l[0]), gather, load4(&l[1]));
            let r_lows = _mm512_permutex2var_epi32(load4(&r[0]), gather, load4(&r[1]));
            let lows = _mm512_unpacklo_epi32(l_lows, r_lows);
            let parent = _mm512_test_epi32_mask(parents_v, pick);
            pick = _mm512_slli_epi32::<8>(pick);
            let seeds = _mm512_andnot_si512(one, lows);
            let seeds = _mm512_mask_xor_epi32(seeds, parent, seeds, cw_low);
            let t = _mm512_test_epi32_mask(lows, one) ^ (parent & t_cw);
            let sum = _mm512_mask_add_epi32(seeds, t, seeds, final_v);
            // (x ^ m) - m is x for m = 0 and -x for m = all-ones.
            store16(out, _mm512_sub_epi32(_mm512_xor_si512(sum, sign), sign));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prg::{correct_scalar, leaves_scalar};
    use pir_field::SimdBackend;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Says once per test run that the zmm half was skipped.
    fn zmm_kernels_run() -> bool {
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        if !avx512 {
            SKIPPED.call_once(|| {
                eprintln!("skipped the zmm pass kernels: this host lacks AVX-512F (ymm checked)");
            });
        }
        avx512
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every pass kernel against the scalar reference: the dispatching
        /// wrappers and the ymm kernels at every length 0–70 (odd tails,
        /// ragged output words, more than one parent word, zmm steps with
        /// a ymm remainder), the zmm kernels at each whole-step length, a
        /// correction seed with its LSB set, every `t_left` / `t_right`
        /// pair, stale parent bits past the frontier and stale output
        /// words, for both parties. On an AVX-512 host the wrappers reach
        /// the ymm kernels only for remainders, hence the direct calls.
        #[test]
        fn pass_kernels_match_scalar(seed in any::<u64>()) {
            if !SimdBackend::Avx2.is_supported() {
                eprintln!("skipped the correction pass kernels: this host lacks AVX2");
                return Ok(());
            }
            let zmm = zmm_kernels_run();
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 0..=70usize {
                let left: Vec<Block128> = (0..n).map(|_| Block128::random(&mut rng)).collect();
                let right: Vec<Block128> = (0..n).map(|_| Block128::random(&mut rng)).collect();
                // Random bits in every word, so the ones past `n` are stale.
                let parent_t: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.gen()).collect();
                let seed = Block128::from_u128(rng.gen::<u128>() | 1);
                for (t_left, t_right) in [(false, false), (false, true), (true, false), (true, true)] {
                    let cw = LevelCorrection { seed, t_left, t_right };
                    let words = (2 * n).div_ceil(64);
                    let mut want = (vec![Block128::ZERO; 2 * n], vec![u64::MAX; words]);
                    correct_scalar(&left, &right, &parent_t, &cw, &mut want.0, &mut want.1);
                    let fresh = || (vec![Block128::from_u128(7); 2 * n], vec![u64::MAX; words]);
                    let mut got = fresh();
                    correct(&left, &right, &parent_t, &cw, &mut got.0, &mut got.1);
                    prop_assert!(got == want, "children n={} cw={:?}", n, cw);
                    let mut got = fresh();
                    // SAFETY: AVX2 checked at the top of the test.
                    unsafe { correct_ymm(&left, &right, &parent_t, &cw, &mut got.0, &mut got.1) };
                    prop_assert!(got == want, "ymm children n={} cw={:?}", n, cw);
                    if zmm && n % GROUP == 0 {
                        let mut got = fresh();
                        // SAFETY: AVX-512F checked by `zmm_kernels_run`.
                        unsafe { correct_zmm(&left, &right, &parent_t, &cw, &mut got.0, &mut got.1) };
                        prop_assert!(got == want, "zmm children n={} cw={:?}", n, cw);
                    }

                    let final_cw: u32 = rng.gen();
                    for negate in [false, true] {
                        let mut want = vec![0u32; 2 * n];
                        leaves_scalar(&left, &right, &parent_t, &cw, final_cw, negate, &mut want);
                        let mut got = vec![u32::MAX; 2 * n];
                        leaves(&left, &right, &parent_t, &cw, final_cw, negate, &mut got);
                        prop_assert!(got == want, "leaves n={} cw={:?} negate={}", n, cw, negate);
                        let mut got = vec![u32::MAX; 2 * n];
                        // SAFETY: AVX2 checked at the top of the test.
                        unsafe { leaves_ymm(&left, &right, &parent_t, &cw, final_cw, negate, &mut got) };
                        prop_assert!(got == want, "ymm leaves n={} cw={:?} negate={}", n, cw, negate);
                        if zmm && n % LEAF_STEP == 0 {
                            let mut got = vec![u32::MAX; 2 * n];
                            // SAFETY: AVX-512F checked by `zmm_kernels_run`.
                            unsafe { leaves_zmm(&left, &right, &parent_t, &cw, final_cw, negate, &mut got) };
                            prop_assert!(got == want, "zmm leaves n={} cw={:?} negate={}", n, cw, negate);
                        }
                    }
                }
            }
        }
    }
}
