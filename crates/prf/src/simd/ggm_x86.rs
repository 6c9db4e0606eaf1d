//! The AVX2 correction-and-leaf pass of one GGM level, for every PRF.
//!
//! The pass turns a level's raw sweep outputs into corrected children: it
//! splits off each output's control bit (its LSB) and, under the parent's
//! control bit, XORs in the correction word — the step the paper's fused
//! kernel (§3.2.4) runs on GPU lanes under a per-lane mask. Here one ymm
//! register holds two nodes' outputs as 64-bit lanes `[x.low, x.high,
//! y.low, y.high]` (a `Block128` is a little-endian `u128`), and the parent
//! bits become a lane mask by `cmpeq(set1(bits) & [1, 1, 2, 2], [1, 1, 2,
//! 2])`. Everything is branch-free in seeds and control bits; a lone last
//! node takes the scalar reference's per-node step (`prg::correct_node`),
//! which the kernels are checked against.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_castsi256_pd,
    _mm256_castsi256_si128, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
    _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32, _mm256_set1_epi64x, _mm256_set_epi64x,
    _mm256_setr_epi32, _mm256_slli_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
    _mm256_unpacklo_epi64, _mm256_xor_si256, _mm_storeu_si128,
};

use pir_field::Block128;

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

/// The children-and-bits pass ([`crate::GgmPrg::correct_frontier`]).
/// Only reached through a PRF whose backend passed AVX2 detection.
pub(crate) fn correct(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    children: &mut [Block128],
    child_t: &mut [u64],
) {
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { correct_impl(left, right, parent_t, cw, children, child_t) }
}

#[target_feature(enable = "avx2")]
fn correct_impl(
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

/// The leaf pass ([`crate::GgmPrg::correct_frontier_leaves`]). Only reached
/// through a PRF whose backend passed AVX2 detection.
pub(crate) fn leaves(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    final_cw: u32,
    negate: bool,
    out: &mut [u32],
) {
    // SAFETY: caller contract — the Avx2 backend detected AVX2 at runtime.
    unsafe { leaves_impl(left, right, parent_t, cw, final_cw, negate, out) }
}

#[target_feature(enable = "avx2")]
fn leaves_impl(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prg::{correct_scalar, leaves_scalar};
    use pir_field::SimdBackend;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Both AVX2 kernels against the scalar reference: every length
        /// 0–70 (odd tails, ragged output words, more than one parent
        /// word), a correction seed with its LSB set, every `t_left` /
        /// `t_right` pair, stale parent bits past the frontier and stale
        /// output words, for both parties.
        #[test]
        fn avx2_pass_matches_the_scalar_reference(seed in any::<u64>()) {
            if !SimdBackend::Avx2.is_supported() {
                eprintln!("skipped the AVX2 correction pass: this host lacks AVX2");
                return Ok(());
            }
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
                    let mut got = (vec![Block128::from_u128(7); 2 * n], vec![u64::MAX; words]);
                    correct_scalar(&left, &right, &parent_t, &cw, &mut want.0, &mut want.1);
                    correct(&left, &right, &parent_t, &cw, &mut got.0, &mut got.1);
                    prop_assert!(got == want, "children n={} cw={:?}", n, cw);

                    let final_cw: u32 = rng.gen();
                    for negate in [false, true] {
                        let mut want = vec![0u32; 2 * n];
                        let mut got = vec![u32::MAX; 2 * n];
                        leaves_scalar(&left, &right, &parent_t, &cw, final_cw, negate, &mut want);
                        leaves(&left, &right, &parent_t, &cw, final_cw, negate, &mut got);
                        prop_assert!(got == want, "leaves n={} cw={:?} negate={}", n, cw, negate);
                    }
                }
            }
        }
    }
}
