//! The length-doubling PRG that drives GGM-tree expansion, and the pass that
//! applies a DPF level's correction word to a whole frontier of children.

use std::sync::Arc;

use pir_field::{Block128, SimdBackend};
use serde::{Deserialize, Serialize};

use crate::Prf;

/// One level's correction word of the GGM-tree DPF.
///
/// During evaluation, a node whose control bit is set XORs `seed` into both
/// children's seeds and the respective `t_*` bits into their control bits.
/// Nothing assumes `seed`'s least-significant bit is clear: keys arrive off
/// the wire unvalidated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelCorrection {
    /// Seed correction applied to both children.
    pub seed: Block128,
    /// Control-bit correction for the left child.
    pub t_left: bool,
    /// Control-bit correction for the right child.
    pub t_right: bool,
}

/// The result of expanding one tree node into its two children.
///
/// Each child carries a 127-bit seed (least-significant bit cleared) plus a
/// one-bit control flag, exactly the `(s_L, t_L, s_R, t_R)` tuple of the
/// Gilboa–Ishai DPF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrgExpansion {
    /// Left child seed (LSB cleared).
    pub seed_left: Block128,
    /// Right child seed (LSB cleared).
    pub seed_right: Block128,
    /// Left control bit.
    pub t_left: bool,
    /// Right control bit.
    pub t_right: bool,
}

/// A GGM-style length-doubling PRG built from a [`Prf`] with a
/// Matyas–Meyer–Oseas feed-forward (`G_i(s) = PRF(s, i) ⊕ s`).
///
/// The feed-forward makes the expansion one-way even if the underlying
/// primitive is used with a fixed, public key, matching how fixed-key AES is
/// used by production DPF implementations.
#[derive(Clone)]
pub struct GgmPrg {
    prf: Arc<dyn Prf>,
    /// The backend of the correction pass: the PRF instance's own, so a
    /// forced-scalar PRF gets the scalar pass too.
    pass: SimdBackend,
}

/// Tweak used to derive the left child.
const LEFT_TWEAK: u64 = 0;
/// Tweak used to derive the right child.
const RIGHT_TWEAK: u64 = 1;

impl GgmPrg {
    /// Build a PRG from the given PRF.
    #[must_use]
    pub fn new(prf: Arc<dyn Prf>) -> Self {
        let pass = prf.simd_backend();
        Self { prf, pass }
    }

    /// Access the underlying PRF (e.g. to read its call counter).
    #[must_use]
    pub fn prf(&self) -> &Arc<dyn Prf> {
        &self.prf
    }

    /// Expand a node seed into its two children.
    ///
    /// Each expansion costs exactly two PRF block evaluations — one per child
    /// — which is the unit the paper's Figure 6 counts. A lone node takes the
    /// same batched sweep as a whole frontier (a one-element slice), so hosts
    /// with a vector backend never fall to the table-driven scalar primitive.
    #[must_use]
    pub fn expand(&self, seed: Block128) -> PrgExpansion {
        let (mut left, mut right) = ([Block128::ZERO], [Block128::ZERO]);
        self.prf
            .expand_blocks_mmo(&[seed], LEFT_TWEAK, RIGHT_TWEAK, &mut left, &mut right);
        PrgExpansion {
            seed_left: left[0].with_cleared_lsb(),
            seed_right: right[0].with_cleared_lsb(),
            t_left: left[0].lsb(),
            t_right: right[0].lsb(),
        }
    }

    /// Expand only one child (used by the single-point `Eval`); costs one PRF
    /// block evaluation, through the batched single-tweak sweep.
    #[must_use]
    pub fn expand_one(&self, seed: Block128, right: bool) -> (Block128, bool) {
        let tweak = if right { RIGHT_TWEAK } else { LEFT_TWEAK };
        let mut out = [Block128::ZERO];
        self.prf.eval_blocks(&[seed], tweak, &mut out);
        let out = out[0] ^ seed;
        (out.with_cleared_lsb(), out.lsb())
    }

    /// Expand a whole frontier of DPF nodes one level down: two batched PRF
    /// sweeps ([`GgmPrg::frontier_sweeps`]), then the correction pass
    /// ([`GgmPrg::correct_frontier`]).
    ///
    /// Node `i` has seed `seeds[i]` and control bit `i % 64` of word `i / 64`
    /// of `parent_t`. Its children land at `children[2 * i]` (left) and
    /// `children[2 * i + 1]` (right), with their control bits packed the
    /// same way into `child_t`, which is fully overwritten. Each child is
    /// what the per-node descent gives: the [`GgmPrg::expand`] output, with
    /// `cw` applied if the parent's bit is set. A zero `cw` gives the plain
    /// expansion. The call costs exactly `2 * seeds.len()` PRF block
    /// evaluations.
    ///
    /// # Panics
    ///
    /// As [`GgmPrg::correct_frontier`].
    pub fn expand_frontier(
        &self,
        seeds: &[Block128],
        parent_t: &[u64],
        cw: &LevelCorrection,
        scratch: &mut FrontierScratch,
        children: &mut [Block128],
        child_t: &mut [u64],
    ) {
        let sweeps = self.frontier_sweeps(seeds, scratch);
        self.correct_frontier(sweeps, parent_t, cw, children, child_t);
    }

    /// The correction pass over one frontier's sweep outputs `(left,
    /// right)` (as [`GgmPrg::frontier_sweeps`] returns them): splits each
    /// output into its child seed and control bit and applies `cw` under the
    /// parent's bit, branch-free in seeds and bits. Layout as
    /// [`GgmPrg::expand_frontier`]; any length is accepted, and parent bits
    /// past the frontier are ignored.
    ///
    /// Runs on the backend of this PRG's PRF ([`Prf::simd_backend`]): on
    /// AVX2, four nodes per zmm register where the CPU has AVX-512F and two
    /// per ymm register otherwise (and for the sub-step remainder); the
    /// scalar reference on every other backend.
    ///
    /// # Panics
    ///
    /// Panics if `left` and `right` differ in length, `parent_t` holds fewer
    /// than one bit per node, `children` is not exactly two per node, or
    /// `child_t` is not exactly the words that hold one bit per child.
    pub fn correct_frontier(
        &self,
        (left, right): (&[Block128], &[Block128]),
        parent_t: &[u64],
        cw: &LevelCorrection,
        children: &mut [Block128],
        child_t: &mut [u64],
    ) {
        check_pass_shape(left, right, parent_t, children.len());
        assert_eq!(
            child_t.len(),
            (2 * left.len()).div_ceil(64),
            "need exactly the words holding one bit per child"
        );
        #[cfg(target_arch = "x86_64")]
        if self.pass == SimdBackend::Avx2 {
            return crate::simd::ggm_x86::correct(left, right, parent_t, cw, children, child_t);
        }
        correct_scalar(left, right, parent_t, cw, children, child_t);
    }

    /// The last level's correction pass, straight to `u32` leaf shares:
    /// child `j` (layout as [`GgmPrg::correct_frontier`]) becomes
    /// `out[j] = ±(low 32 bits of its seed + t_j · final_cw)`, negated when
    /// `negate` (party 1). Branch-free in seeds and bits; any length.
    ///
    /// # Panics
    ///
    /// Panics if `left` and `right` differ in length, `parent_t` holds fewer
    /// than one bit per node, or `out` is not exactly two per node.
    pub fn correct_frontier_leaves(
        &self,
        (left, right): (&[Block128], &[Block128]),
        parent_t: &[u64],
        cw: &LevelCorrection,
        final_cw: u32,
        negate: bool,
        out: &mut [u32],
    ) {
        check_pass_shape(left, right, parent_t, out.len());
        #[cfg(target_arch = "x86_64")]
        if self.pass == SimdBackend::Avx2 {
            return crate::simd::ggm_x86::leaves(left, right, parent_t, cw, final_cw, negate, out);
        }
        leaves_scalar(left, right, parent_t, cw, final_cw, negate, out);
    }

    /// Run the two batched child sweeps for a frontier, returning the full
    /// PRG outputs `G_0(s) = PRF(s, 0) ⊕ s` and `G_1(s) = PRF(s, 1) ⊕ s`
    /// (feed-forward applied, control bit still embedded in the LSB).
    ///
    /// The first half of [`GgmPrg::expand_frontier`]: a caller that sweeps a
    /// level tile by tile hands each tile's outputs to
    /// [`GgmPrg::correct_frontier`] or [`GgmPrg::correct_frontier_leaves`]
    /// while they are in cache. Costs exactly `2 * seeds.len()` PRF block
    /// evaluations.
    pub fn frontier_sweeps<'s>(
        &self,
        seeds: &[Block128],
        scratch: &'s mut FrontierScratch,
    ) -> (&'s [Block128], &'s [Block128]) {
        let n = seeds.len();
        // Grow-only: both sweeps overwrite `[..n]` entirely, so shrinking (and
        // re-zeroing on the next growth) would be pure waste in the hot loop.
        if scratch.left.len() < n {
            scratch.left.resize(n, Block128::ZERO);
            scratch.right.resize(n, Block128::ZERO);
        }
        self.prf.expand_blocks_mmo(
            seeds,
            LEFT_TWEAK,
            RIGHT_TWEAK,
            &mut scratch.left[..n],
            &mut scratch.right[..n],
        );
        (&scratch.left[..n], &scratch.right[..n])
    }
}

/// Reusable buffers for [`GgmPrg::frontier_sweeps`], holding the raw PRF
/// outputs of the left and right sweeps. Keeping them outside the call lets a
/// level-synchronous expansion reuse one allocation across every level and
/// chunk of a job.
#[derive(Clone, Debug, Default)]
pub struct FrontierScratch {
    left: Vec<Block128>,
    right: Vec<Block128>,
}

impl FrontierScratch {
    /// Create empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create scratch buffers that can expand `seeds` seeds without
    /// reallocating.
    #[must_use]
    pub fn with_capacity(seeds: usize) -> Self {
        Self {
            left: Vec::with_capacity(seeds),
            right: Vec::with_capacity(seeds),
        }
    }
}

/// The length conditions every correction pass (and the AVX2 kernels'
/// memory accesses) rely on: `outputs` slots, two per node, and a parent bit
/// per node.
pub(crate) fn check_pass_shape(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    outputs: usize,
) {
    let n = left.len();
    assert_eq!(right.len(), n, "left and right sweeps differ in length");
    assert!(
        parent_t.len() >= n.div_ceil(64),
        "need one packed parent bit per node"
    );
    assert_eq!(outputs, 2 * n, "need two child slots per node");
}

/// One node of the correction pass: its corrected left and right children
/// and their control bits (`t_left | t_right << 1`), from the raw sweep
/// outputs and the parent's control bit `parent` (0 or 1).
#[inline(always)]
pub(crate) fn correct_node(
    left: Block128,
    right: Block128,
    parent: u64,
    cw: &LevelCorrection,
) -> (Block128, Block128, u64) {
    let mask = 0u64.wrapping_sub(parent);
    let (cw_low, cw_high) = cw.seed.halves();
    let (cw_low, cw_high) = (cw_low & mask, cw_high & mask);
    let (l_low, l_high) = left.halves();
    let (r_low, r_high) = right.halves();
    let t_left = (l_low & 1) ^ (mask & u64::from(cw.t_left));
    let t_right = (r_low & 1) ^ (mask & u64::from(cw.t_right));
    (
        Block128::from_halves((l_low & !1) ^ cw_low, l_high ^ cw_high),
        Block128::from_halves((r_low & !1) ^ cw_low, r_high ^ cw_high),
        t_left | t_right << 1,
    )
}

/// The `u32` leaf share of a corrected child with control bit `t` (0 or 1):
/// `(low 32 bits + t · final_cw)`, negated when `sign` is all-ones.
#[inline(always)]
pub(crate) fn leaf_lane(child: Block128, t: u64, final_cw: u32, sign: u32) -> u32 {
    let sum = (child.halves().0 as u32).wrapping_add(final_cw & (t as u32).wrapping_neg());
    // (x ^ m) - m is x for m = 0 and -x for m = all-ones.
    (sum ^ sign).wrapping_sub(sign)
}

/// The scalar reference of [`GgmPrg::correct_frontier`]: 32 nodes fill one
/// packed output word, their parent bits read as one half-word.
pub(crate) fn correct_scalar(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    children: &mut [Block128],
    child_t: &mut [u64],
) {
    let groups = left.chunks(32).zip(right.chunks(32));
    let outputs = children.chunks_mut(64).zip(child_t.iter_mut());
    for (group, ((lefts, rights), (pairs, word))) in groups.zip(outputs).enumerate() {
        let mut parents = parent_t[group / 2] >> (32 * (group % 2));
        let mut bits = 0u64;
        let nodes = lefts.iter().zip(rights).zip(pairs.chunks_exact_mut(2));
        for (k, ((l, r), pair)) in nodes.enumerate() {
            let (l, r, two) = correct_node(*l, *r, parents & 1, cw);
            parents >>= 1;
            pair[0] = l;
            pair[1] = r;
            bits |= two << (2 * k);
        }
        *word = bits;
    }
}

/// The scalar reference of [`GgmPrg::correct_frontier_leaves`].
pub(crate) fn leaves_scalar(
    left: &[Block128],
    right: &[Block128],
    parent_t: &[u64],
    cw: &LevelCorrection,
    final_cw: u32,
    negate: bool,
    out: &mut [u32],
) {
    let sign = u32::from(negate).wrapping_neg();
    let nodes = left.iter().zip(right).zip(out.chunks_exact_mut(2));
    for (i, ((l, r), pair)) in nodes.enumerate() {
        let parent = (parent_t[i / 64] >> (i % 64)) & 1;
        let (l, r, two) = correct_node(*l, *r, parent, cw);
        pair[0] = leaf_lane(l, two & 1, final_cw, sign);
        pair[1] = leaf_lane(r, two >> 1, final_cw, sign);
    }
}

impl std::fmt::Debug for GgmPrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GgmPrg")
            .field("prf", &self.prf.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_prf, PrfKind};

    #[test]
    fn expansion_is_deterministic() {
        for kind in PrfKind::ALL {
            let prg = GgmPrg::new(build_prf(kind));
            let seed = Block128::from_u128(0x42);
            assert_eq!(prg.expand(seed), prg.expand(seed), "{kind}");
        }
    }

    #[test]
    fn children_differ_from_each_other_and_parent() {
        let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
        let seed = Block128::from_u128(0x1357_9bdf);
        let out = prg.expand(seed);
        assert_ne!(out.seed_left, out.seed_right);
        assert_ne!(out.seed_left, seed);
        assert_ne!(out.seed_right, seed);
    }

    #[test]
    fn children_have_cleared_lsb() {
        let prg = GgmPrg::new(build_prf(PrfKind::Chacha20));
        for i in 0..64u128 {
            let out = prg.expand(Block128::from_u128(i));
            assert!(!out.seed_left.lsb());
            assert!(!out.seed_right.lsb());
        }
    }

    #[test]
    fn expand_one_matches_expand() {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let seed = Block128::from_u128(0xdead);
        let both = prg.expand(seed);
        assert_eq!(prg.expand_one(seed, false), (both.seed_left, both.t_left));
        assert_eq!(prg.expand_one(seed, true), (both.seed_right, both.t_right));
    }

    /// Lone nodes go through the batched sweeps, which must not change what
    /// they cost: exactly 2 counted blocks per `expand` and 1 per
    /// `expand_one`, for every PRF family on every backend.
    #[test]
    fn lone_node_expansions_count_exactly() {
        for kind in PrfKind::ALL {
            for backend in crate::SimdBackend::candidates() {
                let counting = Arc::new(crate::CountingPrf::new(crate::build_prf_with_backend(
                    kind, *backend,
                )));
                let prg = GgmPrg::new(counting.clone() as Arc<dyn Prf>);
                let seed = Block128::from_u128(5);
                let both = prg.expand(seed);
                assert_eq!(counting.calls(), 2, "{kind} {backend:?}: expand");
                let right = prg.expand_one(seed, true);
                assert_eq!(counting.calls(), 3, "{kind} {backend:?}: expand_one");
                assert_eq!(right, (both.seed_right, both.t_right), "{kind} {backend:?}");
                // And they still equal the scalar block function.
                let reference = counting.inner().eval_block(seed, LEFT_TWEAK) ^ seed;
                assert_eq!(both.seed_left, reference.with_cleared_lsb(), "{kind}");
                assert_eq!(both.t_left, reference.lsb(), "{kind}");
            }
        }
    }

    /// The batched frontier expansion must agree with per-node `expand` for
    /// every PRF family, on frontiers that straddle packed-word boundaries.
    #[test]
    fn frontier_matches_per_node_expand() {
        for kind in PrfKind::ALL {
            let prg = GgmPrg::new(build_prf(kind));
            for n in [1usize, 2, 31, 32, 33, 65] {
                let seeds: Vec<Block128> = (0..n as u128)
                    .map(|i| Block128::from_u128(i * 0x9e37 + 7))
                    .collect();
                let mut scratch = FrontierScratch::new();
                let mut children = vec![Block128::ZERO; 2 * n];
                let mut t_bits = vec![0u64; (2 * n).div_ceil(64)];
                // A zero correction leaves every node, set bit or not, as
                // `expand` gives it.
                let parents = vec![u64::MAX; n.div_ceil(64)];
                let zero = LevelCorrection::default();
                prg.expand_frontier(
                    &seeds,
                    &parents,
                    &zero,
                    &mut scratch,
                    &mut children,
                    &mut t_bits,
                );

                for (i, seed) in seeds.iter().enumerate() {
                    let expected = prg.expand(*seed);
                    assert_eq!(children[2 * i], expected.seed_left, "{kind} left {i}");
                    assert_eq!(children[2 * i + 1], expected.seed_right, "{kind} right {i}");
                    let t_left = (t_bits[(2 * i) / 64] >> ((2 * i) % 64)) & 1 == 1;
                    let t_right = (t_bits[(2 * i + 1) / 64] >> ((2 * i + 1) % 64)) & 1 == 1;
                    assert_eq!(t_left, expected.t_left, "{kind} t_left {i}");
                    assert_eq!(t_right, expected.t_right, "{kind} t_right {i}");
                }
            }
        }
    }

    #[test]
    fn frontier_counts_two_prf_calls_per_seed() {
        let counting = crate::build_counting_prf(PrfKind::SipHash);
        let prg = GgmPrg::new(counting.clone() as Arc<dyn Prf>);
        let seeds: Vec<Block128> = (0..40u128).map(Block128::from_u128).collect();
        let mut scratch = FrontierScratch::new();
        let mut children = vec![Block128::ZERO; 80];
        let mut t_bits = vec![0u64; 2];
        let zero = LevelCorrection::default();
        prg.expand_frontier(
            &seeds,
            &[0],
            &zero,
            &mut scratch,
            &mut children,
            &mut t_bits,
        );
        assert_eq!(counting.calls(), 80);
    }

    /// Stale packed bits from a previous level must not leak into the output.
    #[test]
    fn frontier_overwrites_stale_control_bits() {
        let prg = GgmPrg::new(build_prf(PrfKind::Chacha20));
        let seeds = [Block128::from_u128(3)];
        let mut scratch = FrontierScratch::with_capacity(1);
        let mut children = vec![Block128::ZERO; 2];
        let mut t_bits = vec![u64::MAX];
        let zero = LevelCorrection::default();
        prg.expand_frontier(
            &seeds,
            &[0],
            &zero,
            &mut scratch,
            &mut children,
            &mut t_bits,
        );
        assert_eq!(t_bits[0] >> 2, 0, "bits beyond the frontier must be zero");
    }
}
