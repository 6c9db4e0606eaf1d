//! The length-doubling PRG that drives GGM-tree expansion.

use std::sync::Arc;

use pir_field::Block128;

use crate::Prf;

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
}

/// Tweak used to derive the left child.
const LEFT_TWEAK: u64 = 0;
/// Tweak used to derive the right child.
const RIGHT_TWEAK: u64 = 1;

impl GgmPrg {
    /// Build a PRG from the given PRF.
    #[must_use]
    pub fn new(prf: Arc<dyn Prf>) -> Self {
        Self { prf }
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

    /// Expand a whole frontier of seeds one level down in two batched PRF
    /// sweeps (one per child tweak).
    ///
    /// `seeds[i]`'s children land at `out_seeds[2 * i]` (left) and
    /// `out_seeds[2 * i + 1]` (right), with their control bits packed into
    /// `out_t` (bit `j % 64` of word `j / 64` for child index `j`; `out_t` is
    /// fully overwritten). Each child is bit-identical to the corresponding
    /// [`GgmPrg::expand`] output, and the call costs exactly
    /// `2 * seeds.len()` PRF block evaluations — the unit the cost model
    /// counts is unchanged, only the host-side batching differs.
    ///
    /// # Panics
    ///
    /// Panics if `out_seeds` is not exactly twice `seeds` or `out_t` cannot
    /// hold one bit per child.
    pub fn expand_frontier(
        &self,
        seeds: &[Block128],
        scratch: &mut FrontierScratch,
        out_seeds: &mut [Block128],
        out_t: &mut [u64],
    ) {
        let n = seeds.len();
        assert_eq!(out_seeds.len(), 2 * n, "need two child slots per seed");
        assert_eq!(
            out_t.len(),
            (2 * n).div_ceil(64),
            "need one packed control bit per child"
        );
        let (left, right) = self.frontier_sweeps(seeds, scratch);

        out_t.fill(0);
        for i in 0..n {
            let left = left[i];
            let right = right[i];
            out_seeds[2 * i] = left.with_cleared_lsb();
            out_seeds[2 * i + 1] = right.with_cleared_lsb();
            let bits = (left.lsb() as u64) | ((right.lsb() as u64) << 1);
            out_t[i / 32] |= bits << (2 * i % 64);
        }
    }

    /// Run the two batched child sweeps for a frontier, returning the full
    /// PRG outputs `G_0(s) = PRF(s, 0) ⊕ s` and `G_1(s) = PRF(s, 1) ⊕ s`
    /// (feed-forward applied, control bit still embedded in the LSB).
    ///
    /// This is the lowest-level building block of the frontier engine:
    /// callers that also apply correction words fuse the control-bit split
    /// and the correction into one pass over the returned slices instead of
    /// paying a separate interleave loop (see the `pir-dpf` strategies).
    /// Costs exactly `2 * seeds.len()` PRF block evaluations.
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

/// Reusable buffers for [`GgmPrg::expand_frontier`], holding the raw PRF
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
                prg.expand_frontier(&seeds, &mut scratch, &mut children, &mut t_bits);

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
        prg.expand_frontier(&seeds, &mut scratch, &mut children, &mut t_bits);
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
        prg.expand_frontier(&seeds, &mut scratch, &mut children, &mut t_bits);
        assert_eq!(t_bits[0] >> 2, 0, "bits beyond the frontier must be zero");
    }
}
