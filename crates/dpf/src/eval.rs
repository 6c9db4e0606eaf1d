//! Single-point DPF evaluation and path walking.

use pir_field::{Block128, Ring128, Secret};
use pir_prf::{GgmPrg, LevelCorrection};

use crate::recorder::Recorder;
use crate::{DpfKey, NullRecorder};

/// Internal node state during evaluation: the seed and control bit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeState {
    pub seed: Secret<Block128>,
    pub t: Secret<bool>,
}

impl NodeState {
    pub(crate) fn root(key: &DpfKey) -> Self {
        Self {
            seed: key.root_seed,
            t: Secret::new(key.initial_control_bit()),
        }
    }

    /// This node's child from the PRG output `(seed, t)`, corrected by the
    /// level's `seed_cw` and `t_cw` under this node's control bit.
    #[inline(always)]
    fn child(
        self,
        (seed, t): (Secret<Block128>, Secret<bool>),
        seed_cw: Secret<Block128>,
        t_cw: Secret<bool>,
    ) -> Self {
        Self {
            seed: seed ^ (seed_cw & self.t.lsb_mask()),
            t: t ^ (self.t & t_cw),
        }
    }
}

/// Size in bytes charged for one node state in the memory model (16-byte seed
/// plus the control bit packed into one byte).
pub(crate) const NODE_STATE_BYTES: u64 = 17;

/// Descend one level toward the `right` child, applying the correction word.
pub(crate) fn descend_one<R: Recorder>(
    prg: &GgmPrg,
    key: &DpfKey,
    state: NodeState,
    level: usize,
    right: bool,
    recorder: &R,
) -> NodeState {
    recorder.prf_calls(1);
    let cw = &key.levels[level];
    let t_cw = if right { cw.t_right } else { cw.t_left };
    state.child(prg.expand_one(state.seed, right), cw.seed, t_cw)
}

/// Descend one level expanding *both* children (used by the full-domain
/// strategies, which visit every node exactly once).
pub(crate) fn descend_both<R: Recorder>(
    prg: &GgmPrg,
    key: &DpfKey,
    state: NodeState,
    level: usize,
    recorder: &R,
) -> (NodeState, NodeState) {
    recorder.prf_calls(2);
    let expansion = prg.expand(state.seed);
    let cw = &key.levels[level];
    (
        state.child((expansion.seed_left, expansion.t_left), cw.seed, cw.t_left),
        state.child(
            (expansion.seed_right, expansion.t_right),
            cw.seed,
            cw.t_right,
        ),
    )
}

/// Convert a leaf state into this party's additive output share.
///
/// Branch-free: the control bit is pseudorandom, so a conditional add would
/// mispredict on every other leaf of a full-domain expansion.
#[expect(
    clippy::disallowed_methods,
    reason = "a leaf share is the evaluation's output, uniformly random on its own"
)]
pub(crate) fn leaf_share(key: &DpfKey, state: NodeState) -> Ring128 {
    let value = Secret::from(state.seed) + (key.final_cw & state.t.lsb_mask());
    value.expose().negate_if(key.party == 1)
}

/// A width the expansion engine can emit leaf shares at.
///
/// Plain evaluation (tests, the unfused baseline) wants the full `Z_{2^128}`
/// share; the fused DPF × table kernel multiplies by the share's low 32 bits
/// only ([`Ring128::to_lane`]), and because `2^32` divides `2^128` the low 32
/// bits of a sum or negation mod `2^128` are the sum or negation mod `2^32` —
/// so it can compute, store and re-load `u32` leaves and get the very same
/// lane weights at a quarter of the bytes and without 128-bit carries.
pub(crate) trait Leaf: Copy + Default {
    /// What a consumer of this width reads of a full-width share.
    fn narrow(share: Ring128) -> Self;

    /// The leaf shares of one tile of `key`'s last level: the children of
    /// the nodes whose sweep outputs are `sweeps` and control bits
    /// `parent_t`, corrected by `cw`, into `out` (two per node). For every
    /// child, exactly `narrow(leaf_share(..))` of its corrected state.
    fn last_level(
        prg: &GgmPrg,
        key: &DpfKey,
        sweeps: (&[Secret<Block128>], &[Secret<Block128>]),
        parent_t: &[Secret<u64>],
        cw: &LevelCorrection,
        out: &mut [Self],
    );
}

impl Leaf for Ring128 {
    #[inline(always)]
    fn narrow(share: Ring128) -> Self {
        share
    }

    /// The corrected children, 64 nodes at a time, then [`leaf_share`]:
    /// a full-width share needs the whole child seed.
    fn last_level(
        prg: &GgmPrg,
        key: &DpfKey,
        (left, right): (&[Secret<Block128>], &[Secret<Block128>]),
        parent_t: &[Secret<u64>],
        cw: &LevelCorrection,
        out: &mut [Self],
    ) {
        let mut children = [Secret::default(); 128];
        let mut child_t = [Secret::default(); 2];
        let chunks = left
            .chunks(64)
            .zip(right.chunks(64))
            .zip(out.chunks_mut(128));
        for (word, ((lefts, rights), shares)) in chunks.enumerate() {
            let n = lefts.len();
            prg.correct_frontier(
                (lefts, rights),
                &parent_t[word..],
                cw,
                &mut children[..2 * n],
                &mut child_t[..(2 * n).div_ceil(64)],
            );
            for (j, (child, share)) in children.iter().zip(shares.iter_mut()).enumerate() {
                let t = (child_t[j / 64] >> (j % 64) as u32).lsb_mask();
                *share = leaf_share(key, NodeState { seed: *child, t });
            }
        }
    }
}

impl Leaf for u32 {
    #[inline(always)]
    fn narrow(share: Ring128) -> Self {
        share.to_lane()
    }

    fn last_level(
        prg: &GgmPrg,
        key: &DpfKey,
        sweeps: (&[Secret<Block128>], &[Secret<Block128>]),
        parent_t: &[Secret<u64>],
        cw: &LevelCorrection,
        out: &mut [Self],
    ) {
        let final_cw = key.final_cw.to_lane();
        prg.correct_frontier_leaves(sweeps, parent_t, cw, final_cw, key.party == 1, out);
    }
}

/// Evaluate the DPF at a single index.
///
/// Costs `depth` PRF calls. Two parties' results sum to `beta` at the target
/// index and to zero everywhere else.
///
/// # Panics
///
/// Panics if `index` lies outside the key's domain.
#[must_use]
pub fn eval_point(prg: &GgmPrg, key: &DpfKey, index: u64) -> Ring128 {
    assert!(
        index < key.params.domain_size,
        "index {index} outside domain of size {}",
        key.params.domain_size
    );
    let depth = key.depth();
    let mut state = NodeState::root(key);
    for level in 0..depth {
        let right = (index >> (depth - 1 - level)) & 1 == 1;
        state = descend_one(prg, key, state, level as usize, right, &NullRecorder);
    }
    leaf_share(key, state)
}

/// Walk from the root to the subtree root addressed by the top `prefix_bits`
/// bits in `prefix`: how cooperative-groups blocks and multi-GPU shards
/// position themselves on disjoint slices of the domain before expanding
/// them.
///
/// # Panics
///
/// Panics if `prefix_bits` exceeds the key depth or `prefix` does not fit in
/// `prefix_bits` bits.
pub(crate) fn subtree_root_state<R: Recorder>(
    prg: &GgmPrg,
    key: &DpfKey,
    prefix: u64,
    prefix_bits: u32,
    recorder: &R,
) -> NodeState {
    assert!(
        prefix_bits <= key.depth(),
        "prefix of {prefix_bits} bits exceeds tree depth {}",
        key.depth()
    );
    assert!(
        prefix_bits == 64 || prefix < (1u64 << prefix_bits),
        "prefix {prefix} does not fit in {prefix_bits} bits"
    );
    let mut state = NodeState::root(key);
    for level in 0..prefix_bits {
        let right = (prefix >> (prefix_bits - 1 - level)) & 1 == 1;
        state = descend_one(prg, key, state, level as usize, right, recorder);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_keys, DpfParams};
    use pir_prf::{build_prf, PrfKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn prg() -> GgmPrg {
        GgmPrg::new(build_prf(PrfKind::SipHash))
    }

    #[test]
    fn point_evaluation_is_correct_small_domain() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(5);
        let params = DpfParams::for_domain(16);
        for alpha in 0..16u64 {
            let (a, b) = generate_keys(&prg, &params, alpha, Ring128::ONE, &mut rng);
            for j in 0..16u64 {
                let sum = eval_point(&prg, &a, j) + eval_point(&prg, &b, j);
                let expected = if j == alpha {
                    Ring128::ONE
                } else {
                    Ring128::ZERO
                };
                assert_eq!(sum, expected, "alpha={alpha} j={j}");
            }
        }
    }

    #[test]
    fn point_evaluation_with_arbitrary_beta() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(6);
        let params = DpfParams::for_domain(64);
        let beta = Ring128::new(0xdead_beef_cafe);
        let (a, b) = generate_keys(&prg, &params, 17, beta, &mut rng);
        assert_eq!(eval_point(&prg, &a, 17) + eval_point(&prg, &b, 17), beta);
        assert_eq!(
            eval_point(&prg, &a, 18) + eval_point(&prg, &b, 18),
            Ring128::ZERO
        );
    }

    #[test]
    fn works_on_non_power_of_two_domains() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(7);
        let params = DpfParams::for_domain(1000);
        let (a, b) = generate_keys(&prg, &params, 999, Ring128::ONE, &mut rng);
        assert_eq!(
            eval_point(&prg, &a, 999) + eval_point(&prg, &b, 999),
            Ring128::ONE
        );
        assert_eq!(
            eval_point(&prg, &a, 0) + eval_point(&prg, &b, 0),
            Ring128::ZERO
        );
    }

    #[test]
    fn singleton_domain() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(8);
        let params = DpfParams::for_domain(1);
        let (a, b) = generate_keys(&prg, &params, 0, Ring128::ONE, &mut rng);
        assert_eq!(
            eval_point(&prg, &a, 0) + eval_point(&prg, &b, 0),
            Ring128::ONE
        );
    }

    #[test]
    fn single_share_looks_pseudorandom() {
        // Sanity privacy check: one party's shares across the domain should not
        // obviously reveal the target (e.g. by being zero off-target).
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(9);
        let params = DpfParams::for_domain(128);
        let (a, _b) = generate_keys(&prg, &params, 77, Ring128::ONE, &mut rng);
        let nonzero = (0..128u64)
            .filter(|j| eval_point(&prg, &a, *j) != Ring128::ZERO)
            .count();
        assert!(nonzero > 120, "shares are suspiciously structured");
    }

    #[test]
    fn subtree_root_matches_point_walk() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(10);
        let params = DpfParams::for_domain(256);
        let (a, _b) = generate_keys(&prg, &params, 100, Ring128::ONE, &mut rng);
        // Walking the full path via subtree_root_state then converting should
        // match eval_point.
        for _ in 0..16 {
            let j = rng.gen_range(0..256u64);
            let state = subtree_root_state(&prg, &a, j, 8, &NullRecorder);
            assert_eq!(leaf_share(&a, state), eval_point(&prg, &a, j));
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_range_index_panics() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(11);
        let params = DpfParams::for_domain(8);
        let (a, _) = generate_keys(&prg, &params, 0, Ring128::ONE, &mut rng);
        let _ = eval_point(&prg, &a, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds tree depth")]
    fn too_long_prefix_panics() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(12);
        let params = DpfParams::for_domain(8);
        let (a, _) = generate_keys(&prg, &params, 0, Ring128::ONE, &mut rng);
        let _ = subtree_root_state(&prg, &a, 0, 4, &NullRecorder);
    }
}
