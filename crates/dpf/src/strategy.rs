//! Full-domain expansion strategies (§3.2.2–§3.2.3 of the paper).
//!
//! The level-synchronous strategies run on a **frontier engine**: the whole
//! current tree level lives in one contiguous seed buffer (control bits packed
//! 64-per-word), each level is expanded with two batched PRF sweeps
//! ([`GgmPrg::frontier_sweeps`]) and one correction pass
//! ([`GgmPrg::correct_frontier`]) into a second buffer, and the buffers
//! ping-pong. This replaces per-node `NodeState` construction and per-node
//! dynamic PRF dispatch with straight-line loops, while the recorder sees the
//! exact same event totals as the per-node formulation — the simulated cost
//! model is layout-independent by construction (the parity tests in
//! `parity_tests` prove both properties against the scalar reference).
//!
//! Computing and recording are separate: a `RunPlan` cuts a subtree into
//! host runs and computes their leaves without recording anything, and
//! `account_subtree` records the modelled kernel's events over the same
//! shape. Both are functions of the public shape, which is what lets the
//! fused batch kernel expand several keys' runs in lockstep and still charge
//! each block exactly its own key's events.
//!
//! The engine is generic over the leaf width it emits (`eval::Leaf`):
//! full `Ring128` shares for the evaluation API, `u32` lane weights for the
//! fused DPF × table kernel, which reads nothing else of a share.

use pir_field::{Block128, Ring128, Secret};
use pir_prf::{FrontierScratch, GgmPrg};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

use crate::eval::{
    descend_both, descend_one, leaf_share, subtree_root_state, Leaf, NodeState, NODE_STATE_BYTES,
};
use crate::recorder::{NullRecorder, Recorder};
use crate::tile::{FRONTIER_TILE, HOST_FRONTIER_LEAVES};
use crate::DpfKey;

/// Bytes charged for one materialized leaf output: the modelled kernel's
/// 128-bit ring element, whatever `Leaf` width the host engine emits.
const LEAF_BYTES: u64 = 16;

/// How a server expands a DPF over (a slice of) the table domain.
///
/// The three strategies trade computation against working-set memory exactly
/// as the paper's Figure 6 describes:
///
/// | strategy | PRF calls | scratch memory |
/// |---|---|---|
/// | `BranchParallel` | `O(L log L)` (redundant re-walks) | `O(chunk)` |
/// | `LevelByLevel` | `O(L)` | `O(L)` |
/// | `MemoryBounded` | `O(L)` | `O(K + log L)` |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalStrategy {
    /// Every leaf is computed independently by re-walking the path from the
    /// (sub)tree root: optimal memory, `log L`-fold redundant computation.
    BranchParallel,
    /// Breadth-first expansion storing every node of the current level:
    /// optimal computation, `O(L)` memory.
    LevelByLevel,
    /// The paper's memory-bounded tree traversal: depth-first over subtrees of
    /// `chunk` leaves, each expanded level-by-level and consumed immediately.
    MemoryBounded {
        /// Number of leaves expanded (and handed to the consumer) at a time;
        /// the paper's `K`, default 128.
        chunk: usize,
    },
}

impl EvalStrategy {
    /// The paper's default memory-bounded configuration (`K = 128`).
    #[must_use]
    pub const fn memory_bounded_default() -> Self {
        EvalStrategy::MemoryBounded { chunk: 128 }
    }

    /// Short label used in benchmark output and kernel names.
    ///
    /// Borrowed for the fixed strategies so hot launch paths can name their
    /// kernels without allocating; only the parameterized `MemoryBounded`
    /// label is formatted (and callers cache the kernel name per job, not per
    /// launch).
    #[must_use]
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            EvalStrategy::BranchParallel => Cow::Borrowed("branch-parallel"),
            EvalStrategy::LevelByLevel => Cow::Borrowed("level-by-level"),
            EvalStrategy::MemoryBounded { chunk } => Cow::Owned(format!("mem-bound(K={chunk})")),
        }
    }
}

impl Default for EvalStrategy {
    fn default() -> Self {
        Self::memory_bounded_default()
    }
}

/// A subtree of the evaluation tree: the node reached by following the top
/// `prefix_bits` bits of `prefix` from the root.
///
/// [`Subtree::root`] denotes the whole domain. Cooperative-groups blocks and
/// multi-GPU shards evaluate disjoint non-root subtrees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Subtree {
    /// Path from the root, most-significant bit first.
    pub prefix: u64,
    /// Number of meaningful bits in `prefix`.
    pub prefix_bits: u32,
}

impl Subtree {
    /// The whole evaluation tree.
    #[must_use]
    pub const fn root() -> Self {
        Self {
            prefix: 0,
            prefix_bits: 0,
        }
    }

    /// Split the domain of `key` into `2^split_bits` equally sized subtrees.
    ///
    /// # Panics
    ///
    /// Panics if `split_bits` exceeds the key depth.
    #[must_use]
    pub fn split(key: &DpfKey, split_bits: u32) -> Vec<Self> {
        assert!(
            split_bits <= key.depth(),
            "cannot split a depth-{} tree into 2^{split_bits} subtrees",
            key.depth()
        );
        Self::root().refined(split_bits).collect()
    }

    /// The fewest aligned subtrees of a `2^domain_bits`-leaf domain whose
    /// leaves are exactly `leaves`, in leaf order: at each step the largest
    /// subtree that starts at the range's start and ends within it.
    #[must_use]
    pub fn cover(leaves: Range<u64>, domain_bits: u32) -> Vec<Self> {
        let mut cover = Vec::new();
        let mut start = leaves.start;
        while start < leaves.end {
            let aligned = start.trailing_zeros().min(domain_bits);
            let span_bits = aligned.min((leaves.end - start).ilog2());
            cover.push(Self {
                prefix: start >> span_bits,
                prefix_bits: domain_bits - span_bits,
            });
            start += 1 << span_bits;
        }
        cover
    }

    /// The leaves (padded-domain indices) under this subtree of a
    /// `2^domain_bits`-leaf domain.
    #[must_use]
    pub fn leaves(&self, domain_bits: u32) -> Range<u64> {
        let span_bits = domain_bits - self.prefix_bits;
        self.prefix << span_bits..(self.prefix + 1) << span_bits
    }

    /// The subtree both `self` and `other` contain: aligned subtrees nest or
    /// are disjoint, so that is the deeper of the two, or nothing.
    #[must_use]
    pub fn intersection(self, other: Self) -> Option<Self> {
        let (outer, inner) = if self.prefix_bits <= other.prefix_bits {
            (self, other)
        } else {
            (other, self)
        };
        (inner.prefix >> (inner.prefix_bits - outer.prefix_bits) == outer.prefix).then_some(inner)
    }

    /// This subtree cut into descendants at least `prefix_bits` deep, in
    /// leaf order; a subtree already that deep is its own refinement.
    pub fn refined(self, prefix_bits: u32) -> impl Iterator<Item = Self> {
        let extra = prefix_bits.saturating_sub(self.prefix_bits);
        (0..1u64 << extra).map(move |child| Self {
            prefix: self.prefix << extra | child,
            prefix_bits: self.prefix_bits + extra,
        })
    }

    /// Index of the first leaf covered by this subtree, in the padded domain.
    #[must_use]
    pub fn base_index(&self, key: &DpfKey) -> u64 {
        self.leaves(key.depth()).start
    }

    /// Number of (padded) leaves under this subtree.
    #[must_use]
    pub fn leaf_count(&self, key: &DpfKey) -> u64 {
        1u64 << (key.depth() - self.prefix_bits)
    }
}

impl Default for Subtree {
    fn default() -> Self {
        Self::root()
    }
}

/// Expand `key` over `subtree` with the given strategy, streaming leaf shares
/// to `visitor` as `(first_leaf_index, values)` chunks.
///
/// Leaf indices are global (padded-domain) indices; indices at or beyond
/// `key.params.domain_size` are padding and are still reported (their
/// reconstructed value is zero), callers that multiply against a table simply
/// skip them.
///
/// This is the single implementation behind plain evaluation and the
/// `recorder`'s view of it: the leaves come from the host's runs, and the
/// recorder observes the PRF calls, scratch memory and arithmetic of the
/// modelled kernel over the same shape, before the visitor's calls.
pub fn eval_subtree_with<R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    subtree: Subtree,
    strategy: EvalStrategy,
    recorder: &R,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, &[Ring128]),
{
    expand_subtree(prg, key, subtree, strategy, recorder, visitor);
}

/// [`eval_subtree_with`] at the leaf width `L` the consumer reads: `visitor`
/// sees, for every leaf `j`, exactly `L::narrow(share_j)`.
pub(crate) fn expand_subtree<L, R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    subtree: Subtree,
    strategy: EvalStrategy,
    recorder: &R,
    visitor: &mut F,
) where
    L: Leaf,
    R: Recorder,
    F: FnMut(u64, &[L]),
{
    let plan = RunPlan::new(key.depth(), subtree, strategy);
    let mut roots = Vec::with_capacity(plan.roots_per_key());
    plan.push_roots(prg, key, &mut roots);
    let mut frontier = FrontierBuffers::for_job(plan.run_len());
    let mut leaves = vec![L::default(); plan.run_len()];
    // Every chunk lies inside one run and the chunks come in leaf order, so
    // each run is expanded once, when its first chunk is visited.
    let mut expanded = None;
    account_subtree(
        recorder,
        key.depth(),
        subtree,
        strategy,
        &mut |base, len| {
            let run = (base - plan.base) >> plan.run_bits;
            if expanded != Some(run) {
                plan.expand(prg, key, &roots, run, &mut frontier, &mut leaves);
                expanded = Some(run);
            }
            let offset = (base - plan.run_base(run)) as usize;
            visitor(base, &leaves[offset..offset + len]);
        },
    );
}

/// Expand `key` over its whole domain, streaming leaf chunks to `visitor`.
pub fn eval_full_domain_with<R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    strategy: EvalStrategy,
    recorder: &R,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, &[Ring128]),
{
    eval_subtree_with(prg, key, Subtree::root(), strategy, recorder, visitor);
}

/// Expand `key` over its whole domain and materialize the leaf share vector
/// (truncated to the real, unpadded domain size).
#[must_use]
pub fn eval_full_domain<R>(
    prg: &GgmPrg,
    key: &DpfKey,
    strategy: EvalStrategy,
    recorder: &R,
) -> Vec<Ring128>
where
    R: Recorder,
{
    let domain = key.params.domain_size as usize;
    let padded = key.params.padded_size();
    recorder.alloc(padded * LEAF_BYTES);
    recorder.global_write(padded * LEAF_BYTES);
    let mut output = vec![Ring128::ZERO; domain];
    eval_full_domain_with(prg, key, strategy, recorder, &mut |base, values| {
        for (offset, value) in values.iter().enumerate() {
            let index = base as usize + offset;
            if index < domain {
                output[index] = *value;
            }
        }
    });
    recorder.release(padded * LEAF_BYTES);
    output
}

/// Leaves per branch-parallel chunk (at most; the whole subtree if smaller).
const BRANCH_CHUNK_BITS: u32 = 8;

/// How the host expands one subtree: in runs of `2^run_bits` leaves, in leaf
/// order, each from its own root. A function of the public shape alone.
///
/// *Execute wide, account narrow.* The paper sizes the memory-bounded `K` to
/// a thread block's shared memory; on the host the top levels of a `K`-leaf
/// chunk hold 1–8 nodes, too few to fill a vector PRF sweep. So the host
/// expands the levels above a [`HOST_FRONTIER_LEAVES`]-leaf run (or a
/// `K`-leaf one, if larger) breadth-first once — the run roots — and each
/// run level by level, while [`account_subtree`] records what the `K`-leaf
/// traversal records over the same shape: the shares, the chunks and every
/// counter are those of the paper's `K`, and the PRF evaluates the same
/// blocks. Level-by-level is one run of the whole subtree; branch-parallel
/// re-walks every leaf of a run from the subtree root.
///
/// Because computing records nothing, several keys sharing a subtree can be
/// expanded run by run in lockstep (the fused batch kernel), each key's
/// events recorded afterwards on its own block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunPlan {
    subtree: Subtree,
    /// Levels below the subtree root.
    depth_below: u32,
    /// Levels expanded breadth-first above the runs.
    top_bits: u32,
    /// `log2` of the leaves per run.
    run_bits: u32,
    /// Branch-parallel: each leaf re-walks its path from the subtree root.
    rewalk: bool,
    /// First leaf of the subtree (padded-domain index).
    base: u64,
}

impl RunPlan {
    /// The runs of `subtree` of a depth-`depth` key under `strategy`.
    pub(crate) fn new(depth: u32, subtree: Subtree, strategy: EvalStrategy) -> Self {
        let depth_below = depth - subtree.prefix_bits;
        let (run_bits, rewalk) = match strategy {
            EvalStrategy::BranchParallel => (BRANCH_CHUNK_BITS.min(depth_below), true),
            EvalStrategy::LevelByLevel => (depth_below, false),
            EvalStrategy::MemoryBounded { chunk } => {
                let run = chunk.max(1).next_power_of_two().max(HOST_FRONTIER_LEAVES);
                ((run as u64).trailing_zeros().min(depth_below), false)
            }
        };
        Self {
            subtree,
            depth_below,
            top_bits: if rewalk { 0 } else { depth_below - run_bits },
            run_bits,
            rewalk,
            base: subtree.leaves(depth).start,
        }
    }

    /// Number of runs, in leaf order.
    pub(crate) fn runs(&self) -> u64 {
        1 << (self.depth_below - self.run_bits)
    }

    /// Leaves per run.
    pub(crate) fn run_len(&self) -> usize {
        1 << self.run_bits
    }

    /// First leaf (padded-domain index) of run `run`.
    pub(crate) fn run_base(&self, run: u64) -> u64 {
        self.base + (run << self.run_bits)
    }

    /// Nodes [`RunPlan::push_roots`] appends per key.
    pub(crate) fn roots_per_key(&self) -> usize {
        1 << self.top_bits
    }

    /// Append `key`'s run roots to `roots`: the subtree root, expanded
    /// breadth-first down to the runs — the PRF blocks the paper's
    /// depth-first descent evaluates, in another order. A re-walk starts
    /// every run from the subtree root itself.
    pub(crate) fn push_roots(&self, prg: &GgmPrg, key: &DpfKey, roots: &mut Vec<NodeState>) {
        let Subtree {
            prefix,
            prefix_bits,
        } = self.subtree;
        let first = roots.len();
        let root = subtree_root_state(prg, key, prefix, prefix_bits, &NullRecorder);
        roots.push(root);
        for level in prefix_bits..prefix_bits + self.top_bits {
            // In place, last parent first: node i's children land in slots
            // 2i and 2i + 1, never over a parent still to expand.
            let parents = roots.len() - first;
            roots.resize(first + 2 * parents, root);
            for node in (0..parents).rev() {
                let state = roots[first + node];
                let (left, right) = descend_both(prg, key, state, level as usize, &NullRecorder);
                roots[first + 2 * node] = left;
                roots[first + 2 * node + 1] = right;
            }
        }
    }

    /// Write run `run` of `key` — from the key's `roots`, as pushed by
    /// [`RunPlan::push_roots`] — into `out` ([`RunPlan::run_len`] leaves).
    /// Records nothing.
    pub(crate) fn expand<L: Leaf>(
        &self,
        prg: &GgmPrg,
        key: &DpfKey,
        roots: &[NodeState],
        run: u64,
        frontier: &mut FrontierBuffers,
        out: &mut [L],
    ) {
        let level = self.subtree.prefix_bits + self.top_bits;
        if self.rewalk {
            rewalk(
                prg,
                key,
                roots[0],
                level,
                self.depth_below,
                run << self.run_bits,
                out,
            );
        } else {
            let root = roots[run as usize];
            level_by_level(prg, key, root, level, self.run_bits, frontier, out);
        }
    }
}

/// Record what the modelled kernel records for expanding `subtree` of a
/// depth-`depth` key with `strategy`, then call `visitor(base, len)` once per
/// chunk of leaves, in leaf order.
///
/// The per-node formulation's events, summed: its PRF calls, its leaf
/// conversions and its scratch high-water mark, in closed form. Every
/// recorder reads these as totals and a peak, so one allocation to the peak
/// and back stands for the traversal's whole allocate/release sequence; the
/// parity tests assert the result counter by counter against the per-node
/// reference. All of it is a function of the shape alone, and recording it
/// costs a handful of events whatever the domain.
pub(crate) fn account_subtree<R, F>(
    recorder: &R,
    depth: u32,
    subtree: Subtree,
    strategy: EvalStrategy,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, usize),
{
    let height = depth - subtree.prefix_bits;
    let leaves = 1u64 << height;
    let (chunk_bits, prf_calls, peak_bytes) = match strategy {
        // Each leaf re-walks its path, one call per level, into one chunk
        // buffer live for the whole subtree.
        EvalStrategy::BranchParallel => {
            let chunk_bits = BRANCH_CHUNK_BITS.min(height);
            let peak = (1u64 << chunk_bits) * LEAF_BYTES;
            (chunk_bits, leaves * u64::from(height), peak)
        }
        // One level-by-level chunk: two calls per inner node.
        EvalStrategy::LevelByLevel => (height, 2 * (leaves - 1), chunk_peak(height)),
        // Depth-first down to `K`-leaf chunks: the same calls, and one node
        // state per level above the chunk live beside the chunk's own peak.
        EvalStrategy::MemoryBounded { chunk } => {
            let chunk = chunk.max(1).next_power_of_two();
            let chunk_bits = (chunk as u64).trailing_zeros().min(height);
            let descent = u64::from(height - chunk_bits) * NODE_STATE_BYTES;
            (
                chunk_bits,
                2 * (leaves - 1),
                descent + chunk_peak(chunk_bits),
            )
        }
    };
    // The walk from the root to the subtree root: one call per level.
    recorder.prf_calls(u64::from(subtree.prefix_bits) + prf_calls);
    recorder.alloc(peak_bytes);
    recorder.release(peak_bytes);
    recorder.arithmetic(leaves);
    let chunk_len = 1u64 << chunk_bits;
    let base = subtree.leaves(depth).start;
    for chunk_base in (base..base + leaves).step_by(chunk_len as usize) {
        visitor(chunk_base, chunk_len as usize);
    }
}

/// Scratch high-water mark of one per-node level-by-level expansion of
/// `2^bits` leaves: the root state, then each level's children beside their
/// parents (three half-widths of the last level at most), then the leaves
/// beside the last level of states.
fn chunk_peak(bits: u32) -> u64 {
    let leaves = 1u64 << bits;
    (leaves * (NODE_STATE_BYTES + LEAF_BYTES)).max(3 * leaves / 2 * NODE_STATE_BYTES)
}

/// Branch-parallel: leaf `first_local + i` of the `depth_below`-level subtree
/// under `root` (at absolute depth `level_offset`) into `out[i]`, each
/// re-walking its path from `root`.
fn rewalk<L: Leaf>(
    prg: &GgmPrg,
    key: &DpfKey,
    root: NodeState,
    level_offset: u32,
    depth_below: u32,
    first_local: u64,
    out: &mut [L],
) {
    for (local, leaf) in (first_local..).zip(out.iter_mut()) {
        let mut state = root;
        for level in 0..depth_below {
            let right = (local >> (depth_below - 1 - level)) & 1 == 1;
            let level = (level_offset + level) as usize;
            state = descend_one(prg, key, state, level, right, &NullRecorder);
        }
        *leaf = L::narrow(leaf_share(key, state));
    }
}

/// Reusable buffers backing the frontier engine: ping-pong seed levels with
/// packed control bits and the PRF scratch.
///
/// One instance serves a whole expansion job — every run of every key a
/// [`RunPlan`] expands — so the hot loop performs no allocation after the
/// first run.
pub(crate) struct FrontierBuffers {
    /// Seeds of the current level (the frontier).
    seeds: Vec<Secret<Block128>>,
    /// Seeds of the next level (swap target).
    next_seeds: Vec<Secret<Block128>>,
    /// Control bits of the current level, packed 64 per word.
    t_bits: Vec<Secret<u64>>,
    /// Control bits of the next level.
    next_t_bits: Vec<Secret<u64>>,
    /// Raw PRF sweep outputs, owned by [`GgmPrg::frontier_sweeps`].
    scratch: FrontierScratch,
}

impl FrontierBuffers {
    /// Buffers sized so that expanding up to `leaves` leaves never
    /// reallocates. The leaf level is converted to shares straight from the
    /// sweep, never stored as seeds, so the widest seed level is `leaves / 2`
    /// (or the lone root).
    pub(crate) fn for_job(leaves: usize) -> Self {
        let seeds = (leaves / 2).max(1);
        Self {
            seeds: Vec::with_capacity(seeds),
            next_seeds: Vec::with_capacity(seeds),
            t_bits: Vec::with_capacity(seeds.div_ceil(64)),
            next_t_bits: Vec::with_capacity(seeds.div_ceil(64)),
            scratch: FrontierScratch::with_capacity(FRONTIER_TILE.min(seeds)),
        }
    }
}

/// Level-by-level: materialize every node of each level, expanding the whole
/// frontier per level with two batched PRF sweeps, and write the
/// `2^depth_below` leaf shares under `root` into `out`.
///
/// `level_offset` is the absolute tree depth of `root` (0 when expanding from
/// the real root), needed to pick the right correction words when expanding a
/// subtree.
///
/// The run records nothing: what the modelled kernel records is
/// [`account_subtree`]'s, so the host can expand at a width the model does
/// not share.
fn level_by_level<L: Leaf>(
    prg: &GgmPrg,
    key: &DpfKey,
    root: NodeState,
    level_offset: u32,
    depth_below: u32,
    frontier: &mut FrontierBuffers,
    out: &mut [L],
) {
    debug_assert_eq!(out.len(), 1 << depth_below);
    if depth_below == 0 {
        out[0] = L::narrow(leaf_share(key, root));
        return;
    }
    // Buffer lengths are tracked explicitly and the Vecs only ever grow:
    // every slot in play is overwritten by the correction pass, so per-level
    // resizing (with its zero-fill on regrowth) would be pure overhead when
    // the buffers are reused across levels and runs.
    grow(&mut frontier.seeds, 1, Secret::default());
    frontier.seeds[0] = root.seed;
    grow(&mut frontier.t_bits, 1, Secret::default());
    frontier.t_bits[0] = root.t.lsb_mask::<u64>() & Secret::new(1);

    let mut len = 1usize;
    for level in 0..depth_below {
        let cw = &key.levels[(level_offset + level) as usize];
        // On the last level the children are the leaves: the pass converts
        // them straight to shares, never stored as a seed level.
        let is_last = level + 1 == depth_below;
        if !is_last {
            grow(&mut frontier.next_seeds, 2 * len, Secret::default());
            grow(
                &mut frontier.next_t_bits,
                (2 * len).div_ceil(64),
                Secret::default(),
            );
        }
        // Sweep the level in L1-sized tiles and hand each tile's raw outputs
        // to the correction pass while they are in cache. A tile starts on a
        // multiple of 64 nodes, so its parent bits start a word and its
        // child bits fill whole words of their own.
        for start in (0..len).step_by(FRONTIER_TILE) {
            let end = (start + FRONTIER_TILE).min(len);
            let sweeps = prg.frontier_sweeps(&frontier.seeds[start..end], &mut frontier.scratch);
            let parent_t = &frontier.t_bits[start / 64..];
            if is_last {
                L::last_level(prg, key, sweeps, parent_t, cw, &mut out[2 * start..2 * end]);
            } else {
                prg.correct_frontier(
                    sweeps,
                    parent_t,
                    cw,
                    &mut frontier.next_seeds[2 * start..2 * end],
                    &mut frontier.next_t_bits[start / 32..(2 * end).div_ceil(64)],
                );
            }
        }
        std::mem::swap(&mut frontier.seeds, &mut frontier.next_seeds);
        std::mem::swap(&mut frontier.t_bits, &mut frontier.next_t_bits);
        len *= 2;
    }
}

/// Grow `buf` to at least `n` entries without ever shrinking it.
#[inline]
fn grow<T: Copy>(buf: &mut Vec<T>, n: usize, fill: T) {
    if buf.len() < n {
        buf.resize(n, fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{CountingRecorder, NullRecorder};
    use crate::{eval_point, generate_keys, DpfParams};
    use pir_prf::{build_prf, PrfKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prg() -> GgmPrg {
        GgmPrg::new(build_prf(PrfKind::SipHash))
    }

    const STRATEGIES: [EvalStrategy; 4] = [
        EvalStrategy::BranchParallel,
        EvalStrategy::LevelByLevel,
        EvalStrategy::MemoryBounded { chunk: 4 },
        EvalStrategy::MemoryBounded { chunk: 128 },
    ];

    #[test]
    fn full_domain_matches_point_eval_for_all_strategies() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(31);
        // Non-power-of-two domains: one inside a single frontier tile, one
        // whose last levels take several tiles each, and one whose
        // memory-bounded descent spans several host runs.
        const MULTI_TILE: u64 = 1500;
        assert!(MULTI_TILE > 4 * FRONTIER_TILE as u64);
        const MULTI_RUN: u64 = 5000;
        assert!(MULTI_RUN > 2 * HOST_FRONTIER_LEAVES as u64);
        for domain in [200, MULTI_TILE, MULTI_RUN] {
            let params = DpfParams::for_domain(domain);
            let (a, b) = generate_keys(&prg, &params, 137, Ring128::ONE, &mut rng);

            for strategy in STRATEGIES {
                for key in [&a, &b] {
                    let full = eval_full_domain(&prg, key, strategy, &NullRecorder);
                    assert_eq!(full.len() as u64, domain);
                    for j in (0..domain).step_by(13) {
                        assert_eq!(
                            full[j as usize],
                            eval_point(&prg, key, j),
                            "strategy {strategy:?} domain {domain} index {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strategies_reconstruct_the_point_function() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(32);
        let params = DpfParams::for_domain(128);
        let (a, b) = generate_keys(&prg, &params, 77, Ring128::new(42), &mut rng);
        for strategy in STRATEGIES {
            let va = eval_full_domain(&prg, &a, strategy, &NullRecorder);
            let vb = eval_full_domain(&prg, &b, strategy, &NullRecorder);
            for j in 0..128usize {
                let sum = va[j] + vb[j];
                let expected = if j == 77 {
                    Ring128::new(42)
                } else {
                    Ring128::ZERO
                };
                assert_eq!(sum, expected, "strategy {strategy:?} index {j}");
            }
        }
    }

    #[test]
    fn subtree_split_covers_domain_exactly_once() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(33);
        let params = DpfParams::for_domain(256);
        let (a, _) = generate_keys(&prg, &params, 5, Ring128::ONE, &mut rng);

        let full = eval_full_domain(&prg, &a, EvalStrategy::LevelByLevel, &NullRecorder);
        let mut stitched = vec![None; 256];
        for subtree in Subtree::split(&a, 3) {
            assert_eq!(subtree.leaf_count(&a), 32);
            eval_subtree_with(
                &prg,
                &a,
                subtree,
                EvalStrategy::memory_bounded_default(),
                &NullRecorder,
                &mut |base, values| {
                    for (offset, value) in values.iter().enumerate() {
                        let slot = &mut stitched[base as usize + offset];
                        assert!(slot.is_none(), "leaf visited twice");
                        *slot = Some(*value);
                    }
                },
            );
        }
        let stitched: Vec<Ring128> = stitched.into_iter().map(Option::unwrap).collect();
        assert_eq!(stitched, full);
    }

    #[test]
    fn branch_parallel_does_redundant_work() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(34);
        let params = DpfParams::for_domain(1 << 10);
        let (a, _) = generate_keys(&prg, &params, 5, Ring128::ONE, &mut rng);

        let branch = CountingRecorder::new();
        let _ = eval_full_domain(&prg, &a, EvalStrategy::BranchParallel, &branch);
        let level = CountingRecorder::new();
        let _ = eval_full_domain(&prg, &a, EvalStrategy::LevelByLevel, &level);
        let bounded = CountingRecorder::new();
        let _ = eval_full_domain(&prg, &a, EvalStrategy::memory_bounded_default(), &bounded);

        // Branch-parallel: L * log L = 10240 calls. Others: ~2L = 2046.
        assert_eq!(branch.prf_calls_total(), 10 * 1024);
        assert_eq!(level.prf_calls_total(), 2 * (1024 - 1));
        assert_eq!(bounded.prf_calls_total(), 2 * (1024 - 1));
    }

    #[test]
    fn memory_bounded_uses_far_less_scratch_than_level_by_level() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(35);
        let params = DpfParams::for_domain(1 << 12);
        let (a, _) = generate_keys(&prg, &params, 9, Ring128::ONE, &mut rng);

        // Compare scratch used by the streaming visitor path (no materialized
        // output vector).
        let level = CountingRecorder::new();
        eval_full_domain_with(&prg, &a, EvalStrategy::LevelByLevel, &level, &mut |_, _| {});
        let bounded = CountingRecorder::new();
        eval_full_domain_with(
            &prg,
            &a,
            EvalStrategy::MemoryBounded { chunk: 128 },
            &bounded,
            &mut |_, _| {},
        );
        let branch = CountingRecorder::new();
        eval_full_domain_with(
            &prg,
            &a,
            EvalStrategy::BranchParallel,
            &branch,
            &mut |_, _| {},
        );

        assert!(
            bounded.peak_bytes() * 8 < level.peak_bytes(),
            "memory-bounded ({}) should be far below level-by-level ({})",
            bounded.peak_bytes(),
            level.peak_bytes()
        );
        assert!(branch.peak_bytes() <= bounded.peak_bytes() * 2);
    }

    #[test]
    fn chunk_sizes_round_to_powers_of_two() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(36);
        let params = DpfParams::for_domain(64);
        let (a, b) = generate_keys(&prg, &params, 3, Ring128::ONE, &mut rng);
        for chunk in [1usize, 3, 5, 7, 60, 64, 1000] {
            let va = eval_full_domain(
                &prg,
                &a,
                EvalStrategy::MemoryBounded { chunk },
                &NullRecorder,
            );
            let vb = eval_full_domain(
                &prg,
                &b,
                EvalStrategy::MemoryBounded { chunk },
                &NullRecorder,
            );
            assert_eq!(va[3] + vb[3], Ring128::ONE, "chunk {chunk}");
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(EvalStrategy::BranchParallel.label(), "branch-parallel");
        assert_eq!(
            EvalStrategy::MemoryBounded { chunk: 64 }.label(),
            "mem-bound(K=64)"
        );
        assert_eq!(
            EvalStrategy::default(),
            EvalStrategy::MemoryBounded { chunk: 128 }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The lane-width engine (what the fused kernel consumes) emits, leaf
        /// for leaf and chunk for chunk, the low 32 bits of the full-width
        /// shares — for every strategy, both parties, non-power-of-two
        /// domains and non-root subtrees.
        #[test]
        fn prop_lane_width_leaves_are_the_low_bits_of_full_width_shares(
            domain in 2u64..300,
            split in 0u32..3,
            seed in any::<u64>(),
        ) {
            let prg = prg();
            let mut rng = StdRng::seed_from_u64(seed);
            let params = DpfParams::for_domain(domain);
            let beta = Ring128::new(u128::from(seed) << 17 | 1);
            let (a, b) = generate_keys(&prg, &params, seed % domain, beta, &mut rng);
            for key in [&a, &b] {
                let full = eval_full_domain(&prg, key, EvalStrategy::LevelByLevel, &NullRecorder);
                for strategy in STRATEGIES {
                    for subtree in Subtree::split(key, split.min(key.depth())) {
                        let mut wide = Vec::new();
                        eval_subtree_with(&prg, key, subtree, strategy, &NullRecorder, &mut |base, v| {
                            wide.push((base, v.iter().map(|x| x.to_lane()).collect::<Vec<u32>>()));
                        });
                        let mut narrow = Vec::new();
                        expand_subtree(&prg, key, subtree, strategy, &NullRecorder, &mut |base, v: &[u32]| {
                            narrow.push((base, v.to_vec()));
                        });
                        prop_assert_eq!(&narrow, &wide);
                        for (base, lanes) in &narrow {
                            for (offset, lane) in lanes.iter().enumerate() {
                                if let Some(share) = full.get(*base as usize + offset) {
                                    prop_assert_eq!(*lane, share.to_lane());
                                }
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn prop_full_domain_reconstruction(
            domain in 2u64..300,
            seed in any::<u64>(),
        ) {
            let prg = prg();
            let mut rng = StdRng::seed_from_u64(seed);
            let alpha = seed % domain;
            let params = DpfParams::for_domain(domain);
            let (a, b) = generate_keys(&prg, &params, alpha, Ring128::ONE, &mut rng);
            for strategy in [EvalStrategy::LevelByLevel, EvalStrategy::MemoryBounded { chunk: 8 }] {
                let va = eval_full_domain(&prg, &a, strategy, &NullRecorder);
                let vb = eval_full_domain(&prg, &b, strategy, &NullRecorder);
                for j in 0..domain as usize {
                    let expected = if j as u64 == alpha { Ring128::ONE } else { Ring128::ZERO };
                    prop_assert_eq!(va[j] + vb[j], expected);
                }
            }
        }
    }
}
