//! DPF ⊗ matrix-multiplication operator fusion (§3.2.4).
//!
//! The fused kernel expands a key run by run and multiplies each run's leaf
//! shares into the table rows they weigh, never materializing the `O(L)`
//! leaf vector. The paper fuses per key and batches keys in one launch
//! (§3.2.1), where the blocks an SM holds at the same time share the table
//! through L2. The host runs a worker's blocks one after another, so the
//! kernel takes the keys of a worker's range together
//! (`fused_eval_matmul_group`): for each run, every key's leaves, then one
//! sweep of the run's rows for all of them — the table is read once per key
//! group instead of once per key. Computing records nothing; each key's
//! events are `record_fused`'s, a function of the public shape, recorded
//! on that key's own block. One key is the group of one.

use pir_field::{matvec_accumulate_keys, matvec_shares, LaneVector, Ring128, ShareMatrix};
use pir_prf::GgmPrg;

use crate::recorder::Recorder;
use crate::strategy::{
    account_subtree, eval_full_domain, EvalStrategy, FrontierBuffers, RunPlan, Subtree,
};
use crate::DpfKey;

/// Fused evaluation: expand the DPF and immediately accumulate each chunk of
/// leaf shares against the corresponding table rows, never materializing the
/// full `O(L)` leaf vector.
///
/// This is the kernel structure the paper proposes: upon reaching a leaf chunk
/// the thread block performs the dot product with the table rows and keeps
/// only a per-block accumulator, keeping memory at `O(B·K·log L)` and
/// interleaving PRF computation with memory traffic.
///
/// # Panics
///
/// Panics if the table has fewer rows than the key's domain size.
#[must_use]
pub fn fused_eval_matmul<R>(
    prg: &GgmPrg,
    key: &DpfKey,
    table: &ShareMatrix,
    strategy: EvalStrategy,
    recorder: &R,
) -> LaneVector
where
    R: Recorder,
{
    fused_eval_matmul_subtree(prg, key, table, Subtree::root(), strategy, recorder)
}

/// Fused evaluation restricted to one subtree of the domain, producing a
/// *partial* share of the answer (the sum over that subtree's rows).
///
/// Cooperative-groups blocks and multi-GPU shards each call this on disjoint
/// subtrees; summing the partial accumulators yields the same result as
/// [`fused_eval_matmul`] over the whole domain, because the reduction is
/// linear.
///
/// # Panics
///
/// Panics if the table has fewer rows than the key's domain size.
#[must_use]
#[expect(clippy::expect_used, reason = "a group of one key yields one share")]
pub fn fused_eval_matmul_subtree<R>(
    prg: &GgmPrg,
    key: &DpfKey,
    table: &ShareMatrix,
    subtree: Subtree,
    strategy: EvalStrategy,
    recorder: &R,
) -> LaneVector
where
    R: Recorder,
{
    let mut shares =
        fused_eval_matmul_group(prg, std::slice::from_ref(key), table, subtree, strategy);
    record_fused(key.depth(), table, subtree, strategy, recorder);
    shares.pop().expect("one share per key")
}

/// Fused evaluation of several keys of one domain over the same subtree,
/// sharing the table read: for each host run, every key's leaf shares, then
/// one multi-key sweep of the run's rows ([`matvec_accumulate_keys`]).
/// Returns one partial share per key, in order; records nothing.
///
/// Padded runs past the last table row are expanded like every other run —
/// the PRF work is the public shape's — and only their sweep is skipped.
///
/// # Panics
///
/// Panics if the table has fewer rows than the keys' domain size.
pub(crate) fn fused_eval_matmul_group(
    prg: &GgmPrg,
    keys: &[DpfKey],
    table: &ShareMatrix,
    subtree: Subtree,
    strategy: EvalStrategy,
) -> Vec<LaneVector> {
    let rows = table.rows() as u64;
    for key in keys {
        assert!(
            rows >= key.params.domain_size,
            "table with {rows} rows cannot serve a domain of {}",
            key.params.domain_size
        );
    }
    let mut accs = vec![LaneVector::zeroed(table.lanes_per_row()); keys.len()];
    let Some(first) = keys.first() else {
        return accs;
    };
    let plan = RunPlan::new(first.depth(), subtree, strategy);
    let per_key = plan.roots_per_key();
    let mut roots = Vec::with_capacity(keys.len() * per_key);
    for key in keys {
        plan.push_roots(prg, key, &mut roots);
    }
    let mut frontier = FrontierBuffers::for_job(plan.run_len());
    let run_len = plan.run_len();
    // One run of `u32` lane weights per key, back to back: the layout the
    // multi-key sweep reads.
    let mut weights = vec![0u32; keys.len() * run_len];

    for run in 0..plan.runs() {
        let key_runs = keys.iter().zip(roots.chunks_exact(per_key));
        for ((key, key_roots), out) in key_runs.zip(weights.chunks_exact_mut(run_len)) {
            plan.expand(prg, key, key_roots, run, &mut frontier, out);
        }
        let base = plan.run_base(run);
        if base >= rows {
            continue; // padded leaves beyond the real table
        }
        let usable = ((rows - base) as usize).min(run_len);
        if usable < run_len {
            // The table ends inside this run: close up each key's chunk.
            for group in 1..keys.len() {
                let from = group * run_len;
                weights.copy_within(from..from + usable, group * usable);
            }
        }
        matvec_accumulate_keys(
            &mut accs,
            &weights[..keys.len() * usable],
            table,
            base as usize,
        );
    }
    accs
}

/// Record what the fused kernel records for one key of depth `depth` over
/// `subtree`: its accumulator, the expansion ([`account_subtree`]), the
/// table rows under the subtree and their multiply-adds — all functions of
/// the public shape, identical whichever key of the shape it is.
pub(crate) fn record_fused<R: Recorder>(
    depth: u32,
    table: &ShareMatrix,
    subtree: Subtree,
    strategy: EvalStrategy,
    recorder: &R,
) {
    let lanes = table.lanes_per_row() as u64;
    let row_bytes = lanes * 4;
    let leaves = subtree.leaves(depth);
    // Padded leaves beyond the real table read nothing.
    let rows = leaves
        .end
        .min(table.rows() as u64)
        .saturating_sub(leaves.start);

    // Per-block accumulator lives in registers / shared memory.
    recorder.alloc(row_bytes);
    account_subtree(recorder, depth, subtree, strategy, &mut |_, _| {});
    recorder.global_read(rows * row_bytes);
    recorder.arithmetic(rows * lanes);
    // The accumulator is written back to global memory once.
    recorder.global_write(row_bytes);
    recorder.release(row_bytes);
}

/// Unfused baseline: materialize the entire leaf share vector in global
/// memory, then run a separate matrix–vector multiplication over it.
///
/// Functionally identical to [`fused_eval_matmul`]; used to quantify the
/// memory and performance cost of skipping fusion (the paper's Figure 14).
///
/// # Panics
///
/// Panics if the table has fewer rows than the key's domain size.
#[must_use]
pub fn unfused_eval_matmul<R>(
    prg: &GgmPrg,
    key: &DpfKey,
    table: &ShareMatrix,
    strategy: EvalStrategy,
    recorder: &R,
) -> LaneVector
where
    R: Recorder,
{
    assert!(
        table.rows() as u64 >= key.params.domain_size,
        "table with {} rows cannot serve a domain of {}",
        table.rows(),
        key.params.domain_size
    );
    // Phase 1: expansion kernel writing all leaves to global memory.
    let weights: Vec<Ring128> = eval_full_domain(prg, key, strategy, recorder);

    // Phase 2: matrix multiplication kernel reading the leaves and the table
    // back from global memory.
    let lanes = table.lanes_per_row() as u64;
    recorder.global_read(weights.len() as u64 * 16);
    recorder.global_read(table.rows() as u64 * lanes * 4);
    recorder.arithmetic(table.rows() as u64 * lanes);
    recorder.global_write(lanes * 4);
    let padded: Vec<Ring128> = if weights.len() < table.rows() {
        let mut w = weights;
        w.resize(table.rows(), Ring128::ZERO);
        w
    } else {
        weights
    };
    matvec_shares(&padded[..table.rows()], table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{CountingRecorder, NullRecorder};
    use crate::{generate_keys, DpfParams};
    use pir_field::reconstruct_lanes;
    use pir_prf::{build_prf, PrfKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn prg() -> GgmPrg {
        GgmPrg::new(build_prf(PrfKind::SipHash))
    }

    fn random_table(rng: &mut StdRng, rows: usize, lanes: usize) -> ShareMatrix {
        let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
        ShareMatrix::from_rows(rows, lanes, data)
    }

    #[test]
    fn fused_retrieves_the_target_row() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(41);
        let table = random_table(&mut rng, 300, 8);
        let params = DpfParams::for_domain(300);
        let target = 123u64;
        let (a, b) = generate_keys(&prg, &params, target, Ring128::ONE, &mut rng);

        let share_a = fused_eval_matmul(&prg, &a, &table, EvalStrategy::default(), &NullRecorder);
        let share_b = fused_eval_matmul(&prg, &b, &table, EvalStrategy::default(), &NullRecorder);
        let row = reconstruct_lanes(&Vec::from(share_a), &Vec::from(share_b));
        assert_eq!(row, table.row(target as usize));
    }

    #[test]
    fn fused_and_unfused_agree_for_every_strategy() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(42);
        let table = random_table(&mut rng, 128, 4);
        let params = DpfParams::for_domain(128);
        let (a, _) = generate_keys(&prg, &params, 50, Ring128::ONE, &mut rng);

        for strategy in [
            EvalStrategy::BranchParallel,
            EvalStrategy::LevelByLevel,
            EvalStrategy::MemoryBounded { chunk: 16 },
        ] {
            let fused = fused_eval_matmul(&prg, &a, &table, strategy, &NullRecorder);
            let unfused = unfused_eval_matmul(&prg, &a, &table, strategy, &NullRecorder);
            assert_eq!(fused, unfused, "{strategy:?}");
        }
    }

    #[test]
    fn subtree_partials_sum_to_full_answer() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(43);
        let table = random_table(&mut rng, 256, 4);
        let params = DpfParams::for_domain(256);
        let (a, _) = generate_keys(&prg, &params, 9, Ring128::ONE, &mut rng);

        let full = fused_eval_matmul(&prg, &a, &table, EvalStrategy::default(), &NullRecorder);
        let mut sum = LaneVector::zeroed(4);
        for subtree in Subtree::split(&a, 2) {
            let partial = fused_eval_matmul_subtree(
                &prg,
                &a,
                &table,
                subtree,
                EvalStrategy::default(),
                &NullRecorder,
            );
            sum.add_assign_wrapping(&partial);
        }
        assert_eq!(sum, full);
    }

    #[test]
    fn fusion_avoids_materializing_leaves() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(44);
        let table = random_table(&mut rng, 1 << 12, 8);
        let params = DpfParams::for_domain(1 << 12);
        let (a, _) = generate_keys(&prg, &params, 77, Ring128::ONE, &mut rng);

        let fused = CountingRecorder::new();
        let _ = fused_eval_matmul(
            &prg,
            &a,
            &table,
            EvalStrategy::MemoryBounded { chunk: 128 },
            &fused,
        );
        let unfused = CountingRecorder::new();
        let _ = unfused_eval_matmul(
            &prg,
            &a,
            &table,
            EvalStrategy::MemoryBounded { chunk: 128 },
            &unfused,
        );
        assert!(
            fused.peak_bytes() * 10 < unfused.peak_bytes(),
            "fused peak {} should be far below unfused {}",
            fused.peak_bytes(),
            unfused.peak_bytes()
        );
        // Both read the table once; unfused additionally reads the leaf vector.
        assert!(unfused.read_bytes_total() > fused.read_bytes_total());
    }

    #[test]
    #[should_panic(expected = "cannot serve a domain")]
    fn table_smaller_than_domain_panics() {
        let prg = prg();
        let mut rng = StdRng::seed_from_u64(45);
        let table = random_table(&mut rng, 10, 4);
        let params = DpfParams::for_domain(16);
        let (a, _) = generate_keys(&prg, &params, 3, Ring128::ONE, &mut rng);
        let _ = fused_eval_matmul(&prg, &a, &table, EvalStrategy::default(), &NullRecorder);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_pir_roundtrip(rows in 2usize..200, lanes in 1usize..6, seed in any::<u64>()) {
            let prg = prg();
            let mut rng = StdRng::seed_from_u64(seed);
            let table = random_table(&mut rng, rows, lanes);
            let target = (seed as usize) % rows;
            let params = DpfParams::for_domain(rows as u64);
            let (a, b) = generate_keys(&prg, &params, target as u64, Ring128::ONE, &mut rng);
            let sa = fused_eval_matmul(&prg, &a, &table, EvalStrategy::MemoryBounded { chunk: 32 }, &NullRecorder);
            let sb = fused_eval_matmul(&prg, &b, &table, EvalStrategy::MemoryBounded { chunk: 32 }, &NullRecorder);
            let row = reconstruct_lanes(&Vec::from(sa), &Vec::from(sb));
            prop_assert_eq!(row.as_slice(), table.row(target));
        }
    }
}
