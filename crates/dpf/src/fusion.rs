//! DPF ⊗ matrix-multiplication operator fusion (§3.2.4).

use pir_field::{matvec_accumulate_lanes, matvec_shares, LaneVector, Ring128, ShareMatrix};
use pir_prf::GgmPrg;

use crate::recorder::Recorder;
use crate::strategy::{eval_full_domain, expand_subtree, EvalStrategy, Subtree};
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
    assert!(
        table.rows() as u64 >= key.params.domain_size,
        "table with {} rows cannot serve a domain of {}",
        table.rows(),
        key.params.domain_size
    );
    let lanes = table.lanes_per_row();
    let row_bytes = lanes as u64 * 4;
    let rows = table.rows() as u64;

    // Per-block accumulator lives in registers / shared memory.
    recorder.alloc(row_bytes);
    let mut acc = LaneVector::zeroed(lanes);

    // The sweep multiplies by each share's low 32 bits only, so the engine
    // emits the leaves at that width.
    expand_subtree(
        prg,
        key,
        subtree,
        strategy,
        recorder,
        &mut |base, weights: &[u32]| {
            if base >= rows {
                return; // padded leaves beyond the real table
            }
            let usable = ((rows - base) as usize).min(weights.len());
            recorder.global_read(usable as u64 * row_bytes);
            recorder.arithmetic(usable as u64 * lanes as u64);
            matvec_accumulate_lanes(&mut acc, &weights[..usable], table, base as usize);
        },
    );

    // The accumulator is written back to global memory once.
    recorder.global_write(row_bytes);
    recorder.release(row_bytes);
    acc
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
