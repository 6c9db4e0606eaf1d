//! Workspace-level property tests on the DPF ↔ PIR stack: invariants that
//! span crates (field arithmetic, PRFs, DPF evaluation, table multiplication).

use gpu_pir_repro::pir_dpf::{
    eval_full_domain, eval_point, fused_eval_matmul, generate_keys, DpfParams, EvalStrategy,
    NullRecorder,
};
use gpu_pir_repro::pir_field::{reconstruct_lanes, Ring128, ShareMatrix};
use gpu_pir_repro::pir_prf::{build_prf, GgmPrg, PrfKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn table_from_seed(seed: u64, rows: usize, lanes: usize) -> ShareMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
    ShareMatrix::from_rows(rows, lanes, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DPF correctness holds for every PRF the system executes.
    #[test]
    fn dpf_correctness_for_every_prf(
        prf_index in 0..PrfKind::ALL.len(),
        domain in 2u64..200,
        seed in any::<u64>(),
    ) {
        let kind = PrfKind::ALL[prf_index];
        let prg = GgmPrg::new(build_prf(kind));
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = seed % domain;
        let params = DpfParams::for_domain(domain);
        let (a, b) = generate_keys(&prg, &params, alpha, Ring128::ONE, &mut rng);
        for j in [0, alpha, domain - 1, (alpha + 1) % domain] {
            let sum = eval_point(&prg, &a, j) + eval_point(&prg, &b, j);
            let expected = if j == alpha { Ring128::ONE } else { Ring128::ZERO };
            prop_assert_eq!(sum, expected);
        }
    }

    /// Full-domain expansion agrees with point evaluation for every strategy,
    /// and the fused table product retrieves exactly the target row.
    #[test]
    fn full_pipeline_retrieves_the_target_row(
        rows in 2usize..150,
        lanes in 1usize..8,
        seed in any::<u64>(),
    ) {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(seed);
        let target = (seed as usize) % rows;
        let table = table_from_seed(seed ^ 0xabc, rows, lanes);
        let params = DpfParams::for_domain(rows as u64);
        let (a, b) = generate_keys(&prg, &params, target as u64, Ring128::ONE, &mut rng);

        for strategy in [
            EvalStrategy::LevelByLevel,
            EvalStrategy::MemoryBounded { chunk: 16 },
            EvalStrategy::BranchParallel,
        ] {
            let va = eval_full_domain(&prg, &a, strategy, &NullRecorder);
            let vb = eval_full_domain(&prg, &b, strategy, &NullRecorder);
            prop_assert_eq!(va[target] + vb[target], Ring128::ONE);

            let sa = fused_eval_matmul(&prg, &a, &table, strategy, &NullRecorder);
            let sb = fused_eval_matmul(&prg, &b, &table, strategy, &NullRecorder);
            let row = reconstruct_lanes(&Vec::from(sa), &Vec::from(sb));
            prop_assert_eq!(row.as_slice(), table.row(target));
        }
    }

    /// A single party's expanded share vector reveals (statistically) nothing
    /// obvious about the target index: it is never the plain indicator vector
    /// and its non-zero support covers essentially the whole domain.
    #[test]
    fn single_share_is_not_an_indicator(
        domain in 8u64..256,
        seed in any::<u64>(),
    ) {
        let prg = GgmPrg::new(build_prf(PrfKind::Chacha20));
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = seed % domain;
        let params = DpfParams::for_domain(domain);
        let (a, _b) = generate_keys(&prg, &params, alpha, Ring128::ONE, &mut rng);
        let share = eval_full_domain(&prg, &a, EvalStrategy::LevelByLevel, &NullRecorder);
        let nonzero = share.iter().filter(|v| **v != Ring128::ZERO).count() as u64;
        prop_assert!(nonzero >= domain - 1);
        prop_assert!(share[alpha as usize] != Ring128::ONE || domain <= 2);
    }
}
