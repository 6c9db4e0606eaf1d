//! Scalar vs batched PRF throughput, per primitive.
//!
//! `Prf::eval_blocks` is the batched entry point of the frontier expansion
//! engine: key schedules, round constants and state initialization are
//! hoisted out of the per-block loop and the dynamic dispatch happens once
//! per sweep instead of once per block. This bench quantifies that gap for
//! every PRF the system executes (three of Table 5's five), plus the
//! frontier-level win of `GgmPrg::expand_frontier` over per-node `expand`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pir_field::Block128;
use pir_prf::{
    build_prf, build_prf_with_backend, FrontierScratch, GgmPrg, LevelCorrection, PrfKind,
    SimdBackend,
};

/// Number of blocks per measured sweep (one mid-size GGM level).
const BATCH: usize = 1024;

fn inputs() -> Vec<Block128> {
    (0..BATCH as u128)
        .map(|i| Block128::from_u128(i.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995))
        .collect()
}

/// One `eval_block` call per block vs one `eval_blocks` sweep.
fn bench_scalar_vs_batched(c: &mut Criterion) {
    let inputs = inputs();
    for kind in PrfKind::ALL {
        let prf = build_prf(kind);
        let mut group = c.benchmark_group(format!("prf_batch/{kind:?}"));
        group.bench_function(BenchmarkId::from_parameter("scalar"), |b| {
            let mut out = vec![Block128::ZERO; BATCH];
            b.iter(|| {
                for (input, slot) in inputs.iter().zip(out.iter_mut()) {
                    *slot = prf.eval_block(*input, 0);
                }
                std::hint::black_box(out.last().copied())
            });
        });
        group.bench_function(BenchmarkId::from_parameter("batched"), |b| {
            let mut out = vec![Block128::ZERO; BATCH];
            b.iter(|| {
                prf.eval_blocks(&inputs, 0, &mut out);
                std::hint::black_box(out.last().copied())
            });
        });
        group.finish();
    }
}

/// Forced-scalar vs vectorized `eval_blocks`, per primitive.
///
/// The "simd" parameter runs the best backend this host supports (AVX2 on
/// x86_64, NEON on aarch64) and degrades to scalar where there is none, so
/// the benchmark names — which the CI gate keys on — are host-stable.
fn bench_backend_dispatch(c: &mut Criterion) {
    let inputs = inputs();
    for kind in PrfKind::ALL {
        let mut group = c.benchmark_group(format!("prf_backend/{kind:?}"));
        for (param, backend) in [
            ("scalar", SimdBackend::Scalar),
            ("simd", SimdBackend::detect()),
        ] {
            let prf = build_prf_with_backend(kind, backend);
            group.bench_function(BenchmarkId::from_parameter(param), |b| {
                let mut out = vec![Block128::ZERO; BATCH];
                b.iter(|| {
                    prf.eval_blocks(&inputs, 0, &mut out);
                    std::hint::black_box(out.last().copied())
                });
            });
        }
        group.finish();
    }
}

/// The MMO double-expansion sweep — the frontier engine's actual hot call —
/// forced-scalar vs vectorized, per primitive.
fn bench_backend_expand(c: &mut Criterion) {
    let inputs = inputs();
    for kind in PrfKind::ALL {
        let mut group = c.benchmark_group(format!("prf_expand/{kind:?}"));
        for (param, backend) in [
            ("scalar", SimdBackend::Scalar),
            ("simd", SimdBackend::detect()),
        ] {
            let prf = build_prf_with_backend(kind, backend);
            group.bench_function(BenchmarkId::from_parameter(param), |b| {
                let mut out_a = vec![Block128::ZERO; BATCH];
                let mut out_b = vec![Block128::ZERO; BATCH];
                b.iter(|| {
                    prf.expand_blocks_mmo(&inputs, 0, 1, &mut out_a, &mut out_b);
                    std::hint::black_box((out_a.last().copied(), out_b.last().copied()))
                });
            });
        }
        group.finish();
    }
}

/// Per-node GGM expansion vs one frontier sweep over the same seeds.
fn bench_frontier_expansion(c: &mut Criterion) {
    let seeds = inputs();
    for kind in [PrfKind::SipHash, PrfKind::Aes128] {
        let prg = GgmPrg::new(build_prf(kind));
        let mut group = c.benchmark_group(format!("ggm_level/{kind:?}"));
        group.bench_function(BenchmarkId::from_parameter("per-node"), |b| {
            b.iter(|| {
                let mut acc = Block128::ZERO;
                for seed in &seeds {
                    let expansion = prg.expand(*seed);
                    acc ^= expansion.seed_left ^ expansion.seed_right;
                }
                std::hint::black_box(acc)
            });
        });
        group.bench_function(BenchmarkId::from_parameter("frontier"), |b| {
            let mut scratch = FrontierScratch::with_capacity(BATCH);
            let mut children = vec![Block128::ZERO; 2 * BATCH];
            let mut t_bits = vec![0u64; (2 * BATCH).div_ceil(64)];
            let parents = vec![0u64; BATCH / 64];
            let zero = LevelCorrection::default();
            b.iter(|| {
                prg.expand_frontier(
                    &seeds,
                    &parents,
                    &zero,
                    &mut scratch,
                    &mut children,
                    &mut t_bits,
                );
                std::hint::black_box(children.last().copied())
            });
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scalar_vs_batched, bench_backend_dispatch, bench_backend_expand,
        bench_frontier_expansion
}
criterion_main!(benches);
