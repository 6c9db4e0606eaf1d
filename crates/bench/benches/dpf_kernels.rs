//! Criterion micro-benchmarks of the functional DPF kernels.
//!
//! These measure the host-side implementations (Gen, point Eval, the three
//! full-domain strategies, fused vs. unfused matmul and the PRF primitives),
//! complementing the modelled GPU numbers produced by the `repro` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceBackend, DeviceSpec, HostBackend, TransferSrc};
use pir_dpf::{
    eval_point, fused_eval_matmul, generate_keys, unfused_eval_matmul, BatchEvalJob, DeviceSplit,
    DpfKey, DpfParams, EvalStrategy, NullRecorder,
};
use pir_field::{matvec_accumulate, Block128, LaneVector, Ring128, ShareMatrix};
use pir_prf::{build_prf, build_prf_with_backend, GgmPrg, LevelCorrection, PrfKind, SimdBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_table(rng: &mut StdRng, rows: usize, lanes: usize) -> ShareMatrix {
    let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
    ShareMatrix::from_rows(rows, lanes, data)
}

/// Table 5 companion: raw PRF block throughput per primitive.
fn bench_prfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("prf_block");
    for kind in PrfKind::ALL {
        let prf = build_prf(kind);
        group.bench_function(BenchmarkId::from_parameter(format!("{kind:?}")), |b| {
            let mut x = 0u128;
            b.iter(|| {
                x = x.wrapping_add(1);
                std::hint::black_box(prf.eval_block(Block128::from_u128(x), 0))
            });
        });
    }
    group.finish();
}

/// Figure 3 companion: Gen vs single-point Eval vs full-domain Eval.
fn bench_gen_vs_eval(c: &mut Criterion) {
    let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("gen_vs_eval");
    for bits in [10u32, 14] {
        let params = DpfParams::for_domain(1 << bits);
        group.bench_function(BenchmarkId::new("gen", format!("2^{bits}")), |b| {
            b.iter(|| generate_keys(&prg, &params, 7, Ring128::ONE, &mut rng))
        });
        let (key, _) = generate_keys(&prg, &params, 7, Ring128::ONE, &mut rng);
        group.bench_function(BenchmarkId::new("eval_point", format!("2^{bits}")), |b| {
            b.iter(|| eval_point(&prg, &key, 3))
        });
        let table = random_table(&mut rng, 1 << bits, 8);
        group.bench_function(
            BenchmarkId::new("eval_full_fused", format!("2^{bits}")),
            |b| {
                b.iter(|| {
                    fused_eval_matmul(
                        &prg,
                        &key,
                        &table,
                        EvalStrategy::memory_bounded_default(),
                        &NullRecorder,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Figure 6 / 13 companion: the three expansion strategies on the host.
fn bench_strategies(c: &mut Criterion) {
    let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
    let mut rng = StdRng::seed_from_u64(2);
    let bits = 12u32;
    let params = DpfParams::for_domain(1 << bits);
    let (key, _) = generate_keys(&prg, &params, 11, Ring128::ONE, &mut rng);
    let table = random_table(&mut rng, 1 << bits, 8);

    let mut group = c.benchmark_group("strategies_2^12");
    for strategy in [
        EvalStrategy::BranchParallel,
        EvalStrategy::LevelByLevel,
        EvalStrategy::MemoryBounded { chunk: 128 },
    ] {
        group.bench_function(BenchmarkId::from_parameter(strategy.label()), |b| {
            b.iter(|| fused_eval_matmul(&prg, &key, &table, strategy, &NullRecorder))
        });
    }
    group.finish();
}

/// Host wall-clock cost of the serving hot loop: one full-domain fused
/// expansion of a 2^16-entry table, per PRF family and strategy. This is the
/// number the batched-PRF frontier engine is accountable to — the simulated
/// GPU cycle model is unchanged by host-side layout, but every test, bench
/// and the pir-serve runtime pay this wall-clock cost.
fn bench_full_domain(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let bits = 16u32;
    let params = DpfParams::for_domain(1 << bits);
    let table = random_table(&mut rng, 1 << bits, 8);

    let mut group = c.benchmark_group("full_domain_2^16");
    for kind in [PrfKind::SipHash, PrfKind::Aes128, PrfKind::Chacha20] {
        let prg = GgmPrg::new(build_prf(kind));
        let (key, _) = generate_keys(&prg, &params, 1234, Ring128::ONE, &mut rng);
        for strategy in [
            EvalStrategy::LevelByLevel,
            EvalStrategy::memory_bounded_default(),
        ] {
            group.bench_function(
                BenchmarkId::new(format!("{kind:?}"), strategy.label()),
                |b| b.iter(|| fused_eval_matmul(&prg, &key, &table, strategy, &NullRecorder)),
            );
        }
    }
    group.finish();
}

/// The serving kernel on the repo benchmark's reference shape (2^16 rows ×
/// 64 B, the paper's K = 128), layer by layer: the fused DPF × table kernel
/// per key for the two PRFs the benchmark serves, the table sweep alone
/// (the kernel's memory-bandwidth floor), and a resident 32-key batch on the
/// wall-clock host backend (what one serving batch costs, host threads and
/// block-local counters included), on every host thread and on one. Gated
/// against `ci/bench_baseline.json`.
fn bench_reference_shape(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let rows = 1usize << 16;
    let lanes = 16usize;
    let params = DpfParams::for_domain(rows as u64);
    let table = random_table(&mut rng, rows, lanes);
    let strategy = EvalStrategy::memory_bounded_default();

    let mut group = c.benchmark_group("fused_matmul_2^16x64B");
    for kind in [PrfKind::Aes128, PrfKind::Chacha20] {
        let prg = GgmPrg::new(build_prf(kind));
        let (key, _) = generate_keys(&prg, &params, 4242, Ring128::ONE, &mut rng);
        group.bench_function(
            BenchmarkId::new(format!("{kind:?}"), strategy.label()),
            |b| b.iter(|| fused_eval_matmul(&prg, &key, &table, strategy, &NullRecorder)),
        );
    }
    group.finish();

    let weights: Vec<Ring128> = (0..rows).map(|_| Ring128::random(&mut rng)).collect();
    let mut group = c.benchmark_group("matvec_sweep");
    group.bench_function("2^16x64B", |b| {
        b.iter(|| {
            let mut acc = LaneVector::zeroed(lanes);
            matvec_accumulate(&mut acc, &weights, &table, 0);
            acc
        })
    });
    group.finish();

    let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
    let keys: Vec<DpfKey> = (0..32u64)
        .map(|i| generate_keys(&prg, &params, i * 2053, Ring128::ONE, &mut rng).0)
        .collect();
    let mut group = c.benchmark_group("batch_resident");
    // Every host thread, and one: the one-thread batch shows the per-key
    // cost of the lockstep ranges without thread scheduling in it. An 8-key
    // batch is one range, so it runs on the launching thread alone even with
    // every host thread available: `host/b8` shows what that costs an idle
    // host.
    for (name, host, batches) in [
        ("host", HostBackend::new(DeviceSpec::v100()), &[8, 32][..]),
        (
            "host1",
            HostBackend::with_host_threads(DeviceSpec::v100(), 1),
            &[32][..],
        ),
    ] {
        let resident = host.alloc(table.size_bytes() as u64);
        host.upload_table(&resident, TransferSrc::Lanes(table.lanes()));
        for &batch in batches {
            let job = BatchEvalJob::new(&prg, PrfKind::Aes128, &keys[..batch], &table);
            group.bench_function(BenchmarkId::new(name, format!("b{batch}")), |b| {
                b.iter(|| job.run_resident(&host, &resident))
            });
        }
        host.free(resident);
    }
    group.finish();
}

/// The GGM correction pass alone, on the sweep outputs of one 2 048-leaf
/// host run's worth of nodes: a 1 024-node level to corrected children and
/// packed bits (the run's 1 023 inner nodes), then a 1 024-node level to
/// `u32` leaves (its last level). `scalar` is the reference pass, `simd` the
/// pass of a PRF built for this host's best backend (on AVX2, four nodes per
/// zmm register where the CPU has AVX-512F, two per ymm register otherwise).
/// The correction word has its LSB set and every parent bit pattern occurs.
/// `simd` is gated against `ci/bench_baseline.json`, whose value is the ymm
/// pass's: a runner without AVX-512F runs that one.
fn bench_correction_pass(c: &mut Criterion) {
    const NODES: usize = 1024;
    let mut rng = StdRng::seed_from_u64(29);
    let left: Vec<Block128> = (0..NODES).map(|_| Block128::random(&mut rng)).collect();
    let right: Vec<Block128> = (0..NODES).map(|_| Block128::random(&mut rng)).collect();
    let parents: Vec<u64> = (0..NODES / 64).map(|_| rng.gen()).collect();
    let cw = LevelCorrection {
        seed: Block128::from_u128(rng.gen::<u128>() | 1),
        t_left: true,
        t_right: false,
    };
    let final_cw: u32 = rng.gen();

    let mut group = c.benchmark_group("correction_pass");
    for (name, backend) in [
        ("scalar", SimdBackend::Scalar),
        ("simd", SimdBackend::detect()),
    ] {
        let prg = GgmPrg::new(build_prf_with_backend(PrfKind::Aes128, backend));
        let mut children = vec![Block128::ZERO; 2 * NODES];
        let mut child_t = vec![0u64; 2 * NODES / 64];
        let mut leaves = vec![0u32; 2 * NODES];
        group.bench_function(BenchmarkId::new("run_2048", name), |b| {
            b.iter(|| {
                let sweeps = (&left[..], &right[..]);
                prg.correct_frontier(sweeps, &parents, &cw, &mut children, &mut child_t);
                prg.correct_frontier_leaves(sweeps, &parents, &cw, final_cw, true, &mut leaves);
                std::hint::black_box((children.last().copied(), leaves.last().copied()))
            })
        });
    }
    group.finish();
}

/// What a cluster shard pays per lookup (2^14 × 64 B, SipHash, one key, the
/// table resident on the host backend — the `cluster_shards_closed` shape):
/// `full` sweeps the whole domain, `owned_half` the one subtree a shard of
/// two owns. Both gated against `ci/bench_baseline.json`, so a shard that
/// drifts back toward a full sweep shows as `owned_half` doubling.
fn bench_shard_eval(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let rows = 1u64 << 14;
    let params = DpfParams::for_domain(rows);
    let table = random_table(&mut rng, rows as usize, 16);
    let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
    let keys = [generate_keys(&prg, &params, 4242, Ring128::ONE, &mut rng).0];
    let job = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table);
    let whole = DeviceSplit::new(params.domain_bits, 1).expect("one device");
    let upper_half = rows / 2..rows;

    let mut group = c.benchmark_group("shard_eval");
    for (name, split) in [
        ("full", whole.clone()),
        (
            "owned_half",
            whole.restricted_to(std::slice::from_ref(&upper_half), rows),
        ),
    ] {
        let host = HostBackend::new(DeviceSpec::v100());
        let backends = [&host as &dyn DeviceBackend];
        let resident = job.upload_slices(&split, &backends);
        group.bench_function(name, |b| {
            b.iter(|| job.run_resident_on_devices(&split, &backends, &[&resident[0]]))
        });
        for slice in resident {
            host.free(slice);
        }
    }
    group.finish();
}

/// Figure 14 companion: fused vs unfused evaluation.
fn bench_fusion(c: &mut Criterion) {
    let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
    let mut rng = StdRng::seed_from_u64(3);
    let bits = 12u32;
    let params = DpfParams::for_domain(1 << bits);
    let (key, _) = generate_keys(&prg, &params, 5, Ring128::ONE, &mut rng);

    let mut group = c.benchmark_group("fusion_2^12");
    for lanes in [16usize, 64, 256] {
        let table = random_table(&mut rng, 1 << bits, lanes);
        group.bench_function(BenchmarkId::new("fused", lanes * 4), |b| {
            b.iter(|| {
                fused_eval_matmul(
                    &prg,
                    &key,
                    &table,
                    EvalStrategy::memory_bounded_default(),
                    &NullRecorder,
                )
            })
        });
        group.bench_function(BenchmarkId::new("unfused", lanes * 4), |b| {
            b.iter(|| {
                unfused_eval_matmul(
                    &prg,
                    &key,
                    &table,
                    EvalStrategy::memory_bounded_default(),
                    &NullRecorder,
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prfs, bench_gen_vs_eval, bench_strategies, bench_full_domain,
        bench_reference_shape, bench_correction_pass, bench_shard_eval, bench_fusion
}
criterion_main!(benches);
