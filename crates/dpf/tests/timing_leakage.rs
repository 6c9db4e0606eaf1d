//! Fixed-vs-random timing test of the server's evaluation, in the style of
//! dudect (Reparaz, Balasch and Verbauwhede, "Dude, is my code constant
//! time?", DATE 2017).
//!
//! `obliviousness.rs` pins what the device layer counts; this test looks at
//! the clock, which sees what the compiler made of the code: a branch it
//! introduced, a tail path picked per key, a kernel that exits early. Each
//! target is timed on two classes of input interleaved in random order: one
//! fixed input (a key for one fixed `alpha`, or one fixed kernel input),
//! copied into every fixed-class slot so both classes read memory alike, and
//! fresh random inputs (keys for random `alpha`s). Welch's t then compares
//! the classes over percentile crops of the timings, which shed the
//! preemption and interrupt tail.
//!
//! A target fails at |t| > 10 on the median crop or on the 90th-percentile
//! crop. The second crop is there because a delay that the fixed input never
//! takes lands above the pooled median, where the median crop cannot see it.
//! At these sample counts that bounds leaks of about 100 ns per evaluation,
//! not single cycles: on the fused path and the batch a delay of about 10 ns
//! is not reliably seen, and noise alone can reach dudect's usual 4.5. The
//! kernel targets, whose calls take 50 ns to 2 µs, see more: one
//! mispredicted branch per call shows there.
//!
//! Targets: the one-key fused path and the lockstep batch (eight keys in one
//! host range) on a small table, so that a 100 ns delay stands out of the
//! evaluation's own jitter; the correction pass alone, with correction seeds
//! whose least-significant bit is set; and each PRF's paired sweep. The
//! kernels are reached through their public entry points at a length the
//! dispatch hands wholly to one kernel (scalar, ymm or zmm; xmm for AES), as
//! the `*_kernels_match_scalar` tests check them. A host without a wide kernel
//! runs the narrower one under the same name; each line says which backend
//! ran. Release only, by name:
//!
//! ```text
//! cargo test --release -p pir-dpf --test timing_leakage -- --ignored
//! ```

use std::hint::black_box;
use std::time::Instant;

use gpu_sim::{DeviceBackend, DeviceSpec, HostBackend, TransferSrc};
use pir_dpf::{
    fused_eval_matmul, generate_keys, BatchEvalJob, DpfKey, DpfParams, EvalStrategy, NullRecorder,
};
use pir_field::{Block128, Ring128, Secret, ShareMatrix, SimdBackend};
use pir_prf::{build_prf_with_backend, GgmPrg, LevelCorrection, PrfKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// |t| above this on a gated crop fails the target.
const T_LIMIT: f64 = 10.0;
/// The gated crops: pooled percentiles at or below which samples are kept.
const CROPS: [f64; 2] = [0.5, 0.9];
/// Untimed calls before each round's timed ones, to settle caches and clocks.
const WARMUP: usize = 500;
/// Inputs made (untimed) and then timed at a time.
const ROUND: usize = 10_000;
/// Timed calls per kernel target.
const KERNEL_SAMPLES: usize = 50_000;
/// Timed evaluations per one-key fused target.
const FUSED_SAMPLES: usize = 200_000;
/// Timed batches of the lockstep target.
const BATCH_SAMPLES: usize = 40_000;
/// Keys in the lockstep batch: one host range.
const BATCH_KEYS: usize = 8;
/// Table shape of the fused and batch targets: 2^8 rows × 64 B.
const ROWS: usize = 1 << 8;
const LANES: usize = 16;

/// Welch's t between the fixed and the random class over the samples at or
/// below `cut` nanoseconds.
fn welch_t(times: &[u64], fixed: &[bool], cut: u64) -> f64 {
    let moments = |class: bool| {
        let kept = times
            .iter()
            .zip(fixed)
            .filter(|&(&t, &f)| f == class && t <= cut);
        let xs: Vec<f64> = kept.map(|(&t, _)| t as f64).collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let variance = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (n, mean, variance)
    };
    let ((n_f, mean_f, var_f), (n_r, mean_r, var_r)) = (moments(true), moments(false));
    (mean_f - mean_r) / (var_f / n_f + var_r / n_r).sqrt()
}

/// Time `run` on `samples` inputs, each a copy of `fixed_input` or a fresh
/// one from `make` by a coin flip, and return the worst |t| over [`CROPS`]
/// with a report line. Inputs are made [`ROUND`] at a time, untimed, so
/// memory stays bounded whatever the sample count.
fn leakage<I: Clone>(
    name: &str,
    samples: usize,
    rng: &mut StdRng,
    fixed_input: I,
    mut make: impl FnMut(&mut StdRng) -> I,
    mut run: impl FnMut(&I),
) -> (f64, String) {
    let mut fixed = Vec::with_capacity(samples);
    let mut times = Vec::with_capacity(samples);
    while times.len() < samples {
        let classes: Vec<bool> = (0..ROUND.min(samples - times.len()))
            .map(|_| rng.gen())
            .collect();
        let inputs: Vec<I> = classes
            .iter()
            .map(|&is_fixed| {
                if is_fixed {
                    fixed_input.clone()
                } else {
                    make(rng)
                }
            })
            .collect();
        for input in inputs.iter().cycle().take(WARMUP) {
            run(input);
        }
        times.extend(inputs.iter().map(|input| {
            let started = Instant::now();
            run(input);
            started.elapsed().as_nanos() as u64
        }));
        fixed.extend(classes);
    }
    let mut sorted = times.clone();
    sorted.sort_unstable();
    let at = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
    let ts: Vec<f64> = CROPS
        .iter()
        .map(|&p| welch_t(&times, &fixed, at(p)))
        .collect();
    let worst = ts.iter().fold(0.0f64, |worst, t| worst.max(t.abs()));
    let line = format!(
        "{name:<34} t(p50) = {:>7.2}  t(p90) = {:>7.2}  median {:>8} ns",
        ts[0],
        ts[1],
        at(0.5)
    );
    (worst, line)
}

fn random_blocks(rng: &mut StdRng, n: usize) -> Vec<Block128> {
    (0..n).map(|_| Block128::random(rng)).collect()
}

fn table(rng: &mut StdRng) -> ShareMatrix {
    let data: Vec<u32> = (0..ROWS * LANES).map(|_| rng.gen()).collect();
    ShareMatrix::from_rows(ROWS, LANES, data)
}

/// One party's key for `alpha`, or for a random index.
fn key(prg: &GgmPrg, rng: &mut StdRng, alpha: Option<u64>) -> DpfKey {
    let alpha = alpha.unwrap_or_else(|| rng.gen_range(0..ROWS as u64));
    let params = DpfParams::for_domain(ROWS as u64);
    generate_keys(prg, &params, alpha, Ring128::ONE, rng).0
}

/// The kernel a paired sweep of `n` inputs runs for `kind` on the `Avx2`
/// backend: the dispatch takes whole wide steps first, so `n` below a step
/// stays on the narrower kernel.
fn sweep_lengths(kind: PrfKind, backend: SimdBackend) -> Vec<(&'static str, usize)> {
    match (backend, kind) {
        (SimdBackend::Scalar, _) => vec![("scalar", 8)],
        (_, PrfKind::Aes128) => vec![("xmm", 4), ("ymm", 8), ("zmm", 32)],
        (_, PrfKind::Chacha20) => vec![("ymm", 8), ("zmm", 32)],
        (_, PrfKind::SipHash) => vec![("ymm", 2), ("zmm", 32)],
    }
}

/// The correction pass's inputs for `n` nodes: the two sweeps, packed parent
/// bits and a level correction whose seed has its LSB set.
#[derive(Clone)]
struct PassInput {
    left: Vec<Secret<Block128>>,
    right: Vec<Secret<Block128>>,
    parent_t: Vec<Secret<u64>>,
    cw: LevelCorrection,
    final_cw: Secret<u32>,
}

fn pass_input(rng: &mut StdRng, n: usize) -> PassInput {
    let mut secret_blocks = |n| random_blocks(rng, n).into_iter().map(Secret::new).collect();
    PassInput {
        left: secret_blocks(n),
        right: secret_blocks(n),
        parent_t: (0..n.div_ceil(64))
            .map(|_| Secret::new(rng.gen()))
            .collect(),
        cw: LevelCorrection {
            seed: Secret::new(Block128::from_u128(rng.gen::<u128>() | 1)),
            t_left: Secret::new(rng.gen()),
            t_right: Secret::new(rng.gen()),
        },
        final_cw: Secret::new(rng.gen()),
    }
}

#[test]
#[ignore = "timing: run in release, by name"]
fn server_evaluation_time_does_not_depend_on_the_key() {
    let mut rng = StdRng::seed_from_u64(0x00D0_DEC7);
    let mut results = Vec::new();

    // Each PRF's paired MMO sweep, at each width.
    for &backend in SimdBackend::candidates() {
        for kind in PrfKind::ALL {
            let prf = build_prf_with_backend(kind, backend);
            for (width, n) in sweep_lengths(kind, backend) {
                let name = format!("sweep {kind:?} {width} ({})", prf.backend_label());
                let (mut left, mut right) = (vec![Block128::ZERO; n], vec![Block128::ZERO; n]);
                let fixed = random_blocks(&mut rng, n);
                results.push(leakage(
                    &name,
                    KERNEL_SAMPLES,
                    &mut rng,
                    fixed,
                    |rng| random_blocks(rng, n),
                    |seeds| {
                        prf.expand_blocks_mmo(black_box(seeds), 0, 1, &mut left, &mut right);
                        black_box((&left, &right));
                    },
                ));
            }
        }
    }

    // The correction pass alone, to child seeds and to leaf shares.
    for &backend in SimdBackend::candidates() {
        let prg = GgmPrg::new(build_prf_with_backend(PrfKind::Aes128, backend));
        let widths: &[(&str, usize, usize)] = if backend == SimdBackend::Scalar {
            &[("scalar", 32, 32)]
        } else {
            // Children: zmm takes 32-node groups; leaves: 8-node steps.
            &[("ymm", 16, 4), ("zmm", 32, 32)]
        };
        for &(width, children_n, leaves_n) in widths {
            let mut children = vec![Secret::default(); 2 * children_n];
            let mut child_t = vec![Secret::default(); (2 * children_n).div_ceil(64)];
            let fixed = pass_input(&mut rng, children_n);
            results.push(leakage(
                &format!("correct_frontier {width}"),
                KERNEL_SAMPLES,
                &mut rng,
                fixed,
                |rng| pass_input(rng, children_n),
                |input| {
                    prg.correct_frontier(
                        (&input.left, &input.right),
                        &input.parent_t,
                        &input.cw,
                        &mut children,
                        &mut child_t,
                    );
                    black_box((&children, &child_t));
                },
            ));
            let mut out = vec![0u32; 2 * leaves_n];
            let fixed = pass_input(&mut rng, leaves_n);
            results.push(leakage(
                &format!("correct_frontier_leaves {width}"),
                KERNEL_SAMPLES,
                &mut rng,
                fixed,
                |rng| pass_input(rng, leaves_n),
                |input| {
                    prg.correct_frontier_leaves(
                        (&input.left, &input.right),
                        &input.parent_t,
                        &input.cw,
                        input.final_cw,
                        false,
                        &mut out,
                    );
                    black_box(&out);
                },
            ));
        }
    }

    // The one-key fused path, per PRF, on the process's own backend.
    let table = table(&mut rng);
    let strategy = EvalStrategy::memory_bounded_default();
    let fixed_alpha = rng.gen_range(0..ROWS as u64);
    for kind in PrfKind::ALL {
        let prg = GgmPrg::new(build_prf_with_backend(kind, SimdBackend::active()));
        let fixed = key(&prg, &mut rng, Some(fixed_alpha));
        results.push(leakage(
            &format!("fused_eval_matmul {kind:?}"),
            FUSED_SAMPLES,
            &mut rng,
            fixed,
            |rng| key(&prg, rng, None),
            |key| {
                black_box(fused_eval_matmul(
                    &prg,
                    key,
                    &table,
                    strategy,
                    &NullRecorder,
                ));
            },
        ));
    }

    // The lockstep batch: eight keys in one host range, table resident.
    let prg = GgmPrg::new(build_prf_with_backend(
        PrfKind::Aes128,
        SimdBackend::active(),
    ));
    let host = HostBackend::with_host_threads(DeviceSpec::v100(), 1);
    let resident = host.alloc(table.size_bytes() as u64);
    host.upload_table(&resident, TransferSrc::Lanes(table.lanes()));
    // The fixed batch is one fixed key eight times: eight distinct fixed
    // keys could balance a per-key leak to the random batch's mean.
    let fixed = vec![key(&prg, &mut rng, Some(fixed_alpha)); BATCH_KEYS];
    results.push(leakage(
        "lockstep batch of 8, Aes128",
        BATCH_SAMPLES,
        &mut rng,
        fixed,
        |rng| (0..BATCH_KEYS).map(|_| key(&prg, rng, None)).collect(),
        |keys| {
            let job = BatchEvalJob::new(&prg, PrfKind::Aes128, keys, &table);
            black_box(job.run_resident(&host, &resident));
        },
    ));
    host.free(resident);

    let mut failed = Vec::new();
    for (worst, line) in &results {
        println!("{line}");
        if *worst > T_LIMIT {
            failed.push(line.as_str());
        }
    }
    assert!(
        failed.is_empty(),
        "timing depends on the input class (|t| > {T_LIMIT}):\n{}",
        failed.join("\n")
    );
}
