//! Kernel microbenchmarks of the `prf`, `field`, `dpf` and `gpu-sim` layers
//! on one fixed reference shape (2^16 rows × 64 B, the `embed_sweep_closed`
//! table), timed from outside through their public functions.
//!
//! Inputs here are fixed, not seeded: the counted and modelled values must
//! repeat exactly on every run of a commit.

use std::hint::black_box;
use std::time::Instant;

use gpu_sim::{BackendKind, DeviceBackend, DeviceSpec, HostBackend, TransferSrc};
use pir_dpf::{
    frontier_tile, fused_eval_matmul, generate_keys, BatchEvalJob, DpfKey, DpfParams, EvalStrategy,
    NullRecorder,
};
use pir_field::{matvec_accumulate, Block128, LaneVector, Ring128, ShareMatrix};
use pir_prf::{build_counting_prf, build_prf, GgmPrg, Prf, PrfKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{median, Kind, MetricSet};

const ROWS: usize = 1 << 16;
const LANES: usize = 16; // 64 B rows

/// Median wall time of `reps` calls, in seconds.
fn time_median(reps: usize, mut work: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

fn reference_matrix() -> ShareMatrix {
    let data: Vec<u32> = (0..ROWS * LANES)
        .map(|i| (i as u32).wrapping_mul(0x9E37_79B9) ^ 0x5bd1_e995)
        .collect();
    ShareMatrix::from_rows(ROWS, LANES, data)
}

fn keys_for(prg: &GgmPrg, count: usize) -> Vec<DpfKey> {
    let params = DpfParams::for_domain(ROWS as u64);
    let mut rng = StdRng::seed_from_u64(0x6b65_7973);
    (0..count)
        .map(|i| {
            generate_keys(
                prg,
                &params,
                (i * 2053 % ROWS) as u64,
                Ring128::ONE,
                &mut rng,
            )
            .0
        })
        .collect()
}

/// `quick` quarters every repetition count.
pub fn run(quick: bool, out: &mut MetricSet) {
    let reps = |full: usize| if quick { (full / 4).max(2) } else { full };
    let matrix = reference_matrix();
    let table_bytes = matrix.size_bytes() as f64;

    // prf: one MMO sweep expands 1024 seeds into 2 × 1024 output blocks.
    let seeds: Vec<Block128> = (0..1024u128)
        .map(|i| Block128::from_u128(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0050_4952))
        .collect();
    let (mut left, mut right) = (seeds.clone(), seeds.clone());
    for (kind, label) in [
        (PrfKind::Aes128, "aes128"),
        (PrfKind::Chacha20, "chacha20"),
        (PrfKind::SipHash, "siphash"),
    ] {
        let prf = build_prf(kind);
        let sweep_s = time_median(reps(200), || {
            prf.expand_blocks_mmo(black_box(&seeds), 0, 1, &mut left, &mut right);
            black_box((&left, &right));
        });
        out.push(
            format!("prf.expand_mmo_ns_per_block.{label}"),
            sweep_s * 1e9 / (2 * seeds.len()) as f64,
            "ns",
            Kind::Measured,
        );
    }

    // PRF calls of one whole lookup: key generation plus both parties'
    // full-domain evaluation.
    let counting = build_counting_prf(PrfKind::Aes128);
    let counted_prg = GgmPrg::new(counting.clone() as std::sync::Arc<dyn Prf>);
    let params = DpfParams::for_domain(ROWS as u64);
    let (key0, key1) = generate_keys(
        &counted_prg,
        &params,
        4242,
        Ring128::ONE,
        &mut StdRng::seed_from_u64(1),
    );
    let strategy = EvalStrategy::memory_bounded_default();
    for key in [&key0, &key1] {
        black_box(fused_eval_matmul(
            &counted_prg,
            key,
            &matrix,
            strategy,
            &NullRecorder,
        ));
    }
    out.push(
        "prf.calls_per_lookup",
        counting.calls() as f64,
        "count",
        Kind::Counted,
    );

    // field: the matvec against the benchmark's own streaming sweep of the
    // same buffer (the memory-bandwidth ceiling of this host).
    let weights: Vec<Ring128> = (0..ROWS as u128).map(|i| Ring128::new(i | 1)).collect();
    let matvec_s = time_median(reps(40), || {
        let mut acc = LaneVector::zeroed(LANES);
        matvec_accumulate(&mut acc, black_box(&weights), &matrix, 0);
        black_box(acc);
    });
    let sweep_s = time_median(reps(40), || {
        let mut acc = [0u32; LANES];
        for row in black_box(matrix.lanes()).chunks_exact(LANES) {
            for (a, lane) in acc.iter_mut().zip(row) {
                *a = a.wrapping_add(*lane);
            }
        }
        black_box(acc);
    });
    let (matvec_gbps, sweep_gbps) = (table_bytes / matvec_s / 1e9, table_bytes / sweep_s / 1e9);
    out.push("field.matvec_gbps", matvec_gbps, "GB/s", Kind::Measured);
    out.push(
        "field.roofline_sweep_gbps",
        sweep_gbps,
        "GB/s",
        Kind::Measured,
    );
    out.push(
        "field.matvec_roofline_frac",
        matvec_gbps / sweep_gbps,
        "ratio",
        Kind::Computed,
    );

    // dpf
    let aes = GgmPrg::new(build_prf(PrfKind::Aes128));
    let mut rng = StdRng::seed_from_u64(2);
    let gen_s = time_median(reps(200), || {
        black_box(generate_keys(&aes, &params, 31_337, Ring128::ONE, &mut rng));
    });
    out.push("dpf.gen_us", gen_s * 1e6, "us", Kind::Measured);
    for (kind, label) in [(PrfKind::Aes128, "aes128"), (PrfKind::Chacha20, "chacha20")] {
        let prg = GgmPrg::new(build_prf(kind));
        let key = keys_for(&prg, 1).remove(0);
        let eval_s = time_median(reps(12), || {
            black_box(fused_eval_matmul(
                &prg,
                &key,
                &matrix,
                strategy,
                &NullRecorder,
            ));
        });
        out.push(
            format!("dpf.fused_eval_ms.{label}"),
            eval_s * 1e3,
            "ms",
            Kind::Measured,
        );
    }
    out.push(
        "dpf.frontier_tile",
        frontier_tile(&aes) as f64,
        "count",
        Kind::Counted,
    );

    // gpu-sim + dpf batches on a host backend with the table resident, as
    // the servers keep it.
    let host = HostBackend::new(DeviceSpec::v100());
    let upload_s = time_median(reps(8), || {
        let alloc = host.alloc(matrix.size_bytes() as u64);
        host.upload_table(&alloc, TransferSrc::Lanes(matrix.lanes()));
        host.free(alloc);
    });
    out.push(
        "gpu-sim.upload_table_ms",
        upload_s * 1e3,
        "ms",
        Kind::Measured,
    );

    let keys = keys_for(&aes, 32);
    let resident = host.alloc(matrix.size_bytes() as u64);
    host.upload_table(&resident, TransferSrc::Lanes(matrix.lanes()));
    for (batch, label) in [(1usize, "b1"), (32, "b32")] {
        let job = BatchEvalJob::new(&aes, PrfKind::Aes128, &keys[..batch], &matrix);
        let batch_s = time_median(reps(8), || {
            black_box(job.run_resident(&host, &resident));
        });
        out.push(
            format!("dpf.batch_eval_ms_per_key.{label}"),
            batch_s * 1e3 / batch as f64,
            "ms",
            Kind::Measured,
        );
    }
    let before = host.stats();
    let job = BatchEvalJob::new(&aes, PrfKind::Aes128, &keys, &matrix);
    black_box(job.run_resident(&host, &resident));
    let after = host.stats();
    host.free(resident);
    for (name, value) in [
        ("launches", after.launches - before.launches),
        ("upload_bytes", after.upload_bytes - before.upload_bytes),
        (
            "download_bytes",
            after.download_bytes - before.download_bytes,
        ),
    ] {
        let unit = if name == "launches" { "count" } else { "B" };
        out.push(
            format!("gpu-sim.{name}_per_batch.b32"),
            value as f64,
            unit,
            Kind::Counted,
        );
    }

    // The cost model's opinion of the same batch. Modelled, not measured:
    // it must repeat exactly unless the cost model itself changes.
    let simulated = BackendKind::Simulated.build(DeviceSpec::v100());
    let modelled = job.run_on(simulated.as_ref());
    out.push(
        "gpu-sim.modelled_batch_s.b32",
        modelled.report.estimated_time_s,
        "s",
        Kind::Modelled,
    );
}
