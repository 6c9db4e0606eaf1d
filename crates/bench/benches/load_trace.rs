//! Criterion benchmarks for the traffic-harness hot paths.
//!
//! `trace_gen` measures deterministic trace generation (fractional-accumulator
//! arrivals + Zipf index sampling) — this runs once per soak but its cost
//! scales with duration × rps, so an accidental per-request allocation storm
//! shows up here long before it makes the soak itself time out in CI.
//!
//! `batch_formation` measures [`pir_serve::formation_order`] over synthetic
//! candidate sets. The batch former calls it on every formation under the
//! queue lock, so it sits directly on the serving critical path; the mixed
//! workload (half expired, interleaved priorities) exercises the full
//! comparator rather than the sorted-input fast path.
//!
//! `latency_histogram` measures [`pir_serve::LatencyHistogram`]: the serving
//! runtime records into it once per query on the batcher and the answer
//! path (`record_1k` is 1 000 such calls), and reads p50/p99 from it on
//! every stats snapshot (`quantiles`, over a histogram holding 100 000
//! log-uniform samples).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pir_load::{Diurnal, FlashCrowd, TenantSpec, TraceConfig};
use pir_serve::{formation_order, BatchCandidate, LatencyHistogram};

fn trace_config(duration: Duration, base_rps: f64) -> TraceConfig {
    TraceConfig {
        entries: 1 << 10,
        zipf_exponent: 1.1,
        duration,
        base_rps,
        tick: Duration::from_millis(50),
        diurnal: Some(Diurnal {
            period: duration,
            amplitude: 0.25,
        }),
        flash: Some(FlashCrowd {
            start: duration / 4,
            duration: duration / 4,
        }),
        tenants: vec![
            TenantSpec::flashy("mobile-app", "interactive", 1.0, 10.0),
            TenantSpec::steady("analytics-1", "background", 2.0),
            TenantSpec::steady("analytics-2", "background", 2.0),
        ],
        seed: 7,
    }
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen");
    for &(label, secs, rps) in &[("2s_600rps", 2u64, 600.0), ("10s_1000rps", 10, 1000.0)] {
        let config = trace_config(Duration::from_secs(secs), rps);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let trace = config.clone().generate().expect("valid trace");
                assert!(!trace.is_empty());
                trace.len()
            })
        });
    }
    group.finish();
}

/// A candidate set shaped like a queue mid-flash: half the entries already
/// past their deadline, priorities interleaved across three classes, arrival
/// order scrambled so the sort does real comparator work.
fn candidates(now: Instant, len: usize) -> Vec<BatchCandidate> {
    (0..len)
        .map(|i| {
            let offset = Duration::from_micros((i as u64 * 37) % 4000);
            BatchCandidate {
                deadline: if i % 2 == 0 {
                    now - offset
                } else {
                    now + offset
                },
                priority: [0u8, 2, 1][i % 3],
            }
        })
        .collect()
}

fn bench_batch_formation(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_formation");
    let now = Instant::now();
    for &len in &[64usize, 512] {
        let set = candidates(now, len);
        group.bench_function(BenchmarkId::new("mixed", len), |b| {
            b.iter(|| {
                let order = formation_order(now, &set);
                assert_eq!(order.len(), len);
                order
            })
        });
    }
    group.finish();
}

/// `n` deterministic latencies spread over 0.05 – 50 ms, log-uniformly.
fn latencies(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.05 * 1000f64.powf((i * 7919 % n) as f64 / n as f64))
        .collect()
}

fn bench_latency_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency_histogram");
    let samples = latencies(1_000);
    let hist = LatencyHistogram::new();
    // Recorded through `black_box(&hist)`: the runtime's histograms are
    // shared, so their atomics must not be optimized as a private local's.
    group.bench_function("record_1k", |b| {
        b.iter(|| {
            for &ms in &samples {
                std::hint::black_box(&hist).record_ms(std::hint::black_box(ms));
            }
        })
    });
    let full = LatencyHistogram::new();
    for ms in latencies(100_000) {
        full.record_ms(ms);
    }
    group.bench_function("quantiles", |b| {
        b.iter(|| full.quantiles_ms(std::hint::black_box(&[0.50, 0.99])))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_gen, bench_batch_formation, bench_latency_histogram
}
criterion_main!(benches);
