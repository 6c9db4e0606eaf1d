//! Serving telemetry: queue depth, batch occupancy, per-replica utilization
//! and latency quantiles.
//!
//! Every update on the hot paths is lock-free: counters are atomics, and
//! latency samples go into [`LatencyHistogram`]'s fixed array of atomic
//! buckets, so the memory they take does not grow with uptime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pir_dpf::PlanLedger;

/// Relative accuracy of a bucketed quantile.
const ALPHA: f64 = 0.01;
/// Ratio of consecutive bucket bounds: one point lies within `ALPHA` of both.
const GAMMA: f64 = (1.0 + ALPHA) / (1.0 - ALPHA);
/// Bucket 0 takes every sample at or below 1 µs.
const FLOOR_MS: f64 = 1e-3;
/// Bucket `i > 0` is `(FLOOR_MS·γ^(i−1), FLOOR_MS·γ^i]`; the last one holds
/// 100 s (`ln(1e8)/ln γ` rounds up to 922) and everything above.
const BUCKETS: usize = 923;

/// The bucket of a non-negative, finite sample.
fn bucket_index(ms: f64) -> usize {
    if ms <= FLOOR_MS {
        return 0;
    }
    // The compiler folds `GAMMA.ln()` to a constant.
    (((ms / FLOOR_MS).ln() / GAMMA.ln()).ceil() as usize).min(BUCKETS - 1)
}

/// The point within `ALPHA` of both bounds of bucket `index`.
fn bucket_value(index: usize) -> f64 {
    2.0 * FLOOR_MS * GAMMA.powi(index as i32) / (GAMMA + 1.0)
}

/// A fixed-size, lock-free latency histogram with relative-accuracy buckets.
///
/// The serving runtime records one sample per answered query through
/// `&self` and exports p50/p99 through its stats snapshot; the load harness
/// uses it to summarize a run. Samples are counted in log-spaced buckets in
/// the style of DDSketch (Masson, Rim and Lee, VLDB 2019): with α = 1 %,
/// 923 buckets cover 1 µs – 100 s, so a histogram is ≈ 7.2 KiB however many
/// samples it has seen, and recording takes no lock.
///
/// The trade against keeping raw samples: a quantile is within α relative
/// error of the exact nearest-rank sample, not equal to it (under 1 µs off
/// for samples at or below 1 µs, zeros included, which share one bucket).
/// The count, minimum and maximum stay exact, so the 0- and 1-quantiles
/// are exact; the sum is kept in whole nanoseconds. Merging is bucket-wise
/// addition, exact and independent of order.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// `f64::to_bits` of the smallest sample (`u64::MAX` while empty): the
    /// bits of non-negative floats order as the floats do.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LatencyHistogram {
    fn clone(&self) -> Self {
        let copy = Self::new();
        copy.merge(self);
        copy
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_bits: AtomicU64::new(u64::MAX),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Record one latency sample in milliseconds.
    ///
    /// Non-finite samples are ignored (they would poison every quantile);
    /// negative ones count as zero.
    pub fn record_ms(&self, ms: f64) {
        if !ms.is_finite() {
            return;
        }
        let ms = if ms > 0.0 { ms } else { 0.0 };
        let bits = ms.to_bits();
        // Skip the read-modify-write when the sample is no new extreme.
        if bits < self.min_bits.load(Ordering::Relaxed) {
            self.min_bits.fetch_min(bits, Ordering::Relaxed);
        }
        if bits > self.max_bits.load(Ordering::Relaxed) {
            self.max_bits.fetch_max(bits, Ordering::Relaxed);
        }
        self.sum_ns
            .fetch_add((ms * 1e6).round() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire loads in `quantiles_ms`: a reader
        // that counts this sample also sees the extremes it set above.
        self.buckets[bucket_index(ms)].fetch_add(1, Ordering::Release);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed) as usize
    }

    /// Mean latency, or `None` when empty.
    #[must_use]
    pub fn mean_ms(&self) -> Option<f64> {
        let count = self.count.load(Ordering::Relaxed);
        (count > 0).then(|| self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6 / count as f64)
    }

    /// Several `q`-quantiles in milliseconds, each within α of the exact
    /// nearest-rank sample (the first and last ranks exact), from one read
    /// of the buckets; entries are `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if any `q` is not in `[0, 1]`.
    #[must_use]
    pub fn quantiles_ms(&self, qs: &[f64]) -> Vec<Option<f64>> {
        for q in qs {
            assert!((0.0..=1.0).contains(q), "quantile {q} outside [0, 1]");
        }
        let counts = self.buckets.each_ref().map(|b| b.load(Ordering::Acquire));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![None; qs.len()];
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        qs.iter()
            .map(|q| {
                let rank = ((q * total as f64).ceil() as u64).max(1);
                let mut seen = 0;
                let index = counts.iter().position(|&c| {
                    seen += c;
                    seen >= rank
                });
                Some(match index {
                    // The first and last ranks are the exact extremes.
                    _ if rank == 1 => min,
                    Some(index) if rank < total => bucket_value(index).max(min).min(max),
                    _ => max,
                })
            })
            .collect()
    }

    /// The `q`-quantile in milliseconds (see [`Self::quantiles_ms`]), or
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantiles_ms(&[q])[0]
    }

    /// Add another histogram's samples to this one, bucket by bucket.
    pub fn merge(&self, other: &Self) {
        let load = |cell: &AtomicU64| cell.load(Ordering::Acquire);
        self.min_bits
            .fetch_min(load(&other.min_bits), Ordering::Relaxed);
        self.max_bits
            .fetch_max(load(&other.max_bits), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(load(&other.sum_ns), Ordering::Relaxed);
        self.count.fetch_add(load(&other.count), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(load(theirs), Ordering::Release);
        }
    }
}

/// Internal, shared per-table statistics.
#[derive(Debug, Default)]
pub(crate) struct TableStats {
    /// Outcomes and end-to-end latency over every tier of the table.
    pub totals: OutcomeStats,
    pub canceled: AtomicU64,
    pub batches: AtomicU64,
    pub batched_queries: AtomicU64,
    pub max_batch: AtomicU64,
    pub in_flight_batches: AtomicU64,
    /// Autoscale steps that activated a replica (across both parties).
    pub scale_ups: AtomicU64,
    /// Autoscale steps that deactivated a replica (across both parties).
    pub scale_downs: AtomicU64,
    pub queue_wait: LatencyHistogram,
    /// One slot per SLO tier class, index-aligned with the table's
    /// `SloTiers::classes()`.
    pub tiers: Vec<OutcomeStats>,
}

impl TableStats {
    /// Stats block sized for a table with `tier_count` SLO classes.
    pub(crate) fn with_tiers(tier_count: usize) -> Self {
        Self {
            tiers: (0..tier_count).map(|_| OutcomeStats::default()).collect(),
            ..Self::default()
        }
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries
            .fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Where an outcome of a `tier` query is counted: the table's totals,
    /// then the tier's slot if the table declared that many tiers.
    pub(crate) fn levels(&self, tier: usize) -> impl Iterator<Item = &OutcomeStats> {
        std::iter::once(&self.totals).chain(self.tiers.get(tier))
    }
}

/// Internal, shared outcome counters and end-to-end latency of a table or
/// of one SLO tier of it.
#[derive(Debug, Default)]
pub(crate) struct OutcomeStats {
    pub submitted: AtomicU64,
    pub answered: AtomicU64,
    pub shed: AtomicU64,
    /// Evictions from a full queue by a higher-priority arrival (also
    /// counted in `shed`).
    pub displaced: AtomicU64,
    pub failed: AtomicU64,
    pub e2e: LatencyHistogram,
}

/// Internal, shared per-replica dispatch statistics.
#[derive(Debug, Default)]
pub(crate) struct ReplicaStats {
    pub batches: AtomicU64,
    pub queries: AtomicU64,
    /// Host microseconds spent inside `answer_batch` (drives utilization).
    pub busy_us: AtomicU64,
}

impl ReplicaStats {
    pub(crate) fn record_batch(&self, queries: u64, busy: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(queries, Ordering::Relaxed);
        self.busy_us
            .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    }
}

/// Point-in-time statistics of one server replica in a table's pool.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicaStatsSnapshot {
    /// Which of the two non-colluding parties this replica serves.
    pub party: usize,
    /// Index within the party's replica pool.
    pub replica: usize,
    /// Whether this replica is currently active (draining the dispatch
    /// queue). Inactive replicas are parked by the autoscaler; their table
    /// copies still receive hot reloads so activation is instant.
    pub active: bool,
    /// Device batches this replica answered.
    pub batches: u64,
    /// Queries carried by those batches.
    pub queries: u64,
    /// Host milliseconds spent inside `answer_batch`.
    pub busy_ms: f64,
    /// Modeled device-busy seconds (simulated kernel time, from the
    /// replica's [`pir_protocol::ServerMetrics`]).
    pub device_busy_s: f64,
    /// Fraction of wall time since registration this replica spent answering
    /// batches (0..1, host-measured).
    pub utilization: f64,
}

/// Point-in-time statistics of one SLO tier of a hosted table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TierStatsSnapshot {
    /// Tier (class) name.
    pub tier: String,
    /// Scheduling rank (0 = most urgent).
    pub priority: u8,
    /// The class's promotion deadline (the queued age after which its
    /// entries outrank fresh ones at formation), in milliseconds.
    pub deadline_ms: f64,
    /// Queries admitted under this tier.
    pub submitted: u64,
    /// Queries fully answered.
    pub answered: u64,
    /// Queries shed (backpressure or displacement).
    pub shed: u64,
    /// Queries evicted from a full queue by a higher-priority arrival
    /// (subset of `shed`).
    pub displaced: u64,
    /// Queries failed by the protocol layer.
    pub failed: u64,
    /// Median end-to-end latency, in milliseconds.
    pub e2e_p50_ms: Option<f64>,
    /// 99th-percentile end-to-end latency, in milliseconds.
    pub e2e_p99_ms: Option<f64>,
}

/// Point-in-time statistics of one hosted table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableStatsSnapshot {
    /// Table name.
    pub table: String,
    /// Queries admitted past the backpressure layer.
    pub submitted: u64,
    /// Queries fully answered (both shares delivered and reconstructed).
    pub answered: u64,
    /// Queries shed by backpressure (queue full / quota / shutdown).
    pub shed: u64,
    /// Queries failed by the protocol layer.
    pub failed: u64,
    /// Queries canceled by their submitter before completion (their queued
    /// entries are skipped at batch formation and cost no device work).
    pub canceled: u64,
    /// Queries evicted from a full queue by a higher-priority arrival
    /// (subset of `shed`).
    pub displaced: u64,
    /// Device batches submitted across both parties' replica pools.
    pub batches: u64,
    /// Queries carried by those batches.
    pub batched_queries: u64,
    /// Largest single batch observed.
    pub max_batch: u64,
    /// Batches currently executing on some replica's devices.
    pub in_flight_batches: u64,
    /// Current depth of the two per-party dispatch queues.
    pub queue_depths: [usize; 2],
    /// Replicas currently active per party (moved by the autoscaler inside
    /// the table's [`crate::config::ReplicaRange`]).
    pub active_replicas: [usize; 2],
    /// Autoscale steps that activated a replica.
    pub scale_up_events: u64,
    /// Autoscale steps that deactivated a replica.
    pub scale_down_events: u64,
    /// Hot reloads applied per party plus one (responses are stamped with
    /// this; both parties agree except transiently while an update barrier
    /// is mid-application).
    pub table_versions: [u64; 2],
    /// One entry per (party, replica) in the table's pools.
    pub replicas: Vec<ReplicaStatsSnapshot>,
    /// Residency telemetry summed over every replica of both pools, straight
    /// from each replica's ledger (`plan_ledger` of a
    /// [`pir_protocol::GpuPirServer`]) — the serve layer reports what the
    /// device layer measured, it never re-derives sizes.
    pub plan: PlanLedger,
    /// Kernel label of the PRF executing this table's sweeps, as its
    /// `backend_label()` reports it: `"scalar"`, `"avx2"`, `"neon"`, or a
    /// wide-kernel label such as `"avx2+vaes"` or `"avx2+avx512"` — runtime
    /// detected, overridable with the `PIR_PRF_BACKEND` environment
    /// variable.
    pub prf_backend: &'static str,
    /// Median time a query waited in the batch former, in milliseconds.
    pub queue_p50_ms: Option<f64>,
    /// 99th-percentile batch-former wait, in milliseconds.
    pub queue_p99_ms: Option<f64>,
    /// Median end-to-end (submit → reconstructed) latency, in milliseconds.
    pub e2e_p50_ms: Option<f64>,
    /// 99th-percentile end-to-end latency, in milliseconds.
    pub e2e_p99_ms: Option<f64>,
    /// Mean end-to-end latency, in milliseconds.
    pub e2e_mean_ms: Option<f64>,
    /// Per-SLO-tier telemetry, most urgent class first.
    pub tiers: Vec<TierStatsSnapshot>,
}

impl TableStatsSnapshot {
    /// Mean queries per device batch — the dynamic batcher's whole purpose
    /// is to push this above 1 under concurrent load (§3.2.1).
    #[must_use]
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_queries as f64 / self.batches as f64
    }

    /// Modeled serving makespan in device seconds: replicas answer batches
    /// in parallel, so the table is done when its busiest replica is done.
    /// The single-replica configuration degenerates to that replica's total
    /// busy time — the quantity replica pools exist to divide.
    #[must_use]
    pub fn device_makespan_s(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.device_busy_s)
            .fold(0.0f64, f64::max)
    }
}

/// Point-in-time statistics of the whole runtime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// One entry per hosted table.
    pub tables: Vec<TableStatsSnapshot>,
    /// Simulated devices currently leased by in-flight batches.
    pub devices_in_use: usize,
    /// The runtime's device budget (`None` = unbounded fleet).
    pub device_budget: Option<usize>,
    /// Backend-reported resident bytes held by in-flight device leases.
    pub resident_bytes_in_use: u64,
    /// High-water mark of resident bytes leased at once since startup.
    pub peak_resident_bytes: u64,
}

impl StatsSnapshot {
    /// Total queries answered across tables.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.tables.iter().map(|t| t.answered).sum()
    }

    /// Total queries shed across tables.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.tables.iter().map(|t| t.shed).sum()
    }

    /// Queries-per-batch across every device batch in the runtime.
    #[must_use]
    pub fn batch_occupancy(&self) -> f64 {
        let batches: u64 = self.tables.iter().map(|t| t.batches).sum();
        if batches == 0 {
            return 0.0;
        }
        let queries: u64 = self.tables.iter().map(|t| t.batched_queries).sum();
        queries as f64 / batches as f64
    }

    /// Look up one table's snapshot by name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TableStatsSnapshot> {
        self.tables.iter().find(|t| t.table == name)
    }
}

impl TableStatsSnapshot {
    /// Look up one tier's snapshot by class name.
    #[must_use]
    pub fn tier(&self, name: &str) -> Option<&TierStatsSnapshot> {
        self.tiers.iter().find(|t| t.tier == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn occupancy_is_queries_per_batch() {
        let stats = TableStats::default();
        stats.record_batch(10);
        stats.record_batch(30);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.batched_queries.load(Ordering::Relaxed), 40);
        assert_eq!(stats.max_batch.load(Ordering::Relaxed), 30);

        let snapshot = TableStatsSnapshot {
            batches: 2,
            batched_queries: 40,
            ..TableStatsSnapshot::default()
        };
        assert!((snapshot.batch_occupancy() - 20.0).abs() < 1e-9);
        assert_eq!(TableStatsSnapshot::default().batch_occupancy(), 0.0);
    }

    #[test]
    fn replica_stats_accumulate() {
        let stats = ReplicaStats::default();
        stats.record_batch(8, Duration::from_millis(3));
        stats.record_batch(4, Duration::from_millis(2));
        assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.queries.load(Ordering::Relaxed), 12);
        assert_eq!(stats.busy_us.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn device_makespan_is_busiest_replica() {
        let snapshot = TableStatsSnapshot {
            replicas: vec![
                ReplicaStatsSnapshot {
                    device_busy_s: 0.4,
                    ..ReplicaStatsSnapshot::default()
                },
                ReplicaStatsSnapshot {
                    device_busy_s: 0.9,
                    ..ReplicaStatsSnapshot::default()
                },
            ],
            ..TableStatsSnapshot::default()
        };
        assert!((snapshot.device_makespan_s() - 0.9).abs() < 1e-12);
        assert_eq!(TableStatsSnapshot::default().device_makespan_s(), 0.0);
    }

    #[test]
    fn runtime_snapshot_aggregates() {
        let snapshot = StatsSnapshot {
            tables: vec![
                TableStatsSnapshot {
                    table: "a".into(),
                    answered: 10,
                    shed: 1,
                    batches: 2,
                    batched_queries: 10,
                    ..TableStatsSnapshot::default()
                },
                TableStatsSnapshot {
                    table: "b".into(),
                    answered: 20,
                    shed: 3,
                    batches: 3,
                    batched_queries: 30,
                    ..TableStatsSnapshot::default()
                },
            ],
            ..StatsSnapshot::default()
        };
        assert_eq!(snapshot.answered(), 30);
        assert_eq!(snapshot.shed(), 4);
        assert!((snapshot.batch_occupancy() - 8.0).abs() < 1e-9);
        assert!(snapshot.table("a").is_some());
        assert!(snapshot.table("missing").is_none());
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.quantile_ms(0.5), None);
        assert_eq!(hist.mean_ms(), None);
        for ms in 1..=100 {
            hist.record_ms(ms as f64);
        }
        assert_eq!(hist.count(), 100);
        let quantiles = hist.quantiles_ms(&[0.5, 0.99]);
        assert!((quantiles[0].unwrap() - 50.0).abs() <= ALPHA * 50.0);
        assert!((quantiles[1].unwrap() - 99.0).abs() <= ALPHA * 99.0);
        assert_eq!(hist.quantile_ms(1.0), Some(100.0));
        assert_eq!(hist.quantile_ms(0.0), Some(1.0));
        assert!((hist.mean_ms().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_retention_is_bounded() {
        // The 65 536-sample cap of a sample ring is no limit any more: the
        // count stays exact past it and nothing is overwritten.
        let hist = LatencyHistogram::new();
        let samples = 65_536 + 10;
        for ms in 0..samples {
            hist.record_ms(ms as f64);
        }
        assert_eq!(hist.count(), samples);
        assert_eq!(hist.quantile_ms(0.0), Some(0.0));
        assert_eq!(hist.quantile_ms(1.0), Some((samples - 1) as f64));
        // The footprint is the type's size: buckets and four scalars, no
        // heap storage that could grow with the samples.
        assert_eq!(
            std::mem::size_of::<LatencyHistogram>(),
            (BUCKETS + 4) * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn histogram_merge_and_nonfinite_filtering() {
        let a = LatencyHistogram::new();
        a.record_ms(1.0);
        a.record_ms(f64::NAN);
        a.record_ms(f64::INFINITY);
        let b = LatencyHistogram::new();
        b.record_ms(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile_ms(1.0), Some(3.0));

        // Merging two halves gives the whole, bucket for bucket, in either
        // order.
        let samples = lognormal(&mut StdRng::seed_from_u64(3), 5_000);
        let (whole, first, second) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for (i, &ms) in samples.iter().enumerate() {
            whole.record_ms(ms);
            if i % 3 == 0 { &first } else { &second }.record_ms(ms);
        }
        let (first_then_second, second_then_first) = (first.clone(), second.clone());
        first_then_second.merge(&second);
        second_then_first.merge(&first);
        let state = |h: &LatencyHistogram| {
            let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            let buckets = h.buckets.each_ref().map(load);
            (
                buckets,
                [&h.count, &h.sum_ns, &h.min_bits, &h.max_bits].map(load),
            )
        };
        assert!(state(&first_then_second) == state(&whole));
        assert!(state(&second_then_first) == state(&whole));
    }

    fn lognormal(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (0.5 + z).exp()
            })
            .collect()
    }

    #[test]
    fn every_bucket_value_is_within_alpha_of_its_samples() {
        assert_eq!(bucket_index(FLOOR_MS), 0);
        assert_eq!(bucket_index(1e5), BUCKETS - 1, "100 s is the last bucket");
        let steps = 200_000;
        let mut previous = 0;
        for step in 1..=steps {
            // Log-spaced over (1 µs, 100 s].
            let ms = FLOOR_MS * 1e8f64.powf(step as f64 / steps as f64);
            let index = bucket_index(ms);
            assert!(index >= previous, "bucket order at {ms} ms");
            previous = index;
            let error = (bucket_value(index) - ms).abs() / ms;
            assert!(error <= ALPHA * (1.0 + 1e-9), "{ms} ms: error {error}");
        }
    }

    #[test]
    fn quantiles_stay_within_alpha_of_exact_nearest_rank() {
        let mut rng = StdRng::seed_from_u64(19);
        let uniform: Vec<f64> = (0..10_000).map(|_| rng.gen_range(0.05..20.0)).collect();
        let bimodal: Vec<f64> = (0..10_000)
            .map(|i| {
                let centre = if i % 4 == 0 { 8.0 } else { 0.2 };
                centre * rng.gen_range(0.9..1.1)
            })
            .collect();
        // Zeros at q = 0, sub-µs samples at q = 0.01, the rest above 1 µs.
        let floor: Vec<f64> = (0..10_000)
            .map(|i| match i % 200 {
                0 => 0.0,
                1..=3 => rng.gen_range(1e-6..FLOOR_MS),
                _ => rng.gen_range(FLOOR_MS..1.0),
            })
            .collect();
        let sets = [
            ("uniform", uniform),
            ("lognormal", lognormal(&mut rng, 10_000)),
            ("bimodal", bimodal),
            ("zeros and sub-µs", floor),
        ];
        for (name, samples) in sets {
            let hist = LatencyHistogram::new();
            for &ms in &samples {
                hist.record_ms(ms);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let qs = [0.0, 0.01, 0.5, 0.9, 0.99, 1.0];
            for (q, estimate) in qs.iter().zip(hist.quantiles_ms(&qs)) {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let estimate = estimate.unwrap();
                let bound = if exact > FLOOR_MS {
                    ALPHA * exact * (1.0 + 1e-9)
                } else {
                    FLOOR_MS
                };
                assert!(
                    (estimate - exact).abs() <= bound,
                    "{name} q={q}: {estimate} against {exact}"
                );
                if *q == 0.0 || *q == 1.0 {
                    assert_eq!(estimate, exact, "{name} q={q} is exact");
                }
            }
        }
    }

    #[test]
    fn concurrent_records_keep_count_and_sum_exact() {
        let (threads, per_thread) = (4, 10_000);
        let hist = LatencyHistogram::new();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (hist, start) = (&hist, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        hist.record_ms(((t * per_thread + i) % 1_000) as f64 / 100.0);
                    }
                });
            }
        });
        let expected_ns: u64 = (0..threads * per_thread)
            .map(|n| (n % 1_000) as u64 * 10_000)
            .sum();
        assert_eq!(hist.count(), threads * per_thread);
        assert_eq!(hist.sum_ns.load(Ordering::Relaxed), expected_ns);
        let bucketed: u64 = hist.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucketed, (threads * per_thread) as u64);
        assert_eq!(hist.quantile_ms(0.0), Some(0.0));
        assert_eq!(hist.quantile_ms(1.0), Some(9.99));
    }
}
