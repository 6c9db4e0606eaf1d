//! Serving telemetry: queue depth, batch occupancy, per-replica utilization
//! and latency quantiles.
//!
//! Counters are updated lock-free from the hot paths; latency samples go
//! through [`LatencyHistogram`] behind a mutex (one lock per
//! answered query, far off the device critical path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use pir_dpf::PlanLedger;

/// An accumulating latency histogram with exact quantiles.
///
/// The serving runtime records one sample per answered query and exports
/// p50/p99 through its stats snapshot; the load harness uses it to summarize
/// a run. Samples are kept as recorded (milliseconds) and quantiles are
/// computed by nearest-rank on demand, so small-sample behaviour is exact
/// rather than bucket-approximated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyHistogram {
    samples_ms: Vec<f64>,
    /// Ring cursor once the retention cap is reached.
    next: usize,
}

impl LatencyHistogram {
    /// Retention cap: once this many samples are held, new samples
    /// overwrite the oldest (sliding-window quantiles), bounding the memory
    /// of a long-lived serving process at ~512 KiB per histogram.
    pub const MAX_SAMPLES: usize = 65_536;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample in milliseconds.
    ///
    /// Non-finite samples are ignored (they would poison every quantile).
    pub fn record_ms(&mut self, ms: f64) {
        if !ms.is_finite() {
            return;
        }
        if self.samples_ms.len() < Self::MAX_SAMPLES {
            self.samples_ms.push(ms);
        } else {
            self.samples_ms[self.next] = ms;
            self.next = (self.next + 1) % Self::MAX_SAMPLES;
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// Mean latency, or `None` when empty.
    #[must_use]
    pub fn mean_ms(&self) -> Option<f64> {
        if self.samples_ms.is_empty() {
            return None;
        }
        Some(self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64)
    }

    /// Several `q`-quantiles (nearest-rank) in milliseconds, sharing one
    /// sort of the retained samples; entries are `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if any `q` is not in `[0, 1]`.
    #[must_use]
    pub fn quantiles_ms(&self, qs: &[f64]) -> Vec<Option<f64>> {
        for q in qs {
            assert!((0.0..=1.0).contains(q), "quantile {q} outside [0, 1]");
        }
        if self.samples_ms.is_empty() {
            return vec![None; qs.len()];
        }
        let mut sorted = self.samples_ms.clone();
        // Samples are finite (`record_ms` filters), so this is numeric order.
        sorted.sort_by(f64::total_cmp);
        qs.iter()
            .map(|q| {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                Some(sorted[rank.min(sorted.len() - 1)])
            })
            .collect()
    }

    /// The `q`-quantile (nearest-rank) in milliseconds, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantiles_ms(&[q])[0]
    }

    /// Median latency (p50), or `None` when empty.
    #[must_use]
    pub fn p50_ms(&self) -> Option<f64> {
        self.quantile_ms(0.50)
    }

    /// Tail latency (p99), or `None` when empty.
    #[must_use]
    pub fn p99_ms(&self) -> Option<f64> {
        self.quantile_ms(0.99)
    }

    /// Merge another histogram's samples into this one (subject to the same
    /// retention cap).
    pub fn merge(&mut self, other: &Self) {
        for &ms in &other.samples_ms {
            self.record_ms(ms);
        }
    }
}

/// Internal, shared per-table statistics.
#[derive(Debug, Default)]
pub(crate) struct TableStats {
    pub submitted: AtomicU64,
    pub answered: AtomicU64,
    pub shed: AtomicU64,
    pub failed: AtomicU64,
    pub canceled: AtomicU64,
    /// Queries evicted from a full queue by a higher-priority arrival
    /// (a subset of `shed`).
    pub displaced: AtomicU64,
    pub batches: AtomicU64,
    pub batched_queries: AtomicU64,
    pub max_batch: AtomicU64,
    pub in_flight_batches: AtomicU64,
    /// Autoscale steps that activated a replica (across both parties).
    pub scale_ups: AtomicU64,
    /// Autoscale steps that deactivated a replica (across both parties).
    pub scale_downs: AtomicU64,
    pub queue_wait: Mutex<LatencyHistogram>,
    pub e2e: Mutex<LatencyHistogram>,
    /// One slot per SLO tier class, index-aligned with the table's
    /// `SloTiers::classes()`.
    pub tiers: Vec<TierStats>,
}

impl TableStats {
    /// Stats block sized for a table with `tier_count` SLO classes.
    pub(crate) fn with_tiers(tier_count: usize) -> Self {
        Self {
            tiers: (0..tier_count).map(|_| TierStats::default()).collect(),
            ..Self::default()
        }
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries
            .fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// The counter slot for `tier`, if the table declared that many tiers.
    pub(crate) fn tier(&self, tier: usize) -> Option<&TierStats> {
        self.tiers.get(tier)
    }
}

/// Internal, shared per-SLO-tier statistics.
#[derive(Debug, Default)]
pub(crate) struct TierStats {
    pub submitted: AtomicU64,
    pub answered: AtomicU64,
    pub shed: AtomicU64,
    /// Evictions from a full queue by a higher-priority arrival (also
    /// counted in `shed`).
    pub displaced: AtomicU64,
    pub failed: AtomicU64,
    pub e2e: Mutex<LatencyHistogram>,
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
    /// from each replica's [`pir_protocol::PirServer::plan_ledger`] — the
    /// serve layer reports what the device layer measured, it never
    /// re-derives sizes.
    pub plan: PlanLedger,
    /// Host SIMD backend executing this table's PRF sweeps (`"scalar"`,
    /// `"avx2"` or `"neon"` — runtime-detected, overridable with the
    /// `PIR_PRF_BACKEND` environment variable).
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
        let mut hist = LatencyHistogram::new();
        assert_eq!(hist.p50_ms(), None);
        assert_eq!(hist.mean_ms(), None);
        for ms in 1..=100 {
            hist.record_ms(ms as f64);
        }
        assert_eq!(hist.count(), 100);
        assert_eq!(hist.p50_ms(), Some(50.0));
        assert_eq!(hist.p99_ms(), Some(99.0));
        assert_eq!(hist.quantile_ms(1.0), Some(100.0));
        assert_eq!(hist.quantile_ms(0.0), Some(1.0));
        assert!((hist.mean_ms().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_retention_is_bounded() {
        let mut hist = LatencyHistogram::new();
        for ms in 0..(LatencyHistogram::MAX_SAMPLES + 10) {
            hist.record_ms(ms as f64);
        }
        assert_eq!(hist.count(), LatencyHistogram::MAX_SAMPLES);
        // The oldest samples were overwritten by the newest.
        assert_eq!(hist.quantile_ms(0.0), Some(10.0));
        let quantiles = hist.quantiles_ms(&[0.5, 0.99]);
        assert_eq!(quantiles.len(), 2);
        assert!(quantiles[0].unwrap() < quantiles[1].unwrap());
    }

    #[test]
    fn histogram_merge_and_nonfinite_filtering() {
        let mut a = LatencyHistogram::new();
        a.record_ms(1.0);
        a.record_ms(f64::NAN);
        a.record_ms(f64::INFINITY);
        let mut b = LatencyHistogram::new();
        b.record_ms(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile_ms(1.0), Some(3.0));
    }
}
