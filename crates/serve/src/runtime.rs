//! The serving runtime: owns the registry, the batch-former workers and the
//! shared admission/telemetry state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use pir_protocol::{PirServer, PirTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::admission::Admission;
use crate::batcher::run_batch_former;
use crate::budget::DeviceBudget;
use crate::config::{ServeConfig, TableConfig};
use crate::error::ServeError;
use crate::handle::ServeHandle;
use crate::registry::{HostedTable, TableRegistry};
use crate::stats::{ReplicaStatsSnapshot, StatsSnapshot, TableStatsSnapshot, TierStatsSnapshot};

/// A latch the autoscale controllers park on between sampling ticks, so
/// shutdown interrupts a sleeping controller immediately instead of
/// waiting out its tick.
#[derive(Default)]
pub(crate) struct ShutdownLatch {
    fired: Mutex<bool>,
    bell: Condvar,
}

impl ShutdownLatch {
    /// Wait up to `timeout`; returns `true` once shutdown has fired.
    fn wait(&self, timeout: std::time::Duration) -> bool {
        let mut fired = self.fired.lock();
        if !*fired {
            self.bell.wait_for(&mut fired, timeout);
        }
        *fired
    }

    fn fire(&self) {
        *self.fired.lock() = true;
        self.bell.notify_all();
    }
}

pub(crate) struct RuntimeInner {
    pub registry: TableRegistry,
    pub admission: Arc<Admission>,
    pub budget: Arc<DeviceBudget>,
    pub seed: u64,
    pub rng_streams: AtomicU64,
    pub shutting_down: AtomicBool,
    pub shutdown_latch: ShutdownLatch,
}

impl RuntimeInner {
    /// A deterministic, per-query RNG: stream `n` of the runtime seed.
    ///
    /// Lock-free so concurrent submitters can generate DPF keys in
    /// parallel; `StdRng::seed_from_u64` already SplitMix-expands the
    /// combined value, so consecutive streams are uncorrelated.
    pub(crate) fn query_rng(&self) -> StdRng {
        let stream = self.rng_streams.fetch_add(1, Ordering::Relaxed);
        StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub(crate) fn stats_snapshot(&self) -> StatsSnapshot {
        let tables = self
            .registry
            .all()
            .into_iter()
            .map(|hosted| {
                let stats = &hosted.stats;
                let queue_quantiles = stats.queue_wait.quantiles_ms(&[0.50, 0.99]);
                let e2e_quantiles = stats.totals.e2e.quantiles_ms(&[0.50, 0.99]);
                let elapsed_s = hosted.registered_at.elapsed().as_secs_f64().max(1e-9);
                let active = [hosted.active_replicas(0), hosted.active_replicas(1)];
                let replicas = hosted
                    .pools
                    .iter()
                    .enumerate()
                    .flat_map(|(party, pool)| {
                        let active = active[party];
                        pool.iter().enumerate().map(move |(replica, slot)| {
                            let busy_ms = slot.stats.busy_us.load(Ordering::Relaxed) as f64 / 1e3;
                            ReplicaStatsSnapshot {
                                party,
                                replica,
                                active: replica < active,
                                batches: slot.stats.batches.load(Ordering::Relaxed),
                                queries: slot.stats.queries.load(Ordering::Relaxed),
                                busy_ms,
                                device_busy_s: slot.server.metrics().busy_time_s,
                                utilization: (busy_ms / 1e3 / elapsed_s).min(1.0),
                            }
                        })
                    })
                    .collect();
                // Residency telemetry: sum each replica's backend-reported
                // ledger.
                let plan = hosted
                    .pools
                    .iter()
                    .flatten()
                    .map(|slot| slot.server.plan_ledger())
                    .fold(pir_dpf::PlanLedger::default(), |acc, ledger| {
                        acc.merged_with(&ledger)
                    });
                // Per-tier telemetry: class identity comes from the config,
                // counters and latency quantiles from the matching
                // `OutcomeStats` slot.
                let tiers = hosted
                    .config
                    .tiers
                    .classes()
                    .iter()
                    .enumerate()
                    .map(|(index, class)| {
                        let tier = hosted.stats.tiers.get(index);
                        let load = |get: fn(&crate::stats::OutcomeStats) -> u64| {
                            tier.map(get).unwrap_or_default()
                        };
                        let e2e = tier
                            .map(|t| t.e2e.quantiles_ms(&[0.50, 0.99]))
                            .unwrap_or_else(|| vec![None, None]);
                        TierStatsSnapshot {
                            tier: class.name.clone(),
                            priority: class.priority,
                            deadline_ms: class.deadline.as_secs_f64() * 1e3,
                            submitted: load(|t| t.submitted.load(Ordering::Relaxed)),
                            answered: load(|t| t.answered.load(Ordering::Relaxed)),
                            shed: load(|t| t.shed.load(Ordering::Relaxed)),
                            displaced: load(|t| t.displaced.load(Ordering::Relaxed)),
                            failed: load(|t| t.failed.load(Ordering::Relaxed)),
                            e2e_p50_ms: e2e[0],
                            e2e_p99_ms: e2e[1],
                        }
                    })
                    .collect();
                TableStatsSnapshot {
                    table: hosted.name.clone(),
                    submitted: stats.totals.submitted.load(Ordering::Relaxed),
                    answered: stats.totals.answered.load(Ordering::Relaxed),
                    shed: stats.totals.shed.load(Ordering::Relaxed),
                    displaced: stats.totals.displaced.load(Ordering::Relaxed),
                    failed: stats.totals.failed.load(Ordering::Relaxed),
                    canceled: stats.canceled.load(Ordering::Relaxed),
                    batches: stats.batches.load(Ordering::Relaxed),
                    batched_queries: stats.batched_queries.load(Ordering::Relaxed),
                    max_batch: stats.max_batch.load(Ordering::Relaxed),
                    in_flight_batches: stats.in_flight_batches.load(Ordering::Relaxed),
                    queue_depths: [hosted.queues[0].depth(), hosted.queues[1].depth()],
                    active_replicas: active,
                    scale_up_events: stats.scale_ups.load(Ordering::Relaxed),
                    scale_down_events: stats.scale_downs.load(Ordering::Relaxed),
                    table_versions: [hosted.version(0), hosted.version(1)],
                    tiers,
                    replicas,
                    plan,
                    prf_backend: hosted.prf_backend,
                    queue_p50_ms: queue_quantiles[0],
                    queue_p99_ms: queue_quantiles[1],
                    e2e_p50_ms: e2e_quantiles[0],
                    e2e_p99_ms: e2e_quantiles[1],
                    e2e_mean_ms: stats.totals.e2e.mean_ms(),
                }
            })
            .collect();
        StatsSnapshot {
            tables,
            devices_in_use: self.budget.devices_in_use(),
            device_budget: self.budget.capacity(),
            resident_bytes_in_use: self.budget.resident_bytes_in_use(),
            peak_resident_bytes: self.budget.peak_resident_bytes(),
        }
    }
}

/// The multi-tenant serving runtime.
///
/// Owns every hosted table plus one batch-former worker thread per (table,
/// party, replica): each party's replica pool drains a shared dispatch
/// queue, and every launch leases devices from the runtime-wide device
/// budget. Dropping the runtime shuts it down gracefully: queues close,
/// already-admitted queries are answered, workers exit.
pub struct PirServeRuntime {
    inner: Arc<RuntimeInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl PirServeRuntime {
    /// Create an empty runtime.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Self {
            inner: Arc::new(RuntimeInner {
                admission: Arc::new(Admission::new(config.admission)),
                budget: Arc::new(DeviceBudget::new(config.device_budget)),
                registry: TableRegistry::default(),
                seed: config.seed,
                rng_streams: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
                shutdown_latch: ShutdownLatch::default(),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Create a runtime with default configuration.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(ServeConfig::default())
    }

    /// Register a table and start its batch formers (one per party per
    /// replica).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TableExists`] for duplicate names,
    /// [`ServeError::ShuttingDown`] after shutdown has begun, and
    /// [`ServeError::InvalidConfig`] if one replica's batch needs more
    /// devices than the whole device budget (it could never be dispatched).
    pub fn register_table(
        &self,
        name: &str,
        table: PirTable,
        config: TableConfig,
    ) -> Result<(), ServeError> {
        if let Some(capacity) = self.inner.budget.capacity() {
            if config.shards > capacity {
                return Err(ServeError::InvalidConfig(format!(
                    "a {}-shard replica can never fit the {capacity}-device budget",
                    config.shards
                )));
            }
        }
        // The workers lock brackets flag check + registry insert + spawn so a
        // concurrent shutdown (which takes the same lock before closing
        // queues) either sees this table fully registered or rejects us —
        // never a spawned worker whose queue nobody will ever close.
        let mut workers = self.workers.lock();
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let hosted = Arc::new(HostedTable::build(name, table, config)?);
        self.inner.registry.insert(Arc::clone(&hosted))?;

        // Every replica of the range gets a worker thread up front; workers
        // beyond the active count park on the queue condvar until the
        // autoscale controller raises it, so a scale-up costs one notify,
        // not a thread spawn plus a replica build.
        for party in 0..2 {
            for replica in 0..hosted.config.replicas.max {
                let hosted = Arc::clone(&hosted);
                let budget = Arc::clone(&self.inner.budget);
                #[expect(
                    clippy::expect_used,
                    reason = "OS thread spawn fails only on resource exhaustion; no recovery path at table admission"
                )]
                workers.push(
                    std::thread::Builder::new()
                        .name(batcher_thread_name(name, party, replica))
                        .spawn(move || run_batch_former(hosted, party, replica, budget))
                        .expect("spawn batch former"),
                );
            }
        }
        if hosted.config.replicas.is_elastic() {
            let inner = Arc::clone(&self.inner);
            #[expect(
                clippy::expect_used,
                reason = "OS thread spawn fails only on resource exhaustion; no recovery path at table admission"
            )]
            workers.push(
                std::thread::Builder::new()
                    .name(format!("autoscaler-{name}"))
                    .spawn(move || run_autoscaler(&inner, &hosted))
                    .expect("spawn autoscaler"),
            );
        }
        Ok(())
    }

    /// A clonable client handle.
    #[must_use]
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Overwrite one entry of a hosted table (hot reload). See
    /// [`ServeHandle::update_entry`] for the consistency guarantee.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`ServeHandle::update_entry`].
    pub fn update_entry(&self, table: &str, index: u64, bytes: &[u8]) -> Result<(), ServeError> {
        self.handle().update_entry(table, index, bytes)
    }

    /// A point-in-time statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Shut down gracefully: stop admitting, answer everything already
    /// queued, join the workers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.shutdown_latch.fire();
        let workers = {
            // Taken *after* the flag is set: an in-flight register_table
            // either completed under this lock (its queues get closed
            // below) or will observe the flag and bail.
            let mut workers = self.workers.lock();
            for hosted in self.inner.registry.all() {
                hosted.queues[0].close();
                hosted.queues[1].close();
            }
            std::mem::take(&mut *workers)
        };
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// The per-table autoscale controller: one thread per elastic table.
///
/// Every `tick` it samples both parties' dispatch-queue depths and applies
/// the hysteresis policy: `sustain_ticks` consecutive samples above
/// `high_depth` activate one more replica (if the range and the device
/// budget's observed headroom allow), `sustain_ticks` consecutive samples
/// at or below `low_depth` park one (down to the range's floor). Counters
/// reset after every step so consecutive steps each need fresh evidence —
/// the pool ramps, it does not jump.
fn run_autoscaler(inner: &RuntimeInner, table: &HostedTable) {
    let range = table.config.replicas;
    let policy = table.config.autoscale;
    let mut high_ticks = [0u32; 2];
    let mut low_ticks = [0u32; 2];
    loop {
        if inner.shutdown_latch.wait(policy.tick) {
            return;
        }
        for party in 0..2 {
            let depth = table.queues[party].depth();
            if depth > policy.high_depth {
                high_ticks[party] += 1;
                low_ticks[party] = 0;
            } else if depth <= policy.low_depth {
                low_ticks[party] += 1;
                high_ticks[party] = 0;
            } else {
                // Inside the hysteresis band: hold.
                high_ticks[party] = 0;
                low_ticks[party] = 0;
            }

            let active = table.active_replicas(party);
            if high_ticks[party] >= policy.sustain_ticks && active < range.max {
                // Opportunistic lease check: activating a replica only
                // helps if its `shards` devices could currently be leased;
                // under a saturated budget the extra worker would just park
                // inside `acquire` and inflate the FIFO queue.
                let headroom = inner
                    .budget
                    .capacity()
                    .is_none_or(|cap| inner.budget.devices_in_use() + table.config.shards <= cap);
                if headroom {
                    table.set_active_replicas(party, active + 1);
                    table.stats.scale_ups.fetch_add(1, Ordering::Relaxed);
                    high_ticks[party] = 0;
                }
            } else if low_ticks[party] >= policy.sustain_ticks && active > range.min {
                table.set_active_replicas(party, active - 1);
                table.stats.scale_downs.fetch_add(1, Ordering::Relaxed);
                low_ticks[party] = 0;
            }
        }
    }
}

#[cfg(test)]
impl PirServeRuntime {
    /// Park the single replica of both parties of `table` mid-launch, so
    /// that whatever a test submits next stays queued: the runtime's
    /// one-device budget is leased to the caller, and each party's worker
    /// has formed a batch of the one query submitted here and is blocked
    /// leasing a device for it. Dropping the lease lets the launches go.
    pub(crate) fn park_replicas(
        &self,
        table: &str,
    ) -> (crate::budget::DeviceLease, crate::PendingQuery) {
        assert_eq!(self.inner.budget.capacity(), Some(1));
        let lease = self.inner.budget.acquire(1, 0);
        let parked = self.handle().query(table, "parked", 0).expect("admitted");
        let hosted = self.inner.registry.get(table).expect("registered");
        while hosted.queues.iter().any(|queue| queue.depth() > 0) {
            std::thread::yield_now();
        }
        (lease, parked)
    }
}

impl Drop for PirServeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PirServeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PirServeRuntime")
            .field("tables", &self.inner.registry.names())
            .field(
                "shutting_down",
                &self.inner.shutting_down.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// A batch former's thread name: role and ids first, the table name last,
/// so the 15 bytes Linux keeps of a thread name hold `batcher-{party}-{replica}-`
/// whole for single-digit ids, however long the table name.
fn batcher_thread_name(table: &str, party: usize, replica: usize) -> String {
    format!("batcher-{party}-{replica}-{table}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
    use pir_prf::PrfKind;
    use std::time::Duration;

    fn runtime_with_table(name: &str, entries: u64) -> PirServeRuntime {
        let runtime = PirServeRuntime::new(ServeConfig::builder().seed(11).build().unwrap());
        let table = PirTable::generate(entries, 12, |row, offset| {
            (row as u8).wrapping_mul(5).wrapping_add(offset as u8)
        });
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(16)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table(name, table, config).unwrap();
        runtime
    }

    #[test]
    fn batcher_thread_names_keep_their_ids_within_fifteen_bytes() {
        let name = batcher_thread_name("embeddings_table_v2", 1, 9);
        assert!(name.as_bytes()[..15].starts_with(b"batcher-1-9-"), "{name}");
    }

    #[test]
    fn prf_backend_names_the_kernel_the_table_runs() {
        let runtime = PirServeRuntime::new(ServeConfig::default());
        for kind in PrfKind::ALL {
            let config = TableConfig::builder().prf_kind(kind).build().unwrap();
            let expected = pir_prf::build_prf(config.prf_kind).backend_label();
            let table = PirTable::generate(64, 8, |row, _| row as u8);
            let name = format!("{kind:?}");
            runtime.register_table(&name, table, config).unwrap();
            let stats = runtime.stats();
            assert_eq!(
                stats.table(&name).unwrap().prf_backend,
                expected,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn roundtrip_through_the_runtime() {
        let runtime = runtime_with_table("emb", 200);
        let handle = runtime.handle();
        let expected = |row: u64| {
            (0..12)
                .map(|offset| (row as u8).wrapping_mul(5).wrapping_add(offset as u8))
                .collect::<Vec<u8>>()
        };
        for index in [0u64, 7, 199] {
            let row = handle
                .query("emb", "tenant-a", index)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(row, expected(index), "index {index}");
        }
        let stats = runtime.stats();
        assert_eq!(stats.answered(), 3);
        let table = stats.table("emb").unwrap();
        assert_eq!(table.submitted, 3);
        assert!(table.e2e_p50_ms.is_some());
        assert!(table.queue_p99_ms.is_some());
    }

    #[test]
    fn unknown_tables_and_bad_indices_are_typed_errors() {
        let runtime = runtime_with_table("emb", 50);
        let handle = runtime.handle();
        assert!(matches!(
            handle.query("nope", "t", 0),
            Err(ServeError::UnknownTable(_))
        ));
        assert!(matches!(
            handle.query("emb", "t", 50),
            Err(ServeError::IndexOutOfRange {
                index: 50,
                entries: 50
            })
        ));
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let runtime = runtime_with_table("emb", 64);
        let handle = runtime.handle();
        let pending = handle.query("emb", "t", 5).unwrap();
        runtime.shutdown();
        // The already-admitted query was still answered.
        assert!(pending.wait().is_ok());
        // New submissions shed.
        assert_eq!(
            handle.query("emb", "t", 6).unwrap_err(),
            ServeError::ShuttingDown
        );
        runtime.shutdown();
    }

    #[test]
    fn tenant_quota_sheds_excess_load() {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .per_tenant_quota(2)
                .seed(3)
                .build()
                .unwrap(),
        );
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        // A quota slot is pinned by its unresolved `PendingQuery`, however
        // soon the batch formers answer it, so holding q1 and q2 is what
        // keeps the tenant at its quota.
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(1024)
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        let handle = runtime.handle();

        let q1 = handle.query("emb", "greedy", 1).unwrap();
        let q2 = handle.query("emb", "greedy", 2).unwrap();
        assert!(matches!(
            handle.query("emb", "greedy", 3),
            Err(ServeError::QuotaExceeded { quota: 2, .. })
        ));
        // A different tenant is still admitted.
        let q3 = handle.query("emb", "patient", 3).unwrap();
        assert!(q1.wait().is_ok());
        // Completed queries release quota.
        let q4 = handle.query("emb", "greedy", 4).unwrap();
        for q in [q2, q3, q4] {
            assert!(q.wait().is_ok());
        }
        let stats = runtime.stats();
        assert_eq!(stats.table("emb").unwrap().shed, 1);
    }

    #[test]
    fn queue_capacity_sheds_excess_load() {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .queue_capacity(2)
                .per_tenant_quota(1000)
                .device_budget(1)
                .seed(4)
                .build()
                .unwrap(),
        );
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(1024)
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        let handle = runtime.handle();

        // With every replica busy, arrivals stay queued and the bounded
        // queue fills.
        let (launching, parked) = runtime.park_replicas("emb");
        let q1 = handle.query("emb", "t", 1).unwrap();
        let q2 = handle.query("emb", "t", 2).unwrap();
        let shed = handle.query("emb", "t", 3).unwrap_err();
        assert!(matches!(shed, ServeError::QueueFull { depth: 2, .. }));
        drop(launching);
        for q in [parked, q1, q2] {
            assert!(q.wait().is_ok());
        }
    }

    #[test]
    fn replicated_tables_roundtrip_and_report_replica_stats() {
        let runtime = PirServeRuntime::new(ServeConfig::builder().seed(21).build().unwrap());
        let table = PirTable::generate(256, 8, |row, _| (row as u8).wrapping_mul(3));
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .replicas(3)
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        let handle = runtime.handle();

        let pending: Vec<_> = (0..24u64)
            .map(|i| {
                (
                    i * 10 % 256,
                    handle.query("emb", "t", i * 10 % 256).unwrap(),
                )
            })
            .collect();
        for (index, query) in pending {
            let row = query.wait().unwrap();
            assert_eq!(row[0], (index as u8).wrapping_mul(3));
        }

        let stats = runtime.stats();
        let snapshot = stats.table("emb").unwrap();
        assert_eq!(snapshot.answered, 24);
        assert_eq!(snapshot.submitted, 24);
        // Three replicas per party are reported, and together they carried
        // every (query, party) projection exactly once.
        assert_eq!(snapshot.replicas.len(), 6);
        let carried: u64 = snapshot.replicas.iter().map(|r| r.queries).sum();
        assert_eq!(carried, 2 * 24);
        assert_eq!(snapshot.batched_queries, 2 * 24);
        assert_eq!(snapshot.in_flight_batches, 0);
        runtime.shutdown();
    }

    #[test]
    fn device_budget_is_enforced_and_reported() {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .device_budget(2)
                .seed(13)
                .build()
                .unwrap(),
        );
        // A replica that spans 4 devices could never lease from a 2-device
        // budget: rejected up front instead of deadlocking at dispatch.
        let big = PirTable::generate(1024, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .shards(4)
            .build()
            .unwrap();
        assert!(matches!(
            runtime.register_table("big", big, config),
            Err(ServeError::InvalidConfig(_))
        ));

        // Two single-shard replicas fit (serially) and still answer
        // everything.
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .replicas(2)
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        let handle = runtime.handle();
        let pending: Vec<_> = (0..16u64)
            .map(|i| handle.query("emb", "t", i).unwrap())
            .collect();
        for query in pending {
            assert!(query.wait().is_ok());
        }
        let stats = runtime.stats();
        assert_eq!(stats.device_budget, Some(2));
        assert_eq!(stats.devices_in_use, 0, "all leases returned");
        assert_eq!(stats.table("emb").unwrap().answered, 16);
        runtime.shutdown();
    }

    #[test]
    fn canceled_queries_cost_no_device_work() {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .device_budget(1)
                .seed(19)
                .build()
                .unwrap(),
        );
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(64)
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        let handle = runtime.handle();

        // The replicas are busy while the query is abandoned, so it is still
        // queued — and formation observes the canceled flag — when they
        // come back for the next batch.
        let (launching, parked) = runtime.park_replicas("emb");
        let doomed = handle.query("emb", "t", 1).unwrap();
        drop(doomed);
        let survivor = handle.query("emb", "t", 2).unwrap();
        drop(launching);
        assert_eq!(survivor.wait().unwrap()[0], 2);
        assert!(parked.wait().is_ok());

        let stats = runtime.stats();
        let snapshot = stats.table("emb").unwrap();
        assert_eq!(snapshot.canceled, 1);
        assert_eq!(snapshot.submitted, 3);
        assert_eq!(snapshot.answered, 2);
        // Only the parked and the surviving query crossed each party's
        // device: the canceled one consumed no batch slot and no kernel
        // work.
        assert_eq!(snapshot.batched_queries, 4);
        let device_queries: u64 = snapshot.replicas.iter().map(|r| r.queries).sum();
        assert_eq!(device_queries, 4);
        runtime.shutdown();
    }

    #[test]
    fn host_backend_tables_serve_and_report_plan_telemetry() {
        let runtime = PirServeRuntime::new(ServeConfig::builder().seed(23).build().unwrap());
        let table = PirTable::generate(128, 8, |row, _| (row as u8).wrapping_add(7));
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .backend(gpu_sim::BackendKind::Host)
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        let handle = runtime.handle();

        for round in 0..2 {
            let pending: Vec<_> = (0..8u64)
                .map(|i| (i * 3 % 128, handle.query("emb", "t", i * 3 % 128).unwrap()))
                .collect();
            for (index, query) in pending {
                let row = query.wait().unwrap();
                assert_eq!(row[0], (index as u8).wrapping_add(7), "round {round}");
            }
        }

        let stats = runtime.stats();
        let snapshot = stats.table("emb").unwrap();
        assert_eq!(snapshot.answered, 16);
        // The 128×8 table fits the default budget, so the plan keeps it
        // resident: bytes are held on-device, and repeat batches on the same
        // replica avoid re-uploads while every first batch issues one.
        let plan = snapshot.plan;
        assert!(plan.resident_bytes > 0, "table should be plan-resident");
        assert!(
            plan.transfers_issued >= 2,
            "each party uploads at least once"
        );
        // Leases returned their resident bytes, but the high-water mark
        // proves the batcher leased the plan's figure while launching.
        assert_eq!(stats.resident_bytes_in_use, 0);
        assert!(stats.peak_resident_bytes > 0);
        runtime.shutdown();
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let runtime = runtime_with_table("emb", 64);
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        assert!(matches!(
            runtime.register_table("emb", table, TableConfig::default()),
            Err(ServeError::TableExists(_))
        ));
    }
}
