//! Configuration surface of the serving runtime.
//!
//! Follows the builder idiom (`TableConfig::builder().….build()?`) so every
//! knob has a paper-derived default and invalid combinations are rejected
//! with a typed [`ServeError::InvalidConfig`] at build time, never at serve
//! time.

use std::time::Duration;

use gpu_sim::BackendKind;
use pir_dpf::SchedulerConfig;
use pir_prf::PrfKind;

use crate::error::ServeError;
use crate::tier::{SloClass, SloTiers};

/// How a free replica forms its next batch from the queue (§3.2.5's premise:
/// the GPU only pays off when kernel launches are amortized over many
/// queries). Formation is work-conserving: a replica never idles in front of
/// a queued query, and what arrives during a launch forms the next batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// The most queries one launch takes from the queue.
    pub max_batch: usize,
    /// The age at which a queued query is promoted ahead of every fresh one
    /// at formation — the deadline of the single class an untiered table
    /// runs (where the order is FIFO either way, so it only labels
    /// `deadline_ms` in telemetry). It never delays a launch.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// How many interchangeable server replicas a party's pool may run.
///
/// The pool is built at `max` size up front (a replica is its planning and
/// its devices over the party's one table; building it at scale-up time
/// would stall the hot path), but only `active` replicas — a number the
/// autoscaler moves inside `min..=max` — drain the dispatch queue at any
/// instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaRange {
    /// Replicas always kept active (≥ 1).
    pub min: usize,
    /// Ceiling the autoscaler may scale to (≥ `min`).
    pub max: usize,
}

impl ReplicaRange {
    /// A fixed pool: autoscaling disabled, exactly `n` replicas.
    #[must_use]
    pub fn fixed(n: usize) -> Self {
        Self { min: n, max: n }
    }

    /// Whether the range leaves the autoscaler any room.
    #[must_use]
    pub fn is_elastic(&self) -> bool {
        self.max > self.min
    }
}

impl Default for ReplicaRange {
    fn default() -> Self {
        Self::fixed(1)
    }
}

/// When the per-table autoscale controller grows or shrinks a party's
/// active replica count (only meaningful when the table's
/// [`ReplicaRange::is_elastic`]).
///
/// The controller samples each party's queue depth every `tick` and applies
/// *hysteresis*: the depth must stay above `high_depth` (or at/below
/// `low_depth`) for `sustain_ticks` consecutive samples before a step is
/// taken, so a single bursty sample cannot flap the pool. Scale-ups are
/// additionally gated on observed device-budget headroom: a controller
/// never activates a replica whose `shards` devices could not currently be
/// leased.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoscalePolicy {
    /// Queue depth above which sustained load scales the pool up.
    pub high_depth: usize,
    /// Queue depth at or below which sustained idleness scales it down.
    pub low_depth: usize,
    /// Consecutive ticks a condition must hold before a step.
    pub sustain_ticks: u32,
    /// Sampling interval.
    pub tick: Duration,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            high_depth: 64,
            low_depth: 4,
            sustain_ticks: 3,
            tick: Duration::from_millis(2),
        }
    }
}

/// Bounded-queue and per-tenant admission limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum queries queued per (table, server) pair; arrivals beyond this
    /// are shed with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum in-flight queries per tenant; arrivals beyond this are shed
    /// with [`ServeError::QuotaExceeded`].
    pub per_tenant_quota: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            queue_capacity: 4096,
            per_tenant_quota: 256,
        }
    }
}

/// Per-table serving configuration: protocol parameters plus batching.
#[derive(Clone, Debug, PartialEq)]
pub struct TableConfig {
    /// PRF family used by this table's clients and servers.
    pub prf_kind: PrfKind,
    /// Number of simulated devices each server replica shards the table
    /// across (1 = single V100).
    pub shards: usize,
    /// Range of interchangeable server replicas per party. Formed batches
    /// are load-balanced across idle active replicas, so a hot table's
    /// burst traffic fans out over `active * shards` devices instead of
    /// queueing behind a single kernel launch; when the range is elastic,
    /// a per-table controller moves the active count with sustained queue
    /// depth (see [`AutoscalePolicy`]).
    pub replicas: ReplicaRange,
    /// When and how fast the active replica count follows queue depth.
    pub autoscale: AutoscalePolicy,
    /// Scheduler thresholds applied per shard.
    pub scheduler: SchedulerConfig,
    /// Device backend every replica of this table evaluates on: the
    /// analytical cost-model executor (default) or the measured in-process
    /// host backend. Both produce bit-identical shares; only time
    /// attribution differs.
    pub backend: BackendKind,
    /// Batch-formation policy for this table's two batch formers.
    pub batch: BatchPolicy,
    /// SLO priority tiers: per-tenant service classes that rank the queue
    /// at batch formation (urgent tenants first, background tenants fill
    /// residue, are promoted once their deadline passes, and absorb
    /// displacement shedding). Defaults to a single class whose deadline is
    /// `batch.max_wait`, which forms batches in exact FIFO order.
    pub tiers: SloTiers,
}

impl TableConfig {
    /// Start building a config from the defaults.
    #[must_use]
    pub fn builder() -> TableConfigBuilder {
        TableConfigBuilder::default()
    }
}

impl Default for TableConfig {
    fn default() -> Self {
        Self {
            prf_kind: PrfKind::Chacha20,
            shards: 1,
            replicas: ReplicaRange::default(),
            autoscale: AutoscalePolicy::default(),
            scheduler: SchedulerConfig::default(),
            backend: BackendKind::default(),
            batch: BatchPolicy::default(),
            tiers: SloTiers::default(),
        }
    }
}

/// Fluent builder for [`TableConfig`].
#[derive(Clone, Debug, Default)]
pub struct TableConfigBuilder {
    config: TableConfig,
    /// Declared tier classes; validated and resolved into
    /// [`TableConfig::tiers`] at build time.
    classes: Vec<SloClass>,
    /// `(tenant, tier-name)` assignments, resolved at build time.
    assignments: Vec<(String, String)>,
    /// Tier unassigned tenants fall into; defaults to the least urgent
    /// declared class.
    default_tier: Option<String>,
}

impl TableConfigBuilder {
    /// Set the PRF family (default ChaCha20, the GPU-friendly choice of
    /// §3.2.6).
    #[must_use]
    pub fn prf_kind(mut self, prf_kind: PrfKind) -> Self {
        self.config.prf_kind = prf_kind;
        self
    }

    /// Shard each server replica across this many simulated devices.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Keep exactly this many interchangeable server replicas per party
    /// (a fixed pool; autoscaling disabled).
    #[must_use]
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.config.replicas = ReplicaRange::fixed(replicas);
        self
    }

    /// Let the autoscaler run between `min` and `max` replicas per party,
    /// following sustained queue depth.
    #[must_use]
    pub fn replica_range(mut self, min: usize, max: usize) -> Self {
        self.config.replicas = ReplicaRange { min, max };
        self
    }

    /// Override the autoscale hysteresis knobs.
    #[must_use]
    pub fn autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        self.config.autoscale = autoscale;
        self
    }

    /// Override the per-shard scheduler thresholds.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Evaluate this table's replicas on the given device backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Take at most this many queued queries per launch.
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.batch.max_batch = max_batch;
        self
    }

    /// Promote a query still queued after this long ahead of fresh ones
    /// (see [`BatchPolicy::max_wait`]).
    #[must_use]
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.config.batch.max_wait = max_wait;
        self
    }

    /// Declare one SLO tier class. Declare at least two for tiering to do
    /// anything; with none declared the table runs a single class whose
    /// deadline is the batch policy's `max_wait`.
    #[must_use]
    pub fn tier(mut self, name: &str, deadline: Duration, priority: u8) -> Self {
        self.classes.push(SloClass::new(name, deadline, priority));
        self
    }

    /// Serve `tenant` under the named tier (tenants without an assignment
    /// get the default tier).
    #[must_use]
    pub fn assign_tenant(mut self, tenant: &str, tier: &str) -> Self {
        self.assignments
            .push((tenant.to_string(), tier.to_string()));
        self
    }

    /// Tier that unassigned tenants are served under (defaults to the
    /// least urgent declared class).
    #[must_use]
    pub fn default_tier(mut self, tier: &str) -> Self {
        self.default_tier = Some(tier.to_string());
        self
    }

    /// Validate and produce the config.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero shards, an empty or
    /// inverted replica range, degenerate autoscale thresholds, a zero
    /// batch size, a malformed tier set, or a scheduler config the planner
    /// would reject; [`ServeError::TierInversion`] if a more urgent tier
    /// declares a longer deadline than a less urgent one.
    pub fn build(mut self) -> Result<TableConfig, ServeError> {
        if self.config.shards == 0 {
            return Err(ServeError::InvalidConfig(
                "shards must be at least 1".into(),
            ));
        }
        if self.config.replicas.min == 0 {
            return Err(ServeError::InvalidConfig(
                "replicas must be at least 1".into(),
            ));
        }
        if self.config.replicas.max < self.config.replicas.min {
            return Err(ServeError::InvalidConfig(format!(
                "replica range max {} is below min {}",
                self.config.replicas.max, self.config.replicas.min
            )));
        }
        if self.config.autoscale.high_depth <= self.config.autoscale.low_depth {
            return Err(ServeError::InvalidConfig(
                "autoscale high_depth must exceed low_depth (hysteresis)".into(),
            ));
        }
        if self.config.autoscale.sustain_ticks == 0 {
            return Err(ServeError::InvalidConfig(
                "autoscale sustain_ticks must be at least 1".into(),
            ));
        }
        if self.config.autoscale.tick.is_zero() {
            return Err(ServeError::InvalidConfig(
                "autoscale tick must be non-zero".into(),
            ));
        }
        if self.config.batch.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        self.config
            .scheduler
            .validate()
            .map_err(|err| ServeError::InvalidConfig(err.to_string()))?;
        self.config.tiers = if self.classes.is_empty() {
            if !self.assignments.is_empty() || self.default_tier.is_some() {
                return Err(ServeError::InvalidConfig(
                    "tenant/default tier references declared without any tier classes".into(),
                ));
            }
            SloTiers::single(self.config.batch.max_wait)
        } else {
            let fallback = self
                .default_tier
                .or_else(|| {
                    // Least urgent class: unassigned tenants should absorb
                    // shedding, not compete with interactive traffic.
                    self.classes
                        .iter()
                        .max_by_key(|class| class.priority)
                        .map(|class| class.name.clone())
                })
                .unwrap_or_default();
            SloTiers::new(self.classes, &self.assignments, &fallback)?
        };
        Ok(self.config)
    }
}

/// Runtime-wide configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission limits shared by all tables.
    pub admission: AdmissionPolicy,
    /// Total simulated devices the runtime's batch dispatch may occupy at
    /// once, across every table and both parties (`None` = unbounded). Each
    /// formed batch leases `shards` devices for the duration of its kernel
    /// launch, so hot tables borrow fleet capacity that idle tables are not
    /// using.
    pub device_budget: Option<usize>,
    /// Seed of the runtime's query-key RNG (deterministic runs for tests and
    /// experiments).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionPolicy::default(),
            device_budget: None,
            seed: 0x5e21_9e0d,
        }
    }
}

impl ServeConfig {
    /// Start building a runtime config from the defaults.
    #[must_use]
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }
}

/// Fluent builder for [`ServeConfig`].
#[derive(Clone, Debug, Default)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bound each (table, server) queue at this depth.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.admission.queue_capacity = capacity;
        self
    }

    /// Bound each tenant at this many in-flight queries.
    #[must_use]
    pub fn per_tenant_quota(mut self, quota: usize) -> Self {
        self.config.admission.per_tenant_quota = quota;
        self
    }

    /// Cap the simulated devices occupied by in-flight batches at once.
    #[must_use]
    pub fn device_budget(mut self, devices: usize) -> Self {
        self.config.device_budget = Some(devices);
        self
    }

    /// Seed the runtime's key-generation RNG.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validate and produce the config.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero queue capacity, a zero
    /// tenant quota, or a zero device budget.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        if self.config.admission.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        if self.config.admission.per_tenant_quota == 0 {
            return Err(ServeError::InvalidConfig(
                "per_tenant_quota must be at least 1".into(),
            ));
        }
        if self.config.device_budget == Some(0) {
            return Err(ServeError::InvalidConfig(
                "device_budget must be at least 1 device (or unset)".into(),
            ));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_apply_defaults_and_overrides() {
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .shards(4)
            .replicas(3)
            .max_batch(16)
            .max_wait(Duration::from_millis(5))
            .build()
            .unwrap();
        assert_eq!(config.prf_kind, PrfKind::SipHash);
        assert_eq!(config.shards, 4);
        assert_eq!(config.replicas, ReplicaRange::fixed(3));
        assert!(!config.replicas.is_elastic());
        assert_eq!(config.batch.max_batch, 16);
        assert_eq!(config.batch.max_wait, Duration::from_millis(5));
        assert_eq!(config.backend, BackendKind::Simulated);
        assert_eq!(TableConfig::default().replicas, ReplicaRange::fixed(1));
        assert_eq!(TableConfig::default().backend, BackendKind::Simulated);

        let host = TableConfig::builder()
            .backend(BackendKind::Host)
            .build()
            .unwrap();
        assert_eq!(host.backend, BackendKind::Host);

        let elastic = TableConfig::builder()
            .replica_range(1, 4)
            .autoscale(AutoscalePolicy {
                high_depth: 16,
                low_depth: 2,
                sustain_ticks: 2,
                tick: Duration::from_millis(1),
            })
            .build()
            .unwrap();
        assert_eq!(elastic.replicas, ReplicaRange { min: 1, max: 4 });
        assert!(elastic.replicas.is_elastic());
        assert_eq!(elastic.autoscale.high_depth, 16);

        let serve = ServeConfig::builder()
            .queue_capacity(100)
            .per_tenant_quota(10)
            .device_budget(12)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(serve.admission.queue_capacity, 100);
        assert_eq!(serve.admission.per_tenant_quota, 10);
        assert_eq!(serve.device_budget, Some(12));
        assert_eq!(serve.seed, 7);
        assert_eq!(ServeConfig::default().device_budget, None);
    }

    #[test]
    fn tier_builder_materializes_and_validates() {
        // No tiers declared: a single default class at the batch deadline,
        // so classic formation is reproduced exactly.
        let plain = TableConfig::builder()
            .max_wait(Duration::from_millis(7))
            .build()
            .unwrap();
        assert_eq!(plain.tiers.len(), 1);
        assert_eq!(plain.tiers.class(0).deadline, Duration::from_millis(7));

        // Declared tiers sort by priority; unassigned tenants fall to the
        // least urgent class unless a default is named.
        let tiered = TableConfig::builder()
            .tier("bulk", Duration::from_millis(20), 3)
            .tier("urgent", Duration::from_millis(1), 0)
            .assign_tenant("vip", "urgent")
            .build()
            .unwrap();
        assert_eq!(
            tiered.tiers.class(tiered.tiers.tier_of("vip")).name,
            "urgent"
        );
        assert_eq!(
            tiered.tiers.class(tiered.tiers.tier_of("anon")).name,
            "bulk"
        );

        // A more urgent tier with a *longer* deadline is an inversion:
        // typed error, not a panic.
        let inverted = TableConfig::builder()
            .tier("urgent", Duration::from_millis(50), 0)
            .tier("bulk", Duration::from_millis(5), 3)
            .build();
        assert!(matches!(inverted, Err(ServeError::TierInversion { .. })));

        // Assignments to undeclared tiers, and assignments without any
        // declared classes, are both rejected.
        assert!(matches!(
            TableConfig::builder()
                .tier("urgent", Duration::from_millis(1), 0)
                .assign_tenant("vip", "nope")
                .build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder()
                .assign_tenant("vip", "urgent")
                .build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder().default_tier("urgent").build(),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            TableConfig::builder().shards(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder().max_batch(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        let bad_scheduler = SchedulerConfig {
            chunk: 0,
            ..SchedulerConfig::default()
        };
        assert!(matches!(
            TableConfig::builder().scheduler(bad_scheduler).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder().replicas(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder().replica_range(3, 2).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder()
                .autoscale(AutoscalePolicy {
                    high_depth: 4,
                    low_depth: 4,
                    ..AutoscalePolicy::default()
                })
                .build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder()
                .autoscale(AutoscalePolicy {
                    sustain_ticks: 0,
                    ..AutoscalePolicy::default()
                })
                .build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            TableConfig::builder()
                .autoscale(AutoscalePolicy {
                    tick: Duration::ZERO,
                    ..AutoscalePolicy::default()
                })
                .build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeConfig::builder().per_tenant_quota(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeConfig::builder().device_budget(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
    }
}
