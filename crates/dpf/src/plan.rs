//! Batch-resident device memory plans.
//!
//! The paper's serving argument is that the table upload is the one transfer
//! worth planning: at PCIe rates a table costs orders of magnitude more to
//! move than any batch's keys or answer shares, so the dispatch layer should
//! decide *explicitly* — per (table, batch, device-count) shape — what stays
//! resident on the device across batches and what streams per batch. This
//! module makes that decision a first-class value:
//!
//! * [`MemoryPlan`] — exact per-device byte footprints (table slice, keys,
//!   outputs, strategy scratch, all via the crate's exact `size_bytes`
//!   arithmetic) plus the chosen [`TableResidency`] and the resulting
//!   [`TransferStep`] schedule.
//! * [`PlanCache`] — servers build one plan per batch shape and reuse it,
//!   with hit/miss counters surfaced as telemetry.
//! * [`PlanLedger`] — the plan/transfer counters a serving layer exports.
//!
//! The schedule's optimality is checkable, not asserted: `MemoryPlan` can be
//! rebuilt under the opposite residency choice and costed with
//! [`CostModel::transfer_time_s`], and the parity suite proves the plan's
//! choice minimizes steady-state transfer time for every feasible candidate.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gpu_sim::{CostModel, TransferKind};
use serde::{Deserialize, Serialize};

use crate::analysis::StrategyProfile;
use crate::strategy::EvalStrategy;

/// Whether the table (or each device's table slice) stays on the device
/// across batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableResidency {
    /// Uploaded once (and again only after a hot reload); every subsequent
    /// batch avoids the transfer.
    Resident,
    /// Re-uploaded on every batch because the resident working set would not
    /// fit the device budget.
    Streamed,
}

/// One transfer the plan schedules for a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferStep {
    /// Device the transfer targets.
    pub device_index: usize,
    /// What the transfer carries. `Table` steps are uploads;
    /// `Keys` steps are uploads; `Output` steps are downloads.
    pub kind: TransferKind,
    /// Exact size in bytes.
    pub bytes: u64,
    /// `true` if the step repeats every batch; `false` if it runs once when
    /// the plan is activated (the resident table upload).
    pub per_batch: bool,
}

/// Exact byte footprint of one device under the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DevicePlan {
    /// Device index (0-based).
    pub device_index: usize,
    /// Bytes of the table slice this device holds
    /// ([`DeviceSplit::slice_bytes`]) — exactly what the dispatch layer
    /// allocates.
    pub table_bytes: u64,
    /// Per-batch key upload bytes.
    pub key_bytes: u64,
    /// Per-batch answer-share download bytes.
    pub output_bytes: u64,
    /// Peak strategy scratch for the planned batch (closed-form, from
    /// [`StrategyProfile`]).
    pub scratch_bytes: u64,
}

impl DevicePlan {
    /// Total bytes alive on the device at the peak of a launch.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.table_bytes + self.key_bytes + self.output_bytes + self.scratch_bytes
    }
}

/// A batch-resident memory plan for one (table, batch, devices) shape.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Batch size the plan was built for.
    pub batch: u64,
    /// Device memory budget the plan was checked against.
    pub budget_bytes: u64,
    /// The residency decision.
    pub residency: TableResidency,
    /// Per-device footprints.
    pub devices: Vec<DevicePlan>,
    /// The transfer schedule the decision implies.
    pub schedule: Vec<TransferStep>,
}

impl MemoryPlan {
    /// Build a plan.
    ///
    /// * `budget_bytes` — device memory available per device.
    /// * `strategy` — expansion strategy (drives the scratch term).
    /// * `domain_bits` — depth of the padded DPF tree.
    /// * `table_rows` / `row_bytes` — unpadded table shape (a row is
    ///   `lanes_per_row × 4` bytes).
    /// * `key_bytes` — serialized size of one key
    ///   ([`DpfParams::key_size_bytes`](crate::DpfParams::key_size_bytes)).
    /// * `batch` — queries per launch.
    /// * `devices` — device count (1 = single-device dispatch).
    ///
    /// The table is kept resident iff **every** device's peak footprint fits
    /// its budget; since transfer time is strictly increasing in bytes,
    /// residency is optimal whenever it is feasible, and the plan's schedule
    /// is therefore the cost-model minimum by construction (the parity suite
    /// re-derives this from [`CostModel::transfer_time_s`] rather than
    /// trusting it).
    ///
    /// # Panics
    ///
    /// Panics if `table_rows`, `row_bytes`, `batch` or `devices` is zero, or
    /// the domain is too shallow to split across `devices` (servers reject
    /// that at construction, before any plan is built).
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one parameter per plan dimension
    pub fn build(
        budget_bytes: u64,
        strategy: EvalStrategy,
        domain_bits: u32,
        table_rows: u64,
        row_bytes: u64,
        key_bytes: u64,
        batch: u64,
        devices: usize,
    ) -> Self {
        assert!(table_rows > 0, "table must contain at least one row");
        assert!(row_bytes > 0, "rows must be at least one byte wide");
        assert!(batch > 0, "plan needs at least one query");
        assert!(devices > 0, "plan needs at least one device");
        let split = DeviceSplit::new(domain_bits, devices).unwrap_or_else(|| {
            // pir-lint: allow(panic-path, "documented precondition: servers validate the split at construction")
            panic!("cannot split a depth-{domain_bits} tree across {devices} devices")
        });

        let device_plans: Vec<DevicePlan> = split
            .slice_bytes(table_rows, row_bytes)
            .into_iter()
            .enumerate()
            .map(|(device_index, table_bytes)| {
                // Per-device scratch: every query of the batch expands on every
                // device (each against its slice), so the batch term does not
                // shrink with the device count — only the table slice does.
                let scratch = StrategyProfile::of(strategy, domain_bits, batch).peak_scratch_bytes;
                DevicePlan {
                    device_index,
                    table_bytes,
                    key_bytes: batch.saturating_mul(key_bytes),
                    output_bytes: batch.saturating_mul(row_bytes),
                    scratch_bytes: scratch,
                }
            })
            .collect();

        let fits = device_plans.iter().all(|d| d.peak_bytes() <= budget_bytes);
        let residency = if fits {
            TableResidency::Resident
        } else {
            TableResidency::Streamed
        };
        Self::assemble(batch, budget_bytes, residency, device_plans)
    }

    /// Rebuild this plan under a forced residency choice, keeping every byte
    /// count identical. Used to enumerate candidate schedules when checking
    /// the plan against the cost model.
    #[must_use]
    pub fn with_residency(&self, residency: TableResidency) -> Self {
        Self::assemble(
            self.batch,
            self.budget_bytes,
            residency,
            self.devices.clone(),
        )
    }

    fn assemble(
        batch: u64,
        budget_bytes: u64,
        residency: TableResidency,
        devices: Vec<DevicePlan>,
    ) -> Self {
        let mut schedule = Vec::with_capacity(devices.len() * 3);
        for device in &devices {
            schedule.push(TransferStep {
                device_index: device.device_index,
                kind: TransferKind::Table,
                bytes: device.table_bytes,
                per_batch: residency == TableResidency::Streamed,
            });
            schedule.push(TransferStep {
                device_index: device.device_index,
                kind: TransferKind::Keys,
                bytes: device.key_bytes,
                per_batch: true,
            });
            schedule.push(TransferStep {
                device_index: device.device_index,
                kind: TransferKind::Output,
                bytes: device.output_bytes,
                per_batch: true,
            });
        }
        Self {
            batch,
            budget_bytes,
            residency,
            devices,
            schedule,
        }
    }

    /// Whether every device's peak footprint fits the budget — i.e. whether
    /// this plan's residency choice is actually executable.
    #[must_use]
    pub fn fits_budget(&self) -> bool {
        match self.residency {
            TableResidency::Resident => self
                .devices
                .iter()
                .all(|d| d.peak_bytes() <= self.budget_bytes),
            // Streaming holds the same peak during the launch (the table must
            // be on-device while the kernel runs); it only changes *when*
            // bytes move, not how many are alive. It is always "executable"
            // in the sense that nothing is pinned between batches.
            TableResidency::Streamed => true,
        }
    }

    /// Bytes pinned on devices *between* batches (the lease a serving-layer
    /// budget should hold on behalf of this plan).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        match self.residency {
            TableResidency::Resident => self.devices.iter().map(|d| d.table_bytes).sum(),
            TableResidency::Streamed => 0,
        }
    }

    /// Peak bytes alive across all devices during a launch — resident table
    /// slices plus per-batch keys, outputs and scratch.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.devices.iter().map(DevicePlan::peak_bytes).sum()
    }

    /// Transfer bytes the very first batch pays (table + keys + outputs).
    #[must_use]
    pub fn first_batch_transfer_bytes(&self) -> u64 {
        self.schedule.iter().map(|s| s.bytes).sum()
    }

    /// Transfer bytes every steady-state batch pays. Under
    /// [`TableResidency::Resident`] the table steps drop out — this is the
    /// quantity the plan minimizes.
    #[must_use]
    pub fn steady_batch_transfer_bytes(&self) -> u64 {
        self.schedule
            .iter()
            .filter(|s| s.per_batch)
            .map(|s| s.bytes)
            .sum()
    }

    /// Table bytes a steady-state batch *avoids* re-uploading thanks to
    /// residency (zero when streaming).
    #[must_use]
    pub fn avoided_transfer_bytes_per_batch(&self) -> u64 {
        self.first_batch_transfer_bytes() - self.steady_batch_transfer_bytes()
    }

    /// Cost-model seconds of host↔device traffic per steady-state batch,
    /// assuming the per-device transfers overlap (each device has its own
    /// link): the slowest device bounds the schedule.
    #[must_use]
    pub fn steady_batch_transfer_time_s(&self, model: &CostModel) -> f64 {
        let mut per_device = vec![0u64; self.devices.len()];
        for step in self.schedule.iter().filter(|s| s.per_batch) {
            per_device[step.device_index] += step.bytes;
        }
        per_device
            .into_iter()
            .map(|bytes| model.transfer_time_s(bytes))
            .fold(0.0f64, f64::max)
    }
}

/// The device-ownership rule (§3.2.7), written down once.
///
/// The padded DPF domain of `2^domain_bits` leaves is cut into
/// `next_pow2(devices)` equal subtrees; subtree `t` belongs to device
/// `t mod devices` (a non-power-of-two count gives the low-index devices one
/// extra subtree each), and a device's rows are its subtrees' leaves clamped
/// to the real, unpadded table. One device is this split at `split_bits = 0`:
/// a single subtree — the root — owned by device 0.
///
/// Everything that needs to know which device holds which rows derives it
/// from here: [`DevicePlan::table_bytes`], the slices
/// [`BatchEvalJob`](crate::BatchEvalJob) uploads, expects and sweeps, and
/// `pir_protocol::{shard_split_bits, shard_owned_ranges}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceSplit {
    domain_bits: u32,
    split_bits: u32,
    devices: usize,
}

impl DeviceSplit {
    /// Split a `2^domain_bits`-leaf domain across `devices` devices; `None`
    /// if `devices` is zero or the tree is too shallow to give every device
    /// a subtree.
    #[must_use]
    pub fn new(domain_bits: u32, devices: usize) -> Option<Self> {
        if devices == 0 {
            return None;
        }
        let split_bits = (devices as u64).next_power_of_two().trailing_zeros();
        (split_bits <= domain_bits).then_some(Self {
            domain_bits,
            split_bits,
            devices,
        })
    }

    /// Prefix bits the domain is split on (`0` for one device).
    #[must_use]
    pub fn split_bits(self) -> u32 {
        self.split_bits
    }

    /// The device that owns the subtree reached by the `prefix_bits`-bit
    /// path `prefix`, at or below the split level (`prefix_bits >=
    /// split_bits`): whoever owns its ancestor at the split level.
    #[must_use]
    pub fn owner(self, prefix: u64, prefix_bits: u32) -> usize {
        ((prefix >> (prefix_bits - self.split_bits)) % self.devices as u64) as usize
    }

    /// The row ranges each device owns in a table of `table_rows` rows, in
    /// subtree order. Padded-only subtrees are dropped, so every real row
    /// lands in exactly one device's ranges.
    #[must_use]
    pub fn owned_ranges(self, table_rows: u64) -> Vec<Vec<Range<u64>>> {
        let span = 1u64 << (self.domain_bits - self.split_bits);
        let mut ranges = vec![Vec::new(); self.devices];
        for subtree in 0..(1u64 << self.split_bits) {
            let start = subtree * span;
            let end = (start + span).min(table_rows);
            if start < end {
                ranges[self.owner(subtree, self.split_bits)].push(start..end);
            }
        }
        ranges
    }

    /// Bytes of each device's table-slice allocation, with a one-row floor
    /// so a device whose subtrees are all padding still holds a non-empty
    /// allocation.
    #[must_use]
    pub fn slice_bytes(self, table_rows: u64, row_bytes: u64) -> Vec<u64> {
        self.owned_ranges(table_rows)
            .iter()
            .map(|owned| {
                let rows: u64 = owned.iter().map(|range| range.end - range.start).sum();
                rows.max(1).saturating_mul(row_bytes)
            })
            .collect()
    }
}

/// Shape key a [`PlanCache`] entry is indexed by. Everything that changes
/// the plan's bytes is in the key; everything else (telemetry, generations)
/// is not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Unpadded table rows.
    pub table_rows: u64,
    /// Bytes per table row.
    pub row_bytes: u64,
    /// Serialized bytes per key.
    pub key_bytes: u64,
    /// Queries per launch.
    pub batch: u64,
    /// Device count.
    pub devices: usize,
}

/// A concurrency-safe cache of [`MemoryPlan`]s keyed by batch shape.
///
/// Serving layers see a small set of batch shapes (the autoscaler forms
/// batches up to the scheduler's `max_batch`), so plans are built once per
/// shape and shared. Hit/miss counters feed the plan telemetry.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<MemoryPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the plan for `key`, building it with `build` on a miss.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> MemoryPlan,
    ) -> Arc<MemoryPlan> {
        let mut plans = self
            .plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(plan) = plans.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        plans.insert(key, Arc::clone(&plan));
        plan
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= plans built) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct plans currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Plan/transfer telemetry a server exports: how many bytes its plans pin on
/// devices and how the residency decision is paying off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanLedger {
    /// Bytes the backend currently reports allocated (resident table slices
    /// between batches; includes in-flight batch buffers during a launch).
    pub resident_bytes: u64,
    /// Table uploads actually performed (first batch, post-reload refreshes,
    /// and every batch when streaming).
    pub transfers_issued: u64,
    /// Table uploads skipped because the table was already resident.
    pub transfers_avoided: u64,
    /// Memory-plan cache hits.
    pub plan_cache_hits: u64,
    /// Memory-plan cache misses (plans built).
    pub plan_cache_misses: u64,
}

impl PlanLedger {
    /// Merge another ledger into this one (summing counters), used by
    /// sharded/pooled servers that aggregate per-replica ledgers.
    #[must_use]
    pub fn merged_with(&self, other: &PlanLedger) -> PlanLedger {
        PlanLedger {
            resident_bytes: self.resident_bytes + other.resident_bytes,
            transfers_issued: self.transfers_issued + other.transfers_issued,
            transfers_avoided: self.transfers_avoided + other.transfers_avoided,
            plan_cache_hits: self.plan_cache_hits + other.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses + other.plan_cache_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn chunk128() -> EvalStrategy {
        EvalStrategy::MemoryBounded { chunk: 128 }
    }

    #[test]
    fn small_table_stays_resident_and_skips_steady_state_uploads() {
        let plan = MemoryPlan::build(
            16 << 30,
            chunk128(),
            10,
            1000,
            64,
            crate::DpfParams::for_domain(1000).key_size_bytes(),
            32,
            1,
        );
        assert_eq!(plan.residency, TableResidency::Resident);
        assert_eq!(plan.resident_bytes(), 1000 * 64);
        // Steady state pays keys + outputs only.
        let keys = 32 * crate::DpfParams::for_domain(1000).key_size_bytes();
        assert_eq!(plan.steady_batch_transfer_bytes(), keys + 32 * 64);
        assert_eq!(plan.avoided_transfer_bytes_per_batch(), 1000 * 64);
        assert!(plan.fits_budget());
    }

    #[test]
    fn oversized_working_set_streams_the_table() {
        // 1 MiB budget, 2 MiB table: the resident plan cannot fit.
        let plan = MemoryPlan::build(1 << 20, chunk128(), 15, 1 << 15, 64, 300, 8, 1);
        assert_eq!(plan.residency, TableResidency::Streamed);
        assert_eq!(plan.resident_bytes(), 0);
        // The table bytes reappear in every batch's transfers.
        assert_eq!(
            plan.steady_batch_transfer_bytes(),
            plan.first_batch_transfer_bytes()
        );
        assert!(plan.steady_batch_transfer_bytes() >= (1u64 << 15) * 64);
    }

    #[test]
    fn non_power_of_two_devices_follow_subtree_striping() {
        // 3 devices over a 2^10 domain: 4 subtrees, device 0 owns {0, 3}.
        let split = DeviceSplit::new(10, 3).unwrap();
        assert_eq!(split.split_bits(), 2);
        assert_eq!(split.slice_bytes(1 << 10, 1), vec![512, 256, 256]);
        // A short table clamps the tail subtree (device 0's second).
        assert_eq!(split.slice_bytes(700, 1), vec![256, 256, 188]);
        assert_eq!(
            split.owned_ranges(700),
            vec![vec![0..256], vec![256..512], vec![512..700]]
        );

        let plan = MemoryPlan::build(16 << 30, chunk128(), 10, 1 << 10, 32, 300, 16, 3);
        assert_eq!(plan.devices.len(), 3);
        assert_eq!(plan.devices[0].table_bytes, 512 * 32);
        assert_eq!(plan.devices[1].table_bytes, 256 * 32);
        // Every device pays the full key + output stream.
        for device in &plan.devices {
            assert_eq!(device.key_bytes, 16 * 300);
            assert_eq!(device.output_bytes, 16 * 32);
        }
    }

    #[test]
    fn padded_tail_devices_keep_a_one_row_floor() {
        // 40 rows over 3 devices: subtrees of span 16; device 2's subtree
        // (rows 32..48) clamps to 8, device 0's second subtree (48..64) is
        // pure padding — its slice floors at one row, like the dispatcher.
        let plan = MemoryPlan::build(16 << 30, chunk128(), 6, 40, 8, 100, 4, 3);
        assert_eq!(plan.devices[0].table_bytes, 16 * 8);
        assert_eq!(plan.devices[2].table_bytes, 8 * 8);
        let ranges = DeviceSplit::new(6, 4).unwrap().owned_ranges(16);
        assert_eq!(ranges, vec![vec![0..16], vec![], vec![], vec![]]);
        let plan = MemoryPlan::build(16 << 30, chunk128(), 6, 16, 8, 100, 4, 4);
        assert_eq!(plan.devices[1].table_bytes, 8, "one-row floor");
    }

    #[test]
    fn residency_minimizes_steady_state_transfer_time_when_feasible() {
        let model = CostModel::new(DeviceSpec::v100());
        let plan = MemoryPlan::build(16 << 30, chunk128(), 12, 1 << 12, 64, 250, 64, 1);
        let streamed = plan.with_residency(TableResidency::Streamed);
        assert!(
            plan.steady_batch_transfer_time_s(&model)
                < streamed.steady_batch_transfer_time_s(&model)
        );
        // Byte counts are untouched by the residency flip.
        assert_eq!(plan.peak_bytes(), streamed.peak_bytes());
    }

    #[test]
    fn plan_cache_hits_after_first_build() {
        let cache = PlanCache::new();
        let key = PlanKey {
            table_rows: 1000,
            row_bytes: 64,
            key_bytes: 203,
            batch: 32,
            devices: 1,
        };
        let build = || MemoryPlan::build(16 << 30, chunk128(), 10, 1000, 64, 203, 32, 1);
        let first = cache.get_or_build(key, build);
        let second = cache.get_or_build(key, build);
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);

        let other = PlanKey { batch: 64, ..key };
        let _ = cache.get_or_build(other, || {
            MemoryPlan::build(16 << 30, chunk128(), 10, 1000, 64, 203, 64, 1)
        });
        assert_eq!(cache.misses(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn ledger_merge_sums_counters() {
        let a = PlanLedger {
            resident_bytes: 10,
            transfers_issued: 1,
            transfers_avoided: 2,
            plan_cache_hits: 3,
            plan_cache_misses: 4,
        };
        let merged = a.merged_with(&a);
        assert_eq!(merged.resident_bytes, 20);
        assert_eq!(merged.transfers_avoided, 4);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = MemoryPlan::build(1, chunk128(), 4, 16, 8, 100, 1, 0);
    }
}
