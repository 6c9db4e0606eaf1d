//! Batch- and table-size-aware scheduling (§3.2.5), and the table-residency
//! rule (§3.2.3, §3.2.7): the two device-side planning decisions.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::analysis::StrategyProfile;
use crate::batch::GridMapping;
use crate::key::DpfParams;
use crate::plan::TableResidency;
use crate::strategy::EvalStrategy;
use crate::tile::{FRONTIER_TILE, HOST_FRONTIER_LEAVES};

/// A [`SchedulerConfig`] that cannot produce a valid execution plan.
///
/// Returned by [`SchedulerConfig::validate`] / [`Scheduler::try_new`] so a
/// misconfigured deployment is rejected at construction time with a typed
/// error instead of panicking (or silently wedging) deep inside `plan`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerConfigError {
    /// `num_sms` was zero: cooperative splits would launch zero blocks.
    ZeroSms,
    /// `chunk` was zero: the memory-bounded strategy needs at least one leaf
    /// per chunk.
    ZeroChunk,
    /// `threads_per_block` was zero: every launch would be empty.
    ZeroThreadsPerBlock,
    /// `memory_budget_bytes` was zero: no table fits.
    ZeroMemoryBudget,
    /// `cooperative_threshold_bits` does not fit a 64-bit domain.
    ThresholdTooLarge {
        /// The rejected threshold.
        bits: u32,
    },
}

impl fmt::Display for SchedulerConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroSms => write!(f, "scheduler config rejected: num_sms must be nonzero"),
            Self::ZeroChunk => write!(f, "scheduler config rejected: chunk must be nonzero"),
            Self::ZeroThreadsPerBlock => {
                write!(
                    f,
                    "scheduler config rejected: threads_per_block must be nonzero"
                )
            }
            Self::ZeroMemoryBudget => {
                write!(
                    f,
                    "scheduler config rejected: memory_budget_bytes must be nonzero"
                )
            }
            Self::ThresholdTooLarge { bits } => write!(
                f,
                "scheduler config rejected: cooperative_threshold_bits = {bits} exceeds 63"
            ),
        }
    }
}

impl std::error::Error for SchedulerConfigError {}

/// Tunable thresholds of the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Tables with at least `2^cooperative_threshold_bits` entries are served
    /// one query at a time with cooperative groups (the paper uses 2^22).
    pub cooperative_threshold_bits: u32,
    /// Default memory-bounded chunk size `K` (the paper uses 128).
    pub chunk: usize,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Device memory available for tables, keys, outputs and scratch.
    pub memory_budget_bytes: u64,
    /// Number of SMs on the target device (used to size cooperative splits).
    pub num_sms: u32,
}

impl SchedulerConfig {
    /// The V100 memory budget the paper assumes (16 GiB), computed with
    /// checked arithmetic so a future edit cannot silently wrap.
    const DEFAULT_MEMORY_BUDGET: u64 = match 16u64.checked_mul(1024 * 1024 * 1024) {
        Some(bytes) => bytes,
        None => unreachable!(),
    };

    /// The paper's `K`.
    const DEFAULT_CHUNK: usize = 128;

    /// Check the configuration for values that would make every plan
    /// degenerate.
    ///
    /// # Errors
    ///
    /// Returns the first [`SchedulerConfigError`] found.
    pub fn validate(&self) -> Result<(), SchedulerConfigError> {
        if self.num_sms == 0 {
            return Err(SchedulerConfigError::ZeroSms);
        }
        if self.chunk == 0 {
            return Err(SchedulerConfigError::ZeroChunk);
        }
        if self.threads_per_block == 0 {
            return Err(SchedulerConfigError::ZeroThreadsPerBlock);
        }
        if self.memory_budget_bytes == 0 {
            return Err(SchedulerConfigError::ZeroMemoryBudget);
        }
        if self.cooperative_threshold_bits > 63 {
            return Err(SchedulerConfigError::ThresholdTooLarge {
                bits: self.cooperative_threshold_bits,
            });
        }
        Ok(())
    }
}

// The deployed memory-bounded strategy accounts for K leaves per chunk but
// the host expands HOST_FRONTIER_LEAVES-leaf runs: K must fit in one run (so
// the run, not K, sets the host width), and the widest seed level a run
// sweeps — half its leaves — must be whole frontier tiles (both are powers
// of two, so at least one tile).
const _: () = assert!(
    HOST_FRONTIER_LEAVES.is_power_of_two()
        && HOST_FRONTIER_LEAVES >= SchedulerConfig::DEFAULT_CHUNK
        && HOST_FRONTIER_LEAVES / 2 >= FRONTIER_TILE
);

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            cooperative_threshold_bits: 22,
            chunk: Self::DEFAULT_CHUNK,
            threads_per_block: 256,
            memory_budget_bytes: Self::DEFAULT_MEMORY_BUDGET,
            num_sms: 80,
        }
    }
}

/// The execution plan the scheduler selects for a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Expansion strategy to use.
    pub strategy: EvalStrategy,
    /// Grid mapping (batched vs. cooperative groups).
    pub mapping: GridMapping,
    /// Threads per block.
    pub threads_per_block: u32,
}

/// Chooses strategy and mapping from the table shape, and decides table
/// residency per batch.
///
/// The decision procedure follows §3.2.5: very large tables (≥ 2^22 entries)
/// expose enough parallelism in a single DPF, so the whole device cooperates
/// on one query at a time, which minimizes latency without hurting
/// throughput; smaller tables need batching (one block per query) to fill the
/// GPU, and the memory-bounded strategy keeps per-query scratch small enough
/// to batch deeply.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Scheduler {
    config: SchedulerConfig,
}

impl Scheduler {
    /// Create a scheduler with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SchedulerConfig::validate`]); use [`Scheduler::try_new`] to handle
    /// the error instead.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor; try_new is the fallible form"
    )]
    pub fn new(config: SchedulerConfig) -> Self {
        Self::try_new(config).expect("invalid scheduler config")
    }

    /// Create a scheduler, rejecting degenerate configurations with a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerConfigError`] for zero-SM, zero-chunk,
    /// zero-thread or zero-memory configurations.
    pub fn try_new(config: SchedulerConfig) -> Result<Self, SchedulerConfigError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The scheduler's configuration.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Plan execution for a table of `table_rows` entries. How many queries
    /// fit beside the table is a per-batch question: [`Scheduler::residency`].
    ///
    /// # Panics
    ///
    /// Panics if `table_rows` is zero.
    #[must_use]
    pub fn plan(&self, table_rows: u64) -> ExecutionPlan {
        assert!(table_rows > 0, "table must contain at least one row");
        let cooperative = table_rows >= 1u64 << self.config.cooperative_threshold_bits;
        let mapping = if cooperative {
            // Enough subtrees to give every SM several blocks, but never deeper
            // than the tree itself.
            let domain_bits = 64 - (table_rows - 1).leading_zeros();
            let split_bits =
                (self.config.num_sms.next_power_of_two().trailing_zeros() + 2).min(domain_bits);
            GridMapping::Cooperative { split_bits }
        } else {
            GridMapping::BlockPerQuery
        };

        ExecutionPlan {
            strategy: self.strategy(),
            mapping,
            threads_per_block: self.config.threads_per_block,
        }
    }

    /// Whether a table's slices stay on the devices across batches of
    /// `batch` queries, and the bytes they pin when they do (0 when streamed).
    ///
    /// The table is [`TableResidency::Resident`] iff on **every** device the
    /// launch's working set fits beside the slice:
    ///
    /// ```text
    /// slice_bytes[d] + batch·(key_bytes + row_bytes) + scratch(batch) ≤ memory_budget_bytes
    /// ```
    ///
    /// where `scratch` is the strategy's closed-form peak
    /// ([`StrategyProfile::peak_scratch_bytes`]). Every query of the batch
    /// expands on every device, so the batch term does not shrink with the
    /// device count — only the slice does. Transfer time is strictly
    /// increasing in bytes, so keeping the slices whenever this holds is the
    /// cost-model minimum by construction.
    ///
    /// `slice_bytes` is [`DeviceSplit::slice_bytes`](crate::DeviceSplit::slice_bytes)
    /// for the table (a property of the table alone, so callers compute it
    /// once); `row_bytes` is the in-memory row width (`lanes_per_row × 4`).
    #[must_use]
    pub fn residency(
        &self,
        params: DpfParams,
        slice_bytes: &[u64],
        row_bytes: u64,
        batch: u64,
    ) -> (TableResidency, u64) {
        let scratch =
            StrategyProfile::of(self.strategy(), params.domain_bits, batch).peak_scratch_bytes;
        let per_batch = batch
            .saturating_mul(params.key_size_bytes().saturating_add(row_bytes))
            .saturating_add(scratch);
        let fits = slice_bytes
            .iter()
            .all(|slice| slice.saturating_add(per_batch) <= self.config.memory_budget_bytes);
        if fits {
            (TableResidency::Resident, slice_bytes.iter().sum())
        } else {
            (TableResidency::Streamed, 0)
        }
    }

    /// The one expansion strategy the scheduler deploys: memory-bounded
    /// traversal at the configured chunk.
    fn strategy(&self) -> EvalStrategy {
        EvalStrategy::MemoryBounded {
            chunk: self.config.chunk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tables_use_batched_execution() {
        let scheduler = Scheduler::default();
        let plan = scheduler.plan(1 << 16);
        assert_eq!(plan.mapping, GridMapping::BlockPerQuery);
        assert_eq!(plan.strategy, EvalStrategy::MemoryBounded { chunk: 128 });
    }

    #[test]
    fn huge_tables_switch_to_cooperative_groups() {
        let scheduler = Scheduler::default();
        let plan = scheduler.plan(1 << 23);
        match plan.mapping {
            GridMapping::Cooperative { split_bits } => assert!(split_bits >= 7),
            GridMapping::BlockPerQuery => panic!("expected cooperative mapping"),
        }
    }

    #[test]
    fn threshold_is_respected_exactly() {
        let scheduler = Scheduler::default();
        let below = scheduler.plan((1 << 22) - 1);
        let at = scheduler.plan(1 << 22);
        assert_eq!(below.mapping, GridMapping::BlockPerQuery);
        assert!(matches!(at.mapping, GridMapping::Cooperative { .. }));
    }

    #[test]
    fn split_never_exceeds_tree_depth() {
        let config = SchedulerConfig {
            cooperative_threshold_bits: 2,
            ..SchedulerConfig::default()
        };
        let scheduler = Scheduler::new(config);
        let plan = scheduler.plan(16);
        match plan.mapping {
            GridMapping::Cooperative { split_bits } => assert!(split_bits <= 4),
            GridMapping::BlockPerQuery => panic!("expected cooperative mapping"),
        }
    }

    #[test]
    fn residency_is_the_budget_inequality_exactly() {
        use TableResidency::{Resident, Streamed};
        // 2^15 rows × 64 B on one device, under a budget that admits exactly
        // eight queries beside the table.
        let params = DpfParams::for_domain(1 << 15);
        let table_bytes = (1u64 << 15) * 64;
        let working_set = |batch: u64| {
            let strategy = EvalStrategy::MemoryBounded { chunk: 128 };
            batch * (params.key_size_bytes() + 64)
                + StrategyProfile::of(strategy, 15, batch).peak_scratch_bytes
        };
        let scheduler = Scheduler::new(SchedulerConfig {
            memory_budget_bytes: table_bytes + working_set(8),
            ..SchedulerConfig::default()
        });
        let residency = |slices: &[u64], batch| scheduler.residency(params, slices, 64, batch);
        assert_eq!(residency(&[table_bytes], 8), (Resident, table_bytes));
        assert_eq!(residency(&[table_bytes], 9), (Streamed, 0));
        // Every device must fit: one byte more on a second slice streams the
        // same batch, one byte less keeps both slices.
        assert_eq!(residency(&[table_bytes, table_bytes + 1], 8), (Streamed, 0));
        assert_eq!(
            residency(&[table_bytes, table_bytes - 1], 8),
            (Resident, 2 * table_bytes - 1)
        );
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let _ = Scheduler::default().plan(0);
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let cases = [
            (
                SchedulerConfig {
                    num_sms: 0,
                    ..SchedulerConfig::default()
                },
                SchedulerConfigError::ZeroSms,
            ),
            (
                SchedulerConfig {
                    chunk: 0,
                    ..SchedulerConfig::default()
                },
                SchedulerConfigError::ZeroChunk,
            ),
            (
                SchedulerConfig {
                    threads_per_block: 0,
                    ..SchedulerConfig::default()
                },
                SchedulerConfigError::ZeroThreadsPerBlock,
            ),
            (
                SchedulerConfig {
                    memory_budget_bytes: 0,
                    ..SchedulerConfig::default()
                },
                SchedulerConfigError::ZeroMemoryBudget,
            ),
            (
                SchedulerConfig {
                    cooperative_threshold_bits: 64,
                    ..SchedulerConfig::default()
                },
                SchedulerConfigError::ThresholdTooLarge { bits: 64 },
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(Scheduler::try_new(config).unwrap_err(), expected);
            assert!(!expected.to_string().is_empty());
        }
        assert!(Scheduler::try_new(SchedulerConfig::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid scheduler config")]
    fn new_panics_eagerly_on_invalid_config() {
        let _ = Scheduler::new(SchedulerConfig {
            chunk: 0,
            ..SchedulerConfig::default()
        });
    }
}
