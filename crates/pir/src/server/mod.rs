//! The GPU-accelerated PIR server, the trait the serving layers hold it
//! behind, and the shard plan a scale-out tier splits tables by.

mod gpu;

pub use gpu::GpuPirServer;

use gpu_sim::{BackendKind, DeviceSpec};
use pir_dpf::{DeviceSplit, DpfParams, PlanLedger, SchedulerConfig};
use pir_field::LaneVector;
use pir_prf::PrfKind;
use serde::{Deserialize, Serialize};

use crate::error::PirError;
use crate::message::{PirResponse, ServerQuery};
use crate::table::{PirTable, TableSchema};

/// The [`DeviceSplit`] of a table of `entries` rows across `devices`, as a
/// typed error instead of an `Option`. Matching `DpfParams::for_domain`, a
/// table of one entry has a depth-0 tree and therefore admits exactly one
/// shard.
fn device_split(entries: u64, devices: usize) -> Result<DeviceSplit, PirError> {
    let domain_bits = DpfParams::for_domain(entries.max(1)).domain_bits;
    DeviceSplit::new(domain_bits, devices).ok_or(PirError::InvalidSharding { entries, devices })
}

/// Validate that a table of `entries` rows can be sharded across `devices`
/// and return the number of prefix bits the DPF domain must be split on
/// ([`DeviceSplit::split_bits`]).
///
/// # Errors
///
/// Returns [`PirError::InvalidSharding`] if `devices` is zero or the domain
/// is too shallow to be split that many ways.
pub fn shard_split_bits(entries: u64, devices: usize) -> Result<u32, PirError> {
    device_split(entries, devices).map(|split| split.split_bits())
}

/// The row ranges each of `shards` shard-owners serves
/// ([`DeviceSplit::owned_ranges`] — the same rule that assigns table slices
/// to a [`GpuPirServer`]'s devices, so non-power-of-two shard counts give the
/// low-index shards one extra subtree each). Ranges are clamped to the real
/// table, padded-only subtrees are dropped, and every row lands in exactly
/// one shard's range.
///
/// This is the shard *plan* a scale-out router needs: a shard-owner serves
/// [`PirTable::masked`] to its ranges — the table's shape, every other row
/// zero — so, the reduction being linear, per-shard answer shares sum
/// (lane-wise, wrapping) to exactly the unsharded answer share. The ranges
/// being whole subtrees clamped to the table, a [`GpuPirServer`] over such a
/// view expands exactly those subtrees: the shards' work sums to one
/// unsharded evaluation, as their shares do.
///
/// # Errors
///
/// Returns [`PirError::InvalidSharding`] under the same conditions as
/// [`shard_split_bits`].
pub fn shard_owned_ranges(
    entries: u64,
    shards: usize,
) -> Result<Vec<Vec<std::ops::Range<u64>>>, PirError> {
    device_split(entries, shards).map(|split| split.owned_ranges(entries))
}

/// Build one GPU server for `table`: a [`GpuPirServer`] over `shards` V100s
/// evaluating on `backend` — the analytical simulated device or the
/// in-process host backend. The server shares `table`'s rows until either
/// side writes one; [`GpuPirServer::replica`] builds more servers over the
/// one table the returned server writes.
///
/// # Errors
///
/// Returns [`PirError::InvalidSharding`] if the table cannot be split across
/// `shards` devices.
pub fn build_replica_with_backend(
    table: &PirTable,
    prf_kind: PrfKind,
    shards: usize,
    scheduler: SchedulerConfig,
    backend: BackendKind,
) -> Result<Box<dyn PirServer>, PirError> {
    let devices = vec![DeviceSpec::v100(); shards];
    let server = GpuPirServer::new(table.clone(), prf_kind, devices, scheduler, backend)?;
    Ok(Box::new(server))
}

/// Validate an in-place entry update against a table's schema.
///
/// Shared by [`PirServer::update_entry`] and the cluster router's staged
/// updates so hot-reload requests fail with typed errors instead of tripping
/// the table's internal assertions.
///
/// # Errors
///
/// Returns [`PirError::IndexOutOfRange`] if `index` is outside the table and
/// [`PirError::SchemaMismatch`] if the payload width differs from the schema.
pub fn validate_update(schema: TableSchema, index: u64, bytes: &[u8]) -> Result<(), PirError> {
    if index >= schema.entries {
        return Err(PirError::IndexOutOfRange {
            index,
            table_size: schema.entries,
        });
    }
    if bytes.len() != schema.entry_bytes {
        return Err(PirError::SchemaMismatch {
            expected: format!("{} B entries", schema.entry_bytes),
            actual: format!("{} B update payload", bytes.len()),
        });
    }
    Ok(())
}

/// [`validate_update`] against the table a server holds: a masked view also
/// refuses rows it did not keep, which belong to another shard-owner.
///
/// # Errors
///
/// As [`validate_update`], plus [`PirError::RowNotOwned`].
pub(crate) fn validate_owned_update(
    table: &PirTable,
    index: u64,
    bytes: &[u8],
) -> Result<(), PirError> {
    validate_update(table.schema(), index, bytes)?;
    if !table.keeps(index) {
        return Err(PirError::RowNotOwned { index });
    }
    Ok(())
}

/// Running totals a server keeps about the work it has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Queries answered so far.
    pub queries_served: u64,
    /// PRF block evaluations performed.
    pub prf_calls: u64,
    /// Estimated device-busy seconds (modelled time, not host wall time).
    pub busy_time_s: f64,
}

impl ServerMetrics {
    pub(crate) fn record_batch(&mut self, queries: u64, prf_calls: u64, busy_time_s: f64) {
        self.queries_served += queries;
        self.prf_calls += prf_calls;
        self.busy_time_s += busy_time_s;
    }
}

/// What the serving layers ask of a PIR server.
///
/// [`GpuPirServer`] is its one implementation; the trait is object-safe, and
/// [`build_replica_with_backend`] returns a `Box<dyn PirServer>`.
pub trait PirServer: Send + Sync {
    /// The schema of the table this server holds.
    fn schema(&self) -> TableSchema;

    /// Answer a single query.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if the query was generated for a
    /// different table shape.
    fn answer(&self, query: &ServerQuery) -> Result<PirResponse, PirError>;

    /// Answer a batch of queries (the server is free to batch them onto the
    /// device however it likes). An empty batch is answered with no
    /// responses and no work.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if any query targets a different
    /// table shape.
    fn answer_batch(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError>;

    /// Overwrite one table entry in place (hot reload, §4.2 "Changes to
    /// Embedding Table": value updates are transparent to clients — no new
    /// keys are needed).
    ///
    /// The update is atomic with respect to [`PirServer::answer_batch`]: a
    /// batch observes the table either entirely before or entirely after the
    /// update, never a mix.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::IndexOutOfRange`] if `index` is outside the table,
    /// [`PirError::SchemaMismatch`] if the payload width differs from the
    /// schema (see [`validate_update`]), and [`PirError::RowNotOwned`] if the
    /// server holds a masked view that did not keep the row.
    fn update_entry(&self, index: u64, bytes: &[u8]) -> Result<(), PirError>;

    /// Metrics accumulated since the server was created.
    fn metrics(&self) -> ServerMetrics;

    /// The device bytes this server keeps resident across batches of `batch`
    /// queries (its table slices when the residency rule holds, zero when it
    /// streams) — what a serving-layer device budget should lease on top of
    /// the per-batch working set.
    fn planned_resident_bytes(&self, batch: usize) -> u64;

    /// Residency telemetry accumulated since the server was created:
    /// backend-reported resident bytes and table transfers issued/avoided.
    fn plan_ledger(&self) -> PlanLedger;
}

/// Assemble wire responses from evaluated answer shares.
///
/// This is the single answer path of the GPU-backed server — single-device
/// batches, sharded multi-device batches and the serving runtime's
/// externally-formed batches all produce `(queries, shares)` pairs in
/// matching order and go through here.
pub(crate) fn responses_from_shares(
    queries: &[ServerQuery],
    shares: Vec<LaneVector>,
) -> Vec<PirResponse> {
    debug_assert_eq!(queries.len(), shares.len());
    queries
        .iter()
        .zip(shares)
        .map(|(query, share)| PirResponse {
            query_id: query.query_id,
            party: query.party(),
            share: share.into(),
        })
        .collect()
}

pub(crate) fn check_schema(expected: TableSchema, query: &ServerQuery) -> Result<(), PirError> {
    if query.schema != expected || query.key.params.domain_size != expected.entries {
        return Err(PirError::SchemaMismatch {
            expected: query.schema.describe(),
            actual: expected.describe(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let mut metrics = ServerMetrics::default();
        metrics.record_batch(10, 1000, 0.5);
        metrics.record_batch(10, 1000, 0.5);
        assert_eq!(metrics.queries_served, 20);
        assert_eq!(metrics.prf_calls, 2000);
        assert!((metrics.busy_time_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shard_split_bits_rounds_up_to_subtrees() {
        // Non-power-of-two device counts need the next power of two of
        // subtrees: 3 devices -> 4 subtrees -> 2 split bits.
        assert_eq!(shard_split_bits(1 << 10, 1).unwrap(), 0);
        assert_eq!(shard_split_bits(1 << 10, 2).unwrap(), 1);
        assert_eq!(shard_split_bits(1 << 10, 3).unwrap(), 2);
        assert_eq!(shard_split_bits(1 << 10, 5).unwrap(), 3);
    }

    #[test]
    fn shard_split_bits_rejects_impossible_splits() {
        assert!(matches!(
            shard_split_bits(4, 64),
            Err(PirError::InvalidSharding {
                entries: 4,
                devices: 64
            })
        ));
        // A 1-entry table has a depth-0 tree: only one shard fits.
        assert!(shard_split_bits(1, 1).is_ok());
        assert!(shard_split_bits(1, 2).is_err());
        assert!(shard_split_bits(16, 0).is_err());
    }

    #[test]
    fn shard_owned_ranges_follow_subtree_striping() {
        // 5 entries, 3 shards -> 2 split bits -> 4 subtrees of span 2 over
        // the padded 8-row domain. Shard 0 also owns subtree 3, which clamps
        // to nothing (rows 6..8 are padding).
        let ranges = shard_owned_ranges(5, 3).unwrap();
        assert_eq!(ranges[0], vec![0..2]);
        assert_eq!(ranges[1], vec![2..4]);
        assert_eq!(ranges[2], vec![4..5]);
        // Same validation surface as shard_split_bits.
        assert!(shard_owned_ranges(4, 64).is_err());
        assert!(shard_owned_ranges(16, 0).is_err());
    }

    #[test]
    fn build_replica_validates_the_shard_count() {
        let table = PirTable::generate(256, 8, |row, _| row as u8);
        let build = |shards| {
            build_replica_with_backend(
                &table,
                PrfKind::SipHash,
                shards,
                SchedulerConfig::default(),
                BackendKind::Simulated,
            )
        };
        // Any shard count serves behind the same trait object.
        assert_eq!(build(1).unwrap().schema(), table.schema());
        assert_eq!(build(3).unwrap().schema(), table.schema());
        assert!(build(512).is_err());
    }
}
