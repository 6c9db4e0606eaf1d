//! The GPU-accelerated PIR server (the paper's contribution).
//!
//! Tables at the paper's production scale (tens of GB, Table 2) exceed a
//! single V100's 16 GB; §3.2.7 shows the DPF's linear reduction makes the
//! domain trivially splittable, so each device permanently owns the rows of
//! its subtrees and evaluates every query of a batch against that slice
//! only. One device is that split with a single subtree, so the same server
//! covers both: callers batch queries exactly the same way, and the device
//! fan-out and partial-share reduction stay internal.
//!
//! A cluster shard is the same argument one level up: its table is a
//! [`PirTable::masked`] view, the other owners live in other processes, and
//! the server narrows its split to the subtrees that cover the rows the view
//! kept — so a shard stores, expands, uploads and keeps resident a shard's
//! worth of the table, and its answer to a full-domain key is unchanged
//! because the rows it skips are zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use gpu_sim::{BackendKind, DeviceBackend, DeviceSpec, KernelReport, ResidentAllocation};
use pir_dpf::{
    BatchEvalJob, DeviceSplit, DpfParams, ExecutionPlan, PlanLedger, Scheduler, SchedulerConfig,
    TableResidency,
};
use pir_prf::{build_prf, GgmPrg, PrfKind};

use crate::error::PirError;
use crate::message::{PirResponse, ServerQuery};
use crate::server::{
    check_schema, device_split, responses_from_shares, validate_owned_update, PirServer,
    ServerMetrics,
};
use crate::table::{PirTable, TableSchema};

/// A party's table and the number of hot reloads applied to it: the one
/// cell every replica of the party reads, and the one a write goes through.
struct VersionedTable {
    table: PirTable,
    generation: u64,
}

/// The per-device table-slice allocations the residency rule keeps on the
/// devices, tagged with the table version they were uploaded from so hot
/// reloads invalidate them.
struct Resident {
    allocs: Vec<ResidentAllocation>,
    generation: u64,
}

/// A PIR server that evaluates DPFs on one [`DeviceBackend`] per device (the
/// analytical simulated GPU by default), the rows the table holds split
/// across the devices by the [`DeviceSplit`] ownership rule.
///
/// Everything that depends only on the table is planned once, at
/// construction: the [`Scheduler`]'s grid mapping and strategy (§3.2.5) and
/// each device's slice size. Every batch is evaluated with the fused
/// memory-bounded kernel (§3.2.3–§3.2.4) under that plan and accounted in
/// the server's [`ServerMetrics`].
///
/// Per batch only [`Scheduler::residency`] is evaluated — one inequality per
/// device: when the batch's working set fits beside the slices, every
/// device's slice is uploaded once and re-used across batches — the uploads
/// are re-issued only after a hot reload bumps the table generation — and the
/// avoided transfers are reported through [`PirServer::plan_ledger`];
/// otherwise the table is streamed for that batch.
///
/// The table sits behind an `RwLock` so entries can be hot-reloaded through
/// [`PirServer::update_entry`] while queries are being served: a batch holds
/// the read lock for the whole launch, so every device sees one consistent
/// table version. The lock is shared with every [`GpuPirServer::replica`],
/// so a write through any one of them is served by all of them.
pub struct GpuPirServer {
    schema: TableSchema,
    table: Arc<RwLock<VersionedTable>>,
    /// In-memory row width. Fixed for the server's lifetime (updates pin the
    /// entry width), so the residency rule never needs the table lock to
    /// read it.
    row_bytes: u64,
    /// Which subtrees each device evaluates: the device split, narrowed to
    /// the rows a masked view kept. Fixed for the server's lifetime (updates
    /// are refused outside the kept rows).
    split: DeviceSplit,
    /// Bytes of each device's table slice ([`DeviceSplit::slice_bytes`]).
    slice_bytes: Vec<u64>,
    params: DpfParams,
    /// The scheduler's choice for the rows one device sweeps per query.
    /// Strategy, grid mapping and threads per block depend on the table
    /// alone (residency is decided per batch).
    plan: ExecutionPlan,
    prg: GgmPrg,
    prf_kind: PrfKind,
    backend: BackendKind,
    backends: Vec<Box<dyn DeviceBackend>>,
    scheduler: Scheduler,
    metrics: Mutex<ServerMetrics>,
    resident: Mutex<Option<Resident>>,
    transfers_issued: AtomicU64,
    transfers_avoided: AtomicU64,
}

impl GpuPirServer {
    /// Create a server over an explicit list of devices (one table slice per
    /// device), a scheduler configuration and a [`BackendKind`]. A
    /// [`PirTable`] clone shares its rows, and a write copies only the
    /// [`CHUNK_ROWS`](pir_field::CHUNK_ROWS)-row chunk that holds its row, so
    /// two parties' servers built from one table hold it once, plus the
    /// chunks each has written.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::InvalidSharding`] if `devices` is empty or the
    /// table's domain cannot be split into that many subtrees, so serving
    /// layers never have to pre-validate the decomposition themselves.
    pub fn new(
        table: PirTable,
        prf_kind: PrfKind,
        devices: Vec<DeviceSpec>,
        scheduler_config: SchedulerConfig,
        backend: BackendKind,
    ) -> Result<Self, PirError> {
        let cell = Arc::new(RwLock::new(VersionedTable {
            table,
            generation: 0,
        }));
        Self::over(cell, prf_kind, devices, scheduler_config, backend)
    }

    /// Another replica of this server: the same table cell, so every write
    /// through either is served by both, on fresh backends for the same
    /// devices, with its own residency, metrics and transfer counters.
    #[must_use]
    pub fn replica(&self) -> Self {
        let devices = self.backends.iter().map(|b| b.device().clone()).collect();
        let table = Arc::clone(&self.table);
        let config = *self.scheduler.config();
        Self::over(table, self.prf_kind, devices, config, self.backend)
            .expect("these devices already split this table")
    }

    /// Plan a server over the table `cell`: everything `new` promises, for
    /// any number of servers sharing one cell.
    fn over(
        cell: Arc<RwLock<VersionedTable>>,
        prf_kind: PrfKind,
        devices: Vec<DeviceSpec>,
        scheduler_config: SchedulerConfig,
        backend: BackendKind,
    ) -> Result<Self, PirError> {
        let (schema, split, row_bytes) = {
            let table = &cell.read().table;
            let schema = table.schema();
            let split = device_split(schema.entries, devices.len())?
                .restricted_to(table.kept_ranges(), schema.entries);
            (schema, split, table.matrix().lanes_per_row() as u64 * 4)
        };
        let scheduler = Scheduler::new(scheduler_config);
        let slice_bytes = split.slice_bytes(schema.entries, row_bytes);
        // The most rows any one device sweeps per query (slices floor at one).
        let rows_per_device = slice_bytes
            .iter()
            .max()
            .map_or(1, |bytes| bytes / row_bytes);
        Ok(Self {
            schema,
            row_bytes,
            split,
            slice_bytes,
            params: DpfParams::for_domain(schema.entries),
            plan: scheduler.plan(rows_per_device),
            table: cell,
            prg: GgmPrg::new(build_prf(prf_kind)),
            prf_kind,
            backend,
            backends: devices.into_iter().map(|d| backend.build(d)).collect(),
            scheduler,
            metrics: Mutex::new(ServerMetrics::default()),
            resident: Mutex::new(None),
            transfers_issued: AtomicU64::new(0),
            transfers_avoided: AtomicU64::new(0),
        })
    }

    /// Create a server with the paper's defaults: one simulated V100 and the
    /// default scheduler thresholds.
    #[must_use]
    pub fn with_defaults(table: PirTable, prf_kind: PrfKind) -> Self {
        Self::new(
            table,
            prf_kind,
            vec![DeviceSpec::v100()],
            SchedulerConfig::default(),
            BackendKind::Simulated,
        )
        .expect("a single device never splits the domain")
    }

    /// The PRF family this server evaluates.
    #[must_use]
    pub fn prf_kind(&self) -> PrfKind {
        self.prf_kind
    }

    /// Hot reloads applied to this server's table, through it or any of its
    /// replicas.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.table.read().generation
    }

    /// The backend this server evaluates on (`"simulated"` or `"host"`).
    #[must_use]
    pub fn backend_name(&self) -> &str {
        self.backend.label()
    }

    /// The number of devices the table is sharded over.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.backends.len()
    }

    /// The residency rule for a batch of `batch` queries against this
    /// table: pure arithmetic over what `new` computed.
    fn residency(&self, batch: usize) -> (TableResidency, u64) {
        self.scheduler
            .residency(self.params, &self.slice_bytes, self.row_bytes, batch as u64)
    }

    /// Free every slice of a residency that is being replaced or dropped.
    fn free_resident(&self, stale: Option<Resident>) {
        let allocs = stale.into_iter().flat_map(|resident| resident.allocs);
        for (backend, alloc) in self.backends.iter().zip(allocs) {
            backend.free(alloc);
        }
    }

    /// Make `resident` hold this table `generation`'s slices — re-uploading
    /// through `job` after a hot reload, re-using them otherwise — and
    /// return the held allocations.
    fn ensure_resident<'r>(
        &self,
        resident: &'r mut Option<Resident>,
        generation: u64,
        job: &BatchEvalJob<'_>,
        backends: &[&dyn DeviceBackend],
    ) -> &'r [ResidentAllocation] {
        if resident
            .as_ref()
            .is_some_and(|held| held.generation != generation)
        {
            self.free_resident(resident.take());
        }
        let transfers = if resident.is_some() {
            &self.transfers_avoided
        } else {
            &self.transfers_issued
        };
        transfers.fetch_add(backends.len() as u64, Ordering::Relaxed);
        &resident
            .get_or_insert_with(|| Resident {
                allocs: job.upload_slices(&self.split, backends),
                generation,
            })
            .allocs
    }

    /// Answer a batch and also return its kernel report. With several
    /// devices this is the slowest device's report — the batch's critical
    /// path, not a sum over devices.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if any query targets a different
    /// table shape.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty: there is no launch to report
    /// ([`PirServer::answer_batch`] answers an empty slice with no responses).
    pub fn answer_batch_with_report(
        &self,
        queries: &[ServerQuery],
    ) -> Result<(Vec<PirResponse>, KernelReport), PirError> {
        assert!(!queries.is_empty(), "batch must contain at least one query");
        for query in queries {
            check_schema(self.schema, query)?;
        }

        let (residency, _) = self.residency(queries.len());
        let keys: Vec<_> = queries.iter().map(|q| q.key.clone()).collect();
        // The read lock brackets the whole multi-device launch: a concurrent
        // hot reload waits, so this batch sees exactly one table version.
        let cell = self.table.read();
        let job = BatchEvalJob::new(&self.prg, self.prf_kind, &keys, cell.table.matrix())
            .with_plan(&self.plan);
        let backends: Vec<&dyn DeviceBackend> = self.backends.iter().map(AsRef::as_ref).collect();
        let output = if residency == TableResidency::Resident {
            // Held across the launch so a concurrent batch cannot free or
            // replace the slices mid-flight.
            let mut resident = self.resident.lock();
            let held = self.ensure_resident(&mut resident, cell.generation, &job, &backends);
            let slices: Vec<&ResidentAllocation> = held.iter().collect();
            job.run_resident_on_devices(&self.split, &backends, &slices)
        } else {
            // This batch's working set does not fit alongside resident
            // slices; release any stale residency and stream.
            self.free_resident(self.resident.lock().take());
            self.transfers_issued
                .fetch_add(backends.len() as u64, Ordering::Relaxed);
            job.run_on_devices(&self.split, &backends)
        };
        drop(cell);

        let prf_calls = output.total_prf_calls();
        let busy_time_s = output.estimated_time_s();
        let responses = responses_from_shares(queries, output.results);

        self.metrics
            .lock()
            .record_batch(queries.len() as u64, prf_calls, busy_time_s);
        Ok((responses, output.report))
    }
}

impl PirServer for GpuPirServer {
    fn schema(&self) -> TableSchema {
        self.schema
    }

    fn update_entry(&self, index: u64, bytes: &[u8]) -> Result<(), PirError> {
        let mut cell = self.table.write();
        validate_owned_update(&cell.table, index, bytes)?;
        cell.table.update_entry(index, bytes);
        // Bumped under the write lock, so every batch that reads the new
        // rows also sees the new generation and re-uploads residency.
        cell.generation += 1;
        Ok(())
    }

    fn answer(&self, query: &ServerQuery) -> Result<PirResponse, PirError> {
        let (mut responses, _) = self.answer_batch_with_report(std::slice::from_ref(query))?;
        Ok(responses.remove(0))
    }

    fn answer_batch(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (responses, _) = self.answer_batch_with_report(queries)?;
        Ok(responses)
    }

    fn metrics(&self) -> ServerMetrics {
        *self.metrics.lock()
    }

    fn planned_resident_bytes(&self, batch: usize) -> u64 {
        self.residency(batch).1
    }

    fn plan_ledger(&self) -> PlanLedger {
        PlanLedger {
            resident_bytes: self
                .backends
                .iter()
                .map(|backend| backend.stats().resident_bytes)
                .sum(),
            transfers_issued: self.transfers_issued.load(Ordering::Relaxed),
            transfers_avoided: self.transfers_avoided.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for GpuPirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuPirServer")
            .field("table", &self.schema.describe())
            .field("prf", &self.prf_kind)
            .field("backend", &self.backend_name())
            .field("devices", &self.backends.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::server::shard_owned_ranges;
    use gpu_sim::GpuExecutor;
    use pir_dpf::{fused_eval_matmul, DeviceSplit, EvalStrategy, GridMapping, NullRecorder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicBool;

    /// One device, a power-of-two split, and two non-power-of-two splits
    /// (3 devices -> 4 subtrees, device 0 owns two; 5 devices -> 8 subtrees).
    const SHARDS: [usize; 4] = [1, 3, 4, 5];

    fn table() -> PirTable {
        PirTable::generate(300, 16, |row, offset| {
            (row as u8).wrapping_mul(3).wrapping_add(offset as u8)
        })
    }

    fn server_on(table: &PirTable, shards: usize, backend: BackendKind) -> GpuPirServer {
        GpuPirServer::new(
            table.clone(),
            PrfKind::SipHash,
            vec![DeviceSpec::v100(); shards],
            SchedulerConfig::default(),
            backend,
        )
        .unwrap()
    }

    fn server(table: &PirTable, shards: usize) -> GpuPirServer {
        server_on(table, shards, BackendKind::Simulated)
    }

    #[test]
    fn single_query_roundtrip() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        for shards in SHARDS {
            let s0 = server(&table, shards);
            let s1 = server(&table, shards);
            assert_eq!(s0.shard_count(), shards);
            let mut rng = StdRng::seed_from_u64(71);

            for index in [0u64, 1, 137, 299] {
                let query = client.query(index, &mut rng);
                let r0 = s0.answer(&query.to_server(0)).unwrap();
                let r1 = s1.answer(&query.to_server(1)).unwrap();
                let bytes = client.reconstruct(&query, &r0, &r1).unwrap();
                assert_eq!(bytes, table.entry(index), "{shards} shards, index {index}");
            }
            assert_eq!(s0.metrics().queries_served, 4);
            assert!(s0.metrics().busy_time_s > 0.0);
        }
    }

    #[test]
    fn batched_queries_roundtrip_with_shard_independent_shares() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(72);

        // Both sides of every subtree boundary of the 4- and 8-way splits.
        let indices: Vec<u64> = vec![0, 1, 63, 64, 127, 128, 255, 256, 299];
        let queries: Vec<_> = indices.iter().map(|i| client.query(*i, &mut rng)).collect();
        let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
        let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();
        let single = server(&table, 1).answer_batch(&to0).unwrap();

        for shards in SHARDS {
            let s0 = server(&table, shards);
            let s1 = server(&table, shards);
            let (r0, report) = s0.answer_batch_with_report(&to0).unwrap();
            let r1 = s1.answer_batch(&to1).unwrap();
            assert!(report.estimated_time_s > 0.0);
            for (i, index) in indices.iter().enumerate() {
                // Sharding is server-local: the share itself is unchanged.
                assert_eq!(r0[i].share, single[i].share, "{shards} shards");
                let bytes = client.reconstruct(&queries[i], &r0[i], &r1[i]).unwrap();
                assert_eq!(bytes, table.entry(*index), "{shards} shards, index {index}");
            }
            assert_eq!(s0.metrics().queries_served, indices.len() as u64);
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let table = table();
        let other_schema = TableSchema::new(1024, 16);
        let client = PirClient::new(other_schema, PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(73);
        let query = client.query(3, &mut rng);
        for shards in [1, 2] {
            assert!(matches!(
                server(&table, shards).answer(&query.to_server(0)),
                Err(PirError::SchemaMismatch { .. })
            ));
        }
    }

    #[test]
    fn too_many_shards_is_a_typed_error() {
        let tiny = PirTable::generate(4, 8, |row, _| row as u8);
        for (devices, expected) in [(64usize, 64usize), (0, 0)] {
            assert!(matches!(
                GpuPirServer::new(
                    tiny.clone(),
                    PrfKind::SipHash,
                    vec![DeviceSpec::v100(); devices],
                    SchedulerConfig::default(),
                    BackendKind::Simulated,
                ),
                Err(PirError::InvalidSharding { entries: 4, devices }) if devices == expected
            ));
        }
    }

    #[test]
    fn hot_reloaded_entries_are_served_after_update() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        for shards in SHARDS {
            let s0 = server(&table, shards);
            let s1 = server(&table, shards);
            let mut rng = StdRng::seed_from_u64(74);

            let fresh = vec![0xABu8; 16];
            s0.update_entry(137, &fresh).unwrap();
            s1.update_entry(137, &fresh).unwrap();

            let query = client.query(137, &mut rng);
            let r0 = s0.answer(&query.to_server(0)).unwrap();
            let r1 = s1.answer(&query.to_server(1)).unwrap();
            assert_eq!(client.reconstruct(&query, &r0, &r1).unwrap(), fresh);

            // Neighbouring rows are untouched.
            let query = client.query(136, &mut rng);
            let r0 = s0.answer(&query.to_server(0)).unwrap();
            let r1 = s1.answer(&query.to_server(1)).unwrap();
            assert_eq!(
                client.reconstruct(&query, &r0, &r1).unwrap(),
                table.entry(136)
            );

            // Typed errors, not panics, on bad updates.
            assert!(matches!(
                s0.update_entry(300, &fresh),
                Err(PirError::IndexOutOfRange { index: 300, .. })
            ));
            assert!(matches!(
                s0.update_entry(0, &[1, 2, 3]),
                Err(PirError::SchemaMismatch { .. })
            ));
        }
    }

    #[test]
    fn a_write_through_one_replica_is_served_by_every_replica() {
        let table = table();
        let first = server(&table, 1);
        let replicas = [first.replica(), first.replica().replica()];
        let other_party = server(&table, 1);
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(78);
        let queries: Vec<_> = [5u64, 137, 299]
            .iter()
            .map(|&i| client.query(i, &mut rng))
            .collect();
        let to = |party| -> Vec<_> { queries.iter().map(|q| q.to_server(party)).collect() };
        let party = [&first, &replicas[0], &replicas[1]];
        for server in party {
            server.answer_batch(&to(0)).unwrap();
        }

        let fresh = vec![0xC3u8; 16];
        replicas[1].update_entry(137, &fresh).unwrap();
        let mut written = table.clone();
        written.update_entry(137, &fresh);
        // Every replica of the writing party serves the new row, bit for bit,
        // and re-uploads the slices it held of the old one ...
        let expected = server(&written, 1).answer_batch(&to(0)).unwrap();
        for server in party {
            assert_eq!(server.answer_batch(&to(0)).unwrap(), expected);
            assert_eq!(server.generation(), 1);
            assert_eq!(server.plan_ledger().transfers_issued, 2);
        }
        // ... while the other party's table, and the caller's, are untouched
        // until their own writes.
        let unshared = server(&table, 1).answer_batch(&to(1)).unwrap();
        assert_eq!(other_party.answer_batch(&to(1)).unwrap(), unshared);
        assert_eq!(other_party.generation(), 0);
        assert_eq!(table, self::table());
        other_party.update_entry(137, &fresh).unwrap();
        let r0 = first.answer(&queries[1].to_server(0)).unwrap();
        let r1 = other_party.answer(&queries[1].to_server(1)).unwrap();
        assert_eq!(client.reconstruct(&queries[1], &r0, &r1).unwrap(), fresh);
    }

    #[test]
    fn a_reload_copies_one_chunk_per_written_chunk_and_shares_the_rest() {
        use pir_field::CHUNK_ROWS;
        let generate = || {
            PirTable::generate(3 * CHUNK_ROWS as u64 + 300, 16, |row, offset| {
                (row as u8).wrapping_mul(5) ^ offset as u8
            })
        };
        let table = generate();
        let (first, other) = (server(&table, 1), server(&table, 1));
        let parties = [
            [first.replica(), first.replica().replica(), first],
            [other.replica(), other.replica().replica(), other],
        ];
        // One row in each of chunks 1–3, the last of them ragged.
        let rows = [
            CHUNK_ROWS as u64 + 17,
            2 * CHUNK_ROWS as u64,
            3 * CHUNK_ROWS as u64 + 299,
        ];
        let fresh = |i: usize| vec![0xA0 + i as u8; 16];
        let mut written = table.clone();
        for (i, &row) in rows.iter().enumerate() {
            for party in &parties {
                party[i % 3].update_entry(row, &fresh(i)).unwrap();
            }
            written.update_entry(row, &fresh(i));
        }
        let written_chunk = |row: usize| {
            rows.iter()
                .any(|&r| r as usize / CHUNK_ROWS == row / CHUNK_ROWS)
        };
        for party in &parties {
            let cell = party[0].table.read();
            let matrix = cell.table.matrix();
            assert_eq!(matrix.copied_chunks(), rows.len());
            for row in (0..matrix.rows()).filter(|&row| !written_chunk(row)) {
                assert_eq!(
                    matrix.row(row).as_ptr(),
                    table.matrix().row(row).as_ptr(),
                    "row {row}"
                );
            }
        }
        // Every replica of both parties answers the new rows bit for bit.
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(80);
        let queries: Vec<_> = rows
            .iter()
            .chain(&[0, 5])
            .map(|&i| client.query(i, &mut rng))
            .collect();
        for (p, party) in parties.iter().enumerate() {
            let to: Vec<_> = queries.iter().map(|q| q.to_server(p as u8)).collect();
            let expected = server(&written, 1).answer_batch(&to).unwrap();
            for replica in party {
                assert_eq!(replica.answer_batch(&to).unwrap(), expected, "party {p}");
            }
        }
        for (i, query) in queries.iter().take(rows.len()).enumerate() {
            let r0 = parties[0][i].answer(&query.to_server(0)).unwrap();
            let r1 = parties[1][2 - i].answer(&query.to_server(1)).unwrap();
            assert_eq!(client.reconstruct(query, &r0, &r1).unwrap(), fresh(i));
        }
        // A further write to a copied chunk copies nothing more.
        parties[0][1]
            .update_entry(2 * CHUNK_ROWS as u64 + 1, &fresh(9))
            .unwrap();
        assert_eq!(
            parties[0][0].table.read().table.matrix().copied_chunks(),
            rows.len()
        );
        // The caller's table never changed.
        assert_eq!(table, generate());
    }

    #[test]
    fn a_replica_answers_from_one_whole_version_while_another_writes() {
        let table = table();
        let contents = [vec![0x11u8; 16], vec![0xEEu8; 16]];
        let versions = contents.clone().map(|row| {
            let mut version = table.clone();
            version.update_entry(137, &row);
            version
        });
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(79);
        let queries: Vec<_> = [5u64, 137, 299]
            .iter()
            .map(|&i| client.query(i, &mut rng).to_server(0))
            .collect();
        // Every share depends on every row, so a batch that read a row
        // half-written, or one row of each version, matches neither.
        let expected = versions
            .each_ref()
            .map(|version| server(version, 1).answer_batch(&queries).unwrap());
        let writer = server_on(&versions[0], 3, BackendKind::Host);
        let reader = writer.replica();

        let stop = AtomicBool::new(false);
        let (seen, torn) = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for row in &contents {
                        writer.update_entry(137, row).unwrap();
                        std::thread::yield_now();
                    }
                }
            });
            // Nothing below panics while the writer runs.
            let mut seen = [0usize; 2];
            let mut torn = 0;
            for _ in 0..10_000 {
                let answer = reader.answer_batch(&queries).ok();
                match expected.iter().position(|e| Some(e) == answer.as_ref()) {
                    Some(version) => seen[version] += 1,
                    None => torn += 1,
                }
                if seen.iter().all(|&n| n >= 16) {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            (seen, torn)
        });
        assert_eq!(torn, 0, "a batch mixed two versions ({seen:?} whole)");
        assert!(
            seen.iter().all(|&n| n >= 16),
            "both versions served: {seen:?}"
        );
    }

    #[test]
    fn host_backend_server_matches_simulated_server() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        for shards in [1, 3] {
            let simulated = server(&table, shards);
            let host = server_on(&table, shards, BackendKind::Host);
            assert_eq!(host.backend_name(), "host");
            assert_eq!(simulated.backend_name(), "simulated");
            let mut rng = StdRng::seed_from_u64(75);

            let indices = [0u64, 137, 299];
            let queries: Vec<_> = indices.iter().map(|i| client.query(*i, &mut rng)).collect();
            let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
            let from_sim = simulated.answer_batch(&to0).unwrap();
            let from_host = host.answer_batch(&to0).unwrap();
            for (sim, host) in from_sim.iter().zip(&from_host) {
                assert_eq!(sim.share, host.share, "shares must be backend-independent");
            }
        }
    }

    #[test]
    fn resident_slices_survive_across_batches_until_hot_reload() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        // (Every device of these splits owns real rows; a device whose
        // subtrees are all padding would add its one-row floor.)
        for shards in [1u64, 3] {
            let server = server(&table, shards as usize);
            let mut rng = StdRng::seed_from_u64(76);

            // The default 16 GiB budget keeps this table resident, so the
            // first batch uploads every slice and the second re-uses them.
            assert!(server.planned_resident_bytes(1) > 0);
            for _ in 0..2 {
                let query = client.query(5, &mut rng);
                server.answer(&query.to_server(0)).unwrap();
            }
            let ledger = server.plan_ledger();
            assert_eq!(ledger.transfers_issued, shards, "one upload per shard");
            assert_eq!(ledger.transfers_avoided, shards, "second batch re-uses");
            assert_eq!(
                ledger.resident_bytes,
                table.matrix().size_bytes() as u64,
                "between batches only the slices — exactly the table — stay on the devices"
            );

            // A hot reload bumps the table generation: the next batch
            // re-uploads (and still serves the fresh value).
            let fresh = vec![0x5Au8; 16];
            server.update_entry(5, &fresh).unwrap();
            let other = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
            other.update_entry(5, &fresh).unwrap();
            let query = client.query(5, &mut rng);
            let r0 = server.answer(&query.to_server(0)).unwrap();
            let r1 = other.answer(&query.to_server(1)).unwrap();
            assert_eq!(client.reconstruct(&query, &r0, &r1).unwrap(), fresh);
            assert_eq!(server.plan_ledger().transfers_issued, 2 * shards);
        }
    }

    #[test]
    fn planned_resident_bytes_matches_the_launch() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(77);
        for shards in [1, 3, 4] {
            for batch in [1usize, 8, 64] {
                let server = server(&table, shards);
                let queries: Vec<_> = (0..batch as u64)
                    .map(|i| client.query(i * 4, &mut rng).to_server(0))
                    .collect();
                // Observed between the two batches and after the re-use.
                for _ in 0..2 {
                    server.answer_batch(&queries).unwrap();
                    assert_eq!(
                        server.planned_resident_bytes(batch),
                        server.plan_ledger().resident_bytes,
                        "{shards} shards, batch {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_batches_answer_nothing() {
        let table = table();
        for backend in [BackendKind::Simulated, BackendKind::Host] {
            let server = server_on(&table, 3, backend);
            assert_eq!(server.answer_batch(&[]).unwrap(), vec![]);
            assert_eq!(server.metrics(), ServerMetrics::default());
            assert_eq!(server.plan_ledger(), PlanLedger::default());
            for device in &server.backends {
                assert_eq!(device.stats().launches, 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// One ownership rule, proven once: for random table sizes
        /// (non-powers-of-two included), batch sizes, device counts, grid
        /// mappings and masked views (none, a shard's ranges, arbitrary
        /// ranges), (a) the job's shares equal per-key `fused_eval_matmul`,
        /// (b) the slices the job uploads, the slice bytes the server planned
        /// at construction and what it keeps resident all agree — and are
        /// the kept rows × row bytes, (c) `shard_owned_ranges` partitions `0..rows`.
        #[test]
        fn prop_one_ownership_rule(
            rows in 5u64..400,
            batch in 1usize..=9,
            devices in 1usize..=5,
            coop_bits in 0u32..=6,
            mask in 0usize..=4,
            seed in any::<u64>(),
        ) {
            let whole = PirTable::generate(rows, 12, |row, offset| {
                (row as u8).wrapping_mul(31).wrapping_add(offset as u8) ^ seed as u8
            });
            // `mask`: 0 is the whole table, 1..=3 that shard of three, 4 two
            // ranges aligned to nothing.
            let table = match mask {
                0 => whole,
                4 => whole.masked(&[1..rows / 3, rows / 2..rows - 1]),
                shard => whole.masked(&shard_owned_ranges(rows, 3).unwrap()[shard - 1]),
            };
            let client = PirClient::new(table.schema(), PrfKind::SipHash);
            let mut rng = StdRng::seed_from_u64(seed);
            let queries: Vec<_> = (0..batch as u64)
                .map(|i| client.query((seed.wrapping_add(i * 97)) % rows, &mut rng).to_server(0))
                .collect();
            let keys: Vec<_> = queries.iter().map(|q| q.key.clone()).collect();

            // (a) Shares are the unsplit per-key evaluation, whatever the grid.
            let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
            let executors: Vec<GpuExecutor> = (0..devices)
                .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 1))
                .collect();
            let backends: Vec<&dyn DeviceBackend> =
                executors.iter().map(|e| e as &dyn DeviceBackend).collect();
            let mapping = match coop_bits.checked_sub(1) {
                None => GridMapping::BlockPerQuery,
                Some(split_bits) => GridMapping::Cooperative { split_bits },
            };
            let server = server(&table, devices);
            let job = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys, table.matrix())
                .with_mapping(mapping);
            let output = job.run_on_devices(&server.split, &backends);
            for (key, share) in keys.iter().zip(&output.results) {
                let whole = fused_eval_matmul(
                    &prg, key, table.matrix(), EvalStrategy::default(), &NullRecorder,
                );
                prop_assert_eq!(share, &whole);
            }

            // (b) One set of slice sizes, three readers.
            let planned = &server.slice_bytes;
            let uploaded: Vec<u64> = backends
                .iter()
                .zip(job.upload_slices(&server.split, &backends))
                .map(|(backend, slice)| {
                    let bytes = slice.bytes();
                    backend.free(slice);
                    bytes
                })
                .collect();
            prop_assert_eq!(&uploaded, planned);
            let domain_bits = DpfParams::for_domain(rows).domain_bits;
            let split = DeviceSplit::new(domain_bits, devices).unwrap();
            if mask == 0 {
                prop_assert_eq!(&split, &server.split);
            }
            // Each device holds the kept rows of its subtrees (one row at least).
            let kept: Vec<u64> = table.kept_ranges().iter().flat_map(Clone::clone).collect();
            let held: Vec<u64> = split
                .owned_ranges(rows)
                .iter()
                .map(|owned| {
                    let rows = kept.iter().filter(|row| owned.iter().any(|r| r.contains(row)));
                    (rows.count() as u64).max(1) * server.row_bytes
                })
                .collect();
            prop_assert_eq!(&held, planned);
            let responses = server.answer_batch(&queries).unwrap();
            for (response, share) in responses.iter().zip(output.results) {
                prop_assert_eq!(&response.share, &Vec::from(share));
            }
            prop_assert_eq!(server.plan_ledger().resident_bytes, planned.iter().sum::<u64>());
            prop_assert_eq!(server.planned_resident_bytes(batch), planned.iter().sum::<u64>());

            // (c) Every row belongs to exactly one shard.
            let mut owned: Vec<_> = shard_owned_ranges(rows, devices).unwrap().concat();
            owned.sort_by_key(|range| range.start);
            let mut next = 0;
            for range in owned {
                prop_assert_eq!(range.start, next);
                prop_assert!(range.end > range.start);
                next = range.end;
            }
            prop_assert_eq!(next, rows);
        }
    }
}
