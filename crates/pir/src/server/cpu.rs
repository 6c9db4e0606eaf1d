//! The optimized multi-core CPU baseline server.
//!
//! The paper compares its GPU kernels against Google Research's optimized CPU
//! DPF implementation (AES-NI accelerated, multi-threaded). This module
//! reimplements that baseline: each query expands the DPF level-by-level and
//! multiplies against the table, and batches are spread across worker
//! threads. Two timings are reported: the real wall-clock time of the host
//! running this code, and a modelled time on the paper's 28-core Xeon Gold
//! 6230 derived from the operation counts (so the Table 4 / Figure 15 shapes
//! can be regenerated deterministically on any machine).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use gpu_sim::{CpuCostModel, CpuSpec};
use pir_dpf::{fused_eval_matmul, CountingRecorder, EvalStrategy};
use pir_prf::{build_prf, GgmPrg, PrfKind};

use crate::error::PirError;
use crate::message::{PirResponse, ServerQuery};
use crate::server::{check_schema, validate_owned_update, PirServer, ServerMetrics};
use crate::table::{PirTable, TableSchema};

/// Timing of one CPU batch: measured on the host and modelled on the Xeon.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuBatchTiming {
    /// Wall-clock seconds on the machine running this code.
    pub host_wall_s: f64,
    /// Modelled seconds on the paper's Xeon Gold 6230 with the configured
    /// thread count.
    pub modeled_xeon_s: f64,
    /// PRF calls performed.
    pub prf_calls: u64,
}

/// Multi-threaded CPU PIR server (the baseline the paper compares against).
///
/// The table sits behind an `RwLock` so [`PirServer::update_entry`] hot
/// reloads are atomic with respect to in-flight batches.
pub struct CpuPirServer {
    schema: TableSchema,
    table: RwLock<PirTable>,
    prg: GgmPrg,
    prf_kind: PrfKind,
    threads: u32,
    cost_model: CpuCostModel,
    metrics: Mutex<ServerMetrics>,
    last_timing: Mutex<CpuBatchTiming>,
}

impl CpuPirServer {
    /// Create a baseline server using `threads` worker threads (the paper
    /// evaluates 1 and 32).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(table: PirTable, prf_kind: PrfKind, threads: u32) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        Self {
            schema: table.schema(),
            table: RwLock::new(table),
            prg: GgmPrg::new(build_prf(prf_kind)),
            prf_kind,
            threads,
            cost_model: CpuCostModel::new(CpuSpec::xeon_gold_6230()),
            metrics: Mutex::new(ServerMetrics::default()),
            last_timing: Mutex::new(CpuBatchTiming::default()),
        }
    }

    /// Worker thread count.
    #[must_use]
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Timing of the most recent batch.
    #[must_use]
    pub fn last_timing(&self) -> CpuBatchTiming {
        *self.last_timing.lock()
    }

    /// Modelled per-query evaluation time on the Xeon for this server's table
    /// shape, PRF and thread count (no functional execution).
    #[must_use]
    pub fn modeled_query_time_s(&self) -> f64 {
        let leaves = self.schema.entries.next_power_of_two();
        let prf_calls = 2 * leaves.saturating_sub(1).max(1);
        let lane_ops = self.schema.entries * self.schema.lanes_per_entry() as u64;
        let cycles = prf_calls * self.prf_kind.cpu_cycles_per_block() + 2 * lane_ops;
        let memory_bytes = self.schema.size_bytes();
        self.cost_model
            .execution_time_s(cycles, memory_bytes, self.threads)
    }

    /// Answer a batch and report its timing.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if any query targets a different
    /// table shape.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty: there is no batch to time
    /// ([`PirServer::answer_batch`] answers an empty slice with no responses).
    pub fn answer_batch_with_timing(
        &self,
        queries: &[ServerQuery],
    ) -> Result<(Vec<PirResponse>, CpuBatchTiming), PirError> {
        assert!(!queries.is_empty(), "batch must contain at least one query");
        for query in queries {
            check_schema(self.schema, query)?;
        }

        let recorder = CountingRecorder::new();
        let start = Instant::now();
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Vec<u32>>>> =
            (0..queries.len()).map(|_| Mutex::new(None)).collect();

        let workers = (self.threads as usize).min(queries.len());
        // Read lock held across the whole batch: every worker thread of this
        // batch sees the same table version even under concurrent reloads.
        let table = self.table.read();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= queries.len() {
                        break;
                    }
                    let share = fused_eval_matmul(
                        &self.prg,
                        &queries[index].key,
                        table.matrix(),
                        EvalStrategy::LevelByLevel,
                        &recorder,
                    );
                    *results[index].lock() = Some(share.into());
                });
            }
        });
        drop(table);
        let host_wall_s = start.elapsed().as_secs_f64();

        let prf_calls = recorder.prf_calls_total();
        let lane_ops = recorder.arithmetic_total();
        let cycles = prf_calls * self.prf_kind.cpu_cycles_per_block() + 2 * lane_ops;
        let memory_bytes = self.schema.size_bytes() * queries.len() as u64;
        let modeled_xeon_s = self
            .cost_model
            .execution_time_s(cycles, memory_bytes, self.threads);
        let timing = CpuBatchTiming {
            host_wall_s,
            modeled_xeon_s,
            prf_calls,
        };

        let responses: Vec<PirResponse> = queries
            .iter()
            .zip(results)
            .map(|(query, slot)| PirResponse {
                query_id: query.query_id,
                party: query.party(),
                share: slot.into_inner().expect("every query is answered"),
            })
            .collect();

        self.metrics
            .lock()
            .record_batch(queries.len() as u64, prf_calls, modeled_xeon_s);
        *self.last_timing.lock() = timing;
        Ok((responses, timing))
    }
}

impl PirServer for CpuPirServer {
    fn schema(&self) -> TableSchema {
        self.schema
    }

    fn update_entry(&self, index: u64, bytes: &[u8]) -> Result<(), PirError> {
        let mut table = self.table.write();
        validate_owned_update(&table, index, bytes)?;
        table.update_entry(index, bytes);
        Ok(())
    }

    fn answer(&self, query: &ServerQuery) -> Result<PirResponse, PirError> {
        let (mut responses, _) = self.answer_batch_with_timing(std::slice::from_ref(query))?;
        Ok(responses.remove(0))
    }

    fn answer_batch(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (responses, _) = self.answer_batch_with_timing(queries)?;
        Ok(responses)
    }

    fn metrics(&self) -> ServerMetrics {
        *self.metrics.lock()
    }
}

impl std::fmt::Debug for CpuPirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuPirServer")
            .field("table", &self.schema.describe())
            .field("prf", &self.prf_kind)
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> PirTable {
        PirTable::generate(200, 8, |row, offset| (row as u8) ^ (offset as u8))
    }

    #[test]
    fn cpu_and_gpu_servers_interoperate() {
        use crate::server::GpuPirServer;
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::Aes128);
        let cpu = CpuPirServer::new(table.clone(), PrfKind::Aes128, 2);
        let gpu = GpuPirServer::with_defaults(table.clone(), PrfKind::Aes128);
        let mut rng = StdRng::seed_from_u64(81);

        let query = client.query(150, &mut rng);
        let r0 = cpu.answer(&query.to_server(0)).unwrap();
        let r1 = gpu.answer(&query.to_server(1)).unwrap();
        let bytes = client.reconstruct(&query, &r0, &r1).unwrap();
        assert_eq!(bytes, table.entry(150));
    }

    #[test]
    fn batch_answers_match_single_answers() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let server = CpuPirServer::new(table.clone(), PrfKind::SipHash, 4);
        let mut rng = StdRng::seed_from_u64(82);

        let queries: Vec<_> = (0..6).map(|i| client.query(i * 30, &mut rng)).collect();
        let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
        let (batch, timing) = server.answer_batch_with_timing(&to0).unwrap();
        assert!(timing.host_wall_s > 0.0);
        assert!(timing.modeled_xeon_s > 0.0);
        assert!(timing.prf_calls > 0);

        for (query, response) in to0.iter().zip(&batch) {
            let single = server.answer(query).unwrap();
            assert_eq!(single.share, response.share);
        }
    }

    #[test]
    fn empty_batches_answer_nothing() {
        let server = CpuPirServer::new(table(), PrfKind::SipHash, 2);
        assert_eq!(server.answer_batch(&[]).unwrap(), vec![]);
        assert_eq!(server.metrics(), ServerMetrics::default());
        assert_eq!(server.last_timing(), CpuBatchTiming::default());
    }

    #[test]
    fn more_threads_model_faster_execution() {
        let table = PirTable::generate(1 << 12, 256, |row, offset| (row + offset as u64) as u8);
        let one = CpuPirServer::new(table.clone(), PrfKind::Aes128, 1);
        let many = CpuPirServer::new(table, PrfKind::Aes128, 32);
        let speedup = one.modeled_query_time_s() / many.modeled_query_time_s();
        assert!(
            speedup > 4.0,
            "expected a multi-thread speedup, got {speedup:.2}"
        );
    }

    #[test]
    fn schema_mismatch_rejected() {
        let table = table();
        let server = CpuPirServer::new(table, PrfKind::SipHash, 1);
        let client = PirClient::new(TableSchema::new(64, 8), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(83);
        let query = client.query(0, &mut rng);
        assert!(server.answer(&query.to_server(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_panics() {
        let _ = CpuPirServer::new(table(), PrfKind::Aes128, 0);
    }
}
