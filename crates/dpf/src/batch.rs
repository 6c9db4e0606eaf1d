//! Batched DPF execution on one or more devices (§3.2.1, §3.2.5, §3.2.7).
//!
//! A launch is one block per `(key, owned subtree)` pair, numbered
//! subtree-major. The host runs a launch's blocks in contiguous ranges, one
//! range per worker at a time (`gpu_sim`'s ranges: at most eight blocks, cut
//! from the launch shape and host thread count alone, so a launch of at most
//! eight blocks is one range on the launching thread). The blocks of a range that share a subtree
//! run in lockstep as one key group — for each host run, every key's leaves,
//! then one sweep of the run's rows for all of them — so the table is read
//! once per group, as the blocks an SM holds at the same time share it
//! through L2 on a GPU. Each block then records its own key's events on its
//! own recorder, one recorder alive at a time: counters, the ledger, modelled
//! time and, on one worker (one host thread, or a launch of at most eight
//! blocks), peak memory are those of the blocks run one by one.

use std::ops::Range;

use gpu_sim::{
    BlockContext, BlockRange, DeviceBackend, Kernel, KernelReport, LaunchConfig,
    ResidentAllocation, TransferSrc,
};
use pir_field::{AtomicLaneRows, LaneVector, ShareMatrix};
use pir_prf::{GgmPrg, PrfKind};
use serde::{Deserialize, Serialize};

use crate::fusion::{fused_eval_matmul_group, record_fused};
use crate::plan::DeviceSplit;
use crate::recorder::KernelRecorder;
use crate::strategy::{EvalStrategy, Subtree};
use crate::DpfKey;

/// How a device's `(key, owned subtree)` pairs are mapped onto its grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridMapping {
    /// One launch per device over the whole batch, one thread block per
    /// pair — on a single device, one block per DPF key: the standard
    /// batched execution mode.
    BlockPerQuery,
    /// All blocks cooperate on one DPF at a time (cooperative groups), used
    /// for very large tables where a single DPF saturates the device.
    Cooperative {
        /// `log2` of the number of subtrees the domain is split into (one
        /// subtree per block).
        split_bits: u32,
    },
}

/// A batch of `B ≥ 1` DPF queries to evaluate against one table held by
/// `D ≥ 1` devices.
///
/// Because the final reduction (a sum of partial dot products) is linear,
/// the domain splits into subtrees ([`DeviceSplit`]): each device holds the
/// rows of the subtrees it owns and evaluates every key of the batch against
/// that slice only, one `(key, owned subtree)` pair per thread block, and
/// the devices' partial rows are summed (§3.2.7). A single device is the
/// same decomposition with one subtree — the root — so its pairs are the
/// keys and there is nothing to sum. Who owns what is the caller's
/// [`DeviceSplit`], not derived from the device count: a split restricted to
/// a masked view's rows sweeps only those, the other owners living in other
/// processes.
#[derive(Clone, Copy)]
pub struct BatchEvalJob<'a> {
    /// PRG (and therefore PRF) used by the servers.
    pub prg: &'a GgmPrg,
    /// PRF family, used to charge the right per-call cycle cost.
    pub prf_kind: PrfKind,
    /// Keys of the batched queries (all for the same party and domain).
    pub keys: &'a [DpfKey],
    /// The table the server multiplies against; device `g` reads only the
    /// rows of its subtrees.
    pub table: &'a ShareMatrix,
    /// Expansion strategy.
    pub strategy: EvalStrategy,
    /// Threads per block for the launch.
    pub threads_per_block: u32,
    /// Grid mapping (batched or cooperative).
    pub mapping: GridMapping,
}

/// Results and performance reports of a batched evaluation.
#[derive(Clone, Debug)]
pub struct BatchEvalOutput {
    /// One answer share per input key, in order.
    pub results: Vec<LaneVector>,
    /// Kernel report of the slowest device — the batch's critical path, and
    /// on a single device simply *the* report (counters, occupancy,
    /// estimated time; per-key cooperative launches merged).
    pub report: KernelReport,
    /// One report per device, in device order; never empty, and `report` is
    /// a copy of its slowest entry.
    per_device: Vec<KernelReport>,
}

impl BatchEvalOutput {
    fn new(results: Vec<LaneVector>, per_device: Vec<KernelReport>) -> Self {
        let mut slowest = 0;
        for (device, report) in per_device.iter().enumerate() {
            if report.estimated_time_s > per_device[slowest].estimated_time_s {
                slowest = device;
            }
        }
        Self {
            results,
            report: per_device[slowest].clone(),
            per_device,
        }
    }

    /// Per-device kernel reports, in device order.
    #[must_use]
    pub fn per_device(&self) -> &[KernelReport] {
        &self.per_device
    }

    /// Total PRF evaluations across all devices.
    #[must_use]
    pub fn total_prf_calls(&self) -> u64 {
        self.per_device.iter().map(|r| r.counters.prf_calls).sum()
    }

    /// End-to-end estimated time. Devices run in parallel, so this is the
    /// slowest device plus the host-side reduction of every *other* device's
    /// partial row per query — nothing on a single device.
    #[must_use]
    pub fn estimated_time_s(&self) -> f64 {
        let reduced_rows = (self.per_device.len() - 1) * self.results.len();
        self.report.estimated_time_s + 1e-6 * reduced_rows as f64
    }

    /// Queries per second implied by [`BatchEvalOutput::estimated_time_s`].
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        let time_s = self.estimated_time_s();
        if time_s <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / time_s
    }

    /// Estimated end-to-end latency in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.estimated_time_s() * 1e3
    }
}

impl<'a> BatchEvalJob<'a> {
    /// Create a job with the defaults the paper uses: fused memory-bounded
    /// expansion, 256 threads per block, block-per-query mapping.
    #[must_use]
    pub fn new(
        prg: &'a GgmPrg,
        prf_kind: PrfKind,
        keys: &'a [DpfKey],
        table: &'a ShareMatrix,
    ) -> Self {
        Self {
            prg,
            prf_kind,
            keys,
            table,
            strategy: EvalStrategy::memory_bounded_default(),
            threads_per_block: 256,
            mapping: GridMapping::BlockPerQuery,
        }
    }

    /// Builder-style: set the expansion strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style: set the grid mapping.
    #[must_use]
    pub fn with_mapping(mut self, mapping: GridMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Builder-style: set threads per block.
    #[must_use]
    pub fn with_threads_per_block(mut self, threads: u32) -> Self {
        self.threads_per_block = threads;
        self
    }

    /// Builder-style: apply an [`ExecutionPlan`](crate::ExecutionPlan)
    /// chosen by the [`Scheduler`](crate::Scheduler).
    ///
    /// This is the submission path for *externally formed* batches: a server
    /// plans once for its table and hands the plan to every batch's job, so
    /// every knob the scheduler chose — strategy, grid mapping, threads per
    /// block — is applied atomically instead of field by field.
    #[must_use]
    pub fn with_plan(self, plan: &crate::ExecutionPlan) -> Self {
        self.with_strategy(plan.strategy)
            .with_mapping(plan.mapping)
            .with_threads_per_block(plan.threads_per_block)
    }

    /// Device memory that stays resident for the whole batch on a single
    /// device: the table, the uploaded keys and the output buffer.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let outputs = self.keys.len() as u64 * self.row_bytes();
        self.table.size_bytes() as u64 + self.key_bytes() + outputs
    }

    fn key_bytes(&self) -> u64 {
        self.keys.iter().map(|k| k.size_bytes() as u64).sum()
    }

    fn row_bytes(&self) -> u64 {
        self.table.lanes_per_row() as u64 * 4
    }

    /// The whole domain on one device.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    #[expect(
        clippy::expect_used,
        reason = "one device splits on zero bits, which every depth admits"
    )]
    fn whole_domain(&self) -> DeviceSplit {
        assert!(!self.keys.is_empty(), "batch must contain at least one key");
        DeviceSplit::new(self.keys[0].depth(), 1).expect("one device always splits")
    }

    /// [`BatchEvalJob::run_on_devices`] on one device that owns the whole
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    pub fn run_on(&self, backend: &dyn DeviceBackend) -> BatchEvalOutput {
        self.run_on_devices(&self.whole_domain(), &[backend])
    }

    /// [`BatchEvalJob::run_resident_on_devices`] on one device whose
    /// resident slice is the whole table.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or `table_alloc` does not match the
    /// job's table size.
    pub fn run_resident(
        &self,
        backend: &dyn DeviceBackend,
        table_alloc: &ResidentAllocation,
    ) -> BatchEvalOutput {
        self.run_resident_on_devices(&self.whole_domain(), &[backend], &[table_alloc])
    }

    /// Run the batch through the full [`DeviceBackend`] lifecycle with every
    /// device's table slice streamed for this batch: allocate and upload the
    /// slices, run, free them again.
    ///
    /// Servers that keep the slices resident should hold the
    /// allocations themselves ([`BatchEvalJob::upload_slices`]) and call
    /// [`BatchEvalJob::run_resident_on_devices`] instead — this entry point
    /// re-pays the table upload every call.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or `backends` is not one per device of
    /// `split`.
    pub fn run_on_devices(
        &self,
        split: &DeviceSplit,
        backends: &[&dyn DeviceBackend],
    ) -> BatchEvalOutput {
        let slices = self.upload_slices(split, backends);
        let slice_refs: Vec<&ResidentAllocation> = slices.iter().collect();
        let output = self.run_resident_on_devices(split, backends, &slice_refs);
        for (backend, slice) in backends.iter().zip(slices) {
            backend.free(slice);
        }
        output
    }

    /// Allocate and upload one table slice per backend: the rows `split`
    /// assigns to that device, in subtree order. The caller owns the
    /// returned allocations (and frees them on the same backends).
    ///
    /// The upload carries the slice's byte count and no payload, as every
    /// transfer does: kernels read the job's table in host memory, so the
    /// ledger accounts every table byte without the host copying one.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is not one per device of `split`.
    #[must_use]
    pub fn upload_slices(
        &self,
        split: &DeviceSplit,
        backends: &[&dyn DeviceBackend],
    ) -> Vec<ResidentAllocation> {
        let rows = self.table.rows() as u64;
        let row_bytes = self.row_bytes();
        let owned_ranges = split.owned_ranges(rows);
        assert_eq!(backends.len(), owned_ranges.len(), "one backend per device");
        backends
            .iter()
            .zip(owned_ranges)
            .zip(split.slice_bytes(rows, row_bytes))
            .map(|((backend, owned), bytes)| {
                let alloc = backend.alloc(bytes);
                let owned_rows: u64 = owned.iter().map(|range| range.end - range.start).sum();
                backend.upload_table(&alloc, TransferSrc::Opaque(owned_rows * row_bytes));
                alloc
            })
            .collect()
    }

    /// Run the batch against table slices that are *already resident*, one
    /// per backend (uploaded by the caller through
    /// [`BatchEvalJob::upload_slices`]). Only the per-batch keys and outputs
    /// are allocated, transferred and freed here.
    ///
    /// Device `g` gets one launch over its `(key, owned subtree)` pairs (one
    /// launch per key under [`GridMapping::Cooperative`]). The first
    /// device's rows seed the answer and every further device adds its
    /// partial rows through the backend's reduction primitive, so a single
    /// device reduces nothing.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, or `backends` or `slices` disagrees
    /// with `split` in length or per-device size (a stale residency — the
    /// caller's plan is out of sync with the table).
    pub fn run_resident_on_devices(
        &self,
        split: &DeviceSplit,
        backends: &[&dyn DeviceBackend],
        slices: &[&ResidentAllocation],
    ) -> BatchEvalOutput {
        assert!(!self.keys.is_empty(), "batch must contain at least one key");
        let expected = split.slice_bytes(self.table.rows() as u64, self.row_bytes());
        assert_eq!(backends.len(), expected.len(), "one backend per device");
        assert_eq!(
            slices.len(),
            expected.len(),
            "one resident table slice per device"
        );
        for (slice, expected_bytes) in slices.iter().zip(expected) {
            assert_eq!(
                slice.bytes(),
                expected_bytes,
                "resident slice does not match the job's table split"
            );
        }

        // The grid: which subtrees are the units of block work, and how many
        // keys share a launch. Cooperative groups dedicate the whole device
        // to one query at a time, split finely enough to fill it.
        let depth = self.keys[0].depth();
        let (kernel, subtree_bits, launch_width, cooperative) = match self.mapping {
            GridMapping::BlockPerQuery => ("dpf_batch", 0, self.keys.len(), false),
            GridMapping::Cooperative { split_bits } => ("dpf_coop", split_bits.min(depth), 1, true),
        };
        // The kernel name is composed once per job, not per launch; it names
        // the host SIMD backend that executes the PRF sweeps.
        let prf_backend = self.prg.prf().backend_label();
        let grid = Grid {
            kernel_name: format!("{kernel}[{}|{prf_backend}]", self.strategy.label()),
            launch_width,
            cooperative,
        };

        let mut results: Vec<LaneVector> = Vec::new();
        let mut per_device: Vec<KernelReport> = Vec::with_capacity(backends.len());
        for ((backend, slice), owned) in backends.iter().zip(slices).zip(split.owned_subtrees()) {
            let blocks: Vec<Subtree> = owned
                .iter()
                .flat_map(|subtree| subtree.refined(subtree_bits))
                .collect();
            let (rows, mut report) = self.run_device(*backend, slice, &blocks, &grid);
            // Stamp the host SIMD provenance: the PRF backend label.
            report.prf_backend = prf_backend.to_string();
            per_device.push(report);
            if results.is_empty() {
                results = rows;
            } else {
                for (result, partial) in results.iter_mut().zip(&rows) {
                    backend.reduce(&mut result.0, &partial.0);
                }
            }
        }

        BatchEvalOutput::new(results, per_device)
    }

    /// One device's share of the batch: upload the keys, launch over the
    /// `(key, owned subtree)` pairs, download one partial row per key.
    fn run_device(
        &self,
        backend: &dyn DeviceBackend,
        slice: &ResidentAllocation,
        owned: &[Subtree],
        grid: &Grid,
    ) -> (Vec<LaneVector>, KernelReport) {
        let lanes = self.table.lanes_per_row();
        let cycles = self.prf_kind.gpu_cycles_per_block();

        // Keys and outputs for the whole batch are allocated once; every
        // launch runs against the same three allocations. The transfers are
        // counted: the kernel reads `self.keys` and writes the rows it
        // returns in host memory.
        let key_bytes = self.key_bytes();
        let keys_alloc = backend.alloc(key_bytes);
        backend.upload_keys(&keys_alloc, TransferSrc::Opaque(key_bytes));
        let out_bytes = self.keys.len() as u64 * self.row_bytes();
        let out_alloc = backend.alloc(out_bytes);

        let mut rows = Vec::with_capacity(self.keys.len());
        let mut merged: Option<KernelReport> = None;
        for launch_keys in self.keys.chunks(grid.launch_width) {
            let pairs = launch_keys.len() * owned.len();
            let config = LaunchConfig::linear(pairs as u32, self.threads_per_block)
                .with_cooperative(grid.cooperative);
            let kernel = BatchKernel {
                job: self,
                keys: launch_keys,
                owned,
                cooperative: grid.cooperative,
                cycles,
                // Each block owns one preallocated partial row; no result
                // locking on the dispatch path.
                partials: AtomicLaneRows::new(pairs, lanes),
            };
            let report = backend.launch(
                &grid.kernel_name,
                config,
                &[slice, &keys_alloc, &out_alloc],
                &kernel,
            );

            let partials = kernel.partials.into_lane_vectors();
            for slot in 0..launch_keys.len() {
                let mut row = LaneVector::zeroed(lanes);
                for partial in partials.iter().skip(slot).step_by(launch_keys.len()) {
                    if grid.cooperative {
                        // The cross-block partial sum is the backend's
                        // reduction primitive, so both in-tree backends
                        // count (and perform) the same lane-wise adds.
                        backend.reduce(&mut row.0, &partial.0);
                    } else {
                        // Stands in for the on-device fold: the blocks of one
                        // key accumulate into its row with lock-free wrapping
                        // lane adds, which no backend counts.
                        row.add_assign_wrapping(partial);
                    }
                }
                rows.push(row);
            }
            merged = Some(match merged {
                None => report,
                Some(previous) => previous.merged_with(&report),
            });
        }

        backend.download(&out_alloc, out_bytes);
        backend.free(out_alloc);
        backend.free(keys_alloc);
        #[expect(
            clippy::expect_used,
            reason = "the launch loop above set it for the first key; empty batches never reach a device"
        )]
        let report = merged.expect("batch is non-empty");
        (rows, report)
    }
}

/// One launch over `(key, owned subtree)` pairs, subtree-major: block `s ·
/// keys + k` evaluates key `k` over subtree `s`, so the blocks of a host
/// worker's range are mostly keys sharing one subtree.
struct BatchKernel<'k> {
    job: &'k BatchEvalJob<'k>,
    keys: &'k [DpfKey],
    owned: &'k [Subtree],
    cooperative: bool,
    /// Modelled cycles per PRF call.
    cycles: u64,
    partials: AtomicLaneRows,
}

impl BatchKernel<'_> {
    /// Evaluate the `blocks` of `range` — consecutive, one subtree's — as
    /// one key group, sharing the table read ([`fused_eval_matmul_group`]),
    /// then record each block's own events on its own recorder, one
    /// recorder alive at a time, so a block's counters and peak are exactly
    /// those of the block run alone.
    fn run_group(&self, range: &BlockRange<'_>, blocks: Range<u64>) {
        let width = self.keys.len() as u64;
        let subtree = self.owned[(blocks.start / width) as usize];
        let first = (blocks.start % width) as usize;
        let group = &self.keys[first..first + (blocks.end - blocks.start) as usize];
        let job = self.job;
        let shares = fused_eval_matmul_group(job.prg, group, job.table, subtree, job.strategy);
        let lanes = job.table.lanes_per_row() as u64;
        for index in blocks.clone() {
            let slot = (index - blocks.start) as usize;
            let key = &group[slot];
            let block = range.block(index);
            let recorder = KernelRecorder::new(&block, self.cycles);
            // The key is streamed from global memory once per block.
            block.counters().record_global_read(key.size_bytes() as u64);
            record_fused(key.depth(), job.table, subtree, job.strategy, &recorder);
            drop(recorder); // flushed before the next block's is created
            if self.cooperative {
                // Grid-wide barrier before the cross-block reduction.
                if index == 0 {
                    block.counters().record_grid_sync();
                }
                block.counters().record_flops(lanes);
            }
            self.partials.store_row(index as usize, &shares[slot]);
        }
    }
}

impl Kernel for BatchKernel<'_> {
    fn execute_block(&self, block: &BlockContext<'_>) {
        let index = block.block_index();
        let range = BlockRange::new(
            index..index + 1,
            block.config(),
            block.counters(),
            block.memory(),
        );
        self.execute_range(&range);
    }

    /// The range cut at subtree boundaries, each piece one key group.
    fn execute_range(&self, range: &BlockRange<'_>) {
        let width = self.keys.len() as u64;
        let indices = range.indices();
        let mut start = indices.start;
        while start < indices.end {
            let end = indices.end.min((start / width + 1) * width);
            self.run_group(range, start..end);
            start = end;
        }
    }
}

/// The launch shape shared by every device of one run.
struct Grid {
    kernel_name: String,
    launch_width: usize,
    cooperative: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fused_eval_matmul;
    use crate::recorder::NullRecorder;
    use crate::{generate_keys, DpfParams};
    use gpu_sim::{BackendKind, DeviceSpec, GpuExecutor};
    use pir_field::{reconstruct_lanes, Ring128};
    use pir_prf::build_prf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(
        rows: usize,
        lanes: usize,
        batch: usize,
        seed: u64,
    ) -> (GgmPrg, ShareMatrix, Vec<u64>, Vec<DpfKey>, Vec<DpfKey>) {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
        let table = ShareMatrix::from_rows(rows, lanes, data);
        let params = DpfParams::for_domain(rows as u64);
        let mut targets = Vec::new();
        let mut keys_a = Vec::new();
        let mut keys_b = Vec::new();
        for _ in 0..batch {
            let target = rng.gen_range(0..rows as u64);
            let (a, b) = generate_keys(&prg, &params, target, Ring128::ONE, &mut rng);
            targets.push(target);
            keys_a.push(a);
            keys_b.push(b);
        }
        (prg, table, targets, keys_a, keys_b)
    }

    fn devices(count: usize, host_threads: usize) -> Vec<Box<dyn DeviceBackend>> {
        (0..count)
            .map(|_| {
                BackendKind::Simulated.build_with_host_threads(DeviceSpec::v100(), host_threads)
            })
            .collect()
    }

    fn backends(devices: &[Box<dyn DeviceBackend>]) -> Vec<&dyn DeviceBackend> {
        devices.iter().map(AsRef::as_ref).collect()
    }

    fn split(keys: &[DpfKey], devices: usize) -> DeviceSplit {
        DeviceSplit::new(keys[0].depth(), devices).unwrap()
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index i addresses three parallel arrays
    fn batched_execution_answers_every_query() {
        let (prg, table, targets, keys_a, keys_b) = setup(500, 8, 7, 51);
        for count in [1usize, 3, 4] {
            let devices = devices(count, 4);
            let backends = backends(&devices);
            let split = split(&keys_a, count);
            let out_a = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table)
                .run_on_devices(&split, &backends);
            let out_b = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_b, &table)
                .run_on_devices(&split, &backends);

            assert_eq!(out_a.results.len(), 7);
            assert_eq!(out_a.per_device().len(), count);
            for i in 0..7 {
                let single = fused_eval_matmul(
                    &prg,
                    &keys_a[i],
                    &table,
                    EvalStrategy::default(),
                    &NullRecorder,
                );
                assert_eq!(out_a.results[i], single, "{count} devices, query {i}");
                let row = reconstruct_lanes(
                    &Vec::from(out_a.results[i].clone()),
                    &Vec::from(out_b.results[i].clone()),
                );
                assert_eq!(row, table.row(targets[i] as usize), "query {i}");
            }
            assert!(out_a.throughput_qps() > 0.0);
            assert!(out_a.latency_ms() > 0.0);
            assert_eq!(out_a.total_prf_calls(), out_b.total_prf_calls());
        }
    }

    /// A host worker runs the keys of its range that share a subtree in
    /// lockstep. Whatever the batch size (one range for a whole small batch,
    /// whole ranges of eight, ragged ones), the host threads, the backend and
    /// the ownership (the root, or a restricted split whose subtrees cut
    /// ranges apart), every share is the key's own fused evaluation. 2 500
    /// rows make two host runs, the second cut short by the end of the table.
    #[test]
    fn lockstep_ranges_give_every_key_its_own_share() {
        let (prg, full, _, keys, _) = setup(2500, 4, 32, 58);
        let kept = [40..700, 2100..2500];
        let mut view = ShareMatrix::zeroed(2500, 4);
        for row in kept.iter().flat_map(Clone::clone) {
            view.set_row(row as usize, full.row(row as usize));
        }
        let depth = keys[0].depth();
        let whole = DeviceSplit::new(depth, 1).unwrap();
        let restricted = whole.clone().restricted_to(&kept, 2500);
        assert!(restricted.owned_subtrees()[0].len() > 1);
        let want: Vec<LaneVector> = keys
            .iter()
            .map(|key| fused_eval_matmul(&prg, key, &view, EvalStrategy::default(), &NullRecorder))
            .collect();
        for batch in [2usize, 3, 8, 9, 32] {
            for threads in [1, 2] {
                for kind in [BackendKind::Simulated, BackendKind::Host] {
                    let backend = kind.build_with_host_threads(DeviceSpec::v100(), threads);
                    for split in [&whole, &restricted] {
                        let out = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys[..batch], &view)
                            .run_on_devices(split, &[backend.as_ref()]);
                        assert_eq!(
                            out.results,
                            want[..batch],
                            "B={batch} threads={threads} {kind:?} {split:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index i addresses three parallel arrays
    fn cooperative_mapping_matches_batched_results() {
        let (prg, table, targets, keys_a, keys_b) = setup(256, 4, 3, 52);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);

        let coop = GridMapping::Cooperative { split_bits: 4 };
        let out_a = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table)
            .with_mapping(coop)
            .run_on(&executor);
        let out_b = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_b, &table)
            .with_mapping(coop)
            .run_on(&executor);
        for i in 0..3 {
            let row = reconstruct_lanes(
                &Vec::from(out_a.results[i].clone()),
                &Vec::from(out_b.results[i].clone()),
            );
            assert_eq!(row, table.row(targets[i] as usize), "query {i}");
        }
        // The cooperative report merges one launch per query.
        assert!(out_a.report.counters.grid_syncs >= 3);
    }

    #[test]
    fn per_device_work_shrinks_with_more_devices() {
        let (prg, table, _targets, keys_a, _keys_b) = setup(1 << 10, 4, 5, 77);
        let one = devices(1, 2);
        let four = devices(4, 2);
        // A lone query (the whole complex dedicated to it) and a batch.
        for keys in [&keys_a[..1], &keys_a[..]] {
            let job = BatchEvalJob::new(&prg, PrfKind::SipHash, keys, &table);
            let single = job.run_on_devices(&split(keys, 1), &backends(&one));
            let multi = job.run_on_devices(&split(keys, 4), &backends(&four));
            assert_eq!(single.results, multi.results);
            let multi_prf_max = multi
                .per_device()
                .iter()
                .map(|r| r.counters.prf_calls)
                .max()
                .unwrap();
            assert!(
                multi_prf_max * 3 < single.total_prf_calls(),
                "{multi_prf_max} vs {}",
                single.total_prf_calls()
            );
        }
    }

    #[test]
    fn residency_reflects_owned_subtrees_for_non_power_of_two_devices() {
        // 3 devices split a 2^10-row table into 4 subtrees; device 0 owns
        // subtrees {0, 3} and must account rows for both (half the table),
        // not rows/3.
        let (prg, table, _targets, keys_a, _keys_b) = setup(1 << 10, 8, 1, 61);
        let devices = devices(3, 1);
        let out = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table)
            .run_on_devices(&split(&keys_a, 3), &backends(&devices));

        let half_table = table.size_bytes() as u64 / 2;
        let per_device = out.per_device();
        assert!(
            per_device[0].peak_memory_bytes >= half_table,
            "device 0 owns two of four subtrees: peak {} must cover {half_table}",
            per_device[0].peak_memory_bytes
        );
        // Devices 1 and 2 own one subtree each (a quarter of the table), so
        // their residency stays below device 0's.
        for report in &per_device[1..] {
            assert!(report.peak_memory_bytes < per_device[0].peak_memory_bytes);
        }
    }

    #[test]
    fn larger_batches_improve_throughput() {
        let (prg, table, _targets, keys_a, _keys_b) = setup(1 << 12, 8, 64, 54);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);
        let small =
            BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a[..1], &table).run_on(&executor);
        let large = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table).run_on(&executor);
        assert!(
            large.throughput_qps() > 5.0 * small.throughput_qps(),
            "batch-64 {} qps should dwarf batch-1 {} qps",
            large.throughput_qps(),
            small.throughput_qps()
        );
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_batch_panics() {
        let (prg, table, _, _, _) = setup(64, 4, 1, 55);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
        let keys: Vec<DpfKey> = Vec::new();
        let _ = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table).run_on(&executor);
    }

    #[test]
    #[should_panic(expected = "one backend per device")]
    fn backends_must_match_the_split() {
        let (prg, table, _, keys_a, _) = setup(64, 4, 1, 56);
        let _ = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table)
            .run_on_devices(&split(&keys_a, 2), &[]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a one-range view is a case, not a typo
    fn a_restricted_split_sweeps_only_the_kept_rows() {
        // Zero every row outside `kept`; the restricted split must give the
        // whole-domain share of that view, on either mapping, while
        // uploading and expanding only the cover of `kept`.
        let (prg, full, _, keys_a, _) = setup(300, 4, 3, 57);
        let depth = keys_a[0].depth();
        let cases: [(&[std::ops::Range<u64>], usize, u64, u64); 5] = [
            (&[0..256], 1, 256, 256),      // one aligned subtree
            (&[256..300], 1, 256, 44),     // clamped tail: covered to the padded end
            (&[1..3, 70..100], 1, 32, 32), // arbitrary ranges: a dyadic cover
            (&[1..3, 70..100], 2, 33, 33), // device 1 keeps its one-leaf floor
            (&[], 1, 1, 1),                // nothing kept: the floor alone
        ];
        for (kept, devices, cover_leaves, slice_rows) in cases {
            let mut view = ShareMatrix::zeroed(300, 4);
            for row in kept.iter().flat_map(Clone::clone) {
                view.set_row(row as usize, full.row(row as usize));
            }
            let split = DeviceSplit::new(depth, devices)
                .unwrap()
                .restricted_to(kept, 300);
            let leaves: u64 = split
                .owned_subtrees()
                .iter()
                .flatten()
                .map(|subtree| subtree.leaves(depth).end - subtree.leaves(depth).start)
                .sum();
            assert_eq!(leaves, cover_leaves, "{kept:?} on {devices}");
            let planned: u64 = split.slice_bytes(300, 16).iter().sum();
            assert_eq!(planned, slice_rows * 16, "{kept:?} on {devices}");

            let devices = self::devices(devices, 1);
            let whole =
                BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &view).run_on(&*devices[0]);
            for mapping in [
                GridMapping::BlockPerQuery,
                GridMapping::Cooperative { split_bits: 3 },
            ] {
                let owned = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &view)
                    .with_mapping(mapping)
                    .run_on_devices(&split, &backends(&devices));
                assert_eq!(owned.results, whole.results, "{kept:?} {mapping:?}");
                assert!(owned.total_prf_calls() < whole.total_prf_calls());
            }
        }
    }
}
