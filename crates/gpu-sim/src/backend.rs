//! The device-backend seam: one trait covering the full device lifecycle.
//!
//! [`DeviceBackend`] is the boundary a real accelerator backend (CUDA,
//! Metal, wgpu) would implement: explicit allocation handles, explicit
//! host↔device transfers, kernel launches against a set of resident
//! allocations, a device-side reduction primitive and a download step. Its
//! one in-tree implementation is the [`Executor`]. A transfer is a ledger
//! entry: the ledger counts every byte, and nothing is copied, because
//! kernels read their inputs in host memory. The two clocks, the roofline
//! [`CostModel`](crate::CostModel) ([`GpuExecutor`]) and the host wall clock
//! ([`HostBackend`]), share one launch body, so a kernel records the same
//! counters under either.

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{DeviceSpec, Executor, GpuExecutor, HostBackend, Kernel, KernelReport, LaunchConfig};

/// Handle to one live device-memory allocation.
///
/// Handles are linear: [`DeviceBackend::alloc`] mints one, exactly one
/// [`DeviceBackend::free`] consumes it, and every upload/launch/download in
/// between names it explicitly. The struct is deliberately not `Clone` — a
/// copied handle is how use-after-free bugs are born on real devices.
#[derive(Debug, PartialEq, Eq)]
pub struct ResidentAllocation {
    id: u64,
    bytes: u64,
}

impl ResidentAllocation {
    /// Size of the allocation in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Backend-assigned allocation id (unique per backend instance).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// What a transfer is carrying, so backend telemetry can distinguish the
/// one-time table upload (the bytes a server keeps resident) from the
/// unavoidable per-batch key/output traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferKind {
    /// Table (or table-shard) bytes — avoidable across batches once resident.
    Table,
    /// Per-batch DPF key bytes — paid on every launch.
    Keys,
    /// Per-batch answer-share bytes — paid on every launch.
    Output,
}

/// What an upload carries: only its length is read, since a transfer is a
/// ledger entry and kernels read their inputs in host memory.
///
/// `Opaque` is the byte count every caller in the workspace passes. `Lanes`
/// stays only because the repository benchmark (`benchmark/src/kernels.rs`)
/// still names it; it counts four bytes per lane.
#[derive(Clone, Copy, Debug)]
pub enum TransferSrc<'a> {
    /// Little-endian `u32` lanes (the table / answer-share layout).
    Lanes(&'a [u32]),
    /// A byte count without a payload.
    Opaque(u64),
}

impl TransferSrc<'_> {
    /// Length of the transfer in bytes.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        match self {
            TransferSrc::Lanes(lanes) => lanes.len() as u64 * 4,
            TransferSrc::Opaque(bytes) => *bytes,
        }
    }
}

/// Point-in-time snapshot of one backend's allocation/transfer ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendStats {
    /// Allocations minted.
    pub allocs: u64,
    /// Allocations freed.
    pub frees: u64,
    /// Bytes currently allocated.
    pub resident_bytes: u64,
    /// High-water mark of allocated bytes.
    pub peak_resident_bytes: u64,
    /// Host→device transfers performed, total.
    pub uploads: u64,
    /// Host→device bytes, total.
    pub upload_bytes: u64,
    /// Host→device table bytes (the avoidable-when-resident share of
    /// `upload_bytes`).
    pub table_upload_bytes: u64,
    /// Device→host transfers performed.
    pub downloads: u64,
    /// Device→host bytes.
    pub download_bytes: u64,
    /// Kernel launches issued.
    pub launches: u64,
    /// `u32` lanes accumulated through [`DeviceBackend::reduce`].
    pub reduced_lanes: u64,
}

impl BackendStats {
    /// Allocations currently live.
    #[must_use]
    pub fn live_allocations(&self) -> u64 {
        self.allocs - self.frees
    }
}

#[derive(Debug, Default)]
struct LedgerState {
    next_id: u64,
    /// Size in bytes of each live allocation, by id.
    live: HashMap<u64, u64>,
    stats: BackendStats,
}

impl LedgerState {
    /// Panic unless `allocation` is live here and holds `len` bytes: either
    /// would be a memory-safety bug on a real device.
    fn check_transfer(&self, allocation: &ResidentAllocation, len: u64, what: &str) {
        let id = allocation.id;
        let bytes = *self
            .live
            .get(&id)
            .unwrap_or_else(|| panic!("{what} of freed or foreign allocation #{id}"));
        assert!(
            len <= bytes,
            "{what} of {len} bytes overflows {bytes}-byte allocation #{id}"
        );
    }
}

/// The allocation/transfer bookkeeping of one [`Executor`]: every transfer
/// is counted, none is performed.
#[derive(Debug, Default)]
pub(crate) struct BackendLedger {
    state: Mutex<LedgerState>,
}

impl BackendLedger {
    pub(crate) fn alloc(&self, bytes: u64) -> ResidentAllocation {
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.live.insert(id, bytes);
        state.stats.allocs += 1;
        state.stats.resident_bytes += bytes;
        state.stats.peak_resident_bytes = state
            .stats
            .peak_resident_bytes
            .max(state.stats.resident_bytes);
        ResidentAllocation { id, bytes }
    }

    /// Record a host→device copy.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not live on this backend or the payload exceeds the
    /// allocation.
    pub(crate) fn upload(
        &self,
        dst: &ResidentAllocation,
        kind: TransferKind,
        src: TransferSrc<'_>,
    ) {
        let len = src.len_bytes();
        let mut state = self.state.lock();
        state.check_transfer(dst, len, "upload");
        state.stats.uploads += 1;
        state.stats.upload_bytes += len;
        if kind == TransferKind::Table {
            state.stats.table_upload_bytes += len;
        }
    }

    /// Record a device→host copy of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not live on this backend or `bytes` exceeds the
    /// allocation.
    pub(crate) fn download(&self, src: &ResidentAllocation, bytes: u64) {
        let mut state = self.state.lock();
        state.check_transfer(src, bytes, "download");
        state.stats.downloads += 1;
        state.stats.download_bytes += bytes;
    }

    pub(crate) fn free(&self, allocation: ResidentAllocation) {
        let mut state = self.state.lock();
        let bytes = state
            .live
            .remove(&allocation.id)
            .unwrap_or_else(|| panic!("double free of allocation #{}", allocation.id));
        state.stats.frees += 1;
        state.stats.resident_bytes -= bytes;
    }

    pub(crate) fn count_launch(&self) {
        self.state.lock().stats.launches += 1;
    }

    pub(crate) fn count_reduced_lanes(&self, lanes: u64) {
        self.state.lock().stats.reduced_lanes += lanes;
    }

    pub(crate) fn stats(&self) -> BackendStats {
        self.state.lock().stats
    }
}

/// The full device lifecycle a PIR batch dispatch needs, as one trait.
///
/// Its implementor is the [`Executor`], under either clock; a real
/// CUDA/Metal/wgpu backend slots in by implementing the same operations —
/// allocate, upload, launch, reduce, download, free — over a device context
/// (see the README's "Device backends & table residency" section for the
/// mapping onto `cudaMalloc`/`cudaMemcpy`/launch/`cudaMemcpyD2H`/`cudaFree`).
pub trait DeviceBackend: Send + Sync {
    /// Human-readable backend name (telemetry, ledger printouts).
    fn name(&self) -> &str;

    /// The device this backend drives.
    fn device(&self) -> &DeviceSpec;

    /// Allocate `bytes` of device memory.
    fn alloc(&self, bytes: u64) -> ResidentAllocation;

    /// Copy `src` into `dst` (host→device).
    fn upload(&self, dst: &ResidentAllocation, kind: TransferKind, src: TransferSrc<'_>);

    /// Upload table (or table-shard) bytes — the transfer table residency
    /// exists to avoid repeating.
    fn upload_table(&self, dst: &ResidentAllocation, src: TransferSrc<'_>) {
        self.upload(dst, TransferKind::Table, src);
    }

    /// Upload per-batch DPF key bytes.
    fn upload_keys(&self, dst: &ResidentAllocation, src: TransferSrc<'_>) {
        self.upload(dst, TransferKind::Keys, src);
    }

    /// Launch `kernel` with `config` against the given resident allocations
    /// (their summed sizes are the launch's resident working set).
    fn launch(
        &self,
        name: &str,
        config: LaunchConfig,
        resident: &[&ResidentAllocation],
        kernel: &dyn Kernel,
    ) -> KernelReport;

    /// Lane-wise wrapping-add `partial` into `accumulator` — the host-side
    /// reduction combining per-subtree or per-device partial shares.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn reduce(&self, accumulator: &mut [u32], partial: &[u32]);

    /// Copy `bytes` bytes out of `src` (device→host).
    fn download(&self, src: &ResidentAllocation, bytes: u64);

    /// Release an allocation.
    fn free(&self, allocation: ResidentAllocation);

    /// Snapshot of the backend's allocation/transfer ledger.
    fn stats(&self) -> BackendStats;
}

impl<const MEASURED: bool> DeviceBackend for Executor<MEASURED> {
    fn name(&self) -> &str {
        if MEASURED {
            BackendKind::Host.label()
        } else {
            BackendKind::Simulated.label()
        }
    }

    fn device(&self) -> &DeviceSpec {
        Executor::device(self)
    }

    fn alloc(&self, bytes: u64) -> ResidentAllocation {
        self.ledger.alloc(bytes)
    }

    fn upload(&self, dst: &ResidentAllocation, kind: TransferKind, src: TransferSrc<'_>) {
        self.ledger.upload(dst, kind, src);
    }

    fn launch(
        &self,
        name: &str,
        config: LaunchConfig,
        resident: &[&ResidentAllocation],
        kernel: &dyn Kernel,
    ) -> KernelReport {
        self.ledger.count_launch();
        let resident_bytes: u64 = resident.iter().map(|a| a.bytes()).sum();
        self.launch_dyn(name, config, resident_bytes, kernel)
    }

    fn reduce(&self, accumulator: &mut [u32], partial: &[u32]) {
        assert_eq!(
            accumulator.len(),
            partial.len(),
            "reduce over mismatched lane counts"
        );
        for (acc, add) in accumulator.iter_mut().zip(partial) {
            *acc = acc.wrapping_add(*add);
        }
        self.ledger.count_reduced_lanes(partial.len() as u64);
    }

    fn download(&self, src: &ResidentAllocation, bytes: u64) {
        self.ledger.download(src, bytes);
    }

    fn free(&self, allocation: ResidentAllocation) {
        self.ledger.free(allocation);
    }

    fn stats(&self) -> BackendStats {
        self.ledger.stats()
    }
}

/// Which clock a server's [`Executor`] reports.
///
/// This is the selection knob threaded from `pir-serve`'s `TableConfig`
/// down to replica construction; a real accelerator backend would add a
/// variant here (plus the trait impl) and nothing above the seam changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The analytical cost-model executor ([`GpuExecutor`]).
    #[default]
    Simulated,
    /// The measured, wall-clock executor ([`HostBackend`]).
    Host,
}

impl BackendKind {
    /// Construct the backend for `device`.
    #[must_use]
    pub fn build(self, device: DeviceSpec) -> Box<dyn DeviceBackend> {
        match self {
            BackendKind::Simulated => Box::new(GpuExecutor::new(device)),
            BackendKind::Host => Box::new(HostBackend::new(device)),
        }
    }

    /// Construct the backend with an explicit host worker count.
    #[must_use]
    pub fn build_with_host_threads(
        self,
        device: DeviceSpec,
        host_threads: usize,
    ) -> Box<dyn DeviceBackend> {
        match self {
            BackendKind::Simulated => {
                Box::new(GpuExecutor::with_host_threads(device, host_threads))
            }
            BackendKind::Host => Box::new(HostBackend::with_host_threads(device, host_threads)),
        }
    }

    /// Stable label for telemetry and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Simulated => "simulated",
            BackendKind::Host => "host",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockContext;

    fn backends() -> Vec<Box<dyn DeviceBackend>> {
        vec![
            Box::new(GpuExecutor::with_host_threads(DeviceSpec::v100(), 2)),
            Box::new(HostBackend::with_host_threads(DeviceSpec::v100(), 2)),
        ]
    }

    #[test]
    fn lifecycle_ledger_tracks_allocs_transfers_and_frees() {
        for backend in backends() {
            let table = backend.alloc(64);
            let keys = backend.alloc(16);
            let output = backend.alloc(8);
            backend.upload_table(&table, TransferSrc::Lanes(&[7u32; 16]));
            backend.upload_keys(&keys, TransferSrc::Opaque(16));
            // Only table bytes count as table uploads.
            backend.upload(&output, TransferKind::Output, TransferSrc::Opaque(8));
            let report = backend.launch(
                "noop",
                LaunchConfig::linear(4, 32),
                &[&table, &keys],
                &|block: &BlockContext<'_>| {
                    block.counters().record_flops(1);
                },
            );
            assert!(report.peak_memory_bytes >= 80, "{}", backend.name());
            backend.download(&table, 8);
            for alloc in [output, keys, table] {
                backend.free(alloc);
            }

            let stats = backend.stats();
            assert_eq!(stats.allocs, 3, "{}", backend.name());
            assert_eq!(stats.frees, 3);
            assert_eq!(stats.live_allocations(), 0);
            assert_eq!(stats.resident_bytes, 0);
            assert_eq!(stats.peak_resident_bytes, 88);
            assert_eq!(stats.uploads, 3);
            assert_eq!(stats.upload_bytes, 88);
            assert_eq!(stats.table_upload_bytes, 64);
            assert_eq!(stats.downloads, 1);
            assert_eq!(stats.download_bytes, 8);
            assert_eq!(stats.launches, 1);
        }
    }

    #[test]
    fn simulated_backend_only_accounts() {
        let backend = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
        let alloc = DeviceBackend::alloc(&backend, 8);
        DeviceBackend::upload(
            &backend,
            &alloc,
            TransferKind::Output,
            TransferSrc::Lanes(&[9; 2]),
        );
        DeviceBackend::download(&backend, &alloc, 8);
        DeviceBackend::free(&backend, alloc);

        let stats = DeviceBackend::stats(&backend);
        assert_eq!(stats.uploads, 1);
        assert_eq!(stats.upload_bytes, 8);
        assert_eq!(stats.table_upload_bytes, 0);
        assert_eq!(stats.downloads, 1);
        assert_eq!(stats.download_bytes, 8);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn reduce_is_wrapping_lane_addition() {
        for backend in backends() {
            let mut acc = vec![u32::MAX, 1, 2];
            backend.reduce(&mut acc, &[1, 10, 20]);
            assert_eq!(acc, vec![0, 11, 22], "{}", backend.name());
            assert_eq!(backend.stats().reduced_lanes, 3);
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let backend = HostBackend::with_host_threads(DeviceSpec::v100(), 1);
        let alloc = backend.alloc(4);
        let copy = ResidentAllocation {
            id: alloc.id(),
            bytes: alloc.bytes(),
        };
        backend.free(alloc);
        backend.free(copy);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_upload_panics() {
        let backend = HostBackend::with_host_threads(DeviceSpec::v100(), 1);
        let alloc = backend.alloc(4);
        backend.upload(&alloc, TransferKind::Table, TransferSrc::Opaque(8));
    }

    #[test]
    fn backend_kind_builds_both_backends() {
        assert_eq!(BackendKind::default(), BackendKind::Simulated);
        let sim = BackendKind::Simulated.build_with_host_threads(DeviceSpec::v100(), 1);
        let host = BackendKind::Host.build_with_host_threads(DeviceSpec::v100(), 1);
        assert_eq!(sim.name(), BackendKind::Simulated.label());
        assert_eq!(host.name(), BackendKind::Host.label());
    }

    #[test]
    fn host_backend_launch_reports_wall_clock_time() {
        let backend = HostBackend::with_host_threads(DeviceSpec::v100(), 2);
        let report = backend.launch(
            "spin",
            LaunchConfig::linear(8, 64),
            &[],
            &|block: &BlockContext<'_>| {
                block.counters().record_prf_calls(10, 1_000);
            },
        );
        assert_eq!(report.counters.prf_calls, 80);
        assert!((report.estimated_time_s - report.host_wall_time_s).abs() < 1e-12);
        assert_eq!(report.time.memory_s, 0.0);
        assert_eq!(report.time.launch_overhead_s, 0.0);
    }
}
