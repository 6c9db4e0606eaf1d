//! The device-backend seam: one trait covering the full device lifecycle.
//!
//! [`DeviceBackend`] is the boundary a real accelerator backend (CUDA,
//! Metal, wgpu) would implement: explicit allocation handles, explicit
//! host↔device transfers, kernel launches against a set of resident
//! allocations, a device-side reduction primitive and a download step. Two
//! in-tree implementations prove the seam from both sides:
//!
//! * [`GpuExecutor`](crate::GpuExecutor) — the analytical backend. Transfers
//!   are *accounted* (the ledger tracks every byte) but not performed; launch
//!   time comes from the roofline [`CostModel`](crate::CostModel).
//! * [`HostBackend`] — the measured backend. A payload upload really copies
//!   bytes into a per-allocation staging buffer (made when the first payload
//!   is written) and a download copies them back out; launch time is the
//!   host wall clock. No cost model is consulted anywhere. A table upload
//!   carries a byte count and no payload (kernels read the table in host
//!   memory), so it is accounted and stages nothing.
//!
//! Because both backends execute kernels through the same block runner, a
//! kernel records byte-for-byte identical counters on either one — the parity
//! suite in `pir-dpf` asserts exactly that.

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{
    DeviceSpec, Kernel, KernelCounters, KernelReport, LaunchConfig, MemoryTracker,
    OccupancyEstimate,
};

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

/// Source (upload) or destination (download) payload of a transfer.
///
/// Backends that really move bytes ([`HostBackend`]) copy `Bytes`/`Lanes`
/// payloads; the analytical backend only reads the length. `Opaque` carries a
/// byte count with no payload — callers use it where no kernel reads the
/// bytes (table slices, read by kernels from host memory) or where
/// serializing for an accounting-only backend would be wasted work (consult
/// [`DeviceBackend::stores_payloads`]).
#[derive(Clone, Copy, Debug)]
pub enum TransferSrc<'a> {
    /// Raw bytes.
    Bytes(&'a [u8]),
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
            TransferSrc::Bytes(bytes) => bytes.len() as u64,
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

/// One live ledger entry.
#[derive(Debug)]
struct LiveAllocation {
    bytes: u64,
    /// Staging buffer of a payload-storing ledger, made when the first
    /// payload (a key or output payload) is written into the allocation.
    staging: Option<Vec<u8>>,
}

impl LiveAllocation {
    /// The staging buffer, made zeroed on first use.
    fn staging(&mut self) -> &mut [u8] {
        let bytes = self.bytes as usize;
        self.staging.get_or_insert_with(|| vec![0; bytes])
    }

    /// Copy a payload into the staging buffer. A byte count without a
    /// payload stages nothing.
    fn stage(&mut self, src: TransferSrc<'_>) {
        match src {
            TransferSrc::Bytes(payload) => self.staging()[..payload.len()].copy_from_slice(payload),
            TransferSrc::Lanes(lanes) => {
                for (lane, chunk) in lanes.iter().zip(self.staging().chunks_exact_mut(4)) {
                    chunk.copy_from_slice(&lane.to_le_bytes());
                }
            }
            TransferSrc::Opaque(_) => {}
        }
    }
}

#[derive(Debug, Default)]
struct LedgerState {
    next_id: u64,
    live: HashMap<u64, LiveAllocation>,
    stats: BackendStats,
}

/// Shared allocation/transfer bookkeeping used by both in-tree backends.
///
/// A payload-storing ledger (the measured [`HostBackend`]) copies every
/// payload it is handed through per-allocation staging buffers; the default
/// one (the analytical executor) only accounts bytes. Either way a transfer
/// without a payload — a table upload — is accounted and copies nothing.
#[derive(Debug, Default)]
pub(crate) struct BackendLedger {
    stores_payloads: bool,
    state: Mutex<LedgerState>,
}

impl BackendLedger {
    /// A ledger that copies payloads through staging buffers.
    fn storing_payloads() -> Self {
        Self {
            stores_payloads: true,
            state: Mutex::default(),
        }
    }

    pub(crate) fn alloc(&self, bytes: u64) -> ResidentAllocation {
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.live.insert(
            id,
            LiveAllocation {
                bytes,
                staging: None,
            },
        );
        state.stats.allocs += 1;
        state.stats.resident_bytes += bytes;
        state.stats.peak_resident_bytes = state
            .stats
            .peak_resident_bytes
            .max(state.stats.resident_bytes);
        ResidentAllocation { id, bytes }
    }

    /// Record (and for payload-storing ledgers, perform) a host→device copy.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not live on this backend or the payload exceeds the
    /// allocation — both would be memory-safety bugs on a real device.
    pub(crate) fn upload(
        &self,
        dst: &ResidentAllocation,
        kind: TransferKind,
        src: TransferSrc<'_>,
    ) {
        let len = src.len_bytes();
        let mut state = self.state.lock();
        let live = state
            .live
            .get_mut(&dst.id)
            .unwrap_or_else(|| panic!("upload to freed or foreign allocation #{}", dst.id));
        assert!(
            len <= live.bytes,
            "upload of {len} bytes overflows {}-byte allocation #{}",
            live.bytes,
            dst.id
        );
        if self.stores_payloads {
            live.stage(src);
        }
        state.stats.uploads += 1;
        state.stats.upload_bytes += len;
        if kind == TransferKind::Table {
            state.stats.table_upload_bytes += len;
        }
    }

    /// Record (and for payload-storing ledgers, perform) a device→host copy.
    ///
    /// Payload-storing ledgers first copy `produced` into the allocation's
    /// staging buffer (the kernel "wrote" device memory) and then return the
    /// staged bytes — the round trip the caller can verify bit-for-bit.
    pub(crate) fn download(
        &self,
        src: &ResidentAllocation,
        produced: TransferSrc<'_>,
    ) -> Option<Vec<u8>> {
        let len = produced.len_bytes();
        let mut state = self.state.lock();
        let live = state
            .live
            .get_mut(&src.id)
            .unwrap_or_else(|| panic!("download from freed or foreign allocation #{}", src.id));
        assert!(
            len <= live.bytes,
            "download of {len} bytes overflows {}-byte allocation #{}",
            live.bytes,
            src.id
        );
        let out = self.stores_payloads.then(|| {
            live.stage(produced);
            // Never-written device memory reads as zero.
            live.staging.as_ref().map_or_else(
                || vec![0; len as usize],
                |staging| staging[..len as usize].to_vec(),
            )
        });
        state.stats.downloads += 1;
        state.stats.download_bytes += len;
        out
    }

    pub(crate) fn free(&self, allocation: ResidentAllocation) {
        let mut state = self.state.lock();
        let live = state
            .live
            .remove(&allocation.id)
            .unwrap_or_else(|| panic!("double free of allocation #{}", allocation.id));
        state.stats.frees += 1;
        state.stats.resident_bytes -= live.bytes;
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

    /// Bytes of staging buffers currently held.
    #[cfg(test)]
    fn staged_bytes(&self) -> u64 {
        let state = self.state.lock();
        state
            .live
            .values()
            .filter_map(|live| live.staging.as_ref())
            .map(|staging| staging.len() as u64)
            .sum()
    }
}

/// The full device lifecycle a PIR batch dispatch needs, as one trait.
///
/// Implementors: the analytical [`GpuExecutor`](crate::GpuExecutor) and the
/// measured [`HostBackend`]; a real CUDA/Metal/wgpu backend slots in by
/// implementing these same nine operations over a device context (see the
/// README's "Device backends & table residency" section for the mapping onto
/// `cudaMalloc`/`cudaMemcpy`/launch/`cudaMemcpyD2H`/`cudaFree`).
pub trait DeviceBackend: Send + Sync {
    /// Human-readable backend name (telemetry, ledger printouts).
    fn name(&self) -> &str;

    /// The device this backend drives.
    fn device(&self) -> &DeviceSpec;

    /// Whether uploads must carry real payloads (`Bytes`/`Lanes`).
    ///
    /// Accounting-only backends return `false`, letting callers pass
    /// [`TransferSrc::Opaque`] instead of serializing data nobody will read.
    fn stores_payloads(&self) -> bool;

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

    /// Copy `produced` out of `src` (device→host).
    ///
    /// Backends that store payloads return the staged bytes (so callers can
    /// consume the round-tripped data and prove the copies honest);
    /// accounting-only backends return `None`.
    fn download(&self, src: &ResidentAllocation, produced: TransferSrc<'_>) -> Option<Vec<u8>>;

    /// Release an allocation.
    fn free(&self, allocation: ResidentAllocation);

    /// Snapshot of the backend's allocation/transfer ledger.
    fn stats(&self) -> BackendStats;
}

fn reduce_wrapping(ledger: &BackendLedger, accumulator: &mut [u32], partial: &[u32]) {
    assert_eq!(
        accumulator.len(),
        partial.len(),
        "reduce over mismatched lane counts"
    );
    for (acc, add) in accumulator.iter_mut().zip(partial) {
        *acc = acc.wrapping_add(*add);
    }
    ledger.count_reduced_lanes(partial.len() as u64);
}

impl DeviceBackend for crate::GpuExecutor {
    fn name(&self) -> &str {
        "simulated"
    }

    fn device(&self) -> &DeviceSpec {
        crate::GpuExecutor::device(self)
    }

    fn stores_payloads(&self) -> bool {
        false
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
        reduce_wrapping(&self.ledger, accumulator, partial);
    }

    fn download(&self, src: &ResidentAllocation, produced: TransferSrc<'_>) -> Option<Vec<u8>> {
        self.ledger.download(src, produced)
    }

    fn free(&self, allocation: ResidentAllocation) {
        self.ledger.free(allocation);
    }

    fn stats(&self) -> BackendStats {
        self.ledger.stats()
    }
}

/// The measured in-process backend: real memcpys, no cost model.
///
/// Kernels execute functionally on host threads exactly as under the
/// analytical executor (same block runner, same counters), but every
/// reported time is the measured host wall clock and every payload upload or
/// download physically copies bytes through a per-allocation staging buffer
/// (a table upload carries no payload and copies nothing). The
/// [`DeviceSpec`] is used only for launch-geometry legality (occupancy
/// asserts), defaulting to the V100 so grids match the simulated backend.
#[derive(Debug)]
pub struct HostBackend {
    device: DeviceSpec,
    host_threads: usize,
    ledger: BackendLedger,
}

impl HostBackend {
    /// A host backend validating launch geometry against `device`, using all
    /// available host cores.
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        Self::with_host_threads(device, host_threads)
    }

    /// A host backend with at most `host_threads` workers per launch
    /// (deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `host_threads` is zero.
    #[must_use]
    pub fn with_host_threads(device: DeviceSpec, host_threads: usize) -> Self {
        assert!(host_threads > 0, "need at least one host thread");
        Self {
            device,
            host_threads,
            ledger: BackendLedger::storing_payloads(),
        }
    }
}

impl Default for HostBackend {
    fn default() -> Self {
        Self::new(DeviceSpec::v100())
    }
}

impl DeviceBackend for HostBackend {
    fn name(&self) -> &str {
        "host"
    }

    fn device(&self) -> &DeviceSpec {
        &self.device
    }

    fn stores_payloads(&self) -> bool {
        true
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
        let occupancy = OccupancyEstimate::estimate(&self.device, &config);
        let counters = KernelCounters::new();
        let memory = MemoryTracker::new();
        memory.set_resident(resident.iter().map(|a| a.bytes()).sum());

        let wall_s =
            crate::executor::run_blocks(config, self.host_threads, &counters, &memory, kernel);

        // Measured, not modelled: the whole wall time is attributed to
        // compute and there is no launch-overhead or bandwidth term.
        let time = crate::cost::TimeBreakdown {
            compute_s: wall_s,
            memory_s: 0.0,
            launch_overhead_s: 0.0,
            total_s: wall_s,
        };
        KernelReport {
            name: name.to_string(),
            config,
            counters: counters.snapshot(),
            occupancy,
            time,
            estimated_time_s: wall_s,
            peak_memory_bytes: memory.peak(),
            host_wall_time_s: wall_s,
            prf_backend: String::new(),
        }
    }

    fn reduce(&self, accumulator: &mut [u32], partial: &[u32]) {
        reduce_wrapping(&self.ledger, accumulator, partial);
    }

    fn download(&self, src: &ResidentAllocation, produced: TransferSrc<'_>) -> Option<Vec<u8>> {
        self.ledger.download(src, produced)
    }

    fn free(&self, allocation: ResidentAllocation) {
        self.ledger.free(allocation);
    }

    fn stats(&self) -> BackendStats {
        self.ledger.stats()
    }
}

/// Which in-tree [`DeviceBackend`] a server should drive.
///
/// This is the selection knob threaded from `pir-serve`'s `TableConfig`
/// down to replica construction; a real accelerator backend would add a
/// variant here (plus the trait impl) and nothing above the seam changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The analytical cost-model executor ([`GpuExecutor`](crate::GpuExecutor)).
    #[default]
    Simulated,
    /// The measured in-process [`HostBackend`].
    Host,
}

impl BackendKind {
    /// Construct the backend for `device`.
    #[must_use]
    pub fn build(self, device: DeviceSpec) -> Box<dyn DeviceBackend> {
        match self {
            BackendKind::Simulated => Box::new(crate::GpuExecutor::new(device)),
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
                Box::new(crate::GpuExecutor::with_host_threads(device, host_threads))
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
    use crate::{BlockContext, GpuExecutor};

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
            backend.upload_table(&table, TransferSrc::Lanes(&[7u32; 16]));
            backend.upload_keys(&keys, TransferSrc::Opaque(16));
            let report = backend.launch(
                "noop",
                LaunchConfig::linear(4, 32),
                &[&table, &keys],
                &|block: &BlockContext<'_>| {
                    block.counters().record_flops(1);
                },
            );
            assert!(report.peak_memory_bytes >= 80, "{}", backend.name());
            let _ = backend.download(&table, TransferSrc::Opaque(8));
            backend.free(keys);
            backend.free(table);

            let stats = backend.stats();
            assert_eq!(stats.allocs, 2, "{}", backend.name());
            assert_eq!(stats.frees, 2);
            assert_eq!(stats.live_allocations(), 0);
            assert_eq!(stats.resident_bytes, 0);
            assert_eq!(stats.peak_resident_bytes, 80);
            assert_eq!(stats.uploads, 2);
            assert_eq!(stats.upload_bytes, 80);
            assert_eq!(stats.table_upload_bytes, 64);
            assert_eq!(stats.downloads, 1);
            assert_eq!(stats.download_bytes, 8);
            assert_eq!(stats.launches, 1);
        }
    }

    #[test]
    fn host_backend_round_trips_payloads() {
        let backend = HostBackend::with_host_threads(DeviceSpec::v100(), 1);
        let alloc = backend.alloc(12);
        backend.upload(&alloc, TransferKind::Keys, TransferSrc::Bytes(&[1, 2, 3]));
        let lanes = [0x0403_0201u32, 0x0807_0605, 0x0c0b_0a09];
        let out = backend
            .download(&alloc, TransferSrc::Lanes(&lanes))
            .expect("host backend stores payloads");
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        backend.free(alloc);
    }

    #[test]
    fn a_table_upload_stages_nothing_but_is_accounted() {
        let backend = HostBackend::with_host_threads(DeviceSpec::v100(), 1);
        let table = backend.alloc(1 << 20);
        backend.upload_table(&table, TransferSrc::Opaque(1 << 20));
        assert_eq!(backend.ledger.staged_bytes(), 0);
        let stats = backend.stats();
        assert_eq!(stats.uploads, 1);
        assert_eq!(stats.upload_bytes, 1 << 20);
        assert_eq!(stats.table_upload_bytes, 1 << 20);
        assert_eq!(stats.resident_bytes, 1 << 20);

        // Keys and outputs still round-trip byte-exact, staged on first write.
        let keys = backend.alloc(6);
        backend.upload_keys(&keys, TransferSrc::Bytes(&[1, 2, 3, 4, 5, 6]));
        assert_eq!(backend.ledger.staged_bytes(), 6);
        let round_trip = backend.download(&keys, TransferSrc::Opaque(6));
        assert_eq!(round_trip.as_deref(), Some(&[1u8, 2, 3, 4, 5, 6][..]));
        let output = backend.alloc(8);
        let lanes = [0xdead_beef_u32, 7];
        let out = backend.download(&output, TransferSrc::Lanes(&lanes));
        assert_eq!(
            out,
            Some([0xdead_beef_u32.to_le_bytes(), 7u32.to_le_bytes()].concat())
        );
        assert_eq!(backend.ledger.staged_bytes(), 6 + 8);
        // Never-written memory downloads as zeros.
        assert_eq!(
            backend.download(&table, TransferSrc::Opaque(4)),
            Some(vec![0; 4])
        );
        assert_eq!(backend.ledger.staged_bytes(), 6 + 8);
        for alloc in [table, keys, output] {
            backend.free(alloc);
        }
        assert_eq!(backend.ledger.staged_bytes(), 0);
    }

    #[test]
    fn simulated_backend_only_accounts() {
        let backend = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
        let alloc = DeviceBackend::alloc(&backend, 8);
        DeviceBackend::upload(
            &backend,
            &alloc,
            TransferKind::Output,
            TransferSrc::Bytes(&[9; 8]),
        );
        assert!(backend.download(&alloc, TransferSrc::Opaque(8)).is_none());
        assert!(!DeviceBackend::stores_payloads(&backend));
        DeviceBackend::free(&backend, alloc);
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
        backend.upload(&alloc, TransferKind::Table, TransferSrc::Bytes(&[0; 8]));
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
