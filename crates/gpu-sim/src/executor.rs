//! Functional execution of kernels on a host thread pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::{
    BlockRange, CostModel, DeviceSpec, Kernel, KernelCounters, KernelReport, LaunchConfig,
    MemoryTracker, OccupancyEstimate,
};

/// Most blocks one host worker takes at a time: the GPU analogue is the
/// handful of blocks an SM holds resident together, sharing its L2.
const RANGE_BLOCKS: u64 = 8;

/// Blocks per range of a `total_blocks` launch over `workers` workers:
/// `min(8, ceil(total_blocks / workers))`, at least one. With the worker
/// count of [`run_blocks`] this is a function of the public launch shape and
/// the host thread count only: a launch of at most eight blocks is one range
/// (a lone query a range of one block), and a larger one is cut into ranges
/// of `ceil(total_blocks / workers)` blocks, eight at most.
fn range_blocks(total_blocks: u64, workers: usize) -> u64 {
    total_blocks.div_ceil(workers as u64).clamp(1, RANGE_BLOCKS)
}

/// Run every block of `config` over `min(host_threads, ceil(total_blocks /
/// 8))` workers — the caller, plus one scoped thread for each further eight
/// blocks or part of eight, so a launch of at most eight blocks spawns no
/// thread — each taking contiguous ranges of [`range_blocks`] blocks from a
/// work-stealing index and running them through [`Kernel::execute_range`],
/// recording into the shared `counters`/`memory`.
///
/// Returns the host wall-clock seconds the sweep took. Both device backends
/// share this exact loop — the analytical [`GpuExecutor`] and the measured
/// [`crate::HostBackend`] — so their functional execution (and therefore
/// every counter a kernel records) is identical by construction; only the
/// time attribution differs.
pub(crate) fn run_blocks(
    config: LaunchConfig,
    host_threads: usize,
    counters: &KernelCounters,
    memory: &MemoryTracker,
    kernel: &dyn Kernel,
) -> f64 {
    let total_blocks = config.total_blocks();
    let next_block = AtomicU64::new(0);
    let start = Instant::now();

    // A helper is spawned only for a further eight blocks: spawning and
    // joining a thread costs more CPU than a few blocks of a small batch.
    let workers = host_threads.min(total_blocks.div_ceil(RANGE_BLOCKS).max(1) as usize);
    let range_len = range_blocks(total_blocks, workers);
    let work = || loop {
        let first = next_block.fetch_add(range_len, Ordering::Relaxed);
        if first >= total_blocks {
            break;
        }
        let end = (first + range_len).min(total_blocks);
        kernel.execute_range(&BlockRange::new(first..end, config, counters, memory));
    };
    // The launching thread is one of the workers: a launch of at most eight
    // blocks (a lone query included) spawns nothing and joins nothing, and a
    // serving thread's launches keep allocating from that thread's own heap
    // instead of a fresh thread's.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    start.elapsed().as_secs_f64()
}

/// Executes simulated kernels and produces [`KernelReport`]s.
///
/// Blocks of a launch are distributed over host worker threads in contiguous
/// ranges of at most eight blocks from a work-stealing index, one worker per
/// eight blocks or part of eight up to the host thread count, so a launch of
/// at most eight blocks runs on the launching thread alone. This parallelism
/// only accelerates the *simulation*; the modelled GPU time comes from the
/// cost model.
#[derive(Debug)]
pub struct GpuExecutor {
    device: DeviceSpec,
    cost_model: CostModel,
    host_threads: usize,
    /// Allocation/transfer ledger backing the [`crate::DeviceBackend`]
    /// implementation; launches made through the plain inherent methods do
    /// not touch it.
    pub(crate) ledger: crate::backend::BackendLedger,
}

impl GpuExecutor {
    /// Create an executor for `device` using all available host cores for the
    /// functional simulation.
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        Self::with_host_threads(device, host_threads)
    }

    /// Create an executor with an explicit host thread count (useful for
    /// deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `host_threads` is zero.
    #[must_use]
    pub fn with_host_threads(device: DeviceSpec, host_threads: usize) -> Self {
        assert!(host_threads > 0, "need at least one host thread");
        let cost_model = CostModel::new(device.clone());
        Self {
            device,
            cost_model,
            host_threads,
            ledger: crate::backend::BackendLedger::default(),
        }
    }

    /// Most host worker threads one launch uses for the functional
    /// simulation.
    #[must_use]
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// The simulated device.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Launch `kernel` with `config`, running every block functionally and
    /// returning the combined report.
    ///
    /// # Panics
    ///
    /// Panics if the launch geometry is invalid for the device (propagated
    /// from [`OccupancyEstimate::estimate`]), mirroring a CUDA launch failure.
    pub fn launch<K>(&self, name: &str, config: LaunchConfig, kernel: K) -> KernelReport
    where
        K: Kernel,
    {
        self.launch_with_resident_memory(name, config, 0, kernel)
    }

    /// Launch a kernel that keeps `resident_bytes` of device memory (the
    /// embedding table, key buffers, output buffers) allocated for its whole
    /// duration, in addition to whatever scratch the kernel tracks itself.
    pub fn launch_with_resident_memory<K>(
        &self,
        name: &str,
        config: LaunchConfig,
        resident_bytes: u64,
        kernel: K,
    ) -> KernelReport
    where
        K: Kernel,
    {
        self.launch_dyn(name, config, resident_bytes, &kernel)
    }

    /// [`GpuExecutor::launch_with_resident_memory`] behind the object-safe
    /// [`crate::DeviceBackend::launch`], keeping the kernel's own
    /// [`Kernel::execute_range`].
    pub(crate) fn launch_dyn(
        &self,
        name: &str,
        config: LaunchConfig,
        resident_bytes: u64,
        kernel: &dyn Kernel,
    ) -> KernelReport {
        let occupancy = OccupancyEstimate::estimate(&self.device, &config);
        let counters = KernelCounters::new();
        let memory = MemoryTracker::new();
        memory.set_resident(resident_bytes);

        let host_wall_time_s = run_blocks(config, self.host_threads, &counters, &memory, kernel);
        let snapshot = counters.snapshot();
        let time = self.cost_model.kernel_time(&snapshot, &occupancy);

        KernelReport {
            name: name.to_string(),
            config,
            counters: snapshot,
            occupancy,
            time,
            estimated_time_s: time.total_s,
            peak_memory_bytes: memory.peak(),
            host_wall_time_s,
            prf_backend: String::new(),
        }
    }
}

impl Default for GpuExecutor {
    fn default() -> Self {
        Self::new(DeviceSpec::v100())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockContext;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    #[test]
    fn every_block_executes_exactly_once() {
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);
        let config = LaunchConfig::linear(257, 64);
        let executed = StdAtomicU64::new(0);
        let seen_mask: Vec<StdAtomicU64> = (0..257).map(|_| StdAtomicU64::new(0)).collect();

        let report = executor.launch("count_blocks", config, |block: &BlockContext<'_>| {
            executed.fetch_add(1, Ordering::Relaxed);
            seen_mask[block.block_index() as usize].fetch_add(1, Ordering::Relaxed);
            block.counters().record_flops(1);
        });

        assert_eq!(executed.load(Ordering::Relaxed), 257);
        assert!(seen_mask.iter().all(|b| b.load(Ordering::Relaxed) == 1));
        assert_eq!(report.counters.flops, 257);
        assert!(report.estimated_time_s > 0.0);
    }

    /// Counts how often each block runs, the ranges and their longest length,
    /// and the threads that ran them.
    struct RangeProbe {
        runs: Vec<StdAtomicU64>,
        ranges: StdAtomicU64,
        longest_range: StdAtomicU64,
        threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl RangeProbe {
        fn new(blocks: u32) -> Self {
            Self {
                runs: (0..blocks).map(|_| StdAtomicU64::new(0)).collect(),
                ranges: StdAtomicU64::new(0),
                longest_range: StdAtomicU64::new(0),
                threads: std::sync::Mutex::default(),
            }
        }
    }

    impl Kernel for RangeProbe {
        fn execute_block(&self, block: &BlockContext<'_>) {
            self.runs[block.block_index() as usize].fetch_add(1, Ordering::Relaxed);
        }

        fn execute_range(&self, range: &BlockRange<'_>) {
            let len = range.indices().end - range.indices().start;
            self.ranges.fetch_add(1, Ordering::Relaxed);
            self.longest_range.fetch_max(len, Ordering::Relaxed);
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            for index in range.indices() {
                self.execute_block(&range.block(index));
            }
        }
    }

    #[test]
    fn every_block_runs_once_in_ranges_of_the_public_shape() {
        for threads in 1..=4usize {
            for blocks in 1..=40u32 {
                let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), threads);
                let probe = RangeProbe::new(blocks);
                executor.launch_dyn("ranges", LaunchConfig::linear(blocks, 32), 0, &probe);
                let what = format!("{blocks} blocks on {threads} threads");
                assert!(
                    probe.runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "{what}"
                );
                // One worker per eight blocks or part of eight, capped at the
                // host threads; ranges of ceil(blocks / workers), eight at most.
                let blocks = u64::from(blocks);
                let workers = (threads as u64).min(blocks.div_ceil(8));
                let range = blocks.div_ceil(workers).min(8);
                assert_eq!(probe.longest_range.load(Ordering::Relaxed), range, "{what}");
                assert_eq!(
                    probe.ranges.load(Ordering::Relaxed),
                    blocks.div_ceil(range),
                    "{what}"
                );
                let used = probe.threads.lock().unwrap().len() as u64;
                assert!((1..=workers).contains(&used), "{what}: {used} threads");
            }
        }
    }

    /// Each range waits, up to 5 s, until two ranges have started: two
    /// workers then run one range each, however the threads are scheduled.
    struct Rendezvous {
        probe: RangeProbe,
        started: StdAtomicU64,
    }

    impl Kernel for Rendezvous {
        fn execute_block(&self, block: &BlockContext<'_>) {
            self.probe.execute_block(block);
        }

        fn execute_range(&self, range: &BlockRange<'_>) {
            self.started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            while self.started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            self.probe.execute_range(range);
        }
    }

    #[test]
    fn a_worker_is_spawned_only_for_a_further_eight_blocks() {
        let launcher = std::thread::current().id();
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);
        for blocks in 1..=8u32 {
            let probe = RangeProbe::new(blocks);
            executor.launch_dyn("small", LaunchConfig::linear(blocks, 32), 0, &probe);
            assert_eq!(probe.ranges.load(Ordering::Relaxed), 1, "{blocks} blocks");
            assert_eq!(
                probe.threads.into_inner().unwrap(),
                [launcher].into(),
                "{blocks} blocks run on the launching thread"
            );
        }

        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 2);
        let kernel = Rendezvous {
            probe: RangeProbe::new(16),
            started: StdAtomicU64::new(0),
        };
        executor.launch_dyn("two_ranges", LaunchConfig::linear(16, 32), 0, &kernel);
        let threads = kernel.probe.threads.into_inner().unwrap();
        assert_eq!(threads.len(), 2, "16 blocks on 2 threads use both");
        assert!(threads.contains(&launcher));
    }

    #[test]
    fn resident_memory_is_reported() {
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 2);
        let report = executor.launch_with_resident_memory(
            "resident",
            LaunchConfig::linear(2, 32),
            1_000_000,
            |block: &BlockContext<'_>| {
                block.memory().alloc(500);
                block.memory().release(500);
            },
        );
        assert!(report.peak_memory_bytes >= 1_000_000);
        assert!(report.peak_memory_bytes <= 1_001_000);
    }

    #[test]
    fn report_reflects_recorded_prf_work() {
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 2);
        let report = executor.launch(
            "prf_heavy",
            LaunchConfig::linear(16, 128),
            |block: &BlockContext<'_>| {
                block.counters().record_prf_calls(1_000, 2_000);
            },
        );
        assert_eq!(report.counters.prf_calls, 16_000);
        assert_eq!(report.counters.prf_cycles, 32_000_000);
        assert!(report.time.compute_s > 0.0);
        assert!(report.utilization() > 0.0);
    }

    #[test]
    fn bigger_grids_do_not_lower_utilization() {
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 2);
        let small = executor.launch(
            "small",
            LaunchConfig::linear(4, 256),
            |_: &BlockContext<'_>| {},
        );
        let large = executor.launch(
            "large",
            LaunchConfig::linear(640, 256),
            |_: &BlockContext<'_>| {},
        );
        assert!(large.utilization() >= small.utilization());
    }
}
