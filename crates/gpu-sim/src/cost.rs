//! Analytic cost model converting counters into execution time.

use serde::{Deserialize, Serialize};

use crate::{CounterSnapshot, DeviceSpec, OccupancyEstimate};

/// Cycles charged for a block-level barrier.
const BLOCK_SYNC_CYCLES: u64 = 40;
/// Cycles charged for a cooperative grid-wide barrier (orders of magnitude
/// more expensive: it drains the whole device).
const GRID_SYNC_CYCLES: u64 = 4_000;

/// Breakdown of one kernel's estimated execution time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Seconds spent limited by arithmetic (PRF + ALU) throughput.
    pub compute_s: f64,
    /// Seconds spent limited by global-memory bandwidth.
    pub memory_s: f64,
    /// Fixed launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Final estimate: `max(compute, memory) + overhead`.
    pub total_s: f64,
}

/// Roofline-style analytic cost model for the simulated device.
///
/// Kernel time is the maximum of a compute term (cycles divided by the ALU
/// throughput the launch can actually sustain, i.e. peak × issue efficiency ×
/// achieved utilization) and a memory term (global bytes divided by HBM
/// bandwidth), plus a fixed launch overhead. This is deliberately simple: the
/// paper's conclusions rest on *relative* comparisons between strategies whose
/// counter profiles differ by orders of magnitude.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    device: DeviceSpec,
}

impl CostModel {
    /// Build a cost model for `device`.
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        Self { device }
    }

    /// The device this model describes.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Estimate the execution time of a kernel launch.
    #[must_use]
    pub fn kernel_time(
        &self,
        counters: &CounterSnapshot,
        occupancy: &OccupancyEstimate,
    ) -> TimeBreakdown {
        let sync_cycles =
            counters.block_syncs * BLOCK_SYNC_CYCLES + counters.grid_syncs * GRID_SYNC_CYCLES;
        let compute_cycles = counters.compute_cycles() + sync_cycles;

        let effective_ops = self.device.peak_ops_per_second()
            * self.device.issue_efficiency
            * occupancy.achieved_utilization.max(1e-6);
        let compute_s = compute_cycles as f64 / effective_ops;

        let memory_s = counters.global_bytes() as f64 / self.device.bandwidth_bytes_per_second();

        let launch_overhead_s = self.device.launch_overhead_us * 1e-6;
        let total_s = compute_s.max(memory_s) + launch_overhead_s;
        TimeBreakdown {
            compute_s,
            memory_s,
            launch_overhead_s,
            total_s,
        }
    }

    /// Queries per second for a batched kernel that serves `batch` queries per
    /// launch, given its estimated time.
    #[must_use]
    pub fn throughput_qps(batch: u64, time: &TimeBreakdown) -> f64 {
        if time.total_s <= 0.0 {
            return 0.0;
        }
        batch as f64 / time.total_s
    }

    /// Whether the kernel is compute-bound (as the paper observes DPF
    /// evaluation to be) rather than memory-bound.
    #[must_use]
    pub fn is_compute_bound(time: &TimeBreakdown) -> bool {
        time.compute_s >= time.memory_s
    }

    /// Seconds to move `bytes` across the host↔device link (one direction).
    ///
    /// This is the cost table residency avoids: every byte kept on the
    /// device across launches is a byte that never pays this (much slower
    /// than HBM) PCIe-class rate again.
    #[must_use]
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / self.device.host_link_bytes_per_second()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new(DeviceSpec::v100())
    }
}

/// Simple analytic model of a multi-core CPU running the baseline DPF.
///
/// `cycles` of work spread across `threads` threads at the CPU's clock,
/// plus a memory-bandwidth term for streaming the table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuCostModel {
    cpu: crate::CpuSpec,
}

impl CpuCostModel {
    /// Build a model for `cpu`.
    #[must_use]
    pub fn new(cpu: crate::CpuSpec) -> Self {
        Self { cpu }
    }

    /// The modelled CPU.
    #[must_use]
    pub fn cpu(&self) -> &crate::CpuSpec {
        &self.cpu
    }

    /// Estimate seconds to execute `compute_cycles` of per-thread-scalable work
    /// and `memory_bytes` of streaming traffic on `threads` threads.
    #[must_use]
    pub fn execution_time_s(&self, compute_cycles: u64, memory_bytes: u64, threads: u32) -> f64 {
        let compute_s = compute_cycles as f64 / self.cpu.cycles_per_second(threads);
        let memory_s = memory_bytes as f64 / (self.cpu.memory_bandwidth_gbps * 1e9);
        compute_s.max(memory_s)
    }
}

impl Default for CpuCostModel {
    fn default() -> Self {
        Self::new(crate::CpuSpec::xeon_gold_6230())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // counters are built up field by field
mod tests {
    use super::*;
    use crate::{CpuSpec, LaunchConfig};

    fn full_occupancy() -> OccupancyEstimate {
        OccupancyEstimate::estimate(&DeviceSpec::v100(), &LaunchConfig::linear(640, 256))
    }

    #[test]
    fn compute_bound_kernel_scales_with_cycles() {
        let model = CostModel::default();
        let occ = full_occupancy();
        let mut small = CounterSnapshot::default();
        small.prf_cycles = 1_000_000;
        small.prf_calls = 500;
        let mut large = small;
        large.prf_cycles = 10_000_000;

        let t_small = model.kernel_time(&small, &occ);
        let t_large = model.kernel_time(&large, &occ);
        assert!(t_large.compute_s > 9.0 * t_small.compute_s);
        assert!(CostModel::is_compute_bound(&t_small));
    }

    #[test]
    fn memory_bound_kernel_uses_bandwidth() {
        let model = CostModel::default();
        let occ = full_occupancy();
        let mut counters = CounterSnapshot::default();
        counters.global_read_bytes = 9_000_000_000; // 9 GB at 900 GB/s = 10 ms
        let time = model.kernel_time(&counters, &occ);
        assert!((time.memory_s - 0.01).abs() < 1e-6);
        assert!(!CostModel::is_compute_bound(&time));
        assert!(time.total_s >= 0.01);
    }

    #[test]
    fn lower_utilization_means_longer_compute() {
        let model = CostModel::default();
        let mut counters = CounterSnapshot::default();
        counters.prf_cycles = 100_000_000;
        let occ_full = full_occupancy();
        let occ_single =
            OccupancyEstimate::estimate(&DeviceSpec::v100(), &LaunchConfig::linear(1, 256));
        let t_full = model.kernel_time(&counters, &occ_full);
        let t_single = model.kernel_time(&counters, &occ_single);
        assert!(t_single.compute_s > 10.0 * t_full.compute_s);
    }

    #[test]
    fn grid_sync_is_more_expensive_than_block_sync() {
        let model = CostModel::default();
        let occ = full_occupancy();
        let mut with_block = CounterSnapshot::default();
        with_block.block_syncs = 100;
        let mut with_grid = CounterSnapshot::default();
        with_grid.grid_syncs = 100;
        assert!(
            model.kernel_time(&with_grid, &occ).compute_s
                > model.kernel_time(&with_block, &occ).compute_s
        );
    }

    #[test]
    fn throughput_is_batch_over_time() {
        let time = TimeBreakdown {
            compute_s: 0.001,
            memory_s: 0.0,
            launch_overhead_s: 0.0,
            total_s: 0.001,
        };
        assert!((CostModel::throughput_qps(512, &time) - 512_000.0).abs() < 1.0);
    }

    #[test]
    fn cpu_model_scales_with_threads() {
        let model = CpuCostModel::new(CpuSpec::xeon_gold_6230());
        let single = model.execution_time_s(2_100_000_000, 0, 1);
        let multi = model.execution_time_s(2_100_000_000, 0, 28);
        assert!((single - 1.0).abs() < 1e-9);
        assert!((multi - 1.0 / 28.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_model_respects_memory_bound() {
        let model = CpuCostModel::default();
        // 140 GB of traffic at 140 GB/s = 1 s regardless of threads.
        let t = model.execution_time_s(0, 140_000_000_000, 28);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_uses_the_host_link() {
        let model = CostModel::default();
        // 16 GB over a 16 GB/s link = 1 s.
        let t = model.transfer_time_s(16_000_000_000);
        assert!((t - 1.0).abs() < 1e-9);
        assert_eq!(model.transfer_time_s(0), 0.0);
    }
}
