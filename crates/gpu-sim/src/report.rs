//! Post-launch reports combining counters, occupancy and estimated time.

use serde::{Deserialize, Serialize};

use crate::cost::TimeBreakdown;
use crate::{CounterSnapshot, LaunchConfig, OccupancyEstimate};

/// Everything known about one simulated kernel launch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// Name given to the launch (for logging / benchmark output).
    pub name: String,
    /// The launch geometry.
    pub config: LaunchConfig,
    /// Hardware events recorded during execution.
    pub counters: CounterSnapshot,
    /// Occupancy-derived utilization of the device.
    pub occupancy: OccupancyEstimate,
    /// Estimated execution time breakdown on the simulated device.
    pub time: TimeBreakdown,
    /// Total estimated execution time in seconds (convenience copy of
    /// `time.total_s`).
    pub estimated_time_s: f64,
    /// Peak simulated device memory (scratch + resident) in bytes.
    pub peak_memory_bytes: u64,
    /// Wall-clock seconds the functional simulation took on the host (useful
    /// for judging simulation cost, not part of the model).
    pub host_wall_time_s: f64,
    /// Host SIMD backend that executed the PRF sweeps (`"scalar"`, `"avx2"`,
    /// `"avx2+vaes"` for AES on ymm VAES, `"avx2+avx512"` for a zmm PRF
    /// kernel, or `"neon"`); empty when the launch did not involve PRF work.
    #[serde(default)]
    pub prf_backend: String,
}

impl KernelReport {
    /// Achieved utilization of the simulated device (0..1).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.occupancy.achieved_utilization
    }

    /// Queries per second if this launch served `batch` queries.
    #[must_use]
    pub fn throughput_qps(&self, batch: u64) -> f64 {
        if self.estimated_time_s <= 0.0 {
            return 0.0;
        }
        batch as f64 / self.estimated_time_s
    }

    /// Estimated latency in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.estimated_time_s * 1e3
    }

    /// Merge another report that was part of the same logical job (e.g. a
    /// second kernel of a multi-kernel pipeline), summing counters and times
    /// and taking the max of memory peaks.
    #[must_use]
    pub fn merged_with(&self, other: &Self) -> Self {
        let counters = self.counters.combined(&other.counters);
        let time = TimeBreakdown {
            compute_s: self.time.compute_s + other.time.compute_s,
            memory_s: self.time.memory_s + other.time.memory_s,
            launch_overhead_s: self.time.launch_overhead_s + other.time.launch_overhead_s,
            total_s: self.time.total_s + other.time.total_s,
        };
        Self {
            name: format!("{}+{}", self.name, other.name),
            config: self.config,
            counters,
            occupancy: self.occupancy,
            time,
            estimated_time_s: time.total_s,
            peak_memory_bytes: self.peak_memory_bytes.max(other.peak_memory_bytes),
            host_wall_time_s: self.host_wall_time_s + other.host_wall_time_s,
            prf_backend: if self.prf_backend.is_empty() {
                other.prf_backend.clone()
            } else {
                self.prf_backend.clone()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;

    fn dummy_report(name: &str, total_s: f64, peak: u64) -> KernelReport {
        let config = LaunchConfig::linear(1, 32);
        let occupancy = OccupancyEstimate::estimate(&DeviceSpec::v100(), &config);
        let time = TimeBreakdown {
            compute_s: total_s,
            memory_s: 0.0,
            launch_overhead_s: 0.0,
            total_s,
        };
        KernelReport {
            name: name.to_string(),
            config,
            counters: CounterSnapshot::default(),
            occupancy,
            time,
            estimated_time_s: total_s,
            peak_memory_bytes: peak,
            host_wall_time_s: 0.0,
            prf_backend: String::new(),
        }
    }

    #[test]
    fn throughput_and_latency() {
        let report = dummy_report("k", 0.002, 0);
        assert!((report.throughput_qps(512) - 256_000.0).abs() < 1.0);
        assert!((report.latency_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merged_reports_sum_time_and_max_memory() {
        let a = dummy_report("a", 0.001, 100);
        let b = dummy_report("b", 0.003, 50);
        let merged = a.merged_with(&b);
        assert!((merged.estimated_time_s - 0.004).abs() < 1e-12);
        assert_eq!(merged.peak_memory_bytes, 100);
        assert_eq!(merged.name, "a+b");
    }
}
