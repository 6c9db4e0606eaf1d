//! Hardware descriptions: the simulated GPU and the modelled CPUs.

use serde::{Deserialize, Serialize};

/// Description of a CUDA-style GPU used by the cost model.
///
/// The default, [`DeviceSpec::v100`], matches the NVIDIA V100 (SXM2 16 GB)
/// used throughout the paper's evaluation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA V100"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores (32-bit ALU lanes) per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global (HBM) memory capacity in bytes.
    pub memory_bytes: u64,
    /// Global memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Warp width in threads.
    pub warp_size: u32,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Instruction issue efficiency (fraction of peak sustained by real
    /// integer-heavy kernels; captures dual-issue limits, bank conflicts etc.).
    pub issue_efficiency: f64,
    /// Host↔device interconnect bandwidth in GB/s (PCIe for the paper's
    /// V100). This is the term that makes table re-uploads expensive and
    /// keeping tables resident worthwhile: at 16 GB/s a 16 GB table
    /// costs a full second to move, ~60x its one-pass HBM read.
    pub host_link_gbps: f64,
}

impl DeviceSpec {
    /// The NVIDIA V100 (SXM2, 16 GB) the paper evaluates on.
    #[must_use]
    pub fn v100() -> Self {
        Self {
            name: "NVIDIA V100 (simulated)".to_string(),
            num_sms: 80,
            cores_per_sm: 64,
            clock_ghz: 1.53,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            memory_bandwidth_gbps: 900.0,
            shared_mem_per_sm: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            launch_overhead_us: 10.0,
            issue_efficiency: 0.55,
            host_link_gbps: 16.0,
        }
    }

    /// An A100-class device, used to sanity-check that the kernels scale with
    /// a bigger GPU (not part of the paper's evaluation).
    #[must_use]
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100 (simulated)".to_string(),
            num_sms: 108,
            cores_per_sm: 64,
            clock_ghz: 1.41,
            memory_bytes: 40 * 1024 * 1024 * 1024,
            memory_bandwidth_gbps: 1555.0,
            shared_mem_per_sm: 164 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            launch_overhead_us: 10.0,
            issue_efficiency: 0.55,
            host_link_gbps: 25.0,
        }
    }

    /// Total ALU lanes across the device.
    #[must_use]
    pub fn total_cores(&self) -> u64 {
        u64::from(self.num_sms) * u64::from(self.cores_per_sm)
    }

    /// Peak integer operation throughput in ops/second.
    #[must_use]
    pub fn peak_ops_per_second(&self) -> f64 {
        self.total_cores() as f64 * self.clock_ghz * 1e9
    }

    /// Memory bandwidth in bytes/second.
    #[must_use]
    pub fn bandwidth_bytes_per_second(&self) -> f64 {
        self.memory_bandwidth_gbps * 1e9
    }

    /// Host↔device interconnect bandwidth in bytes/second.
    #[must_use]
    pub fn host_link_bytes_per_second(&self) -> f64 {
        self.host_link_gbps * 1e9
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::v100()
    }
}

/// Description of a CPU used for the baseline server and the client device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Number of physical cores.
    pub cores: u32,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// Whether the CPU has AES-NI style crypto acceleration.
    pub has_aes_ni: bool,
    /// Memory bandwidth in GB/s (per socket).
    pub memory_bandwidth_gbps: f64,
}

impl CpuSpec {
    /// The Intel Xeon Gold 6230 (28 cores @ 2.1 GHz) hosting the paper's CPU
    /// baseline.
    #[must_use]
    pub fn xeon_gold_6230() -> Self {
        Self {
            name: "Intel Xeon Gold 6230 (modelled)".to_string(),
            cores: 28,
            clock_ghz: 2.1,
            has_aes_ni: true,
            memory_bandwidth_gbps: 140.0,
        }
    }

    /// The Intel Core i3 client CPU the paper uses to measure `Gen` and
    /// on-device DNN latency.
    #[must_use]
    pub fn client_core_i3() -> Self {
        Self {
            name: "Intel Core i3 client (modelled)".to_string(),
            cores: 2,
            clock_ghz: 2.1,
            has_aes_ni: true,
            memory_bandwidth_gbps: 30.0,
        }
    }

    /// Cycles available per second across `threads` active threads (capped at
    /// the core count; hyper-threading is ignored, matching how the baseline
    /// scales in the paper's Table 4).
    #[must_use]
    pub fn cycles_per_second(&self, threads: u32) -> f64 {
        f64::from(threads.min(self.cores)) * self.clock_ghz * 1e9
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::xeon_gold_6230()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_shape() {
        let v100 = DeviceSpec::v100();
        assert_eq!(v100.total_cores(), 5120);
        assert!((v100.peak_ops_per_second() - 5120.0 * 1.53e9).abs() < 1.0);
        assert_eq!(v100.memory_bytes, 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn default_is_v100() {
        assert_eq!(DeviceSpec::default(), DeviceSpec::v100());
    }

    #[test]
    fn a100_is_bigger_than_v100() {
        let (a, v) = (DeviceSpec::a100(), DeviceSpec::v100());
        assert!(a.total_cores() > v.total_cores());
        assert!(a.memory_bandwidth_gbps > v.memory_bandwidth_gbps);
        assert!(a.host_link_gbps > v.host_link_gbps);
    }

    #[test]
    fn host_link_is_much_slower_than_hbm() {
        let v100 = DeviceSpec::v100();
        assert!((v100.host_link_bytes_per_second() - 16e9).abs() < 1.0);
        assert!(v100.host_link_bytes_per_second() * 10.0 < v100.bandwidth_bytes_per_second());
    }

    #[test]
    fn cpu_thread_scaling_caps_at_core_count() {
        let xeon = CpuSpec::xeon_gold_6230();
        assert!((xeon.cycles_per_second(1) - 2.1e9).abs() < 1.0);
        assert!((xeon.cycles_per_second(28) - 28.0 * 2.1e9).abs() < 1.0);
        assert!((xeon.cycles_per_second(64) - xeon.cycles_per_second(28)).abs() < 1.0);
    }

    #[test]
    fn client_cpu_is_smaller_than_server() {
        assert!(CpuSpec::client_core_i3().cores < CpuSpec::xeon_gold_6230().cores);
    }
}
