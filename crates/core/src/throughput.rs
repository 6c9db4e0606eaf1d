//! Server-side throughput models for the GPU system and the CPU baseline.
//!
//! These analytic models turn a per-inference work profile (PRF calls and
//! table bytes, e.g. from a [`pir_protocol::CodesignPoint`]) into sustained
//! queries-per-second on the simulated V100 or the modelled Xeon baseline,
//! picking the batch size that maximizes throughput subject to the latency
//! and memory constraints — exactly the tuning loop behind the paper's
//! Figures 11/13–15 and Tables 3–4.

use gpu_sim::{CpuCostModel, CpuSpec, DeviceSpec};
use pir_prf::{PrfCost, PrfKind};
use pir_protocol::{Budget, CodesignPoint};
use serde::{Deserialize, Serialize};

/// One feasible operating point of a server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Sustained inferences (or queries) per second.
    pub qps: f64,
    /// Batch size used per kernel launch.
    pub batch: u64,
    /// Latency of one batched launch in milliseconds.
    pub latency_ms: f64,
    /// Fraction of the device kept busy.
    pub utilization: f64,
}

/// Analytic throughput model of the GPU PIR server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuThroughputModel {
    device: DeviceSpec,
    prf_cycles_per_block: u64,
}

impl GpuThroughputModel {
    /// Model a server with `prf` on the paper's V100.
    #[must_use]
    pub fn v100(prf: PrfKind) -> Self {
        Self::v100_costing(prf.cost())
    }

    /// Model a server on the paper's V100 running any PRF of the Table 5
    /// catalogue ([`pir_prf::TABLE5`]), executable or not.
    #[must_use]
    pub fn v100_costing(prf: PrfCost) -> Self {
        Self {
            device: DeviceSpec::v100(),
            prf_cycles_per_block: prf.gpu_cycles_per_block,
        }
    }

    /// Achieved utilization of the device for a given amount of independent
    /// parallel work.
    ///
    /// The DPF kernels expose parallelism both across queries (blocks) and
    /// within one query (tree nodes / leaf chunks), so a single query against
    /// a large table can already saturate the device — this is exactly the
    /// observation behind the cooperative-groups mode of §3.2.5. The model
    /// therefore needs a minimum amount of *total* work (leaves × batch) per
    /// ALU lane to reach full utilization, rather than a minimum batch size.
    fn utilization(&self, leaves_per_query: f64, batch: u64) -> f64 {
        const LEAVES_PER_LANE_FOR_FULL_UTILIZATION: f64 = 32.0;
        let total_work = leaves_per_query * batch as f64;
        let needed = self.device.total_cores() as f64 * LEAVES_PER_LANE_FOR_FULL_UTILIZATION;
        (total_work / needed).clamp(1e-4, 1.0)
    }

    /// Throughput at one specific batch size.
    #[must_use]
    pub fn at_batch(
        &self,
        prf_calls_per_inference: f64,
        bytes_per_inference: f64,
        batch: u64,
    ) -> ThroughputPoint {
        let leaves_per_query = (prf_calls_per_inference / 2.0).max(1.0);
        let utilization = self.utilization(leaves_per_query, batch);
        let prf_cycles = prf_calls_per_inference * batch as f64 * self.prf_cycles_per_block as f64;
        let effective_ops =
            self.device.peak_ops_per_second() * self.device.issue_efficiency * utilization;
        let compute_s = prf_cycles / effective_ops;
        // Batched queries against the same table amortize most of the table
        // traffic: the server multiplies the DPF outputs against the table as
        // one matrix-matrix product (§3.1), so the table is streamed once per
        // launch and only a fraction of it is re-fetched per additional query
        // (L2 / cache reuse).
        const UNCACHED_FRACTION_PER_EXTRA_QUERY: f64 = 0.125;
        let memory_bytes = bytes_per_inference
            * (1.0 + (batch.saturating_sub(1)) as f64 * UNCACHED_FRACTION_PER_EXTRA_QUERY);
        let memory_s = memory_bytes / self.device.bandwidth_bytes_per_second();
        let total_s = compute_s.max(memory_s) + self.device.launch_overhead_us * 1e-6;
        ThroughputPoint {
            qps: batch as f64 / total_s,
            batch,
            latency_ms: total_s * 1e3,
            utilization,
        }
    }

    /// The best operating point within a latency budget: scans batch sizes in
    /// powers of two and keeps the highest-QPS point whose batched latency
    /// stays within `budget.max_latency_ms`.
    #[must_use]
    pub fn best_within(
        &self,
        prf_calls_per_inference: f64,
        bytes_per_inference: f64,
        budget: &Budget,
    ) -> ThroughputPoint {
        let mut best = ThroughputPoint::default();
        let mut batch = 1u64;
        while batch <= 1 << 16 {
            let point = self.at_batch(prf_calls_per_inference, bytes_per_inference, batch);
            if point.latency_ms <= budget.max_latency_ms && point.qps > best.qps {
                best = point;
            }
            batch *= 2;
        }
        best
    }

    /// Convenience: throughput of a co-design operating point, using the
    /// point's PRF-call count and its table traffic.
    #[must_use]
    pub fn best_for_point(
        &self,
        point: &CodesignPoint,
        entry_bytes: usize,
        budget: &Budget,
    ) -> ThroughputPoint {
        let group_bytes = entry_bytes as f64 * (point.params.colocation_degree + 1) as f64;
        let bytes_per_inference = point.full_table_rows as f64 * group_bytes
            + point.hot_entries as f64 * group_bytes * point.params.q_hot as f64;
        self.best_within(point.prf_calls_per_inference, bytes_per_inference, budget)
    }
}

/// Analytic model of the multi-threaded CPU baseline's throughput.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuBaselineModel {
    cpu: CpuSpec,
    threads: u32,
    prf: PrfKind,
}

impl CpuBaselineModel {
    /// Model the paper's baseline: a Xeon Gold 6230 with `threads` threads
    /// running the AES-NI DPF.
    #[must_use]
    pub fn xeon(threads: u32, prf: PrfKind) -> Self {
        Self {
            cpu: CpuSpec::xeon_gold_6230(),
            threads,
            prf,
        }
    }

    /// Queries per second for a per-inference profile.
    #[must_use]
    pub fn qps(&self, prf_calls_per_inference: f64, bytes_per_inference: f64) -> f64 {
        let model = CpuCostModel::new(self.cpu.clone());
        let cycles = prf_calls_per_inference * self.prf.cpu_cycles_per_block() as f64
            + bytes_per_inference / 8.0;
        let seconds =
            model.execution_time_s(cycles as u64, bytes_per_inference as u64, self.threads);
        if seconds <= 0.0 {
            0.0
        } else {
            1.0 / seconds
        }
    }

    /// Latency of a single query in milliseconds.
    #[must_use]
    pub fn latency_ms(&self, prf_calls_per_inference: f64, bytes_per_inference: f64) -> f64 {
        let qps = self.qps(prf_calls_per_inference, bytes_per_inference);
        if qps <= 0.0 {
            f64::INFINITY
        } else {
            1e3 / qps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1M-entry table with 256-byte entries, one full-table query per
    /// inference: roughly the Table 4 middle row.
    fn one_query_1m() -> (f64, f64) {
        let prf_calls = 2.0 * ((1u64 << 20) - 1) as f64;
        let bytes = (1u64 << 20) as f64 * 256.0;
        (prf_calls, bytes)
    }

    #[test]
    fn gpu_beats_cpu_by_an_order_of_magnitude() {
        let (prf, bytes) = one_query_1m();
        let gpu = GpuThroughputModel::v100(PrfKind::Aes128);
        let cpu32 = CpuBaselineModel::xeon(32, PrfKind::Aes128);
        let cpu1 = CpuBaselineModel::xeon(1, PrfKind::Aes128);

        let gpu_point = gpu.best_within(prf, bytes, &Budget::paper_default());
        let cpu32_qps = cpu32.qps(prf, bytes);
        let cpu1_qps = cpu1.qps(prf, bytes);

        assert!(
            gpu_point.qps > 15.0 * cpu32_qps,
            "GPU {:.0} QPS should be >15x the 32-thread CPU {:.1} QPS",
            gpu_point.qps,
            cpu32_qps
        );
        assert!(cpu32_qps > 5.0 * cpu1_qps);
        // Magnitudes line up with Table 4: single-thread CPU is ~1 QPS,
        // multi-thread tens of QPS, GPU hundreds to thousands.
        assert!(cpu1_qps < 20.0);
        assert!(gpu_point.qps > 500.0);
    }

    #[test]
    fn bigger_batches_help_small_tables_until_latency_binds() {
        // A 16K-entry table: one query cannot fill the device, so batching is
        // what buys throughput (Figure 9a); latency grows with the batch.
        let prf = 2.0 * ((1u64 << 14) - 1) as f64;
        let bytes = (1u64 << 14) as f64 * 256.0;
        let gpu = GpuThroughputModel::v100(PrfKind::Aes128);
        let single = gpu.at_batch(prf, bytes, 1);
        let batched = gpu.at_batch(prf, bytes, 256);
        assert!(batched.qps > 5.0 * single.qps);
        assert!(batched.latency_ms > single.latency_ms);
        assert!(batched.utilization > single.utilization);

        let tight = gpu.best_within(prf, bytes, &Budget::tight());
        let relaxed = gpu.best_within(prf, bytes, &Budget::paper_default());
        assert!(tight.batch <= relaxed.batch);
        assert!(tight.latency_ms <= 50.0);
        assert!(relaxed.qps >= tight.qps);
    }

    #[test]
    fn chacha_outperforms_aes_on_gpu() {
        let (prf, bytes) = one_query_1m();
        let aes = GpuThroughputModel::v100(PrfKind::Aes128).best_within(
            prf,
            bytes,
            &Budget::paper_default(),
        );
        let chacha = GpuThroughputModel::v100(PrfKind::Chacha20).best_within(
            prf,
            bytes,
            &Budget::paper_default(),
        );
        let ratio = chacha.qps / aes.qps;
        assert!(
            (2.0..=6.0).contains(&ratio),
            "ChaCha20/AES throughput ratio {ratio:.2} should be ~3.8x"
        );
    }

    #[test]
    fn smaller_tables_serve_many_more_queries() {
        let gpu = GpuThroughputModel::v100(PrfKind::Aes128);
        let budget = Budget::paper_default();
        let small = gpu.best_within(
            2.0 * ((1u64 << 14) - 1) as f64,
            (1u64 << 14) as f64 * 256.0,
            &budget,
        );
        let large = gpu.best_within(
            2.0 * ((1u64 << 22) - 1) as f64,
            (1u64 << 22) as f64 * 256.0,
            &budget,
        );
        assert!(small.qps > 50.0 * large.qps);
    }
}
