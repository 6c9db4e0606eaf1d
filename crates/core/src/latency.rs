//! End-to-end inference latency model (Figure 12).
//!
//! Four components contribute to the latency of one private inference:
//! client-side key generation (`Gen`), client↔server communication over a 4G
//! link, server-side PIR (`Eval`, the paper's focus), and the on-device DNN
//! forward pass. `Gen` and the DNN run on a phone-class CPU (the paper
//! measures an Intel Core i3); the network is modelled at 60 Mbit/s.

use gpu_sim::CpuSpec;
use pir_prf::PrfKind;
use serde::{Deserialize, Serialize};

/// Network link model between the client and the servers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Link bandwidth in megabits per second (4G ≈ 60 Mbit/s in the paper).
    pub bandwidth_mbps: f64,
    /// One-way latency in milliseconds.
    pub one_way_latency_ms: f64,
}

impl NetworkModel {
    /// The paper's 4G assumption: 60 Mbit/s.
    #[must_use]
    pub const fn lte() -> Self {
        Self {
            bandwidth_mbps: 60.0,
            one_way_latency_ms: 25.0,
        }
    }

    /// Milliseconds to transfer `bytes` one way, including propagation.
    #[must_use]
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        let seconds = (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1e6);
        seconds * 1e3 + self.one_way_latency_ms
    }
}

/// Breakdown of one inference's latency, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Client-side DPF key generation.
    pub gen_ms: f64,
    /// Upload of the keys plus download of the response shares.
    pub network_ms: f64,
    /// Server-side PIR evaluation (`Eval` + table multiply).
    pub pir_ms: f64,
    /// On-device DNN forward pass.
    pub dnn_ms: f64,
}

impl LatencyBreakdown {
    /// Total end-to-end latency.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.gen_ms + self.network_ms + self.pir_ms + self.dnn_ms
    }
}

/// The end-to-end latency model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Client CPU running `Gen` and the on-device DNN.
    pub client_cpu: CpuSpec,
    /// Network link to both servers (queried in parallel).
    pub network: NetworkModel,
    /// Cycles per multiply-accumulate on the client (captures SIMD width).
    pub client_cycles_per_mac: f64,
}

impl LatencyModel {
    /// The paper's setup: Core i3 client over a 4G link.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            client_cpu: CpuSpec::client_core_i3(),
            network: NetworkModel::lte(),
            client_cycles_per_mac: 0.25,
        }
    }

    /// Milliseconds for the client to generate `queries` DPF keys over a
    /// domain of `2^domain_bits`.
    #[must_use]
    pub fn gen_ms(&self, queries: u64, domain_bits: u32, prf: PrfKind) -> f64 {
        // Gen performs 4 PRF expansions per level per query (both parties).
        let prf_calls = queries * 4 * u64::from(domain_bits.max(1));
        let cycles = prf_calls as f64 * prf.cpu_cycles_per_block() as f64;
        cycles / self.client_cpu.cycles_per_second(1) * 1e3
    }

    /// Milliseconds of network time: keys up, shares down, both servers
    /// contacted in parallel.
    #[must_use]
    pub fn network_ms(&self, upload_bytes_per_server: u64, download_bytes_per_server: u64) -> f64 {
        self.network.transfer_ms(upload_bytes_per_server)
            + self.network.transfer_ms(download_bytes_per_server)
    }

    /// Milliseconds for the on-device model forward pass with
    /// `model_parameters` weights (≈ one MAC per weight).
    #[must_use]
    pub fn dnn_ms(&self, model_parameters: u64) -> f64 {
        let cycles = model_parameters as f64 * self.client_cycles_per_mac;
        cycles / self.client_cpu.cycles_per_second(1) * 1e3
    }

    /// Assemble the full breakdown.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one argument per latency component
    pub fn breakdown(
        &self,
        queries: u64,
        domain_bits: u32,
        prf: PrfKind,
        upload_bytes_per_server: u64,
        download_bytes_per_server: u64,
        pir_ms: f64,
        model_parameters: u64,
    ) -> LatencyBreakdown {
        LatencyBreakdown {
            gen_ms: self.gen_ms(queries, domain_bits, prf),
            network_ms: self.network_ms(upload_bytes_per_server, download_bytes_per_server),
            pir_ms,
            dnn_ms: self.dnn_ms(model_parameters),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_fast_even_for_large_tables() {
        let model = LatencyModel::paper_default();
        // 20 queries against a 1M-entry table with AES-NI: well under 50 ms.
        let gen = model.gen_ms(20, 20, PrfKind::Aes128);
        assert!(gen < 50.0, "gen took {gen} ms");
        // And it scales logarithmically with the table, not linearly.
        assert!(model.gen_ms(20, 24, PrfKind::Aes128) < gen * 1.5);
    }

    #[test]
    fn network_time_scales_with_bytes() {
        let model = LatencyModel::paper_default();
        let small = model.network_ms(10_000, 10_000);
        let large = model.network_ms(300_000, 10_000);
        assert!(large > small);
        // 300 KB at 60 Mbit/s is 40 ms of serialization plus propagation.
        assert!(large < 150.0, "unexpectedly slow: {large} ms");
    }

    #[test]
    fn breakdown_totals_its_components() {
        let model = LatencyModel::paper_default();
        let breakdown = model.breakdown(20, 17, PrfKind::Chacha20, 60_000, 20_000, 80.0, 500_000);
        let total = breakdown.total_ms();
        assert!(total > breakdown.pir_ms);
        assert!(
            (total
                - (breakdown.gen_ms + breakdown.network_ms + breakdown.pir_ms + breakdown.dnn_ms))
                .abs()
                < 1e-9
        );
        assert!(
            total < 500.0,
            "within the paper's ~500 ms target, got {total}"
        );
    }

    #[test]
    fn dnn_latency_is_modest_for_small_models() {
        let model = LatencyModel::paper_default();
        // A few-MB MLP (1M parameters) runs in a few ms on the client.
        assert!(model.dnn_ms(1_000_000) < 10.0);
    }
}
