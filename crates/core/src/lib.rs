//! End-to-end private on-device ML inference (the paper's full system,
//! Figure 1b).
//!
//! This crate wires the substrates together into the deployable system:
//!
//! * [`application`] — binds a synthetic dataset (workload + embedding table
//!   + model-quality profile) to the PIR tables the servers host,
//! * [`system`] — the runtime: an on-device client, two non-colluding GPU
//!   PIR servers (full table, optional hot table), the fixed-query-budget
//!   planner and response reconstruction,
//! * [`latency`] — the end-to-end latency model of Figure 12 (client `Gen`,
//!   network at 4G bandwidth, server-side PIR, on-device DNN),
//! * [`throughput`] — the server-throughput model behind Figures 11/13–15 and
//!   Tables 3–4 (batched GPU execution vs. the 1/32-thread CPU baseline),
//! * [`optimizer`] — the co-design optimizer: sweeps the co-design space,
//!   applies the model-quality and budget constraints and picks the
//!   Acc-eco / Acc-relaxed operating points the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod application;
pub mod latency;
pub mod optimizer;
pub mod system;
pub mod throughput;

pub use application::Application;
pub use latency::{LatencyBreakdown, LatencyModel, NetworkModel};
pub use optimizer::{CodesignOptimizer, OperatingPoint, QualityTarget};
pub use system::{InferenceOutcome, PrivateInferenceSystem, SystemConfig};
pub use throughput::{CpuBaselineModel, GpuThroughputModel, ThroughputPoint};

/// Escape `value` for embedding between the quotes of a JSON string: `"`,
/// `\` and control characters (as `\u00XX`). Shared by the workspace's
/// hand-rolled JSON emitters (no JSON dependency is available offline).
#[must_use]
pub fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escaping_covers_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }
}
