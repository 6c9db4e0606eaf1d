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
