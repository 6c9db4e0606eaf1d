//! Software SIMT execution substrate standing in for the paper's NVIDIA V100.
//!
//! The paper accelerates DPF evaluation with CUDA kernels on a V100. This
//! reproduction has no GPU available, so the GPU is replaced by a *simulated
//! device*:
//!
//! * **Functional execution** — kernels are ordinary Rust closures over a
//!   [`kernel::Kernel`] trait; the [`executor::Executor`] runs every thread
//!   block on the launching thread plus one scoped helper thread for each
//!   further eight blocks, so results are bit-exact with a real
//!   implementation of the same algorithm. Host↔device transfers are
//!   counted in a ledger ([`backend::BackendStats`]), not copied.
//! * **Performance modelling** — while blocks execute they record hardware
//!   events ([`counters::KernelCounters`]): PRF evaluations, global/shared
//!   memory traffic, arithmetic operations and synchronisations. The
//!   [`cost::CostModel`] combines those counters with a [`device::DeviceSpec`]
//!   (V100 by default) and the kernel's [`occupancy`] to estimate execution
//!   time, throughput and utilization — the quantities plotted in the paper's
//!   Figures 6, 8, 9, 13–15 and Tables 4–5. [`executor::GpuExecutor`] reports
//!   that modelled time; [`executor::HostBackend`], the same executor on the
//!   host wall clock, reports measured time instead.
//!
//! The same crate also provides the CPU cost model ([`device::CpuSpec`]) used
//! for the Xeon baseline and the client-side key-generation latency estimate.
//!
//! # Example
//!
//! ```rust
//! use gpu_sim::{BlockContext, DeviceSpec, GpuExecutor, LaunchConfig};
//!
//! let executor = GpuExecutor::new(DeviceSpec::v100());
//! let config = LaunchConfig::linear(128, 256);
//! let report = executor.launch("zero_kernel", config, |block: &BlockContext<'_>| {
//!     // every block records the work it performed
//!     block.counters().record_flops(1_000);
//!     block.counters().record_global_read(4096);
//! });
//! assert!(report.estimated_time_s > 0.0);
//! assert_eq!(report.counters.flops, 128 * 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cost;
pub mod counters;
pub mod device;
pub mod executor;
pub mod grid;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod report;

pub use backend::{
    BackendKind, BackendStats, DeviceBackend, ResidentAllocation, TransferKind, TransferSrc,
};
pub use cost::{CostModel, CpuCostModel, TimeBreakdown};
pub use counters::{CounterSnapshot, KernelCounters};
pub use device::{CpuSpec, DeviceSpec};
pub use executor::{Executor, GpuExecutor, HostBackend};
pub use grid::{Dim3, LaunchConfig};
pub use kernel::{BlockContext, BlockRange, Kernel};
pub use memory::MemoryTracker;
pub use occupancy::OccupancyEstimate;
pub use report::KernelReport;
