//! Distributed point functions (DPFs) and their GPU-style evaluation.
//!
//! A DPF (Gilboa–Ishai) lets a client compress the secret sharing of a
//! one-hot "point function" into two short keys. Each PIR server expands its
//! key over the whole table domain (`Eval`, the expensive part the paper
//! accelerates) and multiplies the resulting share vector into the embedding
//! table, so the client can reconstruct exactly the row it asked for without
//! either server learning which row that was.
//!
//! This crate contains:
//!
//! * [`DpfKey`] / [`generate_keys`] — the GGM-tree key generation (`Gen`),
//! * [`eval_point`] — single-index evaluation (used by tests and by clients),
//! * [`EvalStrategy`] and the three full-domain expansion strategies the paper
//!   compares: **branch-parallel**, **level-by-level** and the proposed
//!   **memory-bounded tree traversal** (§3.2.2–§3.2.3),
//! * [`fusion`] — DPF ⊗ matrix-multiplication operator fusion (§3.2.4),
//! * [`batch`] — the one evaluation job: a batch of DPFs over one or more
//!   devices, each sweeping the table slice it owns (§3.2.1, §3.2.7),
//!   including the cooperative-groups single-query mode (§3.2.5),
//! * [`scheduler`] — batch/table-size-aware strategy selection (§3.2.5) and
//!   the table-residency rule ([`Scheduler::residency`]),
//! * [`plan`] — the device-ownership rule ([`DeviceSplit`]) every layer
//!   derives slices from, and the residency outcome and counters.
//!
//! # Example
//!
//! ```rust
//! use pir_dpf::{generate_keys, eval_point, DpfParams};
//! use pir_prf::{build_prf, GgmPrg, PrfKind};
//! use pir_field::Ring128;
//! use rand::SeedableRng;
//!
//! let prg = GgmPrg::new(build_prf(PrfKind::Chacha20));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = DpfParams::for_domain(1 << 10);
//! let (key_a, key_b) = generate_keys(&prg, &params, 123, Ring128::ONE, &mut rng);
//!
//! // The two servers' evaluations sum to 1 at index 123 and 0 elsewhere.
//! let at_target = eval_point(&prg, &key_a, 123) + eval_point(&prg, &key_b, 123);
//! let elsewhere = eval_point(&prg, &key_a, 55) + eval_point(&prg, &key_b, 55);
//! assert_eq!(at_target, Ring128::ONE);
//! assert_eq!(elsewhere, Ring128::ZERO);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod eval;
pub mod fusion;
pub mod gen;
pub mod key;
#[cfg(test)]
mod parity_tests;
pub mod plan;
pub mod recorder;
pub mod scheduler;
pub mod strategy;
pub mod tile;

pub use analysis::StrategyProfile;
pub use batch::{BatchEvalJob, BatchEvalOutput, GridMapping};
pub use eval::{eval_point, eval_subtree_root};
pub use fusion::{fused_eval_matmul, unfused_eval_matmul};
pub use gen::generate_keys;
pub use key::{DpfKey, DpfParams};
pub use pir_prf::LevelCorrection;
pub use plan::{DeviceSplit, PlanLedger, TableResidency};
pub use recorder::{CountingRecorder, KernelRecorder, NullRecorder, Recorder};
pub use scheduler::{ExecutionPlan, Scheduler, SchedulerConfig, SchedulerConfigError};
pub use strategy::{
    eval_full_domain, eval_full_domain_with, eval_subtree_with, EvalStrategy, Subtree,
};
pub use tile::{frontier_tile, reported_frontier_tile, FRONTIER_TILE};
