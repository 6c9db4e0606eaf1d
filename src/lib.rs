//! Umbrella crate for the GPU-PIR reproduction workspace.
//!
//! This crate re-exports the public API of every member crate so the
//! runnable examples under `examples/` and the integration tests under
//! `tests/` can use a single, convenient namespace. Library users should
//! depend on the individual crates (`pir-protocol`, `pir-dpf`, ...) directly.

#![forbid(unsafe_code)]

pub use gpu_sim;
pub use pir_cluster;
pub use pir_dpf;
pub use pir_field;
pub use pir_load;
pub use pir_ml;
pub use pir_prf;
pub use pir_protocol;
pub use pir_serve;
pub use pir_wire;
