//! Benchmark and reproduction harness.
//!
//! Every table and figure in the paper's evaluation maps to a function in
//! [`experiments`] that regenerates its data series. The `repro` binary
//! prints them (`cargo run -p bench --bin repro --release -- all`), and the
//! Criterion benches under `benches/` measure the functional kernels on the
//! host.
//!
//! Every number `repro` prints is **modelled** — the simulated V100 of
//! `gpu-sim` and `pir-core`'s analytic Xeon baseline over synthetic datasets
//! — not measured on the host that runs it. Absolute values therefore differ
//! from the paper; what each experiment's unit tests assert is the relation
//! the paper draws from it: who wins, by roughly what factor and where the
//! crossovers are.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use report::Table;
