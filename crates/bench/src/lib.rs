//! Benchmark and reproduction harness, and the modelled system it reports.
//!
//! Every table and figure in the paper's evaluation maps to a function in
//! [`experiments`] that regenerates its data series. The `repro` binary
//! prints them (`cargo run -p bench --bin repro --release -- all`), and the
//! Criterion benches under `benches/` measure the functional kernels on the
//! host.
//!
//! Every number `repro` prints is **modelled** — the simulated V100 of
//! `gpu-sim` and the analytic Xeon baseline of [`throughput`] over synthetic
//! datasets — not measured on the host that runs it. Absolute values
//! therefore differ from the paper; what each experiment's unit tests assert
//! is the relation the paper draws from it: who wins, by roughly what factor
//! and where the crossovers are.
//!
//! The modules beside [`experiments`] are the system those figures model:
//!
//! * the applications' side (§2): [`datasets`] (synthetic stand-ins for the
//!   public datasets, Tables 1–2), [`embedding`] (float tables and their
//!   fixed-point quantization), [`workload`] (per-inference access sessions)
//!   and [`quality`] (model quality against dropped queries);
//! * the PIR–ML co-design (§4): partial batch retrieval ([`pbr`]), the
//!   frequency-based hot-table split ([`hot_table`]), access-pattern-aware
//!   co-location ([`colocation`]) and the parameter sweep ([`codesign`]) under
//!   explicit [`budget`]s;
//! * the deployed system (Figure 1b): [`application`] binds a dataset to the
//!   tables the servers host, [`system`] runs a private inference through
//!   `pir-protocol`'s client and GPU servers, [`latency`] and [`throughput`]
//!   model Figures 11–15 and Tables 3–4, and [`optimizer`] picks the
//!   Acc-eco / Acc-relaxed operating points.

#![forbid(unsafe_code)]

pub mod application;
pub mod budget;
pub mod codesign;
pub mod colocation;
pub mod datasets;
pub mod embedding;
pub mod experiments;
pub mod hot_table;
pub mod latency;
pub mod optimizer;
pub mod pbr;
pub mod quality;
pub mod report;
pub mod system;
pub mod throughput;
pub mod workload;

pub use report::Table;
