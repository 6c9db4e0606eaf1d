//! `pir-serve` — an async, multi-tenant PIR serving runtime with dynamic
//! batching and device sharding.
//!
//! The paper's central systems observation (§3.2.1, §3.2.5) is that DPF-based
//! PIR only reaches practical throughput when many queries are *batched* onto
//! the GPU: a single Eval cannot fill the device for realistic table sizes,
//! so the scheduler maps one query per thread block and amortizes the kernel
//! launch over the whole batch. The protocol crates expose that machinery to
//! callers who already *have* a batch in hand — but a deployed service
//! receives queries one at a time, from thousands of independent clients.
//! This crate closes that gap with the batching-as-a-service shape production
//! inference servers use:
//!
//! * **[`PirServeRuntime`]** hosts many named tables (a *table registry*),
//!   each with its own PRF family, scheduler thresholds and — for tables
//!   larger than one device — sharding across several simulated `gpu_sim`
//!   devices (`TableConfig::shards` devices per [`pir_protocol::GpuPirServer`]).
//! * Each party of a table owns a **pool of interchangeable server
//!   replicas** (`TableConfig::replicas`): formed batches are load-balanced
//!   across idle replicas, so one table's burst traffic fans out over
//!   `replicas × shards` devices instead of queueing behind a single kernel
//!   launch, and every launch leases its devices from a runtime-wide
//!   **device budget** (`ServeConfig::device_budget`) so hot tables borrow
//!   fleet capacity idle tables are not using.
//! * A **dynamic batch former** per (table, party, replica) is
//!   work-conserving: a free replica takes what is queued (up to
//!   `max_batch`) and submits it through the §3.2.5 scheduler as one
//!   [`pir_dpf::ExecutionPlan`]; what arrives during that launch forms the
//!   next batch. Concurrent requests amortize kernel launches exactly as the
//!   paper prescribes without coordinating with each other, and a lone
//!   query never waits in front of an idle device.
//! * An **admission/backpressure layer** — bounded per-(table, server) queues
//!   and per-tenant in-flight quotas — sheds load with typed
//!   [`ServeError`]s instead of letting latency collapse.
//! * **Telemetry** ([`StatsSnapshot`]) exports queue depth, batch occupancy
//!   and p50/p99 latency built on [`LatencyHistogram`].
//! * **[`ServeHandle`]** is the clonable *embedded* client API: `query(table,
//!   tenant, index)` admits a lookup and returns a [`PendingQuery`] — a plain
//!   [`std::future::Future`] — which either resolves on the caller's
//!   executor or synchronously via [`PendingQuery::wait`] /
//!   [`block_on`]. [`ServeHandle::update_entry`] hot-reloads a table row
//!   through both dispatch queues as an atomic barrier, so every in-flight
//!   query is answered by both parties from the same table version.
//! * **[`WireFrontend`]** is the *networked* boundary: it decodes `pir-wire`
//!   envelopes arriving from untrusted clients, bridges them into the same
//!   batching machinery for one party only, and encodes replies (including
//!   quota/queue-full sheds as typed wire errors). Remote clients use
//!   `pir_wire::PirSession` over two transports and never see this crate's
//!   types at all.
//!
//! # Example
//!
//! ```rust
//! use pir_protocol::PirTable;
//! use pir_serve::{PirServeRuntime, ServeConfig, TableConfig};
//!
//! let runtime = PirServeRuntime::new(ServeConfig::default());
//! let table = PirTable::generate(1 << 10, 16, |row, offset| (row as u8) ^ (offset as u8));
//! runtime
//!     .register_table("embeddings", table.clone(), TableConfig::default())
//!     .unwrap();
//!
//! let handle = runtime.handle();
//! let row = handle.query("embeddings", "tenant-0", 42).unwrap().wait().unwrap();
//! assert_eq!(row, table.entry(42));
//!
//! let stats = runtime.stats();
//! assert_eq!(stats.answered(), 1);
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

mod admission;
mod batcher;
mod budget;
pub mod config;
pub mod error;
mod handle;
mod oneshot;
mod registry;
mod runtime;
pub mod stats;
pub mod tier;
mod wire_frontend;

pub use config::{
    AdmissionPolicy, AutoscalePolicy, BatchPolicy, ReplicaRange, ServeConfig, ServeConfigBuilder,
    TableConfig, TableConfigBuilder,
};
pub use error::ServeError;
pub use handle::{PendingQuery, ServeHandle};
pub use oneshot::block_on;
pub use pir_dpf::PlanLedger;
pub use runtime::PirServeRuntime;
pub use stats::{
    LatencyHistogram, ReplicaStatsSnapshot, StatsSnapshot, TableStatsSnapshot, TierStatsSnapshot,
};
pub use tier::{formation_order, BatchCandidate, SloClass, SloTiers};
pub use wire_frontend::WireFrontend;
