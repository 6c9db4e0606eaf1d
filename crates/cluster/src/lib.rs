//! `pir-cluster` — multi-node sharded PIR serving.
//!
//! One GPU server per party stops scaling when the table outgrows a box.
//! This crate adds the cluster tier: each party's rows are partitioned
//! across *shard-owner* processes (each running the ordinary serving
//! runtime and wire frontend over its view of the table), and a per-party [`ClusterRouter`] owns the
//! client-facing endpoint, fanning every query out over the wire
//! protocol as back-haul and summing the returned share vectors so the
//! cluster answers as one giant server.
//!
//! # Why summing works
//!
//! The answer share is a linear reduction — `Σ_r dpf(r) · t(r)` over
//! wrapping `u32` lanes — so zeroed rows contribute nothing. Each shard is
//! provisioned with a masked view of the table ([`ShardMap::mask_table`]):
//! the table's schema, the shard's rows, every other row zero. Its answer
//! to the client's ordinary full-domain key projection is therefore an
//! additive partial share, and the lane-wise wrapping sum over shards is
//! bit-identical to the unsharded answer. The view records which rows it
//! kept, and they are whole DPF subtrees, so the shard's server expands,
//! uploads and keeps resident those subtrees only — S shards do one
//! evaluation's worth of PRF work between them, not S (§3.2.7) — and
//! refuses a write to a row it does not hold. No shard-aware client,
//! key-splitting, wire or runtime option exists anywhere: a single-process
//! deployment is just the 1-shard instance.
//!
//! The partition reuses the multi-GPU split rule
//! ([`shard_split_bits`](pir_protocol::shard_split_bits)): contiguous DPF
//! subtrees striped over shards, clamped to the real table
//! ([`shard_owned_ranges`](pir_protocol::shard_owned_ranges)).
//!
//! # What the tier guarantees
//!
//! * **Privacy unchanged** — one router per party sees only that party's
//!   key projection; nothing in this crate can represent a key pair.
//! * **Pipelined back-haul** — the router fans each query out without
//!   waiting and matches shard replies by a router-wide id, so every shard
//!   batches a session's whole window (see [`ClusterRouter`]).
//! * **Health-checked failover** — each shard has a replica list; the legs
//!   pending on a dead replica are re-sent on the next one (each replica
//!   dialed at most once per leg), a background prober keeps connections
//!   warm, and only a shard with *no* live replica degrades to the typed
//!   [`ClusterError::ShardUnavailable`], surfaced to clients as a
//!   shed-flagged (retry-later) error.
//! * **Reload fence** — `update_entry` is two-phase (stage on every
//!   replica of the owning shard, then flip the per-table fence); a shard
//!   whose response stamp lags the fence is re-asked exactly once, and
//!   every aggregate is stamped with a position-dependent digest of the
//!   per-shard version vector, so the client's existing cross-party stamp
//!   comparison detects — and transparently retries — any reconstruction
//!   that would mix table versions (see [`ClusterRouter`]).
//! * **Telemetry** — [`ClusterRouter::stats`] snapshots per-shard
//!   in-flight/latency/failover counters and per-table fence state.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod backhaul;
pub mod config;
pub mod error;
pub mod map;
pub mod router;
pub mod stats;

pub use config::{ClusterConfig, ClusterMembership, ShardEndpoints};
pub use error::ClusterError;
pub use map::ShardMap;
pub use router::ClusterRouter;
pub use stats::{RouterStatsSnapshot, ShardStatsSnapshot, TableFenceSnapshot};

/// The name of a router thread, `cl-{role}{id}`: `prober-p` and `writer-p`
/// take the party, `link-s` the shard. Linux keeps 15 bytes of a thread
/// name, which hold every role with an id below 100.
fn thread_name(role: &str, id: impl std::fmt::Display) -> String {
    format!("cl-{role}{id}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_names_fit_in_fifteen_bytes() {
        for role in ["prober-p", "writer-p", "link-s"] {
            let name = super::thread_name(role, 99);
            assert!(name.len() <= 15, "{name}");
        }
    }
}
