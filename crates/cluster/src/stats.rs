//! Router telemetry: per-shard back-haul counters, fence state, and the
//! point-in-time snapshots operators scrape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters for one shard's back-haul (all relaxed: telemetry must
/// never serialize the fan-out hot path).
#[derive(Debug, Default)]
pub(crate) struct ShardTelemetry {
    /// Back-haul calls currently outstanding (a gauge: the pipelined query
    /// link carries a session's whole window at once).
    pub in_flight: AtomicU64,
    /// Completed back-haul calls: one per query leg (a fence re-ask is a
    /// leg of its own), plus the control calls (handshake, calibration,
    /// staged updates, probes).
    pub calls: AtomicU64,
    /// Times the live connection was abandoned and the next replica dialed.
    pub failovers: AtomicU64,
    /// Cumulative wall-clock spent in back-haul calls, in nanoseconds. A
    /// leg is timed from its first write to its reply, so this includes
    /// the time it queued on the shard behind the rest of the window.
    pub call_nanos: AtomicU64,
    /// Probe rounds that found the shard unreachable.
    pub probe_failures: AtomicU64,
}

/// Live counters for the router itself.
#[derive(Debug, Default)]
pub(crate) struct RouterTelemetry {
    /// Client queries answered (any outcome).
    pub queries: AtomicU64,
    /// Queries where at least one shard was re-asked after a fence
    /// mismatch (the exactly-once retry).
    pub fence_retries: AtomicU64,
    /// Queries answered while a shard still lagged the fence after its
    /// retry. Safe — the digest stamp exposes the mix to the client's
    /// cross-party check — but worth watching: a persistently lagging
    /// shard inflates client-visible `VersionSkew` retries.
    pub fence_lagged: AtomicU64,
    /// Updates staged on their owning shard (phase one).
    pub updates_staged: AtomicU64,
    /// Updates whose fence was flipped (phase two). `staged == flipped`
    /// at rest proves no update was left half-applied.
    pub updates_flipped: AtomicU64,
}

/// Point-in-time view of one shard's back-haul.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Back-haul calls outstanding at snapshot time; above 1 while a
    /// window is in flight, 0 at rest.
    pub in_flight: u64,
    /// Completed back-haul calls: one per query leg, plus control calls.
    pub calls: u64,
    /// Replica failovers taken.
    pub failovers: u64,
    /// Cumulative wall-clock spent in back-haul calls (a leg's includes
    /// its queueing on the shard).
    pub call_time: Duration,
    /// Probe rounds that found the shard unreachable.
    pub probe_failures: u64,
    /// Replicas marked stale (failed an update stage; excluded from
    /// failover until re-provisioned).
    pub stale_replicas: usize,
    /// The replica the live query link points at, if connected.
    pub connected_replica: Option<usize>,
}

/// Point-in-time view of one table's reload fence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableFenceSnapshot {
    /// Table name.
    pub table: String,
    /// Flip counter: starts at 1 and increments once per applied update.
    /// Proves staged→flip ordering (`updates_staged == updates_flipped`
    /// and `cluster_version == 1 + flips` at rest); the response stamp
    /// itself is a digest of the per-shard versions, not this counter.
    pub cluster_version: u64,
    /// Expected per-shard table versions, pinned at connect by the
    /// router's calibration query (`None` only if calibration was somehow
    /// skipped).
    pub shard_versions: Vec<Option<u64>>,
}

/// Point-in-time view of the whole router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// The party this router fronts.
    pub party: u8,
    /// Client queries answered (any outcome).
    pub queries: u64,
    /// Queries that needed the exactly-once fence retry.
    pub fence_retries: u64,
    /// Queries answered while a shard still lagged the fence post-retry.
    pub fence_lagged: u64,
    /// Updates staged on their owning shard.
    pub updates_staged: u64,
    /// Updates whose fence flip completed.
    pub updates_flipped: u64,
    /// Per-shard back-haul stats, in shard order.
    pub shards: Vec<ShardStatsSnapshot>,
    /// Per-table fence state.
    pub fences: Vec<TableFenceSnapshot>,
}

impl ShardTelemetry {
    pub(crate) fn record_call(&self, elapsed: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.call_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_recording_accumulates() {
        let telemetry = ShardTelemetry::default();
        telemetry.record_call(Duration::from_micros(3));
        telemetry.record_call(Duration::from_micros(4));
        assert_eq!(telemetry.calls.load(Ordering::Relaxed), 2);
        assert_eq!(telemetry.call_nanos.load(Ordering::Relaxed), 7_000);
    }
}
