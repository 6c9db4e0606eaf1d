//! Static cluster membership and router tuning knobs.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use pir_wire::Dialer;

use crate::error::ClusterError;

/// The replica endpoints of one shard-owner.
///
/// Replicas are interchangeable: each hosts the same masked table view, so
/// the router holds one live query link per shard and rotates to the next
/// replica when it fails. Order is the failover preference order.
#[derive(Clone)]
pub struct ShardEndpoints {
    /// Dialers for this shard's replicas, in failover preference order.
    pub replicas: Vec<Arc<dyn Dialer>>,
}

impl ShardEndpoints {
    /// Endpoints from a replica dialer list.
    #[must_use]
    pub fn new(replicas: Vec<Arc<dyn Dialer>>) -> Self {
        Self { replicas }
    }

    /// A single-replica shard (no failover target).
    #[must_use]
    pub fn single(replica: Arc<dyn Dialer>) -> Self {
        Self {
            replicas: vec![replica],
        }
    }
}

impl fmt::Debug for ShardEndpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let described: Vec<String> = self.replicas.iter().map(|d| d.describe()).collect();
        f.debug_struct("ShardEndpoints")
            .field("replicas", &described)
            .finish()
    }
}

/// Static membership for one party's shard set.
///
/// Shard order is load-bearing: shard `i` here must be provisioned with
/// [`ShardMap::mask_table`](crate::ShardMap::mask_table) view `i` — the
/// router has no way to detect a permuted deployment (every masked view
/// shares the catalog schema): queries would still sum correctly, but a
/// reload would be sent to a shard that does not hold the row and refused.
#[derive(Clone, Debug)]
pub struct ClusterMembership {
    /// One endpoint set per shard-owner, in shard-index order.
    pub shards: Vec<ShardEndpoints>,
}

impl ClusterMembership {
    /// Membership from per-shard endpoint sets.
    #[must_use]
    pub fn new(shards: Vec<ShardEndpoints>) -> Self {
        Self { shards }
    }

    /// Number of shard-owners.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Reject memberships the router cannot serve from.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] when there are no shards or a shard has no
    /// replica endpoints.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.shards.is_empty() {
            return Err(ClusterError::Config(
                "membership must name at least one shard".into(),
            ));
        }
        for (shard, endpoints) in self.shards.iter().enumerate() {
            if endpoints.replicas.is_empty() {
                return Err(ClusterError::Config(format!(
                    "shard {shard} has no replica endpoints"
                )));
            }
        }
        Ok(())
    }
}

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// How often the background prober checks each shard's back-haul
    /// connection (and pre-dials disconnected shards). `None` disables
    /// probing: dead replicas are then discovered only by the queries that
    /// hit them.
    pub probe_interval: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            probe_interval: Some(Duration::from_millis(100)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_wire::{PirTransport, WireError};

    fn dead_dialer() -> Arc<dyn Dialer> {
        Arc::new(|| -> Result<Box<dyn PirTransport>, WireError> {
            Err(WireError::ConnectionClosed)
        })
    }

    #[test]
    fn empty_memberships_are_rejected() {
        assert!(matches!(
            ClusterMembership::new(Vec::new()).validate(),
            Err(ClusterError::Config(_))
        ));
        let membership = ClusterMembership::new(vec![
            ShardEndpoints::single(dead_dialer()),
            ShardEndpoints::new(Vec::new()),
        ]);
        match membership.validate() {
            Err(ClusterError::Config(detail)) => assert!(detail.contains("shard 1")),
            other => panic!("expected config error, got {other:?}"),
        }
    }

    #[test]
    fn debug_uses_dialer_descriptions() {
        let membership = ClusterMembership::new(vec![ShardEndpoints::single(dead_dialer())]);
        assert!(format!("{membership:?}").contains("endpoint"));
        membership.validate().unwrap();
        assert_eq!(membership.shards(), 1);
    }
}
