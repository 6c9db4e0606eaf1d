//! Typed errors of the cluster tier.

use std::fmt;

use pir_wire::WireError;

/// Errors surfaced by the router/aggregator tier.
///
/// The failure the tier exists to absorb — one replica of a shard dying —
/// never surfaces here: it is handled by redialing the next endpoint.
/// [`ClusterError::ShardUnavailable`] is the *typed degradation* for the
/// case failover cannot hide: a shard with no live replica at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The static membership or derived shard map is invalid (zero shards,
    /// a shard with no replica endpoints, a table too shallow to split that
    /// many ways, or a back-haul peer below the protocol floor).
    Config(String),
    /// Every replica endpoint of the shard failed for this call. Queries
    /// fanning out over this shard cannot be answered until a replica
    /// returns.
    ShardUnavailable {
        /// The shard with no live replica.
        shard: usize,
        /// The last per-replica failure, for diagnostics.
        detail: String,
    },
    /// A shard-owner advertised a catalog that disagrees with shard 0's.
    /// All owners must host views of the same tables (a masked view keeps
    /// the table's schema), so a mismatch means the cluster was
    /// mis-provisioned.
    CatalogMismatch {
        /// The disagreeing shard.
        shard: usize,
        /// What differed.
        detail: String,
    },
    /// A back-haul wire failure failover could not absorb.
    Wire(WireError),
    /// The router shut down while the call was pending (or before it was
    /// made).
    ShuttingDown,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(detail) => write!(f, "invalid cluster config: {detail}"),
            Self::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} has no live replica: {detail}")
            }
            Self::CatalogMismatch { shard, detail } => {
                write!(f, "shard {shard} catalog mismatch: {detail}")
            }
            Self::Wire(err) => write!(f, "back-haul wire error: {err}"),
            Self::ShuttingDown => write!(f, "the router is shutting down"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for ClusterError {
    fn from(err: WireError) -> Self {
        Self::Wire(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_shard() {
        let err = ClusterError::ShardUnavailable {
            shard: 3,
            detail: "connection refused".into(),
        };
        assert!(err.to_string().contains("shard 3"));
        assert!(err.to_string().contains("connection refused"));
    }

    #[test]
    fn wire_errors_convert_and_chain() {
        let err: ClusterError = WireError::ConnectionClosed.into();
        assert!(matches!(err, ClusterError::Wire(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
