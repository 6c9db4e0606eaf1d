//! Wire messages exchanged between the client and the two servers.

use pir_dpf::DpfKey;
use serde::{Deserialize, Serialize};

use crate::table::TableSchema;

/// Canonical wire size of a [`TableSchema`]: an 8-byte entry count followed
/// by a 4-byte entry width.
pub const SCHEMA_WIRE_BYTES: usize = 8 + 4;

/// Canonical wire size of the fixed [`ServerQuery`] prefix: an 8-byte query
/// id followed by the schema record. The DPF key follows immediately after.
pub const SERVER_QUERY_PREFIX_BYTES: usize = 8 + SCHEMA_WIRE_BYTES;

/// Canonical wire size of the fixed [`PirResponse`] prefix: an 8-byte query
/// id, a 1-byte party tag and a 4-byte share-lane count.
pub const RESPONSE_PREFIX_BYTES: usize = 8 + 1 + 4;

/// A complete PIR query: the pair of DPF keys for the two servers.
///
/// Only [`PirQuery::to_server`] projections ever leave the client; the pair is
/// kept together client-side so the response can be reconstructed. It holds
/// key material, so it has no `PartialEq` and no serde: the wire codec is
/// its projection's only encoding.
#[derive(Clone, Debug)]
pub struct PirQuery {
    /// Monotonic client-side identifier used to match responses to queries.
    pub query_id: u64,
    /// Schema of the table this query targets.
    pub schema: TableSchema,
    /// Key destined for server 0.
    pub key0: DpfKey,
    /// Key destined for server 1.
    pub key1: DpfKey,
}

impl PirQuery {
    /// The message actually uploaded to one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not 0 or 1.
    #[must_use]
    pub fn to_server(&self, server: u8) -> ServerQuery {
        assert!(server < 2, "two-server protocol: server must be 0 or 1");
        ServerQuery {
            query_id: self.query_id,
            schema: self.schema,
            key: if server == 0 {
                self.key0.clone()
            } else {
                self.key1.clone()
            },
        }
    }

    /// Bytes uploaded to *each* server: the exact encoded length of one
    /// [`ServerQuery`] record on the wire (query id + schema + one DPF key).
    /// Total client upload is twice this. The `pir-wire` crate's canonical
    /// encoder produces exactly this many bytes; a test there asserts the
    /// two never drift.
    #[must_use]
    pub fn upload_bytes_per_server(&self) -> usize {
        SERVER_QUERY_PREFIX_BYTES + self.key0.size_bytes()
    }
}

/// The single-server projection of a [`PirQuery`]. Like it, no `PartialEq`
/// and no serde: compare two by their canonical encodings.
#[derive(Clone, Debug)]
pub struct ServerQuery {
    /// Client-side query identifier (opaque to the server).
    pub query_id: u64,
    /// Schema the query was generated for; the server rejects mismatches.
    pub schema: TableSchema,
    /// This server's DPF key.
    pub key: DpfKey,
}

impl ServerQuery {
    /// Which server this query is addressed to.
    #[must_use]
    pub fn party(&self) -> u8 {
        self.key.party
    }

    /// Serialized size in bytes: the exact length of the canonical wire
    /// encoding (8-byte query id, 12-byte schema, then the key).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        SERVER_QUERY_PREFIX_BYTES + self.key.size_bytes()
    }
}

/// One server's answer: an additive share of the requested entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PirResponse {
    /// Echoed query identifier.
    pub query_id: u64,
    /// Which server produced the share.
    pub party: u8,
    /// Additive share of the entry, as `u32` lanes.
    pub share: Vec<u32>,
}

impl PirResponse {
    /// Serialized size in bytes (the download cost per server): the exact
    /// length of the canonical wire encoding (8-byte query id, 1-byte party,
    /// 4-byte lane count, then the lanes).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        RESPONSE_PREFIX_BYTES + self.share.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_dpf::{generate_keys, DpfParams};
    use pir_field::Ring128;
    use pir_prf::{build_prf, GgmPrg, PrfKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_query() -> PirQuery {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(3);
        let params = DpfParams::for_domain(1 << 10);
        let (key0, key1) = generate_keys(&prg, &params, 5, Ring128::ONE, &mut rng);
        PirQuery {
            query_id: 17,
            schema: TableSchema::new(1 << 10, 64),
            key0,
            key1,
        }
    }

    #[test]
    fn server_projection_keeps_only_one_key() {
        let query = sample_query();
        let to0 = query.to_server(0);
        let to1 = query.to_server(1);
        assert_eq!(to0.party(), 0);
        assert_eq!(to1.party(), 1);
        assert_eq!(to0.query_id, 17);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test checks the projections carry different seeds"
        )]
        let seeds = (to0.key.root_seed.expose(), to1.key.root_seed.expose());
        assert_ne!(seeds.0, seeds.1);
    }

    #[test]
    #[should_panic(expected = "server must be 0 or 1")]
    fn invalid_server_panics() {
        let _ = sample_query().to_server(2);
    }

    #[test]
    fn communication_is_logarithmic_in_table_size() {
        let query = sample_query();
        // A 1K-entry table key is a few hundred bytes, not kilobytes.
        assert!(query.upload_bytes_per_server() < 512);
        assert_eq!(
            query.upload_bytes_per_server(),
            query.to_server(0).size_bytes()
        );
    }

    #[test]
    fn response_size_counts_share_lanes() {
        let response = PirResponse {
            query_id: 1,
            party: 0,
            share: vec![0u32; 32],
        };
        assert_eq!(response.size_bytes(), 8 + 1 + 4 + 128);
    }
}
