//! Two-server private information retrieval for embedding tables.
//!
//! This crate assembles the DPF primitive from [`pir_dpf`] into the protocol
//! the paper deploys (Figure 2):
//!
//! 1. the client turns a private table index into two DPF keys
//!    ([`PirClient`]),
//! 2. each of two non-colluding servers expands its key against the table and
//!    returns an additive share of the answer ([`GpuPirServer`], on the
//!    simulated V100 or the in-process host backend),
//! 3. the client adds the two shares to recover the embedding row.
//!
//! Around that it keeps what the serving layers share: the table and its
//! masked shard views ([`PirTable`], [`shard_owned_ranges`]), the plaintext
//! oracle ([`NaivePir`]) and a client-side cache of reconstructed rows keyed
//! by table generation ([`HotEntryCache`]). The paper's co-design (partial
//! batch retrieval, the hot table, co-location and the parameter search) is
//! modelled in the `bench` crate.
//!
//! # Example
//!
//! ```rust
//! use pir_protocol::{PirClient, PirServer, GpuPirServer, PirTable};
//! use pir_prf::PrfKind;
//! use rand::SeedableRng;
//!
//! // A tiny table of 64 entries × 16 bytes.
//! let entries: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 16]).collect();
//! let table = PirTable::from_entries(&entries);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let client = PirClient::new(table.schema(), PrfKind::Chacha20);
//! let server0 = GpuPirServer::with_defaults(table.clone(), PrfKind::Chacha20);
//! let server1 = GpuPirServer::with_defaults(table, PrfKind::Chacha20);
//!
//! let query = client.query(42, &mut rng);
//! let response0 = server0.answer(&query.to_server(0)).unwrap();
//! let response1 = server1.answer(&query.to_server(1)).unwrap();
//! let row = client.reconstruct(&query, &response0, &response1).unwrap();
//! assert_eq!(row, vec![42u8; 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod hot_cache;
pub mod message;
pub mod naive;
pub mod server;
pub mod table;

pub use client::{PirClient, QueryHandle};
pub use error::PirError;
pub use hot_cache::{HotCacheStats, HotEntryCache};
pub use message::{
    PirQuery, PirResponse, ServerQuery, RESPONSE_PREFIX_BYTES, SCHEMA_WIRE_BYTES,
    SERVER_QUERY_PREFIX_BYTES,
};
pub use naive::{NaivePir, NaiveQuery};
pub use server::{
    build_replica_with_backend, build_shared_replica, shard_owned_ranges, shard_split_bits,
    validate_update, GpuPirServer, PirServer, ServerMetrics,
};
pub use table::{PirTable, TableSchema};
