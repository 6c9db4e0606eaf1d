//! Two-server private information retrieval for embedding tables.
//!
//! This crate assembles the DPF primitive from [`pir_dpf`] into the protocol
//! the paper deploys (Figure 2):
//!
//! 1. the client turns a private table index into two DPF keys
//!    ([`PirClient`]),
//! 2. each of two non-colluding servers expands its key against the table and
//!    returns an additive share of the answer ([`GpuPirServer`] on the
//!    simulated V100, [`CpuPirServer`] as the optimized multi-core baseline),
//! 3. the client adds the two shares to recover the embedding row.
//!
//! On top of single-query PIR it implements the paper's batch and co-design
//! machinery: partial batch retrieval ([`pbr`]), the frequency-based hot-table
//! split ([`hot_table`]), access-pattern-aware embedding co-location
//! ([`colocation`]) and the co-design parameter sweep ([`codesign`]) that
//! trades computation, communication and dropped queries under explicit
//! [`budget`]s.
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

pub mod budget;
pub mod client;
pub mod codesign;
pub mod colocation;
pub mod error;
pub mod hot_cache;
pub mod hot_table;
pub mod message;
pub mod naive;
pub mod pbr;
pub mod server;
pub mod table;

pub use budget::Budget;
pub use client::{PirClient, QueryHandle};
pub use codesign::{CodesignParams, CodesignPoint, CodesignSearch, CodesignSpace, FullTableMode};
pub use colocation::{ColocatedTable, ColocationMap};
pub use error::PirError;
pub use hot_cache::{HotCacheStats, HotEntryCache};
pub use hot_table::{HotTableConfig, HotTablePlan, HotTableSplit};
pub use message::{
    PirQuery, PirResponse, ServerQuery, RESPONSE_PREFIX_BYTES, SCHEMA_WIRE_BYTES,
    SERVER_QUERY_PREFIX_BYTES,
};
pub use naive::{NaivePir, NaiveQuery};
pub use pbr::{BinAssignment, PbrClient, PbrConfig, PbrServer};
pub use server::{
    build_replica_with_backend, build_shared_replica, shard_owned_ranges, shard_split_bits,
    validate_update, CpuBatchTiming, CpuPirServer, GpuPirServer, PirServer, ServerMetrics,
};
pub use table::{PirTable, TableSchema};
