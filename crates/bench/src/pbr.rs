//! Partial batch retrieval (PBR), the batch-PIR scheme of §4.1.
//!
//! The table is segmented into `⌈L / bin_size⌉` bins of contiguous indices.
//! For every inference the client issues exactly **one** DPF query per bin —
//! a real query for one desired index that falls in the bin, or a dummy query
//! otherwise — so the servers learn nothing from the query pattern. Each bin
//! can serve at most one index per inference; additional desired indices that
//! map to an already-used bin are **dropped**, which is the quality/perf
//! trade-off the ML co-design manages.
//!
//! Compared with issuing `q` independent full-table queries (cost
//! `q · O(L)`), PBR's per-inference server cost is a single `O(L)` sweep
//! regardless of `q`, at the price of the dropped queries and of
//! communication proportional to the number of bins.

use std::collections::BTreeMap;

use pir_prf::PrfKind;
use pir_protocol::{
    GpuPirServer, PirClient, PirError, PirQuery, PirResponse, PirServer, PirTable, ServerQuery,
    TableSchema,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the bin layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PbrConfig {
    /// Number of consecutive table entries per bin (`I` in the paper).
    pub bin_size: u64,
}

impl PbrConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is zero.
    #[must_use]
    pub fn new(bin_size: u64) -> Self {
        assert!(bin_size > 0, "bins must hold at least one entry");
        Self { bin_size }
    }

    /// Number of bins for a table with `entries` rows.
    #[must_use]
    pub fn num_bins(&self, entries: u64) -> u64 {
        entries.div_ceil(self.bin_size)
    }

    /// Which bin an index falls into.
    #[must_use]
    pub fn bin_of(&self, index: u64) -> u64 {
        index / self.bin_size
    }

    /// The sub-range of table indices covered by `bin`.
    #[must_use]
    pub fn bin_range(&self, bin: u64, entries: u64) -> (u64, u64) {
        let start = bin * self.bin_size;
        let end = (start + self.bin_size).min(entries);
        (start, end)
    }
}

/// The outcome of assigning one inference's desired indices to bins.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinAssignment {
    /// For each bin that serves a real request: bin → chosen global index.
    pub served: BTreeMap<u64, u64>,
    /// Desired indices that could not be served (bin conflict).
    pub dropped: Vec<u64>,
}

impl BinAssignment {
    /// Fraction of requested indices that were dropped.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let total = self.served.len() + self.dropped.len();
        if total == 0 {
            return 0.0;
        }
        self.dropped.len() as f64 / total as f64
    }
}

/// Client-side PBR state: one [`PirClient`] per bin shape.
#[derive(Debug)]
pub struct PbrClient {
    schema: TableSchema,
    config: PbrConfig,
    /// Clients keyed by bin length (the last bin may be shorter).
    bin_clients: BTreeMap<u64, PirClient>,
}

impl PbrClient {
    /// Create a client for a table with `schema`, binned per `config`.
    #[must_use]
    pub fn new(schema: TableSchema, config: PbrConfig, prf_kind: PrfKind) -> Self {
        let mut bin_clients = BTreeMap::new();
        let bins = config.num_bins(schema.entries);
        for bin in 0..bins {
            let (start, end) = config.bin_range(bin, schema.entries);
            let len = end - start;
            bin_clients.entry(len).or_insert_with(|| {
                PirClient::new(TableSchema::new(len, schema.entry_bytes), prf_kind)
            });
        }
        Self {
            schema,
            config,
            bin_clients,
        }
    }

    /// Assign desired indices to bins, dropping conflicts.
    ///
    /// Earlier indices win ties, matching a client that ranks its sparse
    /// features by importance before querying.
    ///
    /// # Panics
    ///
    /// Panics if any index is outside the table.
    #[must_use]
    pub fn assign(&self, desired: &[u64]) -> BinAssignment {
        let mut assignment = BinAssignment::default();
        for &index in desired {
            assert!(
                index < self.schema.entries,
                "index {index} outside table of {}",
                self.schema.entries
            );
            let bin = self.config.bin_of(index);
            if let std::collections::btree_map::Entry::Vacant(slot) = assignment.served.entry(bin) {
                slot.insert(index);
            } else {
                assignment.dropped.push(index);
            }
        }
        assignment
    }

    /// Build the fixed-size query vector for one inference: exactly one query
    /// per bin (dummy queries for bins without a real request).
    ///
    /// Returns the per-bin queries in bin order.
    pub fn queries<R: Rng + ?Sized>(
        &self,
        assignment: &BinAssignment,
        rng: &mut R,
    ) -> Vec<PirQuery> {
        let bins = self.config.num_bins(self.schema.entries);
        (0..bins)
            .map(|bin| {
                let (start, end) = self.config.bin_range(bin, self.schema.entries);
                let len = end - start;
                let client = &self.bin_clients[&len];
                match assignment.served.get(&bin) {
                    Some(&global_index) => client.query(global_index - start, rng),
                    None => client.dummy_query(rng),
                }
            })
            .collect()
    }

    /// Upload bytes per server for one inference (one key per bin).
    #[must_use]
    pub fn upload_bytes_per_server(&self, queries: &[PirQuery]) -> usize {
        queries.iter().map(PirQuery::upload_bytes_per_server).sum()
    }

    /// Reconstruct the retrieved entries: `bin → entry bytes` for every bin
    /// that served a real request.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction mismatches from the underlying client.
    pub fn reconstruct(
        &self,
        assignment: &BinAssignment,
        queries: &[PirQuery],
        responses0: &[PirResponse],
        responses1: &[PirResponse],
    ) -> Result<BTreeMap<u64, Vec<u8>>, PirError> {
        if queries.len() != responses0.len() || queries.len() != responses1.len() {
            return Err(PirError::ResponseMismatch(format!(
                "expected {} responses per server, got {} and {}",
                queries.len(),
                responses0.len(),
                responses1.len()
            )));
        }
        let mut out = BTreeMap::new();
        for (bin, &global_index) in &assignment.served {
            let bin_index = *bin as usize;
            let (start, end) = self.config.bin_range(*bin, self.schema.entries);
            let len = end - start;
            let client = &self.bin_clients[&len];
            let lanes = client.reconstruct_lanes(
                &queries[bin_index],
                &responses0[bin_index],
                &responses1[bin_index],
            )?;
            let mut bytes: Vec<u8> = lanes.iter().flat_map(|lane| lane.to_le_bytes()).collect();
            bytes.truncate(self.schema.entry_bytes);
            out.insert(global_index, bytes);
        }
        Ok(out)
    }
}

/// Server-side PBR state: the table split into per-bin PIR servers.
pub struct PbrServer {
    bins: Vec<GpuPirServer>,
}

impl PbrServer {
    /// Split `table` into bins and build a GPU PIR server for each.
    #[must_use]
    pub fn new(table: &PirTable, config: PbrConfig, prf_kind: PrfKind) -> Self {
        let bins = config.num_bins(table.entries());
        let servers = (0..bins)
            .map(|bin| {
                let (start, end) = config.bin_range(bin, table.entries());
                let entries: Vec<Vec<u8>> = (start..end).map(|i| table.entry(i)).collect();
                GpuPirServer::with_defaults(PirTable::from_entries(&entries), prf_kind)
            })
            .collect();
        Self { bins: servers }
    }

    /// Answer one inference's per-bin queries (one query per bin, in order).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of queries does not equal the number of
    /// bins, or any query does not match its bin's schema.
    pub fn answer(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError> {
        if queries.len() != self.bins.len() {
            return Err(PirError::BudgetViolation(format!(
                "expected one query per bin ({}), got {}",
                self.bins.len(),
                queries.len()
            )));
        }
        queries
            .iter()
            .zip(&self.bins)
            .map(|(query, server)| server.answer(query))
            .collect()
    }

    /// Total PRF calls performed so far across all bins.
    #[must_use]
    pub fn total_prf_calls(&self) -> u64 {
        self.bins.iter().map(|s| s.metrics().prf_calls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> PirTable {
        PirTable::generate(100, 8, |row, offset| (row as u8).wrapping_add(offset as u8))
    }

    #[test]
    fn bin_arithmetic() {
        let config = PbrConfig::new(16);
        assert_eq!(config.num_bins(100), 7);
        assert_eq!(config.bin_of(0), 0);
        assert_eq!(config.bin_of(15), 0);
        assert_eq!(config.bin_of(16), 1);
        assert_eq!(config.bin_range(6, 100), (96, 100));
    }

    #[test]
    fn assignment_drops_conflicts_only() {
        let client = PbrClient::new(
            TableSchema::new(100, 8),
            PbrConfig::new(10),
            PrfKind::SipHash,
        );
        let assignment = client.assign(&[5, 15, 17, 95, 3]);
        // 5 and 3 share bin 0: 3 is dropped. 15 and 17 share bin 1: 17 dropped.
        assert_eq!(assignment.served[&0], 5);
        assert_eq!(assignment.served[&1], 15);
        assert_eq!(assignment.served[&9], 95);
        assert_eq!(assignment.dropped, vec![17, 3]);
        assert!((assignment.drop_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_request_has_zero_drop_rate() {
        assert_eq!(BinAssignment::default().drop_rate(), 0.0);
    }

    #[test]
    fn end_to_end_batch_retrieval() {
        let table = table();
        let config = PbrConfig::new(32);
        let client = PbrClient::new(table.schema(), config, PrfKind::SipHash);
        let server0 = PbrServer::new(&table, config, PrfKind::SipHash);
        let server1 = PbrServer::new(&table, config, PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(101);

        let desired = vec![3u64, 40, 70, 99, 5]; // 5 conflicts with 3 (bin 0)
        let assignment = client.assign(&desired);
        assert_eq!(assignment.dropped, vec![5]);

        let queries = client.queries(&assignment, &mut rng);
        assert_eq!(queries.len(), 4); // ceil(100/32) bins, every bin queried
        let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
        let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();
        let r0 = server0.answer(&to0).unwrap();
        let r1 = server1.answer(&to1).unwrap();

        let retrieved = client.reconstruct(&assignment, &queries, &r0, &r1).unwrap();
        assert_eq!(retrieved.len(), 4);
        for (&index, bytes) in &retrieved {
            assert_eq!(bytes, &table.entry(index), "index {index}");
        }
        assert!(!retrieved.contains_key(&5));
        assert!(server0.total_prf_calls() > 0);
    }

    #[test]
    fn query_count_is_independent_of_request_count() {
        // The privacy invariant: one query per bin no matter how many (or few)
        // real lookups the user needs.
        let client = PbrClient::new(
            TableSchema::new(64, 4),
            PbrConfig::new(16),
            PrfKind::SipHash,
        );
        let mut rng = StdRng::seed_from_u64(102);
        let few = client.queries(&client.assign(&[1]), &mut rng);
        let many = client.queries(&client.assign(&[1, 2, 3, 20, 40, 63]), &mut rng);
        let none = client.queries(&client.assign(&[]), &mut rng);
        assert_eq!(few.len(), 4);
        assert_eq!(many.len(), 4);
        assert_eq!(none.len(), 4);
    }

    #[test]
    fn smaller_bins_cost_more_communication() {
        let schema = TableSchema::new(1 << 12, 64);
        let mut rng = StdRng::seed_from_u64(103);
        let coarse = PbrClient::new(schema, PbrConfig::new(1024), PrfKind::SipHash);
        let fine = PbrClient::new(schema, PbrConfig::new(64), PrfKind::SipHash);
        let coarse_bytes =
            coarse.upload_bytes_per_server(&coarse.queries(&coarse.assign(&[0]), &mut rng));
        let fine_bytes = fine.upload_bytes_per_server(&fine.queries(&fine.assign(&[0]), &mut rng));
        assert!(fine_bytes > 5 * coarse_bytes);
    }

    #[test]
    fn wrong_query_count_is_rejected() {
        let table = table();
        let config = PbrConfig::new(50);
        let server = PbrServer::new(&table, config, PrfKind::SipHash);
        let client = PbrClient::new(table.schema(), config, PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(104);
        let queries = client.queries(&client.assign(&[1]), &mut rng);
        let to0: Vec<_> = queries.iter().take(1).map(|q| q.to_server(0)).collect();
        assert!(matches!(
            server.answer(&to0),
            Err(PirError::BudgetViolation(_))
        ));
    }
}
