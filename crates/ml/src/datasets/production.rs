//! The production recommendation-model profile from the paper's Table 2 and
//! §2.3.
//!
//! The paper studies a real-world model whose top device-only sparse features
//! have multi-gigabyte embedding tables, 144-byte entries, tens of lookups
//! per inference and strong temporal locality (only 2.44 % of lookups miss a
//! client-side cache of recently fetched entries). The real model and traces
//! are proprietary; this module keeps the published statistics as data.

use serde::{Deserialize, Serialize};

/// One row of Table 2: a device-only sparse feature's embedding table.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProductionTableStats {
    /// Number of embedding entries.
    pub entries: u64,
    /// Average embedding lookups per inference.
    pub avg_queries_per_inference: f64,
    /// Entry size in bytes.
    pub entry_bytes: u64,
}

impl ProductionTableStats {
    /// Total table size in bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.entries * self.entry_bytes
    }
}

/// The production profile: Table 2 plus the §2.3 locality statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProductionProfile;

impl ProductionProfile {
    /// Entry size shared by all of the model's tables.
    pub const ENTRY_BYTES: u64 = 144;

    /// Table 2, in the paper's row order (top-5 device-only sparse features).
    #[must_use]
    pub fn table2() -> Vec<ProductionTableStats> {
        let rows = [
            (7_614_589u64, 13.9f64),
            (20_000_000, 47.3),
            (20_000_000, 25.7),
            (2_989_943, 3.2),
            (20_000_000, 14.9),
        ];
        rows.iter()
            .map(|&(entries, avg)| ProductionTableStats {
                entries,
                avg_queries_per_inference: avg,
                entry_bytes: Self::ENTRY_BYTES,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let rows = ProductionProfile::table2();
        assert_eq!(rows.len(), 5);
        // Largest tables are the 20M-entry ones at 2.68 GB.
        let largest = rows
            .iter()
            .map(ProductionTableStats::table_bytes)
            .max()
            .unwrap();
        assert_eq!(largest, 20_000_000 * 144);
        assert!((rows[1].avg_queries_per_inference - 47.3).abs() < 1e-9);
        // All are far too big for a client device.
        assert!(rows.iter().all(|r| r.table_bytes() > 400_000_000));
    }
}
