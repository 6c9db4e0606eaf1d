//! The embedding-table catalog from the paper's Table 1.

use serde::{Deserialize, Serialize};

/// One row of Table 1: a public dataset/model and its embedding-table shape.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Application name as printed in the paper.
    pub application: &'static str,
    /// Approximate number of embedding entries.
    pub entries: u64,
    /// Approximate entry size in bytes.
    pub entry_bytes: u64,
}

impl CatalogEntry {
    /// Approximate total table size in bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.entries * self.entry_bytes
    }

    /// Human-readable table size (GB / MB) as the paper prints it.
    #[must_use]
    pub fn table_size_human(&self) -> String {
        let bytes = self.table_bytes() as f64;
        if bytes >= 1e9 {
            format!("{:.1} GB", bytes / 1e9)
        } else if bytes >= 1e6 {
            format!("{:.0} MB", bytes / 1e6)
        } else {
            format!("{:.0} KB", bytes / 1e3)
        }
    }
}

/// The catalog of public datasets/models the paper lists in Table 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DatasetCatalog;

impl DatasetCatalog {
    /// Table 1, in the paper's row order.
    #[must_use]
    pub fn table1() -> Vec<CatalogEntry> {
        vec![
            CatalogEntry {
                application: "Criteo 1 TB Rec.",
                entries: 4_000_000_000,
                entry_bytes: 128,
            },
            CatalogEntry {
                application: "Criteo Rec.",
                entries: 45_000_000,
                entry_bytes: 128,
            },
            CatalogEntry {
                application: "FastText Emb. (Language Model)",
                entries: 2_000_000,
                entry_bytes: 1024,
            },
            CatalogEntry {
                application: "Taobao Rec.",
                entries: 900_000,
                entry_bytes: 128,
            },
            CatalogEntry {
                application: "WikiText2 (Language Model)",
                entries: 131_000,
                entry_bytes: 512,
            },
            CatalogEntry {
                application: "Movielens-20M Rec.",
                entries: 27_000,
                entry_bytes: 128,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table1_shape() {
        let table1 = DatasetCatalog::table1();
        assert_eq!(table1.len(), 6);
        // Ordered from largest to smallest table, as in the paper.
        for pair in table1.windows(2) {
            assert!(pair[0].table_bytes() >= pair[1].table_bytes());
        }
        // Criteo 1TB is hundreds of GB; MovieLens is a few MB.
        assert!(table1[0].table_bytes() > 400_000_000_000);
        assert!(table1[5].table_bytes() < 10_000_000);
    }

    #[test]
    fn human_sizes_render() {
        let table1 = DatasetCatalog::table1();
        assert!(table1[0].table_size_human().ends_with("GB"));
        assert!(table1[5].table_size_human().ends_with("MB"));
    }
}
