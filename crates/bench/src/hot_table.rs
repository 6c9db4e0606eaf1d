//! Frequency-based hot-table split (§4.2, Figure 10b).
//!
//! ML embedding accesses follow a power law: a small set of *hot* indices
//! receives most lookups. The co-design places the top-`K` most frequent
//! entries in a separate small **hot table**; queries that hit it cost a PIR
//! evaluation over `K` entries instead of the full table.
//!
//! To avoid leaking *which* table a user's lookups hit (and how many lookups
//! they make), every inference issues exactly `q_hot` queries to the hot
//! table and a fixed set of full-table queries, padding with dummies and
//! dropping overflow — the invariant enforced and tested here.

use std::collections::HashMap;

use pir_protocol::PirTable;
use serde::{Deserialize, Serialize};

/// Configuration of the hot/full split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HotTableConfig {
    /// Number of entries promoted to the hot table (`K`).
    pub hot_entries: u64,
    /// Fixed number of hot-table queries issued per inference (`Q_hot`).
    pub q_hot: usize,
}

impl HotTableConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `hot_entries` is zero (use no hot table at all instead) or
    /// `q_hot` is zero.
    #[must_use]
    pub fn new(hot_entries: u64, q_hot: usize) -> Self {
        assert!(hot_entries > 0, "hot table must hold at least one entry");
        assert!(q_hot > 0, "q_hot must be at least one");
        Self { hot_entries, q_hot }
    }
}

/// The query plan for one inference after the hot/full split.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotTablePlan {
    /// Hot-table indices to query (length ≤ `q_hot`; padded with dummies by
    /// the caller when issuing PIR queries).
    pub hot_indices: Vec<u64>,
    /// Full-table (global) indices that must go to the full table.
    pub full_indices: Vec<u64>,
    /// Requested indices dropped because the hot budget was exhausted.
    pub dropped: Vec<u64>,
    /// The fixed number of hot queries that will actually be issued.
    pub q_hot: usize,
}

impl HotTablePlan {
    /// Fraction of requested indices dropped by the hot budget.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let total = self.hot_indices.len() + self.full_indices.len() + self.dropped.len();
        if total == 0 {
            return 0.0;
        }
        self.dropped.len() as f64 / total as f64
    }
}

/// The hot-table structure shared between the preprocessing phase (server
/// side, from public training statistics) and the client (the small
/// global→hot index map).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HotTableSplit {
    config: HotTableConfig,
    /// Hot-table contents, in hot-index order.
    hot_table: PirTable,
    /// Map from global index to hot-table index.
    hot_index_of: HashMap<u64, u64>,
}

impl HotTableSplit {
    /// Build the split from per-index access frequencies observed on the
    /// training data.
    ///
    /// `frequencies[i]` is the access count of global index `i`. The
    /// `config.hot_entries` most frequent indices are promoted.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies.len()` does not match the table, or the hot
    /// table would be at least as large as the full table.
    #[must_use]
    pub fn build(full_table: &PirTable, frequencies: &[u64], config: HotTableConfig) -> Self {
        assert_eq!(
            frequencies.len() as u64,
            full_table.entries(),
            "need one frequency per table entry"
        );
        assert!(
            config.hot_entries < full_table.entries(),
            "hot table must be smaller than the full table"
        );

        let mut by_frequency: Vec<u64> = (0..full_table.entries()).collect();
        by_frequency
            .sort_by_key(|&i| std::cmp::Reverse((frequencies[i as usize], std::cmp::Reverse(i))));
        by_frequency.truncate(config.hot_entries as usize);

        let hot_entries: Vec<Vec<u8>> = by_frequency.iter().map(|&i| full_table.entry(i)).collect();
        let hot_index_of: HashMap<u64, u64> = by_frequency
            .iter()
            .enumerate()
            .map(|(hot, &global)| (global, hot as u64))
            .collect();

        Self {
            config,
            hot_table: PirTable::from_entries(&hot_entries),
            hot_index_of,
        }
    }

    /// The split's configuration.
    #[must_use]
    pub fn config(&self) -> HotTableConfig {
        self.config
    }

    /// The hot table itself (hosted, like the full table, on both servers).
    #[must_use]
    pub fn hot_table(&self) -> &PirTable {
        &self.hot_table
    }

    /// Size in bytes of the client-side map from global to hot indices (the
    /// "small hash table placed on the client device").
    #[must_use]
    pub fn client_map_bytes(&self) -> u64 {
        // 8-byte global index + 4-byte hot index per entry.
        self.hot_index_of.len() as u64 * 12
    }

    /// Whether a global index is in the hot table, and its hot index if so.
    #[must_use]
    pub fn hot_index_of(&self, global_index: u64) -> Option<u64> {
        self.hot_index_of.get(&global_index).copied()
    }

    /// Partition one inference's requested indices into the fixed-count hot
    /// and full query streams.
    ///
    /// Hot hits beyond `q_hot` are *dropped* rather than redirected to the
    /// full table: redirecting would make the number of full-table queries
    /// depend on private data. (The full-table stream has its own fixed
    /// budget enforced by the PBR layer.)
    #[must_use]
    pub fn plan(&self, requested: &[u64]) -> HotTablePlan {
        let mut plan = HotTablePlan {
            q_hot: self.config.q_hot,
            ..HotTablePlan::default()
        };
        for &index in requested {
            match self.hot_index_of(index) {
                Some(hot) => {
                    if plan.hot_indices.len() < self.config.q_hot {
                        plan.hot_indices.push(hot);
                    } else {
                        plan.dropped.push(index);
                    }
                }
                None => plan.full_indices.push(index),
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_table() -> PirTable {
        PirTable::generate(64, 8, |row, offset| (row as u8).wrapping_add(offset as u8))
    }

    /// Zipf-ish frequencies: index i accessed 1000/(i+1) times.
    fn frequencies() -> Vec<u64> {
        (0..64u64).map(|i| 1000 / (i + 1)).collect()
    }

    #[test]
    fn hot_table_holds_the_most_frequent_entries() {
        let table = full_table();
        let split = HotTableSplit::build(&table, &frequencies(), HotTableConfig::new(8, 4));
        assert_eq!(split.hot_table().entries(), 8);
        // Indices 0..8 are the most frequent, so all must be present.
        for global in 0..8u64 {
            let hot = split.hot_index_of(global).expect("hot index present");
            assert_eq!(split.hot_table().entry(hot), table.entry(global));
        }
        assert!(split.hot_index_of(20).is_none());
        assert!(split.client_map_bytes() < 200);
    }

    #[test]
    fn plan_separates_hot_and_full() {
        let table = full_table();
        let split = HotTableSplit::build(&table, &frequencies(), HotTableConfig::new(8, 2));
        let plan = split.plan(&[0, 1, 30, 2, 50]);
        // q_hot = 2: indices 0 and 1 go hot, 2 is a hot hit beyond budget -> dropped.
        assert_eq!(plan.hot_indices.len(), 2);
        assert_eq!(plan.full_indices, vec![30, 50]);
        assert_eq!(plan.dropped, vec![2]);
        assert!((plan.drop_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn plan_is_empty_for_no_requests() {
        let table = full_table();
        let split = HotTableSplit::build(&table, &frequencies(), HotTableConfig::new(4, 2));
        let plan = split.plan(&[]);
        assert!(plan.hot_indices.is_empty());
        assert!(plan.full_indices.is_empty());
        assert_eq!(plan.drop_rate(), 0.0);
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let table = full_table();
        let uniform = vec![5u64; 64];
        let split_a = HotTableSplit::build(&table, &uniform, HotTableConfig::new(8, 2));
        let split_b = HotTableSplit::build(&table, &uniform, HotTableConfig::new(8, 2));
        assert_eq!(split_a, split_b);
        // With uniform frequencies the lowest indices win (stable, documented).
        assert!(split_a.hot_index_of(0).is_some());
        assert!(split_a.hot_index_of(63).is_none());
    }

    #[test]
    #[should_panic(expected = "smaller than the full table")]
    fn hot_table_must_be_smaller() {
        let table = full_table();
        let _ = HotTableSplit::build(&table, &frequencies(), HotTableConfig::new(64, 2));
    }

    #[test]
    #[should_panic(expected = "one frequency per table entry")]
    fn frequency_length_must_match() {
        let table = full_table();
        let _ = HotTableSplit::build(&table, &[1, 2, 3], HotTableConfig::new(2, 1));
    }
}
