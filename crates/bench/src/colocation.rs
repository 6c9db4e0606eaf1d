//! Access-pattern-aware embedding co-location (§4.2, Figure 10c).
//!
//! Embeddings that are frequently accessed *together* in one inference are
//! packed into the same (wider) table row, so a single PIR query retrieves up
//! to `C + 1` useful embeddings. The grouping is computed offline from
//! training-set co-occurrence statistics; the client keeps the (public)
//! index → group mapping.

use std::collections::{BTreeMap, HashMap, HashSet};

use pir_protocol::PirTable;
use serde::{Deserialize, Serialize};

/// Mapping from original embedding indices to co-located groups.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColocationMap {
    /// Number of embeddings per group (`C + 1` in the paper's terms).
    group_size: usize,
    /// Groups in group-index order; each group lists original indices.
    groups: Vec<Vec<u64>>,
    /// Original index → (group index, slot within the group).
    placement: HashMap<u64, (u64, usize)>,
}

impl ColocationMap {
    /// Build the grouping from co-occurrence statistics.
    ///
    /// `sessions` are the per-inference index sets observed on training data.
    /// The builder greedily seeds groups with the most frequently accessed
    /// indices and fills each group with the seed's strongest co-occurring
    /// partners; any index never observed is appended in index order so the
    /// mapping always covers the whole table.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero or `table_entries` is zero.
    #[must_use]
    pub fn build(table_entries: u64, group_size: usize, sessions: &[Vec<u64>]) -> Self {
        assert!(group_size > 0, "groups must hold at least one embedding");
        assert!(table_entries > 0, "table must contain at least one entry");

        // Frequency and pairwise co-occurrence counts.
        let mut frequency: BTreeMap<u64, u64> = BTreeMap::new();
        let mut cooccurrence: HashMap<(u64, u64), u64> = HashMap::new();
        for session in sessions {
            let unique: Vec<u64> = {
                let mut seen = HashSet::new();
                session
                    .iter()
                    .copied()
                    .filter(|i| *i < table_entries && seen.insert(*i))
                    .collect()
            };
            for &a in &unique {
                *frequency.entry(a).or_default() += 1;
            }
            for i in 0..unique.len() {
                for j in (i + 1)..unique.len() {
                    let (a, b) = (unique[i].min(unique[j]), unique[i].max(unique[j]));
                    *cooccurrence.entry((a, b)).or_default() += 1;
                }
            }
        }

        // Adjacency: for each index, its partners sorted by co-occurrence.
        let mut partners: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for (&(a, b), &count) in &cooccurrence {
            partners.entry(a).or_default().push((count, b));
            partners.entry(b).or_default().push((count, a));
        }

        let mut seeds: Vec<u64> = frequency.keys().copied().collect();
        seeds.sort_by_key(|i| std::cmp::Reverse(frequency[i]));

        let mut assigned: HashSet<u64> = HashSet::new();
        let mut groups: Vec<Vec<u64>> = Vec::new();

        for seed in seeds {
            if assigned.contains(&seed) {
                continue;
            }
            let mut group = vec![seed];
            assigned.insert(seed);
            if let Some(mut options) = partners.get(&seed).cloned() {
                options.sort_by_key(|(count, index)| (std::cmp::Reverse(*count), *index));
                for (_, candidate) in options {
                    if group.len() >= group_size {
                        break;
                    }
                    if assigned.insert(candidate) {
                        group.push(candidate);
                    }
                }
            }
            groups.push(group);
        }

        // Cover the remaining (never-observed or unpacked) indices.
        let mut leftover: Vec<u64> = (0..table_entries)
            .filter(|i| !assigned.contains(i))
            .collect();
        leftover.sort_unstable();
        for chunk in leftover.chunks(group_size) {
            groups.push(chunk.to_vec());
        }
        // Fill the last partially-filled groups greedily so every group except
        // possibly the final one is full, keeping the grouped table compact.
        let placement = Self::placement_of(&groups);
        Self {
            group_size,
            groups,
            placement,
        }
    }

    /// A trivial identity mapping (`C = 0`, one embedding per group) for
    /// comparisons against "no co-location".
    #[must_use]
    pub fn identity(table_entries: u64) -> Self {
        let groups: Vec<Vec<u64>> = (0..table_entries).map(|i| vec![i]).collect();
        let placement = Self::placement_of(&groups);
        Self {
            group_size: 1,
            groups,
            placement,
        }
    }

    fn placement_of(groups: &[Vec<u64>]) -> HashMap<u64, (u64, usize)> {
        let mut placement = HashMap::new();
        for (group_index, group) in groups.iter().enumerate() {
            for (slot, &original) in group.iter().enumerate() {
                placement.insert(original, (group_index as u64, slot));
            }
        }
        placement
    }

    /// Number of embeddings packed per group.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups (rows of the co-located table).
    #[must_use]
    pub fn num_groups(&self) -> u64 {
        self.groups.len() as u64
    }

    /// Where an original index lives: `(group, slot)`.
    #[must_use]
    pub fn placement(&self, original: u64) -> Option<(u64, usize)> {
        self.placement.get(&original).copied()
    }

    /// Map a set of requested original indices to the distinct groups that
    /// must be queried. Returns `(groups, unknown_indices)`.
    #[must_use]
    pub fn groups_for(&self, requested: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let mut groups = Vec::new();
        let mut seen = HashSet::new();
        let mut unknown = Vec::new();
        for &index in requested {
            match self.placement(index) {
                Some((group, _)) => {
                    if seen.insert(group) {
                        groups.push(group);
                    }
                }
                None => unknown.push(index),
            }
        }
        (groups, unknown)
    }
}

/// The physically co-located table: one row per group, `group_size` original
/// entries wide.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ColocatedTable {
    map: ColocationMap,
    table: PirTable,
    original_entry_bytes: usize,
}

impl ColocatedTable {
    /// Build the wide table from the original table and a grouping.
    #[must_use]
    pub fn build(original: &PirTable, map: ColocationMap) -> Self {
        let entry_bytes = original.entry_bytes();
        let wide_bytes = entry_bytes * map.group_size();
        let entries: Vec<Vec<u8>> = map
            .groups
            .iter()
            .map(|group| {
                let mut row = vec![0u8; wide_bytes];
                for (slot, &original_index) in group.iter().enumerate() {
                    row[slot * entry_bytes..(slot + 1) * entry_bytes]
                        .copy_from_slice(&original.entry(original_index));
                }
                row
            })
            .collect();
        Self {
            map,
            table: PirTable::from_entries(&entries),
            original_entry_bytes: entry_bytes,
        }
    }

    /// The grouping used to build this table.
    #[must_use]
    pub fn map(&self) -> &ColocationMap {
        &self.map
    }

    /// The wide PIR table to host on the servers.
    #[must_use]
    pub fn table(&self) -> &PirTable {
        &self.table
    }

    /// Extract one original embedding from a retrieved wide row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the wide entry size or the
    /// index does not belong to this row's group.
    #[must_use]
    pub fn extract(&self, original_index: u64, wide_row: &[u8]) -> Vec<u8> {
        assert_eq!(
            wide_row.len(),
            self.original_entry_bytes * self.map.group_size(),
            "wide row has unexpected length"
        );
        let (_, slot) = self
            .map
            .placement(original_index)
            .expect("index must belong to a group");
        wide_row[slot * self.original_entry_bytes..(slot + 1) * self.original_entry_bytes].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions() -> Vec<Vec<u64>> {
        // 0,1,2 always appear together; 3,4 appear together; 5 alone.
        let mut out = Vec::new();
        for _ in 0..50 {
            out.push(vec![0, 1, 2]);
        }
        for _ in 0..30 {
            out.push(vec![3, 4]);
        }
        for _ in 0..10 {
            out.push(vec![5]);
        }
        out
    }

    #[test]
    fn cooccurring_indices_share_a_group() {
        let map = ColocationMap::build(8, 3, &sessions());
        let (g0, _) = map.placement(0).unwrap();
        let (g1, _) = map.placement(1).unwrap();
        let (g2, _) = map.placement(2).unwrap();
        assert_eq!(g0, g1);
        assert_eq!(g1, g2);
        let (g3, _) = map.placement(3).unwrap();
        let (g4, _) = map.placement(4).unwrap();
        assert_eq!(g3, g4);
        assert_ne!(g0, g3);
        // Every index 0..8 is placed somewhere.
        for i in 0..8u64 {
            assert!(map.placement(i).is_some(), "index {i} unplaced");
        }
    }

    #[test]
    fn groups_for_deduplicates() {
        let map = ColocationMap::build(8, 3, &sessions());
        let (groups, unknown) = map.groups_for(&[0, 1, 2, 3]);
        assert_eq!(groups.len(), 2); // {0,1,2} in one group, 3 in another
        assert!(unknown.is_empty());
        let (_, unknown) = map.groups_for(&[100]);
        assert_eq!(unknown, vec![100]);
    }

    #[test]
    fn identity_map_is_one_to_one() {
        let map = ColocationMap::identity(10);
        assert_eq!(map.num_groups(), 10);
        assert_eq!(map.group_size(), 1);
        for i in 0..10u64 {
            assert_eq!(map.placement(i), Some((i, 0)));
        }
    }

    #[test]
    fn colocated_table_roundtrips_entries() {
        let original = PirTable::generate(8, 4, |row, offset| (row * 16 + offset as u64) as u8);
        let map = ColocationMap::build(8, 3, &sessions());
        let colocated = ColocatedTable::build(&original, map);
        assert_eq!(colocated.table().entry_bytes(), 12);

        for index in 0..8u64 {
            let (group, _) = colocated.map().placement(index).unwrap();
            let wide = colocated.table().entry(group);
            assert_eq!(
                colocated.extract(index, &wide),
                original.entry(index),
                "index {index}"
            );
        }
    }

    #[test]
    fn colocation_reduces_queries_needed() {
        let map = ColocationMap::build(64, 4, &sessions());
        let identity = ColocationMap::identity(64);
        let request = vec![0u64, 1, 2, 3, 4];
        let (grouped, _) = map.groups_for(&request);
        let (ungrouped, _) = identity.groups_for(&request);
        assert!(grouped.len() < ungrouped.len());
    }

    #[test]
    #[should_panic(expected = "at least one embedding")]
    fn zero_group_size_panics() {
        let _ = ColocationMap::build(8, 0, &[]);
    }
}
