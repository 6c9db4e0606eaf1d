//! The shard map: which shard-owner serves which index-bit ranges, and the
//! masked table views the owners are provisioned with.

use std::ops::Range;

use pir_protocol::{shard_owned_ranges, shard_split_bits, PirTable};

use crate::error::ClusterError;

/// The static decomposition of one table across shard-owners.
///
/// Derived from `shard_split_bits`, the same rule the in-process multi-GPU
/// engine uses for devices: the padded power-of-two DPF domain is cut into
/// `1 << split_bits` contiguous subtrees and subtree `t` belongs to shard
/// `t % shards`. Because the reduction is linear, a shard-owner serving the
/// view of the table that keeps its rows and zeroes the rest computes an
/// *additive partial share*; the router sums the shards' answers lane-wise
/// (wrapping) and the total equals the unsharded answer bit-exactly. The
/// shard's server reads the kept rows off the view and evaluates only the
/// subtrees that hold them, so the shards also split the *work* of one
/// evaluation between them.
#[derive(Clone, Debug)]
pub struct ShardMap {
    entries: u64,
    shards: usize,
    split_bits: u32,
    domain_bits: u32,
    ranges: Vec<Vec<Range<u64>>>,
}

impl ShardMap {
    /// Build the map for a table of `entries` rows over `shards` owners.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Config`] when the split rule rejects the
    /// pair (zero shards, or a domain too shallow for that many subtrees).
    pub fn new(entries: u64, shards: usize) -> Result<Self, ClusterError> {
        let split_bits = shard_split_bits(entries, shards)
            .map_err(|err| ClusterError::Config(err.to_string()))?;
        let ranges = shard_owned_ranges(entries, shards)
            .map_err(|err| ClusterError::Config(err.to_string()))?;
        let domain_bits = if entries <= 1 {
            0
        } else {
            64 - (entries - 1).leading_zeros()
        };
        Ok(Self {
            entries,
            shards,
            split_bits,
            domain_bits,
            ranges,
        })
    }

    /// Number of rows in the (unpadded) table.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of shard-owners.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Prefix bits the DPF domain is split on.
    #[must_use]
    pub fn split_bits(&self) -> u32 {
        self.split_bits
    }

    /// The row ranges `shard` owns (clamped to the real table).
    #[must_use]
    pub fn owned_ranges(&self, shard: usize) -> &[Range<u64>] {
        &self.ranges[shard]
    }

    /// The shard that owns row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the table (callers validate against the
    /// schema first).
    #[must_use]
    pub fn owner_of(&self, index: u64) -> usize {
        assert!(index < self.entries, "row {index} outside the table");
        if self.split_bits == 0 {
            return 0;
        }
        let subtree = index >> (self.domain_bits - self.split_bits);
        subtree as usize % self.shards
    }

    /// Whether `shard` owns row `index`.
    #[must_use]
    pub fn owns(&self, shard: usize, index: u64) -> bool {
        self.ranges[shard]
            .iter()
            .any(|range| range.contains(&index))
    }

    /// The view `shard` is provisioned with: [`PirTable::masked`] to the
    /// shard's owned ranges — the table's schema, so any full-domain query
    /// key is accepted, and only the shard's rows, so the answer is the
    /// shard's additive partial share. The view stores the bounding range
    /// of the shard's rows alone, and the ordinary runtime serving it sweeps,
    /// uploads and keeps resident the owned subtrees only and refuses a
    /// write outside them.
    #[must_use]
    pub fn mask_table(&self, table: &PirTable, shard: usize) -> PirTable {
        assert_eq!(
            table.entries(),
            self.entries,
            "table shape disagrees with the shard map"
        );
        table.masked(&self.ranges[shard])
    }

    /// All shards' masked views, in shard order (the provisioning helper).
    #[must_use]
    pub fn provision(&self, table: &PirTable) -> Vec<PirTable> {
        (0..self.shards)
            .map(|shard| self.mask_table(table, shard))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(row: u64, offset: usize) -> u8 {
        (row as u8).wrapping_mul(11).wrapping_add(offset as u8)
    }

    #[test]
    fn owner_of_agrees_with_owned_ranges() {
        for shards in [1usize, 2, 3, 5] {
            let map = ShardMap::new(100, shards).unwrap();
            for row in 0..100u64 {
                let owner = map.owner_of(row);
                assert!(map.owns(owner, row), "row {row} shards {shards}");
                for other in (0..shards).filter(|&s| s != owner) {
                    assert!(!map.owns(other, row));
                }
            }
        }
    }

    #[test]
    fn masked_views_cover_the_table_without_overlap() {
        let table = PirTable::generate(37, 6, fill);
        let map = ShardMap::new(37, 3).unwrap();
        let views = map.provision(&table);
        assert_eq!(views.len(), 3);
        for row in 0..37u64 {
            let mut holders = 0;
            for (shard, view) in views.iter().enumerate() {
                let value = view.entry(row);
                if map.owns(shard, row) {
                    assert_eq!(value, table.entry(row));
                    holders += 1;
                } else {
                    assert!(value.iter().all(|&b| b == 0), "row {row} shard {shard}");
                }
            }
            assert_eq!(holders, 1);
        }
    }

    #[test]
    fn a_shard_view_stores_only_its_bounding_range() {
        let entries = 1u64 << 14;
        let table = PirTable::generate(entries, 16, fill);
        let row_bytes = table.matrix().lanes_per_row() * 4;
        let zero = vec![0u32; table.matrix().lanes_per_row()];
        for shards in 1..=5 {
            let map = ShardMap::new(entries, shards).unwrap();
            for (shard, view) in map.provision(&table).iter().enumerate() {
                let kept = view.kept_ranges();
                let bounding = kept[0].start..kept[kept.len() - 1].end;
                let stored = view.matrix().stored_bytes();
                assert_eq!(
                    stored,
                    (bounding.end - bounding.start) as usize * row_bytes,
                    "shard {shard} of {shards}"
                );
                if shards.is_power_of_two() {
                    assert_eq!(stored * shards, table.matrix().stored_bytes());
                }
                for row in 0..entries {
                    let want = if map.owns(shard, row) {
                        table.matrix().row(row as usize)
                    } else {
                        &zero
                    };
                    assert_eq!(view.matrix().row(row as usize), want, "row {row}");
                }
            }
        }
    }

    #[test]
    fn singleton_shard_is_the_whole_table() {
        let table = PirTable::generate(16, 4, fill);
        let map = ShardMap::new(16, 1).unwrap();
        assert_eq!(map.mask_table(&table, 0), table);
        assert_eq!(map.owner_of(15), 0);
    }

    #[test]
    fn invalid_splits_are_config_errors() {
        assert!(matches!(ShardMap::new(4, 64), Err(ClusterError::Config(_))));
        assert!(matches!(ShardMap::new(16, 0), Err(ClusterError::Config(_))));
    }
}
