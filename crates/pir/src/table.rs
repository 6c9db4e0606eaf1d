//! The server-side embedding table as seen by the PIR layer.

use std::ops::Range;

use pir_field::{lanes_for_bytes, LaneVector, ShareMatrix};
use serde::{Deserialize, Serialize};

/// Shape of a PIR table: how many entries, how wide each entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TableSchema {
    /// Number of entries (rows).
    pub entries: u64,
    /// Size of one entry in bytes.
    pub entry_bytes: usize,
}

impl TableSchema {
    /// Create a schema.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(entries: u64, entry_bytes: usize) -> Self {
        assert!(entries > 0, "table must contain at least one entry");
        assert!(entry_bytes > 0, "entries must be at least one byte");
        Self {
            entries,
            entry_bytes,
        }
    }

    /// Number of `u32` lanes per entry after padding.
    #[must_use]
    pub fn lanes_per_entry(&self) -> usize {
        lanes_for_bytes(self.entry_bytes)
    }

    /// Total table size in bytes (padded to whole lanes).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.entries * self.lanes_per_entry() as u64 * 4
    }

    /// Human-readable description used in error messages.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("{} entries × {} B", self.entries, self.entry_bytes)
    }
}

/// An embedding table replicated on both PIR servers.
///
/// Entries are stored as padded `u32` lanes (the representation the DPF output
/// is multiplied against); [`PirTable::entry_bytes`] remembers the original
/// width so reconstructed rows can be truncated back to exact byte length.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PirTable {
    schema: TableSchema,
    matrix: ShareMatrix,
    /// The rows this table holds, sorted and disjoint: all of them, unless
    /// it is a [`PirTable::masked`] view.
    kept: Vec<Range<u64>>,
}

impl PirTable {
    /// Build a table from raw entry byte strings.
    ///
    /// All entries must have the same length.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, any entry is empty, or entries disagree
    /// in length.
    #[must_use]
    pub fn from_entries(entries: &[Vec<u8>]) -> Self {
        assert!(!entries.is_empty(), "table must contain at least one entry");
        let entry_bytes = entries[0].len();
        assert!(entry_bytes > 0, "entries must be at least one byte");
        assert!(
            entries.iter().all(|e| e.len() == entry_bytes),
            "all entries must have the same length"
        );
        let schema = TableSchema::new(entries.len() as u64, entry_bytes);
        let lanes = schema.lanes_per_entry();
        let mut data = Vec::with_capacity(entries.len() * lanes);
        for entry in entries {
            data.extend(LaneVector::from_bytes(entry).0);
        }
        let matrix = ShareMatrix::from_rows(entries.len(), lanes, data);
        Self::whole(schema, matrix)
    }

    /// Build a table of `entries` rows of `entry_bytes` each, filled by
    /// `fill(row, byte_offset) -> byte`. Useful for generating large synthetic
    /// tables without materializing intermediate `Vec<Vec<u8>>`s.
    #[must_use]
    pub fn generate<F>(entries: u64, entry_bytes: usize, mut fill: F) -> Self
    where
        F: FnMut(u64, usize) -> u8,
    {
        let schema = TableSchema::new(entries, entry_bytes);
        let lanes = schema.lanes_per_entry();
        let mut data = Vec::with_capacity(entries as usize * lanes);
        for row in 0..entries {
            // One little-endian lane per four bytes, the last zero-padded:
            // `LaneVector::from_bytes`, filled in place.
            for lane_start in (0..entry_bytes).step_by(4) {
                let mut lane = [0u8; 4];
                for (byte, offset) in lane.iter_mut().zip(lane_start..entry_bytes) {
                    *byte = fill(row, offset);
                }
                data.push(u32::from_le_bytes(lane));
            }
        }
        let matrix = ShareMatrix::from_rows(entries as usize, lanes, data);
        Self::whole(schema, matrix)
    }

    fn whole(schema: TableSchema, matrix: ShareMatrix) -> Self {
        Self {
            schema,
            matrix,
            kept: std::iter::once(0..schema.entries).collect(),
        }
    }

    /// The same-shape table with every row outside `keep` zeroed — the view
    /// a shard-owner of those row ranges serves (its answer to a full-domain
    /// key is then its additive partial share). The view remembers what it
    /// kept ([`PirTable::kept_ranges`]), so a server evaluates, uploads and
    /// keeps resident only those rows and refuses writes to the others; a
    /// view that keeps every row *is* the table.
    ///
    /// The view stores only the bounding range of its kept rows (a
    /// [`ShareMatrix::windowed`] matrix), so a shard of a power-of-two split
    /// holds its own rows and nothing else; it still compares equal to the
    /// whole-size table with the other rows zeroed.
    ///
    /// # Panics
    ///
    /// Panics if a range reaches past the last row.
    #[must_use]
    pub fn masked(&self, keep: &[Range<u64>]) -> Self {
        // Sorted, with overlapping and touching ranges merged, so equal row
        // sets compare equal.
        let mut sorted: Vec<Range<u64>> = keep.iter().filter(|r| !r.is_empty()).cloned().collect();
        sorted.sort_by_key(|range| range.start);
        let mut kept: Vec<Range<u64>> = Vec::with_capacity(sorted.len());
        for range in sorted {
            match kept.last_mut() {
                Some(last) if range.start <= last.end => last.end = last.end.max(range.end),
                _ => kept.push(range),
            }
        }
        let window = match (kept.first(), kept.last()) {
            (Some(first), Some(last)) => first.start as usize..last.end as usize,
            _ => 0..0,
        };
        assert!(
            window.end as u64 <= self.entries(),
            "kept rows {window:?} reach past the last row ({})",
            self.entries()
        );
        let lanes = self.matrix.lanes_per_row();
        let mut data = vec![0; window.len() * lanes];
        for row in kept.iter().flat_map(Clone::clone) {
            let at = (row as usize - window.start) * lanes;
            data[at..at + lanes].copy_from_slice(self.matrix.row(row as usize));
        }
        Self {
            schema: self.schema,
            matrix: ShareMatrix::windowed(self.matrix.rows(), lanes, window, data),
            kept,
        }
    }

    /// The row ranges this table holds, sorted and disjoint: `0..entries`
    /// unless it is a [`PirTable::masked`] view.
    #[must_use]
    pub fn kept_ranges(&self) -> &[Range<u64>] {
        &self.kept
    }

    /// The table's schema.
    #[must_use]
    pub fn schema(&self) -> TableSchema {
        self.schema
    }

    /// Number of entries.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.schema.entries
    }

    /// Entry width in bytes.
    #[must_use]
    pub fn entry_bytes(&self) -> usize {
        self.schema.entry_bytes
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.schema.size_bytes()
    }

    /// The underlying lane matrix multiplied by DPF outputs.
    #[must_use]
    pub fn matrix(&self) -> &ShareMatrix {
        &self.matrix
    }

    /// Read one entry in plain bytes (server-side only; used by tests and by
    /// the non-private baseline).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn entry(&self, index: u64) -> Vec<u8> {
        assert!(index < self.entries(), "entry {index} out of range");
        let lanes = LaneVector(self.matrix.row(index as usize).to_vec());
        let mut bytes = lanes.to_bytes();
        bytes.truncate(self.schema.entry_bytes);
        bytes
    }

    /// Convert a reconstructed lane vector into the entry's exact bytes.
    #[must_use]
    pub fn lanes_to_entry_bytes(&self, lanes: &[u32]) -> Vec<u8> {
        let mut bytes = LaneVector(lanes.to_vec()).to_bytes();
        bytes.truncate(self.schema.entry_bytes);
        bytes
    }

    /// Whether this table holds row `index` — every row in range, unless it
    /// is a [`PirTable::masked`] view.
    #[must_use]
    pub fn keeps(&self, index: u64) -> bool {
        self.kept.iter().any(|range| range.contains(&index))
    }

    /// Overwrite one entry (model refresh without re-indexing, §4.2 "Changes
    /// to Embedding Table": value updates are transparent to clients).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or outside a masked view, or the
    /// payload width differs from the schema.
    pub fn update_entry(&mut self, index: u64, bytes: &[u8]) {
        assert!(index < self.entries(), "entry {index} out of range");
        assert!(self.keeps(index), "entry {index} is outside this view");
        assert_eq!(bytes.len(), self.schema.entry_bytes, "entry width mismatch");
        let lanes = LaneVector::from_bytes(bytes);
        self.matrix.set_row(index as usize, &lanes.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entries_roundtrips() {
        let entries: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 7]).collect();
        let table = PirTable::from_entries(&entries);
        assert_eq!(table.entries(), 10);
        assert_eq!(table.entry_bytes(), 7);
        assert_eq!(table.schema().lanes_per_entry(), 2);
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(&table.entry(i as u64), entry);
        }
    }

    #[test]
    fn generate_matches_fill_function() {
        let table = PirTable::generate(16, 4, |row, offset| (row as u8).wrapping_add(offset as u8));
        assert_eq!(table.entry(3), vec![3, 4, 5, 6]);
        assert_eq!(table.size_bytes(), 16 * 4);
    }

    #[test]
    fn generate_pads_the_last_lane_like_from_entries() {
        // Widths around the lane boundary, against the byte-string builder.
        for entry_bytes in [1usize, 3, 4, 5, 8, 13] {
            let fill = |row: u64, offset: usize| (row as u8).wrapping_mul(31) ^ (offset as u8 + 1);
            let rows: Vec<Vec<u8>> = (0..9u64)
                .map(|row| (0..entry_bytes).map(|offset| fill(row, offset)).collect())
                .collect();
            assert_eq!(
                PirTable::generate(9, entry_bytes, fill),
                PirTable::from_entries(&rows),
                "{entry_bytes} B entries"
            );
        }
    }

    #[test]
    fn masked_keeps_exactly_the_named_rows() {
        let table = PirTable::generate(10, 5, |row, offset| row as u8 * 16 + offset as u8 + 1);
        let view = table.masked(&[1..3, 7..10]);
        assert_eq!(view.schema(), table.schema());
        for row in 0..10u64 {
            let kept = (1..3).contains(&row) || (7..10).contains(&row);
            let expected = if kept { table.entry(row) } else { vec![0; 5] };
            assert_eq!(view.entry(row), expected, "row {row}");
        }
        assert_eq!(view.kept_ranges(), [1..3, 7..10]);
        assert_eq!(
            table.masked(&[]).matrix(),
            PirTable::generate(10, 5, |_, _| 0).matrix()
        );
    }

    #[test]
    fn a_view_stores_only_the_bounding_range_of_its_rows() {
        let table = PirTable::generate(10, 5, |row, offset| row as u8 * 16 + offset as u8 + 1);
        let row_bytes = table.matrix().lanes_per_row() * 4;
        let view = table.masked(&[6..7, 2..4]);
        // Rows 2..7: the kept rows and the gap between them.
        assert_eq!(view.matrix().stored_bytes(), 5 * row_bytes);
        // Sizes and sweeps still see the whole-size table.
        assert_eq!(view.size_bytes(), table.size_bytes());
        assert_eq!(view.matrix().size_bytes(), table.matrix().size_bytes());
        assert_eq!(table.masked(&[]).matrix().stored_bytes(), 0);
        // A view of a view stores its own bounding range; the rows the
        // first view dropped stay zero.
        let narrower = view.masked(std::slice::from_ref(&(3..9)));
        assert_eq!(narrower.matrix().stored_bytes(), 6 * row_bytes);
        for row in 0..10u64 {
            let kept = row == 3 || row == 6;
            let expected = if kept { table.entry(row) } else { vec![0; 5] };
            assert_eq!(narrower.entry(row), expected, "row {row}");
        }
    }

    #[test]
    #[should_panic(expected = "past the last row")]
    fn a_view_past_the_last_row_panics() {
        let _ = PirTable::generate(10, 5, |_, _| 1).masked(std::slice::from_ref(&(8..11)));
    }

    #[test]
    fn a_view_that_keeps_every_row_is_the_table() {
        let table = PirTable::generate(10, 5, |row, offset| row as u8 * 16 + offset as u8 + 1);
        assert_eq!(table.kept_ranges(), std::slice::from_ref(&(0..10)));
        // Out of order, overlapping, touching and empty ranges normalise.
        assert_eq!(table.masked(&[4..10, 0..2, 1..4, 6..6]), table);
        assert_eq!(
            table.masked(&[5..7, 0..2, 6..8]).kept_ranges(),
            [0..2, 5..8]
        );
        assert_ne!(table.masked(&[0..5, 5..9]), table);
    }

    #[test]
    fn update_entry_changes_only_that_row() {
        let mut table = PirTable::generate(4, 4, |row, _| row as u8);
        table.update_entry(2, &[9, 9, 9, 9]);
        assert_eq!(table.entry(2), vec![9, 9, 9, 9]);
        assert_eq!(table.entry(1), vec![1, 1, 1, 1]);
    }

    #[test]
    fn lanes_to_entry_bytes_truncates_padding() {
        let entries = vec![vec![1u8, 2, 3, 4, 5]];
        let table = PirTable::from_entries(&entries);
        let lanes = table.matrix().row(0).to_vec();
        assert_eq!(table.lanes_to_entry_bytes(&lanes), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_entry_lengths_panic() {
        let _ = PirTable::from_entries(&[vec![1, 2], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_table_panics() {
        let _ = PirTable::from_entries(&[]);
    }

    #[test]
    fn schema_describe_is_readable() {
        let schema = TableSchema::new(100, 128);
        assert_eq!(schema.describe(), "100 entries × 128 B");
        assert_eq!(schema.lanes_per_entry(), 32);
        assert_eq!(schema.size_bytes(), 100 * 128);
    }
}
