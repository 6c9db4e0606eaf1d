//! A preallocated, lock-free matrix of output lane rows.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::LaneVector;

/// A fixed `rows × lanes` grid of `u32` lanes that many simulated GPU blocks
/// write concurrently without locking.
///
/// Batched kernel launches used to collect per-query answers through one
/// `Mutex<Option<LaneVector>>` per result, paying a lock round-trip (and an
/// allocation) per block on the dispatch path. Since each block owns a
/// disjoint row, the buffer can be preallocated once per job and written
/// with relaxed atomic lane stores, which on every major ISA compile to
/// ordinary word writes.
///
/// The grid is consumed at the end of a launch with
/// [`AtomicLaneRows::into_lane_vectors`].
#[derive(Debug, Default)]
pub struct AtomicLaneRows {
    rows: usize,
    lanes: usize,
    cells: Vec<AtomicU32>,
}

impl AtomicLaneRows {
    /// Preallocate a zeroed grid of `rows × lanes` lanes.
    #[must_use]
    pub fn new(rows: usize, lanes: usize) -> Self {
        let mut cells = Vec::with_capacity(rows * lanes);
        cells.resize_with(rows * lanes, || AtomicU32::new(0));
        Self { rows, lanes, cells }
    }

    /// Number of rows in the grid (kept explicitly so a degenerate
    /// zero-lane grid still yields one empty vector per row).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lanes per row.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Overwrite `row` with `values`. Intended for writers that own the row
    /// exclusively (disjoint-row dispatch).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `values` has the wrong lane count.
    pub fn store_row(&self, row: usize, values: &LaneVector) {
        let cells = self.row_cells(row, values);
        for (cell, value) in cells.iter().zip(&values.0) {
            cell.store(*value, Ordering::Relaxed);
        }
    }

    /// Read one row back as a [`LaneVector`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> LaneVector {
        let start = row * self.lanes;
        let cells = &self.cells[start..start + self.lanes];
        cells
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect()
    }

    /// Consume the grid into one [`LaneVector`] per row.
    #[must_use]
    pub fn into_lane_vectors(self) -> Vec<LaneVector> {
        let mut rows = Vec::with_capacity(self.rows);
        let mut lanes_iter = self.cells.into_iter().map(AtomicU32::into_inner);
        for _ in 0..self.rows {
            let row: Vec<u32> = lanes_iter.by_ref().take(self.lanes).collect();
            rows.push(LaneVector::from(row));
        }
        rows
    }

    fn row_cells(&self, row: usize, values: &LaneVector) -> &[AtomicU32] {
        assert_eq!(values.len(), self.lanes, "lane count mismatch");
        let start = row * self.lanes;
        &self.cells[start..start + self.lanes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_back_rows() {
        let rows = AtomicLaneRows::new(3, 2);
        assert_eq!(rows.rows(), 3);
        assert_eq!(rows.lanes(), 2);
        rows.store_row(1, &LaneVector::from(vec![7, 8]));
        assert_eq!(rows.row(1), LaneVector::from(vec![7, 8]));
        assert_eq!(rows.row(0), LaneVector::zeroed(2));
        let all = rows.into_lane_vectors();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1], LaneVector::from(vec![7, 8]));
    }

    #[test]
    fn concurrent_disjoint_stores() {
        let rows = AtomicLaneRows::new(64, 4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let rows = &rows;
                scope.spawn(move || {
                    for r in (t..64).step_by(4) {
                        rows.store_row(r, &LaneVector::from(vec![r as u32; 4]));
                    }
                });
            }
        });
        let all = rows.into_lane_vectors();
        for (r, row) in all.iter().enumerate() {
            assert_eq!(*row, LaneVector::from(vec![r as u32; 4]), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lane_count_panics() {
        let rows = AtomicLaneRows::new(1, 2);
        rows.store_row(0, &LaneVector::zeroed(3));
    }

    /// A degenerate zero-lane grid still yields one (empty) vector per row,
    /// matching the one-slot-per-query contract of the dispatch paths.
    #[test]
    fn zero_lane_grid_keeps_row_count() {
        let rows = AtomicLaneRows::new(3, 0);
        assert_eq!(rows.rows(), 3);
        let all = rows.into_lane_vectors();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(LaneVector::is_empty));
    }
}
