//! Share-weighted matrix–vector products over embedding tables.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::simd::LaneWeight;
use crate::{LaneVector, Ring128};

/// A dense matrix of `u32` payload lanes: one row per table entry.
///
/// This is the in-memory layout the PIR servers multiply against the expanded
/// DPF output. Rows are stored contiguously, which mirrors how the GPU kernel
/// streams the table from global memory.
///
/// A matrix may store only a window of its rows ([`ShareMatrix::windowed`]):
/// the rows a shard-owner holds, every other row reading as zero. Every sweep
/// clips to the window, whose bounds are public, so a windowed matrix
/// multiplies exactly like the whole matrix with the same rows zeroed — and
/// compares equal to it.
///
/// Clones share the stored rows until one of them writes a row, which then
/// copies them ([`Arc::make_mut`]): a table registered with a server as a
/// clone of the caller's copy is one allocation, not two.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShareMatrix {
    rows: usize,
    lanes_per_row: usize,
    /// The stored rows; every row outside reads as zero.
    window: Range<usize>,
    /// Row-major lanes of the window's rows, shared by clones until written.
    data: Arc<Vec<u32>>,
    /// The row every row outside the window reads as.
    zero_row: Vec<u32>,
}

impl ShareMatrix {
    /// Create a zeroed matrix with `rows` rows of `lanes_per_row` lanes each.
    #[must_use]
    pub fn zeroed(rows: usize, lanes_per_row: usize) -> Self {
        Self::from_rows(rows, lanes_per_row, vec![0; rows * lanes_per_row])
    }

    /// Build a matrix from a row-major lane buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * lanes_per_row`.
    #[must_use]
    pub fn from_rows(rows: usize, lanes_per_row: usize, data: Vec<u32>) -> Self {
        Self::windowed(rows, lanes_per_row, 0..rows, data)
    }

    /// A matrix of `rows` rows that stores only the rows of `window`, from
    /// their row-major lane buffer; every other row reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the window reaches past the last row or `data.len()` is
    /// not the window's rows times `lanes_per_row`.
    #[must_use]
    pub fn windowed(
        rows: usize,
        lanes_per_row: usize,
        window: Range<usize>,
        data: Vec<u32>,
    ) -> Self {
        assert!(
            window.end <= rows,
            "window {window:?} reaches past the last row ({rows})"
        );
        assert_eq!(
            data.len(),
            window.len() * lanes_per_row,
            "row-major buffer has wrong length"
        );
        Self {
            rows,
            lanes_per_row,
            window,
            data: Arc::new(data),
            zero_row: vec![0; lanes_per_row],
        }
    }

    /// Number of rows (table entries).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of `u32` lanes per row.
    #[must_use]
    pub fn lanes_per_row(&self) -> usize {
        self.lanes_per_row
    }

    /// Total size of the table in bytes, every row counted whether stored
    /// or not: the bytes a device holding the whole table would keep.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.rows * self.lanes_per_row * 4
    }

    /// Bytes of the rows this matrix stores (its window's).
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Borrow the stored rows as one row-major lane slice: the whole table
    /// unless the matrix is [`windowed`](ShareMatrix::windowed).
    #[must_use]
    pub fn lanes(&self) -> &[u32] {
        &self.data
    }

    /// Borrow one row as a lane slice; a row outside the window is zero.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[u32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        if !self.window.contains(&row) {
            return &self.zero_row;
        }
        let start = (row - self.window.start) * self.lanes_per_row;
        &self.data[start..start + self.lanes_per_row]
    }

    /// Mutably borrow one stored row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or the row is outside the window.
    pub fn row_mut(&mut self, row: usize) -> &mut [u32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(
            self.window.contains(&row),
            "row {row} is outside the stored window {:?}",
            self.window
        );
        let start = (row - self.window.start) * self.lanes_per_row;
        &mut Arc::make_mut(&mut self.data)[start..start + self.lanes_per_row]
    }

    /// Overwrite one stored row from a lane slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from `lanes_per_row`, or the row is
    /// out of bounds or outside the window.
    pub fn set_row(&mut self, row: usize, lanes: &[u32]) {
        assert_eq!(lanes.len(), self.lanes_per_row, "row width mismatch");
        self.row_mut(row).copy_from_slice(lanes);
    }

    /// The chunk sweep behind every share-weighted product in this crate:
    /// for each key `g`, `accs[g] += Σ_j weights[g · n + j] · row(base_row +
    /// j)` with `n = weights.len() / accs.len()`.
    ///
    /// Only the stored rows are read: the chunk is clipped to the window,
    /// whose bounds are public, and the rows outside add zero.
    fn accumulate<W: LaneWeight>(&self, accs: &mut [LaneVector], weights: &[W], base_row: usize) {
        let chunk = weights.len().checked_div(accs.len()).unwrap_or(0);
        assert!(
            base_row + chunk <= self.rows,
            "chunk [{base_row}, {}) exceeds table rows {}",
            base_row + chunk,
            self.rows
        );
        assert!(
            accs.iter().all(|acc| acc.len() == self.lanes_per_row),
            "accumulator width mismatch"
        );
        let from = base_row.max(self.window.start);
        let to = (base_row + chunk).min(self.window.end);
        if from >= to {
            return;
        }
        let start = (from - self.window.start) * self.lanes_per_row;
        let rows = &self.data[start..start + (to - from) * self.lanes_per_row];
        if to - from == chunk {
            crate::simd::accumulate_rows(accs, weights, rows);
        } else {
            // The window cuts the chunk: each key's weights for the stored
            // rows are a sub-slice of its own chunk.
            let clipped = from - base_row..to - base_row;
            for (acc, key_weights) in accs.iter_mut().zip(weights.chunks_exact(chunk)) {
                crate::simd::accumulate_rows(
                    std::slice::from_mut(acc),
                    &key_weights[clipped.clone()],
                    rows,
                );
            }
        }
    }
}

/// Equality of the logical rows: a windowed matrix equals the whole matrix
/// with the same rows zeroed.
impl PartialEq for ShareMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.lanes_per_row == other.lanes_per_row
            && (0..self.rows).all(|row| self.row(row) == other.row(row))
    }
}

impl Eq for ShareMatrix {}

/// Compute `weights × matrix` where `weights` are DPF output shares, yielding
/// an additive share of the selected row.
///
/// Each weight is reduced to its low 32 bits before the wrapping multiply;
/// correctness follows because the weights sum to `0` or `1` mod `2^128`.
///
/// # Panics
///
/// Panics if `weights.len() != matrix.rows()`.
#[must_use]
pub fn matvec_shares(weights: &[Ring128], matrix: &ShareMatrix) -> LaneVector {
    assert_eq!(
        weights.len(),
        matrix.rows(),
        "weight vector must have one entry per table row"
    );
    let mut acc = LaneVector::zeroed(matrix.lanes_per_row());
    matrix.accumulate(std::slice::from_mut(&mut acc), weights, 0);
    acc
}

/// Accumulate `weights[j] * matrix.row(base_row + j)` into `acc` for a chunk of
/// rows, with full-width shares as weights (only their low 32 bits — the
/// [`Ring128::to_lane`] reduction — enter the product).
///
/// # Panics
///
/// Panics if the chunk extends past the end of the matrix or `acc` width does
/// not match the matrix.
pub fn matvec_accumulate(
    acc: &mut LaneVector,
    weights: &[Ring128],
    matrix: &ShareMatrix,
    base_row: usize,
) {
    matrix.accumulate(std::slice::from_mut(acc), weights, base_row);
}

/// [`matvec_accumulate`] with the weights already reduced to `u32` lanes, the
/// width the fused DPF-matmul kernel emits its leaf shares at: the one-key
/// case of [`matvec_accumulate_keys`].
///
/// # Panics
///
/// Panics if the chunk extends past the end of the matrix or `acc` width does
/// not match the matrix.
pub fn matvec_accumulate_lanes(
    acc: &mut LaneVector,
    weights: &[u32],
    matrix: &ShareMatrix,
    base_row: usize,
) {
    matvec_accumulate_keys(std::slice::from_mut(acc), weights, matrix, base_row);
}

/// Several keys' chunks against the same rows in one sweep: `weights` holds
/// one chunk of `n = weights.len() / accs.len()` lane weights per key, back
/// to back, and `accs[g] += Σ_j weights[g · n + j] · matrix.row(base_row +
/// j)`. Each row is read once for a register tile of keys instead of once
/// per key — the table read a batch of fused DPF keys shares.
///
/// # Panics
///
/// Panics if `weights` is not one equal chunk per key, the chunk extends past
/// the end of the matrix, or an accumulator's width does not match it.
pub fn matvec_accumulate_keys(
    accs: &mut [LaneVector],
    weights: &[u32],
    matrix: &ShareMatrix,
    base_row: usize,
) {
    matrix.accumulate(accs, weights, base_row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndicatorShares;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, lanes: usize) -> ShareMatrix {
        let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
        ShareMatrix::from_rows(rows, lanes, data)
    }

    #[test]
    fn matvec_selects_row_via_indicator_shares() {
        let mut rng = StdRng::seed_from_u64(21);
        let matrix = random_matrix(&mut rng, 16, 8);
        let target = 5;
        let shares = IndicatorShares::for_index(target, 16, &mut rng);
        let out0 = matvec_shares(&shares.share0, &matrix);
        let out1 = matvec_shares(&shares.share1, &matrix);
        let reconstructed: Vec<u32> = out0
            .0
            .iter()
            .zip(&out1.0)
            .map(|(a, b)| a.wrapping_add(*b))
            .collect();
        assert_eq!(reconstructed, matrix.row(target));
    }

    #[test]
    fn chunked_accumulation_matches_full() {
        let mut rng = StdRng::seed_from_u64(22);
        let matrix = random_matrix(&mut rng, 32, 4);
        let weights: Vec<Ring128> = (0..32).map(|_| Ring128::random(&mut rng)).collect();

        let full = matvec_shares(&weights, &matrix);

        let mut chunked = LaneVector::zeroed(4);
        for chunk_start in (0..32).step_by(8) {
            matvec_accumulate(
                &mut chunked,
                &weights[chunk_start..chunk_start + 8],
                &matrix,
                chunk_start,
            );
        }
        assert_eq!(full, chunked);
    }

    #[test]
    fn a_key_group_sweep_is_each_key_swept_alone() {
        let mut rng = StdRng::seed_from_u64(23);
        let matrix = random_matrix(&mut rng, 40, 6);
        let weights: Vec<u32> = (0..3 * 30).map(|_| rng.gen()).collect();
        let mut grouped = vec![LaneVector::zeroed(6); 3];
        matvec_accumulate_keys(&mut grouped, &weights, &matrix, 7);
        for (key, acc) in grouped.iter().enumerate() {
            let mut alone = LaneVector::zeroed(6);
            matvec_accumulate_lanes(&mut alone, &weights[key * 30..][..30], &matrix, 7);
            assert_eq!(*acc, alone, "key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds table rows")]
    fn a_key_group_chunk_past_the_table_panics() {
        let matrix = ShareMatrix::zeroed(8, 2);
        matvec_accumulate_keys(
            &mut [LaneVector::zeroed(2), LaneVector::zeroed(2)],
            &[0; 10],
            &matrix,
            4,
        );
    }

    #[test]
    fn a_windowed_matrix_sweeps_and_compares_like_the_zeroed_whole() {
        let mut rng = StdRng::seed_from_u64(24);
        let full = random_matrix(&mut rng, 40, 6);
        let window = 9..27;
        let data = full.lanes()[window.start * 6..window.end * 6].to_vec();
        let windowed = ShareMatrix::windowed(40, 6, window.clone(), data);
        let mut zeroed = ShareMatrix::zeroed(40, 6);
        for row in window.clone() {
            zeroed.set_row(row, full.row(row));
        }
        assert_eq!(windowed, zeroed);
        assert_ne!(windowed, full);
        assert_eq!(windowed.stored_bytes(), 18 * 6 * 4);
        assert_eq!(windowed.size_bytes(), full.size_bytes());
        assert_eq!(windowed.row(3), &[0; 6]);
        // Chunks before, across either edge of, inside, around and after
        // the window, for one key and for a group.
        for (base, chunk) in [(0, 8), (4, 10), (20, 12), (12, 6), (0, 40), (30, 10)] {
            for keys in [1usize, 3] {
                let weights: Vec<u32> = (0..keys * chunk).map(|_| rng.gen()).collect();
                let mut got = vec![LaneVector::zeroed(6); keys];
                let mut want = vec![LaneVector::zeroed(6); keys];
                matvec_accumulate_keys(&mut got, &weights, &windowed, base);
                matvec_accumulate_keys(&mut want, &weights, &zeroed, base);
                assert_eq!(got, want, "rows [{base}, {}) x{keys}", base + chunk);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the stored window")]
    fn writing_outside_the_window_panics() {
        let mut matrix = ShareMatrix::windowed(8, 2, 2..4, vec![0; 4]);
        matrix.set_row(5, &[1, 1]);
    }

    #[test]
    fn clones_share_rows_until_one_writes() {
        let mut rng = StdRng::seed_from_u64(12);
        let original = random_matrix(&mut rng, 8, 3);
        let mut copy = original.clone();
        assert_eq!(original.lanes().as_ptr(), copy.lanes().as_ptr());
        let before = original.row(2).to_vec();
        copy.set_row(2, &[7, 8, 9]);
        assert_ne!(original.lanes().as_ptr(), copy.lanes().as_ptr());
        assert_eq!(original.row(2), before.as_slice());
        assert_eq!(copy.row(2), &[7, 8, 9]);
    }

    #[test]
    fn size_accounts_rows_and_lanes() {
        let matrix = ShareMatrix::zeroed(10, 32);
        assert_eq!(matrix.size_bytes(), 10 * 32 * 4);
        assert_eq!(matrix.rows(), 10);
        assert_eq!(matrix.lanes_per_row(), 32);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_rows_validates_length() {
        let _ = ShareMatrix::from_rows(2, 3, vec![0; 5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let matrix = ShareMatrix::zeroed(2, 2);
        let _ = matrix.row(2);
    }

    proptest! {
        #[test]
        fn matvec_linear_in_weights(seed in any::<u64>(), rows in 1usize..24, lanes in 1usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = random_matrix(&mut rng, rows, lanes);
            let w1: Vec<Ring128> = (0..rows).map(|_| Ring128::random(&mut rng)).collect();
            let w2: Vec<Ring128> = (0..rows).map(|_| Ring128::random(&mut rng)).collect();
            let sum: Vec<Ring128> = w1.iter().zip(&w2).map(|(a, b)| *a + *b).collect();

            let lhs = matvec_shares(&sum, &matrix);
            let mut rhs = matvec_shares(&w1, &matrix);
            rhs.add_assign_wrapping(&matvec_shares(&w2, &matrix));
            prop_assert_eq!(lhs, rhs);
        }
    }
}
