//! Share vectors: one-hot indicator shares and payload lane vectors.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Ring128;

/// A pair of vectors that are additive shares of a one-hot indicator vector.
///
/// This is the "naive PIR" object from the paper's §3.1: `r1 + r2 = I(i)`.
/// The DPF compresses exactly this object; the explicit form is used for the
/// naive baseline and for testing DPF correctness.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndicatorShares {
    /// Share held by server 0.
    pub share0: Vec<Ring128>,
    /// Share held by server 1.
    pub share1: Vec<Ring128>,
}

impl IndicatorShares {
    /// Secret-share the one-hot indicator of `index` over a domain of `len`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn for_index<R: Rng + ?Sized>(index: usize, len: usize, rng: &mut R) -> Self {
        assert!(index < len, "index {index} out of bounds for domain {len}");
        let share1: Vec<Ring128> = (0..len).map(|_| Ring128::random(rng)).collect();
        let share0 = (0..len)
            .map(|j| {
                let target = if j == index {
                    Ring128::ONE
                } else {
                    Ring128::ZERO
                };
                target - share1[j]
            })
            .collect();
        Self { share0, share1 }
    }

    /// Domain size of the shared indicator.
    #[must_use]
    pub fn len(&self) -> usize {
        self.share0.len()
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.share0.is_empty()
    }

    /// Reconstruct the plain indicator vector (for testing).
    #[must_use]
    pub fn reconstruct(&self) -> Vec<Ring128> {
        self.share0
            .iter()
            .zip(&self.share1)
            .map(|(a, b)| *a + *b)
            .collect()
    }
}

/// A payload vector of `u32` lanes, the unit the PIR servers return.
///
/// Embedding rows (64 B – 1 KiB in the paper) are stored as little-endian
/// `u32` lanes; all arithmetic on them is wrapping mod `2^32`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneVector(pub Vec<u32>);

impl LaneVector {
    /// Create a zeroed lane vector with `lanes` entries.
    #[must_use]
    pub fn zeroed(lanes: usize) -> Self {
        Self(vec![0; lanes])
    }

    /// Build a lane vector from raw bytes (padded with zeros to 4-byte lanes).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut lanes = Vec::with_capacity(bytes.len().div_ceil(4));
        for chunk in bytes.chunks(4) {
            let mut buf = [0u8; 4];
            buf[..chunk.len()].copy_from_slice(chunk);
            lanes.push(u32::from_le_bytes(buf));
        }
        Self(lanes)
    }

    /// Serialize the lanes back into bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.iter().flat_map(|lane| lane.to_le_bytes()).collect()
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector holds no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Add another lane vector element-wise (wrapping).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn add_assign_wrapping(&mut self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "lane vectors must match");
        crate::simd::add_wrapping(&mut self.0, &other.0);
    }

    /// Accumulate `scale * other` element-wise (wrapping): one row of a
    /// share-weighted sum.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn add_scaled_assign(&mut self, scale: u32, other: &[u32]) {
        assert_eq!(self.0.len(), other.len(), "lane vectors must match");
        crate::simd::accumulate_scaled(&mut self.0, scale, other);
    }
}

impl From<Vec<u32>> for LaneVector {
    fn from(lanes: Vec<u32>) -> Self {
        Self(lanes)
    }
}

impl From<LaneVector> for Vec<u32> {
    fn from(vector: LaneVector) -> Self {
        vector.0
    }
}

impl FromIterator<u32> for LaneVector {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl Extend<u32> for LaneVector {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn indicator_reconstructs_one_hot() {
        let mut rng = StdRng::seed_from_u64(11);
        let shares = IndicatorShares::for_index(3, 8, &mut rng);
        let plain = shares.reconstruct();
        for (j, value) in plain.iter().enumerate() {
            let expected = if j == 3 { Ring128::ONE } else { Ring128::ZERO };
            assert_eq!(*value, expected, "index {j}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indicator_out_of_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = IndicatorShares::for_index(8, 8, &mut rng);
    }

    #[test]
    fn byte_roundtrip_exact_multiple() {
        let bytes: Vec<u8> = (0..32).collect();
        let lanes = LaneVector::from_bytes(&bytes);
        assert_eq!(lanes.len(), 8);
        assert_eq!(lanes.to_bytes(), bytes);
    }

    #[test]
    fn byte_roundtrip_with_padding() {
        let bytes = vec![1u8, 2, 3, 4, 5];
        let lanes = LaneVector::from_bytes(&bytes);
        assert_eq!(lanes.len(), 2);
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0, 0, 0]);
        assert_eq!(lanes.to_bytes(), padded);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut acc = LaneVector::zeroed(3);
        acc.add_scaled_assign(2, &[1, 2, 3]);
        acc.add_scaled_assign(1, &[10, 20, 30]);
        assert_eq!(acc.0, vec![12, 24, 36]);
    }

    proptest! {
        #[test]
        fn indicator_sums_to_one_hot(len in 1usize..64, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let index = (seed as usize) % len;
            let shares = IndicatorShares::for_index(index, len, &mut rng);
            let plain = shares.reconstruct();
            for (j, v) in plain.iter().enumerate() {
                let expected = if j == index { Ring128::ONE } else { Ring128::ZERO };
                prop_assert_eq!(*v, expected);
            }
        }

        #[test]
        fn lane_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let lanes = LaneVector::from_bytes(&bytes);
            let back = lanes.to_bytes();
            prop_assert_eq!(&back[..bytes.len()], &bytes[..]);
            prop_assert!(back[bytes.len()..].iter().all(|b| *b == 0));
        }
    }
}
