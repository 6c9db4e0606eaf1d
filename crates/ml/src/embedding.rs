//! Float embedding tables and their fixed-point PIR representation.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fixed-point scale used when quantizing embeddings to bytes: values are
/// stored as `round(value * 2^16)` in an `i32`, giving ~1e-5 resolution over
/// the ±4 range typical of trained embeddings.
const FIXED_POINT_SCALE: f32 = 65536.0;

/// A dense embedding table: one `dimension`-wide float vector per index.
///
/// The *server* hosts the quantized byte form (via [`EmbeddingTable::to_entries`]);
/// the *client* dequantizes retrieved rows back to floats before feeding the
/// on-device model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingTable {
    dimension: usize,
    values: Vec<f32>,
}

impl EmbeddingTable {
    /// Create a table with small random entries (uniform in `[-0.5, 0.5]`).
    pub fn random<R: Rng + ?Sized>(entries: usize, dimension: usize, rng: &mut R) -> Self {
        let values = (0..entries * dimension)
            .map(|_| rng.gen_range(-0.5..=0.5))
            .collect();
        Self { dimension, values }
    }

    /// Number of entries (rows).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.values.len().checked_div(self.dimension).unwrap_or(0)
    }

    /// Bytes per entry in the quantized PIR representation.
    #[must_use]
    pub fn entry_bytes(&self) -> usize {
        self.dimension * 4
    }

    /// Borrow one embedding vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn row(&self, index: usize) -> &[f32] {
        assert!(index < self.entries(), "embedding {index} out of bounds");
        &self.values[index * self.dimension..(index + 1) * self.dimension]
    }

    /// Quantize the whole table into byte entries suitable for a PIR server.
    #[must_use]
    pub fn to_entries(&self) -> Vec<Vec<u8>> {
        (0..self.entries())
            .map(|i| self.entry_to_bytes(i))
            .collect()
    }

    /// Quantize one entry.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    fn entry_to_bytes(&self, index: usize) -> Vec<u8> {
        self.row(index)
            .iter()
            .flat_map(|&v| ((v * FIXED_POINT_SCALE).round() as i32).to_le_bytes())
            .collect()
    }

    /// Dequantize a retrieved byte entry back into floats.
    ///
    /// # Panics
    ///
    /// Panics if the byte length is not a multiple of 4.
    #[must_use]
    pub fn bytes_to_vector(bytes: &[u8]) -> Vec<f32> {
        assert!(
            bytes.len().is_multiple_of(4),
            "quantized entries are 4-byte aligned"
        );
        bytes
            .chunks_exact(4)
            .map(|chunk| {
                let raw = i32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                raw as f32 / FIXED_POINT_SCALE
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantization_roundtrips_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(1);
        let table = EmbeddingTable::random(32, 16, &mut rng);
        for index in 0..32 {
            let bytes = table.entry_to_bytes(index);
            assert_eq!(bytes.len(), table.entry_bytes());
            let back = EmbeddingTable::bytes_to_vector(&bytes);
            for (a, b) in table.row(index).iter().zip(&back) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dimensions_are_consistent() {
        let table = EmbeddingTable::random(10, 8, &mut StdRng::seed_from_u64(2));
        assert_eq!(table.entries(), 10);
        assert_eq!(table.entry_bytes(), 32);
        assert_eq!(table.to_entries().len(), 10);
    }

    proptest! {
        #[test]
        fn prop_quantization_error_is_bounded(values in proptest::collection::vec(-4.0f32..4.0, 1..32)) {
            let table = EmbeddingTable { dimension: values.len(), values: values.clone() };
            let back = EmbeddingTable::bytes_to_vector(&table.entry_to_bytes(0));
            for (a, b) in values.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
