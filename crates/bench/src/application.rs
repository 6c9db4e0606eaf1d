//! Binding between an ML application and the PIR tables that serve it.

use pir_protocol::{PirTable, TableSchema};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::datasets::{DatasetKind, DatasetScale, SyntheticDataset};
use crate::embedding::EmbeddingTable;
use crate::quality::QualityModel;
use crate::workload::AccessWorkload;

/// An application instance: its embedding table (float and PIR forms), its
/// access workload and its quality profile.
#[derive(Clone, Debug)]
pub struct Application {
    dataset: SyntheticDataset,
    embeddings: EmbeddingTable,
    pir_table: PirTable,
}

impl Application {
    /// Build an application from a synthetic dataset, materializing its
    /// embedding table with random (stand-in for trained) embeddings.
    #[must_use]
    pub fn new(dataset: SyntheticDataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let embeddings = EmbeddingTable::random(
            dataset.table_entries as usize,
            dataset.embedding_dim,
            &mut rng,
        );
        let pir_table = PirTable::from_entries(&embeddings.to_entries());
        Self {
            dataset,
            embeddings,
            pir_table,
        }
    }

    /// Generate the three paper applications at the given scale.
    #[must_use]
    pub fn paper_suite(scale: DatasetScale, inferences: usize, seed: u64) -> Vec<Self> {
        DatasetKind::ALL
            .iter()
            .map(|&kind| {
                Self::new(
                    SyntheticDataset::generate(kind, scale, inferences, seed),
                    seed,
                )
            })
            .collect()
    }

    /// Which application this is.
    #[must_use]
    pub fn kind(&self) -> DatasetKind {
        self.dataset.kind
    }

    /// The underlying synthetic dataset.
    #[must_use]
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// The float embedding table (client-side reference for verification).
    #[must_use]
    pub fn embeddings(&self) -> &EmbeddingTable {
        &self.embeddings
    }

    /// The quantized PIR table hosted by the servers.
    #[must_use]
    pub fn pir_table(&self) -> &PirTable {
        &self.pir_table
    }

    /// The PIR table's schema.
    #[must_use]
    pub fn schema(&self) -> TableSchema {
        self.pir_table.schema()
    }

    /// Training workload (for fitting co-design parameters).
    #[must_use]
    pub fn train_workload(&self) -> &AccessWorkload {
        &self.dataset.train_workload
    }

    /// Test workload (for reporting results).
    #[must_use]
    pub fn test_workload(&self) -> &AccessWorkload {
        &self.dataset.test_workload
    }

    /// The calibrated quality model.
    #[must_use]
    pub fn quality(&self) -> QualityModel {
        self.dataset.quality
    }

    /// The Acc-relaxed tolerance for this application.
    #[must_use]
    pub fn relaxed_tolerance(&self) -> f64 {
        self.dataset.relaxed_tolerance
    }

    /// Average embedding lookups per inference.
    #[must_use]
    pub fn avg_queries_per_inference(&self) -> f64 {
        self.dataset.avg_queries_per_inference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_tables_are_consistent() {
        let dataset =
            SyntheticDataset::generate(DatasetKind::MovieLens20M, DatasetScale::Small, 16, 1);
        let app = Application::new(dataset, 7);
        assert_eq!(app.pir_table().entries(), app.dataset().table_entries);
        assert_eq!(
            app.pir_table().entry_bytes(),
            app.dataset().embedding_dim * 4
        );
        // Quantized entries decode back to the float embeddings.
        let decoded = EmbeddingTable::bytes_to_vector(&app.pir_table().entry(3));
        for (a, b) in decoded.iter().zip(app.embeddings().row(3)) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(app.avg_queries_per_inference() > 0.0);
    }

    #[test]
    fn paper_suite_contains_all_three_apps() {
        let suite = Application::paper_suite(DatasetScale::Small, 8, 2);
        let kinds: Vec<DatasetKind> = suite.iter().map(Application::kind).collect();
        assert_eq!(kinds, DatasetKind::ALL.to_vec());
    }
}
