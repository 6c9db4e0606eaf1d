//! Synthetic workload generators standing in for the paper's datasets.
//!
//! The evaluation uses MovieLens-20M, the Taobao ad-click log and WikiText-2.
//! Those datasets are not redistributable here, so each is replaced by a
//! generator that reproduces the statistics the system actually depends on —
//! table size, entry size, queries per inference, power-law access skew and
//! co-occurrence structure. The catalog (Table 1) and the production
//! recommendation profile (Table 2) are kept as data.

pub mod catalog;
mod movielens;
pub mod production;
mod taobao;
mod wikitext;

pub use catalog::DatasetCatalog;
pub use production::ProductionProfile;

use serde::{Deserialize, Serialize};

use crate::quality::QualityModel;
use crate::workload::AccessWorkload;

/// The applications evaluated by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// MovieLens-20M MLP recommendation (user history table, ~27 K entries).
    MovieLens20M,
    /// Taobao ad click/display MLP recommendation (~900 K entries).
    TaobaoAds,
    /// WikiText-2 LSTM language model (~131 K word vocabulary).
    WikiText2,
}

impl DatasetKind {
    /// All evaluated applications, in the order the paper's figures use.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::WikiText2,
        DatasetKind::MovieLens20M,
        DatasetKind::TaobaoAds,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DatasetKind::MovieLens20M => "MovieLens",
            DatasetKind::TaobaoAds => "Taobao",
            DatasetKind::WikiText2 => "Wikitext2",
        }
    }

    /// The Acc-relaxed tolerance the paper allows for this application
    /// (0.5 % for the recommendation tasks, 5 % for the language model).
    #[must_use]
    pub const fn relaxed_tolerance(self) -> f64 {
        match self {
            DatasetKind::MovieLens20M | DatasetKind::TaobaoAds => 0.005,
            DatasetKind::WikiText2 => 0.05,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How large a synthetic instance to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetScale {
    /// The paper's table sizes (27 K / 900 K / 131 K entries).
    Paper,
    /// Tables scaled down 32× for fast tests and examples; access statistics
    /// (queries per inference, skew) are preserved.
    Small,
}

impl DatasetScale {
    pub(crate) const fn divisor(self) -> u64 {
        match self {
            DatasetScale::Paper => 1,
            DatasetScale::Small => 32,
        }
    }
}

/// A generated synthetic instance of one application's embedding workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    /// Which application this instance mimics.
    pub kind: DatasetKind,
    /// Number of embedding-table entries.
    pub table_entries: u64,
    /// Embedding dimensionality (f32 lanes per entry).
    pub embedding_dim: usize,
    /// Entry size in bytes as hosted on the PIR servers.
    pub entry_bytes: usize,
    /// Training-split access workload (used to fit co-design parameters).
    pub train_workload: AccessWorkload,
    /// Test-split access workload (used to report results).
    pub test_workload: AccessWorkload,
    /// Calibrated quality model (baseline matches the paper's reported value).
    pub quality: QualityModel,
    /// The Acc-relaxed tolerance for this application.
    pub relaxed_tolerance: f64,
}

impl SyntheticDataset {
    /// Generate a synthetic instance with `inferences` total sessions.
    ///
    /// # Panics
    ///
    /// Panics if `inferences < 4` (too few to split into train and test).
    #[must_use]
    pub fn generate(kind: DatasetKind, scale: DatasetScale, inferences: usize, seed: u64) -> Self {
        assert!(inferences >= 4, "need at least four inferences to split");
        match kind {
            DatasetKind::MovieLens20M => movielens::generate(scale, inferences, seed),
            DatasetKind::TaobaoAds => taobao::generate(scale, inferences, seed),
            DatasetKind::WikiText2 => wikitext::generate(scale, inferences, seed),
        }
    }

    /// Average queries per inference over the whole workload.
    #[must_use]
    pub fn avg_queries_per_inference(&self) -> f64 {
        let train = self.train_workload.avg_queries_per_inference();
        let test = self.test_workload.avg_queries_per_inference();
        let total = self.train_workload.len() + self.test_workload.len();
        if total == 0 {
            return 0.0;
        }
        (train * self.train_workload.len() as f64 + test * self.test_workload.len() as f64)
            / total as f64
    }
}

pub(crate) fn split_workload(
    table_entries: u64,
    sessions: Vec<Vec<u64>>,
) -> (AccessWorkload, AccessWorkload) {
    AccessWorkload::new(table_entries, sessions).split(0.7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_with_paper_statistics() {
        for kind in DatasetKind::ALL {
            let dataset = SyntheticDataset::generate(kind, DatasetScale::Small, 64, 1);
            assert_eq!(dataset.kind, kind);
            assert!(dataset.table_entries > 0);
            assert!(!dataset.train_workload.is_empty());
            assert!(!dataset.test_workload.is_empty());
            assert!(dataset.avg_queries_per_inference() > 0.0);
            assert!(dataset.relaxed_tolerance > 0.0);
        }
    }

    #[test]
    fn paper_scale_matches_table1_sizes() {
        let movielens =
            SyntheticDataset::generate(DatasetKind::MovieLens20M, DatasetScale::Paper, 8, 2);
        assert_eq!(movielens.table_entries, 27_000);
        assert_eq!(movielens.entry_bytes, 128);

        let taobao = SyntheticDataset::generate(DatasetKind::TaobaoAds, DatasetScale::Paper, 8, 2);
        assert_eq!(taobao.table_entries, 900_000);
        assert_eq!(taobao.entry_bytes, 128);

        let wikitext =
            SyntheticDataset::generate(DatasetKind::WikiText2, DatasetScale::Paper, 8, 2);
        assert_eq!(wikitext.table_entries, 131_000);
        assert_eq!(wikitext.entry_bytes, 512);
    }

    #[test]
    fn queries_per_inference_match_the_paper() {
        let movielens =
            SyntheticDataset::generate(DatasetKind::MovieLens20M, DatasetScale::Small, 200, 3);
        // The paper reports ~72 lookups per MovieLens inference.
        let q = movielens.avg_queries_per_inference();
        assert!((50.0..=90.0).contains(&q), "movielens q/inf {q}");

        let taobao =
            SyntheticDataset::generate(DatasetKind::TaobaoAds, DatasetScale::Small, 200, 3);
        // The paper reports ~2.68 lookups per Taobao inference.
        let q = taobao.avg_queries_per_inference();
        assert!((1.5..=4.5).contains(&q), "taobao q/inf {q}");

        let wikitext =
            SyntheticDataset::generate(DatasetKind::WikiText2, DatasetScale::Small, 200, 3);
        let q = wikitext.avg_queries_per_inference();
        assert!((10.0..=40.0).contains(&q), "wikitext q/inf {q}");
    }

    #[test]
    fn access_patterns_are_skewed() {
        let dataset =
            SyntheticDataset::generate(DatasetKind::TaobaoAds, DatasetScale::Small, 300, 4);
        let top_tenth = (dataset.table_entries / 10) as usize;
        let coverage = dataset.train_workload.coverage_of_top(top_tenth);
        assert!(
            coverage > 0.4,
            "top 10% of entries should cover much more than 10% of accesses, got {coverage:.2}"
        );
    }

    #[test]
    fn names_and_tolerances() {
        assert_eq!(DatasetKind::MovieLens20M.to_string(), "MovieLens");
        assert_eq!(DatasetKind::WikiText2.relaxed_tolerance(), 0.05);
        assert_eq!(DatasetKind::TaobaoAds.relaxed_tolerance(), 0.005);
    }
}
