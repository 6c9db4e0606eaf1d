//! Taobao ad click/display-like recommendation workload.
//!
//! Statistics reproduced from the paper: ~900,000 table entries of 128 bytes,
//! and only ~2.68 embedding lookups per inference (sparse categorical
//! features are a small fraction of the model's inputs, which is also why
//! dropped lookups barely move its AUC of 0.58).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets::{split_workload, DatasetKind, DatasetScale, SyntheticDataset};
use crate::quality::QualityModel;
use pir_ml::ZipfSampler;

const PAPER_ENTRIES: u64 = 900_000;
const EMBEDDING_DIM: usize = 32;

pub(super) fn generate(scale: DatasetScale, inferences: usize, seed: u64) -> SyntheticDataset {
    let table_entries = (PAPER_ENTRIES / scale.divisor()).max(1024);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7461_6f62_616f);
    // Ad/item popularity is extremely skewed.
    let popularity = ZipfSampler::new(table_entries, 1.2);

    let sessions: Vec<Vec<u64>> = (0..inferences)
        .map(|_| {
            // ~2.68 lookups per inference: 1–5 with a mode at 2–3.
            let length = match rng.gen_range(0..100) {
                0..=19 => 1,
                20..=59 => 2,
                60..=84 => 3,
                85..=94 => 4,
                _ => 5,
            };
            let mut session: Vec<u64> = Vec::with_capacity(length);
            for _ in 0..length {
                let index = popularity.sample(&mut rng);
                // Mild co-occurrence: a second lookup is often an adjacent item
                // (same advertiser/campaign).
                if !session.is_empty() && rng.gen_bool(0.3) {
                    let anchor = session[0];
                    session.push((anchor + rng.gen_range(1..4)).min(table_entries - 1));
                } else {
                    session.push(index);
                }
            }
            session
        })
        .collect();

    let (train_workload, test_workload) = split_workload(table_entries, sessions);
    SyntheticDataset {
        kind: DatasetKind::TaobaoAds,
        table_entries,
        embedding_dim: EMBEDDING_DIM,
        entry_bytes: EMBEDDING_DIM * 4,
        train_workload,
        test_workload,
        quality: QualityModel::taobao(),
        relaxed_tolerance: DatasetKind::TaobaoAds.relaxed_tolerance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_queries_per_inference() {
        let dataset = generate(DatasetScale::Small, 500, 17);
        let q = dataset.train_workload.avg_queries_per_inference();
        assert!((2.0..=3.4).contains(&q), "expected ~2.68 lookups, got {q}");
    }

    #[test]
    fn popularity_is_heavily_skewed() {
        let dataset = generate(DatasetScale::Small, 500, 18);
        let coverage = dataset
            .train_workload
            .coverage_of_top((dataset.table_entries / 20) as usize);
        assert!(
            coverage > 0.5,
            "top 5% should cover most accesses, got {coverage:.2}"
        );
    }
}
