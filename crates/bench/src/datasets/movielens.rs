//! MovieLens-20M-like recommendation workload.
//!
//! Statistics reproduced from the paper: a user-history table of ~27,000
//! entries of 128 bytes (32-dimensional embeddings), ~72 lookups per
//! inference (the user's rated-movie history), strong popularity skew and
//! genre-style co-occurrence. Baseline model quality: AUC 0.7845.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets::{split_workload, DatasetKind, DatasetScale, SyntheticDataset};
use crate::quality::QualityModel;
use pir_ml::ZipfSampler;

const PAPER_ENTRIES: u64 = 27_000;
const EMBEDDING_DIM: usize = 32;
const AVG_QUERIES_PER_INFERENCE: f64 = 72.0;
/// Number of synthetic "genres" used to induce co-occurrence.
const CLUSTERS: u64 = 20;

pub(super) fn generate(scale: DatasetScale, inferences: usize, seed: u64) -> SyntheticDataset {
    let table_entries = (PAPER_ENTRIES / scale.divisor()).max(256);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_7669_656c_656e);
    let popularity = ZipfSampler::new(table_entries, 1.05);
    let cluster_of = |index: u64| index % CLUSTERS;

    let sessions: Vec<Vec<u64>> = (0..inferences)
        .map(|_| {
            // A user watches mostly within a couple of favourite genres.
            let favourite_a = cluster_of(popularity.sample(&mut rng));
            let favourite_b = cluster_of(popularity.sample(&mut rng));
            let length = sample_session_length(&mut rng);
            (0..length)
                .map(|_| {
                    let candidate = popularity.sample(&mut rng);
                    if rng.gen_bool(0.7) {
                        // Snap the candidate into one of the favourite genres,
                        // preserving its popularity rank within the cluster.
                        let target_cluster = if rng.gen_bool(0.5) {
                            favourite_a
                        } else {
                            favourite_b
                        };
                        let base = candidate - (candidate % CLUSTERS);
                        (base + target_cluster).min(table_entries - 1)
                    } else {
                        candidate
                    }
                })
                .collect()
        })
        .collect();

    let (train_workload, test_workload) = split_workload(table_entries, sessions);
    SyntheticDataset {
        kind: DatasetKind::MovieLens20M,
        table_entries,
        embedding_dim: EMBEDDING_DIM,
        entry_bytes: EMBEDDING_DIM * 4,
        train_workload,
        test_workload,
        quality: QualityModel::movielens(),
        relaxed_tolerance: DatasetKind::MovieLens20M.relaxed_tolerance(),
    }
}

/// Session lengths concentrate around the paper's reported 72 lookups.
fn sample_session_length(rng: &mut StdRng) -> usize {
    let jitter: f64 = rng.gen_range(-0.35..0.35);
    ((AVG_QUERIES_PER_INFERENCE * (1.0 + jitter)).round() as usize).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_exhibit_cluster_structure() {
        let dataset = generate(DatasetScale::Small, 100, 9);
        // Count how concentrated each session is on its two most common clusters.
        let mut concentrated = 0usize;
        for session in &dataset.train_workload.sessions {
            let mut counts = vec![0usize; CLUSTERS as usize];
            for &index in session {
                counts[(index % CLUSTERS) as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            if counts[0] + counts[1] > session.len() / 2 {
                concentrated += 1;
            }
        }
        assert!(
            concentrated * 10 > dataset.train_workload.len() * 5,
            "most sessions should concentrate on two clusters ({concentrated})"
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = generate(DatasetScale::Small, 20, 42);
        let b = generate(DatasetScale::Small, 20, 42);
        assert_eq!(a, b);
        let c = generate(DatasetScale::Small, 20, 43);
        assert_ne!(a.train_workload, c.train_workload);
    }
}
