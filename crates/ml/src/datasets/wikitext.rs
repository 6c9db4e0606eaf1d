//! WikiText-2-like language-model workload.
//!
//! Statistics reproduced from the paper: a word-embedding table of ~131,000
//! entries of 512 bytes (128-dimensional embeddings); each inference is a
//! sentence whose distinct words are the embedding lookups. Word frequencies
//! follow Zipf's law and adjacent words co-occur strongly, which is why the
//! paper finds higher co-location degrees (C ≈ 4–5) beneficial for the
//! language task. Baseline quality: perplexity 92.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets::{split_workload, DatasetKind, DatasetScale, SyntheticDataset};
use crate::quality::QualityModel;
use crate::workload::ZipfSampler;

const PAPER_ENTRIES: u64 = 131_000;
const EMBEDDING_DIM: usize = 128;
/// Mean sentence length in tokens.
const MEAN_SENTENCE_LENGTH: usize = 22;

pub(super) fn generate(scale: DatasetScale, inferences: usize, seed: u64) -> SyntheticDataset {
    let table_entries = (PAPER_ENTRIES / scale.divisor()).max(512);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7769_6b69_7465_7874);
    let unigram = ZipfSampler::new(table_entries, 1.1);

    let sessions: Vec<Vec<u64>> = (0..inferences)
        .map(|_| {
            let length = rng.gen_range(MEAN_SENTENCE_LENGTH - 8..=MEAN_SENTENCE_LENGTH + 8);
            let mut sentence = Vec::with_capacity(length);
            let mut previous = unigram.sample(&mut rng);
            sentence.push(previous);
            for _ in 1..length {
                // A simple bigram structure: words tend to be followed by a
                // deterministic partner (collocations) or a fresh unigram draw.
                let next = if rng.gen_bool(0.55) {
                    (previous * 31 + 7) % table_entries
                } else {
                    unigram.sample(&mut rng)
                };
                sentence.push(next);
                previous = next;
            }
            sentence
        })
        .collect();

    let (train_workload, test_workload) = split_workload(table_entries, sessions);
    SyntheticDataset {
        kind: DatasetKind::WikiText2,
        table_entries,
        embedding_dim: EMBEDDING_DIM,
        entry_bytes: EMBEDDING_DIM * 4,
        train_workload,
        test_workload,
        quality: QualityModel::wikitext2(),
        relaxed_tolerance: DatasetKind::WikiText2.relaxed_tolerance(),
    }
}

/// Convert an access workload generated by this module into LSTM training
/// sequences (token ids), clamping to the given vocabulary size.
#[must_use]
pub fn sessions_as_token_sequences(sessions: &[Vec<u64>], vocab_size: usize) -> Vec<Vec<usize>> {
    sessions
        .iter()
        .map(|s| {
            s.iter()
                .map(|&t| (t as usize).min(vocab_size - 1))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentences_have_reasonable_lengths() {
        let dataset = generate(DatasetScale::Small, 200, 33);
        let q = dataset.train_workload.avg_queries_per_inference();
        assert!((14.0..=30.0).contains(&q), "sentence length {q}");
    }

    #[test]
    fn bigram_structure_creates_cooccurrence() {
        let dataset = generate(DatasetScale::Small, 300, 34);
        // The deterministic collocation (w -> 31w+7) should make some pairs
        // co-occur far more often than chance.
        let mut pair_hits = 0usize;
        let mut total = 0usize;
        for session in &dataset.train_workload.sessions {
            for window in session.windows(2) {
                total += 1;
                if window[1] == (window[0] * 31 + 7) % dataset.table_entries {
                    pair_hits += 1;
                }
            }
        }
        let fraction = pair_hits as f64 / total as f64;
        assert!(fraction > 0.35, "collocation fraction {fraction:.2}");
    }

    #[test]
    fn token_sequence_conversion_clamps() {
        let sequences = sessions_as_token_sequences(&[vec![5, 1_000_000]], 100);
        assert_eq!(sequences, vec![vec![5usize, 99]]);
    }
}
