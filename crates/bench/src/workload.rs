//! Embedding-access workloads: the per-inference index sets the PIR layer must
//! serve, and the statistics (frequencies, co-occurrence, skew) the co-design
//! exploits.

use serde::{Deserialize, Serialize};

/// A collection of per-inference embedding accesses against one table.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessWorkload {
    /// Number of entries in the table being accessed.
    pub table_entries: u64,
    /// One entry per inference: the (possibly repeating) indices it looks up.
    pub sessions: Vec<Vec<u64>>,
}

impl AccessWorkload {
    /// Create a workload.
    ///
    /// # Panics
    ///
    /// Panics if any session references an index outside the table.
    #[must_use]
    pub fn new(table_entries: u64, sessions: Vec<Vec<u64>>) -> Self {
        for session in &sessions {
            for &index in session {
                assert!(
                    index < table_entries,
                    "session references index {index} outside table of {table_entries}"
                );
            }
        }
        Self {
            table_entries,
            sessions,
        }
    }

    /// Number of inferences in the workload.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the workload contains no inferences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Mean number of (non-deduplicated) lookups per inference.
    #[must_use]
    pub fn avg_queries_per_inference(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        let total: usize = self.sessions.iter().map(Vec::len).sum();
        total as f64 / self.sessions.len() as f64
    }

    /// Per-index access counts over the whole workload (length =
    /// `table_entries`).
    #[cfg(test)]
    fn frequencies(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.table_entries as usize];
        for session in &self.sessions {
            for &index in session {
                counts[index as usize] += 1;
            }
        }
        counts
    }

    /// Fraction of all accesses captured by the `top` most frequent indices —
    /// a direct measure of the power-law skew the hot table exploits.
    #[cfg(test)]
    pub(crate) fn coverage_of_top(&self, top: usize) -> f64 {
        let mut counts = self.frequencies();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let covered: u64 = counts.iter().take(top).sum();
        covered as f64 / total as f64
    }

    /// Split into train / test workloads at `train_fraction` (sessions are
    /// assigned in order, mirroring a temporal split).
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is not strictly between 0 and 1.
    #[must_use]
    pub fn split(&self, train_fraction: f64) -> (Self, Self) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let cut = ((self.sessions.len() as f64) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.sessions.len().saturating_sub(1).max(1));
        (
            Self {
                table_entries: self.table_entries,
                sessions: self.sessions[..cut].to_vec(),
            },
            Self {
                table_entries: self.table_entries,
                sessions: self.sessions[cut..].to_vec(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_ml::ZipfSampler;

    fn workload() -> AccessWorkload {
        AccessWorkload::new(
            10,
            vec![vec![0, 0, 1], vec![0, 2], vec![0, 1, 2, 3], vec![9]],
        )
    }

    #[test]
    fn statistics_are_correct() {
        let w = workload();
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        assert!((w.avg_queries_per_inference() - 2.5).abs() < 1e-9);
        let freq = w.frequencies();
        assert_eq!(freq[0], 4);
        assert_eq!(freq[1], 2);
        assert_eq!(freq[9], 1);
        assert_eq!(freq.iter().sum::<u64>(), 10);
    }

    #[test]
    fn coverage_reflects_skew() {
        let w = workload();
        assert!((w.coverage_of_top(1) - 0.4).abs() < 1e-9);
        assert!((w.coverage_of_top(10) - 1.0).abs() < 1e-9);
        assert!(w.coverage_of_top(1) > 1.0 / 10.0); // more skewed than uniform
    }

    #[test]
    fn split_preserves_sessions() {
        let w = workload();
        let (train, test) = w.split(0.5);
        assert_eq!(train.len() + test.len(), w.len());
        assert_eq!(train.table_entries, 10);
        assert!(!train.is_empty() && !test.is_empty());
    }

    #[test]
    fn zipf_workload_is_deterministic_and_skewed() {
        use rand::SeedableRng;
        let zipf = |exponent, seed| {
            let sampler = ZipfSampler::new(1024, exponent);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sessions = (0..200)
                .map(|_| (0..4).map(|_| sampler.sample(&mut rng)).collect())
                .collect();
            AccessWorkload::new(1024, sessions)
        };
        let a = zipf(1.1, 7);
        assert_eq!(a, zipf(1.1, 7));
        // Zipf 1.1 concentrates far more than uniform on the head.
        assert!(a.coverage_of_top(16) > 0.3);
        assert!(zipf(0.0, 7).coverage_of_top(16) < a.coverage_of_top(16));
    }

    #[test]
    fn zipf_sampler_covers_the_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sampler = ZipfSampler::new(4, 1.0);
        let mut seen = [false; 4];
        for _ in 0..500 {
            seen[sampler.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn samples_follow_the_skew() {
        use rand::SeedableRng;
        let sampler = ZipfSampler::new(1000, 1.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        let top_100: u64 = counts[..100].iter().sum();
        assert!(
            top_100 > 10_000,
            "top 10% of a Zipf(1.1) should draw most samples, got {top_100}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn zipf_rejects_empty_table() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside table")]
    fn out_of_range_session_panics() {
        let _ = AccessWorkload::new(4, vec![vec![4]]);
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn bad_split_fraction_panics() {
        let _ = workload().split(1.0);
    }
}
