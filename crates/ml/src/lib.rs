//! The Zipf sampler the load harness draws its lookups from.
//!
//! The synthetic datasets, embedding tables, access workloads and
//! model-quality profiles of the paper's co-design live in `bench`, beside
//! the models that consume them; this crate keeps only the sampler that the
//! serving-side load generator (`pir-load`) shares with them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;

/// Inverse-CDF sampler over the finite Zipf distribution
/// `P(i) ∝ 1 / (i + 1)^s` for `i` in `0..n`.
///
/// The CDF table costs `O(n)` to build and each sample is one binary search,
/// which keeps trace generation cheap even for skew sweeps. Public so the
/// load harness can sample lookups one at a time without materializing whole
/// sessions.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` indices with skew `exponent`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `exponent` is negative or non-finite.
    #[must_use]
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one index");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for mass in &mut cdf {
            *mass /= total;
        }
        Self { cdf }
    }

    /// Draw one index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let unit: f64 = rng.gen_range(0.0..1.0);
        // partition_point: first index whose cumulative mass covers `unit`.
        let index = self.cdf.partition_point(|&mass| mass < unit);
        index.min(self.cdf.len() - 1) as u64
    }
}
