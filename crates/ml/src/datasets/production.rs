//! The production recommendation-model profile from the paper's Table 2 and
//! §2.3.
//!
//! The paper studies a real-world model whose top device-only sparse features
//! have multi-gigabyte embedding tables, 144-byte entries, tens of lookups
//! per inference and strong temporal locality (only 2.44 % of lookups miss a
//! client-side cache of recently fetched entries). The real model and traces
//! are proprietary; this module keeps the published statistics as data and
//! generates a synthetic workload with the same shape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::workload::AccessWorkload;
use crate::workload::ZipfSampler;

/// One row of Table 2: a device-only sparse feature's embedding table.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProductionTableStats {
    /// Number of embedding entries.
    pub entries: u64,
    /// Average embedding lookups per inference.
    pub avg_queries_per_inference: f64,
    /// Entry size in bytes.
    pub entry_bytes: u64,
}

impl ProductionTableStats {
    /// Total table size in bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.entries * self.entry_bytes
    }
}

/// The production profile: Table 2 plus the §2.3 locality statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProductionProfile;

impl ProductionProfile {
    /// Entry size shared by all of the model's tables.
    pub const ENTRY_BYTES: u64 = 144;
    /// Fraction of lookups that miss the on-device cache of recently fetched
    /// entries and therefore need a PIR query (§2.3: 2.44 %).
    pub const CACHE_MISS_RATE: f64 = 0.0244;

    /// Table 2, in the paper's row order (top-5 device-only sparse features).
    #[must_use]
    pub fn table2() -> Vec<ProductionTableStats> {
        let rows = [
            (7_614_589u64, 13.9f64),
            (20_000_000, 47.3),
            (20_000_000, 25.7),
            (2_989_943, 3.2),
            (20_000_000, 14.9),
        ];
        rows.iter()
            .map(|&(entries, avg)| ProductionTableStats {
                entries,
                avg_queries_per_inference: avg,
                entry_bytes: Self::ENTRY_BYTES,
            })
            .collect()
    }

    /// Generate a synthetic access workload with the shape of Table 2's first
    /// table, scaled down by `scale_divisor` so it can be hosted by the
    /// simulated servers. Lookups are Zipf-skewed and thinned by the
    /// cache-miss rate (only misses need PIR).
    ///
    /// # Panics
    ///
    /// Panics if `scale_divisor` is zero or `inferences` is zero.
    #[must_use]
    pub fn workload(inferences: usize, scale_divisor: u64, seed: u64) -> AccessWorkload {
        assert!(scale_divisor > 0, "scale divisor must be positive");
        assert!(inferences > 0, "need at least one inference");
        let stats = Self::table2()[0];
        let entries = (stats.entries / scale_divisor).max(1024);
        let sampler = ZipfSampler::new(entries, 1.1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7072_6f64);

        let sessions = (0..inferences)
            .map(|_| {
                let lookups =
                    (stats.avg_queries_per_inference * rng.gen_range(0.5..1.5)).round() as usize;
                let mut session = Vec::new();
                for _ in 0..lookups {
                    if rng.gen_bool(Self::CACHE_MISS_RATE * 10.0) {
                        session.push(sampler.sample(&mut rng));
                    }
                }
                session
            })
            .collect();
        AccessWorkload::new(entries, sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let rows = ProductionProfile::table2();
        assert_eq!(rows.len(), 5);
        // Largest tables are the 20M-entry ones at 2.68 GB.
        let largest = rows
            .iter()
            .map(ProductionTableStats::table_bytes)
            .max()
            .unwrap();
        assert_eq!(largest, 20_000_000 * 144);
        assert!((rows[1].avg_queries_per_inference - 47.3).abs() < 1e-9);
        // All are far too big for a client device.
        assert!(rows.iter().all(|r| r.table_bytes() > 400_000_000));
    }

    #[test]
    fn workload_reflects_cache_thinning() {
        let workload = ProductionProfile::workload(200, 64, 5);
        let q = workload.avg_queries_per_inference();
        // ~13.9 raw lookups thinned to a handful of PIR queries per inference.
        assert!(q < 13.9, "thinned lookups {q} should be below the raw rate");
        assert!(q > 0.5);
        assert!(!workload.is_empty());
    }

    #[test]
    #[should_panic(expected = "scale divisor")]
    fn zero_scale_panics() {
        let _ = ProductionProfile::workload(10, 0, 1);
    }
}
