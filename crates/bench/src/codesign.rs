//! PIR + ML co-design parameter search (§4.2 "Co-design Parameter Selection").
//!
//! The co-design techniques — embedding co-location, the frequency-based hot
//! table and partial batch retrieval — each expose knobs (`C`, `K`, `Q_hot`,
//! bin size). This module evaluates a whole grid of configurations against
//! *training* access patterns, producing for each configuration the
//! per-inference computation (PRF calls), communication (bytes to/from both
//! servers) and the fraction of requested embeddings that get dropped. The
//! drop rate is what the ML layer converts into a model-quality estimate; the
//! pareto front over (computation, communication) at a fixed quality is what
//! the paper's Figures 16–20 plot.

use std::collections::HashSet;

use pir_protocol::TableSchema;
use serde::{Deserialize, Serialize};

use crate::colocation::ColocationMap;

/// How requests that miss the hot table reach the full table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FullTableMode {
    /// `q_full` independent full-table DPF queries per inference (no batch
    /// PIR); requests beyond the budget are dropped.
    PerQuery {
        /// Fixed number of full-table queries per inference.
        q_full: usize,
    },
    /// Partial batch retrieval: one query per bin of `bin_size` entries, every
    /// bin queried every inference.
    Pbr {
        /// Entries per bin.
        bin_size: u64,
    },
}

/// One point in the co-design configuration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodesignParams {
    /// Number of extra embeddings co-located with each seed (`C`; 0 disables
    /// co-location).
    pub colocation_degree: usize,
    /// Entries promoted to the hot table (0 disables the hot table).
    pub hot_entries: u64,
    /// Fixed hot-table queries per inference (ignored when `hot_entries == 0`).
    pub q_hot: usize,
    /// Full-table access mode.
    pub full_mode: FullTableMode,
}

impl CodesignParams {
    /// The plain, co-design-free baseline: `q_full` independent full-table
    /// queries per inference.
    #[must_use]
    pub fn plain(q_full: usize) -> Self {
        Self {
            colocation_degree: 0,
            hot_entries: 0,
            q_hot: 0,
            full_mode: FullTableMode::PerQuery { q_full },
        }
    }

    /// Batch PIR without ML co-design: PBR bins only.
    #[must_use]
    pub fn batch_pir(bin_size: u64) -> Self {
        Self {
            colocation_degree: 0,
            hot_entries: 0,
            q_hot: 0,
            full_mode: FullTableMode::Pbr { bin_size },
        }
    }
}

/// The measured cost/quality profile of one configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodesignPoint {
    /// The configuration evaluated.
    pub params: CodesignParams,
    /// PRF block evaluations per inference on one server.
    pub prf_calls_per_inference: f64,
    /// Bytes exchanged per inference (uploads + downloads, both servers).
    pub communication_bytes_per_inference: f64,
    /// Fraction of requested embeddings that are dropped.
    pub drop_rate: f64,
    /// Hot-table size implied by the configuration (entries).
    pub hot_entries: u64,
    /// Number of rows in the (possibly co-located) full table.
    pub full_table_rows: u64,
}

impl CodesignPoint {
    /// Whether this point is at least as good as `other` on every axis and
    /// strictly better on at least one.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        let at_least_as_good = self.prf_calls_per_inference <= other.prf_calls_per_inference
            && self.communication_bytes_per_inference <= other.communication_bytes_per_inference
            && self.drop_rate <= other.drop_rate;
        let strictly_better = self.prf_calls_per_inference < other.prf_calls_per_inference
            || self.communication_bytes_per_inference < other.communication_bytes_per_inference
            || self.drop_rate < other.drop_rate;
        at_least_as_good && strictly_better
    }
}

/// The grid of configurations explored by [`CodesignSearch::sweep`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodesignSpace {
    /// Co-location degrees `C` to try.
    pub colocation_degrees: Vec<usize>,
    /// Hot-table sizes as fractions of the (grouped) table.
    pub hot_fractions: Vec<f64>,
    /// Hot-query budgets to try.
    pub q_hot_options: Vec<usize>,
    /// PBR bin sizes to try.
    pub bin_sizes: Vec<u64>,
    /// Per-query budgets to try for the non-batched mode.
    pub q_full_options: Vec<usize>,
}

impl CodesignSpace {
    /// The default grid used by the evaluation: spans the ranges §4.2 reports
    /// as useful (hot table 10–20 % of the table, `C` in 1–5).
    #[must_use]
    pub fn default_grid() -> Self {
        Self {
            colocation_degrees: vec![0, 1, 2, 4],
            hot_fractions: vec![0.0, 0.1, 0.2],
            q_hot_options: vec![2, 4, 8],
            bin_sizes: vec![256, 1024, 4096, 16384],
            q_full_options: vec![1, 2, 4],
        }
    }
}

/// Evaluates co-design configurations against training access patterns.
#[derive(Debug)]
pub struct CodesignSearch<'a> {
    schema: TableSchema,
    /// Per-inference requested index sets observed on training data.
    training_sessions: &'a [Vec<u64>],
    /// Memoized co-location maps keyed by group size: building a grouping is
    /// by far the most expensive part of evaluating a configuration and many
    /// grid points share the same co-location degree.
    map_cache: std::cell::RefCell<std::collections::HashMap<usize, std::rc::Rc<ColocationMap>>>,
}

/// Serialized DPF key size for a domain of `entries` rows.
fn key_bytes(entries: u64) -> f64 {
    let bits = if entries <= 1 {
        0
    } else {
        64 - (entries - 1).leading_zeros()
    };
    33.0 + 17.0 * f64::from(bits)
}

/// PRF calls to expand one DPF over a domain of `entries` rows.
fn expand_prf_calls(entries: u64) -> f64 {
    2.0 * (entries.next_power_of_two().max(2) - 1) as f64
}

impl<'a> CodesignSearch<'a> {
    /// Create a search over `training_sessions` for a table with `schema`.
    ///
    /// # Panics
    ///
    /// Panics if there are no training sessions.
    #[must_use]
    pub fn new(schema: TableSchema, training_sessions: &'a [Vec<u64>]) -> Self {
        assert!(
            !training_sessions.is_empty(),
            "need at least one training session to evaluate co-design"
        );
        Self {
            schema,
            training_sessions,
            map_cache: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }

    fn colocation_map(&self, group_size: usize) -> std::rc::Rc<ColocationMap> {
        self.map_cache
            .borrow_mut()
            .entry(group_size)
            .or_insert_with(|| {
                std::rc::Rc::new(if group_size == 1 {
                    ColocationMap::identity(self.schema.entries)
                } else {
                    ColocationMap::build(self.schema.entries, group_size, self.training_sessions)
                })
            })
            .clone()
    }

    /// Analytically evaluate one configuration against the training sessions.
    #[must_use]
    pub fn evaluate(&self, params: &CodesignParams) -> CodesignPoint {
        let group_size = params.colocation_degree + 1;
        let map = self.colocation_map(group_size);
        let full_rows = map.num_groups();
        let group_bytes = (self.schema.entry_bytes * group_size) as f64;

        // Hot set: the most frequently accessed groups.
        let hot_entries = params.hot_entries.min(full_rows.saturating_sub(1));
        let hot_set: HashSet<u64> = if hot_entries == 0 {
            HashSet::new()
        } else {
            let mut counts = vec![0u64; full_rows as usize];
            for session in self.training_sessions {
                let (groups, _) = map.groups_for(session);
                for group in groups {
                    counts[group as usize] += 1;
                }
            }
            let mut order: Vec<u64> = (0..full_rows).collect();
            order.sort_by_key(|&g| std::cmp::Reverse(counts[g as usize]));
            order.into_iter().take(hot_entries as usize).collect()
        };

        // Simulate every training session.
        let mut requested_total = 0usize;
        let mut dropped_total = 0usize;
        for session in self.training_sessions {
            let unique: Vec<u64> = {
                let mut seen = HashSet::new();
                session
                    .iter()
                    .copied()
                    .filter(|i| *i < self.schema.entries && seen.insert(*i))
                    .collect()
            };
            requested_total += unique.len();

            let (groups, unknown) = map.groups_for(&unique);
            dropped_total += unknown.len();

            let mut served_groups: HashSet<u64> = HashSet::new();
            let mut hot_used = 0usize;
            let mut full_requests: Vec<u64> = Vec::new();
            for group in groups {
                if hot_set.contains(&group) && hot_used < params.q_hot {
                    served_groups.insert(group);
                    hot_used += 1;
                } else {
                    full_requests.push(group);
                }
            }
            match params.full_mode {
                FullTableMode::PerQuery { q_full } => {
                    for group in full_requests.iter().take(q_full) {
                        served_groups.insert(*group);
                    }
                }
                FullTableMode::Pbr { bin_size } => {
                    let mut used_bins: HashSet<u64> = HashSet::new();
                    for group in &full_requests {
                        let bin = group / bin_size.max(1);
                        if used_bins.insert(bin) {
                            served_groups.insert(*group);
                        }
                    }
                }
            }

            // An index is dropped if its group was not served.
            for index in &unique {
                if let Some((group, _)) = map.placement(*index) {
                    if !served_groups.contains(&group) {
                        dropped_total += 1;
                    }
                }
            }
        }

        // Per-inference costs (independent of the particular session because
        // query counts are fixed by design).
        let hot_prf = if hot_entries == 0 {
            0.0
        } else {
            params.q_hot as f64 * expand_prf_calls(hot_entries)
        };
        let hot_up = if hot_entries == 0 {
            0.0
        } else {
            params.q_hot as f64 * key_bytes(hot_entries)
        };
        let hot_down = if hot_entries == 0 {
            0.0
        } else {
            params.q_hot as f64 * group_bytes
        };
        let (full_prf, full_up, full_down) = match params.full_mode {
            FullTableMode::PerQuery { q_full } => (
                q_full as f64 * expand_prf_calls(full_rows),
                q_full as f64 * key_bytes(full_rows),
                q_full as f64 * group_bytes,
            ),
            FullTableMode::Pbr { bin_size } => {
                let bin_size = bin_size.max(1).min(full_rows);
                let bins = full_rows.div_ceil(bin_size) as f64;
                (
                    bins * expand_prf_calls(bin_size),
                    bins * key_bytes(bin_size),
                    bins * group_bytes,
                )
            }
        };

        CodesignPoint {
            params: *params,
            prf_calls_per_inference: hot_prf + full_prf,
            communication_bytes_per_inference: 2.0 * (hot_up + hot_down + full_up + full_down),
            drop_rate: if requested_total == 0 {
                0.0
            } else {
                dropped_total as f64 / requested_total as f64
            },
            hot_entries,
            full_table_rows: full_rows,
        }
    }

    /// Evaluate every configuration in `space`.
    #[must_use]
    pub fn sweep(&self, space: &CodesignSpace) -> Vec<CodesignPoint> {
        let mut points = Vec::new();
        let mut params_set: HashSet<CodesignParams> = HashSet::new();

        let mut full_modes: Vec<FullTableMode> = Vec::new();
        for &bin_size in &space.bin_sizes {
            full_modes.push(FullTableMode::Pbr { bin_size });
        }
        for &q_full in &space.q_full_options {
            full_modes.push(FullTableMode::PerQuery { q_full });
        }

        for &degree in &space.colocation_degrees {
            for &fraction in &space.hot_fractions {
                for &q_hot in &space.q_hot_options {
                    for &full_mode in &full_modes {
                        let hot_entries = if fraction <= 0.0 {
                            0
                        } else {
                            ((self.schema.entries as f64 * fraction) as u64).max(1)
                        };
                        let params = CodesignParams {
                            colocation_degree: degree,
                            hot_entries,
                            q_hot: if hot_entries == 0 { 0 } else { q_hot },
                            full_mode,
                        };
                        if params_set.insert(params) {
                            points.push(self.evaluate(&params));
                        }
                    }
                }
            }
        }
        points
    }

    /// Keep only the points whose drop rate is at most `max_drop_rate` and
    /// that are not dominated (in computation and communication) by another
    /// kept point.
    #[must_use]
    pub fn pareto_front(points: &[CodesignPoint], max_drop_rate: f64) -> Vec<CodesignPoint> {
        let eligible: Vec<CodesignPoint> = points
            .iter()
            .copied()
            .filter(|p| p.drop_rate <= max_drop_rate)
            .collect();
        let mut front: Vec<CodesignPoint> = Vec::new();
        for candidate in &eligible {
            let dominated = eligible.iter().any(|other| {
                (other.prf_calls_per_inference < candidate.prf_calls_per_inference
                    && other.communication_bytes_per_inference
                        <= candidate.communication_bytes_per_inference)
                    || (other.prf_calls_per_inference <= candidate.prf_calls_per_inference
                        && other.communication_bytes_per_inference
                            < candidate.communication_bytes_per_inference)
            });
            if !dominated {
                front.push(*candidate);
            }
        }
        front.sort_by(|a, b| {
            a.prf_calls_per_inference
                .partial_cmp(&b.prf_calls_per_inference)
                .expect("costs are finite")
        });
        front.dedup_by(|a, b| {
            a.prf_calls_per_inference == b.prf_calls_per_inference
                && a.communication_bytes_per_inference == b.communication_bytes_per_inference
        });
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Zipf-ish sessions over a 4096-entry table, ~8 lookups per inference,
    /// with strong co-occurrence between index 2k and 2k+1.
    fn sessions() -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..200)
            .map(|_| {
                let mut session = Vec::new();
                for _ in 0..4 {
                    let base: f64 = rng.gen::<f64>();
                    let index = ((base * base * base) * 2048.0) as u64 * 2;
                    session.push(index.min(4094));
                    session.push((index + 1).min(4095));
                }
                session
            })
            .collect()
    }

    fn schema() -> TableSchema {
        TableSchema::new(4096, 64)
    }

    #[test]
    fn plain_baseline_costs_scale_with_q_full() {
        let sessions = sessions();
        let search = CodesignSearch::new(schema(), &sessions);
        let one = search.evaluate(&CodesignParams::plain(1));
        let four = search.evaluate(&CodesignParams::plain(4));
        assert!((four.prf_calls_per_inference / one.prf_calls_per_inference - 4.0).abs() < 1e-9);
        assert!(four.drop_rate < one.drop_rate);
    }

    #[test]
    fn pbr_is_cheaper_than_many_full_queries() {
        let sessions = sessions();
        let search = CodesignSearch::new(schema(), &sessions);
        let plain = search.evaluate(&CodesignParams::plain(8));
        let pbr = search.evaluate(&CodesignParams::batch_pir(512));
        assert!(pbr.prf_calls_per_inference < plain.prf_calls_per_inference);
    }

    #[test]
    fn hot_table_and_colocation_reduce_drops_at_similar_cost() {
        let sessions = sessions();
        let search = CodesignSearch::new(schema(), &sessions);
        let without = search.evaluate(&CodesignParams::batch_pir(1024));
        let with = search.evaluate(&CodesignParams {
            colocation_degree: 1,
            hot_entries: 512,
            q_hot: 4,
            full_mode: FullTableMode::Pbr { bin_size: 1024 },
        });
        assert!(
            with.drop_rate < without.drop_rate,
            "co-design drop {} should beat plain batch {}",
            with.drop_rate,
            without.drop_rate
        );
    }

    #[test]
    fn smaller_bins_trade_communication_for_drops() {
        let sessions = sessions();
        let search = CodesignSearch::new(schema(), &sessions);
        let coarse = search.evaluate(&CodesignParams::batch_pir(2048));
        let fine = search.evaluate(&CodesignParams::batch_pir(128));
        assert!(fine.communication_bytes_per_inference > coarse.communication_bytes_per_inference);
        assert!(fine.drop_rate <= coarse.drop_rate);
    }

    #[test]
    fn sweep_produces_unique_points_and_a_pareto_front() {
        let sessions = sessions();
        let search = CodesignSearch::new(schema(), &sessions);
        let points = search.sweep(&CodesignSpace::default_grid());
        assert!(points.len() > 20);

        let front = CodesignSearch::pareto_front(&points, 0.3);
        assert!(!front.is_empty());
        assert!(front.len() <= points.len());
        // The front is sorted by computation and no member dominates another.
        for pair in front.windows(2) {
            assert!(pair[0].prf_calls_per_inference <= pair[1].prf_calls_per_inference);
        }
        for a in &front {
            for b in &front {
                if a != b {
                    assert!(!(a.dominates(b) && b.dominates(a)));
                }
            }
        }
        // Every front member respects the drop-rate cap.
        assert!(front.iter().all(|p| p.drop_rate <= 0.3));
    }

    #[test]
    fn dominates_is_a_strict_partial_order() {
        let base = CodesignPoint {
            params: CodesignParams::plain(1),
            prf_calls_per_inference: 100.0,
            communication_bytes_per_inference: 100.0,
            drop_rate: 0.1,
            hot_entries: 0,
            full_table_rows: 100,
        };
        let better = CodesignPoint {
            prf_calls_per_inference: 50.0,
            ..base
        };
        assert!(better.dominates(&base));
        assert!(!base.dominates(&better));
        assert!(!base.dominates(&base));
    }

    #[test]
    #[should_panic(expected = "at least one training session")]
    fn empty_training_set_panics() {
        let sessions: Vec<Vec<u64>> = Vec::new();
        let _ = CodesignSearch::new(schema(), &sessions);
    }
}
