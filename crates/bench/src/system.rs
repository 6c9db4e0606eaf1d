//! The end-to-end private inference runtime (Figure 1b).
//!
//! A [`PrivateInferenceSystem`] owns the client-side state (index maps,
//! per-table PIR clients, the fixed query budgets) and the two non-colluding
//! servers' state (full table — possibly co-located —, optional hot table,
//! PBR bins). [`PrivateInferenceSystem::infer`] runs one complete private
//! embedding fetch: planning, key generation, server evaluation,
//! reconstruction and extraction, returning the embeddings plus the
//! communication/computation accounting needed by the evaluation.

use std::collections::BTreeMap;

use pir_prf::PrfKind;
use pir_protocol::{GpuPirServer, PirClient, PirError, PirServer, PirTable};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::application::Application;
use crate::codesign::{CodesignParams, FullTableMode};
use crate::colocation::{ColocatedTable, ColocationMap};
use crate::embedding::EmbeddingTable;
use crate::hot_table::{HotTableConfig, HotTableSplit};
use crate::pbr::{PbrClient, PbrConfig, PbrServer};

/// Configuration of the deployed system.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// PRF family used by clients and servers.
    pub prf_kind: PrfKind,
    /// Co-design configuration (colocation, hot table, full-table mode).
    pub codesign: CodesignParams,
}

impl SystemConfig {
    /// A plain deployment: no co-design, `q_full` independent queries.
    #[must_use]
    pub fn plain(prf_kind: PrfKind, q_full: usize) -> Self {
        Self {
            prf_kind,
            codesign: CodesignParams::plain(q_full),
        }
    }

    /// A deployment with explicit co-design parameters.
    #[must_use]
    pub fn with_codesign(prf_kind: PrfKind, codesign: CodesignParams) -> Self {
        Self { prf_kind, codesign }
    }
}

/// The result of one private inference's embedding fetch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InferenceOutcome {
    /// Retrieved embeddings, keyed by the originally requested index.
    pub embeddings: BTreeMap<u64, Vec<f32>>,
    /// Requested indices that were dropped by the fixed budgets / bin
    /// conflicts.
    pub dropped: Vec<u64>,
    /// Bytes uploaded to both servers.
    pub upload_bytes: u64,
    /// Bytes downloaded from both servers.
    pub download_bytes: u64,
    /// PRF evaluations performed by one server for this inference.
    pub server_prf_calls: u64,
    /// Number of PIR queries issued (hot + full), per server.
    pub queries_issued: u64,
}

#[allow(clippy::large_enum_variant)] // one long-lived instance per deployment
enum FullTableAccess {
    PerQuery {
        client: PirClient,
        servers: [GpuPirServer; 2],
        q_full: usize,
    },
    Pbr {
        client: PbrClient,
        servers: [PbrServer; 2],
    },
}

struct HotTableAccess {
    split: HotTableSplit,
    client: PirClient,
    servers: [GpuPirServer; 2],
}

/// The deployed system: client state plus both servers for every table.
pub struct PrivateInferenceSystem {
    entry_bytes: usize,
    colocation: ColocationMap,
    colocated: Option<ColocatedTable>,
    hot: Option<HotTableAccess>,
    full: FullTableAccess,
}

impl PrivateInferenceSystem {
    /// Deploy the system for an application.
    ///
    /// Server-side preprocessing (co-location grouping, hot-table selection)
    /// uses only the application's *training* workload, never the private
    /// test requests.
    #[must_use]
    pub fn deploy(app: &Application, config: SystemConfig) -> Self {
        let params = config.codesign;
        let base_table = app.pir_table().clone();
        let entry_bytes = base_table.entry_bytes();

        // Co-location.
        let colocation = if params.colocation_degree == 0 {
            ColocationMap::identity(base_table.entries())
        } else {
            ColocationMap::build(
                base_table.entries(),
                params.colocation_degree + 1,
                &app.train_workload().sessions,
            )
        };
        let colocated = if params.colocation_degree == 0 {
            None
        } else {
            Some(ColocatedTable::build(&base_table, colocation.clone()))
        };
        let serving_table: PirTable = colocated
            .as_ref()
            .map(|c| c.table().clone())
            .unwrap_or(base_table);

        // Hot table over the (possibly grouped) serving table.
        let hot = if params.hot_entries == 0 {
            None
        } else {
            let mut frequencies = vec![0u64; serving_table.entries() as usize];
            for session in &app.train_workload().sessions {
                let (groups, _) = colocation.groups_for(session);
                for group in groups {
                    frequencies[group as usize] += 1;
                }
            }
            let hot_entries = params.hot_entries.min(serving_table.entries() - 1);
            let split = HotTableSplit::build(
                &serving_table,
                &frequencies,
                HotTableConfig::new(hot_entries, params.q_hot.max(1)),
            );
            let client = PirClient::new(split.hot_table().schema(), config.prf_kind);
            let servers = [
                GpuPirServer::with_defaults(split.hot_table().clone(), config.prf_kind),
                GpuPirServer::with_defaults(split.hot_table().clone(), config.prf_kind),
            ];
            Some(HotTableAccess {
                split,
                client,
                servers,
            })
        };

        // Full-table access path.
        let full = match params.full_mode {
            FullTableMode::PerQuery { q_full } => FullTableAccess::PerQuery {
                client: PirClient::new(serving_table.schema(), config.prf_kind),
                servers: [
                    GpuPirServer::with_defaults(serving_table.clone(), config.prf_kind),
                    GpuPirServer::with_defaults(serving_table.clone(), config.prf_kind),
                ],
                q_full,
            },
            FullTableMode::Pbr { bin_size } => {
                let bin_size = bin_size.max(1).min(serving_table.entries());
                let pbr_config = PbrConfig::new(bin_size);
                FullTableAccess::Pbr {
                    client: PbrClient::new(serving_table.schema(), pbr_config, config.prf_kind),
                    servers: [
                        PbrServer::new(&serving_table, pbr_config, config.prf_kind),
                        PbrServer::new(&serving_table, pbr_config, config.prf_kind),
                    ],
                }
            }
        };

        Self {
            entry_bytes,
            colocation,
            colocated,
            hot,
            full,
        }
    }

    /// Run one private embedding fetch for the requested indices.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the PIR layer (these indicate a bug or
    /// a misconfigured deployment rather than a runtime condition).
    pub fn infer<R: Rng + ?Sized>(
        &self,
        requested: &[u64],
        rng: &mut R,
    ) -> Result<InferenceOutcome, PirError> {
        let mut outcome = InferenceOutcome::default();
        let prf_before = self.server_prf_calls();

        // Deduplicate and map to groups.
        let (groups, unknown) = self.colocation.groups_for(requested);
        outcome.dropped.extend(unknown);

        // Plan hot vs. full.
        let (hot_indices, full_groups, hot_dropped_groups) = match &self.hot {
            Some(hot) => {
                let plan = hot.split.plan(&groups);
                (plan.hot_indices, plan.full_indices, plan.dropped)
            }
            None => (Vec::new(), groups.clone(), Vec::new()),
        };

        let mut served_group_rows: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

        // Hot-table fetches: always exactly q_hot queries when a hot table is
        // deployed (dummy-padded).
        if let Some(hot) = &self.hot {
            let q_hot = hot.split.config().q_hot;
            let mut hot_queries = Vec::with_capacity(q_hot);
            for slot in 0..q_hot {
                let query = match hot_indices.get(slot) {
                    Some(&hot_index) => hot.client.query(hot_index, rng),
                    None => hot.client.dummy_query(rng),
                };
                hot_queries.push(query);
            }
            for query in &hot_queries {
                outcome.upload_bytes += 2 * query.upload_bytes_per_server() as u64;
            }
            outcome.queries_issued += q_hot as u64;

            let to0: Vec<_> = hot_queries.iter().map(|q| q.to_server(0)).collect();
            let to1: Vec<_> = hot_queries.iter().map(|q| q.to_server(1)).collect();
            let r0 = hot.servers[0].answer_batch(&to0)?;
            let r1 = hot.servers[1].answer_batch(&to1)?;
            for response in r0.iter().chain(r1.iter()) {
                outcome.download_bytes += response.size_bytes() as u64;
            }
            for (slot, &hot_index) in hot_indices.iter().enumerate().take(q_hot) {
                let lanes =
                    hot.client
                        .reconstruct_lanes(&hot_queries[slot], &r0[slot], &r1[slot])?;
                let bytes = hot.split.hot_table().lanes_to_entry_bytes(&lanes);
                // Recover which serving-table group this hot entry is.
                if let Some(group) = self.hot_global_of(hot_index) {
                    served_group_rows.insert(group, bytes);
                }
            }
        }

        // Full-table fetches.
        match &self.full {
            FullTableAccess::PerQuery {
                client,
                servers,
                q_full,
            } => {
                let mut queries = Vec::with_capacity(*q_full);
                for slot in 0..*q_full {
                    let query = match full_groups.get(slot) {
                        Some(&group) => client.query(group, rng),
                        None => client.dummy_query(rng),
                    };
                    queries.push(query);
                }
                if !queries.is_empty() {
                    for query in &queries {
                        outcome.upload_bytes += 2 * query.upload_bytes_per_server() as u64;
                    }
                    outcome.queries_issued += queries.len() as u64;
                    let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
                    let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();
                    let r0 = servers[0].answer_batch(&to0)?;
                    let r1 = servers[1].answer_batch(&to1)?;
                    for response in r0.iter().chain(r1.iter()) {
                        outcome.download_bytes += response.size_bytes() as u64;
                    }
                    for (slot, &group) in full_groups.iter().enumerate().take(*q_full) {
                        let lanes =
                            client.reconstruct_lanes(&queries[slot], &r0[slot], &r1[slot])?;
                        let bytes = self.serving_entry_bytes(&lanes);
                        served_group_rows.insert(group, bytes);
                    }
                }
            }
            FullTableAccess::Pbr { client, servers } => {
                let assignment = client.assign(&full_groups);
                let queries = client.queries(&assignment, rng);
                outcome.upload_bytes += 2 * client.upload_bytes_per_server(&queries) as u64;
                outcome.queries_issued += queries.len() as u64;
                let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
                let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();
                let r0 = servers[0].answer(&to0)?;
                let r1 = servers[1].answer(&to1)?;
                for response in r0.iter().chain(r1.iter()) {
                    outcome.download_bytes += response.size_bytes() as u64;
                }
                let retrieved = client.reconstruct(&assignment, &queries, &r0, &r1)?;
                for (group, bytes) in retrieved {
                    served_group_rows.insert(group, bytes);
                }
            }
        }

        // Per-request extraction.
        let _ = hot_dropped_groups; // groups dropped by the hot budget simply stay unserved
        for &index in requested {
            if outcome.embeddings.contains_key(&index) || outcome.dropped.contains(&index) {
                continue;
            }
            let Some((group, _)) = self.colocation.placement(index) else {
                outcome.dropped.push(index);
                continue;
            };
            match served_group_rows.get(&group) {
                Some(row) => {
                    let entry = match &self.colocated {
                        Some(colocated) => colocated.extract(index, row),
                        None => row.clone(),
                    };
                    outcome
                        .embeddings
                        .insert(index, EmbeddingTable::bytes_to_vector(&entry));
                }
                None => outcome.dropped.push(index),
            }
        }

        outcome.server_prf_calls = self.server_prf_calls() - prf_before;
        Ok(outcome)
    }

    fn serving_entry_bytes(&self, lanes: &[u32]) -> Vec<u8> {
        let width = match &self.colocated {
            Some(colocated) => colocated.table().entry_bytes(),
            None => self.entry_bytes,
        };
        let mut bytes: Vec<u8> = lanes.iter().flat_map(|lane| lane.to_le_bytes()).collect();
        bytes.truncate(width);
        bytes
    }

    /// Reverse lookup: which serving-table group a hot-table row corresponds to.
    fn hot_global_of(&self, hot_index: u64) -> Option<u64> {
        let hot = self.hot.as_ref()?;
        // The hot split stores global->hot; invert by scanning the serving
        // table groups that map to this hot index.
        (0..self
            .colocated
            .as_ref()
            .map_or_else(|| self.colocation.num_groups(), |c| c.table().entries()))
            .find(|&group| hot.split.hot_index_of(group) == Some(hot_index))
    }

    /// Total PRF calls performed so far by server 0 across all tables.
    #[must_use]
    pub fn server_prf_calls(&self) -> u64 {
        let hot = self
            .hot
            .as_ref()
            .map_or(0, |h| h.servers[0].metrics().prf_calls);
        let full = match &self.full {
            FullTableAccess::PerQuery { servers, .. } => servers[0].metrics().prf_calls,
            FullTableAccess::Pbr { servers, .. } => servers[0].total_prf_calls(),
        };
        hot + full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetKind, DatasetScale, SyntheticDataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_app() -> Application {
        let dataset =
            SyntheticDataset::generate(DatasetKind::MovieLens20M, DatasetScale::Small, 40, 3);
        Application::new(dataset, 11)
    }

    fn check_retrieved_embeddings(app: &Application, outcome: &InferenceOutcome) {
        for (&index, embedding) in &outcome.embeddings {
            let expected = app.embeddings().row(index as usize);
            assert_eq!(embedding.len(), expected.len());
            for (a, b) in embedding.iter().zip(expected) {
                assert!((a - b).abs() < 1e-3, "index {index}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plain_deployment_retrieves_requested_embeddings() {
        let app = small_app();
        let system = PrivateInferenceSystem::deploy(&app, SystemConfig::plain(PrfKind::SipHash, 6));
        let mut rng = StdRng::seed_from_u64(1);
        let requested = vec![1u64, 5, 9, 100];
        let outcome = system.infer(&requested, &mut rng).unwrap();

        assert_eq!(outcome.embeddings.len() + outcome.dropped.len(), 4);
        assert_eq!(
            outcome.embeddings.len(),
            4,
            "q_full=6 serves all 4 requests"
        );
        check_retrieved_embeddings(&app, &outcome);
        assert!(outcome.upload_bytes > 0);
        assert!(outcome.download_bytes > 0);
        assert!(outcome.server_prf_calls > 0);
        assert_eq!(outcome.queries_issued, 6);
    }

    #[test]
    fn per_query_budget_drops_overflow() {
        let app = small_app();
        let system = PrivateInferenceSystem::deploy(&app, SystemConfig::plain(PrfKind::SipHash, 2));
        let mut rng = StdRng::seed_from_u64(2);
        let requested = vec![1u64, 5, 9, 100, 200];
        let outcome = system.infer(&requested, &mut rng).unwrap();
        assert_eq!(outcome.embeddings.len(), 2);
        assert_eq!(outcome.dropped.len(), 3);
        check_retrieved_embeddings(&app, &outcome);
        // Query count is fixed at q_full regardless of demand.
        assert_eq!(outcome.queries_issued, 2);
        let few = system.infer(&[3], &mut rng).unwrap();
        assert_eq!(few.queries_issued, 2);
    }

    #[test]
    fn full_codesign_deployment_works_end_to_end() {
        let app = small_app();
        let params = CodesignParams {
            colocation_degree: 2,
            hot_entries: 64,
            q_hot: 4,
            full_mode: FullTableMode::Pbr { bin_size: 128 },
        };
        let system = PrivateInferenceSystem::deploy(
            &app,
            SystemConfig::with_codesign(PrfKind::SipHash, params),
        );
        let mut rng = StdRng::seed_from_u64(3);

        // Use a real test session from the workload.
        let session = app.test_workload().sessions[0].clone();
        let outcome = system.infer(&session, &mut rng).unwrap();
        assert!(!outcome.embeddings.is_empty(), "some lookups must succeed");
        check_retrieved_embeddings(&app, &outcome);
        assert!(outcome.upload_bytes + outcome.download_bytes > 0);
    }

    #[test]
    fn pbr_only_deployment_matches_table_contents() {
        let app = small_app();
        let system = PrivateInferenceSystem::deploy(
            &app,
            SystemConfig::with_codesign(PrfKind::SipHash, CodesignParams::batch_pir(128)),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = system.infer(&[0, 200, 400, 600], &mut rng).unwrap();
        // All four indices land in different 128-entry bins, so none drop.
        assert_eq!(outcome.embeddings.len(), 4);
        check_retrieved_embeddings(&app, &outcome);
    }
}
