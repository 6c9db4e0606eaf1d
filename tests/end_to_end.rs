//! Cross-crate integration tests: the full pipeline from dataset generation
//! through key generation, simulated-GPU evaluation and reconstruction.

use std::time::Duration;

use gpu_pir_repro::gpu_sim::{BackendKind, DeviceSpec, HostBackend};
use gpu_pir_repro::pir_core::{Application, PrivateInferenceSystem, SystemConfig};
use gpu_pir_repro::pir_dpf::{
    eval_point, generate_keys, BatchEvalJob, DpfKey, DpfParams, SchedulerConfig,
};
use gpu_pir_repro::pir_field::{reconstruct_lanes, Block128, Ring128};
use gpu_pir_repro::pir_ml::datasets::{DatasetKind, DatasetScale, SyntheticDataset};
use gpu_pir_repro::pir_prf::{build_prf, GgmPrg, PrfKind};
use gpu_pir_repro::pir_protocol::{
    shard_owned_ranges, CodesignParams, CpuPirServer, FullTableMode, GpuPirServer, NaivePir,
    NaiveQuery, PirClient, PirResponse, PirServer, PirTable,
};
use gpu_pir_repro::pir_serve::{PirServeRuntime, ServeConfig, TableConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn cpu_and_gpu_servers_are_interchangeable_parties() {
    // The two non-colluding servers need not run the same implementation.
    let table = PirTable::generate(2000, 32, |row, offset| (row as u8) ^ (offset as u8));
    let client = PirClient::new(table.schema(), PrfKind::Aes128);
    let gpu = GpuPirServer::with_defaults(table.clone(), PrfKind::Aes128);
    let cpu = CpuPirServer::new(table.clone(), PrfKind::Aes128, 2);
    let mut rng = StdRng::seed_from_u64(9);

    for _ in 0..5 {
        let index = rng.gen_range(0..table.entries());
        let query = client.query(index, &mut rng);
        let r0 = gpu.answer(&query.to_server(0)).unwrap();
        let r1 = cpu.answer(&query.to_server(1)).unwrap();
        assert_eq!(
            client.reconstruct(&query, &r0, &r1).unwrap(),
            table.entry(index)
        );
    }
    assert!(gpu.metrics().queries_served >= 5);
    assert!(cpu.metrics().queries_served >= 5);
}

#[test]
fn sharded_and_single_device_servers_are_interchangeable_parties() {
    // A table sharded across 4 simulated devices on one side and a single
    // V100 on the other still reconstructs: sharding is server-local.
    let table = PirTable::generate(1 << 10, 24, |row, offset| {
        (row as u8).wrapping_add(offset as u8)
    });
    let client = PirClient::new(table.schema(), PrfKind::SipHash);
    let sharded = GpuPirServer::new(
        table.clone(),
        PrfKind::SipHash,
        vec![DeviceSpec::v100(); 4],
        SchedulerConfig::default(),
        BackendKind::Simulated,
    )
    .unwrap();
    let single = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
    let mut rng = StdRng::seed_from_u64(10);

    for _ in 0..4 {
        let index = rng.gen_range(0..table.entries());
        let query = client.query(index, &mut rng);
        let r0 = sharded.answer(&query.to_server(0)).unwrap();
        let r1 = single.answer(&query.to_server(1)).unwrap();
        assert_eq!(
            client.reconstruct(&query, &r0, &r1).unwrap(),
            table.entry(index)
        );
    }
}

#[test]
fn shard_owners_of_masked_views_sum_to_the_naive_answer() {
    // The cluster tier's data path without the sockets: per party, one server
    // per shard over that shard's masked view, each evaluating only the
    // subtree it owns; the router's lane-wise wrapping sum of their shares is
    // the party's share, and the pair reconstructs what naive PIR returns.
    let mut table = PirTable::generate(300, 24, |row, offset| {
        (row as u8).wrapping_mul(7).wrapping_add(offset as u8)
    });
    let ranges = shard_owned_ranges(table.entries(), 2).unwrap();
    let shard_servers = |party_table: &PirTable| -> Vec<GpuPirServer> {
        ranges
            .iter()
            .map(|owned| GpuPirServer::with_defaults(party_table.masked(owned), PrfKind::SipHash))
            .collect()
    };
    let parties = [shard_servers(&table), shard_servers(&table)];
    let schema = table.schema();
    let client = PirClient::new(schema, PrfKind::SipHash);
    let mut rng = StdRng::seed_from_u64(12);

    let lookup = |index: u64, rng: &mut StdRng| {
        let query = client.query(index, rng);
        let responses: Vec<PirResponse> = (0..2u8)
            .map(|party| {
                let projection = query.to_server(party);
                let mut share = vec![0u32; schema.lanes_per_entry()];
                for shard in &parties[party as usize] {
                    let part = shard.answer(&projection).unwrap().share;
                    for (lane, part) in share.iter_mut().zip(part) {
                        *lane = lane.wrapping_add(part);
                    }
                }
                PirResponse {
                    query_id: query.query_id,
                    party,
                    share,
                }
            })
            .collect();
        client
            .reconstruct(&query, &responses[0], &responses[1])
            .unwrap()
    };
    let naive_lookup = |table: &PirTable, index: u64, rng: &mut StdRng| {
        let naive = NaivePir::new(table.clone());
        let (q0, q1) = naive.query(index, rng).unwrap();
        naive.reconstruct(&naive.answer(&q0), &naive.answer(&q1))
    };

    // Both sides of the shard boundary (row 256 of the padded 512) and the
    // clamped tail.
    for index in [0, 255, 256, 299] {
        assert_eq!(
            lookup(index, &mut rng),
            naive_lookup(&table, index, &mut rng)
        );
    }
    // Each shard did a shard's worth of the expansion: one step down to its
    // subtree, then that subtree — together, one unsharded evaluation.
    for party in &parties {
        for shard in party {
            assert_eq!(shard.metrics().prf_calls, 4 * (1 + 2 * 256 - 2));
        }
    }

    // One hot reload through the owner of row 280 — and only the owner: the
    // other shard does not hold the row and says so.
    let fresh = vec![0xC3u8; 24];
    for party in &parties {
        assert!(party[0].update_entry(280, &fresh).is_err());
        party[1].update_entry(280, &fresh).unwrap();
    }
    table.update_entry(280, &fresh);
    assert_eq!(lookup(280, &mut rng), fresh);
    assert_eq!(lookup(279, &mut rng), naive_lookup(&table, 279, &mut rng));
}

#[test]
fn serving_runtime_batches_concurrent_queries_across_tables() {
    // End-to-end through the new serving layer: two hosted tables, many
    // concurrent clients, every row must reconstruct and dynamic batching
    // must demonstrably coalesce queries (occupancy > 1).
    let runtime = PirServeRuntime::new(ServeConfig::builder().seed(42).build().unwrap());
    let shapes: &[(&str, u64, usize)] = &[("users", 1 << 10, 16), ("items", 1 << 9, 8)];
    for &(name, entries, entry_bytes) in shapes {
        let table = PirTable::generate(entries, entry_bytes, |row, offset| {
            (row as u8).wrapping_mul(13).wrapping_add(offset as u8)
        });
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(32)
            .max_wait(Duration::from_millis(3))
            .build()
            .unwrap();
        runtime.register_table(name, table, config).unwrap();
    }

    let mut joins = Vec::new();
    for client in 0..8u64 {
        let handle = runtime.handle();
        joins.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100 + client);
            for _ in 0..20 {
                let (name, entries, entry_bytes) = if rng.gen_bool(0.5) {
                    ("users", 1u64 << 10, 16usize)
                } else {
                    ("items", 1u64 << 9, 8usize)
                };
                let index = rng.gen_range(0..entries);
                let row = handle
                    .query(name, &format!("tenant-{}", client % 3), index)
                    .unwrap()
                    .wait()
                    .unwrap();
                let expected: Vec<u8> = (0..entry_bytes)
                    .map(|offset| (index as u8).wrapping_mul(13).wrapping_add(offset as u8))
                    .collect();
                assert_eq!(row, expected, "row {index} of '{name}'");
            }
        }));
    }
    for join in joins {
        join.join().unwrap();
    }

    let stats = runtime.stats();
    assert_eq!(stats.answered(), 8 * 20);
    assert_eq!(stats.shed(), 0);
    assert!(
        stats.batch_occupancy() > 1.0,
        "8 concurrent clients must coalesce (occupancy {:.2})",
        stats.batch_occupancy()
    );
    for table in &stats.tables {
        assert!(table.e2e_p99_ms.is_some());
        assert!(table.max_batch <= 32);
    }
    runtime.shutdown();
}

#[test]
fn a_lockstep_batch_on_a_two_thread_host_backend_matches_naive_pir() {
    // 32 keys per party on a two-thread host backend: each worker takes
    // ranges of eight keys and runs them in lockstep, run by run, reading
    // each table slice once per range. 3 000 rows make two host runs, the
    // second cut short by the end of the table. Every pair of shares must
    // reconstruct exactly what naive PIR returns.
    let table = PirTable::generate(3000, 24, |row, offset| {
        (row as u8).wrapping_mul(11).wrapping_add(offset as u8)
    });
    let naive = NaivePir::new(table.clone());
    let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
    let params = DpfParams::for_domain(table.entries());
    let mut rng = StdRng::seed_from_u64(13);
    let indices: Vec<u64> = (0..32).map(|_| rng.gen_range(0..table.entries())).collect();
    let (keys0, keys1): (Vec<DpfKey>, Vec<DpfKey>) = indices
        .iter()
        .map(|&index| generate_keys(&prg, &params, index, Ring128::ONE, &mut rng))
        .unzip();
    let host = HostBackend::with_host_threads(DeviceSpec::v100(), 2);
    let shares = |keys: &[DpfKey]| {
        BatchEvalJob::new(&prg, PrfKind::Aes128, keys, table.matrix())
            .run_on(&host)
            .results
    };
    let (shares0, shares1) = (shares(&keys0), shares(&keys1));
    for ((index, share0), share1) in indices.iter().zip(&shares0).zip(&shares1) {
        let (q0, q1) = naive.query(*index, &mut rng).unwrap();
        let want = naive.reconstruct(&naive.answer(&q0), &naive.answer(&q1));
        let got = table.lanes_to_entry_bytes(&reconstruct_lanes(&share0.0, &share1.0));
        assert_eq!(got, want, "row {index}");
    }
}

#[test]
fn keys_with_lsb_set_correction_seeds_expand_like_the_per_node_walk() {
    // Keys arrive off the wire unvalidated. These are Gen's keys with the
    // LSB of every correction seed set, a bit Gen always clears, so they no
    // longer encode a point function; the servers must still expand them
    // exactly as the per-node walk (`eval_point`) does. Nine keys per party
    // on a two-thread host backend run in lockstep ranges, and 3 000 rows
    // cut the second host run short. Each pair of answer shares must
    // reconstruct what naive PIR returns for the pair of weight vectors the
    // walk gives.
    let table = PirTable::generate(3000, 24, |row, offset| {
        (row as u8).wrapping_mul(7).wrapping_add(offset as u8)
    });
    let naive = NaivePir::new(table.clone());
    let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
    let params = DpfParams::for_domain(table.entries());
    let mut rng = StdRng::seed_from_u64(29);
    let hostile = |mut key: DpfKey| {
        for level in &mut key.levels {
            level.seed = Block128::from_u128(level.seed.as_u128() | 1);
        }
        key
    };
    let (keys0, keys1): (Vec<DpfKey>, Vec<DpfKey>) = (0..9)
        .map(|_| {
            let index = rng.gen_range(0..table.entries());
            let (key0, key1) = generate_keys(&prg, &params, index, Ring128::ONE, &mut rng);
            (hostile(key0), hostile(key1))
        })
        .unzip();
    let host = HostBackend::with_host_threads(DeviceSpec::v100(), 2);
    let shares = |keys: &[DpfKey]| {
        BatchEvalJob::new(&prg, PrfKind::Aes128, keys, table.matrix())
            .run_on(&host)
            .results
    };
    let walk = |key: &DpfKey| NaiveQuery {
        share: (0..table.entries())
            .map(|row| eval_point(&prg, key, row))
            .collect(),
    };
    let (shares0, shares1) = (shares(&keys0), shares(&keys1));
    for (i, (share0, share1)) in shares0.iter().zip(&shares1).enumerate() {
        let (answer0, answer1) = (
            naive.answer(&walk(&keys0[i])),
            naive.answer(&walk(&keys1[i])),
        );
        let want = naive.reconstruct(&answer0, &answer1);
        let got = table.lanes_to_entry_bytes(&reconstruct_lanes(&share0.0, &share1.0));
        assert_eq!(got, want, "key pair {i}");
    }
}
