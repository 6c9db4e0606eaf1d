//! The algebraic fact a scale-out router tier relies on: the reduction is
//! linear, so per-shard answers computed against masked views of the table
//! sum — lane-wise, wrapping — to exactly the unsharded answer share.
//!
//! `shard_owned_ranges` is the plan under test: for every shard count the
//! split rule admits (non-powers of two and singleton shards included), a
//! shard-owner serving `PirTable::masked` to its ranges contributes an
//! additive partial share, and summing the shards reproduces the
//! single-server share bit-exactly — while each `GpuPirServer` expands only
//! the subtrees that cover its view, so the shards' PRF work also sums to
//! one unsharded evaluation.

use gpu_sim::{BackendKind, DeviceSpec};
use pir_dpf::SchedulerConfig;
use pir_prf::PrfKind;
use pir_protocol::{
    shard_owned_ranges, GpuPirServer, PirClient, PirError, PirResponse, PirServer, PirTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fill(row: u64, offset: usize) -> u8 {
    (row as u8)
        .wrapping_mul(37)
        .wrapping_add(offset as u8)
        .wrapping_add(5)
}

/// A one-device server over `view`; `cooperative` forces the cooperative
/// grid mapping the scheduler otherwise keeps for tables of 2^22 rows.
fn gpu_server(view: PirTable, backend: BackendKind, cooperative: bool) -> GpuPirServer {
    let scheduler = SchedulerConfig {
        cooperative_threshold_bits: if cooperative { 0 } else { 22 },
        ..SchedulerConfig::default()
    };
    GpuPirServer::new(
        view,
        PrfKind::SipHash,
        vec![DeviceSpec::v100()],
        scheduler,
        backend,
    )
    .unwrap()
}

/// The shards' shares for one projection, summed as the router sums them.
fn summed_share(servers: &[GpuPirServer], query: &pir_protocol::ServerQuery) -> Vec<u32> {
    let mut summed: Vec<u32> = Vec::new();
    for server in servers {
        let part = server.answer(query).unwrap().share;
        if summed.is_empty() {
            summed = part;
        } else {
            assert_eq!(part.len(), summed.len());
            for (acc, lane) in summed.iter_mut().zip(part) {
                *acc = acc.wrapping_add(lane);
            }
        }
    }
    summed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn per_shard_answers_sum_to_the_unsharded_answer(
        entries in 2u64..200,
        entry_bytes in 1usize..16,
        shards in 1usize..6,
        host in any::<bool>(),
        cooperative in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Skip pairs the split rule rejects (domain too shallow for that
        // many subtrees) — the plan and the validation share one rule.
        let Ok(ranges) = shard_owned_ranges(entries, shards) else {
            return Ok(());
        };
        let table = PirTable::generate(entries, entry_bytes, fill);
        let (backend, other) = if host {
            (BackendKind::Host, BackendKind::Simulated)
        } else {
            (BackendKind::Simulated, BackendKind::Host)
        };

        // The unsharded reference runs on the other backend and grid
        // mapping, and the row it helps reconstruct is checked against the
        // table itself below.
        let whole_server = gpu_server(table.clone(), other, !cooperative);
        let shard_servers: Vec<GpuPirServer> = ranges
            .iter()
            .map(|owned| gpu_server(table.masked(owned), backend, cooperative))
            .collect();

        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(seed);
        let index = seed % entries;
        let query = client.query(index, &mut rng);

        let mut summed_responses = Vec::new();
        for party in 0..2u8 {
            let projection = query.to_server(party);
            let whole = whole_server.answer(&projection).unwrap();
            // Bit-exact equality, not just "reconstructs": wrapping u32
            // addition is associative and commutative, so the shard
            // decomposition reorders the same sum.
            let summed = summed_share(&shard_servers, &projection);
            prop_assert_eq!(&summed, &whole.share);
            summed_responses.push(PirResponse {
                query_id: query.query_id,
                party,
                share: summed,
            });
        }

        // And the summed pair still reconstructs the true row.
        let row = client
            .reconstruct(&query, &summed_responses[0], &summed_responses[1])
            .unwrap();
        prop_assert_eq!(row, table.entry(index));

        // The shards' work is a partition of the unsharded work, too: what
        // every shard keeps resident sums to the table (a shard whose
        // subtrees are all padding holds its one-row floor).
        let resident: u64 = shard_servers
            .iter()
            .map(|server| server.plan_ledger().resident_bytes)
            .sum();
        let floors = ranges.iter().filter(|owned| owned.is_empty()).count();
        let row_bytes = table.matrix().lanes_per_row() * 4;
        prop_assert_eq!(
            resident,
            (table.matrix().size_bytes() + floors * row_bytes) as u64
        );
    }
}

#[test]
fn an_aligned_shard_evaluates_its_subtree_and_nothing_else() {
    // 2^n rows over 2^s shards: each shard's view is one subtree `s` levels
    // down, reached by `s` single-child steps and then expanded in full —
    // `2^(n−s+1) − 2 + s` PRF blocks per key, against `2^(n+1) − 2` unsharded.
    for (domain_bits, split_bits, per_key) in [
        (14u32, 1u32, 16_383u64), // the benchmark's cluster shape
        (10, 0, 2046),
        (10, 2, 512 - 2 + 2),
        (6, 3, 16 - 2 + 3),
    ] {
        let entries = 1u64 << domain_bits;
        let table = PirTable::generate(entries, 8, fill);
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(u64::from(domain_bits));
        let unsharded = (2u64 << domain_bits) - 2;
        for owned in shard_owned_ranges(entries, 1 << split_bits).unwrap() {
            for cooperative in [false, true] {
                let server = gpu_server(table.masked(&owned), BackendKind::Host, cooperative);
                // Whatever the index and the party.
                for (queries, index) in [(1u64, 0), (2, entries - 1), (3, entries / 3)] {
                    let query = client.query(index, &mut rng);
                    let party = (queries % 2) as u8;
                    server.answer(&query.to_server(party)).unwrap();
                    let calls = server.metrics().prf_calls;
                    let what = format!("2^{domain_bits} rows / 2^{split_bits} shards");
                    if cooperative {
                        // Finer blocks each walk down from the root: more
                        // calls than one block, the same for every key.
                        assert_eq!(calls % queries, 0, "{what}");
                        assert!(calls >= queries * per_key, "{what}");
                        assert!(split_bits == 0 || calls < queries * unsharded, "{what}");
                    } else {
                        assert_eq!(calls, queries * per_key, "{what}");
                    }
                }
            }
        }
        if split_bits == 1 {
            // Two shards sum to exactly one unsharded evaluation.
            assert_eq!(2 * per_key, unsharded);
        }
    }
}

#[test]
fn a_view_aligned_to_nothing_is_covered_exactly() {
    let table = PirTable::generate(10, 5, fill);
    let client = PirClient::new(table.schema(), PrfKind::SipHash);
    let mut rng = StdRng::seed_from_u64(3);
    for backend in [BackendKind::Simulated, BackendKind::Host] {
        for cooperative in [false, true] {
            let whole = gpu_server(table.clone(), backend, cooperative);
            let views = [
                gpu_server(table.masked(&[1..3, 7..10]), backend, cooperative),
                gpu_server(table.masked(&[0..1, 3..7]), backend, cooperative),
            ];
            for index in 0..10 {
                let query = client.query(index, &mut rng).to_server(0);
                assert_eq!(
                    summed_share(&views, &query),
                    whole.answer(&query).unwrap().share,
                    "{backend:?} cooperative={cooperative} index {index}"
                );
            }
            // Five of ten rows each, and no more than that on the device.
            for view in &views {
                assert_eq!(view.plan_ledger().resident_bytes, 5 * 8);
                assert_eq!(view.planned_resident_bytes(1), 5 * 8);
            }
            assert!(views[0].metrics().prf_calls < whole.metrics().prf_calls);
        }
    }
}

#[test]
fn a_write_outside_the_view_is_refused_by_both_servers() {
    let table = PirTable::generate(64, 4, fill);
    let view = table.masked(&shard_owned_ranges(64, 2).unwrap()[1]);
    let servers = [BackendKind::Simulated, BackendKind::Host]
        .map(|backend| gpu_server(view.clone(), backend, false));
    let client = PirClient::new(table.schema(), PrfKind::SipHash);
    let mut rng = StdRng::seed_from_u64(9);
    for server in &servers {
        // Row 5 belongs to shard 0: writing it here would count it twice.
        let query = client.query(5, &mut rng).to_server(0);
        let before = server.answer(&query).unwrap().share;
        assert_eq!(
            server.update_entry(5, &[9; 4]),
            Err(PirError::RowNotOwned { index: 5 })
        );
        assert_eq!(server.answer(&query).unwrap().share, before);
        // Its own rows reload as ever; the other checks still come first.
        server.update_entry(40, &[9; 4]).unwrap();
        assert!(matches!(
            server.update_entry(64, &[9; 4]),
            Err(PirError::IndexOutOfRange { index: 64, .. })
        ));
        assert!(matches!(
            server.update_entry(5, &[9; 3]),
            Err(PirError::SchemaMismatch { .. })
        ));
    }
}

#[test]
fn singleton_table_admits_exactly_one_trivial_shard() {
    // A 1-entry table has a depth-0 tree: one shard, whose masked view is
    // the table itself, served by one root block.
    let table = PirTable::generate(1, 8, fill);
    let ranges = shard_owned_ranges(1, 1).unwrap();
    assert_eq!(ranges, vec![vec![0..1]]);
    assert_eq!(table.masked(&ranges[0]), table);
    assert!(shard_owned_ranges(1, 2).is_err());

    let client = PirClient::new(table.schema(), PrfKind::SipHash);
    let query = client.query(0, &mut StdRng::seed_from_u64(1));
    for cooperative in [false, true] {
        let responses: Vec<PirResponse> = (0..2u8)
            .map(|party| {
                gpu_server(table.masked(&ranges[0]), BackendKind::Host, cooperative)
                    .answer(&query.to_server(party))
                    .unwrap()
            })
            .collect();
        let row = client
            .reconstruct(&query, &responses[0], &responses[1])
            .unwrap();
        assert_eq!(row, table.entry(0));
    }
}

#[test]
fn singleton_shard_masks_nothing() {
    let table = PirTable::generate(77, 5, fill);
    let ranges = shard_owned_ranges(77, 1).unwrap();
    assert_eq!(table.masked(&ranges[0]), table);
}
