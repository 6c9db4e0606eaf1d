//! Backend-swap acceptance gate: the same skewed workload served once on
//! the simulated (cost-model) backend and once on the measured in-process
//! host backend, with bit-identical reconstructions required.
//!
//! ```text
//! cargo run --example backend_swap --release
//! ```
//!
//! The two backends are one executor that differs only in its clock (cost
//! model vs wall clock): kernels run the same way and transfers are counted
//! the same way — so swapping them must change *nothing* about the
//! answers. This example drives a skewed
//! two-table load (one sharded, one pooled) through both configurations
//! with the same seed, asserts every reconstructed row matches its
//! ground truth *and* its counterpart from the other backend, and prints
//! each runtime's residency ledger: a table that fits its devices should
//! upload each table slice once per replica and avoid every repeat
//! transfer, on both backends alike.

use std::time::Duration;

use gpu_pir_repro::gpu_sim::BackendKind;
use gpu_pir_repro::pir_prf::PrfKind;
use gpu_pir_repro::pir_protocol::PirTable;
use gpu_pir_repro::pir_serve::{PirServeRuntime, ServeConfig, StatsSnapshot, TableConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(row: u64, offset: usize) -> u8 {
    (row as u8).wrapping_mul(29).wrapping_add(offset as u8)
}

/// (name, entries, entry_bytes, shards, replicas, traffic weight of 10).
const TABLES: &[(&str, u64, usize, usize, usize, u32)] =
    &[("hot", 1 << 10, 16, 2, 2, 7), ("cold", 1 << 8, 8, 1, 1, 3)];

/// Run the deterministic skewed load on one backend; returns the rows in
/// submission order plus the final stats snapshot.
fn run_workload(backend: BackendKind) -> (Vec<Vec<u8>>, StatsSnapshot) {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .seed(7_117)
            .build()
            .expect("valid serve config"),
    );
    for &(name, entries, entry_bytes, shards, replicas, _) in TABLES {
        let table = PirTable::generate(entries, entry_bytes, fill);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .shards(shards)
            .replicas(replicas)
            .backend(backend)
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .build()
            .expect("valid table config");
        runtime
            .register_table(name, table, config)
            .expect("register table");
    }

    let handle = runtime.handle();
    let mut rng = StdRng::seed_from_u64(31_337);
    let mut rows = Vec::new();
    for wave in 0..12 {
        // Waves of concurrent queries so the formers actually batch.
        let pending: Vec<_> = (0..16)
            .map(|_| {
                let mut ticket = rng.gen_range(0..10u32);
                let &(name, entries, entry_bytes, ..) = TABLES
                    .iter()
                    .find(|&&(.., weight)| {
                        let hit = ticket < weight;
                        if !hit {
                            ticket -= weight;
                        }
                        hit
                    })
                    .expect("weights sum to 10");
                let index = rng.gen_range(0..entries);
                let query = handle.query(name, "swap", index).expect("query admitted");
                (index, entry_bytes, query)
            })
            .collect();
        for (index, entry_bytes, query) in pending {
            let row = query.wait().expect("query answered");
            let expected: Vec<u8> = (0..entry_bytes).map(|o| fill(index, o)).collect();
            assert_eq!(row, expected, "wave {wave}: row {index} reconstructs");
            rows.push(row);
        }
    }
    let stats = runtime.stats();
    runtime.shutdown();
    (rows, stats)
}

fn report(label: &str, stats: &StatsSnapshot) {
    println!("--- {label}: residency ledger ---");
    for table in &stats.tables {
        let plan = table.plan;
        println!(
            "  {:<5} resident {:>7} B | transfers issued {:>2}, avoided {:>3}",
            table.table, plan.resident_bytes, plan.transfers_issued, plan.transfers_avoided,
        );
        assert!(plan.resident_bytes > 0, "{label}: table stays resident");
        assert!(
            plan.transfers_avoided > 0,
            "{label}: residency must avoid repeat uploads"
        );
    }
    println!(
        "  fleet: {} resident bytes leased now, peak {} B\n",
        stats.resident_bytes_in_use, stats.peak_resident_bytes
    );
    assert_eq!(stats.resident_bytes_in_use, 0, "all leases returned");
    assert!(stats.peak_resident_bytes > 0, "launches leased plan bytes");
}

fn main() {
    println!("backend swap: identical skewed load on simulated and host backends\n");

    let (simulated_rows, simulated_stats) = run_workload(BackendKind::Simulated);
    let (host_rows, host_stats) = run_workload(BackendKind::Host);

    assert_eq!(
        simulated_rows, host_rows,
        "the two backends must reconstruct bit-identical rows"
    );
    println!(
        "{} queries answered per backend, all rows bit-identical across backends\n",
        simulated_rows.len()
    );

    report("simulated backend", &simulated_stats);
    report("host backend", &host_stats);

    println!("backend swap acceptance gate passed");
}
