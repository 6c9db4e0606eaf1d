//! Serving demo: thousands of concurrent private lookups through the
//! `pir-serve` runtime.
//!
//! ```text
//! cargo run --example serving --release
//! ```
//!
//! Spawns client threads hammering three hosted tables (one sharded across
//! four simulated devices) from several tenants, then prints the runtime's
//! telemetry. The point to look at is **batch occupancy**: none of these
//! clients coordinate, yet the dynamic batch former coalesces their
//! concurrent queries into multi-query device batches (§3.2.1/§3.2.5) — and
//! every row still reconstructs exactly.

use std::time::{Duration, Instant};

use gpu_pir_repro::pir_prf::PrfKind;
use gpu_pir_repro::pir_protocol::PirTable;
use gpu_pir_repro::pir_serve::{PirServeRuntime, ServeConfig, ServeError, TableConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(row: u64, offset: usize) -> u8 {
    (row as u8).wrapping_mul(37).wrapping_add(offset as u8)
}

fn main() {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .queue_capacity(8192)
            .per_tenant_quota(512)
            .seed(2024)
            .build()
            .expect("valid serve config"),
    );

    // Three tables with different shapes and policies; "items" is large
    // enough to be sharded across 4 simulated devices.
    let tables: &[(&str, u64, usize, usize)] = &[
        ("users", 1 << 11, 16, 1),
        ("items", 1 << 13, 32, 4),
        ("ads", 1 << 9, 8, 1),
    ];
    for &(name, entries, entry_bytes, shards) in tables {
        let table = PirTable::generate(entries, entry_bytes, fill);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::Chacha20)
            .shards(shards)
            .max_batch(64)
            .max_wait(Duration::from_millis(3))
            .build()
            .expect("valid table config");
        runtime
            .register_table(name, table, config)
            .expect("register table");
        println!("registered '{name}': {entries} x {entry_bytes} B, {shards} shard(s)");
    }

    // 16 client threads x 72 queries = 1,152 concurrent private lookups.
    let client_threads = 16;
    let queries_per_thread = 72;
    let started = Instant::now();
    let mut joins = Vec::new();
    for client in 0..client_threads {
        let handle = runtime.handle();
        joins.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(7_000 + client as u64);
            let tenant = format!("tenant-{}", client % 5);
            let mut verified = 0usize;
            let mut shed = 0usize;
            for _ in 0..queries_per_thread {
                let (name, entries, entry_bytes): (&str, u64, usize) = match rng.gen_range(0..3u32)
                {
                    0 => ("users", 1 << 11, 16),
                    1 => ("items", 1 << 13, 32),
                    _ => ("ads", 1 << 9, 8),
                };
                let index = rng.gen_range(0..entries);
                // Back off briefly when shed; admission errors are signals,
                // not failures.
                let pending = loop {
                    match handle.query(name, &tenant, index) {
                        Ok(pending) => break pending,
                        Err(err) if err.is_shed() => {
                            shed += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(err) => panic!("unexpected serve error: {err}"),
                    }
                };
                let row = pending.wait().expect("query answered");
                let expected: Vec<u8> = (0..entry_bytes).map(|o| fill(index, o)).collect();
                assert_eq!(row, expected, "row {index} of '{name}' reconstructs");
                verified += 1;
            }
            (verified, shed)
        }));
    }

    let mut verified = 0usize;
    let mut shed_retries = 0usize;
    for join in joins {
        let (v, s) = join.join().expect("client thread");
        verified += v;
        shed_retries += s;
    }
    let elapsed = started.elapsed();

    // Demonstrate backpressure explicitly: a runaway tenant with the default
    // quota eventually sheds instead of wedging the runtime.
    let greedy = runtime.handle();
    let mut held = Vec::new();
    let quota_shed = loop {
        match greedy.query("users", "runaway", 1) {
            Ok(pending) => held.push(pending),
            Err(err @ ServeError::QuotaExceeded { .. }) => break err,
            Err(err) => panic!("expected quota shed, got {err}"),
        }
    };
    println!(
        "\nbackpressure: runaway tenant shed after {} in-flight ({quota_shed})",
        held.len()
    );
    drop(held);

    let stats = runtime.stats();
    println!(
        "\nanswered {} queries from {} clients in {:.2?} (host wall clock; device time is simulated)",
        stats.answered(),
        client_threads,
        elapsed
    );
    println!("{shed_retries} submissions were shed and retried");
    println!(
        "\n{:<8} {:>9} {:>7} {:>9} {:>11} {:>10} {:>10} {:>10} {:>8}",
        "table",
        "answered",
        "shed",
        "batches",
        "occupancy",
        "max batch",
        "p50 (ms)",
        "p99 (ms)",
        "backend"
    );
    for table in &stats.tables {
        println!(
            "{:<8} {:>9} {:>7} {:>9} {:>11.2} {:>10} {:>10.2} {:>10.2} {:>8}",
            table.table,
            table.answered,
            table.shed,
            table.batches,
            table.batch_occupancy(),
            table.max_batch,
            table.e2e_p50_ms.unwrap_or(f64::NAN),
            table.e2e_p99_ms.unwrap_or(f64::NAN),
            table.prf_backend,
        );
    }

    assert!(
        verified >= 1_000,
        "ran {verified} queries, expected >= 1000"
    );
    assert!(
        stats.batch_occupancy() > 1.0,
        "dynamic batching must coalesce concurrent queries (occupancy {:.2})",
        stats.batch_occupancy()
    );
    println!(
        "\nall {} rows reconstructed correctly; overall batch occupancy {:.2} queries/launch",
        verified,
        stats.batch_occupancy()
    );

    runtime.shutdown();
}
