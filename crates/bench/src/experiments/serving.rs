//! Serving-layer experiment: dynamic-batching throughput under concurrency.
//!
//! Not a paper figure — this experiment characterizes the `pir-serve`
//! runtime the workspace adds on top of the paper's stack. It sweeps the
//! number of concurrent clients against one hosted table and reports how
//! batch occupancy (queries coalesced per device launch, the §3.2.1 lever)
//! and latency quantiles respond. Formation is work-conserving — the
//! in-flight launch is the batching window — so occupancy should rise with
//! offered concurrency while a lone client's queue wait stays near zero.

use std::time::Duration;

use pir_prf::PrfKind;
use pir_protocol::PirTable;
use pir_serve::{PirServeRuntime, ServeConfig, TableConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{fmt_f64, Table};

/// Batching behaviour of the serving runtime vs offered concurrency.
#[must_use]
pub fn serving_throughput() -> Table {
    let mut table = Table::new(
        "Serving: dynamic batch occupancy vs concurrent clients (2^12 x 32 B table)",
        &[
            "clients",
            "queries",
            "batches",
            "occupancy",
            "max batch",
            "queue p50 (ms)",
            "e2e p50 (ms)",
            "e2e p99 (ms)",
        ],
    );

    for &clients in &[1usize, 4, 16, 32] {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .seed(31 + clients as u64)
                .build()
                .expect("valid config"),
        );
        let entries = 1u64 << 12;
        let pir_table = PirTable::generate(entries, 32, |row, offset| {
            (row as u8).wrapping_add(offset as u8)
        });
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(64)
            .max_wait(Duration::from_millis(2))
            .build()
            .expect("valid table config");
        runtime
            .register_table("t", pir_table, config)
            .expect("register");

        let per_client = 12usize;
        let mut joins = Vec::new();
        for client in 0..clients {
            let handle = runtime.handle();
            joins.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + client as u64);
                for _ in 0..per_client {
                    let index = rng.gen_range(0..entries);
                    handle
                        .query("t", &format!("tenant-{client}"), index)
                        .expect("admitted")
                        .wait()
                        .expect("answered");
                }
            }));
        }
        for join in joins {
            join.join().expect("client thread");
        }

        let stats = runtime.stats();
        let snapshot = stats.table("t").expect("stats");
        table.push_row(vec![
            clients.to_string(),
            snapshot.answered.to_string(),
            snapshot.batches.to_string(),
            fmt_f64(snapshot.batch_occupancy()),
            snapshot.max_batch.to_string(),
            fmt_f64(snapshot.queue_p50_ms.unwrap_or(0.0)),
            fmt_f64(snapshot.e2e_p50_ms.unwrap_or(0.0)),
            fmt_f64(snapshot.e2e_p99_ms.unwrap_or(0.0)),
        ]);
        runtime.shutdown();
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_experiment_reports_every_concurrency_level() {
        let table = serving_throughput();
        assert_eq!(table.rows.len(), 4);
        // Every client answered all its queries at every level.
        for row in &table.rows {
            let clients: usize = row[0].parse().unwrap();
            let queries: usize = row[1].parse().unwrap();
            assert_eq!(queries, clients * 12);
        }
    }
}
