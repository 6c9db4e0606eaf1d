//! Kernel-level experiments: Figures 3, 6, 8, 9, 13, 14, 15 and Tables 4–5.

use gpu_sim::{DeviceSpec, LaunchConfig, OccupancyEstimate};
use pir_dpf::{DpfParams, EvalStrategy, StrategyProfile};
use pir_prf::{PrfKind, TABLE5};

use crate::budget::Budget;
use crate::latency::LatencyModel;
use crate::report::{fmt_f64, Table};
use crate::throughput::{CpuBaselineModel, GpuThroughputModel};

/// Entry size (bits) used by the application-independent experiments.
const DEFAULT_ENTRY_BITS: u64 = 2048;

fn entry_bytes() -> f64 {
    (DEFAULT_ENTRY_BITS / 8) as f64
}

fn eval_profile(bits: u32) -> (f64, f64) {
    let leaves = 1u64 << bits;
    let prf_calls = 2.0 * (leaves - 1) as f64;
    let bytes = leaves as f64 * entry_bytes();
    (prf_calls, bytes)
}

/// Figure 3: `Gen` vs `Eval` cost across table sizes.
#[must_use]
pub fn figure3() -> Table {
    let mut table = Table::new(
        "Figure 3: Gen vs Eval cost (AES-128)",
        &[
            "table size",
            "Gen PRF calls",
            "Gen ms (client)",
            "Eval PRF calls",
            "Eval ms (GPU)",
        ],
    );
    let latency = LatencyModel::paper_default();
    let gpu = GpuThroughputModel::v100(PrfKind::Aes128);
    for bits in [10u32, 14, 18, 20, 22, 24] {
        let params = DpfParams::for_domain(1 << bits);
        let gen_calls = 4 * u64::from(params.domain_bits);
        let gen_ms = latency.gen_ms(1, params.domain_bits, PrfKind::Aes128);
        let (eval_calls, bytes) = eval_profile(bits);
        let eval = gpu.at_batch(eval_calls, bytes, 1);
        table.push_row(vec![
            format!("2^{bits}"),
            gen_calls.to_string(),
            fmt_f64(gen_ms),
            fmt_f64(eval_calls),
            fmt_f64(eval.latency_ms),
        ]);
    }
    table
}

/// Figure 6: PRF calls and peak scratch memory per parallelization strategy.
#[must_use]
pub fn figure6() -> Table {
    let mut table = Table::new(
        "Figure 6: PRF evaluations and peak memory per strategy (batch=64)",
        &["table size", "strategy", "PRF calls", "peak memory (MB)"],
    );
    let batch = 64;
    for bits in [14u32, 18, 20, 22, 24] {
        for strategy in [
            EvalStrategy::BranchParallel,
            EvalStrategy::LevelByLevel,
            EvalStrategy::MemoryBounded { chunk: 128 },
        ] {
            let profile = StrategyProfile::of(strategy, bits, batch);
            table.push_row(vec![
                format!("2^{bits}"),
                strategy.label().into_owned(),
                fmt_f64(profile.prf_calls as f64),
                fmt_f64(profile.peak_scratch_bytes as f64 / 1e6),
            ]);
        }
    }
    table
}

/// Figure 8: memory usage and utilization of memory-bounded traversal vs `K`.
#[must_use]
pub fn figure8() -> Vec<Table> {
    let mut memory = Table::new(
        "Figure 8a: memory-bounded traversal peak memory vs table size (batch=512)",
        &[
            "table size",
            "K=32 (MB)",
            "K=128 (MB)",
            "K=1024 (MB)",
            "level-by-level (MB)",
        ],
    );
    for bits in [16u32, 20, 24] {
        let row: Vec<String> = std::iter::once(format!("2^{bits}"))
            .chain([32usize, 128, 1024].iter().map(|&k| {
                fmt_f64(
                    StrategyProfile::of(EvalStrategy::MemoryBounded { chunk: k }, bits, 512)
                        .peak_scratch_bytes as f64
                        / 1e6,
                )
            }))
            .chain(std::iter::once(fmt_f64(
                StrategyProfile::of(EvalStrategy::LevelByLevel, bits, 512).peak_scratch_bytes
                    as f64
                    / 1e6,
            )))
            .collect();
        memory.push_row(row);
    }

    let mut utilization = Table::new(
        "Figure 8b: GPU utilization vs K (2^20-entry table, batch=512)",
        &["K", "utilization"],
    );
    let device = DeviceSpec::v100();
    for k in [8u32, 16, 32, 64, 128, 256, 512, 1024] {
        // Each block processes chunks of K leaves with one thread per leaf; K
        // below the warp/occupancy sweet spot leaves lanes idle.
        let threads = k.clamp(32, 1024);
        let occupancy = OccupancyEstimate::estimate(&device, &LaunchConfig::linear(512, threads));
        let chunk_efficiency = (f64::from(k) / 128.0).min(1.0);
        utilization.push_row(vec![
            k.to_string(),
            format!("{:.2}", occupancy.achieved_utilization * chunk_efficiency),
        ]);
    }
    vec![memory, utilization]
}

/// Figure 9: utilization vs table size for a lone query (cooperative groups
/// vs one thread block).
#[must_use]
pub fn figure9() -> Table {
    let device = DeviceSpec::v100();
    let gpu = GpuThroughputModel::v100(PrfKind::Aes128);
    let mut table = Table::new(
        "Figure 9: utilization vs table size (batch=1, cooperative groups vs one block)",
        &["table size", "cooperative groups", "single block"],
    );
    let single_block =
        OccupancyEstimate::estimate(&device, &LaunchConfig::linear(1, 256)).achieved_utilization;
    for bits in [14u32, 18, 20, 22, 24, 26] {
        let (prf_calls, bytes) = eval_profile(bits);
        let coop = gpu.at_batch(prf_calls, bytes, 1);
        table.push_row(vec![
            format!("2^{bits}"),
            format!("{:.2}", coop.utilization),
            format!("{single_block:.3}"),
        ]);
    }
    table
}

/// Figure 13: throughput vs latency for each GPU optimization.
#[must_use]
pub fn figure13() -> Vec<Table> {
    let budget_latency = 1_000.0; // explore the full curve
    let mut tables = Vec::new();
    for bits in [20u32, 24] {
        let mut table = Table::new(
            format!("Figure 13: throughput vs latency, 2^{bits}-entry table (AES-128)"),
            &["strategy", "batch", "latency (ms)", "QPS"],
        );
        let gpu = GpuThroughputModel::v100(PrfKind::Aes128);
        let leaves = 1u64 << bits;
        let (optimal_prf, bytes) = eval_profile(bits);
        let memory_budget = 16u64 * 1024 * 1024 * 1024;
        let table_bytes = (leaves as f64 * entry_bytes()) as u64;

        for batch in [1u64, 8, 64, 512, 4096] {
            // Branch-parallel: log L redundant PRF work, negligible scratch.
            let branch_prf = optimal_prf / 2.0 * f64::from(bits);
            let branch = gpu.at_batch(branch_prf, bytes, batch);
            if branch.latency_ms <= budget_latency {
                table.push_row(vec![
                    "branch-parallel".into(),
                    batch.to_string(),
                    fmt_f64(branch.latency_ms),
                    fmt_f64(branch.qps),
                ]);
            }
            // Level-by-level: optimal work but the batch is capped by memory.
            let max_batch = StrategyProfile::max_batch_within(
                EvalStrategy::LevelByLevel,
                bits,
                entry_bytes() as u64,
                table_bytes,
                memory_budget,
            );
            if batch <= max_batch {
                let level = gpu.at_batch(optimal_prf, bytes, batch);
                if level.latency_ms <= budget_latency {
                    table.push_row(vec![
                        "level-by-level".into(),
                        batch.to_string(),
                        fmt_f64(level.latency_ms),
                        fmt_f64(level.qps),
                    ]);
                }
            }
            // Memory-bounded + fusion: optimal work, effectively unbounded batch.
            let bounded = gpu.at_batch(optimal_prf, bytes, batch);
            if bounded.latency_ms <= budget_latency {
                table.push_row(vec![
                    "mem-bound + fusion".into(),
                    batch.to_string(),
                    fmt_f64(bounded.latency_ms),
                    fmt_f64(bounded.qps),
                ]);
            }
        }
        // Cooperative groups: batch of 1, whole device on one query.
        let coop = gpu.at_batch(optimal_prf, bytes, 1);
        table.push_row(vec![
            "cooperative groups".into(),
            "1".into(),
            fmt_f64(coop.latency_ms),
            fmt_f64(coop.qps),
        ]);
        tables.push(table);
    }
    tables
}

/// Figure 14: impact of entry size with and without operator fusion.
#[must_use]
pub fn figure14() -> Vec<Table> {
    let bits = 20u32;
    let leaves = (1u64 << bits) as f64;
    // ChaCha20 keeps the kernel closer to the memory roofline, which is where
    // entry size and fusion matter (with software AES everything is
    // compute-bound and the curves are flat).
    let gpu = GpuThroughputModel::v100(PrfKind::Chacha20);
    let device = DeviceSpec::v100();
    let prf_calls = 2.0 * (leaves - 1.0);
    let batch = 256u64;

    let mut latency = Table::new(
        "Figure 14a: latency vs entry size (2^20 entries, batch=256, ChaCha20)",
        &["entry bytes", "fused (ms)", "unfused (ms)"],
    );
    let mut throughput = Table::new(
        "Figure 14b: throughput vs entry size (2^20 entries, batch=256, ChaCha20)",
        &["entry bytes", "fused (QPS)", "unfused (QPS)"],
    );
    for entry in [64u64, 128, 256, 512, 1024, 2048, 4096] {
        let fused_bytes = leaves * entry as f64;
        let fused = gpu.at_batch(prf_calls, fused_bytes, batch);
        // Unfused runs a second kernel that writes, then re-reads, the full
        // 16-byte-per-leaf output of every query in the batch — none of that
        // traffic is amortized across the batch — plus a second launch.
        let extra_traffic_s = leaves * 32.0 * batch as f64 / device.bandwidth_bytes_per_second();
        let extra_launch_s = device.launch_overhead_us * 1e-6;
        let unfused_latency_ms = fused.latency_ms + (extra_traffic_s + extra_launch_s) * 1e3;
        let unfused_qps = batch as f64 / (unfused_latency_ms / 1e3);
        latency.push_row(vec![
            entry.to_string(),
            fmt_f64(fused.latency_ms),
            fmt_f64(unfused_latency_ms),
        ]);
        throughput.push_row(vec![
            entry.to_string(),
            fmt_f64(fused.qps),
            fmt_f64(unfused_qps),
        ]);
    }
    vec![latency, throughput]
}

/// Figure 15 / Table 4 shared computation: GPU vs CPU throughput.
fn gpu_vs_cpu_rows(bits_list: &[u32]) -> Vec<(u32, f64, f64, f64, f64, f64, f64)> {
    let budget = Budget {
        max_communication_bytes: u64::MAX,
        max_latency_ms: 10_000.0,
    };
    bits_list
        .iter()
        .map(|&bits| {
            let (prf_calls, bytes) = eval_profile(bits);
            let gpu =
                GpuThroughputModel::v100(PrfKind::Aes128).best_within(prf_calls, bytes, &budget);
            let cpu1 = CpuBaselineModel::xeon(1, PrfKind::Aes128);
            let cpu32 = CpuBaselineModel::xeon(32, PrfKind::Aes128);
            (
                bits,
                gpu.qps,
                gpu.latency_ms,
                cpu1.qps(prf_calls, bytes),
                cpu1.latency_ms(prf_calls, bytes),
                cpu32.qps(prf_calls, bytes),
                cpu32.latency_ms(prf_calls, bytes),
            )
        })
        .collect()
}

/// Figure 15: GPU vs 1-thread and 32-thread CPU throughput across table sizes.
#[must_use]
pub fn figure15() -> Table {
    let mut table = Table::new(
        "Figure 15: GPU vs CPU DPF throughput (AES-128, kq/s)",
        &[
            "table size",
            "GPU kq/s",
            "CPU 1-thread kq/s",
            "CPU 32-thread kq/s",
            "GPU/32-thread",
        ],
    );
    for (bits, gpu_qps, _, cpu1_qps, _, cpu32_qps, _) in gpu_vs_cpu_rows(&[14, 16, 18, 20, 22]) {
        table.push_row(vec![
            format!("2^{bits}"),
            fmt_f64(gpu_qps / 1e3),
            fmt_f64(cpu1_qps / 1e3),
            fmt_f64(cpu32_qps / 1e3),
            fmt_f64(gpu_qps / cpu32_qps),
        ]);
    }
    table
}

/// Table 4: throughput / latency comparison on 16K / 1M / 4M tables.
#[must_use]
pub fn table4() -> Table {
    let mut table = Table::new(
        "Table 4: GPU vs CPU throughput and latency (2048-bit entries, AES-128)",
        &["entries", "key bytes", "strategy", "QPS", "latency (ms)"],
    );
    for (bits, gpu_qps, gpu_lat, cpu1_qps, cpu1_lat, cpu32_qps, cpu32_lat) in
        gpu_vs_cpu_rows(&[14, 20, 22])
    {
        let key_bytes = 33 + 17 * bits as usize;
        let entries = format!("{}", 1u64 << bits);
        table.push_row(vec![
            entries.clone(),
            key_bytes.to_string(),
            "GPU".into(),
            fmt_f64(gpu_qps),
            fmt_f64(gpu_lat),
        ]);
        table.push_row(vec![
            entries.clone(),
            key_bytes.to_string(),
            "CPU 1-thread".into(),
            fmt_f64(cpu1_qps),
            fmt_f64(cpu1_lat),
        ]);
        table.push_row(vec![
            entries,
            key_bytes.to_string(),
            "CPU 32-thread".into(),
            fmt_f64(cpu32_qps),
            fmt_f64(cpu32_lat),
        ]);
    }
    table
}

/// Table 5: PRF comparison on a 2^20-entry table at batch 512.
#[must_use]
pub fn table5() -> Table {
    let mut table = Table::new(
        "Table 5: PRF comparison (2^20 entries, batch=512)",
        &["PRF", "type", "latency (ms)", "QPS"],
    );
    let (prf_calls, bytes) = eval_profile(20);
    for prf in TABLE5 {
        let point = GpuThroughputModel::v100_costing(prf).at_batch(prf_calls, bytes, 512);
        table.push_row(vec![
            prf.name.to_string(),
            prf.security_note.to_string(),
            fmt_f64(point.latency_ms),
            fmt_f64(point.qps),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use crate::experiments::{by_name, cell};

    #[test]
    fn figure3_gen_is_cheap_next_to_eval() {
        for row in &by_name("fig3")[0].rows {
            assert!(cell(row, 1) < cell(row, 3), "Gen PRF calls: {row:?}");
            assert!(cell(row, 2) < cell(row, 4), "Gen ms: {row:?}");
        }
    }

    #[test]
    fn figure6_shows_the_strategy_tradeoff() {
        let table = &by_name("fig6")[0];
        assert_eq!(table.rows.len(), 15);
        // Rows come in (branch-parallel, level-by-level, memory-bounded)
        // triples, one per table size.
        for sizes in table.rows.chunks(3) {
            let [branch, level, bounded] = sizes else {
                unreachable!()
            };
            assert!(cell(branch, 2) > cell(level, 2), "{sizes:?}");
            assert_eq!(cell(bounded, 2), cell(level, 2), "{sizes:?}");
            assert!(cell(level, 3) > cell(branch, 3), "{sizes:?}");
            assert!(cell(level, 3) > cell(bounded, 3), "{sizes:?}");
        }
    }

    #[test]
    fn figure8_memory_bounded_scratch_does_not_grow_with_the_table() {
        let tables = by_name("fig8");
        let rows = &tables[0].rows;
        let (smallest, largest) = (&rows[0], &rows[rows.len() - 1]);
        for k in 1..=3 {
            assert!(cell(largest, k) < 2.0 * cell(smallest, k), "K column {k}");
            for row in rows {
                assert!(cell(row, k) < cell(row, 4), "{row:?}");
            }
        }
        assert!(cell(largest, 4) > 100.0 * cell(smallest, 4));
        // Utilization rises with K until the device is full.
        let utilization: Vec<f64> = tables[1].rows.iter().map(|row| cell(row, 1)).collect();
        assert!(utilization.windows(2).all(|pair| pair[0] <= pair[1]));
        assert!(utilization[utilization.len() - 1] > utilization[0]);
    }

    #[test]
    fn figure9_cooperative_groups_fill_the_device_from_2_18() {
        let table = &by_name("fig9")[0];
        // A lone 2^14 query cannot fill the device; from 2^18 on it does.
        assert!(cell(&table.rows[0], 1) < 0.5, "{:?}", table.rows[0]);
        for row in &table.rows[1..] {
            assert!(cell(row, 1) >= 0.99, "{row:?}");
        }
        for row in &table.rows {
            assert!(cell(row, 2) < cell(row, 1), "{row:?}");
        }
    }

    #[test]
    fn figure13_memory_caps_level_by_level_batches() {
        for table in by_name("fig13") {
            let max_batch = |strategy: &str| {
                table
                    .rows
                    .iter()
                    .filter(|row| row[0] == strategy)
                    .map(|row| cell(row, 1))
                    .fold(0.0, f64::max)
            };
            let (level, bounded) = (max_batch("level-by-level"), max_batch("mem-bound + fusion"));
            assert!(level >= 1.0, "{}", table.title);
            assert!(level < bounded, "{}: {level} vs {bounded}", table.title);
        }
    }

    #[test]
    fn figure14_fusion_always_helps() {
        let tables = by_name("fig14");
        for row in &tables[0].rows {
            assert!(cell(row, 1) < cell(row, 2), "fused latency: {row:?}");
        }
        for row in &tables[1].rows {
            assert!(cell(row, 1) > cell(row, 2), "fused throughput: {row:?}");
        }
    }

    #[test]
    fn figure15_gpu_beats_32_threads_by_more_than_20x() {
        for row in &by_name("fig15")[0].rows {
            assert!(cell(row, 4) > 20.0, "{row:?}");
        }
    }

    #[test]
    fn table4_shape_matches_the_paper() {
        // Rows come in (GPU, CPU 1-thread, CPU 32-thread) triples.
        for sizes in by_name("table4")[0].rows.chunks(3) {
            let [gpu, cpu1, cpu32] = sizes else {
                unreachable!()
            };
            assert!(
                cell(gpu, 3) > 15.0 * cell(cpu32, 3),
                "GPU should beat 32-thread CPU by >15x: {sizes:?}"
            );
            assert!(cell(cpu32, 3) > cell(cpu1, 3), "{sizes:?}");
        }
    }

    #[test]
    fn table5_ordering_matches_the_paper() {
        let qps: Vec<f64> = by_name("table5")[0]
            .rows
            .iter()
            .map(|row| cell(row, 3))
            .collect();
        // Rows in catalogue order: AES, SHA-256, ChaCha20, SipHash,
        // HighwayHash.
        let [aes, sha, chacha, sip, highway] = qps[..] else {
            panic!("Table 5 has five rows, got {}", qps.len());
        };
        assert!(sip > chacha && chacha > highway && highway > aes && aes > sha);
    }
}
