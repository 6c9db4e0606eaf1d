//! End-to-end application experiments: Figure 11, Figure 12 and Table 3.

use pir_core::{Application, CodesignOptimizer, LatencyModel, OperatingPoint, QualityTarget};
use pir_ml::datasets::DatasetScale;
use pir_prf::PrfKind;
use pir_protocol::{Budget, CodesignSpace};

use crate::report::{fmt_f64, Table};

/// Number of synthetic inferences used to fit/evaluate the applications.
const INFERENCES: usize = 80;
/// Seed shared by all end-to-end experiments (deterministic output).
const SEED: u64 = 2024;

fn applications() -> Vec<Application> {
    Application::paper_suite(DatasetScale::Small, INFERENCES, SEED)
}

fn optimizer() -> CodesignOptimizer {
    // A moderately sized grid keeps the repro binary fast while still giving
    // the co-design room to win.
    CodesignOptimizer::new(Budget::paper_default()).with_space(CodesignSpace {
        colocation_degrees: vec![0, 1, 2, 4],
        hot_fractions: vec![0.0, 0.1, 0.2],
        q_hot_options: vec![4, 8],
        bin_sizes: vec![64, 256, 1024],
        q_full_options: vec![1, 2, 4],
    })
}

/// Figure 11: normalized throughput of every system variant per application.
#[must_use]
pub fn figure11() -> Vec<Table> {
    let optimizer = optimizer();
    let mut tables = Vec::new();
    for target in QualityTarget::ALL {
        let mut table = Table::new(
            format!(
                "Figure 11 ({}): throughput normalized to the CPU baseline",
                target.label()
            ),
            &["application", "system", "QPS", "normalized"],
        );
        for app in &applications() {
            let row = optimizer.figure11_row(app, target);
            let baseline_qps = row.first().map_or(1.0, |p| p.qps.max(1e-9));
            for point in &row {
                table.push_row(vec![
                    app.kind().name().to_string(),
                    point.system.clone(),
                    fmt_f64(point.qps),
                    fmt_f64(point.qps / baseline_qps),
                ]);
            }
        }
        tables.push(table);
    }
    tables
}

/// Figure 12: end-to-end latency breakdown per application.
#[must_use]
pub fn figure12() -> Table {
    let mut table = Table::new(
        "Figure 12: end-to-end latency breakdown (ms)",
        &[
            "application",
            "gen",
            "network",
            "pir",
            "on-device DNN",
            "total",
        ],
    );
    let optimizer = optimizer();
    let latency = LatencyModel::paper_default();
    for app in &applications() {
        let Some(point) = optimizer.gpu_codesign(app, PrfKind::Chacha20, QualityTarget::Relaxed)
        else {
            continue;
        };
        let queries =
            point.point.params.q_hot as u64 + app.avg_queries_per_inference().ceil() as u64;
        let domain_bits = 64 - (app.schema().entries.max(2) - 1).leading_zeros();
        let upload = (point.point.communication_bytes_per_inference / 4.0) as u64;
        let download = (point.point.communication_bytes_per_inference / 4.0) as u64;
        // Server-side PIR latency: one inference's share of a batched launch.
        let pir_ms = point.latency_ms / point.point.prf_calls_per_inference.max(1.0)
            * point.point.prf_calls_per_inference;
        let breakdown = latency.breakdown(
            queries,
            domain_bits,
            PrfKind::Chacha20,
            upload,
            download,
            pir_ms.min(point.latency_ms),
            500_000,
        );
        table.push_row(vec![
            app.kind().name().to_string(),
            fmt_f64(breakdown.gen_ms),
            fmt_f64(breakdown.network_ms),
            fmt_f64(breakdown.pir_ms),
            fmt_f64(breakdown.dnn_ms),
            fmt_f64(breakdown.total_ms()),
        ]);
    }
    table
}

/// Table 3: unnormalized QPS for the CPU baseline and the best proposed system.
#[must_use]
pub fn table3() -> Table {
    let mut table = Table::new(
        "Table 3: unnormalized QPS (CPU baseline vs best proposed system)",
        &["application", "CPU", "Ours (Acc-eco)", "Ours (Acc-relaxed)"],
    );
    let optimizer = optimizer();
    for app in &applications() {
        let cpu = optimizer
            .cpu_baseline(app, QualityTarget::Eco)
            .map_or(0.0, |p| p.qps);
        let eco: Option<OperatingPoint> =
            optimizer.gpu_codesign(app, PrfKind::Chacha20, QualityTarget::Eco);
        let relaxed = optimizer.gpu_codesign(app, PrfKind::Chacha20, QualityTarget::Relaxed);
        table.push_row(vec![
            app.kind().name().to_string(),
            fmt_f64(cpu),
            fmt_f64(eco.map_or(0.0, |p| p.qps)),
            fmt_f64(relaxed.map_or(0.0, |p| p.qps)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use crate::experiments::{by_name, cell};

    #[test]
    fn figure11_improvements_match_the_papers_direction() {
        let tables = by_name("fig11");
        assert_eq!(tables.len(), 2);
        // Every normalized GPU entry must be > 1 (faster than the CPU baseline).
        for table in &tables {
            for row in &table.rows {
                if row[1].contains("GPU") {
                    assert!(cell(row, 3) > 1.0, "{row:?}");
                }
            }
        }
    }

    #[test]
    fn figure12_latency_stays_within_sla() {
        let table = &by_name("fig12")[0];
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            let total = cell(row, 5);
            assert!(
                total < 500.0,
                "end-to-end latency {total} ms exceeds the ~500 ms SLA"
            );
        }
    }

    #[test]
    fn table3_relaxed_is_at_least_eco() {
        for row in &by_name("table3")[0].rows {
            let (cpu, eco, relaxed) = (cell(row, 1), cell(row, 2), cell(row, 3));
            assert!(relaxed >= eco);
            assert!(eco > cpu);
        }
    }
}
