//! Co-design experiments: Figures 16, 17 and 18–20.

use pir_prf::PrfKind;

use crate::application::Application;
use crate::budget::Budget;
use crate::codesign::{CodesignParams, CodesignPoint, CodesignSearch, CodesignSpace};
use crate::datasets::DatasetScale;
use crate::report::{fmt_f64, Table};
use crate::throughput::GpuThroughputModel;

const INFERENCES: usize = 80;
const SEED: u64 = 2024;

fn applications() -> Vec<Application> {
    Application::paper_suite(DatasetScale::Small, INFERENCES, SEED)
}

fn sweep_space() -> CodesignSpace {
    CodesignSpace {
        colocation_degrees: vec![0, 1, 2, 4],
        hot_fractions: vec![0.0, 0.1, 0.2],
        q_hot_options: vec![4, 8],
        bin_sizes: vec![64, 256, 1024],
        q_full_options: vec![1, 2, 4, 8],
    }
}

/// All candidate points for one app, split into (without co-design, with co-design).
fn candidates(app: &Application) -> (Vec<CodesignPoint>, Vec<CodesignPoint>) {
    let sessions = &app.train_workload().sessions;
    let search = CodesignSearch::new(app.schema(), sessions);
    let without: Vec<CodesignPoint> = [1usize, 2, 4, 8, 16, 24, 32, 48, 64, 96]
        .iter()
        .map(|&q| search.evaluate(&CodesignParams::plain(q)))
        .chain(
            [64u64, 256, 1024]
                .iter()
                .map(|&b| search.evaluate(&CodesignParams::batch_pir(b))),
        )
        .collect();
    let with = search.sweep(&sweep_space());
    (without, with)
}

fn quality_ok(app: &Application, point: &CodesignPoint) -> bool {
    let quality = app.quality().quality_at(point.drop_rate.clamp(0.0, 1.0));
    app.quality()
        .metric
        .relative_degradation(quality, app.quality().baseline)
        <= app.relaxed_tolerance()
}

/// Figure 16: computation and communication needed to reach Acc-relaxed, with
/// and without ML co-design.
#[must_use]
pub fn figure16() -> Vec<Table> {
    let mut computation = Table::new(
        "Figure 16a: computation (PRFs/inference) to reach Acc-relaxed, comm <= 300KB",
        &[
            "application",
            "without co-design",
            "with co-design",
            "improvement",
        ],
    );
    let mut communication = Table::new(
        "Figure 16b: communication (KB/inference) to reach Acc-relaxed, bounded computation",
        &[
            "application",
            "without co-design",
            "with co-design",
            "improvement",
        ],
    );
    let budget = Budget::paper_default();
    for app in &applications() {
        let (without, mut with) = candidates(app);
        // The co-designed system can always fall back to a plain configuration,
        // so its candidate set is a superset of the baseline's (this is also
        // why the paper reports "1x" — no improvement — for cases like
        // MovieLens where plain batch PIR is already optimal).
        with.extend(without.iter().copied());
        let min_compute = |points: &[CodesignPoint]| {
            points
                .iter()
                .filter(|p| quality_ok(app, p))
                .filter(|p| {
                    p.communication_bytes_per_inference <= budget.max_communication_bytes as f64
                })
                .map(|p| p.prf_calls_per_inference)
                .fold(f64::INFINITY, f64::min)
        };
        let compute_budget = 20.0 * min_compute(&with).max(1.0);
        let min_comm = |points: &[CodesignPoint]| {
            points
                .iter()
                .filter(|p| quality_ok(app, p))
                .filter(|p| p.prf_calls_per_inference <= compute_budget)
                .map(|p| p.communication_bytes_per_inference)
                .fold(f64::INFINITY, f64::min)
        };

        let (c_without, c_with) = (min_compute(&without), min_compute(&with));
        computation.push_row(vec![
            app.kind().name().to_string(),
            fmt_f64(c_without),
            fmt_f64(c_with),
            format!("{:.1}x", c_without / c_with.max(1.0)),
        ]);
        let (m_without, m_with) = (min_comm(&without), min_comm(&with));
        communication.push_row(vec![
            app.kind().name().to_string(),
            fmt_f64(m_without / 1e3),
            fmt_f64(m_with / 1e3),
            format!("{:.1}x", m_without / m_with.max(1.0)),
        ]);
    }
    vec![computation, communication]
}

/// Figure 17: computation vs communication pareto frontier at fixed quality.
#[must_use]
pub fn figure17() -> Table {
    let mut table = Table::new(
        "Figure 17: computation vs communication pareto (quality within 2%)",
        &["application", "variant", "PRFs/inference", "KB/inference"],
    );
    for app in &applications() {
        let (without, with) = candidates(app);
        for (label, points) in [("batch-pir", &without), ("with co-design", &with)] {
            let eligible: Vec<CodesignPoint> = points
                .iter()
                .copied()
                .filter(|p| {
                    let quality = app.quality().quality_at(p.drop_rate.clamp(0.0, 1.0));
                    app.quality()
                        .metric
                        .relative_degradation(quality, app.quality().baseline)
                        <= 0.02
                })
                .collect();
            let front = CodesignSearch::pareto_front(&eligible, 1.0);
            for point in front.iter().take(4) {
                table.push_row(vec![
                    app.kind().name().to_string(),
                    label.to_string(),
                    fmt_f64(point.prf_calls_per_inference),
                    fmt_f64(point.communication_bytes_per_inference / 1e3),
                ]);
            }
        }
    }
    table
}

/// Figures 18–20: throughput vs model quality with and without co-design,
/// under the tight and relaxed budgets.
#[must_use]
pub fn figure18_19_20() -> Table {
    let mut table = Table::new(
        "Figures 18-20: throughput vs model quality, with and without co-design",
        &["application", "budget", "variant", "QPS", "quality"],
    );
    for app in &applications() {
        let (without, with) = candidates(app);
        for budget in [Budget::tight(), Budget::relaxed()] {
            for (label, points) in [("batch-pir", &without), ("batch-pir w/ co-design", &with)] {
                // Best throughput at any quality within the budget, and the
                // quality it achieves — one representative point per series.
                let model = GpuThroughputModel::v100(PrfKind::Chacha20);
                let mut best_qps = 0.0f64;
                let mut best_quality = f64::NAN;
                for point in points.iter() {
                    if point.communication_bytes_per_inference
                        > budget.max_communication_bytes as f64
                    {
                        continue;
                    }
                    // Compare at equal model quality (the Acc-relaxed bar), as
                    // the paper's figures fix quality and compare throughput.
                    if !quality_ok(app, point) {
                        continue;
                    }
                    let throughput = model.best_for_point(point, app.schema().entry_bytes, &budget);
                    if throughput.qps > best_qps {
                        best_qps = throughput.qps;
                        best_quality = app.quality().quality_at(point.drop_rate.clamp(0.0, 1.0));
                    }
                }
                if best_qps > 0.0 {
                    table.push_row(vec![
                        app.kind().name().to_string(),
                        budget.label(),
                        label.to_string(),
                        fmt_f64(best_qps),
                        fmt_f64(best_quality),
                    ]);
                }
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use crate::experiments::{by_name, cell};

    #[test]
    fn figure16_codesign_never_hurts() {
        for table in by_name("fig16") {
            for row in &table.rows {
                assert!(
                    cell(row, 2) <= cell(row, 1) * 1.001,
                    "co-design should not need more resources: {row:?}"
                );
            }
        }
    }

    #[test]
    fn figure17_has_points_for_every_app_and_variant() {
        // Every app has both fronts; along each, PRFs/inference strictly rise
        // while KB/inference strictly fall, and co-design's cheapest point
        // needs fewer PRFs than batch PIR's.
        let table = &by_name("fig17")[0];
        let mut apps: Vec<&str> = table.rows.iter().map(|row| row[0].as_str()).collect();
        apps.dedup();
        assert_eq!(apps.len(), 3);
        for app in apps {
            let front = |variant: &str| -> Vec<(f64, f64)> {
                table
                    .rows
                    .iter()
                    .filter(|row| row[0] == app && row[1] == variant)
                    .map(|row| (cell(row, 2), cell(row, 3)))
                    .collect()
            };
            let (batch_pir, codesign) = (front("batch-pir"), front("with co-design"));
            for points in [&batch_pir, &codesign] {
                assert!(!points.is_empty(), "{app}");
                for pair in points.windows(2) {
                    assert!(pair[0].0 < pair[1].0, "{app}: PRFs must rise: {pair:?}");
                    assert!(pair[0].1 > pair[1].1, "{app}: KB must fall: {pair:?}");
                }
            }
            assert!(
                codesign[0].0 < batch_pir[0].0,
                "{app}: co-design's cheapest point {:?} vs batch-PIR's {:?}",
                codesign[0],
                batch_pir[0]
            );
        }
    }

    #[test]
    fn figures18_20_have_both_budgets() {
        let table = &by_name("fig18")[0];
        let tight = table.rows.iter().filter(|r| r[1].contains("100KB")).count();
        let relaxed = table.rows.iter().filter(|r| r[1].contains("300KB")).count();
        assert!(tight >= 3);
        assert!(relaxed >= 3);
    }
}
