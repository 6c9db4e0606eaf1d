//! The co-design optimizer: choosing an operating point per application.
//!
//! For every application the paper reports (Figure 11, Table 3) the best
//! throughput achievable by four systems — the CPU baseline, the GPU system,
//! the GPU system with ML co-design, and the latter with ChaCha20 — under two
//! quality targets: **Acc-eco** (no quality loss at all) and **Acc-relaxed**
//! (at most 0.5 % / 5 % degradation). This module reproduces that selection
//! loop: sweep the co-design space on training data, keep the configurations
//! whose predicted quality and communication fit, and pick the one whose
//! modelled throughput is highest within the latency budget.

use pir_prf::PrfKind;
use serde::{Deserialize, Serialize};

use crate::application::Application;
use crate::budget::Budget;
use crate::codesign::{CodesignParams, CodesignPoint, CodesignSearch, CodesignSpace};
use crate::throughput::{CpuBaselineModel, GpuThroughputModel, ThroughputPoint};

/// Which quality bar an operating point must clear.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityTarget {
    /// Full baseline quality (the paper's "Acc-eco").
    Eco,
    /// Bounded degradation: 0.5 % for recommendation, 5 % for the language
    /// model (the paper's "Acc-relaxed").
    Relaxed,
}

impl QualityTarget {
    /// Both targets, in the order the paper reports them.
    pub const ALL: [QualityTarget; 2] = [QualityTarget::Eco, QualityTarget::Relaxed];

    /// Label used in reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            QualityTarget::Eco => "Acc-eco",
            QualityTarget::Relaxed => "Acc-relaxed",
        }
    }
}

/// A fully resolved operating point for one system variant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Human-readable system label (e.g. `"GPU + Co-design (Ours)"`).
    pub system: String,
    /// Quality target the point satisfies.
    pub target: QualityTarget,
    /// The chosen co-design configuration and its analytic costs.
    pub point: CodesignPoint,
    /// Modelled server throughput (inferences per second).
    pub qps: f64,
    /// Batched server latency at that throughput, in milliseconds.
    pub latency_ms: f64,
    /// Predicted model quality at the configuration's drop rate.
    pub quality: f64,
}

/// The optimizer: budget, device and the candidate configuration grid.
#[derive(Clone, Debug)]
pub struct CodesignOptimizer {
    budget: Budget,
    space: CodesignSpace,
}

impl CodesignOptimizer {
    /// Create an optimizer with the paper's default budget and grid.
    #[must_use]
    pub fn new(budget: Budget) -> Self {
        Self {
            budget,
            space: CodesignSpace::default_grid(),
        }
    }

    /// Override the configuration grid.
    #[must_use]
    pub fn with_space(mut self, space: CodesignSpace) -> Self {
        self.space = space;
        self
    }

    fn quality_of(&self, app: &Application, point: &CodesignPoint) -> f64 {
        app.quality().quality_at(point.drop_rate.clamp(0.0, 1.0))
    }

    fn meets_target(
        &self,
        app: &Application,
        point: &CodesignPoint,
        target: QualityTarget,
    ) -> bool {
        let quality = self.quality_of(app, point);
        match target {
            QualityTarget::Eco => {
                app.quality()
                    .metric
                    .relative_degradation(quality, app.quality().baseline)
                    <= 1e-4
            }
            QualityTarget::Relaxed => {
                app.quality()
                    .metric
                    .relative_degradation(quality, app.quality().baseline)
                    <= app.relaxed_tolerance()
            }
        }
    }

    /// The baseline configurations available without any co-design: `q_full`
    /// independent full-table queries, `q` swept from one up to the largest
    /// per-inference demand observed in training (the value needed for a
    /// zero-drop, Acc-eco deployment).
    fn baseline_candidates(&self, app: &Application) -> Vec<CodesignParams> {
        let max_q = app
            .train_workload()
            .sessions
            .iter()
            .map(|session| {
                session
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len()
            })
            .max()
            .unwrap_or(1)
            .max(1);
        (1..=max_q).map(CodesignParams::plain).collect()
    }

    fn best_gpu_point(
        &self,
        app: &Application,
        prf: PrfKind,
        candidates: &[CodesignPoint],
        target: QualityTarget,
        system: &str,
    ) -> Option<OperatingPoint> {
        let model = GpuThroughputModel::v100(prf);
        let mut best: Option<(ThroughputPoint, CodesignPoint)> = None;
        for point in candidates {
            if !self.meets_target(app, point, target) {
                continue;
            }
            if point.communication_bytes_per_inference > self.budget.max_communication_bytes as f64
            {
                continue;
            }
            let throughput = model.best_for_point(point, app.schema().entry_bytes, &self.budget);
            if throughput.qps <= 0.0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((current, _)) => throughput.qps > current.qps,
            };
            if better {
                best = Some((throughput, *point));
            }
        }
        best.map(|(throughput, point)| OperatingPoint {
            system: system.to_string(),
            target,
            point,
            qps: throughput.qps,
            latency_ms: throughput.latency_ms,
            quality: self.quality_of(app, &point),
        })
    }

    /// The CPU baseline operating point (32-thread Xeon, AES-128, no
    /// co-design).
    #[must_use]
    pub fn cpu_baseline(&self, app: &Application, target: QualityTarget) -> Option<OperatingPoint> {
        let sessions = &app.train_workload().sessions;
        let search = CodesignSearch::new(app.schema(), sessions);
        let model = CpuBaselineModel::xeon(32, PrfKind::Aes128);
        let mut best: Option<OperatingPoint> = None;
        for params in self.baseline_candidates(app) {
            let point = search.evaluate(&params);
            if !self.meets_target(app, &point, target) {
                continue;
            }
            let bytes = point.full_table_rows as f64 * app.schema().entry_bytes as f64;
            let qps = model.qps(point.prf_calls_per_inference, bytes);
            let latency_ms = model.latency_ms(point.prf_calls_per_inference, bytes);
            if best.as_ref().is_none_or(|b| qps > b.qps) {
                best = Some(OperatingPoint {
                    system: "CPU baseline (32 threads)".to_string(),
                    target,
                    point,
                    qps,
                    latency_ms,
                    quality: self.quality_of(app, &point),
                });
            }
        }
        best
    }

    /// The GPU system without ML co-design.
    #[must_use]
    fn gpu_plain(
        &self,
        app: &Application,
        prf: PrfKind,
        target: QualityTarget,
    ) -> Option<OperatingPoint> {
        let sessions = &app.train_workload().sessions;
        let search = CodesignSearch::new(app.schema(), sessions);
        let candidates: Vec<CodesignPoint> = self
            .baseline_candidates(app)
            .iter()
            .map(|p| search.evaluate(p))
            .collect();
        self.best_gpu_point(app, prf, &candidates, target, "GPU (Ours)")
    }

    /// The GPU system with the full ML co-design sweep.
    #[must_use]
    pub fn gpu_codesign(
        &self,
        app: &Application,
        prf: PrfKind,
        target: QualityTarget,
    ) -> Option<OperatingPoint> {
        let sessions = &app.train_workload().sessions;
        let search = CodesignSearch::new(app.schema(), sessions);
        let mut candidates = search.sweep(&self.space);
        // The plain configurations are always available too.
        candidates.extend(
            self.baseline_candidates(app)
                .iter()
                .map(|p| search.evaluate(p)),
        );
        let label = if prf == PrfKind::Chacha20 {
            "GPU + Co-design + Chacha20 (Ours)"
        } else {
            "GPU + Co-design (Ours)"
        };
        self.best_gpu_point(app, prf, &candidates, target, label)
    }

    /// The full Figure 11 / Table 3 row for one application: all four system
    /// variants under one quality target.
    #[must_use]
    pub fn figure11_row(&self, app: &Application, target: QualityTarget) -> Vec<OperatingPoint> {
        let mut row = Vec::new();
        if let Some(point) = self.cpu_baseline(app, target) {
            row.push(point);
        }
        if let Some(point) = self.gpu_plain(app, PrfKind::Aes128, target) {
            row.push(point);
        }
        if let Some(point) = self.gpu_codesign(app, PrfKind::Aes128, target) {
            row.push(point);
        }
        if let Some(point) = self.gpu_codesign(app, PrfKind::Chacha20, target) {
            row.push(point);
        }
        row
    }
}

impl Default for CodesignOptimizer {
    fn default() -> Self {
        Self::new(Budget::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetKind, DatasetScale, SyntheticDataset};

    fn app(kind: DatasetKind) -> Application {
        Application::new(
            SyntheticDataset::generate(kind, DatasetScale::Small, 60, 5),
            9,
        )
    }

    fn small_space() -> CodesignSpace {
        CodesignSpace {
            colocation_degrees: vec![0, 1],
            hot_fractions: vec![0.0, 0.1],
            q_hot_options: vec![4],
            bin_sizes: vec![64, 256],
            q_full_options: vec![1, 2],
        }
    }

    #[test]
    fn gpu_beats_cpu_and_codesign_helps_under_relaxed_quality() {
        let app = app(DatasetKind::MovieLens20M);
        let optimizer = CodesignOptimizer::default().with_space(small_space());

        let cpu = optimizer
            .cpu_baseline(&app, QualityTarget::Relaxed)
            .expect("cpu point exists");
        let gpu = optimizer
            .gpu_plain(&app, PrfKind::Aes128, QualityTarget::Relaxed)
            .expect("gpu point exists");
        let codesign = optimizer
            .gpu_codesign(&app, PrfKind::Chacha20, QualityTarget::Relaxed)
            .expect("codesign point exists");

        assert!(
            gpu.qps > 5.0 * cpu.qps,
            "gpu {} vs cpu {}",
            gpu.qps,
            cpu.qps
        );
        assert!(
            codesign.qps >= gpu.qps,
            "codesign {} should not be worse than plain gpu {}",
            codesign.qps,
            gpu.qps
        );
        // All selected points satisfy the quality constraint.
        for point in [&cpu, &gpu, &codesign] {
            assert!(
                app.quality()
                    .metric
                    .relative_degradation(point.quality, app.quality().baseline)
                    <= app.relaxed_tolerance() + 1e-9
            );
            assert!(point.latency_ms <= optimizer.budget.max_latency_ms);
        }
    }

    #[test]
    fn eco_target_is_at_least_as_strict_as_relaxed() {
        let app = app(DatasetKind::WikiText2);
        let optimizer = CodesignOptimizer::default().with_space(small_space());
        let eco = optimizer.gpu_codesign(&app, PrfKind::Aes128, QualityTarget::Eco);
        let relaxed = optimizer.gpu_codesign(&app, PrfKind::Aes128, QualityTarget::Relaxed);
        if let (Some(eco), Some(relaxed)) = (eco, relaxed) {
            assert!(relaxed.qps >= eco.qps);
        } else {
            panic!("both targets should produce operating points");
        }
    }

    #[test]
    fn figure11_row_contains_all_variants() {
        let app = app(DatasetKind::TaobaoAds);
        let optimizer = CodesignOptimizer::default().with_space(small_space());
        let row = optimizer.figure11_row(&app, QualityTarget::Relaxed);
        assert_eq!(row.len(), 4);
        assert!(row[0].system.contains("CPU"));
        assert!(row[3].system.contains("Chacha20"));
        // Normalized to the CPU baseline, every GPU variant improves.
        for point in &row[1..] {
            assert!(point.qps > row[0].qps);
        }
    }

    #[test]
    fn quality_targets_have_labels() {
        assert_eq!(QualityTarget::Eco.label(), "Acc-eco");
        assert_eq!(QualityTarget::Relaxed.label(), "Acc-relaxed");
    }
}
