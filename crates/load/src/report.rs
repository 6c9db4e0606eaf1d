//! Structured soak reporting.
//!
//! A [`SoakReport`] condenses a replay into the aggregates the CI gate and a
//! human reading `BENCH_soak.json` both need: per-tenant and per-tier
//! latency/outcome summaries, per-phase breakdowns keyed to the flash-crowd
//! window, autoscaler reactions, hot-cache accounting, and the corruption
//! counter that must stay at zero across hot reloads.
//!
//! Serialization is a small hand-rolled JSON writer (the workspace has no
//! serde_json): every emitted value is a number, a string, a bool or a flat
//! array/object of those, so the writer stays trivially correct.

use std::io::Write as _;
use std::path::Path;

use pir_protocol::HotCacheStats;
use pir_serve::LatencyHistogram;

use crate::replay::{OutcomeKind, ReplayResult};
use crate::trace::{Phase, Trace};

/// Outcome counters shared by every aggregation level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests issued.
    pub submitted: u64,
    /// Answered by a real PIR lookup.
    pub answered: u64,
    /// Answered from the client-side cache.
    pub cache_hits: u64,
    /// Shed under backpressure.
    pub shed: u64,
    /// Failed for a non-shed reason.
    pub failed: u64,
}

impl OutcomeCounts {
    fn add(&mut self, outcome: OutcomeKind) {
        self.submitted += 1;
        match outcome {
            OutcomeKind::Answered => self.answered += 1,
            OutcomeKind::CacheHit => self.cache_hits += 1,
            OutcomeKind::Shed => self.shed += 1,
            OutcomeKind::Failed => self.failed += 1,
        }
    }

    /// Fraction of submitted requests that were answered (fresh or cached).
    #[must_use]
    pub fn answer_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.answered + self.cache_hits) as f64 / self.submitted as f64
    }
}

/// Latency quantiles over answered requests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Median, milliseconds.
    pub p50_ms: Option<f64>,
    /// 99th percentile, milliseconds.
    pub p99_ms: Option<f64>,
    /// Mean, milliseconds.
    pub mean_ms: Option<f64>,
}

impl LatencySummary {
    fn from_histogram(histogram: &LatencyHistogram) -> Self {
        let quantiles = histogram.quantiles_ms(&[0.50, 0.99]);
        Self {
            p50_ms: quantiles[0],
            p99_ms: quantiles[1],
            mean_ms: histogram.mean_ms(),
        }
    }
}

/// One tenant's replay summary.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// The SLO tier the tenant was assigned to.
    pub tier: String,
    /// Outcome counters.
    pub counts: OutcomeCounts,
    /// Latency over answered (non-cached) requests.
    pub latency: LatencySummary,
}

/// One SLO tier's replay summary (tenants aggregated).
#[derive(Clone, Debug)]
pub struct TierSummary {
    /// Tier name.
    pub tier: String,
    /// Outcome counters.
    pub counts: OutcomeCounts,
    /// Latency over answered (non-cached) requests.
    pub latency: LatencySummary,
}

/// One (phase, tier) cell of the replay: how a tier fared before, during and
/// after the flash crowd.
#[derive(Clone, Debug)]
pub struct PhaseSummary {
    /// Phase label (`steady`, `flash`, `recovery`).
    pub phase: String,
    /// Tier name.
    pub tier: String,
    /// Outcome counters.
    pub counts: OutcomeCounts,
    /// Latency over answered (non-cached) requests.
    pub latency: LatencySummary,
}

/// Autoscaler reactions observed during the soak, filled by the harness from
/// the runtime's stats snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AutoscaleSummary {
    /// Replica-pool scale-up events.
    pub scale_ups: u64,
    /// Replica-pool scale-down events.
    pub scale_downs: u64,
    /// Active replicas per party when the soak ended.
    pub final_active_replicas: [usize; 2],
}

/// The structured result of one soak run.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Scenario name.
    pub name: String,
    /// Scheduled trace length, seconds.
    pub duration_s: f64,
    /// Wall-clock replay time, seconds.
    pub wall_s: f64,
    /// Total requests replayed.
    pub requests: u64,
    /// Rows that failed ground-truth verification — zero on a correct stack.
    pub corrupt: u64,
    /// Hot reloads applied mid-soak by the harness.
    pub reloads: u64,
    /// Per-tier aggregates, in trace tier order.
    pub tiers: Vec<TierSummary>,
    /// Per-tenant aggregates, in trace tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Per-(phase, tier) aggregates.
    pub phases: Vec<PhaseSummary>,
    /// Autoscaler reactions (harness-filled; zero if not observed).
    pub autoscale: AutoscaleSummary,
    /// Client-side cache accounting (client-local; never on the wire).
    pub cache: HotCacheStats,
}

impl SoakReport {
    /// Aggregate a replay into a report. Autoscale and reload fields start
    /// at zero — the harness fills them from the runtime's stats snapshot.
    #[must_use]
    pub fn build(name: impl Into<String>, trace: &Trace, result: &ReplayResult) -> Self {
        let mut tier_names: Vec<String> = Vec::new();
        for tenant in &trace.tenants {
            if !tier_names.contains(&tenant.tier) {
                tier_names.push(tenant.tier.clone());
            }
        }
        let tier_of = |tenant: usize| -> usize {
            tier_names
                .iter()
                .position(|t| *t == trace.tenants[tenant].tier)
                .unwrap_or(0)
        };

        let mut tenant_counts = vec![OutcomeCounts::default(); trace.tenants.len()];
        let tenant_latency = vec![LatencyHistogram::default(); trace.tenants.len()];
        let mut tier_counts = vec![OutcomeCounts::default(); tier_names.len()];
        let tier_latency = vec![LatencyHistogram::default(); tier_names.len()];
        let phases = [Phase::Steady, Phase::Flash, Phase::Recovery];
        let mut phase_counts = vec![OutcomeCounts::default(); phases.len() * tier_names.len()];
        let phase_latency = vec![LatencyHistogram::default(); phases.len() * tier_names.len()];

        for record in &result.records {
            let tier = tier_of(record.tenant);
            tenant_counts[record.tenant].add(record.outcome);
            tier_counts[tier].add(record.outcome);
            let phase = trace.phase_of(record.at);
            let cell =
                phases.iter().position(|p| *p == phase).unwrap_or(0) * tier_names.len() + tier;
            phase_counts[cell].add(record.outcome);
            if record.outcome == OutcomeKind::Answered {
                let ms = record.latency.as_secs_f64() * 1e3;
                tenant_latency[record.tenant].record_ms(ms);
                tier_latency[tier].record_ms(ms);
                phase_latency[cell].record_ms(ms);
            }
        }

        let tenants = trace
            .tenants
            .iter()
            .enumerate()
            .map(|(slot, spec)| TenantSummary {
                name: spec.name.clone(),
                tier: spec.tier.clone(),
                counts: tenant_counts[slot],
                latency: LatencySummary::from_histogram(&tenant_latency[slot]),
            })
            .collect();
        let tiers = tier_names
            .iter()
            .enumerate()
            .map(|(slot, tier)| TierSummary {
                tier: tier.clone(),
                counts: tier_counts[slot],
                latency: LatencySummary::from_histogram(&tier_latency[slot]),
            })
            .collect();
        let phase_summaries = phases
            .iter()
            .enumerate()
            .flat_map(|(p, phase)| {
                let tier_names = &tier_names;
                let phase_counts = &phase_counts;
                let phase_latency = &phase_latency;
                tier_names.iter().enumerate().filter_map(move |(t, tier)| {
                    let cell = p * tier_names.len() + t;
                    if phase_counts[cell].submitted == 0 {
                        return None;
                    }
                    Some(PhaseSummary {
                        phase: phase.label().to_string(),
                        tier: tier.clone(),
                        counts: phase_counts[cell],
                        latency: LatencySummary::from_histogram(&phase_latency[cell]),
                    })
                })
            })
            .collect();

        Self {
            name: name.into(),
            duration_s: trace.duration.as_secs_f64(),
            wall_s: result.wall.as_secs_f64(),
            requests: result.records.len() as u64,
            corrupt: result.corrupt,
            reloads: 0,
            tiers,
            tenants,
            phases: phase_summaries,
            autoscale: AutoscaleSummary::default(),
            cache: result.cache,
        }
    }

    /// The summary for a named tier, if present.
    #[must_use]
    pub fn tier(&self, tier: &str) -> Option<&TierSummary> {
        self.tiers.iter().find(|t| t.tier == tier)
    }

    /// The (phase, tier) cell, if any request landed in it.
    #[must_use]
    pub fn phase(&self, phase: &str, tier: &str) -> Option<&PhaseSummary> {
        self.phases
            .iter()
            .find(|p| p.phase == phase && p.tier == tier)
    }

    /// Render the report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "name", &self.name);
        push_f64_field(&mut out, "duration_s", Some(self.duration_s));
        push_f64_field(&mut out, "wall_s", Some(self.wall_s));
        push_u64_field(&mut out, "requests", self.requests);
        push_u64_field(&mut out, "corrupt", self.corrupt);
        push_u64_field(&mut out, "reloads", self.reloads);
        out.push_str("\"autoscale\":{");
        push_u64_field(&mut out, "scale_ups", self.autoscale.scale_ups);
        push_u64_field(&mut out, "scale_downs", self.autoscale.scale_downs);
        out.push_str(&format!(
            "\"final_active_replicas\":[{},{}]}},",
            self.autoscale.final_active_replicas[0], self.autoscale.final_active_replicas[1]
        ));
        out.push_str("\"cache\":{");
        push_u64_field(&mut out, "hits", self.cache.hits);
        push_u64_field(&mut out, "misses", self.cache.misses);
        push_f64_field(&mut out, "hit_rate", self.cache.hit_rate());
        push_u64_field(&mut out, "admitted", self.cache.admitted);
        push_u64_field(&mut out, "stale_rejected", self.cache.stale_rejected);
        push_u64_field(&mut out, "invalidations", self.cache.invalidations);
        push_u64_field(&mut out, "evictions", self.cache.evictions);
        trim_comma(&mut out);
        out.push_str("},");
        out.push_str("\"tiers\":[");
        for tier in &self.tiers {
            out.push('{');
            push_str_field(&mut out, "tier", &tier.tier);
            push_counts(&mut out, &tier.counts, &tier.latency);
            trim_comma(&mut out);
            out.push_str("},");
        }
        trim_comma(&mut out);
        out.push_str("],");
        out.push_str("\"tenants\":[");
        for tenant in &self.tenants {
            out.push('{');
            push_str_field(&mut out, "name", &tenant.name);
            push_str_field(&mut out, "tier", &tenant.tier);
            push_counts(&mut out, &tenant.counts, &tenant.latency);
            trim_comma(&mut out);
            out.push_str("},");
        }
        trim_comma(&mut out);
        out.push_str("],");
        out.push_str("\"phases\":[");
        for phase in &self.phases {
            out.push('{');
            push_str_field(&mut out, "phase", &phase.phase);
            push_str_field(&mut out, "tier", &phase.tier);
            push_counts(&mut out, &phase.counts, &phase.latency);
            trim_comma(&mut out);
            out.push_str("},");
        }
        trim_comma(&mut out);
        out.push(']');
        out.push('}');
        out
    }

    /// Write the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.write_all(b"\n")
    }
}

/// Escape `value` for embedding between the quotes of a JSON string: `"`,
/// `\` and control characters (as `\u00XX`). Shared by the workspace's
/// hand-rolled JSON emitters (no JSON dependency is available offline).
#[must_use]
pub fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":\"{}\",", json_escape(value)));
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push_str(&format!("\"{key}\":{value},"));
}

fn push_f64_field(out: &mut String, key: &str, value: Option<f64>) {
    match value {
        Some(v) if v.is_finite() => out.push_str(&format!("\"{key}\":{v:.4},")),
        _ => out.push_str(&format!("\"{key}\":null,")),
    }
}

fn push_counts(out: &mut String, counts: &OutcomeCounts, latency: &LatencySummary) {
    push_u64_field(out, "submitted", counts.submitted);
    push_u64_field(out, "answered", counts.answered);
    push_u64_field(out, "cache_hits", counts.cache_hits);
    push_u64_field(out, "shed", counts.shed);
    push_u64_field(out, "failed", counts.failed);
    push_f64_field(out, "answer_rate", Some(counts.answer_rate()));
    push_f64_field(out, "p50_ms", latency.p50_ms);
    push_f64_field(out, "p99_ms", latency.p99_ms);
    push_f64_field(out, "mean_ms", latency.mean_ms);
}

fn trim_comma(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::RequestRecord;
    use crate::trace::{FlashCrowd, TenantSpec, TraceConfig};
    use std::time::Duration;

    #[test]
    fn json_escaping_covers_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    fn sample_report() -> SoakReport {
        let trace = TraceConfig {
            entries: 64,
            duration: Duration::from_secs(2),
            base_rps: 100.0,
            tick: Duration::from_millis(100),
            flash: Some(FlashCrowd {
                start: Duration::from_millis(500),
                duration: Duration::from_millis(1000),
            }),
            tenants: vec![
                TenantSpec::flashy("interactive", "urgent", 1.0, 4.0),
                TenantSpec::steady("batch", "background", 1.0),
            ],
            seed: 1,
            ..TraceConfig::default()
        }
        .generate()
        .expect("valid trace");
        let records: Vec<RequestRecord> = trace
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| RequestRecord {
                tenant: r.tenant,
                at: r.at,
                latency: Duration::from_micros(500 + (i as u64 % 7) * 100),
                outcome: match i % 5 {
                    0 => OutcomeKind::CacheHit,
                    4 if r.tenant == 1 => OutcomeKind::Shed,
                    _ => OutcomeKind::Answered,
                },
            })
            .collect();
        let result = ReplayResult {
            records,
            cache: HotCacheStats {
                hits: 10,
                misses: 40,
                admitted: 38,
                stale_rejected: 0,
                invalidations: 2,
                evictions: 1,
            },
            corrupt: 0,
            wall: Duration::from_secs(2),
        };
        SoakReport::build("test-soak", &trace, &result)
    }

    #[test]
    fn aggregates_line_up_with_records() {
        let report = sample_report();
        let total: u64 = report.tiers.iter().map(|t| t.counts.submitted).sum();
        assert_eq!(total, report.requests);
        let urgent = report.tier("urgent").expect("urgent tier present");
        assert!(urgent.counts.shed == 0, "only batch tenants shed here");
        let background = report.tier("background").expect("background present");
        assert!(background.counts.shed > 0);
        assert!(report.phase("flash", "urgent").is_some());
        assert!(urgent.latency.p99_ms.is_some());
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_keys() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"name\":\"test-soak\"",
            "\"tiers\":[",
            "\"tenants\":[",
            "\"phases\":[",
            "\"autoscale\":{",
            "\"cache\":{",
            "\"corrupt\":0",
            "\"hit_rate\":0.2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets (no nesting beyond our own writer).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
