//! Metric records, the percentile rule, and the JSON the contract asks for.

use std::fmt::Write as _;

/// How a number was obtained. Modelled (cost-model) values must never share
/// a column with wall-clock ones, so every metric carries its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or process accounting.
    Measured,
    /// An exact counter kept by the program or the benchmark.
    Counted,
    /// Derived from sizes or from other metrics.
    Computed,
    /// Output of the `gpu-sim` cost model.
    Modelled,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Counted => "counted",
            Kind::Computed => "computed",
            Kind::Modelled => "modelled",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

/// An ordered list of metrics; names are unique.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) {
        let name = name.into();
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            kind,
        });
    }

    /// A wall-clock or process-accounting reading.
    pub fn measured(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Kind::Measured);
    }

    /// An exact count of events.
    pub fn counted(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64, "count", Kind::Counted);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// `{"name": {"value": 1.2, "unit": "ms"}, ...}` — the contract's shape.
    pub fn to_json(&self) -> String {
        self.json_with(false)
    }

    /// Same, with the `kind` label added (the report file).
    pub fn to_json_with_kind(&self) -> String {
        self.json_with(true)
    }

    fn json_with(&self, kind: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            );
            if kind {
                let _ = write!(out, ", \"kind\": {}", json_string(m.kind.label()));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile of an ascending slice; `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the benchmark may report, ascending, each with the
/// per-mille of samples lying beyond it (integers keep the rule exact).
const TAIL_CANDIDATES: [(f64, u64); 4] = [(50.0, 500), (90.0, 100), (99.0, 10), (99.9, 1)];

/// The highest candidate percentile with at least ten samples beyond it.
/// Fewer than twenty samples support no percentile at all.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|(_, beyond_permille)| samples as u64 * beyond_permille >= 10_000)
        .map(|(p, _)| *p)
}

/// Percentile `p` if the sample supports it, else the highest percentile it
/// does support (so a short run never reports a tail made of two samples).
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    let cap = highest_supported_percentile(sorted.len()).unwrap_or(50.0);
    percentile(sorted, p.min(cap))
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 90.0), 90.0);
        assert_eq!(percentile(&data, 99.0), 99.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn unsupported_tail_falls_back_to_the_supported_one() {
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples support p90 (20 beyond) but not p99 (2 beyond).
        assert_eq!(supported_percentile(&data, 99.0), percentile(&data, 90.0));
        assert_eq!(supported_percentile(&data, 50.0), percentile(&data, 50.0));
    }

    #[test]
    fn json_is_escaped_and_keyed_by_name() {
        let mut set = MetricSet::default();
        set.push("a.b", 1.5, "ms", Kind::Measured);
        set.push("c", 2.0, "count", Kind::Counted);
        assert_eq!(
            set.to_json(),
            "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \"unit\": \"count\"}}"
        );
        assert!(set.to_json_with_kind().contains("\"kind\": \"counted\""));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
