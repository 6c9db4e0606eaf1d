//! CI bench-regression gate.
//!
//! Compares a `BENCH_ci.json` produced by a quick-mode bench run (the
//! criterion shim's `BENCH_JSON` output: one JSON object per line) against
//! the checked-in baseline, and exits non-zero if any *gated* benchmark —
//! every entry named in the baseline file — regressed beyond the allowed
//! factor.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [factor]
//! ```
//!
//! The factor defaults to 2.0 (a >2x regression fails the build) and can
//! also be set via `BENCH_GATE_FACTOR`. The deliberately loose default
//! absorbs runner-speed variance between the machine that recorded the
//! baseline and the CI host; the gate exists to catch order-of-magnitude
//! regressions (an accidental O(n²), a lost inline, a debug assert in the
//! hot loop), not 10% drift.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed result line.
#[derive(Clone, Copy, Debug)]
struct Sample {
    ns_per_iter: f64,
}

/// Parse the shim's JSON-lines format with a purpose-built scanner (the
/// workspace has no JSON dependency; the format is machine-generated and
/// stable).
fn parse_lines(text: &str) -> BTreeMap<String, Sample> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(name) = extract_string(line, "\"name\":\"") else {
            continue;
        };
        let Some(ns_per_iter) = extract_number(line, "\"ns_per_iter\":") else {
            continue;
        };
        // Last write wins: re-runs append, and the freshest number is the
        // one that reflects the checked-out code.
        samples.insert(name, Sample { ns_per_iter });
    }
    samples
}

fn extract_string(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            _ => out.push(c),
        }
    }
    None
}

fn extract_number(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Escape a benchmark name for the quotes of a JSON string: `"`, `\` and
/// control characters (as `\u00XX`).
fn json_escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One machine-readable line summarizing observed-vs-baseline factors, so CI
/// logs (and anything scraping them) get the whole gate verdict without
/// parsing the human-oriented table. Missing benchmarks report `null`.
fn summary_line(factor: f64, ratios: &BTreeMap<String, Option<f64>>, failed: bool) -> String {
    let mut line = format!(
        "{{\"gate\":\"bench\",\"allowed_factor\":{factor:.2},\"status\":\"{}\",\"factors\":{{",
        if failed { "fail" } else { "ok" }
    );
    for (index, (name, ratio)) in ratios.iter().enumerate() {
        if index > 0 {
            line.push(',');
        }
        match ratio {
            Some(ratio) => line.push_str(&format!("\"{}\":{ratio:.3}", json_escape(name))),
            None => line.push_str(&format!("\"{}\":null", json_escape(name))),
        }
    }
    line.push_str("}}");
    line
}

fn human(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path) = match args.as_slice() {
        [b, c] | [b, c, _] => (b.clone(), c.clone()),
        _ => {
            eprintln!("usage: bench_gate <baseline.json> <current.json> [factor]");
            return ExitCode::from(2);
        }
    };
    // An explicitly supplied factor that does not parse must be a usage
    // error, not a silent fall-back to the default: a maintainer who
    // tightened the gate has to find out when it did not take effect.
    let parse_factor = |raw: &str, origin: &str| -> Option<f64> {
        match raw.parse::<f64>() {
            Ok(factor) if factor > 0.0 => Some(factor),
            _ => {
                eprintln!("bench_gate: invalid regression factor '{raw}' (from {origin})");
                eprintln!("usage: bench_gate <baseline.json> <current.json> [factor]");
                None
            }
        }
    };
    let factor: f64 = match (args.get(2), std::env::var("BENCH_GATE_FACTOR").ok()) {
        (Some(raw), _) => match parse_factor(raw, "argument") {
            Some(factor) => factor,
            None => return ExitCode::from(2),
        },
        (None, Some(raw)) => match parse_factor(&raw, "BENCH_GATE_FACTOR") {
            Some(factor) => factor,
            None => return ExitCode::from(2),
        },
        (None, None) => 2.0,
    };

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(err) => {
            eprintln!("bench_gate: cannot read {path}: {err}");
            None
        }
    };
    let Some(baseline_text) = read(&baseline_path) else {
        return ExitCode::from(2);
    };
    let Some(current_text) = read(&current_path) else {
        return ExitCode::from(2);
    };
    let baseline = parse_lines(&baseline_text);
    let current = parse_lines(&current_text);
    if baseline.is_empty() {
        eprintln!("bench_gate: baseline {baseline_path} contains no gated benchmarks");
        return ExitCode::from(2);
    }

    let mut failed = false;
    let mut ratios: BTreeMap<String, Option<f64>> = BTreeMap::new();
    println!("bench_gate: allowed regression factor {factor:.2}x");
    for (name, base) in &baseline {
        match current.get(name) {
            None => {
                // A gated benchmark that no longer reports is itself a
                // regression (renamed or silently dropped).
                println!("  MISSING  {name} (baseline {})", human(base.ns_per_iter));
                ratios.insert(name.clone(), None);
                failed = true;
            }
            Some(sample) => {
                let ratio = sample.ns_per_iter / base.ns_per_iter.max(1e-9);
                let verdict = if ratio > factor { "FAIL" } else { "ok" };
                println!(
                    "  {verdict:<8} {name}: {} vs baseline {} ({ratio:.2}x)",
                    human(sample.ns_per_iter),
                    human(base.ns_per_iter),
                );
                ratios.insert(name.clone(), Some(ratio));
                if ratio > factor {
                    failed = true;
                }
            }
        }
    }
    println!("{}", summary_line(factor, &ratios, failed));
    if failed {
        eprintln!("bench_gate: regression gate FAILED");
        return ExitCode::FAILURE;
    }
    println!("bench_gate: all gated benchmarks within {factor:.2}x of baseline");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_output_lines() {
        let text = "\n{\"name\":\"wire_overhead/encode_query_frame\",\"ns_per_iter\":612.5,\"iters\":20}\n\
                    {\"name\":\"wire_overhead/decode_query_frame\",\"ns_per_iter\":201.0,\"iters\":20}\n\
                    {\"name\":\"wire_overhead/decode_query_frame\",\"ns_per_iter\":199.0,\"iters\":20}\n";
        let samples = parse_lines(text);
        assert_eq!(samples.len(), 2);
        assert!((samples["wire_overhead/encode_query_frame"].ns_per_iter - 612.5).abs() < 1e-9);
        // Last write wins on re-runs.
        assert!((samples["wire_overhead/decode_query_frame"].ns_per_iter - 199.0).abs() < 1e-9);
    }

    #[test]
    fn escaped_names_and_garbage_lines_are_handled() {
        let text =
            "{\"name\":\"group\\\\x/\\\"odd\\\"\",\"ns_per_iter\":5,\"iters\":1}\nnot json\n{}";
        let samples = parse_lines(text);
        assert_eq!(samples.len(), 1);
        assert!(samples.contains_key("group\\x/\"odd\""));
    }

    #[test]
    fn names_are_escaped_for_json() {
        assert_eq!(json_escape("a\"b\\c/d"), "a\\\"b\\\\c/d");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn summary_line_is_one_json_object_with_per_bench_factors() {
        let mut ratios = BTreeMap::new();
        ratios.insert("trace_gen/2s_600rps".to_string(), Some(0.8130));
        ratios.insert("gone/bench".to_string(), None);
        ratios.insert("odd\"name".to_string(), Some(2.5));
        let line = summary_line(2.0, &ratios, true);
        assert!(!line.contains('\n'), "summary must stay one line");
        assert!(line.starts_with("{\"gate\":\"bench\""));
        assert!(line.contains("\"allowed_factor\":2.00"));
        assert!(line.contains("\"status\":\"fail\""));
        assert!(line.contains("\"trace_gen/2s_600rps\":0.813"));
        assert!(line.contains("\"gone/bench\":null"));
        assert!(line.contains("\"odd\\\"name\":2.500"));
        // Balanced braces: the factors object closes and so does the root.
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        let ok = summary_line(2.0, &BTreeMap::new(), false);
        assert!(ok.contains("\"status\":\"ok\""));
        assert!(ok.ends_with("\"factors\":{}}"));
    }
}
