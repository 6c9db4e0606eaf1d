//! Runs the benchmark in `--quick` mode, the same code path as a full run,
//! and checks its output against `BENCHMARK.json`: every workload and every
//! metric named there is present, finite and in the stated unit; nothing
//! failed; and the exact-count metrics equal their computed values.

use std::collections::BTreeMap;
use std::process::Command;

// ---------------------------------------------------------------------------
// A JSON reader just big enough for the two documents this test compares.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.space();
        assert_eq!(parser.at, text.len(), "trailing bytes after the JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{key:?} looked up in a non-object: {other:?}"),
        }
    }

    fn has(&self, key: &str) -> bool {
        matches!(self, Json::Obj(map) if map.contains_key(key))
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(text) => text,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(value) => *value,
            other => panic!("expected a number, found {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.space();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.space();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let key = self.string();
                        self.eat(b':');
                        assert!(
                            map.insert(key.clone(), self.value()).is_none(),
                            "duplicate {key}"
                        );
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other, // \" \\ \/ — all this test meets
                    });
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).expect("JSON strings are UTF-8")
    }
}

// ---------------------------------------------------------------------------

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn assert_close(left: f64, right: f64, what: &str) {
    assert!(
        (left - right).abs() <= 1e-9 * right.abs().max(1.0),
        "{what}: {left} != {right}"
    );
}

#[test]
fn quick_run_reports_everything_benchmark_json_names() {
    let spec = benchmark_json();
    let output = Command::new(env!("CARGO_BIN_EXE_pir-benchmark"))
        .args(["--quick", "--seed", "7", "--out"])
        .arg(concat!(env!("CARGO_TARGET_TMPDIR"), "/quick-out"))
        .output()
        .expect("run the benchmark");
    assert!(
        output.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let results = Json::parse(stdout.lines().last().expect("a result line"));
    let results = results.get("workloads");

    for workload in spec.get("workloads").arr() {
        let name = workload.get("name").str();
        let result = results.get(name);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{name}");
        assert_eq!(result.get("failed").num(), 0.0, "{name}");
        assert!(result.get("attempted").num() >= 1.0, "{name}");
        let metrics = result.get("metrics");

        for list in ["end_to_end", "per_layer"] {
            for metric in spec.get(list).arr() {
                let metric_name = metric.get("name").str();
                assert!(metrics.has(metric_name), "{name} lacks {metric_name}");
                let reported = metrics.get(metric_name);
                assert_eq!(
                    reported.get("unit").str(),
                    metric.get("unit").str(),
                    "{name}: unit of {metric_name}"
                );
                let value = reported.get("value").num();
                assert!(value.is_finite(), "{name}: {metric_name} = {value}");
                if list == "end_to_end" {
                    assert!(
                        value > 0.0,
                        "{name}: end-to-end {metric_name} must never be 0"
                    );
                }
            }
        }
        // Nothing is reported that BENCHMARK.json does not name.
        let Json::Obj(reported) = metrics else {
            panic!("metrics is an object")
        };
        let named = spec.get("end_to_end").arr().len() + spec.get("per_layer").arr().len();
        assert_eq!(
            reported.len(),
            named,
            "{name}: metrics BENCHMARK.json does not list"
        );

        let value = |metric: &str| metrics.get(metric).get("value").num();
        assert_eq!(value("load.fail_frac"), 0.0, "{name}");
        // Two connections, one frame each way per lookup, no retries.
        assert_close(
            value("upload_bytes_per_lookup"),
            2.0 * value("wire.query_frame_bytes"),
            &format!("{name}: upload bytes"),
        );
        assert_close(
            value("download_bytes_per_lookup"),
            2.0 * value("wire.response_frame_bytes"),
            &format!("{name}: download bytes"),
        );
        assert_eq!(value("wire.version_retries"), 0.0, "{name}");
        assert_eq!(value("gpu-sim.launches_per_batch.b32"), 1.0, "{name}");
        // One full-domain evaluation per party plus key generation: at
        // least 2 x 2 x (2^16 - 1) PRF calls on the reference shape.
        assert!(value("prf.calls_per_lookup") >= 4.0 * 65_535.0, "{name}");
        let stage_sum = value("bench.stage_sum_frac");
        assert!(
            (0.95..=1.05).contains(&stage_sum),
            "{name}: stage sum {stage_sum}"
        );
        // Only the cluster workload reaches the router tier.
        assert_eq!(
            value("cluster.shard_calls") > 0.0,
            name == "cluster_shards_closed",
            "{name}: cluster.shard_calls"
        );
        // Only the tiered workload rewrites rows beside its reads.
        assert_eq!(
            value("load.reloads") > 0.0,
            name == "embed_tiers_reload_open",
            "{name}"
        );
    }
}

#[test]
fn unknown_workload_fails_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_pir-benchmark"))
        .args(["--workload", "no_such_workload", "--seconds", "1"])
        .output()
        .expect("run the benchmark");
    assert!(!output.status.success());
    assert!(
        output.stdout.is_empty(),
        "no result may be printed on failure"
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("embed_sweep_closed"));
}

#[test]
fn benchmark_json_names_the_four_workloads_and_setup_time() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        names,
        [
            "embed_sweep_closed",
            "wire_small_open",
            "embed_tiers_reload_open",
            "cluster_shards_closed"
        ]
    );
    let setup = spec
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    for metric in spec.get("end_to_end").arr() {
        let bound = metric.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{:?}", metric.get("name"));
    }
    assert_eq!(spec.get("paths").arr(), [Json::Str("benchmark".into())]);
}
