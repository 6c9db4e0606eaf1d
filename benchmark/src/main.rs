//! The repo benchmark: four serving workloads on the three real serving
//! paths, end-to-end lookup metrics, and a staged per-layer trace.
//!
//! ```text
//! pir-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pir-benchmark [--seed <n>] [--seconds <s>] [--quick]     # all four
//! ```
//!
//! With `--workload` the process runs that workload and prints, as its last
//! line, the JSON object `BENCHMARK.json`'s contract describes: the
//! end-to-end metrics (`--trace 0`), the per-layer metrics (`--trace 1`) or
//! both (`--trace 2`). Without it the binary re-executes itself once per
//! workload — each in a process of its own, so set-up time, peak memory,
//! CPU time and lazily initialised state never leak between workloads — and
//! prints every metric of every workload. See `README.md`.

mod deploy;
mod drive;
mod host;
mod kernels;
mod metrics;
mod schedule;
mod staged;
mod transport;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use host::HostInfo;
use metrics::{json_string, MetricSet};
use workloads::{Report, RunConfig};

/// Spans of this many staged lookups are written to the trace file.
const TRACE_FILE_LOOKUPS: u32 = 200;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// 0: end-to-end metrics, 1: per-layer metrics, 2: both.
    trace: u8,
    quick: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: pir-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1|2>] [--quick] [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: 0,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    "2" => 2,
                    other => return Err(format!("--trace takes 0, 1 or 2, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn print_metrics(title: &str, set: &MetricSet) {
    println!("# {title}");
    for m in set.iter() {
        println!(
            "{:<44} {:>16.6} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }
}

fn write_file(dir: &Path, name: &str, content: &str) {
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), content));
    if let Err(err) = written {
        eprintln!(
            "warning: could not write {}: {err}",
            dir.join(name).display()
        );
    }
}

/// The contract's result object.
fn result_json(report: &Report, trace: u8) -> String {
    let mut metrics = MetricSet::default();
    let sets = match trace {
        0 => vec![&report.end_to_end],
        1 => vec![&report.per_layer],
        _ => vec![&report.end_to_end, &report.per_layer],
    };
    for m in sets.into_iter().flat_map(MetricSet::iter) {
        metrics.push(m.name.clone(), m.value, m.unit, m.kind);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.to_json()
    )
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let specs = deploy::specs();
    let spec = specs.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let seconds = args.seconds.unwrap_or(if args.quick { 3.0 } else { 12.0 });
    let config = RunConfig {
        seed: args.seed,
        seconds,
        trace: args.trace > 0,
        quick: args.quick,
    };
    let report = workloads::run(spec, &config)?;

    let host = HostInfo::gather();
    println!(
        "# {name}: seed {} · {seconds} s measured · {} cpus ({}) · simd {} · frontier tile {} · {} · commit {}",
        args.seed,
        host.nproc,
        host.cpu_model,
        host.simd_backend,
        pir_dpf::reported_frontier_tile(spec.prf, host.simd_backend)
            .map_or("unprobed".to_string(), |tile| tile.to_string()),
        host.rustc,
        host.git_commit
    );
    print_metrics("end to end", &report.end_to_end);
    if config.trace {
        print_metrics("per layer", &report.per_layer);
        let spans: Vec<_> = report
            .spans
            .iter()
            .filter(|span| span.lookup < TRACE_FILE_LOOKUPS)
            .cloned()
            .collect();
        write_file(
            &args.out,
            &format!("trace.{name}.json"),
            &staged::spans_to_json(&spans),
        );
    }
    write_file(
        &args.out,
        &format!("{name}.json"),
        &format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"host\": {},\n \
             \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"end_to_end\": {},\n \
             \"per_layer\": {}}}\n",
            json_string(name),
            args.seed,
            seconds,
            args.quick,
            host.to_json(),
            report.correct,
            report.attempted,
            report.failed,
            report.end_to_end.to_json_with_kind(),
            report.per_layer.to_json_with_kind()
        ),
    );
    println!("{}", result_json(&report, args.trace));
    if report.correct {
        Ok(())
    } else {
        Err(format!("{name}: a lookup reconstructed a wrong row"))
    }
}

/// Run every workload in a child process of its own and gather the results.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for spec in deploy::specs() {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", spec.name, "--trace", "2"])
            .args(["--seed", &args.seed.to_string()])
            .arg("--out")
            .arg(&args.out)
            .stdout(Stdio::piped());
        if let Some(seconds) = args.seconds {
            command.args(["--seconds", &seconds.to_string()]);
        }
        if args.quick {
            command.arg("--quick");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.name))?;
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read {} output: {e}", spec.name))?;
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait for {}: {e}", spec.name))?;
        if !status.success() {
            return Err(format!("workload {} failed ({status})", spec.name));
        }
        results.push(format!("{}: {last}", json_string(spec.name)));
    }
    println!("{{\"workloads\": {{{}}}}}", results.join(", "));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pir-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
