//! `pir-lint` — run the workspace static-analysis pass; any finding fails.
//!
//! ```text
//! pir-lint [--root DIR] [--policy FILE]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or configuration error.
//! The one escape hatch is an adjacent `// pir-lint: allow(<pass>,
//! "<reason>")` annotation.

use std::path::PathBuf;
use std::process::ExitCode;

use pir_analysis::driver;
use pir_analysis::policy::Policy;

struct Args {
    root: PathBuf,
    policy: PathBuf,
}

fn usage() -> &'static str {
    "usage: pir-lint [--root DIR] [--policy FILE]\n\
     \n\
     --root DIR          workspace root to analyze (default: .)\n\
     --policy FILE       policy manifest (default: <root>/ci/lint_policy.cfg)"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        policy: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--policy" => args.policy = PathBuf::from(it.next().ok_or("--policy needs a value")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.policy.as_os_str().is_empty() {
        args.policy = args.root.join("ci").join("lint_policy.cfg");
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("pir-lint: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let policy_text = match std::fs::read_to_string(&args.policy) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "pir-lint: cannot read policy {}: {e}",
                args.policy.display()
            );
            return ExitCode::from(2);
        }
    };
    let policy = match Policy::parse(&policy_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pir-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match driver::run(&args.root, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pir-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "pir-lint: {} files, {} findings",
        report.files_scanned,
        report.findings.len()
    );

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
