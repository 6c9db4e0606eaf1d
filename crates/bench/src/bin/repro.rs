//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p bench --bin repro --release -- all
//! cargo run -p bench --bin repro --release -- fig11 table4
//! ```

use bench::experiments::{by_name, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requested: Vec<String> = if args.is_empty() {
        vec!["all".to_string()]
    } else {
        args
    };

    let mut tables = Vec::new();
    for name in &requested {
        let found = by_name(name);
        if found.is_empty() {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "unknown experiment '{name}'; available: {} or 'all'",
                names.join(", ")
            );
            std::process::exit(1);
        }
        tables.extend(found);
    }
    println!("# modelled (simulated V100 / analytic Xeon), not measured on this host\n");
    for table in tables {
        println!("{table}");
    }
}
