//! One function per paper table/figure, each returning printable [`Table`]s.
//!
//! Each experiment's unit tests reach it through [`by_name`] and assert the
//! relation the paper draws from it, so every name in [`EXPERIMENTS`] is
//! checked and none is run twice.

pub mod catalog;
pub mod codesign;
pub mod end_to_end;
pub mod kernels;

use crate::report::Table;

/// Regenerates one experiment's tables.
pub type Experiment = fn() -> Vec<Table>;

/// Every experiment in the paper's evaluation, by name, in print order.
pub const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("table1", || vec![catalog::table1()]),
    ("table2", || vec![catalog::table2()]),
    ("fig3", || vec![kernels::figure3()]),
    ("fig6", || vec![kernels::figure6()]),
    ("fig8", kernels::figure8),
    ("fig9", || vec![kernels::figure9()]),
    ("fig11", end_to_end::figure11),
    ("fig12", || vec![end_to_end::figure12()]),
    ("fig13", kernels::figure13),
    ("fig14", kernels::figure14),
    ("fig15", || vec![kernels::figure15()]),
    ("fig16", codesign::figure16),
    ("fig17", || vec![codesign::figure17()]),
    ("fig18", || vec![codesign::figure18_19_20()]),
    ("table3", || vec![end_to_end::table3()]),
    ("table4", || vec![kernels::table4()]),
    ("table5", || vec![kernels::table5()]),
];

/// Look up experiments by name (`fig3`, `table4`, ...); `all` returns
/// everything, and an unknown name returns nothing.
#[must_use]
pub fn by_name(name: &str) -> Vec<Table> {
    EXPERIMENTS
        .iter()
        .filter(|(experiment, _)| name == "all" || name == *experiment)
        .flat_map(|(_, run)| run())
        .collect()
}

/// Parse a numeric cell as printed by [`crate::report::fmt_f64`].
#[cfg(test)]
pub(crate) fn cell(row: &[String], column: usize) -> f64 {
    row[column]
        .parse()
        .unwrap_or_else(|_| panic!("cell {column} of {row:?} is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_produce_nothing() {
        assert!(by_name("fig99").is_empty());
    }
}
