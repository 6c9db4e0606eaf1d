//! Tables 1 and 2: the embedding-table catalog and the production profile.

use crate::datasets::{DatasetCatalog, ProductionProfile};
use crate::report::Table;

/// Table 1: embedding table sizes for public datasets and models.
#[must_use]
pub fn table1() -> Table {
    let mut table = Table::new(
        "Table 1: embedding table sizes for public datasets/models",
        &["application", "entries", "entry size (B)", "table size"],
    );
    for entry in DatasetCatalog::table1() {
        table.push_row(vec![
            entry.application.to_string(),
            entry.entries.to_string(),
            entry.entry_bytes.to_string(),
            entry.table_size_human(),
        ]);
    }
    table
}

/// Table 2: the production recommendation model's device-only sparse features.
#[must_use]
pub fn table2() -> Table {
    let mut table = Table::new(
        "Table 2: production model device-only sparse features",
        &["entries", "avg queries/inference", "table size (GB)"],
    );
    for row in ProductionProfile::table2() {
        table.push_row(vec![
            row.entries.to_string(),
            format!("{:.1}", row.avg_queries_per_inference),
            format!("{:.2}", row.table_bytes() as f64 / 1e9),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use crate::experiments::by_name;

    #[test]
    fn tables_have_expected_row_counts() {
        assert_eq!(by_name("table1")[0].rows.len(), 6);
        assert_eq!(by_name("table2")[0].rows.len(), 5);
    }
}
