//! Error type for the PIR protocol layer.

use std::fmt;

/// Errors returned by PIR clients and servers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PirError {
    /// The query addresses an index outside the table.
    IndexOutOfRange {
        /// Requested index.
        index: u64,
        /// Number of entries in the table.
        table_size: u64,
    },
    /// The query's domain parameters do not match the table the server holds.
    SchemaMismatch {
        /// What the query was generated for.
        expected: String,
        /// What the server holds.
        actual: String,
    },
    /// The two responses being combined do not belong to the same query.
    ResponseMismatch(String),
    /// A batch request violates the protocol's fixed query budget.
    BudgetViolation(String),
    /// A write addresses a row the server's masked table view does not hold:
    /// the row belongs to another shard-owner, and writing it here would
    /// count it twice.
    RowNotOwned {
        /// The row the write addressed.
        index: u64,
    },
    /// The table's DPF domain cannot be split across the requested number of
    /// devices (more shards than subtrees, or zero devices).
    InvalidSharding {
        /// Entries in the table being sharded.
        entries: u64,
        /// Devices the caller asked to shard across.
        devices: usize,
    },
}

impl fmt::Display for PirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PirError::IndexOutOfRange { index, table_size } => {
                write!(
                    f,
                    "index {index} out of range for table of {table_size} entries"
                )
            }
            PirError::SchemaMismatch { expected, actual } => {
                write!(
                    f,
                    "schema mismatch: query built for {expected}, server holds {actual}"
                )
            }
            PirError::ResponseMismatch(msg) => write!(f, "responses do not match: {msg}"),
            PirError::BudgetViolation(msg) => write!(f, "query budget violated: {msg}"),
            PirError::RowNotOwned { index } => {
                write!(f, "row {index} is not held by this server's table view")
            }
            PirError::InvalidSharding { entries, devices } => {
                write!(
                    f,
                    "cannot shard a table of {entries} entries across {devices} devices"
                )
            }
        }
    }
}

impl std::error::Error for PirError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_lowercase_messages() {
        let err = PirError::IndexOutOfRange {
            index: 10,
            table_size: 5,
        };
        let text = err.to_string();
        assert!(text.contains("10"));
        assert!(text.contains('5'));

        let err = PirError::SchemaMismatch {
            expected: "a".into(),
            actual: "b".into(),
        };
        assert!(err.to_string().contains("schema mismatch"));
        assert!(!format!("{err:?}").is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PirError>();
    }
}
