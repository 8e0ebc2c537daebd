//! Statistics-subsystem errors.
//!
//! Every fallible entry point of the stats layer returns [`StatsError`]
//! instead of panicking, so a corrupt descriptor or a stale table id degrades
//! into a typed, reportable failure rather than aborting the tuning process.

use std::fmt;
use storage::StorageError;

/// Errors raised while building, storing, or querying statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// An underlying storage failure (unknown table id, etc.).
    Storage(StorageError),
    /// A statistic descriptor names a column ordinal the table does not have.
    UnknownColumn { table: String, column: usize },
    /// A statistic descriptor with an empty column list.
    EmptyColumnSet,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Storage(e) => write!(f, "storage error: {e}"),
            StatsError::UnknownColumn { table, column } => {
                write!(
                    f,
                    "statistic names column #{column}, which table '{table}' does not have"
                )
            }
            StatsError::EmptyColumnSet => {
                write!(f, "statistic descriptor has an empty column list")
            }
        }
    }
}

impl std::error::Error for StatsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatsError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for StatsError {
    fn from(e: StorageError) -> Self {
        StatsError::Storage(e)
    }
}
