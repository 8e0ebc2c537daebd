//! Storage-level errors.

use std::fmt;

/// Errors raised by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The named table does not exist.
    UnknownTable(String),
    /// The named column does not exist in the given table.
    UnknownColumn { table: String, column: String },
    /// A value's type does not match the column definition.
    TypeMismatch {
        table: String,
        column: String,
        expected: String,
        found: String,
    },
    /// A row had the wrong number of values.
    ArityMismatch { expected: usize, found: usize },
    /// A table with this name already exists.
    DuplicateTable(String),
    /// An index with this name already exists.
    DuplicateIndex(String),
    /// NULL was inserted into a NOT NULL column.
    NullViolation { table: String, column: String },
    /// A [`crate::TableId`] that does not refer to any table in the database
    /// (stale id, or an id minted against a different `Database`).
    UnknownTableId(u32),
    /// `Database::set_slices` was handed a slice whose schema differs.
    SchemaMismatch { table: String, other: String },
    /// A write to, or a read as one whole `Table` of, a table the database
    /// holds as a chain of slices (`Database::set_slices`): a chain is
    /// read-only, and read slice by slice (`Database::slices`).
    ChainedTable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            StorageError::TypeMismatch {
                table,
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in {table}.{column}: expected {expected}, found {found}"
            ),
            StorageError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} values, found {found}"
                )
            }
            StorageError::DuplicateTable(t) => write!(f, "table '{t}' already exists"),
            StorageError::DuplicateIndex(i) => write!(f, "index '{i}' already exists"),
            StorageError::NullViolation { table, column } => {
                write!(f, "NULL inserted into NOT NULL column {table}.{column}")
            }
            StorageError::UnknownTableId(id) => {
                write!(f, "table id T{id} does not exist in this database")
            }
            StorageError::SchemaMismatch { table, other } => {
                write!(f, "cannot chain '{other}' as '{table}': schemas differ")
            }
            StorageError::ChainedTable(t) => {
                write!(
                    f,
                    "table '{t}' is held as a chain of slices: it is read slice by slice and takes no writes"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}
