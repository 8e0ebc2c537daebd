//! In-memory columnar relational storage.
//!
//! This crate is the storage substrate for the reproduction of
//! *Automating Statistics Management for Query Optimizers* (Chaudhuri &
//! Narasayya, ICDE 2000). The paper's algorithms only need a relational store
//! that can
//!
//! * hold typed tables and answer full scans (for building statistics and for
//!   executing plans),
//! * expose secondary index metadata (the paper's "tuned TPC-D database with
//!   13 indexes" carries statistics on indexed columns for free), and
//! * track a per-table **row-modification counter**, which drives the
//!   SQL Server 7.0 auto-update/auto-drop policy described in §6 of the paper.
//!
//! Layout is columnar (`Vec` per column) because statistics construction and
//! scan-heavy execution both read one column at a time.

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod column;
pub mod error;
pub mod fnv;
pub mod index;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{Database, TableId};
pub use column::{ColumnData, PayloadRef};
pub use error::StorageError;
pub use fnv::Fnv;
pub use index::Index;
pub use schema::{ColumnDef, Schema};
pub use table::Table;
pub use value::{DataType, Value, ValueRef};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
