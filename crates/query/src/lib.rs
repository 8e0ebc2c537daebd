//! Query representation for the reproduction.
//!
//! The paper's techniques are defined over Select-Project-Join (SPJ) queries
//! with optional GROUP BY, plus the insert/update/delete statements that the
//! Rags-generated workloads contain (§8.1). This crate provides:
//!
//! * a name-based [`ast`] built either programmatically or by the SQL
//!   [`parser`] for that subset,
//! * a [`binder`] that resolves names against a `storage::Database` and
//!   produces the bound form consumed by the optimizer, and
//! * a [`mod@render`] module that prints statements back to SQL (the parser and
//!   renderer round-trip, which the property tests exercise).

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod binder;
pub mod bound;
pub mod parser;
pub mod render;

pub use ast::{
    AggFunc, CmpOp, ColumnRef, Condition, DeleteStmt, InsertStmt, SelectItem, SelectStmt,
    Statement, TableRef, UpdateStmt,
};
pub use binder::{bind_select, bind_statement, BindError};
pub use bound::{
    BoundAggregate, BoundColumn, BoundDelete, BoundInsert, BoundSelect, BoundStatement,
    BoundUpdate, JoinEdge, OutputItem, PredClass, PredOp, PredicateId, Projection,
    SelectionPredicate,
};
pub use parser::{parse_statement, ParseError};
pub use render::render;
