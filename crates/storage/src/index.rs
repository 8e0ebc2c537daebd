//! Secondary index metadata.
//!
//! Indexes matter to the reproduction in two ways, both taken from the paper:
//!
//! 1. The intro experiment starts from a "tuned TPC-D database with 13
//!    indexes" in which statistics exist only on indexed columns; index
//!    creation therefore implies statistics on the index's leading column.
//! 2. The optimizer prices an index scan cheaper than a sequential scan when
//!    a selective predicate matches the index's leading column.
//!
//! We store only the metadata (which columns, in order). Lookup structures
//! are not materialized: the executor evaluates plans straight off the
//! columnar data, and the cost model only needs to know the index exists.

use crate::catalog::TableId;

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    pub name: String,
    pub table: TableId,
    /// Column ordinals in index key order; `columns[0]` is the leading column.
    pub columns: Vec<usize>,
}

impl Index {
    pub fn new(name: impl Into<String>, table: TableId, columns: Vec<usize>) -> Self {
        assert!(!columns.is_empty(), "index must have at least one column");
        Index {
            name: name.into(),
            table,
            columns,
        }
    }

    /// Leading (first) key column ordinal.
    pub fn leading_column(&self) -> usize {
        self.columns[0]
    }

    /// True if this index can serve a predicate on `column` via its leading
    /// key.
    pub fn serves(&self, column: usize) -> bool {
        self.leading_column() == column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_column_and_serves() {
        let idx = Index::new("i1", TableId(0), vec![2, 1]);
        assert_eq!(idx.leading_column(), 2);
        assert!(idx.serves(2));
        assert!(!idx.serves(1));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_index_panics() {
        let _ = Index::new("bad", TableId(0), vec![]);
    }
}
