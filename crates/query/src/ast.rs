//! The name-based abstract syntax tree.
//!
//! The supported surface is deliberately the paper's scope: conjunctive
//! Select-Project-Join queries with simple comparison/BETWEEN predicates and
//! an optional GROUP BY, plus single-table INSERT/UPDATE/DELETE.

use std::fmt;
use storage::Value;

/// Comparison operators usable in selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A (possibly qualified) column reference, e.g. `l.quantity` or `name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }

    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}.{}", q, self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A table in the FROM clause, with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    pub fn new(table: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }

    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// Name this relation is addressed by in the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `column op literal` (literal-first inputs are normalized by the
    /// parser using [`CmpOp::flipped`]).
    Compare {
        column: ColumnRef,
        op: CmpOp,
        value: Value,
    },
    /// `column BETWEEN low AND high` (inclusive on both ends).
    Between {
        column: ColumnRef,
        low: Value,
        high: Value,
    },
    /// Equi-join conjunct `left = right` between two columns.
    Join { left: ColumnRef, right: ColumnRef },
}

/// Aggregate functions in the SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    Column(ColumnRef),
    /// `COUNT(*)` is `Aggregate(Count, None)`.
    Aggregate(AggFunc, Option<ColumnRef>),
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    pub column: ColumnRef,
    pub descending: bool,
}

/// A SELECT statement in the supported subset.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    /// Conjunctive WHERE clause.
    pub conditions: Vec<Condition>,
    pub group_by: Vec<ColumnRef>,
    /// ORDER BY keys. Per the paper's footnote 1, columns referenced *only*
    /// here are not relevant for statistics selection: they cannot affect
    /// cost estimation or plan choice below the final sort.
    pub order_by: Vec<OrderKey>,
}

impl SelectStmt {
    /// `SELECT * FROM <tables>` skeleton, for programmatic construction.
    pub fn star_from(tables: impl IntoIterator<Item = TableRef>) -> Self {
        SelectStmt {
            items: vec![SelectItem::Star],
            from: tables.into_iter().collect(),
            conditions: Vec::new(),
            group_by: Vec::new(),
            order_by: Vec::new(),
        }
    }

    pub fn with_condition(mut self, c: Condition) -> Self {
        self.conditions.push(c);
        self
    }

    pub fn with_group_by(mut self, c: ColumnRef) -> Self {
        self.group_by.push(c);
        self
    }
}

/// `INSERT INTO table VALUES (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    pub values: Vec<Value>,
}

/// `UPDATE table SET column = value [WHERE ...]` (single assignment,
/// conjunctive filter — all the Rags-style workloads need).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub set_column: String,
    pub set_value: Value,
    pub conditions: Vec<Condition>,
}

/// `DELETE FROM table [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub conditions: Vec<Condition>,
}

/// Any supported statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    Insert(InsertStmt),
    Update(UpdateStmt),
    Delete(DeleteStmt),
}

impl Statement {
    pub fn is_query(&self) -> bool {
        matches!(self, Statement::Select(_))
    }

    pub fn as_select(&self) -> Option<&SelectStmt> {
        match self {
            Statement::Select(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn binding_name_prefers_alias() {
        assert_eq!(TableRef::new("orders").binding_name(), "orders");
        assert_eq!(TableRef::aliased("orders", "o").binding_name(), "o");
    }

    #[test]
    fn builder_chains() {
        let q = SelectStmt::star_from([TableRef::new("t")])
            .with_condition(Condition::Compare {
                column: ColumnRef::bare("a"),
                op: CmpOp::Lt,
                value: Value::Int(5),
            })
            .with_group_by(ColumnRef::bare("b"));
        assert_eq!(q.conditions.len(), 1);
        assert_eq!(q.group_by.len(), 1);
    }
}
