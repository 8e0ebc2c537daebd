//! Bound (name-resolved) statements.
//!
//! Binding turns name-based AST references into `(relation ordinal, column
//! ordinal)` pairs against a concrete `storage::Database`, groups equi-join
//! conjuncts into per-table-pair **join edges**, and enumerates the query's
//! **selectivity variables** — the central concept of §4.1 of the paper: one
//! variable per selection predicate, one per join edge, and one for the
//! GROUP BY clause (the fraction of rows with distinct grouping values).

use crate::ast::{AggFunc, CmpOp};
use std::fmt;
use storage::{TableId, Value};

/// A column of one of the query's relations: `(relation ordinal within the
/// query, column ordinal within the table)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoundColumn {
    pub relation: usize,
    pub column: usize,
}

impl BoundColumn {
    pub fn new(relation: usize, column: usize) -> Self {
        BoundColumn { relation, column }
    }
}

/// The comparison part of a selection predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    Cmp(CmpOp, Value),
    Between(Value, Value),
}

impl PredOp {
    /// Predicate class used for magic-number lookup when no statistics apply.
    pub fn class(&self) -> PredClass {
        match self {
            PredOp::Cmp(CmpOp::Eq, _) => PredClass::Equality,
            PredOp::Cmp(CmpOp::Ne, _) => PredClass::Inequality,
            PredOp::Cmp(_, _) => PredClass::Range,
            PredOp::Between(_, _) => PredClass::Between,
        }
    }
}

/// Classes of predicates that carry distinct default "magic numbers"
/// (system-wide selectivity constants, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredClass {
    Equality,
    Inequality,
    Range,
    Between,
    Join,
    GroupBy,
}

/// A selection predicate on a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionPredicate {
    pub column: BoundColumn,
    pub op: PredOp,
}

/// All equi-join conjuncts between one unordered pair of relations, fused
/// into a single join edge. A k-column join edge is exactly the situation in
/// §3.1 where multi-column statistics on `(a1..ak)` and `(b1..bk)` are useful,
/// and §4.2's note that join statistics must be created in **pairs**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    pub left_rel: usize,
    pub right_rel: usize,
    /// Column pairs `(left column ordinal, right column ordinal)`.
    pub pairs: Vec<(usize, usize)>,
}

impl JoinEdge {
    /// True if this edge connects the two given relation ordinals.
    pub fn connects(&self, a: usize, b: usize) -> bool {
        (self.left_rel == a && self.right_rel == b) || (self.left_rel == b && self.right_rel == a)
    }
}

/// Identifier of one selectivity variable of a bound query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredicateId {
    /// Index into [`BoundSelect::selections`].
    Selection(usize),
    /// Index into [`BoundSelect::join_edges`].
    JoinEdge(usize),
    /// The GROUP BY distinct-fraction variable.
    GroupBy,
}

impl fmt::Display for PredicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateId::Selection(i) => write!(f, "sel#{i}"),
            PredicateId::JoinEdge(i) => write!(f, "join#{i}"),
            PredicateId::GroupBy => write!(f, "groupby"),
        }
    }
}

/// An aggregate expression in the SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundAggregate {
    pub func: AggFunc,
    /// `None` means `COUNT(*)`.
    pub input: Option<BoundColumn>,
}

/// What the query projects.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    Star,
    Columns(Vec<BoundColumn>),
}

/// A bound SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSelect {
    /// `(table id, binding name)` per relation, in FROM order.
    pub relations: Vec<(TableId, String)>,
    pub projection: Projection,
    pub aggregates: Vec<BoundAggregate>,
    pub selections: Vec<SelectionPredicate>,
    pub join_edges: Vec<JoinEdge>,
    pub group_by: Vec<BoundColumn>,
    /// ORDER BY keys `(column, descending)`. Deliberately **not** part of
    /// [`BoundSelect::relevant_columns`]: the paper's footnote 1 observes
    /// that a column referenced only in ORDER BY cannot affect cost
    /// estimation or plan choice, so no statistics are proposed for it.
    pub order_by: Vec<(BoundColumn, bool)>,
}

impl BoundSelect {
    /// Table id of relation ordinal `rel`.
    pub fn table_of(&self, rel: usize) -> TableId {
        self.relations[rel].0
    }

    /// Stable structural fingerprint of the bound query (FNV-1a over the
    /// `Debug` rendering, which is deterministic: every field is a `Vec`).
    /// The rendering is hashed as it is written, never held as a `String`.
    pub fn fingerprint(&self) -> u64 {
        /// FNV-1a over every byte written to it.
        struct Fnv(u64);
        impl fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                for b in s.bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        // The sink never fails, and `Debug` fails only when its sink does.
        let _ = fmt::Write::write_fmt(&mut h, format_args!("{self:?}"));
        h.0
    }

    /// All selectivity variables of this query, in a stable order.
    pub fn predicate_ids(&self) -> Vec<PredicateId> {
        let mut ids = Vec::with_capacity(self.selections.len() + self.join_edges.len() + 1);
        ids.extend((0..self.selections.len()).map(PredicateId::Selection));
        ids.extend((0..self.join_edges.len()).map(PredicateId::JoinEdge));
        if !self.group_by.is_empty() {
            ids.push(PredicateId::GroupBy);
        }
        ids
    }

    /// Selection predicates on the given relation ordinal.
    pub fn selections_on(&self, rel: usize) -> impl Iterator<Item = (usize, &SelectionPredicate)> {
        self.selections
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.column.relation == rel)
    }

    /// The *relevant columns* of the query in the paper's sense (§3.1):
    /// columns in the WHERE clause or the GROUP BY clause. Returned as
    /// `(table id, column ordinal)` pairs, deduplicated, in first-occurrence
    /// order.
    pub fn relevant_columns(&self) -> Vec<(TableId, usize)> {
        let mut out: Vec<(TableId, usize)> = Vec::new();
        let push = |t: TableId, c: usize, out: &mut Vec<(TableId, usize)>| {
            if !out.contains(&(t, c)) {
                out.push((t, c));
            }
        };
        for p in &self.selections {
            push(self.table_of(p.column.relation), p.column.column, &mut out);
        }
        for e in &self.join_edges {
            for &(l, r) in &e.pairs {
                push(self.table_of(e.left_rel), l, &mut out);
                push(self.table_of(e.right_rel), r, &mut out);
            }
        }
        for g in &self.group_by {
            push(self.table_of(g.relation), g.column, &mut out);
        }
        out
    }
}

/// Bound `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundInsert {
    pub table: TableId,
    pub values: Vec<Value>,
}

/// Bound `UPDATE`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundUpdate {
    pub table: TableId,
    pub set_column: usize,
    pub set_value: Value,
    pub selections: Vec<SelectionPredicate>,
}

/// Bound `DELETE`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundDelete {
    pub table: TableId,
    pub selections: Vec<SelectionPredicate>,
}

/// Any bound statement.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    Select(BoundSelect),
    Insert(BoundInsert),
    Update(BoundUpdate),
    Delete(BoundDelete),
}

impl BoundStatement {
    pub fn as_select(&self) -> Option<&BoundSelect> {
        match self {
            BoundStatement::Select(s) => Some(s),
            _ => None,
        }
    }

    /// The table a DML statement writes; `None` for a SELECT.
    pub fn target(&self) -> Option<TableId> {
        match self {
            BoundStatement::Select(_) => None,
            BoundStatement::Insert(i) => Some(i.table),
            BoundStatement::Update(u) => Some(u.table),
            BoundStatement::Delete(d) => Some(d.table),
        }
    }

    pub fn is_query(&self) -> bool {
        matches!(self, BoundStatement::Select(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rel_query() -> BoundSelect {
        BoundSelect {
            relations: vec![(TableId(0), "a".into()), (TableId(1), "b".into())],
            projection: Projection::Star,
            aggregates: vec![],
            selections: vec![SelectionPredicate {
                column: BoundColumn::new(0, 2),
                op: PredOp::Cmp(CmpOp::Lt, Value::Int(10)),
            }],
            join_edges: vec![JoinEdge {
                left_rel: 0,
                right_rel: 1,
                pairs: vec![(0, 0), (1, 3)],
            }],
            group_by: vec![BoundColumn::new(1, 1)],
            order_by: vec![(BoundColumn::new(0, 3), true)],
        }
    }

    #[test]
    fn predicate_ids_stable_order() {
        let q = two_rel_query();
        assert_eq!(
            q.predicate_ids(),
            vec![
                PredicateId::Selection(0),
                PredicateId::JoinEdge(0),
                PredicateId::GroupBy
            ]
        );
    }

    #[test]
    fn relevant_columns_cover_where_and_group_by() {
        let q = two_rel_query();
        let rel = q.relevant_columns();
        // selection col, join cols (both sides, two pairs), group-by col
        assert!(rel.contains(&(TableId(0), 2)));
        assert!(rel.contains(&(TableId(0), 0)));
        assert!(rel.contains(&(TableId(1), 0)));
        assert!(rel.contains(&(TableId(0), 1)));
        assert!(rel.contains(&(TableId(1), 3)));
        assert!(rel.contains(&(TableId(1), 1)));
        assert_eq!(rel.len(), 6);
    }

    #[test]
    fn fingerprint_is_fnv_over_the_rendered_debug_string() {
        let rendered = |q: &BoundSelect| {
            format!("{q:?}")
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        let q = two_rel_query();
        let mut other = two_rel_query();
        other.selections[0].op = PredOp::Cmp(CmpOp::Lt, Value::Str("x\u{e9}\"".into()));
        let bare = BoundSelect {
            relations: vec![(TableId(3), "t".into())],
            projection: Projection::Star,
            aggregates: vec![],
            selections: vec![],
            join_edges: vec![],
            group_by: vec![],
            order_by: vec![],
        };
        let fps: Vec<u64> = [q, other, bare]
            .iter()
            .map(|q| {
                assert_eq!(q.fingerprint(), rendered(q));
                q.fingerprint()
            })
            .collect();
        assert!(fps[0] != fps[1] && fps[1] != fps[2] && fps[0] != fps[2]);
    }

    #[test]
    fn join_edge_connects_unordered() {
        let e = JoinEdge {
            left_rel: 0,
            right_rel: 1,
            pairs: vec![(0, 0)],
        };
        assert!(e.connects(0, 1));
        assert!(e.connects(1, 0));
        assert!(!e.connects(0, 2));
    }

    #[test]
    fn pred_class_mapping() {
        assert_eq!(
            PredOp::Cmp(CmpOp::Eq, Value::Int(1)).class(),
            PredClass::Equality
        );
        assert_eq!(
            PredOp::Cmp(CmpOp::Ge, Value::Int(1)).class(),
            PredClass::Range
        );
        assert_eq!(
            PredOp::Between(Value::Int(1), Value::Int(2)).class(),
            PredClass::Between
        );
        assert_eq!(
            PredOp::Cmp(CmpOp::Ne, Value::Int(1)).class(),
            PredClass::Inequality
        );
    }
}
