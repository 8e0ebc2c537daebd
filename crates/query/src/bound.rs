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
use storage::{Fnv, TableId, Value};

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
    /// A grouped or aggregating SELECT's output row, in SELECT-list order.
    Grouped(Vec<OutputItem>),
}

/// One column of a grouped or aggregating SELECT's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputItem {
    /// The value of [`BoundSelect::group_by`]`[i]`.
    Key(usize),
    /// The value of [`BoundSelect::aggregates`]`[i]`.
    Aggregate(usize),
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

    /// Stable structural fingerprint of the bound query: FNV-1a over a
    /// fixed encoding of every field, each sequence length-prefixed, each
    /// enum variant and literal type tagged. Two queries share it exactly
    /// when their `Debug` renderings are equal (up to a 64-bit collision),
    /// but nothing is rendered.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.relations.encode(&mut h);
        self.projection.encode(&mut h);
        self.aggregates.encode(&mut h);
        self.selections.encode(&mut h);
        self.join_edges.encode(&mut h);
        self.group_by.encode(&mut h);
        self.order_by.encode(&mut h);
        h.finish()
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

/// A fixed, self-delimiting encoding into an FNV-1a hasher: what
/// [`BoundSelect::fingerprint`] hashes. A sequence is its length and then
/// its items, an enum its variant's tag and then its fields, and a literal
/// its type's tag and then its payload, so `Int(2)`, `Float(2.0)` and
/// `Date(2)` differ, and so do `0.0` and `-0.0`. Every NaN encodes alike,
/// as `Debug` prints every NaN alike.
trait Encode {
    fn encode(&self, h: &mut Fnv);
}

fn tag(h: &mut Fnv, tag: u8) {
    h.write_bytes(&[tag]);
}

impl Encode for usize {
    fn encode(&self, h: &mut Fnv) {
        h.write(*self as u64);
    }
}

impl Encode for bool {
    fn encode(&self, h: &mut Fnv) {
        tag(h, u8::from(*self));
    }
}

impl Encode for str {
    fn encode(&self, h: &mut Fnv) {
        self.len().encode(h);
        h.write_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, h: &mut Fnv) {
        self.as_str().encode(h);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, h: &mut Fnv) {
        self.len().encode(h);
        for item in self {
            item.encode(h);
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, h: &mut Fnv) {
        self.0.encode(h);
        self.1.encode(h);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, h: &mut Fnv) {
        match self {
            None => tag(h, 0),
            Some(x) => {
                tag(h, 1);
                x.encode(h);
            }
        }
    }
}

impl Encode for TableId {
    fn encode(&self, h: &mut Fnv) {
        h.write(u64::from(self.0));
    }
}

impl Encode for BoundColumn {
    fn encode(&self, h: &mut Fnv) {
        self.relation.encode(h);
        self.column.encode(h);
    }
}

impl Encode for CmpOp {
    fn encode(&self, h: &mut Fnv) {
        tag(h, *self as u8);
    }
}

impl Encode for AggFunc {
    fn encode(&self, h: &mut Fnv) {
        tag(h, *self as u8);
    }
}

impl Encode for Value {
    fn encode(&self, h: &mut Fnv) {
        match self {
            Value::Null => tag(h, 0),
            Value::Int(i) => {
                tag(h, 1);
                h.write(*i as u64);
            }
            Value::Float(x) => {
                tag(h, 2);
                h.write(if x.is_nan() { f64::NAN } else { *x }.to_bits());
            }
            Value::Str(s) => {
                tag(h, 3);
                s.encode(h);
            }
            Value::Date(d) => {
                tag(h, 4);
                h.write(i64::from(*d) as u64);
            }
        }
    }
}

impl Encode for PredOp {
    fn encode(&self, h: &mut Fnv) {
        match self {
            PredOp::Cmp(op, v) => {
                tag(h, 0);
                op.encode(h);
                v.encode(h);
            }
            PredOp::Between(low, high) => {
                tag(h, 1);
                low.encode(h);
                high.encode(h);
            }
        }
    }
}

impl Encode for SelectionPredicate {
    fn encode(&self, h: &mut Fnv) {
        self.column.encode(h);
        self.op.encode(h);
    }
}

impl Encode for JoinEdge {
    fn encode(&self, h: &mut Fnv) {
        self.left_rel.encode(h);
        self.right_rel.encode(h);
        self.pairs.encode(h);
    }
}

impl Encode for BoundAggregate {
    fn encode(&self, h: &mut Fnv) {
        self.func.encode(h);
        self.input.encode(h);
    }
}

impl Encode for OutputItem {
    fn encode(&self, h: &mut Fnv) {
        let (t, i) = match self {
            OutputItem::Key(i) => (0, i),
            OutputItem::Aggregate(i) => (1, i),
        };
        tag(h, t);
        i.encode(h);
    }
}

impl Encode for Projection {
    fn encode(&self, h: &mut Fnv) {
        match self {
            Projection::Star => tag(h, 0),
            Projection::Columns(cols) => {
                tag(h, 1);
                cols.encode(h);
            }
            Projection::Grouped(items) => {
                tag(h, 2);
                items.encode(h);
            }
        }
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

    /// Two queries share a fingerprint exactly when their `Debug`
    /// renderings are equal: the contract the monitor's key and the
    /// optimizer cache's key were written against.
    fn assert_fingerprint_contract(qs: &[BoundSelect]) {
        for a in qs {
            for b in qs {
                assert_eq!(
                    a.fingerprint() == b.fingerprint(),
                    format!("{a:?}") == format!("{b:?}"),
                    "{a:?}\n{b:?}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_tells_apart_exactly_what_debug_tells_apart() {
        let nan = f64::NAN;
        let literals = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Date(2),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(nan),
            Value::Float(-nan),
            Value::Float(f64::from_bits(nan.to_bits() | 1)),
            Value::Str("abc".into()),
            Value::Str("abd".into()),
            Value::Str("ab".into()),
            Value::Str("x\u{e9}\"".into()),
            Value::Null,
            Value::Int(-1),
        ];
        let mut qs: Vec<BoundSelect> = literals
            .iter()
            .map(|v| {
                let mut q = two_rel_query();
                q.selections[0].op = PredOp::Cmp(CmpOp::Lt, v.clone());
                q
            })
            .collect();
        // Every NaN prints as `NaN`, so all three NaNs are one template.
        assert_eq!(qs[5].fingerprint(), qs[7].fingerprint());
        // BETWEEN's two literals, each delimited: without a length prefix
        // the two string pairs, each holding a string literal's tag byte,
        // would encode alike.
        for (low, high) in [
            (Value::Int(2), Value::Int(3)),
            (Value::Int(23), Value::Int(0)),
            (Value::Str("a\u{3}b".into()), Value::Str("c".into())),
            (Value::Str("a".into()), Value::Str("b\u{3}c".into())),
        ] {
            let mut q = two_rel_query();
            q.selections[0].op = PredOp::Between(low, high);
            qs.push(q);
        }
        // Where one field's text ends and the next begins.
        for names in [("ab", "c"), ("a", "bc")] {
            let mut q = two_rel_query();
            q.relations[0].1 = names.0.into();
            q.relations[1].1 = names.1.into();
            qs.push(q);
        }
        for projection in [
            Projection::Columns(vec![]),
            Projection::Grouped(vec![]),
            Projection::Columns(vec![BoundColumn::new(0, 1)]),
            Projection::Grouped(vec![OutputItem::Key(0), OutputItem::Aggregate(0)]),
            Projection::Grouped(vec![OutputItem::Aggregate(0), OutputItem::Key(0)]),
        ] {
            qs.push(BoundSelect {
                projection,
                ..two_rel_query()
            });
        }
        let mut ascending = two_rel_query();
        ascending.order_by[0].1 = false;
        qs.push(ascending);
        let mut counted = two_rel_query();
        counted.aggregates.push(BoundAggregate {
            func: AggFunc::Count,
            input: None,
        });
        qs.push(counted.clone());
        counted.aggregates[0].input = Some(BoundColumn::new(0, 0));
        qs.push(counted);
        qs.push(two_rel_query());
        assert_fingerprint_contract(&qs);
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
