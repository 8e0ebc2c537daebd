//! Shared predicate evaluation over stored values.
//!
//! Two evaluation paths coexist. The row-at-a-time functions
//! ([`row_matches`], [`filter_table`]) materialize one [`Value`] per probe
//! and serve the reference interpreter. The columnar path compiles each
//! predicate once against its column — constant pre-converted to the
//! column's native representation, payload slice borrowed directly — and
//! then evaluates by selection vector ([`filter_table_columnar`]), which is
//! what the batch executor uses. Both return exactly the same row sets.
//!
//! Numeric comparisons additionally compile down to the branch-free range
//! kernels in `crate::kernels`: each `Cmp`/`Between` over an `Int`/`Date`/
//! `Float` column canonicalizes to an inclusive range test over totally
//! ordered `i64` keys (with a negate flag for `Ne`), which the kernels
//! evaluate without data-dependent branches so rustc autovectorizes the
//! loop. Strings and cross-type oddities keep the row-wise `ord` path.

use crate::kernels::{self, f64_total_key, KeyRange};
use query::{CmpOp, PredOp, SelectionPredicate};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use storage::{ColumnData, PayloadRef, Table, Value};

/// SQL three-valued comparison collapsed to a boolean (NULL comparisons are
/// false, as in a WHERE clause).
pub fn cmp_matches(op: CmpOp, lhs: &Value, rhs: &Value) -> bool {
    let Some(ord) = lhs.sql_cmp(rhs) else {
        return false;
    };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Evaluate one selection predicate against a concrete value.
pub fn pred_matches(op: &PredOp, value: &Value) -> bool {
    match op {
        PredOp::Cmp(c, rhs) => cmp_matches(*c, value, rhs),
        PredOp::Between(lo, hi) => {
            cmp_matches(CmpOp::Ge, value, lo) && cmp_matches(CmpOp::Le, value, hi)
        }
    }
}

/// Evaluate a predicate against row `row` of `table` (the predicate's column
/// ordinal is interpreted against that table).
pub fn row_matches(table: &Table, row: usize, pred: &SelectionPredicate) -> bool {
    pred_matches(&pred.op, &table.value(row, pred.column.column))
}

/// Row indices of `table` matching all `preds`.
pub fn filter_table(table: &Table, preds: &[&SelectionPredicate]) -> Vec<usize> {
    (0..table.row_count())
        .filter(|&r| preds.iter().all(|p| row_matches(table, r, p)))
        .collect()
}

/// One comparison against a column, compiled: the payload slice is borrowed
/// once and the constant is pre-converted into the column's native domain,
/// so the per-row check is a primitive compare with no `Value`
/// materialization. Each variant reproduces the corresponding
/// [`Value::total_cmp`] arm exactly (including the `numeric_key` fallback
/// for Date/Float cross-type comparisons).
enum ColCmp<'a> {
    /// Int/Date payload vs Int/Date constant: plain `i64` order.
    IntInt(&'a [i64], i64),
    /// Int/Date payload vs Float constant: widen then `f64::total_cmp`.
    IntFloat(&'a [i64], f64),
    /// Float payload vs numeric constant: `f64::total_cmp`.
    FloatFloat(&'a [f64], f64),
    /// Str payload vs Str constant: lexicographic.
    StrStr(&'a [Arc<str>], &'a str),
    /// Cross-type oddities (e.g. Str column vs numeric constant) fall back
    /// to the generic `ValueRef` comparison.
    Generic(&'a ColumnData, &'a Value),
}

impl ColCmp<'_> {
    fn compile<'a>(col: &'a ColumnData, rhs: &'a Value) -> Option<ColCmp<'a>> {
        // NULL constants never match under SQL comparison; `None` encodes
        // "always false".
        use PayloadRef::{Date, Float, Int, Str};
        Some(match (col.payload(), rhs) {
            (_, Value::Null) => return None,
            (Int(xs) | Date(xs), Value::Int(k)) => ColCmp::IntInt(xs, *k),
            (Int(xs) | Date(xs), Value::Date(k)) => ColCmp::IntInt(xs, *k as i64),
            (Int(xs) | Date(xs), Value::Float(k)) => ColCmp::IntFloat(xs, *k),
            (Float(xs), Value::Int(k)) => ColCmp::FloatFloat(xs, *k as f64),
            (Float(xs), Value::Float(k)) => ColCmp::FloatFloat(xs, *k),
            (Float(xs), Value::Date(k)) => ColCmp::FloatFloat(xs, *k as f64),
            (Str(xs), Value::Str(k)) => ColCmp::StrStr(xs, k),
            _ => ColCmp::Generic(col, rhs),
        })
    }

    /// Ordering of the (non-NULL) value at `row` relative to the constant.
    #[inline]
    fn ord(&self, row: usize) -> Ordering {
        match self {
            ColCmp::IntInt(xs, k) => xs[row].cmp(k),
            ColCmp::IntFloat(xs, k) => (xs[row] as f64).total_cmp(k),
            ColCmp::FloatFloat(xs, k) => xs[row].total_cmp(k),
            ColCmp::StrStr(xs, k) => (*xs[row]).cmp(k),
            ColCmp::Generic(col, rhs) => col.get_ref(row).total_cmp(&rhs.as_ref()),
        }
    }
}

#[inline]
fn ord_matches(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

enum CompiledOp<'a> {
    /// A NULL constant somewhere: no row can match.
    Never,
    Cmp(CmpOp, ColCmp<'a>),
    Between(ColCmp<'a>, ColCmp<'a>),
}

/// The vectorizable form of a compiled predicate: an inclusive key-range
/// test over the column's payload slice, or a marker that the row-wise
/// `ord` path must be used.
enum Kernel<'a> {
    /// No row can match (NULL constant, or a range that canonicalized to
    /// empty at the domain boundary, e.g. `x < i64::MIN`).
    Never,
    /// Int/Date payload: the value is its own key.
    Int(&'a [i64], KeyRange),
    /// Int/Date payload vs Float constant: widen per row, then key.
    IntAsFloat(&'a [i64], KeyRange),
    /// Float payload: key via [`f64_total_key`].
    Float(&'a [f64], KeyRange),
    /// Strings, cross-type comparisons, mixed-variant BETWEEN: evaluate
    /// row-wise through [`CompiledPred::matches`].
    RowWise,
}

/// The inclusive key range equivalent to `value <c> key` (keys already in
/// the totally ordered domain). `None` when the range is empty because the
/// constant sits at the domain boundary (`< MIN`, `> MAX`).
fn range_for(c: CmpOp, key: i64) -> Option<KeyRange> {
    Some(match c {
        CmpOp::Eq => KeyRange {
            lo: key,
            hi: key,
            negate: false,
        },
        CmpOp::Ne => KeyRange {
            lo: key,
            hi: key,
            negate: true,
        },
        CmpOp::Lt => KeyRange {
            lo: i64::MIN,
            hi: key.checked_sub(1)?,
            negate: false,
        },
        CmpOp::Le => KeyRange {
            lo: i64::MIN,
            hi: key,
            negate: false,
        },
        CmpOp::Gt => KeyRange {
            lo: key.checked_add(1)?,
            hi: i64::MAX,
            negate: false,
        },
        CmpOp::Ge => KeyRange {
            lo: key,
            hi: i64::MAX,
            negate: false,
        },
    })
}

fn kernel_of<'a>(op: &CompiledOp<'a>) -> Kernel<'a> {
    match op {
        CompiledOp::Never => Kernel::Never,
        CompiledOp::Cmp(c, cmp) => match cmp {
            ColCmp::IntInt(xs, k) => match range_for(*c, *k) {
                Some(r) => Kernel::Int(xs, r),
                None => Kernel::Never,
            },
            ColCmp::IntFloat(xs, k) => match range_for(*c, f64_total_key(*k)) {
                Some(r) => Kernel::IntAsFloat(xs, r),
                None => Kernel::Never,
            },
            ColCmp::FloatFloat(xs, k) => match range_for(*c, f64_total_key(*k)) {
                Some(r) => Kernel::Float(xs, r),
                None => Kernel::Never,
            },
            ColCmp::StrStr(..) | ColCmp::Generic(..) => Kernel::RowWise,
        },
        // BETWEEN is `x >= lo && x <= hi`; when both bounds compile to the
        // same typed variant that is one inclusive key range. Mixed variants
        // (e.g. Int lo, Float hi) compare in different domains per bound and
        // stay row-wise.
        CompiledOp::Between(lo, hi) => match (lo, hi) {
            (ColCmp::IntInt(xs, l), ColCmp::IntInt(_, h)) => Kernel::Int(
                xs,
                KeyRange {
                    lo: *l,
                    hi: *h,
                    negate: false,
                },
            ),
            (ColCmp::IntFloat(xs, l), ColCmp::IntFloat(_, h)) => Kernel::IntAsFloat(
                xs,
                KeyRange {
                    lo: f64_total_key(*l),
                    hi: f64_total_key(*h),
                    negate: false,
                },
            ),
            (ColCmp::FloatFloat(xs, l), ColCmp::FloatFloat(_, h)) => Kernel::Float(
                xs,
                KeyRange {
                    lo: f64_total_key(*l),
                    hi: f64_total_key(*h),
                    negate: false,
                },
            ),
            _ => Kernel::RowWise,
        },
    }
}

/// A selection predicate compiled against its column: resolve once, probe
/// per row with primitive compares ([`matches`](Self::matches)) or sweep
/// whole row spans through the branch-free kernels
/// ([`select_into`](Self::select_into) / [`refine`](Self::refine)).
pub struct CompiledPred<'a> {
    validity: &'a [bool],
    all_valid: bool,
    op: CompiledOp<'a>,
    kernel: Kernel<'a>,
}

impl<'a> CompiledPred<'a> {
    /// Compile `pred` against `table` (the predicate's column ordinal is
    /// interpreted against that table, as in [`row_matches`]).
    pub fn new(table: &'a Table, pred: &'a SelectionPredicate) -> CompiledPred<'a> {
        let col = table.column(pred.column.column);
        let op = match &pred.op {
            PredOp::Cmp(c, rhs) => match ColCmp::compile(col, rhs) {
                Some(cc) => CompiledOp::Cmp(*c, cc),
                None => CompiledOp::Never,
            },
            PredOp::Between(lo, hi) => match (ColCmp::compile(col, lo), ColCmp::compile(col, hi)) {
                (Some(l), Some(h)) => CompiledOp::Between(l, h),
                _ => CompiledOp::Never,
            },
        };
        let kernel = kernel_of(&op);
        CompiledPred {
            validity: col.validity(),
            all_valid: col.all_valid(),
            op,
            kernel,
        }
    }

    /// True when the (compiled) predicate holds at `row`; NULL entries never
    /// match, as in a WHERE clause.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        if !self.validity[row] {
            return false;
        }
        match &self.op {
            CompiledOp::Never => false,
            CompiledOp::Cmp(c, cmp) => ord_matches(*c, cmp.ord(row)),
            CompiledOp::Between(lo, hi) => {
                lo.ord(row) != Ordering::Less && hi.ord(row) != Ordering::Greater
            }
        }
    }

    /// Append the matching row ids within `span` to `out`, in ascending
    /// order — the scan entry point of the kernel path. Equivalent to
    /// `out.extend(span.filter(|&r| self.matches(r)))`.
    pub fn select_into(&self, span: Range<usize>, out: &mut Vec<usize>) {
        match &self.kernel {
            Kernel::Never => {}
            Kernel::Int(xs, r) => kernels::select_keys(
                &xs[span.clone()],
                &self.validity[span.clone()],
                self.all_valid,
                |x| x,
                *r,
                span.start,
                out,
            ),
            Kernel::IntAsFloat(xs, r) => kernels::select_keys(
                &xs[span.clone()],
                &self.validity[span.clone()],
                self.all_valid,
                |x| f64_total_key(x as f64),
                *r,
                span.start,
                out,
            ),
            Kernel::Float(xs, r) => kernels::select_keys(
                &xs[span.clone()],
                &self.validity[span.clone()],
                self.all_valid,
                f64_total_key,
                *r,
                span.start,
                out,
            ),
            Kernel::RowWise => kernels::select_rowwise(span, |row| self.matches(row), out),
        }
    }

    /// Narrow a selection vector in place to the rows that also satisfy this
    /// predicate, preserving order. Equivalent to
    /// `sel.retain(|&r| self.matches(r))`.
    pub fn refine(&self, sel: &mut Vec<usize>) {
        match &self.kernel {
            Kernel::Never => sel.clear(),
            Kernel::Int(xs, r) => kernels::refine_keys(xs, self.validity, |x| x, *r, sel),
            Kernel::IntAsFloat(xs, r) => {
                kernels::refine_keys(xs, self.validity, |x| f64_total_key(x as f64), *r, sel)
            }
            Kernel::Float(xs, r) => kernels::refine_keys(xs, self.validity, f64_total_key, *r, sel),
            Kernel::RowWise => kernels::refine_rowwise(|row| self.matches(row), sel),
        }
    }
}

/// Row indices of `table` matching all `preds`, computed by selection
/// vector: the first predicate sweeps the column through its branch-free
/// kernel, later ones narrow the surviving vector in place. Returns exactly
/// [`filter_table`]'s result.
pub fn filter_table_columnar(table: &Table, preds: &[&SelectionPredicate]) -> Vec<usize> {
    let n = table.row_count();
    if preds.is_empty() || n == 0 {
        return (0..n).collect();
    }
    let compiled: Vec<CompiledPred<'_>> =
        preds.iter().map(|p| CompiledPred::new(table, p)).collect();
    let mut sel: Vec<usize> = Vec::new();
    if let Some((first, rest)) = compiled.split_first() {
        first.select_into(0..n, &mut sel);
        for p in rest {
            p.refine(&mut sel);
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::BoundColumn;
    use storage::{ColumnDef, DataType, Schema};

    #[test]
    fn cmp_semantics() {
        assert!(cmp_matches(CmpOp::Lt, &Value::Int(1), &Value::Int(2)));
        assert!(cmp_matches(CmpOp::Ge, &Value::Int(2), &Value::Int(2)));
        assert!(cmp_matches(
            CmpOp::Ne,
            &Value::Str("a".into()),
            &Value::Str("b".into())
        ));
        assert!(
            !cmp_matches(CmpOp::Eq, &Value::Null, &Value::Null),
            "NULL = NULL is false"
        );
        assert!(!cmp_matches(CmpOp::Le, &Value::Null, &Value::Int(5)));
    }

    #[test]
    fn between_inclusive() {
        let op = PredOp::Between(Value::Int(2), Value::Int(4));
        assert!(pred_matches(&op, &Value::Int(2)));
        assert!(pred_matches(&op, &Value::Int(4)));
        assert!(!pred_matches(&op, &Value::Int(5)));
        assert!(!pred_matches(&op, &Value::Null));
    }

    #[test]
    fn filter_table_conjunction() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ]),
        );
        for i in 0..10i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        let p1 = SelectionPredicate {
            column: BoundColumn::new(0, 0),
            op: PredOp::Cmp(CmpOp::Ge, Value::Int(4)),
        };
        let p2 = SelectionPredicate {
            column: BoundColumn::new(0, 1),
            op: PredOp::Cmp(CmpOp::Eq, Value::Int(0)),
        };
        assert_eq!(filter_table(&t, &[&p1, &p2]), vec![6, 9]);
    }
}
