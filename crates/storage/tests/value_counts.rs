//! A column's value counts (`ColumnData::value_counts`) against its cells,
//! through random runs of every write: `push` (NULLs included), `set`,
//! `set_rows` (a value, a NULL, a value of the wrong type, rows past the
//! end), `delete_rows`, and a `clone` followed by a write to either copy,
//! on every column type. Counts are made at random points, as a statistic
//! build would make them. After every step a column holds either no counts
//! or counts equal to a fresh count of its cells; a clone shares the
//! counts (`Arc::ptr_eq`) until either side is written, and the side not
//! written keeps them.
//!
//! Storage only keeps the counts; a statistic build fills them. Here they
//! are filled by `fresh`, a plain sorted count of the cells.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{ColumnCounts, ColumnData, CountedValues, DataType, Value};

/// Five values per type, some alike in ways a count could blur: `-0.0`
/// beside `0.0`, a NaN, the empty string (what a NULL pads with).
fn pool(data_type: DataType) -> [Value; 5] {
    match data_type {
        DataType::Int => [-3, 0, 1, 1 << 40, i64::MIN].map(Value::Int),
        DataType::Date => [-1, 0, 7, 9000, i32::MAX].map(Value::Date),
        DataType::Float => [-0.0, 0.0, 2.5, f64::NAN, f64::INFINITY].map(Value::Float),
        DataType::Str => ["", "a", "bb", "a\u{e9}", "zz"].map(Value::from),
    }
}

/// A value of another type, which `set`/`set_rows` refuse.
fn wrong(data_type: DataType) -> Value {
    match data_type {
        DataType::Str => Value::Int(1),
        _ => Value::from("x"),
    }
}

/// The counts of `col`'s cells as a build would leave them: each distinct
/// non-null value once with its row count, in ascending order, and the
/// NULL rows.
fn fresh(col: &ColumnData) -> ColumnCounts {
    let mut counts: BTreeMap<Value, u32> = BTreeMap::new();
    let mut nulls = 0;
    for v in col.iter() {
        if v.is_null() {
            nulls += 1;
        } else {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let counts = counts.into_iter();
    let values = match col.data_type() {
        DataType::Int => CountedValues::Int(
            counts
                .map(|(v, n)| match v {
                    Value::Int(x) => (x, n),
                    v => panic!("{v:?} in an integer column"),
                })
                .collect(),
        ),
        DataType::Date => CountedValues::Date(
            counts
                .map(|(v, n)| match v {
                    Value::Date(d) => (d, n),
                    v => panic!("{v:?} in a date column"),
                })
                .collect(),
        ),
        DataType::Float => CountedValues::Float(
            counts
                .map(|(v, n)| match v {
                    Value::Float(x) => (x, n),
                    v => panic!("{v:?} in a float column"),
                })
                .collect(),
        ),
        DataType::Str => CountedValues::Str(
            counts
                .map(|(v, n)| match v {
                    Value::Str(s) => (s, n),
                    v => panic!("{v:?} in a string column"),
                })
                .collect(),
        ),
    };
    ColumnCounts {
        values,
        ascending: true,
        nulls,
    }
}

/// The column holds no counts or counts equal to a fresh count.
fn check(col: &ColumnData) -> Result<(), TestCaseError> {
    if let Some(held) = col.value_counts() {
        prop_assert_eq!(&**held, &fresh(col));
    }
    Ok(())
}

/// Apply write `(kind, a, b)` to `col`, values drawn from `values`.
fn write(col: &mut ColumnData, values: &[Value; 5], (kind, a, b): (u8, usize, usize)) {
    let len = col.len();
    let value = |x: usize| match x % 6 {
        5 => Value::Null,
        i => values[i].clone(),
    };
    match kind % 5 {
        0 => col.push(value(a)),
        1 if len > 0 => col.set(a % len, value(b)).unwrap(),
        2 => {
            // Every `step`-th row from `a`, some past the end.
            let step = 1 + b % 3;
            let rows: Vec<usize> = (a % (len + 2)..len + 2).step_by(step).collect();
            let v = if b % 7 == 6 {
                wrong(col.data_type())
            } else {
                value(b)
            };
            let refused = v.data_type().is_some_and(|t| t != col.data_type());
            assert_eq!(
                col.set_rows(&rows, &v).is_err(),
                refused && rows.iter().any(|&r| r < len)
            );
        }
        3 => {
            let rows: Vec<usize> = (a % (len + 1)..len).step_by(1 + b % 4).collect();
            col.delete_rows(&rows);
        }
        _ => (),
    }
}

type Op = (u8, usize, usize);

/// One write sequence on a column of `data_type`. Per step, `count` says
/// whether to fill the counts first; a step whose kind is 7 clones the
/// column and writes to the copy or to the original.
fn run(data_type: DataType, ops: &[(Op, bool)]) -> Result<(), TestCaseError> {
    let values = pool(data_type);
    let mut col = ColumnData::new(data_type);
    for &(op, count) in ops {
        if count {
            col.value_counts_or_insert_with(|| fresh(&col));
        }
        if op.0 == 7 {
            let mut copy = col.clone();
            let held = col.value_counts().cloned();
            match (&held, copy.value_counts()) {
                (Some(a), Some(b)) => prop_assert!(Arc::ptr_eq(a, b), "a clone copied the counts"),
                (None, None) => (),
                _ => prop_assert!(false, "a clone differs in holding counts"),
            }
            let next = (op.1 as u8, op.2, op.1 ^ op.2);
            let (written, kept) = if op.2 % 2 == 0 {
                (&mut copy, &col)
            } else {
                (&mut col, &copy)
            };
            write(written, &values, next);
            // The side not written keeps the very counts it held.
            match (&held, kept.value_counts()) {
                (Some(a), Some(b)) => {
                    prop_assert!(Arc::ptr_eq(a, b), "an unwritten side lost its counts")
                }
                (None, None) => (),
                _ => prop_assert!(false, "an unwritten side changed its counts"),
            }
            check(&copy)?;
            check(&col)?;
            col = copy;
        } else {
            write(&mut col, &values, op);
        }
        check(&col)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

    #[test]
    fn counts_follow_every_write(
        data_type in 0usize..4,
        ops in prop::collection::vec(((0u8..8, 0usize..40, 0usize..40), 0u8..3), 0..60),
    ) {
        let data_type = [DataType::Int, DataType::Date, DataType::Float, DataType::Str][data_type];
        let ops: Vec<(Op, bool)> = ops.into_iter().map(|(op, count)| (op, count == 0)).collect();
        run(data_type, &ops)?;
    }
}

/// Every mutator forgets the counts, a write that changed nothing
/// included, and a clone's write leaves the original's in place.
#[test]
fn every_write_forgets_the_counts() {
    let writes: [fn(&mut ColumnData); 5] = [
        |c| c.push(Value::Int(1)),
        |c| c.set(0, Value::Int(1)).unwrap(),
        |c| assert_eq!(c.set_rows(&[0, 1], &Value::Null), Ok(2)),
        |c| c.delete_rows(&[1]),
        |c| assert!(c.set_rows(&[0], &Value::from("refused")).is_err()),
    ];
    for write in writes {
        let mut col = ColumnData::new(DataType::Int);
        for x in [1, 1, 2] {
            col.push(Value::Int(x));
        }
        col.value_counts_or_insert_with(|| fresh(&col));
        let made = Arc::clone(col.value_counts().unwrap());
        assert!(matches!(&made.values, CountedValues::Int(xs) if xs[..] == [(1, 2), (2, 1)]));
        let mut copy = col.clone();
        write(&mut copy);
        assert!(copy.value_counts().is_none());
        assert!(Arc::ptr_eq(col.value_counts().unwrap(), &made));
        write(&mut col);
        assert!(col.value_counts().is_none());
    }
}
