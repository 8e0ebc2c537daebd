//! String `=` and `<>` on dictionary codes against the byte compare.
//!
//! A string column whose codes a statistic build already made
//! (`ColumnData::str_codes`) answers `=`/`<>` through the numeric kernels
//! over its `u32` codes; one without codes compares bytes row by row. Both
//! must select exactly the rows the row-at-a-time `filter_table` selects,
//! on the first predicate of a scan and on a later one that narrows it,
//! through random runs of every write a table takes (insert with NULLs,
//! update, delete, append from a table with or without codes of its own),
//! and across the reset that drops a dictionary its column has outgrown.
//! Every constant of the pool is tried, the empty string a NULL pads with
//! among them, and one that no row ever held.

use executor::predicate::{filter_table, filter_table_columnar, CompiledPred};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use query::{BoundColumn, CmpOp, PredOp, SelectionPredicate};
use storage::{ColumnDef, DataType, Schema, Table, Value};

/// The strings written: few, so that rows share them, and the empty string
/// (what a NULL pads with) among them.
const POOL: [&str; 5] = ["", "a", "bb", "a\u{e9}", "zz"];

/// A constant no row holds.
const ABSENT: &str = "never written";

/// An empty table: `id`, then the nullable string column `s`.
fn table() -> Table {
    Table::new(
        "t",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("s", DataType::Str).nullable(),
        ]),
    )
}

fn string(pick: usize) -> Value {
    match pick % (POOL.len() + 1) {
        0 => Value::Null,
        k => Value::Str(POOL[k - 1].into()),
    }
}

fn insert(t: &mut Table, id: usize, s: Value) {
    t.insert(vec![Value::Int(id as i64), s]).expect("insert");
}

/// The same rows in a fresh table, whose column has no codes.
fn without_codes(t: &Table) -> Table {
    let mut copy = table();
    for r in 0..t.row_count() {
        copy.insert(vec![t.value(r, 0), t.value(r, 1)])
            .expect("insert");
    }
    copy
}

fn string_pred(op: CmpOp, s: &str) -> SelectionPredicate {
    SelectionPredicate {
        column: BoundColumn::new(0, 1),
        op: PredOp::Cmp(op, Value::Str(s.into())),
    }
}

/// Every `=`/`<>` against every pooled constant and the absent one selects
/// on `t` what `filter_table` selects, and what the same rows select without
/// codes: alone (the scan kernel) and behind a predicate that keeps every
/// row (the narrowing kernel). Runs on codes exactly when the column has
/// them.
fn check(t: &Table) -> Result<(), TestCaseError> {
    let plain = without_codes(t);
    let has_codes = t.column(1).made_str_codes("").is_some();
    prop_assert!(plain.column(1).made_str_codes("").is_none());
    let all = SelectionPredicate {
        column: BoundColumn::new(0, 0),
        op: PredOp::Cmp(CmpOp::Ge, Value::Int(0)),
    };
    for s in POOL.iter().chain([&ABSENT]) {
        for op in [CmpOp::Eq, CmpOp::Ne] {
            let pred = string_pred(op, s);
            prop_assert_eq!(CompiledPred::new(t, &pred).on_codes(), has_codes);
            prop_assert!(!CompiledPred::new(&plain, &pred).on_codes());
            let want = filter_table(t, &[&pred]);
            prop_assert_eq!(
                &filter_table_columnar(t, &[&pred]),
                &want,
                "{:?} {:?}",
                op,
                s
            );
            prop_assert_eq!(&filter_table_columnar(&plain, &[&pred]), &want);
            prop_assert_eq!(&filter_table_columnar(t, &[&all, &pred]), &want);
        }
    }
    Ok(())
}

type Op = (u8, usize, usize);

/// Apply one write to `t`; `donor` supplies the rows of an append.
fn write(t: &mut Table, (kind, a, b): Op, donor: &Table) {
    let len = t.row_count();
    match kind % 5 {
        0 => insert(t, len, string(b)),
        1 if len > 0 => {
            let rows: Vec<usize> = (a % len..len).step_by(1 + b % 3).collect();
            t.update_rows(&rows, 1, &string(a + b)).expect("update");
        }
        2 if len > 0 => {
            t.delete_rows((a % len..len).step_by(1 + b % 4).collect());
        }
        3 => t.append_table(donor).expect("append"),
        _ => {
            // A statistic build on the column makes its codes.
            t.column(1).str_codes();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn code_predicates_follow_every_write(
        ops in prop::collection::vec((0u8..5, 0usize..40, 0usize..40), 0..40),
        donor_codes in any::<bool>(),
    ) {
        let mut donor = table();
        for k in 0..7 {
            insert(&mut donor, k, string(k * 5 + 1));
        }
        if donor_codes {
            donor.column(1).str_codes();
        }
        let mut t = table();
        for op in ops {
            write(&mut t, op, &donor);
            check(&t)?;
        }
    }
}

#[test]
fn empty_string_never_matches_a_null() {
    // A NULL pads its cell with "", which has a code; the validity bitmap,
    // not the code, keeps it out of `= ''`, and out of `<> 'a'`.
    let mut t = table();
    for (id, s) in [Value::Null, "".into(), Value::Null, "a".into()]
        .into_iter()
        .enumerate()
    {
        insert(&mut t, id, s);
    }
    t.column(1).str_codes();
    let eq = string_pred(CmpOp::Eq, "");
    let ne = string_pred(CmpOp::Ne, "a");
    assert!(CompiledPred::new(&t, &eq).on_codes());
    assert_eq!(filter_table_columnar(&t, &[&eq]), [1]);
    assert_eq!(filter_table_columnar(&t, &[&ne]), [1]);
    // A constant outside the dictionary: nothing under `=`, every non-NULL
    // row under `<>`.
    let absent = |op| filter_table_columnar(&t, &[&string_pred(op, ABSENT)]);
    assert_eq!(absent(CmpOp::Eq), [] as [usize; 0]);
    assert_eq!(absent(CmpOp::Ne), [1, 3]);
}

#[test]
fn outgrown_dictionary_falls_back_to_bytes_until_made_again() {
    // 1 100 distinct strings coded, then deleted down to a few rows: the
    // dictionary keeps the deleted strings (a constant that only a deleted
    // row held matches nothing) until it outgrows the column and is
    // dropped. Until a build makes them again, the scan compares bytes.
    let mut t = table();
    for k in 0..1100 {
        insert(&mut t, k, Value::Str(format!("s{k}").into()));
    }
    t.column(1).str_codes();
    t.delete_rows((0..600).collect());
    let gone = string_pred(CmpOp::Eq, "s5");
    let kept = string_pred(CmpOp::Eq, "s700");
    assert!(CompiledPred::new(&t, &gone).on_codes());
    assert_eq!(filter_table_columnar(&t, &[&gone]), [] as [usize; 0]);
    assert_eq!(filter_table_columnar(&t, &[&kept]), [100]);
    t.delete_rows((0..480).collect());
    assert!(
        t.column(1).made_str_codes("").is_none(),
        "a reset dictionary"
    );
    assert!(!CompiledPred::new(&t, &kept).on_codes());
    assert_eq!(filter_table_columnar(&t, &[&gone]), [] as [usize; 0]);
    let last = string_pred(CmpOp::Ne, "s1099");
    let want: Vec<usize> = (0..19).collect();
    assert_eq!(filter_table_columnar(&t, &[&last]), want);
    t.column(1).str_codes();
    assert!(CompiledPred::new(&t, &last).on_codes());
    assert_eq!(filter_table_columnar(&t, &[&last]), want);
    assert_eq!(filter_table_columnar(&t, &[&gone]), [] as [usize; 0]);
}
