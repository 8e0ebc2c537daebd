//! A chained table (`Database::set_slices`, how a sharded cluster's
//! cross-shard read holds a partitioned table) executes exactly as one table
//! holding its slices' rows in order.
//!
//! Random tables are split into one to four slices, some of them empty, and
//! dictionary codes are made on some slices' string column and not on
//! others, so a string predicate runs on codes in one slice and on bytes in
//! the next. Every operator runs over the chain: seq and index scans with
//! seek and residual predicates; hash (both build sides), merge,
//! nested-loop (with an edge and as a product) and index nested-loop joins
//! (either side inner, with inner predicates), with both tables chained;
//! and the optimizer's own plans for GROUP BY, ORDER BY, aggregates and
//! `*`. Rows, their order and the `work` bits must equal those over the
//! concatenated table, which is built by inserting the rows one by one, and
//! planning on either database must give the same plan and cost bits.

use executor::{execute_plan, execute_plan_reference, ExecError};
use optimizer::{Operator, OptimizeOptions, Optimizer, PlanNode};
use proptest::prelude::*;
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::StatsCatalog;
use std::sync::Arc;
use storage::{ColumnDef, DataType, Database, Schema, StorageError, Table, TableId, Value};

const NAMES: [&str; 4] = ["", "alpha", "β-unicode", "zzz"];

/// One generated `emp` row: (grp, val, name index, date), each nullable.
type RowSpec = (Option<i64>, Option<f64>, Option<u8>, Option<i64>);

/// `emp` and `g` with no rows, an index on each one's join column.
fn empty_db() -> Database {
    let mut db = Database::new();
    let emp = db
        .create_table(
            "emp",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("grp", DataType::Int).nullable(),
                ColumnDef::new("val", DataType::Float).nullable(),
                ColumnDef::new("name", DataType::Str).nullable(),
                ColumnDef::new("d", DataType::Date).nullable(),
            ]),
        )
        .unwrap();
    let g = db
        .create_table(
            "g",
            Schema::new(vec![
                ColumnDef::new("gid", DataType::Int).nullable(),
                ColumnDef::new("label", DataType::Str),
            ]),
        )
        .unwrap();
    db.create_index("emp_grp", emp, vec![1]).unwrap();
    db.create_index("g_gid", g, vec![0]).unwrap();
    db
}

fn emp_rows(rows: &[RowSpec]) -> Vec<Vec<Value>> {
    let to = |v: Option<Value>| v.unwrap_or(Value::Null);
    rows.iter()
        .enumerate()
        .map(|(i, (grp, val, name, date))| {
            vec![
                Value::Int(i as i64),
                to(grp.map(Value::Int)),
                to(val.map(Value::Float)),
                to(name.map(|n| Value::Str(NAMES[n as usize % NAMES.len()].into()))),
                to(date.map(|d| Value::Date(d as i32))),
            ]
        })
        .collect()
}

fn g_rows() -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (-1i64..4)
        .map(|gid| vec![Value::Int(gid), Value::Str(format!("g{gid}").into())])
        .collect();
    rows.push(vec![Value::Null, "null-gid".into()]);
    rows.push(vec![Value::Int(1), "alpha".into()]);
    rows
}

/// `rows` cut into slices of table `id`'s schema at `cuts` (clamped,
/// ascending), codes made on the string column `str_col` of slice `s`
/// where `coded[s]` says so.
fn slices(
    db: &Database,
    id: TableId,
    rows: &[Vec<Value>],
    cuts: &[usize],
    coded: &[bool],
    str_col: usize,
) -> Vec<Arc<Table>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
    bounds.sort_unstable();
    bounds.insert(0, 0);
    bounds.push(rows.len());
    bounds
        .windows(2)
        .enumerate()
        .map(|(s, w)| {
            let mut t = db.table(id).empty_like();
            for row in &rows[w[0]..w[1]] {
                t.insert(row.clone()).unwrap();
            }
            if coded.get(s).copied().unwrap_or(false) {
                t.column(str_col).str_codes();
            }
            Arc::new(t)
        })
        .collect()
}

/// The concatenated database and the chained one over the same rows.
fn databases(
    rows: &[RowSpec],
    emp_cuts: &[usize],
    g_cuts: &[usize],
    coded: &[bool],
) -> (Database, Database) {
    let (emp_rows, g_rows) = (emp_rows(rows), g_rows());
    let mut whole = empty_db();
    let mut chained = empty_db();
    for (name, rows, cuts, str_col) in [("emp", &emp_rows, emp_cuts, 3), ("g", &g_rows, g_cuts, 1)]
    {
        let id = whole.table_id(name).unwrap();
        for row in rows.iter() {
            whole.table_mut(id).insert(row.clone()).unwrap();
        }
        let parts = slices(&chained, id, rows, cuts, coded, str_col);
        chained.set_slices(id, parts).unwrap();
    }
    (whole, chained)
}

fn bind(db: &Database, sql: &str) -> BoundSelect {
    match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
        BoundStatement::Select(q) => q,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

/// Statements the optimizer plans: every clause and aggregate, string
/// predicates on codes and bytes, and joins.
const QUERIES: &[&str] = &[
    "SELECT * FROM emp",
    "SELECT * FROM emp WHERE name = 'alpha'",
    "SELECT id, name FROM emp WHERE name <> 'zzz' AND grp >= 0",
    "SELECT id FROM emp WHERE name = 'never written'",
    "SELECT id, d FROM emp WHERE val BETWEEN -1.0 AND 1.0 ORDER BY d DESC",
    "SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(name), MAX(d) FROM emp GROUP BY grp",
    "SELECT name, COUNT(val) FROM emp GROUP BY name ORDER BY name",
    "SELECT COUNT(*), MIN(val), MAX(name) FROM emp WHERE grp = 1",
    "SELECT name, grp, id FROM emp ORDER BY name, grp DESC",
    "SELECT e.id, g.label FROM emp e, g WHERE e.grp = g.gid",
    "SELECT g.label, COUNT(*) FROM emp e, g WHERE e.grp = g.gid AND e.name = g.label GROUP BY g.label",
    "SELECT * FROM emp e, g WHERE e.grp = g.gid AND g.label <> 'g1' ORDER BY e.id",
];

fn leaf(op: Operator) -> PlanNode {
    PlanNode::leaf(op, 1.0, 1.0)
}

fn node(op: Operator, children: Vec<PlanNode>) -> PlanNode {
    PlanNode {
        op,
        children,
        est_rows: 1.0,
        est_cost: 1.0,
    }
}

/// Hand-made plans the optimizer may not pick, with the statement each
/// runs: an index scan with seek and residual predicates, and every join
/// operator over `emp e, g` on edge 0 (the selection, where there is one,
/// at ordinal 0).
fn forced_plans(db: &Database) -> Vec<(&'static str, PlanNode)> {
    let (emp, g) = (db.table_id("emp").unwrap(), db.table_id("g").unwrap());
    let scan = |rel: usize| {
        leaf(Operator::SeqScan {
            rel,
            table: [emp, g][rel],
            preds: vec![],
        })
    };
    let inl = |outer: usize, preds: Vec<usize>| {
        let inner = 1 - outer;
        node(
            Operator::IndexNLJoin {
                edges: vec![0],
                inner_rel: inner,
                inner_table: [emp, g][inner],
                index: ["emp_grp", "g_gid"][inner].to_string(),
                inner_preds: preds,
            },
            vec![scan(outer)],
        )
    };
    let join = "SELECT e.id, e.name, g.label FROM emp e, g WHERE e.grp = g.gid";
    let product = "SELECT e.id, g.label FROM emp e, g";
    vec![
        (
            "SELECT * FROM emp WHERE grp >= 1 AND name = 'alpha'",
            leaf(Operator::IndexScan {
                rel: 0,
                table: emp,
                index: "emp_grp".to_string(),
                seek_preds: vec![0],
                residual: vec![1],
            }),
        ),
        (
            join,
            node(
                Operator::HashJoin { edges: vec![0] },
                vec![scan(0), scan(1)],
            ),
        ),
        (
            join,
            node(
                Operator::HashJoin { edges: vec![0] },
                vec![scan(1), scan(0)],
            ),
        ),
        (
            join,
            node(
                Operator::MergeJoin { edges: vec![0] },
                vec![scan(0), scan(1)],
            ),
        ),
        (
            join,
            node(
                Operator::NestedLoopJoin { edges: vec![0] },
                vec![scan(1), scan(0)],
            ),
        ),
        (
            product,
            node(
                Operator::NestedLoopJoin { edges: vec![] },
                vec![scan(0), scan(1)],
            ),
        ),
        (join, inl(0, vec![])),
        (join, inl(1, vec![])),
        (
            "SELECT e.id, g.label FROM emp e, g WHERE e.grp = g.gid AND g.label <> 'g1'",
            inl(0, vec![0]),
        ),
        (
            "SELECT e.id, e.d FROM emp e, g WHERE e.grp = g.gid AND e.name = 'alpha'",
            inl(1, vec![0]),
        ),
    ]
}

/// Same rows in the same order, and the same `work` bits.
fn assert_same(whole: &Database, chained: &Database, sql: &str, plan: &PlanNode) {
    let query = bind(whole, sql);
    let params = &Optimizer::default().params;
    let a = execute_plan(whole, &query, plan, params).unwrap();
    let b = execute_plan(chained, &bind(chained, sql), plan, params).unwrap();
    assert_eq!(a.rows, b.rows, "{}: {sql}", plan.op.name());
    assert_eq!(
        a.work.to_bits(),
        b.work.to_bits(),
        "{}: {sql}",
        plan.op.name()
    );
}

fn check(rows: &[RowSpec], emp_cuts: &[usize], g_cuts: &[usize], coded: &[bool]) {
    let (whole, chained) = databases(rows, emp_cuts, g_cuts, coded);
    let emp = whole.table_id("emp").unwrap();
    assert_eq!(chained.slices(emp).row_count(), rows.len());
    let catalog = StatsCatalog::new();
    let plan = |db: &Database, sql: &str| {
        let options = OptimizeOptions::default();
        let query = bind(db, sql);
        Optimizer::default()
            .optimize(db, &query, catalog.full_view(), &options)
            .unwrap()
    };
    for sql in QUERIES {
        let (a, b) = (plan(&whole, sql), plan(&chained, sql));
        assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan), "{sql}");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{sql}");
        assert_same(&whole, &chained, sql, &a.plan);
    }
    for (sql, plan) in forced_plans(&whole) {
        assert_same(&whole, &chained, sql, &plan);
    }
}

#[test]
fn one_table_in_four_slices_with_and_without_codes() {
    let rows: Vec<RowSpec> = (0..40i64)
        .map(|i| {
            let live = i % 5 != 0;
            (
                live.then_some(i % 4 - 1),
                live.then_some(i as f64 / 8.0 - 2.0),
                live.then_some((i % 4) as u8),
                live.then_some(18_000 + i % 9),
            )
        })
        .collect();
    check(&rows, &[0, 13, 13], &[2, 5], &[true, false, true, false]);
}

/// The reference interpreter reads whole tables (`Database::try_table`), so
/// over a chain it fails with a typed error; it never answers from one
/// slice's rows.
#[test]
fn the_reference_interpreter_refuses_a_chain() {
    let rows = [(Some(1), None, Some(1), None); 5];
    let (whole, chained) = databases(&rows, &[2], &[3], &[]);
    let emp = whole.table_id("emp").unwrap();
    let sql = "SELECT id FROM emp";
    let scan = leaf(Operator::SeqScan {
        rel: 0,
        table: emp,
        preds: vec![],
    });
    let query = bind(&chained, sql);
    let reference = execute_plan_reference(&whole, &query, &scan).unwrap();
    assert_eq!(reference.rows.len(), 5);
    assert_eq!(
        execute_plan_reference(&chained, &query, &scan).unwrap_err(),
        ExecError::Storage(StorageError::ChainedTable("emp".into()))
    );
    assert_same(&whole, &chained, sql, &scan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chained_tables_execute_as_their_concatenation(
        rows in prop::collection::vec(
            (
                prop::option::of(-2i64..4),
                prop::option::of(-2.0f64..2.0),
                prop::option::of(0u8..4),
                prop::option::of(18_000i64..18_400),
            ),
            0..40,
        ),
        emp_cuts in prop::collection::vec(0usize..40, 0..4),
        g_cuts in prop::collection::vec(0usize..7, 0..4),
        coded in prop::collection::vec(any::<bool>(), 4..5),
    ) {
        check(&rows, &emp_cuts, &g_cuts, &coded);
    }
}
