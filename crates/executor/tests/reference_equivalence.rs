//! Differential equivalence suite: the columnar engine against the
//! row-at-a-time reference interpreter over adversarial table shapes.
//!
//! Every case asserts, with tracing switched on:
//!
//! * `ExecOutput.rows` equal the reference engine's,
//! * `work` is bit-identical,
//! * the `exec.query` span reports the reference's output cardinality, and
//!   the span tree (canonical signature, Float args by bit pattern) repeats
//!   exactly on a second run.
//!
//! Tables cover the shapes a batch engine can get wrong: empty, single-row,
//! sizes straddling the three block boundaries in the engine (the kernels'
//! 512-row null-mask chunk; the 1 024-tuple `FP_BLOCK` in which a join's
//! probe side and a GROUP BY's input are fingerprinted, crossed up to four
//! times; and the projection block, which holds a fixed number of cells and
//! so is straddled at a 1-column and at a 34-column projection, its row
//! count read off the `exec.project` span), NULL-heavy columns, and the
//! adversarial generator's skewed/correlated/star regimes.
//!
//! Join keys are fingerprinted from their typed payloads, a column at a
//! time, and a single numeric key's fingerprint is the key itself. A key
//! matrix holds that path to the reference on every join operator: `Int`,
//! `Date`, `Float` (`0.0` beside `-0.0`) and `Str` keys, two- and
//! three-column keys, NULL keys on either side, and long runs of duplicates,
//! which pin the output order. Mixed-type keys (`Int = Date`, `Int = Float`)
//! hold values `ValueRef` equality calls equal, and must return no rows.
//!
//! ORDER BY sorts on typed keys read once per tuple, and GROUP BY assigns
//! groups through an open-addressed fingerprint table. A sort and group
//! matrix holds both to the reference: every key type in both directions
//! with NULLs, long runs of ties, the float classes, dates stored past
//! `i32`, strings sharing an 8-byte prefix, several sort and group columns,
//! a NULL group beside an `Int` key equal to the NULL fingerprint code, and
//! a hundred thousand groups.

use datagen::{adversarial_queries, build_adversarial, AdversarialConfig, Regime};
use executor::predicate::filter_table;
use executor::{
    execute_plan, execute_plan_observed, execute_plan_reference, run_statement, StatementOutcome,
};
use obsv::trace::canonical_signature;
use optimizer::{Operator, OptimizeOptions, Optimizer, PlanNode};
use proptest::prelude::*;
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, Value};

fn bind(db: &Database, sql: &str) -> BoundSelect {
    match bind_statement(db, &parse_statement(sql).expect("parses")).expect("binds") {
        BoundStatement::Select(q) => q,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

/// Run `sql` on both engines and assert the whole equivalence contract.
fn assert_equivalent(db: &Database, sql: &str) {
    let q = bind(db, sql);
    let opt = Optimizer::default();
    let cat = StatsCatalog::new();
    let plan = opt
        .optimize(db, &q, cat.full_view(), &OptimizeOptions::default())
        .expect("optimizes")
        .plan;
    let reference = execute_plan_reference(db, &q, &plan).expect("reference");

    let observed = || {
        let tracer = obsv::Tracer::enabled();
        let out = execute_plan_observed(db, &q, &plan, &tracer).expect("columnar");
        (out, tracer.flush())
    };

    let (out, events) = observed();
    assert_eq!(out.rows, reference.rows, "rows vs reference: {sql}");
    assert_eq!(
        out.work.to_bits(),
        reference.work.to_bits(),
        "work vs reference: {sql}"
    );
    let root = events
        .iter()
        .find(|e| e.kind == obsv::EventKind::End && e.name == "exec.query")
        .expect("exec.query span");
    let truth = obsv::ArgValue::Int(reference.rows.len() as i64);
    assert!(
        root.args
            .iter()
            .any(|(k, v)| *k == "rows_out" && *v == truth),
        "exec.query must report the reference's {} rows: {sql}",
        reference.rows.len()
    );

    let (_, again) = observed();
    assert_eq!(
        canonical_signature(&events),
        canonical_signature(&again),
        "span tree on rerun: {sql}"
    );
}

/// The fixed query set over the generated `emp`/`g` pair: single-predicate
/// scans, conjunctions, a hash join, grouping with NULL groups, and ORDER
/// BY.
const QUERIES: [&str; 6] = [
    "SELECT * FROM emp WHERE grp = 2",
    "SELECT * FROM emp WHERE val < 0.5",
    "SELECT id, grp FROM emp WHERE grp <> 1 AND val >= -0.25",
    "SELECT * FROM emp WHERE id BETWEEN 5 AND 20",
    "SELECT * FROM emp e, g WHERE e.grp = g.gid",
    "SELECT grp, COUNT(*), SUM(val) FROM emp GROUP BY grp ORDER BY grp",
];

const NAMES: [&str; 4] = ["", "alpha", "β-unicode", "zzz"];

/// One generated `emp` row: (grp, val, name index, date), each nullable.
type RowSpec = (Option<i64>, Option<f64>, Option<u8>, Option<i64>);

/// Build the two-table fixture from explicit row tuples; `None` becomes
/// NULL.
fn fixture(rows: &[RowSpec]) -> Database {
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
        .expect("emp");
    for (i, (grp, val, name, date)) in rows.iter().enumerate() {
        let to = |v: Option<Value>| v.unwrap_or(Value::Null);
        db.table_mut(emp)
            .insert(vec![
                Value::Int(i as i64),
                to(grp.map(Value::Int)),
                to(val.map(Value::Float)),
                to(name.map(|n| Value::Str(NAMES[n as usize % NAMES.len()].into()))),
                to(date.map(|d| Value::Date(d as i32))),
            ])
            .expect("insert");
    }
    let g = db
        .create_table(
            "g",
            Schema::new(vec![
                ColumnDef::new("gid", DataType::Int).nullable(),
                ColumnDef::new("label", DataType::Str),
            ]),
        )
        .expect("g");
    for gid in -1i64..4 {
        db.table_mut(g)
            .insert(vec![Value::Int(gid), Value::Str(format!("g{gid}").into())])
            .expect("insert");
    }
    // One NULL join key on the build side: NULL keys must never join.
    db.table_mut(g)
        .insert(vec![Value::Null, Value::Str("null-gid".into())])
        .expect("insert");
    db
}

/// Deterministic splitmix64 stream for the fixed-size edge cases.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seeded_rows(n: usize, seed: u64) -> Vec<RowSpec> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let mut opt = |width: u64| {
                let v = splitmix(&mut s);
                // NULL-heavy: ~1 in 4 entries per column is NULL.
                (!v.is_multiple_of(4)).then_some((v >> 8) % width)
            };
            (
                opt(6).map(|v| v as i64 - 2),
                opt(1000).map(|v| v as f64 / 250.0 - 2.0),
                opt(NAMES.len() as u64).map(|v| v as u8),
                opt(400).map(|v| v as i64 + 18_000),
            )
        })
        .collect()
}

/// The rows per projection block the engine chose for `sql`, as its
/// `exec.project` span records them.
fn block_rows(db: &Database, sql: &str) -> usize {
    let q = bind(db, sql);
    let opt = Optimizer::default();
    let plan = opt
        .optimize(
            db,
            &q,
            StatsCatalog::new().full_view(),
            &OptimizeOptions::default(),
        )
        .expect("optimizes")
        .plan;
    let tracer = obsv::Tracer::enabled();
    execute_plan_observed(db, &q, &plan, &tracer).expect("columnar");
    let events = tracer.flush();
    let project = events
        .iter()
        .find(|e| e.kind == obsv::EventKind::End && e.name == "exec.project")
        .expect("exec.project span");
    project
        .args
        .iter()
        .find_map(|(k, v)| match (k, v) {
            (&"block_rows", obsv::ArgValue::Int(n)) => Some(*n as usize),
            _ => None,
        })
        .expect("block_rows arg")
}

/// Columns of the wide fixture: at least the 34 a `steady-complex`
/// projection carries.
const WIDE_COLS: usize = 34;

/// A `WIDE_COLS`-column table `wide` of `n` NULL-heavy rows cycling through
/// the four column types, beside the fixture's `emp` and `g`.
fn wide_fixture(n: usize, seed: u64) -> Database {
    let mut db = fixture(&seeded_rows(1, seed));
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Date,
    ];
    let schema = (0..WIDE_COLS)
        .map(|c| ColumnDef::new(format!("c{c}"), types[c % 4]).nullable())
        .collect();
    let wide = db.create_table("wide", Schema::new(schema)).expect("wide");
    let mut s = seed;
    for _ in 0..n {
        let row = (0..WIDE_COLS)
            .map(|c| {
                let v = splitmix(&mut s);
                if v.is_multiple_of(5) {
                    return Value::Null;
                }
                let k = (v >> 8) % 6;
                match c % 4 {
                    0 => Value::Int(k as i64 - 2),
                    1 => Value::Float(k as f64 / 4.0),
                    2 => Value::Str(NAMES[k as usize % NAMES.len()].into()),
                    _ => Value::Date(18_000 + k as i32),
                }
            })
            .collect();
        db.table_mut(wide).insert(row).expect("insert");
    }
    db
}

#[test]
fn empty_single_row_and_block_boundary_sizes() {
    // Degenerate and small tables, then sizes straddling the kernels'
    // 512-row null-mask chunk and the 1 024-tuple fingerprint block (of the
    // GROUP BY's input, and of `emp` on the probe side of every join plan),
    // and sizes running over several of each.
    for n in [
        0usize, 1, 15, 16, 17, 33, 511, 512, 513, 1023, 1024, 1025, 2049, 4095, 4096, 4097,
    ] {
        let db = fixture(&seeded_rows(n, n as u64 + 7));
        for sql in QUERIES {
            assert_equivalent(&db, sql);
        }
        assert_join_plans_equivalent(&db, QUERIES[4], ["emp", "g"]);
    }
    // The projection block holds a fixed number of cells, so its row count
    // depends on the width: straddle it at one column and at a
    // steady-complex width, alone and behind a join.
    let one = "SELECT id FROM emp";
    let wide = "SELECT * FROM wide";
    let joined = "SELECT * FROM wide w, g WHERE w.c0 = g.gid";
    let (block, wide_block) = (
        block_rows(&fixture(&seeded_rows(1, 7)), one),
        block_rows(&wide_fixture(1, 7), wide),
    );
    assert!(
        wide_block * WIDE_COLS <= block && block < (wide_block + 1) * WIDE_COLS,
        "one cell budget: {block} rows of 1 column, {wide_block} of {WIDE_COLS}"
    );
    for n in [block - 1, block, block + 1, 2 * block + 1] {
        let db = fixture(&seeded_rows(n, n as u64 + 7));
        assert_equivalent(&db, one);
        assert_equivalent(&db, "SELECT id FROM emp e, g WHERE e.grp = g.gid");
    }
    for n in [
        wide_block - 1,
        wide_block,
        wide_block + 1,
        2 * wide_block + 1,
    ] {
        let db = wide_fixture(n, n as u64 + 7);
        assert_equivalent(&db, wide);
        assert_equivalent(&db, joined);
    }
}

/// The join-key matrix's key domains. They overlap across types on
/// purpose: `ValueRef` equality calls `Int(18000)` equal to `Date(18000)`
/// and `Int(2)` equal to `Float(2.0)`, yet as join keys they never match.
const INTS: [i64; 4] = [2, 18_000, 18_001, -5];
const DATES: [i32; 4] = [18_000, 18_001, 18_002, 18_003];
const FLOATS: [f64; 4] = [0.0, -0.0, 2.0, 18_000.0];
const STRS: [&str; 4] = ["", "alpha", "alpha ", "β-unicode"];

/// Two tables `l` and `r` with one nullable key column per type (`i`, `d`,
/// `f`, `s`) and a second integer key `j`. Keys come in runs of `run`
/// duplicates, and about one key in six is NULL.
fn key_table(db: &mut Database, name: &str, n: usize, run: usize, seed: u64) {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("i", DataType::Int).nullable(),
        ColumnDef::new("d", DataType::Date).nullable(),
        ColumnDef::new("f", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
        ColumnDef::new("j", DataType::Int).nullable(),
    ]);
    let t = db.create_table(name, schema).expect("key table");
    let mut s = seed;
    for row in 0..n {
        let k = row / run % 4;
        let mut key = |v: Value| {
            if splitmix(&mut s).is_multiple_of(6) {
                Value::Null
            } else {
                v
            }
        };
        let values = vec![
            Value::Int(row as i64),
            key(Value::Int(INTS[k])),
            key(Value::Date(DATES[k])),
            key(Value::Float(FLOATS[k])),
            key(Value::Str(STRS[k].into())),
            key(Value::Int((row / 3 % 2) as i64)),
        ];
        db.table_mut(t).insert(values).expect("insert");
    }
}

/// Every physical join over relations 0 and 1 (tables `names`) on join
/// edge 0: a hash join with either side building, the merge and nested-loop
/// joins (the same equi-join path), and the index nested-loop join with
/// either side as the inner relation.
fn join_plans(db: &Database, names: [&str; 2]) -> Vec<PlanNode> {
    let scan = |rel: usize, name: &str| {
        PlanNode::leaf(
            Operator::SeqScan {
                rel,
                table: db.table_id(name).expect("table"),
                preds: vec![],
            },
            1.0,
            1.0,
        )
    };
    let join = |op: Operator, children: Vec<PlanNode>| PlanNode {
        op,
        children,
        est_rows: 1.0,
        est_cost: 1.0,
    };
    let inl = |outer: usize, inner: usize, name: &str| {
        join(
            Operator::IndexNLJoin {
                edges: vec![0],
                inner_rel: inner,
                inner_table: db.table_id(name).expect("table"),
                index: String::new(),
                inner_preds: vec![],
            },
            vec![scan(outer, names[outer])],
        )
    };
    let [l, r] = names;
    vec![
        join(
            Operator::HashJoin { edges: vec![0] },
            vec![scan(0, l), scan(1, r)],
        ),
        join(
            Operator::HashJoin { edges: vec![0] },
            vec![scan(1, r), scan(0, l)],
        ),
        join(
            Operator::MergeJoin { edges: vec![0] },
            vec![scan(0, l), scan(1, r)],
        ),
        join(
            Operator::NestedLoopJoin { edges: vec![0] },
            vec![scan(1, r), scan(0, l)],
        ),
        inl(0, 1, r),
        inl(1, 0, l),
    ]
}

/// Run `sql`, a join of tables `names` on edge 0, under every plan of
/// [`join_plans`] on both engines: rows and work bits must agree. Returns
/// each plan's operator name and row count.
fn assert_join_plans_equivalent(
    db: &Database,
    sql: &str,
    names: [&str; 2],
) -> Vec<(&'static str, usize)> {
    let q = bind(db, sql);
    join_plans(db, names)
        .iter()
        .map(|plan| {
            let reference = execute_plan_reference(db, &q, plan).expect("reference");
            let out = execute_plan(db, &q, plan, &Optimizer::default().params).expect("columnar");
            let op = plan.op.name();
            assert_eq!(out.rows, reference.rows, "{op}: {sql}");
            assert_eq!(out.work.to_bits(), reference.work.to_bits(), "{op}: {sql}");
            (op, out.row_count())
        })
        .collect()
}

#[test]
fn join_key_type_matrix_matches_reference() {
    // Same-typed keys of every type, two-column keys, NULL keys on both
    // sides and long runs of duplicates (which pin the output order): rows
    // and work bits against the reference on every join operator, both
    // build sides, and the optimizer's own plan.
    let mut db = Database::new();
    key_table(&mut db, "l", 300, 11, 5);
    key_table(&mut db, "r", 120, 7, 6);
    let same_typed = [
        "SELECT * FROM l, r WHERE l.i = r.i",
        "SELECT * FROM l, r WHERE l.d = r.d",
        "SELECT * FROM l, r WHERE l.f = r.f",
        "SELECT * FROM l, r WHERE l.s = r.s",
        "SELECT * FROM l, r WHERE l.i = r.i AND l.j = r.j",
        "SELECT * FROM l, r WHERE l.s = r.s AND l.f = r.f",
        "SELECT * FROM l, r WHERE l.d = r.d AND l.s = r.s AND l.j = r.j",
    ];
    let mixed = [
        "SELECT * FROM l, r WHERE l.i = r.d",
        "SELECT * FROM l, r WHERE l.i = r.f",
        "SELECT * FROM l, r WHERE l.d = r.i",
        "SELECT * FROM l, r WHERE l.f = r.i AND l.j = r.j",
    ];
    for sql in same_typed.iter().chain(&mixed) {
        assert_equivalent(&db, sql);
        for (op, rows) in assert_join_plans_equivalent(&db, sql, ["l", "r"]) {
            if mixed.contains(sql) {
                assert_eq!(rows, 0, "{op}: mixed-type keys matched: {sql}");
            } else {
                assert!(rows > 0, "{op}: no key matched: {sql}");
            }
        }
    }
}

/// The sort/group matrix's key pools, one per payload type, each holding
/// the values a typed key can get wrong: the integer extremes and the
/// executor's NULL fingerprint code; dates stored as integers past `i32`
/// (which read back narrowed: `(1 << 40) + 5` is the date 5); every float
/// class `total_cmp` orders; strings that share their first eight bytes.
const SORT_INTS: [i64; 6] = [i64::MIN, -1, 0, 7, i64::MAX, NULL_CODE];
const SORT_FLOATS: [f64; 7] = [
    -0.0,
    0.0,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
];
const SORT_STRS: [&str; 6] = ["", "prefix00", "prefix00a", "prefix00b", "prefix01", "β"];

/// The code a NULL grouping component folds into its fingerprint
/// (`NULL_CODE` in `exec.rs`), as an `Int` key.
const NULL_CODE: i64 = 0x2545_F491_4F6C_DD1D;

/// The date pool, as inserted: some as integers past `i32`.
fn sort_dates() -> [Value; 6] {
    [
        Value::Int((1 << 40) + 5),
        Value::Date(5),
        Value::Date(-3),
        Value::Date(i32::MAX),
        Value::Date(i32::MIN),
        Value::Int(-(1 << 35) - 7),
    ]
}

/// A table `o` of `n` rows: `id`, then one nullable key column per type
/// (`i`, `d`, `f`, `s`) and a two-valued `j`. Keys come from the pools
/// above in runs of `run` equal values, so ties are long and the `id`
/// column shows whether the sort kept them in input order; about one key in
/// six is NULL.
fn sort_table(n: usize, run: usize, seed: u64) -> Database {
    let mut db = Database::new();
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("i", DataType::Int).nullable(),
        ColumnDef::new("d", DataType::Date).nullable(),
        ColumnDef::new("f", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
        ColumnDef::new("j", DataType::Int).nullable(),
    ]);
    let t = db.create_table("o", schema).expect("o");
    let mut state = seed;
    for row in 0..n {
        let mut pick = |len: usize| {
            let v = splitmix(&mut state);
            (!v.is_multiple_of(6)).then_some((row / run + (v >> 8) as usize % 2) % len)
        };
        let values = vec![
            Value::Int(row as i64),
            pick(SORT_INTS.len()).map_or(Value::Null, |k| Value::Int(SORT_INTS[k])),
            pick(6).map_or(Value::Null, |k| sort_dates()[k].clone()),
            pick(SORT_FLOATS.len()).map_or(Value::Null, |k| Value::Float(SORT_FLOATS[k])),
            pick(SORT_STRS.len()).map_or(Value::Null, |k| Value::Str(SORT_STRS[k].into())),
            pick(2).map_or(Value::Null, |k| Value::Int(k as i64)),
        ];
        db.table_mut(t).insert(values).expect("insert");
    }
    db
}

/// ORDER BY on one column of every type, both directions, and on two and
/// three columns with mixed directions; every projection carries `id`, so
/// the order of ties shows.
fn order_by_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for c in ["i", "d", "f", "s", "j"] {
        for dir in ["", " ASC", " DESC"] {
            queries.push(format!("SELECT id, {c} FROM o ORDER BY {c}{dir}"));
        }
    }
    queries.extend(
        [
            "SELECT * FROM o ORDER BY j, s DESC",
            "SELECT * FROM o ORDER BY s DESC, f",
            "SELECT * FROM o WHERE j = 1 ORDER BY d DESC, i",
            "SELECT * FROM o ORDER BY s DESC, f, i DESC",
            "SELECT id, j FROM o ORDER BY j DESC, d DESC, f",
        ]
        .map(String::from),
    );
    queries
}

/// GROUP BY on one column of every type, on two columns (NULLs on either
/// side), on none, and with an ORDER BY over the groups.
fn group_by_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for c in ["i", "d", "f", "s", "j"] {
        queries.push(format!(
            "SELECT {c}, COUNT(*), MIN(id), MAX(id), SUM(f) FROM o GROUP BY {c}"
        ));
    }
    queries.extend(
        [
            "SELECT i, s, COUNT(*), MAX(id) FROM o GROUP BY i, s",
            "SELECT s, f, COUNT(*) FROM o GROUP BY s, f",
            "SELECT d, j, MIN(s) FROM o GROUP BY d, j ORDER BY d DESC",
            "SELECT j, s, COUNT(*) FROM o GROUP BY j, s ORDER BY s DESC, j",
            "SELECT COUNT(*), SUM(f), MIN(s) FROM o",
            "SELECT COUNT(*) FROM o WHERE id < 0",
        ]
        .map(String::from),
    );
    queries
}

#[test]
fn sort_and_group_type_matrix_matches_reference() {
    // Keys of every type with NULLs, runs of equal keys, the float classes,
    // dates past `i32` and strings sharing an 8-byte prefix: a small table,
    // one with long runs, and sizes straddling the fingerprint block
    // (`FP_BLOCK`, 1 024 tuples) in which GROUP BY inputs are fingerprinted.
    for (n, run) in [
        (1, 1),
        (40, 1),
        (300, 23),
        (1023, 5),
        (1024, 64),
        (1025, 3),
        (2049, 200),
    ] {
        let db = sort_table(n, run, n as u64 + 3);
        for sql in order_by_queries().iter().chain(&group_by_queries()) {
            assert_equivalent(&db, sql);
        }
    }
}

#[test]
fn group_keys_tell_null_from_the_null_code() {
    // An `Int` key equal to the code a NULL folds into its fingerprint
    // fingerprints like a NULL; exact keys skip verification, but the NULL
    // flag still keeps the two groups apart.
    let mut db = Database::new();
    let schema = Schema::new(vec![
        ColumnDef::new("g", DataType::Int).nullable(),
        ColumnDef::new("h", DataType::Int).nullable(),
    ]);
    let t = db.create_table("t", schema).expect("t");
    let keys = [
        None,
        Some(NULL_CODE),
        None,
        Some(NULL_CODE),
        Some(1),
        None,
        Some(NULL_CODE),
    ];
    for (r, g) in keys.iter().enumerate() {
        let h = (r % 2 == 0 && r < 6).then_some(NULL_CODE);
        let row = [*g, h].map(|k| k.map_or(Value::Null, Value::Int));
        db.table_mut(t).insert(row.to_vec()).expect("insert");
    }
    // A NULL written over a value keeps the value as its padding: row 6
    // becomes (NULL, NULL) with the code in its payload, beside the
    // (code, NULL) rows 1 and 3 of the same fingerprint and NULL flag.
    db.table_mut(t)
        .update_rows(&[6], 0, &Value::Null)
        .expect("update");
    for (sql, groups) in [
        ("SELECT g, COUNT(*) FROM t GROUP BY g", 3),
        ("SELECT g, h, COUNT(*) FROM t GROUP BY g, h", 4),
        (
            "SELECT h, g, COUNT(*) FROM t GROUP BY h, g ORDER BY h DESC",
            4,
        ),
    ] {
        assert_equivalent(&db, sql);
        let q = bind(&db, sql);
        let plan = Optimizer::default()
            .optimize(
                &db,
                &q,
                StatsCatalog::new().full_view(),
                &OptimizeOptions::default(),
            )
            .expect("optimizes")
            .plan;
        let out = execute_plan(&db, &q, &plan, &Optimizer::default().params).expect("columnar");
        assert_eq!(out.row_count(), groups, "{sql}: {:?}", out.rows);
    }
}

#[test]
fn group_table_grows_past_a_hundred_thousand_groups() {
    // Every key distinct, so the group table doubles many times over: an
    // exact `Int` key, a verified string key, and both together.
    let n = 100_003;
    let mut db = Database::new();
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("s", DataType::Str),
    ]);
    let t = db.create_table("big", schema).expect("big");
    for k in 0..n {
        let row = vec![Value::Int(k * 7919 % n), Value::Str(format!("k{k}").into())];
        db.table_mut(t).insert(row).expect("insert");
    }
    for sql in [
        "SELECT k, COUNT(*) FROM big GROUP BY k",
        "SELECT s, COUNT(*) FROM big GROUP BY s",
        "SELECT k, s, COUNT(*) FROM big GROUP BY k, s ORDER BY k DESC",
    ] {
        assert_equivalent(&db, sql);
    }
}

#[test]
fn adversarial_regimes_match_reference() {
    // The estimation-quality generator's worst-case data shapes (skew,
    // correlation with NULLs, star joins): rows and work bits.
    let cfg = AdversarialConfig {
        seed: 11,
        ..AdversarialConfig::tiny()
    };
    for regime in [Regime::Zipf, Regime::Correlated, Regime::Star] {
        let db = build_adversarial(&cfg, regime);
        let opt = Optimizer::default();
        let cat = StatsCatalog::new();
        for stmt in adversarial_queries(&db, &cfg, regime, 4) {
            let Ok(BoundStatement::Select(q)) =
                bind_statement(&db, &query::Statement::Select(stmt))
            else {
                continue;
            };
            let Ok(optimized) = opt.optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
            else {
                continue;
            };
            let reference = execute_plan_reference(&db, &q, &optimized.plan).expect("reference");
            let out = execute_plan(&db, &q, &optimized.plan, &opt.params).expect("columnar");
            assert_eq!(out.rows, reference.rows, "{regime}");
            assert_eq!(out.work.to_bits(), reference.work.to_bits(), "{regime}");
        }
    }
}

#[test]
fn dml_filtering_matches_row_at_a_time_oracle() {
    // UPDATE/DELETE row selection goes through the branch-free kernels
    // (filter_table_columnar); the oracle applies the same mutation with
    // the row-at-a-time reference filter and the tables must end up
    // identical — including NULL rows, which must never match.
    let statements = [
        "UPDATE emp SET val = 9.5 WHERE grp = 2",
        "UPDATE emp SET name = 'touched' WHERE val < 0.0",
        "DELETE FROM emp WHERE grp <> 1",
        "DELETE FROM emp WHERE id BETWEEN 10 AND 30",
    ];
    let opt = Optimizer::default();
    for sql in statements {
        let rows = seeded_rows(120, 99);
        let mut kernel_db = fixture(&rows);
        let mut oracle_db = fixture(&rows);
        let stmt =
            bind_statement(&kernel_db, &parse_statement(sql).expect("parses")).expect("binds");

        let cat = StatsCatalog::new();
        let outcome =
            run_statement(&mut kernel_db, cat.full_view(), &opt, &stmt).expect("kernel DML");
        let StatementOutcome::Dml { rows_affected, .. } = outcome else {
            panic!("DML expected");
        };

        // Row-at-a-time oracle: reference filter, same mutation primitives.
        let oracle_affected = match &stmt {
            BoundStatement::Update(u) => {
                let table = oracle_db.table_mut(u.table);
                let preds: Vec<_> = u.selections.iter().collect();
                let matched = filter_table(table, &preds);
                table
                    .update_rows(&matched, u.set_column, &u.set_value)
                    .unwrap()
            }
            BoundStatement::Delete(d) => {
                let table = oracle_db.table_mut(d.table);
                let preds: Vec<_> = d.selections.iter().collect();
                let matched = filter_table(table, &preds);
                table.delete_rows(matched)
            }
            other => panic!("DML expected, got {other:?}"),
        };
        assert_eq!(rows_affected, oracle_affected, "{sql}");

        // Final table state must be identical (read back via the reference
        // engine so the comparison is independent of the kernels).
        let readback = |db: &Database| {
            let q = bind(db, "SELECT * FROM emp ORDER BY id");
            let plan = opt
                .optimize(
                    db,
                    &q,
                    StatsCatalog::new().full_view(),
                    &OptimizeOptions::default(),
                )
                .expect("optimizes")
                .plan;
            execute_plan_reference(db, &q, &plan)
                .expect("readback")
                .rows
        };
        assert_eq!(readback(&kernel_db), readback(&oracle_db), "{sql}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random NULL-heavy tables of random size: the full equivalence
    /// contract holds for every query shape.
    #[test]
    fn random_tables_match_reference(
        rows in prop::collection::vec(
            (
                prop::option::of(-2i64..4),
                prop::option::of(-2.0f64..2.0),
                prop::option::of(0u8..4),
                prop::option::of(18_000i64..18_400),
            ),
            0..48,
        ),
    ) {
        let db = fixture(&rows);
        for sql in QUERIES {
            assert_equivalent(&db, sql);
        }
    }
}
