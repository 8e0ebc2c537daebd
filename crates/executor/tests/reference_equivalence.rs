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
//! sizes straddling the two block boundaries left in the engine (the
//! kernels' 512-row null-mask chunk and the 4096-row projection block),
//! NULL-heavy columns, and the adversarial generator's skewed/correlated/star
//! regimes.

use datagen::{adversarial_queries, build_adversarial, AdversarialConfig, Regime};
use executor::predicate::filter_table;
use executor::{
    execute_plan, execute_plan_observed, execute_plan_reference, run_statement, StatementOutcome,
};
use obsv::trace::canonical_signature;
use optimizer::{OptimizeOptions, Optimizer};
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

#[test]
fn empty_single_row_and_block_boundary_sizes() {
    // Degenerate and small tables, then sizes straddling the kernels'
    // 512-row null-mask chunk and the 4096-row projection block.
    for n in [
        0usize, 1, 15, 16, 17, 33, 511, 512, 513, 1025, 4095, 4096, 4097,
    ] {
        let db = fixture(&seeded_rows(n, n as u64 + 7));
        for sql in QUERIES {
            assert_equivalent(&db, sql);
        }
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
