//! Differential test harness: the columnar batch executor must be
//! **bit-identical** to the retained row-at-a-time reference interpreter.
//!
//! [`execute_plan`] evaluates selections by selection vector over typed
//! column slices, keys joins and group-bys by 64-bit fingerprints (with
//! collision-checked exact verification), and materializes projections
//! column-wise. Its contract is exact equivalence with
//! [`execute_plan_reference`]: the same `ExecOutput.rows` in the same order
//! and the same `work` *to the bit* (`f64::to_bits`), since the work meter
//! feeds the paper's execution-cost figures and must not drift with the
//! execution strategy. This harness checks the contract differentially over
//! optimizer-generated plans: RAGS workloads on seeded TPC-D instances, with
//! and without statistics (different plan shapes), on faulted/truncated
//! databases, on NULL-heavy data, and on string-heavy data (every place a
//! string cell is read, keyed on, folded or ordered by).

use autostats::{candidate_statistics, Fault, FaultPlan};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use executor::{execute_plan, execute_plan_reference};
use optimizer::{OptimizeOptions, Optimizer};
use proptest::prelude::*;
use query::{bind_statement, BoundSelect, BoundStatement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, Value};

fn test_db(seed: u64) -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed,
    })
}

fn workload(db: &Database, n: usize, complexity: Complexity, seed: u64) -> Vec<BoundSelect> {
    let spec = WorkloadSpec::new(0, complexity, n).with_seed(seed);
    RagsGenerator::generate(db, &spec)
        .iter()
        .filter_map(|stmt| match bind_statement(db, stmt) {
            Ok(BoundStatement::Select(q)) => Some(q),
            _ => None,
        })
        .collect()
}

/// Optimize `q` against `catalog`, run both engines, and demand identical
/// rows and bit-identical work. Returns whether the query executed (plans
/// that fail to optimize are skipped — plan *choice* is not under test).
fn assert_equivalent(db: &Database, catalog: &StatsCatalog, q: &BoundSelect) -> bool {
    let optimizer = Optimizer::default();
    let Ok(optimized) = optimizer.optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
    else {
        return false;
    };
    let batch = execute_plan(db, q, &optimized.plan, &optimizer.params);
    let reference = execute_plan_reference(db, q, &optimized.plan);
    match (batch, reference) {
        (Ok(b), Ok(r)) => {
            assert_eq!(b.rows, r.rows, "row divergence");
            assert_eq!(
                b.work.to_bits(),
                r.work.to_bits(),
                "work divergence: batch {} vs reference {}",
                b.work,
                r.work
            );
            true
        }
        (b, r) => panic!("one engine errored: batch={b:?} reference={r:?}"),
    }
}

#[test]
fn columnar_matches_reference_without_statistics() {
    let mut executed = 0usize;
    for seed in [3u64, 11, 29] {
        let db = test_db(seed);
        let catalog = StatsCatalog::new();
        for complexity in [Complexity::Simple, Complexity::Complex] {
            for q in workload(&db, 16, complexity, seed * 13 + 5) {
                executed += usize::from(assert_equivalent(&db, &catalog, &q));
            }
        }
    }
    assert!(executed > 40, "only {executed} queries executed");
}

#[test]
fn columnar_matches_reference_with_statistics() {
    // Statistics change plan shapes (index scans, join orders, operator
    // choice), so the engines are exercised over a different plan population.
    let mut executed = 0usize;
    for seed in [7u64, 19] {
        let db = test_db(seed);
        let queries = workload(&db, 20, Complexity::Complex, seed + 101);
        let mut catalog = StatsCatalog::new();
        for q in &queries {
            for d in candidate_statistics(q) {
                let _ = catalog.create_statistic(&db, d);
            }
        }
        for q in &queries {
            executed += usize::from(assert_equivalent(&db, &catalog, q));
        }
    }
    assert!(executed > 20, "only {executed} queries executed");
}

#[test]
fn columnar_matches_reference_on_faulted_database() {
    let mut db = test_db(5);
    let queries = workload(&db, 16, Complexity::Complex, 77);
    let mut catalog = StatsCatalog::new();
    for q in &queries {
        for d in candidate_statistics(q) {
            let _ = catalog.create_statistic(&db, d);
        }
    }
    // Truncate the largest table: stale statistics now mis-describe empty
    // inputs, and plans execute over zero-row operands.
    let biggest = db
        .table_ids()
        .max_by_key(|&id| db.table(id).row_count())
        .unwrap();
    FaultPlan::new()
        .with(Fault::TruncateTable(biggest))
        .inject(&mut db, &mut catalog);
    let mut executed = 0usize;
    for q in &queries {
        executed += usize::from(assert_equivalent(&db, &catalog, q));
    }
    assert!(executed > 8, "only {executed} queries executed");
}

fn null_heavy_db(vals: &[(Option<i64>, Option<i64>, i64)]) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int).nullable(),
                ColumnDef::new("b", DataType::Int).nullable(),
                ColumnDef::new("c", DataType::Int),
            ]),
        )
        .unwrap();
    for &(a, b, c) in vals {
        db.table_mut(t)
            .insert(vec![
                a.map_or(Value::Null, Value::Int),
                b.map_or(Value::Null, Value::Int),
                Value::Int(c),
            ])
            .unwrap();
    }
    db
}

/// Strings a cell can hold awkwardly: empty, a label prefix longer than the
/// eight bytes a numeric key keeps, one string a prefix of another, and
/// prefixes that end inside a two- and a four-byte character.
const STRINGS: &[&str] = &[
    "",
    "Supplier#000000001",
    "Supplier#000000002",
    "Supplier#0000001",
    "Supplier#000000001x",
    "naïve-é",
    "naïve-è",
    "naïve-𝄞",
    "ápple",
    "zebra",
];

/// `s(name, tag, n)`: two nullable string columns drawn from [`STRINGS`].
fn string_heavy_db(vals: &[(Option<usize>, Option<usize>, i64)]) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "s",
            Schema::new(vec![
                ColumnDef::new("name", DataType::Str).nullable(),
                ColumnDef::new("tag", DataType::Str).nullable(),
                ColumnDef::new("n", DataType::Int),
            ]),
        )
        .unwrap();
    let cell = |i: Option<usize>| i.map_or(Value::Null, |i| STRINGS[i].into());
    for &(name, tag, n) in vals {
        db.table_mut(t)
            .insert(vec![cell(name), cell(tag), Value::Int(n)])
            .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// String cells through every operator that touches one: projection,
    /// literal predicates, a string join key (NULLs never join, the empty
    /// string does), a string GROUP BY key (NULL and "" are two groups),
    /// MIN/MAX/COUNT over strings, and ORDER BY — rows and work bits equal
    /// to the reference's.
    #[test]
    fn columnar_matches_reference_on_string_heavy_data(
        rows in prop::collection::vec(
            (
                prop::option::of(0usize..STRINGS.len()),
                prop::option::of(0usize..STRINGS.len()),
                0i64..50,
            ),
            1..80,
        ),
        k in 0usize..STRINGS.len(),
    ) {
        let db = string_heavy_db(&rows);
        let catalog = StatsCatalog::new();
        let lit = STRINGS[k];
        let mut executed = 0usize;
        for sql in [
            format!("SELECT tag, name FROM s WHERE n >= {k}"),
            format!("SELECT * FROM s WHERE name = '{lit}'"),
            format!("SELECT n, tag FROM s WHERE tag >= '{lit}' AND name <> ''"),
            "SELECT s1.name, s2.tag, s2.n FROM s s1, s s2 WHERE s1.name = s2.tag".to_string(),
            format!("SELECT * FROM s s1, s s2 WHERE s1.name = s2.tag AND s1.tag = s2.name AND s1.n > {k}"),
            "SELECT name, MIN(tag), MAX(tag), COUNT(tag), COUNT(*) FROM s GROUP BY name".to_string(),
            "SELECT name, tag, MIN(name), SUM(n) FROM s GROUP BY name, tag ORDER BY tag DESC".to_string(),
            "SELECT MIN(name), MAX(tag), COUNT(name) FROM s".to_string(),
            "SELECT * FROM s ORDER BY tag DESC, name".to_string(),
            "SELECT n FROM s ORDER BY name".to_string(),
        ] {
            let stmt = query::parse_statement(&sql).unwrap();
            let Ok(BoundStatement::Select(q)) = bind_statement(&db, &stmt) else {
                panic!("{sql} does not bind");
            };
            executed += usize::from(assert_equivalent(&db, &catalog, &q));
        }
        prop_assert_eq!(executed, 10);
    }

    /// NULL-heavy random data through selections, self-joins, grouping, and
    /// ordering: NULL keys must never join, NULL groups must form their own
    /// group, and both engines must agree bit-for-bit.
    #[test]
    fn columnar_matches_reference_on_null_heavy_data(
        rows in prop::collection::vec(
            (prop::option::of(0i64..6), prop::option::of(0i64..4), 0i64..50),
            1..80,
        ),
        k in 0i64..6,
    ) {
        let db = null_heavy_db(&rows);
        let catalog = StatsCatalog::new();
        for sql in [
            format!("SELECT * FROM t WHERE a >= {k}"),
            "SELECT a, COUNT(*) FROM t WHERE c < 40 GROUP BY a".to_string(),
            "SELECT b, SUM(c) FROM t GROUP BY b ORDER BY b".to_string(),
            format!("SELECT * FROM t t1, t t2 WHERE t1.a = t2.b AND t1.c > {k}"),
            "SELECT * FROM t ORDER BY a DESC".to_string(),
        ] {
            let stmt = query::parse_statement(&sql).unwrap();
            let Ok(BoundStatement::Select(q)) = bind_statement(&db, &stmt) else {
                continue;
            };
            assert_equivalent(&db, &catalog, &q);
        }
    }
}
