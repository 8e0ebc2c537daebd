//! Criterion micro-benchmarks: optimizer calls with and without statistics.
//!
//! §4.3 argues MNSA is cheap because "the time to create a statistic
//! typically far exceeds the time to optimize a query" — these benches back
//! that claim for our substrate. The three eight-table shapes bracket the
//! join enumerator: a chain has the fewest connected splits, a clique
//! prices all 3^8 of them, a star sits between.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{build_tpcd, tpcd_benchmark_queries, TpcdConfig, ZipfSpec};
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BoundStatement, Statement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, Value};

fn bench_optimize(c: &mut Criterion) {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed: 3,
    });
    let queries: Vec<_> = tpcd_benchmark_queries()
        .into_iter()
        .map(
            |q| match bind_statement(&db, &Statement::Select(q)).unwrap() {
                BoundStatement::Select(b) => b,
                _ => unreachable!(),
            },
        )
        .collect();
    let optimizer = Optimizer::default();

    // No statistics: everything on magic numbers.
    let empty = StatsCatalog::new();
    c.bench_function("optimize_q1_no_stats", |b| {
        b.iter(|| {
            optimizer.optimize(
                &db,
                &queries[0],
                empty.full_view(),
                &OptimizeOptions::default(),
            )
        })
    });
    c.bench_function("optimize_q8_eight_way_join", |b| {
        b.iter(|| {
            optimizer.optimize(
                &db,
                &queries[7],
                empty.full_view(),
                &OptimizeOptions::default(),
            )
        })
    });

    // With full candidate statistics.
    let mut full = StatsCatalog::new();
    for q in &queries {
        for d in autostats::candidate_statistics(q) {
            full.create_statistic(&db, d).expect("statistic builds");
        }
    }
    c.bench_function("optimize_q8_with_stats", |b| {
        b.iter(|| {
            optimizer.optimize(
                &db,
                &queries[7],
                full.full_view(),
                &OptimizeOptions::default(),
            )
        })
    });

    // Statistic creation for comparison (the expensive side of the tradeoff).
    let lineitem = db.table_id("lineitem").unwrap();
    c.bench_function("create_statistic_lineitem_col", |b| {
        b.iter(|| {
            let mut cat = StatsCatalog::new();
            cat.create_statistic(&db, stats::StatDescriptor::single(lineitem, 10))
        })
    });
}

/// Eight 50-row tables `t0..t7 (k, fk)` and one query per join-graph shape.
fn bench_eight_table_shapes(c: &mut Criterion) {
    const N: usize = 8;
    let mut db = Database::new();
    for t in 0..N {
        let id = db
            .create_table(
                format!("t{t}"),
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("fk", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..50i64 {
            db.table_mut(id)
                .insert(vec![Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
    }
    let from: Vec<String> = (0..N).map(|t| format!("t{t}")).collect();
    let chain: Vec<(usize, usize)> = (1..N).map(|t| (t - 1, t)).collect();
    let star: Vec<(usize, usize)> = (1..N).map(|t| (0, t)).collect();
    let clique: Vec<(usize, usize)> = (0..N)
        .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
        .collect();
    let optimizer = Optimizer::default();
    let empty = StatsCatalog::new();
    for (name, joins) in [("chain", chain), ("star", star), ("clique", clique)] {
        let conds: Vec<String> = joins
            .iter()
            .map(|(a, b)| format!("t{a}.fk = t{b}.k"))
            .collect();
        let sql = format!(
            "SELECT * FROM {} WHERE {}",
            from.join(", "),
            conds.join(" AND ")
        );
        let query = match bind_statement(&db, &parse_statement(&sql).unwrap()).unwrap() {
            BoundStatement::Select(b) => b,
            _ => unreachable!(),
        };
        c.bench_function(&format!("optimize_eight_table_{name}"), |b| {
            b.iter(|| {
                optimizer.optimize(&db, &query, empty.full_view(), &OptimizeOptions::default())
            })
        });
    }
}

criterion_group!(benches, bench_optimize, bench_eight_table_shapes);
criterion_main!(benches);
