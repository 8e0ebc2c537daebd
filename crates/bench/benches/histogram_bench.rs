//! Criterion micro-benchmarks: histogram construction and estimation, and
//! whole statistic builds from typed columns.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{build_tpcd, TpcdConfig, ZipfSpec};
use stats::statistic::build_statistic;
use stats::{BuildOptions, Histogram, HistogramKind, StatDescriptor, StatId};
use storage::Value;

fn values(n: usize, distinct: i64) -> Vec<Value> {
    (0..n as i64)
        .map(|i| Value::Int((i * 2654435761) % distinct))
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_build");
    for &n in &[1_000usize, 10_000, 50_000] {
        let vals = values(n, 500);
        for kind in [HistogramKind::EquiDepth, HistogramKind::MaxDiff] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), n),
                &vals,
                |b, vals| b.iter(|| Histogram::build(kind, black_box(vals), 64)),
            );
        }
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let vals = values(50_000, 500);
    let h = Histogram::build(HistogramKind::EquiDepth, &vals, 64);
    c.bench_function("histogram_estimate_range", |b| {
        b.iter(|| h.selectivity_between(black_box(&Value::Int(100)), black_box(&Value::Int(300))))
    });
    c.bench_function("histogram_estimate_eq", |b| {
        b.iter(|| h.selectivity_eq(black_box(&Value::Int(250))))
    });
}

/// One full-scan statistic build per leading-column type and per prefix
/// length on `lineitem` at TPC-D scale 0.02 (120 000 rows).
fn bench_stat_build(c: &mut Criterion) {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.02,
        zipf: ZipfSpec::Mixed,
        seed: 7,
    });
    let id = db.table_id("lineitem").expect("TPC-D has lineitem");
    let table = db.table(id);
    let column = |name: &str| table.schema().index_of(name).expect("lineitem column");
    let cases = [
        ("int", vec!["l_orderkey"]),
        ("float", vec!["l_extendedprice"]),
        ("str", vec!["l_shipmode"]),
        ("date", vec!["l_shipdate"]),
        ("prefix2", vec!["l_partkey", "l_suppkey"]),
        ("prefix3", vec!["l_tax", "l_partkey", "l_orderkey"]),
    ];
    let options = BuildOptions::default();
    let mut group = c.benchmark_group("stat_build");
    for (name, columns) in cases {
        let descriptor = StatDescriptor::multi(id, columns.into_iter().map(column).collect());
        group.bench_with_input(
            BenchmarkId::new(name, table.row_count()),
            &descriptor,
            |b, d| {
                b.iter(|| build_statistic(StatId(0), table, black_box(d.clone()), &options, 0, 0))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_estimate, bench_stat_build);
criterion_main!(benches);
