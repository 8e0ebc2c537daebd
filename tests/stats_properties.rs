//! Property-based tests of statistic construction invariants.

use proptest::prelude::*;
use stats::statistic::build_statistic;
use stats::{join_selectivity, BuildOptions, Histogram, StatDescriptor, StatId};
use storage::{ColumnDef, DataType, Schema, Table, TableId, Value};

fn table_from(cols: Vec<Vec<i64>>) -> Table {
    let n_cols = cols.len();
    let defs: Vec<ColumnDef> = (0..n_cols)
        .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int))
        .collect();
    let mut t = Table::new("t", Schema::new(defs));
    for r in 0..cols[0].len() {
        t.insert(cols.iter().map(|col| Value::Int(col[r])).collect())
            .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prefix NDV is non-decreasing in prefix length (adding a column can
    /// only split combinations), i.e. prefix densities are non-increasing.
    #[test]
    fn prefix_densities_non_increasing(
        a in prop::collection::vec(0i64..20, 30..200),
    ) {
        let n = a.len();
        let b: Vec<i64> = (0..n as i64).map(|i| i % 7).collect();
        let c: Vec<i64> = (0..n as i64).map(|i| (i * 3) % 5).collect();
        let t = table_from(vec![a, b, c]);
        let stat = build_statistic(
            StatId(0),
            &t,
            StatDescriptor::multi(TableId(0), vec![0, 1, 2]),
            &BuildOptions::default(),
            0,
        );
        prop_assert_eq!(stat.prefix_densities.len(), 3);
        for w in stat.prefix_densities.windows(2) {
            prop_assert!(
                w[1] <= w[0] + 1e-12,
                "densities must not increase: {:?}",
                stat.prefix_densities
            );
        }
        // NDV of the full prefix never exceeds the row count.
        prop_assert!(stat.prefix_ndv(3) <= t.row_count() as f64 + 1e-9);
    }

    /// Leading-column NDV from the histogram matches the first prefix NDV on
    /// full scans.
    #[test]
    fn leading_ndv_consistent(a in prop::collection::vec(-50i64..50, 10..300)) {
        let t = table_from(vec![a]);
        let stat = build_statistic(
            StatId(0),
            &t,
            StatDescriptor::single(TableId(0), 0),
            &BuildOptions::default(),
            0,
        );
        prop_assert!((stat.leading_ndv() - stat.prefix_ndv(1)).abs() < 1e-9);
    }

    /// Join selectivity is symmetric and bounded by the hotter side's
    /// heaviest value frequency.
    #[test]
    fn join_selectivity_symmetric(
        a in prop::collection::vec(0i64..30, 20..200),
        b in prop::collection::vec(0i64..30, 20..200),
    ) {
        let ha = Histogram::build(&to_values(&a), 16);
        let hb = Histogram::build(&to_values(&b), 16);
        let ab = join_selectivity(&ha, &hb);
        let ba = join_selectivity(&hb, &ha);
        prop_assert!((ab - ba).abs() < 1e-9, "not symmetric: {ab} vs {ba}");
        prop_assert!((0.0..=1.0).contains(&ab));
    }
}

fn to_values(v: &[i64]) -> Vec<Value> {
    v.iter().map(|&i| Value::Int(i)).collect()
}

#[test]
fn join_selectivity_of_fk_join_matches_truth() {
    // PK side: unique 0..100. FK side: skewed toward low keys.
    let pk: Vec<Value> = (0..100).map(Value::Int).collect();
    let fk: Vec<Value> = (0..1000)
        .map(|i| Value::Int(if i % 3 == 0 { i % 100 } else { i % 10 }))
        .collect();
    let hp = Histogram::build(&pk, 32);
    let hf = Histogram::build(&fk, 32);
    let sel = join_selectivity(&hp, &hf);
    // True join output = 1000 rows (each FK matches exactly one PK), so the
    // true selectivity is 1000 / (100 * 1000) = 0.01.
    assert!((sel - 0.01).abs() < 0.005, "sel={sel}");
}
