//! Differential test of the typed statistic builder against the `Value`
//! builder it replaced (`tests/support`): every `Statistic` must come out
//! equal field for field — histogram buckets, distinct counts, string
//! prefix, prefix densities, null fraction, `build_cost` — whichever way it
//! is asked for (`build_statistic`, a serial `create_statistic` loop, one
//! `create_statistics_batch`, a refresh of one or of many).
//!
//! The generated tables hold what the two builders could plausibly disagree
//! on: NULLs, an all-NULL column, no rows at all, NaNs with different
//! payloads, `-0.0` beside `0.0`, infinities, integers past 2^53, a `Date`
//! column holding payloads wider than `i32`, strings with an ASCII common
//! prefix, with none, with one that ends inside a multi-byte character, and
//! distinct strings alike in all eight key bytes.

mod support;

use autostats::candidate_statistics;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use query::{bind_statement, BoundStatement};
use stats::statistic::build_statistic;
use stats::{
    BuildOptions, CatalogSnapshot, SampleSpec, StatDescriptor, StatId, Statistic, StatsCatalog,
};
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};
use support::build_statistic_oracle;

const BIG: i64 = 1 << 53;

/// Column 0: integers, some of which collapse onto one `f64` key.
fn int_pool() -> Vec<Value> {
    [0, 1, 2, 3, 4, 5, BIG, BIG + 1, -BIG - 1, i64::MAX, i64::MIN]
        .map(Value::Int)
        .to_vec()
}

/// Column 1: floats equal under `==` but not bit for bit, and the reverse.
fn float_pool() -> Vec<Value> {
    [
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() | 1),
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        2.0,
        3.0,
        f64::MAX,
        f64::MIN_POSITIVE,
    ]
    .map(Value::Float)
    .to_vec()
}

/// Column 2: strings, from one of four pools chosen per case.
fn str_pool(kind: usize) -> Vec<Value> {
    let pool: &[&str] = match kind {
        // An ASCII label prefix longer than the eight key bytes.
        0 => &[
            "Supplier#000000001",
            "Supplier#000000002",
            "Supplier#000000017",
            "Supplier#0000001",
            "Supplier#000000001x",
        ],
        // Nothing in common, the empty string included.
        1 => &["", "apple", "banana", "cherry", "ápple", "zebra"],
        // Common bytes that stop inside a two- and a four-byte character.
        2 => &["naïve-é", "naïve-è", "naïve-𝄞", "naïve-𝄟", "naïve-éé"],
        // Nothing in common, and values that differ past their eight key
        // bytes only: several groups of equal strings, one run of equal keys.
        _ => &["x-abcdefgh1", "x-abcdefgh2", "x-abcdefgh", "y"],
    };
    pool.iter().map(|s| Value::Str((*s).into())).collect()
}

/// Column 3: a `Date` column; `Int` payloads past `i32` read back narrowed.
fn date_pool() -> Vec<Value> {
    vec![
        Value::Date(0),
        Value::Date(5),
        Value::Date(-3),
        Value::Date(10_000),
        Value::Int((1 << 32) + 5),
        Value::Int((1 << 40) - 3),
    ]
}

fn pick(pool: &[Value], choice: Option<usize>) -> Value {
    choice.map_or(Value::Null, |i| pool[i % pool.len()].clone())
}

/// Six columns: int, float, str, date, an all-NULL int, a low-cardinality
/// int. `picks[r]` chooses row `r`'s entry of each of the first four.
fn table_db(picks: &[[Option<usize>; 4]], str_kind: usize) -> (Database, TableId) {
    let schema = Schema::new(vec![
        ColumnDef::new("i", DataType::Int).nullable(),
        ColumnDef::new("f", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
        ColumnDef::new("d", DataType::Date).nullable(),
        ColumnDef::new("n", DataType::Int).nullable(),
        ColumnDef::new("k", DataType::Int),
    ]);
    let mut db = Database::new();
    let t = db.create_table("t", schema).unwrap();
    let pools = [int_pool(), float_pool(), str_pool(str_kind), date_pool()];
    for (r, row) in picks.iter().enumerate() {
        let mut values: Vec<Value> = (0..4).map(|c| pick(&pools[c], row[c])).collect();
        values.push(Value::Null);
        values.push(Value::Int(r as i64 % 3));
        db.table_mut(t).insert(values).unwrap();
    }
    (db, t)
}

fn option_grid() -> Vec<BuildOptions> {
    let samples = [
        SampleSpec::FullScan,
        SampleSpec::Fraction {
            fraction: 0.3,
            min_rows: 4,
        },
        SampleSpec::Blocks {
            fraction: 0.4,
            block_rows: 7,
            min_rows: 4,
        },
    ];
    let mut grid = Vec::new();
    for sample in samples {
        for joint_histograms in [false, true] {
            grid.push(BuildOptions {
                max_buckets: 6,
                sample,
                joint_histograms,
            });
        }
    }
    grid
}

/// Field-for-field rendering to compare by. Stricter than `==` where it
/// should be (`-0.0` is not `0.0`) and usable where `==` is not: a joint
/// histogram over a column holding NaN has NaN cell bounds.
fn fields<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// What a catalog should hold after building `descriptors` in order from
/// empty under full-scan `options` and then refreshing each `updates`
/// times, all on `db`: the oracle's statistics under the catalog's ids and
/// meters.
fn oracle_snapshot(
    db: &Database,
    descriptors: &[StatDescriptor],
    options: &BuildOptions,
    updates: u32,
) -> CatalogSnapshot {
    // Under sampling the catalog's per-statistic seeds are private; full-scan
    // builds ignore the seed.
    let mut stats: Vec<Statistic> = Vec::new();
    for d in descriptors {
        if stats.iter().any(|s| s.descriptor == *d) {
            continue;
        }
        let id = StatId(stats.len() as u32);
        let mut stat = build_statistic_oracle(id, db.table(d.table), d.clone(), options, 0, 0);
        stat.update_count = updates;
        stats.push(stat);
    }
    let work = |n: u32| -> f64 {
        let mut total = 0.0;
        for _ in 0..n {
            for s in &stats {
                total += s.build_cost;
            }
        }
        total
    };
    CatalogSnapshot {
        drop_list: Vec::new(),
        next_id: stats.len() as u32,
        epoch: 0,
        creation_work: work(1),
        update_work: work(updates),
        build_options: options.clone(),
        stats,
    }
}

/// One table and descriptor list through every option combination: the
/// builder against the oracle, serial ≡ batch creation, and refreshing one
/// statistic at a time ≡ all at once (≡ the oracle, under full scans).
fn check_case(
    picks: &[[Option<usize>; 4]],
    str_kind: usize,
    columns: Vec<Vec<usize>>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (db, t) = table_db(picks, str_kind);
    // 1–3-column descriptors; drawing few columns from six makes shared
    // leading columns and shared prefixes (and repeats) common.
    let descriptors: Vec<StatDescriptor> = columns
        .into_iter()
        .map(|mut cols| {
            let mut seen = Vec::new();
            cols.retain(|c| {
                !seen.contains(c) && {
                    seen.push(*c);
                    true
                }
            });
            StatDescriptor::multi(t, cols)
        })
        .collect();
    // The refreshes read a table that has grown and lost its first row.
    let mut grown = db.clone();
    let extra: Vec<[Option<usize>; 4]> = picks.iter().rev().take(20).copied().collect();
    let (more, more_t) = table_db(&extra, str_kind);
    grown.table_mut(t).append_table(more.table(more_t)).unwrap();
    grown.table_mut(t).delete_rows(vec![0]);

    for options in option_grid() {
        for (i, d) in descriptors.iter().enumerate() {
            let (id, seed) = (StatId(i as u32), seed + i as u64);
            prop_assert_eq!(
                fields(&build_statistic(
                    id,
                    db.table(t),
                    d.clone(),
                    &options,
                    seed,
                    3
                )),
                fields(&build_statistic_oracle(
                    id,
                    db.table(t),
                    d.clone(),
                    &options,
                    seed,
                    3
                )),
                "{:?} under {:?}",
                d,
                options
            );
        }

        let full_scan = options.sample == SampleSpec::FullScan;
        let mut serial = StatsCatalog::new().with_build_options(options.clone());
        for d in &descriptors {
            serial.create_statistic(&db, d.clone()).unwrap();
        }
        let mut batched = StatsCatalog::new().with_build_options(options.clone());
        let ids = batched
            .create_statistics_batch(&db, t, &descriptors)
            .unwrap();
        prop_assert_eq!(fields(&serial.snapshot()), fields(&batched.snapshot()));
        if full_scan {
            let built = oracle_snapshot(&db, &descriptors, &options, 0);
            prop_assert_eq!(fields(&batched.snapshot()), fields(&built));
        }

        let creation_work = batched.creation_work();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        for &id in &unique {
            prop_assert_eq!(serial.refresh(&grown, t, &[id], None).len(), 1);
        }
        prop_assert_eq!(
            batched.refresh(&grown, t, &unique, None).len(),
            unique.len()
        );
        prop_assert_eq!(fields(&serial.snapshot()), fields(&batched.snapshot()));
        if full_scan {
            let refreshed = CatalogSnapshot {
                creation_work,
                ..oracle_snapshot(&grown, &descriptors, &options, 1)
            };
            prop_assert_eq!(fields(&batched.snapshot()), fields(&refreshed));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn typed_builds_equal_the_value_oracle(
        picks in prop::collection::vec(
            (
                prop::option::of(0usize..11),
                prop::option::of(0usize..11),
                prop::option::of(0usize..6),
                prop::option::of(0usize..6),
            ),
            0..90,
        ),
        str_kind in 0usize..4,
        columns in prop::collection::vec(prop::collection::vec(0usize..6, 1..4), 1..6),
        seed in 0u64..1000,
    ) {
        let picks: Vec<[Option<usize>; 4]> =
            picks.into_iter().map(|(a, b, c, d)| [a, b, c, d]).collect();
        check_case(&picks, str_kind, columns, seed)?;
    }
}

/// The sizes a generator rarely lands on: no rows, one all-NULL row, one
/// row, and every pool entry exactly once.
#[test]
fn degenerate_tables_equal_the_value_oracle() {
    let columns = || {
        vec![
            vec![0],
            vec![1],
            vec![2, 0],
            vec![3, 4, 1],
            vec![4],
            vec![5, 2],
        ]
    };
    let every_entry: Vec<[Option<usize>; 4]> = (0..11).map(|i| [Some(i); 4]).collect();
    for picks in [&[][..], &[[None; 4]], &[[Some(2); 4]], &every_entry] {
        for str_kind in 0..4 {
            check_case(picks, str_kind, columns(), 1).unwrap();
        }
    }
}

/// What only a builder that keys one row per distinct value can get wrong.
/// Every non-null float is a NaN, of two payloads: two groups of values, no
/// histogram bucket, and rows that still count as non-null. NULL is the
/// first value seen in every column, so group 0 is the NULL group. And
/// among the strings there are more distinct values than distinct keys.
#[test]
fn nan_only_null_first_and_colliding_keys_equal_the_value_oracle() {
    let columns = || vec![vec![1], vec![2], vec![0], vec![1, 2], vec![2, 1, 0]];
    // Float picks 2 and 3 are the two NaNs; string picks 0..3 of pool 3.
    let mut picks = vec![[None; 4]];
    picks.extend((0..40).map(|r| {
        let float = (r % 5 != 0).then_some(2 + r % 2);
        let string = (r % 7 != 0).then_some(r % 4);
        [Some(r % 11), float, string, Some(r % 6)]
    }));
    check_case(&picks, 3, columns(), 1).unwrap();

    // The premise, not only the agreement: NaN rows are non-null rows the
    // histogram leaves out, and the three colliding strings are one run.
    let (db, t) = table_db(&picks, 3);
    let build = |column| {
        let d = StatDescriptor::single(t, column);
        build_statistic(StatId(0), db.table(t), d, &BuildOptions::default(), 0, 0)
    };
    let floats = build(1);
    assert!(floats.histogram.buckets().is_empty());
    assert_eq!(floats.histogram.rows(), 0.0);
    assert_eq!(floats.null_fraction, 9.0 / 41.0);
    assert_eq!(floats.prefix_ndv(1), 3.0); // two NaNs and NULL
    let strings = build(2);
    assert_eq!(strings.histogram.ndv(), 2.0);
    assert_eq!(strings.prefix_ndv(1), 5.0); // four strings and NULL
}

/// Every candidate statistic of the `offline-tune` benchmark's inputs.
#[test]
fn all_candidates_of_the_offline_tune_workload_equal_the_oracle() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.02,
        zipf: ZipfSpec::Mixed,
        seed: 7,
    });
    let spec = WorkloadSpec::new(0, Complexity::Complex, 1000).with_seed(7);
    let mut descriptors: Vec<StatDescriptor> = Vec::new();
    for stmt in RagsGenerator::generate(&db, &spec) {
        let Ok(BoundStatement::Select(q)) = bind_statement(&db, &stmt) else {
            continue;
        };
        for d in candidate_statistics(&q) {
            if !descriptors.contains(&d) {
                descriptors.push(d);
            }
        }
    }
    assert_eq!(descriptors.len(), 206);

    let mut catalog = StatsCatalog::new();
    for d in &descriptors {
        catalog.create_statistic(&db, d.clone()).unwrap();
    }
    let expected = oracle_snapshot(&db, &descriptors, &BuildOptions::default(), 0);
    assert_eq!(fields(&catalog.snapshot()), fields(&expected));
}
