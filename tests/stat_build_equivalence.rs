//! Differential test of the typed statistic builder against the `Value`
//! builder it replaced (`tests/support`): every `Statistic` must come out
//! equal field for field — histogram buckets, distinct counts, string
//! prefix, prefix densities, null fraction, `build_cost` — whichever way it
//! is asked for (`build_statistic`, a serial `create_statistic` loop, one
//! `create_statistics` call, a refresh of one or of many).
//!
//! The generated tables hold what the two builders could plausibly disagree
//! on: NULLs, an all-NULL column, no rows at all, NaNs with different
//! payloads, `-0.0` beside `0.0`, infinities, integers past 2^53, a `Date`
//! column holding payloads wider than `i32`, strings with an ASCII common
//! prefix, with none, with one that ends inside a multi-byte character, and
//! distinct strings alike in all eight key bytes. Integer and date pools come
//! spread wide, where the builder hashes, and narrow, where it codes through
//! a direct-address table: across zero, next to `i64::MAX` and `i64::MIN`,
//! and a span just inside and just outside the bound on the rows read. And
//! every case builds before a run of writes to the string column — whose
//! dictionary codes the writes then keep — and builds again after it.
//! Fixed cases go where small pools do not: a column pair whose value
//! counts multiply past the direct-address bound, unique integer keys,
//! all-distinct floats, and a dictionary holding a code no row does.

mod support;

use autostats::candidate_statistics;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use query::{bind_statement, BoundStatement};
use stats::statistic::build_statistic;
use stats::{BuildOptions, CatalogSnapshot, StatDescriptor, StatId, Statistic, StatsCatalog};
use std::collections::BTreeSet;
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};
use support::build_statistic_oracle;

const BIG: i64 = 1 << 53;

/// Column 0: integers from one of six pools chosen per case, for a table of
/// `rows` rows. The first collapses onto few `f64` keys and spans all of
/// `i64`; the others span little.
fn int_pool(kind: usize, rows: usize) -> Vec<Value> {
    // The widest span the builder still codes through a table.
    let bound = 2 * rows as i64 + 1024;
    let pool: Vec<i64> = match kind {
        0 => vec![0, 1, 2, 3, 4, 5, BIG, BIG + 1, -BIG - 1, i64::MAX, i64::MIN],
        1 => vec![-5, -1, 0, 1, 3, 5, -4],
        // `x - lo` overflows `i64` on neither side, though `x - 0` would.
        2 => vec![i64::MAX, i64::MAX - 1, i64::MAX - 7, i64::MAX - 3],
        3 => vec![i64::MIN, i64::MIN + 1, i64::MIN + 9, i64::MIN + 2],
        // Spans of exactly the bound and one past it.
        4 => vec![-100, -100 + bound - 1, -50, 7],
        // A key per row, spread five apart.
        UNIQUE => (0..rows.max(1) as i64).map(|i| 5 * i - 17).collect(),
        // Many narrow values, to pair with many dates.
        MANY => (0..200).map(|i| 3 * i - 300).collect(),
        _ => vec![-100, -100 + bound, -50, 7],
    };
    pool.into_iter().map(Value::Int).collect()
}

/// Integer pool kinds past the six a generated case draws from: a key per
/// row (and, beside it, a float column of all-distinct values), and 200
/// narrow values.
const UNIQUE: usize = 6;
const MANY: usize = 7;

/// Column 1 beside integer pool `int`: floats equal under `==` but not bit
/// for bit, and the reverse; or, beside unique keys, a distinct float per
/// row.
fn float_pool_beside(int: usize, rows: usize) -> Vec<Value> {
    if int != UNIQUE {
        return float_pool();
    }
    (0..rows.max(1))
        .map(|i| Value::Float(i as f64 * 0.37 - 11.0))
        .collect()
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
        // Labels whose first one [`table_db`] writes away once the column
        // is coded, leaving its dictionary code unused.
        UNUSED_CODE => &["gone", "kept-1", "kept-2", "kept-3", "kept-4"],
        // Nothing in common, and values that differ past their eight key
        // bytes only: several groups of equal strings, one run of equal keys.
        _ => &["x-abcdefgh1", "x-abcdefgh2", "x-abcdefgh", "y"],
    };
    pool.iter().map(|s| Value::Str((*s).into())).collect()
}

/// The string pool kind past the four a generated case draws from.
const UNUSED_CODE: usize = 4;

/// The date pool kind past the two a generated case draws from: fifty days.
const FIFTY_DAYS: usize = 2;

/// Column 3: a `Date` column; `Int` payloads past `i32` read back narrowed.
/// The second pool's payloads span all of `i64` and narrow into eleven days.
fn date_pool(kind: usize) -> Vec<Value> {
    if kind == FIFTY_DAYS {
        return (0..50).map(|d| Value::Date(9_000 + 2 * d)).collect();
    }
    let far = if kind == 0 { 10_000 } else { 7 };
    vec![
        Value::Date(0),
        Value::Date(5),
        Value::Date(-3),
        Value::Date(far),
        Value::Int((1 << 32) + 5),
        Value::Int((1 << 40) - 3),
        Value::Int(-(1 << 50) + 2),
    ]
}

/// Which pool columns 0, 2 and 3 draw from.
#[derive(Debug, Clone, Copy)]
struct Pools {
    int: usize,
    str: usize,
    date: usize,
}

fn pick(pool: &[Value], choice: Option<usize>) -> Value {
    choice.map_or(Value::Null, |i| pool[i % pool.len()].clone())
}

/// Six columns: int, float, str, date, an all-NULL int, a low-cardinality
/// int. `picks[r]` chooses row `r`'s entry of each of the first four; the
/// integer pool is sized for `rows` rows.
fn table_db(picks: &[[Option<usize>; 4]], pools: Pools, rows: usize) -> (Database, TableId) {
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
    let unused_code = pools.str == UNUSED_CODE;
    let pools = [
        int_pool(pools.int, rows),
        float_pool_beside(pools.int, rows),
        str_pool(pools.str),
        date_pool(pools.date),
    ];
    for (r, row) in picks.iter().enumerate() {
        let mut values: Vec<Value> = (0..4).map(|c| pick(&pools[c], row[c])).collect();
        values.push(Value::Null);
        values.push(Value::Int(r as i64 % 3));
        db.table_mut(t).insert(values).unwrap();
    }
    if unused_code {
        // Code the strings, then write the first one away: its code stays
        // in the dictionary with no row holding it.
        let table = db.table_mut(t);
        table.column(2).str_codes();
        let gone = &pools[2][0];
        let rows: Vec<usize> = (0..table.row_count())
            .filter(|&r| table.column(2).get(r) == *gone)
            .collect();
        table.update_rows(&rows, 2, &pools[2][1]).unwrap();
    }
    (db, t)
}

fn option_grid() -> [BuildOptions; 2] {
    [false, true].map(|joint_histograms| BuildOptions { joint_histograms })
}

/// Field-for-field rendering to compare by. Stricter than `==` where it
/// should be (`-0.0` is not `0.0`) and usable where `==` is not: a joint
/// histogram over a column holding NaN has NaN cell bounds.
fn fields<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// What a catalog should hold after building `descriptors` in order from
/// empty under `options` and then refreshing each `updates`
/// times, all on `db`: the oracle's statistics under the catalog's ids and
/// meters.
fn oracle_snapshot(
    db: &Database,
    descriptors: &[StatDescriptor],
    options: &BuildOptions,
    updates: u32,
) -> CatalogSnapshot {
    let mut stats: Vec<Statistic> = Vec::new();
    for d in descriptors {
        if stats.iter().any(|s| s.descriptor == *d) {
            continue;
        }
        let id = StatId(stats.len() as u32);
        let mut stat = build_statistic_oracle(id, db.table(d.table), d.clone(), options, 0);
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
/// statistic at a time ≡ all at once ≡ the oracle.
fn check_case(
    picks: &[[Option<usize>; 4]],
    pools: Pools,
    columns: Vec<Vec<usize>>,
) -> Result<(), TestCaseError> {
    let (db, t) = table_db(picks, pools, picks.len());
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
    let (more, more_t) = table_db(&extra, pools, picks.len());
    let extra_rows = more.table(more_t);
    for r in 0..extra_rows.row_count() {
        grown.table_mut(t).insert(extra_rows.row_values(r)).unwrap();
    }
    grown.table_mut(t).delete_rows(vec![0]);

    for options in option_grid() {
        for (i, d) in descriptors.iter().enumerate() {
            let id = StatId(i as u32);
            prop_assert_eq!(
                fields(&build_statistic(id, db.table(t), d.clone(), &options, 3)),
                fields(&build_statistic_oracle(
                    id,
                    db.table(t),
                    d.clone(),
                    &options,
                    3
                )),
                "{:?} under {:?}",
                d,
                options
            );
        }

        let mut serial = StatsCatalog::new().with_build_options(options.clone());
        for d in &descriptors {
            serial.create_statistic(&db, d.clone()).unwrap();
        }
        let mut batched = StatsCatalog::new().with_build_options(options.clone());
        let ids = batched.create_statistics(&db, &descriptors).unwrap();
        prop_assert_eq!(fields(&serial.snapshot()), fields(&batched.snapshot()));
        let built = oracle_snapshot(&db, &descriptors, &options, 0);
        prop_assert_eq!(fields(&batched.snapshot()), fields(&built));

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
        let refreshed = CatalogSnapshot {
            creation_work,
            ..oracle_snapshot(&grown, &descriptors, &options, 1)
        };
        prop_assert_eq!(fields(&batched.snapshot()), fields(&refreshed));
    }

    // Writes to a string column whose codes were made before them, then
    // builds on what they left.
    let written = write_strings(&db, t, &more, more_t, pools);
    for options in option_grid() {
        for (i, d) in descriptors.iter().enumerate() {
            let id = StatId(i as u32);
            let table = written.table(t);
            prop_assert_eq!(
                fields(&build_statistic(id, table, d.clone(), &options, 3)),
                fields(&build_statistic_oracle(id, table, d.clone(), &options, 3)),
                "{:?} under {:?} after writes",
                d,
                options
            );
        }
    }
    Ok(())
}

/// A copy of `db` after writes to table `t`'s string column made once its
/// dictionary codes exist (a build asks for them first): a value set on
/// some rows, one no row held set on others, rows NULLed, rows deleted, a
/// row inserted, and `more`'s rows appended, their codes made beforehand
/// as well. `db` itself is left as it was.
fn write_strings(
    db: &Database,
    t: TableId,
    more: &Database,
    more_t: TableId,
    pools: Pools,
) -> Database {
    let mut written = db.clone();
    let options = BuildOptions::default();
    let string = StatDescriptor::single(t, 2);
    build_statistic(StatId(0), written.table(t), string.clone(), &options, 0);
    build_statistic(StatId(0), more.table(more_t), string, &options, 0);
    let table = written.table_mut(t);
    let rows = table.row_count();
    let pool = str_pool(pools.str);
    let every = |step: usize| (0..rows).step_by(step).collect::<Vec<_>>();
    table.update_rows(&every(2), 2, &pool[0]).unwrap();
    table
        .update_rows(&every(5), 2, &"a string no row held".into())
        .unwrap();
    table.update_rows(&every(7), 2, &Value::Null).unwrap();
    table.delete_rows(every(4));
    let mut row = vec![Value::Null; 5];
    row.push(Value::Int(1));
    table.insert(row.clone()).unwrap();
    row[2] = pool[pool.len() - 1].clone();
    table.insert(row).unwrap();
    let more = more.table(more_t);
    for r in 0..more.row_count() {
        table.insert(more.row_values(r)).unwrap();
    }
    written
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
        int in 0usize..6,
        str in 0usize..4,
        date in 0usize..2,
        columns in prop::collection::vec(prop::collection::vec(0usize..6, 1..4), 1..6),
    ) {
        let picks: Vec<[Option<usize>; 4]> =
            picks.into_iter().map(|(a, b, c, d)| [a, b, c, d]).collect();
        check_case(&picks, Pools { int, str, date }, columns)?;
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
        for str in 0..4 {
            let pools = Pools {
                int: 0,
                str,
                date: 0,
            };
            check_case(picks, pools, columns()).unwrap();
        }
    }
}

/// Every narrow integer and date pool, each entry of it read, so that the
/// span the builder sees is the pool's: across zero, at either end of `i64`
/// (where `x - lo` could overflow), exactly at the direct-address bound and
/// one past it, and dates whose wide payloads narrow into a few days.
#[test]
fn direct_address_pools_equal_the_value_oracle() {
    let columns = || vec![vec![0], vec![3], vec![0, 3], vec![3, 0, 2], vec![5, 0]];
    let cyclic: Vec<[Option<usize>; 4]> = (0..60)
        .map(|r| {
            [
                Some(r % 7),
                (r % 3 != 0).then_some(r),
                Some(r % 5),
                (r % 9 != 4).then_some(r),
            ]
        })
        .collect();
    for int in 0..6 {
        for date in 0..2 {
            let pools = Pools { int, str: 1, date };
            check_case(&cyclic, pools, columns()).unwrap();
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
    let pools = Pools {
        int: 0,
        str: 3,
        date: 0,
    };
    check_case(&picks, pools, columns()).unwrap();

    // The premise, not only the agreement: NaN rows are non-null rows the
    // histogram leaves out, and the three colliding strings are one run.
    let (db, t) = table_db(&picks, pools, picks.len());
    let build = |column| {
        let d = StatDescriptor::single(t, column);
        build_statistic(StatId(0), db.table(t), d, &BuildOptions::default(), 0)
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

/// Prefixes no small pool reaches. Two columns, both with NULLs, whose
/// value counts multiply past twice the rows plus 1 024 (201 × 51 over
/// 2 000 rows), alone and under a third column; a unique-key integer column
/// spread past the direct bound; and a float column holding a distinct
/// value per row.
#[test]
fn wide_pairs_unique_keys_and_distinct_floats_equal_the_value_oracle() {
    let rows = 2_000;
    let pair: Vec<[Option<usize>; 4]> = (0..rows)
        .map(|r| {
            [
                (r % 13 != 5).then_some(r % 200),
                Some(r % 11),
                Some(r % 5),
                (r % 17 != 3).then_some(r / 3 % 50),
            ]
        })
        .collect();
    let pools = Pools {
        int: MANY,
        str: 1,
        date: FIFTY_DAYS,
    };
    let columns = vec![vec![0, 3], vec![3, 0, 2], vec![0, 3, 1], vec![0], vec![3]];
    check_case(&pair, pools, columns).unwrap();

    let unique: Vec<[Option<usize>; 4]> = (0..rows)
        .map(|r| [Some(r), Some(r), Some(r % 5), Some(r % 7)])
        .collect();
    let pools = Pools {
        int: UNIQUE,
        str: 0,
        date: 0,
    };
    let columns = vec![vec![0], vec![1], vec![0, 1], vec![1, 3, 0], vec![3, 1]];
    check_case(&unique, pools, columns).unwrap();

    // The premise: the values are there to be read.
    let ndv = |picks: &[[Option<usize>; 4]], pools, columns: Vec<usize>| {
        let (db, t) = table_db(picks, pools, rows);
        let d = StatDescriptor::multi(t, columns);
        let s = build_statistic(StatId(0), db.table(t), d, &BuildOptions::default(), 0);
        s.prefix_ndv(s.descriptor.columns.len())
    };
    assert_eq!(ndv(&unique, pools, vec![0]), rows as f64);
    assert_eq!(ndv(&unique, pools, vec![1]), rows as f64);
    let pools = Pools {
        int: MANY,
        str: 1,
        date: FIFTY_DAYS,
    };
    let (a, b) = (ndv(&pair, pools, vec![0]), ndv(&pair, pools, vec![3]));
    assert_eq!((a, b), (201.0, 51.0));
    assert!(a * b > (2 * rows + 1_024) as f64);
    let pairs: BTreeSet<_> = pair.iter().map(|p| (p[0], p[3])).collect();
    assert_eq!(ndv(&pair, pools, vec![0, 3]), pairs.len() as f64);
}

/// A string column whose dictionary holds a code no row does, through
/// every path: the counts skip the unused code, and a prefix keyed by
/// codes leaves its slot empty.
#[test]
fn unused_dictionary_codes_equal_the_value_oracle() {
    let picks: Vec<[Option<usize>; 4]> = (0..300)
        .map(|r| {
            [
                Some(r % 7),
                Some(r % 11),
                (r % 9 != 2).then_some(r % 5),
                Some(r % 6),
            ]
        })
        .collect();
    let pools = Pools {
        int: 1,
        str: UNUSED_CODE,
        date: 0,
    };
    let columns = vec![vec![2], vec![2, 0], vec![0, 2], vec![2, 3, 5], vec![3, 2]];
    check_case(&picks, pools, columns).unwrap();

    // The premise: six codes made (the NULL rows' padding has one), four
    // strings left.
    let (db, t) = table_db(&picks, pools, picks.len());
    let (_, bound) = db.table(t).column(2).str_codes().unwrap();
    assert_eq!(bound, 6);
    let d = StatDescriptor::single(t, 2);
    let s = build_statistic(StatId(0), db.table(t), d, &BuildOptions::default(), 0);
    assert_eq!(s.histogram.ndv(), 4.0);
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

/// `db`'s table `t` made again from its rows: a copy whose columns never
/// counted their values.
fn fresh_copy(db: &Database, t: TableId) -> Database {
    let table = db.table(t);
    let mut copy = Database::new();
    let c = copy.create_table("t", table.schema().clone()).unwrap();
    assert_eq!(c, t);
    for r in 0..table.row_count() {
        copy.table_mut(c).insert(table.row_values(r)).unwrap();
    }
    copy
}

/// One full-scan statistic on each of `t`'s integer, float, string and date
/// columns through a new catalog: the statistics, with `mods_at_build`
/// (which a copy's own inserts move) left out, and how many leading
/// columns the builds counted and how many found their counts kept.
fn single_column_builds(db: &Database, t: TableId) -> (Vec<String>, (u64, u64)) {
    let obs = obsv::Obs::enabled();
    let mut catalog = StatsCatalog::new();
    catalog.set_obs(&obs);
    let descriptors: Vec<StatDescriptor> = (0..4).map(|c| StatDescriptor::single(t, c)).collect();
    catalog.create_statistics(db, &descriptors).unwrap();
    let stats = catalog
        .snapshot()
        .stats
        .into_iter()
        .map(|s| {
            fields(&Statistic {
                mods_at_build: 0,
                ..s
            })
        })
        .collect();
    let counter = |name| obs.metrics.counter(name).get();
    let tally = (
        counter("stats.build.counted_columns"),
        counter("stats.build.counts_reused"),
    );
    (stats, tally)
}

/// A statistic built from the counts a column kept equals, to the bit, one
/// built on a fresh copy of the column that never counted, on `Int`,
/// `Date`, `Float` (`-0.0` beside `0.0`, NaNs) and `Str` columns, from
/// pools either side of the direct-address bound. Each table is built on
/// once, so that its columns keep their counts; then a clone is written —
/// every column set, NULLed, rows deleted and inserted — and another clone
/// has its string column alone written. The unwritten original reads its
/// counts, a written column counts again and its next build reads those.
#[test]
fn builds_from_kept_counts_equal_builds_on_a_fresh_copy() {
    let cases = [
        Pools {
            int: 1,
            str: 1,
            date: 0,
        },
        Pools {
            int: 0,
            str: 3,
            date: 1,
        },
        Pools {
            int: UNIQUE,
            str: 2,
            date: FIFTY_DAYS,
        },
        Pools {
            int: 4,
            str: 0,
            date: 0,
        },
    ];
    for (case, pools) in cases.into_iter().enumerate() {
        let rows = 300;
        let picks: Vec<[Option<usize>; 4]> = (0..rows)
            .map(|r| {
                let pick =
                    |k: usize| Some((r * (7 + case) + 3 * k + r / 11) % 53).filter(|p| p % 13 != 0);
                [pick(0), pick(1), pick(2), pick(3)]
            })
            .collect();
        let (db, t) = table_db(&picks, pools, rows);
        let (first, tally) = single_column_builds(&db, t);
        assert_eq!(tally, (4, 0), "case {case}");
        assert_eq!(first, single_column_builds(&fresh_copy(&db, t), t).0);

        let mut written = db.clone();
        let mut string_only = db.clone();
        let table = written.table_mut(t);
        let every = |step: usize| (0..rows).step_by(step).collect::<Vec<_>>();
        table
            .update_rows(&every(3), 0, &int_pool(pools.int, rows)[1])
            .unwrap();
        table
            .update_rows(&every(4), 1, &Value::Float(-0.0))
            .unwrap();
        table.update_rows(&every(5), 1, &Value::Float(0.0)).unwrap();
        table.update_rows(&every(6), 2, &"written".into()).unwrap();
        table.update_rows(&every(7), 3, &Value::Null).unwrap();
        table.delete_rows(every(9));
        let row = vec![
            Value::Int(-7),
            Value::Float(f64::NAN),
            "inserted".into(),
            Value::Date(12),
            Value::Null,
            Value::Int(0),
        ];
        table.insert(row).unwrap();
        string_only
            .table_mut(t)
            .update_rows(&every(2), 2, &str_pool(pools.str)[0])
            .unwrap();

        // The original was not written: every column reads its counts.
        assert_eq!(single_column_builds(&db, t), (first, (0, 4)), "case {case}");
        for (copy, counted) in [(&written, 4), (&string_only, 1)] {
            let expected = single_column_builds(&fresh_copy(copy, t), t).0;
            let (built, tally) = single_column_builds(copy, t);
            assert_eq!(tally, (counted, 4 - counted), "case {case}");
            assert_eq!(built, expected, "case {case}, counted");
            assert_eq!(
                single_column_builds(copy, t),
                (expected, (0, 4)),
                "case {case}, reused"
            );
        }
    }
}
