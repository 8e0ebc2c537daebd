//! Differential test harness: creating a list of statistics in one
//! [`StatsCatalog::create_statistics`] call must be **bit-identical** to
//! creating them one at a time.
//!
//! `create_statistics` serves every statistic that needs building on a
//! table from one shared pass per table (column keys, histogram, prefix
//! partitions, joint histogram each computed once), whatever the order of
//! the list. Its contract is exact equivalence with a serial
//! `create_statistic` loop that stops at the first error: same ids in the
//! same order, same histograms and densities, same per-statistic
//! `build_cost`, same creation-work total to the bit. This harness checks
//! the contract over random column data (with NULLs), shuffled lists on two
//! tables with duplicates, already-built and drop-listed descriptors and a
//! column the table lacks, joint-histogram builds, and the candidate sets
//! of RAGS workloads on seeded TPC-D — and that each table is read once per
//! call.

use autostats::candidate_statistics;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use proptest::prelude::*;
use query::{bind_statement, BoundStatement};
use stats::{BuildOptions, StatDescriptor, StatId, StatsCatalog, StatsError};
use std::collections::BTreeSet;
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};

/// A serial `?`-propagating `create_statistic` loop over `descriptors`.
fn serial_loop(
    catalog: &mut StatsCatalog,
    db: &Database,
    descriptors: &[StatDescriptor],
) -> Result<Vec<StatId>, StatsError> {
    descriptors
        .iter()
        .map(|d| catalog.create_statistic(db, d.clone()))
        .collect()
}

/// Serial loop vs one `create_statistics` call on catalogs that start as
/// clones of `start`: results, snapshots (every statistic field, work
/// meters, id counter) and creation work must match exactly. Returns the
/// call's catalog.
fn assert_call_matches_serial(
    db: &Database,
    start: &StatsCatalog,
    descriptors: &[StatDescriptor],
) -> StatsCatalog {
    let mut serial = StatsCatalog::restore(start.snapshot());
    let serial_ids = serial_loop(&mut serial, db, descriptors);
    let mut call = StatsCatalog::restore(start.snapshot());
    let call_ids = call.create_statistics(db, descriptors);
    assert_eq!(
        format!("{call_ids:?}"),
        format!("{serial_ids:?}"),
        "result divergence"
    );
    assert_eq!(call.snapshot(), serial.snapshot(), "catalog divergence");
    assert_eq!(
        call.creation_work().to_bits(),
        serial.creation_work().to_bits(),
        "creation-work divergence"
    );
    call
}

/// A database of one table per entry of `tables`, each holding the given
/// NULL-bearing integer columns.
fn tables_db(tables: &[Vec<Vec<Option<i64>>>]) -> (Database, Vec<TableId>) {
    let mut db = Database::new();
    let mut ids = Vec::new();
    for (i, cols) in tables.iter().enumerate() {
        let defs: Vec<ColumnDef> = (0..cols.len())
            .map(|c| ColumnDef::new(format!("c{c}"), DataType::Int).nullable())
            .collect();
        let t = db.create_table(format!("t{i}"), Schema::new(defs)).unwrap();
        for r in 0..cols[0].len() {
            db.table_mut(t)
                .insert(
                    cols.iter()
                        .map(|c| c[r].map_or(Value::Null, Value::Int))
                        .collect(),
                )
                .unwrap();
        }
        ids.push(t);
    }
    (db, ids)
}

/// Three columns derived from `a`: `a` itself, `i % 9`, and `i % 4` with a
/// NULL every eleventh row.
fn three_columns(a: Vec<Option<i64>>) -> Vec<Vec<Option<i64>>> {
    let n = a.len() as i64;
    let b = (0..n).map(|i| Some(i % 9)).collect();
    let c = (0..n)
        .map(|i| if i % 11 == 0 { None } else { Some(i % 4) })
        .collect();
    vec![a, b, c]
}

fn option_regimes() -> [BuildOptions; 2] {
    [
        BuildOptions::default(),
        BuildOptions::default().with_joint_histograms(),
    ]
}

/// The descriptors a list is drawn from on table `t`: singles, pairs both
/// ways round and a triple.
fn universe(t: TableId) -> Vec<StatDescriptor> {
    vec![
        StatDescriptor::single(t, 0),
        StatDescriptor::single(t, 1),
        StatDescriptor::single(t, 2),
        StatDescriptor::multi(t, vec![0, 1]),
        StatDescriptor::multi(t, vec![1, 0]),
        StatDescriptor::multi(t, vec![2, 0, 1]),
        StatDescriptor::multi(t, vec![0, 2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random NULL-bearing columns, random descriptor lists (duplicates
    /// included), both option regimes: without joint histograms and with
    /// them.
    #[test]
    fn batch_matches_serial_on_random_tables(
        a in prop::collection::vec(prop::option::of(0i64..15), 20..300),
        perm in 0usize..6,
        dup in 0u8..2,
    ) {
        let (db, ts) = tables_db(&[three_columns(a)]);
        let t = ts[0];
        let mut descs = vec![
            StatDescriptor::single(t, 0),
            StatDescriptor::single(t, 1),
            StatDescriptor::multi(t, vec![0, 1]),
            StatDescriptor::multi(t, vec![2, 0, 1]),
            StatDescriptor::multi(t, vec![0, 2]),
        ];
        let k = perm % descs.len();
        descs.rotate_left(k);
        if dup == 1 {
            descs.push(descs[0].clone());
        }
        for options in option_regimes() {
            let start = StatsCatalog::new().with_build_options(options);
            assert_call_matches_serial(&db, &start, &descs);
        }
    }

    /// Shuffled lists over two tables: duplicates, descriptors already
    /// built (some of them drop-listed) and, at a random place, one column
    /// the table lacks. Every build after a table's first in the call
    /// shares that table's scan.
    #[test]
    fn shuffled_two_table_lists_match_serial_and_read_each_table_once(
        a in prop::collection::vec(prop::option::of(0i64..12), 10..200),
        b in prop::collection::vec(prop::option::of(-5i64..40), 10..200),
        picks in prop::collection::vec(0usize..14, 1..18),
        prebuilt in 0u32..(1 << 14),
        droplisted in 0u32..(1 << 14),
        bad_at in 0usize..24,
    ) {
        let (db, ts) = tables_db(&[three_columns(a), three_columns(b)]);
        let all: Vec<StatDescriptor> = ts.iter().flat_map(|&t| universe(t)).collect();
        let mut descs: Vec<StatDescriptor> = picks.iter().map(|&i| all[i].clone()).collect();
        if bad_at < descs.len() {
            descs.insert(bad_at, StatDescriptor::single(ts[bad_at % 2], 3));
        }

        for options in option_regimes() {
            let mut start = StatsCatalog::new().with_build_options(options);
            for (i, d) in all.iter().enumerate() {
                if prebuilt & (1 << i) != 0 {
                    let id = start.create_statistic(&db, d.clone()).unwrap();
                    if droplisted & (1 << i) != 0 {
                        start.move_to_drop_list(id);
                    }
                }
            }
            let before: BTreeSet<StatId> = start.snapshot().stats.iter().map(|s| s.id).collect();

            let obs = obsv::Obs::enabled();
            let mut serial = StatsCatalog::restore(start.snapshot());
            let serial_ids = serial_loop(&mut serial, &db, &descs);
            let mut call = StatsCatalog::restore(start.snapshot());
            call.set_obs(&obs);
            let call_ids = call.create_statistics(&db, &descs);
            prop_assert_eq!(format!("{call_ids:?}"), format!("{serial_ids:?}"));
            prop_assert_eq!(call.snapshot(), serial.snapshot());
            prop_assert_eq!(
                call.creation_work().to_bits(),
                serial.creation_work().to_bits()
            );

            let built: Vec<TableId> = call
                .snapshot()
                .stats
                .iter()
                .filter(|s| !before.contains(&s.id))
                .map(|s| s.descriptor.table)
                .collect();
            let tables = built.iter().collect::<BTreeSet<_>>().len() as u64;
            let builds = obs.metrics.counter("stats.builds").get();
            prop_assert_eq!(builds, built.len() as u64);
            prop_assert_eq!(
                obs.metrics.counter("stats.shared_scan_builds").get(),
                builds - tables
            );
        }
    }
}

#[test]
fn batch_matches_serial_on_tpcd_candidates() {
    for seed in [3u64, 17] {
        let db = build_tpcd(&TpcdConfig {
            scale: 0.004,
            zipf: ZipfSpec::Mixed,
            seed,
        });
        let spec = WorkloadSpec::new(0, Complexity::Complex, 20).with_seed(seed + 5);
        // Candidate statistics of a whole workload, query by query, and all
        // of them in one list — the shapes MNSA rounds and the CreateAll*
        // policies hand the catalog.
        let mut per_query: Vec<Vec<StatDescriptor>> = Vec::new();
        for stmt in RagsGenerator::generate(&db, &spec) {
            let Ok(BoundStatement::Select(q)) = bind_statement(&db, &stmt) else {
                continue;
            };
            per_query.push(candidate_statistics(&q));
        }
        assert!(!per_query.is_empty());

        let mut serial = StatsCatalog::new();
        let mut call = StatsCatalog::new();
        for descs in &per_query {
            serial_loop(&mut serial, &db, descs).unwrap();
            call.create_statistics(&db, descs).unwrap();
        }
        assert_eq!(call.snapshot(), serial.snapshot(), "seed {seed}");
        assert_eq!(
            call.creation_work().to_bits(),
            serial.creation_work().to_bits()
        );
        let all: Vec<StatDescriptor> = per_query.concat();
        assert_call_matches_serial(&db, &StatsCatalog::new(), &all);
    }
}

#[test]
fn batch_handles_mixed_tables_and_existing_statistics() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.002,
        zipf: ZipfSpec::Fixed(0.0),
        seed: 9,
    });
    let mut ids: Vec<TableId> = db.table_ids().collect();
    ids.sort();
    let (ta, tb) = (ids[0], ids[1]);
    // Pre-build one statistic, then create a list that mixes the pre-built
    // descriptor (dedup) with fresh ones on two interleaved tables.
    let descs = vec![
        StatDescriptor::single(ta, 0),
        StatDescriptor::single(ta, 1),
        StatDescriptor::single(tb, 0),
        StatDescriptor::multi(ta, vec![1, 0]),
        StatDescriptor::multi(tb, vec![0, 1]),
    ];
    let mut start = StatsCatalog::new();
    start.create_statistic(&db, descs[0].clone()).unwrap();
    let call = assert_call_matches_serial(&db, &start, &descs);
    assert_eq!(call.total_count(), 5);
}
