//! The plan memo of `autod::Snapshot`: a SELECT text served twice against
//! one snapshot is bound, optimized and fingerprinted once, and what the
//! memo hands back is what a fresh bind and optimize would make.
//!
//! The contracts under test, end to end through the public crate APIs:
//!
//! * **hit ≡ fresh** — on every `steady-complex` template (TPC-D at scale
//!   0.001, 200 complex Rags queries, a one-shard cluster after some tuning)
//!   the memo's entry has the plan, the cost bits and the fingerprint of a
//!   fresh bind + optimize against the same snapshot, and a hit returns the
//!   fresh plan's rows and work bits;
//! * **lifetime** — an INSERT, an UPDATE or a DELETE on a referenced table,
//!   and an epoch publish, empty the current snapshot's memo, whether they
//!   write it in place or copy it; the next SELECT plans again, equal to a
//!   fresh optimize; a snapshot held across the write keeps its own entry;
//!   a write that fails to bind writes nothing: the snapshot stays the
//!   published one, memo and all;
//! * **keying** — `= 2` and `= 2.0`, equal as syntax trees, and texts that
//!   differ only in whitespace are separate entries;
//! * **copies** — `autod.dml.column_copies` counts the columns a write
//!   copies because a held snapshot shares them, and no others.

use autod::{AutodConfig, OnlineService, Snapshot};
use autostats::SessionReport;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use executor::{execute_plan, ExecOutput, StatementOutcome};
use optimizer::{OptimizeOptions, OptimizedQuery, Optimizer};
use query::{bind_statement, parse_statement, render, BoundSelect, BoundStatement};
use serve::{ServeCluster, ServeConfig};
use stats::StatsCatalog;
use std::sync::Arc;
use storage::{ColumnDef, DataType, Database, Schema, Value};

/// Bind and optimize `sql` against `snapshot` from scratch.
fn fresh(snapshot: &Snapshot, sql: &str) -> (BoundSelect, OptimizedQuery) {
    let BoundStatement::Select(query) =
        bind_statement(&snapshot.db, &parse_statement(sql).unwrap()).unwrap()
    else {
        panic!("{sql} is a SELECT");
    };
    let optimized = Optimizer::default()
        .optimize(
            &snapshot.db,
            &query,
            snapshot.epoch.catalog.full_view(),
            &OptimizeOptions::default(),
        )
        .unwrap();
    (query, optimized)
}

fn query_output(outcome: StatementOutcome) -> (ExecOutput, f64) {
    match outcome {
        StatementOutcome::Query {
            output,
            estimated_cost,
        } => (output, estimated_cost),
        StatementOutcome::Dml { .. } => panic!("expected a query outcome"),
    }
}

/// `snapshot`'s entry for `sql` is a fresh bind + optimize, and `served`
/// (what a handle returned for `sql` against `snapshot`) is that plan run.
fn assert_fresh(snapshot: &Snapshot, sql: &str, served: StatementOutcome) {
    let entry = snapshot
        .prepared(sql)
        .unwrap_or_else(|| panic!("{sql}: prepared"));
    let (query, optimized) = fresh(snapshot, sql);
    assert_eq!(
        entry.plan.structural_fingerprint(),
        optimized.plan.structural_fingerprint(),
        "{sql}"
    );
    assert_eq!(entry.cost.to_bits(), optimized.cost.to_bits(), "{sql}");
    assert_eq!(entry.fingerprint, query.fingerprint(), "{sql}");
    let (output, cost) = query_output(served);
    let expect = execute_plan(
        &snapshot.db,
        &query,
        &optimized.plan,
        &Optimizer::default().params,
    )
    .unwrap();
    assert_eq!(cost.to_bits(), optimized.cost.to_bits(), "{sql}");
    assert_eq!(output.work.to_bits(), expect.work.to_bits(), "{sql}");
    // `Debug` tells `Int(2)` from `Float(2.0)` and prints floats exactly.
    assert_eq!(
        format!("{:?}", output.rows),
        format!("{:?}", expect.rows),
        "{sql}"
    );
}

#[test]
fn a_memo_hit_equals_a_fresh_prepare_on_every_steady_complex_template() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.001,
        zipf: ZipfSpec::Mixed,
        seed: 7,
    });
    let spec = WorkloadSpec::new(0, Complexity::Complex, 200).with_seed(7);
    let sqls: Vec<String> = RagsGenerator::generate(&db, &spec)
        .iter()
        .map(render)
        .collect();
    let cluster = ServeCluster::start(db, ServeConfig::default()).unwrap();
    let client = cluster.client(1);
    for sql in &sqls {
        client.run_sql(sql).unwrap();
    }
    // Some tuning, so that plans are made against statistics.
    for _ in 0..3 {
        cluster.tick_wait().unwrap();
    }
    let service = cluster.service(0);
    assert!(service.generation() > 0, "the ticks published statistics");
    let hits = service.metrics().counter("autod.plan_memo.hits");
    // Nothing writes and nothing ticks from here on: every statement below
    // loads this snapshot.
    let snapshot = service.snapshot();
    for sql in &sqls {
        let first = client.run_sql(sql).unwrap();
        let before = hits.get();
        let again = client.run_sql(sql).unwrap();
        assert_eq!(hits.get(), before + 1, "{sql}: the second run hits");
        assert_fresh(&snapshot, sql, first);
        assert_fresh(&snapshot, sql, again);
    }
}

/// `items` (200 rows, a FLOAT `price` holding 2.0) and `kinds` (10 rows).
fn small_db() -> Database {
    let mut db = Database::new();
    let items = db
        .create_table(
            "items",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("price", DataType::Float),
            ]),
        )
        .unwrap();
    for i in 0..200i64 {
        db.table_mut(items)
            .insert(vec![
                Value::Int(i % 10),
                Value::Float((i % 40) as f64 / 2.0),
            ])
            .unwrap();
    }
    let kinds = db
        .create_table(
            "kinds",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ]),
        )
        .unwrap();
    for k in 0..10i64 {
        db.table_mut(kinds)
            .insert(vec![Value::Int(k), Value::Str(format!("kind {k}").into())])
            .unwrap();
    }
    db
}

fn small_service() -> OnlineService {
    OnlineService::start(
        small_db(),
        StatsCatalog::new(),
        SessionReport::default(),
        obsv::Obs::disabled(),
        AutodConfig {
            budget_per_tick: f64::INFINITY,
            // A Shrinking Set pass, and with it a publish, on every tick.
            shrink_every: 1,
            ..AutodConfig::default()
        },
    )
}

const JOIN: &str = "SELECT i.k, n.name FROM items i, kinds n WHERE i.k = n.k AND i.price < 7.5";

/// DML binds before it opens the slot for writing: a write that fails to
/// bind neither empties the memo nor copies a snapshot someone holds.
#[test]
fn a_write_that_fails_to_bind_leaves_the_snapshot_and_its_memo() {
    let svc = small_service();
    let h = svc.handle(1);
    h.run_sql(JOIN).unwrap();
    for write in [
        "UPDATE missing SET price = 1.0 WHERE k = 5",
        "DELETE FROM items WHERE missing = 1",
        "INSERT INTO kinds VALUES (1)",
    ] {
        let held = svc.snapshot();
        let entry = held.prepared(JOIN).expect("prepared before the write");
        assert!(h.run_sql(write).is_err(), "{write} fails to bind");
        let now = svc.snapshot();
        assert!(
            Arc::ptr_eq(&held, &now),
            "{write}: the slot's snapshot was replaced"
        );
        let kept = now.prepared(JOIN).expect("the memo keeps its entry");
        assert!(Arc::ptr_eq(&kept, &entry), "{write}");
    }
}

/// An INSERT the table would refuse — a value of the wrong type, a NULL
/// into a column that is not nullable — is refused when it binds, before
/// the write opens the slot: a held snapshot keeps sharing the slot's, with
/// its memo entry, and no table is copied for it.
#[test]
fn an_insert_the_table_would_refuse_neither_empties_the_memo_nor_copies() {
    let svc = small_service();
    let h = svc.handle(1);
    let copies = svc.metrics().counter("autod.dml.table_copies");
    h.run_sql(JOIN).unwrap();
    let held = svc.snapshot();
    let entry = held.prepared(JOIN).expect("prepared before the write");
    for write in [
        "INSERT INTO kinds VALUES ('x', 'eleven')",
        "INSERT INTO kinds VALUES (11, NULL)",
    ] {
        assert!(h.run_sql(write).is_err(), "{write} is refused");
        let now = svc.snapshot();
        assert!(
            Arc::ptr_eq(&held, &now),
            "{write}: the slot's snapshot was replaced"
        );
        let kept = now.prepared(JOIN).expect("the memo keeps its entry");
        assert!(Arc::ptr_eq(&kept, &entry), "{write}");
    }
    assert_eq!(copies.get(), 0, "no table copied for a refused INSERT");
}

/// `autod.dml.column_copies` counts the columns a write copies because a
/// held snapshot shares them: none with no snapshot held; with one held,
/// the SET column of an UPDATE and every column of a DELETE or an INSERT
/// (both tables here have two). A column the writer already copied is its
/// own, so writing it again beside the same snapshot copies nothing.
#[test]
fn a_write_beside_a_held_snapshot_copies_the_columns_it_writes() {
    let svc = small_service();
    let h = svc.handle(1);
    let copies = svc.metrics().counter("autod.dml.column_copies");
    for write in [
        "UPDATE items SET price = 2.0 WHERE k = 1",
        "DELETE FROM items WHERE k = 9",
        "INSERT INTO kinds VALUES (10, 'kind 10')",
    ] {
        h.run_sql(write).unwrap();
        assert_eq!(copies.get(), 0, "{write}: no snapshot held");
    }
    // One snapshot held across the writes: each column is copied once.
    let held = svc.snapshot();
    for (write, copied) in [
        ("UPDATE items SET price = 1.0 WHERE k = 5", 1),
        ("UPDATE items SET price = 3.0 WHERE k = 6", 0),
        ("UPDATE items SET k = 7 WHERE k = 99", 0),
        ("UPDATE items SET k = 8 WHERE k = 8", 1),
        ("DELETE FROM kinds WHERE k = 0", 2),
        ("INSERT INTO kinds VALUES (0, 'kind 0')", 0),
    ] {
        let before = copies.get();
        h.run_sql(write).unwrap();
        assert_eq!(copies.get() - before, copied, "{write}");
    }
    drop(held);
    let held = svc.snapshot();
    h.run_sql("INSERT INTO kinds VALUES (11, 'kind 11')")
        .unwrap();
    h.run_sql("DELETE FROM items WHERE k = 3").unwrap();
    assert_eq!(copies.get(), 1 + 1 + 2 + 2 + 2);
    drop(held);
}

#[test]
fn a_write_or_a_publish_empties_the_memo_and_a_held_snapshot_keeps_its_plans() {
    let svc = small_service();
    let h = svc.handle(1);
    let metrics = svc.metrics();
    let (misses, copies) = (
        metrics.counter("autod.plan_memo.misses"),
        metrics.counter("autod.dml.table_copies"),
    );
    h.run_sql(JOIN).unwrap();
    // Each write once in place (nobody holds the snapshot) and once beside a
    // held snapshot, which makes the writer copy it.
    for (write, hold) in [
        ("INSERT INTO items VALUES (3, 1.5)", false),
        ("UPDATE items SET price = 9.0 WHERE k < 2", false),
        ("DELETE FROM items WHERE k = 9", false),
        ("INSERT INTO kinds VALUES (10, 'kind 10')", true),
        ("UPDATE items SET price = 1.0 WHERE k = 5", true),
        ("DELETE FROM kinds WHERE k = 0", true),
    ] {
        let before = svc.snapshot();
        let entry = before.prepared(JOIN).expect("prepared before the write");
        let held = hold.then(|| Arc::clone(&before));
        drop(before);
        let copied = copies.get();
        h.run_sql(write).unwrap();
        assert_eq!(copies.get() > copied, hold, "{write}: copied iff held");
        let now = svc.snapshot();
        assert!(now.prepared(JOIN).is_none(), "{write} emptied the memo");
        let missed = misses.get();
        let served = h.run_sql(JOIN).unwrap();
        assert_eq!(misses.get(), missed + 1, "{write}: planned again");
        assert_fresh(&now, JOIN, served);
        if let Some(held) = held {
            let kept = held.prepared(JOIN).expect("the held snapshot keeps it");
            assert!(Arc::ptr_eq(&kept, &entry), "{write}");
        }
    }

    // An epoch publish, first in place, then beside a held snapshot.
    for hold in [false, true] {
        let before = svc.snapshot();
        let entry = before.prepared(JOIN).expect("prepared before the tick");
        let held = hold.then(|| Arc::clone(&before));
        drop(before);
        let report = svc.tick_wait().unwrap();
        assert!(report.published_generation.is_some());
        let now = svc.snapshot();
        assert!(now.prepared(JOIN).is_none(), "the publish emptied the memo");
        let missed = misses.get();
        let served = h.run_sql(JOIN).unwrap();
        assert_eq!(misses.get(), missed + 1);
        assert_fresh(&now, JOIN, served);
        if let Some(held) = held {
            let kept = held.prepared(JOIN).expect("the held snapshot keeps it");
            assert!(Arc::ptr_eq(&kept, &entry));
            assert!(held.epoch.generation < now.epoch.generation);
        }
    }
}

#[test]
fn texts_are_keys_even_where_their_statements_compare_equal() {
    let svc = small_service();
    let h = svc.handle(1);
    let metrics = svc.metrics();
    let (hits, misses) = (
        metrics.counter("autod.plan_memo.hits"),
        metrics.counter("autod.plan_memo.misses"),
    );
    let int = "SELECT k FROM items WHERE price = 2";
    let float = "SELECT k FROM items WHERE price = 2.0";
    let spaced = "SELECT k FROM items WHERE price =  2";
    let broken = "SELECT k\nFROM items WHERE price = 2";
    // `Value`'s equality is `total_cmp`: as syntax trees, 2 is 2.0.
    assert_eq!(parse_statement(int), parse_statement(float));
    let texts = [int, float, spaced, broken];
    for (i, sql) in texts.iter().enumerate() {
        h.run_sql(sql).unwrap();
        assert_eq!(misses.get(), i as u64 + 1, "{sql:?} is a new entry");
    }
    for (i, sql) in texts.iter().enumerate() {
        let served = h.run_sql(sql).unwrap();
        assert_eq!(hits.get(), i as u64 + 1, "{sql:?} hits its own entry");
        assert_fresh(&svc.snapshot(), sql, served);
    }
    let snapshot = svc.snapshot();
    let fingerprint = |sql: &str| snapshot.prepared(sql).unwrap().fingerprint;
    assert_ne!(fingerprint(int), fingerprint(float));
    assert_eq!(fingerprint(int), fingerprint(spaced));
    assert_eq!(fingerprint(int), fingerprint(broken));
    // The monitor keeps the two templates apart, as a fresh bind would.
    let (_, report) = svc.shutdown();
    assert_eq!(report.templates.len(), 2);
}
