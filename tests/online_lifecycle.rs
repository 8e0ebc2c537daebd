//! Integration tests for the online statistics lifecycle (`autod`).
//!
//! The contracts under test, end to end through the public crate APIs:
//!
//! * **Paused daemon ≡ offline tuning** — a `LifecycleCore` ticked once with
//!   an unconstrained budget over a monitored workload produces exactly the
//!   catalog `OfflineTuner::tune` produces on the same sample;
//! * **staleness boundaries** — the `max(500, 20 % of rows)` rule is
//!   *strictly greater*: a tick at exactly the threshold refreshes nothing,
//!   one more modification refreshes everything on the table; an empty
//!   table falls back to the 500-row floor;
//! * **auto-drop** — a drop-listed statistic refreshed more than
//!   `MAX_UPDATES` times is physically dropped by the tick that refreshed
//!   it, and the next epoch no longer carries it;
//! * **random interleavings** (proptest) — any mix of queries, DML, and
//!   ticks through a live [`autod::OnlineService`] panics nowhere, keeps
//!   estimated costs finite and non-negative, and publishes epoch
//!   generations monotonically;
//! * **concurrency smoke** — four query threads race the daemon; every
//!   query is observed, every thread sees non-decreasing generations, and
//!   the daemon records no error. Four threads serving more SELECTs than
//!   the observation inbox holds, beside a thread that ticks until they
//!   are done, leave the monitor at shutdown having observed each SELECT
//!   exactly once.

use autod::{AutodConfig, LifecycleCore, MonitorConfig, OnlineService, WorkloadMonitor};
use autostats::{OfflineTuner, SessionReport};
use executor::StatementOutcome;
use parking_lot::Mutex;
use proptest::prelude::*;
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::{staleness_threshold, AgingPolicy, StatDescriptor, StatsCatalog, MAX_UPDATES};
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};

/// The paper's Example-2 join shape — the workload for which MNSA provably
/// builds statistics (single-table selections converge without any).
const JOIN_SQL: &str = "SELECT e.empid, d.dname FROM employees e, departments d \
                        WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200";
const JOIN2_SQL: &str = "SELECT e.empid, d.dname FROM employees e, departments d \
                         WHERE e.deptid = d.deptid AND e.salary > 240";
const SINGLE_SQL: &str = "SELECT empid FROM employees WHERE age < 25";

fn example2_db(employee_rows: i64) -> Database {
    let mut db = Database::new();
    let emp = db
        .create_table(
            "employees",
            Schema::new(vec![
                ColumnDef::new("empid", DataType::Int),
                ColumnDef::new("deptid", DataType::Int),
                ColumnDef::new("age", DataType::Int),
                ColumnDef::new("salary", DataType::Int),
            ]),
        )
        .unwrap();
    let dept = db
        .create_table(
            "departments",
            Schema::new(vec![
                ColumnDef::new("deptid", DataType::Int),
                ColumnDef::new("dname", DataType::Str),
            ]),
        )
        .unwrap();
    for i in 0..employee_rows {
        let salary = if i % 100 == 0 { 250 } else { i % 200 };
        db.table_mut(emp)
            .insert(vec![
                Value::Int(i),
                Value::Int(i % 20),
                Value::Int(20 + (i % 50)),
                Value::Int(salary),
            ])
            .unwrap();
    }
    for d in 0..20i64 {
        db.table_mut(dept)
            .insert(vec![Value::Int(d), Value::Str(format!("d{d}").into())])
            .unwrap();
    }
    db.table_mut(emp).reset_modification_counter();
    db.table_mut(dept).reset_modification_counter();
    db
}

fn bind_select(db: &Database, sql: &str) -> BoundSelect {
    let stmt = parse_statement(sql).unwrap();
    match bind_statement(db, &stmt).unwrap() {
        BoundStatement::Select(q) => q,
        other => panic!("expected a select, bound {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Paused daemon ≡ offline tuning
// ---------------------------------------------------------------------------

#[test]
fn paused_daemon_one_tick_equals_offline_tune() {
    let db = example2_db(3000);
    let queries = [JOIN_SQL, JOIN2_SQL, SINGLE_SQL];

    // Online: the monitor observes the workload, then one unconstrained
    // tick (shrink on every tick) drains it.
    let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
    for (i, sql) in queries.iter().enumerate() {
        monitor.lock().observe(&bind_select(&db, sql), i as u64);
    }
    let mut core = LifecycleCore::new(
        StatsCatalog::new(),
        AutodConfig {
            shrink_every: 1,
            ..AutodConfig::default()
        },
    );
    let report = core.tick(&db, &monitor, f64::INFINITY).unwrap();
    assert_eq!(report.queries_tuned, queries.len());
    assert!(!report.budget_exhausted);

    // Offline: tune from scratch on the identical sample.
    let sample: Vec<BoundSelect> = queries.iter().map(|sql| bind_select(&db, sql)).collect();
    let mut offline = StatsCatalog::new();
    OfflineTuner::default()
        .tune(&db, &mut offline, &sample)
        .unwrap();

    assert!(offline.total_count() > 0, "workload must build statistics");
    assert_eq!(core.catalog().snapshot(), offline.snapshot());
    // The published epoch carries the same catalog.
    assert_eq!(core.epoch().catalog.snapshot(), offline.snapshot());
}

// ---------------------------------------------------------------------------
// Staleness boundaries, through a real refresh tick
// ---------------------------------------------------------------------------

fn insert_rows(db: &mut Database, t: TableId, n: u64) {
    for i in 0..n {
        db.table_mut(t)
            .insert(vec![
                Value::Int(i as i64),
                Value::Int(0),
                Value::Int(30),
                Value::Int(0),
            ])
            .unwrap();
    }
}

/// What a default service funds a tick with.
fn budget() -> f64 {
    AutodConfig::default().budget_per_tick
}

/// A core with one statistic built on `employees`, plus the table id.
fn core_with_employee_stat(rows: i64) -> (Database, TableId, LifecycleCore) {
    let db = example2_db(rows);
    let t = db.table_id("employees").unwrap();
    let mut catalog = StatsCatalog::new();
    catalog
        .create_statistic(&db, StatDescriptor::single(t, 2))
        .unwrap();
    let core = LifecycleCore::new(catalog, AutodConfig::default());
    (db, t, core)
}

#[test]
fn tick_at_exactly_min_modified_rows_refreshes_nothing() {
    // 1000 rows → threshold = max(500, 200) = 500.
    let (mut db, t, mut core) = core_with_employee_stat(1000);
    let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
    insert_rows(&mut db, t, 500);
    let report = core.tick(&db, &monitor, budget()).unwrap();
    assert_eq!(report.refreshed, 0, "exactly the threshold is still fresh");
    assert!(report.published_generation.is_none());

    insert_rows(&mut db, t, 1);
    let report = core.tick(&db, &monitor, budget()).unwrap();
    assert_eq!(report.refreshed, 1, "one past the threshold is stale");
    assert!(report.refresh_work > 0.0);
    assert_eq!(report.published_generation, Some(1));
}

#[test]
fn twenty_percent_threshold_moves_with_the_table() {
    // 10_000 rows → the fraction term dominates and grows as rows arrive.
    let (mut db, t, mut core) = core_with_employee_stat(10_000);
    let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
    // 2481 inserts: rows = 12_481 → threshold 2496 ≥ mods, still fresh.
    insert_rows(&mut db, t, 2481);
    assert_eq!(staleness_threshold(db.table(t).row_count()), 2496);
    let report = core.tick(&db, &monitor, budget()).unwrap();
    assert_eq!(report.refreshed, 0);
    // 120 more outruns the moving threshold.
    insert_rows(&mut db, t, 120);
    let report = core.tick(&db, &monitor, budget()).unwrap();
    assert_eq!(report.refreshed, 1);
}

#[test]
fn empty_table_falls_back_to_min_modified_rows() {
    let (mut db, t, mut core) = core_with_employee_stat(0);
    let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
    insert_rows(&mut db, t, 500);
    let report = core.tick(&db, &monitor, budget()).unwrap();
    assert_eq!(report.refreshed, 0);
    insert_rows(&mut db, t, 1);
    let report = core.tick(&db, &monitor, budget()).unwrap();
    assert_eq!(report.refreshed, 1);
}

// ---------------------------------------------------------------------------
// Auto-drop (§6), through a live service
// ---------------------------------------------------------------------------

/// A drop-listed statistic the DML keeps stale is refreshed `MAX_UPDATES`
/// times and then goes: counted, journaled (text and JSON), gone from the
/// epoch the tick publishes — and from the master catalog at shutdown,
/// where its descriptor sits in the aging registry.
#[test]
fn served_dml_ages_a_drop_listed_statistic_out_of_the_catalog() {
    let db = example2_db(1000);
    let t = db.table_id("employees").unwrap();
    let mut catalog = StatsCatalog::new();
    let descriptor = StatDescriptor::single(t, 2);
    let listed = catalog.create_statistic(&db, descriptor.clone()).unwrap();
    catalog.move_to_drop_list(listed);
    let svc = OnlineService::start(
        db,
        catalog,
        SessionReport::default(),
        obsv::Obs::enabled(),
        AutodConfig::default(),
    );
    let handle = svc.handle(1);
    let mut dropped = Vec::new();
    for round in 0..=MAX_UPDATES {
        // 501 of the 1000 rows: one past the threshold, every round.
        let outcome = handle
            .run_sql(&format!(
                "UPDATE employees SET age = {} WHERE empid < 501",
                31 + round
            ))
            .unwrap();
        assert!(matches!(
            outcome,
            StatementOutcome::Dml {
                rows_affected: 501,
                ..
            }
        ));
        let report = svc.tick_wait().unwrap();
        assert_eq!(report.refreshed, 1, "round {round}");
        assert_eq!(
            svc.epoch().catalog.statistic(listed).is_some(),
            report.dropped == 0
        );
        dropped.push(report.dropped);
    }
    let mut kept = vec![0; MAX_UPDATES as usize];
    kept.push(1);
    assert_eq!(dropped, kept, "exactly MAX_UPDATES refreshes are kept");
    assert_eq!(svc.metrics().counter("autod.auto_drops").get(), 1);
    assert_eq!(handle.generation(), u64::from(MAX_UPDATES) + 1);

    // Nothing left to refresh or drop: a quiet tick publishes nothing.
    let quiet = svc.tick_wait().unwrap();
    assert_eq!((quiet.refreshed, quiet.dropped), (0, 0));
    assert_eq!(quiet.published_generation, None);

    let (_, report) = svc.shutdown();
    assert_eq!(report.catalog.total_count(), 0);
    // In the aging registry: aged out under a window that never closes.
    let forever = AgingPolicy {
        window_epochs: u64::MAX,
        expensive_query_cost: f64::INFINITY,
    };
    assert!(report.catalog.is_aged_out(&descriptor, &forever, 0.0));
    assert!(report.session.render_text().contains(&format!(
        "tick    5 auto-drop {listed} on {t} (after 5 updates)"
    )));
    assert!(report.session.to_json().contains(
        "{\"event\": \"auto_drop\", \"tick\": 5, \"stat\": 0, \"table\": 0, \"updates\": 5}"
    ));
}

// ---------------------------------------------------------------------------
// Random interleavings (proptest)
// ---------------------------------------------------------------------------

fn service(rows: i64, budget: f64) -> OnlineService {
    OnlineService::start(
        example2_db(rows),
        StatsCatalog::new(),
        SessionReport::default(),
        obsv::Obs::disabled(),
        AutodConfig {
            budget_per_tick: budget,
            shrink_every: 3,
            ..AutodConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of queries, DML, and ticks: nothing panics, costs
    /// stay finite and non-negative, generations never go backwards.
    #[test]
    fn random_interleavings_keep_invariants(ops in prop::collection::vec(0u8..6, 1..14)) {
        let svc = service(1200, 40_000.0);
        let handle = svc.handle(1);
        let mut last_generation = svc.generation();
        for op in ops {
            match op {
                0 => {
                    let out = handle.run_sql(JOIN_SQL).unwrap();
                    let StatementOutcome::Query { estimated_cost, .. } = out else {
                        panic!("select produced a non-query outcome");
                    };
                    prop_assert!(estimated_cost.is_finite() && estimated_cost >= 0.0);
                }
                1 => { handle.run_sql(JOIN2_SQL).unwrap(); }
                2 => { handle.run_sql(SINGLE_SQL).unwrap(); }
                3 => { handle.run_sql("DELETE FROM employees WHERE empid < 40").unwrap(); }
                4 => { handle.run_sql("UPDATE employees SET age = 41 WHERE deptid = 3").unwrap(); }
                _ => {
                    svc.tick_wait().unwrap();
                    let g = svc.generation();
                    prop_assert!(g >= last_generation, "generation regressed: {g} < {last_generation}");
                    last_generation = g;
                }
            }
        }
        let (_, report) = svc.shutdown();
        prop_assert!(report.error.is_none());
        prop_assert!(report.generation >= last_generation);
    }
}

// ---------------------------------------------------------------------------
// Concurrency smoke
// ---------------------------------------------------------------------------

#[test]
fn four_query_threads_race_the_daemon() {
    const THREADS: usize = 4;
    const REPS: usize = 6;
    let svc = service(3000, f64::INFINITY);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let handle = svc.handle(tid as u64 + 1);
            s.spawn(move || {
                let mut last = handle.generation();
                for rep in 0..REPS {
                    let sql = match (tid + rep) % 3 {
                        0 => JOIN_SQL,
                        1 => JOIN2_SQL,
                        _ => SINGLE_SQL,
                    };
                    let out = handle.run_sql(sql).unwrap();
                    assert!(matches!(out, StatementOutcome::Query { .. }));
                    let g = handle.generation();
                    assert!(g >= last, "thread {tid} saw generation regress");
                    last = g;
                }
            });
        }
        // The daemon ticks while the workload is in flight.
        for _ in 0..4 {
            svc.tick_wait().unwrap();
        }
    });
    // Drain whatever arrived after the last in-flight tick.
    svc.tick_wait().unwrap();

    let (db, report) = svc.shutdown();
    assert!(db.table_id("employees").is_some());
    assert!(report.error.is_none(), "daemon error: {:?}", report.error);
    assert_eq!(report.observed, (THREADS * REPS) as u64);
    assert!(
        report.catalog.total_count() > 0,
        "join workload builds stats"
    );
    assert!(report.generation >= 1);
}

/// Four query threads push more observations than the inbox holds, so
/// handles fold it while a ticker folds it too: at shutdown the monitor has
/// observed every SELECT served, none lost and none twice.
#[test]
fn every_select_is_observed_once_beside_a_ticking_daemon() {
    const THREADS: u64 = 4;
    const REPS: u64 = 150;
    let svc = service(3000, 40_000.0);

    std::thread::scope(|s| {
        let clients: Vec<_> = (0..THREADS)
            .map(|tid| {
                let handle = svc.handle(tid + 1);
                s.spawn(move || {
                    for rep in 0..REPS {
                        // Hot joins between distinct single-table templates,
                        // enough of them to overflow the monitor.
                        let sql = match rep % 3 {
                            0 => JOIN_SQL.to_string(),
                            _ => format!(
                                "SELECT empid FROM employees WHERE age < {}",
                                tid * REPS + rep
                            ),
                        };
                        let out = handle.run_sql(&sql).unwrap();
                        assert!(matches!(out, StatementOutcome::Query { .. }));
                    }
                })
            })
            .collect();
        // A client that panics is finished too, so this loop ends.
        while !clients.iter().all(|c| c.is_finished()) {
            svc.tick_wait().unwrap();
        }
    });

    let (_, report) = svc.shutdown();
    assert!(report.error.is_none(), "daemon error: {:?}", report.error);
    // Every client served all its SELECTs, or the scope would have panicked.
    assert_eq!(report.observed, THREADS * REPS);
    assert!(report.evictions > 0, "the templates overflowed the monitor");
}
