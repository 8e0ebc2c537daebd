//! The production-telemetry cost contract, tested differentially:
//! **telemetry may never change an outcome.**
//!
//! Latency histograms, span sampling, the slow-query reservoir, windowed
//! rollups, and health snapshots are observation-only. With them fully on
//! vs fully off, the same driven workload must leave bit-identical
//! catalogs, journals, query outputs, estimated costs, and optimizer
//! plans — and the executor must return bit-identical rows and work
//! whether traced or not.
//!
//! Wall-clock values (latency quantiles, slow-query latencies, span
//! timestamps) are explicitly *outside* the bit-identity contract: the
//! last test pins that none of them can leak into the surfaces the
//! contract covers (catalog snapshots, the journal).

use autod::{AutodConfig, OnlineService, TelemetryConfig};
use autostats::SessionReport;
use executor::{execute_plan_observed, StatementOutcome};
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, Value};

const WORKLOAD: &[&str] = &[
    "SELECT e.empid, d.dname FROM employees e, departments d \
     WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200",
    "SELECT empid FROM employees WHERE age < 25",
    "UPDATE employees SET age = 41 WHERE deptid = 3",
    "SELECT e.empid, d.dname FROM employees e, departments d \
     WHERE e.deptid = d.deptid AND e.salary > 240",
    "DELETE FROM employees WHERE empid < 40",
    "SELECT empid FROM employees WHERE salary > 240",
];

fn test_db() -> Database {
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
    for i in 0..3000i64 {
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

fn start_service(telemetry_on: bool) -> OnlineService {
    let obs = if telemetry_on {
        obsv::Obs::enabled()
    } else {
        obsv::Obs::disabled()
    };
    let telemetry = if telemetry_on {
        TelemetryConfig {
            slowlog_k: 8,
            sample_one_in: 1, // every query gets a full span tree
        }
    } else {
        TelemetryConfig {
            slowlog_k: 0,
            sample_one_in: 0,
        }
    };
    OnlineService::start(
        test_db(),
        StatsCatalog::new(),
        SessionReport::default(),
        obs,
        AutodConfig {
            budget_per_tick: f64::INFINITY,
            shrink_every: 2,
            telemetry,
            ..AutodConfig::default()
        },
    )
}

/// Everything the bit-identity contract covers, from one driven service:
/// per-statement outputs (rows, work, estimated cost), the final catalog
/// snapshot, the journal rendering, the final generation, and the plans
/// the optimizer picks for the SELECTs against the final catalog.
fn drive(telemetry_on: bool) -> (Vec<String>, String, String, u64, Vec<String>) {
    let svc = start_service(telemetry_on);
    let handle = svc.handle(1);
    let mut outcomes = Vec::new();
    for (i, sql) in WORKLOAD.iter().enumerate() {
        match handle.run_sql(sql).unwrap() {
            StatementOutcome::Query {
                output,
                estimated_cost,
            } => outcomes.push(format!(
                "query rows={:?} work={} cost={}",
                output.rows,
                output.work.to_bits(),
                estimated_cost.to_bits()
            )),
            other => outcomes.push(format!("{other:?}")),
        }
        if i % 2 == 1 {
            svc.tick_wait();
            // Exercise the telemetry read paths mid-drive: none of these
            // may perturb the tuning trajectory.
            let _ = svc.roll_window((i + 1) as u64);
            let _ = svc.health();
        }
    }
    for _ in 0..4 {
        svc.tick_wait();
    }
    let _ = svc.drain_slow_queries();
    let (db, report) = svc.shutdown();
    assert!(report.error.is_none());
    let optimizer = Optimizer::default();
    let plans: Vec<String> = WORKLOAD
        .iter()
        .filter_map(|sql| {
            let stmt = parse_statement(sql).unwrap();
            match bind_statement(&db, &stmt) {
                Ok(BoundStatement::Select(q)) => Some(q),
                _ => None,
            }
        })
        .map(|q: BoundSelect| {
            let o = optimizer
                .optimize(
                    &db,
                    &q,
                    report.catalog.full_view(),
                    &OptimizeOptions::default(),
                )
                .unwrap();
            format!("{:?} cost={}", o.plan, o.cost.to_bits())
        })
        .collect();
    (
        outcomes,
        format!("{:?}", report.catalog.snapshot()),
        report.session.to_json(),
        report.generation,
        plans,
    )
}

/// Telemetry fully on vs fully off: every bit-identity surface agrees.
#[test]
fn telemetry_on_vs_off_is_bit_identical() {
    let on = drive(true);
    let off = drive(false);
    assert_eq!(on.0, off.0, "per-statement outcomes diverged");
    assert_eq!(on.1, off.1, "catalog snapshots diverged");
    assert_eq!(on.2, off.2, "journals diverged");
    assert_eq!(on.3, off.3, "epoch generations diverged");
    assert_eq!(on.4, off.4, "optimizer plans diverged");
}

/// The executor returns bit-identical rows and work traced or untraced.
#[test]
fn executor_is_trace_invariant() {
    let db = test_db();
    let stmt = parse_statement(WORKLOAD[0]).unwrap();
    let BoundStatement::Select(query) = bind_statement(&db, &stmt).unwrap() else {
        panic!("expected a select");
    };
    let optimizer = Optimizer::default();
    let catalog = stats::StatsCatalog::new();
    let plan = optimizer
        .optimize(
            &db,
            &query,
            catalog.full_view(),
            &OptimizeOptions::default(),
        )
        .unwrap()
        .plan;
    let run = |tracer: &obsv::Tracer| {
        let out = execute_plan_observed(&db, &query, &plan, tracer).unwrap();
        (out.rows, out.work.to_bits())
    };
    assert_eq!(
        run(&obsv::Tracer::disabled()),
        run(&obsv::Tracer::enabled()),
        "traced execution diverged from untraced"
    );
}

/// The slow-query reservoir's export is one valid trace stream whose span
/// trees contain real executor operators.
#[test]
fn slowlog_export_passes_trace_checks() {
    let svc = start_service(true);
    let handle = svc.handle(1);
    for sql in WORKLOAD {
        handle.run_sql(sql).unwrap();
    }
    svc.tick_wait();
    let slow = svc.drain_slow_queries();
    assert!(!slow.is_empty(), "one_in=1 sampling must capture queries");
    assert!(slow.iter().all(|q| !q.events.is_empty()));
    let jsonl = obsv::slowlog::to_jsonl(&slow);
    let summary = obsv::check::check_jsonl(&jsonl).expect("slowlog export is a valid trace");
    assert!(summary.spans > 0);
    assert!(jsonl.contains("\"slowlog.query\""), "wrapper spans present");
    assert!(jsonl.contains("exec."), "executor operator spans present");
    svc.shutdown();
}

/// Wall-clock telemetry is excluded from the bit-identity surfaces by
/// construction: no latency-flavoured key can appear in the catalog
/// snapshot or the journal, while the live metrics registry (outside the
/// contract) does carry them.
#[test]
fn wall_clock_values_stay_out_of_bit_identity_surfaces() {
    let svc = start_service(true);
    let handle = svc.handle(1);
    for sql in WORKLOAD {
        handle.run_sql(sql).unwrap();
    }
    svc.tick_wait();
    let metrics_text = svc.metrics().snapshot().render_text();
    assert!(
        metrics_text.contains("autod.query.latency_ns"),
        "registry carries wall-clock latency: it is observable"
    );
    let health = svc.health();
    assert!(health.latency_count > 0, "health reports latency");
    let (_, report) = svc.shutdown();
    let catalog_text = format!("{:?}", report.catalog.snapshot());
    let journal_text = report.session.to_json();
    for surface in [&catalog_text, &journal_text] {
        assert!(
            !surface.contains("latency") && !surface.contains("_ns"),
            "wall-clock telemetry leaked into a bit-identity surface"
        );
    }
}
