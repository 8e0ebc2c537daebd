//! End-to-end fault injection (proptest).
//!
//! The panic-free contract of the tuning pipeline, exercised under random
//! schedules of the [`autostats::Fault`] failure points: whatever
//! combination of empty tables and dropped statistics is injected — before
//! tuning, between tuning and execution, or both — every entry point either succeeds with valid
//! numbers (selectivities in [0, 1], finite plan costs) or returns a typed
//! error. Nothing panics.

use autod::{AutodConfig, OnlineService};
use autostats::{Fault, FaultPlan, MnsaConfig, MnsaEngine, OfflineTuner, SessionReport};
use optimizer::{OptimizeOptions, Optimizer, PlanNode};
use proptest::prelude::*;
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};

fn build_db(rows: usize) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "facts",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ]),
        )
        .unwrap();
    let d = db
        .create_table(
            "dim",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("label", DataType::Str),
            ]),
        )
        .unwrap();
    for i in 0..rows as i64 {
        db.table_mut(t)
            .insert(vec![
                Value::Int(i % 40),
                Value::Int(if i % 50 == 0 { 1 } else { 0 }),
                Value::Int(i % 7),
            ])
            .unwrap();
    }
    for i in 0..(rows as i64 / 10).max(1) {
        db.table_mut(d)
            .insert(vec![Value::Int(i), Value::Str(format!("x{i}").into())])
            .unwrap();
    }
    db
}

fn workload(db: &Database) -> Vec<BoundSelect> {
    [
        "SELECT * FROM facts WHERE a = 1",
        "SELECT * FROM facts, dim WHERE facts.k = dim.k AND a = 1",
        "SELECT b, COUNT(*) FROM facts WHERE a = 1 GROUP BY b",
        "SELECT * FROM facts WHERE b < 3 AND a = 0",
    ]
    .iter()
    .map(
        |sql| match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => unreachable!(),
        },
    )
    .collect()
}

/// Every cost/cardinality estimate in the plan tree is a finite number.
fn assert_plan_finite(plan: &PlanNode) {
    plan.walk(&mut |n| {
        assert!(n.est_rows.is_finite(), "non-finite est_rows {}", n.est_rows);
        assert!(n.est_rows >= 0.0, "negative est_rows {}", n.est_rows);
        assert!(n.est_cost.is_finite(), "non-finite est_cost {}", n.est_cost);
    });
}

/// Every selectivity a built statistic can produce stays in [0, 1].
fn assert_selectivities_sane(catalog: &StatsCatalog) {
    let probes = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(-999),
        Value::Float(f64::INFINITY),
        Value::Str("x1".into()),
    ];
    for s in catalog.active() {
        for p in &probes {
            for sel in [
                s.histogram.selectivity_eq(p),
                s.histogram.selectivity_le(p),
                s.histogram.selectivity_lt(p),
            ] {
                assert!(!sel.is_nan(), "NaN selectivity");
                assert!((0.0..=1.0).contains(&sel), "selectivity {sel} out of range");
            }
        }
    }
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::TruncateTable(TableId(0))),
        Just(Fault::TruncateTable(TableId(1))),
        Just(Fault::TruncateTable(TableId(99))), // unknown table
        Just(Fault::TruncateAllTables),
        Just(Fault::DropAllStatistics),
    ]
}

fn arb_plan() -> impl Strategy<Value = Vec<Fault>> {
    prop::collection::vec(arb_fault(), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MNSA, MNSA/D, offline tuning (with Shrinking Set) and a what-if tune
    /// of a restored copy never panic under injected faults; every produced
    /// plan has finite estimates and every built statistic estimates within
    /// [0, 1].
    #[test]
    fn tuning_pipeline_survives_faults(
        pre in arb_plan(),
        mid in arb_plan(),
        rows in 0usize..400,
        drop_detection in prop_oneof![Just(true), Just(false)],
    ) {
        let mut db = build_db(rows);
        let queries = workload(&db);
        let mut catalog = StatsCatalog::new();

        let pre_plan = pre.iter().fold(FaultPlan::new(), |p, f| p.with(f.clone()));
        pre_plan.inject(&mut db, &mut catalog);

        let config = if drop_detection {
            MnsaConfig::default().with_drop_detection()
        } else {
            MnsaConfig::default()
        };
        let engine = MnsaEngine::new(config);

        // Per-query MNSA with faults injected between queries.
        let mid_plan = mid.iter().fold(FaultPlan::new(), |p, f| p.with(f.clone()));
        for (i, q) in queries.iter().enumerate() {
            let _ = engine.run_query(&db, &mut catalog, q);
            if i == 1 {
                mid_plan.inject(&mut db, &mut catalog);
            }
        }
        assert_selectivities_sane(&catalog);

        // Offline tuning (MNSA + Shrinking Set) on the faulted state.
        let tuner = OfflineTuner { mnsa: config };
        let _ = tuner.tune(&db, &mut catalog, &queries);
        assert_selectivities_sane(&catalog);

        // A what-if tune runs on a restored copy and leaves the live
        // catalog as it was.
        let live = catalog.snapshot();
        let _ = tuner.tune(&db, &mut StatsCatalog::restore(catalog.snapshot()), &queries);
        assert_eq!(catalog.snapshot(), live);

        // Whatever survives must still optimize to finite plans.
        let optimizer = Optimizer::default();
        for q in &queries {
            if let Ok(r) = optimizer.optimize(
                &db, q, catalog.full_view(), &OptimizeOptions::default(),
            ) {
                assert!(r.cost.is_finite(), "non-finite plan cost {}", r.cost);
                assert_plan_finite(&r.plan);
            }
        }
    }

    /// The service keeps its report/error contract under faults: every
    /// statement returns a valid outcome (finite work) or a typed
    /// `StatementError`, every tick reports, and cumulative tuning numbers
    /// stay finite. The mid-workload fault hits the `(Database,
    /// StatsCatalog)` a `shutdown()` hands back, and a second service
    /// restarts over the corrupted pair and the journal so far.
    #[test]
    fn service_reports_or_typed_errors_under_faults(
        pre in arb_plan(),
        mid in arb_plan(),
        rows in 0usize..400,
    ) {
        let mut db = build_db(rows);
        let mut catalog = StatsCatalog::new();
        let pre_plan = pre.iter().fold(FaultPlan::new(), |p, f| p.with(f.clone()));
        pre_plan.inject(&mut db, &mut catalog);

        // On-the-fly policy: a tick after every statement, unlimited budget.
        let start = |db, catalog, session| OnlineService::start(
            db,
            catalog,
            session,
            obsv::Obs::disabled(),
            AutodConfig { budget_per_tick: f64::INFINITY, shrink_every: 2, ..AutodConfig::default() },
        );
        let mut svc = start(db, catalog, SessionReport::default());
        let statements = [
            "SELECT * FROM facts WHERE a = 1",
            "INSERT INTO facts VALUES (1, 1, 1)",
            "SELECT b, COUNT(*) FROM facts WHERE a = 1 GROUP BY b",
            "DELETE FROM facts WHERE b = 3",
            "SELECT * FROM facts, dim WHERE facts.k = dim.k",
        ];
        let mid_plan = mid.iter().fold(FaultPlan::new(), |p, f| p.with(f.clone()));
        let mut execution_work = 0.0;
        for (i, sql) in statements.iter().enumerate() {
            match svc.handle(0).run_sql(sql) {
                Ok(outcome) => {
                    assert!(
                        outcome.work().is_finite() && outcome.work() >= 0.0,
                        "invalid work {}",
                        outcome.work()
                    );
                    execution_work += outcome.work();
                }
                Err(e) => {
                    // Typed, displayable, and never empty.
                    assert!(!e.to_string().is_empty());
                }
            }
            let tick = svc.tick_wait().expect("a tick reports its failures");
            assert!(tick.tuning_work.is_finite() && tick.refresh_work.is_finite());
            if i == 2 {
                // Corrupt the live state mid-workload and restart over it.
                let (mut db, mut report) = svc.shutdown();
                mid_plan.inject(&mut db, &mut report.catalog);
                svc = start(db, report.catalog, report.session);
            }
        }
        let (_, report) = svc.shutdown();
        assert!(report.session.totals.creation_work.is_finite());
        assert!(report.session.totals.overhead_work.is_finite());
        assert!(execution_work.is_finite());
        assert_selectivities_sane(&report.catalog);
    }
}
