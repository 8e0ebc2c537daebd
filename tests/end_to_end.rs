//! End-to-end integration: the full pipeline over generated TPC-D data —
//! parse → bind → tune (MNSA) → optimize → execute, plus maintenance.

use autostats::manager::{AutoStatsManager, ManagerConfig};
use autostats::policy::CreationPolicy;
use autostats::MnsaConfig;
use datagen::{
    build_tpcd, create_tuned_indexes, tpcd_benchmark_queries, Complexity, RagsGenerator,
    TpcdConfig, WorkloadSpec, ZipfSpec,
};
use executor::StatementOutcome;
use query::{render, Statement};

fn small_db(z: ZipfSpec) -> storage::Database {
    build_tpcd(&TpcdConfig {
        scale: 0.002,
        zipf: z,
        seed: 77,
    })
}

#[test]
fn tpcd_queries_run_end_to_end_with_auto_tuning() {
    let mut mgr = AutoStatsManager::new(small_db(ZipfSpec::Mixed), ManagerConfig::default());
    for (i, q) in tpcd_benchmark_queries().into_iter().enumerate() {
        let out = mgr
            .execute(&Statement::Select(q))
            .unwrap_or_else(|e| panic!("Q{} failed: {e}", i + 1));
        match out {
            StatementOutcome::Query { estimated_cost, .. } => {
                assert!(estimated_cost > 0.0, "Q{} zero cost", i + 1)
            }
            _ => panic!("Q{} not a query", i + 1),
        }
    }
    // Tuning happened and left a bounded number of statistics.
    assert!(mgr.catalog().active_count() > 0);
    assert!(mgr.tuning_report().optimizer_calls > 17);
}

#[test]
fn rags_mixed_workload_runs_under_all_policies() {
    for policy in [
        CreationPolicy::Manual,
        CreationPolicy::CreateAllSyntactic,
        CreationPolicy::CreateAllCandidates,
        CreationPolicy::Mnsa(MnsaConfig::default()),
        CreationPolicy::Mnsa(MnsaConfig::default().with_drop_detection()),
    ] {
        let db = small_db(ZipfSpec::Fixed(1.0));
        let spec = WorkloadSpec::new(25, Complexity::Simple, 30).with_seed(3);
        let stmts = RagsGenerator::generate(&db, &spec);
        let mut mgr = AutoStatsManager::new(
            db,
            ManagerConfig {
                creation: policy,
                ..Default::default()
            },
        );
        for s in &stmts {
            mgr.execute(s)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}\n{}", render(s)));
        }
        assert!(mgr.execution_work() > 0.0);
        if matches!(policy, CreationPolicy::Manual) {
            assert_eq!(mgr.catalog().total_count(), 0);
        }
    }
}

#[test]
fn query_results_are_stats_independent() {
    // Statistics change plans, never answers: executing the same workload
    // with no statistics and with full statistics must give identical
    // result row counts.
    let db = small_db(ZipfSpec::Fixed(2.0));
    let queries: Vec<Statement> = tpcd_benchmark_queries()
        .into_iter()
        .map(Statement::Select)
        .collect();

    let mut bare = AutoStatsManager::new(
        db.clone(),
        ManagerConfig {
            creation: CreationPolicy::Manual,
            ..Default::default()
        },
    );
    let mut tuned = AutoStatsManager::new(
        db,
        ManagerConfig {
            creation: CreationPolicy::CreateAllCandidates,
            ..Default::default()
        },
    );
    for (i, q) in queries.iter().enumerate() {
        let a = bare.execute(q).unwrap();
        let b = tuned.execute(q).unwrap();
        match (a, b) {
            (
                StatementOutcome::Query { output: oa, .. },
                StatementOutcome::Query { output: ob, .. },
            ) => {
                assert_eq!(
                    oa.row_count(),
                    ob.row_count(),
                    "Q{}: results differ with statistics",
                    i + 1
                );
                assert_eq!(oa.rows, ob.rows, "Q{}: rows differ", i + 1);
            }
            _ => panic!(),
        }
    }
}

#[test]
fn tuned_database_with_indexes_prefers_index_plans() {
    let mut db = small_db(ZipfSpec::Fixed(0.0));
    create_tuned_indexes(&mut db);
    let mut mgr = AutoStatsManager::new(db, ManagerConfig::default());
    // Highly selective key lookup: should use the o_orderkey index.
    let plan = mgr
        .explain_sql("SELECT * FROM orders WHERE o_orderkey = 5")
        .unwrap();
    mgr.execute_sql("SELECT * FROM orders WHERE o_orderkey = 5")
        .unwrap();
    let plan_after = mgr
        .explain_sql("SELECT * FROM orders WHERE o_orderkey = 5")
        .unwrap();
    assert!(
        plan.contains("IndexScan") || plan_after.contains("IndexScan"),
        "index never used:\nbefore: {plan}\nafter: {plan_after}"
    );
}

#[test]
fn heavy_update_traffic_triggers_maintenance_cycle() {
    let db = small_db(ZipfSpec::Fixed(0.0));
    let mut mgr = AutoStatsManager::new(
        db,
        ManagerConfig {
            maintenance: stats::MaintenancePolicy {
                update_fraction: 0.05,
                min_modified_rows: 5,
                max_updates: 1,
                drop_only_droplisted: true,
            },
            // Unconditional creation: the 20-row supplier table is too
            // small for MNSA's sensitivity probe to build anything, and
            // this test is about the maintenance cycle, not creation.
            creation: CreationPolicy::CreateAllSyntactic,
            auto_maintain: true,
        },
    );
    // Query first so statistics exist.
    mgr.execute_sql("SELECT * FROM supplier WHERE s_acctbal > 0.0 AND s_nationkey = 3")
        .unwrap();
    // Hammer the supplier table with inserts.
    for i in 0..200 {
        mgr.execute_sql(&format!(
            "INSERT INTO supplier VALUES ({}, 'Supplier#x', 1, 10.0)",
            100_000 + i
        ))
        .unwrap();
    }
    // The maintenance cycle ran: the query created supplier statistics and
    // the insert traffic forced repeated staleness refreshes. The shared
    // counter itself keeps growing and is never reset; each refreshed
    // statistic instead carries the counter value at its rebuild as its
    // staleness baseline, and nothing remains stale at the end.
    let t = mgr.database().table_id("supplier").unwrap();
    let policy = stats::MaintenancePolicy {
        update_fraction: 0.05,
        min_modified_rows: 5,
        max_updates: 1,
        drop_only_droplisted: true,
    };
    assert!(mgr
        .catalog()
        .stale_statistics(mgr.database(), &policy)
        .is_empty());
    let counter = mgr.database().table(t).modification_counter();
    assert!(counter >= 200, "shared counter only grows, got {counter}");
    assert!(mgr
        .catalog()
        .built_on_table(t)
        .any(|s| s.update_count >= 1 && s.mods_at_build > 0));
}

#[test]
fn workload_execution_work_is_reproducible() {
    let db = small_db(ZipfSpec::Mixed);
    let spec = WorkloadSpec::new(0, Complexity::Complex, 20).with_seed(9);
    let stmts = RagsGenerator::generate(&db, &spec);
    let run = |db: storage::Database| {
        let mut mgr = AutoStatsManager::new(db, ManagerConfig::default());
        for s in &stmts {
            mgr.execute(s).unwrap();
        }
        mgr.execution_work()
    };
    let a = run(db.clone());
    let b = run(db);
    assert_eq!(a, b);
}
