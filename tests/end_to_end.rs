//! End-to-end integration: the full pipeline over generated TPC-D data —
//! parse → bind → optimize → execute in front, and behind it the §6
//! lifecycle (MNSA, refresh, auto-drop) on the service's tick.

use autod::{AutodConfig, OnlineService};
use autostats::policy::{apply_policy, CreationPolicy};
use autostats::{MnsaConfig, MnsaEngine, SessionReport};
use datagen::{
    build_tpcd, create_tuned_indexes, tpcd_benchmark_queries, Complexity, RagsGenerator,
    TpcdConfig, WorkloadSpec, ZipfSpec,
};
use executor::{run_statement, StatementOutcome};
use optimizer::Optimizer;
use query::{bind_statement, render, BoundSelect, BoundStatement, Statement};
use stats::StatsCatalog;
use storage::Database;

fn small_db(z: ZipfSpec) -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.002,
        zipf: z,
        seed: 77,
    })
}

/// §6's on-the-fly policy: a service the caller ticks after every
/// statement, on an unlimited budget.
fn on_the_fly(db: Database, catalog: StatsCatalog, config: AutodConfig) -> OnlineService {
    OnlineService::start(
        db,
        catalog,
        SessionReport::default(),
        obsv::Obs::disabled(),
        AutodConfig {
            budget_per_tick: f64::INFINITY,
            ..config
        },
    )
}

/// How statistics are made for each SELECT before it runs.
#[derive(Debug)]
enum Creation {
    None,
    /// One of the create-all baselines.
    Policy(CreationPolicy),
    /// §6's on-the-fly MNSA (MNSA/D with `drop_detection`).
    Mnsa(MnsaConfig),
}

impl Creation {
    fn apply(&self, db: &Database, catalog: &mut StatsCatalog, q: &BoundSelect) {
        match self {
            Creation::None => {}
            Creation::Policy(policy) => {
                apply_policy(db, catalog, policy, q).unwrap();
            }
            Creation::Mnsa(config) => {
                MnsaEngine::new(*config).run_query(db, catalog, q).unwrap();
            }
        }
    }
}

/// Run `stmts` one by one, each under `creation`'s statistics for it, the
/// way `benchmark/src/reference.rs` does. Returns the outcomes and the
/// catalog.
fn run_under(
    creation: &Creation,
    mut db: Database,
    stmts: &[Statement],
) -> (Vec<StatementOutcome>, StatsCatalog) {
    let optimizer = Optimizer::default();
    let mut catalog = StatsCatalog::new();
    let outcomes = stmts
        .iter()
        .map(|s| {
            let bound = bind_statement(&db, s).unwrap();
            if let BoundStatement::Select(q) = &bound {
                creation.apply(&db, &mut catalog, q);
            }
            run_statement(&mut db, catalog.full_view(), &optimizer, &bound)
                .unwrap_or_else(|e| panic!("{creation:?}: {e}\n{}", render(s)))
        })
        .collect();
    (outcomes, catalog)
}

#[test]
fn tpcd_queries_run_end_to_end_with_auto_tuning() {
    let svc = on_the_fly(
        small_db(ZipfSpec::Mixed),
        StatsCatalog::new(),
        AutodConfig::default(),
    );
    let client = svc.handle(0);
    for (i, q) in tpcd_benchmark_queries().into_iter().enumerate() {
        let out = client
            .run_sql(&render(&Statement::Select(q)))
            .unwrap_or_else(|e| panic!("Q{} failed: {e}", i + 1));
        match out {
            StatementOutcome::Query { estimated_cost, .. } => {
                assert!(estimated_cost > 0.0, "Q{} zero cost", i + 1)
            }
            _ => panic!("Q{} not a query", i + 1),
        }
        let tick = svc.tick_wait().unwrap();
        assert_eq!(
            tick.queries_tuned,
            1,
            "Q{} tuned on the tick after it",
            i + 1
        );
        assert_eq!((tick.tune_error, tick.shrink_error), (None, None));
    }
    // Tuning happened and left a bounded number of statistics.
    let (_, report) = svc.shutdown();
    assert!(report.catalog.active_count() > 0);
    assert!(report.session.totals.optimizer_calls > 17);
    assert_eq!(report.session.queries.len(), 17);
    assert!(report.error.is_none());
}

#[test]
fn rags_mixed_workload_runs_under_all_policies() {
    for creation in [
        Creation::None,
        Creation::Policy(CreationPolicy::CreateAllSyntactic),
        Creation::Policy(CreationPolicy::CreateAllCandidates),
        Creation::Mnsa(MnsaConfig::default()),
        Creation::Mnsa(MnsaConfig::default().with_drop_detection()),
    ] {
        let db = small_db(ZipfSpec::Fixed(1.0));
        let spec = WorkloadSpec::new(25, Complexity::Simple, 30).with_seed(3);
        let stmts = RagsGenerator::generate(&db, &spec);
        let (outcomes, catalog) = run_under(&creation, db, &stmts);
        assert!(outcomes.iter().map(StatementOutcome::work).sum::<f64>() > 0.0);
        if matches!(creation, Creation::None) {
            assert_eq!(catalog.total_count(), 0);
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

    let (bare, none) = run_under(&Creation::None, db.clone(), &queries);
    let (tuned, all) = run_under(
        &Creation::Policy(CreationPolicy::CreateAllCandidates),
        db,
        &queries,
    );
    assert_eq!(none.total_count(), 0);
    assert!(all.total_count() > 0);
    for (i, pair) in bare.into_iter().zip(tuned).enumerate() {
        match pair {
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
    let svc = on_the_fly(db, StatsCatalog::new(), AutodConfig::default());
    let client = svc.handle(0);
    // Highly selective key lookup: should use the o_orderkey index.
    let sql = "SELECT * FROM orders WHERE o_orderkey = 5";
    let plan = client.explain_sql(sql).unwrap();
    client.run_sql(sql).unwrap();
    svc.tick_wait().unwrap();
    let plan_after = client.explain_sql(sql).unwrap();
    assert!(
        plan.contains("IndexScan") || plan_after.contains("IndexScan"),
        "index never used:\nbefore: {plan}\nafter: {plan_after}"
    );
}

#[test]
fn heavy_update_traffic_triggers_maintenance_cycle() {
    let db = small_db(ZipfSpec::Fixed(0.0));
    // The service continues from a catalog built unconditionally: the
    // 20-row supplier table is too small for MNSA's sensitivity probe to
    // build anything, and this test is about the maintenance cycle, not
    // creation. One of the two statistics is already on the drop-list.
    let sql = "SELECT * FROM supplier WHERE s_acctbal > 0.0 AND s_nationkey = 3";
    let BoundStatement::Select(query) =
        bind_statement(&db, &query::parse_statement(sql).unwrap()).unwrap()
    else {
        unreachable!()
    };
    let mut catalog = StatsCatalog::new();
    let (_, created) = apply_policy(
        &db,
        &mut catalog,
        &CreationPolicy::CreateAllSyntactic,
        &query,
    )
    .unwrap();
    assert_eq!(created.len(), 2);
    catalog.move_to_drop_list(created[1]);

    let svc = on_the_fly(
        db,
        catalog,
        AutodConfig {
            // The Shrinking Set would find the other statistic non-essential
            // too (the plan over 20 rows does not depend on it) and send it
            // the same way.
            shrink_every: 0,
            ..AutodConfig::default()
        },
    );
    let client = svc.handle(0);
    client.run_sql(sql).unwrap();
    // Hammer the supplier table with inserts, a tick after every 25: past
    // the 500-row floor again and again, then past a fifth of a table that
    // keeps growing.
    let (mut refreshed, mut dropped) = (0, 0);
    for i in 0..4000 {
        client
            .run_sql(&format!(
                "INSERT INTO supplier VALUES ({}, 'Supplier#x', 1, 10.0)",
                100_000 + i
            ))
            .unwrap();
        if i % 25 == 24 {
            let tick = svc.tick_wait().unwrap();
            refreshed += tick.refreshed;
            dropped += tick.dropped;
        }
    }
    // The maintenance cycle ran: the insert traffic forced repeated
    // staleness refreshes. The shared counter itself keeps growing and is
    // never reset; each refreshed statistic instead carries the counter
    // value at its rebuild as its staleness baseline, and nothing remains
    // stale at the end. The drop-listed statistic went after its
    // `MAX_UPDATES + 1`-th refresh; the active one is refreshed for as long
    // as it is wanted.
    let (db, report) = svc.shutdown();
    let t = db.table_id("supplier").unwrap();
    assert!(report.catalog.stale_statistics(&db).is_empty());
    let counter = db.table(t).modification_counter();
    assert!(counter >= 4000, "shared counter only grows, got {counter}");
    assert!(refreshed > 2 * (stats::MAX_UPDATES as usize + 1));
    assert_eq!(dropped, 1);
    assert!(report.catalog.statistic(created[1]).is_none());
    let kept = report.catalog.statistic(created[0]).unwrap();
    assert!(kept.update_count > stats::MAX_UPDATES + 1 && kept.mods_at_build > 0);
}

#[test]
fn workload_execution_work_is_reproducible() {
    let db = small_db(ZipfSpec::Mixed);
    let spec = WorkloadSpec::new(0, Complexity::Complex, 20).with_seed(9);
    let stmts = RagsGenerator::generate(&db, &spec);
    let run = |db: Database| {
        let svc = on_the_fly(db, StatsCatalog::new(), AutodConfig::default());
        let client = svc.handle(0);
        let mut work = 0.0;
        for s in &stmts {
            work += client.run_sql(&render(s)).unwrap().work();
            svc.tick_wait().unwrap();
        }
        (work, svc.shutdown().1.catalog.snapshot())
    };
    let a = run(db.clone());
    let b = run(db);
    assert_eq!(a, b);
}
