//! Lifecycle integration: creation → use → drop-list → reactivation →
//! aging → physical drop, across the §6 policy machinery.

use autostats::{candidate_statistics, MnsaConfig, MnsaEngine, OfflineTuner};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use query::{bind_statement, BoundSelect, BoundStatement};
use stats::{staleness_threshold, AgingPolicy, StatsCatalog, MAX_UPDATES};
use storage::{Database, Value};

fn db() -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.002,
        zipf: ZipfSpec::Fixed(2.0),
        seed: 21,
    })
}

fn queries(db: &Database, n: usize, seed: u64) -> Vec<BoundSelect> {
    let spec = WorkloadSpec::new(0, Complexity::Simple, n).with_seed(seed);
    RagsGenerator::generate(db, &spec)
        .iter()
        .filter_map(|s| match bind_statement(db, s).unwrap() {
            BoundStatement::Select(q) => Some(q),
            _ => None,
        })
        .collect()
}

/// One §6 pass as the daemon's tick runs it: refresh what is stale, table
/// by table, then drop what was refreshed too often — only drop-listed
/// statistics under `only_droplisted`, the paper's policy. Returns how many
/// statistics were refreshed.
fn maintenance_pass(db: &Database, catalog: &mut StatsCatalog, only_droplisted: bool) -> usize {
    let mut refreshed = 0;
    for (table, ids) in catalog.stale_by_table(db) {
        refreshed += catalog.refresh(db, table, &ids, None).len();
    }
    catalog.drop_over_updated(only_droplisted);
    refreshed
}

#[test]
fn drop_listed_statistics_reactivate_for_free_on_repeat_workload() {
    let db = db();
    let workload = queries(&db, 10, 1);
    let mut catalog = StatsCatalog::new();

    // Build all candidates, then shrink: removed ones land on the drop-list.
    for q in &workload {
        for d in candidate_statistics(q) {
            catalog.create_statistic(&db, d).unwrap();
        }
    }
    OfflineTuner::default()
        .tune(&db, &mut catalog, &workload)
        .unwrap();
    let work_after_tune = catalog.creation_work();

    // The same workload repeats: whatever MNSA wants again that sits on the
    // drop-list must come back without rebuild cost.
    let engine = MnsaEngine::new(MnsaConfig::default());
    for q in &workload {
        engine.run_query(&db, &mut catalog, q).unwrap();
    }
    assert_eq!(
        catalog.creation_work(),
        work_after_tune,
        "repeat workload re-built statistics instead of reactivating"
    );
}

#[test]
fn update_counters_flow_into_update_work() {
    let mut database = db();
    let mut catalog = StatsCatalog::new();
    let lineitem = database.table_id("lineitem").unwrap();
    catalog
        .create_statistic(&database, stats::StatDescriptor::single(lineitem, 4))
        .unwrap();
    assert_eq!(catalog.update_work(), 0.0);

    // Mutate a third of lineitem: past the staleness threshold.
    let rows = database.table(lineitem).row_count();
    let victims: Vec<usize> = (0..rows).filter(|r| r % 3 == 0).collect();
    assert!(victims.len() as u64 > staleness_threshold(rows));
    database
        .table_mut(lineitem)
        .update_rows(&victims, 4, &Value::Float(1.0))
        .unwrap();

    let statistics_updated = maintenance_pass(&database, &mut catalog, true);
    assert_eq!(statistics_updated, 1);
    assert!(catalog.update_work() > 0.0);

    // The refreshed statistic reflects the new data; its staleness baseline
    // is the (never reset) counter value at rebuild time.
    let counter = database.table(lineitem).modification_counter();
    assert!(counter > 0);
    let sid = catalog.active_ids()[0];
    let stat = catalog.statistic(sid).unwrap();
    assert_eq!(stat.update_count, 1);
    assert_eq!(stat.mods_at_build, counter);
    assert!(catalog.stale_statistics(&database).is_empty());
    let hot = stat.histogram.selectivity_eq(&Value::Float(1.0));
    assert!(hot > 0.25, "refreshed histogram missed the update: {hot}");
}

#[test]
fn aging_window_expires() {
    let database = db();
    let workload = queries(&database, 6, 2);
    let mut catalog = StatsCatalog::new();
    let aging = AgingPolicy {
        window_epochs: 2,
        expensive_query_cost: f64::INFINITY,
    };

    // Create + physically drop everything the workload wants.
    let engine = MnsaEngine::new(MnsaConfig::default());
    for q in &workload {
        engine.run_query(&database, &mut catalog, q).unwrap();
    }
    for id in catalog.active_ids() {
        catalog.physically_drop(id);
    }

    // Within the window: dampened.
    let aged_engine = MnsaEngine::new(MnsaConfig {
        aging: Some(aging),
        ..Default::default()
    });
    let mut within = 0usize;
    for q in &workload {
        within += aged_engine
            .run_query(&database, &mut catalog, q)
            .unwrap()
            .created
            .len();
    }

    // Past the window: re-creation allowed again.
    for id in catalog.active_ids() {
        catalog.physically_drop(id);
    }
    catalog.advance_epoch();
    catalog.advance_epoch();
    catalog.advance_epoch();
    let mut after = 0usize;
    for q in &workload {
        after += aged_engine
            .run_query(&database, &mut catalog, q)
            .unwrap()
            .created
            .len();
    }
    assert!(
        after >= within,
        "expired aging window should allow at least as many creations ({after} vs {within})"
    );
}

#[test]
fn vanilla_drop_policy_causes_recreate_churn_improved_policy_does_not() {
    // The scenario §2 describes: the vanilla policy "drops a useful
    // statistic only to re-create it immediately for a subsequent query".
    let run = |only_droplisted: bool| -> f64 {
        let mut database = db();
        let workload = queries(&database, 8, 3);
        let mut catalog = StatsCatalog::new();
        let engine = MnsaEngine::new(MnsaConfig::default());
        for round in 0..3 {
            for q in &workload {
                engine.run_query(&database, &mut catalog, q).unwrap();
            }
            // Update traffic on every table, each time past its staleness
            // threshold, until every statistic was refreshed `MAX_UPDATES + 1`
            // times: the vanilla policy drops them all.
            let table_ids: Vec<_> = database.table_ids().collect();
            for pass in 0..=MAX_UPDATES as usize {
                for &t in &table_ids {
                    let rows = database.table(t).row_count();
                    let victims: Vec<usize> =
                        (0..rows).filter(|r| r % 4 == (round + pass) % 4).collect();
                    if victims.is_empty() {
                        continue;
                    }
                    let v = database.table(t).value(0, 0);
                    let mut modified = 0;
                    while modified as u64 <= staleness_threshold(rows) {
                        modified += database.table_mut(t).update_rows(&victims, 0, &v).unwrap();
                    }
                }
                maintenance_pass(&database, &mut catalog, only_droplisted);
            }
        }
        catalog.creation_work()
    };
    let churn_vanilla = run(false);
    let churn_improved = run(true);
    assert!(
        churn_improved < churn_vanilla,
        "improved policy re-created as much as vanilla ({churn_improved} >= {churn_vanilla})"
    );
}
