//! Integration tests for the sharded serving layer (`serve`).
//!
//! The contracts under test, end to end through the public crate APIs:
//!
//! * **router determinism** (proptest) — routing is a pure function of the
//!   statement and the plan: independently built plans route a generated
//!   workload identically, single-shard routes stay in range, and the
//!   shards a fallback loads are strictly ascending;
//! * **1-shard identity** — a 1-shard cluster fed a statement/tick schedule
//!   produces bit-identical tick reports, epoch generations, and journal
//!   JSON to a plain `autod::OnlineService` over the same database (with
//!   the same `ShardAssigned` prelude journaled);
//! * **scatter/broadcast/fallback vs oracle** — every routed execution path
//!   returns the same rows (as a multiset; exact order under ORDER BY) and
//!   the same DML counts as an unsharded service over the same database;
//! * **fallback planning** — a fallback's cost, rows and work are the
//!   magic-number plan's over the tables it assembled;
//! * **fallback snapshots** — a fallback between every pair of writes to a
//!   partitioned or an owned table sees exactly the writes made so far, and
//!   a fallback racing a writer that writes one shard and then another
//!   never sees the second write without the first;
//! * **admission stress** — several client threads hammer cloned
//!   `ClusterClient`s with fallback SELECTs and writes to an owned and the
//!   partitioned table while the driver ticks the cluster; nothing errors,
//!   the monitors observe traffic, and the tables end up as the same writes
//!   leave an unsharded service;
//! * **concurrent ticks** — two threads tick one cluster at once beside two
//!   clients: every shard's ticks are numbered 1..n with no gap or repeat
//!   and its published generations strictly increase.

use autod::{AutodConfig, OnlineService};
use autostats::{OnlineEvent, SessionReport};
use executor::StatementOutcome;
use proptest::prelude::*;
use query::parse_statement;
use serve::{Route, Router, ServeCluster, ServeConfig, ShardPlan};
use stats::StatsCatalog;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use storage::{ColumnDef, DataType, Database, Schema, Value};

/// Three tables sized so a partition threshold of 100 splits `big` while
/// `mid` and `small` land whole on (usually different) shards.
fn test_db() -> Database {
    let mut db = Database::new();
    for (name, rows) in [("big", 600usize), ("mid", 80), ("small", 10)] {
        let id = db
            .create_table(
                name,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..rows {
            db.table_mut(id)
                .insert(vec![Value::Int(i as i64), Value::Int((i % 7) as i64)])
                .unwrap();
        }
    }
    db
}

/// `budget` is the whole cluster's per tick.
fn cluster_config(shards: usize, partition_threshold: usize, budget: f64) -> ServeConfig {
    ServeConfig {
        shards,
        partition_threshold,
        autod: AutodConfig {
            budget_per_tick: budget,
            ..AutodConfig::default()
        },
    }
}

/// An unsharded service over `db` from zero statistics, its journal starting
/// as `session`.
fn plain_service(db: Database, session: SessionReport) -> OnlineService {
    OnlineService::start(
        db,
        StatsCatalog::new(),
        session,
        obsv::Obs::disabled(),
        AutodConfig::default(),
    )
}

/// Rows of a query outcome as sortable strings (Value has no Ord).
fn row_strings(outcome: &StatementOutcome) -> Vec<String> {
    match outcome {
        StatementOutcome::Query { output, .. } => {
            output.rows.iter().map(|r| format!("{r:?}")).collect()
        }
        StatementOutcome::Dml { .. } => panic!("expected a query outcome"),
    }
}

fn rows_affected(outcome: &StatementOutcome) -> usize {
    match outcome {
        StatementOutcome::Dml { rows_affected, .. } => *rows_affected,
        StatementOutcome::Query { .. } => panic!("expected a DML outcome"),
    }
}

// ---------------------------------------------------------------------------
// Router determinism (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn router_is_a_pure_function_of_statement_and_plan(
        seed in 0u64..400,
        shards in 1usize..5,
        partition in any::<bool>(),
    ) {
        // Rags generates against TPC-D table names; build the database once.
        static TPCD: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
        let db = TPCD.get_or_init(|| {
            datagen::build_tpcd(&datagen::TpcdConfig {
                scale: 0.001,
                zipf: datagen::ZipfSpec::Mixed,
                seed: 7,
            })
        });
        // Partition the largest table when asked.
        let threshold = if partition {
            db.table_ids().map(|id| db.table(id).row_count()).max().unwrap_or(1)
        } else {
            usize::MAX
        };
        // Two independently built plans must agree on everything.
        let router_a = Router::new(Arc::new(ShardPlan::build(db, shards, threshold)));
        let router_b = Router::new(Arc::new(ShardPlan::build(db, shards, threshold)));

        let spec = datagen::WorkloadSpec::new(8, datagen::Complexity::Simple, 30)
            .with_seed(seed);
        let statements = datagen::RagsGenerator::generate(db, &spec);
        prop_assert!(!statements.is_empty());

        for stmt in &statements {
            let route = router_a.route(stmt);
            prop_assert_eq!(&route, &router_b.route(stmt));
            match route {
                Route::Single(s) | Route::PartitionedInsert(s) => prop_assert!(s < shards),
                Route::Broadcast | Route::Scatter => prop_assert!(shards > 1),
                Route::Fallback => {}
            }
            let involved = router_a.involved_shards(stmt);
            prop_assert_eq!(involved.clone(), router_b.involved_shards(stmt));
            prop_assert!(involved.windows(2).all(|w| w[0] < w[1]),
                "shards must be strictly ascending: {involved:?}");
            prop_assert!(involved.iter().all(|&s| s < shards));
        }
    }
}

// ---------------------------------------------------------------------------
// 1-shard identity
// ---------------------------------------------------------------------------

const IDENTITY_STATEMENTS: &[&str] = &[
    "SELECT k FROM big WHERE k < 120",
    "SELECT b.k FROM big b, mid m WHERE b.k = m.k AND m.v = 3",
    "UPDATE mid SET v = 9 WHERE k < 40",
    "SELECT k FROM mid WHERE v = 9",
    "INSERT INTO small VALUES (99, 99)",
    "SELECT COUNT(*) FROM small",
    "SELECT s.k FROM small s, mid m WHERE s.k = m.k",
    "DELETE FROM big WHERE k >= 590",
    "SELECT k FROM big WHERE v = 2",
];

#[test]
fn one_shard_cluster_is_bit_identical_to_the_unsharded_service() {
    let budget = 500.0; // finite: the arbiter must hand it over exactly

    // The cluster side.
    let cluster = ServeCluster::start(test_db(), cluster_config(1, usize::MAX, budget)).unwrap();
    let client = cluster.client(1);
    let mut cluster_reports = Vec::new();
    for (i, sql) in IDENTITY_STATEMENTS.iter().enumerate() {
        client.run_sql(sql).unwrap();
        if (i + 1) % 3 == 0 {
            cluster_reports.extend(cluster.tick_wait().unwrap());
        }
    }
    for _ in 0..16 {
        cluster_reports.extend(cluster.tick_wait().unwrap());
    }
    let cluster_generations = cluster.generations();
    let mut pairs = cluster.shutdown().unwrap();
    let (_, cluster_report) = pairs.remove(0);
    assert!(cluster_report.error.is_none());

    // The unsharded baseline, with the same `ShardAssigned` prelude.
    let db = test_db();
    let plan = ShardPlan::build(&db, 1, usize::MAX);
    let mut shard_dbs = plan.shard_databases(&db).unwrap();
    let shard_db = shard_dbs.remove(0);
    let mut session = SessionReport::default();
    for (table, rows, partitioned) in plan.shard_manifest(0, &shard_db) {
        session.record_online(OnlineEvent::ShardAssigned {
            tick: 0,
            shard: 0,
            table,
            rows,
            partitioned,
        });
    }
    let svc = plain_service(shard_db, session);
    let handle = svc.handle(1);
    let mut plain_reports = Vec::new();
    for (i, sql) in IDENTITY_STATEMENTS.iter().enumerate() {
        handle.run_sql(sql).unwrap();
        if (i + 1) % 3 == 0 {
            plain_reports.push(svc.tick_wait_budgeted(budget));
        }
    }
    for _ in 0..16 {
        plain_reports.push(svc.tick_wait_budgeted(budget));
    }
    let plain_generation = svc.generation();
    let (_, plain_report) = svc.shutdown();
    assert!(plain_report.error.is_none());

    assert_eq!(cluster_reports, plain_reports, "tick reports diverged");
    assert_eq!(cluster_generations, vec![plain_generation]);
    assert_eq!(
        cluster_report.session.to_json(),
        plain_report.session.to_json(),
        "journal JSON diverged"
    );
    assert_eq!(cluster_report.observed, plain_report.observed);
}

// ---------------------------------------------------------------------------
// Scatter / broadcast / fallback vs the single-database oracle
// ---------------------------------------------------------------------------

#[test]
fn sharded_execution_matches_the_single_database_oracle() {
    let cluster = ServeCluster::start(test_db(), cluster_config(3, 100, f64::INFINITY)).unwrap();
    let client = cluster.client(1);
    let oracle_svc = plain_service(test_db(), SessionReport::default());
    let oracle = oracle_svc.handle(1);

    // `big` partitions across all three shards; `mid`/`small` are owned.
    assert_eq!(
        cluster.plan().placement_by_name("big").unwrap().placement,
        serve::Placement::Partitioned
    );

    // Interleave queries and DML; after every statement both sides must
    // agree (multiset of rows for queries, counts for DML).
    let script: &[(&str, bool)] = &[
        // (sql, ordered) — ordered compares row order exactly.
        ("SELECT * FROM big WHERE k < 50", false), // scatter
        ("SELECT COUNT(*) FROM big", false),       // fallback: aggregate
        ("SELECT k FROM big ORDER BY k", true),    // fallback: order by
        (
            "SELECT b.k FROM big b, mid m WHERE b.k = m.k AND m.v = 3",
            false,
        ), // fallback: join
        ("SELECT m.k FROM mid m, small s WHERE m.k = s.k", false), // owned join
        ("SELECT k FROM mid WHERE v = 5", false),  // single shard
    ];
    for (sql, ordered) in script {
        let ours = client.run_sql(sql).unwrap();
        let theirs = oracle.run_sql(sql).unwrap();
        let mut a = row_strings(&ours);
        let mut b = row_strings(&theirs);
        if !ordered {
            a.sort();
            b.sort();
        }
        assert_eq!(a, b, "rows diverged for {sql}");
    }

    // DML paths: broadcast update/delete on the partitioned table, a
    // row-hashed insert, and an owned-table update.
    for sql in [
        "UPDATE big SET v = 7 WHERE k < 100", // broadcast
        "DELETE FROM big WHERE k >= 550",     // broadcast
        "INSERT INTO big VALUES (9999, 1)",   // partitioned insert
        "UPDATE mid SET v = 1 WHERE k >= 70", // single shard
    ] {
        let ours = client.run_sql(sql).unwrap();
        let theirs = oracle.run_sql(sql).unwrap();
        assert_eq!(
            rows_affected(&ours),
            rows_affected(&theirs),
            "rows_affected diverged for {sql}"
        );
    }
    // And the data converged to the same state.
    for sql in ["SELECT COUNT(*) FROM big", "SELECT * FROM big WHERE v = 7"] {
        let mut a = row_strings(&client.run_sql(sql).unwrap());
        let mut b = row_strings(&oracle.run_sql(sql).unwrap());
        a.sort();
        b.sort();
        assert_eq!(a, b, "post-DML state diverged for {sql}");
    }
}

#[test]
fn fallbacks_see_every_write_made_between_them() {
    let cluster = ServeCluster::start(test_db(), cluster_config(3, 100, f64::INFINITY)).unwrap();
    let client = cluster.client(1);
    let oracle_svc = plain_service(test_db(), SessionReport::default());
    let oracle = oracle_svc.handle(1);

    // All three take the fallback route; the last is compared in order.
    let fallbacks: &[(&str, bool)] = &[
        ("SELECT COUNT(*) FROM big", false),
        (
            "SELECT b.k, b.v, m.v FROM big b, mid m WHERE b.k = m.k AND m.v >= 3",
            false,
        ),
        ("SELECT k, v FROM big WHERE k >= 500 ORDER BY k", true),
    ];
    for (sql, _) in fallbacks {
        assert_eq!(
            cluster.router().route(&parse_statement(sql).unwrap()),
            Route::Fallback,
            "{sql}"
        );
    }
    let compare = |after: &str| {
        for (sql, ordered) in fallbacks {
            let mut a = row_strings(&client.run_sql(sql).unwrap());
            let mut b = row_strings(&oracle.run_sql(sql).unwrap());
            if !ordered {
                a.sort();
                b.sort();
            }
            assert_eq!(a, b, "{sql} diverged after {after}");
        }
    };

    compare("start");
    for write in [
        "INSERT INTO big VALUES (7000, 3)",    // one slice
        "UPDATE big SET v = 6 WHERE k >= 450", // broadcast
        "DELETE FROM big WHERE k < 40",        // broadcast
        "UPDATE mid SET v = 5 WHERE k < 30",   // owned table of the join
        "INSERT INTO big VALUES (7001, 4)",
    ] {
        assert_eq!(
            rows_affected(&client.run_sql(write).unwrap()),
            rows_affected(&oracle.run_sql(write).unwrap()),
            "{write}"
        );
        compare(write);
    }
}

/// One client writes step `i` to `a` (owned by shard 0) and then to `b`
/// (owned by shard 1) while others loop a fallback joining the two: the
/// shards' snapshots a fallback reads were all current at one instant, so
/// none sees `b` at step `i` with `a` still before it.
#[test]
fn concurrent_fallbacks_never_see_a_later_write_without_an_earlier_one() {
    const FALLBACKS: usize = 2000;
    const READERS: usize = 3;
    let mut db = Database::new();
    for name in ["a", "b"] {
        let id = db
            .create_table(
                name,
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        db.table_mut(id)
            .insert(vec![Value::Int(0), Value::Int(0)])
            .unwrap();
    }
    let cluster = ServeCluster::start(db, cluster_config(2, usize::MAX, f64::INFINITY)).unwrap();
    for (name, shard) in [("a", 0), ("b", 1)] {
        let placement = cluster.plan().placement_by_name(name).unwrap().placement;
        assert_eq!(placement, serve::Placement::Owned(shard), "{name}");
    }
    let join = "SELECT a.v, b.v FROM a, b WHERE a.k = b.k";
    assert_eq!(
        cluster.router().route(&parse_statement(join).unwrap()),
        Route::Fallback
    );

    let (start, done) = (Barrier::new(READERS + 1), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let (writer, begin, done) = (cluster.client(1), &start, &done);
        let steps = scope.spawn(move || {
            begin.wait();
            let mut step = 0;
            while !done.load(Ordering::Acquire) {
                step += 1;
                writer.run_sql(&format!("UPDATE a SET v = {step}")).unwrap();
                writer.run_sql(&format!("UPDATE b SET v = {step}")).unwrap();
            }
            step
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (client, join, start) = (cluster.client(r as u64 + 2), &join, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..FALLBACKS {
                        let StatementOutcome::Query { output, .. } = client.run_sql(join).unwrap()
                        else {
                            panic!("the join is a query");
                        };
                        let [Value::Int(a), Value::Int(b)] = output.rows[0][..] else {
                            panic!("unexpected row {:?}", output.rows[0]);
                        };
                        assert!(b <= a, "saw b at step {b} with a at step {a}");
                    }
                })
            })
            .collect();
        // Stop the writer before a reader's failure is raised.
        let read: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        done.store(true, Ordering::Release);
        assert!(
            steps.join().unwrap() > 0,
            "the writer ran beside the readers"
        );
        for result in read {
            result.unwrap();
        }
    });
}

/// One client flips every row of the partitioned `big` between `v = 0` and
/// `v = 1` with a broadcast UPDATE while another reads `v = 1` through a
/// fallback and through a scatter: a broadcast lands on every shard before
/// any reader of several shards sees it, so each read finds all 600 rows
/// or none. The reader keeps reading until `FLIPS` broadcasts have
/// completed since it began, so the two always overlap.
#[test]
fn concurrent_readers_see_all_of_a_broadcast_or_none_of_it() {
    const READS: usize = 400;
    const FLIPS: usize = 50;
    let cluster = ServeCluster::start(test_db(), cluster_config(2, 100, f64::INFINITY)).unwrap();
    let (count, scan) = (
        "SELECT COUNT(*) FROM big WHERE v = 1",
        "SELECT k, v FROM big WHERE v = 1",
    );
    let route = |sql: &str| cluster.router().route(&parse_statement(sql).unwrap());
    assert_eq!(route(count), Route::Fallback);
    assert_eq!(route(scan), Route::Scatter);
    assert_eq!(route("UPDATE big SET v = 1 WHERE k >= 0"), Route::Broadcast);
    cluster
        .client(1)
        .run_sql("UPDATE big SET v = 0 WHERE k >= 0")
        .unwrap();

    let (done, flips) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        let (writer, done, flipped) = (cluster.client(1), &done, &flips);
        scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                let i = flipped.load(Ordering::Acquire) + 1;
                writer
                    .run_sql(&format!("UPDATE big SET v = {} WHERE k >= 0", i % 2))
                    .unwrap();
                flipped.store(i, Ordering::Release);
            }
        });
        let reader = cluster.client(2);
        let first = flips.load(Ordering::Acquire);
        let mut seen = Vec::new();
        while seen.len() < READS || flips.load(Ordering::Acquire) < first + FLIPS {
            let sql = if seen.len() % 2 == 0 { count } else { scan };
            seen.push(match reader.run_sql(sql) {
                Ok(StatementOutcome::Query { output, .. }) if sql == count => {
                    match output.rows[0][0] {
                        Value::Int(n) => n as usize,
                        _ => usize::MAX,
                    }
                }
                Ok(StatementOutcome::Query { output, .. }) => output.rows.len(),
                _ => usize::MAX,
            });
        }
        done.store(true, Ordering::Release);
        let torn = seen.iter().filter(|&&n| n != 0 && n != 600).count();
        assert_eq!(
            torn,
            0,
            "{torn} of {} reads saw a broadcast half applied",
            seen.len()
        );
    });
}

/// A fallback plans on magic numbers: its cost, rows and work are those of
/// `Optimizer::optimize` against an empty catalog over the tables it
/// assembles (`big`'s slices in shard order, `mid` from its owner),
/// though the shard owning `mid` holds statistics on it. Planning against
/// the owners' published statistics instead was measured and rejected
/// (DESIGN.md §17, "Fallback statistics"): their drifted histograms
/// estimate ≤ 1 row and the fallback's work rose on every seed tried.
/// Pinned until a fallback reads statistics that describe its tables.
#[test]
fn a_fallback_plans_against_an_empty_catalog() {
    let cluster = ServeCluster::start(test_db(), cluster_config(3, 100, f64::INFINITY)).unwrap();
    let client = cluster.client(1);
    client
        .run_sql("SELECT v, COUNT(*) FROM mid WHERE k < 70 GROUP BY v")
        .unwrap();
    cluster.tick_wait().unwrap();
    let placement = |name| cluster.plan().placement_by_name(name).unwrap();
    let (big, mid) = (placement("big").table, placement("mid").table);
    let serve::Placement::Owned(owner) = placement("mid").placement else {
        panic!("`mid` is owned");
    };
    assert!(cluster.service(owner).epoch().catalog.total_count() > 0);

    let sql = "SELECT m.v, COUNT(*) FROM big b, mid m WHERE b.k = m.k AND m.k < 70 GROUP BY m.v";
    assert_eq!(
        cluster.router().route(&parse_statement(sql).unwrap()),
        Route::Fallback
    );
    let StatementOutcome::Query {
        output,
        estimated_cost,
    } = client.run_sql(sql).unwrap()
    else {
        panic!("a SELECT returns rows");
    };

    // The oracle holds `big` as one table: the slices' rows inserted in
    // shard order.
    let mut db = test_db().schema_skeleton();
    for service in cluster.services() {
        let snapshot = service.snapshot();
        let slice = snapshot.db.table(big);
        for r in 0..slice.row_count() {
            db.table_mut(big).insert(slice.row_values(r)).unwrap();
        }
    }
    db.set_shared_table(mid, cluster.service(owner).snapshot().db.shared_table(mid));
    let stmt = parse_statement(sql).unwrap();
    let query = query::bind_select(&db, stmt.as_select().unwrap()).unwrap();
    let optimizer = optimizer::Optimizer::default();
    let optimized = optimizer
        .optimize(
            &db,
            &query,
            StatsCatalog::new().full_view(),
            &optimizer::OptimizeOptions::default(),
        )
        .unwrap();
    let expected = executor::execute_plan(&db, &query, &optimized.plan, &optimizer.params).unwrap();
    assert_eq!(estimated_cost.to_bits(), optimized.cost.to_bits());
    assert_eq!(output.rows, expected.rows);
    assert_eq!(output.work.to_bits(), expected.work.to_bits());
}

// ---------------------------------------------------------------------------
// Multi-thread admission stress
// ---------------------------------------------------------------------------

/// Reads on every route class beside writes to the partitioned and to an
/// owned table. Each write leaves the same rows wherever it falls among the
/// others, so the tables' final contents do not depend on how client threads
/// interleave.
const MIXED_STREAM: [&str; 11] = [
    "SELECT k FROM big WHERE k < 200",
    "SELECT * FROM big WHERE v = 3",
    "SELECT COUNT(*) FROM big",
    "SELECT b.k FROM big b, mid m WHERE b.k = m.k",
    "SELECT k FROM mid WHERE v = 2",
    "SELECT s.k FROM small s, mid m WHERE s.k = m.k",
    "UPDATE big SET v = 5 WHERE k < 10",
    "INSERT INTO big VALUES (7777, 3)",
    "UPDATE mid SET v = 2 WHERE k < 20",
    "DELETE FROM big WHERE k >= 590 AND k < 600",
    "INSERT INTO mid VALUES (8888, 4)",
];

#[test]
fn concurrent_clients_and_ticks_stress_the_cluster() {
    let cluster = ServeCluster::start(test_db(), cluster_config(3, 100, f64::INFINITY)).unwrap();
    let statements = MIXED_STREAM;
    let rounds = 8;

    let threads = 4;
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let client = cluster.client(tid as u64 + 1);
            let mine: Vec<&str> = statements
                .iter()
                .copied()
                .skip(tid)
                .step_by(threads)
                .collect();
            scope.spawn(move || {
                for _ in 0..rounds {
                    for sql in &mine {
                        client
                            .run_sql(sql)
                            .expect("statement runs under contention");
                    }
                }
            });
        }
        // The driver ticks while clients hammer: epochs publish mid-flight.
        let mut last = vec![0u64; cluster.shards()];
        for _ in 0..6 {
            cluster.tick_wait().expect("tick under contention");
            let gens = cluster.generations();
            for (g, l) in gens.iter().zip(&last) {
                assert!(g >= l, "generations must be monotone");
            }
            last = gens;
        }
    });

    // `merged_health` is the snapshot taken at the end of the last tick, and
    // all six ticks above can finish before any client has run a SELECT:
    // tick once more now that every client has joined.
    cluster.tick_wait().expect("tick after the clients joined");
    let merged = cluster.merged_health();
    assert!(merged.queries > 0, "merged health saw query traffic");
    let sample = cluster.merged_query_latency();
    assert!(sample.count > 0, "merged latency histogram saw queries");

    // The same statements, one after another, on an unsharded service: the
    // copy-on-write tables and slices must have lost no write and kept no
    // stale row.
    let oracle_svc = plain_service(test_db(), SessionReport::default());
    let oracle = oracle_svc.handle(1);
    for _ in 0..rounds {
        for sql in statements {
            oracle.run_sql(sql).expect("oracle statement runs");
        }
    }
    let client = cluster.client(99);
    for sql in [
        "SELECT * FROM big", // every slice, through the shards
        "SELECT * FROM mid",
        "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k AND m.v = 2", // fallback
        "SELECT v, COUNT(*) FROM big GROUP BY v",                        // fallback
    ] {
        let mut a = row_strings(&client.run_sql(sql).unwrap());
        let mut b = row_strings(&oracle.run_sql(sql).unwrap());
        a.sort();
        b.sort();
        assert_eq!(a, b, "final state diverged for {sql}");
    }

    let pairs = cluster.shutdown().expect("shutdown is always Some");
    assert_eq!(pairs.len(), 3);
    let mut observed = 0;
    for (_, report) in &pairs {
        assert!(report.error.is_none(), "no shard recorded a tick error");
        observed += report.observed;
    }
    assert!(observed > 0, "monitors observed the workload");
}

/// Ticks run on whichever thread asks, one at a time per shard: two threads
/// ticking one cluster beside two clients never skip, repeat or reorder a
/// shard's ticks, and never deadlock against the statement path.
#[test]
fn concurrent_tickers_number_each_shards_ticks_without_gap_or_repeat() {
    const TICKERS: usize = 2;
    const CLIENTS: usize = 2;
    const TICKS_EACH: usize = 25;
    let mut config = cluster_config(3, 100, f64::INFINITY);
    // A Shrinking Set pass publishes a generation: one on every tick.
    config.autod.shrink_every = 1;
    let cluster = ServeCluster::start(test_db(), config).unwrap();
    let statements = MIXED_STREAM;
    let start = Barrier::new(TICKERS + CLIENTS);

    let mut ticks = vec![Vec::new(); cluster.shards()];
    std::thread::scope(|scope| {
        for tid in 0..CLIENTS {
            let client = cluster.client(tid as u64 + 1);
            let (start, statements) = (&start, &statements);
            scope.spawn(move || {
                start.wait();
                for _ in 0..20 {
                    for sql in statements.iter().skip(tid).step_by(CLIENTS) {
                        client
                            .run_sql(sql)
                            .expect("statement runs beside two tickers");
                    }
                }
            });
        }
        let tickers: Vec<_> = (0..TICKERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..TICKS_EACH)
                        .map(|_| cluster.tick_wait().expect("tick beside another ticker"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for ticker in tickers {
            for reports in ticker.join().expect("ticker thread") {
                for (of_shard, report) in ticks.iter_mut().zip(reports) {
                    of_shard.push(report.tick);
                }
            }
        }
    });
    // Every client has joined: this tick sees a non-empty sample on every
    // shard (the scatter SELECTs reach them all) and publishes.
    for (of_shard, report) in ticks.iter_mut().zip(cluster.tick_wait().unwrap()) {
        of_shard.push(report.tick);
    }

    let n = (TICKERS * TICKS_EACH + 1) as u64;
    for (shard, of_shard) in ticks.iter_mut().enumerate() {
        of_shard.sort_unstable();
        let expected: Vec<u64> = (1..=n).collect();
        assert_eq!(*of_shard, expected, "shard {shard} tick numbers");
    }
    let pairs = cluster.shutdown().expect("shutdown is always Some");
    for (shard, (_, report)) in pairs.iter().enumerate() {
        assert_eq!(report.ticks, n);
        assert!(report.error.is_none());
        let swaps: Vec<(u64, u64)> = report
            .session
            .online
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::EpochSwap { tick, generation } => Some((*tick, *generation)),
                _ => None,
            })
            .collect();
        assert!(!swaps.is_empty(), "shard {shard} published nothing");
        assert!(
            swaps.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "shard {shard} journaled its epoch swaps out of order: {swaps:?}"
        );
        assert_eq!(swaps.last().map(|s| s.1), Some(report.generation));
    }
}
