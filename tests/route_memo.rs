//! The statement path's two text-keyed shortcuts answer as the full path
//! does: a `serve::ClusterClient` sends a text it has routed to one shard
//! twice before straight to that shard, and an `autod::QueryHandle` looks a
//! text up in its snapshot's plan memo before it parses it.
//!
//! The contracts under test, on a seeded U25 Rags stream over a small
//! TPC-D database, with ticks that publish epochs in between:
//!
//! * **remembered ≡ fresh** — on 1- and 2-shard clusters, each occurrence
//!   of a SELECT text is sent twice through one long-lived client and once
//!   through a client that has seen nothing, with no write or tick in
//!   between; all three give the same rows (as a multiset), the same
//!   `work` bits and the same error text. The stream repeats, so the
//!   long-lived client answers the second pass from its route memo;
//! * **memo first ≡ parse first** — `QueryHandle::run_sql(sql)`, which
//!   tries the plan memo before parsing, gives what
//!   `QueryHandle::run(sql, &parse_statement(sql))` gives.

use autod::{AutodConfig, OnlineService};
use autostats::{SessionReport, StatementError};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use executor::StatementOutcome;
use query::{parse_statement, render, Statement};
use serve::{ServeCluster, ServeConfig};
use stats::StatsCatalog;
use storage::Database;

/// Seeds of the stream: more in a release build, which CI runs.
const SEEDS: u64 = if cfg!(debug_assertions) { 2 } else { 8 };
/// Distinct statements a stream draws; it is sent in two passes.
const STATEMENTS: usize = if cfg!(debug_assertions) { 40 } else { 120 };
/// A tick after every this many statements.
const TICK_EVERY: usize = 10;

/// Texts that fail to parse or to bind, mixed into every stream.
const FAILING: [&str; 3] = [
    "SELEC o_orderkey FROM orders",
    "SELECT nope FROM orders",
    "SELECT n_name FROM nation WHERE n_nationkey = 'x'",
];

fn db() -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.001,
        zipf: ZipfSpec::Mixed,
        seed: 7,
    })
}

/// `STATEMENTS` texts of a U25 stream, the failing texts among them, sent
/// twice over.
fn stream(db: &Database, seed: u64) -> Vec<String> {
    let spec = WorkloadSpec::new(25, Complexity::Simple, STATEMENTS).with_seed(seed);
    let mut texts: Vec<String> = RagsGenerator::generate(db, &spec)
        .iter()
        .map(render)
        .collect();
    for (i, failing) in FAILING.iter().enumerate() {
        texts.insert(i * 7 % texts.len().max(1), failing.to_string());
    }
    [texts.clone(), texts].concat()
}

/// An outcome as the contract compares it: the rows as a sorted multiset of
/// their `Debug` renderings (which tell `Int(2)` from `Float(2.0)`), the
/// `work` bits, or the error's text.
fn digest(
    outcome: &Result<StatementOutcome, StatementError>,
) -> Result<(Vec<String>, u64), String> {
    match outcome {
        Ok(StatementOutcome::Query { output, .. }) => {
            let mut rows: Vec<String> = output.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort_unstable();
            Ok((rows, output.work.to_bits()))
        }
        Ok(StatementOutcome::Dml {
            rows_affected,
            work,
        }) => Ok((vec![rows_affected.to_string()], work.to_bits())),
        Err(e) => Err(e.to_string()),
    }
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|w| w.eq_ignore_ascii_case("select"))
}

#[test]
fn a_remembered_text_answers_as_a_fresh_client_does() {
    for shards in [1, 2] {
        for seed in 0..SEEDS {
            let db = db();
            let texts = stream(&db, seed);
            let cluster = ServeCluster::start(
                db,
                ServeConfig {
                    shards,
                    // `lineitem` and `orders` are partitioned on two shards.
                    partition_threshold: 1000,
                    autod: AutodConfig {
                        budget_per_tick: f64::INFINITY,
                        shrink_every: 1,
                        ..AutodConfig::default()
                    },
                },
            )
            .unwrap();
            let client = cluster.client(1);
            let mut published = 0;
            for (i, sql) in texts.iter().enumerate() {
                let at = format!("{shards} shards, seed {seed}, statement {i}: {sql}");
                if is_select(sql) {
                    let first = digest(&client.run_sql(sql));
                    let again = digest(&client.run_sql(sql));
                    let fresh = digest(&cluster.client(2).run_sql(sql));
                    assert_eq!(first, fresh, "{at}");
                    assert_eq!(again, fresh, "{at}");
                } else {
                    // A write is applied once; a failing one fails alike.
                    let _ = client.run_sql(sql);
                }
                if (i + 1) % TICK_EVERY == 0 {
                    let reports = cluster.tick_wait().unwrap();
                    published += reports
                        .iter()
                        .filter(|r| r.published_generation.is_some())
                        .count();
                }
            }
            assert!(published > 0, "{shards} shards, seed {seed}: no epoch");
            let (hits, misses) = client.route_memo_counts();
            assert!(hits > 0, "{shards} shards, seed {seed}: no text remembered");
            assert!(misses > 0);
        }
    }
}

#[test]
fn the_plan_memo_before_the_parser_answers_as_the_parser_first() {
    for seed in 0..SEEDS {
        let db = db();
        let texts = stream(&db, seed);
        let service = OnlineService::start(
            db,
            StatsCatalog::new(),
            SessionReport::default(),
            obsv::Obs::disabled(),
            AutodConfig {
                budget_per_tick: f64::INFINITY,
                shrink_every: 1,
                ..AutodConfig::default()
            },
        );
        let handle = service.handle(1);
        let hits = service.metrics().counter("autod.plan_memo.hits");
        for (i, sql) in texts.iter().enumerate() {
            let at = format!("seed {seed}, statement {i}: {sql}");
            if is_select(sql) {
                let memo_first = digest(&handle.run_sql(sql));
                let parse_first = match parse_statement(sql) {
                    Ok(stmt) => digest(&handle.run(sql, &stmt)),
                    Err(e) => Err(StatementError::from(e).to_string()),
                };
                assert_eq!(memo_first, parse_first, "{at}");
                let hit = hits.get();
                let again = digest(&handle.run_sql(sql));
                assert_eq!(again, parse_first, "{at}");
                if let Ok(Statement::Select(_)) = parse_statement(sql) {
                    if parse_first.is_ok() {
                        assert_eq!(hits.get(), hit + 1, "{at}: a memo hit");
                    }
                }
            } else {
                let _ = handle.run_sql(sql);
            }
            if (i + 1) % TICK_EVERY == 0 {
                service.tick_wait();
            }
        }
    }
}
