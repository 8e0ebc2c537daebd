//! The sharded cluster against the unsharded database, read by read: one
//! writer thread applies a seeded history of broadcast, partitioned-insert
//! and owned-table writes while two threads read on every route class, and
//! each read must equal what one database held at some instant between its
//! call and its return (`support::history`).
//!
//! Each run checks `SEEDS` histories, numbered from the clock, so repeated
//! runs (CI's stress loop) cover new ones; a failure names its seed.

mod support;

use query::parse_statement;
use serve::{Route, ServeCluster};
use std::time::{SystemTime, UNIX_EPOCH};
use support::history;

/// Histories per run.
const SEEDS: u64 = 10;

#[test]
fn the_reads_of_every_route_class_cover_single_scatter_and_fallback() {
    let cluster = ServeCluster::start(history::database(), history::config()).unwrap();
    let mut routes: Vec<Route> = (0..history::READERS)
        .flat_map(|r| history::reads(1, r))
        .map(|sql| cluster.router().route(&parse_statement(&sql).unwrap()))
        .map(|route| match route {
            Route::Single(_) => Route::Single(0),
            other => other,
        })
        .collect();
    routes.sort_by_key(|r| format!("{r:?}"));
    routes.dedup();
    assert_eq!(routes, [Route::Fallback, Route::Scatter, Route::Single(0)]);
}

#[test]
fn concurrent_reads_each_match_the_unsharded_database_at_one_instant() {
    let base = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    for seed in base..base + SEEDS {
        if let Err(e) = history::check(seed, history::run(seed)) {
            panic!("{e}");
        }
    }
}
