//! A self-tuning "server" under a live mixed workload.
//!
//! Simulates the most aggressive §6 policy: an [`OnlineService`] ticked
//! after every statement on an unlimited budget, so each incoming query gets
//! MNSA/D on the fly (creating only statistics that survive the sensitivity
//! test, drop-listing ones that turn out not to change the plan), while
//! INSERT/DELETE/UPDATE traffic, and a nightly batch that rewrites much of
//! `lineitem` and `orders`, drive the SQL Server-style modification counters
//! and the same tick's auto-update/auto-drop steps.
//!
//! Run with: `cargo run --example autotune_server`

use autod::{AutodConfig, OnlineService};
use autostats::{MnsaConfig, SessionReport};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use executor::StatementOutcome;
use stats::{AgingPolicy, StatsCatalog};

fn main() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed: 23,
    });

    // MNSA/D with aging: recently dropped statistics are not immediately
    // re-created when a similar workload repeats.
    let config = AutodConfig {
        budget_per_tick: f64::INFINITY,
        mnsa: MnsaConfig {
            aging: Some(AgingPolicy {
                window_epochs: 3,
                expensive_query_cost: 1e9,
            }),
            ..MnsaConfig::default()
        }
        .with_drop_detection(),
        ..AutodConfig::default()
    };
    let server = OnlineService::start(
        db,
        StatsCatalog::new(),
        SessionReport::default(),
        obsv::Obs::disabled(),
        config,
    );
    let client = server.handle(0);

    // Three "days" of traffic: 25% updates, simple queries. Each night a
    // batch rewrites over a fifth of `lineitem` and all of `orders`, past the
    // `max(500, 20 % of rows)` rule, so the next tick refreshes their
    // statistics.
    let mut execution_work = 0.0;
    for day in 1..=3 {
        let spec = WorkloadSpec::new(25, Complexity::Simple, 60).with_seed(100 + day);
        let stmts = RagsGenerator::generate(&server.snapshot().db, &spec);
        let mut queries = 0usize;
        let mut dml = 0usize;
        let mut work = 0.0;
        let (mut refreshed, mut dropped, mut shrunk) = (0usize, 0usize, 0usize);
        let nightly = [
            format!("UPDATE lineitem SET l_tax = 0.0{day} WHERE l_linenumber < 3"),
            format!("UPDATE orders SET o_shippriority = {day} WHERE o_totalprice > 0.0"),
        ];
        for sql in stmts.iter().map(query::render).chain(nightly) {
            match client.run_sql(&sql) {
                Ok(StatementOutcome::Query { output, .. }) => {
                    queries += 1;
                    work += output.work;
                }
                Ok(StatementOutcome::Dml { work: w, .. }) => {
                    dml += 1;
                    work += w;
                }
                Err(e) => println!("  statement rejected: {e}"),
            }
            let tick = server.tick_wait();
            refreshed += tick.refreshed;
            dropped += tick.dropped;
            shrunk += tick.shrink_removed.unwrap_or(0);
        }
        execution_work += work;
        println!(
            "day {day}: {queries} queries + {dml} DML, execution work {:.0}",
            work
        );
        let epoch = server.epoch();
        println!(
            "        statistics: {} active, {} drop-listed; ticks refreshed {} statistics, \
             Shrinking Set removed {}, physically dropped {}",
            epoch.catalog.active_count(),
            epoch.catalog.drop_list().count(),
            refreshed,
            shrunk,
            dropped,
        );
    }

    let (_, report) = server.shutdown();
    let totals = &report.session.totals;
    println!("\ncumulative tuning:");
    println!("  statistics created ... {}", totals.statistics_created);
    println!("  drop-listed .......... {}", totals.statistics_drop_listed);
    println!("  optimizer calls ...... {}", totals.optimizer_calls);
    println!(
        "  creation work {:.0} + overhead {:.0} + refresh {:.0} vs execution work {:.0}",
        totals.creation_work,
        totals.overhead_work,
        report.catalog.update_work(),
        execution_work
    );
}
