//! Quickstart: a self-tuning database in a few lines.
//!
//! Builds a skewed TPC-D instance, puts it behind an [`OnlineService`] that
//! is ticked after every statement on an unlimited budget — §6's on-the-fly
//! policy: Magic Number Sensitivity Analysis for every incoming query — and
//! shows how the optimizer's plan changes once MNSA has decided which
//! statistics are worth building.
//!
//! Run with: `cargo run --example quickstart`

use autod::{AutodConfig, OnlineService};
use autostats::policy::{apply_policy, CreationPolicy};
use autostats::SessionReport;
use datagen::{build_tpcd, TpcdConfig, ZipfSpec};
use executor::StatementOutcome;
use query::{bind_select, parse_statement};
use stats::StatsCatalog;

fn main() {
    // A small, heavily skewed TPC-D database (z varies per column).
    let db = build_tpcd(&TpcdConfig {
        scale: 0.005,
        zipf: ZipfSpec::Mixed,
        seed: 42,
    });
    println!(
        "database: {} tables, {} rows total\n",
        db.table_count(),
        db.total_rows()
    );

    let service = OnlineService::start(
        db,
        StatsCatalog::new(),
        SessionReport::default(),
        obsv::Obs::disabled(),
        AutodConfig {
            budget_per_tick: f64::INFINITY,
            ..AutodConfig::default()
        },
    );
    let client = service.handle(0);

    let query = "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem \
                 WHERE l_orderkey = o_orderkey AND o_orderdate < 9000 AND l_quantity < 5.0 \
                   AND l_tax >= 0.0 AND o_shippriority <= 1 \
                 GROUP BY o_orderpriority";

    // Before tuning: every predicate runs on magic numbers.
    println!("--- plan before any statistics exist ---");
    print!("{}", client.explain_sql(query).unwrap());

    // The statement runs on the statistics there are and never waits for
    // tuning; the monitor has seen it, and the next tick runs MNSA for it.
    let outcome = client.run_sql(query).unwrap();
    if let StatementOutcome::Query {
        output,
        estimated_cost,
    } = &outcome
    {
        println!(
            "\nexecuted: {} groups, estimated cost {:.0}, execution work {:.0}",
            output.row_count(),
            estimated_cost,
            output.work
        );
    }
    let tick = service.tick_wait().unwrap();
    println!(
        "tick {}: {} template tuned, tuning work {:.0}, published generation {:?}",
        tick.tick, tick.queries_tuned, tick.tuning_work, tick.published_generation
    );

    println!("\n--- plan after MNSA built what mattered ---");
    print!("{}", client.explain_sql(query).unwrap());

    let (db, report) = service.shutdown();
    let totals = &report.session.totals;
    println!(
        "\nMNSA: {} statistics created, {} optimizer calls, creation work {:.0}",
        totals.statistics_created, totals.optimizer_calls, totals.creation_work
    );
    println!("statistics now in the catalog:");
    for stat in report.catalog.active() {
        let table = db.table(stat.descriptor.table);
        let cols: Vec<&str> = stat
            .descriptor
            .columns
            .iter()
            .map(|&c| table.schema().column(c).name.as_str())
            .collect();
        println!(
            "  {} on {}({})  ndv={:.0} nulls={:.1}%",
            stat.id,
            table.name(),
            cols.join(", "),
            stat.leading_ndv(),
            stat.null_fraction * 100.0
        );
    }

    // Contrast with creating every candidate statistic unconditionally (the
    // Figure 4 baseline).
    let stmt = parse_statement(query).unwrap();
    let bound = bind_select(&db, stmt.as_select().unwrap()).unwrap();
    let mut baseline = StatsCatalog::new();
    let (create_all, _) = apply_policy(
        &db,
        &mut baseline,
        &CreationPolicy::CreateAllCandidates,
        &bound,
    )
    .unwrap();
    println!(
        "\nfor comparison — create-all-candidates built {} statistics (creation work {:.0}); \
         MNSA built {} (creation work {:.0})",
        baseline.active_count(),
        create_all.creation_work,
        report.catalog.active_count(),
        totals.creation_work,
    );
}
