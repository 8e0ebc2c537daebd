//! Offline tuning: the conservative §6 policy.
//!
//! A DBA (or a scheduled job) periodically hands the recent workload to an
//! offline process that runs MNSA for every query and then the Shrinking Set
//! algorithm to eliminate non-essential statistics, leaving a guaranteed
//! essential set whose update cost the server then carries.
//!
//! Run with: `cargo run --example offline_tuning`

use autostats::{advise, Equivalence, MnsaConfig, OfflineTuner};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use query::{bind_statement, BoundStatement};
use stats::StatsCatalog;

fn main() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Fixed(2.0),
        seed: 11,
    });

    // The workload log: 40 complex analytical queries.
    let spec = WorkloadSpec::new(0, Complexity::Complex, 40).with_seed(5);
    let stmts = RagsGenerator::generate(&db, &spec);
    let queries: Vec<_> = stmts
        .iter()
        .filter_map(|s| match bind_statement(&db, s).unwrap() {
            BoundStatement::Select(q) => Some(q),
            _ => None,
        })
        .collect();
    println!("workload {}: {} queries", spec, queries.len());

    let mut catalog = StatsCatalog::new();
    let tuner = OfflineTuner {
        mnsa: MnsaConfig::default(),
        shrink: Some(Equivalence::paper_default()),
    };
    let report = tuner
        .tune(&db, &mut catalog, &queries)
        .expect("example runs");

    println!("\noffline tuning pass:");
    println!(
        "  statistics created ........ {}",
        report.statistics_created
    );
    println!(
        "  moved to drop-list ........ {}",
        report.statistics_drop_listed
    );
    println!("  optimizer calls ........... {}", report.optimizer_calls);
    println!("  creation work ............. {:.0}", report.creation_work);
    println!("  analysis overhead work .... {:.0}", report.overhead_work);
    println!(
        "  active statistics after ... {} (of {} built)",
        catalog.active_count(),
        catalog.total_count()
    );

    println!("\nessential set retained for the workload:");
    for stat in catalog.active() {
        let table = db.table(stat.descriptor.table);
        let cols: Vec<&str> = stat
            .descriptor
            .columns
            .iter()
            .map(|&c| table.schema().column(c).name.as_str())
            .collect();
        println!("  {}({})", table.name(), cols.join(", "));
    }

    let update_cost = catalog.update_cost_of(&db, catalog.active_ids());
    println!(
        "\nupdate cost carried forward: {:.0} work units",
        update_cost
    );

    // The same machinery as a read-only what-if advisor: a new month of
    // workload arrives; ask what should change before touching anything.
    let new_spec = WorkloadSpec::new(0, Complexity::Simple, 20).with_seed(99);
    let new_stmts = RagsGenerator::generate(&db, &new_spec);
    let new_queries: Vec<_> = new_stmts
        .iter()
        .filter_map(|s| match bind_statement(&db, s).unwrap() {
            BoundStatement::Select(q) => Some(q),
            _ => None,
        })
        .collect();
    let report = advise(
        &db,
        &catalog,
        &new_queries,
        MnsaConfig::default(),
        Equivalence::paper_default(),
    )
    .expect("example runs");
    println!("\nwhat-if analysis for next month's workload ({new_spec}):");
    print!("{}", report.render(&db));
    println!(
        "(live catalog untouched: {} statistics active)",
        catalog.active_count()
    );
}
