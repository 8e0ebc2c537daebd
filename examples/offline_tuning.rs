//! Offline tuning: the conservative §6 policy.
//!
//! A DBA (or a scheduled job) periodically hands the recent workload to an
//! offline process that runs MNSA for every query and then the Shrinking Set
//! algorithm to eliminate non-essential statistics, leaving a guaranteed
//! essential set whose update cost the server then carries.
//!
//! Run with: `cargo run --example offline_tuning`

use autostats::OfflineTuner;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use query::{bind_statement, BoundStatement};
use stats::{StatDescriptor, StatsCatalog};
use storage::Database;

/// Bind the SELECTs of a generated workload.
fn workload(db: &Database, spec: &WorkloadSpec) -> Vec<query::BoundSelect> {
    RagsGenerator::generate(db, spec)
        .iter()
        .filter_map(|s| match bind_statement(db, s).unwrap() {
            BoundStatement::Select(q) => Some(q),
            _ => None,
        })
        .collect()
}

fn main() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Fixed(2.0),
        seed: 11,
    });

    // The workload log: 40 complex analytical queries.
    let spec = WorkloadSpec::new(0, Complexity::Complex, 40).with_seed(5);
    let queries = workload(&db, &spec);
    println!("workload {}: {} queries", spec, queries.len());

    let mut catalog = StatsCatalog::new();
    let report = OfflineTuner::default()
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
    let name = |d: &StatDescriptor| {
        let table = db.table(d.table);
        let cols: Vec<&str> = d
            .columns
            .iter()
            .map(|&c| table.schema().column(c).name.as_str())
            .collect();
        format!("{}({})", table.name(), cols.join(", "))
    };
    for stat in catalog.active() {
        println!("  {}", name(&stat.descriptor));
    }

    let update_cost = catalog.update_cost_of(&db, catalog.active_ids());
    println!(
        "\nupdate cost carried forward: {:.0} work units",
        update_cost
    );

    // What if next month's workload arrives? Tune a restored copy of the
    // catalog for it and diff the active sets; the live catalog stays as is.
    let new_spec = WorkloadSpec::new(0, Complexity::Simple, 20).with_seed(99);
    let live = catalog.snapshot();
    let mut what_if = StatsCatalog::restore(catalog.snapshot());
    OfflineTuner::default()
        .tune(&db, &mut what_if, &workload(&db, &new_spec))
        .expect("example runs");
    println!("\nwhat-if analysis for next month's workload ({new_spec}):");
    for s in what_if.active() {
        if catalog.find_active(&s.descriptor).is_none() {
            let d = name(&s.descriptor);
            println!("  create {d:<40} (build work {:.0})", s.build_cost);
        }
    }
    for s in catalog.active() {
        if what_if.find_active(&s.descriptor).is_none() {
            let (d, saved) = (name(&s.descriptor), catalog.update_cost_of(&db, [s.id]));
            println!("  drop   {d:<40} (saves {saved:.0}/refresh)");
        }
    }
    assert_eq!(catalog.snapshot(), live, "the live catalog changed");
    println!(
        "(live catalog untouched: {} statistics active)",
        catalog.active_count()
    );
}
