//! The paper's §1 motivating experiment, interactively.
//!
//! On a tuned TPC-D database (13 indexes; statistics exist only on indexed
//! columns), optimize each of the 17 benchmark queries, then create the
//! relevant statistics and re-optimize. The paper observed the plan changed
//! for all but 2 queries. This example prints the before/after plans for the
//! queries whose plans changed.
//!
//! Run with: `cargo run --example tpcd_intro`

use autostats::candidate_statistics;
use datagen::{build_tpcd, create_tuned_indexes, tpcd_benchmark_queries, TpcdConfig, ZipfSpec};
use optimizer::{OptimizeOptions, Optimizer};
use query::bind_select;
use stats::{StatDescriptor, StatsCatalog};

fn main() {
    let mut db = build_tpcd(&TpcdConfig {
        scale: 0.005,
        zipf: ZipfSpec::Mixed,
        seed: 42,
    });
    create_tuned_indexes(&mut db);

    // The tuned baseline: statistics only on indexed leading columns.
    let mut catalog = StatsCatalog::new();
    for idx in db.indexes() {
        catalog
            .create_statistic(&db, StatDescriptor::single(idx.table, idx.leading_column()))
            .expect("example runs");
    }
    println!(
        "tuned TPC-D: {} indexes, {} baseline statistics\n",
        db.indexes().len(),
        catalog.active_count()
    );

    let optimizer = Optimizer::default();
    // Record all "before" plans first (as the paper did), then create the
    // relevant statistics for the whole workload, then re-optimize.
    let queries: Vec<_> = tpcd_benchmark_queries()
        .into_iter()
        .map(|q| bind_select(&db, &q).expect("tpcd query binds"))
        .collect();
    let before: Vec<_> = queries
        .iter()
        .map(|q| {
            optimizer
                .optimize(&db, q, catalog.full_view(), &OptimizeOptions::default())
                .expect("example runs")
        })
        .collect();
    for q in &queries {
        for d in candidate_statistics(q) {
            catalog.create_statistic(&db, d).expect("example runs");
        }
    }
    let mut changed = 0usize;
    let mut shown = 0usize;
    for (i, (q, b)) in queries.iter().zip(&before).enumerate() {
        let after = optimizer
            .optimize(&db, q, catalog.full_view(), &OptimizeOptions::default())
            .expect("example runs");
        let did_change = !b.plan.same_tree(&after.plan);
        changed += did_change as usize;
        println!(
            "Q{:<2}: plan {}  estimated cost {:>12.0} -> {:>12.0}",
            i + 1,
            if did_change { "CHANGED  " } else { "unchanged" },
            b.cost,
            after.cost
        );
        if did_change && shown < 2 {
            shown += 1;
            println!("  before:\n{}", indent(&b.plan.to_string()));
            println!("  after:\n{}", indent(&after.plan.to_string()));
        }
    }
    println!(
        "\n{changed} of 17 execution trees changed once statistics existed \
         (paper: 15 of 17 on SQL Server's richer plan space)"
    );
    println!("{} statistics now built", catalog.active_count());
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
