//! A self-tuning "server" under a live mixed workload.
//!
//! Simulates the most aggressive §6 policy: for each incoming query the
//! server runs MNSA/D on the fly (creating only statistics that survive the
//! sensitivity test, drop-listing ones that turn out not to change the
//! plan), while INSERT/DELETE/UPDATE traffic drives the SQL Server-style
//! modification counters and the auto-update/auto-drop maintenance loop.
//!
//! Run with: `cargo run --example autotune_server`

use autostats::manager::{AutoStatsManager, ManagerConfig};
use autostats::policy::CreationPolicy;
use autostats::MnsaConfig;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use executor::StatementOutcome;
use stats::{AgingPolicy, MaintenancePolicy};

fn main() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed: 23,
    });

    // MNSA/D with aging: recently dropped statistics are not immediately
    // re-created when a similar workload repeats.
    let config = ManagerConfig {
        creation: CreationPolicy::Mnsa(
            MnsaConfig {
                aging: Some(AgingPolicy {
                    window_epochs: 3,
                    expensive_query_cost: 1e9,
                }),
                ..MnsaConfig::default()
            }
            .with_drop_detection(),
        ),
        maintenance: MaintenancePolicy {
            update_fraction: 0.15,
            min_modified_rows: 50,
            max_updates: 2,
            drop_only_droplisted: true,
        },
        auto_maintain: true,
    };
    let mut server = AutoStatsManager::new(db, config);

    // Three "days" of traffic: 25% updates, simple queries.
    for day in 1..=3 {
        let spec = WorkloadSpec::new(25, Complexity::Simple, 60).with_seed(100 + day);
        let stmts = RagsGenerator::generate(server.database(), &spec);
        let mut queries = 0usize;
        let mut dml = 0usize;
        let mut work = 0.0;
        for stmt in &stmts {
            match server.execute(stmt) {
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
        }
        let maintenance = server.maintain();
        server.catalog_mut().advance_epoch();
        println!(
            "day {day}: {queries} queries + {dml} DML, execution work {:.0}",
            work
        );
        println!(
            "        statistics: {} active, {} drop-listed; maintenance updated {} stats \
             on {} tables, physically dropped {}",
            server.catalog().active_count(),
            server.catalog().drop_list().count(),
            maintenance.statistics_updated,
            maintenance.tables_updated.len(),
            maintenance.statistics_dropped,
        );
    }

    let report = server.tuning_report();
    println!("\ncumulative tuning:");
    println!("  statistics created ... {}", report.statistics_created);
    println!("  drop-listed .......... {}", report.statistics_drop_listed);
    println!("  optimizer calls ...... {}", report.optimizer_calls);
    println!(
        "  creation work {:.0} + overhead {:.0} vs execution work {:.0}",
        report.creation_work,
        report.overhead_work,
        server.execution_work()
    );
}
