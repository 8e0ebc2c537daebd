//! An interactive SQL shell over the self-tuning database.
//!
//! Loads a skewed TPC-D instance behind an [`OnlineService`] ticked after
//! every statement on an unlimited budget (the on-the-fly MNSA/D policy) and
//! reads commands from stdin:
//!
//! ```text
//! autostats> SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority
//! autostats> EXPLAIN SELECT * FROM lineitem WHERE l_quantity < 5.0
//! autostats> .stats        -- list the statistics the policy has built
//! autostats> .tick         -- run one more lifecycle tick
//! autostats> .quit
//! ```
//!
//! Run with: `cargo run --example sql_shell` (pipe a script in for
//! non-interactive use, e.g. `echo 'SELECT COUNT(*) FROM orders' | cargo run
//! --example sql_shell`).

use autod::{AutodConfig, OnlineService, TickReport};
use autostats::{MnsaConfig, SessionReport};
use datagen::{build_tpcd, TpcdConfig, ZipfSpec};
use executor::StatementOutcome;
use stats::StatsCatalog;
use std::io::{self, BufRead, Write};

fn main() {
    println!("loading TPC-D (skew: mixed) ...");
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed: 42,
    });
    println!(
        "{} tables, {} rows. Policy: on-the-fly MNSA/D (t = 20%).\n\
         Type SQL, EXPLAIN <sql>, .stats, .tick, .help or .quit\n",
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
            mnsa: MnsaConfig::default().with_drop_detection(),
            ..AutodConfig::default()
        },
    );
    let client = service.handle(0);
    let mut execution_work = 0.0;

    let stdin = io::stdin();
    loop {
        print!("autostats> ");
        let _ = io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.to_ascii_lowercase().as_str() {
            ".quit" | ".exit" => break,
            ".help" => {
                println!(
                    "  <sql>            execute a statement, then tick (tune, refresh, drop)\n  \
                     explain <sql>    show the current plan without executing\n  \
                     .stats           list built statistics (drop-listed ones marked)\n  \
                     .tick            run one more lifecycle tick\n  \
                     .report          cumulative tuning and execution totals\n  \
                     .quit            leave"
                );
                continue;
            }
            ".stats" => {
                let db = service.database();
                let db = db.read();
                let catalog = &service.epoch().catalog;
                for stat in catalog.active() {
                    print_stat(&db, stat, false);
                }
                for stat in catalog.drop_list().filter_map(|id| catalog.statistic(id)) {
                    print_stat(&db, stat, true);
                }
                if catalog.total_count() == 0 {
                    println!("  (no statistics built yet)");
                }
                continue;
            }
            ".tick" => {
                print_tick(&service.tick_wait().expect("tick"));
                continue;
            }
            ".report" => {
                let catalog = &service.epoch().catalog;
                println!(
                    "  statistics: {} active, {} drop-listed\n  \
                     creation work {:.0} + refresh work {:.0}; execution work {:.0}",
                    catalog.active_count(),
                    catalog.drop_list().count(),
                    catalog.creation_work(),
                    catalog.update_work(),
                    execution_work
                );
                continue;
            }
            _ => {}
        }
        if let Some(rest) = line
            .strip_prefix("explain ")
            .or_else(|| line.strip_prefix("EXPLAIN "))
            .or_else(|| line.strip_prefix("Explain "))
        {
            match client.explain_sql(rest) {
                Ok(text) => print!("{text}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let outcome = client.run_sql(line);
        if let Ok(outcome) = &outcome {
            execution_work += outcome.work();
        }
        match outcome {
            Ok(StatementOutcome::Query {
                output,
                estimated_cost,
            }) => {
                for row in output.rows.iter().take(20) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("  {}", cells.join(" | "));
                }
                if output.rows.len() > 20 {
                    println!("  ... ({} rows total)", output.rows.len());
                }
                println!(
                    "  -- {} rows, estimated cost {:.0}, execution work {:.0}",
                    output.rows.len(),
                    estimated_cost,
                    output.work
                );
            }
            Ok(StatementOutcome::Dml { rows_affected, .. }) => {
                println!("  -- {rows_affected} rows affected");
            }
            Err(e) => println!("error: {e}"),
        }
        // On-the-fly policy: the lifecycle runs after every statement.
        let tick = service.tick_wait().expect("tick");
        if tick.published_generation.is_some() {
            print_tick(&tick);
        }
    }
    println!("bye");
}

fn print_tick(tick: &TickReport) {
    println!(
        "  -- tick {}: tuned {} templates (work {:.0}), refreshed {} (work {:.0}), dropped {}{}",
        tick.tick,
        tick.queries_tuned,
        tick.tuning_work,
        tick.refreshed,
        tick.refresh_work,
        tick.dropped,
        match tick.shrink_removed {
            Some(n) => format!(", Shrinking Set removed {n}"),
            None => String::new(),
        }
    );
}

fn print_stat(db: &storage::Database, stat: &stats::Statistic, dropped: bool) {
    let table = db.table(stat.descriptor.table);
    let cols: Vec<&str> = stat
        .descriptor
        .columns
        .iter()
        .map(|&c| table.schema().column(c).name.as_str())
        .collect();
    println!(
        "  {} {}({})  ndv={:.0} updates={}{}",
        stat.id,
        table.name(),
        cols.join(", "),
        stat.leading_ndv(),
        stat.update_count,
        if dropped { "  [drop-list]" } else { "" }
    );
}
