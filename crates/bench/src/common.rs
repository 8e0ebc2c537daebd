//! Shared experiment plumbing.

use crate::cli::Cli;
use autostats::{MnsaEngine, MnsaOutcome, TuningReport};
use datagen::{build_tpcd, TpcdConfig, ZipfSpec};
use executor::run_statement_observed;
use obsv::json::Object;
use optimizer::Optimizer;
use query::{bind_statement, BoundSelect, BoundStatement, Statement};
use stats::{StatDescriptor, StatsCatalog};
use std::path::Path;
use storage::Database;

/// How big an experiment run is. Results are ratios, so the default small
/// scale reproduces the paper's *shape*; `full()` runs larger databases for
/// tighter numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// TPC-D scale factor for generated databases.
    pub scale: f64,
    /// Statements per Rags workload.
    pub workload_len: usize,
    pub seed: u64,
}

impl ExperimentScale {
    /// Tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        ExperimentScale {
            scale: 0.001,
            workload_len: 12,
            seed: 7,
        }
    }

    /// Default experiment scale (seconds per experiment).
    pub fn default_run() -> Self {
        ExperimentScale {
            scale: 0.004,
            workload_len: 60,
            seed: 7,
        }
    }

    /// Larger run for the recorded EXPERIMENTS.md numbers.
    pub fn full() -> Self {
        ExperimentScale {
            scale: 0.01,
            workload_len: 100,
            seed: 7,
        }
    }

    /// TPCD_MIX at this scale: the skewed database most experiments run on.
    pub fn tpcd_mix(&self) -> Database {
        build_tpcd(&TpcdConfig {
            scale: self.scale,
            zipf: ZipfSpec::Mixed,
            seed: self.seed,
        })
    }
}

/// One reported measurement, with the paper's band alongside.
#[derive(Debug, Clone)]
pub struct Row {
    pub experiment: String,
    pub database: String,
    pub workload: String,
    pub metric: String,
    pub measured: f64,
    pub paper_band: String,
}

impl Row {
    /// One JSON line.
    pub fn to_json(&self) -> String {
        Object::new()
            .field("experiment", self.experiment.as_str())
            .field("database", self.database.as_str())
            .field("workload", self.workload.as_str())
            .field("metric", self.metric.as_str())
            .field("measured", self.measured)
            .field("paper_band", self.paper_band.as_str())
            .line()
    }

    pub fn print(&self) {
        println!(
            "{:<12} {:<10} {:<12} {:<42} measured={:>9.2}  paper: {}",
            self.experiment,
            self.database,
            self.workload,
            self.metric,
            self.measured,
            self.paper_band
        );
    }
}

/// Print a table of rows and write them as JSON lines to `json_path`.
pub fn report(rows: &[Row], json_path: &str) {
    let mut out = String::new();
    for r in rows {
        r.print();
        out.push_str(&r.to_json());
        out.push('\n');
    }
    write_artifact(json_path, "results", &out);
}

/// Write one artifact, creating its directory first. Every file the driver
/// leaves behind goes through here, and a failed write ends the run
/// non-zero: an experiment whose output is missing has not succeeded.
pub fn write_artifact(path: impl AsRef<Path>, what: &str, contents: &str) {
    let path = path.as_ref();
    let written = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, contents));
    match written {
        Ok(()) => println!("{what} written to {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {what} {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Observability plumbing shared by the experiments.
///
/// Reads the `--trace-out`, `--metrics-out` and `--journal-out` paths of a
/// command line and hands out one [`obsv::Obs`] for the whole run. Metrics
/// counters are always collected (cheap atomics into the run's registry);
/// span tracing is enabled only when `--trace-out` is given, keeping the
/// default path on the disabled-tracer fast path. [`BenchObs::finish`]
/// exports everything and prints the uniform end-of-run metrics summary
/// every experiment shares.
pub struct BenchObs<'a> {
    pub obs: obsv::Obs,
    cli: &'a Cli,
}

impl<'a> BenchObs<'a> {
    pub fn new(cli: &'a Cli) -> Self {
        let obs = if cli.path("--trace-out").is_some() {
            obsv::Obs::enabled()
        } else {
            obsv::Obs::disabled()
        };
        BenchObs { obs, cli }
    }

    /// Flush + export the trace (Chrome `trace_event` format unless the path
    /// ends in `.jsonl`), dump the metrics snapshot and the tuning-session
    /// journal if requested, and print the end-of-run metrics summary.
    pub fn finish(&self, journal: Option<&autostats::SessionReport>) {
        if let Some(path) = self.cli.path("--trace-out") {
            let events = self.obs.tracer.flush();
            for defect in obsv::trace::validate(&events) {
                eprintln!("warning: trace defect: {defect:?}");
            }
            let text = if path.ends_with(".jsonl") {
                obsv::export::to_jsonl(&events)
            } else {
                obsv::export::to_chrome(&events)
            };
            write_artifact(path, &format!("trace ({} events)", events.len()), &text);
        }
        if let Some(path) = self.cli.path("--metrics-out") {
            write_artifact(path, "metrics", &self.obs.metrics.snapshot().render_json());
        }
        if let Some(journal) = journal {
            if !journal.queries.is_empty() {
                println!("\n== tuning-session journal ==");
                print!("{}", journal.render_text());
            }
            if let Some(path) = self.cli.path("--journal-out") {
                write_artifact(path, "journal", &journal.to_json());
            }
        }
        let snapshot = self.obs.metrics.snapshot();
        if !snapshot.entries.is_empty() {
            println!("\n== metrics (registry snapshot) ==");
            print!("{}", snapshot.render_text());
        }
    }
}

/// Bind a workload of parsed statements, panicking on generator bugs.
pub fn bind_all(db: &Database, stmts: &[Statement]) -> Vec<BoundStatement> {
    stmts
        .iter()
        .map(|s| bind_statement(db, s).expect("generated workload binds"))
        .collect()
}

/// The SELECT statements of a bound workload.
pub fn queries_of(bound: &[BoundStatement]) -> Vec<BoundSelect> {
    bound
        .iter()
        .filter_map(|s| s.as_select().cloned())
        .collect()
}

/// Execute a workload against a *clone* of the database (so repeated
/// measurements start from identical state) under the given statistics
/// catalog. Returns total deterministic execution work. Statements run with
/// `exec.query` / `exec.dml` span trees under `obs` and the total work is
/// mirrored into its `exec.work` meter; neither changes the returned figure.
pub fn execute_workload(
    db: &Database,
    catalog: &StatsCatalog,
    workload: &[BoundStatement],
    obs: &obsv::Obs,
) -> f64 {
    let mut db = db.clone();
    let optimizer = Optimizer::default();
    let mut work = 0.0;
    for stmt in workload {
        work += run_statement_observed(&mut db, catalog.full_view(), &optimizer, stmt, &obs.tracer)
            .expect("bench workload executes")
            .work();
    }
    obs.metrics.float_counter("exec.work").add(work);
    work
}

/// Create every descriptor in `descriptors` (deduplicating against the
/// catalog) and return the creation work spent.
pub fn create_all(
    db: &Database,
    catalog: &mut StatsCatalog,
    descriptors: &[StatDescriptor],
) -> f64 {
    let before = catalog.creation_work();
    catalog
        .create_statistics(db, descriptors)
        .expect("bench statistic builds");
    catalog.creation_work() - before
}

/// MNSA per query, in order, on a fresh catalog. Returns the catalog, the
/// work spent — statistic creation plus `engine`'s optimizer calls — and
/// every query's outcome.
pub fn tune_workload(
    db: &Database,
    queries: &[BoundSelect],
    engine: &MnsaEngine,
) -> (StatsCatalog, f64, Vec<MnsaOutcome>) {
    let mut cat = StatsCatalog::new();
    cat.set_obs(&engine.obs);
    let mut work = 0.0;
    let mut charged = TuningReport::default();
    let mut outcomes = Vec::with_capacity(queries.len());
    for q in queries {
        let before = cat.creation_work();
        let outcome = engine.run_query(db, &mut cat, q).expect("mnsa tunes");
        work += (cat.creation_work() - before) + charged.charge_query(q.relations.len(), &outcome);
        outcomes.push(outcome);
    }
    (cat, work, outcomes)
}

/// Percentage change from `base` to `variant` (positive = variant larger).
pub fn pct_change(base: f64, variant: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (variant - base) / base * 100.0
}

/// Percentage reduction from `base` to `variant` (positive = variant smaller).
pub fn pct_reduction(base: f64, variant: f64) -> f64 {
    -pct_change(base, variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_helpers() {
        assert_eq!(pct_change(100.0, 120.0), 20.0);
        assert_eq!(pct_reduction(100.0, 60.0), 40.0);
        assert_eq!(pct_change(0.0, 50.0), 0.0);
    }

    #[test]
    fn row_document_is_pinned() {
        let row = Row {
            experiment: "fig3".into(),
            database: "TPCD_\"MIX\"".into(),
            workload: "U0-C\n".into(),
            metric: "creation work saved (%)".into(),
            measured: 12.5,
            paper_band: "> 30 % \\ é".into(),
        };
        // The row written for this input in the earlier space-free layout:
        // the separators may change, the parsed document may not.
        let pinned = "{\"experiment\":\"fig3\",\"database\":\"TPCD_\\\"MIX\\\"\",\"workload\":\"U0-C\\n\",\"metric\":\"creation work saved (%)\",\"measured\":12.5,\"paper_band\":\"> 30 % \\\\ é\"}";
        let parse = obsv::json::parse;
        assert_eq!(parse(&row.to_json()), parse(pinned));
        let nan = Row {
            measured: f64::NAN,
            ..row
        };
        assert_eq!(
            parse(&nan.to_json()),
            parse(&pinned.replace("12.5", "null"))
        );
        assert!(!nan.to_json().contains('\n'));
    }

    #[test]
    fn scales_ordered() {
        assert!(ExperimentScale::tiny().scale < ExperimentScale::default_run().scale);
        assert!(ExperimentScale::default_run().scale <= ExperimentScale::full().scale);
    }
}
