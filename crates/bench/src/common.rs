//! Shared experiment plumbing.

use executor::{execute_plan, WorkloadRunner};
use optimizer::{OptimizeOptions, Optimizer};
use parking_lot::Mutex;
use query::{bind_statement, BoundSelect, BoundStatement, Statement};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use stats::{StatDescriptor, StatsCatalog};
use std::sync::{Arc, OnceLock};
use storage::Database;

/// How big an experiment run is. Results are ratios, so the default small
/// scale reproduces the paper's *shape*; `full()` runs larger databases for
/// tighter numbers.
#[derive(Debug, Clone, Copy)]
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
}

/// One reported measurement, with the paper's band alongside.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    pub experiment: String,
    pub database: String,
    pub workload: String,
    pub metric: String,
    pub measured: f64,
    pub paper_band: String,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Row {
    /// Hand-rolled JSON (no serde_json offline). Fields are flat strings
    /// plus one number, so this stays trivially correct.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"{}\",\"database\":\"{}\",\"workload\":\"{}\",\"metric\":\"{}\",\"measured\":{},\"paper_band\":\"{}\"}}",
            json_escape(&self.experiment),
            json_escape(&self.database),
            json_escape(&self.workload),
            json_escape(&self.metric),
            if self.measured.is_finite() {
                format!("{}", self.measured)
            } else {
                "null".to_string()
            },
            json_escape(&self.paper_band),
        )
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

/// Print a table of rows and optionally write them as JSON lines.
pub fn report(rows: &[Row], json_path: Option<&str>) {
    for r in rows {
        r.print();
    }
    if let Some(path) = json_path {
        let mut out = String::new();
        for r in rows {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        if let Some(parent) = std::path::Path::new(path).parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!(
                    "error: cannot create results directory {}: {e}",
                    parent.display()
                );
                return;
            }
        }
        match std::fs::write(path, out) {
            Ok(()) => println!("results written to {path}"),
            Err(e) => eprintln!("error: cannot write results file {path}: {e}"),
        }
    }
}

/// Parse a `--threads N` flag from CLI args; defaults to 1 (serial).
pub fn parse_threads(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// The value of a `--flag VALUE` pair, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Observability plumbing shared by the experiment drivers.
///
/// Parses `--trace-out PATH`, `--metrics-out PATH`, and `--journal-out PATH`
/// and hands out one [`obsv::Obs`] for the whole run. Metrics counters are
/// always collected (cheap atomics into the run's registry); span tracing is
/// enabled only when `--trace-out` is given, keeping the default path on the
/// disabled-tracer fast path. [`BenchObs::finish`] exports everything and
/// prints the uniform end-of-run metrics summary every driver shares.
pub struct BenchObs {
    pub obs: obsv::Obs,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    journal_out: Option<String>,
}

fn write_artifact(path: &str, what: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                return;
            }
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => println!("{what} written to {path}"),
        Err(e) => eprintln!("error: cannot write {what} {path}: {e}"),
    }
}

impl BenchObs {
    pub fn from_args(args: &[String]) -> Self {
        let trace_out = flag_value(args, "--trace-out");
        let obs = if trace_out.is_some() {
            obsv::Obs::enabled()
        } else {
            obsv::Obs::disabled()
        };
        BenchObs {
            obs,
            trace_out,
            metrics_out: flag_value(args, "--metrics-out"),
            journal_out: flag_value(args, "--journal-out"),
        }
    }

    /// Flush + export the trace (Chrome `trace_event` format unless the path
    /// ends in `.jsonl`), dump the metrics snapshot and the tuning-session
    /// journal if requested, and print the end-of-run metrics summary.
    pub fn finish(&self, journal: Option<&autostats::SessionReport>) {
        if let Some(path) = &self.trace_out {
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
        if let Some(path) = &self.metrics_out {
            write_artifact(path, "metrics", &self.obs.metrics.snapshot().render_json());
        }
        if let Some(journal) = journal {
            if !journal.queries.is_empty() {
                println!("\n== tuning-session journal ==");
                print!("{}", journal.render_text());
            }
            if let Some(path) = &self.journal_out {
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
/// catalog. Returns total deterministic execution work.
pub fn execute_workload(db: &Database, catalog: &StatsCatalog, workload: &[BoundStatement]) -> f64 {
    execute_workload_obs(db, catalog, workload, &obsv::Obs::disabled())
}

/// [`execute_workload`] under an observability context: statements run with
/// `exec.query` / `exec.dml` span trees and the total work is mirrored into
/// the `exec.work` meter. Returns exactly what `execute_workload` returns.
pub fn execute_workload_obs(
    db: &Database,
    catalog: &StatsCatalog,
    workload: &[BoundStatement],
    obs: &obsv::Obs,
) -> f64 {
    let mut db = db.clone();
    let runner = WorkloadRunner {
        tracer: obs.tracer.clone(),
        ..Default::default()
    };
    let work = runner
        .run(&mut db, catalog.full_view(), workload)
        .expect("bench workload executes")
        .total_work;
    obs.metrics.float_counter("exec.work").add(work);
    work
}

/// Memo of per-statement execution work, shared across the repeated
/// workload executions of a parameter sweep.
///
/// For a read-only statement, deterministic execution work is a pure
/// function of (database contents, statement, chosen operator tree) — the
/// interpreter never reads the plan's cardinality/cost *estimates* — so the
/// key is `(statement index, plan structural fingerprint)`. Two sweep points
/// whose catalogs lead the optimizer to the same tree for a statement share
/// one execution, no matter how their estimates differ. One memo is scoped
/// to exactly one (database, workload) pair: the statement index only
/// identifies a statement within that workload.
///
/// Entries are [`OnceLock`] cells, giving *single-flight* semantics: when
/// several worker threads reach the same cold key at once (the first wave of
/// a fanned-out sweep), one executes and the rest block on the cell instead
/// of redundantly executing the same statement.
/// Single-flight cell: computed once, concurrent readers block until ready.
type WorkCell = Arc<OnceLock<f64>>;

#[derive(Default)]
pub struct ExecWorkMemo {
    per_statement: Mutex<FxHashMap<(usize, u64), WorkCell>>,
}

impl ExecWorkMemo {
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`execute_workload`] with plan-level memoization of execution work.
///
/// Returns exactly what `execute_workload` returns (same optimizer, same
/// options, statements executed in order against unmutated data), but serves
/// repeated (statement, plan-tree) pairs from `memo`. Workloads containing DML
/// fall back to the plain path: a mutating statement changes the data later
/// statements see, so their work is no longer a function of the plan alone.
pub fn execute_workload_memo(
    db: &Database,
    catalog: &StatsCatalog,
    workload: &[BoundStatement],
    memo: &ExecWorkMemo,
    obs: &obsv::Obs,
) -> f64 {
    if workload
        .iter()
        .any(|s| !matches!(s, BoundStatement::Select(_)))
    {
        return execute_workload_obs(db, catalog, workload, obs);
    }
    let optimizer = Optimizer::default();
    let options = OptimizeOptions::default();
    let mut total = 0.0;
    for (i, stmt) in workload.iter().enumerate() {
        let BoundStatement::Select(q) = stmt else {
            unreachable!("checked above")
        };
        let optimized = optimizer
            .optimize(db, q, catalog.full_view(), &options)
            .expect("bench workload optimizes");
        let key = (i, optimized.plan.structural_fingerprint());
        let cell = Arc::clone(memo.per_statement.lock().entry(key).or_default());
        total += *cell.get_or_init(|| {
            // Only cold cells execute, so `exec.work` meters *physical*
            // work: the whole point of the memo is that warm cells add none.
            let work = execute_plan(db, q, &optimized.plan, &optimizer.params)
                .expect("bench workload executes")
                .work;
            obs.metrics.float_counter("exec.work").add(work);
            work
        });
    }
    total
}

/// Create every descriptor in `descriptors` (deduplicating against the
/// catalog) and return the creation work spent.
pub fn create_all(
    db: &Database,
    catalog: &mut StatsCatalog,
    descriptors: impl IntoIterator<Item = StatDescriptor>,
) -> f64 {
    let before = catalog.creation_work();
    for d in descriptors {
        catalog
            .create_statistic(db, d)
            .expect("bench statistic builds");
    }
    catalog.creation_work() - before
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
    fn scales_ordered() {
        assert!(ExperimentScale::tiny().scale < ExperimentScale::default_run().scale);
        assert!(ExperimentScale::default_run().scale <= ExperimentScale::full().scale);
    }
}
