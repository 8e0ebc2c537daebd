//! Figure 3 — evaluation of the Candidate Statistics algorithm.
//!
//! Compares our §7.1 heuristic candidate set against the **Exhaustive**
//! strategy (every subset of each relevant column group). The paper reports
//! a 50–80% reduction in statistics creation time across data distributions,
//! with workload execution cost increasing by no more than 3%.

use crate::common::{
    bind_all, create_all, execute_workload, pct_change, pct_reduction, queries_of, ExperimentScale,
    Row,
};
use autostats::{candidate_statistics, exhaustive_candidates};
use datagen::{
    standard_databases, tpcd_benchmark_queries, Complexity, RagsGenerator, WorkloadSpec,
};
use query::Statement;
use stats::StatsCatalog;
use storage::Database;

/// One (database, workload) measurement.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    pub database: String,
    pub workload: String,
    pub exhaustive_work: f64,
    pub heuristic_work: f64,
    pub creation_reduction_pct: f64,
    pub exec_increase_pct: f64,
}

/// The workloads of the figure: the original TPC-D queries plus Rags mixes.
fn workloads(db: &Database, scale: &ExperimentScale) -> Vec<(String, Vec<Statement>)> {
    let mut out = vec![(
        "TPCD-ORIG".to_string(),
        tpcd_benchmark_queries()
            .into_iter()
            .map(Statement::Select)
            .collect::<Vec<_>>(),
    )];
    for spec in [
        WorkloadSpec::new(25, Complexity::Simple, scale.workload_len).with_seed(scale.seed),
        WorkloadSpec::new(0, Complexity::Complex, scale.workload_len).with_seed(scale.seed + 1),
    ] {
        out.push((spec.to_string(), RagsGenerator::generate(db, &spec)));
    }
    out
}

/// Measure one (database, workload) pair.
fn measure(
    db: &Database,
    name: &str,
    wl_name: &str,
    stmts: &[Statement],
    obs: &obsv::Obs,
) -> Fig3Result {
    let mut span = obs.tracer.span("fig3.measure");
    span.arg("database", name.to_string());
    span.arg("workload", wl_name.to_string());
    let bound = bind_all(db, stmts);
    let queries = queries_of(&bound);

    let mut cat_ex = StatsCatalog::new();
    cat_ex.set_obs(obs);
    let mut work_ex = 0.0;
    for q in &queries {
        work_ex += create_all(db, &mut cat_ex, &exhaustive_candidates(q, 8));
    }
    let mut cat_h = StatsCatalog::new();
    cat_h.set_obs(obs);
    let mut work_h = 0.0;
    for q in &queries {
        work_h += create_all(db, &mut cat_h, &candidate_statistics(q));
    }

    let exec_ex = execute_workload(db, &cat_ex, &bound, obs);
    let exec_h = execute_workload(db, &cat_h, &bound, obs);

    Fig3Result {
        database: name.to_string(),
        workload: wl_name.to_string(),
        exhaustive_work: work_ex,
        heuristic_work: work_h,
        creation_reduction_pct: pct_reduction(work_ex, work_h),
        exec_increase_pct: pct_change(exec_ex, exec_h),
    }
}

/// Run Figure 3 across the four standard databases. Under `obs` the
/// catalogs meter their builds and workload execution is traced; the results
/// do not depend on it.
pub fn run(scale: &ExperimentScale, obs: &obsv::Obs) -> Vec<Fig3Result> {
    let mut out = Vec::new();
    for (name, db) in standard_databases(scale.scale, scale.seed) {
        for (wl_name, stmts) in workloads(&db, scale) {
            out.push(measure(&db, &name, &wl_name, &stmts, obs));
        }
    }
    out
}

/// Convert to report rows.
pub fn rows(results: &[Fig3Result]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in results {
        rows.push(Row {
            experiment: "fig3".into(),
            database: r.database.clone(),
            workload: r.workload.clone(),
            metric: "creation-time reduction vs Exhaustive (%)".into(),
            measured: r.creation_reduction_pct,
            paper_band: "50-80%".into(),
        });
        rows.push(Row {
            experiment: "fig3".into(),
            database: r.database.clone(),
            workload: r.workload.clone(),
            metric: "workload execution cost increase (%)".into(),
            measured: r.exec_increase_pct,
            paper_band: "<= 3%".into(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{build_tpcd, TpcdConfig, ZipfSpec};

    #[test]
    fn heuristic_cheaper_with_tiny_exec_penalty() {
        let scale = ExperimentScale::tiny();
        let db = scale.tpcd_mix();
        let (wl_name, stmts) = workloads(&db, &scale).remove(2); // complex Rags
        let r = measure(&db, "TPCD_MIX", &wl_name, &stmts, &obsv::Obs::disabled());
        assert!(
            r.heuristic_work <= r.exhaustive_work,
            "heuristic must not cost more than exhaustive"
        );
        assert!(
            r.exec_increase_pct <= 15.0,
            "execution-cost increase too large: {}",
            r.exec_increase_pct
        );
    }

    #[test]
    fn tpcd_orig_reduction_positive() {
        let scale = ExperimentScale::tiny();
        let db = build_tpcd(&TpcdConfig {
            scale: scale.scale,
            zipf: ZipfSpec::Fixed(2.0),
            seed: scale.seed,
        });
        let (wl_name, stmts) = workloads(&db, &scale).remove(0);
        let r = measure(&db, "TPCD_2", &wl_name, &stmts, &obsv::Obs::disabled());
        assert!(
            r.creation_reduction_pct > 0.0,
            "reduction: {}",
            r.creation_reduction_pct
        );
    }
}
