//! Parameter sensitivity: the t threshold and the ε probe value.
//!
//! §3.2/§8.2: "we have found that a value of t = 20% is a conservative
//! choice" — larger t prunes more statistics (cheaper creation) at some risk
//! to plan quality; t = 0 degenerates to creating statistics whenever any
//! magic variable exists. §4.1 requires predicate selectivities to lie in
//! [ε, 1−ε] for MNSA's guarantee, with the paper using ε = 0.0005.
//!
//! The sweep points are independent measurements over the same database and
//! workload: each tunes once from an empty catalog and executes the workload
//! under the result.

use crate::common::{
    bind_all, create_all, execute_workload, pct_change, pct_reduction, queries_of, tune_workload,
    ExperimentScale, Row,
};
use autostats::{candidate_statistics, MnsaConfig, MnsaEngine, MnsaOutcome, SessionReport};
use datagen::{Complexity, RagsGenerator, WorkloadSpec};
use query::{BoundSelect, BoundStatement};
use stats::StatsCatalog;
use storage::Database;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub t_percent: f64,
    pub epsilon: f64,
    pub stats_built: usize,
    pub creation_reduction_pct: f64,
    pub exec_increase_pct: f64,
}

/// Measure one sweep point `(t, ε)`: tune from an empty catalog, then
/// execute the workload under the tuned catalog.
fn measure_point(
    db: &Database,
    bound: &[BoundStatement],
    queries: &[BoundSelect],
    work_all: f64,
    exec_all: f64,
    (t, eps): (f64, f64),
    obs: &obsv::Obs,
) -> (SweepResult, Vec<MnsaOutcome>, f64) {
    let engine = MnsaEngine::new(MnsaConfig {
        t_percent: t,
        epsilon: eps,
        ..Default::default()
    })
    .with_obs(obs.clone());
    let (cat, work, outcomes) = tune_workload(db, queries, &engine);
    let exec = execute_workload(db, &cat, bound, obs);
    let result = SweepResult {
        t_percent: t,
        epsilon: eps,
        stats_built: cat.active_count(),
        creation_reduction_pct: pct_reduction(work_all, work),
        exec_increase_pct: pct_change(exec_all, exec),
    };
    (result, outcomes, work)
}

/// TPCD_MIX and the bound U0-C workload the sweep runs over.
fn inputs(scale: &ExperimentScale) -> (Database, Vec<BoundStatement>) {
    let db = scale.tpcd_mix();
    let spec = WorkloadSpec::new(0, Complexity::Complex, scale.workload_len).with_seed(scale.seed);
    let bound = bind_all(&db, &RagsGenerator::generate(&db, &spec));
    (db, bound)
}

/// Sweep t (at ε = 0.0005) then ε (at t = 20) on TPCD_MIX, U0-C workload.
/// Alongside the sweep results it returns the tuning-session journal of the
/// paper-default point (t = 20, ε = 0.0005), built from that point's
/// per-query MNSA outcomes.
pub fn run(scale: &ExperimentScale, obs: &obsv::Obs) -> (Vec<SweepResult>, SessionReport) {
    let (db, bound) = inputs(scale);
    let queries = queries_of(&bound);

    // Baseline: all candidates.
    let mut cat_all = StatsCatalog::new();
    cat_all.set_obs(obs);
    let mut work_all = 0.0;
    for q in &queries {
        work_all += create_all(&db, &mut cat_all, &candidate_statistics(q));
    }
    let exec_all = execute_workload(&db, &cat_all, &bound, obs);

    let mut points: Vec<(f64, f64)> = [0.0, 5.0, 10.0, 20.0, 40.0, 80.0]
        .into_iter()
        .map(|t| (t, 0.0005))
        .collect();
    points.extend([(20.0, 0.01), (20.0, 0.1)]);

    let measured: Vec<(SweepResult, Vec<MnsaOutcome>, f64)> = points
        .iter()
        .map(|&point| measure_point(&db, &bound, &queries, work_all, exec_all, point, obs))
        .collect();

    // Journal the paper-default point from its MNSA outcomes. The split of
    // total work into creation vs optimizer-call overhead is recomputed the
    // same way `tune_point` accumulated it.
    let mut journal = SessionReport::default();
    let mut results = Vec::with_capacity(measured.len());
    for (result, outcomes, work) in measured {
        if result.t_percent == 20.0 && result.epsilon == 0.0005 {
            for (q, o) in queries.iter().zip(&outcomes) {
                journal.record_query(q.relations.len(), o);
            }
            journal.totals.creation_work = work - journal.totals.overhead_work;
        }
        results.push(result);
    }
    (results, journal)
}

/// Convert to report rows.
pub fn rows(results: &[SweepResult]) -> Vec<Row> {
    results
        .iter()
        .map(|r| Row {
            experiment: "tsweep".into(),
            database: "TPCD_MIX".into(),
            workload: format!("t={} eps={}", r.t_percent, r.epsilon),
            metric: format!(
                "stats={} creation-reduction% (exec-increase {:.2}%)",
                r.stats_built, r.exec_increase_pct
            ),
            measured: r.creation_reduction_pct,
            paper_band: "t=20% conservative".into(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_t_prunes_at_least_as_much() {
        let mut scale = ExperimentScale::tiny();
        scale.workload_len = 15;
        let (results, _) = run(&scale, &obsv::Obs::disabled());
        let at = |t: f64| {
            results
                .iter()
                .find(|r| r.t_percent == t && r.epsilon == 0.0005)
                .unwrap()
        };
        // t = 80 must build no more statistics than t = 0.
        assert!(at(80.0).stats_built <= at(0.0).stats_built);
    }

    #[test]
    fn tuning_again_from_an_empty_catalog_repeats_the_trajectory() {
        // Both runs allocate statistic ids from zero, so the outcomes
        // compare equal id for id.
        let (db, bound) = inputs(&ExperimentScale::tiny());
        let queries = queries_of(&bound);
        let engine = MnsaEngine::new(MnsaConfig::default());
        let (first, first_work, first_outcomes) = tune_workload(&db, &queries, &engine);
        let (again, again_work, again_outcomes) = tune_workload(&db, &queries, &engine);
        assert_eq!(first_outcomes, again_outcomes);
        assert_eq!(first_work, again_work);
        assert_eq!(first.snapshot(), again.snapshot());
    }
}
