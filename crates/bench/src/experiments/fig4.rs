//! Figure 4 — effectiveness of MNSA.
//!
//! Compares (a) creating *all* statistics proposed by the candidate
//! algorithm against (b) MNSA over the same candidates, with MNSA's
//! optimizer-call overhead included in its creation time, t = 20%. The paper
//! reports 30–45% creation-time reduction with workload execution cost
//! increasing by no more than 2%; a single-column-only variant still saves
//! more than 30%.

use crate::common::{
    bind_all, create_all, execute_workload, pct_change, pct_reduction, queries_of, tune_workload,
    ExperimentScale, Row,
};
use autostats::{
    candidate_statistics, single_column_candidates, CandidateMode, MnsaConfig, MnsaEngine,
};
use datagen::{standard_databases, Complexity, RagsGenerator, WorkloadSpec};
use query::Statement;
use stats::StatsCatalog;
use storage::Database;

/// One (database, workload, mode) measurement.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    pub database: String,
    pub workload: String,
    /// "heuristic" or "single-column".
    pub mode: String,
    pub create_all_work: f64,
    pub mnsa_work: f64,
    pub mnsa_stats_built: usize,
    pub all_stats_built: usize,
    pub creation_reduction_pct: f64,
    pub exec_increase_pct: f64,
}

fn workloads(db: &Database, scale: &ExperimentScale) -> Vec<(String, Vec<Statement>)> {
    [
        WorkloadSpec::new(25, Complexity::Simple, scale.workload_len).with_seed(scale.seed),
        WorkloadSpec::new(0, Complexity::Complex, scale.workload_len).with_seed(scale.seed + 1),
        WorkloadSpec::new(50, Complexity::Simple, scale.workload_len).with_seed(scale.seed + 2),
    ]
    .into_iter()
    .map(|spec| (spec.to_string(), RagsGenerator::generate(db, &spec)))
    .collect()
}

/// Measure one (database, workload) pair under a candidate mode.
pub fn measure(
    db: &Database,
    name: &str,
    wl_name: &str,
    stmts: &[Statement],
    mode: CandidateMode,
) -> Fig4Result {
    let bound = bind_all(db, stmts);
    let queries = queries_of(&bound);

    // (a) create all candidates.
    let mut cat_all = StatsCatalog::new();
    let mut work_all = 0.0;
    for q in &queries {
        let cands = match mode {
            CandidateMode::SingleColumnOnly => single_column_candidates(q),
            _ => candidate_statistics(q),
        };
        work_all += create_all(db, &mut cat_all, &cands);
    }

    // (b) MNSA, overhead included.
    let engine = MnsaEngine::new(MnsaConfig {
        candidate_mode: mode,
        ..Default::default()
    });
    let (cat_mnsa, mnsa_work, outcomes) = tune_workload(db, &queries, &engine);

    let obs = obsv::Obs::disabled();
    let exec_all = execute_workload(db, &cat_all, &bound, &obs);
    let exec_mnsa = execute_workload(db, &cat_mnsa, &bound, &obs);

    Fig4Result {
        database: name.to_string(),
        workload: wl_name.to_string(),
        mode: match mode {
            CandidateMode::SingleColumnOnly => "single-column".into(),
            _ => "heuristic".into(),
        },
        create_all_work: work_all,
        mnsa_work,
        mnsa_stats_built: outcomes.iter().map(|o| o.created.len()).sum(),
        all_stats_built: cat_all.active_count(),
        creation_reduction_pct: pct_reduction(work_all, mnsa_work),
        exec_increase_pct: pct_change(exec_all, exec_mnsa),
    }
}

/// Run Figure 4 across the standard databases (heuristic candidates), plus
/// the single-column variant on TPCD_MIX.
pub fn run(scale: &ExperimentScale) -> Vec<Fig4Result> {
    let mut out = Vec::new();
    for (name, db) in standard_databases(scale.scale, scale.seed) {
        for (wl_name, stmts) in workloads(&db, scale) {
            out.push(measure(
                &db,
                &name,
                &wl_name,
                &stmts,
                CandidateMode::Heuristic,
            ));
        }
        if name == "TPCD_MIX" {
            for (wl_name, stmts) in workloads(&db, scale) {
                out.push(measure(
                    &db,
                    &name,
                    &wl_name,
                    &stmts,
                    CandidateMode::SingleColumnOnly,
                ));
            }
        }
    }
    out
}

/// One ablation measurement: how the `FindNextStatToBuild` node order
/// affects MNSA's creation work (DESIGN.md §5 ablation).
#[derive(Debug, Clone)]
pub struct AblationResult {
    pub order: String,
    pub mnsa_work: f64,
    pub stats_built: usize,
    pub optimizer_calls: usize,
}

/// Compare the §4.2 most-expensive-node heuristic against syntactic and
/// cheapest-node orders on TPCD_MIX with a complex query-only workload.
pub fn run_ablation(scale: &ExperimentScale) -> Vec<AblationResult> {
    use autostats::NextStatOrder;

    let db = scale.tpcd_mix();
    let spec = WorkloadSpec::new(0, Complexity::Complex, scale.workload_len).with_seed(scale.seed);
    let stmts = RagsGenerator::generate(&db, &spec);
    let bound = bind_all(&db, &stmts);
    let queries = queries_of(&bound);

    [
        ("most-expensive", NextStatOrder::MostExpensiveNode),
        ("syntactic", NextStatOrder::Syntactic),
        ("cheapest", NextStatOrder::CheapestNode),
    ]
    .into_iter()
    .map(|(name, order)| {
        let engine = MnsaEngine::new(MnsaConfig {
            next_stat_order: order,
            ..Default::default()
        });
        let (cat, work, outcomes) = tune_workload(&db, &queries, &engine);
        AblationResult {
            order: name.to_string(),
            mnsa_work: work,
            stats_built: cat.active_count(),
            optimizer_calls: outcomes.iter().map(|o| o.optimizer_calls).sum(),
        }
    })
    .collect()
}

/// Ablation rows.
pub fn ablation_rows(results: &[AblationResult]) -> Vec<Row> {
    results
        .iter()
        .map(|r| Row {
            experiment: "fig4-ablation".into(),
            database: "TPCD_MIX".into(),
            workload: format!("order={}", r.order),
            metric: format!(
                "MNSA total work (stats={}, optimizer calls={})",
                r.stats_built, r.optimizer_calls
            ),
            measured: r.mnsa_work,
            paper_band: "most-expensive should be cheapest-or-equal".into(),
        })
        .collect()
}

/// Convert to report rows.
pub fn rows(results: &[Fig4Result]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in results {
        let (band_red, band_exec) = if r.mode == "single-column" {
            ("> 30%", "small")
        } else {
            ("30-45%", "<= 2%")
        };
        rows.push(Row {
            experiment: "fig4".into(),
            database: r.database.clone(),
            workload: format!("{} [{}]", r.workload, r.mode),
            metric: "MNSA creation-time reduction (%)".into(),
            measured: r.creation_reduction_pct,
            paper_band: band_red.into(),
        });
        rows.push(Row {
            experiment: "fig4".into(),
            database: r.database.clone(),
            workload: format!("{} [{}]", r.workload, r.mode),
            metric: "workload execution cost increase (%)".into(),
            measured: r.exec_increase_pct,
            paper_band: band_exec.into(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{build_tpcd, TpcdConfig, ZipfSpec};

    #[test]
    fn mnsa_saves_creation_work() {
        let scale = ExperimentScale::tiny();
        let db = build_tpcd(&TpcdConfig {
            scale: 0.003,
            zipf: ZipfSpec::Mixed,
            seed: scale.seed,
        });
        let (wl_name, stmts) = workloads(&db, &scale).remove(1); // complex
        let r = measure(&db, "TPCD_MIX", &wl_name, &stmts, CandidateMode::Heuristic);
        assert!(
            r.mnsa_stats_built <= r.all_stats_built,
            "MNSA built more statistics ({}) than create-all ({})",
            r.mnsa_stats_built,
            r.all_stats_built
        );
        assert!(
            r.creation_reduction_pct > 0.0,
            "MNSA did not reduce creation work: {:?}",
            r
        );
    }

    #[test]
    fn ablation_orders_all_terminate() {
        let mut scale = ExperimentScale::tiny();
        scale.workload_len = 10;
        let results = run_ablation(&scale);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.mnsa_work > 0.0, "{}: no work recorded", r.order);
        }
        // The paper's heuristic should not do materially more work than the
        // adversarial cheapest-node order.
        let expensive = results
            .iter()
            .find(|r| r.order == "most-expensive")
            .unwrap();
        let cheapest = results.iter().find(|r| r.order == "cheapest").unwrap();
        assert!(expensive.mnsa_work <= cheapest.mnsa_work * 1.5);
    }

    #[test]
    fn single_column_variant_also_saves() {
        let scale = ExperimentScale::tiny();
        let db = build_tpcd(&TpcdConfig {
            scale: 0.003,
            zipf: ZipfSpec::Fixed(2.0),
            seed: scale.seed,
        });
        let (wl_name, stmts) = workloads(&db, &scale).remove(0);
        let r = measure(
            &db,
            "TPCD_2",
            &wl_name,
            &stmts,
            CandidateMode::SingleColumnOnly,
        );
        assert!(r.creation_reduction_pct >= 0.0);
    }
}
