//! Table 1 — quality of MNSA/D.
//!
//! On the U25-C-100 workload the paper reports that MNSA/D reduces the
//! update cost of the statistics left behind by 30–34% compared to MNSA
//! (TPCD_0: 31%, TPCD_2: 34%, TPCD_4: 32%, TPCD_MIX: 30%), and that
//! re-running the workload after dropping the detected non-essential
//! statistics increases execution cost by at most 6% (worst at TPCD_4).

use crate::common::{
    bind_all, execute_workload, pct_change, pct_reduction, queries_of, tune_workload,
    ExperimentScale, Row,
};
use autostats::{MnsaConfig, MnsaEngine};
use datagen::{standard_databases, Complexity, RagsGenerator, WorkloadSpec};
use query::Statement;
use storage::Database;

/// One database's Table 1 entry.
#[derive(Debug, Clone)]
pub struct Table1Result {
    pub database: String,
    pub workload: String,
    pub mnsa_update_cost: f64,
    pub mnsad_update_cost: f64,
    pub update_cost_reduction_pct: f64,
    pub rerun_exec_increase_pct: f64,
    pub mnsa_stats: usize,
    pub mnsad_active_stats: usize,
}

/// Measure one database with the given workload.
pub fn measure(db: &Database, name: &str, wl_name: &str, stmts: &[Statement]) -> Table1Result {
    let bound = bind_all(db, stmts);
    let queries = queries_of(&bound);

    // MNSA.
    let mnsa = MnsaEngine::new(MnsaConfig::default());
    let (cat_mnsa, ..) = tune_workload(db, &queries, &mnsa);
    let mnsa_ids = cat_mnsa.active_ids();
    let mnsa_update_cost = cat_mnsa.update_cost_of(db, mnsa_ids.iter().copied());

    // MNSA/D.
    let mnsad = MnsaEngine::new(MnsaConfig::default().with_drop_detection());
    let (cat_mnsad, ..) = tune_workload(db, &queries, &mnsad);
    let mnsad_ids = cat_mnsad.active_ids();
    let mnsad_update_cost = cat_mnsad.update_cost_of(db, mnsad_ids.iter().copied());

    // Re-run the workload with the statistics left behind by each algorithm.
    let obs = obsv::Obs::disabled();
    let exec_mnsa = execute_workload(db, &cat_mnsa, &bound, &obs);
    let exec_mnsad = execute_workload(db, &cat_mnsad, &bound, &obs);

    Table1Result {
        database: name.to_string(),
        workload: wl_name.to_string(),
        mnsa_update_cost,
        mnsad_update_cost,
        update_cost_reduction_pct: pct_reduction(mnsa_update_cost, mnsad_update_cost),
        rerun_exec_increase_pct: pct_change(exec_mnsa, exec_mnsad),
        mnsa_stats: mnsa_ids.len(),
        mnsad_active_stats: mnsad_ids.len(),
    }
}

/// Run Table 1 across the standard databases on U25-C-100.
pub fn run(scale: &ExperimentScale) -> Vec<Table1Result> {
    let spec = WorkloadSpec::new(25, Complexity::Complex, scale.workload_len.max(100))
        .with_seed(scale.seed);
    standard_databases(scale.scale, scale.seed)
        .into_iter()
        .map(|(name, db)| {
            let stmts = RagsGenerator::generate(&db, &spec);
            measure(&db, &name, &spec.to_string(), &stmts)
        })
        .collect()
}

/// Convert to report rows.
pub fn rows(results: &[Table1Result]) -> Vec<Row> {
    let paper = |db: &str| match db {
        "TPCD_0" => "31%",
        "TPCD_2" => "34%",
        "TPCD_4" => "32%",
        "TPCD_MIX" => "30%",
        _ => "30-34%",
    };
    let mut rows = Vec::new();
    for r in results {
        rows.push(Row {
            experiment: "table1".into(),
            database: r.database.clone(),
            workload: r.workload.clone(),
            metric: "MNSA/D update-cost reduction vs MNSA (%)".into(),
            measured: r.update_cost_reduction_pct,
            paper_band: paper(&r.database).into(),
        });
        rows.push(Row {
            experiment: "table1".into(),
            database: r.database.clone(),
            workload: r.workload.clone(),
            metric: "rerun execution cost increase after drop (%)".into(),
            measured: r.rerun_exec_increase_pct,
            paper_band: "<= 6%".into(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{build_tpcd, TpcdConfig, ZipfSpec};

    #[test]
    fn mnsad_leaves_no_more_statistics_than_mnsa() {
        let scale = ExperimentScale::tiny();
        let db = build_tpcd(&TpcdConfig {
            scale: 0.003,
            zipf: ZipfSpec::Mixed,
            seed: scale.seed,
        });
        let spec = WorkloadSpec::new(25, Complexity::Complex, 25).with_seed(scale.seed);
        let stmts = RagsGenerator::generate(&db, &spec);
        let r = measure(&db, "TPCD_MIX", &spec.to_string(), &stmts);
        assert!(
            r.mnsad_active_stats <= r.mnsa_stats,
            "MNSA/D active {} > MNSA {}",
            r.mnsad_active_stats,
            r.mnsa_stats
        );
        assert!(
            r.mnsad_update_cost <= r.mnsa_update_cost + 1e-9,
            "MNSA/D must not increase update cost"
        );
    }
}
