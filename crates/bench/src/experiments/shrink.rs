//! Shrinking Set (§5.2) — the guaranteed-essential-set path.
//!
//! The paper defers the detailed Shrinking Set evaluation to its journal
//! version \[5\]; what it *does* state, we verify: MNSA followed by Shrinking
//! Set leaves an essential set (minimal, equivalent to the full set), and we
//! compare the residual statistics count / update cost against MNSA and
//! MNSA/D as the offline-policy pipeline of §6 suggests.

use crate::common::{
    bind_all, execute_workload, pct_change, queries_of, tune_workload, ExperimentScale, Row,
};
use autostats::policy::shrinking_pass;
use autostats::{MnsaConfig, MnsaEngine, SessionReport};
use datagen::{Complexity, RagsGenerator, WorkloadSpec};
use optimizer::Optimizer;
use stats::StatsCatalog;

/// Result of the offline pipeline comparison.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    pub mnsa_stats: usize,
    pub mnsad_stats: usize,
    pub shrunk_stats: usize,
    pub mnsa_update_cost: f64,
    pub shrunk_update_cost: f64,
    pub exec_increase_pct: f64,
    pub shrink_optimizer_calls: usize,
}

/// Run the comparison on TPCD_MIX with a query-only complex workload. Also
/// returns the tuning-session journal of the MNSA pass plus the shrinking
/// pass, built from the per-query outcomes (bit-identical with tracing on
/// or off).
pub fn run(scale: &ExperimentScale, obs: &obsv::Obs) -> (ShrinkResult, SessionReport) {
    let db = scale.tpcd_mix();
    let spec = WorkloadSpec::new(0, Complexity::Complex, scale.workload_len).with_seed(scale.seed);
    let stmts = RagsGenerator::generate(&db, &spec);
    let bound = bind_all(&db, &stmts);
    let queries = queries_of(&bound);
    let optimizer = Optimizer::default();
    let mut journal = SessionReport::default();

    // MNSA alone.
    let engine = MnsaEngine::new(MnsaConfig::default()).with_obs(obs.clone());
    let mut cat = StatsCatalog::new();
    cat.set_obs(obs);
    for q in &queries {
        let outcome = engine.run_query(&db, &mut cat, q).expect("mnsa tunes");
        journal.record_query(q.relations.len(), &outcome);
    }
    journal.totals.creation_work = cat.creation_work();
    let mnsa_ids = cat.active_ids();
    let mnsa_update_cost = cat.update_cost_of(&db, mnsa_ids.iter().copied());
    let exec_before = execute_workload(&db, &cat, &bound, obs);

    // MNSA/D for comparison (independent catalog).
    let mnsad = MnsaEngine::new(MnsaConfig::default().with_drop_detection()).with_obs(obs.clone());
    let (cat_d, ..) = tune_workload(&db, &queries, &mnsad);

    // Shrinking Set on top of the MNSA catalog.
    let (out, overhead) =
        shrinking_pass(&db, &mut cat, &optimizer, &queries, &[], obs).expect("shrinking set runs");
    let shrunk_update_cost = cat.update_cost_of(&db, out.essential.iter().copied());
    let exec_after = execute_workload(&db, &cat, &bound, obs);
    journal.record_shrink(&out, overhead);

    let result = ShrinkResult {
        mnsa_stats: mnsa_ids.len(),
        mnsad_stats: cat_d.active_count(),
        shrunk_stats: out.essential.len(),
        mnsa_update_cost,
        shrunk_update_cost,
        exec_increase_pct: pct_change(exec_before, exec_after),
        shrink_optimizer_calls: out.optimizer_calls,
    };
    (result, journal)
}

/// Convert to report rows.
pub fn rows(r: &ShrinkResult) -> Vec<Row> {
    vec![
        Row {
            experiment: "shrink".into(),
            database: "TPCD_MIX".into(),
            workload: "U0-C".into(),
            metric: format!(
                "statistics: MNSA={} MNSA/D={} ShrinkingSet={}",
                r.mnsa_stats, r.mnsad_stats, r.shrunk_stats
            ),
            measured: r.shrunk_stats as f64,
            paper_band: "essential set (minimal)".into(),
        },
        Row {
            experiment: "shrink".into(),
            database: "TPCD_MIX".into(),
            workload: "U0-C".into(),
            metric: "update-cost reduction vs MNSA (%)".into(),
            measured: crate::common::pct_reduction(r.mnsa_update_cost, r.shrunk_update_cost),
            paper_band: ">= MNSA/D's reduction".into(),
        },
        Row {
            experiment: "shrink".into(),
            database: "TPCD_MIX".into(),
            workload: "U0-C".into(),
            metric: "execution cost increase after shrink (%)".into(),
            measured: r.exec_increase_pct,
            paper_band: "small (t=20% equivalence)".into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_never_keeps_more_than_mnsa() {
        let mut scale = ExperimentScale::tiny();
        scale.workload_len = 15;
        let (r, _) = run(&scale, &obsv::Obs::disabled());
        assert!(r.shrunk_stats <= r.mnsa_stats);
        assert!(r.shrunk_update_cost <= r.mnsa_update_cost + 1e-9);
    }
}
