//! Policy layer for automating statistics management (§6).
//!
//! §4 and §5 are *mechanisms*; this module provides the *policies* that
//! deploy them:
//!
//! * **On-the-fly creation** ([`CreationPolicy`]) — the most aggressive
//!   policy builds statistics for each incoming query before optimizing it.
//!   SQL Server 7.0's auto-statistics mode (create all syntactically
//!   relevant single-column statistics) is the baseline; MNSA / MNSA/D
//!   "significantly reduce the time spent on creating statistics on the
//!   fly".
//! * **Offline tuning** ([`OfflineTuner`]) — the most conservative policy: a
//!   periodic process runs MNSA over the workload and then the Shrinking Set
//!   algorithm to eliminate non-essential statistics.
//! * **Aging** — configured on [`MnsaConfig`]; dampens
//!   re-creation of recently dropped statistics.
//! * The **auto-update/auto-drop** loop is the `autod` tick: it refreshes
//!   what [`stats::StatsCatalog::stale_statistics`] flags and then calls
//!   [`stats::StatsCatalog::drop_over_updated`], restricted to drop-listed
//!   statistics per the paper's improved policy.
//!
//! The two pieces of accounting every deployment of MNSA + Shrinking Set
//! shares are defined here once: what one query's MNSA run is charged
//! ([`TuningReport::charge_query`]) and the Shrinking Set pass over a tuned
//! catalog ([`shrinking_pass`]). A session journals both into one ledger,
//! [`SessionReport::record_query`] and [`SessionReport::record_shrink`]:
//! the offline tuner, the `autod` tick and the experiments alike.

use crate::equivalence::Equivalence;
use crate::error::TuneError;
use crate::journal::SessionReport;
use crate::mnsa::{MnsaConfig, MnsaEngine, MnsaOutcome};
use crate::shrinking::{shrinking_set_traced, ShrinkingOutcome};
use optimizer::{OptimizedQuery, Optimizer};
use query::BoundSelect;
use stats::{StatId, StatsCatalog};
use storage::Database;

/// How statistics are created for incoming queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CreationPolicy {
    /// SQL Server 7.0 auto-statistics: every syntactically relevant
    /// single-column statistic, unconditionally.
    CreateAllSyntactic,
    /// Create the full §7.1 candidate set, unconditionally.
    CreateAllCandidates,
    /// Magic Number Sensitivity Analysis (optionally with drop detection —
    /// set `drop_detection` in the config for MNSA/D).
    Mnsa(MnsaConfig),
}

impl Default for CreationPolicy {
    fn default() -> Self {
        CreationPolicy::Mnsa(MnsaConfig::default())
    }
}

/// Deterministic work charged per optimizer invocation, used to include the
/// MNSA overhead in "statistics creation time" as §8.2 does. Join
/// enumeration is exponential in the relation count; statistic builds cost
/// `O(rows log rows)`, so optimizer calls are cheap but not free.
pub fn optimizer_call_work(n_relations: usize) -> f64 {
    25.0 * (1u64 << n_relations.min(16)) as f64
}

/// Outcome of applying a creation policy or an offline tuning pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningReport {
    pub statistics_created: usize,
    pub statistics_drop_listed: usize,
    pub optimizer_calls: usize,
    /// Work spent building statistics during this pass.
    pub creation_work: f64,
    /// Work attributed to the tuning algorithm's optimizer calls.
    pub overhead_work: f64,
}

impl TuningReport {
    /// Total "statistics creation time" including analysis overhead — the
    /// quantity Figures 3 and 4 compare.
    pub fn total_work(&self) -> f64 {
        self.creation_work + self.overhead_work
    }

    /// Add one query's MNSA run: its optimizer calls, charged
    /// [`optimizer_call_work`] each at the query's relation count, and what
    /// it created and drop-listed. Creation work is metered by the catalog,
    /// not here. Returns the overhead charged.
    pub fn charge_query(&mut self, relations: usize, outcome: &MnsaOutcome) -> f64 {
        let overhead = outcome.optimizer_calls as f64 * optimizer_call_work(relations);
        self.optimizer_calls += outcome.optimizer_calls;
        self.overhead_work += overhead;
        self.statistics_created += outcome.created.len();
        self.statistics_drop_listed += outcome.drop_listed.len();
        overhead
    }
}

/// The Shrinking Set phase that follows MNSA in a tuning pass: run
/// Figure 2 over the catalog's active statistics, move what it removes to
/// the drop-list, and price its optimizer calls at the workload's widest
/// query. Returns the outcome and that overhead; advancing the epoch is the
/// caller's.
///
/// `known` holds the plans the caller already has for `workload`, as
/// [`shrinking_set_traced`] takes them: `known[i]` was produced by this
/// `optimizer` over this `db` for `workload[i]` (`&[]` when there are none).
pub fn shrinking_pass(
    db: &Database,
    catalog: &mut StatsCatalog,
    optimizer: &Optimizer,
    workload: &[BoundSelect],
    known: &[OptimizedQuery],
    equivalence: Equivalence,
    obs: &obsv::Obs,
) -> Result<(ShrinkingOutcome, f64), TuneError> {
    let initial = catalog.active_ids();
    let out = shrinking_set_traced(
        db,
        catalog,
        optimizer,
        workload,
        known,
        &initial,
        equivalence,
        true,
        obs,
    )?;
    let widest = workload
        .iter()
        .map(|q| q.relations.len())
        .max()
        .unwrap_or(1);
    let overhead = out.optimizer_calls as f64 * optimizer_call_work(widest);
    Ok((out, overhead))
}

/// Candidates not yet built (nor drop-listed), deduplicated in order — the
/// set a serial `find_built`-guarded creation loop would actually build.
fn unbuilt(
    catalog: &StatsCatalog,
    candidates: Vec<stats::StatDescriptor>,
) -> Vec<stats::StatDescriptor> {
    let mut seen = std::collections::HashSet::new();
    candidates
        .into_iter()
        .filter(|d| catalog.find_built(d).is_none())
        .filter(|d| seen.insert(d.clone()))
        .collect()
}

/// Apply a creation policy for one incoming query. Returns the report, the
/// ids of statistics created and, from the MNSA arm, its raw [`MnsaOutcome`]
/// so callers can journal the trajectory (`None` for the unconditional
/// policies).
pub fn apply_policy(
    db: &Database,
    catalog: &mut StatsCatalog,
    policy: &CreationPolicy,
    query: &BoundSelect,
) -> Result<(TuningReport, Vec<StatId>, Option<MnsaOutcome>), TuneError> {
    let mut report = TuningReport::default();
    let before_work = catalog.creation_work();
    let mut mnsa_outcome = None;
    let created = match policy {
        CreationPolicy::CreateAllSyntactic => {
            let descs = unbuilt(catalog, crate::candidates::single_column_candidates(query));
            crate::batch::create_statistics_grouped(catalog, db, &descs)?
        }
        CreationPolicy::CreateAllCandidates => {
            let descs = unbuilt(catalog, crate::candidates::candidate_statistics(query));
            crate::batch::create_statistics_grouped(catalog, db, &descs)?
        }
        CreationPolicy::Mnsa(cfg) => {
            let outcome = MnsaEngine::new(*cfg).run_query(db, catalog, query)?;
            report.charge_query(query.relations.len(), &outcome);
            let created = outcome.created.clone();
            mnsa_outcome = Some(outcome);
            created
        }
    };
    // Assigned, not added: the MNSA arm's charge has counted its own.
    report.statistics_created = created.len();
    report.creation_work = catalog.creation_work() - before_work;
    Ok((report, created, mnsa_outcome))
}

/// The conservative periodic process of §6: MNSA over every workload query,
/// then Shrinking Set, under [`Equivalence::paper_default`], to eliminate
/// non-essential statistics.
#[derive(Debug, Clone, Default)]
pub struct OfflineTuner {
    pub mnsa: MnsaConfig,
}

impl OfflineTuner {
    /// Tune the catalog for the workload. Statistics found non-essential by
    /// Shrinking Set are moved to the drop-list.
    pub fn tune(
        &self,
        db: &Database,
        catalog: &mut StatsCatalog,
        workload: &[BoundSelect],
    ) -> Result<TuningReport, TuneError> {
        self.tune_session(db, catalog, workload, &obsv::Obs::disabled())
            .map(|(report, _)| report)
    }

    /// [`OfflineTuner::tune`] under an observability context, also returning
    /// the tuning-session journal. The journal is built from the per-query
    /// [`crate::MnsaOutcome`]s, which are bit-identical with tracing on or
    /// off — so the journal is too.
    pub fn tune_session(
        &self,
        db: &Database,
        catalog: &mut StatsCatalog,
        workload: &[BoundSelect],
        obs: &obsv::Obs,
    ) -> Result<(TuningReport, SessionReport), TuneError> {
        let mut session_span = obs.tracer.span("tuner.session");
        session_span.arg("queries", workload.len());
        let mut session = SessionReport::default();
        let engine = MnsaEngine::new(self.mnsa).with_obs(obs.clone());
        let before_work = catalog.creation_work();
        let (outcomes, plans) = engine.run_workload_planned(db, catalog, workload)?;
        for (q, outcome) in workload.iter().zip(&outcomes) {
            session.record_query(q.relations.len(), outcome);
        }
        // One catalog delta: a sum of per-query deltas rounds differently.
        session.totals.creation_work = catalog.creation_work() - before_work;

        let (out, overhead) = shrinking_pass(
            db,
            catalog,
            &engine.optimizer,
            workload,
            &plans,
            Equivalence::paper_default(),
            obs,
        )?;
        session.record_shrink(&out, overhead);
        catalog.advance_epoch();
        let report = session.totals.clone();
        session_span.arg("optimizer_calls", report.optimizer_calls);
        session_span.arg("statistics_created", report.statistics_created);
        session_span.arg("statistics_drop_listed", report.statistics_drop_listed);
        Ok((report, session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement, BoundStatement};
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "sales",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("region", DataType::Int),
                    ColumnDef::new("amount", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..2500i64 {
            let amount = if i % 80 == 0 { 900 + i % 100 } else { i % 500 };
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i % 12), Value::Int(amount)])
                .unwrap();
        }
        db
    }

    fn bind(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => panic!(),
        }
    }

    #[test]
    fn create_all_syntactic_builds_every_single() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM sales WHERE region = 3 AND amount > 800");
        let mut catalog = StatsCatalog::new();
        let (report, created, _) =
            apply_policy(&db, &mut catalog, &CreationPolicy::CreateAllSyntactic, &q).unwrap();
        assert_eq!(created.len(), 2);
        assert_eq!(report.statistics_created, 2);
        assert!(report.creation_work > 0.0);
        assert_eq!(report.overhead_work, 0.0, "no analysis overhead");
    }

    #[test]
    fn create_all_candidates_includes_multicolumn() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM sales WHERE region = 3 AND amount > 800");
        let mut catalog = StatsCatalog::new();
        let (_, created, _) =
            apply_policy(&db, &mut catalog, &CreationPolicy::CreateAllCandidates, &q).unwrap();
        assert_eq!(created.len(), 3); // region, amount, (region, amount)
    }

    #[test]
    fn mnsa_policy_charges_overhead() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM sales WHERE region = 3 AND amount > 800");
        let mut catalog = StatsCatalog::new();
        let (report, _, _) = apply_policy(
            &db,
            &mut catalog,
            &CreationPolicy::Mnsa(MnsaConfig::default()),
            &q,
        )
        .unwrap();
        assert!(report.optimizer_calls >= 3);
        assert!(report.overhead_work > 0.0);
        assert!(report.total_work() >= report.creation_work);
    }

    #[test]
    fn offline_tuner_shrinks_after_mnsa() {
        let db = setup();
        let workload = vec![
            bind(&db, "SELECT * FROM sales WHERE amount > 800"),
            bind(
                &db,
                "SELECT region, COUNT(*) FROM sales WHERE amount > 800 GROUP BY region",
            ),
        ];
        let mut catalog = StatsCatalog::new();
        let tuner = OfflineTuner::default();
        let report = tuner.tune(&db, &mut catalog, &workload).unwrap();
        // Whatever was created, the active set is minimal afterwards; epoch
        // advanced for aging bookkeeping.
        assert_eq!(catalog.epoch(), 1);
        assert!(catalog.active_count() <= report.statistics_created.max(1));
    }

    #[test]
    fn optimizer_call_work_grows_with_relations() {
        assert!(optimizer_call_work(8) > optimizer_call_work(2));
        assert_eq!(optimizer_call_work(20), optimizer_call_work(16));
    }
}
