//! Incremental, budgeted MNSA for the online lifecycle daemon.
//!
//! The offline tuner ([`crate::OfflineTuner`]) runs MNSA over a whole
//! workload in one sitting. A background daemon cannot afford that: tuning
//! has to proceed in small increments, interleaved with staleness refreshes
//! and query traffic, and each increment must stop when it has spent its
//! share of build work. [`OnlineTuner`] is that incremental form:
//!
//! * queries arrive one at a time ([`OnlineTuner::enqueue`]), deduplicated
//!   by [`BoundSelect::fingerprint`] so a template is analyzed once no
//!   matter how often it executes;
//! * work is funded in **tokens** ([`OnlineTuner::fund`]) — deterministic
//!   work units covering statistic builds, refreshes, and analysis overhead
//!   (`optimizer_calls × optimizer_call_work`). Unspent tokens carry over;
//!   an increment that overshoots goes into *debt* and later ticks pay it
//!   down before new tuning runs. Budget is only checked between whole-query
//!   MNSA runs, never mid-query, so partial analyses never leak into the
//!   catalog;
//! * [`OnlineTuner::step`] drains the pending queue in FIFO order while the
//!   balance is positive — exactly the per-query loop of
//!   [`OfflineTuner::tune_session`](crate::OfflineTuner::tune_session) — and
//!   [`OnlineTuner::shrink_pass`] is its Shrinking Set phase, the same
//!   [`shrinking_pass`] followed by the epoch advance. Consequently a paused daemon that has
//!   drained its queue and run one shrink pass leaves the catalog
//!   bit-identical to an offline `tune` over the same sample.

use crate::equivalence::Equivalence;
use crate::error::TuneError;
use crate::mnsa::{MnsaConfig, MnsaEngine, MnsaOutcome};
use crate::policy::{shrinking_pass, TuningReport};
use crate::shrinking::ShrinkingOutcome;
use query::BoundSelect;
use stats::StatsCatalog;
use std::collections::{BTreeSet, VecDeque};
use storage::Database;

/// What one [`OnlineTuner::step`] increment did.
#[derive(Debug, Clone, Default)]
pub struct OnlineStep {
    /// `(relations, outcome)` per query tuned this increment, in order.
    pub tuned: Vec<(usize, MnsaOutcome)>,
    /// Totals for this increment (same shape as an offline pass report).
    pub report: TuningReport,
    /// Work tokens spent this increment.
    pub work: f64,
    /// True when the queue still holds queries but the balance ran out.
    pub exhausted: bool,
    /// The error that ended this increment early, if one did. Everything
    /// above still describes the queries tuned before it.
    pub error: Option<TuneError>,
}

/// Resumable, budgeted MNSA over a live query sample. See the module docs.
pub struct OnlineTuner {
    engine: MnsaEngine,
    obs: obsv::Obs,
    /// Templates waiting for analysis, each under the fingerprint it was
    /// enqueued by.
    pending: VecDeque<(u64, BoundSelect)>,
    /// Fingerprints enqueued and not failed — a template is tuned at most
    /// once.
    enqueued: BTreeSet<u64>,
    /// Work-token balance: `fund` adds, tuning/`charge` subtract. May go
    /// negative (debt) when the last query of an increment overshoots.
    balance: f64,
}

impl OnlineTuner {
    pub fn new(config: MnsaConfig) -> Self {
        OnlineTuner {
            engine: MnsaEngine::new(config),
            obs: obsv::Obs::disabled(),
            pending: VecDeque::new(),
            enqueued: BTreeSet::new(),
            balance: 0.0,
        }
    }

    /// Attach an observability context (spans on MNSA runs and shrink
    /// passes). Observation-only: outcomes are bit-identical either way.
    pub fn with_obs(mut self, obs: obsv::Obs) -> Self {
        self.engine = self.engine.clone().with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The optimizer used for analysis calls (shared with shrink passes).
    pub fn optimizer(&self) -> &optimizer::Optimizer {
        &self.engine.optimizer
    }

    /// Queue a query template for analysis under `fingerprint`, its
    /// [`BoundSelect::fingerprint`] — a caller that keys its templates by it,
    /// as the workload monitor does, has it at hand. Returns `false` (and
    /// does nothing: the query is cloned only when it is queued) when a query
    /// with the same fingerprint was already enqueued at some point in this
    /// tuner's life and its analysis did not fail.
    pub fn enqueue(&mut self, fingerprint: u64, query: &BoundSelect) -> bool {
        debug_assert_eq!(fingerprint, query.fingerprint());
        if !self.enqueued.insert(fingerprint) {
            return false;
        }
        self.pending.push_back((fingerprint, query.clone()));
        true
    }

    /// Queries waiting for analysis.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Current work-token balance (negative = debt).
    pub fn balance(&self) -> f64 {
        self.balance
    }

    /// Add work tokens to the balance (one tick's allowance).
    pub fn fund(&mut self, tokens: f64) {
        self.balance += tokens;
    }

    /// Charge externally performed work (e.g. staleness refreshes) against
    /// the same token bucket, so refresh and tuning share one budget.
    pub fn charge(&mut self, work: f64) {
        self.balance -= work;
    }

    /// Run MNSA for pending queries, oldest first, while the balance is
    /// positive. Each query runs to completion and its full cost — the
    /// creation work of statistics it built plus `optimizer_calls ×
    /// optimizer_call_work(relations)` — is charged afterwards, possibly
    /// driving the balance negative.
    ///
    /// A query MNSA rejects ends the increment: the error is returned in
    /// [`OnlineStep::error`] beside the queries tuned before it, the
    /// statistics the failed run had already built are charged (they stay in
    /// the catalog), and its fingerprint is forgotten so the template can be
    /// enqueued again.
    pub fn step(&mut self, db: &Database, catalog: &mut StatsCatalog) -> OnlineStep {
        let mut step = OnlineStep::default();
        if self.pending.is_empty() {
            return step;
        }
        let mut span = self.obs.tracer.span("online.step");
        span.arg("pending", self.pending.len());
        while self.balance > 0.0 {
            let Some((fingerprint, query)) = self.pending.pop_front() else {
                break;
            };
            let before_work = catalog.creation_work();
            let result = self.engine.run_query(db, catalog, &query);
            // What a failed run built stays in the catalog and is charged;
            // its optimizer calls were not counted and are not.
            let creation_work = catalog.creation_work() - before_work;
            let overhead = result.as_ref().map_or(0.0, |outcome| {
                step.report.charge_query(query.relations.len(), outcome)
            });
            let work = creation_work + overhead;
            self.balance -= work;
            step.work += work;
            step.report.creation_work += creation_work;
            match result {
                Ok(outcome) => step.tuned.push((query.relations.len(), outcome)),
                Err(error) => {
                    self.enqueued.remove(&fingerprint);
                    step.error = Some(error);
                    break;
                }
            }
        }
        step.exhausted = step.error.is_none() && !self.pending.is_empty();
        span.arg("tuned", step.tuned.len());
        span.arg("exhausted", step.exhausted);
        span.arg("failed", step.error.is_some());
        step
    }

    /// One Shrinking Set pass over `sample` (typically the monitor's
    /// reservoir), applied to the catalog, followed by an epoch advance —
    /// the exact tail of an offline `tune_session`. The pass's analysis
    /// overhead is charged to the token balance.
    pub fn shrink_pass(
        &mut self,
        db: &Database,
        catalog: &mut StatsCatalog,
        sample: &[BoundSelect],
        equivalence: Equivalence,
    ) -> Result<ShrinkingOutcome, TuneError> {
        let (out, overhead) = shrinking_pass(
            db,
            catalog,
            &self.engine.optimizer,
            sample,
            &[],
            equivalence,
            &self.obs,
        )?;
        catalog.advance_epoch();
        self.balance -= overhead;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::OfflineTuner;
    use query::{bind_statement, parse_statement, BoundStatement};
    use storage::{ColumnDef, DataType, Schema, Value};

    fn test_db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "facts",
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..2000i64 {
            db.table_mut(t)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 40),
                    Value::Int((i * 7) % 11),
                ])
                .unwrap();
        }
        db
    }

    fn select(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn workload(db: &Database) -> Vec<BoundSelect> {
        vec![
            select(db, "SELECT * FROM facts WHERE a = 3"),
            select(db, "SELECT * FROM facts WHERE b > 5 AND a < 10"),
            select(db, "SELECT * FROM facts WHERE k < 100"),
        ]
    }

    #[test]
    fn enqueue_deduplicates_by_fingerprint() {
        let db = test_db();
        let q = select(&db, "SELECT * FROM facts WHERE a = 3");
        let mut tuner = OnlineTuner::new(MnsaConfig::default());
        assert!(tuner.enqueue(q.fingerprint(), &q));
        assert!(!tuner.enqueue(q.fingerprint(), &q));
        assert_eq!(tuner.pending(), 1);
    }

    #[test]
    fn zero_balance_defers_all_work() {
        let db = test_db();
        let mut catalog = StatsCatalog::new();
        let mut tuner = OnlineTuner::new(MnsaConfig::default());
        for q in workload(&db) {
            tuner.enqueue(q.fingerprint(), &q);
        }
        let step = tuner.step(&db, &mut catalog);
        assert!(step.tuned.is_empty());
        assert!(step.exhausted);
        assert_eq!(catalog.total_count(), 0);
    }

    #[test]
    fn overshoot_creates_debt_that_later_ticks_repay() {
        let db = test_db();
        let mut catalog = StatsCatalog::new();
        let mut tuner = OnlineTuner::new(MnsaConfig::default());
        for q in workload(&db) {
            tuner.enqueue(q.fingerprint(), &q);
        }
        // A tiny positive balance admits exactly one query, whose real cost
        // overshoots into debt.
        tuner.fund(1.0);
        let step = tuner.step(&db, &mut catalog);
        assert_eq!(step.tuned.len(), 1);
        assert!(step.exhausted);
        assert!(tuner.balance() < 0.0, "balance: {}", tuner.balance());
        let debt = tuner.balance();

        // Funding less than the debt still runs nothing.
        tuner.fund(-debt / 2.0);
        let stalled = tuner.step(&db, &mut catalog);
        assert!(stalled.tuned.is_empty());
        assert!(stalled.exhausted);

        // Paying off the debt (plus a little) resumes tuning.
        tuner.fund(-tuner.balance() + 1.0);
        let resumed = tuner.step(&db, &mut catalog);
        assert!(!resumed.tuned.is_empty());
    }

    #[test]
    fn rejected_query_ends_the_step_without_losing_what_came_before() {
        let db = test_db();
        let mut catalog = StatsCatalog::new();
        // Every table counts as small, so the rejected query has built its
        // candidates before its first optimizer call fails.
        let mut tuner = OnlineTuner::new(MnsaConfig {
            small_table_rows: usize::MAX,
            ..MnsaConfig::default()
        });
        let aliases: Vec<String> = (0..=optimizer::MAX_DP_RELATIONS)
            .map(|i| format!("facts f{i}"))
            .collect();
        let too_wide = select(
            &db,
            &format!("SELECT * FROM {} WHERE f0.b = 2", aliases.join(", ")),
        );
        for q in [
            &select(&db, "SELECT * FROM facts WHERE a = 3"),
            &too_wide,
            &select(&db, "SELECT * FROM facts WHERE k < 100"),
        ] {
            tuner.enqueue(q.fingerprint(), q);
        }
        tuner.fund(f64::INFINITY);

        let step = tuner.step(&db, &mut catalog);
        assert!(matches!(
            step.error,
            Some(TuneError::Plan(
                optimizer::PlanError::TooManyRelations { .. }
            ))
        ));
        assert_eq!(step.tuned.len(), 1, "the query before the failure");
        assert_eq!(tuner.pending(), 1, "the query after it");
        assert!(!step.exhausted);
        // The first query built `a`, the rejected one `b`: both are charged.
        assert_eq!(catalog.total_count(), 2);
        assert_eq!(step.report.creation_work, catalog.creation_work());
        assert!(step.work > step.report.creation_work);
        assert!(
            tuner.enqueue(too_wide.fingerprint(), &too_wide),
            "a rejected template can be queued again"
        );

        let rest = tuner.step(&db, &mut catalog);
        assert_eq!(rest.tuned.len(), 1);
        assert!(rest.error.is_some(), "and is rejected again");
    }

    #[test]
    fn drained_tuner_plus_shrink_equals_offline_tune() {
        let db = test_db();
        let queries = workload(&db);

        let mut offline_catalog = StatsCatalog::new();
        let offline = OfflineTuner::default();
        let report = offline
            .tune(&db, &mut offline_catalog, &queries)
            .expect("offline tune");

        let mut online_catalog = StatsCatalog::new();
        let mut tuner = OnlineTuner::new(MnsaConfig::default());
        for q in &queries {
            tuner.enqueue(q.fingerprint(), q);
        }
        tuner.fund(f64::INFINITY);
        let step = tuner.step(&db, &mut online_catalog);
        assert!(!step.exhausted);
        assert_eq!(step.report.statistics_created, report.statistics_created);
        tuner
            .shrink_pass(
                &db,
                &mut online_catalog,
                &queries,
                Equivalence::paper_default(),
            )
            .unwrap();

        assert_eq!(offline_catalog.snapshot(), online_catalog.snapshot());
    }
}
