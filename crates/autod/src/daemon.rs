//! The lifecycle daemon: budgeted tuning on virtual-time ticks.
//!
//! [`LifecycleCore`] is a deterministic state machine advanced by
//! [`LifecycleCore::tick`], on the thread that calls it. Each tick, in order:
//!
//! 1. **fund** — deposit the tick's budget of work tokens into the token
//!    bucket. Work is charged in the deterministic units of the offline
//!    layers (`build_work`, `optimizer_call_work`); unspent tokens carry
//!    over, and overshoot becomes debt that later ticks pay down first;
//! 2. **monitor** — under the tick's one monitor lock, drain the eviction
//!    log into the journal and queue each template of the retained sample
//!    not queued before, by [`query::BoundSelect::fingerprint`], so a
//!    template is analyzed once however often it runs; step 6's sample and
//!    the health counters are read here too. The monitor holds every
//!    SELECT served so far: [`crate::OnlineService`] folds its observation
//!    inbox into it before it calls the tick;
//! 3. **refresh** — scan modification counters and rebuild each table's
//!    stale statistics — more modifications since their build than
//!    `max(500, 20 % of rows)` ([`stats::staleness_threshold`]) — from one
//!    shared scan ([`StatsCatalog::refresh`]), charging each to the bucket;
//!    remaining tables wait for the next tick once the balance runs out;
//! 4. **drop** — physically drop the drop-listed statistics now refreshed
//!    more than [`stats::MAX_UPDATES`] times
//!    ([`StatsCatalog::drop_over_updated`] under the paper's improved
//!    policy: an active statistic is never dropped for its refreshes).
//!    Free, and each drop enters the aging registry;
//! 5. **tune** — while the balance is positive, run MNSA
//!    ([`autostats::MnsaEngine::run_query`]) for the oldest queued
//!    template — the per-query loop of
//!    [`autostats::OfflineTuner::tune_session`] — and charge its creation
//!    work plus its optimizer calls afterwards. The balance is tested only
//!    between whole queries, so a partial analysis never reaches the
//!    catalog;
//! 6. **shrink** — every `shrink_every` ticks, an MNSA/D-complementing
//!    Shrinking Set pass over the monitor sample followed by an epoch
//!    advance (the offline `tune` tail), also charged to the bucket;
//! 7. **publish** — if the catalog changed, freeze a copy as the next
//!    [`CatalogEpoch`]; the service puts it into its published snapshot
//!    beside whatever data is current.
//!
//! Steps 3 and 4 are the whole of §6's auto-update/auto-drop policy; a
//! template or a Shrinking Set pass that fails is reported in the
//! [`TickReport`] and the rest of the tick stands. Steps 5 and 6 journal
//! into the same ledger as the offline tuner, so a paused daemon that drains
//! its queue and runs one shrink pass leaves the catalog, and the journal's
//! counts, as an offline `tune` over the same sample does.
//!
//! Time is virtual — a tick happens when a caller asks for one, never on a
//! wall clock — so schedules are reproducible. With a fixed seed, tick
//! schedule, and a single query thread, the whole catalog trajectory (epochs,
//! work meters, journal) is bit-identical run to run.

use crate::monitor::{WorkloadMonitor, MONITOR_CAPACITY};
use autostats::policy::shrinking_pass;
use autostats::{MnsaConfig, MnsaEngine, OnlineEvent, SessionReport, TuneError};
use parking_lot::Mutex;
use query::BoundSelect;
use stats::{Refreshed, StatsCatalog};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use storage::Database;

/// One published, immutable catalog generation.
#[derive(Debug)]
pub struct CatalogEpoch {
    /// Monotone publication counter (0 = the initial catalog).
    pub generation: u64,
    /// Frozen catalog snapshot for this generation.
    pub catalog: StatsCatalog,
}

/// Always-on telemetry knobs for the online service: span sampling and the
/// slow-query reservoir (see [`obsv::slowlog`]). Latency histograms and the
/// per-tick [`obsv::HealthSnapshot`] are unconditional — they cost a few
/// relaxed atomics per query and one small struct per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Retain the K worst (slowest) sampled queries per tick window with
    /// their full span trees. 0 disables the slow-query log.
    pub slowlog_k: usize,
    /// Trace roughly one in this many query fingerprints (deterministic in
    /// the fingerprint, see [`obsv::SpanSampler`]). 0 disables sampling,
    /// 1 traces everything.
    pub sample_one_in: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slowlog_k: 8,
            sample_one_in: 16,
        }
    }
}

/// Daemon policy knobs. Defaults follow the paper's magic numbers where one
/// exists and SQL Server conventions elsewhere.
#[derive(Debug, Clone)]
pub struct AutodConfig {
    /// Work tokens [`OnlineService::tick_wait`] deposits per tick; a `serve`
    /// cluster splits this one allowance across its shards by demand. The
    /// same deterministic work units as the offline layers (`build_work`,
    /// `optimizer_call_work`).
    ///
    /// [`OnlineService::tick_wait`]: crate::service::OnlineService::tick_wait
    pub budget_per_tick: f64,
    /// MNSA configuration for the tick's tuning step.
    pub mnsa: MnsaConfig,
    /// Run the Shrinking Set pass, under
    /// [`autostats::Equivalence::paper_default`], every this many ticks. 0
    /// never runs it: the one off-switch.
    pub shrink_every: u64,
    /// Span sampling and slow-query capture. Observation-only: telemetry on
    /// vs off never changes catalogs, plans, or journals (pinned by
    /// `tests/telemetry_determinism.rs`).
    pub telemetry: TelemetryConfig,
}

impl Default for AutodConfig {
    fn default() -> Self {
        AutodConfig {
            budget_per_tick: 500_000.0,
            mnsa: MnsaConfig::default(),
            shrink_every: 8,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// What one tick did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    pub tick: u64,
    /// Stale statistics rebuilt this tick.
    pub refreshed: usize,
    /// Work charged for those rebuilds.
    pub refresh_work: f64,
    /// Always 0: the tick refreshes by rebuild only. Feedback correction
    /// is measured offline (`exp cardbench`'s drift block); the field stays
    /// for the readers of this report.
    pub feedback_refreshed: usize,
    /// Over-updated statistics physically dropped this tick.
    pub dropped: usize,
    /// Query templates MNSA analyzed this tick.
    pub queries_tuned: usize,
    /// Work charged for tuning (creation + analysis overhead).
    pub tuning_work: f64,
    /// True when refreshes or tuning were deferred for lack of tokens.
    pub budget_exhausted: bool,
    /// Work left over at end of tick: templates still queued for MNSA plus
    /// refreshes deferred for lack of tokens. The budget arbiter in the
    /// `serve` layer reads this as the shard's demand signal.
    pub pending: usize,
    /// `Some(n)` when a Shrinking Set pass ran and removed `n` statistics.
    pub shrink_removed: Option<usize>,
    /// `Some(g)` when the catalog changed and generation `g` was published.
    pub published_generation: Option<u64>,
    /// The error that cut this tick's MNSA increment short, if one did. The
    /// rest of the tick still ran, and the template that failed may be
    /// enqueued again.
    pub tune_error: Option<TuneError>,
    /// The error that failed this tick's Shrinking Set pass, if it was due
    /// and failed. The catalog is as the pass found it.
    pub shrink_error: Option<TuneError>,
}

/// The deterministic daemon state machine. Owns the master catalog; query
/// threads only ever see the frozen copies it publishes as [`CatalogEpoch`]s.
pub struct LifecycleCore {
    config: AutodConfig,
    catalog: StatsCatalog,
    /// MNSA, and the optimizer Shrinking Set passes analyze with.
    engine: MnsaEngine,
    /// Templates waiting for MNSA, oldest first, each under the fingerprint
    /// it was queued by.
    pending: VecDeque<(u64, BoundSelect)>,
    /// Fingerprints queued and not rejected: a template is tuned once.
    enqueued: BTreeSet<u64>,
    /// Work-token balance: each tick's budget in, tuning, refreshes and
    /// Shrinking Set passes out. Negative is debt.
    balance: f64,
    /// The last publication (generation 0 is the catalog the core started
    /// from).
    epoch: Arc<CatalogEpoch>,
    session: SessionReport,
    obs: obsv::Obs,
    tick: u64,
    /// MNSA optimizer calls so far, for health reporting.
    optimizer_calls: u64,
    /// Tick of the last epoch publication (0 = generation 0 at start).
    last_publish_tick: u64,
    /// Written at the end of every tick, read by [`OnlineService::health`]
    /// without waiting for a tick in progress. Observation only.
    ///
    /// [`OnlineService::health`]: crate::service::OnlineService::health
    health: Arc<Mutex<obsv::HealthSnapshot>>,
}

impl LifecycleCore {
    /// Build a core around an existing catalog (generation 0 is published
    /// immediately, so query threads have statistics from the start).
    pub fn new(catalog: StatsCatalog, config: AutodConfig) -> Self {
        Self::with_parts(
            catalog,
            config,
            obsv::Obs::disabled(),
            SessionReport::default(),
        )
    }

    /// [`LifecycleCore::new`] recording into `obs` and continuing `session`
    /// (whatever was journaled before serving began).
    pub(crate) fn with_parts(
        catalog: StatsCatalog,
        config: AutodConfig,
        obs: obsv::Obs,
        session: SessionReport,
    ) -> Self {
        let engine = MnsaEngine::new(config.mnsa).with_obs(obs.clone());
        let epoch = Arc::new(CatalogEpoch {
            generation: 0,
            catalog: StatsCatalog::restore(catalog.snapshot()),
        });
        LifecycleCore {
            config,
            catalog,
            engine,
            pending: VecDeque::new(),
            enqueued: BTreeSet::new(),
            balance: 0.0,
            epoch,
            session,
            obs,
            tick: 0,
            optimizer_calls: 0,
            last_publish_tick: 0,
            health: Arc::new(Mutex::new(obsv::HealthSnapshot::default())),
        }
    }

    /// The core's last publication.
    pub fn epoch(&self) -> Arc<CatalogEpoch> {
        Arc::clone(&self.epoch)
    }

    /// The master catalog (authoritative; epochs are frozen copies of it).
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// Consume the core, yielding the master catalog and journal.
    pub fn into_parts(self) -> (StatsCatalog, SessionReport) {
        (self.catalog, self.session)
    }

    /// The session journal (offline history plus online events).
    pub fn journal(&self) -> &SessionReport {
        &self.session
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Current work-token balance (negative = debt).
    pub fn balance(&self) -> f64 {
        self.balance
    }

    /// The shared cell the core writes an [`obsv::HealthSnapshot`] into at
    /// the end of every tick. Observation only — nothing reads it back into
    /// tuning decisions.
    pub fn health_cell(&self) -> Arc<Mutex<obsv::HealthSnapshot>> {
        Arc::clone(&self.health)
    }

    /// The latest end-of-tick health snapshot (default before tick 1).
    pub fn health(&self) -> obsv::HealthSnapshot {
        self.health.lock().clone()
    }

    /// Advance virtual time by one tick funded with `budget` work tokens.
    /// See the module docs for the exact sequence. Deterministic: same
    /// inputs, same catalog trajectory. Unspent tokens and debt carry over
    /// in this core's own bucket.
    ///
    /// # Errors
    /// None today: a template MNSA rejects and a Shrinking Set pass that
    /// fails are in the report's `tune_error` and `shrink_error`, and the
    /// rest of the tick stands. The `Result` is the signature every driver
    /// (and `benchmark/`) links.
    pub fn tick(
        &mut self,
        db: &Database,
        monitor: &Mutex<WorkloadMonitor>,
        budget: f64,
    ) -> Result<TickReport, TuneError> {
        self.tick += 1;
        let tick = self.tick;
        let mut span = self.obs.tracer.span("autod.tick");
        span.arg("tick", tick);
        let metrics = &self.obs.metrics;
        metrics.counter("autod.ticks").inc();

        // 1. Fund this tick's allowance.
        self.balance += budget;

        // 2. The tick's one monitor lock (a query is cloned only when it is
        //    queued; a due pass's sample is what was queued here).
        let due = self.config.shrink_every > 0 && tick.is_multiple_of(self.config.shrink_every);
        let (sample, monitor_health) = {
            let mut monitor = monitor.lock();
            for fingerprint in monitor.drain_evictions() {
                metrics.counter("autod.monitor.evictions").inc();
                self.session
                    .record_online(OnlineEvent::MonitorEvict { tick, fingerprint });
            }
            metrics
                .gauge("autod.monitor.templates")
                .set(monitor.len() as i64);
            for (fingerprint, query) in monitor.queries() {
                debug_assert_eq!(fingerprint, query.fingerprint());
                if self.enqueued.insert(fingerprint) {
                    self.pending.push_back((fingerprint, query.clone()));
                }
            }
            let sample = (due && !monitor.is_empty()).then(|| monitor.sample());
            let health = obsv::HealthSnapshot {
                monitor_templates: monitor.len() as u64,
                monitor_capacity: MONITOR_CAPACITY as u64,
                monitor_observed: monitor.observed_total(),
                monitor_evictions: monitor.evictions_total(),
                monitor_ghost_hits: monitor.ghost_hits_total(),
                ..obsv::HealthSnapshot::default()
            };
            (sample, health)
        };

        let mut report = TickReport {
            tick,
            ..TickReport::default()
        };

        // 3. Staleness-driven refresh, one catalog call (one shared scan)
        //    per table, while the token balance lasts.
        let by_table = self.catalog.stale_by_table(db);
        let mut deferred_refreshes = 0usize;
        for (&table, ids) in &by_table {
            if self.balance <= 0.0 {
                deferred_refreshes += ids.len();
                continue;
            }
            for Refreshed { id: stat, work, .. } in self.catalog.refresh(db, table, ids, None) {
                self.balance -= work;
                report.refreshed += 1;
                report.refresh_work += work;
                metrics.counter("autod.refreshes").inc();
                metrics.float_counter("autod.refresh_work").add(work);
                self.session.record_online(OnlineEvent::Refresh {
                    tick,
                    stat,
                    table,
                    work,
                });
            }
        }

        // 4. §6 auto-drop: the drop-listed statistics the refreshes above (or
        //    earlier ones) took past `MAX_UPDATES` go, free of charge.
        for (stat, table, updates) in self.catalog.drop_over_updated(true) {
            report.dropped += 1;
            metrics.counter("autod.auto_drops").inc();
            self.session.record_online(OnlineEvent::AutoDrop {
                tick,
                stat,
                table,
                updates,
            });
        }

        // 5. MNSA over the queued templates, oldest first, while the balance
        //    is positive. A query's full cost is charged after it ran,
        //    possibly into debt. A template MNSA rejects ends the step: what
        //    its run built stays in the catalog and is charged (its calls
        //    were not counted and are not), and its fingerprint is
        //    forgotten, so the monitor's sample queues it again.
        let mut tuning_changed = false;
        if !self.pending.is_empty() {
            let mut step_span = self.obs.tracer.span("online.step");
            step_span.arg("pending", self.pending.len());
            while self.balance > 0.0 && report.tune_error.is_none() {
                let Some((fingerprint, query)) = self.pending.pop_front() else {
                    break;
                };
                let before_work = self.catalog.creation_work();
                let result = self.engine.run_query(db, &mut self.catalog, &query);
                let creation_work = self.catalog.creation_work() - before_work;
                self.session.totals.creation_work += creation_work;
                tuning_changed |= creation_work > 0.0;
                let mut work = creation_work;
                match result {
                    Ok(outcome) => {
                        work += self.session.record_query(query.relations.len(), &outcome);
                        self.optimizer_calls += outcome.optimizer_calls as u64;
                        report.queries_tuned += 1;
                        tuning_changed |=
                            !outcome.created.is_empty() || !outcome.drop_listed.is_empty();
                    }
                    Err(error) => {
                        self.enqueued.remove(&fingerprint);
                        report.tune_error = Some(error);
                    }
                }
                self.balance -= work;
                report.tuning_work += work;
            }
            step_span.arg("tuned", report.queries_tuned);
            step_span.arg(
                "exhausted",
                report.tune_error.is_none() && !self.pending.is_empty(),
            );
            step_span.arg("failed", report.tune_error.is_some());
        }
        metrics
            .counter("autod.tuned_queries")
            .add(report.queries_tuned as u64);
        metrics
            .float_counter("autod.tuning_work")
            .add(report.tuning_work);
        metrics
            .gauge("autod.pending")
            .set(self.pending.len() as i64);

        let tuning_exhausted = report.tune_error.is_none() && !self.pending.is_empty();
        report.budget_exhausted = tuning_exhausted || deferred_refreshes > 0;
        report.pending = self.pending.len() + deferred_refreshes;
        if report.budget_exhausted {
            metrics.counter("autod.budget_exhausted").inc();
            self.session.record_online(OnlineEvent::BudgetExhausted {
                tick,
                pending: report.pending,
                balance: self.balance,
            });
        }

        // 6. Periodic MNSA/D-complementing Shrinking Set pass, then the
        //    epoch advance, as an offline tune ends. One that fails has
        //    touched nothing. Its overhead is charged to the bucket and the
        //    journal, not to `tuning_work`.
        if let Some(sample) = sample {
            match shrinking_pass(
                db,
                &mut self.catalog,
                &self.engine.optimizer,
                &sample,
                &[],
                &self.obs,
            ) {
                Ok((out, overhead)) => {
                    self.catalog.advance_epoch();
                    self.balance -= overhead;
                    self.session.record_shrink(&out, overhead);
                    report.shrink_removed = Some(out.removed.len());
                }
                Err(error) => report.shrink_error = Some(error),
            }
        }

        // 7. Publish a frozen copy iff the catalog changed this tick. A
        //    query MNSA rejected is in no count, but what it built is in
        //    the creation work.
        let changed = report.refreshed > 0
            || report.dropped > 0
            || tuning_changed
            || report.shrink_removed.is_some();
        if changed {
            let generation = self.epoch.generation + 1;
            self.epoch = Arc::new(CatalogEpoch {
                generation,
                catalog: StatsCatalog::restore(self.catalog.snapshot()),
            });
            report.published_generation = Some(generation);
            self.last_publish_tick = tick;
            metrics.counter("autod.epoch_swaps").inc();
            metrics
                .gauge("autod.epoch_generation")
                .set(generation as i64);
            self.session
                .record_online(OnlineEvent::EpochSwap { tick, generation });
        }

        // Assemble and publish the end-of-tick health snapshot. Pure
        // observation: every input is a counter or gauge read; nothing here
        // feeds back into tuning, so the catalog trajectory is untouched.
        let latency = metrics.latency("autod.query.latency_ns").snapshot();
        *self.health.lock() = obsv::HealthSnapshot {
            tick,
            epoch_generation: self.epoch.generation,
            epoch_age_ticks: tick.saturating_sub(self.last_publish_tick),
            staleness_backlog: deferred_refreshes as u64,
            pending_templates: self.pending.len() as u64,
            budget_balance: self.balance,
            // Nothing memoizes MNSA's optimizer calls: each is a miss.
            cache_hits: 0,
            cache_misses: self.optimizer_calls,
            queries: metrics.counter("autod.queries").get(),
            dml: metrics.counter("autod.dml").get(),
            latency_count: latency.count,
            latency_p50_ns: latency.quantile(0.50),
            latency_p90_ns: latency.quantile(0.90),
            latency_p99_ns: latency.quantile(0.99),
            latency_p999_ns: latency.quantile(0.999),
            latency_max_ns: latency.max,
            ..monitor_health
        };

        span.arg("refreshed", report.refreshed);
        span.arg("dropped", report.dropped);
        span.arg("tuned", report.queries_tuned);
        span.arg("exhausted", report.budget_exhausted);
        Ok(report)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::monitor::MonitorConfig;
    use autostats::OfflineTuner;
    use query::{bind_statement, parse_statement, BoundStatement};
    use stats::{StatId, MAX_UPDATES};
    use storage::{ColumnDef, DataType, Schema, Value};

    /// The paper's Example-2 shape: employees (skewed `salary`, rare > 200)
    /// joined with departments, where MNSA reliably builds statistics.
    pub(crate) fn test_db() -> Database {
        let mut db = Database::new();
        let emp = db
            .create_table(
                "employees",
                Schema::new(vec![
                    ColumnDef::new("empid", DataType::Int),
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("age", DataType::Int),
                    ColumnDef::new("salary", DataType::Int),
                ]),
            )
            .unwrap();
        let dept = db
            .create_table(
                "departments",
                Schema::new(vec![
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("dname", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..3000i64 {
            let salary = if i % 100 == 0 { 250 } else { i % 200 };
            db.table_mut(emp)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 20),
                    Value::Int(20 + (i % 50)),
                    Value::Int(salary),
                ])
                .unwrap();
        }
        for d in 0..20i64 {
            db.table_mut(dept)
                .insert(vec![Value::Int(d), Value::Str(format!("d{d}").into())])
                .unwrap();
        }
        db.table_mut(emp).reset_modification_counter();
        db.table_mut(dept).reset_modification_counter();
        db
    }

    fn select(db: &Database, sql: &str) -> query::BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            other => panic!("expected select, got {other:?}"),
        }
    }

    const EXAMPLE2_SQL: &str = "SELECT e.empid, d.dname FROM employees e, departments d \
        WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200";

    fn workload(db: &Database) -> Vec<query::BoundSelect> {
        vec![
            select(db, EXAMPLE2_SQL),
            select(
                db,
                "SELECT e.empid FROM employees e, departments d \
                 WHERE e.deptid = d.deptid AND e.salary > 200",
            ),
            select(db, "SELECT * FROM employees WHERE empid < 100"),
        ]
    }

    /// Paused daemon ≡ offline tune: a core with an unconstrained budget
    /// that drains its queue and runs one shrink pass leaves the master
    /// catalog bit-identical to `OfflineTuner::tune` on the same sample, and
    /// journals the same session: one ledger for MNSA and Shrinking Set.
    #[test]
    fn paused_daemon_matches_offline_tune() {
        let db = test_db();
        let queries = workload(&db);

        let mut offline_catalog = StatsCatalog::new();
        let (_, offline) = OfflineTuner::default()
            .tune_session(&db, &mut offline_catalog, &queries, &obsv::Obs::disabled())
            .unwrap();

        let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
        for q in &queries {
            monitor.lock().observe(q, 0);
        }
        let mut core = LifecycleCore::new(
            StatsCatalog::new(),
            AutodConfig {
                shrink_every: 1,
                ..AutodConfig::default()
            },
        );
        let report = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert!(!report.budget_exhausted);
        assert!(report.shrink_removed.is_some());
        assert_eq!(core.catalog().snapshot(), offline_catalog.snapshot());
        // The published epoch is the same catalog.
        assert_eq!(core.epoch().catalog.snapshot(), offline_catalog.snapshot());

        let online = core.journal();
        assert_eq!(online.queries, offline.queries);
        let counts = |s: &SessionReport| {
            let t = &s.totals;
            (
                t.optimizer_calls,
                t.statistics_created,
                t.statistics_drop_listed,
                t.overhead_work.to_bits(),
                s.shrink_removed,
                s.shrink_optimizer_calls,
            )
        };
        assert_eq!(counts(online), counts(&offline));
        assert!(offline.shrink_optimizer_calls > 0);
        // The offline tuner meters creation once over the whole pass, the
        // tick once per query: the two sums round differently.
        let (on, off) = (online.totals.creation_work, offline.totals.creation_work);
        assert!(
            off > 0.0 && ((on - off) / off).abs() < 1e-9,
            "{on} vs {off}"
        );
    }

    #[test]
    fn rejected_template_leaves_the_rest_of_the_tick_standing() {
        let db = test_db();
        let aliases: Vec<String> = (0..=optimizer::MAX_DP_RELATIONS)
            .map(|i| format!("departments d{i}"))
            .collect();
        let too_wide = select(&db, &format!("SELECT * FROM {}", aliases.join(", ")));
        let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
        monitor.lock().observe(&select(&db, EXAMPLE2_SQL), 0);
        monitor.lock().observe(&too_wide, 0);
        monitor
            .lock()
            .observe(&select(&db, "SELECT * FROM employees WHERE empid < 100"), 0);
        let mut core = LifecycleCore::new(StatsCatalog::new(), AutodConfig::default());
        let too_many = |error: &Option<TuneError>| {
            matches!(
                error,
                Some(TuneError::Plan(
                    optimizer::PlanError::TooManyRelations { .. }
                ))
            )
        };

        let first = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert!(too_many(&first.tune_error));
        assert_eq!(first.queries_tuned, 1);
        assert_eq!(
            core.journal().queries.len(),
            1,
            "journalled before the error"
        );
        assert_eq!(first.pending, 1);
        assert!(!first.budget_exhausted);
        assert!(core.catalog().total_count() > 0);
        assert_eq!(first.published_generation, Some(1));

        // The rejected template is still in the monitor's sample, so the next
        // tick queues it again, behind the template that was waiting.
        let second = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert_eq!(second.queries_tuned, 1);
        assert!(second.tune_error.is_some());
        assert_eq!(second.pending, 0);
        assert_eq!(core.journal().queries.len(), 2);

        // Nor can the Shrinking Set optimize it: the pass that comes due
        // fails, touching nothing, and the tick still refreshes, publishes
        // and reports its health.
        let shrink_every = AutodConfig::default().shrink_every;
        for _ in 3..shrink_every {
            let between = core.tick(&db, &monitor, f64::INFINITY).unwrap();
            assert_eq!(between.shrink_error, None);
        }
        let mut db = db;
        insert_employees(&mut db, 900);
        let due = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert_eq!(due.tick, shrink_every);
        assert!(too_many(&due.shrink_error));
        assert_eq!(due.shrink_removed, None);
        assert!(due.refreshed > 0);
        assert_eq!(due.published_generation, Some(2));
        assert_eq!(core.health().tick, shrink_every);
    }

    /// `n` more employees: a bulk insert that takes every statistic on the
    /// table past the default staleness threshold.
    fn insert_employees(db: &mut Database, n: i64) {
        let t = db.table_id("employees").unwrap();
        let base = db.table(t).row_count() as i64 + 10_000;
        for i in 0..n {
            db.table_mut(t)
                .insert(vec![
                    Value::Int(base + i),
                    Value::Int(0),
                    Value::Int(21),
                    Value::Int(0),
                ])
                .unwrap();
        }
    }

    /// Rewrite one more `employees.empid` cell than the table's staleness
    /// threshold, each with the value it holds: every statistic on the
    /// table goes stale, and the rows stay as they were.
    fn touch_employees(db: &mut Database) {
        let t = db.table_id("employees").unwrap();
        let rows = db.table(t).row_count();
        for i in 0..=stats::staleness_threshold(rows) as usize {
            let v = db.table(t).value(i % rows, 0);
            db.table_mut(t).update_rows(&[i % rows], 0, &v).unwrap();
        }
    }

    /// A catalog with one active statistic (`employees.salary`) and one
    /// drop-listed (`employees.age`), and a core over it.
    fn core_with_a_drop_listed_statistic(db: &Database) -> (LifecycleCore, StatId, StatId) {
        let t = db.table_id("employees").unwrap();
        let mut catalog = StatsCatalog::new();
        let active = catalog
            .create_statistic(db, stats::StatDescriptor::single(t, 3))
            .unwrap();
        let listed = catalog
            .create_statistic(db, stats::StatDescriptor::single(t, 2))
            .unwrap();
        catalog.move_to_drop_list(listed);
        (
            LifecycleCore::new(catalog, AutodConfig::default()),
            active,
            listed,
        )
    }

    #[test]
    fn tick_drops_a_drop_listed_statistic_refreshed_past_max_updates() {
        let mut db = test_db();
        let t = db.table_id("employees").unwrap();
        let (mut core, active, listed) = core_with_a_drop_listed_statistic(&db);
        let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));

        // Exactly `MAX_UPDATES` refreshes: both statistics stay.
        for round in 1..=MAX_UPDATES {
            touch_employees(&mut db);
            let report = core.tick(&db, &monitor, f64::INFINITY).unwrap();
            assert_eq!((report.refreshed, report.dropped), (2, 0), "round {round}");
            assert_eq!(
                core.catalog().statistic(listed).unwrap().update_count,
                round
            );
        }

        // One more: the drop-listed one goes, the active one does not.
        touch_employees(&mut db);
        let report = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert_eq!((report.refreshed, report.dropped), (2, 1));
        assert!(core.catalog().statistic(listed).is_none());
        assert_eq!(
            core.catalog().statistic(active).unwrap().update_count,
            MAX_UPDATES + 1
        );
        assert_eq!(
            core.journal().online.iter().rev().nth(1),
            Some(&OnlineEvent::AutoDrop {
                tick: u64::from(MAX_UPDATES) + 1,
                stat: listed,
                table: t,
                updates: MAX_UPDATES + 1,
            }),
            "journaled before the epoch swap"
        );
        let epoch = core.epoch();
        assert_eq!(Some(epoch.generation), report.published_generation);
        assert!(epoch.catalog.statistic(listed).is_none());
        assert!(epoch.catalog.statistic(active).is_some());

        // A quiet tick drops nothing and publishes nothing.
        let quiet = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert_eq!((quiet.refreshed, quiet.dropped), (0, 0));
        assert_eq!(quiet.published_generation, None);
    }

    /// What the tick drops enters the aging registry, so online aging has
    /// something to act on: inside the window a template that wants the
    /// dropped statistics does not get them back.
    #[test]
    fn dropped_statistic_is_aged_out_for_the_next_template() {
        let run = |aging: Option<stats::AgingPolicy>| {
            let mut db = test_db();
            let t = db.table_id("employees").unwrap();
            let queries = workload(&db);
            // What MNSA builds for the first template, all drop-listed.
            let mut catalog = StatsCatalog::new();
            MnsaEngine::new(MnsaConfig::default())
                .run_query(&db, &mut catalog, &queries[0])
                .unwrap();
            let built: Vec<stats::StatDescriptor> = catalog
                .built_on_table(t)
                .map(|s| s.descriptor.clone())
                .collect();
            assert!(!built.is_empty());
            for id in catalog.active_ids() {
                catalog.move_to_drop_list(id);
            }
            let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
            let mut core = LifecycleCore::new(
                catalog,
                AutodConfig {
                    mnsa: MnsaConfig {
                        aging,
                        ..MnsaConfig::default()
                    },
                    shrink_every: 0,
                    ..AutodConfig::default()
                },
            );
            let mut dropped = 0;
            for _ in 0..=MAX_UPDATES {
                touch_employees(&mut db);
                dropped += core.tick(&db, &monitor, f64::INFINITY).unwrap().dropped;
            }
            assert_eq!(dropped, built.len());

            // A second template over the same columns.
            monitor.lock().observe(&queries[1], core.ticks());
            let tuned = core.tick(&db, &monitor, f64::INFINITY).unwrap();
            assert_eq!(tuned.queries_tuned, 1);
            (core, built)
        };

        let window = stats::AgingPolicy {
            window_epochs: 3,
            expensive_query_cost: f64::INFINITY,
        };
        let rebuilt = |core: &LifecycleCore, built: &[stats::StatDescriptor]| {
            built
                .iter()
                .filter(|d| core.catalog().find_active(d).is_some())
                .count()
        };
        let (aged, built) = run(Some(window));
        assert_eq!(rebuilt(&aged, &built), 0);
        assert!(built
            .iter()
            .all(|d| aged.catalog().is_aged_out(d, &window, 0.0)));
        let (unaged, built) = run(None);
        assert!(rebuilt(&unaged, &built) > 0);
    }

    #[test]
    fn tiny_budget_defers_work_and_journals_exhaustion() {
        let db = test_db();
        let queries = workload(&db);
        let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
        for q in &queries {
            monitor.lock().observe(q, 0);
        }
        let mut core = LifecycleCore::new(
            StatsCatalog::new(),
            AutodConfig {
                shrink_every: 0,
                ..AutodConfig::default()
            },
        );
        // A tick funded with nothing tunes nothing and builds nothing.
        let unfunded = core.tick(&db, &monitor, 0.0).unwrap();
        assert!(unfunded.budget_exhausted);
        assert_eq!(unfunded.queries_tuned, 0);
        assert_eq!(unfunded.pending, queries.len());
        assert_eq!(core.catalog().total_count(), 0);
        assert_eq!(core.balance(), 0.0);

        let first = core.tick(&db, &monitor, 1.0).unwrap();
        assert!(first.budget_exhausted);
        assert!(first.queries_tuned <= 1);
        assert!(core.balance() < 0.0);
        assert!(core
            .journal()
            .online
            .iter()
            .any(|e| matches!(e, OnlineEvent::BudgetExhausted { .. })));
        // Enough later ticks pay down the debt and finish the queue.
        let mut tuned = first.queries_tuned;
        for _ in 0..100_000 {
            let r = core.tick(&db, &monitor, 1.0).unwrap();
            tuned += r.queries_tuned;
            if !r.budget_exhausted {
                break;
            }
        }
        assert_eq!(tuned, queries.len());
    }

    #[test]
    fn bulk_update_triggers_refresh_and_epoch_swap() {
        let mut db = test_db();
        let t = db.table_id("employees").unwrap();
        let queries = workload(&db);
        let monitor = Mutex::new(WorkloadMonitor::new(MonitorConfig));
        for q in &queries {
            monitor.lock().observe(q, 0);
        }
        let mut core = LifecycleCore::new(
            StatsCatalog::new(),
            AutodConfig {
                shrink_every: 0,
                ..AutodConfig::default()
            },
        );
        let first = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert!(first.queries_tuned > 0);
        let built = core.catalog().built_on_table(t).count();
        assert!(built > 0);
        let gen_after_build = core.epoch().generation;
        assert!(first.published_generation.is_some());

        // Nothing stale yet: the next tick publishes nothing.
        let quiet = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert_eq!(quiet.refreshed, 0);
        assert_eq!(quiet.published_generation, None);

        // A bulk modification beyond max(500, 20% of rows) makes everything
        // on the table stale; the next tick refreshes and republishes.
        insert_employees(&mut db, 900);
        let refreshed = core.tick(&db, &monitor, f64::INFINITY).unwrap();
        assert_eq!(refreshed.refreshed, built);
        assert!(refreshed.refresh_work > 0.0);
        assert_eq!(core.epoch().generation, gen_after_build + 1);
        assert!(core
            .journal()
            .online
            .iter()
            .any(|e| matches!(e, OnlineEvent::Refresh { .. })));
    }
}
