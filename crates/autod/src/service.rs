//! The online service: queries in front, the lifecycle core behind.
//!
//! [`OnlineService::start`] takes a database, the catalog tuned so far and
//! the journal that goes with it. The database and the catalog's published
//! copy become one [`Snapshot`], held in a slot (a `parking_lot::RwLock`
//! around an `Arc<Snapshot>`); the catalog itself becomes the
//! [`LifecycleCore`]'s private master, and the core waits behind a mutex for
//! ticks. The service is passive: it starts no thread, and a tick runs on the
//! thread that calls [`OnlineService::tick_wait`].
//!
//! Query threads hold cloneable [`QueryHandle`]s. A SELECT loads the
//! snapshot once, then binds, optimizes and executes with no lock held,
//! taking the workload monitor's lock only to record itself — only what the
//! optimizer accepted is worth tuning for. DML takes the slot's write lock
//! and writes through `Arc::make_mut`, so modification counters advance
//! atomically with the data; a table is copied only while some reader, tick
//! or fallback still holds the snapshot it was read from. A tick tunes
//! against a snapshot it loaded, then puts the catalog it published beside
//! whatever data is current. No statement holds two locks at once; a tick
//! holds the core mutex, and the monitor only at its start.

use crate::daemon::{AutodConfig, CatalogEpoch, LifecycleCore, TickReport};
use crate::monitor::{TemplateStats, WorkloadMonitor};
use autostats::{SessionReport, StatementError, TuneError};
use executor::{execute_plan_observed, run_statement_observed, StatementOutcome};
use obsv::{HealthSnapshot, LatencyHistogram, SlowQuery, SlowQueryLog, SpanSampler, WindowDelta};
use optimizer::{OptimizeOptions, Optimizer};
use parking_lot::{Mutex, RwLock};
use query::{bind_statement, parse_statement, BoundStatement, Statement};
use stats::StatsCatalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use storage::Database;

/// Seed of the fingerprint sampler.
const SAMPLE_SEED: u64 = 0x0B5E;

/// One published state of a service: its data and the catalog epoch
/// queries plan against. Immutable once loaded; a write or a publication
/// replaces the slot's `Arc` (or mutates it in place when nobody else holds
/// it), never what a loader holds.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub db: Database,
    pub epoch: Arc<CatalogEpoch>,
}

/// Where a service publishes its [`Snapshot`]: loaded under the read lock
/// for an `Arc` clone, written through `Arc::make_mut` under the write lock.
type Slot = RwLock<Arc<Snapshot>>;

/// Shared always-on telemetry for the query path: latency histograms in
/// the service registry, the deterministic span sampler, the slow-query
/// reservoir, and per-tick windowed rollups. Everything here is
/// observation-only — wall-clock flavoured values are outside the
/// bit-identity determinism contract, and nothing reads them back into
/// tuning or execution.
pub(crate) struct ServiceTelemetry {
    pub(crate) sampler: SpanSampler,
    pub(crate) slowlog: SlowQueryLog,
    pub(crate) query_latency: LatencyHistogram,
    pub(crate) dml_latency: LatencyHistogram,
    /// `autod.queries` / `autod.dml`, held so a statement bumps an atomic
    /// and does not go through the registry's mutex and name map.
    queries: obsv::Counter,
    dml: obsv::Counter,
    /// `autod.dml.table_copies`: writes whose target table some held
    /// snapshot still shared, so the write copied it.
    table_copies: obsv::Counter,
    windows: obsv::WindowedRegistry,
}

/// Everything the daemon learned, returned at shutdown.
#[derive(Debug)]
pub struct ServiceReport {
    /// The master catalog at shutdown (authoritative, includes drop-list).
    pub catalog: StatsCatalog,
    /// Journal: what was recorded before [`OnlineService::start`] plus the
    /// online events.
    pub session: SessionReport,
    /// Last published epoch generation.
    pub generation: u64,
    /// Ticks the daemon executed.
    pub ticks: u64,
    /// Monitor contents at shutdown, in first-arrival order.
    pub templates: Vec<TemplateStats>,
    /// Total queries the monitor observed (including duplicates).
    pub observed: u64,
    /// Templates the monitor evicted over its life.
    pub evictions: u64,
    /// The first error that failed a tick's Shrinking Set pass, if one did
    /// ([`TickReport::shrink_error`]).
    pub error: Option<TuneError>,
}

/// A running online statistics service. See the module docs.
pub struct OnlineService {
    slot: Arc<Slot>,
    monitor: Arc<Mutex<WorkloadMonitor>>,
    optimizer: Arc<Optimizer>,
    obs: obsv::Obs,
    /// Held for the whole of a tick, and by nothing else: concurrent
    /// callers of [`OnlineService::tick_wait`] tick one after another.
    core: Mutex<LifecycleCore>,
    first_error: Mutex<Option<TuneError>>,
    /// The last completed tick: virtual "now" for monitor observations on
    /// query threads.
    current_tick: Arc<AtomicU64>,
    telemetry: Arc<ServiceTelemetry>,
    health: Arc<Mutex<HealthSnapshot>>,
    budget_per_tick: f64,
}

impl OnlineService {
    /// Start serving `db`. `catalog` is the master catalog to continue from
    /// (empty, or tuned offline), `session` the journal recorded so far, and
    /// `obs` the context the catalog, MNSA and every handle record into.
    pub fn start(
        db: Database,
        mut catalog: StatsCatalog,
        session: SessionReport,
        obs: obsv::Obs,
        config: AutodConfig,
    ) -> OnlineService {
        catalog.set_obs(&obs);
        let monitor = WorkloadMonitor::new(config.monitor);
        let telemetry_config = config.telemetry;
        let budget_per_tick = config.budget_per_tick;
        let core = LifecycleCore::with_parts(catalog, config, obs.clone(), session);
        let telemetry = Arc::new(ServiceTelemetry {
            sampler: SpanSampler::new(SAMPLE_SEED, telemetry_config.sample_one_in),
            slowlog: SlowQueryLog::new(telemetry_config.slowlog_k),
            query_latency: obs.metrics.latency("autod.query.latency_ns"),
            dml_latency: obs.metrics.latency("autod.dml.latency_ns"),
            queries: obs.metrics.counter("autod.queries"),
            dml: obs.metrics.counter("autod.dml"),
            table_copies: obs.metrics.counter("autod.dml.table_copies"),
            windows: obsv::WindowedRegistry::new(Arc::clone(&obs.metrics)),
        });
        let snapshot = Snapshot {
            db,
            epoch: core.epoch(),
        };
        OnlineService {
            slot: Arc::new(RwLock::new(Arc::new(snapshot))),
            monitor: Arc::new(Mutex::new(monitor)),
            optimizer: Arc::new(core.optimizer().clone()),
            obs,
            first_error: Mutex::new(None),
            current_tick: Arc::new(AtomicU64::new(0)),
            telemetry,
            health: core.health_cell(),
            budget_per_tick,
            core: Mutex::new(core),
        }
    }

    /// A cloneable per-thread query entry point. `tid` tags the handle's
    /// trace events (use a distinct id per thread).
    pub fn handle(&self, tid: u64) -> QueryHandle {
        QueryHandle {
            slot: Arc::clone(&self.slot),
            monitor: Arc::clone(&self.monitor),
            optimizer: Arc::clone(&self.optimizer),
            obs: self.obs.fork(tid),
            current_tick: Arc::clone(&self.current_tick),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// [`OnlineService::tick_wait_budgeted`] funded with the configured
    /// [`AutodConfig::budget_per_tick`].
    pub fn tick_wait(&self) -> Result<TickReport, TuneError> {
        self.tick_wait_budgeted(self.budget_per_tick)
    }

    /// Run one tick funded with `budget` work tokens, on this thread, and
    /// return its report — the deterministic driver's clock. The tick tunes
    /// against the snapshot current when it starts; what it publishes goes
    /// beside the data current when it ends. Also rolls the slow-query
    /// reservoir's window over at this tick; pair with
    /// [`OnlineService::roll_window`] to emit the tick's metric deltas.
    pub fn tick_wait_budgeted(&self, budget: f64) -> Result<TickReport, TuneError> {
        let mut core = self.core.lock();
        let report = core.tick(&self.snapshot().db, &self.monitor, budget)?;
        if report.published_generation.is_some() {
            Arc::make_mut(&mut self.slot.write()).epoch = core.epoch();
        }
        self.current_tick.store(report.tick, Ordering::SeqCst);
        self.telemetry.slowlog.roll(report.tick);
        if let Some(e) = &report.shrink_error {
            self.first_error.lock().get_or_insert_with(|| e.clone());
        }
        Ok(report)
    }

    /// The current published snapshot: data and catalog as of one instant,
    /// immutable for as long as the caller holds it. Holding it blocks no
    /// writer and no tick.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.slot.read())
    }

    /// A fresh lock around a copy of the current snapshot's database, which
    /// shares its tables by `Arc`: writes made after the call do not reach
    /// it. Kept only because `benchmark/` links this signature (ROADMAP
    /// item 6 removes it); read through [`OnlineService::snapshot`].
    pub fn database(&self) -> Arc<RwLock<Database>> {
        Arc::new(RwLock::new(self.snapshot().db.clone()))
    }

    /// Close the current metrics window as `window`, returning its deltas
    /// (QPS, refreshes, budget spend, latency quantiles — everything
    /// registered in the service metrics registry).
    /// Drivers call this once per tick, with the tick as the window id, so
    /// the window schedule is as deterministic as the tick schedule.
    pub fn roll_window(&self, window: u64) -> WindowDelta {
        self.telemetry.windows.roll(window)
    }

    /// The latest end-of-tick health snapshot (default before the first
    /// tick completes).
    pub fn health(&self) -> HealthSnapshot {
        self.health.lock().clone()
    }

    /// Drain the slow-query reservoir: closes the current window at the
    /// latest completed tick and takes every retained entry (the K worst
    /// sampled queries per window, each with its full span tree).
    pub fn drain_slow_queries(&self) -> Vec<SlowQuery> {
        self.telemetry
            .slowlog
            .roll(self.current_tick.load(Ordering::SeqCst));
        self.telemetry.slowlog.drain()
    }

    /// The service metrics registry (shared with the core and handles).
    pub fn metrics(&self) -> Arc<obsv::Registry> {
        Arc::clone(&self.obs.metrics)
    }

    /// The current published epoch.
    pub fn epoch(&self) -> Arc<CatalogEpoch> {
        Arc::clone(&self.slot.read().epoch)
    }

    /// Current epoch generation: the catalog's, which a data write does not
    /// move.
    pub fn generation(&self) -> u64 {
        self.slot.read().epoch.generation
    }

    /// Dismantle the service, recovering the database and a report.
    pub fn shutdown(self) -> (Database, ServiceReport) {
        let snapshot = self.snapshot();
        let core = self.core.into_inner();
        let ticks = core.ticks();
        let (catalog, session) = core.into_parts();
        let (templates, observed, evictions) = {
            let m = self.monitor.lock();
            (m.templates(), m.observed_total(), m.evictions_total())
        };
        (
            snapshot.db.clone(),
            ServiceReport {
                catalog,
                session,
                generation: snapshot.epoch.generation,
                ticks,
                templates,
                observed,
                evictions,
                error: self.first_error.into_inner(),
            },
        )
    }
}

/// A cloneable query entry point over the running service.
#[derive(Clone)]
pub struct QueryHandle {
    slot: Arc<Slot>,
    monitor: Arc<Mutex<WorkloadMonitor>>,
    optimizer: Arc<Optimizer>,
    obs: obsv::Obs,
    current_tick: Arc<AtomicU64>,
    telemetry: Arc<ServiceTelemetry>,
}

impl QueryHandle {
    /// Parse and run one SQL statement. SELECTs go through the concurrent
    /// read path (monitor + epoch catalog), DML through the write path.
    pub fn run_sql(&self, sql: &str) -> Result<StatementOutcome, StatementError> {
        let stmt = parse_statement(sql)?;
        self.run(&stmt)
    }

    /// Run one parsed statement.
    pub fn run(&self, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let Statement::Select(_) = stmt else {
            return self.run_write(stmt);
        };
        let start = Instant::now();
        let snapshot = self.snapshot();
        let db = &snapshot.db;
        let BoundStatement::Select(query) = bind_statement(db, stmt)? else {
            // A SELECT binds to a select; defensive fallback only.
            return self.run_write(stmt);
        };
        let optimized = self.optimizer.optimize(
            db,
            &query,
            snapshot.epoch.catalog.full_view(),
            &OptimizeOptions::default(),
        )?;
        // Observed once it has a plan: a statement the optimizer rejects
        // would fail every MNSA and Shrinking Set run over the monitor's
        // sample.
        let tick = self.current_tick.load(Ordering::SeqCst);
        let fp = self.monitor.lock().observe(&query, tick);
        // Sampled fingerprints execute under a private tracer so the
        // slow-query reservoir can keep their full span tree. Tracing is
        // observation-only, so the output is identical either way (pinned
        // by tests/telemetry_determinism.rs).
        let sampled = self.telemetry.slowlog.is_enabled() && self.telemetry.sampler.sample(fp);
        let private = sampled.then(obsv::Tracer::enabled);
        let output = execute_plan_observed(
            db,
            &query,
            &optimized.plan,
            &self.optimizer.params,
            private.as_ref().unwrap_or(&self.obs.tracer),
        )?;
        let latency_ns = start.elapsed().as_nanos() as u64;
        self.telemetry.query_latency.observe(latency_ns);
        if let Some(tracer) = private {
            self.telemetry
                .slowlog
                .record(fp, latency_ns, tracer.flush());
        }
        self.telemetry.queries.inc();
        Ok(StatementOutcome::Query {
            output,
            estimated_cost: optimized.cost,
        })
    }

    /// DML: bind and run under the slot's write lock, on the slot's own
    /// snapshot (`Arc::make_mut` copies the snapshot only if someone holds
    /// it, and the target table only if that holder shares it).
    fn run_write(&self, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let start = Instant::now();
        let out = {
            let mut slot = self.slot.write();
            let snapshot = Arc::make_mut(&mut slot);
            let bound = bind_statement(&snapshot.db, stmt)?;
            if bound.target().is_some_and(|t| snapshot.db.is_shared(t)) {
                self.telemetry.table_copies.inc();
            }
            run_statement_observed(
                &mut snapshot.db,
                snapshot.epoch.catalog.full_view(),
                &self.optimizer,
                &bound,
                &self.obs.tracer,
            )?
        };
        self.telemetry
            .dml_latency
            .observe(start.elapsed().as_nanos() as u64);
        self.telemetry.dml.inc();
        Ok(out)
    }

    /// EXPLAIN: the plan the optimizer picks for `sql` against the current
    /// epoch, without executing it or showing it to the monitor.
    pub fn explain_sql(&self, sql: &str) -> Result<String, StatementError> {
        let snapshot = self.snapshot();
        let db = &snapshot.db;
        let BoundStatement::Select(query) = bind_statement(db, &parse_statement(sql)?)? else {
            return Ok("DML statement (no plan)\n".to_string());
        };
        let optimized = self.optimizer.optimize(
            db,
            &query,
            snapshot.epoch.catalog.full_view(),
            &OptimizeOptions::default(),
        )?;
        Ok(format!(
            "{}magic variables: {:?}\n",
            optimized.plan, optimized.magic_variables
        ))
    }

    /// The service's current published snapshot
    /// ([`OnlineService::snapshot`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.slot.read())
    }

    /// The epoch generation this handle currently sees.
    pub fn generation(&self) -> u64 {
        self.slot.read().epoch.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tests::test_db;

    fn start(config: AutodConfig) -> OnlineService {
        OnlineService::start(
            test_db(),
            StatsCatalog::new(),
            SessionReport::default(),
            obsv::Obs::disabled(),
            config,
        )
    }

    fn service(budget: f64) -> OnlineService {
        start(AutodConfig {
            budget_per_tick: budget,
            shrink_every: 2,
            ..AutodConfig::default()
        })
    }

    #[test]
    fn queries_flow_and_ticks_tune_them() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        let sql = "SELECT e.empid, d.dname FROM employees e, departments d \
                   WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200";
        let out = h.run_sql(sql).unwrap();
        assert!(matches!(out, StatementOutcome::Query { .. }));
        assert_eq!(svc.generation(), 0);

        let report = svc.tick_wait().unwrap();
        assert_eq!(report.tick, 1);
        assert!(report.queries_tuned >= 1);
        assert!(svc.generation() >= 1, "tuning published a new epoch");

        // The same query re-observed does not re-tune (fingerprint dedup).
        h.run_sql(sql).unwrap();
        let again = svc.tick_wait().unwrap();
        assert_eq!(again.queries_tuned, 0);

        let (db, report) = svc.shutdown();
        assert!(db.table_id("employees").is_some());
        assert!(report.catalog.total_count() > 0);
        assert_eq!(report.observed, 2);
        assert_eq!(report.templates.len(), 1);
        assert_eq!(report.templates[0].frequency, 2);
        assert!(report.error.is_none());
        assert!(report
            .session
            .online
            .iter()
            .any(|e| matches!(e, autostats::OnlineEvent::EpochSwap { .. })));
    }

    /// A statement the optimizer rejects fails at its client and nowhere
    /// else: it never reaches the monitor, so no tick's MNSA increment or
    /// Shrinking Set pass (default `shrink_every`) trips over it.
    #[test]
    fn statement_over_the_dp_cap_never_reaches_the_monitor() {
        let svc = start(AutodConfig {
            budget_per_tick: f64::INFINITY,
            ..AutodConfig::default()
        });
        let h = svc.handle(1);
        let aliases: Vec<String> = (0..=optimizer::MAX_DP_RELATIONS)
            .map(|i| format!("departments d{i}"))
            .collect();
        let too_wide = format!("SELECT * FROM {}", aliases.join(", "));
        let shrink_every = AutodConfig::default().shrink_every;
        for tick in 1..=2 * shrink_every + 1 {
            h.run_sql("SELECT * FROM employees WHERE salary > 200")
                .unwrap();
            let refused = h.run_sql(&too_wide);
            assert!(
                matches!(
                    refused,
                    Err(StatementError::Exec(executor::ExecError::Plan(
                        optimizer::PlanError::TooManyRelations { .. }
                    )))
                ),
                "{refused:?}"
            );
            let report = svc.tick_wait().unwrap();
            assert_eq!(report.tune_error, None, "tick {tick}");
            assert_eq!(report.shrink_error, None, "tick {tick}");
            assert_eq!(
                report.shrink_removed.is_some(),
                tick % shrink_every == 0,
                "tick {tick}: the Shrinking Set pass runs when due"
            );
        }
        assert_eq!(svc.health().tick, 2 * shrink_every + 1);
        let (_, report) = svc.shutdown();
        assert_eq!(report.templates.len(), 1);
        assert!(report.error.is_none());
    }

    #[test]
    fn explain_renders_the_current_epochs_plan() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        let text = h
            .explain_sql(
                "SELECT deptid, COUNT(*) FROM employees WHERE salary > 100 GROUP BY deptid",
            )
            .unwrap();
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("SeqScan"));
        assert!(text.contains("magic variables"));
        assert_eq!(
            h.explain_sql("DELETE FROM employees WHERE empid = 0")
                .unwrap(),
            "DML statement (no plan)\n"
        );
        svc.tick_wait().unwrap();
        let (_, report) = svc.shutdown();
        assert_eq!(report.observed, 0, "EXPLAIN shows the monitor nothing");
    }

    /// Service with every query sampled into the slow-query reservoir.
    fn traced_service() -> OnlineService {
        start(AutodConfig {
            budget_per_tick: f64::INFINITY,
            telemetry: crate::daemon::TelemetryConfig {
                sample_one_in: 1,
                ..crate::daemon::TelemetryConfig::default()
            },
            ..AutodConfig::default()
        })
    }

    #[test]
    fn health_snapshot_tracks_the_tick() {
        // Finite budget: the JSON round-trip below is exact only for finite
        // floats (non-finite renders as null and reads back as 0).
        let svc = service(1_000_000.0);
        let h = svc.handle(1);
        assert_eq!(svc.health(), obsv::HealthSnapshot::default());
        h.run_sql("SELECT * FROM employees WHERE salary > 200")
            .unwrap();
        h.run_sql("DELETE FROM employees WHERE empid = 0").unwrap();
        svc.tick_wait().unwrap();
        let health = svc.health();
        assert_eq!(health.tick, 1);
        assert_eq!(health.queries, 1);
        assert_eq!(health.dml, 1);
        assert_eq!(health.monitor_templates, 1);
        assert_eq!(health.latency_count, 1);
        assert!(health.latency_p99_ns > 0, "wall-clock latency observed");
        assert_eq!(health.epoch_generation, svc.generation());
        let line = health.to_json_line();
        assert_eq!(obsv::HealthSnapshot::from_json_line(&line), Ok(health));
    }

    #[test]
    fn window_rollups_isolate_per_tick_activity() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        for _ in 0..3 {
            h.run_sql("SELECT * FROM employees WHERE age < 30").unwrap();
        }
        svc.tick_wait().unwrap();
        let w1 = svc.roll_window(1);
        assert_eq!(w1.count("autod.queries"), 3);
        let lat = w1.latency("autod.query.latency_ns").unwrap();
        assert_eq!(lat.count, 3);
        assert!(lat.quantile(0.99) >= lat.quantile(0.5));

        // Nothing ran since: the next window reports zero activity.
        svc.tick_wait().unwrap();
        let w2 = svc.roll_window(2);
        assert_eq!(w2.count("autod.queries"), 0);
        assert_eq!(w2.latency("autod.query.latency_ns").unwrap().count, 0);
    }

    #[test]
    fn slow_query_reservoir_retains_full_span_trees() {
        let svc = traced_service();
        let h = svc.handle(1);
        h.run_sql("SELECT * FROM employees WHERE salary > 200")
            .unwrap();
        h.run_sql(
            "SELECT e.empid FROM employees e, departments d \
             WHERE e.deptid = d.deptid",
        )
        .unwrap();
        svc.tick_wait().unwrap();
        let slow = svc.drain_slow_queries();
        assert_eq!(slow.len(), 2, "every query sampled at one_in=1");
        assert!(slow.iter().all(|q| !q.events.is_empty()));
        assert!(slow.iter().all(|q| q.window == 1));
        let jsonl = obsv::slowlog::to_jsonl(&slow);
        obsv::check::check_jsonl(&jsonl).expect("slowlog export is a valid trace");
        // Drained means drained.
        assert!(svc.drain_slow_queries().is_empty());
    }

    const EXAMPLE2_SQL: &str = "SELECT e.empid, d.dname FROM employees e, departments d \
                                WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200";

    fn employees(snapshot: &Snapshot) -> usize {
        let db = &snapshot.db;
        db.table(db.table_id("employees").unwrap()).row_count()
    }

    /// A held snapshot blocks neither a write nor a tick, on the thread that
    /// holds it, and keeps showing what it showed: the rows and the
    /// generation of the instant it was loaded.
    #[test]
    fn a_held_snapshot_blocks_no_write_and_no_tick() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        h.run_sql(EXAMPLE2_SQL).unwrap();
        let held = svc.snapshot();
        h.run_sql("DELETE FROM employees WHERE empid < 100")
            .unwrap();
        let report = svc.tick_wait().unwrap();
        assert_eq!(report.published_generation, Some(1));

        assert_eq!(employees(&held), 3000);
        assert_eq!(held.epoch.generation, 0);
        assert_eq!(held.epoch.catalog.total_count(), 0);
        let fresh = svc.snapshot();
        assert_eq!(employees(&fresh), 2900);
        assert_eq!(fresh.epoch.generation, 1);
        assert!(fresh.epoch.catalog.total_count() > 0);
        assert_eq!(h.generation(), 1);
    }

    /// `autod.dml.table_copies` counts the writes that found their table
    /// shared with a held snapshot, and only those.
    #[test]
    fn a_write_copies_its_table_only_while_a_snapshot_holds_it() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        let copies = svc.metrics().counter("autod.dml.table_copies");
        h.run_sql("DELETE FROM employees WHERE empid < 10").unwrap();
        assert_eq!(copies.get(), 0, "no snapshot held");
        let held = svc.snapshot();
        h.run_sql("DELETE FROM employees WHERE empid < 20").unwrap();
        assert_eq!(copies.get(), 1, "the held snapshot shared the table");
        assert_eq!(employees(&held), 2990);
        drop(held);
        h.run_sql("DELETE FROM employees WHERE empid < 30").unwrap();
        assert_eq!(copies.get(), 1);
    }

    #[test]
    fn dml_advances_counters_through_the_service() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        // A mistyped SET value is refused when it binds, under the slot's
        // write lock, and the handle goes on serving.
        for sql in [
            "UPDATE employees SET empid = 'x' WHERE empid < 3",
            "UPDATE employees SET age = 1.5",
        ] {
            let refused = h.run_sql(sql);
            assert!(
                matches!(
                    refused,
                    Err(StatementError::Bind(query::BindError::TypeMismatch { .. }))
                ),
                "{sql}: {refused:?}"
            );
        }
        let out = h
            .run_sql("DELETE FROM employees WHERE empid < 100")
            .unwrap();
        assert!(matches!(out, StatementOutcome::Dml { .. }));
        let (db, _) = svc.shutdown();
        let employees = db.table_id("employees").unwrap();
        assert!(db.table(employees).modification_counter() > 0);
    }
}
