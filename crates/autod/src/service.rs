//! The online service: queries in front, the lifecycle core behind.
//!
//! [`OnlineService::start`] takes a database, the catalog tuned so far and
//! the journal that goes with it. The database and the catalog's published
//! copy become one [`Snapshot`], held in a slot (a `parking_lot::RwLock`
//! around an `Arc<Snapshot>`); the catalog itself becomes the private master
//! of the lifecycle core ([`crate::daemon`]), which exists only behind the
//! service's tick mutex. The service is passive: it starts no thread, and a
//! tick runs on the thread that calls [`OnlineService::tick_wait`].
//!
//! Query threads hold cloneable [`QueryHandle`]s. A SELECT loads the
//! snapshot once, then binds, optimizes and executes with no lock held,
//! and records itself by one push onto the service's observation inbox —
//! only what the optimizer accepted is worth tuning for. DML takes the
//! slot's write lock and writes through `Arc::make_mut`, so modification
//! counters advance atomically with the data; a table is copied only while
//! some reader, tick or fallback still holds the snapshot it was read from.
//! A tick tunes against a snapshot it loaded, then puts the catalog it
//! published beside whatever data is current. A statement holds one lock
//! at a time, but for the push that fills the inbox, which folds it; a tick
//! holds the core mutex, and the monitor only at its start.
//!
//! ## Workload monitor
//!
//! The service's [`WorkloadMonitor`] is fed through an inbox: a SELECT
//! pushes `(fingerprint, query, tick)` onto a `Vec` under a lock held for
//! the push alone, and the monitor's bookkeeping (re-keying, eviction, the
//! ghost list) runs when the inbox is folded into it, one `observe_as` per
//! entry in push order. Three callers fold: every reader of the monitor
//! (the tick, before the core reads it, and shutdown), and
//! the handle whose push fills the inbox to [`MONITOR_CAPACITY`] entries,
//! so the inbox holds at most that many when nobody ticks. A fold takes
//! the batch out with `mem::take` while it holds the monitor's lock, so
//! batches fold in the order they were taken and the inbox's lock is never
//! held during a fold. Push order is the order the monitor's lock would
//! have put the same observations in, so whoever reads the monitor sees
//! the templates, frequencies, evictions and ghosts it would have seen had
//! every SELECT updated it itself.
//!
//! ## Plan memo
//!
//! Binding, optimizing and fingerprinting a SELECT are pure functions of
//! its text, the snapshot's catalog epoch and the snapshot's table
//! metadata, so each [`Snapshot`] remembers what they gave for each SELECT
//! text it served: the bound query, the plan, its estimated cost and the
//! template fingerprint, behind one `Arc`. A repeated SELECT then only
//! records itself in the inbox and executes.
//!
//! - The key is the byte-exact SQL text. Never the parsed statement:
//!   `storage::Value`'s equality is `total_cmp`, under which `2 = 2.0`, so
//!   two statements equal as syntax trees can bind to different queries.
//! - The memo lives and dies with its snapshot. A copy of a snapshot (the
//!   copy-on-write a writer or a tick makes while someone holds it) starts
//!   empty, and the slot's two in-place writers, DML and the tick's epoch
//!   publish, empty it: both go through one function, `write_slot`. So no
//!   plan outlives the data or the catalog it was made against, and a
//!   reader holding an old snapshot keeps that snapshot's plans.
//! - It holds at most [`PLAN_MEMO_CAPACITY`] texts; when full it stops
//!   taking new ones until the next write or publish empties it.

use crate::daemon::{AutodConfig, CatalogEpoch, LifecycleCore, TickReport};
use crate::monitor::{MonitorConfig, TemplateStats, WorkloadMonitor, MONITOR_CAPACITY};
use autostats::{SessionReport, StatementError, TuneError};
use executor::{execute_plan_observed, run_statement_observed, StatementOutcome};
use obsv::{HealthSnapshot, LatencyHistogram, SlowQuery, SlowQueryLog, SpanSampler, WindowDelta};
use optimizer::{OptimizeOptions, OptimizedQuery, Optimizer, PlanNode};
use parking_lot::{Mutex, MutexGuard, RwLock};
use query::{bind_select, bind_statement, parse_statement, BoundSelect, SelectStmt, Statement};
use rustc_hash::FxHashMap;
use stats::StatsCatalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use storage::Database;

/// Seed of the fingerprint sampler.
const SAMPLE_SEED: u64 = 0x0B5E;

/// The most SELECT texts one snapshot's plan memo holds.
pub const PLAN_MEMO_CAPACITY: usize = 1024;

/// One published state of a service: its data, the catalog epoch queries
/// plan against, and the plans made against both (the module docs' plan
/// memo). Immutable once loaded, but for the memo filling in; a write or a
/// publication replaces the slot's `Arc` (or mutates it in place when
/// nobody else holds it), never what a loader holds.
#[derive(Debug)]
pub struct Snapshot {
    pub db: Database,
    pub epoch: Arc<CatalogEpoch>,
    plans: PlanMemo,
}

impl Clone for Snapshot {
    /// The same data and epoch with an empty plan memo: a snapshot is copied
    /// to be written, and the source's plans were made against the source.
    fn clone(&self) -> Snapshot {
        Snapshot {
            db: self.db.clone(),
            epoch: Arc::clone(&self.epoch),
            plans: PlanMemo::default(),
        }
    }
}

impl Snapshot {
    /// What this snapshot's plan memo holds for the SELECT text `sql`: set
    /// once a handle served `sql` against this snapshot.
    pub fn prepared(&self, sql: &str) -> Option<Arc<Prepared>> {
        self.plans.read().get(sql).cloned()
    }
}

/// What a SELECT's text prepared against one snapshot.
#[derive(Debug)]
pub struct Prepared {
    /// Shared with the monitor's template for it.
    pub query: Arc<BoundSelect>,
    pub plan: PlanNode,
    /// The plan's estimated cost.
    pub cost: f64,
    /// `query.fingerprint()`, the monitor's template key.
    pub fingerprint: u64,
}

/// A snapshot's SELECT text → what it prepared.
type PlanMemo = RwLock<FxHashMap<Box<str>, Arc<Prepared>>>;

/// Where a service publishes its [`Snapshot`]: loaded under the read lock
/// for an `Arc` clone, written through [`write_slot`] under the write lock.
type Slot = RwLock<Arc<Snapshot>>;

/// The slot's snapshot, opened for writing: `Arc::make_mut` copies it if
/// anyone else holds it, and a copy starts with an empty plan memo; if not,
/// its memo is emptied here. The only way the service writes a snapshot,
/// so no plan survives a change to the data or the catalog under it.
fn write_slot(slot: &mut Arc<Snapshot>) -> &mut Snapshot {
    let snapshot = Arc::make_mut(slot);
    snapshot.plans.get_mut().clear();
    snapshot
}

/// Bind `select` against `db` and optimize it against every statistic of
/// `catalog`, with nothing injected: how a served SELECT is planned, on a
/// handle's plan-memo miss, in EXPLAIN, and against an empty catalog on a
/// cluster's cross-shard fallback.
pub fn plan_select(
    db: &Database,
    catalog: &StatsCatalog,
    select: &SelectStmt,
) -> Result<(BoundSelect, OptimizedQuery), StatementError> {
    let query = bind_select(db, select)?;
    let optimized = Optimizer::default().optimize(
        db,
        &query,
        catalog.full_view(),
        &OptimizeOptions::default(),
    )?;
    Ok((query, optimized))
}

/// One served SELECT waiting in the inbox: its template fingerprint, its
/// bound query and the tick it ran at.
type Observation = (u64, Arc<BoundSelect>, u64);

/// A service's workload monitor behind its observation inbox (the module
/// docs' workload monitor).
#[derive(Debug)]
struct Observer {
    monitor: Mutex<WorkloadMonitor>,
    inbox: Mutex<Vec<Observation>>,
}

impl Observer {
    /// Push one observation. The push that fills the inbox to
    /// [`MONITOR_CAPACITY`] folds it; a push that finds it full (its filler
    /// has not folded yet) folds first, so it never holds more.
    fn record(&self, observation: Observation) {
        let mut inbox = self.inbox.lock();
        while inbox.len() >= MONITOR_CAPACITY {
            drop(inbox);
            drop(self.fold());
            inbox = self.inbox.lock();
        }
        inbox.push(observation);
        let full = inbox.len() == MONITOR_CAPACITY;
        drop(inbox);
        if full {
            drop(self.fold());
        }
    }

    /// The monitor, locked, with every observation pushed so far folded in,
    /// in push order.
    fn fold(&self) -> MutexGuard<'_, WorkloadMonitor> {
        let mut monitor = self.monitor.lock();
        let batch = std::mem::take(&mut *self.inbox.lock());
        for (fingerprint, query, tick) in &batch {
            monitor.observe_as(*fingerprint, query, *tick);
        }
        monitor
    }
}

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
    /// snapshot still shared, so the write copied the table's column
    /// handles.
    table_copies: obsv::Counter,
    /// `autod.dml.column_copies`: the columns writes copied because a held
    /// snapshot still shared them — an UPDATE's SET column, every column
    /// of a DELETE or an INSERT — which is where a copy's bytes are.
    column_copies: obsv::Counter,
    /// `autod.plan_memo.hits` / `autod.plan_memo.misses`: SELECTs whose
    /// text the loaded snapshot had prepared, and SELECTs it had not.
    memo_hits: obsv::Counter,
    memo_misses: obsv::Counter,
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
    observer: Arc<Observer>,
    obs: obsv::Obs,
    /// Held for the whole of a tick, and by nothing else: concurrent
    /// callers of [`OnlineService::tick_wait`] tick one after another.
    core: Mutex<LifecycleCore>,
    /// The last tick's health snapshot, written once the tick is done: a
    /// reader never waits on a tick in progress.
    health: Mutex<HealthSnapshot>,
    first_error: Mutex<Option<TuneError>>,
    /// The last completed tick: virtual "now" for monitor observations on
    /// query threads.
    current_tick: Arc<AtomicU64>,
    telemetry: Arc<ServiceTelemetry>,
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
            column_copies: obs.metrics.counter("autod.dml.column_copies"),
            memo_hits: obs.metrics.counter("autod.plan_memo.hits"),
            memo_misses: obs.metrics.counter("autod.plan_memo.misses"),
            windows: obsv::WindowedRegistry::new(Arc::clone(&obs.metrics)),
        });
        let snapshot = Snapshot {
            db,
            epoch: core.epoch(),
            plans: PlanMemo::default(),
        };
        OnlineService {
            slot: Arc::new(RwLock::new(Arc::new(snapshot))),
            observer: Arc::new(Observer {
                monitor: Mutex::new(WorkloadMonitor::new(MonitorConfig)),
                inbox: Mutex::default(),
            }),
            obs,
            first_error: Mutex::new(None),
            current_tick: Arc::new(AtomicU64::new(0)),
            telemetry,
            budget_per_tick,
            core: Mutex::new(core),
            health: Mutex::default(),
        }
    }

    /// A cloneable per-thread query entry point. `tid` tags the handle's
    /// trace events (use a distinct id per thread).
    pub fn handle(&self, tid: u64) -> QueryHandle {
        QueryHandle {
            slot: Arc::clone(&self.slot),
            observer: Arc::clone(&self.observer),
            obs: self.obs.fork(tid),
            current_tick: Arc::clone(&self.current_tick),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// [`OnlineService::tick_wait_budgeted`] funded with the configured
    /// [`AutodConfig::budget_per_tick`].
    pub fn tick_wait(&self) -> TickReport {
        self.tick_wait_budgeted(self.budget_per_tick)
    }

    /// Run one tick funded with `budget` work tokens, on this thread, and
    /// return its report — the deterministic driver's clock. The tick folds
    /// the observation inbox, then tunes against the snapshot current when
    /// it starts; what it publishes goes beside the data current when it
    /// ends. Also rolls the slow-query reservoir's window over at this
    /// tick; pair with [`OnlineService::roll_window`] to emit the tick's
    /// metric deltas. A tick cannot fail: what failed in it is in the
    /// report's `tune_error` and `shrink_error`.
    pub fn tick_wait_budgeted(&self, budget: f64) -> TickReport {
        let mut core = self.core.lock();
        drop(self.observer.fold());
        let (report, health) = core.tick(&self.snapshot().db, &self.observer.monitor, budget);
        *self.health.lock() = health;
        if report.published_generation.is_some() {
            write_slot(&mut self.slot.write()).epoch = core.epoch();
        }
        self.current_tick.store(report.tick, Ordering::SeqCst);
        self.telemetry.slowlog.roll(report.tick);
        if let Some(e) = &report.shrink_error {
            self.first_error.lock().get_or_insert_with(|| e.clone());
        }
        report
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
            let m = self.observer.fold();
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
    observer: Arc<Observer>,
    obs: obsv::Obs,
    current_tick: Arc<AtomicU64>,
    telemetry: Arc<ServiceTelemetry>,
}

impl QueryHandle {
    /// Parse and run one SQL statement. SELECTs go through the concurrent
    /// read path (plan memo, observation inbox, epoch catalog), DML through
    /// the write path.
    pub fn run_sql(&self, sql: &str) -> Result<StatementOutcome, StatementError> {
        let stmt = parse_statement(sql)?;
        self.run(sql, &stmt)
    }

    /// Run `stmt`, which is `sql` parsed. A SELECT looks its text up in the
    /// loaded snapshot's plan memo, and binds, optimizes and fingerprints
    /// only when the text is not there; either way it is pushed onto the
    /// observation inbox and executed.
    pub fn run(&self, sql: &str, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let Statement::Select(select) = stmt else {
            return self.run_write(stmt);
        };
        self.run_select(&self.snapshot(), sql, select)
    }

    /// Run `select`, which is `sql` parsed, against `snapshot`, one that
    /// this handle's service published and the caller loaded: as
    /// [`QueryHandle::run`] runs a SELECT on the snapshot it loads itself.
    /// A sharded cluster's scatter loads every shard's snapshot at one
    /// instant and then runs each shard's part here.
    pub fn run_select(
        &self,
        snapshot: &Snapshot,
        sql: &str,
        select: &SelectStmt,
    ) -> Result<StatementOutcome, StatementError> {
        let start = Instant::now();
        let db = &snapshot.db;
        let prepared = match snapshot.prepared(sql) {
            Some(prepared) => {
                self.telemetry.memo_hits.inc();
                prepared
            }
            None => {
                self.telemetry.memo_misses.inc();
                let (query, optimized) = plan_select(db, &snapshot.epoch.catalog, select)?;
                let prepared = Arc::new(Prepared {
                    fingerprint: query.fingerprint(),
                    query: Arc::new(query),
                    plan: optimized.plan,
                    cost: optimized.cost,
                });
                let mut plans = snapshot.plans.write();
                // Full: serve unmemoized until a write or publish empties it.
                if plans.len() < PLAN_MEMO_CAPACITY {
                    plans.insert(sql.into(), Arc::clone(&prepared));
                }
                prepared
            }
        };
        // Observed once it has a plan: a statement the optimizer rejects
        // would fail every MNSA and Shrinking Set run over the monitor's
        // sample.
        let tick = self.current_tick.load(Ordering::SeqCst);
        let fp = prepared.fingerprint;
        self.observer
            .record((fp, Arc::clone(&prepared.query), tick));
        // Sampled fingerprints execute under a private tracer so the
        // slow-query reservoir can keep their full span tree. Tracing is
        // observation-only, so the output is identical either way (pinned
        // by tests/telemetry_determinism.rs).
        let sampled = self.telemetry.slowlog.is_enabled() && self.telemetry.sampler.sample(fp);
        let private = sampled.then(obsv::Tracer::enabled);
        let output = execute_plan_observed(
            db,
            &prepared.query,
            &prepared.plan,
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
            estimated_cost: prepared.cost,
        })
    }

    /// DML: bind against the slot's snapshot, then run under the slot's
    /// write lock on the slot's own snapshot ([`write_slot`] copies the
    /// snapshot only if someone holds it, and the target table only if that
    /// holder shares it). A statement that fails to bind leaves the
    /// snapshot, and its plan memo, as they were.
    fn run_write(&self, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let start = Instant::now();
        let out = {
            let mut slot = self.slot.write();
            let bound = bind_statement(&slot.db, stmt)?;
            let snapshot = write_slot(&mut slot);
            let columns = |db: &storage::Database| {
                let table = db.try_table(bound.target()?).ok()?;
                Some(table.column_addresses())
            };
            let before = columns(&snapshot.db);
            if bound.target().is_some_and(|t| snapshot.db.is_shared(t)) {
                self.telemetry.table_copies.inc();
            }
            let out = run_statement_observed(
                &mut snapshot.db,
                snapshot.epoch.catalog.full_view(),
                &Optimizer::default(),
                &bound,
                &self.obs.tracer,
            )?;
            if let (Some(before), Some(after)) = (before, columns(&snapshot.db)) {
                let copied = before.iter().zip(&after).filter(|(b, a)| b != a).count();
                self.telemetry.column_copies.add(copied as u64);
            }
            out
        };
        self.telemetry
            .dml_latency
            .observe(start.elapsed().as_nanos() as u64);
        self.telemetry.dml.inc();
        Ok(out)
    }

    /// EXPLAIN: the plan [`plan_select`] gives `sql` against the current
    /// snapshot, without executing it or showing it to the monitor. DML is
    /// not bound and shows no plan.
    pub fn explain_sql(&self, sql: &str) -> Result<String, StatementError> {
        let Statement::Select(select) = parse_statement(sql)? else {
            return Ok("DML statement (no plan)\n".to_string());
        };
        let snapshot = self.snapshot();
        let (_, optimized) = plan_select(&snapshot.db, &snapshot.epoch.catalog, &select)?;
        Ok(format!(
            "{}magic variables: {:?}\n",
            optimized.plan,
            optimized.profile.magic_variables()
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
    use proptest::prelude::*;

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

    /// An INSERT the table would reject — a NULL into a non-nullable
    /// column, a string into an integer one — is refused when it binds, as
    /// a mistyped UPDATE is, and leaves the table as it was.
    #[test]
    fn a_rejected_insert_errs_and_changes_nothing() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        let rows = |svc: &OnlineService| {
            let snapshot = svc.snapshot();
            let t = snapshot.db.table_id("departments").unwrap();
            let table = snapshot.db.table(t);
            (table.row_count(), table.modification_counter())
        };
        let before = rows(&svc);
        for (sql, null) in [
            ("INSERT INTO departments VALUES (NULL, 'x')", true),
            ("INSERT INTO departments VALUES ('x', 'y')", false),
        ] {
            let out = h.run_sql(sql);
            let Err(StatementError::Bind(e)) = &out else {
                panic!("{sql}: {out:?}");
            };
            assert_eq!(
                matches!(e, query::BindError::NullViolation { .. }),
                null,
                "{sql}: {e}"
            );
            assert_eq!(
                matches!(e, query::BindError::TypeMismatch { .. }),
                !null,
                "{sql}: {e}"
            );
            assert_eq!(rows(&svc), before, "{sql}");
        }
        let out = h.run_sql("INSERT INTO departments VALUES (99, 'x')");
        assert!(matches!(
            out,
            Ok(StatementOutcome::Dml {
                rows_affected: 1,
                ..
            })
        ));
        assert_eq!(rows(&svc).0, before.0 + 1);
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

        let report = svc.tick_wait();
        assert_eq!(report.tick, 1);
        assert!(report.queries_tuned >= 1);
        assert!(svc.generation() >= 1, "tuning published a new epoch");

        // The same query re-observed does not re-tune (fingerprint dedup).
        h.run_sql(sql).unwrap();
        let again = svc.tick_wait();
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
            let report = svc.tick_wait();
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

    /// The one error path a tick keeps: a template wider than the DP cap
    /// that reaches the monitor anyway (pushed onto the inbox here; a handle
    /// refuses it) fails the Shrinking Set pass that comes due. The tick
    /// reports the error, the pass removes nothing, and shutdown reports the
    /// same error.
    #[test]
    fn a_failed_shrinking_set_pass_is_reported_and_removes_nothing() {
        let svc = start(AutodConfig {
            budget_per_tick: f64::INFINITY,
            shrink_every: 1,
            ..AutodConfig::default()
        });
        svc.handle(1).run_sql(EXAMPLE2_SQL).unwrap();
        let first = svc.tick_wait();
        assert_eq!(first.shrink_error, None);
        assert!(first.shrink_removed.is_some());
        let before = svc.epoch().catalog.snapshot();
        assert!(svc.epoch().catalog.total_count() > 0);

        let aliases: Vec<String> = (0..=optimizer::MAX_DP_RELATIONS)
            .map(|i| format!("departments d{i}"))
            .collect();
        let sql = format!("SELECT * FROM {}", aliases.join(", "));
        let Statement::Select(select) = parse_statement(&sql).unwrap() else {
            unreachable!("a SELECT")
        };
        let too_wide = bind_select(&svc.snapshot().db, &select).unwrap();
        svc.observer
            .record((too_wide.fingerprint(), Arc::new(too_wide), first.tick));
        let due = svc.tick_wait();
        let too_many = |error: &Option<TuneError>| {
            matches!(
                error,
                Some(TuneError::Plan(
                    optimizer::PlanError::TooManyRelations { .. }
                ))
            )
        };
        assert!(too_many(&due.shrink_error), "{:?}", due.shrink_error);
        assert!(too_many(&due.tune_error), "MNSA rejects it too");
        assert_eq!(due.shrink_removed, None);
        assert_eq!(due.published_generation, None);
        let (_, report) = svc.shutdown();
        assert_eq!(
            report.catalog.snapshot(),
            before,
            "the pass removed nothing"
        );
        assert_eq!(Some(report.session.shrink_removed), first.shrink_removed);
        assert_eq!(report.error, due.shrink_error);
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
        svc.tick_wait();
        let (_, report) = svc.shutdown();
        assert_eq!(report.observed, 0, "EXPLAIN shows the monitor nothing");
    }

    /// EXPLAIN plans as a memo miss does: against a tuned epoch, it shows
    /// the plan the handle memoized for the same text, and records nothing.
    #[test]
    fn explain_shows_the_plan_the_handle_memoizes() {
        let svc = service(f64::INFINITY);
        let h = svc.handle(1);
        h.run_sql(EXAMPLE2_SQL).unwrap();
        svc.tick_wait();
        assert!(svc.epoch().catalog.total_count() > 0, "the epoch is tuned");
        h.run_sql(EXAMPLE2_SQL).unwrap();
        let prepared = h.snapshot().prepared(EXAMPLE2_SQL).expect("memoized");
        let text = h.explain_sql(EXAMPLE2_SQL).unwrap();
        assert!(
            text.starts_with(&prepared.plan.to_string()),
            "{text}\nvs\n{}",
            prepared.plan
        );
        assert_eq!(svc.observer.fold().observed_total(), 2);
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
        svc.tick_wait();
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
        svc.tick_wait();
        let w1 = svc.roll_window(1);
        assert_eq!(w1.count("autod.queries"), 3);
        let lat = w1.latency("autod.query.latency_ns").unwrap();
        assert_eq!(lat.count, 3);
        assert!(lat.quantile(0.99) >= lat.quantile(0.5));

        // Nothing ran since: the next window reports zero activity.
        svc.tick_wait();
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
        svc.tick_wait();
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
        let report = svc.tick_wait();
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

    /// The SELECT text of template `t`: a few hot templates, 0–63, and
    /// thousands of cold ones, so a run overflows the monitor, evicts, and
    /// brings evicted hot templates back from the ghost list.
    fn template_sql(t: u32) -> String {
        match t % 3 {
            0 => format!("SELECT empid FROM employees WHERE age < {t}"),
            1 => format!("SELECT age FROM employees WHERE salary > {t}"),
            _ => format!(
                "SELECT e.empid, d.dname FROM employees e, departments d \
                 WHERE e.deptid = d.deptid AND e.salary < {t}"
            ),
        }
    }

    fn template() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..64, 64u32..100_000, 64u32..100_000, 64u32..100_000]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The inbox folds into the monitor what a monitor updated by every
        /// SELECT itself holds: runs of SELECTs from one handle or from two
        /// on one thread, with ticks between them and a last run longer than
        /// the inbox, match a lifecycle core ticking beside a monitor fed
        /// the same observations in the same order — every tick's report,
        /// the journal and the monitor at shutdown. The inbox never holds
        /// [`MONITOR_CAPACITY`] entries after a push returns.
        #[test]
        fn the_inbox_folds_what_an_eager_monitor_observes(
            runs in prop::collection::vec(
                prop::collection::vec((template(), 0u8..2), 0..300),
                1..4,
            ),
            last in prop::collection::vec((template(), 0u8..2), 400..500),
            two_handles in any::<bool>(),
        ) {
            let config = AutodConfig {
                budget_per_tick: 20_000.0,
                shrink_every: 2,
                ..AutodConfig::default()
            };
            let svc = start(config.clone());
            let handles = [svc.handle(1), svc.handle(2)];
            let db = test_db();
            let mut core = LifecycleCore::with_parts(
                StatsCatalog::new(),
                config,
                obsv::Obs::disabled(),
                SessionReport::default(),
            );
            let eager = Mutex::new(WorkloadMonitor::new(MonitorConfig));
            let mut templates = std::collections::BTreeSet::new();
            let runs_then_last = runs.iter().map(|r| (r, true)).chain([(&last, false)]);
            for (run, then_tick) in runs_then_last {
                for &(t, h) in run {
                    let sql = template_sql(t);
                    let handle = &handles[usize::from(two_handles && h == 1)];
                    handle.run_sql(&sql).unwrap();
                    let Statement::Select(select) = parse_statement(&sql).unwrap() else {
                        unreachable!("a template is a SELECT")
                    };
                    let query = bind_select(&db, &select).unwrap();
                    eager.lock().observe(&query, core.ticks());
                    templates.insert(t);
                    prop_assert!(svc.observer.inbox.lock().len() < MONITOR_CAPACITY);
                }
                if then_tick {
                    let report = svc.tick_wait();
                    let expected = core.tick(&db, &eager, 20_000.0).0;
                    prop_assert_eq!(report, expected);
                }
            }
            prop_assert!(templates.len() > MONITOR_CAPACITY, "{} templates", templates.len());
            let (_, report) = svc.shutdown();
            let eager = eager.into_inner();
            prop_assert!(eager.evictions_total() > 0);
            prop_assert_eq!(report.templates, eager.templates());
            prop_assert_eq!(report.observed, eager.observed_total());
            prop_assert_eq!(report.evictions, eager.evictions_total());
            prop_assert_eq!(report.session, core.into_parts().1);
        }
    }
}
