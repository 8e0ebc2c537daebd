//! The sharded cluster: one [`autod::OnlineService`] per shard behind a
//! deterministic router, with a shared budget arbiter funding every tick.
//!
//! Each shard is a complete, independent serving stack — its own published
//! snapshot, workload monitor, lifecycle core and private telemetry
//! registry — so shards never contend on locks or counters. Cross-shard
//! state exists in exactly three places: the immutable [`ShardPlan`], the
//! arbiter's demand vector (updated once per tick from collected
//! [`TickReport`]s), and the gathered copies of the partitioned tables.
//!
//! ## Tick protocol
//!
//! [`ServeCluster::tick_wait`] splits `autod.budget_per_tick` over the
//! demand each shard reported at the end of its previous tick
//! (`1 + pending`), then ticks the shards one after another in shard order,
//! on the calling thread.
//!
//! ## Fallback execution
//!
//! A cross-shard SELECT runs on a database that shares storage with the
//! shards instead of copying it. `storage::Database` holds its tables by
//! `Arc`, so that database is the schema skeleton with, for each referenced
//! table, either the owner's `Arc` (an owned table) or the cluster's
//! *gathered* copy (a partitioned table: the slices appended in shard order,
//! column by column). Its tables come from the routed shards' published
//! [`Snapshot`]s, loaded in shard order and then loaded again: if any shard
//! published in between, the fallback loads them all anew. A shard's slot
//! never returns to a snapshot someone holds, so when every second load is
//! the first, each snapshot was current at the instant the last first load
//! was taken, and no write falls between the tables of one query. The
//! statement then binds, optimizes against an *empty* statistics catalog
//! (magic-number selectivities), and executes, holding no lock. A writer
//! that arrives while the fallback still holds one of its tables does not
//! wait for it: its `table_mut` copies that table (`Arc::make_mut`) and the
//! fallback keeps the rows it started with.
//!
//! The gathered copy of a partitioned table is kept on the cluster, one per
//! table, shared by every client, and is keyed by the slices'
//! [`storage::Table::version`]s: a fallback compares the versions in the
//! snapshots it loaded with the versions the copy was built from, and
//! rebuilds the copy only when one differs. The key is the version and not
//! the modification counter because that counter can be reset, so two
//! different states of a slice can read the same count. A write to a slice
//! never copies anything on account of the gathered table (which is a table
//! of its own); it only makes the next fallback rebuild it.
//!
//! Fallback queries are deliberately invisible to every shard's workload
//! monitor: they are not single-shard statements, so no shard's tuner
//! should chase them.

use crate::arbiter::BudgetArbiter;
use crate::plan::{Placement, ShardPlan, ShardPlanConfig};
use crate::router::{Route, Router, SelectRoute};
use autod::{AutodConfig, OnlineService, QueryHandle, ServiceReport, Snapshot, TickReport};
use autostats::{OnlineEvent, SessionReport, StatementError, TuneError};
use executor::{execute_plan, ExecOutput, StatementOutcome};
use obsv::{HealthSnapshot, LatencyHistogram, LatencySample};
use optimizer::{OptimizeOptions, Optimizer};
use parking_lot::Mutex;
use query::{bind_statement, parse_statement, BoundStatement, Statement};
use stats::StatsCatalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{Database, Result as StorageResult, Table, TableId};

/// Cluster configuration: the placement knobs plus the per-shard service
/// configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub shards: usize,
    /// Tables with at least this many rows are hash-partitioned across all
    /// shards (no effect on a 1-shard cluster).
    pub partition_threshold: usize,
    /// Template for each shard's service configuration (`shard` is stamped
    /// per shard by the cluster). `budget_per_tick` is the budget of the
    /// whole cluster: the arbiter splits it across the shards by demand.
    pub autod: AutodConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            partition_threshold: usize::MAX,
            autod: AutodConfig::default(),
        }
    }
}

/// A running sharded cluster. See the module docs.
pub struct ServeCluster {
    plan: Arc<ShardPlan>,
    router: Router,
    services: Vec<OnlineService>,
    /// Empty structural clone of the original database: what a fallback
    /// snapshot starts from.
    skeleton: Arc<Database>,
    /// Gathered copies of the partitioned tables (fallback readers).
    gather: Arc<Gather>,
    /// Stateless optimizer for fallback queries.
    optimizer: Arc<Optimizer>,
    arbiter: BudgetArbiter,
    /// Demand vector for the next tick split, updated from collected
    /// reports; starts at the arbiter's floor (1.0 per shard).
    demands: Mutex<Vec<f64>>,
}

impl ServeCluster {
    /// Plan placement, split the database, and start one online service per
    /// shard. Shard assignments are journaled as tick-0
    /// [`OnlineEvent::ShardAssigned`] events in each shard's session before
    /// the service starts, so every journal begins with an auditable
    /// manifest of what the shard owns.
    pub fn start(db: Database, config: ServeConfig) -> StorageResult<ServeCluster> {
        let plan = Arc::new(ShardPlan::build(
            &db,
            &ShardPlanConfig {
                shards: config.shards,
                partition_threshold: config.partition_threshold,
            },
        ));
        let skeleton = Arc::new(db.schema_skeleton());
        let shard_dbs = plan.shard_databases(&db)?;

        let mut services = Vec::with_capacity(plan.shards());
        for (s, shard_db) in shard_dbs.into_iter().enumerate() {
            let mut session = SessionReport::default();
            for (table, rows, partitioned) in plan.shard_manifest(s, &shard_db) {
                session.record_online(OnlineEvent::ShardAssigned {
                    tick: 0,
                    shard: s as u32,
                    table,
                    rows,
                    partitioned,
                });
            }
            let shard_config = AutodConfig {
                shard: s as u32,
                ..config.autod.clone()
            };
            services.push(OnlineService::start(
                shard_db,
                StatsCatalog::new(),
                session,
                // A fresh (private) registry per shard: telemetry merges
                // happen at the cluster level, never through a shared one.
                obsv::Obs::disabled(),
                shard_config,
            ));
        }

        let demands = Mutex::new(vec![BudgetArbiter::demand(0); plan.shards()]);
        Ok(ServeCluster {
            router: Router::new(Arc::clone(&plan)),
            plan,
            services,
            gather: Arc::new(Gather::new(skeleton.table_count())),
            skeleton,
            optimizer: Arc::new(Optimizer::default()),
            arbiter: BudgetArbiter::new(config.autod.budget_per_tick),
            demands,
        })
    }

    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The shard services, indexed by shard id (telemetry, epochs, windows).
    pub fn services(&self) -> &[OnlineService] {
        &self.services
    }

    pub fn service(&self, shard: usize) -> &OnlineService {
        &self.services[shard]
    }

    /// A cloneable client for one query thread. `tid` tags the thread's
    /// trace events on every shard handle it touches.
    pub fn client(&self, tid: u64) -> ClusterClient {
        ClusterClient {
            router: self.router.clone(),
            handles: self.services.iter().map(|s| s.handle(tid)).collect(),
            skeleton: Arc::clone(&self.skeleton),
            gather: Arc::clone(&self.gather),
            optimizer: Arc::clone(&self.optimizer),
        }
    }

    /// How often a fallback found the gathered copy of a partitioned table
    /// current, and how often it had to rebuild it.
    pub fn gather_stats(&self) -> GatherStats {
        GatherStats {
            hits: self.gather.hits.load(Ordering::Relaxed),
            rebuilds: self.gather.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Run one cluster tick: split the global budget over the current
    /// demand vector, then tick every shard in shard order on this thread.
    /// Returns the per-shard reports.
    ///
    /// # Errors
    /// Returns the first shard error in shard order; later shards still
    /// complete their tick (their reports are dropped for this round but
    /// their demand floor resets).
    pub fn tick_wait(&self) -> Result<Vec<TickReport>, TuneError> {
        let shares = self.arbiter.split(&self.demands.lock());
        let mut reports = Vec::with_capacity(shares.len());
        let mut first_err = None;
        for (svc, &share) in self.services.iter().zip(&shares) {
            match svc.tick_wait_budgeted(share) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    first_err.get_or_insert(e);
                    reports.push(TickReport::default());
                }
            }
        }
        for (d, r) in self.demands.lock().iter_mut().zip(&reports) {
            *d = BudgetArbiter::demand(r.pending);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// The demand vector the next tick will split over (snapshot).
    pub fn demands(&self) -> Vec<f64> {
        self.demands.lock().clone()
    }

    pub fn arbiter(&self) -> &BudgetArbiter {
        &self.arbiter
    }

    /// Per-shard health snapshots, in shard order.
    pub fn health(&self) -> Vec<HealthSnapshot> {
        self.services.iter().map(OnlineService::health).collect()
    }

    /// Cluster-level health: counters summed, quantiles bounded (see
    /// [`HealthSnapshot::merge`]). For exact merged latency quantiles use
    /// [`ServeCluster::merged_query_latency`].
    pub fn merged_health(&self) -> HealthSnapshot {
        HealthSnapshot::merge(&self.health())
    }

    /// Exact cluster-wide query-latency distribution: a fresh histogram
    /// merged from every shard's `autod.query.latency_ns`. Histogram merge
    /// is exactly associative (bucket-count addition), so this equals the
    /// histogram a single shared registry would have recorded.
    pub fn merged_query_latency(&self) -> LatencySample {
        let merged = LatencyHistogram::detached();
        for svc in &self.services {
            merged.merge_from(&svc.metrics().latency("autod.query.latency_ns"));
        }
        merged.snapshot()
    }

    /// Per-shard epoch generations, in shard order.
    pub fn generations(&self) -> Vec<u64> {
        self.services
            .iter()
            .map(OnlineService::generation)
            .collect()
    }

    /// Shut every shard down in shard order. Returns the per-shard final
    /// `(database, report)` pairs; always `Some` (the `Option` is what
    /// `benchmark/` links).
    pub fn shutdown(self) -> Option<Vec<(Database, ServiceReport)>> {
        Some(
            self.services
                .into_iter()
                .map(OnlineService::shutdown)
                .collect(),
        )
    }
}

/// A per-thread cluster client: routes each statement and executes it on
/// the owning shard(s). Cheap to clone.
#[derive(Clone)]
pub struct ClusterClient {
    router: Router,
    handles: Vec<QueryHandle>,
    skeleton: Arc<Database>,
    gather: Arc<Gather>,
    optimizer: Arc<Optimizer>,
}

impl ClusterClient {
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Parse and run one SQL statement.
    ///
    /// # Errors
    /// Parse, bind, optimize, and execution errors, exactly as the
    /// unsharded [`QueryHandle::run_sql`].
    pub fn run_sql(&self, sql: &str) -> Result<StatementOutcome, StatementError> {
        let stmt = parse_statement(sql)?;
        self.run(&stmt)
    }

    /// Run one parsed statement on whatever shard(s) the router picks.
    ///
    /// # Errors
    /// Same surface as [`QueryHandle::run`]; multi-shard routes fail on the
    /// first shard error in shard order.
    pub fn run(&self, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let route = match stmt {
            Statement::Select(select) => {
                let routed = self.router.route_select(select);
                if routed.route == Route::Fallback {
                    return self.run_fallback(stmt, &routed);
                }
                routed.route
            }
            _ => self.router.route(stmt),
        };
        match route {
            Route::Broadcast => self.run_broadcast(stmt),
            Route::Scatter => self.run_scatter(stmt),
            Route::Single(s) | Route::PartitionedInsert(s) => self.handles[s].run(stmt),
            // Only SELECTs fall back, and they returned above.
            Route::Fallback => self.handles[0].run(stmt),
        }
    }

    /// UPDATE/DELETE on a partitioned table: the slices are disjoint, so
    /// applying the statement on every shard touches each row exactly once
    /// and per-shard counts sum to the single-database answer.
    fn run_broadcast(&self, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let mut rows_affected = 0usize;
        let mut work = 0.0f64;
        for handle in &self.handles {
            match handle.run(stmt)? {
                StatementOutcome::Dml {
                    rows_affected: r,
                    work: w,
                } => {
                    rows_affected += r;
                    work += w;
                }
                // Broadcast only routes DML; a Query outcome cannot happen.
                other => return Ok(other),
            }
        }
        Ok(StatementOutcome::Dml {
            rows_affected,
            work,
        })
    }

    /// Projection-only single-table SELECT over a partitioned table: run on
    /// every shard through its own handle (so each shard's monitor observes
    /// its slice of the workload) and concatenate rows in shard order.
    fn run_scatter(&self, stmt: &Statement) -> Result<StatementOutcome, StatementError> {
        let mut rows = Vec::new();
        let mut work = 0.0f64;
        let mut estimated_cost = 0.0f64;
        for handle in &self.handles {
            match handle.run(stmt)? {
                StatementOutcome::Query {
                    output,
                    estimated_cost: cost,
                } => {
                    rows.extend(output.rows);
                    work += output.work;
                    estimated_cost += cost;
                }
                other => return Ok(other),
            }
        }
        Ok(StatementOutcome::Query {
            output: ExecOutput { rows, work },
            estimated_cost,
        })
    }

    /// Cross-shard SELECT: execute on a database that shares the referenced
    /// tables with the shards (see the module docs for the snapshot and
    /// statistics story).
    fn run_fallback(
        &self,
        stmt: &Statement,
        routed: &SelectRoute<'_>,
    ) -> Result<StatementOutcome, StatementError> {
        let load = || -> Vec<Arc<Snapshot>> {
            routed
                .shards
                .iter()
                .map(|&s| self.handles[s].snapshot())
                .collect()
        };
        let mut loaded = load();
        while !loaded.iter().zip(load()).all(|(a, b)| Arc::ptr_eq(a, &b)) {
            loaded = load();
        }
        let mut snapshot = (*self.skeleton).clone();
        for p in &routed.tables {
            let table = match p.placement {
                Placement::Owned(owner) => {
                    let Some(i) = routed.shards.iter().position(|&s| s == owner) else {
                        continue;
                    };
                    loaded[i].db.shared_table(p.table)
                }
                // A partitioned table involves every shard, so `loaded` is
                // one snapshot per shard, in shard order.
                Placement::Partitioned => self
                    .gather
                    .table(p.table, &self.skeleton, &loaded)
                    .map_err(|e| StatementError::Exec(e.into()))?,
            };
            snapshot.set_shared_table(p.table, table);
        }
        drop(loaded);

        let BoundStatement::Select(query) = bind_statement(&snapshot, stmt)? else {
            return self.handles[0].run(stmt);
        };
        // No shard's statistics describe the tables as a whole, so the
        // fallback optimizes against an empty catalog (magic numbers) — the
        // honest cost model for a path the tuner never sees.
        let catalog = StatsCatalog::new();
        let optimized = self.optimizer.optimize(
            &snapshot,
            &query,
            catalog.full_view(),
            &OptimizeOptions::default(),
        )?;
        let output = execute_plan(&snapshot, &query, &optimized.plan, &self.optimizer.params)
            .map_err(StatementError::Exec)?;
        Ok(StatementOutcome::Query {
            output,
            estimated_cost: optimized.cost,
        })
    }
}

/// [`ServeCluster::gather_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherStats {
    pub hits: u64,
    pub rebuilds: u64,
}

/// The gathered copies of the partitioned tables: per table, the slices of
/// every shard appended in shard order, and the slice versions that copy was
/// built from.
struct Gather {
    /// Indexed by `TableId` ordinal; only partitioned tables are ever filled.
    slots: Vec<Mutex<Option<Gathered>>>,
    hits: AtomicU64,
    rebuilds: AtomicU64,
}

struct Gathered {
    versions: Vec<u64>,
    table: Arc<Table>,
}

impl Gather {
    fn new(tables: usize) -> Gather {
        Gather {
            slots: (0..tables).map(|_| Mutex::new(None)).collect(),
            hits: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// The gathered copy of `id`, rebuilt first if any slice changed since
    /// it was built. `shards` holds every shard's snapshot in shard order;
    /// the slot's lock is the only one taken, and it makes concurrent
    /// fallbacks share one rebuild.
    fn table(
        &self,
        id: TableId,
        skeleton: &Database,
        shards: &[Arc<Snapshot>],
    ) -> StorageResult<Arc<Table>> {
        let versions = || shards.iter().map(|s| s.db.table(id).version());
        let mut slot = self.slots[id.0 as usize].lock();
        if let Some(current) = slot
            .as_ref()
            .filter(|g| versions().eq(g.versions.iter().copied()))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&current.table));
        }
        let mut table = skeleton.table(id).empty_like();
        for s in shards {
            table.append_table(s.db.table(id))?;
        }
        let table = Arc::new(table);
        *slot = Some(Gathered {
            versions: versions().collect(),
            table: Arc::clone(&table),
        });
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema, Value};

    /// `big` is hash-partitioned over three shards, `mid` and `small` are
    /// owned.
    fn cluster() -> ServeCluster {
        let mut db = Database::new();
        for (name, rows) in [("big", 600usize), ("mid", 80), ("small", 10)] {
            let id = db
                .create_table(
                    name,
                    Schema::new(vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("v", DataType::Int),
                    ]),
                )
                .unwrap();
            for i in 0..rows {
                db.table_mut(id)
                    .insert(vec![Value::Int(i as i64), Value::Int((i % 7) as i64)])
                    .unwrap();
            }
        }
        ServeCluster::start(
            db,
            ServeConfig {
                shards: 3,
                partition_threshold: 100,
                autod: AutodConfig {
                    budget_per_tick: f64::INFINITY,
                    ..AutodConfig::default()
                },
            },
        )
        .unwrap()
    }

    fn table_id(cluster: &ServeCluster, name: &str) -> TableId {
        cluster.plan().placement_by_name(name).unwrap().table
    }

    /// The gathered copy of `big` as the cluster holds it now.
    fn gathered_big(cluster: &ServeCluster) -> Arc<Table> {
        let slot = cluster.gather.slots[table_id(cluster, "big").0 as usize].lock();
        Arc::clone(&slot.as_ref().expect("a fallback gathered `big`").table)
    }

    fn count(client: &ClusterClient, sql: &str) -> i64 {
        match client.run_sql(sql).unwrap() {
            StatementOutcome::Query { output, .. } => match output.rows[0][0] {
                Value::Int(n) => n,
                ref other => panic!("COUNT returned {other:?}"),
            },
            StatementOutcome::Dml { .. } => panic!("expected a query outcome"),
        }
    }

    #[test]
    fn fallbacks_with_no_write_between_them_share_one_gathered_table() {
        let cluster = cluster();
        assert_eq!(
            cluster
                .router()
                .route(&parse_statement("SELECT COUNT(*) FROM big").unwrap()),
            Route::Fallback
        );
        assert_eq!(count(&cluster.client(1), "SELECT COUNT(*) FROM big"), 600);
        let first = gathered_big(&cluster);
        assert_eq!(
            cluster.gather_stats(),
            GatherStats {
                hits: 0,
                rebuilds: 1
            }
        );
        // Another client, another statement shape, the same rows.
        let other = cluster.client(2);
        assert_eq!(
            count(&other, "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k"),
            80
        );
        assert!(Arc::ptr_eq(&first, &gathered_big(&cluster)));
        assert_eq!(
            cluster.gather_stats(),
            GatherStats {
                hits: 1,
                rebuilds: 1
            }
        );
        // Slices in shard order, as the row-at-a-time gather laid them out.
        let big = table_id(&cluster, "big");
        let mut at = 0;
        for service in cluster.services() {
            let snapshot = service.snapshot();
            let slice = snapshot.db.table(big);
            for r in 0..slice.row_count() {
                assert_eq!(first.row_values(at), slice.row_values(r));
                at += 1;
            }
        }
        assert_eq!(at, first.row_count());
    }

    #[test]
    fn a_write_to_any_slice_makes_the_next_fallback_rebuild() {
        let cluster = cluster();
        let client = cluster.client(1);
        let mut expected = 600;
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big"), expected);
        for (write, delta) in [
            ("INSERT INTO big VALUES (9999, 1)", 1),   // one shard
            ("UPDATE big SET v = 8 WHERE k < 300", 0), // broadcast
            ("DELETE FROM big WHERE k >= 590", -11),   // broadcast
        ] {
            let before = gathered_big(&cluster);
            let rebuilds = cluster.gather_stats().rebuilds;
            client.run_sql(write).unwrap();
            expected += delta;
            assert_eq!(
                count(&client, "SELECT COUNT(*) FROM big"),
                expected,
                "{write}"
            );
            assert_eq!(cluster.gather_stats().rebuilds, rebuilds + 1, "{write}");
            assert!(!Arc::ptr_eq(&before, &gathered_big(&cluster)), "{write}");
        }
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big WHERE v = 8"), 300);

        // A broadcast that changes no row leaves the copy current, and so
        // does a write to a table that is not partitioned.
        let before = gathered_big(&cluster);
        let stats = cluster.gather_stats();
        client.run_sql("UPDATE big SET v = 1 WHERE k < 0").unwrap();
        client.run_sql("UPDATE mid SET v = 1").unwrap();
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big"), expected);
        assert!(Arc::ptr_eq(&before, &gathered_big(&cluster)));
        assert_eq!(
            cluster.gather_stats(),
            GatherStats {
                hits: stats.hits + 1,
                ..stats
            }
        );
    }

    #[test]
    fn a_snapshot_taken_before_a_write_keeps_its_rows() {
        let cluster = cluster();
        let client = cluster.client(1);

        // The gathered copy a running fallback would be reading.
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big"), 600);
        let held = gathered_big(&cluster);
        client.run_sql("DELETE FROM big WHERE k < 100").unwrap();
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big"), 500);
        assert_eq!(held.row_count(), 600);
        assert_eq!(gathered_big(&cluster).row_count(), 500);

        // An owned table held the way a fallback snapshot holds it: the
        // writer copies the table and never waits for the holder.
        let mid = table_id(&cluster, "mid");
        let Placement::Owned(owner) = cluster.plan().placement(mid).unwrap().placement else {
            panic!("`mid` is owned");
        };
        let held = cluster.service(owner).snapshot().db.shared_table(mid);
        let rows: Vec<_> = (0..held.row_count()).map(|r| held.row_values(r)).collect();
        client.run_sql("UPDATE mid SET v = 9").unwrap();
        client.run_sql("INSERT INTO mid VALUES (500, 500)").unwrap();
        assert_eq!(held.row_count(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(&held.row_values(r), row);
        }
        let snapshot = cluster.service(owner).snapshot();
        let db = &snapshot.db;
        assert!(!std::ptr::eq(db.table(mid), &*held), "the writer copied");
        assert_eq!(db.table(mid).row_count(), rows.len() + 1);
        assert_eq!(db.table(mid).value(0, 1), Value::Int(9));
    }
}
