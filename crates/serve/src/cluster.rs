//! The sharded cluster: one [`autod::OnlineService`] per shard behind a
//! deterministic router, with a shared budget arbiter funding every tick.
//!
//! Each shard is a complete, independent serving stack — its own published
//! snapshot, workload monitor, lifecycle core and private telemetry
//! registry — so shards never contend on locks or counters. Cross-shard
//! state exists in exactly three places: the immutable [`ShardPlan`], the
//! arbiter's demand vector (updated once per tick from collected
//! [`TickReport`]s), and the broadcast order (below).
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
//! table, the owner's `Arc` (an owned table) or the chain of every shard's
//! slice in shard order (a partitioned table, [`Database::set_slices`]).
//! The executor reads a chain in place: a scan runs slice by slice and
//! numbers each row by its slice's start plus its row in the slice, so the
//! rows, their order and the `work` are those of one table holding the
//! slices' rows in shard order. Nothing is concatenated, cached or locked.
//!
//! The tables come from the routed shards' published [`Snapshot`]s, loaded
//! in shard order and then loaded again: if any shard published in between,
//! the fallback loads them all anew. A shard's slot never returns to a
//! snapshot someone holds, so when every second load is the first, each
//! snapshot was current at the instant the last first load was taken, and
//! no write falls between the tables of one query. The statement is then
//! planned by [`autod::plan_select`], as a shard plans it, but against an
//! *empty* statistics catalog (magic-number selectivities), and executes,
//! holding no lock. A writer that arrives while the fallback still holds
//! one of its slices does not wait for it: its `table_mut` copies that
//! slice (`Arc::make_mut`) and the fallback keeps the rows it started with.
//!
//! ## Broadcast order
//!
//! An UPDATE or DELETE on a partitioned table is applied on every shard in
//! turn. Broadcasts hold one cluster mutex while they do, so every shard
//! applies them in one order, and bump a sequence counter before and after
//! (odd while one is in flight). A reader of several shards — a fallback's
//! load above, or a scatter's — loads with no lock taken and keeps what it
//! loaded if the counter read even before the load and is unchanged after
//! it; otherwise it loads again under the mutex. So it sees all of a
//! broadcast or none of it, and it waits for broadcasts only, never for
//! another reader. A scatter then runs each shard's part on the snapshot it
//! loaded.
//!
//! Fallback queries are deliberately invisible to every shard's workload
//! monitor: they are not single-shard statements, so no shard's tuner
//! should chase them.

use crate::arbiter::BudgetArbiter;
use crate::plan::{Placement, ShardPlan};
use crate::router::{Route, Router, SelectRoute};
use autod::{
    plan_select, AutodConfig, OnlineService, QueryHandle, ServiceReport, Snapshot, TickReport,
};
use autostats::{OnlineEvent, SessionReport, StatementError, TuneError};
use executor::{execute_plan, ExecOutput, StatementOutcome};
use obsv::{HealthSnapshot, LatencyHistogram, LatencySample};
use parking_lot::Mutex;
use query::{parse_statement, SelectStmt, Statement};
use stats::StatsCatalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{Database, Result as StorageResult};

/// Cluster configuration: the placement knobs plus the per-shard service
/// configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub shards: usize,
    /// Tables with at least this many rows are hash-partitioned across all
    /// shards (no effect on a 1-shard cluster).
    pub partition_threshold: usize,
    /// Every shard's service configuration. `budget_per_tick` is the budget
    /// of the whole cluster: the arbiter splits it across the shards by
    /// demand.
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
    broadcasts: Arc<BroadcastOrder>,
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
            config.shards,
            config.partition_threshold,
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
            services.push(OnlineService::start(
                shard_db,
                StatsCatalog::new(),
                session,
                // A fresh (private) registry per shard: telemetry merges
                // happen at the cluster level, never through a shared one.
                obsv::Obs::disabled(),
                config.autod.clone(),
            ));
        }

        let demands = Mutex::new(vec![BudgetArbiter::demand(0); plan.shards()]);
        Ok(ServeCluster {
            router: Router::new(Arc::clone(&plan)),
            plan,
            services,
            skeleton,
            broadcasts: Arc::default(),
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
            broadcasts: Arc::clone(&self.broadcasts),
        }
    }

    /// Run one cluster tick: split the global budget over the current
    /// demand vector, then tick every shard in shard order on this thread.
    /// Returns the per-shard reports; always `Ok` (a shard's tick cannot
    /// fail, and the `Result` is what `benchmark/` links).
    pub fn tick_wait(&self) -> Result<Vec<TickReport>, TuneError> {
        let shares = self.arbiter.split(&self.demands.lock());
        let reports: Vec<TickReport> = self
            .services
            .iter()
            .zip(shares)
            .map(|(svc, share)| svc.tick_wait_budgeted(share))
            .collect();
        for (d, r) in self.demands.lock().iter_mut().zip(&reports) {
            *d = BudgetArbiter::demand(r.pending);
        }
        Ok(reports)
    }

    /// Per-shard health snapshots, in shard order, each stamped with its
    /// shard.
    pub fn health(&self) -> Vec<HealthSnapshot> {
        let stamp = |(s, svc): (usize, &OnlineService)| HealthSnapshot {
            shard: s as u64,
            ..svc.health()
        };
        self.services.iter().enumerate().map(stamp).collect()
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
/// the owning shard(s). It holds no state of its own beyond the shards'
/// handles and the cluster's shared parts, so a clone is the same client.
#[derive(Clone)]
pub struct ClusterClient {
    router: Router,
    handles: Vec<QueryHandle>,
    skeleton: Arc<Database>,
    broadcasts: Arc<BroadcastOrder>,
}

impl ClusterClient {
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Run one SQL statement on whatever shard(s) the router picks;
    /// multi-shard routes fail on the first shard error in shard order.
    ///
    /// A one-shard cluster routes every statement to shard 0, so the text
    /// goes to that shard's [`QueryHandle::run_sql`] as it is, and the
    /// handle looks it up in its snapshot's plan memo before it parses
    /// anything. On more shards the text is parsed and routed here, and a
    /// shard's handle gets the text with the statement, the text being the
    /// key of its plan memo ([`QueryHandle::run`]).
    ///
    /// # Errors
    /// Parse, bind, optimize, and execution errors, exactly as the
    /// unsharded [`QueryHandle::run_sql`].
    pub fn run_sql(&self, sql: &str) -> Result<StatementOutcome, StatementError> {
        if let [only] = &self.handles[..] {
            return only.run_sql(sql);
        }
        let stmt = parse_statement(sql)?;
        let route = match &stmt {
            Statement::Select(select) => {
                let routed = self.router.route_select(select);
                match routed.route {
                    Route::Fallback => return self.run_fallback(select, &routed),
                    Route::Scatter => return self.run_scatter(sql, select, &routed.shards),
                    route => route,
                }
            }
            _ => self.router.route(&stmt),
        };
        match route {
            Route::Broadcast => self.run_broadcast(sql, &stmt),
            Route::Single(s) | Route::PartitionedInsert(s) => self.handles[s].run(sql, &stmt),
            // Only SELECTs scatter or fall back, and they returned above.
            Route::Scatter | Route::Fallback => self.handles[0].run(sql, &stmt),
        }
    }

    /// UPDATE/DELETE on a partitioned table: the slices are disjoint, so
    /// applying the statement on every shard touches each row exactly once
    /// and per-shard counts sum to the single-database answer. Applied in
    /// the cluster's broadcast order (module docs).
    fn run_broadcast(
        &self,
        sql: &str,
        stmt: &Statement,
    ) -> Result<StatementOutcome, StatementError> {
        self.broadcasts.apply(|| {
            let mut rows_affected = 0usize;
            let mut work = 0.0f64;
            for handle in &self.handles {
                match handle.run(sql, stmt)? {
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
        })
    }

    /// Projection-only single-table SELECT over a partitioned table: run on
    /// every shard through its own handle (so each shard's monitor observes
    /// its slice of the workload), each on the snapshot [`Self::load`] gave
    /// it, and concatenate rows in shard order.
    fn run_scatter(
        &self,
        sql: &str,
        select: &SelectStmt,
        shards: &[usize],
    ) -> Result<StatementOutcome, StatementError> {
        let loaded = self.load(shards);
        let mut rows = Vec::new();
        let mut work = 0.0f64;
        let mut estimated_cost = 0.0f64;
        // Each shard's snapshot is let go once its part has run.
        for (&s, snapshot) in shards.iter().zip(loaded) {
            match self.handles[s].run_select(&snapshot, sql, select)? {
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

    /// The published snapshots of `shards`, in that order, all current at
    /// one instant and none with a broadcast half applied (module docs).
    fn load(&self, shards: &[usize]) -> Vec<Arc<Snapshot>> {
        let load = || -> Vec<Arc<Snapshot>> {
            shards.iter().map(|&s| self.handles[s].snapshot()).collect()
        };
        self.broadcasts.read(|| {
            let mut loaded = load();
            while !loaded.iter().zip(load()).all(|(a, b)| Arc::ptr_eq(a, &b)) {
                loaded = load();
            }
            loaded
        })
    }

    /// The database a cross-shard SELECT runs on: the skeleton with each
    /// table the statement reads shared from the shards' snapshots, an
    /// owned table as its owner holds it and a partitioned one as the chain
    /// of every shard's slice in shard order.
    fn fallback_database(&self, routed: &SelectRoute<'_>) -> StorageResult<Database> {
        let loaded = self.load(&routed.shards);
        let mut db = (*self.skeleton).clone();
        for p in &routed.tables {
            match p.placement {
                Placement::Owned(owner) => {
                    if let Some(i) = routed.shards.iter().position(|&s| s == owner) {
                        db.set_shared_table(p.table, loaded[i].db.shared_table(p.table));
                    }
                }
                // A partitioned table involves every shard, so `loaded` is
                // one snapshot per shard, in shard order.
                Placement::Partitioned => {
                    let slices = loaded.iter().map(|s| s.db.shared_table(p.table));
                    db.set_slices(p.table, slices.collect())?;
                }
            }
        }
        Ok(db)
    }

    /// Cross-shard SELECT: execute on [`Self::fallback_database`] (see the
    /// module docs for the snapshot and statistics story).
    fn run_fallback(
        &self,
        select: &SelectStmt,
        routed: &SelectRoute<'_>,
    ) -> Result<StatementOutcome, StatementError> {
        let db = self
            .fallback_database(routed)
            .map_err(|e| StatementError::Exec(e.into()))?;
        // No shard's statistics describe the tables as a whole, so the
        // fallback plans against an empty catalog (magic numbers) — the
        // honest cost model for a path the tuner never sees.
        let (query, optimized) = plan_select(&db, &StatsCatalog::new(), select)?;
        let output = execute_plan(&db, &query, &optimized.plan, &optimizer::CostParams)?;
        Ok(StatementOutcome::Query {
            output,
            estimated_cost: optimized.cost,
        })
    }
}

/// The cluster's broadcast order (module docs): a mutex that a broadcast
/// holds while it applies on every shard, and that a reader which met a
/// broadcast while it loaded holds to load again, and the count of
/// broadcast starts and ends, odd while one is in flight.
#[derive(Default)]
struct BroadcastOrder {
    lock: Mutex<()>,
    seq: AtomicU64,
}

impl BroadcastOrder {
    /// Run `broadcast` after every broadcast before it and before any after
    /// it.
    fn apply<T>(&self, broadcast: impl FnOnce() -> T) -> T {
        let _held = self.lock.lock();
        self.seq.fetch_add(1, Ordering::SeqCst);
        let out = broadcast();
        self.seq.fetch_add(1, Ordering::SeqCst);
        out
    }

    /// What `load` reads of the shards, seen with no broadcast half applied:
    /// loaded with no lock taken if no broadcast started or was in flight
    /// meanwhile, and loaded again under the lock if one was. A load
    /// that saw a write of a broadcast saw it after that broadcast's first
    /// bump, so the second read of the counter sees the bump too.
    fn read<T>(&self, load: impl Fn() -> T) -> T {
        let seq = self.seq.load(Ordering::SeqCst);
        if seq.is_multiple_of(2) {
            let out = load();
            if self.seq.load(Ordering::SeqCst) == seq {
                return out;
            }
        }
        let _held = self.lock.lock();
        load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema, TableId, Value};

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

    /// The database a fallback of `sql` would run on now.
    fn fallback_db(cluster: &ServeCluster, client: &ClusterClient, sql: &str) -> Database {
        let stmt = parse_statement(sql).unwrap();
        let routed = cluster.router().route_select(stmt.as_select().unwrap());
        assert_eq!(routed.route, Route::Fallback, "{sql}");
        client.fallback_database(&routed).unwrap()
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
    fn a_fallback_reads_every_shards_slice_in_place_in_shard_order() {
        let cluster = cluster();
        let client = cluster.client(1);
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big"), 600);
        assert_eq!(
            count(&client, "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k"),
            80
        );
        let (big, mid) = (table_id(&cluster, "big"), table_id(&cluster, "mid"));
        let db = fallback_db(
            &cluster,
            &client,
            "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k",
        );
        // The shards' own slices, in shard order: nothing was copied.
        let chain = db.slices(big);
        assert_eq!(chain.tables().len(), 3);
        for (s, service) in cluster.services().iter().enumerate() {
            let snapshot = service.snapshot();
            assert!(std::ptr::eq(&*chain.tables()[s], snapshot.db.table(big)));
        }
        assert_eq!(chain.row_count(), 600);
        let Placement::Owned(owner) = cluster.plan().placement(mid).unwrap().placement else {
            panic!("`mid` is owned");
        };
        assert!(std::ptr::eq(
            db.table(mid),
            cluster.service(owner).snapshot().db.table(mid)
        ));
    }

    #[test]
    fn health_is_stamped_with_each_shard() {
        let cluster = cluster();
        cluster.tick_wait().unwrap();
        let shards: Vec<u64> = cluster.health().iter().map(|h| h.shard).collect();
        assert_eq!(shards, [0, 1, 2]);
        assert!(cluster.health().iter().all(|h| h.tick == 1));
        assert_eq!(cluster.merged_health().shard, 3, "merged counts its shards");
    }

    #[test]
    fn a_fallback_sees_every_write_to_any_slice_before_it() {
        let cluster = cluster();
        let client = cluster.client(1);
        let mut expected = 600;
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big"), expected);
        for (write, delta) in [
            ("INSERT INTO big VALUES (9999, 1)", 1),   // one shard
            ("UPDATE big SET v = 8 WHERE k < 300", 0), // broadcast
            ("DELETE FROM big WHERE k >= 590", -11),   // broadcast
        ] {
            client.run_sql(write).unwrap();
            expected += delta;
            assert_eq!(
                count(&client, "SELECT COUNT(*) FROM big"),
                expected,
                "{write}"
            );
        }
        assert_eq!(count(&client, "SELECT COUNT(*) FROM big WHERE v = 8"), 300);
    }

    #[test]
    fn a_snapshot_taken_before_a_write_keeps_its_rows() {
        let cluster = cluster();
        let client = cluster.client(1);

        // The chain a running fallback would be reading: the writer copies
        // the slices it writes and never waits for the holder.
        let sql = "SELECT COUNT(*) FROM big";
        let held = fallback_db(&cluster, &client, sql);
        let big = table_id(&cluster, "big");
        client.run_sql("DELETE FROM big WHERE k < 100").unwrap();
        assert_eq!(count(&client, sql), 500);
        assert_eq!(held.slices(big).row_count(), 600);
        let now = fallback_db(&cluster, &client, sql);
        assert_eq!(now.slices(big).row_count(), 500);
        let copied = std::iter::zip(held.slices(big).tables(), now.slices(big).tables())
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .count();
        assert_eq!(copied, 3, "every shard held rows with k < 100");

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

    /// A client holds no state a thread could not share: it is `Send +
    /// Sync`, so one client may serve several threads.
    #[test]
    fn a_client_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterClient>();
    }
}
