//! The online lifecycle loop end to end: a seeded TPC-D query+update stream
//! routed by one client across an N-shard [`serve::ServeCluster`] (the
//! largest table hash-partitioned when N > 1) under the shared budget
//! arbiter, from **zero** statistics, interleaved with deterministic
//! virtual-time ticks and then ticked until every shard is quiet. Mid-run, a
//! whole-table bulk UPDATE makes every statistic on `lineitem` stale.
//!
//! Each shard is scored on its probe set, the distinct single-shard SELECT
//! templates routed to it: the probe cost under its epoch after each tick
//! (plan quality vs time, from the zero-statistics baseline) and under its
//! final catalog against an offline tune on the same shard database and
//! sample (convergence). The run fails unless the drive drains before its
//! backstop, replays bit for bit, and a 1-shard cluster equals a plain
//! [`autod::OnlineService`] fed the same `ShardAssigned` prelude and budget.
//! That service alone carries the experiment's `obs` (trace, metrics,
//! journal, slow-query log), so a traced run also shows tracing changes no
//! outcome; windows and health come from the first N-shard drive.
//!
//! Every reported figure is deterministic work, so `BENCH_online.json` is
//! byte-reproducible; wall-clock throughput and latency of the same loop
//! are `benchmark/`'s business (`online-mixed`).

use crate::common::ExperimentScale;
use autod::{AutodConfig, CatalogEpoch, OnlineService, ServiceReport, TelemetryConfig, TickReport};
use autostats::{OfflineTuner, OnlineEvent, SessionReport};
use datagen::{Complexity, RagsGenerator, WorkloadSpec};
use obsv::json::Object;
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement, Statement};
use serve::{Route, Router, ServeCluster, ServeConfig, ShardPlan};
use stats::StatsCatalog;
use std::collections::BTreeSet;
use std::sync::Arc;
use storage::Database;

/// One point of a shard's plan-quality-vs-time curve.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    pub tick: u64,
    pub generation: u64,
    /// Total optimizer cost of the shard's probes under this epoch's catalog.
    pub probe_cost: f64,
}

/// The telemetry streams one run exports (JSONL, validated by
/// `obsv_check --windows / --health / --jsonl`).
#[derive(Debug, Clone, Default)]
pub struct TelemetryExport {
    /// One [`obsv::WindowDelta`] per tick, shard 0's.
    pub windows_jsonl: String,
    /// One [`obsv::HealthSnapshot`] per shard per tick, interleaved.
    pub health_jsonl: String,
    /// The plain service's slow-query reservoir as one trace stream.
    pub slowlog_jsonl: String,
}

/// How many statements of the drive (the stream and the bulk UPDATE) took
/// each route.
#[derive(Debug, Clone, Default)]
pub struct RouteCounts {
    /// `Route::Single`, per shard.
    pub single: Vec<usize>,
    pub partitioned_insert: usize,
    pub broadcast: usize,
    pub scatter: usize,
    pub fallback: usize,
}

/// One shard's tuning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    pub shard: usize,
    /// Single-shard SELECT statements the router sent here.
    pub statements_routed: usize,
    /// Distinct templates among those: the shard's probe set.
    pub distinct_templates: usize,
    pub queries_tuned: u64,
    pub tuning_work: f64,
    pub refreshes: u64,
    pub refresh_work: f64,
    pub budget_exhausted_ticks: u64,
    pub epoch_generation: u64,
    pub statistics_built: usize,
    /// Probe cost with no statistics, under the final online catalog, and
    /// under an offline tune on the same shard database and sample.
    pub baseline_probe_cost: f64,
    pub online_probe_cost: f64,
    pub offline_probe_cost: f64,
    pub trajectory: Vec<TrajectoryPoint>,
}

impl ShardSummary {
    /// How far the online probe cost sits from the offline-tuned one, in
    /// percent of the offline cost.
    pub fn convergence_gap_pct(&self) -> f64 {
        if self.offline_probe_cost <= 0.0 {
            return 0.0;
        }
        (self.online_probe_cost - self.offline_probe_cost).abs() / self.offline_probe_cost * 100.0
    }
}

/// Everything `exp online` reports (and writes to `BENCH_online.json`).
#[derive(Debug, Clone)]
pub struct OnlineResult {
    pub scale: f64,
    pub shards: usize,
    pub statements: usize,
    pub ticks: u64,
    /// The global budget the arbiter splits over the shards each tick.
    pub budget_per_tick: f64,
    /// True when the drive reached a quiet tick before the drain backstop.
    pub drained: bool,
    /// True when the 1-shard cluster matched the plain service.
    pub one_shard_identical: bool,
    /// True when the seed-fixed drive at `shards` replayed bit-identically.
    pub replay_identical: bool,
    pub routes: RouteCounts,
    pub per_shard: Vec<ShardSummary>,
}

impl OnlineResult {
    /// Worst per-shard convergence gap, in percent of the offline cost.
    pub fn max_convergence_gap_pct(&self) -> f64 {
        self.per_shard
            .iter()
            .map(ShardSummary::convergence_gap_pct)
            .fold(0.0, f64::max)
    }

    /// The `BENCH_online.json` document.
    pub fn to_json(&self) -> String {
        let r = &self.routes;
        let single = r.single.iter().enumerate();
        let single = single.fold(Object::new(), |o, (s, &n)| o.field(s.to_string(), n));
        let routes = Object::new()
            .field("single", single)
            .field("partitioned_insert", r.partitioned_insert)
            .field("broadcast", r.broadcast)
            .field("scatter", r.scatter)
            .field("fallback", r.fallback);
        let per_shard: Vec<Object> = self
            .per_shard
            .iter()
            .map(|s| {
                let trajectory: Vec<Object> = s
                    .trajectory
                    .iter()
                    .map(|p| {
                        Object::new()
                            .field("tick", p.tick)
                            .field("generation", p.generation)
                            .field("probe_cost", p.probe_cost)
                    })
                    .collect();
                Object::new()
                    .field("shard", s.shard)
                    .field("statements_routed", s.statements_routed)
                    .field("distinct_templates", s.distinct_templates)
                    .field("queries_tuned", s.queries_tuned)
                    .field("tuning_work", s.tuning_work)
                    .field("refreshes", s.refreshes)
                    .field("refresh_work", s.refresh_work)
                    .field("budget_exhausted_ticks", s.budget_exhausted_ticks)
                    .field("epoch_generation", s.epoch_generation)
                    .field("statistics_built", s.statistics_built)
                    .field("baseline_probe_cost", s.baseline_probe_cost)
                    .field("online_probe_cost", s.online_probe_cost)
                    .field("offline_probe_cost", s.offline_probe_cost)
                    .field("convergence_gap_pct", s.convergence_gap_pct())
                    .field("trajectory", trajectory)
            })
            .collect();
        Object::new()
            .field("experiment", "online")
            .field("scale", self.scale)
            .field("shards", self.shards)
            .field("statements", self.statements)
            .field("ticks", self.ticks)
            .field("budget_per_tick", self.budget_per_tick)
            .field("drained", self.drained)
            .field("one_shard_identical", self.one_shard_identical)
            .field("replay_identical", self.replay_identical)
            .field("max_convergence_gap_pct", self.max_convergence_gap_pct())
            .field("routes", routes)
            .field("per_shard", per_shard)
            .block()
    }

    pub fn print(&self) {
        let (n, r) = (self.shards, &self.routes);
        println!(
            "cluster: {n} shards, {} statements, {} ticks (global budget {}/tick), drained {}",
            self.statements, self.ticks, self.budget_per_tick, self.drained
        );
        println!(
            "routes: single {:?}  partitioned insert {}  broadcast {}  scatter {}  fallback {}",
            r.single, r.partitioned_insert, r.broadcast, r.scatter, r.fallback
        );
        for s in &self.per_shard {
            let routed = format!(
                "{} routed ({} distinct)",
                s.statements_routed, s.distinct_templates
            );
            let tuned = format!("tuned {} (work {:.0})", s.queries_tuned, s.tuning_work);
            let refreshed = format!("refreshed {} (work {:.0})", s.refreshes, s.refresh_work);
            println!(
                "shard {}: {routed}, {tuned}, {refreshed}, {} exhausted ticks, generation {}, {} statistics",
                s.shard, s.budget_exhausted_ticks, s.epoch_generation, s.statistics_built
            );
            println!(
                "  probes: baseline {:.0} -> online {:.0} vs offline {:.0}  (gap {:.2}%)",
                s.baseline_probe_cost,
                s.online_probe_cost,
                s.offline_probe_cost,
                s.convergence_gap_pct()
            );
        }
        println!(
            "determinism: 1-shard == unsharded {}   replay identical {}",
            self.one_shard_identical, self.replay_identical
        );
    }
}

/// Each shard's tick reports, in tick order, each with the shard's epoch
/// after that tick.
type Ticks = Vec<Vec<(TickReport, Arc<CatalogEpoch>)>>;

/// What one deterministic drive leaves behind, per shard in shard order.
struct Drive {
    plan: ShardPlan,
    dbs: Vec<Database>,
    reports: Vec<ServiceReport>,
    ticks: Ticks,
    drained: bool,
    telemetry: TelemetryExport,
}

/// The bit-comparable fingerprint of one shard's drive: per-tick reports,
/// the journal rendering, the final generation, and the refresh and tuning
/// work meters by bit pattern.
type Digest = (Vec<TickReport>, String, u64, u64, u64);

impl Drive {
    fn digest(&self) -> Vec<Digest> {
        let shards = self.ticks.iter().zip(&self.reports);
        shards
            .map(|(ticks, report)| {
                let reports: Vec<TickReport> = ticks.iter().map(|(r, _)| r.clone()).collect();
                let refresh: f64 = reports.iter().map(|r| r.refresh_work).sum();
                let tuning: f64 = reports.iter().map(|r| r.tuning_work).sum();
                let journal = report.session.to_json();
                (
                    reports,
                    journal,
                    report.generation,
                    refresh.to_bits(),
                    tuning.to_bits(),
                )
            })
            .collect()
    }
}

fn autod_config(budget_per_tick: f64) -> AutodConfig {
    AutodConfig {
        budget_per_tick,
        shrink_every: 4,
        // Sample every template: the slow-query export should always
        // contain executor span trees, whatever the workload's fingerprints.
        telemetry: TelemetryConfig {
            sample_one_in: 1,
            ..TelemetryConfig::default()
        },
        ..AutodConfig::default()
    }
}

/// TPCD_MIX at `scale` and the seeded U20-S statement stream over it.
fn stream(scale: &ExperimentScale) -> (Database, Vec<Statement>) {
    let db = scale.tpcd_mix();
    let spec = WorkloadSpec::new(20, Complexity::Simple, scale.workload_len).with_seed(scale.seed);
    let statements = RagsGenerator::generate(&db, &spec);
    (db, statements)
}

/// Partition the largest table(s) across the shards; everything smaller
/// stays whole. A 1-shard cluster partitions nothing.
fn partition_threshold(db: &Database, shards: usize) -> usize {
    let largest = db.table_ids().map(|id| db.table(id).row_count()).max();
    match largest {
        Some(rows) if shards > 1 => rows.max(1),
        _ => usize::MAX,
    }
}

/// The mid-run bulk modification: every `lineitem` row is touched, so every
/// statistic on the table crosses the `max(500, 20% of rows)` threshold. On
/// one shard, that shard refreshes them. On more, `lineitem` is the
/// partitioned table and the UPDATE broadcasts, but a shard refreshes only
/// if it built a `lineitem` statistic, and the table's SELECTs reach no
/// shard's monitor unless they scatter: a fallback feeds none. At the
/// default scale on two shards no shard builds one, and none refreshes.
const BULK_UPDATE_SQL: &str = "UPDATE lineitem SET l_linenumber = 1";

fn bulk_update() -> Statement {
    parse_statement(BULK_UPDATE_SQL).expect("bulk update parses")
}

/// How many ticks the drain may take before a drive gives up on a quiet one.
const DRAIN_BACKSTOP: usize = 512;

/// A tick after which a shard may stop: nothing tuned, refreshed or
/// published, and the budget not exhausted.
fn is_quiet(r: &TickReport) -> bool {
    r.queries_tuned == 0
        && r.refreshed == 0
        && !r.budget_exhausted
        && r.published_generation.is_none()
}

/// The statement/tick interleave of every drive: `run` each statement's
/// text in order, `tick` (each shard's report and epoch) after every
/// `len / ticks` of them, then keep ticking until every shard is quiet.
/// Returns the ticks and whether the drain got there before the backstop.
fn interleave(
    statements: &[Statement],
    ticks: u64,
    run: impl Fn(&str),
    mut tick: impl FnMut() -> Vec<(TickReport, Arc<CatalogEpoch>)>,
) -> (Ticks, bool) {
    let mut by_shard: Ticks = Vec::new();
    let mut tick = || {
        let reports = tick();
        by_shard.resize_with(reports.len(), Vec::new);
        let quiet = reports.iter().all(|(r, _)| is_quiet(r));
        for (of_shard, r) in by_shard.iter_mut().zip(reports) {
            of_shard.push(r);
        }
        quiet
    };
    let bulk = query::render(&bulk_update());
    let chunk = (statements.len() / ticks.max(1) as usize).max(1);
    // Three quarters into the stream: late enough that earlier ticks have
    // already built statistics on `lineitem`, so the bulk write makes real
    // statistics stale instead of merely preceding their construction.
    let bulk_at = statements.len() * 3 / 4;
    for (i, stmt) in statements.iter().enumerate() {
        if i == bulk_at {
            run(&bulk);
        }
        run(&query::render(stmt));
        if (i + 1) % chunk == 0 {
            tick();
        }
    }
    // Drain. Deterministic — the daemon is a pure state machine — and
    // bounded as a backstop.
    let drained = (0..DRAIN_BACKSTOP).any(|_| tick());
    (by_shard, drained)
}

/// One deterministic single-client drive of an N-shard cluster.
fn drive_cluster(
    db: &Database,
    statements: &[Statement],
    shards: usize,
    ticks: u64,
    budget: f64,
) -> Drive {
    let config = ServeConfig {
        shards,
        partition_threshold: partition_threshold(db, shards),
        autod: autod_config(budget),
    };
    let cluster = ServeCluster::start(db.clone(), config).expect("shard split succeeds");
    let client = cluster.client(1);
    let mut telemetry = TelemetryExport::default();
    let run = |sql: &str| drop(client.run_sql(sql).expect("workload statement runs"));
    let (ticks, drained) = interleave(statements, ticks, run, || {
        let reports = cluster.tick_wait().expect("cluster tick succeeds");
        let window = cluster.service(0).roll_window(reports[0].tick);
        telemetry.windows_jsonl += &(window.to_json_line() + "\n");
        for health in cluster.health() {
            telemetry.health_jsonl += &(health.to_json_line() + "\n");
        }
        let epochs = cluster.services().iter().map(OnlineService::epoch);
        reports.into_iter().zip(epochs).collect()
    });
    let plan = cluster.plan().clone();
    let pairs = cluster.shutdown().expect("shutdown is always Some");
    let (dbs, reports) = pairs.into_iter().unzip();
    Drive {
        plan,
        dbs,
        reports,
        ticks,
        drained,
        telemetry,
    }
}

/// The reference of the 1-shard identity: one plain [`OnlineService`] over
/// the 1-shard plan's database, with the `ShardAssigned` prelude a cluster
/// journals, every tick funded with the whole `budget`.
fn drive_service(
    db: &Database,
    statements: &[Statement],
    ticks: u64,
    budget: f64,
    obs: obsv::Obs,
) -> Drive {
    let plan = ShardPlan::build(db, 1, partition_threshold(db, 1));
    let mut shard_dbs = plan.shard_databases(db).expect("1-shard split succeeds");
    let shard_db = shard_dbs.remove(0);
    let mut session = SessionReport::default();
    for (table, rows, partitioned) in plan.shard_manifest(0, &shard_db) {
        session.record_online(OnlineEvent::ShardAssigned {
            tick: 0,
            shard: 0,
            table,
            rows,
            partitioned,
        });
    }
    let config = autod_config(budget);
    let svc = OnlineService::start(shard_db, StatsCatalog::new(), session, obs, config);
    let handle = svc.handle(1);
    let run = |sql: &str| drop(handle.run_sql(sql).expect("workload statement runs"));
    let (ticks, drained) = interleave(statements, ticks, run, || {
        vec![(svc.tick_wait_budgeted(budget), svc.epoch())]
    });
    let telemetry = TelemetryExport {
        slowlog_jsonl: obsv::slowlog::to_jsonl(&svc.drain_slow_queries()),
        ..TelemetryExport::default()
    };
    let (db, report) = svc.shutdown();
    Drive {
        plan,
        dbs: vec![db],
        reports: vec![report],
        ticks,
        drained,
        telemetry,
    }
}

/// Route every statement once: the counts per route class, and the
/// single-shard SELECTs sent to each shard.
fn route_all<'a>(
    plan: &ShardPlan,
    statements: impl IntoIterator<Item = &'a Statement>,
) -> (RouteCounts, Vec<Vec<&'a Statement>>) {
    let router = Router::new(Arc::new(plan.clone()));
    let mut counts = RouteCounts {
        single: vec![0; plan.shards()],
        ..RouteCounts::default()
    };
    let mut selects = vec![Vec::new(); plan.shards()];
    for stmt in statements {
        match router.route(stmt) {
            Route::Single(s) => {
                counts.single[s] += 1;
                if let Statement::Select(_) = stmt {
                    selects[s].push(stmt);
                }
            }
            Route::PartitionedInsert(_) => counts.partitioned_insert += 1,
            Route::Broadcast => counts.broadcast += 1,
            Route::Scatter => counts.scatter += 1,
            Route::Fallback => counts.fallback += 1,
        }
    }
    (counts, selects)
}

/// Total optimizer cost of `probes` under `catalog` against `db`.
fn probe_cost(db: &Database, probes: &[BoundSelect], catalog: &StatsCatalog) -> f64 {
    let optimizer = Optimizer::default();
    probes
        .iter()
        .filter_map(|q| {
            optimizer
                .optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
                .ok()
        })
        .map(|o| o.cost)
        .sum()
}

/// The distinct SELECT templates among `statements`, in arrival order —
/// exactly what the monitor retains when its capacity is not exceeded.
fn distinct_sample(db: &Database, statements: &[&Statement]) -> Vec<BoundSelect> {
    let mut seen = BTreeSet::new();
    let mut sample = Vec::new();
    for stmt in statements {
        if let Ok(BoundStatement::Select(q)) = bind_statement(db, stmt) {
            if seen.insert(q.fingerprint()) {
                sample.push(q);
            }
        }
    }
    sample
}

/// Each shard's figures, its probe set being the distinct templates among
/// the single-shard SELECTs of `statements` routed to it, scored against
/// the shard's final database.
fn summaries(drive: &Drive, statements: &[Statement]) -> Vec<ShardSummary> {
    let (_, selects) = route_all(&drive.plan, statements);
    (0..drive.dbs.len())
        .map(|s| {
            let db = &drive.dbs[s];
            let ticks = drive.ticks[s].iter().map(|(r, _)| r);
            let catalog = &drive.reports[s].catalog;
            let probes = distinct_sample(db, &selects[s]);
            let mut offline = StatsCatalog::new();
            OfflineTuner::default()
                .tune(db, &mut offline, &probes)
                .expect("offline tune succeeds");
            let trajectory = drive.ticks[s].iter().map(|(r, e)| TrajectoryPoint {
                tick: r.tick,
                generation: e.generation,
                probe_cost: probe_cost(db, &probes, &e.catalog),
            });
            ShardSummary {
                shard: s,
                statements_routed: selects[s].len(),
                distinct_templates: probes.len(),
                queries_tuned: ticks.clone().map(|t| t.queries_tuned as u64).sum(),
                tuning_work: ticks.clone().map(|t| t.tuning_work).sum(),
                refreshes: ticks.clone().map(|t| t.refreshed as u64).sum(),
                refresh_work: ticks.clone().map(|t| t.refresh_work).sum(),
                budget_exhausted_ticks: ticks.filter(|t| t.budget_exhausted).count() as u64,
                epoch_generation: drive.reports[s].generation,
                statistics_built: catalog.total_count(),
                baseline_probe_cost: probe_cost(db, &probes, &StatsCatalog::new()),
                online_probe_cost: probe_cost(db, &probes, catalog),
                offline_probe_cost: probe_cost(db, &probes, &offline),
                trajectory: trajectory.collect(),
            }
        })
        .collect()
}

/// Run the whole experiment at `shards` shards, every tick funded with a
/// global `budget`. `obs` instruments the plain-service reference alone,
/// whose journal is returned.
pub fn run(
    scale: &ExperimentScale,
    shards: usize,
    ticks: u64,
    budget: f64,
    obs: obsv::Obs,
) -> (OnlineResult, SessionReport, TelemetryExport) {
    let (db, statements) = stream(scale);

    // Replay at the requested shard count...
    let first = drive_cluster(&db, &statements, shards, ticks, budget);
    let second = drive_cluster(&db, &statements, shards, ticks, budget);
    let replay_identical = first.digest() == second.digest();
    let per_shard = summaries(&first, &statements);

    // ...and the 1-shard cluster == the plain service.
    let reference = drive_service(&db, &statements, ticks, budget, obs);
    let one_shard = (shards > 1).then(|| drive_cluster(&db, &statements, 1, ticks, budget));
    let one_shard = one_shard.as_ref().unwrap_or(&first);
    let one_shard_identical = one_shard.digest() == reference.digest()
        && summaries(one_shard, &statements) == summaries(&reference, &statements);

    let result = OnlineResult {
        scale: scale.scale,
        shards,
        statements: statements.len(),
        ticks: first.ticks[0].len() as u64,
        budget_per_tick: budget,
        drained: first.drained,
        one_shard_identical,
        replay_identical,
        routes: route_all(&first.plan, statements.iter().chain([&bulk_update()])).0,
        per_shard,
    };
    let telemetry = TelemetryExport {
        slowlog_jsonl: reference.telemetry.slowlog_jsonl,
        ..first.telemetry
    };
    (result, reference.reports[0].session.clone(), telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sharded_run_is_deterministic_and_identical_at_one_shard() {
        let scale = ExperimentScale::tiny();
        let run = || run(&scale, 2, 3, f64::INFINITY, obsv::Obs::disabled());
        let (result, session, telemetry) = run();
        assert!(
            result.replay_identical,
            "seed-fixed sharded replay diverged"
        );
        assert!(
            result.one_shard_identical,
            "1-shard cluster diverged from the plain service"
        );
        assert!(result.drained, "an unbounded budget drains");
        assert_eq!(result.per_shard.len(), 2);
        assert_eq!(result.routes.single.len(), 2);
        let r = &result.routes;
        let routed = r.single.iter().sum::<usize>()
            + r.partitioned_insert
            + r.broadcast
            + r.scatter
            + r.fallback;
        // The stream's statements and the bulk UPDATE, each routed once.
        assert_eq!(routed, result.statements + 1);
        assert!(!session.online.is_empty(), "journal records online events");
        // The telemetry streams validate under their own checkers; the
        // interleaved health stream carries every shard.
        obsv::check::check_windows(&telemetry.windows_jsonl).expect("windows JSONL valid");
        obsv::check::check_health(&telemetry.health_jsonl).expect("health JSONL valid");
        assert!(telemetry.health_jsonl.contains("\"shard\": 1"));
        let slow = obsv::check::check_jsonl(&telemetry.slowlog_jsonl).expect("slowlog JSONL valid");
        assert!(slow.spans > 0, "slow-query reservoir captured span trees");
        assert!(
            telemetry.slowlog_jsonl.contains("exec."),
            "slowlog spans include executor operators"
        );
        // The artifact is deterministic work only: a second run renders the
        // same bytes, and no wall-clock key is in it.
        let json = result.to_json();
        assert!(json.contains("\"one_shard_identical\": true"));
        assert!(json.contains("\"replay_identical\": true"));
        assert!(json.contains("\"trajectory\""));
        assert_eq!(run().0.to_json(), json, "artifact is not byte-reproducible");
        for key in ["qps", "wall_ms", "_ns"] {
            assert!(!json.contains(key), "wall-clock key {key} in {json}");
        }
    }

    #[test]
    fn tiny_one_shard_run_refreshes_and_converges() {
        let scale = ExperimentScale::tiny();
        // Traced: the plain service is, the cluster drive is not, and the
        // identity holds all the same.
        let (result, _, _) = run(&scale, 1, 3, f64::INFINITY, obsv::Obs::enabled());
        assert!(result.one_shard_identical && result.replay_identical);
        let shard = &result.per_shard[0];
        assert!(shard.refreshes > 0, "bulk update must trigger refreshes");
        assert!(shard.epoch_generation > 0, "epochs were published");
        // With an unconstrained budget the online catalog should match the
        // offline one closely (same MNSA, same sample, shared shrink tail).
        assert!(
            shard.convergence_gap_pct() <= 20.0,
            "gap {:.2}% (online {:.0} vs offline {:.0})",
            shard.convergence_gap_pct(),
            shard.online_probe_cost,
            shard.offline_probe_cost
        );
    }

    #[test]
    fn a_budget_too_small_to_drain_is_reported() {
        let scale = ExperimentScale::tiny();
        let (result, _, _) = run(&scale, 1, 3, 1.0, obsv::Obs::disabled());
        assert!(!result.drained, "budget 1 cannot reach a quiet tick");
        assert!(result.to_json().contains("\"drained\": false"));
    }
}
