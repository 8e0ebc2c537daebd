//! Sustained-throughput benchmark of the sharded serving layer
//! ([`serve::ServeCluster`]): a seeded TPC-D query+update stream routed
//! across N shards, under the shared budget arbiter, measured four ways:
//!
//! * **throughput** — N client threads drive the mixed stream at steady
//!   state (several rounds over the statement list); QPS is statements per
//!   wall-clock second, latency quantiles come from the cluster-merged
//!   query-latency histogram (merge is exactly associative, so the merged
//!   distribution equals what a single shared histogram would have seen);
//! * **per-shard convergence under load** — after the deterministic drive,
//!   each shard's final catalog is scored on the distinct single-shard
//!   SELECT templates routed to it, against an offline tune on the same
//!   shard database and sample;
//! * **1-shard identity** — a 1-shard cluster drive must be bit-identical
//!   (tick reports, journal JSON including the `ShardAssigned` prelude,
//!   epoch generations, work meters, probe cost) to a plain
//!   [`autod::OnlineService`] fed the same prelude and budget;
//! * **replay** — the whole deterministic drive at the requested shard
//!   count runs twice and must agree bit-for-bit.
//!
//! The drive hash-partitions the largest TPC-D table across all shards
//! (when `shards > 1`), so the router's scatter, broadcast, and fallback
//! paths all carry real traffic.

use crate::common::ExperimentScale;
use autod::{AutodConfig, OnlineService, ServiceReport, TelemetryConfig, TickReport};
use autostats::{AutoStatsManager, CreationPolicy, ManagerConfig, OfflineTuner, OnlineEvent};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, BoundSelect, BoundStatement, Statement};
use serve::{Route, Router, ServeCluster, ServeConfig, ShardPlan, ShardPlanConfig};
use stats::StatsCatalog;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use storage::Database;

/// Per-shard tuning outcome of the deterministic drive.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    pub shard: usize,
    /// Single-shard SELECT statements the router sent here.
    pub statements_routed: usize,
    /// Distinct templates among those.
    pub distinct_templates: usize,
    pub queries_tuned: u64,
    pub refreshes: u64,
    pub epoch_generation: u64,
    pub statistics_built: usize,
    /// Probe cost of the shard's templates under its final online catalog.
    pub online_probe_cost: f64,
    /// Probe cost under an offline tune on the same shard database/sample.
    pub offline_probe_cost: f64,
}

impl ShardSummary {
    pub fn convergence_gap_pct(&self) -> f64 {
        if self.offline_probe_cost <= 0.0 {
            return 0.0;
        }
        (self.online_probe_cost - self.offline_probe_cost).abs() / self.offline_probe_cost * 100.0
    }
}

/// Telemetry streams the deterministic drive exports: per-tick windowed
/// deltas from shard 0 and the interleaved per-shard health stream
/// (`obsv_check --health` validates per-shard tick monotonicity;
/// `obsv_top` renders the multi-shard dashboard).
#[derive(Debug, Clone, Default)]
pub struct ServeTelemetry {
    pub windows_jsonl: String,
    pub health_jsonl: String,
}

/// Everything `exp_serve` reports (and writes to `BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct ServeResult {
    pub scale: f64,
    pub shards: usize,
    pub statements: usize,
    pub ticks: u64,
    pub threads: usize,
    /// Rounds each client thread makes over its statement share.
    pub rounds: usize,
    pub global_budget_per_tick: f64,
    /// Statements executed by the throughput pass.
    pub throughput_statements: u64,
    pub wall_ms: f64,
    /// Statements per wall-clock second at steady state.
    pub qps: f64,
    /// Cluster-merged query-latency quantiles (wall clock, nanoseconds).
    pub latency_count: u64,
    pub latency_p50_ns: u64,
    pub latency_p99_ns: u64,
    pub latency_p999_ns: u64,
    /// Throughput pass: how often a fallback found the gathered copy of the
    /// partitioned table current, and how often it rebuilt it.
    pub gather: serve::GatherStats,
    /// True when the 1-shard cluster matched the unsharded service
    /// bit-for-bit.
    pub one_shard_identical: bool,
    /// True when the seed-fixed drive at `shards` replayed bit-identically.
    pub replay_identical: bool,
    pub per_shard: Vec<ShardSummary>,
}

impl ServeResult {
    /// Worst per-shard convergence gap, in percent of the offline cost.
    pub fn max_convergence_gap_pct(&self) -> f64 {
        self.per_shard
            .iter()
            .map(ShardSummary::convergence_gap_pct)
            .fold(0.0, f64::max)
    }

    /// Hand-rolled JSON (no serde_json offline).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::new();
        out.push_str("{\n  \"experiment\": \"serve\",\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"statements\": {},\n", self.statements));
        out.push_str(&format!("  \"ticks\": {},\n", self.ticks));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!(
            "  \"global_budget_per_tick\": {},\n",
            num(self.global_budget_per_tick)
        ));
        out.push_str(&format!(
            "  \"throughput_statements\": {},\n",
            self.throughput_statements
        ));
        out.push_str(&format!("  \"wall_ms\": {},\n", num(self.wall_ms)));
        out.push_str(&format!("  \"qps\": {},\n", num(self.qps)));
        out.push_str(&format!("  \"latency_count\": {},\n", self.latency_count));
        out.push_str(&format!("  \"latency_p50_ns\": {},\n", self.latency_p50_ns));
        out.push_str(&format!("  \"latency_p99_ns\": {},\n", self.latency_p99_ns));
        out.push_str(&format!(
            "  \"latency_p999_ns\": {},\n",
            self.latency_p999_ns
        ));
        out.push_str(&format!("  \"gather_hits\": {},\n", self.gather.hits));
        out.push_str(&format!(
            "  \"gather_rebuilds\": {},\n",
            self.gather.rebuilds
        ));
        out.push_str(&format!(
            "  \"one_shard_identical\": {},\n",
            self.one_shard_identical
        ));
        out.push_str(&format!(
            "  \"replay_identical\": {},\n",
            self.replay_identical
        ));
        out.push_str(&format!(
            "  \"max_convergence_gap_pct\": {},\n",
            num(self.max_convergence_gap_pct())
        ));
        out.push_str("  \"per_shard\": [\n");
        for (i, s) in self.per_shard.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shard\": {}, \"statements_routed\": {}, \"distinct_templates\": {}, \"queries_tuned\": {}, \"refreshes\": {}, \"epoch_generation\": {}, \"statistics_built\": {}, \"online_probe_cost\": {}, \"offline_probe_cost\": {}, \"convergence_gap_pct\": {}}}{}\n",
                s.shard,
                s.statements_routed,
                s.distinct_templates,
                s.queries_tuned,
                s.refreshes,
                s.epoch_generation,
                s.statistics_built,
                num(s.online_probe_cost),
                num(s.offline_probe_cost),
                num(s.convergence_gap_pct()),
                if i + 1 < self.per_shard.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    pub fn print(&self) {
        println!(
            "cluster: {} shards, {} statements/round, {} ticks (global budget {}/tick)",
            self.shards, self.statements, self.ticks, self.global_budget_per_tick
        );
        println!(
            "throughput: {} statements over {:.1} ms wall with {} threads x {} rounds = {:.0} qps",
            self.throughput_statements, self.wall_ms, self.threads, self.rounds, self.qps
        );
        println!(
            "latency (merged): p50 {} ns  p99 {} ns  p999 {} ns  (n={})",
            self.latency_p50_ns, self.latency_p99_ns, self.latency_p999_ns, self.latency_count
        );
        println!(
            "fallback gather: {} hits, {} rebuilds",
            self.gather.hits, self.gather.rebuilds
        );
        for s in &self.per_shard {
            println!(
                "  shard {}: {:>4} routed ({} distinct)  tuned {:>3}  refreshed {:>3}  gen {:>3}  stats {:>3}  online {:>10.0} vs offline {:>10.0}  (gap {:.2}%)",
                s.shard,
                s.statements_routed,
                s.distinct_templates,
                s.queries_tuned,
                s.refreshes,
                s.epoch_generation,
                s.statistics_built,
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

fn autod_config() -> AutodConfig {
    AutodConfig {
        shrink_every: 4,
        telemetry: TelemetryConfig {
            sample_one_in: 1,
            ..TelemetryConfig::default()
        },
        ..AutodConfig::default()
    }
}

fn manager_config() -> ManagerConfig {
    ManagerConfig {
        creation: CreationPolicy::Manual,
        auto_maintain: false,
        ..ManagerConfig::default()
    }
}

fn workload(db: &Database, scale: &ExperimentScale) -> Vec<Statement> {
    let spec = WorkloadSpec::new(20, Complexity::Simple, scale.workload_len).with_seed(scale.seed);
    RagsGenerator::generate(db, &spec)
}

/// Partition the largest table(s) across the shards; everything smaller
/// stays whole. A 1-shard cluster partitions nothing (bit-identity).
fn partition_threshold(db: &Database, shards: usize) -> usize {
    if shards <= 1 {
        return usize::MAX;
    }
    db.table_ids()
        .map(|id| db.table(id).row_count())
        .max()
        .unwrap_or(usize::MAX)
        .max(1)
}

fn serve_config(db: &Database, shards: usize, global_budget: f64) -> ServeConfig {
    ServeConfig {
        shards,
        partition_threshold: partition_threshold(db, shards),
        global_budget_per_tick: global_budget,
        autod: autod_config(),
        manager: manager_config(),
        ..ServeConfig::default()
    }
}

/// The mid-run bulk modification (same as `exp_online`): touches every
/// `lineitem` row, so every statistic on the table goes stale — on a
/// partitioned cluster this broadcasts and makes *every* shard refresh.
const BULK_UPDATE_SQL: &str = "UPDATE lineitem SET l_linenumber = 1";

/// What one deterministic cluster drive leaves behind.
struct ClusterDrive {
    /// Final shard databases, in shard order.
    dbs: Vec<Database>,
    reports: Vec<ServiceReport>,
    statements: Vec<Statement>,
    /// Outer: tick order; inner: shard order.
    tick_reports: Vec<Vec<TickReport>>,
    plan: ShardPlan,
    telemetry: ServeTelemetry,
}

impl ClusterDrive {
    /// The bit-comparable fingerprint: per-tick per-shard reports, journal
    /// renderings, generations, and per-shard work meters.
    #[allow(clippy::type_complexity)]
    fn digest(&self) -> (Vec<Vec<TickReport>>, Vec<String>, Vec<u64>, Vec<(u64, u64)>) {
        let work_bits = (0..self.reports.len())
            .map(|s| {
                let refresh: f64 = self.tick_reports.iter().map(|t| t[s].refresh_work).sum();
                let tuning: f64 = self.tick_reports.iter().map(|t| t[s].tuning_work).sum();
                (refresh.to_bits(), tuning.to_bits())
            })
            .collect();
        (
            self.tick_reports.clone(),
            self.reports.iter().map(|r| r.session.to_json()).collect(),
            self.reports.iter().map(|r| r.generation).collect(),
            work_bits,
        )
    }
}

fn record_cluster_tick(cluster: &ServeCluster, telemetry: &mut ServeTelemetry) -> Vec<TickReport> {
    let reports = cluster.tick_wait().expect("cluster tick succeeds");
    if let Some(first) = reports.first() {
        telemetry
            .windows_jsonl
            .push_str(&cluster.service(0).roll_window(first.tick).to_json_line());
        telemetry.windows_jsonl.push('\n');
    }
    for svc in cluster.services() {
        telemetry
            .health_jsonl
            .push_str(&svc.health().to_json_line());
        telemetry.health_jsonl.push('\n');
    }
    reports
}

/// One deterministic single-client drive of the sharded closed loop.
fn drive_cluster(
    scale: &ExperimentScale,
    shards: usize,
    ticks: u64,
    global_budget: f64,
) -> ClusterDrive {
    let db = build_tpcd(&TpcdConfig {
        scale: scale.scale,
        zipf: ZipfSpec::Mixed,
        seed: scale.seed,
    });
    let statements = workload(&db, scale);
    let config = serve_config(&db, shards, global_budget);
    let cluster = ServeCluster::start(db, config).expect("shard split succeeds");
    let plan = cluster.plan().clone();
    let client = cluster.client(1);

    let chunk = (statements.len() / ticks.max(1) as usize).max(1);
    let bulk_at = statements.len() * 3 / 4;
    let mut tick_reports = Vec::new();
    let mut telemetry = ServeTelemetry::default();

    for (i, stmt) in statements.iter().enumerate() {
        if i == bulk_at {
            client.run_sql(BULK_UPDATE_SQL).expect("bulk update runs");
        }
        client.run(stmt).expect("workload statement runs");
        if (i + 1) % chunk == 0 {
            tick_reports.push(record_cluster_tick(&cluster, &mut telemetry));
        }
    }
    // Drain until every shard has a fully quiet tick (bounded backstop).
    for _ in 0..512 {
        tick_reports.push(record_cluster_tick(&cluster, &mut telemetry));
        let quiet = tick_reports.last().expect("just pushed").iter().all(|r| {
            r.queries_tuned == 0
                && r.refreshed == 0
                && !r.budget_exhausted
                && r.published_generation.is_none()
        });
        if quiet {
            break;
        }
    }

    let pairs = cluster.shutdown().expect("daemon threads live");
    let (dbs, reports): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    for report in &reports {
        if let Some(e) = &report.error {
            panic!("shard daemon tick failed during drive: {e}");
        }
    }
    ClusterDrive {
        dbs,
        reports,
        statements,
        tick_reports,
        plan,
        telemetry,
    }
}

/// The unsharded baseline of the 1-shard identity check: a plain
/// [`OnlineService`] over the 1-shard plan's database, with the same
/// `ShardAssigned` prelude journaled, the same budgeted ticks, and the same
/// statement/tick interleave as [`drive_cluster`].
fn drive_unsharded(
    scale: &ExperimentScale,
    ticks: u64,
    budget: f64,
) -> (ServiceReport, Vec<TickReport>) {
    let db = build_tpcd(&TpcdConfig {
        scale: scale.scale,
        zipf: ZipfSpec::Mixed,
        seed: scale.seed,
    });
    let statements = workload(&db, scale);
    let plan = ShardPlan::build(&db, &ShardPlanConfig::default());
    let mut shard_dbs = plan.shard_databases(&db).expect("1-shard split succeeds");
    let shard_db = shard_dbs.remove(0);
    let manifest = plan.shard_manifest(0, &shard_db);
    let mgr = AutoStatsManager::new_with_obs(shard_db, manager_config(), obsv::Obs::disabled());
    let mut parts = mgr.serve();
    for (table, rows, partitioned) in manifest {
        parts.session.record_online(OnlineEvent::ShardAssigned {
            tick: 0,
            shard: 0,
            table,
            rows,
            partitioned,
        });
    }
    let svc = OnlineService::start(parts, autod_config());
    let handle = svc.handle(1);

    let chunk = (statements.len() / ticks.max(1) as usize).max(1);
    let bulk_at = statements.len() * 3 / 4;
    let mut tick_reports: Vec<TickReport> = Vec::new();
    for (i, stmt) in statements.iter().enumerate() {
        if i == bulk_at {
            handle.run_sql(BULK_UPDATE_SQL).expect("bulk update runs");
        }
        handle.run(stmt).expect("workload statement runs");
        if (i + 1) % chunk == 0 {
            tick_reports.push(svc.tick_wait_budgeted(budget).expect("tick succeeds"));
        }
    }
    for _ in 0..512 {
        let r = svc.tick_wait_budgeted(budget).expect("tick succeeds");
        let quiet = r.queries_tuned == 0
            && r.refreshed == 0
            && !r.budget_exhausted
            && r.published_generation.is_none();
        tick_reports.push(r);
        if quiet {
            break;
        }
    }
    let (_, report) = svc.shutdown().expect("daemon thread lives");
    if let Some(e) = &report.error {
        panic!("daemon tick failed during unsharded drive: {e}");
    }
    (report, tick_reports)
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

/// Per-shard convergence: score each shard's final catalog on the distinct
/// single-shard SELECT templates the router sent it, vs an offline tune on
/// the same shard database and sample.
fn shard_summaries(drive: &ClusterDrive) -> Vec<ShardSummary> {
    let router = Router::new(Arc::new(drive.plan.clone()));
    let shards = drive.reports.len();
    let mut routed: Vec<usize> = vec![0; shards];
    let mut samples: Vec<Vec<BoundSelect>> = vec![Vec::new(); shards];
    let mut seen: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); shards];
    for stmt in &drive.statements {
        if !matches!(stmt, Statement::Select(_)) {
            continue;
        }
        let Route::Single(s) = router.route(stmt) else {
            continue;
        };
        routed[s] += 1;
        if let Ok(BoundStatement::Select(q)) = bind_statement(&drive.dbs[s], stmt) {
            if seen[s].insert(q.fingerprint()) {
                samples[s].push(q);
            }
        }
    }
    (0..shards)
        .map(|s| {
            let db = &drive.dbs[s];
            let online_probe_cost = probe_cost(db, &samples[s], &drive.reports[s].catalog);
            let mut offline_catalog = StatsCatalog::new();
            OfflineTuner::default()
                .tune(db, &mut offline_catalog, &samples[s])
                .expect("offline tune succeeds");
            let offline_probe_cost = probe_cost(db, &samples[s], &offline_catalog);
            ShardSummary {
                shard: s,
                statements_routed: routed[s],
                distinct_templates: samples[s].len(),
                queries_tuned: drive
                    .tick_reports
                    .iter()
                    .map(|t| t[s].queries_tuned as u64)
                    .sum(),
                refreshes: drive
                    .tick_reports
                    .iter()
                    .map(|t| t[s].refreshed as u64)
                    .sum(),
                epoch_generation: drive.reports[s].generation,
                statistics_built: drive.reports[s].catalog.total_count(),
                online_probe_cost,
                offline_probe_cost,
            }
        })
        .collect()
}

/// Wall-clock steady-state pass: `threads` client threads each loop their
/// share of the stream `rounds` times while the driver ticks the cluster.
/// Returns (wall ms, statements executed, merged latency sample, gather
/// counters).
fn throughput_pass(
    scale: &ExperimentScale,
    shards: usize,
    ticks: u64,
    threads: usize,
    rounds: usize,
    global_budget: f64,
) -> (f64, u64, obsv::LatencySample, serve::GatherStats) {
    let db = build_tpcd(&TpcdConfig {
        scale: scale.scale,
        zipf: ZipfSpec::Mixed,
        seed: scale.seed,
    });
    let statements = workload(&db, scale);
    let config = serve_config(&db, shards, global_budget);
    let cluster = ServeCluster::start(db, config).expect("shard split succeeds");

    let executed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let client = cluster.client(tid as u64 + 1);
            let mine: Vec<&Statement> = statements.iter().skip(tid).step_by(threads).collect();
            let executed = &executed;
            scope.spawn(move || {
                for _ in 0..rounds {
                    for stmt in &mine {
                        client.run(stmt).expect("workload statement runs");
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for _ in 0..ticks {
            cluster.tick_wait().expect("cluster tick succeeds");
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let merged = cluster.merged_query_latency();
    let gather = cluster.gather_stats();
    let pairs = cluster.shutdown().expect("daemon threads live");
    for (_, report) in &pairs {
        if let Some(e) = &report.error {
            panic!("shard daemon tick failed during throughput pass: {e}");
        }
    }
    (wall_ms, executed.load(Ordering::Relaxed), merged, gather)
}

/// Run the whole experiment at `shards` shards.
pub fn run(
    scale: &ExperimentScale,
    shards: usize,
    ticks: u64,
    threads: usize,
    rounds: usize,
    global_budget: f64,
) -> (ServeResult, ServeTelemetry) {
    // Deterministic drives: replay at the requested shard count...
    let first = drive_cluster(scale, shards, ticks, global_budget);
    let second = drive_cluster(scale, shards, ticks, global_budget);
    let replay_identical = first.digest() == second.digest();

    // ...and the 1-shard == unsharded identity.
    let one_shard = if shards == 1 {
        // Reuse the drive already computed instead of a third run.
        None
    } else {
        Some(drive_cluster(scale, 1, ticks, global_budget))
    };
    let one_shard_drive = one_shard.as_ref().unwrap_or(&first);
    let (unsharded_report, unsharded_ticks) = drive_unsharded(scale, ticks, global_budget);
    let flat_ticks: Vec<TickReport> = one_shard_drive
        .tick_reports
        .iter()
        .map(|t| t[0].clone())
        .collect();
    let probes: Vec<BoundSelect> = one_shard_drive
        .statements
        .iter()
        .filter_map(|s| {
            bind_statement(&one_shard_drive.dbs[0], s)
                .ok()
                .and_then(|b| b.as_select().cloned())
        })
        .collect();
    let one_shard_identical = flat_ticks == unsharded_ticks
        && one_shard_drive.reports[0].session.to_json() == unsharded_report.session.to_json()
        && one_shard_drive.reports[0].generation == unsharded_report.generation
        && probe_cost(
            &one_shard_drive.dbs[0],
            &probes,
            &one_shard_drive.reports[0].catalog,
        )
        .to_bits()
            == probe_cost(&one_shard_drive.dbs[0], &probes, &unsharded_report.catalog).to_bits();

    let per_shard = shard_summaries(&first);

    let (wall_ms, throughput_statements, merged, gather) =
        throughput_pass(scale, shards, ticks, threads, rounds, global_budget);
    let qps = if wall_ms > 0.0 {
        throughput_statements as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };

    let result = ServeResult {
        scale: scale.scale,
        shards,
        statements: first.statements.len(),
        ticks: first.tick_reports.len() as u64,
        threads,
        rounds,
        global_budget_per_tick: global_budget,
        throughput_statements,
        wall_ms,
        qps,
        latency_count: merged.count,
        latency_p50_ns: merged.quantile(0.50),
        latency_p99_ns: merged.quantile(0.99),
        latency_p999_ns: merged.quantile(0.999),
        gather,
        one_shard_identical,
        replay_identical,
        per_shard,
    };
    (result, first.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sharded_run_is_deterministic_and_identical_at_one_shard() {
        let scale = ExperimentScale::tiny();
        let (result, telemetry) = run(&scale, 2, 3, 2, 2, f64::INFINITY);
        assert!(
            result.replay_identical,
            "seed-fixed sharded replay diverged"
        );
        assert!(
            result.one_shard_identical,
            "1-shard cluster diverged from the unsharded service"
        );
        assert_eq!(result.shards, 2);
        assert_eq!(result.per_shard.len(), 2);
        assert!(result.throughput_statements > 0);
        assert!(result.qps > 0.0);
        // The interleaved multi-shard health stream validates per shard.
        obsv::check::check_health(&telemetry.health_jsonl).expect("health JSONL valid");
        assert!(telemetry.health_jsonl.contains("\"shard\": 1"));
        obsv::check::check_windows(&telemetry.windows_jsonl).expect("windows JSONL valid");
        let json = result.to_json();
        assert!(json.contains("\"qps\""));
        assert!(json.contains("\"latency_p99_ns\""));
        assert!(json.contains("\"gather_rebuilds\""));
        assert!(json.contains("\"one_shard_identical\": true"));
        assert!(json.contains("\"replay_identical\": true"));
    }
}
