//! Deterministic drive of the sharded serving layer
//! ([`serve::ServeCluster`]): a seeded TPC-D query+update stream routed
//! across N shards by one client, under the shared budget arbiter, checked
//! three ways:
//!
//! * **per-shard convergence under load** — each shard's final catalog is
//!   scored on the distinct single-shard SELECT templates routed to it,
//!   against an offline tune on the same shard database and sample;
//! * **1-shard identity** — a 1-shard cluster drive must be bit-identical
//!   (tick reports, journal JSON including the `ShardAssigned` prelude,
//!   epoch generations, work meters, probe cost) to a plain
//!   [`autod::OnlineService`] fed the same prelude and budget;
//! * **replay** — the whole drive at the requested shard count runs twice
//!   and must agree bit-for-bit.
//!
//! The drive hash-partitions the largest TPC-D table across all shards
//! (when `shards > 1`), so the router's scatter, broadcast, and fallback
//! paths all carry real traffic. Every reported figure is deterministic, so
//! `BENCH_serve.json` is byte-reproducible; throughput and latency of the
//! same cluster under concurrent clients are `benchmark/`'s business.

use super::online::{
    autod_config, digest, distinct_sample, drive_service, gap_pct, interleave, is_quiet,
    offline_probe_cost, probe_cost, stream, Digest, ServiceDrive, TelemetryExport,
};
use crate::common::ExperimentScale;
use autod::{AutodConfig, ServiceReport, TickReport};
use autostats::{OnlineEvent, SessionReport};
use obsv::json::Object;
use query::{bind_statement, BoundSelect, Statement};
use serve::{Route, Router, ServeCluster, ServeConfig, ShardPlan};
use std::sync::Arc;
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
        gap_pct(self.online_probe_cost, self.offline_probe_cost)
    }
}

/// Everything `exp serve` reports (and writes to `BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct ServeResult {
    pub scale: f64,
    pub shards: usize,
    pub statements: usize,
    pub ticks: u64,
    pub global_budget_per_tick: f64,
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

    /// The `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        let per_shard: Vec<Object> = self
            .per_shard
            .iter()
            .map(|s| {
                Object::new()
                    .field("shard", s.shard)
                    .field("statements_routed", s.statements_routed)
                    .field("distinct_templates", s.distinct_templates)
                    .field("queries_tuned", s.queries_tuned)
                    .field("refreshes", s.refreshes)
                    .field("epoch_generation", s.epoch_generation)
                    .field("statistics_built", s.statistics_built)
                    .field("online_probe_cost", s.online_probe_cost)
                    .field("offline_probe_cost", s.offline_probe_cost)
                    .field("convergence_gap_pct", s.convergence_gap_pct())
            })
            .collect();
        Object::new()
            .field("experiment", "serve")
            .field("scale", self.scale)
            .field("shards", self.shards)
            .field("statements", self.statements)
            .field("ticks", self.ticks)
            .field("global_budget_per_tick", self.global_budget_per_tick)
            .field("one_shard_identical", self.one_shard_identical)
            .field("replay_identical", self.replay_identical)
            .field("max_convergence_gap_pct", self.max_convergence_gap_pct())
            .field("per_shard", per_shard)
            .block()
    }

    pub fn print(&self) {
        println!(
            "cluster: {} shards, {} statements, {} ticks (global budget {}/tick)",
            self.shards, self.statements, self.ticks, self.global_budget_per_tick
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
        autod: AutodConfig {
            budget_per_tick: global_budget,
            ..autod_config()
        },
    }
}

/// What one deterministic cluster drive leaves behind.
struct ClusterDrive {
    /// Final shard databases, in shard order.
    dbs: Vec<Database>,
    reports: Vec<ServiceReport>,
    statements: Vec<Statement>,
    /// Outer: shard order; inner: tick order.
    tick_reports: Vec<Vec<TickReport>>,
    plan: ShardPlan,
    telemetry: TelemetryExport,
}

impl ClusterDrive {
    /// The bit-comparable fingerprint: every shard's [`Digest`].
    fn digest(&self) -> Vec<Digest> {
        let shards = self.tick_reports.iter().zip(&self.reports);
        shards.map(|(t, r)| digest(t, r)).collect()
    }
}

/// One deterministic single-client drive of the sharded closed loop.
fn drive_cluster(
    scale: &ExperimentScale,
    shards: usize,
    ticks: u64,
    global_budget: f64,
) -> ClusterDrive {
    let (db, statements) = stream(scale);
    let config = serve_config(&db, shards, global_budget);
    let cluster = ServeCluster::start(db, config).expect("shard split succeeds");
    let plan = cluster.plan().clone();
    let client = cluster.client(1);
    let mut tick_reports = vec![Vec::new(); shards];
    let mut telemetry = TelemetryExport::default();
    interleave(
        &statements,
        ticks,
        |stmt| {
            client
                .run_sql(&query::render(stmt))
                .expect("workload statement runs");
        },
        || {
            let reports = cluster.tick_wait().expect("cluster tick succeeds");
            if let Some(first) = reports.first() {
                let window = cluster.service(0).roll_window(first.tick);
                telemetry.windows_jsonl += &(window.to_json_line() + "\n");
            }
            for health in cluster.health() {
                telemetry.health_jsonl += &(health.to_json_line() + "\n");
            }
            // Quiet only when every shard is.
            let quiet = reports.iter().all(is_quiet);
            for (of_shard, r) in tick_reports.iter_mut().zip(reports) {
                of_shard.push(r);
            }
            quiet
        },
    );
    let pairs = cluster.shutdown().expect("shutdown is always Some");
    let (dbs, reports): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    ClusterDrive {
        dbs,
        reports,
        statements,
        tick_reports,
        plan,
        telemetry,
    }
}

/// The unsharded baseline of the 1-shard identity check: the plain service
/// drive of [`super::online`] over the 1-shard plan's database, with the
/// same `ShardAssigned` prelude journaled that a cluster records.
fn drive_unsharded(scale: &ExperimentScale, ticks: u64, budget: f64) -> ServiceDrive {
    let (db, statements) = stream(scale);
    let plan = ShardPlan::build(&db, 1, usize::MAX);
    let mut shard_dbs = plan.shard_databases(&db).expect("1-shard split succeeds");
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
    let obs = obsv::Obs::disabled();
    drive_service(shard_db, session, obs, &statements, ticks, budget)
}

/// Per-shard convergence: score each shard's final catalog on the distinct
/// single-shard SELECT templates the router sent it, vs an offline tune on
/// the same shard database and sample.
fn shard_summaries(drive: &ClusterDrive) -> Vec<ShardSummary> {
    let router = Router::new(Arc::new(drive.plan.clone()));
    let shards = drive.reports.len();
    let mut routed: Vec<Vec<&Statement>> = vec![Vec::new(); shards];
    for stmt in &drive.statements {
        if let (Statement::Select(_), Route::Single(s)) = (stmt, router.route(stmt)) {
            routed[s].push(stmt);
        }
    }
    (0..shards)
        .map(|s| {
            let db = &drive.dbs[s];
            let sample = distinct_sample(db, routed[s].iter().copied());
            let ticks = &drive.tick_reports[s];
            ShardSummary {
                shard: s,
                statements_routed: routed[s].len(),
                distinct_templates: sample.len(),
                queries_tuned: ticks.iter().map(|t| t.queries_tuned as u64).sum(),
                refreshes: ticks.iter().map(|t| t.refreshed as u64).sum(),
                epoch_generation: drive.reports[s].generation,
                statistics_built: drive.reports[s].catalog.total_count(),
                online_probe_cost: probe_cost(db, &sample, &drive.reports[s].catalog),
                offline_probe_cost: offline_probe_cost(db, &sample, &sample),
            }
        })
        .collect()
}

/// Run the whole experiment at `shards` shards.
pub fn run(
    scale: &ExperimentScale,
    shards: usize,
    ticks: u64,
    global_budget: f64,
) -> (ServeResult, TelemetryExport) {
    // Replay at the requested shard count...
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
    let one_shard = one_shard.as_ref().unwrap_or(&first);
    let unsharded = drive_unsharded(scale, ticks, global_budget);
    let shard_db = &one_shard.dbs[0];
    let probes: Vec<BoundSelect> = one_shard
        .statements
        .iter()
        .filter_map(|s| {
            bind_statement(shard_db, s)
                .ok()
                .and_then(|b| b.as_select().cloned())
        })
        .collect();
    let one_shard_identical = one_shard.digest()
        == [digest(&unsharded.tick_reports, &unsharded.report)]
        && probe_cost(shard_db, &probes, &one_shard.reports[0].catalog).to_bits()
            == probe_cost(shard_db, &probes, &unsharded.report.catalog).to_bits();

    let result = ServeResult {
        scale: scale.scale,
        shards,
        statements: first.statements.len(),
        ticks: first.tick_reports[0].len() as u64,
        global_budget_per_tick: global_budget,
        one_shard_identical,
        replay_identical,
        per_shard: shard_summaries(&first),
    };
    (result, first.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sharded_run_is_deterministic_and_identical_at_one_shard() {
        let scale = ExperimentScale::tiny();
        let run = || run(&scale, 2, 3, f64::INFINITY);
        let (result, telemetry) = run();
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
        // The interleaved multi-shard health stream validates per shard.
        obsv::check::check_health(&telemetry.health_jsonl).expect("health JSONL valid");
        assert!(telemetry.health_jsonl.contains("\"shard\": 1"));
        obsv::check::check_windows(&telemetry.windows_jsonl).expect("windows JSONL valid");
        let json = result.to_json();
        assert!(json.contains("\"one_shard_identical\": true"));
        assert!(json.contains("\"replay_identical\": true"));
        // The artifact is deterministic work only: a second run renders the
        // same bytes, and no wall-clock key is in it.
        assert_eq!(run().0.to_json(), json, "artifact is not byte-reproducible");
        for key in ["qps", "wall_ms", "_ns"] {
            assert!(!json.contains(key), "wall-clock key {key} in {json}");
        }
    }
}
