//! The online lifecycle loop end to end: a seeded TPC-D query+update stream
//! against [`autod::OnlineService`], starting from **zero** statistics.
//!
//! The driver interleaves the workload with deterministic virtual-time
//! ticks. Mid-run, a whole-table bulk UPDATE makes every statistic on
//! `lineitem` stale, so the daemon's staleness refreshes become visible in
//! the `autod.*` metrics and the journal. After the stream, the daemon is
//! ticked until quiescent and the run is measured three ways:
//!
//! * **plan quality vs time** — each published epoch's catalog is scored by
//!   optimizing the fixed TPC-D probe queries against the final database;
//!   the trajectory should descend from the zero-statistics baseline toward
//!   the offline-tuned cost;
//! * **convergence** — the final online catalog's probe cost lands within a
//!   few percent of [`OfflineTuner::tune`](autostats::OfflineTuner) run on
//!   the same deduplicated query sample;
//! * **determinism** — the whole single-threaded drive is executed twice
//!   and must agree bit-for-bit: per-tick reports, work meters
//!   (`f64::to_bits`), epoch generations, and the journal's JSON rendering.
//!
//! Every reported figure is deterministic work, so `BENCH_online.json` is
//! byte-reproducible; wall-clock throughput and latency of the same loop are
//! `benchmark/`'s business (`online-mixed`).
//!
//! The deterministic service drive and its inputs live here and are shared
//! with [`super::serve`], whose unsharded baseline is this same drive.

use crate::common::ExperimentScale;
use autod::{AutodConfig, CatalogEpoch, OnlineService, ServiceReport, TelemetryConfig, TickReport};
use autostats::{OfflineTuner, SessionReport};
use datagen::{tpcd_benchmark_queries, Complexity, RagsGenerator, WorkloadSpec};
use obsv::json::Object;
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_select, bind_statement, parse_statement, BoundSelect, BoundStatement, Statement};
use stats::StatsCatalog;
use std::collections::BTreeSet;
use std::sync::Arc;
use storage::Database;

/// One point of the plan-quality-vs-time curve.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    pub tick: u64,
    pub generation: u64,
    /// Total optimizer cost of the probe queries under this epoch's catalog.
    pub probe_cost: f64,
}

/// The telemetry streams one deterministic drive exports (JSONL, validated
/// by `obsv_check --windows / --health / --jsonl`).
#[derive(Debug, Clone, Default)]
pub struct TelemetryExport {
    /// One [`obsv::WindowDelta`] per tick (a cluster drive: shard 0's).
    pub windows_jsonl: String,
    /// One [`obsv::HealthSnapshot`] per tick (a cluster drive: one per
    /// shard per tick, interleaved; `obsv_check --health` validates
    /// per-shard tick monotonicity, `obsv_top` renders the dashboard).
    pub health_jsonl: String,
    /// The slow-query reservoir as one valid trace stream (service drives
    /// only).
    pub slowlog_jsonl: String,
}

/// Everything `exp online` reports (and writes to `BENCH_online.json`).
#[derive(Debug, Clone)]
pub struct OnlineResult {
    pub scale: f64,
    pub statements: usize,
    pub ticks: u64,
    pub budget_per_tick: f64,
    pub distinct_templates: usize,
    pub queries_tuned: u64,
    pub tuning_work: f64,
    pub refreshes: u64,
    pub refresh_work: f64,
    pub budget_exhausted_ticks: u64,
    pub epoch_generation: u64,
    pub statistics_built: usize,
    /// Probe cost with no statistics at all (the starting point).
    pub baseline_probe_cost: f64,
    /// Probe cost under the daemon's final catalog.
    pub online_probe_cost: f64,
    /// Probe cost under an offline `tune` on the same deduplicated sample.
    pub offline_probe_cost: f64,
    pub trajectory: Vec<TrajectoryPoint>,
    /// True when the seed-fixed single-threaded rerun was bit-identical.
    pub rerun_identical: bool,
}

/// How far an online catalog's probe cost sits from the offline-tuned one,
/// in percent of the offline cost.
pub(crate) fn gap_pct(online_probe_cost: f64, offline_probe_cost: f64) -> f64 {
    if offline_probe_cost <= 0.0 {
        return 0.0;
    }
    (online_probe_cost - offline_probe_cost).abs() / offline_probe_cost * 100.0
}

impl OnlineResult {
    /// Convergence gap of the final online catalog, see `gap_pct`.
    pub fn convergence_gap_pct(&self) -> f64 {
        gap_pct(self.online_probe_cost, self.offline_probe_cost)
    }

    /// The `BENCH_online.json` document.
    pub fn to_json(&self) -> String {
        let trajectory: Vec<Object> = self
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
            .field("experiment", "online")
            .field("scale", self.scale)
            .field("statements", self.statements)
            .field("ticks", self.ticks)
            .field("budget_per_tick", self.budget_per_tick)
            .field("distinct_templates", self.distinct_templates)
            .field("queries_tuned", self.queries_tuned)
            .field("tuning_work", self.tuning_work)
            .field("refreshes", self.refreshes)
            .field("refresh_work", self.refresh_work)
            .field("budget_exhausted_ticks", self.budget_exhausted_ticks)
            .field("epoch_generation", self.epoch_generation)
            .field("statistics_built", self.statistics_built)
            .field("baseline_probe_cost", self.baseline_probe_cost)
            .field("online_probe_cost", self.online_probe_cost)
            .field("offline_probe_cost", self.offline_probe_cost)
            .field("convergence_gap_pct", self.convergence_gap_pct())
            .field("trajectory", trajectory)
            .field("rerun_identical", self.rerun_identical)
            .block()
    }

    pub fn print(&self) {
        println!(
            "stream: {} statements, {} distinct templates, {} ticks (budget {}/tick)",
            self.statements, self.distinct_templates, self.ticks, self.budget_per_tick
        );
        println!(
            "daemon: tuned {} templates (work {:.0}), refreshed {} statistics (work {:.0}), {} exhausted ticks, generation {}",
            self.queries_tuned,
            self.tuning_work,
            self.refreshes,
            self.refresh_work,
            self.budget_exhausted_ticks,
            self.epoch_generation
        );
        println!(
            "probes: baseline {:.0} -> online {:.0} vs offline {:.0}  (gap {:.2}%)",
            self.baseline_probe_cost,
            self.online_probe_cost,
            self.offline_probe_cost,
            self.convergence_gap_pct()
        );
        for p in &self.trajectory {
            println!(
                "  tick {:>4}  generation {:>3}  probe cost {:>12.0}",
                p.tick, p.generation, p.probe_cost
            );
        }
        println!(
            "determinism: seed-fixed single-threaded rerun identical = {}",
            self.rerun_identical
        );
    }
}

/// What one deterministic drive of one [`OnlineService`] leaves behind.
pub(crate) struct ServiceDrive {
    pub db: Database,
    pub report: ServiceReport,
    pub tick_reports: Vec<TickReport>,
    /// Epoch captured after each tick, in tick order.
    pub epochs: Vec<Arc<CatalogEpoch>>,
    pub telemetry: TelemetryExport,
}

/// The bit-comparable fingerprint of one service's drive: per-tick reports,
/// the journal rendering, the final generation, and the refresh and tuning
/// work meters by bit pattern.
pub(crate) type Digest = (Vec<TickReport>, String, u64, u64, u64);

pub(crate) fn digest(tick_reports: &[TickReport], report: &ServiceReport) -> Digest {
    let refresh: f64 = tick_reports.iter().map(|r| r.refresh_work).sum();
    let tuning: f64 = tick_reports.iter().map(|r| r.tuning_work).sum();
    (
        tick_reports.to_vec(),
        report.session.to_json(),
        report.generation,
        refresh.to_bits(),
        tuning.to_bits(),
    )
}

pub(crate) fn autod_config() -> AutodConfig {
    AutodConfig {
        shrink_every: 4,
        // Sample every template: the bench slow-query export should always
        // contain executor span trees, whatever the workload's fingerprints.
        telemetry: TelemetryConfig {
            sample_one_in: 1,
            ..TelemetryConfig::default()
        },
        ..AutodConfig::default()
    }
}

/// TPCD_MIX at `scale` and the seeded U20-S statement stream over it.
pub(crate) fn stream(scale: &ExperimentScale) -> (Database, Vec<Statement>) {
    let db = scale.tpcd_mix();
    let spec = WorkloadSpec::new(20, Complexity::Simple, scale.workload_len).with_seed(scale.seed);
    let statements = RagsGenerator::generate(&db, &spec);
    (db, statements)
}

/// The mid-run bulk modification: every `lineitem` row is touched, so every
/// statistic on the table crosses the `max(500, 20% of rows)` threshold (on
/// a partitioned cluster it broadcasts, and *every* shard refreshes).
const BULK_UPDATE_SQL: &str = "UPDATE lineitem SET l_linenumber = 1";

/// A tick after which a drive may stop: nothing tuned, refreshed or
/// published, and the budget not exhausted.
pub(crate) fn is_quiet(r: &TickReport) -> bool {
    r.queries_tuned == 0
        && r.refreshed == 0
        && !r.budget_exhausted
        && r.published_generation.is_none()
}

/// The statement/tick interleave of every deterministic drive: `run` each
/// statement in order, `tick` after every `len / ticks` of them, then keep
/// ticking until `tick` reports a quiet one.
pub(crate) fn interleave(
    statements: &[Statement],
    ticks: u64,
    mut run: impl FnMut(&Statement),
    mut tick: impl FnMut() -> bool,
) {
    let bulk = parse_statement(BULK_UPDATE_SQL).expect("bulk update parses");
    let chunk = (statements.len() / ticks.max(1) as usize).max(1);
    // Three quarters into the stream: late enough that earlier ticks have
    // already built statistics on `lineitem`, so the bulk write makes real
    // statistics stale instead of merely preceding their construction.
    let bulk_at = statements.len() * 3 / 4;
    for (i, stmt) in statements.iter().enumerate() {
        if i == bulk_at {
            run(&bulk);
        }
        run(stmt);
        if (i + 1) % chunk == 0 {
            tick();
        }
    }
    // Drain. Deterministic — the daemon is a pure state machine — and
    // bounded as a backstop.
    for _ in 0..512 {
        if tick() {
            break;
        }
    }
}

/// One deterministic single-client drive of the closed loop over `db`,
/// from zero statistics and a journal that starts as `session`, every tick
/// funded with `budget` work units.
pub(crate) fn drive_service(
    db: Database,
    session: SessionReport,
    obs: obsv::Obs,
    statements: &[Statement],
    ticks: u64,
    budget: f64,
) -> ServiceDrive {
    let svc = OnlineService::start(db, StatsCatalog::new(), session, obs, autod_config());
    let handle = svc.handle(1);
    let mut tick_reports = Vec::new();
    let mut epochs = Vec::new();
    let mut telemetry = TelemetryExport::default();
    interleave(
        statements,
        ticks,
        |stmt| {
            handle
                .run_sql(&query::render(stmt))
                .expect("workload statement runs");
        },
        || {
            let r = svc.tick_wait_budgeted(budget).expect("tick succeeds");
            epochs.push(svc.epoch());
            telemetry.windows_jsonl += &(svc.roll_window(r.tick).to_json_line() + "\n");
            telemetry.health_jsonl += &(svc.health().to_json_line() + "\n");
            let quiet = is_quiet(&r);
            tick_reports.push(r);
            quiet
        },
    );
    telemetry.slowlog_jsonl = obsv::slowlog::to_jsonl(&svc.drain_slow_queries());
    let (db, report) = svc.shutdown();
    ServiceDrive {
        db,
        report,
        tick_reports,
        epochs,
        telemetry,
    }
}

/// Total optimizer cost of `probes` under `catalog` against `db`.
pub(crate) fn probe_cost(db: &Database, probes: &[BoundSelect], catalog: &StatsCatalog) -> f64 {
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
pub(crate) fn distinct_sample<'a>(
    db: &Database,
    statements: impl IntoIterator<Item = &'a Statement>,
) -> Vec<BoundSelect> {
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

/// Total optimizer cost of `probes` under an offline tune from scratch on
/// `sample`: what the online catalog is expected to converge to.
pub(crate) fn offline_probe_cost(
    db: &Database,
    sample: &[BoundSelect],
    probes: &[BoundSelect],
) -> f64 {
    let mut catalog = StatsCatalog::new();
    OfflineTuner::default()
        .tune(db, &mut catalog, sample)
        .expect("offline tune succeeds");
    probe_cost(db, probes, &catalog)
}

/// Run the whole experiment. `obs` instruments the *first* deterministic
/// drive (the rerun runs unobserved — by the determinism contract,
/// instrumentation may not change any outcome).
pub fn run(
    scale: &ExperimentScale,
    ticks: u64,
    budget_per_tick: f64,
    obs: obsv::Obs,
) -> (OnlineResult, SessionReport, TelemetryExport) {
    let (db, statements) = stream(scale);
    let drive = |obs: obsv::Obs| {
        let session = SessionReport::default();
        drive_service(
            db.clone(),
            session,
            obs,
            &statements,
            ticks,
            budget_per_tick,
        )
    };
    let first = drive(obs);
    let second = drive(obsv::Obs::disabled());
    let rerun_identical =
        digest(&first.tick_reports, &first.report) == digest(&second.tick_reports, &second.report);

    let probes: Vec<BoundSelect> = tpcd_benchmark_queries()
        .iter()
        .filter_map(|s| bind_select(&first.db, s).ok())
        .collect();

    let baseline_probe_cost = probe_cost(&first.db, &probes, &StatsCatalog::new());
    let online_probe_cost = probe_cost(&first.db, &probes, &first.report.catalog);
    let trajectory: Vec<TrajectoryPoint> = first
        .tick_reports
        .iter()
        .zip(&first.epochs)
        .map(|(r, e)| TrajectoryPoint {
            tick: r.tick,
            generation: e.generation,
            probe_cost: probe_cost(&first.db, &probes, &e.catalog),
        })
        .collect();

    // Offline baseline: the same deduplicated sample, against the final
    // database.
    let sample = distinct_sample(&first.db, &statements);
    let offline_probe_cost = offline_probe_cost(&first.db, &sample, &probes);

    let result = OnlineResult {
        scale: scale.scale,
        statements: statements.len(),
        ticks: first.tick_reports.len() as u64,
        budget_per_tick,
        distinct_templates: first.report.templates.len(),
        queries_tuned: first
            .tick_reports
            .iter()
            .map(|r| r.queries_tuned as u64)
            .sum(),
        tuning_work: first.tick_reports.iter().map(|r| r.tuning_work).sum(),
        refreshes: first.tick_reports.iter().map(|r| r.refreshed as u64).sum(),
        refresh_work: first.tick_reports.iter().map(|r| r.refresh_work).sum(),
        budget_exhausted_ticks: first
            .tick_reports
            .iter()
            .filter(|r| r.budget_exhausted)
            .count() as u64,
        epoch_generation: first.report.generation,
        statistics_built: first.report.catalog.total_count(),
        baseline_probe_cost,
        online_probe_cost,
        offline_probe_cost,
        trajectory,
        rerun_identical,
    };
    (result, first.report.session, first.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_online_run_is_deterministic_and_converges() {
        let scale = ExperimentScale::tiny();
        let run = || run(&scale, 3, f64::INFINITY, obsv::Obs::disabled());
        let (result, session, telemetry) = run();
        assert!(result.rerun_identical, "seed-fixed rerun diverged");
        assert!(result.statements > 0);
        assert!(result.refreshes > 0, "bulk update must trigger refreshes");
        assert!(!session.online.is_empty(), "journal records online events");
        // The telemetry streams validate under their own checkers.
        obsv::check::check_windows(&telemetry.windows_jsonl).expect("windows JSONL valid");
        obsv::check::check_health(&telemetry.health_jsonl).expect("health JSONL valid");
        let slow = obsv::check::check_jsonl(&telemetry.slowlog_jsonl).expect("slowlog JSONL valid");
        assert!(slow.spans > 0, "slow-query reservoir captured span trees");
        assert!(
            telemetry.slowlog_jsonl.contains("exec."),
            "slowlog spans include executor operators"
        );
        assert!(result.epoch_generation > 0, "epochs were published");
        // With an unconstrained budget the online catalog should match the
        // offline one closely (same MNSA, same sample, shared shrink tail).
        assert!(
            result.convergence_gap_pct() <= 20.0,
            "gap {:.2}% (online {:.0} vs offline {:.0})",
            result.convergence_gap_pct(),
            result.online_probe_cost,
            result.offline_probe_cost
        );
        // JSON renders and contains the headline counters.
        let json = result.to_json();
        assert!(json.contains("\"rerun_identical\": true"));
        assert!(json.contains("\"trajectory\""));
        // The artifact is deterministic work only: a second run renders the
        // same bytes, and no wall-clock key is in it.
        assert_eq!(run().0.to_json(), json, "artifact is not byte-reproducible");
        for key in ["qps", "wall_ms", "_ns"] {
            assert!(!json.contains(key), "wall-clock key {key} in {json}");
        }
    }
}
