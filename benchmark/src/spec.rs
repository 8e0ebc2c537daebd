//! The frozen part of the benchmark: workload sizes and metric names.
//!
//! `BENCHMARK.json` at the repository root lists the same workload and metric
//! names; the suite mode checks the two against each other so they cannot
//! drift apart silently.

use datagen::Complexity;

/// Which system the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only rounds over a tuned `serve::ServeCluster`.
    Steady,
    /// One cold pass of reads and writes over a sharded cluster.
    Online,
    /// `autostats::OfflineTuner` plus the executor, no serving layer.
    Offline,
}

/// One workload's frozen sizes. Calibrated once on the 2-core dev box so that
/// set-up stays a few seconds and a 10 s measured phase holds at least 1 000
/// SELECT samples; see `benchmark/README.md` for the measurements.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// TPC-D scale factor (`ZipfSpec::Mixed`).
    pub scale: f64,
    /// Rags update percentage (`U0`, `U25`).
    pub update_pct: u8,
    pub complexity: Complexity,
    /// Statements the Rags generator emits: the templates of a steady pool,
    /// the offline workload, or — online — the stream's statements per second
    /// of `--seconds`. The online pass is as long as that product says, never
    /// as long as a timer says, so every run sends the same statements; on
    /// the dev box it lasts about `--seconds`.
    pub statements: usize,
    pub shards: usize,
    pub clients: usize,
    /// Completed statements between two `tick_wait` calls of the main thread.
    pub tick_every: usize,
    /// The traced run also measures the service's own telemetry overhead
    /// (ROADMAP item 1), on the workload whose statements are short enough
    /// for it to show.
    pub telemetry_probe: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady-simple",
        kind: Kind::Steady,
        scale: 0.005,
        update_pct: 0,
        complexity: Complexity::Simple,
        statements: 200,
        shards: 1,
        clients: 2,
        tick_every: 500,
        telemetry_probe: false,
    },
    Workload {
        name: "steady-complex",
        kind: Kind::Steady,
        scale: 0.001,
        update_pct: 0,
        complexity: Complexity::Complex,
        statements: 200,
        shards: 1,
        clients: 2,
        tick_every: 500,
        telemetry_probe: true,
    },
    Workload {
        name: "online-mixed",
        kind: Kind::Online,
        scale: 0.005,
        update_pct: 25,
        complexity: Complexity::Simple,
        statements: 600,
        shards: 2,
        clients: 2,
        tick_every: 100,
        telemetry_probe: false,
    },
    Workload {
        name: "offline-tune",
        kind: Kind::Offline,
        scale: 0.02,
        update_pct: 0,
        complexity: Complexity::Complex,
        statements: 1000,
        shards: 0,
        clients: 1,
        tick_every: 0,
        telemetry_probe: false,
    },
];

/// Every `OFFLINE_SAMPLE_STEP`-th query of the offline workload is executed.
pub const OFFLINE_SAMPLE_STEP: usize = 4;
/// An online client reads the host-speed probe every this many statements,
/// an offline execution round every this many queries.
pub const ONLINE_BLOCK: usize = 100;
pub const OFFLINE_BLOCK: usize = 50;
/// Blocks of an execution round that follow each `tune` of the offline loop.
pub const OFFLINE_BLOCKS_PER_TURN: usize = 3;
/// Set-up is repeated this often per run and `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// `--smoke` divides statement counts and `--seconds` by this.
pub const SMOKE_DIVISOR: usize = 20;
/// The frozen universe: seed of `TpcdConfig` and `WorkloadSpec`. `--seed`
/// only permutes statements inside it (see README, "Seeds").
pub const DEFAULT_UNIVERSE: u64 = 7;
pub const DEFAULT_SEED: u64 = 7;

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("stmt_per_s", "1/s"),
    ("select_p50_us", "us"),
    ("select_p99_us", "us"),
    ("cpu_s_per_kstmt", "s"),
    ("exec_work_per_stmt", "work"),
    ("peak_rss_mb", "MiB"),
    ("tune_work_ratio", "ratio"),
    ("exec_work_ratio", "ratio"),
];

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// (metric, workload kind) pairs that are pure functions of the inputs: two
/// runs with the same seed must agree bit for bit (`--repeat` enforces it).
pub fn is_exact(metric: &str, kind: Kind) -> bool {
    match metric {
        "exec_work_per_stmt" | "tune_work_ratio" | "exec_work_ratio" => kind != Kind::Online,
        _ => false,
    }
}

const ROUTE_CLASSES: [&str; 5] = ["single", "scatter", "broadcast", "fallback", "insert"];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer is
/// a crate. A metric that does not exist on a workload (no DML, no shards, no
/// tuner) reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("query.parse.p50_us", "us"),
        ("query.parse.share_pct", "%"),
        ("query.bind.p50_us", "us"),
        ("query.bind.share_pct", "%"),
        ("optimizer.optimize.p50_us", "us"),
        ("optimizer.optimize.p99_us", "us"),
        ("optimizer.optimize.share_pct", "%"),
        ("optimizer.cache_hit.p50_us", "us"),
        ("optimizer.tuner_cache.hit_rate", "ratio"),
        ("optimizer.calls_per_tuned_query", "count"),
        ("executor.select.p50_us", "us"),
        ("executor.select.p99_us", "us"),
        ("executor.select.share_pct", "%"),
        ("executor.dml.p50_us", "us"),
        ("executor.dml.share_pct", "%"),
        ("executor.work_per_stmt", "work"),
        ("executor.rows_out_per_stmt", "count"),
        ("executor.work_per_us", "work/us"),
        ("autod.observe.p50_us", "us"),
        ("autod.observe.share_pct", "%"),
        ("autod.handle_overhead_us", "us"),
        ("autod.tick.count", "count"),
        ("autod.tick.p50_ms", "ms"),
        ("autod.tick.max_ms", "ms"),
        ("autod.tick.busy_s", "s"),
        ("autod.tick.queries_tuned", "count"),
        ("autod.tick.refreshed", "count"),
        ("autod.tick.tuning_work", "work"),
        ("autod.tick.refresh_work", "work"),
        ("autod.tick.exhausted", "count"),
        ("autod.tick.pending_end", "count"),
        ("autod.epoch.generations", "count"),
        ("autod.monitor.evictions", "count"),
        ("serve.start_s", "s"),
        ("serve.route.p50_us", "us"),
        ("serve.client_overhead_us", "us"),
        ("serve.dml.p50_us", "us"),
        ("serve.dml.p90_us", "us"),
        ("core.mnsa.s", "s"),
        ("core.mnsa.optimizer_calls", "count"),
        ("core.mnsa.stats_created", "count"),
        ("core.mnsa.drop_listed", "count"),
        ("core.shrink.s", "s"),
        ("core.shrink.removed", "count"),
        ("core.candidates.count", "count"),
        ("core.create_all.s", "s"),
        ("core.stats_kept", "count"),
        ("stats.build.s", "s"),
        ("stats.build.count", "count"),
        ("stats.build.work", "work"),
        ("stats.batch_build.s", "s"),
        ("stats.build.share_of_tune_pct", "%"),
        ("storage.rows_end", "count"),
        ("storage.mods_end", "count"),
        ("datagen.build_tpcd.s", "s"),
        ("datagen.rags.s", "s"),
        ("obsv.trace_overhead_pct", "%"),
        ("obsv.sampling_overhead_pct", "%"),
        ("obsv.sample_all_overhead_pct", "%"),
        ("layers.unattributed_pct", "%"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for class in ROUTE_CLASSES {
        all.push((format!("serve.{class}.count"), "count"));
        all.push((format!("serve.{class}.p50_us"), "us"));
        all.push((format!("serve.{class}.time_share_pct"), "%"));
    }
    all
}
