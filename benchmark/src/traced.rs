//! The traced run of a serving workload: one client, spans recorded by the
//! benchmark around the calls into each crate, per-layer metrics out.
//!
//! Every statement goes through the real `ClusterClient::run_sql` first. For a
//! single-shard SELECT the layers that call went through are then replayed one
//! public function at a time against the same shard and epoch, each under its
//! own span: `query.parse`, `serve.route`, `serve.run_sql.again` and
//! `autod.run_sql` (the client once more and the shard's `QueryHandle`, both
//! as warm as each other, so that their difference is the client's own cost),
//! `query.bind`, `autod.observe`, `optimizer.optimize`, `optimizer.cache_hit`,
//! `executor.select`. Multi-shard routes are attributed
//! whole to their `serve.<class>`. Statements alternate between this traced
//! form and the plain call, so the plain half is the calibration the tracing
//! overhead is measured against, on the same statements in the same state.
//!
//! Per-layer times come from timers around every replayed call of the run.
//! Spans are the artifact for Perfetto and are kept for the first
//! `SPAN_STATEMENTS` traced statements only: `obsv::check::check_chrome`, which
//! every written trace must pass, reads JSON in time quadratic in the file's
//! size (about 80 s for the 3 MB a full run would write).

use crate::digest::{Digest, RowSummary};
use crate::inputs::{database, order};
use crate::reference::Reference;
use crate::serving::{micros, send, set_up, shut_down, Setup, Tick};
use crate::spec::{Kind, Workload};
use crate::sys::{self, median, num, object, pct, percentile, ratio};
use crate::{Outcome, RunOpts};
use autod::QueryHandle;
use autod::{MonitorConfig, TelemetryConfig, WorkloadMonitor};
use executor::execute_plan;
use obsv::{ArgValue, SpanGuard, Tracer};
use optimizer::{OptimizeCache, OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BoundStatement, Statement};
use serve::{ClusterClient, Route, ServeCluster};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One statement whose layers were timed one by one. Times in microseconds;
/// a layer the workload does not have stays 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// The real call, as the client saw it.
    pub real: f64,
    /// The same statement through the client again, and through the shard's
    /// handle: two warm calls, where `real` was a cold one.
    pub again: f64,
    pub handle: f64,
    pub parse: f64,
    pub route: f64,
    pub bind: f64,
    pub observe: f64,
    pub optimize: f64,
    pub cache_hit: f64,
    pub execute: f64,
    pub work: f64,
    pub rows: f64,
}

impl Replay {
    /// The layers a statement passes through on its way, without the warm
    /// cache probe (which the real call never makes).
    fn layers(&self) -> f64 {
        self.parse + self.route + self.bind + self.observe + self.optimize + self.execute
    }
}

/// Run `f` under a child span of `parent` and time it.
pub fn timed<T>(parent: &SpanGuard, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = parent.child(name);
    let t = Instant::now();
    let value = f();
    (value, micros(t))
}

fn column(replays: &[Replay], get: impl Fn(&Replay) -> f64) -> Vec<f64> {
    let mut values: Vec<f64> = replays.iter().map(get).collect();
    sys::sort(&mut values);
    values
}

/// The metrics every traced run derives from its replays.
pub fn layer_metrics(outcome: &mut Outcome, replays: &[Replay]) {
    let real: f64 = replays.iter().map(|r| r.real).sum();
    type Layer = (&'static str, fn(&Replay) -> f64);
    let layers: [Layer; 5] = [
        ("query.parse", |r| r.parse),
        ("query.bind", |r| r.bind),
        ("autod.observe", |r| r.observe),
        ("optimizer.optimize", |r| r.optimize),
        ("executor.select", |r| r.execute),
    ];
    for (name, get) in layers {
        let values = column(replays, get);
        outcome.metric(&format!("{name}.p50_us"), percentile(&values, 50.0));
        outcome.metric(&format!("{name}.share_pct"), pct(values.iter().sum(), real));
    }
    outcome.metric(
        "optimizer.optimize.p99_us",
        percentile(&column(replays, |r| r.optimize), 99.0),
    );
    outcome.metric(
        "executor.select.p99_us",
        percentile(&column(replays, |r| r.execute), 99.0),
    );
    outcome.metric(
        "optimizer.cache_hit.p50_us",
        percentile(&column(replays, |r| r.cache_hit), 50.0),
    );
    outcome.metric(
        "serve.route.p50_us",
        percentile(&column(replays, |r| r.route), 50.0),
    );

    let count = replays.len() as f64;
    let work: f64 = replays.iter().map(|r| r.work).sum();
    outcome.metric("executor.work_per_stmt", ratio(work, count));
    outcome.metric(
        "executor.rows_out_per_stmt",
        ratio(replays.iter().map(|r| r.rows).sum(), count),
    );
    outcome.metric(
        "executor.work_per_us",
        ratio(work, replays.iter().map(|r| r.execute).sum()),
    );
    outcome.metric(
        "layers.unattributed_pct",
        pct(replays.iter().map(|r| r.real - r.layers()).sum(), real),
    );

    let through_handle: Vec<&Replay> = replays.iter().filter(|r| r.handle > 0.0).collect();
    let mut handle_overhead: Vec<f64> = through_handle
        .iter()
        .map(|r| r.handle - (r.layers() - r.route))
        .collect();
    let mut client_overhead: Vec<f64> = through_handle.iter().map(|r| r.again - r.handle).collect();
    outcome.metric("autod.handle_overhead_us", median(&mut handle_overhead));
    outcome.metric("serve.client_overhead_us", median(&mut client_overhead));
}

/// Traced statements whose spans are kept (see the module docs). With the
/// plain ones between them that is four whole rounds of a steady pool, so
/// both halves of the overhead comparison hold every template twice.
const SPAN_STATEMENTS: usize = 400;

/// Hands out the `stmt` root spans while the span window is open, and keeps
/// the real-call times of that window's traced and plain statements apart.
pub struct SpanWindow {
    tracer: Tracer,
    recorded: usize,
    traced_us: Vec<f64>,
    plain_us: Vec<f64>,
}

impl SpanWindow {
    pub fn new(tracer: &Tracer) -> SpanWindow {
        SpanWindow {
            tracer: tracer.clone(),
            recorded: 0,
            traced_us: Vec::new(),
            plain_us: Vec::new(),
        }
    }

    /// The root span of the next statement: live when the statement is a
    /// traced one and the window is open, else disabled (as are its children).
    pub fn root(&mut self, trace: bool, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
        if trace && self.recorded < SPAN_STATEMENTS {
            self.recorded += 1;
            self.tracer.span_with("stmt", args)
        } else {
            Tracer::disabled().span("stmt")
        }
    }

    /// Note the real call's time of the statement `root` belonged to.
    pub fn observe(&mut self, root: &SpanGuard, real_us: f64) {
        if root.is_enabled() {
            self.traced_us.push(real_us);
        } else if self.recorded < SPAN_STATEMENTS {
            self.plain_us.push(real_us);
        }
    }

    /// Tracing overhead: the median real call under a span against the median
    /// plain call of the same window.
    pub fn overhead_pct(&mut self) -> f64 {
        let plain = median(&mut self.plain_us);
        pct(median(&mut self.traced_us) - plain, plain)
    }
}

/// Write the trace in Chrome format beside the result file and validate it.
/// Returns whether `obsv::check::check_chrome` accepted it.
pub fn write_trace(workload: &str, tracer: &Tracer) -> Result<bool, String> {
    let chrome = obsv::export::to_chrome(&tracer.flush());
    let path = crate::suite::trace_path(workload);
    std::fs::create_dir_all(crate::suite::RESULTS_DIR).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(&path, &chrome).map_err(|e| format!("{path}: {e}"))?;
    match obsv::check::check_chrome(&chrome) {
        Ok(_) => Ok(true),
        Err(e) => {
            eprintln!("sysbench: {path} is not a valid trace: {e}");
            Ok(false)
        }
    }
}

fn class_of(route: &Route) -> &'static str {
    match route {
        Route::Single(_) => "single",
        Route::PartitionedInsert(_) => "insert",
        Route::Broadcast => "broadcast",
        Route::Scatter => "scatter",
        Route::Fallback => "fallback",
    }
}

/// Median client-observed seconds per round of `rounds_s` seconds' worth of
/// single-client rounds over a steady workload set up with `telemetry`.
fn round_seconds(
    w: &Workload,
    opts: &RunOpts,
    telemetry: TelemetryConfig,
    rounds_s: f64,
) -> Result<f64, String> {
    let setup = set_up(w, opts, telemetry)?;
    let client = setup.cluster.client(1);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while start.elapsed().as_secs_f64() < rounds_s {
        let mut round = 0.0;
        for sql in &setup.inputs.sql {
            let (result, us) = send(&client, sql);
            result?;
            round += us;
        }
        rounds.push(round / 1e6);
    }
    shut_down(setup.cluster)?;
    Ok(median(&mut rounds))
}

/// The service's own telemetry, measured from outside: the same rounds with
/// the slow-query log off, at the default sampling, and sampling everything.
fn telemetry_overhead(w: &Workload, opts: &RunOpts, outcome: &mut Outcome) -> Result<(), String> {
    let rounds_s = opts.seconds / 10.0;
    let default = TelemetryConfig::default();
    let off = round_seconds(
        w,
        opts,
        TelemetryConfig {
            slowlog_k: 0,
            ..default
        },
        rounds_s,
    )?;
    let sampled = round_seconds(w, opts, default, rounds_s)?;
    let all = round_seconds(
        w,
        opts,
        TelemetryConfig {
            sample_one_in: 1,
            ..default
        },
        rounds_s,
    )?;
    outcome.metric("obsv.sampling_overhead_pct", pct(sampled - off, off));
    outcome.metric("obsv.sample_all_overhead_pct", pct(all - sampled, sampled));
    Ok(())
}

/// Replays the layers of a single-shard SELECT one public call at a time.
struct Replayer<'a> {
    cluster: &'a ServeCluster,
    client: ClusterClient,
    /// One `QueryHandle` per shard.
    handles: Vec<QueryHandle>,
    optimizer: Optimizer,
    options: OptimizeOptions,
    /// Benchmark-owned, so that probing it disturbs no shard's tuner.
    cache: OptimizeCache,
    monitor: WorkloadMonitor,
}

impl<'a> Replayer<'a> {
    fn new(cluster: &'a ServeCluster) -> Replayer<'a> {
        Replayer {
            cluster,
            client: cluster.client(1),
            handles: cluster.services().iter().map(|s| s.handle(2)).collect(),
            optimizer: Optimizer::default(),
            options: OptimizeOptions::default(),
            cache: OptimizeCache::new(),
            monitor: WorkloadMonitor::new(MonitorConfig::default()),
        }
    }

    /// Replay `sql`, whose real call took `real` microseconds, against `shard`
    /// as it is now: each layer under its own child span of `root`.
    fn replay(
        &mut self,
        root: &SpanGuard,
        sql: &str,
        shard: usize,
        real: f64,
        tick: u64,
    ) -> Result<Replay, String> {
        let mut replay = Replay {
            real,
            ..Replay::default()
        };
        let (parsed, us) = timed(root, "query.parse", || parse_statement(sql));
        replay.parse = us;
        let parsed = parsed.map_err(|e| format!("replay parse: {e}"))?;
        replay.route = timed(root, "serve.route", || self.client.router().route(&parsed)).1;
        let (again, us) = timed(root, "serve.run_sql.again", || self.client.run_sql(sql));
        replay.again = us;
        again.map_err(|e| format!("replay through the client: {e}"))?;
        let (again, us) = timed(root, "autod.run_sql", || self.handles[shard].run_sql(sql));
        replay.handle = us;
        again.map_err(|e| format!("replay through the shard handle: {e}"))?;

        let service = self.cluster.service(shard);
        let lock = service.database();
        let db = lock.read();
        let epoch = service.epoch();
        let stats = || epoch.catalog.full_view();
        let (optimizer, options, cache) = (&self.optimizer, &self.options, &self.cache);
        let (bound, us) = timed(root, "query.bind", || bind_statement(&db, &parsed));
        replay.bind = us;
        let BoundStatement::Select(query) = bound.map_err(|e| format!("replay bind: {e}"))? else {
            return Err("a SELECT bound to something else".to_string());
        };
        replay.observe = timed(root, "autod.observe", || self.monitor.observe(&query, tick)).1;
        let (plan, us) = timed(root, "optimizer.optimize", || {
            optimizer.optimize(&db, &query, stats(), options)
        });
        replay.optimize = us;
        let plan = plan.map_err(|e| format!("replay optimize: {e}"))?;
        // Fill the cache outside any span; the span is the warm hit.
        optimizer
            .optimize_cached(&db, &query, stats(), options, cache)
            .map_err(|e| format!("replay cache fill: {e}"))?;
        replay.cache_hit = timed(root, "optimizer.cache_hit", || {
            optimizer.optimize_cached(&db, &query, stats(), options, cache)
        })
        .1;
        let (output, us) = timed(root, "executor.select", || {
            execute_plan(&db, &query, &plan.plan, &optimizer.params)
        });
        replay.execute = us;
        let output = output.map_err(|e| format!("replay execute: {e}"))?;
        replay.work = output.work;
        replay.rows = output.rows.len() as f64;
        Ok(replay)
    }
}

/// What the ticks of a traced pass did, from their reports.
fn tick_metrics(outcome: &mut Outcome, ticks: &[Tick]) -> f64 {
    let reports = || ticks.iter().flat_map(|t| &t.reports);
    let mut tick_ms: Vec<f64> = ticks.iter().map(|t| t.seconds * 1e3).collect();
    sys::sort(&mut tick_ms);
    let queries_tuned: f64 = reports().map(|r| r.queries_tuned as f64).sum();
    outcome.metric("autod.tick.count", ticks.len() as f64);
    outcome.metric("autod.tick.p50_ms", percentile(&tick_ms, 50.0));
    outcome.metric("autod.tick.max_ms", tick_ms.last().copied().unwrap_or(0.0));
    outcome.metric("autod.tick.busy_s", ticks.iter().map(|t| t.seconds).sum());
    outcome.metric("autod.tick.queries_tuned", queries_tuned);
    outcome.metric(
        "autod.tick.refreshed",
        reports().map(|r| r.refreshed as f64).sum(),
    );
    outcome.metric(
        "autod.tick.tuning_work",
        reports().map(|r| r.tuning_work).sum(),
    );
    outcome.metric(
        "autod.tick.refresh_work",
        reports().map(|r| r.refresh_work).sum(),
    );
    outcome.metric(
        "autod.tick.exhausted",
        reports().filter(|r| r.budget_exhausted).count() as f64,
    );
    outcome.metric(
        "autod.tick.pending_end",
        ticks
            .last()
            .map_or(0.0, |t| t.reports.iter().map(|r| r.pending as f64).sum()),
    );
    queries_tuned
}

/// Run one serving workload traced and report the per-layer metrics.
pub fn run(w: &Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let setup = set_up(w, opts, TelemetryConfig::default())?;
    let Setup {
        cluster,
        inputs,
        expect,
        ..
    } = &setup;
    let n = inputs.sql.len();
    let steady = w.kind == Kind::Steady;
    // Online: the unsharded mirror every outcome is compared with. It sees
    // every statement in the order the one client sends them, so here the
    // sharded cluster and the single database must agree exactly.
    let mut mirror = if steady {
        None
    } else {
        Some(Reference::build(
            database(w, opts.universe),
            &inputs.statements,
        )?)
    };

    let tracer = Tracer::enabled();
    let client = cluster.client(1);
    let router = cluster.router().clone();
    let mut replayer = Replayer::new(cluster);

    let mut outcome = Outcome::new(0, 0);
    let mut replays: Vec<Replay> = Vec::new();
    let mut window = SpanWindow::new(&tracer);
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut dml_us: Vec<f64> = Vec::new();
    let (mut mirror_dml_us, mut mirror_dml_real) = (Vec::new(), 0.0);
    let mut ticks: Vec<Tick> = Vec::new();

    // A steady pool in a seeded order; the online stream in stream order, as
    // far as `--seconds` allow (replays and the mirror make this pass slower
    // than the untraced one, which sends the whole stream).
    let sequence: Vec<usize> = if steady {
        order(n, opts.seed, 1)
    } else {
        (0..n).collect()
    };
    let deadline = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut sent = 0usize;
    let mut round = 0usize;
    'run: loop {
        for (k, &index) in sequence.iter().enumerate() {
            if !steady && start.elapsed() >= deadline {
                break 'run;
            }
            let (sql, stmt) = (&inputs.sql[index], &inputs.statements[index]);
            let route = router.route(stmt);
            let class = class_of(&route);
            // Alternate per statement, and flip per round so that every
            // template is sent both ways.
            let trace = (round + k) % 2 == 1;
            let root = window.root(
                trace,
                vec![("index", index.into()), ("route", class.into())],
            );

            let t = Instant::now();
            let result = {
                let _span = root.child("serve.run_sql");
                client.run_sql(sql)
            };
            let real = micros(t);
            window.observe(&root, real);
            by_class.entry(class).or_default().push(real);
            let is_select = matches!(stmt, Statement::Select(_));
            if !is_select {
                dml_us.push(real);
            }
            outcome.attempted += 1;
            let mut ok = match &result {
                Ok(out) => !steady || Digest::of(out) == expect[index],
                Err(_) => false,
            };

            if let (true, Route::Single(shard), true) = (trace, &route, is_select) {
                let tick = ticks.len() as u64;
                replays.push(replayer.replay(&root, sql, *shard, real, tick)?);
            }
            drop(root);

            if let Some(mirror) = mirror.as_mut() {
                let t = Instant::now();
                let mirrored = {
                    let _span = (!is_select).then(|| tracer.span("executor.dml"));
                    mirror.run(stmt)?
                };
                if !is_select {
                    mirror_dml_us.push(micros(t));
                    mirror_dml_real += real;
                }
                if let Ok(out) = &result {
                    ok &= RowSummary::of(out).same_rows(&RowSummary::of(&mirrored));
                }
            }
            if !ok {
                outcome.failed += 1;
            }

            sent += 1;
            if sent.is_multiple_of(w.tick_every) {
                let _span = tracer.span("autod.tick");
                let tick = Tick::wait(cluster)?;
                if steady {
                    outcome.attempted += 1;
                    if !tick.is_quiet() {
                        outcome.failed += 1;
                    }
                }
                ticks.push(tick);
            }
        }
        round += 1;
        if !steady || start.elapsed() >= deadline {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    layer_metrics(&mut outcome, &replays);
    outcome.metric("obsv.trace_overhead_pct", window.overhead_pct());

    let all_real: f64 = by_class.values().flatten().sum();
    for (class, times) in &mut by_class {
        sys::sort(times);
        outcome.metric(&format!("serve.{class}.count"), times.len() as f64);
        outcome.metric(&format!("serve.{class}.p50_us"), percentile(times, 50.0));
        outcome.metric(
            &format!("serve.{class}.time_share_pct"),
            pct(times.iter().sum(), all_real),
        );
    }
    sys::sort(&mut dml_us);
    outcome.metric("serve.dml.p50_us", percentile(&dml_us, 50.0));
    outcome.metric("serve.dml.p90_us", percentile(&dml_us, 90.0));
    outcome.metric(
        "executor.dml.share_pct",
        pct(mirror_dml_us.iter().sum(), mirror_dml_real),
    );
    outcome.metric("executor.dml.p50_us", median(&mut mirror_dml_us));

    let queries_tuned = tick_metrics(&mut outcome, &ticks);

    let health = cluster.merged_health();
    let tuner_calls = (health.cache_hits + health.cache_misses) as f64;
    outcome.metric(
        "autod.epoch.generations",
        cluster.generations().iter().sum::<u64>() as f64,
    );
    outcome.metric("autod.monitor.evictions", health.monitor_evictions as f64);
    outcome.metric("optimizer.tuner_cache.hit_rate", health.cache_hit_rate());
    outcome.metric(
        "optimizer.calls_per_tuned_query",
        ratio(tuner_calls, queries_tuned),
    );

    let (mut rows_end, mut mods_end) = (0usize, 0u64);
    for service in cluster.services() {
        let lock = service.database();
        let db = lock.read();
        rows_end += db.total_rows();
        mods_end += db.modification_snapshot().values().sum::<u64>();
    }
    outcome.metric("storage.rows_end", rows_end as f64);
    outcome.metric("storage.mods_end", mods_end as f64);
    outcome.metric("datagen.build_tpcd.s", inputs.build_tpcd_s);
    outcome.metric("datagen.rags.s", inputs.rags_s);
    outcome.metric("serve.start_s", setup.start_s);
    if let Some(mirror) = &mirror {
        outcome.metric("core.candidates.count", mirror.candidates as f64);
        outcome.metric("core.create_all.s", mirror.create_all_s);
    }

    outcome.detail(
        "samples",
        object(vec![
            ("statements", num(sent as f64)),
            ("replayed", num(replays.len() as f64)),
            ("with_spans", num(window.recorded as f64)),
            ("dml", num(dml_us.len() as f64)),
            ("ticks", num(ticks.len() as f64)),
        ]),
    );
    outcome.detail(
        "phases_s",
        object(vec![
            ("setup", num(setup.total_s)),
            ("measured", num(measured_s)),
        ]),
    );

    outcome.attempted += 1;
    if !write_trace(w.name, &tracer)? {
        outcome.failed += 1;
    }
    shut_down(setup.cluster)?;
    if w.telemetry_probe {
        telemetry_overhead(w, opts, &mut outcome)?;
    }
    Ok(outcome)
}
