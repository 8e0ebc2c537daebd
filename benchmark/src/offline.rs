//! `offline-tune`: the paper's periodic process (§6) and its own evaluation
//! (Figs. 3-4). `OfflineTuner::tune` from an empty catalog, taking turns with
//! one client executing a fixed sample of the workload under the tuned
//! catalog; then the all-candidates oracle for the two work ratios.

use crate::digest::{Digest, RowSummary};
use crate::inputs::{database, order, Inputs};
use crate::reference::Reference;
use crate::serving::micros;
use crate::spec::{Workload, OFFLINE_BLOCK, OFFLINE_BLOCKS_PER_TURN, OFFLINE_SAMPLE_STEP};
use crate::speed::{self, Factors, Meter, Probe, Scaled};
use crate::sys::{self, cpu_seconds, median, num, object, pct, peak_rss_mib, percentile, ratio};
use crate::traced::{layer_metrics, timed, write_trace, Replay, SpanWindow};
use crate::{Outcome, RunOpts};
use autostats::{shrinking_set, Equivalence, MnsaConfig, MnsaEngine, OfflineTuner};
use executor::{execute_plan, StatementOutcome};
use obsv::json::Json;
use obsv::Tracer;
use optimizer::{OptimizeCache, OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::{StatDescriptor, StatsCatalog};
use std::time::Instant;
use storage::Database;

struct Setup {
    db: Database,
    inputs: Inputs,
    /// The whole workload, bound, in universe order.
    workload: Vec<BoundSelect>,
    /// Indices of the executed sample, in the order `--seed` sends them.
    sample: Vec<usize>,
    total_s: f64,
}

fn bind_select(db: &Database, sql: &str) -> Result<BoundSelect, String> {
    let stmt = parse_statement(sql).map_err(|e| format!("parse: {e}"))?;
    match bind_statement(db, &stmt).map_err(|e| format!("bind: {e}"))? {
        BoundStatement::Select(query) => Ok(query),
        _ => Err("the offline workload holds SELECTs only".to_string()),
    }
}

fn set_up(w: &Workload, opts: &RunOpts) -> Result<Setup, String> {
    let start = Instant::now();
    let (db, inputs) = Inputs::generate(w, opts.universe, w.statements);
    // The tuner gets the workload in universe order whatever the seed: MNSA's
    // outcome depends on the order, and the catalog the sample runs under
    // should not depend on the seed. The sample is a fixed subset of the
    // universe; the seed orders it.
    let workload = inputs
        .sql
        .iter()
        .map(|sql| bind_select(&db, sql))
        .collect::<Result<_, _>>()?;
    let sample = order(inputs.sql.len(), opts.seed, 0)
        .into_iter()
        .filter(|i| i % OFFLINE_SAMPLE_STEP == 0)
        .collect();
    Ok(Setup {
        db,
        inputs,
        workload,
        sample,
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// One query as a client of the tuned database sends it: SQL text in, rows
/// out. With a `root` span the four layers are timed one by one.
fn execute(
    setup: &Setup,
    catalog: &StatsCatalog,
    optimizer: &Optimizer,
    index: usize,
    root: &obsv::SpanGuard,
) -> Result<(StatementOutcome, Replay), String> {
    let sql = &setup.inputs.sql[index];
    let options = OptimizeOptions::default();
    let t = Instant::now();
    let (stmt, parse) = timed(root, "query.parse", || parse_statement(sql));
    let stmt = stmt.map_err(|e| e.to_string())?;
    let (bound, bind) = timed(root, "query.bind", || bind_statement(&setup.db, &stmt));
    let BoundStatement::Select(query) = bound.map_err(|e| e.to_string())? else {
        return Err("not a SELECT".to_string());
    };
    let (plan, optimize) = timed(root, "optimizer.optimize", || {
        optimizer.optimize(&setup.db, &query, catalog.full_view(), &options)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    let (output, execute) = timed(root, "executor.select", || {
        execute_plan(&setup.db, &query, &plan.plan, &optimizer.params)
    });
    let output = output.map_err(|e| e.to_string())?;
    let replay = Replay {
        real: micros(t),
        parse,
        bind,
        optimize,
        execute,
        work: output.work,
        rows: output.rows.len() as f64,
        ..Replay::default()
    };
    let outcome = StatementOutcome::Query {
        output,
        estimated_cost: plan.cost,
    };
    Ok((outcome, replay))
}

/// The round being sent: its figures so far.
#[derive(Default)]
struct OpenRound {
    /// By position in the sample: the query's client-observed microseconds,
    /// raw and at reference speed.
    raw_us: Vec<f64>,
    reference_us: Vec<f64>,
    /// Work by universe index.
    work: Vec<f64>,
    seconds: Scaled,
}

/// What the execution rounds found. A round is one pass over the sample; the
/// untraced run sends it a few blocks at a time, between two tunes.
#[derive(Default)]
struct Rounds {
    attempted: u64,
    failed: u64,
    open: OpenRound,
    /// Per finished round: client-observed seconds, work summed in universe
    /// order, and every query's microseconds by position in the sample.
    round_s: Vec<Scaled>,
    round_work: Vec<f64>,
    raw_us: Vec<Vec<f64>>,
    reference_us: Vec<Vec<f64>>,
    /// CPU factors of the blocks, weighted by their seconds.
    cpu: Scaled,
    /// Every call, in the order sent.
    calls: Vec<Replay>,
    /// What the first round returned, by universe index.
    first: Vec<Option<(Digest, RowSummary)>>,
}

impl Rounds {
    fn new(setup: &Setup) -> Rounds {
        Rounds {
            first: vec![None; setup.inputs.sql.len()],
            ..Rounds::default()
        }
    }

    /// Send the next `blocks` blocks of `OFFLINE_BLOCK` queries under
    /// `catalog`, ending at the end of the round at the latest. Every round
    /// must return what the first did, bit for bit. Statements alternate
    /// between traced and plain, flipping per round; `window` decides which
    /// of the traced ones keep their spans. With a `meter` the host-speed
    /// probe is read after every block.
    fn run_blocks(
        &mut self,
        setup: &Setup,
        catalog: &StatsCatalog,
        window: &mut SpanWindow,
        mut meter: Option<&mut Meter>,
        blocks: usize,
    ) {
        let optimizer = Optimizer::default();
        let round = self.round_s.len();
        let open = &mut self.open;
        open.work.resize(setup.inputs.sql.len(), 0.0);
        let from = open.raw_us.len();
        let to = (from + blocks * OFFLINE_BLOCK).min(setup.sample.len());
        for k in from..to {
            let index = setup.sample[k];
            let root = window.root((round + k) % 2 == 1, vec![("index", index.into())]);
            self.attempted += 1;
            // A failed query keeps its position, with no time.
            open.raw_us.push(0.0);
            match execute(setup, catalog, &optimizer, index, &root) {
                Ok((outcome, replay)) => {
                    window.observe(&root, replay.real);
                    drop(root);
                    open.raw_us[k] = replay.real;
                    open.work[index] = replay.work;
                    self.calls.push(replay);
                    let digest = Digest::of(&outcome);
                    match &self.first[index] {
                        None => self.first[index] = Some((digest, RowSummary::of(&outcome))),
                        Some((first, _)) if *first != digest => self.failed += 1,
                        Some(_) => {}
                    }
                }
                Err(_) => self.failed += 1,
            }
            if (k + 1) % OFFLINE_BLOCK == 0 || k + 1 == to {
                let to_reference = meter.as_mut().map_or(Factors::NONE, |m| m.lap());
                let block = &open.raw_us[open.reference_us.len()..];
                let block_s = block.iter().sum::<f64>() / 1e6;
                open.seconds.add(block_s, to_reference.wall);
                self.cpu.add(block_s, to_reference.cpu);
                let scaled: Vec<f64> = block.iter().map(|us| us * to_reference.wall).collect();
                open.reference_us.extend(scaled);
            }
        }
        if to == setup.sample.len() {
            let done = std::mem::take(&mut self.open);
            self.round_s.push(done.seconds);
            self.round_work.push(done.work.iter().sum());
            self.raw_us.push(done.raw_us);
            self.reference_us.push(done.reference_us);
        }
    }

    /// One whole round.
    fn run_one(&mut self, setup: &Setup, catalog: &StatsCatalog, window: &mut SpanWindow) {
        let blocks = setup.sample.len().div_ceil(OFFLINE_BLOCK);
        self.run_blocks(setup, catalog, window, None, blocks);
    }
}

/// The median and the 99th percentile, over the sample's queries, of each
/// query's median latency over the rounds: every round sends the same
/// queries, so a query hit by a slow moment in one round does not count.
fn latency_percentiles(rounds: &[Vec<f64>]) -> (f64, f64) {
    let queries = rounds.first().map_or(0, Vec::len);
    let mut typical: Vec<f64> = (0..queries)
        .map(|k| median(&mut rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect();
    sys::sort(&mut typical);
    (percentile(&typical, 50.0), percentile(&typical, 99.0))
}

/// Execute the sample under the all-candidates catalog: its work, and whether
/// every query returned the rows the tuned catalog's plan returned.
fn oracle(
    w: &Workload,
    opts: &RunOpts,
    setup: &Setup,
    rounds: &mut Rounds,
) -> Result<(Reference, f64), String> {
    let mut reference = Reference::build(database(w, opts.universe), &setup.inputs.statements)?;
    let mut work = vec![0.0; setup.inputs.sql.len()];
    for &index in &setup.sample {
        let outcome = reference.run(&setup.inputs.statements[index])?;
        work[index] = outcome.work();
        rounds.attempted += 1;
        let same =
            rounds.first[index].is_some_and(|(_, rows)| rows.same_rows(&RowSummary::of(&outcome)));
        if !same {
            rounds.failed += 1;
        }
    }
    Ok((reference, work.iter().sum()))
}

/// Run `offline-tune` with tracing off and report the end-to-end metrics.
/// Every timing is at the reference host speed (see `speed`): the probe is
/// read around every set-up and every `tune`, and inside the execution rounds.
pub fn run(w: &Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let probe = Probe::new();
    let mut meter = Meter::start(&probe);
    let mut setups = Vec::new();
    let mut setup = set_up(w, opts)?;
    setups.push(Scaled::of(setup.total_s, meter.lap().wall));
    for _ in 1..opts.setup_reps {
        drop(setup);
        setup = set_up(w, opts)?;
        setups.push(Scaled::of(setup.total_s, meter.lap().wall));
    }

    // Tune and execute take turns until the time is up, so that the medians
    // of both see the whole window and not one half of it each: the speed of
    // a shared box drifts over seconds. A turn is one `tune` and a part of a
    // round about as long, which gives the tune median a dozen samples.
    let cpu_before = cpu_seconds();
    let probe_before = meter.spent_s;
    let start = Instant::now();
    let tuner = OfflineTuner::default();
    let mut tuned: Option<(StatsCatalog, autostats::TuningReport)> = None;
    let mut tunes = Vec::new();
    let mut tune_cpu = Scaled::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds = Rounds::new(&setup);
    let mut untraced = SpanWindow::new(&Tracer::disabled());
    while start.elapsed().as_secs_f64() < opts.seconds || rounds.round_s.is_empty() {
        let mut catalog = StatsCatalog::new();
        let t = Instant::now();
        let report = tuner
            .tune(&setup.db, &mut catalog, &setup.workload)
            .map_err(|e| format!("tune: {e}"))?;
        let tune_s = t.elapsed().as_secs_f64();
        let to_reference = meter.lap();
        tunes.push(Scaled::of(tune_s, to_reference.wall));
        tune_cpu.add(tune_s, to_reference.cpu);
        attempted += 1;
        match &tuned {
            // Tuning is a pure function of its inputs: every repetition must
            // report what the first did.
            Some((_, first)) if report != *first => failed += 1,
            Some(_) => {}
            None => tuned = Some((catalog, report)),
        }
        if let Some((catalog, _)) = &tuned {
            rounds.run_blocks(
                &setup,
                catalog,
                &mut untraced,
                Some(&mut meter),
                OFFLINE_BLOCKS_PER_TURN,
            );
        }
    }
    let (catalog, report) = tuned.ok_or("--seconds left no time to tune")?;
    let measured_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before - (meter.spent_s - probe_before);
    let peak_rss = peak_rss_mib();

    let oracle_start = Instant::now();
    let (reference, reference_work) = oracle(w, opts, &setup, &mut rounds)?;
    let oracle_s = oracle_start.elapsed().as_secs_f64();

    let sample = setup.sample.len() as f64;
    let statements = (tunes.len() * setup.workload.len() + rounds.calls.len()) as f64;
    let round_work = median(&mut rounds.round_work);
    let (setup_s, tune_s, run_s) = (
        Scaled::medians(&setups),
        Scaled::medians(&tunes),
        Scaled::medians(&rounds.round_s),
    );
    let (p50_us, p99_us) = latency_percentiles(&rounds.reference_us);
    let (raw_p50_us, raw_p99_us) = latency_percentiles(&rounds.raw_us);
    let cpu_per_kstmt = ratio(cpu_s, statements / 1000.0);
    // Whole-phase sums of the wall and of the CPU factors, for CPU time and
    // the result file.
    let (mut busy, mut busy_cpu) = (Scaled::default(), rounds.cpu);
    for s in tunes.iter().chain(&rounds.round_s) {
        busy.raw_s += s.raw_s;
        busy.reference_s += s.reference_s;
    }
    busy_cpu.raw_s += tune_cpu.raw_s;
    busy_cpu.reference_s += tune_cpu.reference_s;

    let mut outcome = Outcome::new(attempted + rounds.attempted, failed + rounds.failed);
    outcome.metric("setup_s", setup_s.reference_s);
    // What this workload does is tune: its statement rate is queries tuned
    // per second. The execution rounds are in the two latency metrics.
    let queries = setup.workload.len() as f64;
    outcome.metric("stmt_per_s", ratio(queries, tune_s.reference_s));
    outcome.metric("select_p50_us", p50_us);
    outcome.metric("select_p99_us", p99_us);
    outcome.metric("cpu_s_per_kstmt", cpu_per_kstmt * busy_cpu.factor());
    outcome.metric("exec_work_per_stmt", ratio(round_work, sample));
    outcome.metric("peak_rss_mb", peak_rss);
    outcome.metric(
        "tune_work_ratio",
        ratio(report.total_work(), reference.create_all_work),
    );
    outcome.metric("exec_work_ratio", ratio(round_work, reference_work));

    outcome.detail(
        "samples",
        object(vec![
            ("tune_repetitions", num(tunes.len() as f64)),
            ("workload_queries", num(queries)),
            ("sample_queries", num(sample)),
            ("execution_rounds", num(rounds.round_s.len() as f64)),
            ("select", num(rounds.calls.len() as f64)),
            ("setup_repetitions", num(setups.len() as f64)),
        ]),
    );
    outcome.detail(
        "phases_s",
        object(vec![
            (
                "setup_each",
                Json::Array(setups.iter().map(|s| num(s.raw_s)).collect()),
            ),
            ("measured", num(measured_s)),
            ("oracle", num(oracle_s)),
        ]),
    );
    outcome.detail(
        "host_speed",
        speed::detail(
            &[&meter],
            busy,
            busy_cpu,
            vec![
                ("setup_s", setup_s.raw_s),
                ("stmt_per_s", ratio(queries, tune_s.raw_s)),
                ("select_p50_us", raw_p50_us),
                ("select_p99_us", raw_p99_us),
                ("cpu_s_per_kstmt", cpu_per_kstmt),
            ],
        ),
    );
    outcome.detail(
        "extra",
        object(vec![
            // One `tune`, and one pass over the sample with one client.
            ("tune_s", num(tune_s.reference_s)),
            ("run_s", num(run_s.reference_s)),
            ("optimizer_calls", num(report.optimizer_calls as f64)),
            ("statistics_created", num(report.statistics_created as f64)),
            ("statistics_kept", num(catalog.active_count() as f64)),
            ("candidates", num(reference.candidates as f64)),
        ]),
    );
    Ok(outcome)
}

/// Create `descriptors` one `create_statistic` call at a time on a fresh
/// catalog, each under its own span. Returns seconds and creation work.
fn build_serially(
    db: &Database,
    descriptors: &[StatDescriptor],
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let mut catalog = StatsCatalog::new();
    let span = tracer.span("stats.build");
    let t = Instant::now();
    for d in descriptors {
        let _one = span.child("stats.create_statistic");
        catalog
            .create_statistic(db, d.clone())
            .map_err(|e| format!("create_statistic: {e}"))?;
    }
    Ok((t.elapsed().as_secs_f64(), catalog.creation_work()))
}

/// The same through `create_statistics_batch`, one call per table.
fn build_batched(
    db: &Database,
    descriptors: &[StatDescriptor],
    tracer: &Tracer,
) -> Result<f64, String> {
    let mut by_table = descriptors.to_vec();
    by_table.sort_by_key(|d| d.table);
    let mut catalog = StatsCatalog::new();
    let span = tracer.span("stats.batch_build");
    let t = Instant::now();
    for run in by_table.chunk_by(|a, b| a.table == b.table) {
        let _one = span.child("stats.create_statistics_batch");
        catalog
            .create_statistics_batch(db, run[0].table, run)
            .map_err(|e| format!("create_statistics_batch: {e}"))?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Run `offline-tune` traced and report the per-layer metrics: the tune taken
/// apart into its public pieces, the statistic builds replayed alone, and the
/// execution rounds with one span per layer.
pub fn run_traced(w: &Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let setup = set_up(w, opts)?;
    let tracer = Tracer::enabled();
    let start = Instant::now();

    let engine = MnsaEngine::new(MnsaConfig::default());
    let mut catalog = StatsCatalog::new();
    let (outcomes, mnsa_us) = {
        let root = tracer.span("core.tune");
        timed(&root, "core.mnsa", || {
            engine.run_workload(&setup.db, &mut catalog, &setup.workload)
        })
    };
    let outcomes = outcomes.map_err(|e| format!("MNSA: {e}"))?;
    let built: Vec<StatDescriptor> = outcomes
        .iter()
        .flat_map(|o| &o.created)
        .filter_map(|&id| catalog.statistic(id))
        .map(|s| s.descriptor.clone())
        .collect();
    let initial = catalog.active_ids();
    let (shrunk, shrink_us) = {
        let root = tracer.span("core.tune");
        timed(&root, "core.shrink", || {
            shrinking_set(
                &setup.db,
                &mut catalog,
                &engine.optimizer,
                &setup.workload,
                &initial,
                Equivalence::paper_default(),
                true,
            )
        })
    };
    let shrunk = shrunk.map_err(|e| format!("Shrinking Set: {e}"))?;

    let (build_s, build_work) = build_serially(&setup.db, &built, &tracer)?;
    let batch_build_s = build_batched(&setup.db, &built, &tracer)?;

    let mut window = SpanWindow::new(&tracer);
    let mut rounds = Rounds::new(&setup);
    while rounds.round_s.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        rounds.run_one(&setup, &catalog, &mut window);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let (reference, _) = {
        let _span = tracer.span("oracle");
        oracle(w, opts, &setup, &mut rounds)?
    };

    let mut outcome = Outcome::new(rounds.attempted, rounds.failed);
    // Here the four layers are the statement itself, not a replay of it, so
    // every call of every round has its layer times.
    layer_metrics(&mut outcome, &rounds.calls);
    outcome.metric("obsv.trace_overhead_pct", window.overhead_pct());

    // The warm `optimize_cached` floor, probed outside the rounds so that the
    // rounds make exactly the calls a client's statement makes.
    let (optimizer, cache, options) = (
        Optimizer::default(),
        OptimizeCache::new(),
        OptimizeOptions::default(),
    );
    let mut hit_us = Vec::new();
    let probes = tracer.span("probes");
    for &index in &setup.sample {
        let query = bind_select(&setup.db, &setup.inputs.sql[index])?;
        let probe =
            || optimizer.optimize_cached(&setup.db, &query, catalog.full_view(), &options, &cache);
        probe().map_err(|e| format!("cache fill: {e}"))?;
        hit_us.push(timed(&probes, "optimizer.cache_hit", probe).1);
    }
    drop(probes);
    outcome.metric("optimizer.cache_hit.p50_us", median(&mut hit_us));

    let calls: usize = outcomes.iter().map(|o| o.optimizer_calls).sum();
    let tune_s = (mnsa_us + shrink_us) / 1e6;
    outcome.metric(
        "optimizer.calls_per_tuned_query",
        ratio(
            (calls + shrunk.optimizer_calls) as f64,
            setup.workload.len() as f64,
        ),
    );
    outcome.metric("core.mnsa.s", mnsa_us / 1e6);
    outcome.metric("core.mnsa.optimizer_calls", calls as f64);
    outcome.metric("core.mnsa.stats_created", built.len() as f64);
    outcome.metric(
        "core.mnsa.drop_listed",
        outcomes.iter().map(|o| o.drop_listed.len()).sum::<usize>() as f64,
    );
    outcome.metric("core.shrink.s", shrink_us / 1e6);
    outcome.metric("core.shrink.removed", shrunk.removed.len() as f64);
    outcome.metric("core.candidates.count", reference.candidates as f64);
    outcome.metric("core.create_all.s", reference.create_all_s);
    outcome.metric("core.stats_kept", catalog.active_count() as f64);
    outcome.metric("stats.build.s", build_s);
    outcome.metric("stats.build.count", built.len() as f64);
    outcome.metric("stats.build.work", build_work);
    outcome.metric("stats.batch_build.s", batch_build_s);
    outcome.metric("stats.build.share_of_tune_pct", pct(build_s, tune_s));
    outcome.metric("storage.rows_end", setup.db.total_rows() as f64);
    outcome.metric(
        "storage.mods_end",
        setup.db.modification_snapshot().values().sum::<u64>() as f64,
    );
    outcome.metric("datagen.build_tpcd.s", setup.inputs.build_tpcd_s);
    outcome.metric("datagen.rags.s", setup.inputs.rags_s);

    outcome.detail(
        "samples",
        object(vec![
            ("workload_queries", num(setup.workload.len() as f64)),
            ("sample_queries", num(setup.sample.len() as f64)),
            ("execution_rounds", num(rounds.round_s.len() as f64)),
            ("select", num(rounds.calls.len() as f64)),
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
    Ok(outcome)
}
