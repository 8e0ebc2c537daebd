//! The three serving workloads with tracing off: set-up, the measured phase
//! with closed-loop clients, and the oracle pass behind the work ratios.

use crate::digest::{Digest, RowSummary};
use crate::inputs::{database, order, Inputs};
use crate::reference::Reference;
use crate::spec::{Kind, Workload, ONLINE_BLOCK};
use crate::speed::{self, Factors, Meter, Probe, Scaled};
use crate::sys::{self, cpu_seconds, median, num, object, peak_rss_mib, percentile, ratio};
use crate::{Outcome, RunOpts};
use autod::{AutodConfig, TelemetryConfig, TickReport};
use executor::StatementOutcome;
use obsv::json::Json;
use serve::{ClusterClient, ServeCluster, ServeConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use storage::Database;

/// A started cluster and what the benchmark knows about its inputs.
pub struct Setup {
    pub cluster: ServeCluster,
    pub inputs: Inputs,
    /// Steady workloads: what each template returns under the tuned catalog.
    pub expect: Vec<Digest>,
    pub expect_rows: Vec<RowSummary>,
    pub expect_work: Vec<f64>,
    pub total_s: f64,
    pub start_s: f64,
    /// Wall time of every `tick_wait` made during set-up.
    pub tune_s: f64,
    /// Tuning work the ticks of set-up reported.
    pub tune_work: f64,
}

/// One `tick_wait` of the cluster: per-shard reports and its wall time.
pub struct Tick {
    pub reports: Vec<TickReport>,
    pub seconds: f64,
}

impl Tick {
    pub fn wait(cluster: &ServeCluster) -> Result<Tick, String> {
        let start = Instant::now();
        let reports = cluster.tick_wait().map_err(|e| format!("tick: {e}"))?;
        Ok(Tick {
            reports,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Nothing tuned, refreshed, removed or left over on any shard: the
    /// catalog queries see is the one they saw before. (A Shrinking Set pass
    /// that removes nothing still publishes a generation, an identical one.)
    pub fn is_quiet(&self) -> bool {
        self.reports.iter().all(|r| {
            r.queries_tuned == 0
                && r.refreshed == 0
                && r.feedback_refreshed == 0
                && r.pending == 0
                && !r.budget_exhausted
                && r.shrink_removed.unwrap_or(0) == 0
        })
    }

    pub fn work(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.tuning_work + r.refresh_work)
            .sum()
    }
}

fn largest_table_rows(db: &Database) -> usize {
    db.table_ids()
        .map(|id| db.table(id).row_count())
        .max()
        .unwrap_or(usize::MAX)
}

/// Generate the inputs, start the cluster and, for a steady workload, tune it:
/// one warm-up pass, ticks until a whole Shrinking Set period of them was
/// quiet, then one pass that records what every template returns under the
/// now frozen catalog.
pub fn set_up(w: &Workload, opts: &RunOpts, telemetry: TelemetryConfig) -> Result<Setup, String> {
    let start = Instant::now();
    let (db, inputs) = Inputs::generate(w, opts.universe, w.statements);
    let autod = AutodConfig {
        telemetry,
        ..AutodConfig::default()
    };
    let shrink_every = autod.shrink_every.max(1);
    let config = ServeConfig {
        shards: w.shards,
        // More than one shard: hash-partition the largest table, so scatter,
        // broadcast and fallback routes all carry traffic.
        partition_threshold: if w.shards > 1 {
            largest_table_rows(&db)
        } else {
            usize::MAX
        },
        autod,
        ..ServeConfig::default()
    };
    let t = Instant::now();
    let cluster = ServeCluster::start(db, config).map_err(|e| format!("cluster start: {e}"))?;
    let start_s = t.elapsed().as_secs_f64();

    let mut setup = Setup {
        cluster,
        inputs,
        expect: Vec::new(),
        expect_rows: Vec::new(),
        expect_work: Vec::new(),
        total_s: 0.0,
        start_s,
        tune_s: 0.0,
        tune_work: 0.0,
    };
    if w.kind == Kind::Steady {
        let client = setup.cluster.client(1);
        // In pool order, whatever the seed: what the tuner sees, and so the
        // catalog the measured phase runs under, is the same in every run.
        for (i, sql) in setup.inputs.sql.iter().enumerate() {
            client
                .run_sql(sql)
                .map_err(|e| format!("warm-up statement {i}: {e}"))?;
        }
        // Far above what the tuner needs for 200 templates (about 70 ticks).
        const MAX_TICKS: usize = 5000;
        // One quiet tick is not enough: the next Shrinking Set pass may still
        // remove statistics and change plans. A quiet period of `shrink_every`
        // ticks holds one such pass that found nothing to remove.
        let mut quiet_ticks = 0;
        for _ in 0..MAX_TICKS {
            let tick = Tick::wait(&setup.cluster)?;
            setup.tune_s += tick.seconds;
            setup.tune_work += tick.work();
            quiet_ticks = if tick.is_quiet() { quiet_ticks + 1 } else { 0 };
            if quiet_ticks == shrink_every {
                break;
            }
        }
        if quiet_ticks < shrink_every {
            return Err(format!("the tuner did not settle within {MAX_TICKS} ticks"));
        }
        for (i, sql) in setup.inputs.sql.iter().enumerate() {
            let outcome = client
                .run_sql(sql)
                .map_err(|e| format!("tuned statement {i}: {e}"))?;
            setup.expect.push(Digest::of(&outcome));
            setup.expect_rows.push(RowSummary::of(&outcome));
            setup.expect_work.push(outcome.work());
        }
    }
    setup.total_s = start.elapsed().as_secs_f64();
    Ok(setup)
}

/// Set up `opts.setup_reps` times, keeping the last. Returns it with every
/// repetition's total and tuning seconds, each raw and at reference speed.
fn set_up_repeatedly(
    w: &Workload,
    opts: &RunOpts,
    probe: &Probe,
) -> Result<(Setup, Vec<Scaled>, Vec<Scaled>), String> {
    let mut kept: Option<Setup> = None;
    let (mut totals, mut tunes) = (Vec::new(), Vec::new());
    let mut meter = Meter::start(probe);
    for _ in 0..opts.setup_reps {
        if let Some(previous) = kept.take() {
            shut_down(previous.cluster)?;
        }
        let setup = set_up(w, opts, TelemetryConfig::default())?;
        let to_reference = meter.lap();
        totals.push(Scaled::of(setup.total_s, to_reference.wall));
        tunes.push(Scaled::of(setup.tune_s, to_reference.wall));
        kept = Some(setup);
    }
    let setup = kept.ok_or("no set-up repetition")?;
    Ok((setup, totals, tunes))
}

/// Stop every shard's daemon; a daemon that died or recorded a tick error
/// fails the run.
pub fn shut_down(cluster: ServeCluster) -> Result<(), String> {
    let shards = cluster.shutdown().ok_or("a tuning daemon thread died")?;
    for (_, report) in shards {
        if let Some(e) = report.error {
            return Err(format!("daemon tick failed: {e}"));
        }
    }
    Ok(())
}

/// One statement a client sent.
#[derive(Clone, Copy)]
pub struct Sample {
    pub index: usize,
    pub micros: f64,
    pub work: f64,
    pub ok: bool,
}

/// What one client sent between two readings of the host-speed probe: a whole
/// round over the pool (steady) or the next `ONLINE_BLOCK` statements of its
/// share of the stream (online).
struct Block {
    samples: Vec<Sample>,
    /// Takes this block's durations to the reference host speed.
    to_reference: Factors,
}

impl Block {
    /// Client-observed service time of the block, in seconds: the output
    /// check between two calls is the client's think time, not the system's.
    fn service_s(&self) -> f64 {
        self.samples.iter().map(|s| s.micros).sum::<f64>() / 1e6
    }
}

struct Client<'a> {
    blocks: Vec<Block>,
    meter: Meter<'a>,
}

impl Client<'_> {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.blocks.iter().flat_map(|b| &b.samples)
    }
}

pub fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Send one statement and time it as the client sees it: SQL text in, outcome
/// out, parsing included.
pub fn send(client: &ClusterClient, sql: &str) -> (Result<StatementOutcome, String>, f64) {
    let t = Instant::now();
    let result = client.run_sql(sql);
    let us = micros(t);
    (result.map_err(|e| e.to_string()), us)
}

/// The measured phase: `w.clients` closed-loop client threads, and this
/// thread ticking the cluster every `w.tick_every` completed statements.
///
/// A steady client repeats whole rounds over its permutation of the pool
/// until `--seconds` have passed and checks every outcome against set-up's.
/// An online client sends its share of the stream once, in stream order; the
/// seed deals the statements to the clients. Its deadline is a safety net for
/// a machine much slower than the one the stream was sized on. Every client
/// reads the host-speed probe before its first block and after each.
fn drive<'a>(
    setup: &Setup,
    w: &Workload,
    opts: &RunOpts,
    probe: &'a Probe,
) -> Result<(Vec<Client<'a>>, Vec<Tick>), String> {
    let n = setup.inputs.sql.len();
    let steady = w.kind == Kind::Steady;
    let deadline = Duration::from_secs_f64(if steady {
        opts.seconds
    } else {
        2.0 * opts.seconds
    });
    let block_len = if steady { n } else { ONLINE_BLOCK };
    let dealt = order(n, opts.seed, 0);
    let completed = AtomicUsize::new(0);
    let running = AtomicUsize::new(w.clients);
    let start = Instant::now();

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..w.clients)
            .map(|t| {
                let client = setup.cluster.client(t as u64 + 1);
                let mine: Vec<usize> = if steady {
                    order(n, opts.seed, t as u64 + 1)
                } else {
                    (0..n).filter(|&i| dealt[i] % w.clients == t).collect()
                };
                let (completed, running) = (&completed, &running);
                scope.spawn(move || {
                    let mut meter = Meter::start(probe);
                    let mut blocks = Vec::new();
                    'run: loop {
                        for stretch in mine.chunks(block_len) {
                            if !steady && start.elapsed() >= deadline {
                                break 'run;
                            }
                            let mut samples = Vec::with_capacity(stretch.len());
                            for &index in stretch {
                                let (result, us) = send(&client, &setup.inputs.sql[index]);
                                let (ok, work) = match &result {
                                    Ok(outcome) => {
                                        let same =
                                            !steady || Digest::of(outcome) == setup.expect[index];
                                        (same, outcome.work())
                                    }
                                    Err(_) => (false, 0.0),
                                };
                                samples.push(Sample {
                                    index,
                                    micros: us,
                                    work,
                                    ok,
                                });
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            blocks.push(Block {
                                samples,
                                to_reference: meter.lap(),
                            });
                        }
                        if !steady || start.elapsed() >= deadline {
                            break;
                        }
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    Client { blocks, meter }
                })
            })
            .collect();

        let mut ticks = Vec::new();
        let mut next_tick = w.tick_every;
        let mut tick_error = None;
        while running.load(Ordering::SeqCst) > 0 {
            if completed.load(Ordering::Relaxed) >= next_tick && tick_error.is_none() {
                next_tick += w.tick_every;
                match Tick::wait(&setup.cluster) {
                    Ok(tick) => ticks.push(tick),
                    Err(e) => tick_error = Some(e),
                }
            } else {
                // Every wake-up takes a core from a client for a moment.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let clients: Vec<Client> = clients
            .into_iter()
            .map(|c| c.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<_, _>>()?;
        match tick_error {
            Some(e) => Err(e),
            None => Ok((clients, ticks)),
        }
    })
}

/// The timings of one measured phase.
struct Timings {
    stmt_per_s: f64,
    select_p50_us: f64,
    select_p99_us: f64,
    dml_p50_us: f64,
    dml_p90_us: f64,
}

/// Reduce the clients' samples to the timing metrics, every duration of a
/// block multiplied by `factor(block)`.
///
/// A steady round holds every template once, so it is the unit: each figure
/// is taken per round and the median over all rounds of all clients is
/// reported, which one slow second on a shared box does not move. A
/// percentile pooled over all rounds would sit on the boundary between two
/// templates' latencies and jump with the number of rounds. The online pass
/// is not stationary (it starts cold), so there the rate is each client's
/// statements over its whole service time and the percentiles are pooled.
fn timings(
    clients: &[Client],
    inputs: &Inputs,
    steady: bool,
    factor: impl Fn(&Block) -> f64,
) -> Timings {
    let n = inputs.sql.len() as f64;
    let mut stmt_per_s = 0.0;
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let (mut select_us, mut dml_us) = (Vec::new(), Vec::new());
    for client in clients {
        let mut round_s = Vec::new();
        let mut service_s = 0.0;
        for block in &client.blocks {
            let f = factor(block);
            service_s += block.service_s() * f;
            if steady {
                let mut latency: Vec<f64> = block.samples.iter().map(|s| s.micros * f).collect();
                sys::sort(&mut latency);
                round_s.push(block.service_s() * f);
                p50.push(percentile(&latency, 50.0));
                p99.push(percentile(&latency, 99.0));
            } else {
                for s in &block.samples {
                    if inputs.is_select(s.index) {
                        select_us.push(s.micros * f);
                    } else {
                        dml_us.push(s.micros * f);
                    }
                }
            }
        }
        stmt_per_s += if steady {
            ratio(n, median(&mut round_s))
        } else {
            ratio(client.samples().count() as f64, service_s)
        };
    }
    sys::sort(&mut select_us);
    sys::sort(&mut dml_us);
    Timings {
        stmt_per_s,
        select_p50_us: if steady {
            median(&mut p50)
        } else {
            percentile(&select_us, 50.0)
        },
        select_p99_us: if steady {
            median(&mut p99)
        } else {
            percentile(&select_us, 99.0)
        },
        dml_p50_us: percentile(&dml_us, 50.0),
        dml_p90_us: percentile(&dml_us, 90.0),
    }
}

/// What the all-candidates reference found for one serving run.
struct Oracle {
    attempted: u64,
    failed: u64,
    /// Work the system under test executed, and the reference for the same
    /// statements (SELECTs only).
    own_work: f64,
    reference_work: f64,
    create_all_work: f64,
}

impl Oracle {
    /// Build the reference on a database generated again from the same
    /// universe and run the workload there. Steady: every template once, and
    /// its rows must be the rows set-up recorded. Online: a mirror replay of
    /// every completed statement, in stream order, on one unsharded database;
    /// clients interleave, so rows are not compared here (the traced
    /// single-client run does that), only work is.
    fn run(
        w: &Workload,
        opts: &RunOpts,
        setup: &Setup,
        clients: &[Client],
    ) -> Result<Oracle, String> {
        let statements = &setup.inputs.statements;
        let mut reference = Reference::build(database(w, opts.universe), statements)?;
        let mut oracle = Oracle {
            attempted: 0,
            failed: 0,
            own_work: 0.0,
            reference_work: 0.0,
            create_all_work: reference.create_all_work,
        };
        if w.kind == Kind::Steady {
            for (i, stmt) in statements.iter().enumerate() {
                let outcome = reference.run(stmt)?;
                oracle.attempted += 1;
                if !RowSummary::of(&outcome).same_rows(&setup.expect_rows[i]) {
                    oracle.failed += 1;
                }
                oracle.own_work += setup.expect_work[i];
                oracle.reference_work += outcome.work();
            }
        } else {
            let mut done: Vec<&Sample> = clients
                .iter()
                .flat_map(Client::samples)
                .filter(|s| s.ok)
                .collect();
            done.sort_by_key(|s| s.index);
            for s in done {
                let outcome = reference.run(&statements[s.index])?;
                if setup.inputs.is_select(s.index) {
                    oracle.own_work += s.work;
                    oracle.reference_work += outcome.work();
                }
            }
        }
        Ok(oracle)
    }
}

/// Run one serving workload with tracing off and report the end-to-end
/// metrics. Every timing is at the reference host speed (see `speed`).
pub fn run(w: &Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let probe = Probe::new();
    let (setup, setup_totals, setup_tunes) = set_up_repeatedly(w, opts, &probe)?;
    let n = setup.inputs.sql.len();
    let steady = w.kind == Kind::Steady;

    let cpu_before = cpu_seconds();
    let phase = Instant::now();
    let (clients, ticks) = drive(&setup, w, opts, &probe)?;
    let measured_s = phase.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss = peak_rss_mib();

    let statements: usize = clients.iter().map(|c| c.samples().count()).sum();
    let mut attempted = statements as u64;
    let mut failed = clients
        .iter()
        .flat_map(Client::samples)
        .filter(|s| !s.ok)
        .count() as u64;
    if steady {
        // The catalog is frozen: a tick that tunes or publishes breaks the
        // exactness of every work figure below.
        attempted += ticks.len() as u64;
        failed += ticks.iter().filter(|t| !t.is_quiet()).count() as u64;
    }

    let scaled = timings(&clients, &setup.inputs, steady, |b| b.to_reference.wall);
    let raw = timings(&clients, &setup.inputs, steady, |_| 1.0);

    // Process CPU time holds the probe's own; take it out, then scale what is
    // left by the mean CPU factor of the phase.
    let (mut busy, mut busy_cpu) = (Scaled::default(), Scaled::default());
    for block in clients.iter().flat_map(|c| &c.blocks) {
        busy.add(block.service_s(), block.to_reference.wall);
        busy_cpu.add(block.service_s(), block.to_reference.cpu);
    }
    let probe_s: f64 = clients.iter().map(|c| c.meter.spent_s).sum();
    let cpu_per_kstmt = ratio(cpu_s - probe_s, statements as f64 / 1000.0);

    let work_per_stmt = if steady {
        // Per round, summed in pool order, so the figure does not depend on
        // the permutation and repeats bit for bit.
        let mut rounds: Vec<f64> = clients
            .iter()
            .flat_map(|c| &c.blocks)
            .map(|block| {
                let mut by_index = vec![0.0; n];
                block
                    .samples
                    .iter()
                    .for_each(|s| by_index[s.index] = s.work);
                by_index.iter().sum::<f64>() / n as f64
            })
            .collect();
        median(&mut rounds)
    } else {
        let work: f64 = clients
            .iter()
            .flat_map(Client::samples)
            .map(|s| s.work)
            .sum();
        ratio(work, statements as f64)
    };

    // The oracle runs after the measured phase and after the RSS reading.
    let oracle_start = Instant::now();
    let oracle = Oracle::run(w, opts, &setup, &clients)?;
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    attempted += oracle.attempted;
    failed += oracle.failed;

    let tune_work = if steady {
        setup.tune_work
    } else {
        ticks.iter().map(Tick::work).sum()
    };

    let setup_total = Scaled::medians(&setup_totals);
    let mut outcome = Outcome::new(attempted, failed);
    outcome.metric("setup_s", setup_total.reference_s);
    outcome.metric("stmt_per_s", scaled.stmt_per_s);
    outcome.metric("select_p50_us", scaled.select_p50_us);
    outcome.metric("select_p99_us", scaled.select_p99_us);
    outcome.metric("cpu_s_per_kstmt", cpu_per_kstmt * busy_cpu.factor());
    outcome.metric("exec_work_per_stmt", work_per_stmt);
    outcome.metric("peak_rss_mb", peak_rss);
    outcome.metric("tune_work_ratio", ratio(tune_work, oracle.create_all_work));
    outcome.metric(
        "exec_work_ratio",
        ratio(oracle.own_work, oracle.reference_work),
    );

    let select = clients
        .iter()
        .flat_map(Client::samples)
        .filter(|s| setup.inputs.is_select(s.index))
        .count();
    outcome.detail(
        "samples",
        object(vec![
            ("statements", num(statements as f64)),
            ("select", num(select as f64)),
            ("dml", num((statements - select) as f64)),
            (
                "rounds_per_client",
                num(if steady {
                    (statements / n / w.clients) as f64
                } else {
                    1.0
                }),
            ),
            ("ticks", num(ticks.len() as f64)),
            ("setup_repetitions", num(setup_totals.len() as f64)),
        ]),
    );
    outcome.detail(
        "phases_s",
        object(vec![
            (
                "setup_each",
                Json::Array(setup_totals.iter().map(|s| num(s.raw_s)).collect()),
            ),
            ("measured", num(measured_s)),
            ("oracle", num(oracle_s)),
        ]),
    );
    let meters: Vec<&Meter> = clients.iter().map(|c| &c.meter).collect();
    outcome.detail(
        "host_speed",
        speed::detail(
            &meters,
            busy,
            busy_cpu,
            vec![
                ("setup_s", setup_total.raw_s),
                ("stmt_per_s", raw.stmt_per_s),
                ("select_p50_us", raw.select_p50_us),
                ("select_p99_us", raw.select_p99_us),
                ("cpu_s_per_kstmt", cpu_per_kstmt),
            ],
        ),
    );
    // Tuning time is a fraction of a second on a serving workload (set-up's
    // ticks, or the ticks beside the clients) and reads 25-35 % apart between
    // runs; DML latency exists on one workload only. Neither can be an
    // end-to-end metric that every workload prints within a bound, so both
    // are recorded here.
    let mut extra = vec![(
        "tune_s",
        num(if steady {
            Scaled::medians(&setup_tunes).reference_s
        } else {
            ticks.iter().map(|t| t.seconds).sum::<f64>() * busy.factor()
        }),
    )];
    if !steady {
        extra.push(("dml_p50_us", num(scaled.dml_p50_us)));
        extra.push(("dml_p90_us", num(scaled.dml_p90_us)));
    }
    outcome.detail("extra", object(extra));
    shut_down(setup.cluster)?;
    Ok(outcome)
}
