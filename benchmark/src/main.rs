//! `sysbench` — the repository's system benchmark.
//!
//! Two ways to call it (see `benchmark/README.md`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload once
//!   and prints, as the last line of standard output, one JSON object with
//!   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//!   with `--trace 0`, the per-layer metrics with `--trace 1`.
//! * Without `--trace` it runs the suite: every workload (or the one named)
//!   in a process of its own, first untraced, then traced, and exits non-zero
//!   when any output check fails. `--repeat N` repeats the untraced set and
//!   compares the sets against the bounds in `BENCHMARK.json`.

mod digest;
mod inputs;
mod offline;
mod reference;
mod serving;
mod spec;
mod speed;
mod suite;
mod sys;
mod traced;

use obsv::json::Json;
use spec::{Kind, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Permutes the statements each client sends; nothing else.
    pub seed: u64,
    /// Seed of the TPC-D data and the Rags statements.
    pub universe: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
}

/// What one run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts, phase times and workload-specific extras for the
    /// result file.
    pub details: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: BTreeMap::new(),
            details: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn detail(&mut self, name: &'static str, value: Json) {
        self.details.push((name, value));
    }
}

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub universe: Option<u64>,
    pub smoke: bool,
    pub traced_only: bool,
    pub repeat: usize,
}

const USAGE: &str = "usage: sysbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--universe N] [--smoke] [--traced] [--repeat N]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        repeat: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read '{text}'"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(number(flag, value()?)?),
            "--seconds" => cli.seconds = Some(number(flag, value()?)?),
            "--universe" => cli.universe = Some(number(flag, value()?)?),
            "--repeat" => cli.repeat = number(flag, value()?)?,
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--smoke" => cli.smoke = true,
            "--traced" => cli.traced_only = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if cli.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    Ok(cli)
}

/// One run of one workload: the contract form of the command.
fn single_run(w: &Workload, cli: &Cli, trace: bool) -> Result<(), String> {
    let divisor = if cli.smoke { spec::SMOKE_DIVISOR } else { 1 };
    let seconds = cli.seconds.ok_or("--seconds is required with --trace")?;
    let w = &Workload {
        statements: match w.kind {
            Kind::Online => (w.statements as f64 * seconds) as usize,
            _ => w.statements / divisor,
        },
        tick_every: (w.tick_every / divisor).max(1),
        ..*w
    };
    let opts = RunOpts {
        seed: cli.seed.unwrap_or(spec::DEFAULT_SEED),
        universe: cli.universe.unwrap_or(spec::DEFAULT_UNIVERSE),
        seconds,
        setup_reps: if cli.smoke { 1 } else { spec::SETUP_REPS },
    };
    let outcome = match (w.kind, trace) {
        (Kind::Offline, false) => offline::run(w, &opts),
        (Kind::Offline, true) => offline::run_traced(w, &opts),
        (_, false) => serving::run(w, &opts),
        (_, true) => traced::run(w, &opts),
    }?;

    let units = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    for name in outcome.metrics.keys() {
        if !units.iter().any(|(n, _)| n == name) {
            return Err(format!("metric '{name}' is not in the benchmark's list"));
        }
    }
    let result = sys::object(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", sys::num(outcome.attempted as f64)),
        ("failed", sys::num(outcome.failed as f64)),
        ("metrics", sys::metrics_object(&outcome.metrics, &units)),
    ]);

    // The result file: the same object plus the run manifest.
    let mut fields = sys::manifest();
    fields.extend([
        ("workload", Json::Str(w.name.to_string())),
        ("traced", Json::Bool(trace)),
        ("seed", sys::num(opts.seed as f64)),
        ("universe", sys::num(opts.universe as f64)),
        ("seconds", sys::num(opts.seconds)),
        (
            "sizes",
            sys::object(vec![
                ("scale", sys::num(w.scale)),
                ("statements", sys::num(w.statements as f64)),
                ("update_pct", sys::num(f64::from(w.update_pct))),
                ("max_tables", sys::num(w.complexity.max_tables() as f64)),
                ("shards", sys::num(w.shards as f64)),
                ("clients", sys::num(w.clients as f64)),
                ("tick_every", sys::num(w.tick_every as f64)),
            ]),
        ),
        ("result", result.clone()),
    ]);
    fields.extend(outcome.details);
    let file = suite::result_path(w.name, trace);
    std::fs::create_dir_all(suite::RESULTS_DIR)
        .map_err(|e| format!("{}: {e}", suite::RESULTS_DIR))?;
    std::fs::write(&file, sys::render(&sys::object(fields)) + "\n")
        .map_err(|e| format!("{file}: {e}"))?;

    println!("{}", sys::render(&result));
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let cli = parse_cli(args)?;
    // The executor reads these once per process and they change how every
    // query runs; a benchmark number taken under them is not comparable.
    for var in ["AUTOSTATS_EXEC_THREADS", "AUTOSTATS_MORSEL_ROWS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it to run the benchmark"));
        }
    }
    match cli.trace {
        Some(trace) => {
            let name = cli.workload.as_deref().ok_or("--trace needs --workload")?;
            let w = spec::workload(name).ok_or(format!("unknown workload '{name}'"))?;
            single_run(&w, &cli, trace).map(|()| true)
        }
        None => suite::run(&cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sysbench: {e}");
            ExitCode::FAILURE
        }
    }
}
