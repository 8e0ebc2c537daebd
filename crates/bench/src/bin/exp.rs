//! The experiment driver: `exp <experiment> [--tiny | --full] [flags]`
//! (`bench::cli` is the command line: what it rejects exits 2 with usage).
//!
//! The paper experiments (`intro` … `aging`, and `all` for the seven in one
//! go) print measured-vs-paper-band rows and write them to
//! `results/<experiment>.jsonl`. The system experiments write one JSON
//! artifact each, by default at the repository root (`--out` overrides,
//! which CI's smoke runs use to leave the recorded numbers alone): `online`
//! → `BENCH_online.json`, `cardbench` → `BENCH_cardbench.json`. Each audits
//! itself — drained drive, sharded replay and 1-shard == unsharded, regime
//! re-run — and exits non-zero when the audit fails.
//!
//! Everything written here is a pure function of `(experiment, scale,
//! seed)`: deterministic work only, so a fresh run is byte-identical to the
//! committed file (CI `cmp`s both artifacts). Nothing in this crate
//! reads a clock; wall time is measured by `benchmark/` and nowhere else.

use bench::cli::{self, Cli, Experiment};
use bench::common::{report, write_artifact, BenchObs, ExperimentScale, Row};
use bench::experiments::{aging, cardbench, fig3, fig4, intro, online, shrink, table1, tsweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = cli::parse(&args).unwrap_or_else(|why| {
        eprintln!("error: {why}\n\n{}", cli::usage());
        std::process::exit(2);
    });
    let scale = &cli.scale;
    let bench_obs = BenchObs::new(&cli);
    let obs = &bench_obs.obs;
    let mut journal = None;
    let rows = match cli.experiment {
        Experiment::Intro => intro_rows(scale),
        Experiment::Fig3 => fig3_rows(scale, obs),
        Experiment::Fig4 if cli.ablation => {
            println!("== Figure 4 ablation: FindNextStatToBuild node order ==");
            fig4::ablation_rows(&fig4::run_ablation(scale))
        }
        Experiment::Fig4 => fig4_rows(scale),
        Experiment::Table1 => table1_rows(scale),
        Experiment::Tsweep => tsweep_rows(scale, obs, &mut journal),
        Experiment::Shrink => shrink_rows(scale, obs, &mut journal),
        Experiment::Aging => aging_rows(scale),
        Experiment::All => {
            let mut rows = intro_rows(scale);
            rows.extend(fig3_rows(scale, obs));
            rows.extend(fig4_rows(scale));
            rows.extend(table1_rows(scale));
            // The journal exported is the sweep's paper-default point.
            rows.extend(tsweep_rows(scale, obs, &mut journal));
            rows.extend(shrink_rows(scale, obs, &mut None));
            rows.extend(aging_rows(scale));
            println!();
            rows
        }
        Experiment::Online => return run_online(&cli, &bench_obs),
        Experiment::Cardbench => return run_cardbench(&cli, &bench_obs),
    };
    // Only `fig4` takes `--ablation`.
    let file = if cli.ablation {
        "fig4_ablation"
    } else {
        cli.name
    };
    report(&rows, &format!("results/{file}.jsonl"));
    bench_obs.finish(journal.as_ref());
}

fn intro_rows(scale: &ExperimentScale) -> Vec<Row> {
    println!("== Intro experiment: do statistics change TPC-D plans? ==");
    let results = intro::run(scale);
    for r in &results {
        println!(
            "Q{:<2} tree_changed={:<5} estimate_shifted={:<5} est cost {:>12.1} -> {:>12.1}",
            r.query, r.plan_changed, r.estimate_shifted, r.cost_before, r.cost_after
        );
    }
    intro::rows(&results)
}

fn fig3_rows(scale: &ExperimentScale, obs: &obsv::Obs) -> Vec<Row> {
    println!("== Figure 3: Candidate Statistics algorithm vs Exhaustive ==");
    fig3::rows(&fig3::run(scale, obs))
}

fn fig4_rows(scale: &ExperimentScale) -> Vec<Row> {
    println!("== Figure 4: MNSA vs create-all-candidates (t = 20%) ==");
    let results = fig4::run(scale);
    for r in &results {
        println!(
            "{:<9} {:<12} [{:<13}] stats {:>3} -> {:>3}",
            r.database, r.workload, r.mode, r.all_stats_built, r.mnsa_stats_built
        );
    }
    fig4::rows(&results)
}

fn table1_rows(scale: &ExperimentScale) -> Vec<Row> {
    println!("== Table 1: MNSA/D update-cost reduction vs MNSA (U25-C-100) ==");
    let results = table1::run(scale);
    for r in &results {
        println!(
            "{:<9} stats MNSA={:>3} MNSA/D-active={:>3}",
            r.database, r.mnsa_stats, r.mnsad_active_stats
        );
    }
    table1::rows(&results)
}

fn tsweep_rows(
    scale: &ExperimentScale,
    obs: &obsv::Obs,
    journal: &mut Option<autostats::SessionReport>,
) -> Vec<Row> {
    println!("== t-Optimizer-Cost threshold and epsilon sweep ==");
    let (results, session) = tsweep::run(scale, obs);
    *journal = Some(session);
    tsweep::rows(&results)
}

fn shrink_rows(
    scale: &ExperimentScale,
    obs: &obsv::Obs,
    journal: &mut Option<autostats::SessionReport>,
) -> Vec<Row> {
    println!("== Shrinking Set: guaranteed essential sets ==");
    let (r, session) = shrink::run(scale, obs);
    println!(
        "optimizer calls spent by Shrinking Set: {}",
        r.shrink_optimizer_calls
    );
    *journal = Some(session);
    shrink::rows(&r)
}

fn aging_rows(scale: &ExperimentScale) -> Vec<Row> {
    println!("== Aging: dampened re-creation of recently dropped statistics ==");
    let results = aging::run(scale);
    for r in &results {
        println!(
            "{:<16} created per epoch {:?}, of them re-created {:?}",
            r.policy, r.created_per_epoch, r.recreated_per_epoch
        );
    }
    aging::rows(&results)
}

/// Write each telemetry stream whose flag was given.
fn write_telemetry(cli: &Cli, t: &online::TelemetryExport) {
    for (flag, what, contents) in [
        ("--windows-out", "window deltas", &t.windows_jsonl),
        ("--health-out", "health snapshots", &t.health_jsonl),
        ("--slowlog-out", "slow-query trace", &t.slowlog_jsonl),
    ] {
        if let Some(path) = cli.path(flag) {
            write_artifact(path, what, contents);
        }
    }
}

fn run_online(cli: &Cli, bench_obs: &BenchObs) {
    println!("== Online lifecycle: router -> budget arbiter -> per-shard daemons ==");
    let (result, journal, telemetry) = online::run(
        &cli.scale,
        cli.shards,
        cli.ticks,
        cli.budget,
        bench_obs.obs.clone(),
    );
    result.print();
    let r = &result;
    let audits = [
        (r.drained, "no quiet tick before the drain backstop"),
        (r.replay_identical, "seed-fixed replay diverged"),
        (r.one_shard_identical, "1-shard cluster != plain service"),
    ];
    if let Some((_, failed)) = audits.iter().find(|(passed, _)| !passed) {
        eprintln!("error: {failed}");
        std::process::exit(1);
    }
    write_artifact(cli.out("BENCH_online.json"), "results", &result.to_json());
    write_telemetry(cli, &telemetry);
    bench_obs.finish(Some(&journal));
}

fn run_cardbench(cli: &Cli, bench_obs: &BenchObs) {
    println!("== Estimation quality: q-error + plan-cost regret ==");
    let result = cardbench::run(&cli.scale, &bench_obs.obs);
    result.print();
    bench_obs.finish(None);
    write_artifact(
        cli.out("BENCH_cardbench.json"),
        "results",
        &result.to_json(),
    );
    if !result.deterministic {
        eprintln!("error: determinism audit failed: regime re-run changed the numbers");
        std::process::exit(1);
    }
}
