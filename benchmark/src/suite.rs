//! The suite: every workload in a process of its own (so peak RSS and CPU time
//! are per workload), untraced and then traced, printed by name with units;
//! `--repeat N` compares N untraced sets against `BENCHMARK.json`'s bounds.

use crate::spec::{self, Workload};
use crate::sys::{self, percentile};
use crate::Cli;
use obsv::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub const RESULTS_DIR: &str = "benchmark/results";
const CONTRACT_FILE: &str = "BENCHMARK.json";

pub fn result_path(workload: &str, traced: bool) -> String {
    let suffix = if traced { ".traced" } else { "" };
    format!("{RESULTS_DIR}/{workload}{suffix}.json")
}

pub fn trace_path(workload: &str) -> String {
    format!("{RESULTS_DIR}/{workload}.trace.json")
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// What the suite needs from `BENCHMARK.json`, after checking that the file
/// and the binary name the same workloads and metrics with the same units.
struct Contract {
    run_seconds: f64,
    end_to_end: BTreeMap<String, Declared>,
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let text = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    list.as_array()
        .unwrap_or(&[])
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect()
}

fn read_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string(CONTRACT_FILE)
        .map_err(|e| format!("{CONTRACT_FILE}: {e} (run the suite from the repository root)"))?;
    let file = json::parse(&text).map_err(|e| format!("{CONTRACT_FILE}: {e}"))?;
    let section = |key: &str| file.get(key).ok_or(format!("{CONTRACT_FILE}: no '{key}'"));

    let declared: Vec<String> = names_and_units(section("workloads")?)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let built: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    if declared != built {
        return Err(format!(
            "{CONTRACT_FILE} lists workloads {declared:?}, the binary has {built:?}"
        ));
    }
    let same = |key: &str, built: Vec<(String, &str)>| -> Result<(), String> {
        let built: Vec<(String, String)> =
            built.into_iter().map(|(n, u)| (n, u.to_string())).collect();
        if names_and_units(section(key)?) == built {
            Ok(())
        } else {
            Err(format!(
                "{CONTRACT_FILE}: '{key}' differs from the binary's metric list"
            ))
        }
    };
    same("end_to_end", spec::end_to_end())?;
    same("per_layer", spec::per_layer())?;

    let end_to_end = section("end_to_end")?
        .as_array()
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let declared = Declared {
                unit: e
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                lower_is_better: e.get("better").and_then(Json::as_str) != Some("higher"),
                bound: e.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            };
            (name, declared)
        })
        .collect();
    Ok(Contract {
        run_seconds: section("run_seconds")?
            .as_f64()
            .ok_or("run_seconds is not a number")?,
        end_to_end,
    })
}

/// One child run's metrics by name, and whether its checks passed.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Run one workload in a child process and read the result off its last line.
fn child(w: &Workload, cli: &Cli, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name])
        .args([
            "--seed",
            &cli.seed.unwrap_or(spec::DEFAULT_SEED).to_string(),
        ])
        .args([
            "--universe",
            &cli.universe.unwrap_or(spec::DEFAULT_UNIVERSE).to_string(),
        ])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name, trace as u8, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    Ok(ChildResult {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

/// Print one run: every metric by name with its unit, then the sample counts
/// and workload-specific extras the run left in its result file.
fn print_run(w: &Workload, trace: bool, result: &ChildResult, order: &[(String, &str)]) {
    let kind = if trace {
        "per-layer (traced, 1 client)"
    } else {
        "end-to-end (tracing off)"
    };
    println!("\n== {} — {kind} ==", w.name);
    let mut zero = Vec::new();
    for (name, _) in order {
        match result.metrics.get(name) {
            Some((value, _)) if *value == 0.0 => zero.push(name.as_str()),
            Some((value, unit)) => println!("  {name:<34} {value:>16.4} {unit}"),
            None => {}
        }
    }
    if !zero.is_empty() {
        println!(
            "  read 0 (no such layer on this workload): {}",
            zero.join(" ")
        );
    }
    let file = std::fs::read_to_string(result_path(w.name, trace))
        .ok()
        .and_then(|t| json::parse(&t).ok());
    for key in ["samples", "phases_s", "extra"] {
        if let Some(value) = file.as_ref().and_then(|f| f.get(key)) {
            println!("  {key}: {}", sys::render(value));
        }
    }
    println!(
        "  checks: {}",
        if result.correct { "passed" } else { "FAILED" }
    );
}

/// Compare `--repeat` sets: per metric the median, quartiles and the largest
/// relative deviation between two sets, against the metric's bound. Metrics
/// that are pure functions of the inputs must agree bit for bit.
fn compare_sets(w: &Workload, sets: &[ChildResult], contract: &Contract) -> bool {
    println!("\n== {} — {} sets ==", w.name, sets.len());
    println!(
        "  {:<20} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "metric", "q1", "median", "q3", "max dev", "bound"
    );
    let mut agree = true;
    for (name, declared) in &contract.end_to_end {
        let mut values: Vec<f64> = sets
            .iter()
            .filter_map(|s| s.metrics.get(name))
            .map(|m| m.0)
            .collect();
        sys::sort(&mut values);
        let (Some(&min), Some(&max)) = (values.first(), values.last()) else {
            continue;
        };
        // How much worse the worst set is than the best, as the bound counts it.
        let deviation = if declared.lower_is_better {
            (max - min) / min
        } else {
            (max - min) / max
        };
        let exact = spec::is_exact(name, w.kind);
        let within = if exact {
            min.to_bits() == max.to_bits()
        } else {
            deviation <= declared.bound
        };
        agree &= within;
        println!(
            "  {name:<20} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}{}",
            percentile(&values, 25.0),
            percentile(&values, 50.0),
            percentile(&values, 75.0),
            deviation * 100.0,
            declared.bound * 100.0,
            declared.unit,
            match (within, exact) {
                (true, true) => "  bit-identical",
                (true, false) => "",
                (false, true) => "  NOT BIT-IDENTICAL",
                (false, false) => "  OUT OF BOUND",
            },
        );
    }
    agree
}

/// Run the suite. `Ok(false)` when a check failed or two sets disagreed.
pub fn run(cli: &Cli) -> Result<bool, String> {
    let contract = read_contract()?;
    let divisor = if cli.smoke {
        spec::SMOKE_DIVISOR as f64
    } else {
        1.0
    };
    let seconds = cli.seconds.unwrap_or(contract.run_seconds / divisor);
    let workloads: Vec<Workload> = match &cli.workload {
        Some(name) => vec![spec::workload(name).ok_or(format!("unknown workload '{name}'"))?],
        None => spec::WORKLOADS.to_vec(),
    };
    let end_to_end = spec::end_to_end();
    let per_layer = spec::per_layer();
    let mut ok = true;

    if !cli.traced_only {
        let mut sets: Vec<Vec<ChildResult>> = workloads.iter().map(|_| Vec::new()).collect();
        for _ in 0..cli.repeat {
            for (w, sets) in workloads.iter().zip(&mut sets) {
                let result = child(w, cli, seconds, false)?;
                print_run(w, false, &result, &end_to_end);
                ok &= result.correct;
                sets.push(result);
            }
        }
        // Smoke runs are too short for the bounds to mean anything.
        if cli.repeat > 1 && !cli.smoke {
            for (w, sets) in workloads.iter().zip(&sets) {
                ok &= compare_sets(w, sets, &contract);
            }
        }
    }
    for w in &workloads {
        let result = child(w, cli, seconds, true)?;
        print_run(w, true, &result, &per_layer);
        println!("  trace: {}", trace_path(w.name));
        ok &= result.correct;
    }
    println!(
        "\n{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}
