//! Performance baseline: columnar executor and shared-scan statistics builds
//! vs their retained pre-tentpole implementations, and the cost of one
//! optimizer call by relation count (see `bench::experiments::perfbase`).
//!
//! Usage: `cargo run --release -p bench --bin exp_perfbase
//!         [--full | --tiny] [--reps N] [--out PATH]
//!         [--trace-out PATH] [--check]`
//!
//! Writes `BENCH_exec.json` at the repository root by default (`--out`
//! overrides, which the CI smoke run uses to avoid clobbering the recorded
//! numbers). Both pairs are timed only after asserting identical results
//! and bit-identical work. `--check` first reloads the previous file at the
//! output path, if any, and warns when a deterministic work counter
//! regressed by more than 25% or the `optimize` block's cost-bits digest
//! differs at all, making perf and plan drift visible in CI logs before the
//! overwrite. `--trace-out PATH` exports the verification pass's span
//! events as a Chrome trace, which CI feeds through `obsv_check`.

use bench::common::ExperimentScale;
use bench::experiments::perfbase;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::full()
    } else if args.iter().any(|a| a == "--tiny") {
        ExperimentScale::tiny()
    } else {
        ExperimentScale::default_run()
    };
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(5);
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // Repo root, independent of the invocation directory.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_exec.json")
        });

    println!("== Perf baseline: columnar execution, shared-scan builds, optimizer calls ==");
    let result = perfbase::run(&scale, reps);
    result.print();

    if args.iter().any(|a| a == "--check") {
        match std::fs::read_to_string(&out) {
            Ok(previous) => match perfbase::check_against(&previous, &result) {
                Ok(warnings) if warnings.is_empty() => {
                    println!(
                        "perf check: work counters within budget and plan digest identical to {}",
                        out.display()
                    );
                }
                Ok(warnings) => {
                    for w in &warnings {
                        eprintln!("warning: perf check: {w}");
                    }
                }
                Err(why) => println!("perf check skipped: {why}"),
            },
            Err(_) => println!(
                "perf check skipped: no previous baseline at {}",
                out.display()
            ),
        }
    }

    if let Some(trace_out) = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
    {
        let chrome = obsv::export::to_chrome(&result.trace_events);
        match std::fs::write(trace_out, chrome) {
            Ok(()) => println!("trace written to {trace_out}"),
            Err(e) => {
                eprintln!("error: cannot write {trace_out}: {e}");
                std::process::exit(1);
            }
        }
    }

    match std::fs::write(&out, result.to_json()) {
        Ok(()) => println!("results written to {}", out.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}
