//! One-screen health dashboard for the online statistics service.
//!
//! Usage:
//!   obsv_top HEALTH_JSONL...            # latest snapshot(s) as a dashboard
//!   obsv_top --watch HEALTH_JSONL...    # re-render every second (Ctrl-C to stop)
//!
//! The input is the health JSONL stream the `autod` lifecycle daemon
//! exports (one [`obsv::HealthSnapshot`] per line; `exp online
//! --health-out` writes one). Sharded clusters interleave per-shard
//! snapshots in one stream, as `exp online` does — or write one file per
//! shard; either way, pass every file and the dashboard groups lines by
//! their `shard` field, showing one row per shard plus a merged cluster
//! summary.

use obsv::HealthSnapshot;
use std::process::ExitCode;

fn load(paths: &[String]) -> Result<Vec<HealthSnapshot>, String> {
    let mut snapshots = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            snapshots.push(
                HealthSnapshot::from_json_line(line)
                    .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
            );
        }
    }
    Ok(snapshots)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Latest snapshot per shard, in ascending shard order.
fn latest_per_shard(snapshots: &[HealthSnapshot]) -> Vec<HealthSnapshot> {
    let mut latest: std::collections::BTreeMap<u64, HealthSnapshot> =
        std::collections::BTreeMap::new();
    for s in snapshots {
        let slot = latest.entry(s.shard).or_insert_with(|| s.clone());
        if s.tick >= slot.tick {
            *slot = s.clone();
        }
    }
    latest.into_values().collect()
}

fn render(snapshots: &[HealthSnapshot]) -> String {
    if snapshots.is_empty() {
        return "obsv_top: no health snapshots yet\n".to_string();
    }
    let shards = latest_per_shard(snapshots);
    if shards.len() <= 1 {
        return render_single(snapshots);
    }
    render_cluster(&shards, snapshots)
}

/// The original unsharded dashboard: latest snapshot plus per-tick rates.
fn render_single(snapshots: &[HealthSnapshot]) -> String {
    let Some(latest) = snapshots.last() else {
        return "obsv_top: no health snapshots yet\n".to_string();
    };
    let mut out = latest.render_text();
    if snapshots.len() >= 2 {
        let prev = &snapshots[snapshots.len() - 2];
        let ticks = latest.tick.saturating_sub(prev.tick).max(1);
        let qps = latest.queries.saturating_sub(prev.queries) as f64 / ticks as f64;
        let dml = latest.dml.saturating_sub(prev.dml) as f64 / ticks as f64;
        out.push_str(&format!(
            "  rates      {qps:.1} queries/tick   {dml:.1} dml/tick   (over last {ticks} tick{})\n",
            if ticks == 1 { "" } else { "s" },
        ));
    }
    out.push_str(&format!("  history    {} snapshot(s)\n", snapshots.len()));
    out
}

/// Multi-shard dashboard: one row per shard (latest snapshot each) and a
/// merged cluster summary. Counters sum exactly; merged latency quantiles
/// are upper bounds (see [`HealthSnapshot::merge`]) — the exact merged
/// distribution lives in the histogram registry, not the health stream.
fn render_cluster(shards: &[HealthSnapshot], all: &[HealthSnapshot]) -> String {
    let merged = HealthSnapshot::merge(shards);
    let mut out = format!(
        "autostats cluster health — {} shards · {} snapshot(s)\n",
        shards.len(),
        all.len(),
    );
    out.push_str("  shard  tick  epoch  queries      dml   pending  backlog   balance     p99\n");
    for s in shards {
        out.push_str(&format!(
            "  {:>5}  {:>4}  {:>5}  {:>7}  {:>7}  {:>8}  {:>7}  {:>8.1}  {:>6}\n",
            s.shard,
            s.tick,
            s.epoch_generation,
            s.queries,
            s.dml,
            s.pending_templates,
            s.staleness_backlog,
            s.budget_balance,
            fmt_ns(s.latency_p99_ns),
        ));
    }
    out.push_str(&format!(
        "  merged     queries {}   dml {}   pending {}   backlog {}   balance {:.1}\n",
        merged.queries,
        merged.dml,
        merged.pending_templates,
        merged.staleness_backlog,
        merged.budget_balance,
    ));
    out.push_str(&format!(
        "  latency≤   p50 {}   p99 {}   p999 {}   max {}   (n={}, per-shard maxima)\n",
        fmt_ns(merged.latency_p50_ns),
        fmt_ns(merged.latency_p99_ns),
        fmt_ns(merged.latency_p999_ns),
        fmt_ns(merged.latency_max_ns),
        merged.latency_count,
    ));
    out
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let watch = args.first().is_some_and(|a| a == "--watch");
    if watch {
        args.remove(0);
    }
    if args.is_empty() || args.iter().any(|a| a.starts_with('-')) {
        eprintln!("usage: obsv_top [--watch] HEALTH_JSONL...");
        return ExitCode::FAILURE;
    }
    loop {
        match load(&args) {
            Ok(snapshots) => {
                if watch {
                    // ANSI clear-screen + home, so the dashboard stays put.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render(&snapshots));
            }
            Err(e) => {
                eprintln!("obsv_top: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !watch {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}
