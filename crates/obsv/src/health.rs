//! A one-struct health snapshot of the online statistics service.
//!
//! [`HealthSnapshot`] is the "is the self-tuning loop keeping up?" readout:
//! epoch freshness, refresh backlog, monitor occupancy, budget position,
//! tuner optimizer calls, and query-latency quantiles — assembled by the `autod` lifecycle daemon at the end of each
//! tick and exported as JSONL (one snapshot per line, validated by
//! [`crate::check::check_health`]). The `obsv_top` binary renders the
//! latest snapshot as a one-screen dashboard.
//!
//! Fields are plain scalars so a snapshot round-trips through JSON without
//! this crate knowing anything about the daemon's types. Latency fields are
//! wall-clock flavoured and outside the bit-identity determinism contract;
//! everything else is a deterministic function of the tick schedule.

use crate::json::{self, Json, Object};

/// Point-in-time health of the online service. All counters are cumulative
/// since service start except where named otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSnapshot {
    /// Virtual-time tick this snapshot was assembled at.
    pub tick: u64,
    /// Serving shard of this snapshot, stamped by the cluster that reads it
    /// (0 for an unsharded service; pre-shard streams parse back as shard
    /// 0).
    pub shard: u64,
    /// Last published catalog epoch.
    pub epoch_generation: u64,
    /// Ticks since the last epoch publication (0 = published this tick).
    pub epoch_age_ticks: u64,
    /// Stale statistics whose refresh was deferred for lack of budget.
    pub staleness_backlog: u64,
    /// Query templates queued for MNSA analysis.
    pub pending_templates: u64,
    /// Distinct templates currently retained by the workload monitor.
    pub monitor_templates: u64,
    /// Monitor capacity (occupancy = templates / capacity).
    pub monitor_capacity: u64,
    /// Total queries the monitor observed (including duplicates).
    pub monitor_observed: u64,
    /// Templates evicted from the monitor over its life.
    pub monitor_evictions: u64,
    /// Evicted templates whose history was restored on re-arrival.
    pub monitor_ghost_hits: u64,
    /// Work-token balance (negative = debt to pay down).
    pub budget_balance: f64,
    /// Kept for the wire format; `cache_hits` is always 0. Nothing memoizes
    /// the tuner's optimizer calls, so `cache_misses` is the number of MNSA
    /// optimizer calls.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Statements served.
    pub queries: u64,
    pub dml: u64,
    /// Query-latency distribution (wall clock; outside bit-identity).
    pub latency_count: u64,
    pub latency_p50_ns: u64,
    pub latency_p90_ns: u64,
    pub latency_p99_ns: u64,
    pub latency_p999_ns: u64,
    pub latency_max_ns: u64,
}

impl HealthSnapshot {
    /// Monitor occupancy in `[0, 1]`.
    pub fn monitor_occupancy(&self) -> f64 {
        if self.monitor_capacity == 0 {
            0.0
        } else {
            self.monitor_templates as f64 / self.monitor_capacity as f64
        }
    }

    /// Fraction of evictions whose history was later restored.
    pub fn ghost_hit_rate(&self) -> f64 {
        if self.monitor_evictions == 0 {
            0.0
        } else {
            self.monitor_ghost_hits as f64 / self.monitor_evictions as f64
        }
    }

    /// `cache_hits` over all tuner optimizer calls, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Outstanding work debt (0 when the balance is non-negative).
    pub fn budget_debt(&self) -> f64 {
        (-self.budget_balance).max(0.0)
    }

    /// One flat JSON object — one line of the health JSONL stream.
    pub fn to_json_line(&self) -> String {
        Object::new()
            .field("tick", self.tick)
            .field("shard", self.shard)
            .field("epoch_generation", self.epoch_generation)
            .field("epoch_age_ticks", self.epoch_age_ticks)
            .field("staleness_backlog", self.staleness_backlog)
            .field("pending_templates", self.pending_templates)
            .field("monitor_templates", self.monitor_templates)
            .field("monitor_capacity", self.monitor_capacity)
            .field("monitor_observed", self.monitor_observed)
            .field("monitor_evictions", self.monitor_evictions)
            .field("monitor_ghost_hits", self.monitor_ghost_hits)
            .field("budget_balance", self.budget_balance)
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
            .field("queries", self.queries)
            .field("dml", self.dml)
            .field("latency_count", self.latency_count)
            .field("latency_p50_ns", self.latency_p50_ns)
            .field("latency_p90_ns", self.latency_p90_ns)
            .field("latency_p99_ns", self.latency_p99_ns)
            .field("latency_p999_ns", self.latency_p999_ns)
            .field("latency_max_ns", self.latency_max_ns)
            .line()
    }

    /// Parse one JSONL line back into a snapshot (missing fields read 0).
    pub fn from_json_line(line: &str) -> Result<HealthSnapshot, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        if v.as_object().is_none() {
            return Err("health line must be a JSON object".to_string());
        }
        let num = |key: &str| -> u64 { v.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64 };
        Ok(HealthSnapshot {
            tick: num("tick"),
            shard: num("shard"),
            epoch_generation: num("epoch_generation"),
            epoch_age_ticks: num("epoch_age_ticks"),
            staleness_backlog: num("staleness_backlog"),
            pending_templates: num("pending_templates"),
            monitor_templates: num("monitor_templates"),
            monitor_capacity: num("monitor_capacity"),
            monitor_observed: num("monitor_observed"),
            monitor_evictions: num("monitor_evictions"),
            monitor_ghost_hits: num("monitor_ghost_hits"),
            budget_balance: v
                .get("budget_balance")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            cache_hits: num("cache_hits"),
            cache_misses: num("cache_misses"),
            queries: num("queries"),
            dml: num("dml"),
            latency_count: num("latency_count"),
            latency_p50_ns: num("latency_p50_ns"),
            latency_p90_ns: num("latency_p90_ns"),
            latency_p99_ns: num("latency_p99_ns"),
            latency_p999_ns: num("latency_p999_ns"),
            latency_max_ns: num("latency_max_ns"),
        })
    }

    /// Merge per-shard snapshots into one cluster-level view. Counters,
    /// backlogs, and balances sum across shards; `tick` and the epoch fields
    /// take the worst (largest) shard. Monitor occupancy is pooled: templates
    /// and capacity both sum, so the merged occupancy is the cluster's, not
    /// the fullest shard's. Latency quantiles take the per-shard maximum —
    /// an upper bound, since quantiles have no exact merge at snapshot
    /// granularity (the serving layer merges the underlying histograms
    /// exactly; see [`crate::latency::LatencyHistogram::merge_from`]). The
    /// merged snapshot's `shard` field is the number of shards merged.
    pub fn merge(shards: &[HealthSnapshot]) -> HealthSnapshot {
        let mut out = HealthSnapshot {
            shard: shards.len() as u64,
            ..HealthSnapshot::default()
        };
        for s in shards {
            out.tick = out.tick.max(s.tick);
            out.epoch_generation = out.epoch_generation.max(s.epoch_generation);
            out.epoch_age_ticks = out.epoch_age_ticks.max(s.epoch_age_ticks);
            out.staleness_backlog += s.staleness_backlog;
            out.pending_templates += s.pending_templates;
            out.monitor_templates += s.monitor_templates;
            out.monitor_capacity += s.monitor_capacity;
            out.monitor_observed += s.monitor_observed;
            out.monitor_evictions += s.monitor_evictions;
            out.monitor_ghost_hits += s.monitor_ghost_hits;
            out.budget_balance += s.budget_balance;
            out.cache_hits += s.cache_hits;
            out.cache_misses += s.cache_misses;
            out.queries += s.queries;
            out.dml += s.dml;
            out.latency_count += s.latency_count;
            out.latency_p50_ns = out.latency_p50_ns.max(s.latency_p50_ns);
            out.latency_p90_ns = out.latency_p90_ns.max(s.latency_p90_ns);
            out.latency_p99_ns = out.latency_p99_ns.max(s.latency_p99_ns);
            out.latency_p999_ns = out.latency_p999_ns.max(s.latency_p999_ns);
            out.latency_max_ns = out.latency_max_ns.max(s.latency_max_ns);
        }
        out
    }

    /// A one-screen text dashboard of this snapshot (what `obsv_top`
    /// prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "autostats health — tick {} · epoch {} (age {} tick{})\n",
            self.tick,
            self.epoch_generation,
            self.epoch_age_ticks,
            if self.epoch_age_ticks == 1 { "" } else { "s" },
        ));
        out.push_str(&format!(
            "  traffic    queries {:>10}   dml {:>8}\n",
            self.queries, self.dml
        ));
        out.push_str(&format!(
            "  latency    p50 {}   p90 {}   p99 {}   p999 {}   max {}   (n={})\n",
            fmt_ns(self.latency_p50_ns),
            fmt_ns(self.latency_p90_ns),
            fmt_ns(self.latency_p99_ns),
            fmt_ns(self.latency_p999_ns),
            fmt_ns(self.latency_max_ns),
            self.latency_count,
        ));
        out.push_str(&format!(
            "  monitor    {}/{} templates ({:.0}% full)   observed {}   evictions {}   ghost-hit {:.0}%\n",
            self.monitor_templates,
            self.monitor_capacity,
            self.monitor_occupancy() * 100.0,
            self.monitor_observed,
            self.monitor_evictions,
            self.ghost_hit_rate() * 100.0,
        ));
        out.push_str(&format!(
            "  tuning     pending {}   stale backlog {}   budget balance {:.1}{}\n",
            self.pending_templates,
            self.staleness_backlog,
            self.budget_balance,
            if self.budget_debt() > 0.0 {
                " (IN DEBT)"
            } else {
                ""
            },
        ));
        out.push_str(&format!(
            "  tuner      {} optimizer calls\n",
            self.cache_misses
        ));
        out
    }
}

/// Human-scale nanoseconds: `950ns`, `12.3µs`, `4.5ms`, `1.2s`.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealthSnapshot {
        HealthSnapshot {
            tick: 12,
            shard: 2,
            epoch_generation: 3,
            epoch_age_ticks: 2,
            staleness_backlog: 1,
            pending_templates: 4,
            monitor_templates: 96,
            monitor_capacity: 256,
            monitor_observed: 5000,
            monitor_evictions: 40,
            monitor_ghost_hits: 10,
            budget_balance: -1500.5,
            cache_hits: 900,
            cache_misses: 100,
            queries: 4800,
            dml: 200,
            latency_count: 4800,
            latency_p50_ns: 45_000,
            latency_p90_ns: 120_000,
            latency_p99_ns: 900_000,
            latency_p999_ns: 2_500_000,
            latency_max_ns: 9_000_000,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let s = sample();
        let line = s.to_json_line();
        let parsed = HealthSnapshot::from_json_line(&line).expect("health line parses");
        assert_eq!(parsed, s);
        assert!(HealthSnapshot::from_json_line("[1]").is_err());
        assert!(HealthSnapshot::from_json_line("{nope").is_err());
    }

    #[test]
    fn json_line_bytes_are_pinned() {
        // The exact bytes written for this input: recorded artifacts and
        // their readers depend on them.
        let pinned = "{\"tick\": 12, \"shard\": 2, \"epoch_generation\": 3, \"epoch_age_ticks\": 2, \"staleness_backlog\": 1, \"pending_templates\": 4, \"monitor_templates\": 96, \"monitor_capacity\": 256, \"monitor_observed\": 5000, \"monitor_evictions\": 40, \"monitor_ghost_hits\": 10, \"budget_balance\": -1500.5, \"cache_hits\": 900, \"cache_misses\": 100, \"queries\": 4800, \"dml\": 200, \"latency_count\": 4800, \"latency_p50_ns\": 45000, \"latency_p90_ns\": 120000, \"latency_p99_ns\": 900000, \"latency_p999_ns\": 2500000, \"latency_max_ns\": 9000000}";
        assert_eq!(sample().to_json_line(), pinned);
        let unlimited = HealthSnapshot {
            budget_balance: f64::INFINITY,
            ..sample()
        };
        assert_eq!(unlimited.to_json_line(), pinned.replace("-1500.5", "null"));
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert!((s.monitor_occupancy() - 96.0 / 256.0).abs() < 1e-12);
        assert!((s.ghost_hit_rate() - 0.25).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.budget_debt() - 1500.5).abs() < 1e-12);
        assert_eq!(HealthSnapshot::default().cache_hit_rate(), 0.0);
        assert_eq!(HealthSnapshot::default().budget_debt(), 0.0);
    }

    #[test]
    fn dashboard_renders_every_section() {
        let text = sample().render_text();
        for needle in [
            "tick 12",
            "epoch 3",
            "p99 900.0µs",
            "96/256 templates",
            "ghost-hit 25%",
            "IN DEBT",
            "100 optimizer calls",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(text.lines().count() <= 12, "dashboard must fit one screen");
    }

    #[test]
    fn merge_sums_counters_and_bounds_quantiles() {
        let a = sample();
        let mut b = sample();
        b.shard = 1;
        b.tick = 14;
        b.queries = 200;
        b.latency_p99_ns = 2_000_000;
        b.budget_balance = 500.0;
        let merged = HealthSnapshot::merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.shard, 2, "shard field counts merged shards");
        assert_eq!(merged.tick, 14);
        assert_eq!(merged.queries, a.queries + b.queries);
        assert_eq!(merged.monitor_capacity, 512);
        assert_eq!(merged.latency_count, a.latency_count + b.latency_count);
        assert_eq!(merged.latency_p99_ns, 2_000_000, "quantile upper bound");
        assert!((merged.budget_balance - (a.budget_balance + b.budget_balance)).abs() < 1e-9);
        assert_eq!(HealthSnapshot::merge(&[]), HealthSnapshot::default());
    }

    #[test]
    fn pre_shard_lines_parse_as_shard_zero() {
        let line = "{\"tick\": 3, \"epoch_generation\": 1, \"queries\": 9}";
        let snap = HealthSnapshot::from_json_line(line).expect("parses");
        assert_eq!(snap.shard, 0);
        assert_eq!(snap.tick, 3);
        assert_eq!(snap.queries, 9);
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(12_345), "12.3µs");
        assert_eq!(fmt_ns(4_500_000), "4.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
