//! The tuning-session journal: a structured record of what a tuning pass
//! actually did, query by query.
//!
//! Spans and counters (the `obsv` side) answer "where did the time go";
//! the journal answers "what did the tuner decide" — per-query MNSA
//! trajectories (rounds, creations, drop-listings, termination reason,
//! final plan cost), the shrinking pass, and workload totals. It is built
//! from [`MnsaOutcome`]s, never from the metrics registry, so it is
//! bit-identical with tracing on or off.

use crate::mnsa::{MnsaOutcome, Termination};
use crate::policy::TuningReport;
use crate::shrinking::ShrinkingOutcome;
use obsv::json::Object;
use stats::StatId;
use std::fmt::Write as _;
use storage::TableId;

/// One event in an *online* tuning session (the `autod` lifecycle daemon).
///
/// Offline sessions never record these, and the renderers below emit the
/// online section only when at least one event exists, so offline journals
/// stay byte-identical with or without this feature compiled in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineEvent {
    /// A stale statistic was rebuilt by the staleness tracker.
    Refresh {
        tick: u64,
        stat: StatId,
        table: TableId,
        work: f64,
    },
    /// A statistic refreshed more than `max_updates` times was physically
    /// dropped (§6 auto-drop); `updates` is the count it went at.
    AutoDrop {
        tick: u64,
        stat: StatId,
        table: TableId,
        updates: u32,
    },
    /// The workload monitor evicted a query template from its reservoir.
    MonitorEvict { tick: u64, fingerprint: u64 },
    /// A tick ran out of work-token budget with tuning still pending.
    BudgetExhausted {
        tick: u64,
        pending: usize,
        balance: f64,
    },
    /// The daemon published a new catalog epoch to query threads.
    EpochSwap { tick: u64, generation: u64 },
    /// A serving shard took ownership of a table (or of one hash-partition
    /// slice of it). Recorded at cluster start (tick 0), before any tuning,
    /// so multi-shard replays are auditable and bit-identity tests can pin
    /// the exact placement.
    ShardAssigned {
        tick: u64,
        shard: u32,
        table: TableId,
        /// Rows this shard holds for the table (the slice size when
        /// partitioned, the whole table otherwise).
        rows: u64,
        /// True when the table is hash-partitioned across all shards.
        partitioned: bool,
    },
}

/// One workload query's tuning trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Position in the workload (0-based).
    pub index: usize,
    /// Relations referenced by the query.
    pub relations: usize,
    pub optimizer_calls: usize,
    /// Sensitivity-probe rounds that built statistics.
    pub rounds: usize,
    pub created: usize,
    pub drop_listed: usize,
    /// Candidates never built because the sensitivity test passed first.
    pub skipped: usize,
    /// Estimated plan cost under the final statistics.
    pub final_cost: f64,
    pub terminated_by: Termination,
}

/// What one tuning session (one offline pass, or the life of a service)
/// did, per query and in total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReport {
    pub queries: Vec<QueryRecord>,
    /// Accumulated work/creation totals (same shape as the policy layer's
    /// per-pass report).
    pub totals: TuningReport,
    /// Statistics removed by the Shrinking Set pass (0 when it did not run).
    pub shrink_removed: usize,
    /// Optimizer calls spent by the Shrinking Set pass.
    pub shrink_optimizer_calls: usize,
    /// Online lifecycle events, in occurrence order (empty for offline
    /// sessions).
    pub online: Vec<OnlineEvent>,
}

impl SessionReport {
    /// Append one query's MNSA outcome and charge it to `totals`
    /// ([`TuningReport::charge_query`]; creation work is the caller's, who
    /// meters the catalog). Returns the overhead charged.
    pub fn record_query(&mut self, relations: usize, outcome: &MnsaOutcome) -> f64 {
        self.queries.push(QueryRecord {
            index: self.queries.len(),
            relations,
            optimizer_calls: outcome.optimizer_calls,
            rounds: outcome.rounds,
            created: outcome.created.len(),
            drop_listed: outcome.drop_listed.len(),
            skipped: outcome.skipped.len(),
            final_cost: outcome.final_cost,
            terminated_by: outcome.terminated_by,
        });
        self.totals.charge_query(relations, outcome)
    }

    /// Add one Shrinking Set pass that was charged `overhead`: its optimizer
    /// calls, that overhead and its removals (moved to the drop-list) go
    /// into `totals`, and the calls and removals into the `shrink_*` fields.
    pub fn record_shrink(&mut self, out: &ShrinkingOutcome, overhead: f64) {
        self.totals.optimizer_calls += out.optimizer_calls;
        self.totals.overhead_work += overhead;
        self.totals.statistics_drop_listed += out.removed.len();
        self.shrink_removed += out.removed.len();
        self.shrink_optimizer_calls += out.optimizer_calls;
    }

    /// Append one online lifecycle event.
    pub fn record_online(&mut self, event: OnlineEvent) {
        self.online.push(event);
    }

    fn termination_str(t: Termination) -> &'static str {
        match t {
            Termination::CostConverged => "converged",
            Termination::NoMoreCandidates => "no_more_candidates",
        }
    }

    /// Render the journal as an aligned text table plus a totals block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>4} {:>6} {:>6} {:>7} {:>7} {:>7} {:>14} terminated_by",
            "query", "rels", "calls", "rounds", "created", "dropped", "skipped", "final_cost"
        );
        for q in &self.queries {
            let _ = writeln!(
                out,
                "{:>5} {:>4} {:>6} {:>6} {:>7} {:>7} {:>7} {:>14.2} {}",
                q.index,
                q.relations,
                q.optimizer_calls,
                q.rounds,
                q.created,
                q.drop_listed,
                q.skipped,
                q.final_cost,
                Self::termination_str(q.terminated_by),
            );
        }
        let _ = writeln!(
            out,
            "totals: {} queries, {} optimizer calls, {} created, {} drop-listed, \
             creation work {:.2}, overhead work {:.2}",
            self.queries.len(),
            self.totals.optimizer_calls,
            self.totals.statistics_created,
            self.totals.statistics_drop_listed,
            self.totals.creation_work,
            self.totals.overhead_work,
        );
        if self.shrink_optimizer_calls > 0 {
            let _ = writeln!(
                out,
                "shrinking set: removed {} in {} optimizer calls",
                self.shrink_removed, self.shrink_optimizer_calls
            );
        }
        if !self.online.is_empty() {
            let _ = writeln!(out, "online events: {}", self.online.len());
            for e in &self.online {
                let _ = match e {
                    OnlineEvent::Refresh {
                        tick,
                        stat,
                        table,
                        work,
                    } => writeln!(
                        out,
                        "  tick {tick:>4} refresh {stat} on {table} (work {work:.2})"
                    ),
                    OnlineEvent::AutoDrop {
                        tick,
                        stat,
                        table,
                        updates,
                    } => writeln!(
                        out,
                        "  tick {tick:>4} auto-drop {stat} on {table} (after {updates} updates)"
                    ),
                    OnlineEvent::MonitorEvict { tick, fingerprint } => {
                        writeln!(out, "  tick {tick:>4} evict template {fingerprint:016x}")
                    }
                    OnlineEvent::BudgetExhausted {
                        tick,
                        pending,
                        balance,
                    } => writeln!(
                        out,
                        "  tick {tick:>4} budget exhausted ({pending} pending, balance {balance:.2})"
                    ),
                    OnlineEvent::EpochSwap { tick, generation } => {
                        writeln!(out, "  tick {tick:>4} epoch swap -> generation {generation}")
                    }
                    OnlineEvent::ShardAssigned {
                        tick,
                        shard,
                        table,
                        rows,
                        partitioned,
                    } => writeln!(
                        out,
                        "  tick {tick:>4} shard {shard} owns {table} ({rows} rows{})",
                        if *partitioned { ", partitioned" } else { "" }
                    ),
                };
            }
        }
        out
    }

    /// Render the journal as a JSON document.
    pub fn to_json(&self) -> String {
        let queries: Vec<Object> = self
            .queries
            .iter()
            .map(|q| {
                Object::new()
                    .field("index", q.index)
                    .field("relations", q.relations)
                    .field("optimizer_calls", q.optimizer_calls)
                    .field("rounds", q.rounds)
                    .field("created", q.created)
                    .field("drop_listed", q.drop_listed)
                    .field("skipped", q.skipped)
                    .field("final_cost", q.final_cost)
                    .field("terminated_by", Self::termination_str(q.terminated_by))
            })
            .collect();
        let totals = Object::new()
            .field("optimizer_calls", self.totals.optimizer_calls)
            .field("statistics_created", self.totals.statistics_created)
            .field("statistics_drop_listed", self.totals.statistics_drop_listed)
            .field("creation_work", self.totals.creation_work)
            .field("overhead_work", self.totals.overhead_work);
        let mut doc = Object::new()
            .field("queries", queries)
            .field("totals", totals)
            .field("shrink_removed", self.shrink_removed)
            .field("shrink_optimizer_calls", self.shrink_optimizer_calls);
        // Conditional section: offline journals (no online events) render
        // exactly as they did before the online lifecycle existed.
        if !self.online.is_empty() {
            let online: Vec<Object> = self.online.iter().map(online_event_json).collect();
            doc.push("online", online);
        }
        doc.block()
    }
}

fn online_event_json(e: &OnlineEvent) -> Object {
    let event = |name: &str, tick: u64| Object::new().field("event", name).field("tick", tick);
    match *e {
        OnlineEvent::Refresh {
            tick,
            stat,
            table,
            work,
        } => event("refresh", tick)
            .field("stat", stat.0)
            .field("table", table.0)
            .field("work", work),
        OnlineEvent::AutoDrop {
            tick,
            stat,
            table,
            updates,
        } => event("auto_drop", tick)
            .field("stat", stat.0)
            .field("table", table.0)
            .field("updates", updates),
        OnlineEvent::MonitorEvict { tick, fingerprint } => {
            event("monitor_evict", tick).field("fingerprint", fingerprint)
        }
        OnlineEvent::BudgetExhausted {
            tick,
            pending,
            balance,
        } => event("budget_exhausted", tick)
            .field("pending", pending)
            .field("balance", balance),
        OnlineEvent::EpochSwap { tick, generation } => {
            event("epoch_swap", tick).field("generation", generation)
        }
        OnlineEvent::ShardAssigned {
            tick,
            shard,
            table,
            rows,
            partitioned,
        } => event("shard_assigned", tick)
            .field("shard", shard)
            .field("table", table.0)
            .field("rows", rows)
            .field("partitioned", partitioned),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(calls: usize, created: usize, cost: f64) -> MnsaOutcome {
        // Only a test helper: build through public fields via a real run is
        // overkill here, so clone-and-mutate a default-shaped outcome.
        let mut o = MnsaOutcome {
            created: Vec::new(),
            drop_listed: Vec::new(),
            skipped: Vec::new(),
            aged_out: Vec::new(),
            optimizer_calls: calls,
            terminated_by: Termination::CostConverged,
            rounds: created,
            final_cost: cost,
        };
        for i in 0..created {
            o.created.push(stats::StatId(i as u32));
        }
        o
    }

    #[test]
    fn journal_accumulates_and_renders() {
        let mut report = SessionReport::default();
        let overhead = report.record_query(2, &outcome(5, 2, 100.0));
        assert_eq!(overhead, 5.0 * crate::policy::optimizer_call_work(2));
        report.record_query(3, &outcome(3, 0, 40.5));
        assert_eq!(report.totals.statistics_created, 2);

        assert_eq!(report.queries.len(), 2);
        assert_eq!(report.queries[1].index, 1);
        assert_eq!(report.queries[1].final_cost, 40.5);

        let text = report.render_text();
        assert!(text.contains("converged"));
        assert!(text.contains("totals: 2 queries, 8 optimizer calls"));

        let json = report.to_json();
        let parsed = obsv::json::parse(&json).expect("journal JSON parses");
        let queries = parsed.get("queries").and_then(|q| q.as_array()).unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(
            queries[0].get("final_cost").and_then(|v| v.as_f64()),
            Some(100.0)
        );
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("optimizer_calls"))
                .and_then(|v| v.as_f64()),
            Some(8.0)
        );

        let shrink = ShrinkingOutcome {
            essential: vec![StatId(0)],
            removed: vec![StatId(1)],
            optimizer_calls: 4,
        };
        report.record_shrink(&shrink, 100.0);
        assert_eq!(
            (report.shrink_removed, report.shrink_optimizer_calls),
            (1, 4)
        );
        assert_eq!(report.totals.optimizer_calls, 12);
        assert_eq!(report.totals.statistics_drop_listed, 1);
        let second = 3.0 * crate::policy::optimizer_call_work(3);
        assert_eq!(report.totals.overhead_work, overhead + second + 100.0);
        assert!(report
            .render_text()
            .contains("shrinking set: removed 1 in 4 optimizer calls"));
    }

    #[test]
    fn online_events_render_only_when_present() {
        let mut offline = SessionReport::default();
        offline.record_query(2, &outcome(5, 2, 100.0));
        let offline_json = offline.to_json();
        assert!(!offline_json.contains("\"online\""));
        assert!(obsv::json::parse(&offline_json)
            .expect("parses")
            .get("online")
            .is_none());

        let mut online = offline.clone();
        online.record_online(OnlineEvent::Refresh {
            tick: 3,
            stat: stats::StatId(7),
            table: TableId(1),
            work: 42.5,
        });
        online.record_online(OnlineEvent::MonitorEvict {
            tick: 4,
            fingerprint: 0xdead_beef,
        });
        online.record_online(OnlineEvent::BudgetExhausted {
            tick: 5,
            pending: 2,
            balance: -10.0,
        });
        online.record_online(OnlineEvent::EpochSwap {
            tick: 5,
            generation: 2,
        });
        online.record_online(OnlineEvent::ShardAssigned {
            tick: 0,
            shard: 1,
            table: TableId(3),
            rows: 1200,
            partitioned: true,
        });
        online.record_online(OnlineEvent::AutoDrop {
            tick: 6,
            stat: stats::StatId(7),
            table: TableId(1),
            updates: 5,
        });
        let text = online.render_text();
        assert!(text.contains("online events: 6"));
        assert!(text.contains("epoch swap -> generation 2"));
        assert!(text.contains("shard 1 owns T3 (1200 rows, partitioned)"));
        assert!(text.contains("auto-drop S7 on T1 (after 5 updates)"));

        let parsed = obsv::json::parse(&online.to_json()).expect("parses");
        let events = parsed.get("online").and_then(|o| o.as_array()).unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[5].get("event").and_then(|v| v.as_str()),
            Some("auto_drop")
        );
        assert_eq!(events[5].get("updates").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(
            events[4].get("event").and_then(|v| v.as_str()),
            Some("shard_assigned")
        );
        assert_eq!(events[4].get("rows").and_then(|v| v.as_f64()), Some(1200.0));
        assert_eq!(
            events[0].get("event").and_then(|v| v.as_str()),
            Some("refresh")
        );
        assert_eq!(events[0].get("work").and_then(|v| v.as_f64()), Some(42.5));
    }

    #[test]
    fn json_bytes_are_pinned() {
        let mut r = SessionReport::default();
        // The exact bytes written for this input: recorded artifacts and
        // their readers depend on them.
        assert_eq!(
            r.to_json(),
            "{\n  \"queries\": [\n  ],\n  \"totals\": {\"optimizer_calls\": 0, \"statistics_created\": 0, \"statistics_drop_listed\": 0, \"creation_work\": 0, \"overhead_work\": 0},\n  \"shrink_removed\": 0,\n  \"shrink_optimizer_calls\": 0\n}\n"
        );
        r.record_query(2, &outcome(5, 2, 100.25));
        r.record_query(3, &outcome(3, 0, f64::NAN));
        r.queries[0].drop_listed = 1;
        r.queries[0].skipped = 3;
        r.queries[1].terminated_by = Termination::NoMoreCandidates;
        r.totals = TuningReport {
            statistics_created: 2,
            statistics_drop_listed: 1,
            optimizer_calls: 8,
            creation_work: 1234.5,
            overhead_work: f64::INFINITY,
        };
        r.shrink_removed = 1;
        r.shrink_optimizer_calls = 4;
        let offline = "{\n  \"queries\": [\n    {\"index\": 0, \"relations\": 2, \"optimizer_calls\": 5, \"rounds\": 2, \"created\": 2, \"drop_listed\": 1, \"skipped\": 3, \"final_cost\": 100.25, \"terminated_by\": \"converged\"},\n    {\"index\": 1, \"relations\": 3, \"optimizer_calls\": 3, \"rounds\": 0, \"created\": 0, \"drop_listed\": 0, \"skipped\": 0, \"final_cost\": null, \"terminated_by\": \"no_more_candidates\"}\n  ],\n  \"totals\": {\"optimizer_calls\": 8, \"statistics_created\": 2, \"statistics_drop_listed\": 1, \"creation_work\": 1234.5, \"overhead_work\": null},\n  \"shrink_removed\": 1,\n  \"shrink_optimizer_calls\": 4\n}\n";
        assert_eq!(r.to_json(), offline);
        for e in [
            OnlineEvent::ShardAssigned {
                tick: 0,
                shard: 1,
                table: TableId(3),
                rows: 1200,
                partitioned: true,
            },
            OnlineEvent::Refresh {
                tick: 3,
                stat: StatId(7),
                table: TableId(1),
                work: 42.5,
            },
            OnlineEvent::MonitorEvict {
                tick: 4,
                fingerprint: u64::MAX,
            },
            OnlineEvent::BudgetExhausted {
                tick: 5,
                pending: 2,
                balance: -10.0,
            },
            OnlineEvent::EpochSwap {
                tick: 5,
                generation: 2,
            },
            OnlineEvent::AutoDrop {
                tick: 6,
                stat: StatId(7),
                table: TableId(1),
                updates: 5,
            },
        ] {
            r.record_online(e);
        }
        let online = "{\n  \"queries\": [\n    {\"index\": 0, \"relations\": 2, \"optimizer_calls\": 5, \"rounds\": 2, \"created\": 2, \"drop_listed\": 1, \"skipped\": 3, \"final_cost\": 100.25, \"terminated_by\": \"converged\"},\n    {\"index\": 1, \"relations\": 3, \"optimizer_calls\": 3, \"rounds\": 0, \"created\": 0, \"drop_listed\": 0, \"skipped\": 0, \"final_cost\": null, \"terminated_by\": \"no_more_candidates\"}\n  ],\n  \"totals\": {\"optimizer_calls\": 8, \"statistics_created\": 2, \"statistics_drop_listed\": 1, \"creation_work\": 1234.5, \"overhead_work\": null},\n  \"shrink_removed\": 1,\n  \"shrink_optimizer_calls\": 4,\n  \"online\": [\n    {\"event\": \"shard_assigned\", \"tick\": 0, \"shard\": 1, \"table\": 3, \"rows\": 1200, \"partitioned\": true},\n    {\"event\": \"refresh\", \"tick\": 3, \"stat\": 7, \"table\": 1, \"work\": 42.5},\n    {\"event\": \"monitor_evict\", \"tick\": 4, \"fingerprint\": 18446744073709551615},\n    {\"event\": \"budget_exhausted\", \"tick\": 5, \"pending\": 2, \"balance\": -10},\n    {\"event\": \"epoch_swap\", \"tick\": 5, \"generation\": 2},\n    {\"event\": \"auto_drop\", \"tick\": 6, \"stat\": 7, \"table\": 1, \"updates\": 5}\n  ]\n}\n";
        assert_eq!(r.to_json(), online);
    }

    #[test]
    fn empty_session_is_valid_json() {
        let report = SessionReport::default();
        let parsed = obsv::json::parse(&report.to_json()).expect("parses");
        assert_eq!(
            parsed
                .get("queries")
                .and_then(|q| q.as_array())
                .map(|a| a.len()),
            Some(0)
        );
    }
}
