//! Deterministic time-windowed metric rollups.
//!
//! A [`WindowedRegistry`] wraps a [`Registry`] and turns its cumulative
//! readings into **per-window deltas** on explicit [`WindowedRegistry::roll`]
//! calls. The caller supplies the window id — in the online service that is
//! the `autod` virtual-time tick, so the window schedule is exactly as
//! reproducible as the tick schedule and never reads a wall clock itself.
//! (The *values* inside a window may still be wall-clock flavoured, e.g.
//! latency quantiles; those are outside the bit-identity contract.)
//!
//! Per window and per metric the delta is:
//!
//! * counters / float counters → the increase over the window (a rate per
//!   window: QPS, refreshes/s, …);
//! * gauges → the value at the window boundary (already instantaneous);
//! * latency histograms → count increase plus `p50/p90/p99/p999/max`
//!   computed from the window's own bucket deltas (not the cumulative
//!   distribution).
//!
//! [`WindowDelta::to_json_line`] renders one flat JSON object per window —
//! a JSONL time series validated by [`crate::check::check_windows`] and by
//! the `obsv_check --windows` flag.

use crate::json::Object;
use crate::latency::LatencySample;
use crate::lock;
use crate::metrics::{MetricValue, Registry, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One metric's reading within a window.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowValue {
    /// Counter increase over the window.
    Delta(u64),
    /// Float-counter increase over the window.
    FloatDelta(f64),
    /// Gauge value at the window boundary.
    Level(i64),
    /// Latency distribution of the window alone.
    Latency(LatencySample),
}

/// All metric deltas for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDelta {
    pub window: u64,
    pub entries: BTreeMap<String, WindowValue>,
}

impl WindowDelta {
    /// The counter delta for `name` (0 when absent or not a counter).
    pub fn count(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(WindowValue::Delta(n)) => *n,
            Some(WindowValue::Latency(s)) => s.count,
            _ => 0,
        }
    }

    /// The latency distribution of the window for `name`, if recorded.
    pub fn latency(&self, name: &str) -> Option<&LatencySample> {
        match self.entries.get(name) {
            Some(WindowValue::Latency(s)) => Some(s),
            _ => None,
        }
    }

    /// One flat JSON object: `{"window": N, "<metric>": <delta>, ...}`.
    /// Latency metrics expand to `.count/.p50/.p90/.p99/.p999/.max` keys.
    pub fn to_json_line(&self) -> String {
        let mut line = Object::new().field("window", self.window);
        for (name, value) in &self.entries {
            match value {
                WindowValue::Delta(n) => line.push(name.as_str(), *n),
                WindowValue::FloatDelta(v) => line.push(name.as_str(), *v),
                WindowValue::Level(v) => line.push(name.as_str(), *v),
                WindowValue::Latency(s) => {
                    for (suffix, v) in [
                        ("count", s.count),
                        ("p50", s.quantile(0.50)),
                        ("p90", s.quantile(0.90)),
                        ("p99", s.quantile(0.99)),
                        ("p999", s.quantile(0.999)),
                        ("max", s.max),
                    ] {
                        line.push(format!("{name}.{suffix}"), v);
                    }
                }
            }
        }
        line.line()
    }
}

/// Rolls a [`Registry`]'s cumulative readings into per-window deltas.
pub struct WindowedRegistry {
    registry: Arc<Registry>,
    prev: Mutex<Snapshot>,
}

impl WindowedRegistry {
    /// Start windowing `registry` from its *current* state: the first
    /// `roll` reports only activity after this call.
    pub fn new(registry: Arc<Registry>) -> Self {
        let prev = registry.snapshot();
        WindowedRegistry {
            registry,
            prev: Mutex::new(prev),
        }
    }

    /// Close the current window as `window` and open the next: returns the
    /// deltas between the previous roll (or construction) and now.
    pub fn roll(&self, window: u64) -> WindowDelta {
        let now = self.registry.snapshot();
        let mut prev = lock(&self.prev);
        let mut entries = BTreeMap::new();
        for (name, value) in &now.entries {
            let before = prev.entries.get(name);
            let delta = match (value, before) {
                (MetricValue::Counter(n), Some(MetricValue::Counter(p))) => {
                    WindowValue::Delta(n.saturating_sub(*p))
                }
                (MetricValue::Counter(n), _) => WindowValue::Delta(*n),
                (MetricValue::Float(v), Some(MetricValue::Float(p))) => {
                    WindowValue::FloatDelta(v - p)
                }
                (MetricValue::Float(v), _) => WindowValue::FloatDelta(*v),
                (MetricValue::Gauge(v), _) => WindowValue::Level(*v),
                (MetricValue::Latency(sample), before) => {
                    let prior = match before {
                        Some(MetricValue::Latency(p)) => p.clone(),
                        _ => LatencySample::default(),
                    };
                    WindowValue::Latency(sample.delta_from(&prior))
                }
            };
            entries.insert(name.clone(), delta);
        }
        *prev = now;
        WindowDelta { window, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_isolate_windows() {
        let r = Arc::new(Registry::new());
        let queries = r.counter("autod.queries");
        let work = r.float_counter("autod.refresh_work");
        let depth = r.gauge("autod.pending");
        queries.add(5); // before windowing starts: invisible
        let w = WindowedRegistry::new(Arc::clone(&r));

        queries.add(3);
        work.add(1.5);
        depth.set(7);
        let first = w.roll(1);
        assert_eq!(first.window, 1);
        assert_eq!(first.count("autod.queries"), 3);
        assert_eq!(
            first.entries.get("autod.refresh_work"),
            Some(&WindowValue::FloatDelta(1.5))
        );
        assert_eq!(
            first.entries.get("autod.pending"),
            Some(&WindowValue::Level(7))
        );

        // A quiet window reports zeros, not the cumulative totals.
        let second = w.roll(2);
        assert_eq!(second.count("autod.queries"), 0);
        assert_eq!(
            second.entries.get("autod.pending"),
            Some(&WindowValue::Level(7))
        );
    }

    #[test]
    fn latency_quantiles_are_per_window() {
        let r = Arc::new(Registry::new());
        let lat = r.latency("q.latency_ns");
        let w = WindowedRegistry::new(Arc::clone(&r));
        lat.observe(100);
        lat.observe(100);
        w.roll(1);
        lat.observe(1_000_000);
        let d = w.roll(2);
        let sample = d.latency("q.latency_ns").expect("latency entry");
        assert_eq!(sample.count, 1);
        assert!(sample.quantile(0.5) >= 1_000_000, "old samples leaked in");
        let line = d.to_json_line();
        assert!(line.contains("\"q.latency_ns.p99\""));
        let parsed = crate::json::parse(&line).expect("window line parses");
        assert_eq!(
            parsed.get("window").and_then(crate::json::Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn json_line_bytes_are_pinned() {
        let mut entries = BTreeMap::new();
        entries.insert("q.count".to_string(), WindowValue::Delta(5));
        entries.insert("r.work".to_string(), WindowValue::FloatDelta(2.25));
        entries.insert("r.inf".to_string(), WindowValue::FloatDelta(f64::INFINITY));
        entries.insert("s.depth".to_string(), WindowValue::Level(-3));
        entries.insert(
            "t.latency_ns".to_string(),
            WindowValue::Latency(crate::metrics::tests::fixed_latency()),
        );
        // The exact bytes written for this input: recorded artifacts and
        // their readers depend on them.
        let pinned = "{\"window\": 7, \"q.count\": 5, \"r.inf\": null, \"r.work\": 2.25, \"s.depth\": -3, \"t.latency_ns.count\": 3, \"t.latency_ns.p50\": 2015, \"t.latency_ns.p90\": 1015807, \"t.latency_ns.p99\": 1015807, \"t.latency_ns.p999\": 1015807, \"t.latency_ns.max\": 1000000}";
        assert_eq!(WindowDelta { window: 7, entries }.to_json_line(), pinned);
        let empty = WindowDelta {
            window: 0,
            entries: BTreeMap::new(),
        };
        assert_eq!(empty.to_json_line(), "{\"window\": 0}");
    }

    #[test]
    fn fixed_windows_are_deterministic() {
        let run = || {
            let r = Arc::new(Registry::new());
            let c = r.counter("x");
            let w = WindowedRegistry::new(Arc::clone(&r));
            let mut lines = String::new();
            for window in 1..=4u64 {
                c.add(window);
                lines.push_str(&w.roll(window).to_json_line());
                lines.push('\n');
            }
            lines
        };
        assert_eq!(run(), run());
    }
}
