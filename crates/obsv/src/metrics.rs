//! Metrics registry: named counters, gauges, and latency histograms behind
//! atomics.
//!
//! A [`Registry`] is a name → metric map. Handles ([`Counter`],
//! [`FloatCounter`], [`Gauge`], [`LatencyHistogram`]) are `Arc`-backed: cloning is
//! cheap, updates are single atomic operations, and a handle keeps working
//! (detached) even if it was never registered — which is what the disabled
//! mode uses, so instrumented code never branches on "is observability on".
//!
//! Reads ([`Registry::snapshot`]) are wait-free with respect to writers:
//! the snapshot locks only the name map, then loads each atomic.

use crate::json::{Object, Value};
use crate::latency::{LatencyHistogram, LatencySample};
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone integer counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter not attached to any registry.
    pub fn detached() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotone floating-point accumulator (for work meters measured in f64
/// units). Stored as bit-cast `f64` behind a CAS loop.
#[derive(Debug, Clone)]
pub struct FloatCounter(Arc<AtomicU64>);

impl Default for FloatCounter {
    fn default() -> Self {
        FloatCounter(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl FloatCounter {
    pub fn detached() -> Self {
        Self::default()
    }

    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn detached() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Float(FloatCounter),
    Gauge(Gauge),
    Latency(LatencyHistogram),
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Float(f64),
    Gauge(i64),
    Latency(LatencySample),
}

/// A name → metric map. Registration is get-or-create by name: asking twice
/// for the same name returns handles over the same storage, so independent
/// layers (optimizer cache, MNSA, executor) can meet in one namespace
/// without passing handles around.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Name/kind collisions seen by the accessors. A collision means some
    /// call site got a detached handle and its observations are invisible
    /// in snapshots — surfaced as the `obsv.collisions` counter so the loss
    /// is no longer silent.
    collisions: AtomicU64,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of name/kind collisions seen so far (each one handed out a
    /// detached handle whose observations are lost).
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    fn record_collision(&self) {
        self.collisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Get-or-register a counter. If `name` is already registered as a
    /// different kind, a detached handle is returned (the registered metric
    /// keeps its kind; nothing panics) and `obsv.collisions` is bumped.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => {
                self.record_collision();
                Counter::detached()
            }
        }
    }

    /// Get-or-register a floating-point accumulator.
    pub fn float_counter(&self, name: &str) -> FloatCounter {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Float(FloatCounter::default()))
        {
            Metric::Float(c) => c.clone(),
            _ => {
                self.record_collision();
                FloatCounter::detached()
            }
        }
    }

    /// Get-or-register a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => {
                self.record_collision();
                Gauge::detached()
            }
        }
    }

    /// Get-or-register a log-linear latency histogram (see
    /// [`crate::latency`]).
    pub fn latency(&self, name: &str) -> LatencyHistogram {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Latency(LatencyHistogram::new()))
        {
            Metric::Latency(h) => h.clone(),
            _ => {
                self.record_collision();
                LatencyHistogram::detached()
            }
        }
    }

    /// Read every registered metric, sorted by name. If any accessor has
    /// seen a name/kind collision, an `obsv.collisions` counter appears in
    /// the snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let m = lock(&self.metrics);
        let mut entries: BTreeMap<String, MetricValue> = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Float(c) => MetricValue::Float(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Latency(h) => MetricValue::Latency(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        drop(m);
        let collisions = self.collisions();
        if collisions > 0 {
            entries.insert(
                "obsv.collisions".to_string(),
                MetricValue::Counter(collisions),
            );
        }
        Snapshot { entries }
    }
}

/// A sorted point-in-time reading of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// One formatted table, `name value` per line, suitable for end-of-run
    /// summaries.
    pub fn render_text(&self) -> String {
        let width = self.entries.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let rendered = match value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Float(v) => format!("{v:.1}"),
                MetricValue::Gauge(v) => format!("{v}"),
                MetricValue::Latency(s) => format!(
                    "count={} p50={} p90={} p99={} p999={} max={}",
                    s.count,
                    s.quantile(0.50),
                    s.quantile(0.90),
                    s.quantile(0.99),
                    s.quantile(0.999),
                    s.max,
                ),
            };
            out.push_str(&format!("  {name:<width$}  {rendered}\n"));
        }
        out
    }

    /// The snapshot as one JSON document keyed by metric name.
    pub fn render_json(&self) -> String {
        let mut doc = Object::new();
        for (name, value) in &self.entries {
            let value: Value = match value {
                MetricValue::Counter(v) => (*v).into(),
                MetricValue::Float(v) => (*v).into(),
                MetricValue::Gauge(v) => (*v).into(),
                MetricValue::Latency(s) => Object::new()
                    .field("count", s.count)
                    .field("sum", s.sum)
                    .field("min", s.min)
                    .field("max", s.max)
                    .field("p50", s.quantile(0.50))
                    .field("p90", s.quantile(0.90))
                    .field("p99", s.quantile(0.99))
                    .field("p999", s.quantile(0.999))
                    .into(),
            };
            doc.push(name.as_str(), value);
        }
        doc.block()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_sharing() {
        let r = Registry::new();
        let a = r.counter("x.calls");
        let b = r.counter("x.calls");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(
            r.snapshot().entries.get("x.calls"),
            Some(&MetricValue::Counter(5))
        );
    }

    #[test]
    fn float_counter_accumulates() {
        let c = FloatCounter::detached();
        c.add(1.5);
        c.add(2.25);
        assert_eq!(c.get(), 3.75);
    }

    #[test]
    fn kind_mismatch_returns_detached() {
        let r = Registry::new();
        let c = r.counter("m");
        let f = r.float_counter("m"); // wrong kind: detached
        f.add(10.0);
        c.inc();
        assert_eq!(
            r.snapshot().entries.get("m"),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn kind_mismatch_is_counted_not_silent() {
        let r = Registry::new();
        assert_eq!(r.collisions(), 0);
        assert!(!r.snapshot().entries.contains_key("obsv.collisions"));
        let _ = r.counter("m");
        let _ = r.float_counter("m"); // collision 1
        let _ = r.gauge("m"); // collision 2
        let _ = r.latency("m"); // collision 3
        assert_eq!(r.collisions(), 3);
        assert_eq!(
            r.snapshot().entries.get("obsv.collisions"),
            Some(&MetricValue::Counter(3))
        );
        // Matching-kind re-registration is not a collision.
        let _ = r.counter("m");
        assert_eq!(r.collisions(), 3);
    }

    #[test]
    fn latency_metric_registers_and_renders() {
        let r = Registry::new();
        let h = r.latency("q.latency_ns");
        let shared = r.latency("q.latency_ns");
        h.observe(1000);
        shared.observe(2000);
        assert_eq!(h.count(), 2);
        let snap = r.snapshot();
        let Some(MetricValue::Latency(sample)) = snap.entries.get("q.latency_ns") else {
            panic!("latency metric missing from snapshot");
        };
        assert_eq!(sample.count, 2);
        let text = snap.render_text();
        assert!(text.contains("p99="), "no quantile row: {text}");
        let json = snap.render_json();
        let parsed = crate::json::parse(&json).expect("snapshot json parses");
        let entry = parsed.get("q.latency_ns").expect("latency entry");
        assert_eq!(
            entry.get("count").and_then(crate::json::Json::as_f64),
            Some(2.0)
        );
        assert!(entry
            .get("p99")
            .and_then(crate::json::Json::as_f64)
            .is_some());
    }

    /// A fixed three-observation latency sample.
    pub(crate) fn fixed_latency() -> LatencySample {
        let h = LatencyHistogram::new();
        for v in [1000, 2000, 1_000_000] {
            h.observe(v);
        }
        h.snapshot()
    }

    #[test]
    fn json_bytes_are_pinned() {
        let mut entries = BTreeMap::new();
        entries.insert("a.count".to_string(), MetricValue::Counter(3));
        entries.insert("b.work".to_string(), MetricValue::Float(1.5));
        entries.insert("b.nan".to_string(), MetricValue::Float(f64::NAN));
        entries.insert("c.depth".to_string(), MetricValue::Gauge(-2));
        entries.insert("q\"x".to_string(), MetricValue::Counter(u64::MAX));
        entries.insert(
            "q.latency_ns".to_string(),
            MetricValue::Latency(fixed_latency()),
        );
        // The exact bytes written for this input: recorded artifacts and
        // their readers depend on them.
        let pinned = "{\n  \"a.count\": 3,\n  \"b.nan\": null,\n  \"b.work\": 1.5,\n  \"c.depth\": -2,\n  \"q\\\"x\": 18446744073709551615,\n  \"q.latency_ns\": {\"count\": 3, \"sum\": 1003000, \"min\": 1000, \"max\": 1000000, \"p50\": 2015, \"p90\": 1015807, \"p99\": 1015807, \"p999\": 1015807}\n}\n";
        assert_eq!(Snapshot { entries }.render_json(), pinned);
        assert_eq!(Snapshot::default().render_json(), "{\n}\n");
    }

    #[test]
    fn snapshot_renders() {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.float_counter("b.work").add(1.5);
        r.gauge("c.depth").set(-2);
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("a.count"));
        assert!(text.contains("-2"));
        let json = snap.render_json();
        assert!(json.contains("\"b.work\": 1.5"));
        let parsed = crate::json::parse(&json).expect("snapshot json parses");
        assert_eq!(
            parsed.get("a.count").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
    }
}
