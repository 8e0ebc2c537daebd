//! Always-on cheap trace capture: deterministic fingerprint-keyed span
//! sampling plus a top-K slow-query reservoir.
//!
//! Production tracing can't be all-or-nothing: full span capture on every
//! query is too expensive at serving rates, and zero capture means the one
//! query you need to explain is gone. This module keeps both costs bounded:
//!
//! * [`SpanSampler`] decides *which* queries get a full span tree. The
//!   decision is a pure function of `(seed, fingerprint)` — SplitMix64 over
//!   the query-template fingerprint — so the same template is sampled on
//!   every run of every replica, which makes sampled traces comparable
//!   across machines and runs without any coordination.
//! * [`SlowQueryLog`] retains the K worst queries (by latency) per window,
//!   each with its full span tree, regardless of sampling — the slow-query
//!   log a DBA actually reads.
//!
//! Latency values and span timestamps are wall-clock flavoured and
//! explicitly **outside** the bit-identity determinism contract; *which*
//! fingerprints the sampler picks is deterministic, but which queries turn
//! out slowest is not. Nothing downstream of tuning may read any of this
//! back.
//!
//! [`to_jsonl`] renders drained entries as one JSONL stream: each query's
//! events are wrapped in a synthetic `slowlog.query` span (carrying
//! fingerprint, latency, and window as args) and globally re-sequenced so
//! the concatenation of many per-query traces still passes
//! [`crate::check::check_jsonl`].

use crate::lock;
use crate::trace::{ArgValue, Event, EventKind};
use std::sync::Mutex;

/// SplitMix64 finalizer: a cheap, well-mixed hash of a 64-bit key.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic fingerprint-keyed sampling: `sample(fp)` is true for a
/// fixed ~`1/one_in` fraction of fingerprints, chosen by `mix(seed ^ fp)`.
/// Stateless and branch-cheap, so it can gate span capture per query on
/// the hot path.
#[derive(Debug, Clone, Copy)]
pub struct SpanSampler {
    seed: u64,
    one_in: u64,
}

impl SpanSampler {
    /// Sample roughly one in `one_in` fingerprints. `one_in == 0` never
    /// samples; `one_in == 1` always samples.
    pub fn new(seed: u64, one_in: u64) -> Self {
        SpanSampler { seed, one_in }
    }

    /// A sampler that never fires.
    pub fn off() -> Self {
        SpanSampler { seed: 0, one_in: 0 }
    }

    /// Whether this fingerprint's queries get full span capture. Pure in
    /// `(seed, fp)`: the same template is sampled on every run.
    #[inline]
    pub fn sample(&self, fp: u64) -> bool {
        match self.one_in {
            0 => false,
            1 => true,
            n => mix(self.seed ^ fp).is_multiple_of(n),
        }
    }
}

/// One retained slow query: identity, latency, the window it was slowest
/// in, and its full span tree (a flushed per-query event stream).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    pub fingerprint: u64,
    pub latency_ns: u64,
    pub window: u64,
    pub events: Vec<Event>,
}

#[derive(Debug, Default)]
struct LogInner {
    /// Candidates for the currently-open window, worst-first, ≤ k entries.
    current: Vec<SlowQuery>,
    /// Closed windows' top-K entries, oldest first.
    retained: Vec<SlowQuery>,
}

/// Top-K slow-query reservoir: [`SlowQueryLog::record`] offers a query,
/// only the K worst per window survive [`SlowQueryLog::roll`]. Bounded
/// memory: at most `k` candidates plus [`RETAIN_CAP`] closed entries.
#[derive(Debug)]
pub struct SlowQueryLog {
    k: usize,
    inner: Mutex<LogInner>,
}

/// Upper bound on retained closed-window entries; oldest are dropped first.
pub const RETAIN_CAP: usize = 4096;

impl SlowQueryLog {
    /// Retain the `k` worst queries per window (`k == 0` disables capture).
    pub fn new(k: usize) -> Self {
        SlowQueryLog {
            k,
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    pub fn is_enabled(&self) -> bool {
        self.k > 0
    }

    /// Offer one executed query. Kept only if it is among the K worst of
    /// the currently-open window; ties keep the earlier arrival.
    pub fn record(&self, fingerprint: u64, latency_ns: u64, events: Vec<Event>) {
        if self.k == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.current.len() == self.k
            && inner
                .current
                .last()
                .is_some_and(|worst_kept| latency_ns <= worst_kept.latency_ns)
        {
            return; // not slow enough for this window
        }
        inner.current.push(SlowQuery {
            fingerprint,
            latency_ns,
            window: 0, // stamped at roll()
            events,
        });
        // Worst-first; stable sort keeps earlier arrivals ahead on ties.
        inner
            .current
            .sort_by_key(|q| std::cmp::Reverse(q.latency_ns));
        inner.current.truncate(self.k);
    }

    /// Close the open window as `window`: its surviving top-K entries move
    /// to the retained list (bounded by [`RETAIN_CAP`], oldest dropped).
    pub fn roll(&self, window: u64) {
        if self.k == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        let mut closed = std::mem::take(&mut inner.current);
        for q in &mut closed {
            q.window = window;
        }
        inner.retained.append(&mut closed);
        if inner.retained.len() > RETAIN_CAP {
            let excess = inner.retained.len() - RETAIN_CAP;
            inner.retained.drain(..excess);
        }
    }

    /// Take every retained (closed-window) entry. Call [`SlowQueryLog::roll`]
    /// first to include the currently-open window.
    pub fn drain(&self) -> Vec<SlowQuery> {
        std::mem::take(&mut lock(&self.inner).retained)
    }
}

/// Render drained slow queries as one JSONL trace. Each query's events are
/// wrapped in a synthetic `slowlog.query` span carrying `fingerprint`
/// (hex), `latency_ns`, and `window`; sequence numbers and span ids are
/// globally reassigned so the concatenated stream has strictly monotone
/// seqs and collision-free ids — i.e. it passes
/// [`crate::check::check_jsonl`] as one valid trace.
pub fn to_jsonl(queries: &[SlowQuery]) -> String {
    let mut events = Vec::new();
    let mut next_id = 1u64;
    for q in queries {
        // Per-query tracers allocate ids from 1; offsetting by the current
        // allocator keeps every remapped id unique across queries.
        let wrapper = next_id;
        next_id += 1 + q.events.iter().map(|e| e.id).max().unwrap_or(0);
        let bound = |kind, ts_ns, args| Event {
            seq: 0,
            kind,
            id: wrapper,
            parent: 0,
            name: "slowlog.query",
            tid: 0,
            ts_ns,
            args,
        };
        let first_ts = q.events.first().map_or(0, |e| e.ts_ns);
        let last_ts = q.events.last().map_or(0, |e| e.ts_ns);
        events.push(bound(
            EventKind::Begin,
            first_ts,
            vec![
                ("fingerprint", format!("{:016x}", q.fingerprint).into()),
                ("latency_ns", ArgValue::Int(q.latency_ns as i64)),
                ("window", ArgValue::Int(q.window as i64)),
            ],
        ));
        events.extend(q.events.iter().map(|e| Event {
            id: wrapper + e.id,
            // Root spans of the per-query trace re-parent under the wrapper;
            // End events carry parent 0 by convention and stay that way.
            parent: match (e.parent, &e.kind) {
                (0, EventKind::Begin) => wrapper,
                (0, _) => 0,
                (parent, _) => wrapper + parent,
            },
            ..e.clone()
        }));
        events.push(bound(EventKind::End, last_ts, Vec::new()));
    }
    for (seq, e) in events.iter_mut().enumerate() {
        e.seq = seq as u64;
    }
    crate::export::to_jsonl(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn query_events(name: &'static str) -> Vec<Event> {
        let t = Tracer::enabled();
        {
            let root = t.span(name);
            let _child = root.child("exec.op.Scan");
        }
        t.flush()
    }

    #[test]
    fn sampler_is_deterministic_and_roughly_fair() {
        let s = SpanSampler::new(42, 16);
        let hits: Vec<u64> = (0..10_000u64).filter(|&fp| s.sample(fp)).collect();
        // Same seed, same decisions.
        let again: Vec<u64> = (0..10_000u64).filter(|&fp| s.sample(fp)).collect();
        assert_eq!(hits, again);
        // Roughly 1/16 of fingerprints, with generous slack.
        assert!(
            hits.len() > 300 && hits.len() < 1000,
            "rate off: {}",
            hits.len()
        );
        // A different seed picks a different set.
        let other = SpanSampler::new(43, 16);
        let other_hits: Vec<u64> = (0..10_000u64).filter(|&fp| other.sample(fp)).collect();
        assert_ne!(hits, other_hits);
        assert!(!SpanSampler::off().sample(1));
        assert!(SpanSampler::new(9, 1).sample(1));
    }

    #[test]
    fn reservoir_keeps_k_worst_per_window() {
        let log = SlowQueryLog::new(2);
        for (fp, lat) in [(1u64, 100u64), (2, 900), (3, 500), (4, 50), (5, 700)] {
            log.record(fp, lat, Vec::new());
        }
        log.roll(7);
        let drained = log.drain();
        let got: Vec<(u64, u64, u64)> = drained
            .iter()
            .map(|q| (q.fingerprint, q.latency_ns, q.window))
            .collect();
        assert_eq!(got, vec![(2, 900, 7), (5, 700, 7)]);
        // Drain is destructive; the next window starts empty.
        log.record(9, 10, Vec::new());
        log.roll(8);
        let next = log.drain();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].window, 8);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SlowQueryLog::disabled();
        assert!(!log.is_enabled());
        log.record(1, 1_000_000, query_events("q"));
        log.roll(1);
        assert!(log.drain().is_empty());
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let events = crate::export::tests::fixed_events();
        let slow = [
            SlowQuery {
                fingerprint: 0xabc,
                latency_ns: 9000,
                window: 2,
                events: events.clone(),
            },
            SlowQuery {
                fingerprint: u64::MAX,
                latency_ns: 40,
                window: 3,
                events: events[2..4].to_vec(),
            },
            SlowQuery {
                fingerprint: 1,
                latency_ns: 1,
                window: 4,
                events: Vec::new(),
            },
        ];
        // The exact bytes written for this input: recorded artifacts and
        // their readers depend on them.
        let pinned = "{\"seq\": 0, \"kind\": \"B\", \"id\": 1, \"parent\": 0, \"name\": \"slowlog.query\", \"tid\": 0, \"ts_ns\": 1000, \"args\": {\"fingerprint\": \"0000000000000abc\", \"latency_ns\": 9000, \"window\": 2}}\n{\"seq\": 1, \"kind\": \"B\", \"id\": 2, \"parent\": 1, \"name\": \"root\", \"tid\": 0, \"ts_ns\": 1000, \"args\": {\"sql\": \"a\\\"b\\n\"}}\n{\"seq\": 2, \"kind\": \"I\", \"id\": 2, \"parent\": 0, \"name\": \"tick\", \"tid\": 0, \"ts_ns\": 1500, \"args\": {\"note\": \"é✓\\u0001\", \"ok\": true}}\n{\"seq\": 3, \"kind\": \"B\", \"id\": 3, \"parent\": 2, \"name\": \"child\", \"tid\": 3, \"ts_ns\": 2000, \"args\": {\"rows\": -3}}\n{\"seq\": 4, \"kind\": \"E\", \"id\": 3, \"parent\": 0, \"name\": \"child\", \"tid\": 3, \"ts_ns\": 5000, \"args\": {\"rows_out\": 9, \"ratio\": 0.25, \"bad\": null}}\n{\"seq\": 5, \"kind\": \"E\", \"id\": 2, \"parent\": 0, \"name\": \"root\", \"tid\": 0, \"ts_ns\": 9000, \"args\": {}}\n{\"seq\": 6, \"kind\": \"E\", \"id\": 1, \"parent\": 0, \"name\": \"slowlog.query\", \"tid\": 0, \"ts_ns\": 9000, \"args\": {}}\n{\"seq\": 7, \"kind\": \"B\", \"id\": 4, \"parent\": 0, \"name\": \"slowlog.query\", \"tid\": 0, \"ts_ns\": 2000, \"args\": {\"fingerprint\": \"ffffffffffffffff\", \"latency_ns\": 40, \"window\": 3}}\n{\"seq\": 8, \"kind\": \"B\", \"id\": 6, \"parent\": 5, \"name\": \"child\", \"tid\": 3, \"ts_ns\": 2000, \"args\": {\"rows\": -3}}\n{\"seq\": 9, \"kind\": \"E\", \"id\": 6, \"parent\": 0, \"name\": \"child\", \"tid\": 3, \"ts_ns\": 5000, \"args\": {\"rows_out\": 9, \"ratio\": 0.25, \"bad\": null}}\n{\"seq\": 10, \"kind\": \"E\", \"id\": 4, \"parent\": 0, \"name\": \"slowlog.query\", \"tid\": 0, \"ts_ns\": 5000, \"args\": {}}\n{\"seq\": 11, \"kind\": \"B\", \"id\": 7, \"parent\": 0, \"name\": \"slowlog.query\", \"tid\": 0, \"ts_ns\": 0, \"args\": {\"fingerprint\": \"0000000000000001\", \"latency_ns\": 1, \"window\": 4}}\n{\"seq\": 12, \"kind\": \"E\", \"id\": 7, \"parent\": 0, \"name\": \"slowlog.query\", \"tid\": 0, \"ts_ns\": 0, \"args\": {}}\n";
        assert_eq!(to_jsonl(&slow), pinned);
    }

    #[test]
    fn jsonl_export_is_one_valid_trace() {
        let log = SlowQueryLog::new(2);
        log.record(0xabc, 5_000, query_events("exec.query"));
        log.record(0xdef, 9_000, query_events("exec.query"));
        log.roll(1);
        log.record(0x123, 2_000, query_events("exec.query"));
        log.roll(2);
        let drained = log.drain();
        assert_eq!(drained.len(), 3);
        let jsonl = to_jsonl(&drained);
        let summary = crate::check::check_jsonl(&jsonl).expect("slowlog jsonl is a valid trace");
        // 3 wrappers + 3×2 inner spans.
        assert_eq!(summary.spans, 9);
        assert!(jsonl.contains("\"slowlog.query\""));
        assert!(jsonl.contains("\"latency_ns\": 9000"));
        assert!(jsonl.contains("\"window\": 2"));
    }
}
