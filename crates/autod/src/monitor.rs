//! The workload monitor: a bounded reservoir of executed query templates.
//!
//! Every SELECT that runs through the online service is observed here,
//! when the service folds its observation inbox, deduplicated by
//! [`BoundSelect::fingerprint`]. The monitor keeps at most
//! [`MONITOR_CAPACITY`] distinct templates with per-template frequency and
//! recency; when full, the template with the least `(frequency,
//! last_seen_tick, seeded-hash)` is evicted — frequency-biased retention
//! with a deterministic, seed-keyed tiebreak so two runs with the same
//! stream evict identically.
//!
//! Evicting a hot-but-new template must not erase its history, or a
//! template arriving steadily into a full reservoir would never accumulate
//! enough frequency to displace anything. A bounded *ghost list* (ARC
//! style) remembers the frequency of recently evicted fingerprints; a
//! re-arriving ghost resumes its old count instead of restarting at one.
//!
//! Both bounds are kept by ordered indexes beside the maps — the retained
//! templates by eviction key, the ghosts by eviction order — so an
//! observation costs `O(log capacity)`, eviction included.

use query::BoundSelect;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The most distinct templates a monitor retains, and the most ghost
/// entries it remembers.
pub const MONITOR_CAPACITY: usize = 256;

/// What [`WorkloadMonitor::new`] takes. It has no field: every monitor holds
/// [`MONITOR_CAPACITY`] templates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorConfig;

/// Seed of the deterministic eviction tiebreak.
const EVICTION_SEED: u64 = 0xA07D;

/// Public per-template view (for diagnostics and benchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateStats {
    pub fingerprint: u64,
    /// Times this template was observed (including ghost-restored history).
    pub frequency: u64,
    pub first_seen_tick: u64,
    pub last_seen_tick: u64,
}

#[derive(Debug, Clone)]
struct Template {
    /// Shared with the plan memo entry the query was served from.
    query: Arc<BoundSelect>,
    frequency: u64,
    /// Arrival index (monotone): stable "first seen" ordering for samples.
    arrival: u64,
    first_seen_tick: u64,
    last_seen_tick: u64,
}

#[derive(Debug, Clone, Copy)]
struct Ghost {
    frequency: u64,
    evicted_seq: u64,
}

/// Bounded, deduplicated reservoir of executed query templates.
#[derive(Debug)]
pub struct WorkloadMonitor {
    templates: BTreeMap<u64, Template>,
    /// Every retained template's `(frequency, last_seen_tick, mix(fp),
    /// fp)`: the first is the next to evict.
    by_eviction_key: BTreeSet<(u64, u64, u64, u64)>,
    ghosts: BTreeMap<u64, Ghost>,
    /// Every ghost's fingerprint by `evicted_seq`: the first is the oldest.
    ghosts_by_age: BTreeMap<u64, u64>,
    arrivals: u64,
    evict_seq: u64,
    observed_total: u64,
    evictions_total: u64,
    ghost_hits_total: u64,
    /// Fingerprints evicted since the last [`WorkloadMonitor::drain_evictions`].
    pending_evictions: Vec<u64>,
}

/// SplitMix64 finalizer, keyed by [`EVICTION_SEED`]: the deterministic
/// eviction tiebreak.
fn mix(x: u64) -> u64 {
    let mut z = x ^ EVICTION_SEED ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A retained template's place in `WorkloadMonitor::by_eviction_key`.
fn eviction_key(fp: u64, t: &Template) -> (u64, u64, u64, u64) {
    (t.frequency, t.last_seen_tick, mix(fp), fp)
}

impl WorkloadMonitor {
    /// An empty monitor of [`MONITOR_CAPACITY`] templates.
    pub fn new(_: MonitorConfig) -> Self {
        WorkloadMonitor {
            templates: BTreeMap::new(),
            by_eviction_key: BTreeSet::new(),
            ghosts: BTreeMap::new(),
            ghosts_by_age: BTreeMap::new(),
            arrivals: 0,
            evict_seq: 0,
            observed_total: 0,
            evictions_total: 0,
            ghost_hits_total: 0,
            pending_evictions: Vec::new(),
        }
    }

    /// Observe one executed query at virtual time `tick`. Returns the
    /// template fingerprint. [`WorkloadMonitor::observe_as`] with the
    /// fingerprint computed here, under whatever lock guards the monitor.
    pub fn observe(&mut self, query: &BoundSelect, tick: u64) -> u64 {
        let fp = query.fingerprint();
        if !self.observe_seen(fp, tick) {
            self.admit(fp, &Arc::new(query.clone()), tick);
        }
        fp
    }

    /// Observe one executed query at virtual time `tick` under `fp`, which
    /// must be `query.fingerprint()`. The service's inbox fold passes the
    /// fingerprint and the bound query its plan memo holds, both made by
    /// the SELECT that pushed them; a new template shares `query` and
    /// copies nothing.
    pub fn observe_as(&mut self, fp: u64, query: &Arc<BoundSelect>, tick: u64) {
        debug_assert_eq!(fp, query.fingerprint());
        if !self.observe_seen(fp, tick) {
            self.admit(fp, query, tick);
        }
    }

    /// Count one more observation of the retained template `fp`; false,
    /// counting nothing, when no template is retained under `fp`.
    fn observe_seen(&mut self, fp: u64, tick: u64) -> bool {
        let Some(t) = self.templates.get_mut(&fp) else {
            return false;
        };
        self.observed_total += 1;
        self.by_eviction_key.remove(&eviction_key(fp, t));
        t.frequency += 1;
        t.last_seen_tick = tick;
        self.by_eviction_key.insert(eviction_key(fp, t));
        true
    }

    /// Retain the new template `fp`, resuming its ghost's count if it has
    /// one, and evict if the monitor is over capacity.
    fn admit(&mut self, fp: u64, query: &Arc<BoundSelect>, tick: u64) {
        self.observed_total += 1;
        // Ghost restoration: a recently evicted template resumes its count.
        let history = match self.ghosts.remove(&fp) {
            Some(g) => {
                self.ghosts_by_age.remove(&g.evicted_seq);
                g.frequency
            }
            None => 0,
        };
        if history > 0 {
            self.ghost_hits_total += 1;
        }
        self.arrivals += 1;
        let t = Template {
            query: Arc::clone(query),
            frequency: history + 1,
            arrival: self.arrivals,
            first_seen_tick: tick,
            last_seen_tick: tick,
        };
        self.by_eviction_key.insert(eviction_key(fp, &t));
        self.templates.insert(fp, t);
        if self.templates.len() > MONITOR_CAPACITY {
            self.evict_one();
        }
    }

    /// Evict the template with the least `(frequency, last_seen_tick,
    /// mix(fp))` — deterministic for a fixed stream.
    fn evict_one(&mut self) {
        let Some((_, _, _, fp)) = self.by_eviction_key.pop_first() else {
            return;
        };
        if let Some(t) = self.templates.remove(&fp) {
            self.evict_seq += 1;
            self.ghosts.insert(
                fp,
                Ghost {
                    frequency: t.frequency,
                    evicted_seq: self.evict_seq,
                },
            );
            self.ghosts_by_age.insert(self.evict_seq, fp);
            // Ghost list is bounded too: forget the oldest eviction.
            while self.ghosts.len() > MONITOR_CAPACITY {
                let Some((_, oldest)) = self.ghosts_by_age.pop_first() else {
                    break;
                };
                self.ghosts.remove(&oldest);
            }
            self.evictions_total += 1;
            self.pending_evictions.push(fp);
        }
    }

    /// The retained templates in first-arrival order, each under the
    /// fingerprint it was observed by.
    fn by_arrival(&self) -> Vec<(u64, &Template)> {
        let mut entries: Vec<(u64, &Template)> =
            self.templates.iter().map(|(fp, t)| (*fp, t)).collect();
        entries.sort_by_key(|(_, t)| t.arrival);
        entries
    }

    /// The retained queries with their fingerprints, in first-arrival order
    /// — what a tick offers MNSA, cloning the ones it has not seen.
    /// Arrival order makes "paused daemon ≡ offline tune on the sample" well
    /// defined.
    pub fn queries(&self) -> impl Iterator<Item = (u64, &BoundSelect)> {
        self.by_arrival()
            .into_iter()
            .map(|(fp, t)| (fp, t.query.as_ref()))
    }

    /// An owned copy of [`WorkloadMonitor::queries`]: the workload of a
    /// Shrinking Set pass.
    pub fn sample(&self) -> Vec<BoundSelect> {
        self.queries().map(|(_, q)| q.clone()).collect()
    }

    /// Per-template statistics, in first-arrival order.
    pub fn templates(&self) -> Vec<TemplateStats> {
        self.by_arrival()
            .into_iter()
            .map(|(fingerprint, t)| TemplateStats {
                fingerprint,
                frequency: t.frequency,
                first_seen_tick: t.first_seen_tick,
                last_seen_tick: t.last_seen_tick,
            })
            .collect()
    }

    /// Fingerprints evicted since the last drain (for journaling).
    pub fn drain_evictions(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_evictions)
    }

    /// Distinct templates currently retained.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Total observations (including duplicates of retained templates).
    pub fn observed_total(&self) -> u64 {
        self.observed_total
    }

    /// Total evictions over the monitor's life.
    pub fn evictions_total(&self) -> u64 {
        self.evictions_total
    }

    /// Evicted templates whose history was restored on re-arrival (ARC
    /// ghost hits) over the monitor's life.
    pub fn ghost_hits_total(&self) -> u64 {
        self.ghost_hits_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement, BoundStatement};
    use storage::{ColumnDef, DataType, Database, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..10i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i % 3)])
                .unwrap();
        }
        db
    }

    fn select(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn queries(db: &Database, n: usize) -> Vec<BoundSelect> {
        (0..n)
            .map(|i| select(db, &format!("SELECT * FROM t WHERE a = {i}")))
            .collect()
    }

    #[test]
    fn deduplicates_and_counts_frequency() {
        let db = db();
        let q = select(&db, "SELECT * FROM t WHERE a = 1");
        let mut m = WorkloadMonitor::new(MonitorConfig);
        m.observe(&q, 1);
        m.observe(&q, 3);
        assert_eq!(m.len(), 1);
        assert_eq!(m.observed_total(), 2);
        let t = &m.templates()[0];
        assert_eq!(t.frequency, 2);
        assert_eq!(t.first_seen_tick, 1);
        assert_eq!(t.last_seen_tick, 3);
    }

    #[test]
    fn capacity_bound_evicts_least_frequent_first() {
        let db = db();
        let qs = queries(&db, MONITOR_CAPACITY + 1);
        let mut m = WorkloadMonitor::new(MonitorConfig);
        // q0 is hot; every other template arrives once, each a tick later.
        for _ in 0..5 {
            m.observe(&qs[0], 1);
        }
        for (i, q) in qs.iter().enumerate().skip(1) {
            m.observe(q, i as u64 + 1);
        }
        // The last arrival was over capacity: one frequency-1 template went.
        assert_eq!(m.len(), MONITOR_CAPACITY);
        assert_eq!(m.evictions_total(), 1);
        let evicted = m.drain_evictions();
        assert_eq!(evicted.len(), 1);
        assert!(m.drain_evictions().is_empty());
        // The hot template survives; the evictee is the stalest freq-1 one.
        assert!(m.templates().iter().any(|t| t.frequency == 5));
        assert_eq!(evicted[0], qs[1].fingerprint());
    }

    #[test]
    fn ghost_restores_frequency_of_reobserved_evictee() {
        let db = db();
        let qs = queries(&db, MONITOR_CAPACITY + 1);
        let mut m = WorkloadMonitor::new(MonitorConfig);
        m.observe(&qs[0], 1);
        m.observe(&qs[0], 1);
        m.observe(&qs[1], 1);
        for q in &qs[2..] {
            m.observe(q, 2);
        }
        // The last arrival evicted q1 (freq 1, oldest tick).
        assert_eq!(m.drain_evictions(), vec![qs[1].fingerprint()]);
        // q1 returns: its count resumes at 2, not 1.
        m.observe(&qs[1], 3);
        let t = m
            .templates()
            .into_iter()
            .find(|t| t.fingerprint == qs[1].fingerprint());
        assert_eq!(t.map(|t| t.frequency), Some(2));
        assert_eq!(m.ghost_hits_total(), 1);
        assert_eq!(m.len(), MONITOR_CAPACITY);
    }

    #[test]
    fn eviction_is_deterministic_for_fixed_seed() {
        let db = db();
        let qs = queries(&db, 2 * MONITOR_CAPACITY);
        let run = || {
            let mut m = WorkloadMonitor::new(MonitorConfig);
            for (i, q) in qs.iter().enumerate() {
                m.observe(q, i as u64);
            }
            (
                m.sample()
                    .iter()
                    .map(|q| q.fingerprint())
                    .collect::<Vec<_>>(),
                m.drain_evictions(),
            )
        };
        let first = run();
        assert_eq!(first.1.len(), MONITOR_CAPACITY);
        assert_eq!(first, run());
    }

    #[test]
    fn sample_preserves_arrival_order() {
        let db = db();
        let qs = queries(&db, 3);
        let mut m = WorkloadMonitor::new(MonitorConfig);
        for (i, q) in qs.iter().enumerate() {
            m.observe(q, i as u64);
        }
        let fps: Vec<u64> = m.sample().iter().map(|q| q.fingerprint()).collect();
        let expect: Vec<u64> = qs.iter().map(|q| q.fingerprint()).collect();
        assert_eq!(fps, expect);
        // The borrowed form pairs each query with the key it is held under,
        // which is its fingerprint: the tick need not compute it again.
        let keyed: Vec<(u64, u64)> = m.queries().map(|(fp, q)| (fp, q.fingerprint())).collect();
        assert_eq!(keyed, expect.iter().map(|&fp| (fp, fp)).collect::<Vec<_>>());
    }

    /// The rule the indexes replaced, kept as the oracle: a linear scan for
    /// the least `(frequency, last_seen_tick, mix(fp))` to evict and
    /// for the least `evicted_seq` to forget, over fingerprints alone.
    struct LinearScan {
        /// fp → (frequency, arrival, first_seen_tick, last_seen_tick)
        templates: BTreeMap<u64, (u64, u64, u64, u64)>,
        /// fp → (frequency, evicted_seq)
        ghosts: BTreeMap<u64, (u64, u64)>,
        arrivals: u64,
        evict_seq: u64,
        ghost_hits: u64,
        evictions: Vec<u64>,
    }

    impl LinearScan {
        fn observe(&mut self, fp: u64, tick: u64) {
            if let Some(t) = self.templates.get_mut(&fp) {
                t.0 += 1;
                t.3 = tick;
                return;
            }
            let history = self.ghosts.remove(&fp).map_or(0, |g| g.0);
            self.ghost_hits += u64::from(history > 0);
            self.arrivals += 1;
            self.templates
                .insert(fp, (history + 1, self.arrivals, tick, tick));
            if self.templates.len() <= MONITOR_CAPACITY {
                return;
            }
            let victim = self
                .templates
                .iter()
                .map(|(fp, t)| ((t.0, t.3, mix(*fp)), *fp))
                .min_by_key(|(key, _)| *key)
                .map(|(_, fp)| fp)
                .unwrap();
            let t = self.templates.remove(&victim).unwrap();
            self.evict_seq += 1;
            self.ghosts.insert(victim, (t.0, self.evict_seq));
            while self.ghosts.len() > MONITOR_CAPACITY {
                let oldest = self
                    .ghosts
                    .iter()
                    .min_by_key(|(_, g)| g.1)
                    .map(|(fp, _)| *fp)
                    .unwrap();
                self.ghosts.remove(&oldest);
            }
            self.evictions.push(victim);
        }

        fn templates(&self) -> Vec<TemplateStats> {
            let mut by_arrival: Vec<_> = self.templates.iter().collect();
            by_arrival.sort_by_key(|(_, t)| t.1);
            by_arrival
                .into_iter()
                .map(|(&fingerprint, t)| TemplateStats {
                    fingerprint,
                    frequency: t.0,
                    first_seen_tick: t.2,
                    last_seen_tick: t.3,
                })
                .collect()
        }
    }

    #[test]
    fn indexed_eviction_matches_the_linear_scan() {
        let db = db();
        // Four times as many templates as the monitor holds, so the stream
        // evicts and brings ghosts back.
        let qs = queries(&db, 4 * MONITOR_CAPACITY);
        let mut m = WorkloadMonitor::new(MonitorConfig);
        let mut oracle = LinearScan {
            templates: BTreeMap::new(),
            ghosts: BTreeMap::new(),
            arrivals: 0,
            evict_seq: 0,
            ghost_hits: 0,
            evictions: Vec::new(),
        };
        let mut evicted = Vec::new();
        // A skewed seeded stream: a few hot templates, a long tail, and
        // ticks that repeat so recency ties are broken by the hash.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..12_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (state >> 33) % 1000;
            let q = &qs[(u * u * qs.len() as u64 / 1_000_000) as usize];
            let tick = i / 7;
            let fp = m.observe(q, tick);
            oracle.observe(fp, tick);
            if i % 97 == 0 {
                evicted.extend(m.drain_evictions());
                assert_eq!(m.templates(), oracle.templates(), "observation {i}");
            }
        }
        evicted.extend(m.drain_evictions());
        assert_eq!(evicted, oracle.evictions);
        assert_eq!(m.templates(), oracle.templates());
        assert_eq!(m.ghost_hits_total(), oracle.ghost_hits);
        assert_eq!(m.evictions_total(), oracle.evictions.len() as u64);
        assert_eq!(m.ghosts.len(), oracle.ghosts.len());
        assert!(oracle.ghost_hits > 0 && !oracle.evictions.is_empty());
        assert_eq!(
            m.ghosts.len(),
            MONITOR_CAPACITY,
            "the ghost bound was reached"
        );
    }
}
