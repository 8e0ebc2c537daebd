//! A detached memo of `optimize` results, kept for measurement.
//!
//! Nothing in the workspace's tuning or serving paths goes through this
//! module: since PR 15 MNSA, the daemon and the experiments all call
//! [`Optimizer::optimize`] directly (DESIGN.md §7 has the numbers that
//! decided it). What is left is what `benchmark/` links to probe the floor of
//! a memoized call (`optimizer.cache_hit.p50_us`), and the [`Fnv`] hasher the
//! plan and profile fingerprints use.
//!
//! ## Keying
//!
//! `Optimizer::optimize` is a pure function. Its inputs are:
//!
//! 1. the bound query (structure + constants),
//! 2. the selectivity profile — the **only** channel through which
//!    statistics and injected selectivities reach plan selection,
//! 3. per-table metadata read directly from the database (row counts and
//!    index definitions),
//! 4. the optimizer configuration (magic numbers, cost parameters).
//!
//! The cache key is a fingerprint of exactly these four inputs. Because the
//! *content* of the statistics reads is hashed (via
//! [`SelectivityProfile::fingerprint`](crate::SelectivityProfile::fingerprint)),
//! a cached entry can never be stale: any catalog mutation that would change
//! the optimizer's answer necessarily changes the profile, and therefore the
//! key. Entries are never evicted, and one cache can be shared across
//! catalogs.

use crate::error::PlanError;
use crate::optimize::{OptimizeOptions, OptimizedQuery, Optimizer};
use parking_lot::RwLock;
use query::BoundSelect;
use rustc_hash::FxHashMap;
use stats::StatsView;
use std::sync::atomic::{AtomicU64, Ordering};
use storage::Database;

/// Minimal FNV-1a 64-bit hasher over explicit words/bytes. Used instead of
/// `std::hash::DefaultHasher` so fingerprints are stable across Rust
/// versions and processes.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub fn write(&mut self, word: u64) -> &mut Self {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Cache key: fingerprints of the four inputs `optimize` is a pure function
/// of (query, statistics-subset signature, table metadata + optimizer
/// config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    query: u64,
    /// Profile fingerprint — values *and* sources of every selectivity
    /// variable, which covers both the visible statistics subset and any
    /// injected selectivities.
    signature: u64,
    /// Table metadata (row counts, indexes) and optimizer configuration.
    context: u64,
}

/// Thread-safe memoization of [`Optimizer::optimize_cached`] results.
#[derive(Default)]
pub struct OptimizeCache {
    entries: RwLock<FxHashMap<CacheKey, OptimizedQuery>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OptimizeCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn lookup(&self, key: &CacheKey) -> Option<OptimizedQuery> {
        let guard = self.entries.read();
        match guard.get(key) {
            Some(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, key: CacheKey, result: OptimizedQuery) {
        self.entries.write().insert(key, result);
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Fingerprint of the non-statistics optimizer inputs: per-relation table
/// metadata (row count, indexes) plus the optimizer configuration.
fn context_fingerprint(optimizer: &Optimizer, db: &Database, query: &BoundSelect) -> u64 {
    let mut h = Fnv::new();
    for &(table_id, _) in &query.relations {
        h.write(table_id.0 as u64);
        // A stale table id contributes only its id to the fingerprint; the
        // subsequent optimization reports the error itself (and errors are
        // never cached), so no stale entry can form.
        let Ok(table) = db.try_table(table_id) else {
            continue;
        };
        h.write(table.row_count() as u64);
        for index in db.indexes_on(table_id) {
            h.write_bytes(index.name.as_bytes())
                .write(index.columns.len() as u64);
            for &c in &index.columns {
                h.write(c as u64);
            }
        }
    }
    let m = &optimizer.magic;
    for v in [
        m.equality,
        m.inequality,
        m.range,
        m.between,
        m.join,
        m.group_by,
    ] {
        h.write(v.to_bits());
    }
    let p = &optimizer.params;
    for v in [
        p.seq_row,
        p.index_lookup,
        p.index_row,
        p.hash_build,
        p.hash_probe,
        p.sort_cmp,
        p.merge_row,
        p.join_output,
        p.agg_row,
        p.agg_group,
    ] {
        h.write(v.to_bits());
    }
    h.finish()
}

impl Optimizer {
    /// [`Optimizer::optimize`] through a cache. Bit-identical to the uncached
    /// call: on a miss the real optimization runs and is stored; a hit
    /// returns a clone of a result produced by identical inputs. Errors are
    /// reported but never cached, so a later call with a repaired catalog or
    /// database sees a fresh optimization.
    pub fn optimize_cached(
        &self,
        db: &Database,
        query: &BoundSelect,
        stats: StatsView<'_>,
        options: &OptimizeOptions,
        cache: &OptimizeCache,
    ) -> Result<OptimizedQuery, PlanError> {
        let profile = self.profile(db, stats, query, options);
        let key = CacheKey {
            query: query.fingerprint(),
            signature: profile.fingerprint(),
            context: context_fingerprint(self, db, query),
        };
        if let Some(hit) = cache.lookup(&key) {
            return Ok(hit);
        }
        let result = self.plan(db, query, profile)?;
        cache.store(key, result.clone());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement, BoundStatement};
    use stats::{StatDescriptor, StatsCatalog};
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> Database {
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
        for i in 0..2000i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i % 40), Value::Int(i % 7)])
                .unwrap();
        }
        db
    }

    fn bind(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => panic!(),
        }
    }

    #[test]
    fn hit_returns_identical_result() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM t WHERE a = 3");
        let opt = Optimizer::default();
        let cache = OptimizeCache::new();
        let catalog = StatsCatalog::new();
        let fresh = opt
            .optimize(&db, &q, catalog.full_view(), &OptimizeOptions::default())
            .unwrap();
        let first = opt
            .optimize_cached(
                &db,
                &q,
                catalog.full_view(),
                &OptimizeOptions::default(),
                &cache,
            )
            .unwrap();
        let second = opt
            .optimize_cached(
                &db,
                &q,
                catalog.full_view(),
                &OptimizeOptions::default(),
                &cache,
            )
            .unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        for r in [&first, &second] {
            assert!(r.plan.same_tree(&fresh.plan));
            assert_eq!(r.cost, fresh.cost);
            assert_eq!(r.magic_variables, fresh.magic_variables);
            assert_eq!(r.profile, fresh.profile);
        }
    }

    #[test]
    fn statistics_change_changes_key() {
        let db = setup();
        let t = db.table_id("t").unwrap();
        let q = bind(&db, "SELECT * FROM t WHERE a = 3");
        let opt = Optimizer::default();
        let cache = OptimizeCache::new();
        let mut catalog = StatsCatalog::new();
        opt.optimize_cached(
            &db,
            &q,
            catalog.full_view(),
            &OptimizeOptions::default(),
            &cache,
        )
        .unwrap();
        catalog
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // New statistics => new profile => miss, and the result matches an
        // uncached optimization against the new catalog.
        let cached = opt
            .optimize_cached(
                &db,
                &q,
                catalog.full_view(),
                &OptimizeOptions::default(),
                &cache,
            )
            .unwrap();
        let fresh = opt
            .optimize(&db, &q, catalog.full_view(), &OptimizeOptions::default())
            .unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cached.cost, fresh.cost);
        assert_eq!(cached.profile, fresh.profile);
    }

    #[test]
    fn injected_selectivities_get_distinct_entries() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM t WHERE a = 3");
        let opt = Optimizer::default();
        let cache = OptimizeCache::new();
        let catalog = StatsCatalog::new();
        let vars = [query::PredicateId::Selection(0)];
        let low = OptimizeOptions::inject_all(&vars, 0.0005);
        let high = OptimizeOptions::inject_all(&vars, 0.9995);
        let a = opt
            .optimize_cached(&db, &q, catalog.full_view(), &low, &cache)
            .unwrap();
        let b = opt
            .optimize_cached(&db, &q, catalog.full_view(), &high, &cache)
            .unwrap();
        assert_eq!(cache.misses(), 2, "distinct injections must not collide");
        assert!(a.cost != b.cost || !a.plan.same_tree(&b.plan) || a.profile != b.profile);
        let a2 = opt
            .optimize_cached(&db, &q, catalog.full_view(), &low, &cache)
            .unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(a2.cost, a.cost);
    }

    #[test]
    fn counters_sum_to_lookups() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM t WHERE a = 3 AND b = 1");
        let opt = Optimizer::default();
        let cache = OptimizeCache::new();
        let catalog = StatsCatalog::new();
        for _ in 0..5 {
            opt.optimize_cached(
                &db,
                &q,
                catalog.full_view(),
                &OptimizeOptions::default(),
                &cache,
            )
            .unwrap();
        }
        assert_eq!(cache.hits() + cache.misses(), 5);
        assert_eq!(cache.len(), 1);
    }
}
