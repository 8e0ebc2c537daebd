//! Property tests of the memoized optimizer cache.
//!
//! The cache's contract is absolute: `optimize_cached` returns exactly what
//! `optimize` would return, for every query, statistics state, and injection
//! vector — hits included. Staleness is impossible *by construction* (the
//! key fingerprints the selectivity profile, i.e. the content of every
//! statistics read), so a cache that is never told about catalog mutations
//! still never serves a stale plan. Checked here against randomized queries,
//! injections, and mutation sequences.

use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, ZipfSpec};
use optimizer::{OptimizeCache, OptimizeOptions, Optimizer};
use proptest::prelude::*;
use query::{bind_statement, BoundSelect, BoundStatement};
use rustc_hash::FxHashMap;
use stats::{StatDescriptor, StatsCatalog};
use storage::Database;

fn test_db() -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.002,
        zipf: ZipfSpec::Mixed,
        seed: 13,
    })
}

fn queries(db: &Database) -> Vec<BoundSelect> {
    let mut gen = RagsGenerator::new(db, 77);
    (0..10)
        .map(|i| {
            let c = if i % 2 == 0 {
                Complexity::Simple
            } else {
                Complexity::Complex
            };
            let q = gen.gen_query(c);
            match bind_statement(db, &query::Statement::Select(q)).unwrap() {
                BoundStatement::Select(b) => b,
                _ => unreachable!(),
            }
        })
        .collect()
}

/// Assert a cached result equals a fresh optimization in every observable.
fn assert_identical(
    optimizer: &Optimizer,
    db: &Database,
    q: &BoundSelect,
    catalog: &StatsCatalog,
    options: &OptimizeOptions,
    cache: &OptimizeCache,
) {
    let cached = optimizer
        .optimize_cached(db, q, catalog.full_view(), options, cache)
        .unwrap();
    let fresh = optimizer
        .optimize(db, q, catalog.full_view(), options)
        .unwrap();
    assert_eq!(cached.cost, fresh.cost);
    assert!(cached.plan.same_tree(&fresh.plan));
    assert_eq!(
        cached.profile.magic_variables(),
        fresh.profile.magic_variables()
    );
    assert_eq!(cached.profile, fresh.profile);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Repeated cached calls — including guaranteed hits — always match a
    /// fresh optimization, across random injections.
    #[test]
    fn cached_equals_fresh_under_injections(
        qidx in 0usize..10,
        vals in prop::collection::vec(0.0005f64..0.9995, 8),
    ) {
        let db = test_db();
        let qs = queries(&db);
        let q = &qs[qidx];
        let catalog = StatsCatalog::new();
        let optimizer = Optimizer::default();
        let cache = OptimizeCache::new();

        let injected: FxHashMap<_, _> = q
            .predicate_ids()
            .into_iter()
            .zip(vals.iter().copied().cycle())
            .collect();
        let options = OptimizeOptions { injected };

        // Twice: the second call is a hit (same key), and must still be
        // indistinguishable from a fresh optimization.
        assert_identical(&optimizer, &db, q, &catalog, &options, &cache);
        assert_identical(&optimizer, &db, q, &catalog, &options, &cache);
        prop_assert!(cache.hits() >= 1, "second identical call must hit");
    }

    /// Interleaving catalog mutations with cached optimizations never yields
    /// a stale answer: after every create / drop-list / reactivate /
    /// physical-drop, the cached result still equals a fresh one.
    #[test]
    fn no_stale_plans_across_mutation_sequences(
        qidx in 0usize..10,
        ops in prop::collection::vec(0u8..4, 1..12),
    ) {
        let db = test_db();
        let qs = queries(&db);
        let q = &qs[qidx];
        let optimizer = Optimizer::default();
        let cache = OptimizeCache::new();
        let mut catalog = StatsCatalog::new();

        // Mutation targets: single-column descriptors over the query's
        // relevant columns.
        let descs: Vec<StatDescriptor> = q
            .relevant_columns()
            .into_iter()
            .map(|(t, c)| StatDescriptor::single(t, c))
            .collect();
        prop_assume!(!descs.is_empty());

        let options = OptimizeOptions::default();
        assert_identical(&optimizer, &db, q, &catalog, &options, &cache);
        for (i, op) in ops.iter().enumerate() {
            let d = &descs[i % descs.len()];
            match op {
                0 => {
                    catalog.create_statistic(&db, d.clone()).unwrap();
                }
                1 => {
                    if let Some(id) = catalog.find_active(d) {
                        catalog.move_to_drop_list(id);
                    }
                }
                2 => {
                    if let Some(id) = catalog.find_built(d) {
                        catalog.reactivate(id);
                    }
                }
                _ => {
                    if let Some(id) = catalog.find_built(d) {
                        catalog.physically_drop(id);
                    }
                }
            }
            // The mutation may have changed the best plan; the cache must
            // track it exactly.
            assert_identical(&optimizer, &db, q, &catalog, &options, &cache);
        }
    }
}

#[test]
fn detached_cache_shares_across_catalogs() {
    // Two independent catalogs with identical content produce identical
    // profiles, so a detached cache serves both from one entry set.
    let db = test_db();
    let qs = queries(&db);
    let q = &qs[1];
    let optimizer = Optimizer::default();
    let cache = OptimizeCache::new();

    let catalog_a = StatsCatalog::new();
    let catalog_b = StatsCatalog::new();
    optimizer
        .optimize_cached(
            &db,
            q,
            catalog_a.full_view(),
            &OptimizeOptions::default(),
            &cache,
        )
        .unwrap();
    let misses_after_a = cache.misses();
    optimizer
        .optimize_cached(
            &db,
            q,
            catalog_b.full_view(),
            &OptimizeOptions::default(),
            &cache,
        )
        .unwrap();
    assert_eq!(cache.misses(), misses_after_a, "identical state must hit");
    assert_eq!(cache.hits(), 1);
}
