//! Concurrency stress test: threads interleaving cached optimization with
//! catalog mutations (create / drop-list / reactivate / physical drop).
//!
//! Invariants under fire:
//! * **no stale reads** — every `optimize_cached` answer, taken under a
//!   catalog read lock, equals a fresh `optimize` against the same locked
//!   state, no matter what mutators did before or after;
//! * **no deadlocks** — the optimize path takes the catalog read lock and
//!   then the cache's own lock, the mutation path only the catalog write
//!   lock, so the test terminating at all is the assertion;
//! * **counters sum correctly** — every lookup is classified exactly once,
//!   so `hits + misses` equals the number of `optimize_cached` calls.

use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, ZipfSpec};
use optimizer::{OptimizeCache, OptimizeOptions, Optimizer};
use parking_lot::RwLock;
use query::{bind_statement, BoundSelect, BoundStatement};
use stats::{StatDescriptor, StatsCatalog};
use std::sync::atomic::{AtomicU64, Ordering};
use storage::Database;

const OPTIMIZER_THREADS: usize = 4;
const MUTATOR_THREADS: usize = 2;
const OPTIMIZE_ITERS: usize = 60;
const MUTATE_ITERS: usize = 40;

fn test_db() -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.002,
        zipf: ZipfSpec::Mixed,
        seed: 4,
    })
}

fn queries(db: &Database) -> Vec<BoundSelect> {
    let mut gen = RagsGenerator::new(db, 55);
    (0..8)
        .map(|i| {
            let c = if i % 2 == 0 {
                Complexity::Simple
            } else {
                Complexity::Complex
            };
            match bind_statement(db, &query::Statement::Select(gen.gen_query(c))).unwrap() {
                BoundStatement::Select(b) => b,
                _ => unreachable!(),
            }
        })
        .collect()
}

#[test]
fn optimize_and_mutate_interleaved() {
    let db = test_db();
    let qs = queries(&db);
    let descs: Vec<StatDescriptor> = qs
        .iter()
        .flat_map(|q| q.relevant_columns())
        .map(|(t, c)| StatDescriptor::single(t, c))
        .collect();
    assert!(!descs.is_empty());

    let cache = OptimizeCache::new();
    let catalog = RwLock::new(StatsCatalog::new());
    let optimizer = Optimizer::default();
    let lookups = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..OPTIMIZER_THREADS {
            let cache = &cache;
            let catalog = &catalog;
            let db = &db;
            let qs = &qs;
            let optimizer = &optimizer;
            let lookups = &lookups;
            s.spawn(move || {
                for i in 0..OPTIMIZE_ITERS {
                    let q = &qs[(tid * 31 + i) % qs.len()];
                    let guard = catalog.read();
                    let cached = optimizer
                        .optimize_cached(
                            db,
                            q,
                            guard.full_view(),
                            &OptimizeOptions::default(),
                            cache,
                        )
                        .unwrap();
                    lookups.fetch_add(1, Ordering::Relaxed);
                    // Fresh optimization under the SAME lock: any divergence
                    // is a stale cache read.
                    let fresh = optimizer
                        .optimize(db, q, guard.full_view(), &OptimizeOptions::default())
                        .unwrap();
                    assert_eq!(cached.cost, fresh.cost, "stale cost served");
                    assert!(cached.plan.same_tree(&fresh.plan), "stale plan served");
                    assert_eq!(cached.profile, fresh.profile, "stale profile served");
                }
            });
        }
        for tid in 0..MUTATOR_THREADS {
            let catalog = &catalog;
            let db = &db;
            let descs = &descs;
            s.spawn(move || {
                for i in 0..MUTATE_ITERS {
                    let d = &descs[(tid * 17 + i) % descs.len()];
                    let mut guard = catalog.write();
                    match i % 4 {
                        0 => {
                            guard.create_statistic(db, d.clone()).unwrap();
                        }
                        1 => {
                            if let Some(id) = guard.find_active(d) {
                                guard.move_to_drop_list(id);
                            }
                        }
                        2 => {
                            if let Some(id) = guard.find_built(d) {
                                guard.reactivate(id);
                            }
                        }
                        _ => {
                            if let Some(id) = guard.find_built(d) {
                                guard.physically_drop(id);
                            }
                        }
                    }
                }
            });
        }
    });

    let total = lookups.load(Ordering::Relaxed);
    assert_eq!(
        cache.hits() + cache.misses(),
        total,
        "every lookup classified exactly once"
    );
    assert_eq!(total, (OPTIMIZER_THREADS * OPTIMIZE_ITERS) as u64);
    assert!(cache.hits() > 0, "repeated queries should produce hits");

    // The cache stays coherent after the storm: one more pass, serially.
    let guard = catalog.read();
    for q in &qs {
        let cached = optimizer
            .optimize_cached(
                &db,
                q,
                guard.full_view(),
                &OptimizeOptions::default(),
                &cache,
            )
            .unwrap();
        let fresh = optimizer
            .optimize(&db, q, guard.full_view(), &OptimizeOptions::default())
            .unwrap();
        assert_eq!(cached.cost, fresh.cost);
        assert!(cached.plan.same_tree(&fresh.plan));
    }
}
