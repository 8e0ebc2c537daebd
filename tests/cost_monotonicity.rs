//! Property test of the paper's core assumption (§4.1): *the
//! optimizer-estimated cost of an SPJ query is monotonic in the values of
//! the selectivity variables*. MNSA's correctness rests on this, so we
//! verify it holds for our optimizer by construction: for random queries and
//! random pairs of injected selectivity vectors ordered pointwise, the
//! estimated costs are ordered the same way. MNSA's probe leans on it under
//! whatever catalog it has built so far, so the sandwich is also checked
//! with random subsets of a query's candidate statistics built.

use autostats::{candidate_statistics, MnsaConfig};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, ZipfSpec};
use optimizer::{OptimizeOptions, Optimizer};
use proptest::prelude::*;
use query::{bind_statement, BoundSelect, BoundStatement};
use rustc_hash::FxHashMap;
use stats::StatsCatalog;
use storage::Database;

fn test_db() -> Database {
    build_tpcd(&TpcdConfig {
        scale: 0.001,
        zipf: ZipfSpec::Fixed(1.0),
        seed: 3,
    })
}

fn queries(db: &Database) -> Vec<BoundSelect> {
    let mut gen = RagsGenerator::new(db, 99);
    (0..12)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cost_monotone_in_selectivities(
        qidx in 0usize..12,
        base in prop::collection::vec(0.0005f64..0.9995, 12),
        bumps in prop::collection::vec(0.0f64..0.5, 12),
    ) {
        let db = test_db();
        let qs = queries(&db);
        let q = &qs[qidx];
        let vars = q.predicate_ids();
        prop_assume!(!vars.is_empty());
        let catalog = StatsCatalog::new();
        let optimizer = Optimizer::default();

        let low: FxHashMap<_, _> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, base[i % base.len()]))
            .collect();
        let mut high = low.clone();
        for (i, (_, val)) in high.iter_mut().enumerate() {
            *val = (*val + bumps[i % bumps.len()]).min(0.9995);
        }

        let c_low = optimizer
            .optimize(&db, q, catalog.full_view(), &OptimizeOptions { injected: low }).unwrap()
            .cost;
        let c_high = optimizer
            .optimize(&db, q, catalog.full_view(), &OptimizeOptions { injected: high }).unwrap()
            .cost;
        prop_assert!(
            c_low <= c_high * (1.0 + 1e-9),
            "cost not monotone: low={c_low} high={c_high} (query {qidx})"
        );
    }

    /// Injecting all variables at identical values is deterministic and the
    /// extremes bound the middle (the P_low <= P(s) <= P_high sandwich that
    /// justifies MNSA's probe).
    #[test]
    fn extremes_bound_intermediate(qidx in 0usize..12, mid in 0.001f64..0.999) {
        let db = test_db();
        let qs = queries(&db);
        let q = &qs[qidx];
        let vars = q.predicate_ids();
        prop_assume!(!vars.is_empty());
        let catalog = StatsCatalog::new();
        let optimizer = Optimizer::default();
        let eps = 0.0005;
        let cost_at = |v: f64| {
            optimizer
                .optimize(
                    &db,
                    q,
                    catalog.full_view(),
                    &OptimizeOptions::inject_all(&vars, v),
                ).unwrap()
                .cost
        };
        let lo = cost_at(eps);
        let hi = cost_at(1.0 - eps);
        let mid_cost = cost_at(mid.clamp(eps, 1.0 - eps));
        prop_assert!(lo <= mid_cost * (1.0 + 1e-9), "lo={lo} mid={mid_cost}");
        prop_assert!(mid_cost <= hi * (1.0 + 1e-9), "mid={mid_cost} hi={hi}");
    }

    /// MNSA's probe premise under the catalogs it meets: with a random
    /// subset of the query's candidate statistics built, the variables the
    /// plan still leaves on magic numbers, injected independently anywhere
    /// in [ε, 1−ε], cost between the all-ε and all-(1−ε) probes — taken as
    /// MNSA takes its `lo` and `hi`, the smaller and the larger of the two.
    #[test]
    fn probes_bound_independent_injections_under_built_statistics(
        qidx in 0usize..12,
        keep in prop::collection::vec(any::<bool>(), 64),
        values in prop::collection::vec(0.0005f64..0.9995, 12),
    ) {
        let db = test_db();
        let qs = queries(&db);
        let q = &qs[qidx];
        let built: Vec<_> = candidate_statistics(q)
            .into_iter()
            .zip(keep.iter().cycle())
            .filter_map(|(d, &k)| k.then_some(d))
            .collect();
        let mut catalog = StatsCatalog::new();
        catalog.create_statistics(&db, &built).unwrap();
        let optimizer = Optimizer::default();
        let cost_with = |options: &OptimizeOptions| {
            optimizer.optimize(&db, q, catalog.full_view(), options).unwrap()
        };
        let magic = cost_with(&OptimizeOptions::default()).profile.magic_variables();
        prop_assume!(!magic.is_empty());
        let eps = MnsaConfig::default().epsilon;
        let p_low = cost_with(&OptimizeOptions::inject_all(&magic, eps)).cost;
        let p_high = cost_with(&OptimizeOptions::inject_all(&magic, 1.0 - eps)).cost;
        let (lo, hi) = (p_low.min(p_high), p_low.max(p_high));
        let injected = magic.iter().copied().zip(values.iter().copied().cycle()).collect();
        let mid = cost_with(&OptimizeOptions { injected }).cost;
        prop_assert!(
            lo <= mid * (1.0 + 1e-9) && mid <= hi * (1.0 + 1e-9),
            "query {qidx}, {} of its candidates built: lo={lo} mid={mid} hi={hi}",
            built.len()
        );
    }
}
