//! A selectivity profile is two dense arrays, and a join edge reads its
//! histogram selectivity through the catalog's per-pair memo
//! (`StatsView::join_selectivity`). Held here to the builder that kept two
//! hash maps and called `stats::join_selectivity` on every edge
//! (`tests/support`): every value bit, every source, the magic-variable list
//! and the fingerprint must agree, on the `offline-tune` benchmark's inputs
//! and on generated catalogs. A catalog shared by two threads must plan as
//! one thread does.

mod support;

use autostats::{candidate_statistics, MnsaConfig, OfflineTuner};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use optimizer::{OptimizeOptions, Optimizer, SelectivityProfile};
use proptest::prelude::*;
use query::{bind_statement, BoundSelect, BoundStatement, PredicateId};
use rustc_hash::FxHashMap;
use stats::{BuildOptions, StatId, StatsCatalog, StatsView};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
use storage::Database;
use support::{build_profile_oracle, ProfileOracle};

fn tpcd(scale: f64, seed: u64) -> Database {
    build_tpcd(&TpcdConfig {
        scale,
        zipf: ZipfSpec::Mixed,
        seed,
    })
}

/// A seeded Rags `U0-C` workload, SELECTs only.
fn workload(db: &Database, n: usize, seed: u64) -> Vec<BoundSelect> {
    let spec = WorkloadSpec::new(0, Complexity::Complex, n).with_seed(seed);
    RagsGenerator::generate(db, &spec)
        .iter()
        .filter_map(|stmt| match bind_statement(db, stmt) {
            Ok(BoundStatement::Select(q)) => Some(q),
            _ => None,
        })
        .collect()
}

/// Every variable of `q`, then one of each kind it does not have.
fn probed_ids(q: &BoundSelect) -> Vec<PredicateId> {
    let mut ids = q.predicate_ids();
    ids.push(PredicateId::Selection(q.selections.len()));
    ids.push(PredicateId::JoinEdge(q.join_edges.len()));
    if q.group_by.is_empty() {
        ids.push(PredicateId::GroupBy);
    }
    ids
}

/// The profile the optimizer builds under `view` and `options`, checked
/// against the oracle's in every observable; returns both.
fn checked(
    db: &Database,
    view: StatsView<'_>,
    q: &BoundSelect,
    options: &OptimizeOptions,
    what: &dyn Fn() -> String,
) -> (SelectivityProfile, ProfileOracle) {
    let profile = Optimizer::default().profile(db, view, q, options);
    let oracle = build_profile_oracle(db, &view, q, &options.injected);
    for id in probed_ids(q) {
        assert_eq!(
            profile.value(id).to_bits(),
            oracle.value(id).to_bits(),
            "value of {id}, {}",
            what()
        );
        assert_eq!(
            profile.source(id),
            oracle.source(id),
            "source of {id}, {}",
            what()
        );
    }
    assert_eq!(
        profile.magic_variables(),
        oracle.magic_variables(),
        "{}",
        what()
    );
    assert_eq!(profile.fingerprint(), oracle.fingerprint(), "{}", what());
    (profile, oracle)
}

/// `SelectivityProfile::same_values` as the hash maps would answer it.
fn same_values(a: &ProfileOracle, b: &ProfileOracle) -> bool {
    a.values.len() == b.values.len()
        && a.values
            .iter()
            .all(|(id, v)| b.values.get(id).is_some_and(|w| w.to_bits() == v.to_bits()))
}

/// The `offline-tune` benchmark's inputs (TPC-D 0.02, `U0-C-1000`, seed 7)
/// and the catalog `OfflineTuner` leaves for them.
struct Tuned {
    db: Database,
    queries: Vec<BoundSelect>,
    catalog: StatsCatalog,
}

fn tuned() -> &'static Tuned {
    static TUNED: OnceLock<Tuned> = OnceLock::new();
    TUNED.get_or_init(|| {
        let db = tpcd(0.02, 7);
        let queries = workload(&db, 1000, 7);
        let mut catalog = StatsCatalog::new();
        OfflineTuner::default()
            .tune(&db, &mut catalog, &queries)
            .unwrap();
        Tuned {
            db,
            queries,
            catalog,
        }
    })
}

/// Each query under the tuned catalog, under each view that hides one
/// statistic on one of its tables (Shrinking Set's trials), and under MNSA's
/// ε and 1 − ε injections of its magic variables.
#[test]
fn offline_tune_profiles_equal_the_oracle() {
    let Tuned {
        db,
        queries,
        catalog,
    } = tuned();
    let epsilon = MnsaConfig::default().epsilon;
    let mut hidden_views = 0;
    for (qi, q) in queries.iter().enumerate() {
        let plain = OptimizeOptions::default();
        let (full, full_oracle) = checked(db, catalog.full_view(), q, &plain, &|| {
            format!("query {qi}, full view")
        });
        for value in [epsilon, 1.0 - epsilon] {
            let probe = OptimizeOptions::inject_all(&full.magic_variables(), value);
            checked(db, catalog.full_view(), q, &probe, &|| {
                format!("query {qi}, magic variables at {value}")
            });
        }

        let tables: HashSet<_> = q.relations.iter().map(|(t, _)| *t).collect();
        for stat in catalog
            .active()
            .filter(|s| tables.contains(&s.descriptor.table))
        {
            let ignore: HashSet<StatId> = [stat.id].into_iter().collect();
            let what = || format!("query {qi}, statistic {} hidden", stat.id.0);
            let (trial, trial_oracle) = checked(db, catalog.view(&ignore), q, &plain, &what);
            assert_eq!(
                trial.same_values(&full),
                same_values(&trial_oracle, &full_oracle),
                "{}",
                what()
            );
            hidden_views += 1;
        }
    }
    assert_eq!(queries.len(), 1000);
    assert!(hidden_views > 10_000, "{hidden_views} hidden views");
}

/// Two threads optimize the whole workload against one shared catalog,
/// whose memo starts empty, and get the plans one thread gets.
#[test]
fn threads_sharing_a_catalog_plan_as_one_thread() {
    let Tuned {
        db,
        queries,
        catalog,
    } = tuned();
    let optimizer = Optimizer::default();
    let plan_all = |catalog: &StatsCatalog, order: &[usize]| -> Vec<(usize, u64, u64, u64)> {
        let mut plans: Vec<_> = order
            .iter()
            .map(|&i| {
                let r = optimizer
                    .optimize(
                        db,
                        &queries[i],
                        catalog.full_view(),
                        &OptimizeOptions::default(),
                    )
                    .unwrap();
                (
                    i,
                    r.plan.structural_fingerprint(),
                    r.cost.to_bits(),
                    r.profile.fingerprint(),
                )
            })
            .collect();
        plans.sort();
        plans
    };
    let forward: Vec<usize> = (0..queries.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let serial = plan_all(&StatsCatalog::restore(catalog.snapshot()), &forward);

    let shared = Arc::new(StatsCatalog::restore(catalog.snapshot()));
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| plan_all(&shared, &forward));
        let b = scope.spawn(|| plan_all(&shared, &backward));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, serial);
    assert_eq!(b, serial);
}

/// A small TPC-D database, a Rags workload over it and its candidate
/// statistics; the catalog, built with joint histograms, lives across
/// cases, so a case sees the memo earlier cases filled.
struct Generated {
    db: Database,
    queries: Vec<BoundSelect>,
    candidates: Vec<stats::StatDescriptor>,
    catalog: Mutex<StatsCatalog>,
}

fn generated() -> &'static Generated {
    static GENERATED: OnceLock<Generated> = OnceLock::new();
    GENERATED.get_or_init(|| {
        let db = tpcd(0.003, 5);
        let queries = workload(&db, 40, 5);
        let mut candidates = Vec::new();
        for d in queries.iter().flat_map(candidate_statistics) {
            if !candidates.contains(&d) {
                candidates.push(d);
            }
        }
        let catalog =
            StatsCatalog::new().with_build_options(BuildOptions::default().with_joint_histograms());
        Generated {
            db,
            queries,
            candidates,
            catalog: Mutex::new(catalog),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A case builds (or reactivates) a random subset of the candidates,
    /// drop-lists some of what is built, hides a random set, and injects
    /// random values, GROUP BY's among them.
    #[test]
    fn generated_catalog_profiles_equal_the_oracle(
        query in 0usize..1000,
        build in prop::collection::vec(any::<bool>(), 48),
        drop_listed in prop::collection::vec(any::<bool>(), 48),
        hidden in prop::collection::vec(any::<bool>(), 48),
        injected in prop::collection::vec(prop::option::of(0u32..=1000), 12),
        group_by in prop::option::of(0u32..=1000),
    ) {
        let Generated { db, queries, candidates, catalog } = generated();
        let mut catalog = catalog.lock().unwrap();
        let q = &queries[query % queries.len()];
        for (d, _) in candidates.iter().zip(build.iter().cycle()).filter(|(_, b)| **b) {
            catalog.create_statistic(db, d.clone()).unwrap();
        }
        let built: Vec<StatId> = candidates.iter().filter_map(|d| catalog.find_built(d)).collect();
        for (&id, &drop) in built.iter().zip(drop_listed.iter().cycle()) {
            if drop {
                catalog.move_to_drop_list(id);
            } else {
                catalog.reactivate(id);
            }
        }
        let ignore: HashSet<StatId> = built
            .iter()
            .zip(hidden.iter().cycle())
            .filter(|(_, hide)| **hide)
            .map(|(&id, _)| id)
            .collect();
        let mut ids = probed_ids(q);
        ids.retain(|&id| id != PredicateId::GroupBy);
        let mut injected: FxHashMap<PredicateId, f64> = ids
            .into_iter()
            .zip(&injected)
            .filter_map(|(id, v)| v.map(|v| (id, f64::from(v) / 1000.0)))
            .collect();
        if let Some(v) = group_by {
            injected.insert(PredicateId::GroupBy, f64::from(v) / 1000.0);
        }
        let options = OptimizeOptions { injected };
        checked(db, catalog.view(&ignore), q, &options, &|| format!("query {query}"));
        checked(db, catalog.view(&ignore), q, &OptimizeOptions::default(), &|| {
            format!("query {query}, nothing injected")
        });
    }
}
