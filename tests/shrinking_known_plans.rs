//! Shrinking Set plans a query only when its selectivity profile is new: a
//! trial whose profile has its reference's values takes the reference's
//! plan, and a reference whose profile has the values of a plan the caller
//! holds (MNSA's final plan) takes that plan. Held here to Figure 2's loop
//! that optimizes every call (`tests/support`), with and without plans in
//! hand, under every equivalence notion — and the fact it rests on, that
//! `Optimizer::plan` reads only a profile's values, is checked on its own.

mod support;

use autostats::{
    candidate_statistics, shrinking_set_traced, Equivalence, MnsaConfig, MnsaEngine,
    ShrinkingOutcome,
};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use obsv::Obs;
use optimizer::{OptimizeOptions, OptimizedQuery, Optimizer, SelectivityProfile};
use proptest::prelude::*;
use query::{bind_statement, BoundSelect, BoundStatement};
use stats::{StatId, StatsCatalog};
use std::collections::HashSet;
use std::sync::OnceLock;
use storage::Database;
use support::shrinking_set_oracle;

const NOTIONS: [Equivalence; 5] = [
    Equivalence::ExecutionTree,
    Equivalence::OptimizerCost,
    Equivalence::TCost(0.0),
    Equivalence::TCost(20.0),
    Equivalence::TCost(40.0),
];

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

/// MNSA at threshold `t_percent` over the workload, query by query, and
/// each query's final plan: the query optimized under the catalog as its own
/// run left it — stale for an earlier query wherever a later run built a
/// statistic it reads.
fn tuned(
    db: &Database,
    queries: &[BoundSelect],
    t_percent: f64,
) -> (StatsCatalog, Vec<OptimizedQuery>) {
    let engine = MnsaEngine::new(MnsaConfig {
        t_percent,
        ..MnsaConfig::default()
    });
    let mut catalog = StatsCatalog::new();
    let plans = queries
        .iter()
        .map(|q| {
            engine.run_query(db, &mut catalog, q).unwrap();
            engine
                .optimizer
                .optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
                .unwrap()
        })
        .collect();
    (catalog, plans)
}

fn copy(catalog: &StatsCatalog) -> StatsCatalog {
    StatsCatalog::restore(catalog.snapshot())
}

/// What Figure 2 decided — essential, removed, optimizer calls — and the
/// drop-list it left.
type Decision = (Vec<StatId>, Vec<StatId>, usize, Vec<StatId>);

fn decided(out: &ShrinkingOutcome, catalog: &StatsCatalog) -> Decision {
    (
        out.essential.clone(),
        out.removed.clone(),
        out.optimizer_calls,
        catalog.drop_list().collect(),
    )
}

fn oracle(
    db: &Database,
    catalog: &StatsCatalog,
    queries: &[BoundSelect],
    equivalence: Equivalence,
) -> Decision {
    let mut catalog = copy(catalog);
    let initial = catalog.active_ids();
    let out = shrinking_set_oracle(
        db,
        &mut catalog,
        &Optimizer::default(),
        queries,
        &initial,
        equivalence,
        true,
    )
    .unwrap();
    decided(&out, &catalog)
}

/// The library's Shrinking Set and how many of its calls took a plan
/// already in hand (`shrink.plans_known`).
fn shortcut(
    db: &Database,
    catalog: &StatsCatalog,
    queries: &[BoundSelect],
    known: &[OptimizedQuery],
    equivalence: Equivalence,
) -> (Decision, u64) {
    let mut catalog = copy(catalog);
    let initial = catalog.active_ids();
    let obs = Obs::enabled();
    let out = shrinking_set_traced(
        db,
        &mut catalog,
        &Optimizer::default(),
        queries,
        known,
        &initial,
        equivalence,
        true,
        &obs,
    )
    .unwrap();
    let plans_known = match obs.metrics.snapshot().entries.get("shrink.plans_known") {
        Some(obsv::MetricValue::Counter(n)) => *n,
        other => panic!("shrink.plans_known missing: {other:?}"),
    };
    (decided(&out, &catalog), plans_known)
}

/// How many of the held plans a reference can take: those whose values
/// equal the profile the query has under the catalog's active statistics.
fn answered(
    db: &Database,
    catalog: &StatsCatalog,
    queries: &[BoundSelect],
    plans: &[OptimizedQuery],
) -> u64 {
    let optimizer = Optimizer::default();
    let options = OptimizeOptions::default();
    queries
        .iter()
        .zip(plans)
        .filter(|(q, k)| {
            optimizer
                .profile(db, catalog.full_view(), q, &options)
                .same_values(&k.profile)
        })
        .count() as u64
}

/// Under every equivalence notion, the library's Shrinking Set decides what
/// the oracle decides, with and without `plans` in hand, and the plans answer
/// exactly the `answered` references: the trials are the same calls either
/// way. Returns how many trials took their reference's plan.
fn decides_as_the_oracle(
    db: &Database,
    catalog: &StatsCatalog,
    queries: &[BoundSelect],
    plans: &[OptimizedQuery],
    answered: u64,
) -> u64 {
    let mut trials_known = 0;
    for equivalence in NOTIONS {
        let expected = oracle(db, catalog, queries, equivalence);
        let (without, known_without) = shortcut(db, catalog, queries, &[], equivalence);
        let (with, known_with) = shortcut(db, catalog, queries, plans, equivalence);
        assert_eq!(without, expected, "{equivalence:?}, no plans");
        assert_eq!(with, expected, "{equivalence:?}, plans in hand");
        assert_eq!(known_with - known_without, answered, "{equivalence:?}");
        trials_known += known_without;
    }
    trials_known
}

#[test]
fn plans_in_hand_change_no_decision() {
    let mut trials_known = 0;
    for (scale, seed) in [(0.002, 1), (0.003, 2), (0.004, 3)] {
        let db = tpcd(scale, seed);
        let queries = workload(&db, 16, seed);
        let (catalog, plans) = tuned(&db, &queries, 20.0);
        let references_known = answered(&db, &catalog, &queries, &plans);
        assert!(references_known > 0, "scale {scale}: no plan in hand fits");
        trials_known += decides_as_the_oracle(&db, &catalog, &queries, &plans, references_known);
    }
    assert!(
        trials_known > 0,
        "no trial ever saw its reference's profile"
    );
}

/// A statistic built after MNSA changes profiles the held plans were made
/// under: those references are planned again, and nothing else changes.
#[test]
fn stale_plans_are_planned_again() {
    for (scale, seed) in [(0.002, 4), (0.004, 5)] {
        let db = tpcd(scale, seed);
        let queries = workload(&db, 16, seed);
        // A loose threshold, so that MNSA leaves candidates unbuilt.
        let (mut catalog, plans) = tuned(&db, &queries, 400.0);
        let before = answered(&db, &catalog, &queries, &plans);
        // Build what MNSA left unbuilt until a statistic changes a profile
        // some held plan was made under.
        let mut after = before;
        for d in queries.iter().flat_map(candidate_statistics) {
            if catalog.find_built(&d).is_none() {
                catalog.create_statistic(&db, d).unwrap();
                after = answered(&db, &catalog, &queries, &plans);
                if after < before {
                    break;
                }
            }
        }
        assert!(
            after < before,
            "scale {scale}: the extra statistic went unread"
        );
        decides_as_the_oracle(&db, &catalog, &queries, &plans, after);
    }
}

/// Every variable of `q` injected at the value `profile` gives it.
fn inject_values(q: &BoundSelect, profile: &SelectivityProfile) -> OptimizeOptions {
    OptimizeOptions {
        injected: q
            .predicate_ids()
            .into_iter()
            .map(|id| (id, profile.value(id)))
            .collect(),
    }
}

/// Everything a caller can observe of a plan, to the bit: every node's
/// operator and estimates, and the cost.
fn plan_bits(r: &OptimizedQuery) -> (Vec<(String, u64, u64)>, u64) {
    let mut nodes = Vec::new();
    r.plan.walk(&mut |n| {
        nodes.push((
            format!("{:?}", n.op),
            n.est_cost.to_bits(),
            n.est_rows.to_bits(),
        ))
    });
    (nodes, r.cost.to_bits())
}

/// A TPC-D database, a Rags workload over it, and a catalog holding every
/// candidate statistic of the workload; a case hides a random subset.
struct Fixture {
    db: Database,
    queries: Vec<BoundSelect>,
    catalog: StatsCatalog,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = tpcd(0.002, 9);
        let queries = workload(&db, 30, 9);
        let mut catalog = StatsCatalog::new();
        for d in queries.iter().flat_map(candidate_statistics) {
            if catalog.find_built(&d).is_none() {
                catalog.create_statistic(&db, d).unwrap();
            }
        }
        Fixture {
            db,
            queries,
            catalog,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `optimize` is `plan ∘ profile`, and `plan` reads only the values of
    /// the profile: injecting every variable at the value the catalog gives
    /// it changes every source and no bit of the plan.
    #[test]
    fn plan_reads_only_profile_values(
        query in 0usize..1000,
        hidden in prop::collection::vec(any::<bool>(), 64),
        injected in prop::collection::vec(prop::option::of(0u32..=1000), 12),
    ) {
        let Fixture { db, queries, catalog } = fixture();
        let q = &queries[query % queries.len()];
        let ignore: HashSet<StatId> = catalog
            .active_ids()
            .into_iter()
            .zip(hidden.iter().cycle())
            .filter(|(_, hide)| **hide)
            .map(|(id, _)| id)
            .collect();
        let view = catalog.view(&ignore);
        let options = OptimizeOptions {
            injected: q
                .predicate_ids()
                .into_iter()
                .zip(&injected)
                .filter_map(|(id, v)| v.map(|v| (id, f64::from(v) / 1000.0)))
                .collect(),
        };
        let optimizer = Optimizer::default();

        let direct = optimizer.optimize(db, q, view, &options).unwrap();
        let profile = optimizer.profile(db, view, q, &options);
        let split = optimizer.plan(db, q, profile.clone()).unwrap();
        prop_assert_eq!(plan_bits(&split), plan_bits(&direct));
        prop_assert_eq!(&split.profile.magic_variables(), &direct.profile.magic_variables());
        prop_assert_eq!(&split.profile, &direct.profile);

        let forced = optimizer.optimize(db, q, view, &inject_values(q, &profile)).unwrap();
        prop_assert!(forced.profile.same_values(&profile));
        prop_assert!(forced.profile.magic_variables().is_empty());
        prop_assert!(forced.plan.same_tree(&direct.plan));
        prop_assert_eq!(plan_bits(&forced), plan_bits(&direct));
    }
}

fn injected_profile(db: &Database, q: &BoundSelect, value: f64) -> SelectivityProfile {
    Optimizer::default().profile(
        db,
        StatsCatalog::new().full_view(),
        q,
        &OptimizeOptions::inject_all(&q.predicate_ids(), value),
    )
}

#[test]
fn same_values_compares_bits_and_ignores_sources() {
    let Fixture {
        db,
        queries,
        catalog,
    } = fixture();
    let q = queries
        .iter()
        .find(|q| !q.selections.is_empty())
        .expect("a query with a selection");
    let zero = injected_profile(db, q, 0.0);
    let negative_zero = injected_profile(db, q, -0.0);
    assert!(zero.same_values(&zero));
    assert!(
        !zero.same_values(&negative_zero),
        "0.0 and -0.0 are two values"
    );
    assert!(!negative_zero.same_values(&zero));

    let optimizer = Optimizer::default();
    let options = OptimizeOptions::default();
    let estimated = optimizer.profile(db, catalog.full_view(), q, &options);
    let forced = optimizer.profile(db, catalog.full_view(), q, &inject_values(q, &estimated));
    assert_ne!(forced, estimated, "the sources differ");
    assert!(forced.same_values(&estimated) && estimated.same_values(&forced));
    // A profile with a variable fewer is a different profile.
    assert!(!injected_profile(db, q, 0.5).same_values(&injected_profile(
        db,
        &BoundSelect {
            selections: q.selections[1..].to_vec(),
            ..q.clone()
        },
        0.5
    )));
}
