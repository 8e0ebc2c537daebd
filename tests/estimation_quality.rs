//! Estimation-quality integration tests: the q-error of the optimizer's
//! root cardinality estimate, with and without statistics.
//!
//! The paper's premise ("in the absence of statistics, cost estimates can be
//! dramatically different") is quantified here: across a Rags workload,
//! statistics must substantially reduce the median q-error
//! `max(est, actual) / min(est, actual)` of the final result-size estimate.

use autostats::candidate_statistics;
use bench::experiments::cardbench::operator_q_errors;
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use executor::{execute_plan, execute_plan_observed};
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, BoundSelect, BoundStatement};
use stats::{BuildOptions, StatDescriptor, StatsCatalog};
use storage::Database;

fn q_error(est: f64, actual: f64) -> f64 {
    let est = est.max(0.5);
    let actual = actual.max(0.5);
    (est / actual).max(actual / est)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn workload(db: &Database, n: usize, seed: u64) -> Vec<BoundSelect> {
    let spec = WorkloadSpec::new(0, Complexity::Complex, n).with_seed(seed);
    RagsGenerator::generate(db, &spec)
        .iter()
        .filter_map(|s| match bind_statement(db, s).unwrap() {
            BoundStatement::Select(q) => Some(q),
            _ => None,
        })
        .collect()
}

/// Root-cardinality q-errors for each query under the given catalog.
fn q_errors(db: &Database, catalog: &StatsCatalog, queries: &[BoundSelect]) -> Vec<f64> {
    let optimizer = Optimizer::default();
    queries
        .iter()
        .map(|q| {
            let r = optimizer
                .optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
                .unwrap();
            let out = execute_plan(db, q, &r.plan, &optimizer.params).unwrap();
            q_error(r.plan.est_rows, out.row_count() as f64)
        })
        .collect()
}

#[test]
fn statistics_reduce_median_q_error_on_skewed_data() {
    let db = build_tpcd(&TpcdConfig {
        scale: 0.003,
        zipf: ZipfSpec::Mixed,
        seed: 11,
    });
    let queries = workload(&db, 40, 11);

    let bare = StatsCatalog::new();
    let without = q_errors(&db, &bare, &queries);

    let mut tuned = StatsCatalog::new();
    for q in &queries {
        for d in candidate_statistics(q) {
            tuned.create_statistic(&db, d).unwrap();
        }
    }
    let with = q_errors(&db, &tuned, &queries);

    let m_without = median(without);
    let m_with = median(with);
    assert!(
        m_with < m_without,
        "statistics did not improve median q-error: {m_with:.2} vs {m_without:.2}"
    );
    assert!(
        m_with < 10.0,
        "median q-error with full statistics too large: {m_with:.2}"
    );
}

#[test]
fn mnsa_estimates_close_to_full_statistics() {
    // MNSA builds fewer statistics; its estimation quality must stay in the
    // same ballpark as create-all (that is the whole point of the paper).
    use autostats::{MnsaConfig, MnsaEngine};
    let db = build_tpcd(&TpcdConfig {
        scale: 0.003,
        zipf: ZipfSpec::Fixed(2.0),
        seed: 23,
    });
    let queries = workload(&db, 30, 23);

    let mut full = StatsCatalog::new();
    for q in &queries {
        for d in candidate_statistics(q) {
            full.create_statistic(&db, d).unwrap();
        }
    }
    let engine = MnsaEngine::new(MnsaConfig::default());
    let mut mnsa = StatsCatalog::new();
    for q in &queries {
        engine.run_query(&db, &mut mnsa, q).unwrap();
    }
    assert!(mnsa.active_count() <= full.active_count());

    let m_full = median(q_errors(&db, &full, &queries));
    let m_mnsa = median(q_errors(&db, &mnsa, &queries));
    assert!(
        m_mnsa <= m_full * 3.0 + 1.0,
        "MNSA q-error {m_mnsa:.2} far worse than create-all {m_full:.2}"
    );
}

/// Per-operator q-errors (from the executor's `exec.op.*` spans) pooled
/// over all queries under `catalog`.
fn per_operator_q_errors(
    db: &Database,
    catalog: &StatsCatalog,
    queries: &[BoundSelect],
) -> Vec<f64> {
    let optimizer = Optimizer::default();
    let mut all = Vec::new();
    for q in queries {
        let r = optimizer
            .optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
            .unwrap();
        let tracer = obsv::Tracer::enabled();
        execute_plan_observed(db, q, &r.plan, &tracer).unwrap();
        all.extend(operator_q_errors(&tracer.flush()));
    }
    all
}

/// Correlated column pairs break the independence assumption that
/// single-column histograms multiply through. Joint 2-D histograms on the
/// pairs must cut the *per-operator* median q-error — not just the root
/// estimate — because the refinement applies at the access path where the
/// conjunction is evaluated.
#[test]
fn joint_histograms_cut_per_operator_q_error_on_correlated_pairs() {
    let cfg = datagen::AdversarialConfig {
        rows: 3_000,
        correlation: 0.95,
        null_fraction: 0.0,
        ..datagen::AdversarialConfig::tiny()
    };
    let db = datagen::build_adversarial(&cfg, datagen::Regime::Correlated);
    let facts = db.table_id(datagen::adversarial::FACTS).unwrap();
    let schema_of = |name: &str| {
        db.table_by_name(datagen::adversarial::FACTS)
            .unwrap()
            .schema()
            .index_of(name)
            .unwrap()
    };
    let (a, b, c, d) = (
        schema_of("c_a"),
        schema_of("c_b"),
        schema_of("c_c"),
        schema_of("c_d"),
    );

    // Keep only the pair probes: queries constraining both columns of one
    // correlated pair, the shape where independence fails.
    let queries: Vec<BoundSelect> =
        datagen::adversarial_queries(&db, &cfg, datagen::Regime::Correlated, 120)
            .into_iter()
            .filter_map(
                |q| match bind_statement(&db, &query::Statement::Select(q)).unwrap() {
                    BoundStatement::Select(bq) => Some(bq),
                    _ => None,
                },
            )
            .filter(|q| {
                let cols: Vec<usize> = q.selections.iter().map(|p| p.column.column).collect();
                (cols.contains(&a) && cols.contains(&b)) || (cols.contains(&c) && cols.contains(&d))
            })
            .collect();
    assert!(
        queries.len() >= 20,
        "workload generator stopped producing pair probes ({} of 120)",
        queries.len()
    );

    // Both catalogs hold the same single-column histograms; the joint
    // catalog additionally builds 2-D histograms over the two pairs.
    let mut single = StatsCatalog::new();
    for col in [a, b, c, d] {
        single
            .create_statistic(&db, StatDescriptor::single(facts, col))
            .unwrap();
    }
    let mut joint =
        StatsCatalog::new().with_build_options(BuildOptions::default().with_joint_histograms());
    for col in [a, b, c, d] {
        joint
            .create_statistic(&db, StatDescriptor::single(facts, col))
            .unwrap();
    }
    joint
        .create_statistic(&db, StatDescriptor::multi(facts, vec![a, b]))
        .unwrap();
    joint
        .create_statistic(&db, StatDescriptor::multi(facts, vec![c, d]))
        .unwrap();

    let m_single = median(per_operator_q_errors(&db, &single, &queries));
    let m_joint = median(per_operator_q_errors(&db, &joint, &queries));
    assert!(
        m_joint < m_single,
        "joint histograms did not cut per-operator median q-error: \
         joint {m_joint:.2} vs single {m_single:.2}"
    );
    // And the improvement must be substantive, not a rounding artifact: on
    // rho = 0.95 pairs the independence assumption is off by roughly the
    // second marginal (an order of magnitude here).
    assert!(
        m_joint < m_single * 0.75,
        "joint-histogram improvement too small: {m_joint:.2} vs {m_single:.2}"
    );
}

#[test]
fn skew_hurts_magic_numbers_more_than_statistics() {
    // The gap between no-stats and full-stats estimation should widen with
    // skew — that is why the paper generates Zipfian data at all.
    let gap = |z: f64| -> f64 {
        let db = build_tpcd(&TpcdConfig {
            scale: 0.002,
            zipf: ZipfSpec::Fixed(z),
            seed: 31,
        });
        let queries = workload(&db, 25, 31);
        let bare = StatsCatalog::new();
        let mut tuned = StatsCatalog::new();
        for q in &queries {
            for d in candidate_statistics(q) {
                tuned.create_statistic(&db, d).unwrap();
            }
        }
        median(q_errors(&db, &bare, &queries)) / median(q_errors(&db, &tuned, &queries))
    };
    let uniform_gap = gap(0.0);
    let skewed_gap = gap(3.0);
    assert!(
        skewed_gap >= uniform_gap * 0.8,
        "skew should not shrink the statistics advantage much: uniform {uniform_gap:.2}, skewed {skewed_gap:.2}"
    );
    assert!(skewed_gap > 1.0, "statistics must help on skewed data");
}
