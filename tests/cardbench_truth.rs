//! Ground-truth plumbing of the estimation-quality harness.
//!
//! `exp_cardbench` takes its true cardinalities from the columnar executor's
//! `exec.op.*` spans. These tests pin that channel: (1) differentially — the
//! span-reported root cardinality must agree exactly with the retained
//! row-at-a-time reference interpreter on seeded adversarial workloads (the
//! regression that motivated this: top-level Sort/HashAggregate spans used
//! to report their *input* count) — and (2) by property — the q-error
//! metric's value and degenerate conventions.

use bench::experiments::cardbench::{operator_q_errors, q_error};
use datagen::{adversarial_queries, build_adversarial, AdversarialConfig, Regime};
use executor::{execute_plan_observed, execute_plan_reference};
use obsv::{ArgValue, EventKind};
use optimizer::{OptimizeOptions, Optimizer};
use proptest::prelude::*;
use query::{bind_statement, BoundSelect, BoundStatement, Statement};
use stats::StatsCatalog;
use storage::Database;

fn bound_workload(db: &Database, cfg: &AdversarialConfig, regime: Regime) -> Vec<BoundSelect> {
    adversarial_queries(db, cfg, regime, 25)
        .into_iter()
        .map(
            |q| match bind_statement(db, &Statement::Select(q)).unwrap() {
                BoundStatement::Select(b) => b,
                _ => unreachable!("adversarial workload is SELECT-only"),
            },
        )
        .collect()
}

/// The `rows_out` of the plan-root operator span: the span tree's only
/// direct `exec.op.*` child of `exec.query`. Begin events carry the parent
/// linkage, End events carry the counts.
fn root_operator_rows(events: &[obsv::Event]) -> i64 {
    let query_id = events
        .iter()
        .find(|e| e.kind == EventKind::Begin && e.name == "exec.query")
        .expect("query span present")
        .id;
    let root_op = events
        .iter()
        .find(|e| {
            e.kind == EventKind::Begin && e.parent == query_id && e.name.starts_with("exec.op.")
        })
        .expect("root operator span present")
        .id;
    let end = events
        .iter()
        .find(|e| e.kind == EventKind::End && e.id == root_op)
        .expect("root operator span closed");
    match end
        .args
        .iter()
        .find(|(k, _)| *k == "rows_out")
        .expect("rows_out recorded")
    {
        (_, ArgValue::Int(n)) => *n,
        (_, other) => panic!("rows_out has wrong type: {other:?}"),
    }
}

/// On every adversarial regime, the span-derived true cardinality of the
/// plan root must agree exactly with the reference interpreter's output
/// count, and every span must carry a finite estimate alongside it.
#[test]
fn span_truth_matches_reference_interpreter_on_adversarial_workloads() {
    let cfg = AdversarialConfig::tiny();
    let optimizer = Optimizer::default();
    let catalog = StatsCatalog::new();
    let mut checked = 0usize;
    for regime in Regime::ALL {
        let db = build_adversarial(&cfg, regime);
        for q in bound_workload(&db, &cfg, regime) {
            let plan = optimizer
                .optimize(&db, &q, catalog.full_view(), &OptimizeOptions::default())
                .unwrap()
                .plan;
            let tracer = obsv::Tracer::enabled();
            let out = execute_plan_observed(&db, &q, &plan, &tracer).unwrap();
            let events = tracer.flush();
            assert!(
                obsv::trace::validate(&events).is_empty(),
                "{regime}: trace defects"
            );

            let reference = execute_plan_reference(&db, &q, &plan).unwrap();
            assert_eq!(
                out.rows, reference.rows,
                "{regime}: columnar and reference outputs diverge"
            );
            // The ground-truth channel itself: the root operator span (the
            // last operator before projection, including the Sort and
            // HashAggregate wrappers) reports the reference row count.
            assert_eq!(
                root_operator_rows(&events),
                reference.rows.len() as i64,
                "{regime}: span-derived truth disagrees with the reference interpreter"
            );
            // One span per plan node, each with a well-formed (est, actual)
            // pair: the q-errors the harness pools are complete.
            let pairs = operator_q_errors(&events);
            assert_eq!(
                pairs.len(),
                plan.nodes().len(),
                "{regime}: some operator span lost its est/actual pair"
            );
            assert!(pairs.iter().all(|q| q.is_finite() && *q >= 1.0));
            checked += 1;
        }
    }
    assert_eq!(checked, 4 * 25);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// q-error is ≥ 1 and finite for every realistic (est, actual) pair —
    /// including empty actuals, where the 0.5 floor keeps it defined.
    #[test]
    fn q_error_at_least_one_and_finite(
        est in prop_oneof![Just(0.0), 0.0..1e9],
        actual in prop_oneof![Just(0.0), 0.0..1e9],
    ) {
        let q = q_error(est, actual);
        prop_assert!(q >= 1.0, "q-error {q} below 1 for ({est}, {actual})");
        prop_assert!(q.is_finite());
        // Symmetry: over- and under-estimation are penalized alike.
        let flipped = q_error(actual, est);
        prop_assert!((q - flipped).abs() <= q * 1e-12);
    }

    /// The degenerate conventions: a correct empty estimate scores a
    /// perfect 1; scaling both sides equally leaves q-error unchanged.
    #[test]
    fn q_error_degenerate_conventions(scale in 1.0f64..1e6) {
        prop_assert_eq!(q_error(0.0, 0.0), 1.0);
        prop_assert_eq!(q_error(scale, scale), 1.0);
        // est = 0 vs non-empty actual degrades smoothly (2·actual), never
        // to infinity.
        let q = q_error(0.0, scale);
        prop_assert!(q.is_finite() && q >= scale);
    }
}
