//! Property-based tests of histogram invariants (proptest).

mod support;

use proptest::prelude::*;
use stats::{
    correct_histogram, join_selectivity, FeedbackConfig, Histogram, HistogramKind, Observation,
};
use storage::Value;
use support::join_selectivity_oracle;

fn value_vec() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-1000i64..1000, 1..400)
}

fn to_values(v: &[i64]) -> Vec<Value> {
    v.iter().map(|&i| Value::Int(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket fractions always sum to 1 (non-empty input).
    #[test]
    fn fractions_sum_to_one(vals in value_vec(), buckets in 1usize..50) {
        for kind in [HistogramKind::EquiDepth, HistogramKind::MaxDiff] {
            let h = Histogram::build(kind, &to_values(&vals), buckets);
            let total: f64 = h.buckets().iter().map(|b| b.fraction).sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "{kind:?}: {total}");
        }
    }

    /// Every selectivity estimate lies in [0, 1].
    #[test]
    fn estimates_in_unit_interval(vals in value_vec(), probe in -1500i64..1500) {
        let h = Histogram::build(HistogramKind::EquiDepth, &to_values(&vals), 16);
        let p = Value::Int(probe);
        for est in [
            h.selectivity_eq(&p),
            h.selectivity_lt(&p),
            h.selectivity_le(&p),
            h.selectivity_gt(&p),
            h.selectivity_ge(&p),
            h.selectivity_ne(&p),
        ] {
            prop_assert!((0.0..=1.0).contains(&est), "estimate {est}");
        }
    }

    /// The estimated CDF is monotone: a <= b implies sel(< a) <= sel(< b).
    #[test]
    fn cdf_monotone(vals in value_vec(), a in -1500i64..1500, b in -1500i64..1500) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let h = Histogram::build(HistogramKind::MaxDiff, &to_values(&vals), 20);
        prop_assert!(
            h.selectivity_lt(&Value::Int(a)) <= h.selectivity_lt(&Value::Int(b)) + 1e-12
        );
    }

    /// Equality estimates are exact when buckets cover each distinct value.
    /// In-domain probes (including in-domain gaps) match the true frequency
    /// exactly; probes outside the observed [min, max] get the stale-stats
    /// floor of ~one row instead of a hard zero.
    #[test]
    fn eq_exact_with_enough_buckets(vals in prop::collection::vec(0i64..20, 1..300)) {
        let values = to_values(&vals);
        let h = Histogram::build(HistogramKind::MaxDiff, &values, 32);
        let n = vals.len() as f64;
        let min = *vals.iter().min().unwrap();
        let max = *vals.iter().max().unwrap();
        for v in 0..20i64 {
            let actual = vals.iter().filter(|&&x| x == v).count() as f64 / n;
            let est = h.selectivity_eq(&Value::Int(v));
            if v < min || v > max {
                prop_assert!(
                    (est - 1.0 / n).abs() < 1e-9,
                    "out-of-domain value {v}: est {est} != floor {}",
                    1.0 / n
                );
            } else {
                prop_assert!(
                    (actual - est).abs() < 1e-9,
                    "value {v}: actual {actual} est {est}"
                );
            }
        }
    }

    /// Disjoint adjacent ranges approximately add up to the enclosing range.
    /// Exactness is impossible with intra-bucket interpolation, so the
    /// allowed error is one bucket's mass (the interpolation granularity).
    #[test]
    fn range_additivity(vals in value_vec(), lo in -900i64..0, hi in 1i64..900) {
        let h = Histogram::build(HistogramKind::EquiDepth, &to_values(&vals), 24);
        let granularity = h
            .buckets()
            .iter()
            .map(|b| b.fraction)
            .fold(0.0f64, f64::max);
        let left = h.selectivity_between(&Value::Int(lo), &Value::Int(0));
        let right = h.selectivity_between(&Value::Int(1), &Value::Int(hi));
        let all = h.selectivity_between(&Value::Int(lo), &Value::Int(hi));
        prop_assert!(
            (left + right - all).abs() <= granularity + 1e-9,
            "additivity violated beyond bucket granularity {granularity}: {left}+{right} != {all}"
        );
    }

    /// BETWEEN over the full observed domain has selectivity 1.
    #[test]
    fn full_domain_between_is_one(vals in value_vec()) {
        let values = to_values(&vals);
        let h = Histogram::build(HistogramKind::EquiDepth, &values, 16);
        let min = *vals.iter().min().unwrap();
        let max = *vals.iter().max().unwrap();
        let est = h.selectivity_between(&Value::Int(min), &Value::Int(max));
        prop_assert!((est - 1.0).abs() < 1e-6, "{est}");
    }

    /// NDV never exceeds the row count and matches the true distinct count
    /// on full scans.
    #[test]
    fn ndv_exact_on_full_data(vals in value_vec()) {
        use std::collections::HashSet;
        let h = Histogram::build(HistogramKind::EquiDepth, &to_values(&vals), 16);
        let truth = vals.iter().collect::<HashSet<_>>().len() as f64;
        prop_assert_eq!(h.ndv(), truth);
    }
}

/// One arbitrary `Value` drawn from every shape the engine stores: ints,
/// floats (including non-finite ones), strings with a shared prefix, strings
/// without, and dates.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        "[a-d]{0,6}".prop_map(Value::from),
        "pre[a-d]{0,4}".prop_map(Value::from),
        (-20000i32..20000).prop_map(Value::Date),
    ]
}

/// A column of arbitrary values — possibly empty, possibly a mix of types.
fn arb_column() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Estimator invariants over arbitrary value mixes: every estimate is a
    /// number in [0, 1], `lt <= le`, `eq + ne == 1`, and a BETWEEN never
    /// exceeds the one-sided bound of its upper end. Holds for empty columns,
    /// non-finite floats, and heterogeneous type mixes alike.
    #[test]
    fn estimator_invariants_on_arbitrary_values(
        vals in arb_column(),
        probe in arb_value(),
        probe_hi in arb_value(),
    ) {
        for kind in [HistogramKind::EquiDepth, HistogramKind::MaxDiff] {
            let h = Histogram::build(kind, &vals, 16);
            let lt = h.selectivity_lt(&probe);
            let le = h.selectivity_le(&probe);
            let eq = h.selectivity_eq(&probe);
            let ne = h.selectivity_ne(&probe);
            let gt = h.selectivity_gt(&probe);
            let ge = h.selectivity_ge(&probe);
            let between = h.selectivity_between(&probe, &probe_hi);
            for est in [lt, le, eq, ne, gt, ge, between] {
                prop_assert!(!est.is_nan(), "{kind:?}: NaN estimate");
                prop_assert!((0.0..=1.0).contains(&est), "{kind:?}: estimate {est}");
            }
            prop_assert!(lt <= le + 1e-12, "{kind:?}: lt {lt} > le {le}");
            prop_assert!((eq + ne - 1.0).abs() < 1e-9, "{kind:?}: eq {eq} + ne {ne} != 1");
            prop_assert!(
                between <= h.selectivity_le(&probe_hi) + 1e-12,
                "{kind:?}: between {between} exceeds le(hi)"
            );
        }
    }

    /// Degenerate bucket budgets (including zero) still produce total,
    /// in-range estimators.
    #[test]
    fn zero_bucket_budget_still_total(vals in arb_column(), probe in arb_value()) {
        for buckets in [0usize, 1] {
            let h = Histogram::build(HistogramKind::EquiDepth, &vals, buckets);
            for est in [h.selectivity_eq(&probe), h.selectivity_le(&probe)] {
                prop_assert!(!est.is_nan());
                prop_assert!((0.0..=1.0).contains(&est), "buckets={buckets}: {est}");
            }
        }
    }
}

fn arb_kind() -> impl Strategy<Value = HistogramKind> {
    prop_oneof![Just(HistogramKind::EquiDepth), Just(HistogramKind::MaxDiff)]
}

/// An integer histogram under either kind and any budget in 1..=64. The
/// modulus decides how many distinct values there are (five or twenty fit a
/// MaxDiff budget as one point bucket each, 120 need wide buckets; no rows
/// at all is the empty operand) and `(offset, stride)` where they lie: over
/// `0..120`, shifted to overlap it, far above it, stretched around it, or
/// all on one point inside it.
fn int_histogram() -> impl Strategy<Value = Histogram> {
    (
        prop::collection::vec(0i64..120, 0..300),
        prop_oneof![Just(5i64), Just(20), Just(120)],
        prop_oneof![
            Just((0i64, 1i64)),
            Just((40, 1)),
            Just((500, 1)),
            Just((-100, 7)),
            Just((60, 0)),
        ],
        arb_kind(),
        1usize..=64,
    )
        .prop_map(|(vals, modulus, (offset, stride), kind, budget)| {
            let values: Vec<Value> = vals
                .iter()
                .map(|v| Value::Int(v % modulus * stride + offset))
                .collect();
            Histogram::build(kind, &values, budget)
        })
}

/// Range feedback reaching past both ends of every `int_histogram` domain.
fn arb_observations() -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec((-150.0f64..800.0, 0.0f64..200.0, 0.0f64..1.0), 1..40).prop_map(|obs| {
        obs.into_iter()
            .map(|(lo, width, fraction)| Observation {
                lo,
                hi: lo + width,
                fraction,
                input_rows: 300.0,
            })
            .collect()
    })
}

/// `join_selectivity` and the nested loop agree to the bit, either way round.
fn assert_sweep_is_the_oracle(a: &Histogram, b: &Histogram) -> Result<(), TestCaseError> {
    for (x, y) in [(a, b), (b, a), (a, a)] {
        prop_assert_eq!(
            join_selectivity(x, y).to_bits(),
            join_selectivity_oracle(x, y).to_bits(),
            "{:?} x {:?}",
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted sweep visits the overlapping bucket pairs in the nested
    /// loop's order, so the two sums are the same `f64`. The first operand
    /// may have been through the feedback corrector restructuring after
    /// every observation: its splits leave neighbours sharing an end point,
    /// its merges and domain extensions wide buckets beside point buckets.
    #[test]
    fn join_sweep_equals_the_nested_loop(
        a in int_histogram(),
        b in int_histogram(),
        feedback in prop::option::of((arb_observations(), 1usize..=64)),
    ) {
        let mut a = a;
        if let Some((observations, max_buckets)) = feedback {
            let config = FeedbackConfig {
                restructure_every: 1,
                max_buckets,
                ..Default::default()
            };
            correct_histogram(&mut a, &observations, &config);
        }
        assert_sweep_is_the_oracle(&a, &b)?;
    }

    /// String histograms: operands that stripped the same prefix are swept,
    /// operands that stripped different ones (or one of them none) take the
    /// `1 / max(NDV)` fallback.
    #[test]
    fn join_sweep_equals_the_nested_loop_on_strings(
        a in prop::collection::vec("[a-d]{1,4}", 1..120),
        b in prop::collection::vec("[a-d]{1,4}", 1..120),
        prefix_a in prop_oneof![Just(""), Just("pre"), Just("Supplier#0000")],
        prefix_b in prop_oneof![Just(""), Just("pre"), Just("Supplier#0000")],
        kind in arb_kind(),
        budget in 1usize..=64,
    ) {
        let build = |prefix: &str, suffixes: &[String]| {
            let values: Vec<Value> = suffixes
                .iter()
                .map(|s| Value::from(format!("{prefix}{s}")))
                .collect();
            Histogram::build(kind, &values, budget)
        };
        assert_sweep_is_the_oracle(&build(prefix_a, &a), &build(prefix_b, &b))?;
    }
}

/// A fixed stream that is known to split and to merge, so the property above
/// does not rest on the generator happening to reach either.
#[test]
fn join_sweep_equals_the_nested_loop_after_splits_and_merges() {
    let values: Vec<Value> = (0..1000).map(|i| Value::Int(i % 100)).collect();
    let observations: Vec<Observation> = (0..40)
        .map(|i| Observation {
            lo: (i % 9) as f64 * 11.0 - 20.0,
            hi: (i % 9) as f64 * 11.0 + 25.0,
            fraction: 0.3,
            input_rows: 1000.0,
        })
        .collect();
    let config = FeedbackConfig {
        restructure_every: 1,
        max_buckets: 12,
        ..Default::default()
    };
    for kind in [HistogramKind::EquiDepth, HistogramKind::MaxDiff] {
        let plain = Histogram::build(kind, &values, 12);
        let mut corrected = plain.clone();
        let outcome = correct_histogram(&mut corrected, &observations, &config);
        assert!(outcome.splits > 0 && outcome.merges > 0 && outcome.domain_extended);
        assert!(
            corrected.buckets().windows(2).any(|w| w[0].hi == w[1].lo),
            "no split left a shared end point"
        );
        assert_sweep_is_the_oracle(&corrected, &plain).unwrap();
    }
}
