//! Self-tuning histograms corrected from execution feedback.
//!
//! The paper's framework treats statistics as build-only artifacts that a
//! staleness policy rebuilds with full scans. This module closes the loop in
//! the STGrid style (*A Learning Framework for Self-Tuning Histograms*,
//! PAPERS.md): the executor reports, per scan predicate, the key range it
//! selected and the cardinality it actually produced; the corrector adjusts
//! the histogram's bucket frequencies toward those observations with a
//! damped error-distribution rule, occasionally restructuring — splitting
//! the most-mispredicted bucket and merging the coldest adjacent pair — so
//! resolution migrates to where the workload looks.
//!
//! Two properties matter to the rest of the workspace:
//!
//! - **Determinism.** Corrections depend only on the histogram state, the
//!   observation sequence, and the bucket ceiling. Observations apply in
//!   ingest order, restructuring ties break on the lowest bucket index, and
//!   the store iterates in `BTreeMap` order — a replayed feedback stream
//!   yields a bit-identical histogram.
//! - **Near-zero cost.** Correction work is metered per observation × bucket
//!   touched, orders of magnitude below a scan rebuild's
//!   [`build_work`](crate::statistic::build_work) charge, which is what makes
//!   it attractive to the staleness tracker ([`crate::StatsCatalog::refresh`]).

use crate::histogram::{Bucket, Histogram};
use obsv::FeedbackRecord;
use std::collections::BTreeMap;

/// Fraction of each observed error applied per observation (STGrid's
/// learning rate): 1.0 would snap to the latest observation, smaller values
/// smooth over noisy feedback.
const DAMPING: f64 = 0.5;

/// Observations required on a (table, column) before a feedback refresh is
/// trusted to stand in for a scan rebuild.
pub(crate) const MIN_OBSERVATIONS: usize = 4;

/// Restructure (split + merge) after this many applied observations.
const RESTRUCTURE_EVERY: usize = 8;

/// One digested feedback observation: the predicate selected the inclusive
/// key range `[lo, hi]` and matched `fraction` of the table's rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    pub lo: f64,
    pub hi: f64,
    /// Observed selectivity (`rows_out / input_rows`), in [0, 1].
    pub fraction: f64,
    /// Live row count of the table at observation time.
    pub input_rows: f64,
}

impl Observation {
    /// Digest a raw executor record; `None` if it cannot inform a
    /// correction (empty table, NaN range, inverted range).
    pub fn from_record(r: &FeedbackRecord) -> Option<Observation> {
        if r.input_rows.is_nan()
            || r.input_rows <= 0.0
            || r.lo.is_nan()
            || r.hi.is_nan()
            || r.lo > r.hi
        {
            return None;
        }
        let fraction = (r.rows_out / r.input_rows).clamp(0.0, 1.0);
        if !fraction.is_finite() {
            return None;
        }
        Some(Observation {
            lo: r.lo,
            hi: r.hi,
            fraction,
            input_rows: r.input_rows,
        })
    }
}

/// What one correction pass did to a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CorrectionOutcome {
    /// Observations actually applied (after digestion filters).
    pub applied: usize,
    /// Deterministic work units charged, comparable to
    /// [`build_work`](crate::statistic::build_work) units.
    pub work: f64,
    /// Buckets split by restructuring.
    pub splits: usize,
    /// Bucket pairs merged by restructuring.
    pub merges: usize,
    /// Whether any observation extended the histogram's key domain.
    pub domain_extended: bool,
}

/// Accumulates digested observations per (raw table id, column ordinal).
/// Iteration order is fixed by the `BTreeMap` key order; within a key,
/// observations keep ingest order — both matter for determinism.
#[derive(Debug, Clone, Default)]
pub struct FeedbackStore {
    observations: BTreeMap<(u64, u32), Vec<Observation>>,
}

impl FeedbackStore {
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Digest and file raw executor records in order.
    pub fn ingest(&mut self, records: &[FeedbackRecord]) {
        for r in records {
            if let Some(obs) = Observation::from_record(r) {
                self.observations
                    .entry((r.table, r.column))
                    .or_default()
                    .push(obs);
            }
        }
    }

    /// Observations filed for one (table, column), in ingest order.
    pub fn observations(&self, table: u64, column: u32) -> &[Observation] {
        self.observations
            .get(&(table, column))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub fn count(&self, table: u64, column: u32) -> usize {
        self.observations(table, column).len()
    }

    /// Remove and return one key's observations (consumed on apply so the
    /// same feedback never corrects a histogram twice).
    pub fn take(&mut self, table: u64, column: u32) -> Vec<Observation> {
        self.observations
            .remove(&(table, column))
            .unwrap_or_default()
    }

    /// Total buffered observations across all keys.
    pub fn total(&self) -> usize {
        self.observations.values().map(Vec::len).sum()
    }
}

/// Fraction of bucket `b`'s mass the inclusive range `[lo, hi]` claims, in
/// (0, 1]. Point buckets are covered entirely or not at all. The overlap is
/// padded by one inter-value spacing so a point probe (equality feedback)
/// inside a wide bucket claims one value's share instead of zero.
fn overlap_fraction(b: &Bucket, lo: f64, hi: f64) -> f64 {
    let olo = b.lo.max(lo);
    let ohi = b.hi.min(hi);
    if ohi < olo {
        return 0.0;
    }
    let width = b.hi - b.lo;
    if width <= 0.0 {
        return 1.0;
    }
    let s = width / (b.distinct - 1.0).max(1.0);
    (((ohi - olo) + s) / (width + s)).clamp(0.0, 1.0)
}

/// Whether a histogram is eligible for feedback correction: feedback ranges
/// carry raw numeric keys, which only align with histograms that key values
/// directly (no stripped string prefix) and that have at least one bucket.
pub fn correctable(h: &Histogram) -> bool {
    h.str_prefix().is_none() && !h.buckets().is_empty()
}

/// Correct `histogram` in place from `observations` (applied in order).
///
/// Per observation: estimate the range's selectivity from the current
/// buckets, distribute `DAMPING × (observed − estimated)` across the
/// overlapping buckets in proportion to their overlap, clamp fractions at
/// zero, and rescale if the total mass exceeds one. Observations beyond the
/// key domain extend the edge bucket toward the observed range (the
/// post-insert drift case). Every `RESTRUCTURE_EVERY` applications the
/// most-mispredicted splittable bucket is split at its midpoint and, when
/// over `max_buckets`, the coldest adjacent pair is merged.
pub fn correct_histogram(
    histogram: &mut Histogram,
    observations: &[Observation],
    max_buckets: usize,
) -> CorrectionOutcome {
    let mut outcome = CorrectionOutcome::default();
    if !correctable(histogram) || observations.is_empty() {
        return outcome;
    }
    let mut live_rows = histogram.rows();
    // Per-bucket accumulated |error|, feeding the split heuristic. Kept
    // index-aligned with the bucket vec through splits/merges.
    let mut errors: Vec<f64> = vec![0.0; histogram.buckets().len()];
    let mut since_restructure = 0usize;

    for obs in observations {
        live_rows = live_rows.max(obs.input_rows);
        let buckets = histogram.buckets_mut();
        // Domain extension: stretch the edge bucket toward an observed range
        // the build never covered, so later corrections have somewhere to
        // put the mass. Infinite endpoints (open ranges) never stretch.
        if let (Some(first), Some(last)) = (buckets.first().copied(), buckets.last().copied()) {
            if obs.hi > last.hi && obs.hi.is_finite() && obs.fraction > 0.0 {
                if let Some(b) = buckets.last_mut() {
                    b.hi = obs.hi;
                    b.distinct += 1.0;
                    outcome.domain_extended = true;
                }
            }
            if obs.lo < first.lo && obs.lo.is_finite() && obs.fraction > 0.0 {
                if let Some(b) = buckets.first_mut() {
                    b.lo = obs.lo;
                    b.distinct += 1.0;
                    outcome.domain_extended = true;
                }
            }
        }

        // Estimate the observed range from the current buckets.
        let overlaps: Vec<(usize, f64)> = buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (i, overlap_fraction(b, obs.lo, obs.hi)))
            .filter(|&(_, o)| o > 0.0)
            .collect();
        if overlaps.is_empty() {
            continue;
        }
        let estimated: f64 = overlaps
            .iter()
            .map(|&(i, o)| buckets.get(i).map(|b| b.fraction * o).unwrap_or(0.0))
            .sum();
        let error = DAMPING * (obs.fraction - estimated);
        // Distribute the damped error in proportion to each bucket's share
        // of the estimate (falling back to overlap share when the estimate
        // is all-zero, so empty regions can still learn mass).
        let est_total = estimated.max(0.0);
        let overlap_total: f64 = overlaps.iter().map(|&(_, o)| o).sum();
        for &(i, o) in &overlaps {
            let Some(b) = buckets.get_mut(i) else {
                continue;
            };
            let share = if est_total > 0.0 {
                (b.fraction * o) / est_total
            } else if overlap_total > 0.0 {
                o / overlap_total
            } else {
                0.0
            };
            b.fraction = (b.fraction + error * share).max(0.0);
            if let Some(e) = errors.get_mut(i) {
                *e += (error * share).abs();
            }
        }
        // Keep total mass a probability: rescale if corrections pushed the
        // sum past one.
        let total: f64 = buckets.iter().map(|b| b.fraction).sum();
        if total > 1.0 {
            for b in buckets.iter_mut() {
                b.fraction /= total;
            }
        }
        outcome.applied += 1;
        outcome.work += (overlaps.len() as f64).max(1.0);
        since_restructure += 1;

        if since_restructure >= RESTRUCTURE_EVERY {
            since_restructure = 0;
            let (splits, merges) = restructure(histogram.buckets_mut(), &mut errors, max_buckets);
            outcome.splits += splits;
            outcome.merges += merges;
        }
    }
    if outcome.applied > 0 {
        histogram.set_rows(live_rows);
    }
    outcome
}

/// One restructuring step: split the bucket with the highest accumulated
/// error (midpoint halving; ties → lowest index), then merge the adjacent
/// pair with the least combined mass while over the bucket budget.
fn restructure(
    buckets: &mut Vec<Bucket>,
    errors: &mut Vec<f64>,
    max_buckets: usize,
) -> (usize, usize) {
    let mut splits = 0usize;
    let mut merges = 0usize;
    // Split: only buckets with positive width and error can be refined.
    let split_at = buckets
        .iter()
        .enumerate()
        .filter(|(i, b)| b.hi > b.lo && errors.get(*i).copied().unwrap_or(0.0) > 0.0)
        .max_by(|(i, _), (j, _)| {
            let (ei, ej) = (
                errors.get(*i).copied().unwrap_or(0.0),
                errors.get(*j).copied().unwrap_or(0.0),
            );
            // Strictly-greater wins; on a tie the lower index wins, so take
            // `Less` when i > j to keep max_by's last-wins bias off.
            ei.partial_cmp(&ej)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(j.cmp(i))
        })
        .map(|(i, _)| i);
    if let Some(i) = split_at {
        if let Some(b) = buckets.get(i).copied() {
            let mid = b.lo + (b.hi - b.lo) / 2.0;
            if mid > b.lo && mid < b.hi {
                let half_distinct = (b.distinct / 2.0).max(1.0);
                let left = Bucket {
                    lo: b.lo,
                    hi: mid,
                    fraction: b.fraction / 2.0,
                    distinct: half_distinct,
                };
                let right = Bucket {
                    lo: mid,
                    hi: b.hi,
                    fraction: b.fraction / 2.0,
                    distinct: half_distinct,
                };
                if let Some(slot) = buckets.get_mut(i) {
                    *slot = left;
                }
                buckets.insert((i + 1).min(buckets.len()), right);
                if let Some(slot) = errors.get_mut(i) {
                    *slot = 0.0;
                }
                errors.insert((i + 1).min(errors.len()), 0.0);
                splits += 1;
            }
        }
    }
    // Merge back under budget: coldest adjacent pair, lowest index on ties.
    while buckets.len() > max_buckets.max(1) && buckets.len() >= 2 {
        let mut best = 0usize;
        let mut best_mass = f64::INFINITY;
        for i in 0..buckets.len() - 1 {
            let mass = buckets.get(i).map(|b| b.fraction).unwrap_or(0.0)
                + buckets.get(i + 1).map(|b| b.fraction).unwrap_or(0.0);
            if mass < best_mass {
                best_mass = mass;
                best = i;
            }
        }
        let Some(right) = buckets.get(best + 1).copied() else {
            break;
        };
        if let Some(left) = buckets.get_mut(best) {
            left.hi = right.hi;
            left.fraction += right.fraction;
            left.distinct += right.distinct;
        }
        buckets.remove(best + 1);
        let carried = errors.get(best + 1).copied().unwrap_or(0.0);
        if let Some(e) = errors.get_mut(best) {
            *e += carried;
        }
        if best + 1 < errors.len() {
            errors.remove(best + 1);
        }
        merges += 1;
    }
    (splits, merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::ordered;
    use storage::Value;

    fn obs(lo: f64, hi: f64, fraction: f64) -> Observation {
        Observation {
            lo,
            hi,
            fraction,
            input_rows: 1000.0,
        }
    }

    fn uniform_histogram() -> Histogram {
        let values: Vec<Value> = (0..1000).map(|i| Value::Int(i % 100)).collect();
        Histogram::build(&values, 10)
    }

    fn total_fraction(h: &Histogram) -> f64 {
        h.buckets().iter().map(|b| b.fraction).sum()
    }

    fn assert_invariants(h: &Histogram) {
        assert!(total_fraction(h) <= 1.0 + 1e-9, "mass > 1");
        for w in h.buckets().windows(2) {
            assert!(w[0].hi <= w[1].lo, "buckets overlap: {w:?}");
        }
        for b in h.buckets() {
            assert!(b.lo <= b.hi && b.fraction >= 0.0 && b.fraction.is_finite());
        }
    }

    #[test]
    fn correction_moves_estimate_toward_observation() {
        let mut h = uniform_histogram();
        // The histogram says [0, 50) holds ~50% of rows; feedback insists
        // it holds 10%. Repeated corrections must converge downward.
        let before = h.selectivity_lt(&Value::Int(50));
        let stream: Vec<Observation> = (0..20).map(|_| obs(0.0, 49.0, 0.10)).collect();
        let out = correct_histogram(&mut h, &stream, 64);
        assert_eq!(out.applied, 20);
        let after = h.selectivity_lt(&Value::Int(50));
        assert!(
            after < before && (after - 0.10).abs() < 0.1,
            "before={before} after={after}"
        );
        assert_invariants(&h);
    }

    #[test]
    fn correction_is_deterministic_under_fixed_order() {
        let stream: Vec<Observation> = (0..30)
            .map(|i| obs((i % 7) as f64 * 10.0, (i % 7) as f64 * 10.0 + 15.0, 0.2))
            .collect();
        let mut a = uniform_histogram();
        let mut b = uniform_histogram();
        let oa = correct_histogram(&mut a, &stream, 64);
        let ob = correct_histogram(&mut b, &stream, 64);
        assert_eq!(oa, ob);
        assert_eq!(a, b, "same stream, same order, different histograms");
    }

    #[test]
    fn out_of_domain_observation_extends_domain() {
        let mut h = uniform_histogram(); // domain [0, 99]
        let stream: Vec<Observation> = (0..8).map(|_| obs(150.0, 150.0, 0.05)).collect();
        let out = correct_histogram(&mut h, &stream, 64);
        assert!(out.domain_extended);
        let (_, hi) = h.bounds().unwrap();
        assert_eq!(hi, 150.0);
        assert!(h.selectivity_eq(&Value::Int(150)) > 0.0);
        assert_invariants(&h);
    }

    #[test]
    fn restructuring_respects_bucket_budget() {
        let mut h = uniform_histogram();
        let stream: Vec<Observation> = (0..40)
            .map(|i| obs((i % 9) as f64 * 11.0, (i % 9) as f64 * 11.0 + 5.0, 0.3))
            .collect();
        let out = correct_histogram(&mut h, &stream, 10);
        assert!(out.splits > 0, "no bucket was ever split");
        assert!(h.buckets().len() <= 10);
        assert_invariants(&h);
    }

    #[test]
    fn store_digests_and_consumes_in_order() {
        let mut store = FeedbackStore::new();
        let rec = |table: u64, column: u32, rows_out: f64| FeedbackRecord {
            table,
            column,
            lo: 1.0,
            hi: 2.0,
            rows_out,
            input_rows: 10.0,
        };
        store.ingest(&[rec(1, 0, 1.0), rec(1, 0, 2.0), rec(2, 1, 3.0)]);
        // A record on an empty table digests to nothing.
        store.ingest(&[FeedbackRecord {
            input_rows: 0.0,
            ..rec(3, 0, 1.0)
        }]);
        assert_eq!(store.count(1, 0), 2);
        assert_eq!(store.count(2, 1), 1);
        assert_eq!(store.count(3, 0), 0);
        assert_eq!(store.total(), 3);
        let taken = store.take(1, 0);
        assert_eq!(taken.len(), 2);
        assert!((taken[0].fraction - 0.1).abs() < 1e-12);
        assert!((taken[1].fraction - 0.2).abs() < 1e-12);
        assert_eq!(store.total(), 1);
    }

    #[test]
    fn string_prefix_histograms_are_not_correctable() {
        let vals: Vec<Value> = (0..50)
            .map(|i| Value::Str(format!("Supplier#{i:06}").into()))
            .collect();
        let mut h = Histogram::build(&vals, 8);
        assert!(!correctable(&h));
        let before = h.clone();
        let out = correct_histogram(&mut h, &[obs(0.0, 1.0, 0.5)], 64);
        assert_eq!(out.applied, 0);
        assert_eq!(h, before);
    }

    use proptest::prelude::*;

    /// Raw executor records with hostile floats: NaN/±∞ endpoints, inverted
    /// ranges, zero-row inputs, rows_out far above input_rows.
    fn arb_endpoint() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1e6..1e6f64,
        ]
    }

    fn arb_record() -> impl Strategy<Value = FeedbackRecord> {
        (
            arb_endpoint(),
            arb_endpoint(),
            prop_oneof![Just(0.0f64), 0.0..1e6f64],
            0.0f64..2e6,
        )
            .prop_map(|(lo, hi, input_rows, rows_out)| FeedbackRecord {
                table: 1,
                column: 0,
                lo,
                hi,
                rows_out,
                input_rows,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The satellite invariants: under ANY feedback stream the corrected
        /// histogram keeps total mass ≤ 1, sorted disjoint buckets, finite
        /// non-negative fractions, and every selectivity probe lands finite
        /// in [0, 1]. Corrections are also deterministic (same stream twice
        /// → bit-identical histograms), and an empty stream is a no-op.
        #[test]
        fn arbitrary_feedback_streams_preserve_invariants(
            records in prop::collection::vec(arb_record(), 0..60),
            max_buckets in 1usize..24,
        ) {
            let mut store = FeedbackStore::new();
            store.ingest(&records);
            let observations = store.take(1, 0);

            let mut h = uniform_histogram();
            let mut twin = uniform_histogram();
            let out = correct_histogram(&mut h, &observations, max_buckets);
            let out_twin = correct_histogram(&mut twin, &observations, max_buckets);
            prop_assert_eq!(out, out_twin);
            prop_assert_eq!(&h, &twin, "same stream, different histograms");
            prop_assert!(out.work.is_finite() && out.work >= 0.0);
            prop_assert!(out.applied <= observations.len());

            let total: f64 = h.buckets().iter().map(|b| b.fraction).sum();
            prop_assert!(total <= 1.0 + 1e-9, "mass {total} > 1");
            for w in h.buckets().windows(2) {
                prop_assert!(w[0].hi <= w[1].lo, "buckets overlap: {w:?}");
            }
            for b in h.buckets() {
                prop_assert!(b.lo <= b.hi && b.fraction >= 0.0 && b.fraction.is_finite());
            }
            for v in [i64::MIN / 2, -1000, 0, 37, 99, 1000, i64::MAX / 2] {
                let probes = [
                    h.selectivity_eq(&Value::Int(v)),
                    h.selectivity_lt(&Value::Int(v)),
                    h.selectivity_gt(&Value::Int(v)),
                    h.selectivity_between(&Value::Int(v), &Value::Int(v.saturating_add(10))),
                ];
                for sel in probes {
                    prop_assert!(
                        sel.is_finite() && (0.0..=1.0).contains(&sel),
                        "selectivity {sel} out of range at {v}"
                    );
                }
            }

            // Feedback-off contract, histogram edition: no observations,
            // no change — bit-identical to the untouched build.
            let mut untouched = uniform_histogram();
            let noop = correct_histogram(&mut untouched, &[], max_buckets);
            prop_assert_eq!(noop, CorrectionOutcome::default());
            prop_assert_eq!(untouched, uniform_histogram());
        }
    }

    /// Finite ranges over and past both ends of `uniform_histogram`'s
    /// domain, so a stream extends it either way as well as correcting it.
    fn arb_range_observation() -> impl Strategy<Value = Observation> {
        (-300.0f64..300.0, 0.0f64..150.0, 0.0f64..1.0)
            .prop_map(|(lo, width, fraction)| obs(lo, lo + width, fraction))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// What `join_selectivity`'s sweep and the estimators that stop at
        /// the first bucket past a key stand on: however a stream extends
        /// the domain, splits and merges, every bucket has `lo <= hi` and
        /// both bounds never fall from one bucket to the next. A corrector
        /// that breaks this fails here (and in `join_selectivity`'s debug
        /// assertions), not as a wrong estimate.
        #[test]
        fn corrected_buckets_stay_ordered(
            observations in prop::collection::vec(arb_range_observation(), 1..60),
            max_buckets in 1usize..16,
        ) {
            // Each prefix of the stream is one step of correcting the whole
            // of it: the order must hold after every step, restructures
            // included, not only once the stream has settled.
            for k in 1..=observations.len() {
                let mut corrected = uniform_histogram();
                correct_histogram(&mut corrected, &observations[..k], max_buckets);
                prop_assert!(ordered(corrected.buckets()), "after {}: {:?}", k, corrected);
                let sel = crate::join_selectivity(&corrected, &uniform_histogram());
                prop_assert!((0.0..=1.0).contains(&sel));
            }
        }
    }
}
