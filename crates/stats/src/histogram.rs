//! Histograms over a single column.
//!
//! One classical structure, the **equi-depth** histogram of the paper's §3
//! "commonly used statistics", over the `numeric_key` projection of values,
//! which preserves order for all supported types (strings are keyed by their
//! first eight bytes after any common prefix).
//!
//! The paper treats histogram structure as orthogonal (§2: "we have studied
//! the orthogonal problem of deciding *which* columns to build statistics
//! on"): every algorithm in `autostats` reads a histogram only through its
//! selectivity estimators.

use crate::ndv::ValueCounts;
use storage::{Value, ValueRef};

/// One histogram bucket over the numeric-key domain `[lo, hi]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    pub lo: f64,
    pub hi: f64,
    /// Fraction of (non-null) rows in this bucket.
    pub fraction: f64,
    /// Number of distinct values in this bucket.
    pub distinct: f64,
}

/// A histogram over the non-null values of one column.
///
/// ```
/// use stats::Histogram;
/// use storage::Value;
///
/// let values: Vec<Value> = (0..1000).map(|i| Value::Int(i % 100)).collect();
/// let h = Histogram::build(&values, 32);
/// assert_eq!(h.ndv(), 100.0);
/// let sel = h.selectivity_lt(&Value::Int(50));
/// assert!((sel - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Buckets of (approximately) equal row counts, sorted and disjoint but
    /// for shared end points: `lo <= hi` in every bucket, and `lo` and `hi`
    /// both non-decreasing from one to the next.
    buckets: Vec<Bucket>,
    /// Total distinct values observed.
    ndv: f64,
    /// Number of (non-null) rows summarized.
    rows: f64,
    /// For all-string columns: the longest common prefix of the summarized
    /// values, stripped before keying. Label columns ("Supplier#000000042")
    /// would otherwise collapse onto one 8-byte key, making every equality
    /// estimate 1.0 and every inequality 0.0.
    str_prefix: Option<String>,
}

/// Longest common prefix of `strs`, `None` when there are no strings or they
/// share nothing. Bytes are compared, and the length is then cut back to a
/// char boundary of the first string — which, the bytes before it being
/// equal, is a char boundary of every other string too — so the prefix can
/// be stored as a `String` whatever characters the values diverge in.
fn common_prefix<'s>(mut strs: impl Iterator<Item = &'s str>) -> Option<&'s str> {
    let first = strs.next()?;
    let mut len = first.len();
    for s in strs {
        len = first.as_bytes()[..len]
            .iter()
            .zip(s.as_bytes())
            .take_while(|(a, b)| a == b)
            .count();
        if len == 0 {
            break;
        }
    }
    while !first.is_char_boundary(len) {
        len -= 1;
    }
    (len > 0).then(|| &first[..len])
}

/// Clamp a selectivity into [0, 1], mapping NaN to 0 so a degenerate
/// computation can never leak NaN into the optimizer's cost math.
fn clamp01(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

/// A value's key as buckets hold it. NaN keys (e.g. `Value::Float(NAN)`) are
/// excluded like NULLs — NaN-keyed buckets would poison every later estimate
/// — and infinite keys are clamped to the finite domain edge, preserving
/// order.
fn bucket_key(key: f64) -> Option<f64> {
    (!key.is_nan()).then(|| key.clamp(f64::MIN, f64::MAX))
}

/// The order [`Histogram`] keeps its buckets in, which the estimators that
/// stop at the first bucket past a key rely on.
pub(crate) fn ordered(buckets: &[Bucket]) -> bool {
    buckets.iter().all(|b| b.lo <= b.hi)
        && buckets
            .windows(2)
            .all(|w| w[0].lo <= w[1].lo && w[0].hi <= w[1].hi)
}

impl Histogram {
    /// Build an equi-depth histogram from a bag of values with at most
    /// `max_buckets` buckets. NULLs must be filtered out by the caller
    /// ([`crate::Statistic`] accounts for the null fraction separately).
    ///
    /// Statistic builds key each distinct value of a typed column once
    /// (`Histogram::from_counts`); this is the same construction for callers
    /// that hold `Value`s, which keys every row and counts the runs.
    pub fn build(values: &[Value], max_buckets: usize) -> Histogram {
        // Mixed or non-string value sets key directly.
        let strs: Option<Vec<&str>> = values
            .iter()
            .map(|v| match v {
                Value::Str(s) => Some(&**s),
                _ => None,
            })
            .collect();
        let str_prefix = strs.and_then(|strs| common_prefix(strs.into_iter()));
        let mut keys: Vec<f64> = values
            .iter()
            .map(|v| match (str_prefix, v) {
                (Some(p), Value::Str(s)) => ValueRef::Str(&s[p.len()..]).numeric_key(),
                _ => v.numeric_key(),
            })
            .filter_map(bucket_key)
            .collect();
        // Keys that tie under `total_cmp` are the same bits, so an unstable
        // sort gives the one possible order.
        keys.sort_unstable_by(f64::total_cmp);
        // Run-length encode into (value, frequency) pairs.
        let mut runs: Vec<(f64, usize)> = Vec::new();
        for &k in &keys {
            match runs.last_mut() {
                Some((v, n)) if *v == k => *n += 1,
                _ => runs.push((k, 1)),
            }
        }
        Self::from_runs(&runs, str_prefix, max_buckets)
    }

    /// Build a histogram from one column's counted values
    /// ([`ValueCounts::of_column`]): each distinct value is keyed once and
    /// weighs its row count.
    pub(crate) fn from_counts(counts: &ValueCounts, max_buckets: usize) -> Histogram {
        let values = counts.values();
        // A column's values are all strings or none.
        let str_prefix = common_prefix(values.clone().map_while(|(v, _)| match v {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }));
        let skip = str_prefix.map_or(0, str::len);
        let mut runs: Vec<(f64, usize)> = Vec::with_capacity(counts.len());
        for (v, n) in values {
            let key = match v {
                ValueRef::Str(s) => ValueRef::Str(&s[skip..]).numeric_key(),
                v => v.numeric_key(),
            };
            if let Some(k) = bucket_key(key) {
                runs.push((k, n as usize));
            }
        }
        // Integers and dates come counted in ascending order, and their keys
        // with them. Anything else is sorted; equal keys are merged next,
        // whichever order the sort leaves them in.
        if !counts.ascending() {
            runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        }
        // Values apart as values but equal as keys under `==` are one run
        // under its first key, as run-length encoding the rows makes them:
        // `-0.0` and `0.0`, two integers past 2^53, two strings alike in
        // their key bytes.
        runs.dedup_by(|next, run| {
            let same = run.0 == next.0;
            if same {
                run.1 += next.1;
            }
            same
        });
        Self::from_runs(&runs, str_prefix, max_buckets)
    }

    /// Bucket `runs`, the ascending distinct keys with the rows at each.
    /// `str_prefix` is what was stripped from every string before keying.
    fn from_runs(runs: &[(f64, usize)], str_prefix: Option<&str>, max_buckets: usize) -> Histogram {
        if runs.is_empty() {
            return Histogram {
                buckets: Vec::new(),
                ndv: 0.0,
                rows: 0.0,
                str_prefix: None,
            };
        }
        // A zero-bucket request is degenerate input, not a caller bug worth
        // aborting the process over: build the coarsest useful histogram.
        let max_buckets = max_buckets.max(1);
        let rows = runs.iter().map(|&(_, n)| n).sum::<usize>() as f64;
        Histogram {
            buckets: Self::equi_depth(runs, rows, max_buckets),
            ndv: runs.len() as f64,
            rows,
            str_prefix: str_prefix.map(str::to_string),
        }
    }

    /// The key a probe value maps to under this histogram's domain
    /// transformation. Strings that diverge from the stored common prefix
    /// fall entirely before or after the domain.
    fn key_of(&self, v: &Value) -> f64 {
        match (&self.str_prefix, v) {
            (Some(p), Value::Str(s)) => match s.strip_prefix(p.as_str()) {
                Some(rest) => ValueRef::Str(rest).numeric_key(),
                None => {
                    if &**s < p.as_str() {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    }
                }
            },
            _ => v.numeric_key(),
        }
    }

    fn equi_depth(runs: &[(f64, usize)], rows: f64, max_buckets: usize) -> Vec<Bucket> {
        let target = (rows / max_buckets as f64).max(1.0);
        let mut buckets = Vec::with_capacity(max_buckets);
        let mut cur_rows = 0usize;
        let mut cur_distinct = 0usize;
        // None = the next run's value opens a fresh bucket; buckets never
        // overlap (each covers exactly the values it summarizes).
        let mut cur_lo: Option<f64> = None;
        let mut prev_val = runs[0].0;
        for &(v, n) in runs {
            if cur_rows > 0
                && (cur_rows + n) as f64 > target * 1.5
                && buckets.len() + 1 < max_buckets
            {
                buckets.push(Bucket {
                    lo: cur_lo.take().unwrap_or(prev_val),
                    hi: prev_val,
                    fraction: cur_rows as f64 / rows,
                    distinct: cur_distinct as f64,
                });
                cur_rows = 0;
                cur_distinct = 0;
            }
            cur_lo.get_or_insert(v);
            cur_rows += n;
            cur_distinct += 1;
            prev_val = v;
            if cur_rows as f64 >= target && buckets.len() + 1 < max_buckets {
                buckets.push(Bucket {
                    lo: cur_lo.take().unwrap_or(v),
                    hi: v,
                    fraction: cur_rows as f64 / rows,
                    distinct: cur_distinct as f64,
                });
                cur_rows = 0;
                cur_distinct = 0;
            }
        }
        if cur_rows > 0 {
            buckets.push(Bucket {
                lo: cur_lo.unwrap_or(prev_val),
                hi: prev_val,
                fraction: cur_rows as f64 / rows,
                distinct: cur_distinct as f64,
            });
        }
        buckets
    }

    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Number of distinct values summarized.
    pub fn ndv(&self) -> f64 {
        self.ndv
    }

    /// Number of rows summarized.
    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Mutable bucket access for the feedback corrector (crate-internal:
    /// arbitrary mutation can violate the sorted/disjoint invariant, so only
    /// [`crate::feedback`] may do it).
    pub(crate) fn buckets_mut(&mut self) -> &mut Vec<Bucket> {
        &mut self.buckets
    }

    /// Re-anchor the summarized row count (crate-internal: the feedback
    /// corrector retargets a stale histogram at the table's live row count).
    pub(crate) fn set_rows(&mut self, rows: f64) {
        self.rows = rows.max(0.0);
    }

    /// The stored common string prefix, if any (crate-internal: feedback
    /// records carry raw numeric keys, which only align with histograms that
    /// key values directly).
    pub(crate) fn str_prefix(&self) -> Option<&str> {
        self.str_prefix.as_deref()
    }

    /// Minimum and maximum keys covered.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        let first = self.buckets.first()?;
        let last = self.buckets.last()?;
        Some((first.lo, last.hi))
    }

    /// The magic-number floor for probes outside the bucket domain. A
    /// histogram only witnesses the rows it was built from; a probe beyond
    /// its max (or below its min) key may simply postdate the build, so
    /// out-of-domain estimates are clamped to roughly one row instead of a
    /// hard zero — a hard zero makes the optimizer cost plans on zero rows
    /// for exactly the post-insert drift case.
    fn out_of_domain_floor(&self) -> f64 {
        if self.rows > 0.0 {
            clamp01(1.0 / self.rows)
        } else {
            0.0
        }
    }

    /// Whether `key` falls strictly outside the covered key domain.
    /// Empty histograms have no domain and report `false`: they summarize an
    /// empty table, where a zero estimate is exact, not stale.
    fn outside_domain(&self, key: f64) -> bool {
        match self.bounds() {
            Some((lo, hi)) => key < lo || key > hi,
            None => false,
        }
    }

    /// Estimated selectivity of `column = value` among non-null rows.
    ///
    /// In-domain gaps (a key between two buckets) estimate `0.0`: the build
    /// scan witnessed their absence. Out-of-domain probes are floored by
    /// `Self::out_of_domain_floor`.
    pub fn selectivity_eq(&self, value: &Value) -> f64 {
        let key = self.key_of(value);
        if key.is_nan() {
            return 0.0; // NaN probes match nothing
        }
        for b in &self.buckets {
            if key >= b.lo && key <= b.hi {
                return clamp01(b.fraction / b.distinct.max(1.0));
            }
        }
        if self.outside_domain(key) {
            self.out_of_domain_floor()
        } else {
            0.0
        }
    }

    /// Estimated selectivity of `column < value` (strict) among non-null
    /// rows, with continuous interpolation inside the containing bucket.
    /// Probes below the domain are floored by `Self::out_of_domain_floor`.
    pub fn selectivity_lt(&self, value: &Value) -> f64 {
        let key = self.key_of(value);
        if key.is_nan() {
            return 0.0; // NaN probes match nothing
        }
        let mut acc = 0.0;
        for b in &self.buckets {
            if key > b.hi {
                acc += b.fraction;
            } else if key <= b.lo {
                break;
            } else {
                let width = (b.hi - b.lo).max(f64::MIN_POSITIVE);
                acc += b.fraction * ((key - b.lo) / width);
                break;
            }
        }
        if self.outside_domain(key) && key < f64::INFINITY {
            acc = acc.max(self.out_of_domain_floor());
        }
        clamp01(acc)
    }

    /// `column <= value`.
    pub fn selectivity_le(&self, value: &Value) -> f64 {
        clamp01(self.selectivity_lt(value) + self.selectivity_eq(value))
    }

    /// `column > value`. Probes above the domain are floored symmetrically
    /// to [`Self::selectivity_lt`].
    pub fn selectivity_gt(&self, value: &Value) -> f64 {
        let raw = clamp01(1.0 - self.selectivity_le(value));
        let key = self.key_of(value);
        if self.outside_domain(key) && key > f64::NEG_INFINITY {
            raw.max(self.out_of_domain_floor())
        } else {
            raw
        }
    }

    /// `column >= value`.
    pub fn selectivity_ge(&self, value: &Value) -> f64 {
        let raw = clamp01(1.0 - self.selectivity_lt(value));
        let key = self.key_of(value);
        if self.outside_domain(key) && key > f64::NEG_INFINITY {
            raw.max(self.out_of_domain_floor())
        } else {
            raw
        }
    }

    /// `column BETWEEN low AND high` (inclusive). A valid range lying
    /// entirely outside the domain is floored like the other estimators.
    pub fn selectivity_between(&self, low: &Value, high: &Value) -> f64 {
        let (klo, khi) = (self.key_of(low), self.key_of(high));
        if klo > khi {
            return 0.0;
        }
        let raw = clamp01(self.selectivity_le(high) - self.selectivity_lt(low));
        match self.bounds() {
            // The whole range lies beyond one edge of the domain.
            Some((lo, hi)) if khi < lo || klo > hi => raw.max(self.out_of_domain_floor()),
            _ => raw,
        }
    }

    /// `column <> value`.
    pub fn selectivity_ne(&self, value: &Value) -> f64 {
        clamp01(1.0 - self.selectivity_eq(value))
    }
}

/// Estimated selectivity of an equi-join between two columns summarized by
/// these histograms: the dot product `Σ_v p_a(v) · p_b(v)` of the two value
/// distributions, approximated bucket-pair-wise under the uniform-within-
/// bucket assumption.
///
/// This degrades gracefully to the textbook `1 / max(NDV)` on uniform data
/// but — unlike it — correctly predicts the large fan-out of joins on
/// *skewed* keys (hot values match hot values), which is what makes plans
/// like index nested-loop joins safe to cost.
///
/// Only overlapping bucket pairs are visited, by one sweep over the two
/// sorted bucket lists: `O(B_a + B_b + overlapping pairs)`.
pub fn join_selectivity(a: &Histogram, b: &Histogram) -> f64 {
    if a.rows() == 0.0 || b.rows() == 0.0 {
        return 0.0;
    }
    // Different string-prefix domains make bucket keys incomparable; fall
    // back to the textbook uniform estimate.
    if a.str_prefix != b.str_prefix {
        return (1.0 / a.ndv().max(b.ndv()).max(1.0)).clamp(0.0, 1.0);
    }
    debug_assert!(ordered(a.buckets()), "unordered buckets: {a:?}");
    debug_assert!(ordered(b.buckets()), "unordered buckets: {b:?}");
    let mut sel = 0.0;
    // `b`'s buckets before `start` end below `ba.lo` and so, `a`'s `lo`
    // never falling, below every later bucket of `a`: it only moves forward.
    let mut start = 0;
    for ba in a.buckets() {
        start += b.buckets()[start..]
            .iter()
            .take_while(|bb| bb.hi < ba.lo)
            .count();
        // `b`'s `hi` never falls either, so every bucket from `start` on
        // reaches `ba.lo`, and the ones overlapping `ba` are those before
        // the first that begins above `ba.hi`: the pairs a loop over all
        // `B_a × B_b` would add, in its order, hence its sum to the bit.
        for bb in b.buckets()[start..].iter().take_while(|bb| bb.lo <= ba.hi) {
            let lo = ba.lo.max(bb.lo);
            let hi = ba.hi.min(bb.hi);
            // Expected number of a bucket's distinct values falling in the
            // overlap, modelling values as evenly spaced with inter-value
            // spacing s = w / (d - 1). The `+ s` padding makes a single-point
            // overlap contribute ~one value instead of zero, which matters
            // when a point bucket (a hot value) meets a wide bucket.
            let count_in = |b: &Bucket| -> f64 {
                let w = b.hi - b.lo;
                let d = b.distinct.max(1.0);
                if w <= 0.0 {
                    return d; // point bucket entirely inside the overlap
                }
                let s = w / (d - 1.0).max(1.0);
                (d * ((hi - lo) + s) / (w + s)).min(d)
            };
            let common = count_in(ba).min(count_in(bb));
            if common <= 0.0 {
                continue;
            }
            let mass_a = ba.fraction / ba.distinct.max(1.0);
            let mass_b = bb.fraction / bb.distinct.max(1.0);
            sel += common * mass_a * mass_b;
        }
    }
    clamp01(sel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: impl IntoIterator<Item = i64>) -> Vec<Value> {
        vals.into_iter().map(Value::Int).collect()
    }

    fn uniform_0_99() -> Vec<Value> {
        ints((0..1000).map(|i| i % 100))
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::build(&[], 10);
        assert_eq!(h.ndv(), 0.0);
        assert_eq!(h.selectivity_eq(&Value::Int(5)), 0.0);
        assert_eq!(h.selectivity_lt(&Value::Int(5)), 0.0);
        assert!(h.bounds().is_none());
    }

    #[test]
    fn fractions_sum_to_one() {
        let h = Histogram::build(&uniform_0_99(), 10);
        let total: f64 = h.buckets().iter().map(|b| b.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn eq_selectivity_uniform() {
        let h = Histogram::build(&uniform_0_99(), 20);
        // Every value occurs 10/1000 of the time.
        let est = h.selectivity_eq(&Value::Int(42));
        assert!((est - 0.01).abs() < 0.01, "est={est}");
    }

    #[test]
    fn range_selectivity_uniform() {
        let h = Histogram::build(&uniform_0_99(), 20);
        let est = h.selectivity_lt(&Value::Int(50));
        assert!((est - 0.5).abs() < 0.08, "est={est}");
        // Below-domain probes are floored at ~one row (1/1000), not zero:
        // the histogram cannot prove rows below its min never appeared.
        assert!((h.selectivity_lt(&Value::Int(-5)) - 0.001).abs() < 1e-12);
        assert!((h.selectivity_lt(&Value::Int(1000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn between_consistent_with_lt() {
        let h = Histogram::build(&uniform_0_99(), 20);
        let b = h.selectivity_between(&Value::Int(20), &Value::Int(40));
        let diff = h.selectivity_le(&Value::Int(40)) - h.selectivity_lt(&Value::Int(20));
        assert!((b - diff).abs() < 1e-12);
        assert_eq!(h.selectivity_between(&Value::Int(40), &Value::Int(20)), 0.0);
    }

    #[test]
    fn few_distinct_values_are_exact() {
        // 3 distinct values, a bucket per row available: one bucket each.
        let vals = ints([1, 1, 1, 1, 5, 5, 9, 9, 9, 9]);
        let h = Histogram::build(&vals, 10);
        assert_eq!(h.buckets().len(), 3);
        assert!((h.selectivity_eq(&Value::Int(1)) - 0.4).abs() < 1e-12);
        assert!((h.selectivity_eq(&Value::Int(5)) - 0.2).abs() < 1e-12);
        assert_eq!(h.selectivity_eq(&Value::Int(7)), 0.0);
    }

    #[test]
    fn respects_bucket_budget() {
        let vals = ints((0..500).map(|i| (i * i) % 251));
        let h = Histogram::build(&vals, 8);
        assert!(h.buckets().len() <= 8);
        let total: f64 = h.buckets().iter().map(|b| b.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_distribution_eq_estimates() {
        // 900 copies of 1, 100 distinct others.
        let mut vals = ints(std::iter::repeat_n(1, 900));
        vals.extend(ints(1000..1100));
        let h = Histogram::build(&vals, 20);
        let hot = h.selectivity_eq(&Value::Int(1));
        assert!(hot > 0.5, "hot value underestimated: {hot}");
    }

    #[test]
    fn ndv_counts_distincts() {
        let h = Histogram::build(&uniform_0_99(), 10);
        assert_eq!(h.ndv(), 100.0);
    }

    #[test]
    fn complement_identities() {
        let h = Histogram::build(&uniform_0_99(), 16);
        let v = Value::Int(37);
        assert!((h.selectivity_le(&v) + h.selectivity_gt(&v) - 1.0).abs() < 1e-9);
        assert!((h.selectivity_lt(&v) + h.selectivity_ge(&v) - 1.0).abs() < 1e-9);
        assert!((h.selectivity_eq(&v) + h.selectivity_ne(&v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn join_selectivity_uniform_matches_textbook() {
        // Two uniform columns over 0..99: textbook sel = 1/100.
        let a = Histogram::build(&uniform_0_99(), 20);
        let b = Histogram::build(&uniform_0_99(), 20);
        let sel = join_selectivity(&a, &b);
        assert!((sel - 0.01).abs() < 0.004, "sel={sel}");
    }

    #[test]
    fn join_selectivity_skew_exceeds_textbook() {
        // 90% of both sides is the single value 1: the join fan-out is huge
        // and 1/max(ndv) would wildly underestimate it.
        let mut vals = ints(std::iter::repeat_n(1, 900));
        vals.extend(ints(1000..1100));
        let a = Histogram::build(&vals, 30);
        let sel = join_selectivity(&a, &a);
        let textbook = 1.0 / a.ndv();
        assert!(sel > 0.5, "sel={sel}");
        assert!(sel > 10.0 * textbook);
    }

    #[test]
    fn join_selectivity_disjoint_domains_is_zero() {
        let a = Histogram::build(&ints(0..100), 10);
        let b = Histogram::build(&ints(1000..1100), 10);
        assert_eq!(join_selectivity(&a, &b), 0.0);
    }

    #[test]
    fn join_selectivity_empty_side_is_zero() {
        let a = Histogram::build(&ints(0..10), 4);
        let e = Histogram::build(&[], 4);
        assert_eq!(join_selectivity(&a, &e), 0.0);
    }

    #[test]
    fn shared_prefix_strings_stay_distinct() {
        // Label columns like "Supplier#000000042" share a long prefix; the
        // histogram must still distinguish them.
        let vals: Vec<Value> = (0..100)
            .map(|i| Value::Str(format!("Supplier#{i:09}").into()))
            .collect();
        let h = Histogram::build(&vals, 64);
        assert_eq!(h.ndv(), 100.0);
        let eq = h.selectivity_eq(&Value::Str("Supplier#000000042".into()));
        assert!((eq - 0.01).abs() < 0.01, "eq={eq}");
        let ne = h.selectivity_ne(&Value::Str("Supplier#000000042".into()));
        assert!(ne > 0.9, "ne={ne}");
        // A probe outside the shared prefix falls outside the key domain and
        // gets the out-of-domain floor (1/100 here), not a hard zero.
        assert_eq!(h.selectivity_eq(&Value::Str("Customer#1".into())), 0.01);
        assert_eq!(h.selectivity_lt(&Value::Str("A".into())), 0.01);
        assert!((h.selectivity_lt(&Value::Str("Z".into())) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn common_prefix_ending_inside_a_character_is_cut_back() {
        // "é" = C3 A9 and "è" = C3 A8 share their first byte; the musical
        // symbols U+1D11E / U+1D11F share their first three. Slicing a
        // `&str` at either byte count used to panic.
        for (a, b, prefix) in [
            ("é", "è", None),
            ("caf\u{e9}", "caf\u{e8}", Some("caf")),
            ("x\u{1D11E}", "x\u{1D11F}", Some("x")),
        ] {
            let (lo, hi) = (Value::Str(a.min(b).into()), Value::Str(a.max(b).into()));
            let h = Histogram::build(&[hi.clone(), lo.clone()], 4);
            assert_eq!(h.str_prefix(), prefix);
            assert_eq!(h.ndv(), 2.0, "{a} and {b} must key apart");
            assert_eq!(h.selectivity_eq(&lo), 0.5);
            assert_eq!(h.selectivity_lt(&lo), 0.0);
            assert_eq!(h.selectivity_lt(&hi), 0.5);
            // A probe that leaves the prefix inside a character.
            let probe = Value::Str("caf\u{e0}".into());
            assert!(h.selectivity_eq(&probe) <= 0.5);
            assert!(h.selectivity_lt(&probe) <= 1.0);
        }
    }

    #[test]
    fn ascii_prefix_is_unchanged() {
        let vals: Vec<Value> = ["Brand#11", "Brand#12", "Brand#2"]
            .iter()
            .map(|s| Value::Str((*s).into()))
            .collect();
        let h = Histogram::build(&vals, 4);
        assert_eq!(h.str_prefix(), Some("Brand#"));
    }

    #[test]
    fn mixed_prefix_join_falls_back_to_ndv() {
        let a: Vec<Value> = (0..50)
            .map(|i| Value::Str(format!("aa{i:03}").into()))
            .collect();
        let b: Vec<Value> = (0..50)
            .map(|i| Value::Str(format!("bb{i:03}").into()))
            .collect();
        let ha = Histogram::build(&a, 16);
        let hb = Histogram::build(&b, 16);
        let sel = join_selectivity(&ha, &hb);
        assert!((sel - 1.0 / 50.0).abs() < 1e-9, "sel={sel}");
    }

    #[test]
    fn out_of_domain_probes_are_floored_not_zero() {
        // Build over 0..=99, then probe keys the build never saw — the
        // post-insert drift case. Every out-of-domain estimator must return
        // the ~one-row floor (1/1000), never a hard 0.0.
        let h = Histogram::build(&uniform_0_99(), 20);
        let floor = 1.0 / 1000.0;
        for probe in [Value::Int(150), Value::Int(-7)] {
            let eq = h.selectivity_eq(&probe);
            assert!((eq - floor).abs() < 1e-12, "eq({probe:?})={eq}");
        }
        assert!((h.selectivity_gt(&Value::Int(150)) - floor).abs() < 1e-12);
        assert!((h.selectivity_ge(&Value::Int(150)) - floor).abs() < 1e-12);
        assert!((h.selectivity_lt(&Value::Int(-7)) - floor).abs() < 1e-12);
        let btw = h.selectivity_between(&Value::Int(120), &Value::Int(140));
        assert!((btw - floor).abs() < 1e-12, "between={btw}");
        // In-domain gaps stay exact zeros: the build scan witnessed absence.
        let sparse = ints([1, 1, 1, 5, 5, 9]);
        let g = Histogram::build(&sparse, 10);
        assert_eq!(g.selectivity_eq(&Value::Int(3)), 0.0);
        // Empty histograms have no domain and keep their exact zeros.
        let e = Histogram::build(&[], 4);
        assert_eq!(e.selectivity_eq(&Value::Int(1)), 0.0);
        assert_eq!(e.selectivity_lt(&Value::Int(1)), 0.0);
    }

    #[test]
    fn stale_histogram_estimates_survive_domain_extension() {
        // The regression scenario from the drift bugfix: a histogram built
        // before an append only covers the old domain, but probes on the
        // appended range must still estimate at least one row.
        let old: Vec<Value> = (0..500).map(Value::Int).collect();
        let h = Histogram::build(&old, 16);
        // "Append" 500..1000 to the table; the stale histogram never sees it.
        for v in [500i64, 750, 999] {
            assert!(
                h.selectivity_eq(&Value::Int(v)) > 0.0,
                "eq({v}) collapsed to zero on stale histogram"
            );
            assert!(
                h.selectivity_ge(&Value::Int(v)) > 0.0,
                "ge({v}) collapsed to zero on stale histogram"
            );
        }
    }

    #[test]
    fn single_bucket_histogram() {
        let h = Histogram::build(&ints(0..100), 1);
        assert_eq!(h.buckets().len(), 1);
        assert!((h.selectivity_lt(&Value::Int(50)) - 0.5).abs() < 0.02);
    }
}
