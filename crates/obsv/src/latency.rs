//! Mergeable log-linear latency histogram (HDR style) with bounded
//! relative error.
//!
//! [`LatencyHistogram`] records unsigned integer values (by convention
//! nanoseconds) into a fixed array of buckets laid out log-linearly:
//! `PRECISION_BITS` sub-buckets per power of two, so every bucket's width
//! is at most `value >> PRECISION_BITS` and any reported quantile
//! overestimates the true sample quantile by strictly less than
//! `2^-PRECISION_BITS` (≈ 3.2% at the default 5 bits) and never
//! underestimates it. Recording is two relaxed atomic adds plus two
//! atomic min/max updates — no allocation, no locks — so the histogram can
//! sit on the query hot path of the online service.
//!
//! Histograms are *mergeable*: [`LatencyHistogram::merge_from`] adds bucket
//! counts, saturates min/max, and wraps sums, so merging is exactly
//! associative and commutative (all fields are integer lattices — no
//! floating-point reassociation). That makes per-shard histograms safe to
//! combine in any order.
//!
//! A [`LatencySample`] is an immutable point-in-time reading (sparse bucket
//! list). Samples subtract ([`LatencySample::delta_from`]), which is what
//! [`crate::window::WindowedRegistry`] uses to compute per-window
//! quantiles from cumulative readings.
//!
//! Everything here is wall-clock flavoured observation and is explicitly
//! **outside** the workspace's bit-identity determinism contract: latency
//! readings may differ run to run, and nothing downstream of tuning is
//! allowed to read them back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket precision: `2^PRECISION_BITS` buckets per power of two.
pub const PRECISION_BITS: u32 = 5;
/// Sub-buckets per power of two (32 at 5 bits).
const M: u64 = 1 << PRECISION_BITS;
/// Relative-error bound of every reported quantile: strictly less than
/// `2^-PRECISION_BITS` (3.125% at the default precision).
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (1u64 << PRECISION_BITS) as f64;
/// Bucket-array size: shift 0 covers indexes `[0, 2M)` exactly, and each of
/// the remaining `64 - PRECISION_BITS - 1` shifts adds `M` log-linear
/// buckets.
const BUCKETS: usize = ((64 - PRECISION_BITS as usize - 1) * M as usize) + 2 * M as usize;

/// Bucket index of a value: exact below `2M`, log-linear above.
#[inline]
fn index_of(v: u64) -> usize {
    if v < 2 * M {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // v in [2^e, 2^{e+1}), e > PRECISION_BITS
    let shift = e - PRECISION_BITS;
    (shift as usize * M as usize) + (v >> shift) as usize
}

/// The largest value mapping to bucket `index` — the reported
/// representative. Using the bucket's upper bound means quantiles never
/// underestimate; the overshoot is bounded by the bucket width.
#[inline]
fn highest_equivalent(index: usize) -> u64 {
    if index < 2 * M as usize {
        return index as u64;
    }
    let shift = (index / M as usize - 1) as u32;
    let sub = (index - shift as usize * M as usize) as u64; // in [M, 2M)
                                                            // The topmost bucket's upper bound is u64::MAX: (64 << 58) wraps to 0
                                                            // and the wrapping -1 lands exactly on MAX.
    (sub + 1).wrapping_shl(shift).wrapping_sub(1)
}

#[derive(Debug)]
struct Core {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Wrapping sum of recorded values (wrapping keeps merges associative).
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A mergeable log-linear histogram of `u64` values. Cloning shares the
/// underlying storage (like the other registry metric handles).
#[derive(Debug, Clone)]
pub struct LatencyHistogram(Arc<Core>);

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram(Arc::new(Core {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh histogram not attached to any registry.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Record one value. Two relaxed adds plus min/max updates.
    #[inline]
    pub fn observe(&self, v: u64) {
        let core = &self.0;
        if let Some(slot) = core.counts.get(index_of(v)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        core.total.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed); // wraps by design
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Wrapping sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.0.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile of the recorded distribution (`q` clamped to
    /// `[0, 1]`). Returns the upper bound of the bucket holding the
    /// `ceil(q·count)`-th smallest sample, so the result is ≥ the exact
    /// sample quantile and overshoots it by < [`RELATIVE_ERROR_BOUND`]
    /// relatively (and by 0 absolutely below `2·2^PRECISION_BITS`).
    ///
    /// Conventions: an **empty** histogram reports 0 for every `q`; a
    /// **single-sample** histogram reports that sample's bucket for every
    /// `q` (including 0 and 1).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Merge every recording of `other` into `self`. Exactly associative
    /// and commutative: counts add, sums wrap, min/max saturate.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.0.counts.iter().zip(other.0.counts.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0
            .total
            .fetch_add(other.0.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .sum
            .fetch_add(other.0.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .min
            .fetch_min(other.0.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .max
            .fetch_max(other.0.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// An immutable point-in-time reading (sparse: non-empty buckets only).
    pub fn snapshot(&self) -> LatencySample {
        let mut buckets = Vec::new();
        for (i, slot) in self.0.counts.iter().enumerate() {
            let n = slot.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        LatencySample {
            buckets,
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// A point-in-time reading of a [`LatencyHistogram`]: sparse non-empty
/// buckets plus the scalar accumulators. Samples subtract
/// ([`LatencySample::delta_from`]) to yield per-window distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySample {
    /// `(bucket index, count)` pairs, ascending by index, counts > 0.
    pub buckets: Vec<(u32, u64)>,
    pub count: u64,
    /// Wrapping sum of values.
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl LatencySample {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Same quantile semantics as [`LatencyHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), clamped to [1, count]: the rank of the sample
        // the quantile describes.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return highest_equivalent(index as usize);
            }
        }
        // Counts raced with bucket reads (snapshot of a live histogram):
        // fall back to the largest occupied bucket.
        self.buckets
            .last()
            .map(|&(i, _)| highest_equivalent(i as usize))
            .unwrap_or(0)
    }

    /// The per-window distribution between an `earlier` cumulative reading
    /// and `self`: bucket counts and totals subtract (saturating, so a
    /// racy read never underflows); `min`/`max` are not recoverable from
    /// cumulative readings, so the delta reports its own quantile bounds
    /// (`quantile(0)` / `quantile(1)`) instead.
    pub fn delta_from(&self, earlier: &LatencySample) -> LatencySample {
        let mut prior = std::collections::BTreeMap::new();
        for &(i, n) in &earlier.buckets {
            prior.insert(i, n);
        }
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(prior.get(&i).copied().unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        let mut delta = LatencySample {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            min: 0,
            max: 0,
            buckets,
        };
        delta.min = delta.quantile(0.0);
        delta.max = delta.quantile(1.0);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_conventions() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn single_sample_reports_itself_within_bound() {
        for v in [0u64, 1, 31, 32, 63, 64, 1000, 123_456_789] {
            let h = LatencyHistogram::new();
            h.observe(v);
            for q in [0.0, 0.25, 0.5, 1.0] {
                let r = h.quantile(q);
                assert!(r >= v, "quantile({q}) = {r} underestimates {v}");
                assert!(
                    (r - v) as f64 <= (v as f64) * RELATIVE_ERROR_BOUND,
                    "quantile({q}) = {r} overshoots {v}"
                );
            }
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHistogram::new();
        for v in 0..(2 * M) {
            h.observe(v);
        }
        // 2M samples 0..2M: the q-quantile of rank r is value r-1, exactly.
        assert_eq!(h.quantile(0.5), M - 1);
        assert_eq!(h.quantile(1.0), 2 * M - 1);
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let h = LatencyHistogram::new();
        let mut values: Vec<u64> = (0..1000u64).map(|i| i * i * 37 + 5).collect();
        for &v in &values {
            h.observe(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let got = h.quantile(q);
            assert!(got >= exact);
            assert!(
                (got - exact) as f64 <= exact as f64 * RELATIVE_ERROR_BOUND,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn merge_is_commutative_and_matches_union() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        for v in [3u64, 999, 70_000] {
            a.observe(v);
            union.observe(v);
        }
        for v in [12u64, 70_001, u64::MAX] {
            b.observe(v);
            union.observe(v);
        }
        let ab = LatencyHistogram::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = LatencyHistogram::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.snapshot(), union.snapshot());
    }

    #[test]
    fn delta_isolates_the_window() {
        let h = LatencyHistogram::new();
        h.observe(100);
        h.observe(200);
        let first = h.snapshot();
        h.observe(1_000_000);
        let second = h.snapshot();
        let delta = second.delta_from(&first);
        assert_eq!(delta.count, 1);
        let r = delta.quantile(0.5);
        assert!(r >= 1_000_000 && (r - 1_000_000) as f64 <= 1_000_000.0 * RELATIVE_ERROR_BOUND);
        // The earlier window's samples are invisible to the delta.
        assert!(delta.quantile(0.0) >= 1_000_000);
    }

    #[test]
    fn bucket_roundtrip_covers_extremes() {
        for v in [0u64, 1, M - 1, M, 2 * M - 1, 2 * M, u64::MAX / 2, u64::MAX] {
            let idx = index_of(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let hi = highest_equivalent(idx);
            assert!(hi >= v);
            if v >= 2 * M {
                assert!((hi - v) as f64 <= v as f64 * RELATIVE_ERROR_BOUND);
            } else {
                assert_eq!(hi, v);
            }
        }
    }
}
