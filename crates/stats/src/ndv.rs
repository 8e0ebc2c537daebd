//! Estimating the number of distinct values from a sample.
//!
//! When statistics are built from a row sample rather than a full scan, the
//! distinct count observed in the sample underestimates the table's true NDV.
//! We use the first-order jackknife estimator of Haas, Naughton, Seshadri and
//! Stokes (VLDB 1995) — reference \[9\] of the paper — which corrects the
//! sample distinct count by the fraction of values observed exactly once:
//!
//! ```text
//! D̂ = d / (1 - f1 * (1 - q) / n)
//! ```
//!
//! where `d` is the number of distinct values in the sample, `f1` the number
//! of values appearing exactly once, `n` the sample size, and `q = n / N` the
//! sampling fraction.
//!
//! Statistic builds count distinct *tuples* without materializing them: each
//! column is coded once into a dense `u32` per row read (`Groups::of_column`)
//! and each longer prefix is the previous prefix's group ids refined by the
//! next column's codes (`Groups::refine`), so a `k`-column prefix costs one
//! `u64`-keyed hash probe per row rather than a `k`-element tuple.

use crate::sampler::iter_rows;
use rustc_hash::FxHashMap;
use std::hash::Hash;
use storage::{ColumnData, PayloadRef, Value};

/// First-order jackknife estimate of a table's distinct count from a sample
/// of `n >= 1` rows holding `d` distinct values, `f1` of them exactly once.
/// Exact (`d`) when the sample covers all `total_rows` rows.
fn jackknife(d: f64, f1: f64, n: usize, total_rows: usize) -> f64 {
    if n >= total_rows {
        return d;
    }
    let q = n as f64 / total_rows as f64;
    let denom = 1.0 - f1 * (1.0 - q) / n as f64;
    let est = if denom <= 0.0 {
        total_rows as f64
    } else {
        d / denom
    };
    est.clamp(d, total_rows as f64)
}

/// Estimate the table-level NDV from a sample of `sample` values drawn from a
/// table with `total_rows` rows. Returns the exact distinct count when the
/// sample covers the whole table.
pub fn estimate_ndv(sample: &[Value], total_rows: usize) -> f64 {
    let mut freq: FxHashMap<&Value, u32> =
        FxHashMap::with_capacity_and_hasher(sample.len(), Default::default());
    for v in sample {
        *freq.entry(v).or_insert(0) += 1;
    }
    let sizes: Vec<u32> = freq.into_values().collect();
    estimate(&sizes, total_rows)
}

/// The jackknife over the sizes of a sample's groups of equal values.
fn estimate(sizes: &[u32], total_rows: usize) -> f64 {
    let n: usize = sizes.iter().map(|&s| s as usize).sum();
    if n == 0 {
        return 0.0;
    }
    let f1 = sizes.iter().filter(|&&s| s == 1).count();
    jackknife(sizes.len() as f64, f1 as f64, n, total_rows)
}

/// A bijection on `u64` that spreads a key over all 64 bits. The Fx hasher
/// only multiplies, so its low bits — the ones a hash table indexes with —
/// depend on the key's low bits alone; packed `(group, code)` pairs and the
/// bit patterns of round floats differ mostly in their high bits and would
/// pile into a few buckets. Multiplying by an odd constant and folding the
/// high half down is invertible, so distinct keys stay distinct and the
/// counts stay exact.
#[inline]
fn mix(key: u64) -> u64 {
    let m = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    m ^ (m >> 32)
}

/// A partition of the rows one build reads into groups of equal value (one
/// column) or equal tuple (a column prefix): a dense group id per row read,
/// numbered in order of first appearance. Row counts must fit `u32`.
#[derive(Debug)]
pub(crate) struct Groups {
    ids: Vec<u32>,
    count: usize,
    /// The group holding the NULL rows, for single-column partitions.
    null_id: Option<u32>,
}

impl Groups {
    /// Partition the entries of `col` at `rows` (`None` = every row) by
    /// value. Equality is [`Value`]'s on what [`ColumnData::get`] returns:
    /// floats by bit pattern, dates narrowed to `i32`, and NULL a value of
    /// its own.
    pub(crate) fn of_column(col: &ColumnData, rows: Option<&[usize]>) -> Groups {
        match col.payload() {
            PayloadRef::Int(xs) => Self::by_key(col, rows, |r| mix(xs[r] as u64)),
            PayloadRef::Date(xs) => Self::by_key(col, rows, |r| mix(xs[r] as i32 as u64)),
            PayloadRef::Float(xs) => Self::by_key(col, rows, |r| mix(xs[r].to_bits())),
            PayloadRef::Str(xs) => Self::by_key(col, rows, |r| &*xs[r]),
        }
    }

    fn by_key<K: Hash + Eq>(
        col: &ColumnData,
        rows: Option<&[usize]>,
        key: impl Fn(usize) -> K,
    ) -> Groups {
        let valid = col.validity();
        let mut ids = Vec::with_capacity(rows.map_or(valid.len(), <[usize]>::len));
        let mut seen: FxHashMap<K, u32> = FxHashMap::default();
        let mut null_id = None;
        for r in iter_rows(rows, valid.len()) {
            let fresh = seen.len() as u32 + u32::from(null_id.is_some());
            ids.push(if valid[r] {
                *seen.entry(key(r)).or_insert(fresh)
            } else {
                *null_id.get_or_insert(fresh)
            });
        }
        Groups {
            ids,
            count: seen.len() + usize::from(null_id.is_some()),
            null_id,
        }
    }

    /// The partition by (this partition's group, `column`'s group): the
    /// tuples of a prefix one column longer.
    pub(crate) fn refine(&self, column: &Groups) -> Groups {
        debug_assert_eq!(self.ids.len(), column.ids.len());
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        let ids = self
            .ids
            .iter()
            .zip(&column.ids)
            .map(|(&group, &code)| {
                let fresh = seen.len() as u32;
                *seen
                    .entry(mix(u64::from(group) << 32 | u64::from(code)))
                    .or_insert(fresh)
            })
            .collect();
        Groups {
            ids,
            count: seen.len(),
            null_id: None,
        }
    }

    /// Rows per group, indexed by group id.
    pub(crate) fn sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.count];
        for &id in &self.ids {
            sizes[id as usize] += 1;
        }
        sizes
    }

    /// The first row of each group, indexed by group id. `rows` must be the
    /// rows the partition was made over.
    pub(crate) fn first_rows(&self, rows: Option<&[usize]>) -> Vec<usize> {
        let mut firsts = Vec::with_capacity(self.count);
        for (r, &id) in iter_rows(rows, self.ids.len()).zip(&self.ids) {
            // Ids count up in order of first appearance.
            if id as usize == firsts.len() {
                firsts.push(r);
            }
        }
        firsts
    }

    /// The group holding the NULL rows of a single-column partition.
    pub(crate) fn null_id(&self) -> Option<u32> {
        self.null_id
    }

    /// Distinct tuples in a table of `total_rows` rows, from the rows read:
    /// the group count, scaled by the jackknife when the rows are a sample.
    /// NULL counts as a value.
    pub(crate) fn ndv(&self, total_rows: usize) -> f64 {
        if self.ids.len() >= total_rows {
            return self.count as f64; // a full scan counts exactly
        }
        estimate(&self.sizes(), total_rows)
    }

    /// [`Groups::ndv`] over the non-null rows only (sample size included),
    /// for a single-column partition: what [`estimate_ndv`] returns for the
    /// column's non-null values.
    pub(crate) fn non_null_ndv(&self, total_rows: usize) -> f64 {
        let mut sizes = self.sizes();
        if let Some(null) = self.null_id {
            sizes.swap_remove(null as usize);
        }
        estimate(&sizes, total_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::DataType;

    #[test]
    fn full_scan_is_exact() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Int(i % 10)).collect();
        assert_eq!(estimate_ndv(&vals, 100), 10.0);
    }

    #[test]
    fn empty_sample() {
        assert_eq!(estimate_ndv(&[], 100), 0.0);
    }

    #[test]
    fn jackknife_scales_up_unique_heavy_samples() {
        // Sample of 100 all-distinct values from 10_000 rows: true NDV is
        // likely much larger than 100; the estimator must say > 100.
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        let est = estimate_ndv(&vals, 10_000);
        assert!(est > 100.0, "est={est}");
        assert!(est <= 10_000.0);
    }

    #[test]
    fn low_cardinality_sample_stays_low() {
        // 1000-row sample with only 3 distinct values, each frequent: the
        // estimate should stay close to 3 (no singletons).
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i % 3)).collect();
        let est = estimate_ndv(&vals, 1_000_000);
        assert_eq!(est, 3.0);
    }

    fn column(data_type: DataType, values: impl IntoIterator<Item = Value>) -> ColumnData {
        let mut col = ColumnData::new(data_type);
        for v in values {
            col.push(v);
        }
        col
    }

    #[test]
    fn refined_groups_count_combinations() {
        let a = column(DataType::Int, (0..100).map(|i| Value::Int(i % 4)));
        let b = column(DataType::Int, (0..100).map(|i| Value::Int(i % 5)));
        let (a, b) = (Groups::of_column(&a, None), Groups::of_column(&b, None));
        assert_eq!(a.ndv(100), 4.0);
        assert_eq!(a.refine(&b).ndv(100), 20.0); // 4 * 5 combinations, all present
        assert_eq!(a.refine(&b).refine(&a).ndv(100), 20.0);
    }

    #[test]
    fn null_is_a_value_for_tuples_and_not_for_the_column() {
        let vals = [Value::Int(1), Value::Null, Value::Int(1), Value::Null];
        let g = Groups::of_column(&column(DataType::Int, vals), None);
        assert_eq!(g.ndv(4), 2.0);
        assert_eq!(g.non_null_ndv(4), 1.0);
        let nulls = Groups::of_column(&column(DataType::Int, [Value::Null, Value::Null]), None);
        assert_eq!(nulls.ndv(2), 1.0);
        assert_eq!(nulls.non_null_ndv(2), 0.0);
    }

    #[test]
    fn groups_of_a_sample_agree_with_estimate_ndv() {
        // Rows 0, 3, 6, ... of a column with singletons and repeats.
        let values: Vec<Value> = (0..300).map(|i| Value::Int(i % 7 + i / 100 * i)).collect();
        let rows: Vec<usize> = (0..300).step_by(3).collect();
        let sample: Vec<Value> = rows.iter().map(|&r| values[r].clone()).collect();
        let g = Groups::of_column(&column(DataType::Int, values), Some(&rows));
        assert_eq!(g.ndv(300), estimate_ndv(&sample, 300));
        assert_eq!(g.non_null_ndv(300), estimate_ndv(&sample, 300));
    }

    #[test]
    fn mix_is_a_bijection_on_packed_pairs() {
        // Spot check: pairs that differ only in the high half stay apart.
        let keys: std::collections::HashSet<u64> = (0..1000u64).map(|g| mix(g << 32 | 7)).collect();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn estimate_clamped_to_total_rows() {
        let vals: Vec<Value> = (0..10).map(Value::Int).collect();
        let est = estimate_ndv(&vals, 12);
        assert!(est <= 12.0);
        assert!(est >= 10.0);
    }
}
