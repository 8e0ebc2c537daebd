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
//! lookup per row rather than a `k`-element tuple. The one pass that assigns
//! the ids also counts each group's rows and notes its first row, which is
//! all a histogram needs.
//!
//! Where a lookup can be a table index, no row is hashed. A string column
//! brings its dictionary codes ([`ColumnData::str_codes`]), made once and
//! kept current by the column's writes; integers and dates index a table by
//! their offset from the least value read; and a refinement indexes by the
//! pair of group ids. Each takes the table when its slots number at most
//! twice the rows read plus 1 024 (`direct`), so that clearing the table
//! costs no more than the pass. Floats, integers spread wider and pairs of
//! many groups go through an open-addressing table on their bit patterns
//! (`KeyTable`).

use rustc_hash::FxHashMap;
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

/// Whether `slots` distinct keys over `rows` rows read are few enough to
/// give each a slot of a direct-address table: the table then costs about
/// as much to clear as the ids cost to write.
fn direct(slots: u128, rows: usize) -> bool {
    slots <= 2 * rows as u128 + 1024
}

/// Not a group id: an empty slot of a direct-address table or of a
/// [`KeyTable`].
const EMPTY: u32 = u32::MAX;

/// Group ids by `u64` key, for keys too spread for a direct-address table:
/// open addressing with linear probing, at most half full. A key's first
/// slot is the high bits of the key times an odd constant, which depend on
/// every bit of the key: the bit patterns of floats holding small integers
/// differ only in their high bits, packed `(group, code)` pairs mostly in
/// theirs.
struct KeyTable {
    slots: Vec<(u64, u32)>,
    /// 64 minus the base-2 log of the slot count.
    shift: u32,
    len: usize,
}

impl KeyTable {
    fn new() -> KeyTable {
        KeyTable {
            slots: vec![(0, EMPTY); 1 << 8],
            shift: 64 - 8,
            len: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The id held for `key`: `EMPTY` when the key is new, for the caller
    /// to fill in before the next call.
    #[inline]
    fn slot(&mut self, key: u64) -> &mut u32 {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, id) = self.slots[i];
            if id == EMPTY {
                self.len += 1;
                self.slots[i].0 = key;
                return &mut self.slots[i].1;
            }
            if k == key {
                return &mut self.slots[i].1;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![(0, EMPTY); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (key, id) in old.into_iter().filter(|&(_, id)| id != EMPTY) {
            let mut i = self.home(key);
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, id);
        }
    }
}

/// Group ids handed out in order of first appearance, with each group's
/// size and first position, as the rows read are coded one by one.
struct Coder {
    ids: Vec<u32>,
    sizes: Vec<u32>,
    firsts: Vec<u32>,
}

impl Coder {
    fn new(rows: usize) -> Coder {
        Coder {
            ids: Vec::with_capacity(rows),
            sizes: Vec::new(),
            firsts: Vec::new(),
        }
    }

    /// The next row belongs to group `id`.
    #[inline]
    fn old(&mut self, id: u32) {
        self.ids.push(id);
        self.sizes[id as usize] += 1;
    }

    /// The next row opens a group; its id comes back.
    #[inline]
    fn new_group(&mut self) -> u32 {
        let id = self.sizes.len() as u32;
        self.firsts.push(self.ids.len() as u32);
        self.sizes.push(1);
        self.ids.push(id);
        id
    }

    /// The next row's group through its slot of a direct-address table or
    /// a [`KeyTable`].
    #[inline]
    fn slot(&mut self, slot: &mut u32) {
        if *slot == EMPTY {
            *slot = self.new_group();
        } else {
            self.old(*slot);
        }
    }

    fn finish(self, null_id: Option<u32>) -> Groups {
        Groups {
            ids: self.ids,
            sizes: self.sizes,
            firsts: self.firsts,
            null_id,
        }
    }
}

/// A partition of the rows one build reads into groups of equal value (one
/// column) or equal tuple (a column prefix): a dense group id per row read,
/// numbered in order of first appearance, and each group's size and first
/// row. Row counts must fit `u32`.
#[derive(Debug)]
pub(crate) struct Groups {
    ids: Vec<u32>,
    /// Rows per group, indexed by group id.
    sizes: Vec<u32>,
    /// Each group's first row, as a position among the rows read.
    firsts: Vec<u32>,
    /// The group holding the NULL rows, for single-column partitions.
    null_id: Option<u32>,
}

impl Groups {
    /// Partition the entries of `col` at `rows` (`None` = every row) by
    /// value. Equality is [`Value`]'s on what [`ColumnData::get`] returns:
    /// floats by bit pattern, dates narrowed to `i32`, and NULL a value of
    /// its own.
    ///
    /// No row's value is hashed where a table lookup can code it: a string
    /// goes through its column's dictionary code, an integer or date through
    /// its offset from the least one read when the values read span few
    /// enough ([`direct`]). Floats, and integers spread wider, are hashed.
    pub(crate) fn of_column(col: &ColumnData, rows: Option<&[usize]>) -> Groups {
        let valid = col.validity();
        let n = rows.map_or(valid.len(), <[usize]>::len);
        // `(valid, key)` per row read, one loop per kind of row list, so that
        // no row pays for the choice.
        macro_rules! per_row {
            ($xs:expr, $key:expr, $kernel:expr) => {
                match rows {
                    None => $kernel(valid.iter().copied().zip($xs.iter().map($key))),
                    Some(rows) => $kernel(rows.iter().map(|&r| (valid[r], $key(&$xs[r])))),
                }
            };
        }
        match col.payload() {
            PayloadRef::Int(xs) => per_row!(xs, |&x: &i64| x, |it| Self::of_ints(it, n)),
            PayloadRef::Date(xs) => {
                per_row!(xs, |&x: &i64| i64::from(x as i32), |it| Self::of_ints(
                    it, n
                ))
            }
            PayloadRef::Float(xs) => per_row!(xs, |x: &f64| x.to_bits(), |it| {
                let mut seen = KeyTable::new();
                Self::code(it, n, |coder, bits| coder.slot(seen.slot(bits)))
            }),
            PayloadRef::Str(_) => {
                let Some((codes, bound)) = col.str_codes() else {
                    unreachable!("a string column has codes")
                };
                per_row!(codes, |&c: &u32| c, |it| Self::of_codes(it, n, bound))
            }
        }
    }

    /// Code the `n` rows read, `(valid, key)` each: `value` files a non-null
    /// row's key with `coder`, and the NULL rows share a group of their own.
    #[inline]
    fn code<K>(
        rows: impl Iterator<Item = (bool, K)>,
        n: usize,
        mut value: impl FnMut(&mut Coder, K),
    ) -> Groups {
        let mut coder = Coder::new(n);
        let mut null_id = None;
        for (valid, key) in rows {
            if valid {
                value(&mut coder, key);
            } else if let Some(id) = null_id {
                coder.old(id);
            } else {
                null_id = Some(coder.new_group());
            }
        }
        coder.finish(null_id)
    }

    /// Integers by offset from the least one read, if the values read span
    /// few enough, else by hash.
    fn of_ints(rows: impl Iterator<Item = (bool, i64)> + Clone, n: usize) -> Groups {
        let (lo, hi) = rows
            .clone()
            .filter(|&(valid, _)| valid)
            .fold((i64::MAX, i64::MIN), |(lo, hi), (_, x)| {
                (lo.min(x), hi.max(x))
            });
        let span = hi as i128 - lo as i128 + 1;
        if span > 0 && direct(span as u128, n) {
            let mut slots = vec![EMPTY; span as usize];
            // `x - lo` is below the span, which fits `usize`; the
            // subtraction itself may wrap past `i64`, the difference not.
            Self::code(rows, n, |coder, x| {
                coder.slot(&mut slots[x.wrapping_sub(lo) as u64 as usize])
            })
        } else {
            let mut seen = KeyTable::new();
            Self::code(rows, n, |coder, x| coder.slot(seen.slot(x as u64)))
        }
    }

    /// Strings by their column's dictionary codes, all below `bound`.
    fn of_codes(rows: impl Iterator<Item = (bool, u32)>, n: usize, bound: usize) -> Groups {
        if direct(bound as u128, n) {
            let mut slots = vec![EMPTY; bound];
            Self::code(rows, n, |coder, c| coder.slot(&mut slots[c as usize]))
        } else {
            let mut seen = KeyTable::new();
            Self::code(rows, n, |coder, c| coder.slot(seen.slot(u64::from(c))))
        }
    }

    /// The partition by (this partition's group, `column`'s group): the
    /// tuples of a prefix one column longer. A pair is a slot of a
    /// direct-address table when the two group counts multiply to few
    /// enough ([`direct`]), and a [`KeyTable`] key otherwise.
    pub(crate) fn refine(&self, column: &Groups) -> Groups {
        debug_assert_eq!(self.ids.len(), column.ids.len());
        let mut coder = Coder::new(self.ids.len());
        let pairs = self.ids.iter().zip(&column.ids);
        let width = column.count();
        if direct(self.count() as u128 * width as u128, self.ids.len()) {
            let mut slots = vec![EMPTY; self.count() * width];
            for (&group, &code) in pairs {
                coder.slot(&mut slots[group as usize * width + code as usize]);
            }
        } else {
            let mut seen = KeyTable::new();
            for (&group, &code) in pairs {
                coder.slot(seen.slot(u64::from(group) << 32 | u64::from(code)));
            }
        }
        coder.finish(None)
    }

    /// Number of groups.
    fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Rows per group, indexed by group id.
    pub(crate) fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// The first row of each group, indexed by group id. `rows` must be the
    /// rows the partition was made over.
    pub(crate) fn first_rows<'r>(
        &'r self,
        rows: Option<&'r [usize]>,
    ) -> impl Iterator<Item = usize> + 'r {
        self.firsts
            .iter()
            .map(move |&p| rows.map_or(p as usize, |rows| rows[p as usize]))
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
            return self.count() as f64; // a full scan counts exactly
        }
        estimate(&self.sizes, total_rows)
    }

    /// [`Groups::ndv`] over the non-null rows only (sample size included),
    /// for a single-column partition: what [`estimate_ndv`] returns for the
    /// column's non-null values.
    pub(crate) fn non_null_ndv(&self, total_rows: usize) -> f64 {
        let mut sizes = self.sizes.clone();
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
    fn key_table_keeps_keys_apart_through_growth() {
        // Floats holding small integers differ in their high bits only, and
        // so do packed `(group, code)` pairs with one code.
        let keys: Vec<u64> = (1..=1000)
            .map(|i| f64::from(i).to_bits())
            .chain((0..1000u64).map(|g| g << 32 | 7))
            .collect();
        let mut table = KeyTable::new();
        for (id, &key) in keys.iter().enumerate() {
            let slot = table.slot(key);
            assert_eq!(*slot, EMPTY, "{key:#x} is new");
            *slot = id as u32;
        }
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(*table.slot(key), id as u32);
        }
        assert_eq!(table.len, keys.len());
        assert!(2 * table.len <= table.slots.len());
    }

    #[test]
    fn estimate_clamped_to_total_rows() {
        let vals: Vec<Value> = (0..10).map(Value::Int).collect();
        let est = estimate_ndv(&vals, 12);
        assert!(est <= 12.0);
        assert!(est >= 10.0);
    }
}
