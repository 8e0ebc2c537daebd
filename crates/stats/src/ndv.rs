//! The two passes a statistic build reads its columns with.
//!
//! Every build reads every row of its table: the distinct counts below are
//! exact, and no estimator scales them up.
//!
//! A statistic's leading column is read by one counting pass
//! (`ValueCounts::of_column`): its distinct non-null values with their row
//! counts, and its NULL rows. The histogram, the null fraction and the
//! one-column density all come from those counts; no row is given an id.
//! How a value finds its count depends on its kind:
//!
//! * integers and dates (narrowed to `i32`) index a table of counts by their
//!   offset from a least value, which grows to take in each value outside
//!   it, and the table is walked in ascending order, so their values come
//!   out sorted;
//! * strings index it by their column's dictionary code
//!   ([`ColumnData::str_codes`]), made once and kept current by the column's
//!   writes, with each code's first row to read its string from; codes no
//!   row holds are skipped;
//! * floats, integers spread wider, and strings whose dictionary is wide
//!   for the column's rows, go through an open-addressing table from their
//!   bit patterns to a run (`KeyTable`).
//!
//! A table takes the place of the hash when its slots number at most twice
//! the rows plus 1 024 (`direct`), so that clearing it costs no more than
//! the pass.
//!
//! The counts outlive the build: the column keeps them
//! ([`ColumnData::value_counts`], a [`storage::ColumnCounts`] holding plain
//! integers, dates and floats and the column's own string cells), and the
//! next build on that column reads them and no row, until a write makes the
//! column forget them. This module fills them; storage only keeps them. So
//! a periodic tune of data nobody wrote since the last one counts no
//! leading column.
//!
//! Only the columns of a multi-column prefix get a key per row
//! (`RowKeys`). A direct column's offset or code is read in place; the keys
//! of a column no table can index are coded into a `u32` per row. A prefix
//! one column longer is refined group-major (`Groups::refine`): a stable
//! counting sort of the rows by the shorter prefix's key, then each of its
//! groups' rows through one stamp table as wide as the next column's keys.
//! A `k`-column prefix so costs a few passes over `u32`s rather than a
//! `k`-element tuple per row.

use std::sync::Arc;
use storage::{ColumnCounts, ColumnData, CountedValues, PayloadRef, ValueRef};

/// Whether `slots` distinct keys over `rows` rows are few enough to
/// give each a slot of a table: the table then costs about as much to clear
/// as the rows cost to read.
fn direct(slots: u128, rows: usize) -> bool {
    slots <= 2 * rows as u128 + 1024
}

/// Not an index: an empty slot of a [`KeyTable`], or a stamp no group has.
const EMPTY: u32 = u32::MAX;

/// A `u32` by `u64` key, for keys too spread for a table: open addressing
/// with linear probing, at most half full. A key's first slot is the high
/// bits of the key times an odd constant, which depend on every bit of the
/// key: the bit patterns of floats holding small integers differ only in
/// their high bits.
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

    /// The `u32` held for `key`: `EMPTY` when the key is new, for the caller
    /// to fill in before the next call. A key found costs no check of the
    /// load.
    #[inline]
    fn slot(&mut self, key: u64) -> &mut u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, id) = self.slots[i];
            if id == EMPTY {
                break;
            }
            if k == key {
                return &mut self.slots[i].1;
            }
            i = (i + 1) & mask;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
            return self.slot(key);
        }
        self.len += 1;
        self.slots[i].0 = key;
        &mut self.slots[i].1
    }

    #[cold]
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

/// `(row, valid, key(entry))` for each row of the entries `xs`.
fn per_row<'a, X, K>(
    valid: &'a [bool],
    xs: &'a [X],
    key: impl Fn(&X) -> K + 'a,
) -> impl Iterator<Item = (usize, bool, K)> + 'a {
    valid
        .iter()
        .zip(xs)
        .enumerate()
        .map(move |(r, (&v, x))| (r, v, key(x)))
}

/// `$kernel` over `(row, valid, bits)` for each row of `$col`, where the
/// bits of two non-null entries are equal exactly where the entries are
/// equal as values; one instance per payload type.
macro_rules! per_row_bits {
    ($col:expr, $kernel:expr) => {{
        let col: &ColumnData = $col;
        let valid = col.validity();
        match col.payload() {
            PayloadRef::Int(xs) => $kernel(per_row(valid, xs, |&x| x as u64)),
            PayloadRef::Date(xs) => $kernel(per_row(valid, xs, |&x| narrow(x) as u64)),
            PayloadRef::Float(xs) => $kernel(per_row(valid, xs, |x: &f64| x.to_bits())),
            PayloadRef::Str(_) => $kernel(per_row(valid, str_codes(col).0, |&c| u64::from(c))),
        }
    }};
}

/// A date's payload as it reads back: narrowed to `i32`.
#[inline]
fn narrow(x: i64) -> i64 {
    i64::from(x as i32)
}

/// `x`'s slot in a table of the integers from `lo` up. The subtraction
/// may wrap past `i64`; the slot is then past the end of any table that
/// stays within `i64`, as it is for any `x` the table does not hold.
#[inline]
fn offset(x: i64, lo: i64) -> usize {
    x.wrapping_sub(lo) as u64 as usize
}

/// A string column's dictionary codes and their bound.
fn str_codes(col: &ColumnData) -> (&[u32], usize) {
    let Some(codes) = col.str_codes() else {
        unreachable!("a string column has codes")
    };
    codes
}

/// Count the integers read by offset from a least one, in one pass, and the
/// NULL rows. The table of counts grows to take in each value outside it,
/// at least doubling, and the count gives up (`None`) once the values read
/// span more slots than [`direct`] allows. Slots at the table's ends may
/// count no value.
fn count_offsets(
    rows: impl Iterator<Item = (usize, bool, i64)>,
    n: usize,
) -> Option<(i64, Vec<u32>, usize)> {
    let (mut lo, mut counts, mut nulls) = (0i64, Vec::new(), 0);
    for (_, valid, x) in rows {
        if !valid {
            nulls += 1;
            continue;
        }
        let mut slot = offset(x, lo);
        if slot >= counts.len() {
            lo = widen(&mut counts, lo, x, n)?;
            slot = offset(x, lo);
        }
        counts[slot] += 1;
    }
    Some((lo, counts, nulls))
}

/// Grow `counts`, a table of the integers from `lo` up, to take in `x`,
/// and return its new least integer. The new slots go on `x`'s side, at
/// least as many as the table had, within [`direct`]'s bound on `n` rows
/// read; `None` when `x` and the table's span pass it. The table never
/// reaches past `i64`'s ends, so that an offset cannot wrap into it.
#[cold]
fn widen(counts: &mut Vec<u32>, lo: i64, x: i64, n: usize) -> Option<i64> {
    let (x, lo) = (i128::from(x), i128::from(lo));
    let len = counts.len() as i128;
    let (least, most) = if len == 0 {
        (x, x)
    } else {
        (lo.min(x), (lo + len - 1).max(x))
    };
    let need = most - least + 1;
    if !direct(need as u128, n) {
        return None;
    }
    let span = need.max(2 * len).min(2 * n as i128 + 1024);
    let start = if x < lo { most - span + 1 } else { least };
    let start = start.clamp(i128::from(i64::MIN), i128::from(i64::MAX) - span + 1);
    let mut grown = vec![0u32; span as usize];
    if len > 0 {
        let at = (lo - start) as usize;
        grown[at..at + counts.len()].copy_from_slice(counts);
    }
    *counts = grown;
    Some(start as i64)
}

/// Count the rows read by dictionary code into `counts`, noting each
/// code's first row in `firsts`; returns the NULL rows.
fn count_codes(
    rows: impl Iterator<Item = (usize, bool, usize)>,
    counts: &mut [u32],
    firsts: &mut [u32],
) -> usize {
    let mut nulls = 0;
    for (r, valid, code) in rows {
        if valid {
            let count = &mut counts[code];
            if *count == 0 {
                firsts[code] = r as u32;
            }
            *count += 1;
        } else {
            nulls += 1;
        }
    }
    nulls
}

/// `(first row, row count)` per distinct bit pattern read, in order of
/// first appearance, and the NULL rows.
fn count_bits(rows: impl Iterator<Item = (usize, bool, u64)>) -> (Vec<(u32, u32)>, usize) {
    let mut seen = KeyTable::new();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut nulls = 0;
    for (r, valid, bits) in rows {
        if !valid {
            nulls += 1;
            continue;
        }
        let run = seen.slot(bits);
        if *run == EMPTY {
            *run = runs.len() as u32;
            runs.push((r as u32, 1));
        } else {
            runs[*run as usize].1 += 1;
        }
    }
    (runs, nulls)
}

/// The values of a column's rows: each distinct non-null value once, with
/// its row count, and the NULL rows. Equality is [`storage::Value`]'s on
/// what [`ColumnData::get`] returns: floats by bit pattern, dates narrowed
/// to `i32`. Row counts must fit `u32`.
#[derive(Debug)]
pub(crate) struct ValueCounts<'c> {
    /// The counts the column holds.
    counts: &'c ColumnCounts,
    /// Whether the column held them before this pass asked.
    reused: bool,
}

impl<'c> ValueCounts<'c> {
    /// The counts of the entries of `col`, which are the column's to keep
    /// ([`ColumnData::value_counts`]): they are counted only when the
    /// column holds none, and it then holds these.
    pub(crate) fn of_column(col: &'c ColumnData) -> ValueCounts<'c> {
        let mut reused = true;
        let counts = col.value_counts_or_insert_with(|| {
            reused = false;
            count(col)
        });
        ValueCounts { counts, reused }
    }

    /// Whether the counts were found on the column, so that no row was read.
    pub(crate) fn reused(&self) -> bool {
        self.reused
    }

    /// Each distinct non-null value read, with its row count.
    pub(crate) fn values(&self) -> impl Iterator<Item = (ValueRef<'_>, u32)> + Clone + '_ {
        self.counts.iter()
    }

    /// Distinct non-null values.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether [`ValueCounts::values`] is in ascending order, as a table
    /// walked by offset leaves integers and dates.
    pub(crate) fn ascending(&self) -> bool {
        self.counts.ascending
    }

    /// NULL rows.
    pub(crate) fn nulls(&self) -> usize {
        self.counts.nulls
    }

    /// Distinct values, NULL one of them.
    pub(crate) fn ndv(&self) -> f64 {
        (self.len() + usize::from(self.nulls() > 0)) as f64
    }
}

/// Count the entries of `col` in one pass: by table where [`direct`]
/// allows one, by [`KeyTable`] otherwise. A string is kept as the cell of
/// the first row holding it.
fn count(col: &ColumnData) -> ColumnCounts {
    let valid = col.validity();
    let n = valid.len();
    let counted = match col.payload() {
        PayloadRef::Int(xs) => count_offsets(per_row(valid, xs, |&x| x), n)
            .map(|counted| by_offset(counted, CountedValues::Int, |x| x)),
        PayloadRef::Date(xs) => count_offsets(per_row(valid, xs, |&x| narrow(x)), n)
            .map(|counted| by_offset(counted, CountedValues::Date, |x| x as i32)),
        PayloadRef::Float(_) => None,
        PayloadRef::Str(cells) => {
            let (codes, bound) = str_codes(col);
            direct(bound as u128, n).then(|| {
                let (mut counts, mut firsts) = (vec![0u32; bound], vec![0u32; bound]);
                let rows = per_row(valid, codes, |&c| c as usize);
                let nulls = count_codes(rows, &mut counts, &mut firsts);
                let values = counts
                    .iter()
                    .zip(&firsts)
                    .filter(|&(&count, _)| count > 0)
                    .map(|(&count, &r)| (Arc::clone(&cells[r as usize]), count));
                ColumnCounts {
                    values: CountedValues::Str(exact(values)),
                    ascending: false,
                    nulls,
                }
            })
        }
    };
    counted.unwrap_or_else(|| {
        let (runs, nulls) = per_row_bits!(col, count_bits);
        let runs = runs.into_iter().map(|(r, count)| (r as usize, count));
        let values = match col.payload() {
            PayloadRef::Int(xs) => CountedValues::Int(runs.map(|(r, n)| (xs[r], n)).collect()),
            PayloadRef::Date(xs) => {
                CountedValues::Date(runs.map(|(r, n)| (xs[r] as i32, n)).collect())
            }
            PayloadRef::Float(xs) => CountedValues::Float(runs.map(|(r, n)| (xs[r], n)).collect()),
            PayloadRef::Str(cells) => {
                CountedValues::Str(runs.map(|(r, n)| (Arc::clone(&cells[r]), n)).collect())
            }
        };
        ColumnCounts {
            values,
            ascending: false,
            nulls,
        }
    })
}

/// `values` collected into a `Vec` of their length, as a column may keep it.
fn exact<T>(values: impl Iterator<Item = T>) -> Vec<T> {
    let mut values: Vec<T> = values.collect();
    values.shrink_to_fit();
    values
}

/// The counts [`count_offsets`] made, walked in ascending order, each
/// value made by `value` from the integer counted and the list by `kind`.
fn by_offset<T>(
    (lo, counts, nulls): (i64, Vec<u32>, usize),
    kind: fn(Vec<(T, u32)>) -> CountedValues,
    value: impl Fn(i64) -> T,
) -> ColumnCounts {
    let values = counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(i, &count)| (value(lo.wrapping_add(i as i64)), count));
    ColumnCounts {
        values: kind(exact(values)),
        ascending: true,
        nulls,
    }
}

/// A key per row, below a width: equal exactly where the rows' values are,
/// NULL a value of its own. How a column, or a prefix, takes part in a
/// longer prefix.
#[derive(Debug)]
pub(crate) enum RowKeys<'c> {
    /// Every row of an integer column, or of a date column read narrowed
    /// to `i32` (`date`), within the direct bound: its offset from `lo`,
    /// read in place; NULL is `width - 1`.
    Offsets {
        valid: &'c [bool],
        xs: &'c [i64],
        date: bool,
        lo: i64,
        width: usize,
    },
    /// Every row of a string column within the direct bound: its dictionary
    /// code, read in place; NULL is `width - 1`.
    Codes {
        valid: &'c [bool],
        codes: &'c [u32],
        width: usize,
    },
    /// A key per row, made beforehand: a column's that no table can index
    /// (numbered in order of first appearance), or a refined prefix's group
    /// ids.
    Ids { ids: Vec<u32>, width: usize },
}

/// `$body` with `$key` bound to `$keys`' key of a row and `$width` to their
/// width, one instance per kind of keys.
macro_rules! with_keys {
    ($keys:expr, |$key:ident, $width:ident| $body:expr) => {
        match $keys {
            &RowKeys::Offsets {
                valid,
                xs,
                date: false,
                lo,
                width: $width,
            } => {
                let null = ($width - 1) as u32;
                let $key = |p: usize| {
                    if valid[p] {
                        offset(xs[p], lo) as u32
                    } else {
                        null
                    }
                };
                $body
            }
            &RowKeys::Offsets {
                valid,
                xs,
                date: true,
                lo,
                width: $width,
            } => {
                let null = ($width - 1) as u32;
                let $key = |p: usize| {
                    if valid[p] {
                        offset(narrow(xs[p]), lo) as u32
                    } else {
                        null
                    }
                };
                $body
            }
            &RowKeys::Codes {
                valid,
                codes,
                width: $width,
            } => {
                let null = ($width - 1) as u32;
                let $key = |p: usize| if valid[p] { codes[p] } else { null };
                $body
            }
            RowKeys::Ids { ids, width } => {
                let $width = *width;
                let $key = |p: usize| ids[p];
                $body
            }
        }
    };
}

impl<'c> RowKeys<'c> {
    /// The keys of `col`: read in place on a column a table can index
    /// ([`direct`]), coded otherwise.
    pub(crate) fn of_column(col: &'c ColumnData) -> RowKeys<'c> {
        let valid = col.validity();
        let n = valid.len();
        let direct_keys = match col.payload() {
            PayloadRef::Int(xs) | PayloadRef::Date(xs) => {
                // The span comes from counting the values.
                let date = matches!(col.payload(), PayloadRef::Date(_));
                let counted = if date {
                    count_offsets(per_row(valid, xs, |&x| narrow(x)), n)
                } else {
                    count_offsets(per_row(valid, xs, |&x| x), n)
                };
                counted.map(|(lo, counts, _)| RowKeys::Offsets {
                    valid,
                    xs,
                    date,
                    lo,
                    width: counts.len() + 1,
                })
            }
            PayloadRef::Float(_) => None,
            PayloadRef::Str(_) => {
                let (codes, bound) = str_codes(col);
                direct(bound as u128, n).then_some(RowKeys::Codes {
                    valid,
                    codes,
                    width: bound + 1,
                })
            }
        };
        direct_keys.unwrap_or_else(|| per_row_bits!(col, code_bits))
    }

    /// Rows.
    fn len(&self) -> usize {
        match self {
            RowKeys::Offsets { valid, .. } | RowKeys::Codes { valid, .. } => valid.len(),
            RowKeys::Ids { ids, .. } => ids.len(),
        }
    }
}

/// Each row's id by bit pattern, numbered in order of first
/// appearance, NULL an id of its own.
fn code_bits(rows: impl Iterator<Item = (usize, bool, u64)>) -> RowKeys<'static> {
    let mut seen = KeyTable::new();
    let (mut ids, mut width, mut null) = (Vec::new(), 0u32, EMPTY);
    for (_, valid, bits) in rows {
        let id = if valid { seen.slot(bits) } else { &mut null };
        if *id == EMPTY {
            *id = width;
            width += 1;
        }
        ids.push(*id);
    }
    RowKeys::Ids {
        ids,
        width: width as usize,
    }
}

/// The partition of a table's rows by the tuples of a prefix of two or
/// more columns: a group id per row ([`RowKeys::Ids`], as wide
/// as the group count). Row counts must fit `u32`.
#[derive(Debug)]
pub(crate) struct Groups {
    keys: RowKeys<'static>,
}

impl Groups {
    /// The partition by (`head`'s key, `next`'s key), both over the same
    /// rows: the tuples of a prefix one column longer than `head`'s.
    ///
    /// Group-major: a stable counting sort puts the rows in order of their
    /// head key, each carrying its next key, and then each head group's
    /// rows go through one stamp table as wide as `next`'s keys, stamped
    /// with the group so that the table is never cleared. Groups are
    /// numbered in that order.
    pub(crate) fn refine(head: &RowKeys, next: &RowKeys) -> Groups {
        let n = head.len();
        debug_assert_eq!(n, next.len());
        with_keys!(head, |head, heads| with_keys!(next, |next, width| {
            Self::group_major(n, head, heads, next, width)
        }))
    }

    fn group_major(
        n: usize,
        head: impl Fn(usize) -> u32,
        heads: usize,
        next: impl Fn(usize) -> u32,
        width: usize,
    ) -> Groups {
        // `starts[g]..starts[g + 1]` will hold head group `g`'s rows.
        let mut starts = vec![0u32; heads + 1];
        for p in 0..n {
            starts[head(p) as usize + 1] += 1;
        }
        for g in 0..heads {
            starts[g + 1] += starts[g];
        }
        let mut ends = starts.clone();
        let mut sorted = vec![(0u32, 0u32); n];
        for p in 0..n {
            let end = &mut ends[head(p) as usize];
            sorted[*end as usize] = (p as u32, next(p));
            *end += 1;
        }
        // (head group, id) of the last row holding each next key.
        let mut stamps = vec![(EMPTY, 0u32); width];
        let mut ids = vec![0u32; n];
        let mut count = 0u32;
        for g in 0..heads {
            let rows = &sorted[starts[g] as usize..starts[g + 1] as usize];
            for &(p, key) in rows {
                let stamp = &mut stamps[key as usize];
                if stamp.0 != g as u32 {
                    *stamp = (g as u32, count);
                    count += 1;
                }
                ids[p as usize] = stamp.1;
            }
        }
        Groups {
            keys: RowKeys::Ids {
                ids,
                width: count as usize,
            },
        }
    }

    /// Each row's group id, to refine further.
    pub(crate) fn keys(&self) -> &RowKeys<'static> {
        &self.keys
    }

    /// Distinct tuples: the group count.
    pub(crate) fn ndv(&self) -> f64 {
        let RowKeys::Ids { width, .. } = &self.keys else {
            unreachable!("a partition is coded")
        };
        *width as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use storage::{DataType, Value};

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
        assert_eq!(ValueCounts::of_column(&a).ndv(), 4.0);
        let (a, b) = (RowKeys::of_column(&a), RowKeys::of_column(&b));
        let ab = Groups::refine(&a, &b);
        assert_eq!(ab.ndv(), 20.0); // 4 * 5 combinations, all present
        assert_eq!(Groups::refine(ab.keys(), &a).ndv(), 20.0);
    }

    #[test]
    fn null_is_a_value_for_tuples_and_not_for_the_column() {
        let vals = [Value::Int(1), Value::Null, Value::Int(1), Value::Null];
        let ones = column(DataType::Int, vals);
        let counts = ValueCounts::of_column(&ones);
        assert_eq!(counts.ndv(), 2.0);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts.nulls(), 2);
        let nulls = column(DataType::Int, [Value::Null, Value::Null]);
        let counts = ValueCounts::of_column(&nulls);
        assert_eq!(counts.ndv(), 1.0);
        assert_eq!(counts.len(), 0);
        let keys = RowKeys::of_column(&nulls);
        assert_eq!(Groups::refine(&keys, &keys).ndv(), 1.0);
    }

    #[test]
    fn integers_and_dates_come_out_ascending() {
        let ints = column(DataType::Int, [5, -2, 9, -2, 0].map(Value::Int));
        let counts = ValueCounts::of_column(&ints);
        assert!(counts.ascending());
        let values: Vec<(ValueRef, u32)> = counts.values().collect();
        let int = |x, n| (ValueRef::Int(x), n);
        assert_eq!(values, [int(-2, 2), int(0, 1), int(5, 1), int(9, 1)]);
        // A payload past `i32` counts as the date it reads back as.
        let dates = column(DataType::Date, [Value::Int((1 << 32) + 3), Value::Date(3)]);
        let counts = ValueCounts::of_column(&dates);
        assert!(counts.values().eq([(ValueRef::Date(3), 2)]));
    }

    /// A build's counts stay on the column, holding its own string cells;
    /// the next build reads them.
    #[test]
    fn a_full_scan_keeps_its_counts_on_the_column() {
        let strs = column(DataType::Str, ["b", "a", "b"].map(Value::from));
        assert!(!ValueCounts::of_column(&strs).reused());
        let kept = Arc::clone(strs.value_counts().expect("kept"));
        let cell = |r: usize| match strs.get(r) {
            Value::Str(s) => s,
            _ => unreachable!(),
        };
        assert!(matches!(&kept.values, CountedValues::Str(xs)
            if matches!(&xs[..], [(b, 2), (a, 1)]
                if Arc::ptr_eq(b, &cell(0)) && Arc::ptr_eq(a, &cell(1)))));
        assert!(ValueCounts::of_column(&strs).reused());
        assert!(Arc::ptr_eq(strs.value_counts().expect("kept"), &kept));
    }

    #[test]
    fn offset_counts_grow_either_way_and_give_up_past_the_bound() {
        // Falling, then rising, at either end of `i64` and across zero.
        for base in [i64::MIN, -1_000, i64::MAX - 2_000] {
            let xs: Vec<i64> = (0..1_000).rev().chain(1_000..2_001).collect();
            let ints = column(DataType::Int, xs.iter().map(|&i| Value::Int(base + i)));
            let counts = ValueCounts::of_column(&ints);
            assert!(counts.ascending());
            let expected: Vec<(ValueRef, u32)> =
                (0..2_001).map(|i| (ValueRef::Int(base + i), 1)).collect();
            assert_eq!(counts.values().collect::<Vec<_>>(), expected);
        }
        // Ten rows: a span of 2 * 10 + 1 024 slots is counted by offset, one
        // more is hashed.
        for (hi, ascending) in [(1_043, true), (1_044, false)] {
            let ints = column(
                DataType::Int,
                [0, hi, 5, 0, 0, hi, 5, 0, 0, hi].map(Value::Int),
            );
            let counts = ValueCounts::of_column(&ints);
            assert_eq!(counts.ascending(), ascending);
            assert_eq!(counts.len(), 3);
        }
    }

    #[test]
    fn key_table_keeps_keys_apart_through_growth() {
        // Floats holding small integers differ in their high bits only, and
        // so do the keys `g << 32 | 7`.
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

    /// A column of `kind` from small picks: integers narrow enough to be
    /// read in place, integers spread past the direct bound, strings, and
    /// floats (always coded).
    fn pick_column(kind: usize, picks: &[Option<i64>]) -> ColumnData {
        let (data_type, value): (DataType, fn(i64) -> Value) = match kind {
            0 => (DataType::Int, Value::Int),
            1 => (DataType::Int, |x| Value::Int(x << 40)),
            2 => (DataType::Str, |x| Value::Str(format!("v{x}").into())),
            _ => (DataType::Float, |x| Value::Float(x as f64 / 2.0)),
        };
        column(
            data_type,
            picks.iter().map(|p| p.map_or(Value::Null, value)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A refinement has one group per distinct pair of the rows, NULL a
        /// value of its own, whichever way each column is keyed; and
        /// refining once more counts the distinct triples.
        #[test]
        fn refinement_counts_distinct_pairs(
            cells in prop::collection::vec(
                (
                    prop::option::of(0i64..40),
                    prop::option::of(0i64..30),
                    prop::option::of(0i64..3),
                ),
                0..300,
            ),
            kinds in (0usize..4, 0usize..4, 0usize..4),
        ) {
            let a: Vec<Option<i64>> = cells.iter().map(|c| c.0).collect();
            let b: Vec<Option<i64>> = cells.iter().map(|c| c.1).collect();
            let c: Vec<Option<i64>> = cells.iter().map(|c| c.2).collect();
            let cols = [
                pick_column(kinds.0, &a),
                pick_column(kinds.1, &b),
                pick_column(kinds.2, &c),
            ];
            let keys: Vec<RowKeys> = cols.iter().map(RowKeys::of_column).collect();
            let ab = Groups::refine(&keys[0], &keys[1]);
            let abc = Groups::refine(ab.keys(), &keys[2]);
            let pairs: BTreeSet<_> = a.iter().zip(&b).collect();
            let triples: BTreeSet<_> = cells.iter().collect();
            prop_assert_eq!(ab.ndv(), pairs.len() as f64);
            prop_assert_eq!(abc.ndv(), triples.len() as f64);
            // Two rows share a group exactly where they share a pair.
            let RowKeys::Ids { ids, .. } = ab.keys() else {
                unreachable!()
            };
            for r in 0..cells.len() {
                for s in 0..r {
                    prop_assert_eq!(ids[r] == ids[s], (a[r], b[r]) == (a[s], b[s]));
                }
            }
        }
    }
}
