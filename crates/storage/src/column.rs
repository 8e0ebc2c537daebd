//! Columnar value storage.
//!
//! A column is a validity bitmap plus **one** typed payload vector, and which
//! vector is the column's type: a column whose tag and payload disagree
//! cannot be built. Readers borrow the payload as a [`PayloadRef`] and match
//! it once per operator, so "Int and Date live in `i64`s, Float in `f64`s,
//! Str in `Arc<str>` cells" is decided in this module alone. Deleted rows are
//! compacted eagerly (tables here are small enough that shifting is cheaper
//! than tombstone bookkeeping, and statistics builders want dense columns).
//!
//! A string column holds one shared, immutable cell (`Arc<str>`) per row.
//! Reading a cell out ([`ColumnData::get`]) and cloning a table for
//! copy-on-write both bump a reference count instead of copying bytes. Cells are not interned:
//! one `Arc` per distinct value would have every client thread bump the same
//! few counters, which measured slower than a count per row.
//!
//! Beside its cells (not instead of them) a string column can hold dictionary
//! codes: one `u32` per row, equal exactly where the strings are equal,
//! numbered in order of first appearance ([`ColumnData::str_codes`]). They are
//! made the first time a statistic build asks for them, not at load: coding
//! every string column of a bulk load costs the load a hash per cell, whether
//! or not a statistic is ever built on the column. From then on every write
//! keeps them current, so a build after a write finds them ready, and a clone
//! (so a copy-on-write) carries them. A column never built on never has
//! them, so a cross-shard read of a partitioned table finds codes on some of
//! its shard slices and not on others: it compiles each string predicate
//! against each slice's own dictionary.
//!
//! The executor reads codes that exist ([`ColumnData::made_str_codes`]) and
//! answers a string `=`/`<>` on them, but never makes them: making them on
//! demand held 6 % more peak RSS on the benchmark's `online-mixed` workload
//! and ran no faster on `steady-simple`.
//!
//! A column can also hold its value counts ([`ColumnCounts`]): each distinct
//! non-null value with its row count, and the NULL rows. A full-scan
//! statistic build makes them ([`ColumnData::value_counts_or_insert_with`];
//! the `stats` crate counts, this module only keeps), and a later build of
//! any statistic led by the column reads them instead of its rows. They hold
//! the column's own string cells, not copies, so they cost a `Vec` entry per
//! distinct value. Unlike the codes they are not kept current: every write
//! goes through one private path that forgets them, since keeping them would
//! cost every write a count update that only a later build could use. A clone
//! (so a copy-on-write) shares them through an `Arc` until either side is
//! written.

use crate::value::{DataType, Value, ValueRef};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, OnceLock};

/// The padding a NULL leaves in a string column's payload: one empty cell for
/// the whole process, so a NULL allocates nothing.
static NULL_STR: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(""));

/// A column's payload: one entry per row, padding where the row is NULL.
#[derive(Debug, Clone)]
enum Payload {
    Int(Vec<i64>),
    /// Days since the Unix epoch, widened to `i64`.
    Date(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
}

/// A column's payload, borrowed: one entry per row, the entries at NULL rows
/// unspecified padding ([`ColumnData::validity`] tells which rows those are).
#[derive(Debug, Clone, Copy)]
pub enum PayloadRef<'a> {
    Int(&'a [i64]),
    /// Days since the Unix epoch, widened to `i64`. A date reads back
    /// narrowed to `i32`, as [`PayloadRef::value`] does it.
    Date(&'a [i64]),
    Float(&'a [f64]),
    /// One shared cell per row, each dereferencing to `&str`.
    Str(&'a [Arc<str>]),
}

impl<'a> PayloadRef<'a> {
    /// An `Int` or `Date` payload's entries.
    pub fn ints(self) -> Option<&'a [i64]> {
        match self {
            PayloadRef::Int(xs) | PayloadRef::Date(xs) => Some(xs),
            _ => None,
        }
    }

    /// A `Float` payload's entries.
    pub fn floats(self) -> Option<&'a [f64]> {
        match self {
            PayloadRef::Float(xs) => Some(xs),
            _ => None,
        }
    }

    /// A `Str` payload's cells.
    pub fn strs(self) -> Option<&'a [Arc<str>]> {
        match self {
            PayloadRef::Str(xs) => Some(xs),
            _ => None,
        }
    }

    /// The entry at row `i` as a value, whatever the validity bitmap says
    /// about the row.
    #[inline]
    pub fn value(self, i: usize) -> ValueRef<'a> {
        match self {
            PayloadRef::Int(xs) => ValueRef::Int(xs[i]),
            PayloadRef::Date(xs) => ValueRef::Date(xs[i] as i32),
            PayloadRef::Float(xs) => ValueRef::Float(xs[i]),
            PayloadRef::Str(xs) => ValueRef::Str(&xs[i]),
        }
    }
}

/// A string column's dictionary codes: one per row, the padding cell of a
/// NULL row coded like any other.
#[derive(Debug, Clone)]
struct StrCodes {
    /// Every string coded so far, deleted rows' included, with its code.
    dict: HashMap<Arc<str>, u32>,
    codes: Vec<u32>,
}

impl StrCodes {
    fn of(cells: &[Arc<str>]) -> StrCodes {
        let mut codes = StrCodes {
            dict: HashMap::new(),
            codes: Vec::with_capacity(cells.len()),
        };
        for s in cells {
            let c = codes.code(s);
            codes.codes.push(c);
        }
        codes
    }

    /// The code of `s`, a new one if no string equal to it was coded yet.
    fn code(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&c) = self.dict.get(&**s) {
            return c;
        }
        let c = self.dict.len() as u32;
        self.dict.insert(Arc::clone(s), c);
        c
    }
}

/// A column's distinct non-null values, each with its row count, and its
/// NULL rows, as a full-scan statistic build counted them. This crate keeps
/// them beside the rows they were counted from ([`ColumnData::value_counts`])
/// and knows nothing of how they are counted or read: the statistics crate
/// fills them.
#[derive(Debug, Clone)]
pub struct ColumnCounts {
    /// Each distinct non-null value once, with its row count.
    pub values: CountedValues,
    /// Whether `values` is in ascending order.
    pub ascending: bool,
    /// NULL rows.
    pub nulls: usize,
}

/// Distinct values with their row counts, typed as the column's payload:
/// an integer, a date or a float as a plain value, a string as one of the
/// column's own cells (a reference count, not a copy of its bytes).
#[derive(Debug, Clone)]
pub enum CountedValues {
    Int(Vec<(i64, u32)>),
    /// Days since the Unix epoch, narrowed to `i32` as a date reads back.
    Date(Vec<(i32, u32)>),
    Float(Vec<(f64, u32)>),
    Str(Vec<(Arc<str>, u32)>),
}

impl ColumnCounts {
    /// Distinct non-null values.
    pub fn len(&self) -> usize {
        match &self.values {
            CountedValues::Int(xs) => xs.len(),
            CountedValues::Date(xs) => xs.len(),
            CountedValues::Float(xs) => xs.len(),
            CountedValues::Str(xs) => xs.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each distinct non-null value, borrowed, with its row count.
    pub fn iter(&self) -> impl Iterator<Item = (ValueRef<'_>, u32)> + Clone + '_ {
        // One chain over four slices, three of them empty: an iterator of
        // one type whatever the payload's.
        let (mut ints, mut dates, mut floats, mut strs) = (&[][..], &[][..], &[][..], &[][..]);
        match &self.values {
            CountedValues::Int(xs) => ints = xs,
            CountedValues::Date(xs) => dates = xs,
            CountedValues::Float(xs) => floats = xs,
            CountedValues::Str(xs) => strs = xs,
        }
        let ints = ints.iter().map(|&(x, n)| (ValueRef::Int(x), n));
        let dates = dates.iter().map(|&(d, n)| (ValueRef::Date(d), n));
        let floats = floats.iter().map(|&(x, n)| (ValueRef::Float(x), n));
        let strs = strs.iter().map(|(s, n)| (ValueRef::Str(s), *n));
        ints.chain(dates).chain(floats).chain(strs)
    }
}

/// Equal values as [`ValueRef`]'s `==` has them (floats by bit pattern),
/// in the same order, and the same NULL rows and order flag.
impl PartialEq for ColumnCounts {
    fn eq(&self, other: &Self) -> bool {
        self.ascending == other.ascending
            && self.nulls == other.nulls
            && self.iter().eq(other.iter())
    }
}

/// Storage for one column of a table.
#[derive(Debug, Clone)]
pub struct ColumnData {
    /// Written only through [`ColumnData::rows_mut`].
    rows: Rows,
    /// The value counts a statistic build left, until the next write. A
    /// clone shares them until either side is written.
    counts: OnceLock<Arc<ColumnCounts>>,
}

/// A column's rows: its payload and validity, and the string codes every
/// write keeps current.
#[derive(Debug, Clone)]
struct Rows {
    payload: Payload,
    /// validity[i] == false means row i is NULL.
    validity: Vec<bool>,
    /// A string column's codes once a reader has asked for them; boxed, so
    /// that every other column pays one pointer and a once-flag for them.
    codes: OnceLock<Box<StrCodes>>,
}

// The payload (a tag and one `Vec`), the bitmap, the boxed string codes (16
// bytes) and the shared value counts (16 bytes): a second payload vector
// would show here, as a wider cell shows in `Value`'s assertion.
const _: () = assert!(std::mem::size_of::<ColumnData>() == 88);

/// A dictionary this much larger than its column is dropped, to be made
/// again from the live rows when next asked for: writes that replace or
/// delete strings leave entries no row holds any more.
fn stale(dict_len: usize, rows: usize) -> bool {
    dict_len > 2 * rows + 1024
}

/// Remove the entries at `sorted_rows` (ascending, unique), keeping the rest
/// in order.
fn compact<T>(xs: &mut Vec<T>, sorted_rows: &[usize]) {
    let mut doomed = sorted_rows.iter().peekable();
    let mut row = 0usize;
    // `retain` visits every entry once, in order.
    xs.retain(|_| {
        let keep = doomed.next_if_eq(&&row).is_none();
        row += 1;
        keep
    });
}

impl Rows {
    fn len(&self) -> usize {
        self.validity.len()
    }

    fn push(&mut self, v: Value) {
        let valid = !v.is_null();
        match (&mut self.payload, v) {
            (Payload::Int(xs) | Payload::Date(xs), Value::Null) => xs.push(0),
            (Payload::Float(xs), Value::Null) => xs.push(0.0),
            (Payload::Str(xs), Value::Null) => xs.push(Arc::clone(&NULL_STR)),
            (Payload::Int(xs) | Payload::Date(xs), Value::Int(i)) => xs.push(i),
            (Payload::Date(xs), Value::Date(d)) => xs.push(d as i64),
            (Payload::Float(xs), Value::Float(f)) => xs.push(f),
            (Payload::Float(xs), Value::Int(i)) => xs.push(i as f64),
            (Payload::Str(xs), Value::Str(s)) => xs.push(s),
            (payload, v) => panic!(
                "type mismatch pushing {:?} into {:?} column",
                v.data_type(),
                payload.data_type()
            ),
        }
        self.validity.push(valid);
        if let (Some(codes), Payload::Str(xs)) = (self.codes.get_mut(), &self.payload) {
            let c = codes.code(&xs[xs.len() - 1]);
            codes.codes.push(c);
        }
    }

    /// Forget codes that [`stale`] says have outgrown the column.
    fn drop_stale_codes(&mut self) {
        if let Some(codes) = self.codes.get() {
            if stale(codes.dict.len(), self.len()) {
                self.codes = OnceLock::new();
            }
        }
    }

    fn set_rows(&mut self, rows: &[usize], v: &Value) -> Result<usize, DataType> {
        let len = self.len();
        let rows = || rows.iter().copied().filter(move |&r| r < len);
        let written = rows().count();
        if written == 0 {
            return Ok(0);
        }
        let Some(found) = v.data_type() else {
            rows().for_each(|r| self.validity[r] = false);
            return Ok(written);
        };
        match (&mut self.payload, v) {
            (Payload::Int(xs) | Payload::Date(xs), &Value::Int(x)) => {
                rows().for_each(|r| xs[r] = x)
            }
            (Payload::Date(xs), &Value::Date(d)) => rows().for_each(|r| xs[r] = d as i64),
            (Payload::Float(xs), &Value::Float(x)) => rows().for_each(|r| xs[r] = x),
            (Payload::Float(xs), &Value::Int(x)) => rows().for_each(|r| xs[r] = x as f64),
            (Payload::Str(xs), Value::Str(s)) => {
                rows().for_each(|r| xs[r] = Arc::clone(s));
                if let Some(codes) = self.codes.get_mut() {
                    let c = codes.code(s);
                    rows().for_each(|r| codes.codes[r] = c);
                }
            }
            _ => return Err(found),
        }
        rows().for_each(|r| self.validity[r] = true);
        self.drop_stale_codes();
        Ok(written)
    }

    fn delete_rows(&mut self, sorted_rows: &[usize]) {
        compact(&mut self.validity, sorted_rows);
        match &mut self.payload {
            Payload::Int(xs) | Payload::Date(xs) => compact(xs, sorted_rows),
            Payload::Float(xs) => compact(xs, sorted_rows),
            Payload::Str(xs) => compact(xs, sorted_rows),
        }
        if let Some(codes) = self.codes.get_mut() {
            compact(&mut codes.codes, sorted_rows);
        }
        self.drop_stale_codes();
    }
}

impl Payload {
    fn data_type(&self) -> DataType {
        match self {
            Payload::Int(_) => DataType::Int,
            Payload::Date(_) => DataType::Date,
            Payload::Float(_) => DataType::Float,
            Payload::Str(_) => DataType::Str,
        }
    }
}

impl ColumnData {
    pub fn new(data_type: DataType) -> Self {
        ColumnData {
            rows: Rows {
                payload: match data_type {
                    DataType::Int => Payload::Int(Vec::new()),
                    DataType::Date => Payload::Date(Vec::new()),
                    DataType::Float => Payload::Float(Vec::new()),
                    DataType::Str => Payload::Str(Vec::new()),
                },
                validity: Vec::new(),
                codes: OnceLock::new(),
            },
            counts: OnceLock::new(),
        }
    }

    /// The rows, to write. Every `&mut` method of a column writes through
    /// here, and so forgets the value counts: they describe the rows as a
    /// build counted them, and a write would have to pay to keep them so.
    fn rows_mut(&mut self) -> &mut Rows {
        self.counts.take();
        &mut self.rows
    }

    pub fn data_type(&self) -> DataType {
        self.rows.payload.data_type()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.validity.is_empty()
    }

    /// Append a value. The caller (Table) is responsible for type checking;
    /// this method panics on a type mismatch since it indicates a bug above.
    pub fn push(&mut self, v: Value) {
        self.rows_mut().push(v)
    }

    /// Value at row `i`. A string comes back as the stored cell itself
    /// (`Arc::ptr_eq` to it), not as a copy.
    pub fn get(&self, i: usize) -> Value {
        if !self.rows.validity[i] {
            return Value::Null;
        }
        match &self.rows.payload {
            Payload::Int(xs) => Value::Int(xs[i]),
            Payload::Date(xs) => Value::Date(xs[i] as i32),
            Payload::Float(xs) => Value::Float(xs[i]),
            Payload::Str(xs) => Value::Str(Arc::clone(&xs[i])),
        }
    }

    /// Borrowed view of row `i` — no reference count touched for `Str`
    /// columns. The workhorse of the columnar executor's inner loops.
    pub fn get_ref(&self, i: usize) -> ValueRef<'_> {
        if self.rows.validity[i] {
            self.payload().value(i)
        } else {
            ValueRef::Null
        }
    }

    /// True when row `i` is non-NULL.
    pub fn is_valid(&self, i: usize) -> bool {
        self.rows.validity[i]
    }

    /// The validity bitmap: `validity()[i] == false` means row `i` is NULL.
    pub fn validity(&self) -> &[bool] {
        &self.rows.validity
    }

    /// True when no entry is NULL. One vectorizable pass; predicate kernels
    /// use it to pick the null-free inner loop for a whole column.
    pub fn all_valid(&self) -> bool {
        self.rows.validity.iter().all(|&v| v)
    }

    /// The typed payload, for a reader that hoists the type dispatch out of
    /// its row loop.
    pub fn payload(&self) -> PayloadRef<'_> {
        match &self.rows.payload {
            Payload::Int(xs) => PayloadRef::Int(xs),
            Payload::Date(xs) => PayloadRef::Date(xs),
            Payload::Float(xs) => PayloadRef::Float(xs),
            Payload::Str(xs) => PayloadRef::Str(xs),
        }
    }

    /// The dictionary codes of a string column, `None` for any other type:
    /// one per row, equal exactly where the cells are equal (a NULL row's
    /// code is its padding cell's), with the bound every code is below.
    /// Codes count up from 0 in order of first appearance when made; a
    /// write can leave a code unused, so the bound is not a distinct count.
    /// The first call on a column makes them, which costs a hash per row.
    pub fn str_codes(&self) -> Option<(&[u32], usize)> {
        let Payload::Str(xs) = &self.rows.payload else {
            return None;
        };
        let codes = self.rows.codes.get_or_init(|| Box::new(StrCodes::of(xs)));
        Some((&codes.codes, codes.dict.len()))
    }

    /// The codes [`ColumnData::str_codes`] made earlier, with the code of the
    /// string `s` among them (`None` when no cell equal to `s` was ever
    /// coded); `None` if this is not a string column or its codes were never
    /// made. It never makes them: a reader that only compares against a
    /// constant uses codes when a statistic build left them, and the cells
    /// otherwise.
    pub fn made_str_codes(&self, s: &str) -> Option<(&[u32], Option<u32>)> {
        let codes = self.rows.codes.get()?;
        Some((&codes.codes, codes.dict.get(s).copied()))
    }

    /// The value counts a build left on this column
    /// ([`ColumnData::value_counts_or_insert_with`]), `None` if none was
    /// made or a write has come since. A clone holds the same `Arc` until
    /// either side is written.
    pub fn value_counts(&self) -> Option<&Arc<ColumnCounts>> {
        self.counts.get()
    }

    /// The column's value counts: those it holds, or else `count`'s, which
    /// it then holds until its next write. `count` must count every row of
    /// this column as [`ColumnCounts`] says; it runs at most once however
    /// many threads ask at the same time.
    pub fn value_counts_or_insert_with(
        &self,
        count: impl FnOnce() -> ColumnCounts,
    ) -> &ColumnCounts {
        self.counts.get_or_init(|| Arc::new(count()))
    }

    /// Overwrite row `i`. A value this column's type cannot hold comes back
    /// as its type, and the row is left as it was.
    pub fn set(&mut self, i: usize, v: Value) -> Result<(), DataType> {
        assert!(i < self.len(), "row {i} of a {}-row column", self.len());
        self.set_rows(&[i], &v).map(drop)
    }

    /// Overwrite every row of `rows` below [`ColumnData::len`] with `v` and
    /// count them; a string is coded once for all of them. A value this
    /// column's type cannot hold comes back as its type, and the column is
    /// left as it was.
    pub fn set_rows(&mut self, rows: &[usize], v: &Value) -> Result<usize, DataType> {
        self.rows_mut().set_rows(rows, v)
    }

    /// Remove the rows whose indices are in `sorted_rows` (ascending, unique)
    /// by compaction.
    pub fn delete_rows(&mut self, sorted_rows: &[usize]) {
        if !sorted_rows.is_empty() {
            self.rows_mut().delete_rows(sorted_rows)
        }
    }

    /// Iterator over all values including NULLs.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Count of NULL entries.
    pub fn null_count(&self) -> usize {
        self.rows.validity.iter().filter(|v| !**v).count()
    }

    /// This column's rows dealt into `sizes.len()` columns: row `r` goes to
    /// column `part_of[r]`, in row order, and `sizes[p]` is how many rows
    /// part `p` gets. Each part holds what [`ColumnData::push`] of each of
    /// its rows' [`ColumnData::get`] would hold: a NULL row is padded as a
    /// pushed NULL is, whatever padding this column had there, a string
    /// cell is shared, not copied, and no part has codes or counts.
    pub(crate) fn split(&self, part_of: &[usize], sizes: &[usize]) -> Vec<ColumnData> {
        let validity = &self.rows.validity;
        let payloads: Vec<Payload> = match &self.rows.payload {
            Payload::Int(xs) => deal(xs, validity, part_of, sizes, 0, |&x| x)
                .into_iter()
                .map(Payload::Int)
                .collect(),
            // A date reads back narrowed to `i32` ([`PayloadRef::Date`]).
            Payload::Date(xs) => deal(xs, validity, part_of, sizes, 0, |&x| i64::from(x as i32))
                .into_iter()
                .map(Payload::Date)
                .collect(),
            Payload::Float(xs) => deal(xs, validity, part_of, sizes, 0.0, |&x| x)
                .into_iter()
                .map(Payload::Float)
                .collect(),
            Payload::Str(xs) => deal(
                xs,
                validity,
                part_of,
                sizes,
                Arc::clone(&NULL_STR),
                Arc::clone,
            )
            .into_iter()
            .map(Payload::Str)
            .collect(),
        };
        let validities = deal(validity, validity, part_of, sizes, false, |&v| v);
        std::iter::zip(payloads, validities)
            .map(|(payload, validity)| ColumnData {
                rows: Rows {
                    payload,
                    validity,
                    codes: OnceLock::new(),
                },
                counts: OnceLock::new(),
            })
            .collect()
    }
}

/// `xs` dealt into `sizes.len()` vectors by `part_of`, in order: `cell` of
/// each valid entry, `pad` for each NULL one.
fn deal<T, U: Clone>(
    xs: &[T],
    validity: &[bool],
    part_of: &[usize],
    sizes: &[usize],
    pad: U,
    cell: impl Fn(&T) -> U,
) -> Vec<Vec<U>> {
    let mut parts: Vec<Vec<U>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
    for ((x, &valid), &p) in xs.iter().zip(validity).zip(part_of) {
        parts[p].push(if valid { cell(x) } else { pad.clone() });
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip_all_types() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(5));
        c.push(Value::Null);
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.null_count(), 1);

        let mut s = ColumnData::new(DataType::Str);
        s.push(Value::Str("hi".into()));
        assert_eq!(s.get(0), Value::Str("hi".into()));

        let mut d = ColumnData::new(DataType::Date);
        d.push(Value::Date(100));
        d.push(Value::Int(101)); // int coerces into date storage
        assert_eq!(d.get(0), Value::Date(100));
        assert_eq!(d.get(1), Value::Date(101));

        let mut f = ColumnData::new(DataType::Float);
        f.push(Value::Int(3)); // widening coercion
        assert_eq!(f.get(0), Value::Float(3.0));
    }

    #[test]
    fn delete_rows_compacts() {
        let mut c = ColumnData::new(DataType::Int);
        for i in 0..6 {
            c.push(Value::Int(i));
        }
        c.delete_rows(&[1, 4]);
        let vals: Vec<Value> = c.iter().collect();
        assert_eq!(
            vals,
            vec![Value::Int(0), Value::Int(2), Value::Int(3), Value::Int(5)]
        );
    }

    #[test]
    fn delete_rows_string_column() {
        let mut c = ColumnData::new(DataType::Str);
        for s in ["a", "b", "c", "d"] {
            c.push(Value::Str(s.into()));
        }
        c.delete_rows(&[0, 3]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Str("b".into()));
        assert_eq!(c.get(1), Value::Str("c".into()));
    }

    /// The cells of a string column.
    fn cells(c: &ColumnData) -> &[Arc<str>] {
        match c.payload() {
            PayloadRef::Str(xs) => xs,
            other => panic!("a string column, not {other:?}"),
        }
    }

    #[test]
    fn string_cells_are_shared_not_copied() {
        let mut c = ColumnData::new(DataType::Str);
        for v in ["a".into(), Value::Null, "".into(), Value::Null, "d".into()] {
            c.push(v);
        }
        let before = cells(&c).to_vec();
        // Reading a cell out hands back the stored allocation.
        let Value::Str(read) = c.get(0) else {
            panic!("row 0 is a string")
        };
        assert!(Arc::ptr_eq(&read, &before[0]));
        // Every NULL pads with the one process-wide empty cell; a stored
        // empty string is a cell of its own.
        assert!(Arc::ptr_eq(&before[1], &before[3]));
        assert!(!Arc::ptr_eq(&before[1], &before[2]));
        // Pushing a cell read out of a column and compacting after a delete
        // move cells.
        let mut other = ColumnData::new(DataType::Str);
        c.iter().for_each(|v| other.push(v));
        assert!(Arc::ptr_eq(&cells(&other)[4], &before[4]));
        c.delete_rows(&[0, 1]);
        let left = cells(&c);
        assert_eq!(c.get(0), Value::Str("".into()));
        assert!(Arc::ptr_eq(&left[0], &before[2]) && Arc::ptr_eq(&left[2], &before[4]));
        // A replaced cell leaves the value read earlier as it was.
        c.set(2, "changed".into()).unwrap();
        assert_eq!(&*read, "a");
        assert_eq!(&*before[4], "d");
        assert_eq!(c.get(2), Value::Str("changed".into()));
    }

    #[test]
    fn set_overwrites_and_nulls() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(1));
        c.set(0, Value::Int(9)).unwrap();
        assert_eq!(c.get(0), Value::Int(9));
        // A value of the wrong type is refused and changes nothing.
        assert_eq!(c.set(0, "x".into()), Err(DataType::Str));
        assert_eq!(c.set(0, Value::Float(1.5)), Err(DataType::Float));
        assert_eq!(c.get(0), Value::Int(9));
        c.set(0, Value::Null).unwrap();
        assert_eq!(c.get(0), Value::Null);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_wrong_type_panics() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Str("oops".into()));
    }

    #[test]
    fn get_ref_mirrors_get() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut cols = vec![
            ColumnData::new(DataType::Int),
            ColumnData::new(DataType::Float),
            ColumnData::new(DataType::Str),
            ColumnData::new(DataType::Date),
        ];
        cols[0].push(Value::Int(-3));
        cols[1].push(Value::Float(2.5));
        cols[2].push(Value::Str("hi".into()));
        cols[3].push(Value::Date(42));
        for c in &mut cols {
            c.push(Value::Null);
        }
        for c in &cols {
            for i in 0..c.len() {
                let owned = c.get(i);
                let r = c.get_ref(i);
                assert_eq!(r.to_value(), owned);
                assert_eq!(c.is_valid(i), !owned.is_null());
                // Hash parity: ref and owned fingerprints agree.
                let mut h1 = DefaultHasher::new();
                let mut h2 = DefaultHasher::new();
                owned.hash(&mut h1);
                r.hash(&mut h2);
                assert_eq!(h1.finish(), h2.finish());
            }
        }
    }

    /// `get`, `get_ref` and the typed view, row by row, against `want`.
    fn assert_reads(c: &ColumnData, want: &[Value]) {
        assert_eq!(c.len(), want.len());
        assert_eq!(c.iter().collect::<Vec<_>>(), want);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(c.get_ref(i).to_value(), *w, "get_ref({i})");
            assert_eq!(c.validity()[i], !w.is_null(), "validity[{i}]");
            if !w.is_null() {
                assert_eq!(c.payload().value(i).to_value(), *w, "payload[{i}]");
            }
        }
        assert_eq!(c.all_valid(), want.iter().all(|w| !w.is_null()));
    }

    #[test]
    fn every_type_reads_the_same_three_ways_after_every_mutation() {
        // Three distinct non-NULL values per type.
        let cases: [(DataType, [Value; 3]); 4] = [
            (
                DataType::Int,
                [Value::Int(-3), Value::Int(1 << 40), 7.into()],
            ),
            (
                DataType::Date,
                [Value::Date(-1), Value::Date(i32::MAX), Value::Date(9000)],
            ),
            (
                DataType::Float,
                [Value::Float(-0.0), Value::Float(f64::NAN), 2.5.into()],
            ),
            (DataType::Str, ["".into(), "caf\u{e9}".into(), "x".into()]),
        ];
        for (data_type, [a, b, c]) in cases {
            let mut col = ColumnData::new(data_type);
            assert_eq!(col.data_type(), data_type);
            let mut want = vec![a.clone(), Value::Null, b.clone(), Value::Null, c.clone()];
            for v in &want {
                col.push(v.clone());
            }
            assert_reads(&col, &want);

            // A NULL becomes a value and a value a NULL.
            col.set(1, c.clone()).unwrap();
            col.set(2, Value::Null).unwrap();
            want[1] = c.clone();
            want[2] = Value::Null;
            assert_reads(&col, &want);

            // Its own rows pushed again, NULLs included.
            let copy = col.clone();
            copy.iter().for_each(|v| col.push(v));
            want.extend(want.clone());
            assert_reads(&col, &want);

            // First, a middle run and the last row go; the rest keep order.
            col.delete_rows(&[0, 3, 4, 9]);
            let want: Vec<Value> = [1, 2, 5, 6, 7, 8].map(|i| want[i].clone()).into();
            assert_reads(&col, &want);
            assert_eq!(col.null_count(), 3);
        }
        // An integer past `i32::MAX` that a date column took in reads back
        // narrowed, and the same all three ways.
        let mut date = ColumnData::new(DataType::Date);
        date.push(Value::Int((1 << 40) + 5));
        assert_reads(&date, &[Value::Date(5)]);
    }
}
