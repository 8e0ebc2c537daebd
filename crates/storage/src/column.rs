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
//! Reading a cell out ([`ColumnData::get`]), appending a column to another
//! ([`ColumnData::extend_from`]) and cloning a table for copy-on-write all
//! bump a reference count instead of copying bytes. Cells are not interned:
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
//! (so a copy-on-write) carries them. A column that is only appended to and
//! never built on, such as a gathered copy of a partitioned table, never has
//! them.
//!
//! The executor reads codes that exist ([`ColumnData::made_str_codes`]) and
//! answers a string `=`/`<>` on them, but never makes them: making them on
//! demand held 6 % more peak RSS on the benchmark's `online-mixed` workload
//! and ran no faster on `steady-simple`.

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

    /// Code the cells `from` appends, through `from`'s own codes when it has
    /// them: one dictionary probe per distinct string rather than per row.
    fn extend(&mut self, cells: &[Arc<str>], from: Option<&StrCodes>) {
        let Some(from) = from else {
            for s in cells {
                let c = self.code(s);
                self.codes.push(c);
            }
            return;
        };
        let mut mine = vec![u32::MAX; from.dict.len()];
        for (s, &theirs) in cells.iter().zip(&from.codes) {
            let slot = &mut mine[theirs as usize];
            if *slot == u32::MAX {
                *slot = self.code(s);
            }
            self.codes.push(*slot);
        }
    }
}

/// Storage for one column of a table.
#[derive(Debug, Clone)]
pub struct ColumnData {
    payload: Payload,
    /// validity[i] == false means row i is NULL.
    validity: Vec<bool>,
    /// A string column's codes once a reader has asked for them; boxed, so
    /// that every other column pays one pointer and a once-flag for them.
    codes: OnceLock<Box<StrCodes>>,
}

// The payload (a tag and one `Vec`), the bitmap and the boxed string codes
// (16 bytes): a second payload vector would show here, as a wider cell shows
// in `Value`'s assertion.
const _: () = assert!(std::mem::size_of::<ColumnData>() == 72);

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

impl ColumnData {
    pub fn new(data_type: DataType) -> Self {
        ColumnData {
            payload: match data_type {
                DataType::Int => Payload::Int(Vec::new()),
                DataType::Date => Payload::Date(Vec::new()),
                DataType::Float => Payload::Float(Vec::new()),
                DataType::Str => Payload::Str(Vec::new()),
            },
            validity: Vec::new(),
            codes: OnceLock::new(),
        }
    }

    pub fn data_type(&self) -> DataType {
        match self.payload {
            Payload::Int(_) => DataType::Int,
            Payload::Date(_) => DataType::Date,
            Payload::Float(_) => DataType::Float,
            Payload::Str(_) => DataType::Str,
        }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append a value. The caller (Table) is responsible for type checking;
    /// this method panics on a type mismatch since it indicates a bug above.
    pub fn push(&mut self, v: Value) {
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
            (_, v) => panic!(
                "type mismatch pushing {:?} into {:?} column",
                v.data_type(),
                self.data_type()
            ),
        }
        self.validity.push(valid);
        if let (Some(codes), Payload::Str(xs)) = (self.codes.get_mut(), &self.payload) {
            let c = codes.code(&xs[xs.len() - 1]);
            codes.codes.push(c);
        }
    }

    /// Append every row of `other`, which must hold the same `DataType`
    /// (the caller, `Table::append_table`, checks): one bulk copy of the
    /// payload vector and the validity bitmap instead of a `Value` per cell.
    /// String cells are shared with `other`, not copied; if this column has
    /// its codes, the appended rows are coded too, and not otherwise.
    pub fn extend_from(&mut self, other: &ColumnData) {
        match (&mut self.payload, &other.payload) {
            (Payload::Int(xs), Payload::Int(from)) | (Payload::Date(xs), Payload::Date(from)) => {
                xs.extend_from_slice(from)
            }
            (Payload::Float(xs), Payload::Float(from)) => xs.extend_from_slice(from),
            (Payload::Str(xs), Payload::Str(from)) => {
                xs.extend_from_slice(from);
                if let Some(codes) = self.codes.get_mut() {
                    codes.extend(from, other.codes.get().map(|c| &**c));
                }
            }
            _ => panic!(
                "type mismatch extending a {:?} column from a {:?} column",
                self.data_type(),
                other.data_type()
            ),
        }
        self.validity.extend_from_slice(&other.validity);
        self.drop_stale_codes();
    }

    /// Value at row `i`. A string comes back as the stored cell itself
    /// (`Arc::ptr_eq` to it), not as a copy.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity[i] {
            return Value::Null;
        }
        match &self.payload {
            Payload::Int(xs) => Value::Int(xs[i]),
            Payload::Date(xs) => Value::Date(xs[i] as i32),
            Payload::Float(xs) => Value::Float(xs[i]),
            Payload::Str(xs) => Value::Str(Arc::clone(&xs[i])),
        }
    }

    /// Borrowed view of row `i` — no reference count touched for `Str`
    /// columns. The workhorse of the columnar executor's inner loops.
    pub fn get_ref(&self, i: usize) -> ValueRef<'_> {
        if self.validity[i] {
            self.payload().value(i)
        } else {
            ValueRef::Null
        }
    }

    /// True when row `i` is non-NULL.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity[i]
    }

    /// The validity bitmap: `validity()[i] == false` means row `i` is NULL.
    pub fn validity(&self) -> &[bool] {
        &self.validity
    }

    /// True when no entry is NULL. One vectorizable pass; predicate kernels
    /// use it to pick the null-free inner loop for a whole column.
    pub fn all_valid(&self) -> bool {
        self.validity.iter().all(|&v| v)
    }

    /// The typed payload, for a reader that hoists the type dispatch out of
    /// its row loop.
    pub fn payload(&self) -> PayloadRef<'_> {
        match &self.payload {
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
        let Payload::Str(xs) = &self.payload else {
            return None;
        };
        let codes = self.codes.get_or_init(|| Box::new(StrCodes::of(xs)));
        Some((&codes.codes, codes.dict.len()))
    }

    /// The codes [`ColumnData::str_codes`] made earlier, with the code of the
    /// string `s` among them (`None` when no cell equal to `s` was ever
    /// coded); `None` if this is not a string column or its codes were never
    /// made. It never makes them: a reader that only compares against a
    /// constant uses codes when a statistic build left them, and the cells
    /// otherwise.
    pub fn made_str_codes(&self, s: &str) -> Option<(&[u32], Option<u32>)> {
        let codes = self.codes.get()?;
        Some((&codes.codes, codes.dict.get(s).copied()))
    }

    /// Forget codes that [`stale`] says have outgrown the column.
    fn drop_stale_codes(&mut self) {
        if let Some(codes) = self.codes.get() {
            if stale(codes.dict.len(), self.len()) {
                self.codes = OnceLock::new();
            }
        }
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

    /// Remove the rows whose indices are in `sorted_rows` (ascending, unique)
    /// by compaction.
    pub fn delete_rows(&mut self, sorted_rows: &[usize]) {
        if sorted_rows.is_empty() {
            return;
        }
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

    /// Iterator over all values including NULLs.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Count of NULL entries.
    pub fn null_count(&self) -> usize {
        self.validity.iter().filter(|v| !**v).count()
    }
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
        // Appending a column and compacting after a delete move cells.
        let mut other = ColumnData::new(DataType::Str);
        other.extend_from(&c);
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

            // Appended to itself, NULLs included.
            let copy = col.clone();
            col.extend_from(&copy);
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

    #[test]
    #[should_panic(expected = "type mismatch extending")]
    fn extend_from_another_type_panics() {
        ColumnData::new(DataType::Int).extend_from(&ColumnData::new(DataType::Date));
    }
}
