//! Columnar value storage.
//!
//! Each column is a typed `Vec` plus a validity bitmap. Deleted rows are
//! compacted eagerly (tables here are small enough that shifting is cheaper
//! than tombstone bookkeeping, and statistics builders want dense columns).
//!
//! A string column holds one shared, immutable cell (`Arc<str>`) per row.
//! Reading a cell out ([`ColumnData::get`]), appending a column to another
//! ([`ColumnData::extend_from`]) and cloning a table for copy-on-write all
//! bump a reference count instead of copying bytes. Cells are not interned:
//! one `Arc` per distinct value would have every client thread bump the same
//! few counters, which measured slower than a count per row.

use crate::value::{DataType, Value, ValueRef};
use std::sync::{Arc, LazyLock};

/// The padding a NULL leaves in a string column's payload: one empty cell for
/// the whole process, so a NULL allocates nothing.
static NULL_STR: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(""));

/// Storage for one column of a table.
#[derive(Debug, Clone)]
pub struct ColumnData {
    data_type: DataType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    strs: Vec<Arc<str>>,
    /// validity[i] == false means row i is NULL.
    validity: Vec<bool>,
}

impl ColumnData {
    pub fn new(data_type: DataType) -> Self {
        ColumnData {
            data_type,
            ints: Vec::new(),
            floats: Vec::new(),
            strs: Vec::new(),
            validity: Vec::new(),
        }
    }

    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        let mut c = ColumnData::new(data_type);
        match data_type {
            DataType::Int | DataType::Date => c.ints.reserve(cap),
            DataType::Float => c.floats.reserve(cap),
            DataType::Str => c.strs.reserve(cap),
        }
        c.validity.reserve(cap);
        c
    }

    pub fn data_type(&self) -> DataType {
        self.data_type
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
        match (&v, self.data_type) {
            (Value::Null, _) => {
                self.validity.push(false);
                match self.data_type {
                    DataType::Int | DataType::Date => self.ints.push(0),
                    DataType::Float => self.floats.push(0.0),
                    DataType::Str => self.strs.push(Arc::clone(&NULL_STR)),
                }
            }
            (Value::Int(i), DataType::Int) => {
                self.ints.push(*i);
                self.validity.push(true);
            }
            (Value::Date(d), DataType::Date) => {
                self.ints.push(*d as i64);
                self.validity.push(true);
            }
            (Value::Int(i), DataType::Date) => {
                self.ints.push(*i);
                self.validity.push(true);
            }
            (Value::Float(f), DataType::Float) => {
                self.floats.push(*f);
                self.validity.push(true);
            }
            (Value::Int(i), DataType::Float) => {
                self.floats.push(*i as f64);
                self.validity.push(true);
            }
            (Value::Str(_), DataType::Str) => {
                if let Value::Str(s) = v {
                    self.strs.push(s);
                    self.validity.push(true);
                }
            }
            _ => panic!(
                "type mismatch pushing {:?} into {:?} column",
                v.data_type(),
                self.data_type
            ),
        }
    }

    /// Append every row of `other`, which must hold the same `DataType`
    /// (the caller, `Table::append_table`, checks): one bulk copy of the
    /// payload vector and the validity bitmap instead of a `Value` per cell.
    /// String cells are shared with `other`, not copied.
    pub fn extend_from(&mut self, other: &ColumnData) {
        assert_eq!(
            self.data_type, other.data_type,
            "type mismatch extending a {:?} column from a {:?} column",
            self.data_type, other.data_type
        );
        self.ints.extend_from_slice(&other.ints);
        self.floats.extend_from_slice(&other.floats);
        self.strs.extend_from_slice(&other.strs);
        self.validity.extend_from_slice(&other.validity);
    }

    /// Value at row `i`. A string comes back as the stored cell itself
    /// (`Arc::ptr_eq` to it), not as a copy.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity[i] {
            return Value::Null;
        }
        match self.data_type {
            DataType::Int => Value::Int(self.ints[i]),
            DataType::Date => Value::Date(self.ints[i] as i32),
            DataType::Float => Value::Float(self.floats[i]),
            DataType::Str => Value::Str(Arc::clone(&self.strs[i])),
        }
    }

    /// Borrowed view of row `i` — no reference count touched for `Str`
    /// columns. The workhorse of the columnar executor's inner loops.
    pub fn get_ref(&self, i: usize) -> ValueRef<'_> {
        if !self.validity[i] {
            return ValueRef::Null;
        }
        match self.data_type {
            DataType::Int => ValueRef::Int(self.ints[i]),
            DataType::Date => ValueRef::Date(self.ints[i] as i32),
            DataType::Float => ValueRef::Float(self.floats[i]),
            DataType::Str => ValueRef::Str(&self.strs[i]),
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

    /// The raw `i64` payload slice for `Int` and `Date` columns (dates are
    /// stored as days-since-epoch widened to `i64`), or `None` for other
    /// types. Entries at invalid rows are unspecified padding.
    pub fn int_slice(&self) -> Option<&[i64]> {
        match self.data_type {
            DataType::Int | DataType::Date => Some(&self.ints),
            _ => None,
        }
    }

    /// The raw `f64` payload slice for `Float` columns.
    pub fn float_slice(&self) -> Option<&[f64]> {
        match self.data_type {
            DataType::Float => Some(&self.floats),
            _ => None,
        }
    }

    /// The raw string payload slice for `Str` columns: one shared cell per
    /// row, each dereferencing to `&str`.
    pub fn str_slice(&self) -> Option<&[Arc<str>]> {
        match self.data_type {
            DataType::Str => Some(&self.strs),
            _ => None,
        }
    }

    /// Overwrite row `i`. A value this column's type cannot hold comes back
    /// as its type, and the row is left as it was.
    pub fn set(&mut self, i: usize, v: Value) -> Result<(), DataType> {
        let Some(found) = v.data_type() else {
            self.validity[i] = false;
            return Ok(());
        };
        match (v, self.data_type) {
            (Value::Int(x), DataType::Int | DataType::Date) => self.ints[i] = x,
            (Value::Date(d), DataType::Date) => self.ints[i] = d as i64,
            (Value::Float(x), DataType::Float) => self.floats[i] = x,
            (Value::Int(x), DataType::Float) => self.floats[i] = x as f64,
            (Value::Str(s), DataType::Str) => self.strs[i] = s,
            _ => return Err(found),
        }
        self.validity[i] = true;
        Ok(())
    }

    /// Remove the rows whose indices are in `sorted_rows` (ascending, unique)
    /// by compaction.
    pub fn delete_rows(&mut self, sorted_rows: &[usize]) {
        if sorted_rows.is_empty() {
            return;
        }
        let mut drop_iter = sorted_rows.iter().peekable();
        let mut write = 0usize;
        let n = self.len();
        for read in 0..n {
            if drop_iter.peek() == Some(&&read) {
                drop_iter.next();
                continue;
            }
            if write != read {
                self.validity[write] = self.validity[read];
                match self.data_type {
                    DataType::Int | DataType::Date => self.ints[write] = self.ints[read],
                    DataType::Float => self.floats[write] = self.floats[read],
                    DataType::Str => self.strs.swap(write, read),
                }
            }
            write += 1;
        }
        self.validity.truncate(write);
        match self.data_type {
            DataType::Int | DataType::Date => self.ints.truncate(write),
            DataType::Float => self.floats.truncate(write),
            DataType::Str => self.strs.truncate(write),
        }
    }

    /// Iterator over all values including NULLs.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Dense vector of all non-null values (statistics builders use this).
    pub fn non_null_values(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            if self.validity[i] {
                out.push(self.get(i));
            }
        }
        out
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

    #[test]
    fn string_cells_are_shared_not_copied() {
        let mut c = ColumnData::new(DataType::Str);
        for v in ["a".into(), Value::Null, "".into(), Value::Null, "d".into()] {
            c.push(v);
        }
        let cells = c.str_slice().unwrap().to_vec();
        // Reading a cell out hands back the stored allocation.
        let Value::Str(read) = c.get(0) else {
            panic!("row 0 is a string")
        };
        assert!(Arc::ptr_eq(&read, &cells[0]));
        // Every NULL pads with the one process-wide empty cell; a stored
        // empty string is a cell of its own.
        assert!(Arc::ptr_eq(&cells[1], &cells[3]));
        assert!(!Arc::ptr_eq(&cells[1], &cells[2]));
        // Appending a column and compacting after a delete move cells.
        let mut other = ColumnData::new(DataType::Str);
        other.extend_from(&c);
        assert!(Arc::ptr_eq(&other.str_slice().unwrap()[4], &cells[4]));
        c.delete_rows(&[0, 1]);
        let left = c.str_slice().unwrap();
        assert_eq!(c.get(0), Value::Str("".into()));
        assert!(Arc::ptr_eq(&left[0], &cells[2]) && Arc::ptr_eq(&left[2], &cells[4]));
        // A replaced cell leaves the value read earlier as it was.
        c.set(2, "changed".into()).unwrap();
        assert_eq!(&*read, "a");
        assert_eq!(&*cells[4], "d");
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

    #[test]
    fn typed_slices_expose_payloads() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(7));
        c.push(Value::Null);
        assert_eq!(c.int_slice().unwrap()[0], 7);
        assert!(c.float_slice().is_none());
        assert_eq!(c.validity(), &[true, false]);
    }

    #[test]
    fn non_null_values_skips_nulls() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(1));
        c.push(Value::Null);
        c.push(Value::Int(2));
        assert_eq!(c.non_null_values(), vec![Value::Int(1), Value::Int(2)]);
    }
}
