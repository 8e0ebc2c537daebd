//! Tables: a schema, one `ColumnData` per column, and the row-modification
//! counter that drives the auto-update/auto-drop statistics policy (§6 of the
//! paper: "the server maintains a counter for each table that records the
//! number of rows modified since the last time statistics on the table were
//! updated").
//!
//! Columns are held by `Arc` and copied on write, as `Database` holds
//! tables: a clone of a table shares every column, and a write copies only
//! the columns it changes. So the copy a writer makes of a table a reader
//! still holds costs one column for an UPDATE, not the whole table.

use crate::column::ColumnData;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<ColumnData>>,
    /// Rows modified (inserted + deleted + updated) since the counter was
    /// last reset by a statistics update.
    modification_counter: u64,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Arc::new(ColumnData::new(c.data_type)))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            modification_counter: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Where each column's cells live, by ordinal: two tables that agree
    /// at an ordinal share that column. A write copies a column only if
    /// another holder shares it, so a writer that compares these before
    /// and after the write counts the columns it copied.
    pub fn column_addresses(&self) -> Vec<usize> {
        self.columns
            .iter()
            .map(|c| Arc::as_ptr(c) as usize)
            .collect()
    }

    /// Value of column `col` at row `row`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Modification counter since last statistics refresh.
    pub fn modification_counter(&self) -> u64 {
        self.modification_counter
    }

    /// A same-shape empty table: identical name and schema, zero rows, and a
    /// fresh modification counter. Shard-scoped databases start from these so
    /// every shard shares the original's table ids and column ordinals.
    pub fn empty_like(&self) -> Table {
        Table::new(self.name.clone(), self.schema.clone())
    }

    /// Materialize one row (one value per column, in schema order).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        (0..self.schema.len()).map(|c| self.value(row, c)).collect()
    }

    /// Reset the modification counter: a bulk loader marks freshly loaded
    /// data as the baseline.
    pub fn reset_modification_counter(&mut self) {
        self.modification_counter = 0;
    }

    /// Insert one row.
    pub fn insert(&mut self, mut row: Vec<Value>) -> Result<()> {
        self.insert_from(&mut row)
    }

    /// Insert one row, moving its values out of `row`: on success `row` is
    /// left empty with its capacity, so a bulk loader fills the same buffer
    /// again instead of allocating a `Vec` per row. A rejected row is left
    /// as it was.
    pub fn insert_from(&mut self, row: &mut Vec<Value>) -> Result<()> {
        let columns = self.columns.iter_mut().map(Arc::make_mut);
        let counter = &mut self.modification_counter;
        push_row(&self.name, &self.schema, columns, counter, row)
    }

    /// Insert many rows; validates each row before mutating anything for it.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        let mut appender = self.appender();
        for mut row in rows {
            appender.insert_from(&mut row)?;
        }
        Ok(())
    }

    /// The table opened for a bulk load: each column made writable (copied
    /// if shared) once for all the rows the [`Appender`] takes, where
    /// [`Table::insert_from`] does it for every cell.
    pub fn appender(&mut self) -> Appender<'_> {
        Appender {
            name: &self.name,
            schema: &self.schema,
            columns: self.columns.iter_mut().map(Arc::make_mut).collect(),
            modification_counter: &mut self.modification_counter,
        }
    }

    /// This table's rows dealt into `parts` tables: row `r` goes to table
    /// `part_of[r]` (each below `parts`), in row order. Each part is what
    /// inserting its rows' values one by one into an [`Table::empty_like`]
    /// copy makes — its modification counter is its row count, its string
    /// cells are this table's own — but is built a column at a time.
    pub fn split(&self, part_of: &[usize], parts: usize) -> Vec<Table> {
        let mut sizes = vec![0usize; parts];
        for &p in part_of {
            sizes[p] += 1;
        }
        let mut columns: Vec<_> = self
            .columns
            .iter()
            .map(|c| c.split(part_of, &sizes).into_iter())
            .collect();
        sizes
            .iter()
            .map(|&rows| Table {
                name: self.name.clone(),
                schema: self.schema.clone(),
                columns: columns
                    .iter_mut()
                    .filter_map(Iterator::next)
                    .map(Arc::new)
                    .collect(),
                modification_counter: rows as u64,
            })
            .collect()
    }

    /// Delete the given row indices (need not be sorted). Returns the number
    /// of rows deleted.
    pub fn delete_rows(&mut self, mut rows: Vec<usize>) -> usize {
        rows.sort_unstable();
        rows.dedup();
        rows.retain(|&r| r < self.row_count());
        if rows.is_empty() {
            return 0;
        }
        for col in &mut self.columns {
            Arc::make_mut(col).delete_rows(&rows);
        }
        self.modification_counter += rows.len() as u64;
        rows.len()
    }

    /// Update column `col` of each row in `rows` to `value`. A value the
    /// column's type cannot hold is an error and changes nothing: whether it
    /// fits depends on the column alone, so the first row already refuses.
    /// So is a NULL for a column that is not nullable, whatever the rows.
    pub fn update_rows(&mut self, rows: &[usize], col: usize, value: &Value) -> Result<usize> {
        let def = self.schema.column(col);
        if value.is_null() && !def.nullable {
            return Err(StorageError::NullViolation {
                table: self.name.clone(),
                column: def.name.clone(),
            });
        }
        let len = self.row_count();
        if rows.iter().all(|&r| r >= len) {
            return Ok(0);
        }
        let n = Arc::make_mut(&mut self.columns[col])
            .set_rows(rows, value)
            .map_err(|found| type_mismatch(&self.name, &self.schema, col, found))?;
        self.modification_counter += n as u64;
        Ok(n)
    }

    /// Byte width of a full row under the cost model.
    pub fn row_width(&self) -> usize {
        self.schema.row_width()
    }
}

/// Insert `row` into the columns of table `name`, made writable as the
/// iterator reaches them, so a rejected row copies none: the one insert
/// that [`Table::insert_from`] and [`Appender::insert_from`] share. The row
/// must fit `schema`: its arity, no NULL for a column that is not nullable,
/// and each value of its column's type (an integer also fits a float or a
/// date column).
fn push_row<'c>(
    name: &str,
    schema: &Schema,
    columns: impl Iterator<Item = &'c mut ColumnData>,
    counter: &mut u64,
    row: &mut Vec<Value>,
) -> Result<()> {
    if row.len() != schema.len() {
        return Err(StorageError::ArityMismatch {
            expected: schema.len(),
            found: row.len(),
        });
    }
    for (i, v) in row.iter().enumerate() {
        let def = schema.column(i);
        let Some(vt) = v.data_type() else {
            if !def.nullable {
                return Err(StorageError::NullViolation {
                    table: name.to_string(),
                    column: def.name.clone(),
                });
            }
            continue;
        };
        let compatible = vt == def.data_type
            || matches!(
                (vt, def.data_type),
                (
                    crate::value::DataType::Int,
                    crate::value::DataType::Float | crate::value::DataType::Date
                )
            );
        if !compatible {
            return Err(type_mismatch(name, schema, i, vt));
        }
    }
    for (col, v) in columns.zip(row.drain(..)) {
        col.push(v);
    }
    *counter += 1;
    Ok(())
}

fn type_mismatch(
    name: &str,
    schema: &Schema,
    col: usize,
    found: crate::value::DataType,
) -> StorageError {
    let def = schema.column(col);
    StorageError::TypeMismatch {
        table: name.to_string(),
        column: def.name.clone(),
        expected: def.data_type.to_string(),
        found: found.to_string(),
    }
}

/// A table opened for a bulk load ([`Table::appender`]).
pub struct Appender<'a> {
    name: &'a str,
    schema: &'a Schema,
    columns: Vec<&'a mut ColumnData>,
    modification_counter: &'a mut u64,
}

impl Appender<'_> {
    /// [`Table::insert_from`], through the columns opened once.
    pub fn insert_from(&mut self, row: &mut Vec<Value>) -> Result<()> {
        let columns = self.columns.iter_mut().map(|c| &mut **c);
        push_row(
            self.name,
            self.schema,
            columns,
            self.modification_counter,
            row,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn people() -> Table {
        Table::new(
            "people",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("age", DataType::Int).nullable(),
            ]),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = people();
        t.insert(vec![Value::Int(1), "ann".into(), Value::Int(30)])
            .unwrap();
        t.insert(vec![Value::Int(2), "bob".into(), Value::Null])
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, 1), Value::Str("ann".into()));
        assert_eq!(t.value(1, 2), Value::Null);
    }

    #[test]
    fn insert_from_empties_an_accepted_row_and_keeps_a_rejected_one() {
        let mut t = people();
        let mut row = vec![Value::Int(1), "ann".into(), Value::Null];
        t.insert_from(&mut row).unwrap();
        assert!(row.is_empty() && row.capacity() >= 3);
        row.extend([Value::Null, "bob".into(), Value::Int(3)]);
        assert!(t.insert_from(&mut row).is_err());
        assert_eq!(row.len(), 3);
        assert_eq!(t.row_count(), 1);
        assert_eq!(
            t.row_values(0),
            vec![Value::Int(1), "ann".into(), Value::Null]
        );
    }

    #[test]
    fn modification_counter_tracks_dml() {
        let mut t = people();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), "x".into(), Value::Int(i)])
                .unwrap();
        }
        assert_eq!(t.modification_counter(), 5);
        t.delete_rows(vec![0, 2]);
        assert_eq!(t.modification_counter(), 7);
        t.update_rows(&[0], 2, &Value::Int(99)).unwrap();
        assert_eq!(t.modification_counter(), 8);
        t.reset_modification_counter();
        assert_eq!(t.modification_counter(), 0);
    }

    #[test]
    fn a_refused_update_changes_no_row_and_no_counter() {
        let mut t = people();
        t.insert(vec![Value::Int(1), "a".into(), Value::Null])
            .unwrap();
        // Nothing removed, nothing changed.
        assert_eq!(t.delete_rows(vec![7]), 0);
        assert_eq!(t.update_rows(&[7], 2, &Value::Int(1)), Ok(0));
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        // A value the column cannot hold: an error, not a panic.
        let mistyped = t.update_rows(&[0], 2, &"x".into());
        assert!(
            matches!(mistyped, Err(StorageError::TypeMismatch { .. })),
            "{mistyped:?}"
        );
        // A NULL for a column that is not nullable, on a row or on none.
        for rows in [&[0][..], &[]] {
            let null = t.update_rows(rows, 1, &Value::Null);
            assert!(
                matches!(null, Err(StorageError::NullViolation { ref column, .. }) if column == "name"),
                "{null:?}"
            );
        }
        assert_eq!(
            t.row_values(0),
            vec![Value::Int(1), "a".into(), Value::Null]
        );
        assert_eq!(t.modification_counter(), 1);
        // A nullable column takes it.
        t.update_rows(&[0], 2, &Value::Int(41)).unwrap();
        assert_eq!(t.update_rows(&[0], 2, &Value::Null), Ok(1));
        assert_eq!((t.value(0, 2), t.modification_counter()), (Value::Null, 3));
    }

    #[test]
    fn a_clone_shares_its_columns_until_a_write_copies_the_ones_it_changes() {
        let mut t = people();
        for i in 0..4 {
            t.insert(vec![Value::Int(i), "x".into(), Value::Int(i)])
                .unwrap();
        }
        let held = t.clone();
        let shared = |a: &Table, b: &Table| -> Vec<bool> {
            (0..3)
                .map(|c| std::ptr::eq(a.column(c), b.column(c)))
                .collect()
        };
        assert_eq!(shared(&t, &held), [true, true, true]);
        // Nothing written, nothing copied: a rejected row included.
        assert_eq!(t.update_rows(&[9], 2, &Value::Int(1)), Ok(0));
        assert_eq!(t.delete_rows(vec![9]), 0);
        assert!(t
            .insert(vec![Value::Int(1), Value::Null, Value::Null])
            .is_err());
        assert_eq!(shared(&t, &held), [true, true, true]);
        t.update_rows(&[0, 2], 2, &Value::Int(7)).unwrap();
        assert_eq!(shared(&t, &held), [true, true, false]);
        t.delete_rows(vec![1]);
        assert_eq!(shared(&t, &held), [false, false, false]);
        assert_eq!((held.row_count(), held.value(0, 2)), (4, Value::Int(0)));
        assert_eq!((t.row_count(), t.value(0, 2)), (3, Value::Int(7)));
    }

    #[test]
    fn an_appender_inserts_as_insert_from_does() {
        let mut t = people();
        t.insert(vec![Value::Int(0), "a".into(), Value::Null])
            .unwrap();
        let held = t.clone();
        let mut appender = t.appender();
        let mut row = vec![Value::Int(1), "b".into(), Value::Int(2)];
        appender.insert_from(&mut row).unwrap();
        assert!(row.is_empty());
        let mut bad = vec![Value::Null, "c".into(), Value::Null];
        let err = appender.insert_from(&mut bad).unwrap_err();
        assert!(matches!(err, StorageError::NullViolation { .. }), "{err}");
        assert_eq!(bad.len(), 3, "a rejected row is left as it was");
        assert_eq!((t.row_count(), t.modification_counter()), (2, 2));
        assert_eq!(
            t.row_values(1),
            vec![Value::Int(1), "b".into(), Value::Int(2)]
        );
        assert_eq!(
            held.row_count(),
            1,
            "the columns a clone shared were copied"
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = people();
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = people();
        let err = t
            .insert(vec!["oops".into(), "ann".into(), Value::Int(1)])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn null_violation_rejected() {
        let mut t = people();
        let err = t
            .insert(vec![Value::Null, "ann".into(), Value::Int(1)])
            .unwrap_err();
        assert!(matches!(err, StorageError::NullViolation { .. }));
    }

    #[test]
    fn delete_out_of_range_ignored() {
        let mut t = people();
        t.insert(vec![Value::Int(1), "a".into(), Value::Null])
            .unwrap();
        assert_eq!(t.delete_rows(vec![5, 0, 0]), 1);
        assert_eq!(t.row_count(), 0);
    }
}
