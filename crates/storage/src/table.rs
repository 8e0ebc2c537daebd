//! Tables: a schema, one `ColumnData` per column, and the row-modification
//! counter that drives the auto-update/auto-drop statistics policy (§6 of the
//! paper: "the server maintains a counter for each table that records the
//! number of rows modified since the last time statistics on the table were
//! updated").

use crate::column::ColumnData;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
    /// Rows modified (inserted + deleted + updated) since the counter was
    /// last reset by a statistics update.
    modification_counter: u64,
    /// Bumped by every mutation, the counter reset included, and never
    /// rewound: along one table's history, equal versions mean equal rows.
    version: u64,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new(c.data_type))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            modification_counter: 0,
            version: 0,
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

    /// Value of column `col` at row `row`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Modification counter since last statistics refresh.
    pub fn modification_counter(&self) -> u64 {
        self.modification_counter
    }

    /// A number that changes whenever the rows do. Unlike the modification
    /// counter it cannot be reset, so a copy of the rows taken at version `v`
    /// is current exactly while the table still reads `v`. A clone starts at
    /// its source's version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A same-shape empty table: identical name and schema, zero rows, and a
    /// fresh modification counter. Shard-scoped databases start from these so
    /// every shard shares the original's table ids and column ordinals.
    pub fn empty_like(&self) -> Table {
        Table::new(self.name.clone(), self.schema.clone())
    }

    /// Make room for `rows` more rows in every column, so that appending
    /// that many moves no column.
    pub fn reserve(&mut self, rows: usize) {
        for column in &mut self.columns {
            column.reserve(rows);
        }
    }

    /// Materialize one row (one value per column, in schema order).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        (0..self.schema.len()).map(|c| self.value(row, c)).collect()
    }

    /// Reset the modification counter: a bulk loader marks freshly loaded
    /// data as the baseline.
    pub fn reset_modification_counter(&mut self) {
        self.modification_counter = 0;
        self.version += 1;
    }

    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let def = self.schema.column(i);
            let Some(vt) = v.data_type() else {
                if !def.nullable {
                    return Err(StorageError::NullViolation {
                        table: self.name.clone(),
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
                return Err(self.type_mismatch(i, vt));
            }
        }
        Ok(())
    }

    fn type_mismatch(&self, col: usize, found: crate::value::DataType) -> StorageError {
        let def = self.schema.column(col);
        StorageError::TypeMismatch {
            table: self.name.clone(),
            column: def.name.clone(),
            expected: def.data_type.to_string(),
            found: found.to_string(),
        }
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
        self.check_row(row)?;
        for (col, v) in self.columns.iter_mut().zip(row.drain(..)) {
            col.push(v);
        }
        self.modification_counter += 1;
        self.version += 1;
        Ok(())
    }

    /// Append every row of `other`, in order, column by column. The schemas
    /// must be equal, which is also why no row needs checking. Counts as
    /// `other.row_count()` modifications, as inserting the rows one by one
    /// would.
    pub fn append_table(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                other: other.name.clone(),
            });
        }
        for (col, from) in self.columns.iter_mut().zip(&other.columns) {
            col.extend_from(from);
        }
        self.modification_counter += other.row_count() as u64;
        self.version += 1;
        Ok(())
    }

    /// Insert many rows; validates each row before mutating anything for it.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Delete the given row indices (need not be sorted). Returns the number
    /// of rows deleted.
    pub fn delete_rows(&mut self, mut rows: Vec<usize>) -> usize {
        rows.sort_unstable();
        rows.dedup();
        rows.retain(|&r| r < self.row_count());
        for col in &mut self.columns {
            col.delete_rows(&rows);
        }
        self.modification_counter += rows.len() as u64;
        self.version += u64::from(!rows.is_empty());
        rows.len()
    }

    /// Update column `col` of each row in `rows` to `value`. A value the
    /// column's type cannot hold is an error and changes nothing: whether it
    /// fits depends on the column alone, so the first row already refuses.
    pub fn update_rows(&mut self, rows: &[usize], col: usize, value: &Value) -> Result<usize> {
        let n = self.columns[col]
            .set_rows(rows, value)
            .map_err(|found| self.type_mismatch(col, found))?;
        self.modification_counter += n as u64;
        self.version += u64::from(n > 0);
        Ok(n)
    }

    /// Byte width of a full row under the cost model.
    pub fn row_width(&self) -> usize {
        self.schema.row_width()
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
    fn version_moves_with_the_rows_and_is_never_rewound() {
        let mut t = people();
        assert_eq!(t.version(), 0);
        t.insert(vec![Value::Int(1), "a".into(), Value::Null])
            .unwrap();
        let after_insert = t.version();
        assert!(after_insert > 0);
        // Nothing removed, nothing changed: the rows are what they were.
        assert_eq!(t.delete_rows(vec![7]), 0);
        assert_eq!(t.update_rows(&[7], 2, &Value::Int(1)), Ok(0));
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        // A value the column cannot hold: an error, not a panic, and no row,
        // counter or version moves.
        let mistyped = t.update_rows(&[0], 2, &"x".into());
        assert!(
            matches!(mistyped, Err(StorageError::TypeMismatch { .. })),
            "{mistyped:?}"
        );
        assert_eq!(t.value(0, 2), Value::Null);
        assert_eq!((t.version(), t.modification_counter()), (after_insert, 1));
        t.update_rows(&[0], 2, &Value::Int(41)).unwrap();
        let after_update = t.version();
        assert!(after_update > after_insert);
        t.reset_modification_counter();
        let after_reset = t.version();
        assert!(
            after_reset > after_update,
            "the reset rewinds the counter only"
        );
        assert_eq!(t.clone().version(), after_reset);
        t.delete_rows(vec![0]);
        assert!(t.version() > after_reset);
    }

    /// One column of every `DataType`, all nullable.
    fn all_types(name: &str) -> Table {
        Table::new(
            name,
            Schema::new(vec![
                ColumnDef::new("i", DataType::Int).nullable(),
                ColumnDef::new("f", DataType::Float).nullable(),
                ColumnDef::new("s", DataType::Str).nullable(),
                ColumnDef::new("d", DataType::Date).nullable(),
            ]),
        )
    }

    #[test]
    fn append_table_appends_every_row_of_every_type() {
        let mut source = all_types("slice");
        source
            .insert(vec![
                Value::Int(-4),
                Value::Float(2.5),
                "text".into(),
                Value::Date(9000),
            ])
            .unwrap();
        source
            .insert(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        source
            .insert(vec![Value::Int(7), Value::Null, "".into(), Value::Date(-1)])
            .unwrap();

        let mut target = all_types("gathered");
        target
            .insert(vec![
                Value::Null,
                Value::Float(0.0),
                "first".into(),
                Value::Null,
            ])
            .unwrap();
        let first_row = target.row_values(0);
        let (counter, version) = (target.modification_counter(), target.version());

        target.append_table(&source).unwrap();
        target.append_table(&all_types("empty")).unwrap();

        assert_eq!(target.row_count(), 1 + source.row_count());
        assert_eq!(target.row_values(0), first_row);
        for r in 0..source.row_count() {
            assert_eq!(target.row_values(1 + r), source.row_values(r), "row {r}");
        }
        assert_eq!(
            target.modification_counter(),
            counter + source.row_count() as u64,
            "as many modifications as rows appended"
        );
        assert!(target.version() > version);
        assert_eq!(source.row_count(), 3, "the source is only read");
    }

    #[test]
    fn append_table_rejects_another_schema() {
        let mut t = people();
        let err = t.append_table(&all_types("other")).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
        assert_eq!((t.row_count(), t.version()), (0, 0));
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
