//! The database catalog: tables by id/name plus index metadata.

use crate::error::StorageError;
use crate::index::Index;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// An in-memory database: a set of tables and their indexes.
///
/// Tables are held by `Arc` and copied on write: a clone of the database, or
/// a table handed out by [`Database::shared_table`], shares the rows until
/// one side next mutates that table, and the mutating side pays one
/// `Table::clone` then. Every holder therefore sees the value semantics a
/// deep copy would give.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: Vec<Arc<Table>>,
    indexes: Vec<Index>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a table; returns its id.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<TableId> {
        let name = name.into();
        if self.table_id(&name).is_some() {
            return Err(StorageError::DuplicateTable(name));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Arc::new(Table::new(name, schema)));
        Ok(id)
    }

    /// The table named `name`, in any letter case. A database holds a
    /// handful of tables, so this is a scan that allocates nothing.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .position(|t| t.name().eq_ignore_ascii_case(name))
            .map(|i| TableId(i as u32))
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        Arc::make_mut(&mut self.tables[id.0 as usize])
    }

    /// The table's `Arc`: a snapshot of its rows as they are now, at the
    /// cost of a reference count.
    pub fn shared_table(&self, id: TableId) -> Arc<Table> {
        Arc::clone(&self.tables[id.0 as usize])
    }

    /// Whether some other holder (a clone of this database, or a
    /// [`Database::shared_table`] caller) shares `id`'s table, so the next
    /// [`Database::table_mut`] copies it.
    pub fn is_shared(&self, id: TableId) -> bool {
        Arc::strong_count(&self.tables[id.0 as usize]) > 1
    }

    /// Put `table` in `id`'s place, sharing it with whoever else holds it.
    pub fn set_shared_table(&mut self, id: TableId, table: Arc<Table>) {
        self.tables[id.0 as usize] = table;
    }

    /// Like [`Database::table`], but returns a typed error instead of
    /// panicking when `id` is stale or from another database.
    pub fn try_table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.0 as usize)
            .map(Arc::as_ref)
            .ok_or(StorageError::UnknownTableId(id.0))
    }

    /// Like [`Database::table_mut`], but returns a typed error instead of
    /// panicking when `id` is stale or from another database.
    pub fn try_table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(id.0 as usize)
            .map(Arc::make_mut)
            .ok_or(StorageError::UnknownTableId(id.0))
    }

    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        self.table_id(name)
            .map(|id| self.table(id))
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// All table ids, in creation order.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// An empty structural clone for shard-scoped databases: every table and
    /// index exists under the same [`TableId`] and ordinals, but no table
    /// holds rows. A sharded serving layer fills in only the tables a shard
    /// owns, so bound statements, statistics, and plans refer to identical
    /// ids on every shard (and on the original database).
    pub fn schema_skeleton(&self) -> Database {
        Database {
            tables: self
                .tables
                .iter()
                .map(|t| Arc::new(t.empty_like()))
                .collect(),
            indexes: self.indexes.clone(),
        }
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Create an index over `columns` (ordinals) of `table`.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        table: TableId,
        columns: Vec<usize>,
    ) -> Result<&Index> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(StorageError::DuplicateIndex(name));
        }
        let slot = self.indexes.len();
        self.indexes.push(Index::new(name, table, columns));
        Ok(&self.indexes[slot])
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Indexes on the given table.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.indexes.iter().filter(move |i| i.table == table)
    }

    /// Total rows across all tables (used for scale diagnostics).
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.row_count()).sum()
    }

    /// A point-in-time snapshot of every table's row-modification counter,
    /// keyed by table id. `BTreeMap` so iteration order (and anything
    /// derived from it, e.g. staleness scans) is deterministic.
    pub fn modification_snapshot(&self) -> std::collections::BTreeMap<TableId, u64> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t.modification_counter()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{DataType, Value};

    fn db_with_table() -> (Database, TableId) {
        let mut db = Database::new();
        let id = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        (db, id)
    }

    #[test]
    fn create_and_lookup_table() {
        let (db, id) = db_with_table();
        assert_eq!(db.table_id("T"), Some(id));
        assert_eq!(db.table(id).name(), "t");
        assert!(db.table_by_name("missing").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut db, _) = db_with_table();
        let err = db
            .create_table("T", Schema::new(vec![ColumnDef::new("x", DataType::Int)]))
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateTable(_)));
    }

    #[test]
    fn indexes_on_filters_by_table() {
        let (mut db, id) = db_with_table();
        let id2 = db
            .create_table("u", Schema::new(vec![ColumnDef::new("x", DataType::Int)]))
            .unwrap();
        db.create_index("i1", id, vec![0]).unwrap();
        db.create_index("i2", id2, vec![0]).unwrap();
        assert_eq!(db.indexes_on(id).count(), 1);
        assert_eq!(db.indexes().len(), 2);
        assert!(db.create_index("i1", id, vec![1]).is_err());
    }

    #[test]
    fn modification_snapshot_covers_all_tables() {
        let (mut db, id) = db_with_table();
        let id2 = db
            .create_table("u", Schema::new(vec![ColumnDef::new("x", DataType::Int)]))
            .unwrap();
        db.table_mut(id)
            .insert(vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let snap = db.modification_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&id], 1);
        assert_eq!(snap[&id2], 0);
    }

    #[test]
    fn a_write_never_reaches_another_holder_of_the_table() {
        let (mut db, id) = db_with_table();
        db.table_mut(id)
            .insert(vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let copy = db.clone();
        let snapshot = db.shared_table(id);
        assert!(
            std::ptr::eq(copy.table(id), db.table(id)),
            "shared, not copied"
        );

        db.table_mut(id)
            .insert(vec![Value::Int(3), Value::Int(4)])
            .unwrap();
        db.try_table_mut(id).unwrap().delete_rows(vec![0]);

        assert_eq!(
            db.table(id).row_values(0),
            vec![Value::Int(3), Value::Int(4)]
        );
        for held in [copy.table(id), &*snapshot] {
            assert_eq!(held.row_count(), 1);
            assert_eq!(held.row_values(0), vec![Value::Int(1), Value::Int(2)]);
        }
        // And the other way round: a write through the copy stays there.
        let mut copy = copy;
        copy.table_mut(id)
            .update_rows(&[0], 1, &Value::Int(9))
            .unwrap();
        assert_eq!(snapshot.value(0, 1), Value::Int(2));
        assert_eq!(db.table(id).row_count(), 1);
    }

    #[test]
    fn set_shared_table_shares_the_rows_it_is_given() {
        let (mut db, id) = db_with_table();
        db.table_mut(id)
            .insert(vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let mut other = db.schema_skeleton();
        assert_eq!(other.table(id).row_count(), 0);
        other.set_shared_table(id, db.shared_table(id));
        assert!(std::ptr::eq(other.table(id), db.table(id)));
        assert_eq!(
            other.table(id).modification_counter(),
            db.table(id).modification_counter()
        );
    }

    #[test]
    fn total_rows_sums_tables() {
        let (mut db, id) = db_with_table();
        db.table_mut(id)
            .insert(vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(db.total_rows(), 1);
    }
}
