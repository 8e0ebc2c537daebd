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
///
/// An entry is usually one table. It can also be a *chain*: same-schema
/// slices read in order as one table ([`Database::set_slices`]), which is
/// how a sharded cluster's cross-shard read holds a partitioned table — the
/// shards' own slices, shared, not copied. A chain's row count is its
/// slices' sum; its rows are read through [`Database::slices`] only, and it
/// takes no writes: every accessor of one whole [`Table`] refuses a chain
/// ([`StorageError::ChainedTable`]), so no reader gets part of it.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: Vec<Entry>,
    indexes: Vec<Index>,
}

/// One table's rows: the table itself, or a chain of two or more slices,
/// all of one schema.
#[derive(Debug, Clone)]
enum Entry {
    One(Arc<Table>),
    Chain(Arc<[Arc<Table>]>),
}

/// The bits of a row ordinal that number the row within its slice
/// ([`Slices::locate`]); the bits above number the slice.
const ROW_BITS: u32 = usize::BITS / 2;

/// A database entry's rows, borrowed: its slices in order, read as one
/// table. Row `r` of slice `s` is the entry's row ordinal `s << ROW_BITS |
/// r` — the slice's offset plus the row — so ordinals ascend in slice
/// order, and a plain table (one slice) numbers its rows as it always did.
/// A slice holds fewer than `2^(usize::BITS / 2)` rows, far past what
/// memory holds.
#[derive(Debug, Clone, Copy)]
pub struct Slices<'a> {
    tables: &'a [Arc<Table>],
}

impl<'a> Slices<'a> {
    /// The slices, in order; never empty.
    pub fn tables(&self) -> &'a [Arc<Table>] {
        self.tables
    }

    /// The schema every slice has.
    pub fn schema(&self) -> &'a Schema {
        self.tables[0].schema()
    }

    /// Rows of every slice together.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.row_count()).sum()
    }

    /// The row ordinal of row `row` of slice `slice`.
    #[inline]
    pub fn ordinal(slice: usize, row: usize) -> usize {
        slice << ROW_BITS | row
    }

    /// The slice holding row ordinal `ordinal`, and the row within it.
    #[inline]
    pub fn locate(ordinal: usize) -> (usize, usize) {
        (ordinal >> ROW_BITS, ordinal & ((1 << ROW_BITS) - 1))
    }

    /// Every row ordinal, in order: a plain table's `0..row_count()`.
    pub fn ordinals(&self) -> Vec<usize> {
        let mut all = Vec::with_capacity(self.row_count());
        for (s, t) in self.tables.iter().enumerate() {
            all.extend((0..t.row_count()).map(|r| Slices::ordinal(s, r)));
        }
        all
    }
}

impl Entry {
    /// The first slice: the name and schema of the whole.
    fn first(&self) -> &Arc<Table> {
        match self {
            Entry::One(t) => t,
            Entry::Chain(c) => &c[0],
        }
    }

    /// The table itself; a chain is not one table.
    fn one(&self) -> Result<&Arc<Table>> {
        match self {
            Entry::One(t) => Ok(t),
            Entry::Chain(c) => Err(StorageError::ChainedTable(c[0].name().to_string())),
        }
    }

    fn slices(&self) -> Slices<'_> {
        match self {
            Entry::One(t) => Slices {
                tables: std::slice::from_ref(t),
            },
            Entry::Chain(c) => Slices { tables: c },
        }
    }

    /// The table to write, copied first if someone else holds it; a chain
    /// takes no writes.
    fn make_mut(&mut self) -> Result<&mut Table> {
        match self {
            Entry::One(t) => Ok(Arc::make_mut(t)),
            Entry::Chain(c) => Err(StorageError::ChainedTable(c[0].name().to_string())),
        }
    }
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
        self.tables
            .push(Entry::One(Arc::new(Table::new(name, schema))));
        Ok(id)
    }

    /// The table named `name`, in any letter case. A database holds a
    /// handful of tables, so this is a scan that allocates nothing.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .position(|t| t.first().name().eq_ignore_ascii_case(name))
            .map(|i| TableId(i as u32))
    }

    /// The table `id`. Panics on a chain, as on a stale id; see
    /// [`Database::try_table`].
    pub fn table(&self, id: TableId) -> &Table {
        match self.try_table(id) {
            Ok(table) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// The schema of table `id`, whether it is one table or a chain.
    pub fn schema(&self, id: TableId) -> &Schema {
        self.tables[id.0 as usize].first().schema()
    }

    /// The table to write. Panics on a chain, as on a stale id; see
    /// [`Database::try_table_mut`].
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        match self.try_table_mut(id) {
            Ok(table) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// Every slice of `id`'s rows, in order: the table alone unless it is a
    /// chain.
    pub fn slices(&self, id: TableId) -> Slices<'_> {
        self.tables[id.0 as usize].slices()
    }

    /// Like [`Database::slices`], but returns a typed error instead of
    /// panicking when `id` is stale or from another database.
    pub fn try_slices(&self, id: TableId) -> Result<Slices<'_>> {
        self.tables
            .get(id.0 as usize)
            .map(Entry::slices)
            .ok_or(StorageError::UnknownTableId(id.0))
    }

    /// The table's `Arc`: a snapshot of its rows as they are now, at the
    /// cost of a reference count. Panics on a chain, as [`Database::table`]
    /// does.
    pub fn shared_table(&self, id: TableId) -> Arc<Table> {
        match self.tables[id.0 as usize].one() {
            Ok(table) => Arc::clone(table),
            Err(e) => panic!("{e}"),
        }
    }

    /// Whether some other holder (a clone of this database, or a
    /// [`Database::shared_table`] caller) shares `id`'s table, so the next
    /// [`Database::table_mut`] copies it. A chain's slices always are.
    pub fn is_shared(&self, id: TableId) -> bool {
        match &self.tables[id.0 as usize] {
            Entry::One(t) => Arc::strong_count(t) > 1,
            Entry::Chain(_) => true,
        }
    }

    /// Put `table` in `id`'s place, sharing it with whoever else holds it.
    pub fn set_shared_table(&mut self, id: TableId, table: Arc<Table>) {
        self.tables[id.0 as usize] = Entry::One(table);
    }

    /// Put the chain of `slices` in `id`'s place, each shared with whoever
    /// else holds it: from then on `id`'s rows are the slices' rows in
    /// order, and nothing is copied. One slice is [`set_shared_table`]; none
    /// leaves `id` an empty table.
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if a slice's schema is not `id`'s;
    /// the entry is left as it was.
    ///
    /// [`set_shared_table`]: Database::set_shared_table
    pub fn set_slices(&mut self, id: TableId, mut slices: Vec<Arc<Table>>) -> Result<()> {
        let entry = self.tables[id.0 as usize].first();
        if let Some(other) = slices.iter().find(|s| s.schema() != entry.schema()) {
            return Err(StorageError::SchemaMismatch {
                table: entry.name().to_string(),
                other: other.name().to_string(),
            });
        }
        self.tables[id.0 as usize] = match slices.len() {
            0 => Entry::One(Arc::new(entry.empty_like())),
            1 => Entry::One(slices.swap_remove(0)),
            _ => Entry::Chain(slices.into()),
        };
        Ok(())
    }

    /// Like [`Database::table`], but returns a typed error instead of
    /// panicking when `id` is stale or from another database, or is a chain
    /// ([`StorageError::ChainedTable`]).
    pub fn try_table(&self, id: TableId) -> Result<&Table> {
        let entry = self
            .tables
            .get(id.0 as usize)
            .ok_or(StorageError::UnknownTableId(id.0))?;
        entry.one().map(|t| &**t)
    }

    /// Like [`Database::table_mut`], but returns a typed error instead of
    /// panicking when `id` is stale or from another database, or is a chain
    /// ([`StorageError::ChainedTable`]).
    pub fn try_table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(id.0 as usize)
            .ok_or(StorageError::UnknownTableId(id.0))?
            .make_mut()
    }

    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        let id = self
            .table_id(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        self.try_table(id)
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
                .map(|t| Entry::One(Arc::new(t.first().empty_like())))
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
        self.tables.iter().map(|t| t.slices().row_count()).sum()
    }

    /// A point-in-time snapshot of every table's row-modification counter,
    /// keyed by table id. `BTreeMap` so iteration order (and anything
    /// derived from it, e.g. staleness scans) is deterministic.
    pub fn modification_snapshot(&self) -> std::collections::BTreeMap<TableId, u64> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let counter = t.slices().tables().iter().map(|s| s.modification_counter());
                (TableId(i as u32), counter.sum())
            })
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
    fn a_chain_reads_its_slices_in_order_and_takes_no_writes() {
        let (mut db, id) = db_with_table();
        let slice = |rows: std::ops::Range<i64>| {
            let mut t = db.table(id).empty_like();
            for a in rows {
                t.insert(vec![Value::Int(a), Value::Int(-a)]).unwrap();
            }
            Arc::new(t)
        };
        let slices = vec![slice(0..3), slice(3..3), slice(3..8)];
        let mut chained = db.schema_skeleton();
        chained.set_slices(id, slices.clone()).unwrap();

        let view = chained.slices(id);
        assert_eq!(view.tables().len(), 3);
        assert!(std::iter::zip(view.tables(), &slices).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!((view.row_count(), chained.total_rows()), (8, 8));
        assert_eq!(chained.modification_snapshot()[&id], 8);
        // Ordinals ascend in slice order and name every row once.
        let ordinals = view.ordinals();
        assert!(ordinals.windows(2).all(|w| w[0] < w[1]));
        for (a, &ordinal) in ordinals.iter().enumerate() {
            let (s, r) = Slices::locate(ordinal);
            assert_eq!(Slices::ordinal(s, r), ordinal);
            assert_eq!(view.tables()[s].value(r, 0), Value::Int(a as i64));
        }
        assert_eq!(chained.schema(id), db.schema(id));
        assert_eq!(chained.table_id("T"), Some(id), "the first slice names it");

        // No accessor of one whole table hands out part of a chain.
        let refused = StorageError::ChainedTable("t".into());
        assert_eq!(chained.try_table(id).unwrap_err(), refused);
        assert_eq!(chained.table_by_name("t").unwrap_err(), refused);
        assert_eq!(chained.try_table_mut(id).unwrap_err(), refused);
        let panic_of = |whole: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(whole));
            payload.unwrap_err().downcast_ref::<String>().cloned()
        };
        let message = Some(refused.to_string());
        assert_eq!(panic_of(&|| _ = chained.table(id)), message);
        assert_eq!(panic_of(&|| _ = chained.shared_table(id)), message);
        assert!(chained.is_shared(id));
        assert_eq!(slices[2].row_count(), 5, "no slice was written");

        // One slice is a plain table again; none is an empty one.
        chained
            .set_slices(id, vec![Arc::clone(&slices[0])])
            .unwrap();
        assert!(std::ptr::eq(chained.table(id), &*slices[0]));
        assert!(chained.slices(id).ordinals().into_iter().eq(0..3));
        chained.set_slices(id, Vec::new()).unwrap();
        assert_eq!(chained.slices(id).row_count(), 0);
        chained
            .try_table_mut(id)
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        db.table_mut(id)
            .insert(vec![Value::Int(1), Value::Int(1)])
            .unwrap();
    }

    #[test]
    fn a_slice_of_another_schema_is_refused() {
        let (mut db, id) = db_with_table();
        let other = Arc::new(Table::new(
            "u",
            Schema::new(vec![ColumnDef::new("x", DataType::Int)]),
        ));
        let err = db
            .set_slices(id, vec![db.shared_table(id), other])
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }), "{err}");
        assert!(db.try_table_mut(id).is_ok(), "the entry is as it was");
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
