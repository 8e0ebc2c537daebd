//! Fault injection for the tuning pipeline.
//!
//! The §4–§6 algorithms are supposed to be total: any database + catalog
//! state, however degenerate, must produce either a valid tuning outcome or
//! a typed error — never a panic. This module provides *programmable
//! failure points* that corrupt a live `Database`/`StatsCatalog` pair in the
//! ways a production system actually degrades:
//!
//! * [`Fault::TruncateTable`] / [`Fault::TruncateAllTables`] — empty tables
//!   (histograms over zero rows, zero-selectivity scans);
//! * [`Fault::DropAllStatistics`] — every built statistic physically dropped
//!   mid-tune, as a concurrent DBA or maintenance pass would.
//!
//! The bucket budget is the constant [`stats::MAX_BUCKETS`], not an option
//! a fault could set to zero.
//!
//! `tests/fault_injection.rs` drives every tuning entry point through
//! random schedules of these faults and asserts the panic-free contract:
//! selectivities stay in `[0, 1]`, costs stay finite, and every failure is
//! a [`TuneError`](crate::TuneError) (or a valid report), never an unwind.

use stats::{StatId, StatsCatalog};
use storage::{Database, TableId};

/// One injectable failure point.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Delete every row of one table (the table itself survives, empty).
    TruncateTable(TableId),
    /// Delete every row of every table.
    TruncateAllTables,
    /// Physically drop every built statistic — active and drop-listed — as
    /// if a concurrent maintenance pass removed them mid-tune.
    DropAllStatistics,
}

/// A schedule of faults applied to a live database + catalog.
///
/// ```
/// use autostats::{Fault, FaultPlan};
/// use stats::StatsCatalog;
/// use storage::Database;
///
/// let mut db = Database::new();
/// let mut catalog = StatsCatalog::new();
/// FaultPlan::new()
///     .with(Fault::TruncateAllTables)
///     .with(Fault::DropAllStatistics)
///     .inject(&mut db, &mut catalog);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append one fault to the schedule (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The scheduled faults, in injection order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Apply every scheduled fault, in order, to `db` and `catalog`.
    /// Returns the number of faults that actually changed something (a
    /// truncate of an already-empty or unknown table counts as a no-op).
    pub fn inject(&self, db: &mut Database, catalog: &mut StatsCatalog) -> usize {
        let mut applied = 0;
        for fault in &self.faults {
            if inject_one(fault, db, catalog) {
                applied += 1;
            }
        }
        applied
    }
}

fn inject_one(fault: &Fault, db: &mut Database, catalog: &mut StatsCatalog) -> bool {
    match fault {
        Fault::TruncateTable(id) => truncate(db, *id),
        Fault::TruncateAllTables => {
            let ids: Vec<TableId> = db.table_ids().collect();
            let mut any = false;
            for id in ids {
                any |= truncate(db, id);
            }
            any
        }
        Fault::DropAllStatistics => {
            let built: Vec<StatId> = catalog
                .active_ids()
                .into_iter()
                .chain(catalog.drop_list().collect::<Vec<_>>())
                .collect();
            let mut any = false;
            for id in built {
                any |= catalog.physically_drop(id);
            }
            any
        }
    }
}

/// Delete every row of `id`; false when the table is unknown or already
/// empty.
fn truncate(db: &mut Database, id: TableId) -> bool {
    let Ok(table) = db.try_table_mut(id) else {
        return false;
    };
    let rows: Vec<usize> = (0..table.row_count()).collect();
    if rows.is_empty() {
        return false;
    }
    table.delete_rows(rows);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::StatDescriptor;
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..100i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
        }
        (db, t)
    }

    #[test]
    fn truncate_empties_the_table_once() {
        let (mut db, t) = setup();
        let mut catalog = StatsCatalog::new();
        let plan = FaultPlan::new().with(Fault::TruncateTable(t));
        assert_eq!(plan.inject(&mut db, &mut catalog), 1);
        assert_eq!(db.table(t).row_count(), 0);
        // Second injection is a no-op: the table is already empty.
        assert_eq!(plan.inject(&mut db, &mut catalog), 0);
    }

    #[test]
    fn unknown_table_is_a_noop_not_a_panic() {
        let (mut db, _) = setup();
        let mut catalog = StatsCatalog::new();
        let plan = FaultPlan::new().with(Fault::TruncateTable(TableId(999)));
        assert_eq!(plan.inject(&mut db, &mut catalog), 0);
    }

    #[test]
    fn drop_all_statistics_clears_active_and_droplisted() {
        let (mut db, t) = setup();
        let mut catalog = StatsCatalog::new();
        let a = catalog
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        catalog
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        catalog.move_to_drop_list(a);
        assert_eq!(
            FaultPlan::new()
                .with(Fault::DropAllStatistics)
                .inject(&mut db, &mut catalog),
            1
        );
        assert_eq!(catalog.total_count(), 0);
    }
}
