//! Consecutive same-table grouping for statistic creations.
//!
//! The tuning algorithms (MNSA's round groups, the `CreateAll*` policies,
//! parallel replay) all create runs of statistics whose descriptors
//! repeatedly target the same table. Routing each
//! consecutive run through [`StatsCatalog::create_statistics_batch`] lets the
//! catalog build the run from one shared table scan while preserving the
//! exact id-allocation order (and therefore the exact catalog state) of a
//! serial `create_statistic` loop — only consecutive runs are grouped, so
//! creations never reorder across tables.

use stats::{StatDescriptor, StatId, StatsCatalog, StatsError};
use storage::Database;

/// Create `descriptors` in order, batching consecutive same-table runs
/// through the catalog's shared-scan API. Returns exactly the ids (and
/// leaves exactly the catalog state) of calling
/// [`StatsCatalog::create_statistic`] once per descriptor in order.
pub(crate) fn create_statistics_grouped(
    catalog: &mut StatsCatalog,
    db: &Database,
    descriptors: &[StatDescriptor],
) -> Result<Vec<StatId>, StatsError> {
    let mut ids = Vec::with_capacity(descriptors.len());
    let mut start = 0;
    while start < descriptors.len() {
        let table = descriptors[start].table;
        let mut end = start + 1;
        while end < descriptors.len() && descriptors[end].table == table {
            end += 1;
        }
        ids.extend(catalog.create_statistics_batch(db, table, &descriptors[start..end])?);
        start = end;
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema, Value};

    #[test]
    fn grouped_creation_matches_serial_across_tables() {
        let mut db = Database::new();
        let mut tables = Vec::new();
        for name in ["a", "b"] {
            let t = db
                .create_table(
                    name,
                    Schema::new(vec![
                        ColumnDef::new("x", DataType::Int),
                        ColumnDef::new("y", DataType::Int),
                    ]),
                )
                .unwrap();
            for i in 0..500i64 {
                db.table_mut(t)
                    .insert(vec![Value::Int(i % 13), Value::Int(i % 5)])
                    .unwrap();
            }
            tables.push(t);
        }
        // Interleaved tables: runs are (a, a), (b), (a), (b, b).
        let descs = vec![
            StatDescriptor::single(tables[0], 0),
            StatDescriptor::single(tables[0], 1),
            StatDescriptor::single(tables[1], 0),
            StatDescriptor::multi(tables[0], vec![0, 1]),
            StatDescriptor::single(tables[1], 1),
            StatDescriptor::multi(tables[1], vec![1, 0]),
        ];
        let mut serial = StatsCatalog::new();
        let serial_ids: Vec<StatId> = descs
            .iter()
            .map(|d| serial.create_statistic(&db, d.clone()).unwrap())
            .collect();
        let mut grouped = StatsCatalog::new();
        let grouped_ids = create_statistics_grouped(&mut grouped, &db, &descs).unwrap();
        assert_eq!(grouped_ids, serial_ids);
        assert_eq!(grouped.snapshot(), serial.snapshot());
    }
}
