//! Deterministic table → shard placement and shard-database construction.
//!
//! The plan is a pure function of the database's table names and row
//! counts, the shard count and the partition threshold: tables are visited
//! largest-first (ties broken by name) and assigned to the least-loaded
//! shard, except tables at or above `partition_threshold` rows, which are
//! hash-partitioned across all shards by a seeded FNV-1a hash of the whole
//! row. Each shard's database is a
//! [`Database::schema_skeleton`] of the original — same [`TableId`]s, same
//! column ordinals, same index metadata — holding rows only for the tables
//! (or partition slices) it owns.

use std::sync::Arc;
use storage::{Database, Fnv, Result as StorageResult, Table, TableId, Value, ValueRef};

/// Where one table's rows live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The whole table lives on this shard.
    Owned(usize),
    /// Rows are hash-partitioned across all shards.
    Partitioned,
}

/// One table's placement, with the inputs that decided it.
#[derive(Debug, Clone)]
pub struct TablePlacement {
    pub table: TableId,
    /// Lower-cased table name (the router's lookup key).
    pub name: String,
    /// Rows at planning time.
    pub rows: u64,
    pub placement: Placement,
}

/// Seed of the row hash that assigns partitioned rows (and routed INSERTs)
/// to shards.
const PARTITION_SEED: u64 = 0x5EED_5A2D;

/// The deterministic table → shard mapping (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: usize,
    /// Indexed by `TableId` ordinal.
    placements: Vec<TablePlacement>,
}

impl ShardPlan {
    /// Plan placement for `db` over `shards` shards. Greedy largest-first
    /// bin packing by row count: sort tables by (rows desc, name asc), then
    /// place each on the shard with the fewest assigned rows (ties favour the
    /// lowest shard index). Tables with at least `partition_threshold` rows
    /// are partitioned across all shards when `shards > 1`; a 1-shard plan
    /// owns every table wholly, which keeps it bit-identical to the
    /// unsharded service.
    pub fn build(db: &Database, shards: usize, partition_threshold: usize) -> ShardPlan {
        let shards = shards.max(1);
        let mut placements: Vec<TablePlacement> = db
            .table_ids()
            .map(|id| {
                let t = db.table(id);
                TablePlacement {
                    table: id,
                    name: t.name().to_ascii_lowercase(),
                    rows: t.row_count() as u64,
                    placement: Placement::Owned(0),
                }
            })
            .collect();

        let mut order: Vec<usize> = (0..placements.len()).collect();
        order.sort_by(|&a, &b| {
            placements[b]
                .rows
                .cmp(&placements[a].rows)
                .then_with(|| placements[a].name.cmp(&placements[b].name))
        });

        let mut load = vec![0u64; shards];
        for idx in order {
            let rows = placements[idx].rows;
            if shards > 1 && rows as usize >= partition_threshold {
                placements[idx].placement = Placement::Partitioned;
                // A partition slice loads every shard roughly evenly.
                for l in &mut load {
                    *l += rows / shards as u64;
                }
                continue;
            }
            let target = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .unwrap_or_default();
            placements[idx].placement = Placement::Owned(target);
            load[target] += rows;
        }

        ShardPlan { shards, placements }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Every table's placement, in `TableId` order.
    pub fn placements(&self) -> &[TablePlacement] {
        &self.placements
    }

    /// Placement of `table`, or `None` for an unknown id.
    pub fn placement(&self, table: TableId) -> Option<&TablePlacement> {
        self.placements.get(table.0 as usize)
    }

    /// Placement looked up by (case-insensitive) table name.
    pub fn placement_by_name(&self, name: &str) -> Option<&TablePlacement> {
        self.placements
            .iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// The shard a partitioned row belongs to: seeded FNV-1a over a stable
    /// encoding of every value in the row. Pure — the same row always lands
    /// on the same shard, so INSERT routing agrees with the initial split.
    pub fn row_shard(&self, values: &[Value]) -> usize {
        let mut h = Fnv::seeded(PARTITION_SEED);
        for v in values {
            hash_value(&mut h, v.as_ref());
        }
        self.shard_of(&h)
    }

    /// [`ShardPlan::row_shard`] of every row of `table`, in row order, with
    /// each row's hash fed a column at a time.
    fn row_shards(&self, table: &Table) -> Vec<usize> {
        let mut hashes = vec![Fnv::seeded(PARTITION_SEED); table.row_count()];
        for c in 0..table.schema().len() {
            let column = table.column(c);
            for (r, h) in hashes.iter_mut().enumerate() {
                hash_value(h, column.get_ref(r));
            }
        }
        hashes.iter().map(|h| self.shard_of(h)).collect()
    }

    fn shard_of(&self, row_hash: &Fnv) -> usize {
        (row_hash.finish() % self.shards as u64) as usize
    }

    /// Build the per-shard databases: one schema skeleton each, owned
    /// tables shared with `db` (the same `Arc`: rows *and* modification
    /// counters, so a 1-shard cluster starts from a bit-identical database,
    /// and whichever side writes a table first copies it), partitioned
    /// tables split by [`ShardPlan::row_shard`] of each row
    /// ([`Table::split`]): each slice holds its rows in the source's order,
    /// as if inserted one by one.
    pub fn shard_databases(&self, db: &Database) -> StorageResult<Vec<Database>> {
        let mut out: Vec<Database> = (0..self.shards).map(|_| db.schema_skeleton()).collect();
        for p in &self.placements {
            match p.placement {
                Placement::Owned(s) => {
                    out[s].set_shared_table(p.table, db.shared_table(p.table));
                }
                Placement::Partitioned => {
                    let source = db.try_table(p.table)?;
                    let slices = source.split(&self.row_shards(source), self.shards);
                    for (shard, slice) in out.iter_mut().zip(slices) {
                        shard.set_shared_table(p.table, Arc::new(slice));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Rows shard `shard` holds for each table it participates in, in
    /// `TableId` order — the input for `ShardAssigned` journal events.
    pub fn shard_manifest(&self, shard: usize, shard_db: &Database) -> Vec<(TableId, u64, bool)> {
        self.placements
            .iter()
            .filter_map(|p| match p.placement {
                Placement::Owned(s) if s == shard => Some((p.table, p.rows, false)),
                Placement::Partitioned => {
                    Some((p.table, shard_db.table(p.table).row_count() as u64, true))
                }
                _ => None,
            })
            .collect()
    }
}

/// Feed one cell of a partitioned row to its row hash: a type tag, then the
/// value's bytes.
fn hash_value(h: &mut Fnv, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => h.write_bytes(&[0]),
        ValueRef::Int(i) => h.write_bytes(&[1]).write_bytes(&i.to_le_bytes()),
        ValueRef::Float(f) => h.write_bytes(&[2]).write(f.to_bits()),
        ValueRef::Str(s) => h.write_bytes(&[3]).write_bytes(s.as_bytes()),
        ValueRef::Date(d) => h.write_bytes(&[4]).write_bytes(&d.to_le_bytes()),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, PayloadRef, Schema};

    fn db_with(tables: &[(&str, usize)]) -> Database {
        let mut db = Database::new();
        for (name, rows) in tables {
            let id = db
                .create_table(
                    *name,
                    Schema::new(vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("v", DataType::Str),
                    ]),
                )
                .unwrap();
            for i in 0..*rows {
                db.table_mut(id)
                    .insert(vec![
                        Value::Int(i as i64),
                        Value::Str(format!("r{i}").into()),
                    ])
                    .unwrap();
            }
        }
        db
    }

    #[test]
    fn placement_is_deterministic_and_balanced() {
        let db = db_with(&[("a", 100), ("b", 90), ("c", 10), ("d", 5)]);
        let p1 = ShardPlan::build(&db, 2, usize::MAX);
        let p2 = ShardPlan::build(&db, 2, usize::MAX);
        for (x, y) in p1.placements().iter().zip(p2.placements()) {
            assert_eq!(x.placement, y.placement, "plan must be deterministic");
        }
        // Largest-first greedy: a -> shard 0, b -> shard 1, c -> shard 1
        // (load 90+10 < 100), d -> shard 0? load after c: s0=100, s1=100;
        // tie favours shard 0.
        assert_eq!(
            p1.placement_by_name("a").unwrap().placement,
            Placement::Owned(0)
        );
        assert_eq!(
            p1.placement_by_name("b").unwrap().placement,
            Placement::Owned(1)
        );
        assert_eq!(
            p1.placement_by_name("c").unwrap().placement,
            Placement::Owned(1)
        );
        assert_eq!(
            p1.placement_by_name("d").unwrap().placement,
            Placement::Owned(0)
        );
    }

    #[test]
    fn partitioning_splits_all_rows_exactly_once() {
        let db = db_with(&[("big", 500), ("small", 20)]);
        let plan = ShardPlan::build(&db, 3, 100);
        let big = db.table_id("big").unwrap();
        assert_eq!(
            plan.placement(big).unwrap().placement,
            Placement::Partitioned
        );
        let shards = plan.shard_databases(&db).unwrap();
        assert_eq!(shards.len(), 3);
        let total: usize = shards.iter().map(|s| s.table(big).row_count()).sum();
        assert_eq!(total, 500, "partitioning preserves every row");
        // Same TableIds everywhere.
        for s in &shards {
            assert_eq!(s.table_id("big"), Some(big));
            assert_eq!(s.table_count(), db.table_count());
        }
        // Each row is on the shard its hash says.
        for (si, s) in shards.iter().enumerate() {
            let t = s.table(big);
            for r in 0..t.row_count() {
                assert_eq!(plan.row_shard(&t.row_values(r)), si);
            }
        }
    }

    #[test]
    fn one_shard_database_is_a_verbatim_clone() {
        let db = db_with(&[("a", 50), ("b", 8)]);
        let plan = ShardPlan::build(&db, 1, usize::MAX);
        let shards = plan.shard_databases(&db).unwrap();
        assert_eq!(shards.len(), 1);
        let clone = &shards[0];
        for id in db.table_ids() {
            let (orig, copy) = (db.table(id), clone.table(id));
            assert_eq!(orig.name(), copy.name());
            assert_eq!(orig.row_count(), copy.row_count());
            assert_eq!(
                orig.modification_counter(),
                copy.modification_counter(),
                "owned tables keep their modification counters"
            );
            for r in 0..orig.row_count() {
                assert_eq!(orig.row_values(r), copy.row_values(r));
            }
        }
    }

    #[test]
    fn manifest_lists_owned_and_partitioned_tables() {
        let db = db_with(&[("big", 300), ("small", 10)]);
        let plan = ShardPlan::build(&db, 2, 100);
        let shards = plan.shard_databases(&db).unwrap();
        let small = db.table_id("small").unwrap();
        let owner = match plan.placement(small).unwrap().placement {
            Placement::Owned(s) => s,
            Placement::Partitioned => panic!("small table should not partition"),
        };
        for (si, sdb) in shards.iter().enumerate() {
            let manifest = plan.shard_manifest(si, sdb);
            // Every shard holds a slice of `big`.
            assert!(manifest
                .iter()
                .any(|(t, _, part)| *part && sdb.table(*t).name() == "big"));
            let has_small = manifest.iter().any(|(t, _, _)| *t == small);
            assert_eq!(has_small, si == owner);
        }
    }

    /// A table of every column type, nullable, whose cells come from
    /// `seed`: NULLs (some left over a written value, so the padding under
    /// them is not a pushed NULL's), `-0.0` beside `0.0`, and strings that
    /// share a long prefix.
    fn generated_table(seed: u64, rows: usize) -> Table {
        let schema = Schema::new(
            [
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Str),
                ("d", DataType::Date),
            ]
            .into_iter()
            .map(|(name, ty)| ColumnDef::new(name, ty).nullable())
            .collect(),
        );
        let mut table = Table::new("gen", schema);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for _ in 0..rows {
            let values = [
                Value::Int(next(50) as i64 - 25),
                Value::Float([0.0, -0.0, 1.5, -2.25][next(4) as usize]),
                Value::Str(format!("shared prefix {}", next(20)).into()),
                Value::Date(next(3000) as i32 - 1000),
            ];
            let row = values
                .into_iter()
                .map(|v| if next(8) == 0 { Value::Null } else { v })
                .collect();
            table.insert(row).unwrap();
        }
        let nulled: Vec<usize> = (0..rows).filter(|_| next(10) == 0).collect();
        for col in 0..4 {
            table.update_rows(&nulled, col, &Value::Null).unwrap();
        }
        table
    }

    /// The split as it was made row by row: each row's values hashed by
    /// `row_shard` and inserted into its shard's empty copy of the table.
    fn split_row_by_row(plan: &ShardPlan, source: &Table) -> Vec<Table> {
        let mut slices: Vec<Table> = (0..plan.shards())
            .map(|_| Table::new(source.name(), source.schema().clone()))
            .collect();
        for row in 0..source.row_count() {
            let values = source.row_values(row);
            slices[plan.row_shard(&values)].insert(values).unwrap();
        }
        slices
    }

    #[test]
    fn a_column_at_a_time_split_equals_the_row_by_row_one() {
        for shards in [1, 2, 4] {
            let plan = ShardPlan {
                shards,
                placements: Vec::new(),
            };
            for seed in 0..12u64 {
                let source = generated_table(seed, [0, 1, 7, 300][seed as usize % 4]);
                let split = source.split(&plan.row_shards(&source), shards);
                let expected = split_row_by_row(&plan, &source);
                assert_eq!(split.len(), shards);
                for (s, (got, want)) in split.iter().zip(&expected).enumerate() {
                    let at = format!("{shards} shards, seed {seed}, slice {s}");
                    assert_eq!(got.name(), want.name(), "{at}");
                    assert_eq!(got.schema(), want.schema(), "{at}");
                    assert_eq!(got.row_count(), want.row_count(), "{at}");
                    assert_eq!(got.modification_counter(), want.row_count() as u64, "{at}");
                    for c in 0..4 {
                        let (g, w) = (got.column(c), want.column(c));
                        assert_eq!(g.validity(), w.validity(), "{at}, column {c}");
                        // Padding included; `-0.0` and `0.0` told apart.
                        assert_eq!(
                            format!("{:?}", g.payload()),
                            format!("{:?}", w.payload()),
                            "{at}, column {c}"
                        );
                        if let (PayloadRef::Float(g), PayloadRef::Float(w)) =
                            (g.payload(), w.payload())
                        {
                            let bits =
                                |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(g), bits(w), "{at}");
                        }
                        if let (PayloadRef::Str(g), PayloadRef::Str(w)) = (g.payload(), w.payload())
                        {
                            assert!(
                                g.iter().zip(w).all(|(a, b)| Arc::ptr_eq(a, b)),
                                "{at}: the source's string cells, shared"
                            );
                        }
                        assert!(g.made_str_codes("x").is_none(), "{at}: no codes");
                        assert!(g.value_counts().is_none(), "{at}: no counts");
                    }
                }
            }
        }
    }
}
