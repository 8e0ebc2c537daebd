//! Admission routing: a pure statement → shard mapping over the
//! [`ShardPlan`].
//!
//! Routing looks only at the statement's table names and shape — never at
//! wall clocks, thread ids, or load — so the same statement routes the same
//! way on every run and from every client thread. DML is single-table in
//! the supported subset, so it is always single-shard unless its table is
//! hash-partitioned; only SELECTs can be cross-shard.

use crate::plan::{Placement, ShardPlan, TablePlacement};
use query::{SelectItem, SelectStmt, Statement};
use std::sync::Arc;

/// Where a statement executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Every referenced table is owned by this one shard: run it there
    /// directly on the shard's `QueryHandle`.
    Single(usize),
    /// INSERT into a hash-partitioned table: the row hash picks this shard.
    PartitionedInsert(usize),
    /// UPDATE/DELETE on a hash-partitioned table: apply on every shard
    /// (slices are disjoint, so per-shard results sum).
    Broadcast,
    /// Projection-only single-table SELECT over a partitioned table: run on
    /// every shard and concatenate rows in shard order.
    Scatter,
    /// Cross-shard SELECT (or a partitioned SELECT whose shape cannot
    /// scatter): execute on a snapshot that shares the referenced tables
    /// with their shards.
    Fallback,
}

/// The deterministic statement router. Cheap to clone; stateless beyond the
/// shared plan.
#[derive(Debug, Clone)]
pub struct Router {
    plan: Arc<ShardPlan>,
}

impl Router {
    pub fn new(plan: Arc<ShardPlan>) -> Router {
        Router { plan }
    }

    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Route one parsed statement. Unknown table names route to shard 0,
    /// whose binder reports the same "no such table" error the unsharded
    /// service would.
    pub fn route(&self, stmt: &Statement) -> Route {
        match stmt {
            Statement::Insert(ins) => match self.table_placement(&ins.table) {
                Some(Placement::Owned(s)) => Route::Single(s),
                Some(Placement::Partitioned) => {
                    Route::PartitionedInsert(self.plan.row_shard(&ins.values))
                }
                None => Route::Single(0),
            },
            Statement::Update(u) => self.route_write(&u.table),
            Statement::Delete(d) => self.route_write(&d.table),
            Statement::Select(s) => self.route_select(s).route,
        }
    }

    fn route_write(&self, table: &str) -> Route {
        match self.table_placement(table) {
            Some(Placement::Owned(s)) => Route::Single(s),
            Some(Placement::Partitioned) => Route::Broadcast,
            None => Route::Single(0),
        }
    }

    /// Route a SELECT in one pass over its FROM list, keeping what the pass
    /// looked up.
    pub(crate) fn route_select(&self, s: &SelectStmt) -> SelectRoute<'_> {
        let mut tables: Vec<&TablePlacement> = Vec::with_capacity(s.from.len());
        let mut shards: Vec<usize> = Vec::new();
        let mut partitioned = false;
        for t in &s.from {
            let Some(p) = self.plan.placement_by_name(&t.table) else {
                shards.push(0);
                continue;
            };
            if tables.iter().any(|seen| seen.table == p.table) {
                continue;
            }
            tables.push(p);
            match p.placement {
                Placement::Owned(shard) => shards.push(shard),
                Placement::Partitioned => partitioned = true,
            }
        }
        let route = if partitioned {
            shards = (0..self.plan.shards()).collect();
            // Concatenating per-shard rows is only sound for a bare
            // projection of one table: no aggregates (a per-shard COUNT is
            // not the global COUNT), no GROUP BY, no ORDER BY, no joins.
            let projection_only = s
                .items
                .iter()
                .all(|i| matches!(i, SelectItem::Star | SelectItem::Column(_)));
            if s.from.len() == 1
                && projection_only
                && s.group_by.is_empty()
                && s.order_by.is_empty()
            {
                Route::Scatter
            } else {
                Route::Fallback
            }
        } else {
            shards.sort_unstable();
            shards.dedup();
            match shards[..] {
                [] => {
                    shards.push(0);
                    Route::Single(0)
                }
                [only] => Route::Single(only),
                _ => Route::Fallback,
            }
        };
        SelectRoute {
            route,
            tables,
            shards,
        }
    }

    fn table_placement(&self, name: &str) -> Option<Placement> {
        self.plan.placement_by_name(name).map(|p| p.placement)
    }

    /// The shards a statement touches, in ascending order — the order the
    /// fallback path loads their snapshots in.
    pub fn involved_shards(&self, stmt: &Statement) -> Vec<usize> {
        match stmt {
            Statement::Select(s) => self.route_select(s).shards,
            _ => match self.route(stmt) {
                Route::Single(s) | Route::PartitionedInsert(s) => vec![s],
                _ => (0..self.plan.shards()).collect(),
            },
        }
    }
}

/// A routed SELECT, with what routing it looked up: the fallback path takes
/// its tables and its shards from here instead of routing again.
pub(crate) struct SelectRoute<'a> {
    pub route: Route,
    /// The distinct tables of the FROM list that the plan knows, in FROM
    /// order.
    pub tables: Vec<&'a TablePlacement>,
    /// The shards those tables live on, ascending ([`Router::involved_shards`]).
    pub shards: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlanConfig;
    use query::parse_statement;
    use storage::{ColumnDef, DataType, Database, Schema, Value};

    fn test_plan() -> Arc<ShardPlan> {
        let mut db = Database::new();
        for (name, rows) in [("orders", 400usize), ("customer", 50), ("nation", 5)] {
            let id = db
                .create_table(
                    name,
                    Schema::new(vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("v", DataType::Int),
                    ]),
                )
                .unwrap();
            for i in 0..rows {
                db.table_mut(id)
                    .insert(vec![Value::Int(i as i64), Value::Int(0)])
                    .unwrap();
            }
        }
        Arc::new(ShardPlan::build(
            &db,
            &ShardPlanConfig {
                shards: 2,
                partition_threshold: 100,
            },
        ))
    }

    fn route(router: &Router, sql: &str) -> Route {
        router.route(&parse_statement(sql).unwrap())
    }

    #[test]
    fn dml_routes_to_owner_and_partitions_broadcast() {
        let router = Router::new(test_plan());
        // customer/nation are small: owned by some single shard.
        assert!(matches!(
            route(&router, "DELETE FROM customer WHERE k < 5"),
            Route::Single(_)
        ));
        assert!(matches!(
            route(&router, "UPDATE nation SET v = 1 WHERE k = 2"),
            Route::Single(_)
        ));
        // orders is partitioned: writes broadcast, inserts row-hash.
        assert_eq!(route(&router, "UPDATE orders SET v = 9"), Route::Broadcast);
        assert!(matches!(
            route(&router, "INSERT INTO orders VALUES (7, 7)"),
            Route::PartitionedInsert(_)
        ));
    }

    #[test]
    fn selects_split_by_shape() {
        let router = Router::new(test_plan());
        assert!(matches!(
            route(&router, "SELECT * FROM customer WHERE k > 1"),
            Route::Single(_)
        ));
        assert_eq!(route(&router, "SELECT k FROM orders"), Route::Scatter);
        assert_eq!(
            route(&router, "SELECT COUNT(*) FROM orders"),
            Route::Fallback
        );
        assert_eq!(
            route(&router, "SELECT k FROM orders ORDER BY k"),
            Route::Fallback
        );
        assert_eq!(
            route(
                &router,
                "SELECT c.k FROM customer c, orders o WHERE c.k = o.k"
            ),
            Route::Fallback
        );
    }

    #[test]
    fn cross_shard_join_of_owned_tables_falls_back_or_colocates() {
        let router = Router::new(test_plan());
        let r = route(
            &router,
            "SELECT c.k FROM customer c, nation n WHERE c.k = n.k",
        );
        // Either both small tables landed on one shard (Single) or they
        // split (Fallback); both are legal, but the answer is a pure
        // function of the plan.
        assert!(matches!(r, Route::Single(_) | Route::Fallback));
        assert_eq!(
            r,
            route(
                &router,
                "SELECT c.k FROM customer c, nation n WHERE c.k = n.k"
            )
        );
    }

    #[test]
    fn insert_row_hash_is_stable() {
        let router = Router::new(test_plan());
        let stmt = parse_statement("INSERT INTO orders VALUES (42, 1)").unwrap();
        let first = router.route(&stmt);
        for _ in 0..10 {
            assert_eq!(router.route(&stmt), first);
        }
    }
}
