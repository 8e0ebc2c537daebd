//! Equivalence of sets of statistics with respect to a query (§3.2).
//!
//! Two statistics sets are compared through the optimizations they induce:
//!
//! * **Execution-Tree equivalence** — the optimizer produces the same
//!   execution tree (strongest; implies execution-cost equivalence);
//! * **Optimizer-Cost equivalence** — the optimizer-estimated costs are
//!   equal (plans may differ);
//! * **t-Optimizer-Cost equivalence** — the estimated costs are within t% of
//!   each other (the pragmatic choice; the paper uses t = 20%).

use optimizer::{costs_within_t, OptimizedQuery};

/// Which equivalence notion to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Equivalence {
    ExecutionTree,
    OptimizerCost,
    /// t-Optimizer-Cost with the threshold in percent.
    TCost(f64),
}

impl Equivalence {
    /// The paper's production setting: t-Optimizer-Cost at 20%.
    pub fn paper_default() -> Self {
        Equivalence::TCost(20.0)
    }

    /// Are two optimizer results equivalent under this notion?
    pub fn equivalent(&self, a: &OptimizedQuery, b: &OptimizedQuery) -> bool {
        match self {
            Equivalence::ExecutionTree => a.plan.same_tree(&b.plan),
            Equivalence::OptimizerCost => costs_within_t(a.cost, b.cost, 1e-9),
            Equivalence::TCost(t) => costs_within_t(a.cost, b.cost, *t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimizer::{Operator, PlanNode, SelectivityProfile};
    use storage::TableId;

    fn result(plan: PlanNode) -> OptimizedQuery {
        OptimizedQuery {
            cost: plan.est_cost,
            profile: empty_profile(),
            plan,
        }
    }

    fn empty_profile() -> SelectivityProfile {
        // Build via the public path: a profile of a query with no predicates.
        use query::{BoundSelect, Projection};
        use stats::StatsCatalog;
        use storage::{ColumnDef, DataType, Database, Schema};
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::new(vec![ColumnDef::new("a", DataType::Int)]))
            .unwrap();
        let q = BoundSelect {
            relations: vec![(t, "t".into())],
            projection: Projection::Star,
            aggregates: vec![],
            selections: vec![],
            join_edges: vec![],
            group_by: vec![],
            order_by: vec![],
        };
        let cat = StatsCatalog::new();
        optimizer::selectivity::build_profile(&db, &cat.full_view(), &q, &Default::default())
    }

    fn scan(preds: Vec<usize>, cost: f64) -> PlanNode {
        PlanNode::leaf(
            Operator::SeqScan {
                rel: 0,
                table: TableId(0),
                preds,
            },
            10.0,
            cost,
        )
    }

    #[test]
    fn tree_equivalence_ignores_cost() {
        let e = Equivalence::ExecutionTree;
        assert!(e.equivalent(&result(scan(vec![0], 10.0)), &result(scan(vec![0], 99.0))));
        assert!(!e.equivalent(&result(scan(vec![0], 10.0)), &result(scan(vec![1], 10.0))));
    }

    #[test]
    fn cost_equivalences() {
        let same = result(scan(vec![0], 100.0));
        let close = result(scan(vec![1], 115.0));
        let far = result(scan(vec![1], 150.0));
        assert!(Equivalence::OptimizerCost.equivalent(&same, &result(scan(vec![9], 100.0))));
        assert!(!Equivalence::OptimizerCost.equivalent(&same, &close));
        assert!(Equivalence::TCost(20.0).equivalent(&same, &close));
        assert!(!Equivalence::TCost(20.0).equivalent(&same, &far));
    }

    #[test]
    fn paper_default_is_t20() {
        assert_eq!(Equivalence::paper_default(), Equivalence::TCost(20.0));
    }
}
