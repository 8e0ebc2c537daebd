//! The join enumerator's oracle: every join tree over a query's relations,
//! priced one by one, with no table of best subplans and no pruning
//! (`tests/join_optimality.rs`).
//!
//! The search space is the enumerator's: a relation set is *plannable* when
//! its join graph is connected or when no edge leaves it (a union of whole
//! components). A tree splits a plannable set into two plannable halves;
//! when an edge crosses them it joins them by hash, merge (once per
//! unordered pair, as the enumerator prices it), index nested loop (into one
//! relation that has an index on its side of a crossing edge) or nested
//! loop, and by a nested loop alone when none does. Each tree is priced
//! with `optimizer::CostParams`' public formulas, which compute the
//! enumerator's sums in its operand order, so the cheapest tree's cost
//! equals the enumerator's to the bit.

use optimizer::{CostParams, Operator, PlanNode, SelectivityProfile};
use query::{BoundSelect, CmpOp, PredOp, PredicateId};
use storage::Database;

type C = CostParams;

/// One relation's inputs: raw rows, and the cheapest access path's
/// filtered rows and cost.
struct Relation {
    raw_rows: f64,
    rows: f64,
    cost: f64,
}

/// A query's relations, edges and index probes, read from the query, the
/// profile and the database without the optimizer.
pub struct JoinSpace<'a> {
    db: &'a Database,
    query: &'a BoundSelect,
    relations: Vec<Relation>,
    /// `(left relation, right relation, selectivity)` in edge order.
    edges: Vec<(usize, usize, f64)>,
}

impl<'a> JoinSpace<'a> {
    pub fn new(db: &'a Database, query: &'a BoundSelect, profile: &SelectivityProfile) -> Self {
        let relations = (0..query.relations.len())
            .map(|rel| access_path(db, query, profile, rel))
            .collect();
        let edges = query
            .join_edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (
                    e.left_rel,
                    e.right_rel,
                    profile.value(PredicateId::JoinEdge(i)),
                )
            })
            .collect();
        JoinSpace {
            db,
            query,
            relations,
            edges,
        }
    }

    fn n(&self) -> usize {
        self.relations.len()
    }

    fn member(&self, set: u32, rel: usize) -> bool {
        rel < self.n() && set & (1 << rel) != 0
    }

    /// Ordinals of the edges with one end in `a` and the other in `b`.
    fn crossing(&self, a: u32, b: u32) -> Vec<usize> {
        (0..self.edges.len())
            .filter(|&i| {
                let (l, r, _) = self.edges[i];
                (self.member(a, l) && self.member(b, r)) || (self.member(a, r) && self.member(b, l))
            })
            .collect()
    }

    /// Connected, or no edge leaves it.
    pub fn plannable(&self, set: u32) -> bool {
        let mut reached = set & set.wrapping_neg();
        loop {
            let mut grown = reached;
            for &(l, r, _) in &self.edges {
                if self.member(reached, l) && self.member(set, r) {
                    grown |= 1 << r;
                }
                if self.member(reached, r) && self.member(set, l) {
                    grown |= 1 << l;
                }
            }
            if grown == reached {
                break;
            }
            reached = grown;
        }
        let full = (1u32 << self.n()) - 1;
        reached == set || self.crossing(set, full & !set).is_empty()
    }

    /// Cardinality of `set`: base rows in relation order, then every edge
    /// inside it in edge order.
    pub fn rows(&self, set: u32) -> f64 {
        let mut rows = 1.0;
        for rel in 0..self.n() {
            if self.member(set, rel) {
                rows *= self.relations[rel].rows;
            }
        }
        for &(l, r, s) in &self.edges {
            if self.member(set, l) && self.member(set, r) {
                rows *= s;
            }
        }
        rows
    }

    /// Whether `inner` (one relation) has an index whose leading column is
    /// its side of an edge to a relation of `outer`.
    fn has_probe(&self, outer: u32, inner: usize) -> bool {
        let table = self.query.table_of(inner);
        self.db.indexes_on(table).any(|ix| {
            let lead = ix.leading_column();
            self.query.join_edges.iter().any(|e| {
                (e.left_rel == inner
                    && e.right_rel != inner
                    && self.member(outer, e.right_rel)
                    && e.pairs.iter().any(|p| p.0 == lead))
                    || (e.right_rel == inner
                        && e.left_rel != inner
                        && self.member(outer, e.left_rel)
                        && e.pairs.iter().any(|p| p.1 == lead))
            })
        })
    }

    /// Cost of an index nested loop from `outer` (`outer_cost`) into the
    /// one relation `inner`.
    fn index_nl(&self, outer: u32, outer_cost: f64, inner: usize, out_rows: f64) -> f64 {
        let mut narrowed = 1.0;
        for i in self.crossing(outer, 1 << inner) {
            narrowed *= self.edges[i].2;
        }
        let fetched = self.relations[inner].raw_rows * narrowed;
        outer_cost
            + self.rows(outer).max(1.0) * (C::INDEX_LOOKUP + C::INDEX_ROW * fetched)
            + C::JOIN_OUTPUT * out_rows
    }

    /// The cost of every join tree over the plannable `set`.
    pub fn every_tree(&self, set: u32) -> Vec<f64> {
        if set & (set - 1) == 0 {
            return vec![self.relations[set.trailing_zeros() as usize].cost];
        }
        let out = self.rows(set);
        let mut costs = Vec::new();
        let mut left = (set - 1) & set;
        while left > 0 {
            let right = set ^ left;
            if self.plannable(left) && self.plannable(right) {
                let (lrows, rrows) = (self.rows(left), self.rows(right));
                let crossed = !self.crossing(left, right).is_empty();
                let rights = self.every_tree(right);
                for l in self.every_tree(left) {
                    for &r in &rights {
                        if crossed {
                            costs.push(l + r + C::hash_join(lrows, rrows, out));
                            if left > right {
                                costs.push(l + r + C::merge_join(lrows, rrows, out));
                            }
                        }
                        costs.push(l + C::nested_loop(lrows, r, out));
                    }
                    let inner = right.trailing_zeros() as usize;
                    if crossed && right == 1 << inner && self.has_probe(left, inner) {
                        costs.push(self.index_nl(left, l, inner, out));
                    }
                }
            }
            left = (left - 1) & set;
        }
        costs
    }

    /// The cheapest tree's cost over all relations.
    pub fn cheapest(&self) -> f64 {
        let full = (1u32 << self.n()) - 1;
        self.every_tree(full)
            .into_iter()
            .reduce(f64::min)
            .expect("every plannable set has a tree")
    }

    /// Check that `node` (a plan's join tree) lies in the search space and
    /// that each node's rows and cost are its children's priced as above,
    /// to the bit. Returns the relations it covers; panics with `context`
    /// on the first violation.
    pub fn check_tree(&self, node: &PlanNode, context: &str) -> u32 {
        let set = match &node.op {
            Operator::SeqScan { rel, .. } | Operator::IndexScan { rel, .. } => {
                assert_eq!(
                    node.est_cost.to_bits(),
                    self.relations[*rel].cost.to_bits(),
                    "{context}: access"
                );
                1 << rel
            }
            Operator::IndexNLJoin {
                edges, inner_rel, ..
            } => {
                let outer = self.check_tree(&node.children[0], context);
                assert!(self.has_probe(outer, *inner_rel), "{context}: no probe");
                assert_eq!(edges, &self.crossing(outer, 1 << inner_rel), "{context}");
                assert!(!edges.is_empty(), "{context}: index join without an edge");
                let set = outer | 1 << inner_rel;
                let cost =
                    self.index_nl(outer, node.children[0].est_cost, *inner_rel, self.rows(set));
                assert_eq!(
                    node.est_cost.to_bits(),
                    cost.to_bits(),
                    "{context}: INL cost"
                );
                set
            }
            Operator::HashJoin { edges }
            | Operator::MergeJoin { edges }
            | Operator::NestedLoopJoin { edges } => {
                let (lnode, rnode) = (&node.children[0], &node.children[1]);
                let left = self.check_tree(lnode, context);
                let right = self.check_tree(rnode, context);
                assert_eq!(left & right, 0, "{context}: overlapping sides");
                assert!(
                    self.plannable(left) && self.plannable(right),
                    "{context}: unplannable half"
                );
                assert_eq!(edges, &self.crossing(left, right), "{context}: edges");
                let (lrows, rrows) = (self.rows(left), self.rows(right));
                let out = self.rows(left | right);
                let (l, r) = (lnode.est_cost, rnode.est_cost);
                let cost = match &node.op {
                    Operator::HashJoin { .. } => l + r + C::hash_join(lrows, rrows, out),
                    Operator::MergeJoin { .. } => l + r + C::merge_join(lrows, rrows, out),
                    _ => l + C::nested_loop(lrows, r, out),
                };
                if !matches!(node.op, Operator::NestedLoopJoin { .. }) {
                    assert!(!edges.is_empty(), "{context}: edge-less {}", node.op.name());
                }
                assert_eq!(node.est_cost.to_bits(), cost.to_bits(), "{context}: cost");
                left | right
            }
            Operator::HashAggregate { .. } | Operator::Sort { .. } => {
                panic!("{context}: {} inside a join tree", node.op.name())
            }
        };
        assert!(self.plannable(set), "{context}: unplannable set {set:#b}");
        assert_eq!(
            node.est_rows.to_bits(),
            self.rows(set).to_bits(),
            "{context}: rows"
        );
        set
    }
}

/// The join tree under a plan's aggregate and sort.
pub fn join_tree(plan: &PlanNode) -> &PlanNode {
    match plan.op {
        Operator::HashAggregate { .. } | Operator::Sort { .. } => join_tree(&plan.children[0]),
        _ => plan,
    }
}

/// The cheapest access path to `rel`: a full scan, or an index seek on a
/// leading column its comparisons (`<>` excepted) restrict, whichever costs
/// less (the first such index on a tie).
fn access_path(
    db: &Database,
    query: &BoundSelect,
    profile: &SelectivityProfile,
    rel: usize,
) -> Relation {
    let table = query.table_of(rel);
    let raw_rows = db.try_slices(table).expect("live table").row_count() as f64;
    let mut cost = C::seq_scan(raw_rows);
    for index in db.indexes_on(table) {
        let seek: Vec<usize> = query
            .selections_on(rel)
            .filter(|(_, p)| p.column.column == index.leading_column())
            .filter(|(_, p)| !matches!(p.op, PredOp::Cmp(CmpOp::Ne, _)))
            .map(|(i, _)| i)
            .collect();
        if seek.is_empty() {
            continue;
        }
        let selectivity: f64 = seek
            .iter()
            .map(|&i| profile.value(PredicateId::Selection(i)))
            .product();
        let seek_cost = C::index_scan(raw_rows, raw_rows * selectivity);
        if seek_cost < cost {
            cost = seek_cost;
        }
    }
    Relation {
        raw_rows,
        rows: raw_rows * profile.relation_filter(query, rel),
        cost,
    }
}
