//! Physical plan trees.
//!
//! A plan is an operator tree annotated with estimated output cardinality and
//! estimated subtree cost. **Execution-tree equivalence** (§3.2 of the
//! paper) is structural equality of operator trees *ignoring the estimates*
//! — two optimizations that choose the same operators, access paths, join
//! order and join algorithms produce equal plans even if their cardinality
//! estimates differ.

use query::BoundColumn;
use std::fmt;
use storage::{Fnv, TableId};

/// Physical operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operator {
    /// Full scan of relation ordinal `rel`, applying the given selection
    /// predicates (indices into `BoundSelect::selections`).
    SeqScan {
        rel: usize,
        table: TableId,
        preds: Vec<usize>,
    },
    /// Index seek on `index` (name) using `seek_preds` on the leading key
    /// column, applying `residual` predicates afterwards.
    IndexScan {
        rel: usize,
        table: TableId,
        index: String,
        seek_preds: Vec<usize>,
        residual: Vec<usize>,
    },
    /// Hash join on the given join-edge ordinals (left child probes, right
    /// child builds).
    HashJoin { edges: Vec<usize> },
    /// Sort-merge join on the given join-edge ordinals (sorts included).
    MergeJoin { edges: Vec<usize> },
    /// Nested-loop join; `edges` may be empty (cartesian product).
    NestedLoopJoin { edges: Vec<usize> },
    /// Index nested-loop join: for each outer tuple, seek `index` on the
    /// inner relation by the join key, then apply `inner_preds`. Has a
    /// single child (the outer input); the inner side is accessed through
    /// the index, not scanned. This is the selectivity-sensitive plan whose
    /// choice hinges on accurate cardinality estimates.
    IndexNLJoin {
        edges: Vec<usize>,
        inner_rel: usize,
        inner_table: TableId,
        index: String,
        inner_preds: Vec<usize>,
    },
    /// Hash aggregation over `group` columns.
    HashAggregate { group: Vec<BoundColumn> },
    /// Final sort for ORDER BY, `(key column, descending)` per key. Sort
    /// keys are not statistics-relevant (the paper's footnote 1).
    Sort { keys: Vec<(BoundColumn, bool)> },
}

impl Operator {
    pub fn name(&self) -> &'static str {
        match self {
            Operator::SeqScan { .. } => "SeqScan",
            Operator::IndexScan { .. } => "IndexScan",
            Operator::HashJoin { .. } => "HashJoin",
            Operator::MergeJoin { .. } => "MergeJoin",
            Operator::NestedLoopJoin { .. } => "NestedLoopJoin",
            Operator::IndexNLJoin { .. } => "IndexNLJoin",
            Operator::HashAggregate { .. } => "HashAggregate",
            Operator::Sort { .. } => "Sort",
        }
    }

    pub fn is_join(&self) -> bool {
        matches!(
            self,
            Operator::HashJoin { .. }
                | Operator::MergeJoin { .. }
                | Operator::NestedLoopJoin { .. }
                | Operator::IndexNLJoin { .. }
        )
    }

    pub fn is_scan(&self) -> bool {
        matches!(self, Operator::SeqScan { .. } | Operator::IndexScan { .. })
    }
}

/// A node of a physical plan tree.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub op: Operator,
    pub children: Vec<PlanNode>,
    /// Estimated output cardinality.
    pub est_rows: f64,
    /// Estimated cost of the whole subtree rooted here.
    pub est_cost: f64,
}

impl PlanNode {
    pub fn leaf(op: Operator, est_rows: f64, est_cost: f64) -> Self {
        PlanNode {
            op,
            children: Vec::new(),
            est_rows,
            est_cost,
        }
    }

    /// Cost attributable to this node alone: subtree cost minus the subtree
    /// costs of the children — §4.2's "cost(plan subtree rooted at n) −
    /// Σ cost(Children(n))", the ranking key of `FindNextStatToBuild`.
    pub fn own_cost(&self) -> f64 {
        let children: f64 = self.children.iter().map(|c| c.est_cost).sum();
        (self.est_cost - children).max(0.0)
    }

    /// Structural equality ignoring cardinality/cost annotations —
    /// *Execution-Tree equivalence*.
    pub fn same_tree(&self, other: &PlanNode) -> bool {
        self.op == other.op
            && self.children.len() == other.children.len()
            && self
                .children
                .iter()
                .zip(&other.children)
                .all(|(a, b)| a.same_tree(b))
    }

    /// Stable fingerprint of the operator tree *ignoring the estimates* —
    /// the hash companion of [`same_tree`](Self::same_tree): two plans are
    /// execution-tree equivalent iff their structural fingerprints collide
    /// (modulo the usual 64-bit hash caveat). Lets a caller compare the
    /// trees of optimizations whose estimates differ.
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.walk(&mut |node| {
            // `Operator`'s Debug output is structural only (no floats), so
            // it is a stable encoding of everything execution depends on.
            h.write_bytes(format!("{:?}", node.op).as_bytes())
                .write(node.children.len() as u64);
        });
        h.finish()
    }

    /// Depth-first pre-order traversal.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a PlanNode)) {
        visit(self);
        for c in &self.children {
            c.walk(visit);
        }
    }

    /// All nodes, pre-order.
    pub fn nodes(&self) -> Vec<&PlanNode> {
        let mut out = Vec::new();
        self.walk(&mut |n| out.push(n));
        out
    }

    /// A short stable signature of the tree structure (for logs and maps).
    pub fn signature(&self) -> String {
        let mut s = String::new();
        self.write_signature(&mut s);
        s
    }

    fn write_signature(&self, out: &mut String) {
        use std::fmt::Write;
        match &self.op {
            Operator::SeqScan { rel, preds, .. } => {
                let _ = write!(out, "seq({rel};{preds:?})");
            }
            Operator::IndexScan {
                rel,
                index,
                seek_preds,
                residual,
                ..
            } => {
                let _ = write!(out, "idx({rel};{index};{seek_preds:?};{residual:?})");
            }
            Operator::HashJoin { edges } => {
                let _ = write!(out, "hj{edges:?}");
            }
            Operator::MergeJoin { edges } => {
                let _ = write!(out, "mj{edges:?}");
            }
            Operator::NestedLoopJoin { edges } => {
                let _ = write!(out, "nl{edges:?}");
            }
            Operator::IndexNLJoin {
                edges,
                inner_rel,
                index,
                inner_preds,
                ..
            } => {
                let _ = write!(out, "inl({inner_rel};{index};{edges:?};{inner_preds:?})");
            }
            Operator::HashAggregate { group } => {
                let _ = write!(out, "agg(");
                for g in group {
                    let _ = write!(out, "{}:{},", g.relation, g.column);
                }
                let _ = write!(out, ")");
            }
            Operator::Sort { keys } => {
                let _ = write!(out, "sort(");
                for (k, d) in keys {
                    let _ = write!(
                        out,
                        "{}:{}{},",
                        k.relation,
                        k.column,
                        if *d { "v" } else { "^" }
                    );
                }
                let _ = write!(out, ")");
            }
        }
        if !self.children.is_empty() {
            out.push('[');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_signature(out);
            }
            out.push(']');
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        writeln!(
            f,
            "{:indent$}{} (rows={:.1}, cost={:.1})",
            "",
            self.describe(),
            self.est_rows,
            self.est_cost,
            indent = indent * 2
        )?;
        for c in &self.children {
            c.fmt_indented(f, indent + 1)?;
        }
        Ok(())
    }

    fn describe(&self) -> String {
        match &self.op {
            Operator::SeqScan { rel, preds, .. } => {
                format!("SeqScan rel#{rel} preds={preds:?}")
            }
            Operator::IndexScan {
                rel,
                index,
                seek_preds,
                residual,
                ..
            } => format!("IndexScan rel#{rel} via {index} seek={seek_preds:?} residual={residual:?}"),
            Operator::HashJoin { edges } => format!("HashJoin edges={edges:?}"),
            Operator::MergeJoin { edges } => format!("MergeJoin edges={edges:?}"),
            Operator::NestedLoopJoin { edges } => format!("NestedLoopJoin edges={edges:?}"),
            Operator::IndexNLJoin {
                edges,
                inner_rel,
                index,
                inner_preds,
                ..
            } => format!(
                "IndexNLJoin inner rel#{inner_rel} via {index} edges={edges:?} inner_preds={inner_preds:?}"
            ),
            Operator::HashAggregate { group } => format!("HashAggregate groups={}", group.len()),
            Operator::Sort { keys } => format!("Sort keys={}", keys.len()),
        }
    }
}

impl fmt::Display for PlanNode {
    /// EXPLAIN-style indented rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: usize, cost: f64) -> PlanNode {
        PlanNode::leaf(
            Operator::SeqScan {
                rel,
                table: TableId(rel as u32),
                preds: vec![],
            },
            100.0,
            cost,
        )
    }

    fn join(l: PlanNode, r: PlanNode, cost: f64) -> PlanNode {
        PlanNode {
            op: Operator::HashJoin { edges: vec![0] },
            est_rows: 50.0,
            est_cost: cost,
            children: vec![l, r],
        }
    }

    #[test]
    fn own_cost_subtracts_children() {
        let p = join(scan(0, 10.0), scan(1, 20.0), 100.0);
        assert_eq!(p.own_cost(), 70.0);
        assert_eq!(p.children[0].own_cost(), 10.0);
    }

    #[test]
    fn same_tree_ignores_estimates() {
        let mut a = join(scan(0, 10.0), scan(1, 20.0), 100.0);
        let b = join(scan(0, 99.0), scan(1, 1.0), 5.0);
        assert!(a.same_tree(&b));
        a.children.swap(0, 1);
        assert!(!a.same_tree(&b), "join order matters");
    }

    #[test]
    fn structural_fingerprint_tracks_same_tree() {
        let mut a = join(scan(0, 10.0), scan(1, 20.0), 100.0);
        let b = join(scan(0, 99.0), scan(1, 1.0), 5.0);
        assert_eq!(
            a.structural_fingerprint(),
            b.structural_fingerprint(),
            "estimates must not affect the fingerprint"
        );
        a.children.swap(0, 1);
        assert_ne!(a.structural_fingerprint(), b.structural_fingerprint());
        let mut c = b.clone();
        c.op = Operator::MergeJoin { edges: vec![0] };
        assert_ne!(c.structural_fingerprint(), b.structural_fingerprint());
    }

    #[test]
    fn same_tree_distinguishes_algorithms() {
        let a = join(scan(0, 1.0), scan(1, 1.0), 1.0);
        let mut b = a.clone();
        b.op = Operator::MergeJoin { edges: vec![0] };
        assert!(!a.same_tree(&b));
    }

    #[test]
    fn signature_distinguishes_predicates() {
        let a = PlanNode::leaf(
            Operator::SeqScan {
                rel: 0,
                table: TableId(0),
                preds: vec![1],
            },
            1.0,
            1.0,
        );
        let b = PlanNode::leaf(
            Operator::SeqScan {
                rel: 0,
                table: TableId(0),
                preds: vec![2],
            },
            1.0,
            1.0,
        );
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn nodes_preorder() {
        let p = join(scan(0, 1.0), scan(1, 2.0), 10.0);
        let names: Vec<&str> = p.nodes().iter().map(|n| n.op.name()).collect();
        assert_eq!(names, vec!["HashJoin", "SeqScan", "SeqScan"]);
    }

    #[test]
    fn display_renders_tree() {
        let p = join(scan(0, 1.0), scan(1, 2.0), 10.0);
        let text = p.to_string();
        assert!(text.contains("HashJoin"));
        assert!(text.lines().count() == 3);
    }
}
