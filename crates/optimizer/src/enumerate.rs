//! Join enumeration: exhaustive dynamic programming over relation subsets.
//!
//! A subset is a bitmask of relation ordinals. Everything the split loop
//! needs about a subset — cardinality, sort cost, neighbourhood, best plan
//! so far — sits in one `Copy` table row computed once per call, so
//! visiting a split reads two rows and allocates nothing. Crossing edge
//! lists and index names exist only on the winning splits, when the tree is
//! rebuilt at the end.
//!
//! The visiting order is a contract, because ties are broken by "first
//! considered wins" (strict `<`) and every plan the system has ever
//! recorded depends on it (DESIGN.md, "Join enumeration"; pinned by
//! `tests/join_enumeration.rs`):
//!
//! * subsets in ascending mask order;
//! * splits `(left, mask \ left)` with `left` descending from `mask - 1`;
//! * per split Hash, Merge, IndexNL, NestedLoop;
//! * a subset with at least one internal edge considers only splits that
//!   an edge crosses, so a cartesian product never ties a connected join
//!   away (cardinality estimates of zero would otherwise make everything
//!   cost-equivalent); a subset with none considers every split as an
//!   edge-less nested loop.

use crate::cost::CostParams;
use crate::error::PlanError;
use crate::plan::{Operator, PlanNode};
use crate::selectivity::SelectivityProfile;
use query::{BoundSelect, PredicateId};
use storage::Database;

/// A set of relation ordinals, one bit each.
type RelMask = u32;

/// Most relations a query may join: [`Optimizer::optimize`] refuses a wider
/// one with [`PlanError::TooManyRelations`]. It bounds one exhaustive call
/// at 2^12 table rows and 3^12 ≈ 531 000 splits, and staying below the mask
/// width keeps `1 << n` from overflowing.
///
/// [`Optimizer::optimize`]: crate::Optimizer::optimize
pub const MAX_DP_RELATIONS: usize = 12;
const _: () = assert!(MAX_DP_RELATIONS < RelMask::BITS as usize);

/// What the enumerator needs of one base relation.
#[derive(Debug)]
pub(crate) struct BaseRelation {
    /// Rows in the table, before any predicate.
    pub raw_rows: f64,
    /// The cheapest access path; its `est_rows` is the filtered cardinality.
    pub access: PlanNode,
}

/// One join edge as the bits of its two endpoints, with its selectivity.
/// An endpoint that is not a relation of the query has no bit, so the edge
/// lies within no subset and crosses no split.
#[derive(Debug, Clone, Copy)]
struct Edge {
    left: RelMask,
    right: RelMask,
    selectivity: f64,
}

impl Edge {
    fn within(&self, mask: RelMask) -> bool {
        mask & self.left != 0 && mask & self.right != 0
    }

    fn crosses(&self, a: RelMask, b: RelMask) -> bool {
        (a & self.left != 0 && b & self.right != 0) || (a & self.right != 0 && b & self.left != 0)
    }
}

/// An index that can drive an index nested-loop join into `rel`: its
/// leading column is `rel`'s side of an edge to each relation in `partners`.
#[derive(Debug, Clone, Copy)]
struct IndexProbe {
    rel: RelMask,
    /// Ordinal in `Database::indexes()`.
    index: usize,
    partners: RelMask,
}

/// How the winning split of a subset joins its two sides.
#[derive(Debug, Clone, Copy)]
enum JoinKind {
    Hash,
    Merge,
    NestedLoop,
    /// Probe index `index` (ordinal in `Database::indexes()`) of the
    /// single-relation right side.
    IndexNl {
        index: usize,
    },
}

/// One row of the subset table.
#[derive(Debug, Clone, Copy)]
struct Subset {
    /// Consistent cardinality: the same for every join order.
    rows: f64,
    /// `sort(rows)`, this subset's share of a merge join.
    sort: f64,
    /// Every relation an edge joins to some member (members included).
    neighbours: RelMask,
    /// Cost of the best plan found.
    cost: f64,
    /// Left side and join method of the best plan's top split; `None` for
    /// a single relation, whose plan is its access path.
    split: Option<(RelMask, JoinKind)>,
}

/// Everything fixed for the length of one call.
struct Enumerator<'a> {
    params: &'a CostParams,
    db: &'a Database,
    query: &'a BoundSelect,
    relations: &'a [BaseRelation],
    edges: Vec<Edge>,
    probes: Vec<IndexProbe>,
}

/// The cheapest join tree over all of `relations`, which the caller has
/// checked to number between 1 and [`MAX_DP_RELATIONS`].
pub(crate) fn best_join_tree(
    params: &CostParams,
    db: &Database,
    query: &BoundSelect,
    profile: &SelectivityProfile,
    relations: &[BaseRelation],
) -> Result<PlanNode, PlanError> {
    let n = relations.len();
    debug_assert!((1..=MAX_DP_RELATIONS).contains(&n));
    let bit = |rel: usize| -> RelMask {
        if rel < n {
            1 << rel
        } else {
            0
        }
    };
    let edges: Vec<Edge> = query
        .join_edges
        .iter()
        .enumerate()
        .map(|(i, e)| Edge {
            left: bit(e.left_rel),
            right: bit(e.right_rel),
            selectivity: profile.value(PredicateId::JoinEdge(i)),
        })
        .collect();

    // Index probes, by relation and then in the database's index order:
    // the first one a split can use is the one it gets.
    let mut probes = Vec::new();
    for rel in 0..n {
        let table = query.table_of(rel);
        for (index, ix) in db.indexes().iter().enumerate() {
            if ix.table != table {
                continue;
            }
            let mut partners = 0;
            for e in &query.join_edges {
                if e.left_rel == rel && e.pairs.iter().any(|p| p.0 == ix.leading_column()) {
                    partners |= bit(e.right_rel);
                }
                if e.right_rel == rel && e.pairs.iter().any(|p| p.1 == ix.leading_column()) {
                    partners |= bit(e.left_rel);
                }
            }
            // An edge from a relation to itself crosses no split.
            partners &= !bit(rel);
            if partners != 0 {
                probes.push(IndexProbe {
                    rel: bit(rel),
                    index,
                    partners,
                });
            }
        }
    }

    let enumerator = Enumerator {
        params,
        db,
        query,
        relations,
        edges,
        probes,
    };
    let full: RelMask = (1 << n) - 1;
    let subsets = enumerator.plan_subsets(full)?;
    enumerator.reconstruct(&subsets, full)
}

impl Enumerator<'_> {
    /// Fill the subset table bottom-up. Row 0 is never read.
    fn plan_subsets(&self, full: RelMask) -> Result<Vec<Subset>, PlanError> {
        // Relations joined to each relation by an edge.
        let mut adjacent = [0 as RelMask; MAX_DP_RELATIONS];
        for e in &self.edges {
            if e.left != e.right && e.left != 0 && e.right != 0 {
                adjacent[e.left.trailing_zeros() as usize] |= e.right;
                adjacent[e.right.trailing_zeros() as usize] |= e.left;
            }
        }

        let blank = Subset {
            rows: 0.0,
            sort: 0.0,
            neighbours: 0,
            cost: 0.0,
            split: None,
        };
        let mut subsets = vec![blank; full as usize + 1];
        for mask in 1..=full {
            let lowest = mask.trailing_zeros() as usize;
            let rest = mask & (mask - 1);

            // Base cardinalities in relation order, then the selectivity of
            // every edge inside the subset in edge order: one fixed order
            // of multiplication per subset, whatever the join order.
            let mut rows = 1.0;
            let mut members = mask;
            while members != 0 {
                rows *= self.relations[members.trailing_zeros() as usize]
                    .access
                    .est_rows;
                members &= members - 1;
            }
            for e in &self.edges {
                if e.within(mask) {
                    rows *= e.selectivity;
                }
            }
            let neighbours = subsets[rest as usize].neighbours | adjacent[lowest];

            let (cost, split) = if rest == 0 {
                (self.relations[lowest].access.est_cost, None)
            } else {
                let connected = neighbours & mask != 0;
                let (cost, left, kind) = self.best_split(&subsets, mask, rows, connected).ok_or(
                    PlanError::NoPlanFound {
                        relations: mask.count_ones() as usize,
                    },
                )?;
                (cost, Some((left, kind)))
            };
            subsets[mask as usize] = Subset {
                rows,
                sort: self.params.sort(rows),
                neighbours,
                cost,
                split,
            };
        }
        Ok(subsets)
    }

    /// The cheapest way to join `mask` (two relations or more, `out_rows`
    /// rows) out of two smaller subsets. `connected`: some edge lies inside
    /// `mask`, so only splits that an edge crosses are considered.
    fn best_split(
        &self,
        subsets: &[Subset],
        mask: RelMask,
        out_rows: f64,
        connected: bool,
    ) -> Option<(f64, RelMask, JoinKind)> {
        let p = self.params;
        let mut best: Option<(f64, RelMask, JoinKind)> = None;
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            let other = mask ^ sub;
            let left = &subsets[sub as usize];
            let right = &subsets[other as usize];
            let crossed = left.neighbours & other != 0;
            if crossed || !connected {
                let mut consider = |kind: JoinKind, cost: f64| {
                    if best.is_none_or(|(c, _, _)| cost < c) {
                        best = Some((cost, sub, kind));
                    }
                };
                if crossed {
                    let base = left.cost + right.cost;
                    consider(
                        JoinKind::Hash,
                        base + p.hash_join(left.rows, right.rows, out_rows),
                    );
                    consider(
                        JoinKind::Merge,
                        base + p.merge_join_sorted(
                            left.sort, right.sort, left.rows, right.rows, out_rows,
                        ),
                    );
                    if let Some((index, fetched)) = self.index_probe(sub, other) {
                        consider(
                            JoinKind::IndexNl { index },
                            left.cost
                                + left.rows.max(1.0) * (p.index_lookup + p.index_row * fetched)
                                + p.join_output * out_rows,
                        );
                    }
                }
                consider(
                    JoinKind::NestedLoop,
                    left.cost + p.nested_loop(left.rows, right.cost, out_rows),
                );
            }
            sub = (sub - 1) & mask;
        }
        best
    }

    /// When `inner` is one relation with an index on a column that an edge
    /// crossing from `outer` joins on: that index, and the rows one probe
    /// fetches (the raw table narrowed by every crossing edge).
    fn index_probe(&self, outer: RelMask, inner: RelMask) -> Option<(usize, f64)> {
        let probe = self
            .probes
            .iter()
            .find(|p| p.rel == inner && p.partners & outer != 0)?;
        let mut narrowed = 1.0;
        for e in &self.edges {
            if e.crosses(outer, inner) {
                narrowed *= e.selectivity;
            }
        }
        let raw = self.relations[inner.trailing_zeros() as usize].raw_rows;
        Some((probe.index, raw * narrowed))
    }

    /// Rebuild the chosen plan tree for `mask` from the subset table.
    fn reconstruct(&self, subsets: &[Subset], mask: RelMask) -> Result<PlanNode, PlanError> {
        let missing = || PlanError::NoPlanFound {
            relations: mask.count_ones() as usize,
        };
        let entry = subsets.get(mask as usize).ok_or_else(missing)?;
        let Some((lmask, kind)) = entry.split else {
            return self
                .relations
                .get(mask.trailing_zeros() as usize)
                .map(|r| r.access.clone())
                .ok_or_else(missing);
        };
        let rmask = mask ^ lmask;
        let left = self.reconstruct(subsets, lmask)?;
        let edges: Vec<usize> = (0..self.edges.len())
            .filter(|&e| self.edges[e].crosses(lmask, rmask))
            .collect();
        let node = |op, children| PlanNode {
            op,
            est_rows: entry.rows,
            est_cost: entry.cost,
            children,
        };
        let op = match kind {
            JoinKind::IndexNl { index } => {
                // The inner side is reached through the index, not planned.
                let inner_rel = rmask.trailing_zeros() as usize;
                let op = Operator::IndexNLJoin {
                    edges,
                    inner_rel,
                    inner_table: self.query.table_of(inner_rel),
                    index: self
                        .db
                        .indexes()
                        .get(index)
                        .ok_or_else(missing)?
                        .name
                        .clone(),
                    inner_preds: self
                        .query
                        .selections_on(inner_rel)
                        .map(|(i, _)| i)
                        .collect(),
                };
                return Ok(node(op, vec![left]));
            }
            JoinKind::Hash => Operator::HashJoin { edges },
            JoinKind::Merge => Operator::MergeJoin { edges },
            JoinKind::NestedLoop => Operator::NestedLoopJoin { edges },
        };
        Ok(node(op, vec![left, self.reconstruct(subsets, rmask)?]))
    }
}
