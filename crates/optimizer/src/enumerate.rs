//! Join enumeration: exhaustive dynamic programming over the relation
//! subsets a plan can be built from.
//!
//! A subset is a bitmask of relation ordinals. Everything the split loop
//! needs about a subset — cardinality, sort cost, neighbourhood, whether it
//! is planned, best plan so far — sits in one `Copy` table row computed
//! once per call, so visiting a split reads two rows and allocates nothing.
//! Crossing edge lists and index names exist only on the winning splits,
//! when the tree is rebuilt at the end.
//!
//! **The search space.** A subset is planned when its join graph is
//! connected, or when it is a union of whole components of the query's
//! join graph (no edge leaves it). A planned subset of two relations or
//! more is split into two planned halves. In a connected subset an edge
//! crosses every such split, and the halves are joined by Hash, Merge,
//! IndexNL or NestedLoop. In a union of components no edge crosses any
//! such split, and the halves are joined by an edge-less nested loop: a
//! query with a disconnected join graph takes its cartesian products at
//! the top, between whole components, and never inside one.
//!
//! **Ties.** The visiting order is a contract, because ties are broken by
//! "first considered wins" (strict `<`) and every recorded plan depends on
//! it (DESIGN.md, "Join enumeration"; `tests/join_enumeration.rs` pins
//! hand-built queries and a digest of 480 plans, and
//! `tests/join_optimality.rs` holds every cost to a brute-force search):
//!
//! * subsets in ascending mask order;
//! * splits `(left, mask \ left)` with `left` descending from `mask - 1`,
//!   skipping every split with an unplanned half;
//! * per split Hash, Merge, IndexNL, NestedLoop;
//! * a split's Merge is skipped on the second visit of its unordered pair
//!   (`left < mask \ left`): a merge join costs the same to the bit either
//!   way round (each sum in it is one commutative addition), and the best
//!   cost after the first visit is already no higher, so the mirrored
//!   candidate could not win a strict `<` (a NaN wins none either way);
//! * IndexNL is looked for only when the right side is one relation, the
//!   only side an index can be probed into.
//!
//! **Which plans differ from the enumerator that also planned subsets
//! without an internal edge.** Its candidates were a superset of these, in
//! the same order, and every cost is monotone in the costs of its two
//! halves. So a plan of that enumerator whose every join has an edge
//! crossing it is still found, to the bit, with the same ties; only a plan
//! that joined two sides no edge connects, below a union of whole
//! components, is replaced by the cheapest plan without such a join.

use crate::cost::CostParams;
use crate::error::PlanError;
use crate::plan::{Operator, PlanNode};
use crate::selectivity::SelectivityProfile;
use query::{BoundSelect, PredicateId};
use storage::Database;

/// A set of relation ordinals, one bit each.
type RelMask = u32;

/// Most relations a query may join: [`Optimizer::optimize`] refuses a wider
/// one with [`PlanError::TooManyRelations`]. It bounds one call at 2^12
/// table rows and 3^12 ≈ 531 000 visited splits, the count for a clique or
/// a query without edges, where every subset is planned (a chain of twelve
/// plans 78 subsets and visits 16 200 splits, 572 of them with both halves
/// planned); staying below the mask width keeps `1 << n` from overflowing.
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
    /// The subset is connected or a union of whole components (module
    /// docs); `rows`, `sort`, `cost` and `split` are set only when it is.
    planned: bool,
    /// Cost of the best plan found.
    cost: f64,
    /// Left side and join method of the best plan's top split; `None` for
    /// a single relation, whose plan is its access path.
    split: Option<(RelMask, JoinKind)>,
}

/// Everything fixed for the length of one call.
struct Enumerator<'a> {
    db: &'a Database,
    query: &'a BoundSelect,
    relations: &'a [BaseRelation],
    edges: Vec<Edge>,
    probes: Vec<IndexProbe>,
}

/// The cheapest join tree over all of `relations`, which the caller has
/// checked to number between 1 and [`MAX_DP_RELATIONS`].
pub(crate) fn best_join_tree(
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
            planned: false,
            cost: 0.0,
            split: None,
        };
        let mut subsets = vec![blank; full as usize + 1];
        for mask in 1..=full {
            let lowest = mask.trailing_zeros() as usize;
            let rest = mask & (mask - 1);
            let neighbours = subsets[rest as usize].neighbours | adjacent[lowest];
            subsets[mask as usize].neighbours = neighbours;

            // Connected: grown from its lowest member through the
            // neighbourhoods of strictly smaller subsets, it reaches every
            // member. A union of whole components: no edge leaves it.
            let mut reached = mask & mask.wrapping_neg();
            while reached != mask {
                let grown = (reached | subsets[reached as usize].neighbours) & mask;
                if grown == reached {
                    break;
                }
                reached = grown;
            }
            if reached != mask && neighbours & !mask != 0 {
                continue;
            }

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

            let (cost, split) = if rest == 0 {
                (self.relations[lowest].access.est_cost, None)
            } else {
                let (cost, left, kind) =
                    self.best_split(&subsets, mask, rows)
                        .ok_or(PlanError::NoPlanFound {
                            relations: mask.count_ones() as usize,
                        })?;
                (cost, Some((left, kind)))
            };
            subsets[mask as usize] = Subset {
                rows,
                sort: CostParams::sort(rows),
                neighbours,
                planned: true,
                cost,
                split,
            };
        }
        Ok(subsets)
    }

    /// The cheapest way to join the planned subset `mask` (two relations
    /// or more, `out_rows` rows) out of two planned halves: by every method
    /// when an edge crosses them, by an edge-less nested loop when none
    /// does (then `mask` is a union of whole components).
    fn best_split(
        &self,
        subsets: &[Subset],
        mask: RelMask,
        out_rows: f64,
    ) -> Option<(f64, RelMask, JoinKind)> {
        type C = CostParams;
        let output = C::JOIN_OUTPUT * out_rows;
        let mut best_cost = f64::INFINITY;
        let mut best: Option<(RelMask, JoinKind)> = None;
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            let other = mask ^ sub;
            let left = &subsets[sub as usize];
            let right = &subsets[other as usize];
            if left.planned && right.planned {
                let mut consider = |kind: JoinKind, cost: f64| {
                    if best.is_none() || cost < best_cost {
                        best_cost = cost;
                        best = Some((sub, kind));
                    }
                };
                if left.neighbours & other != 0 {
                    let base = left.cost + right.cost;
                    consider(
                        JoinKind::Hash,
                        base + C::hash_join_priced(left.rows, right.rows, output),
                    );
                    // `other` was the left side of an earlier split, whose
                    // Merge cost this one's to the bit (module docs).
                    if sub > other {
                        consider(
                            JoinKind::Merge,
                            base + C::merge_join_priced(
                                left.sort, right.sort, left.rows, right.rows, output,
                            ),
                        );
                    }
                    if other & (other - 1) == 0 {
                        if let Some((index, fetched)) = self.index_probe(sub, other) {
                            consider(
                                JoinKind::IndexNl { index },
                                left.cost
                                    + left.rows.max(1.0)
                                        * (C::INDEX_LOOKUP + C::INDEX_ROW * fetched)
                                    + output,
                            );
                        }
                    }
                }
                consider(
                    JoinKind::NestedLoop,
                    left.cost + C::nested_loop_priced(left.rows, right.cost, output),
                );
            }
            sub = (sub - 1) & mask;
        }
        best.map(|(left, kind)| (best_cost, left, kind))
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
