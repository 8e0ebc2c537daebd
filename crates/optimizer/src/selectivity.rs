//! Selectivity estimation: the statistics consumer.
//!
//! For each selectivity variable of a bound query (§4.1: one per selection
//! predicate, one per join edge, one for GROUP BY) this module produces a
//! value in `[0, 1]` and records *how* it was produced:
//!
//! * `Injected` — the caller forced the value (the §7.2 server extension that
//!   MNSA's `P_low`/`P_high` construction requires);
//! * `Statistics` — estimated from a visible histogram / density;
//! * `Magic` — no applicable statistics; the class default was used.
//!
//! The `Magic` set is exactly the `{s_1 … s_k}` of step (a) in §4.1.
//!
//! A profile is two dense arrays indexed by variable ordinal: the selections
//! first, then the join edges, then GROUP BY — the sorted [`PredicateId`]
//! order, so a walk over the ordinals is a walk in id order. A join edge
//! with histograms on both sides asks [`StatsView::join_selectivity`],
//! which the catalog memoizes per statistic pair; the null fractions and the
//! floor are applied here, on every call.

use crate::magic::magic_number;
use query::{BoundSelect, CmpOp, JoinEdge, PredClass, PredOp, PredicateId, SelectionPredicate};
use rustc_hash::FxHashMap;
use stats::{StatId, StatsView};
use storage::{Database, Fnv};

/// Floor applied to statistics-derived selectivities. A histogram can
/// legitimately estimate zero (no bucket contains the constant), but letting
/// cardinalities collapse to exactly 0 makes every plan cost-equivalent and
/// the join enumeration degenerate; real optimizers floor at "about one
/// row" for the same reason. Injected values are NOT floored — MNSA's ε
/// probe must reach the optimizer exactly.
const MIN_STATS_SELECTIVITY: f64 = 1e-5;

/// Clamp a selectivity into [0, 1], rejecting NaN (mapped to 0). Every value
/// entering a profile passes through here so the cost model downstream can
/// assume finite inputs.
fn clamp01(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

/// How one selectivity value was obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectivitySource {
    Injected,
    /// Statistics used, with the ids involved.
    Statistics(Vec<StatId>),
    Magic(PredClass),
}

/// The estimated selectivity of every variable of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectivityProfile {
    /// Selection predicates: ordinals `0..selections`.
    selections: usize,
    /// Join edges: ordinals `selections..selections + joins`. GROUP BY, when
    /// the query has it, is the one ordinal after them.
    joins: usize,
    values: Vec<f64>,
    sources: Vec<SelectivitySource>,
}

impl SelectivityProfile {
    /// Where `id` sits in the arrays; `None` for an id the query lacks.
    fn ordinal(&self, id: PredicateId) -> Option<usize> {
        match id {
            PredicateId::Selection(i) => (i < self.selections).then_some(i),
            PredicateId::JoinEdge(i) => (i < self.joins).then(|| self.selections + i),
            PredicateId::GroupBy => {
                let at = self.selections + self.joins;
                (at < self.values.len()).then_some(at)
            }
        }
    }

    /// The variable at `ordinal`, which is below `values.len()`.
    fn id(&self, ordinal: usize) -> PredicateId {
        if ordinal < self.selections {
            PredicateId::Selection(ordinal)
        } else if ordinal < self.selections + self.joins {
            PredicateId::JoinEdge(ordinal - self.selections)
        } else {
            PredicateId::GroupBy
        }
    }

    /// Selectivity of one variable (1.0 for an id the query does not have —
    /// harmless identity for cardinality products).
    pub fn value(&self, id: PredicateId) -> f64 {
        self.ordinal(id)
            .and_then(|o| self.values.get(o))
            .copied()
            .unwrap_or(1.0)
    }

    pub fn source(&self, id: PredicateId) -> Option<&SelectivitySource> {
        self.ordinal(id).and_then(|o| self.sources.get(o))
    }

    /// The selectivity variables that fell back to magic numbers — the
    /// `{s_1, …, s_k}` set MNSA perturbs — in sorted order.
    pub fn magic_variables(&self) -> Vec<PredicateId> {
        self.sources
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SelectivitySource::Magic(_)))
            .map(|(o, _)| self.id(o))
            .collect()
    }

    /// Do both profiles hold the same variables with bit-identical values
    /// (`to_bits`, so `0.0` and `-0.0` differ)? `sources` are ignored:
    /// [`Optimizer::plan`](crate::Optimizer::plan) reads only the values to
    /// choose a plan and its cost, so profiles that agree here yield the same
    /// plan and cost for the same query, table metadata and optimizer —
    /// though not the same `magic_variables`, which come from the sources.
    pub fn same_values(&self, other: &SelectivityProfile) -> bool {
        self.selections == other.selections
            && self.joins == other.joins
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(v, w)| v.to_bits() == w.to_bits())
    }

    /// Canonical content hash of the profile: every `(variable, value,
    /// source)` triple in sorted variable order, with f64 values hashed via
    /// their bit patterns. Two profiles with equal fingerprints drive the
    /// optimizer to the same plan for the same query and table metadata —
    /// this is the *statistics-subset signature* of the optimize cache.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (o, (value, source)) in self.values.iter().zip(&self.sources).enumerate() {
            match self.id(o) {
                PredicateId::Selection(i) => h.write(0).write(i as u64),
                PredicateId::JoinEdge(i) => h.write(1).write(i as u64),
                PredicateId::GroupBy => h.write(2),
            };
            h.write(value.to_bits());
            match source {
                SelectivitySource::Injected => {
                    h.write(3);
                }
                SelectivitySource::Statistics(stat_ids) => {
                    h.write(4).write(stat_ids.len() as u64);
                    for s in stat_ids {
                        h.write(s.0 as u64);
                    }
                }
                SelectivitySource::Magic(class) => {
                    h.write(5).write(*class as u64);
                }
            }
        }
        h.finish()
    }

    /// Combined selectivity of all selection predicates on relation `rel`
    /// (independence assumption across conjuncts).
    pub fn relation_filter(&self, query: &BoundSelect, rel: usize) -> f64 {
        query
            .selections_on(rel)
            .map(|(i, _)| self.value(PredicateId::Selection(i)))
            .product()
    }
}

/// Estimate one selection predicate from the statistics view. Returns
/// `(selectivity, ids used)` or `None` when no statistics apply.
fn selection_from_stats(
    view: &StatsView<'_>,
    query: &BoundSelect,
    pred: &SelectionPredicate,
) -> Option<(f64, Vec<StatId>)> {
    let table = query.table_of(pred.column.relation);
    let stat = view.histogram_for(table, pred.column.column)?;
    let h = &stat.histogram;
    let non_null = 1.0 - stat.null_fraction;
    let sel = match &pred.op {
        PredOp::Cmp(CmpOp::Eq, v) => h.selectivity_eq(v),
        PredOp::Cmp(CmpOp::Ne, v) => h.selectivity_ne(v),
        PredOp::Cmp(CmpOp::Lt, v) => h.selectivity_lt(v),
        PredOp::Cmp(CmpOp::Le, v) => h.selectivity_le(v),
        PredOp::Cmp(CmpOp::Gt, v) => h.selectivity_gt(v),
        PredOp::Cmp(CmpOp::Ge, v) => h.selectivity_ge(v),
        PredOp::Between(lo, hi) => h.selectivity_between(lo, hi),
    };
    Some((clamp01(sel * non_null), vec![stat.id]))
}

/// The inclusive numeric range a predicate restricts its column to, or
/// `None` for predicates a 2-D histogram cannot serve (`<>`).
fn pred_range(op: &PredOp) -> Option<(Option<f64>, Option<f64>)> {
    match op {
        PredOp::Cmp(CmpOp::Eq, v) => {
            let k = v.numeric_key();
            Some((Some(k), Some(k)))
        }
        PredOp::Cmp(CmpOp::Lt | CmpOp::Le, v) => Some((None, Some(v.numeric_key()))),
        PredOp::Cmp(CmpOp::Gt | CmpOp::Ge, v) => Some((Some(v.numeric_key()), None)),
        PredOp::Cmp(CmpOp::Ne, _) => None,
        PredOp::Between(l, h) => Some((Some(l.numeric_key()), Some(h.numeric_key()))),
    }
}

/// Joint-histogram refinement (the paper's [13] — estimation *without* the
/// attribute-value-independence assumption). When two statistics-estimated
/// predicates of the same relation touch a column pair covered by a Phased
/// 2-D histogram, the second predicate's marginal selectivity is replaced
/// with the conditional `joint / marginal`, so the product the optimizer
/// forms equals the joint estimate. Injected and magic variables are left
/// untouched — MNSA's probes must pass through exactly. `values` and
/// `sources` hold the selections, at their ordinals.
fn apply_joint_refinement(
    view: &StatsView<'_>,
    query: &BoundSelect,
    values: &mut [f64],
    sources: &mut [SelectivitySource],
) {
    let n = query.selections.len();
    let mut consumed = vec![false; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if consumed[i] || consumed[j] {
                continue;
            }
            let (pi, pj) = (&query.selections[i], &query.selections[j]);
            if pi.column.relation != pj.column.relation || pi.column.column == pj.column.column {
                continue;
            }
            let stats_sourced =
                |o: usize| matches!(sources.get(o), Some(SelectivitySource::Statistics(_)));
            if !stats_sourced(i) || !stats_sourced(j) {
                continue;
            }
            let (Some(ri), Some(rj)) = (pred_range(&pi.op), pred_range(&pj.op)) else {
                continue;
            };
            let table = query.table_of(pi.column.relation);
            let Some((stat, flipped)) = view.joint_for(table, pi.column.column, pj.column.column)
            else {
                continue;
            };
            // `joint_for` only returns statistics carrying a joint histogram;
            // tolerate a violation instead of trusting it with a panic.
            let Some(joint_hist) = stat.joint.as_ref() else {
                continue;
            };
            let (xr, yr) = if flipped { (rj, ri) } else { (ri, rj) };
            let joint = joint_hist.selectivity(&stats::RangeQuery {
                x_lo: xr.0,
                x_hi: xr.1,
                y_lo: yr.0,
                y_hi: yr.1,
            });
            let marginal_i = values.get(i).copied().unwrap_or(1.0);
            if marginal_i > 0.0 {
                if let Some(v) = values.get_mut(j) {
                    *v = clamp01(joint / marginal_i);
                }
                if let Some(SelectivitySource::Statistics(ids)) = sources.get_mut(j) {
                    if !ids.contains(&stat.id) {
                        ids.push(stat.id);
                    }
                }
                consumed[i] = true;
                consumed[j] = true;
            }
        }
    }
}

/// Estimate one join edge. Statistics must be available on **both** sides
/// (join statistics are useful in pairs, §4.2).
///
/// Single-column edges with histograms on both sides use the histogram
/// dot-product `Σ_v p_l(v)·p_r(v)`, which models skewed-key fan-out (read
/// through the view, which memoizes it per statistic pair);
/// multi-column edges fall back to the density-based
/// `1 / max(NDV_left, NDV_right)` over the joined column sets.
fn join_from_stats(
    view: &StatsView<'_>,
    query: &BoundSelect,
    edge: &JoinEdge,
) -> Option<(f64, Vec<StatId>)> {
    let lt = query.table_of(edge.left_rel);
    let rt = query.table_of(edge.right_rel);
    if let [(lcol, rcol)] = edge.pairs[..] {
        let ls = view.histogram_for(lt, lcol)?;
        let rs = view.histogram_for(rt, rcol)?;
        let sel =
            view.join_selectivity(ls, rs) * (1.0 - ls.null_fraction) * (1.0 - rs.null_fraction);
        return Some((clamp01(sel), vec![ls.id, rs.id]));
    }

    let lcols: Vec<usize> = edge.pairs.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = edge.pairs.iter().map(|&(_, r)| r).collect();
    let side = |table, cols: &[usize]| -> Option<(f64, StatId)> {
        let (s, density) = view.density_for_set(table, cols)?;
        Some((if density > 0.0 { 1.0 / density } else { 0.0 }, s.id))
    };
    let (lndv, lid) = side(lt, &lcols)?;
    let (rndv, rid) = side(rt, &rcols)?;
    let denom = lndv.max(rndv).max(1.0);
    Some((clamp01(1.0 / denom), vec![lid, rid]))
}

/// Estimate the GROUP BY distinct fraction: estimated distinct group count
/// divided by the aggregate input cardinality (capped at 1).
///
/// Statistics must cover **every** grouping column (via a single-column NDV
/// or a multi-column density per table); otherwise the class magic number is
/// used, matching §4.1's aggregation extension.
fn group_by_from_stats(
    view: &StatsView<'_>,
    query: &BoundSelect,
    input_rows: f64,
) -> Option<(f64, Vec<StatId>)> {
    if query.group_by.is_empty() {
        return None;
    }
    // Group grouping columns per relation; per relation prefer one
    // multi-column density, else multiply single-column NDVs. Relations are
    // visited in sorted order (BTreeMap): the f64 product and the statistic
    // id list must not depend on hash-map iteration order, which differs
    // across threads and would break bit-identical parallel tuning.
    let mut per_rel: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for g in &query.group_by {
        per_rel.entry(g.relation).or_default().push(g.column);
    }
    let mut distinct = 1.0f64;
    let mut ids = Vec::new();
    for (rel, cols) in per_rel {
        let table = query.table_of(rel);
        if cols.len() > 1 {
            if let Some((s, density)) = view.density_for_set(table, &cols) {
                distinct *= if density > 0.0 { 1.0 / density } else { 1.0 };
                ids.push(s.id);
                continue;
            }
        }
        for &c in &cols {
            let s = view.histogram_for(table, c)?;
            distinct *= s.leading_ndv().max(1.0);
            ids.push(s.id);
        }
    }
    let fraction = clamp01(distinct / input_rows.max(1.0));
    Some((fraction, ids))
}

/// Build the full selectivity profile for a query.
///
/// `injected` overrides statistics and magic numbers for the given variables
/// (§7.2's modified selectivity-estimation module); ids the query lacks are
/// ignored. `input_rows_for_agg` is the estimated aggregate input
/// cardinality, needed to convert a distinct count into a fraction.
pub fn build_profile(
    db: &Database,
    view: &StatsView<'_>,
    query: &BoundSelect,
    injected: &FxHashMap<PredicateId, f64>,
) -> SelectivityProfile {
    let injected = |id: PredicateId| {
        if injected.is_empty() {
            None
        } else {
            injected.get(&id).copied()
        }
    };
    let selections = query.selections.len();
    let joins = query.join_edges.len();
    let len = selections + joins + usize::from(!query.group_by.is_empty());
    let mut values = Vec::with_capacity(len);
    let mut sources = Vec::with_capacity(len);

    for (i, pred) in query.selections.iter().enumerate() {
        let (value, source) = if let Some(v) = injected(PredicateId::Selection(i)) {
            (clamp01(v), SelectivitySource::Injected)
        } else if let Some((v, ids)) = selection_from_stats(view, query, pred) {
            (
                v.max(MIN_STATS_SELECTIVITY),
                SelectivitySource::Statistics(ids),
            )
        } else {
            let class = pred.op.class();
            (magic_number(class), SelectivitySource::Magic(class))
        };
        values.push(value);
        sources.push(source);
    }

    // Joint 2-D histograms refine pairs of selection estimates, when built.
    apply_joint_refinement(view, query, &mut values, &mut sources);

    for (i, edge) in query.join_edges.iter().enumerate() {
        let (value, source) = if let Some(v) = injected(PredicateId::JoinEdge(i)) {
            (clamp01(v), SelectivitySource::Injected)
        } else if let Some((v, ids)) = join_from_stats(view, query, edge) {
            (
                v.max(MIN_STATS_SELECTIVITY / 10.0),
                SelectivitySource::Statistics(ids),
            )
        } else {
            (
                magic_number(PredClass::Join),
                SelectivitySource::Magic(PredClass::Join),
            )
        };
        values.push(value);
        sources.push(source);
    }

    if !query.group_by.is_empty() {
        // Aggregate input cardinality under the values chosen so far.
        let mut input_rows = 1.0f64;
        for (rel, (tid, _)) in query.relations.iter().enumerate() {
            // A stale table id contributes no rows here; the planner proper
            // reports it as a typed error.
            let base = db.try_slices(*tid).map_or(0.0, |t| t.row_count() as f64);
            let filter: f64 = query
                .selections_on(rel)
                .map(|(i, _)| values.get(i).copied().unwrap_or(1.0))
                .product();
            input_rows *= base * filter;
        }
        for edge in values.get(selections..).unwrap_or_default() {
            input_rows *= edge;
        }
        let (value, source) = if let Some(v) = injected(PredicateId::GroupBy) {
            (clamp01(v), SelectivitySource::Injected)
        } else if let Some((v, ids)) = group_by_from_stats(view, query, input_rows) {
            (v, SelectivitySource::Statistics(ids))
        } else {
            (
                magic_number(PredClass::GroupBy),
                SelectivitySource::Magic(PredClass::GroupBy),
            )
        };
        values.push(value);
        sources.push(source);
    }

    SelectivityProfile {
        selections,
        joins,
        values,
        sources,
    }
}
