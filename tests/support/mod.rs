//! Oracles: the slow, obviously right code the library shipped before a
//! faster kernel replaced it, kept verbatim to hold the kernel to. Do not
//! optimise them.
//!
//! * [`build_statistic_oracle`] (`tests/stat_build_equivalence.rs`) is the
//!   `Value`-boxed statistic builder the typed column scan
//!   (`stats::statistic::TableScan`) replaced: every cell is read into a
//!   `Value`, the leading column goes through `Histogram::build`, and each
//!   prefix density counts `Vec<&Value>` tuples in a hash map.
//! * [`join_selectivity_oracle`] (`tests/histogram_properties.rs`) is the
//!   loop over all `B_a × B_b` bucket pairs that `stats::join_selectivity`'s
//!   sorted sweep replaced.
//! * [`shrinking_set_oracle`] (`tests/shrinking_known_plans.rs`) is Figure
//!   2's loop as it was before `autostats::shrinking_set_traced` learned to
//!   skip `plan` for a profile it has already planned: every reference and
//!   every trial is a full `Optimizer::optimize`.
//! * [`build_profile_oracle`] (`tests/profile_equivalence.rs`) is the
//!   selectivity-profile builder that kept two hash maps per call and
//!   called `stats::join_selectivity` for every join edge, before the
//!   profile became two arrays and the catalog memoized join selectivities.

//!
//! [`history`] is not an oracle of a kernel but of the sharded cluster: the
//! unsharded database it must agree with (`tests/serve_history.rs`).
//! [`join_oracle`] is not code the library shipped either: it is the search
//! the join enumerator's dynamic programming shortcuts, every join tree
//! priced one by one (`tests/join_optimality.rs`).

// Each test file that mounts this module uses one of them.
#![allow(dead_code)]

pub mod history;
pub mod join_oracle;

use autostats::{Equivalence, ShrinkingOutcome};
use optimizer::{
    magic_number, OptimizeOptions, OptimizedQuery, Optimizer, PlanError, SelectivitySource,
};
use query::{BoundSelect, CmpOp, JoinEdge, PredClass, PredOp, PredicateId, SelectionPredicate};
use rustc_hash::FxHashMap;
use stats::histogram::Bucket;
use stats::statistic::build_work;
use stats::{
    BuildOptions, Histogram, Histogram2d, StatDescriptor, StatId, Statistic, StatsCatalog,
    StatsView,
};
use std::collections::HashSet;
use storage::{Database, Fnv, Table, TableId, Value};

/// Build a [`Statistic`] over `descriptor.columns` of `table`, reading
/// every row.
pub fn build_statistic_oracle(
    id: StatId,
    table: &Table,
    descriptor: StatDescriptor,
    options: &BuildOptions,
    epoch: u64,
) -> Statistic {
    let total_rows = table.row_count();

    // Extract column values.
    let mut cols: Vec<Vec<Value>> = Vec::with_capacity(descriptor.columns.len());
    for &c in &descriptor.columns {
        let mut vals = Vec::with_capacity(total_rows);
        for r in 0..total_rows {
            vals.push(table.value(r, c));
        }
        cols.push(vals);
    }

    // Leading column: histogram over non-null values + null fraction.
    let leading: Vec<Value> = cols[0].iter().filter(|v| !v.is_null()).cloned().collect();
    let null_fraction = if total_rows == 0 {
        0.0
    } else {
        (total_rows - leading.len()) as f64 / total_rows as f64
    };
    let histogram = Histogram::build(&leading, stats::MAX_BUCKETS);

    // Prefix densities.
    let mut prefix_densities = Vec::with_capacity(descriptor.columns.len());
    for k in 1..=descriptor.columns.len() {
        let slices: Vec<&[Value]> = cols[..k].iter().map(|c| c.as_slice()).collect();
        let ndv = tuple_ndv(&slices);
        prefix_densities.push(if ndv <= 0.0 { 0.0 } else { 1.0 / ndv });
    }

    // Optional joint (2-D) histogram over the first two columns.
    let joint = if options.joint_histograms && descriptor.columns.len() >= 2 {
        Some(Histogram2d::build(&cols[0], &cols[1], 16, 8))
    } else {
        None
    };

    let col_bytes: usize = descriptor
        .columns
        .iter()
        .map(|&c| table.schema().column(c).data_type.byte_width())
        .sum();
    let mut build_cost = build_work(total_rows, col_bytes, descriptor.columns.len());
    if joint.is_some() {
        // The second phase of the Phased construction is one more sort.
        build_cost += build_work(total_rows, 0, 1);
    }

    Statistic {
        id,
        descriptor,
        histogram,
        prefix_densities,
        null_fraction,
        row_count_at_build: total_rows,
        build_cost,
        update_count: 0,
        mods_at_build: table.modification_counter(),
        created_epoch: epoch,
        joint,
    }
}

/// The NDV of value *tuples* (multi-column combinations) of parallel
/// columns: `columns[c][i]` is column `c` of row `i`.
fn tuple_ndv(columns: &[&[Value]]) -> f64 {
    if columns.is_empty() || columns[0].is_empty() {
        return 0.0;
    }
    let n = columns[0].len();
    debug_assert!(columns.iter().all(|c| c.len() == n));
    let mut freq: FxHashMap<Vec<&Value>, usize> =
        FxHashMap::with_capacity_and_hasher(n, Default::default());
    for i in 0..n {
        let tuple: Vec<&Value> = columns.iter().map(|c| &c[i]).collect();
        *freq.entry(tuple).or_insert(0) += 1;
    }
    freq.len() as f64
}

/// The string prefix a histogram stripped before keying, as its `Debug`
/// rendering shows it (the field is private, and last).
fn str_prefix(h: &Histogram) -> String {
    let rendered = format!("{h:?}");
    let (_, prefix) = rendered.rsplit_once("str_prefix: ").unwrap();
    prefix.to_string()
}

/// Equi-join selectivity of two histograms, every bucket of `a` against
/// every bucket of `b`.
pub fn join_selectivity_oracle(a: &Histogram, b: &Histogram) -> f64 {
    if a.rows() == 0.0 || b.rows() == 0.0 {
        return 0.0;
    }
    if str_prefix(a) != str_prefix(b) {
        return (1.0 / a.ndv().max(b.ndv()).max(1.0)).clamp(0.0, 1.0);
    }
    let mut sel = 0.0;
    for ba in a.buckets() {
        for bb in b.buckets() {
            let lo = ba.lo.max(bb.lo);
            let hi = ba.hi.min(bb.hi);
            if hi < lo {
                continue;
            }
            let count_in = |b: &Bucket| -> f64 {
                let w = b.hi - b.lo;
                let d = b.distinct.max(1.0);
                if w <= 0.0 {
                    return d;
                }
                let s = w / (d - 1.0).max(1.0);
                (d * ((hi - lo) + s) / (w + s)).min(d)
            };
            let common = count_in(ba).min(count_in(bb));
            if common <= 0.0 {
                continue;
            }
            let mass_a = ba.fraction / ba.distinct.max(1.0);
            let mass_b = bb.fraction / bb.distinct.max(1.0);
            sel += common * mass_a * mass_b;
        }
    }
    if sel.is_nan() {
        0.0
    } else {
        sel.clamp(0.0, 1.0)
    }
}

/// Is statistic `stat` potentially relevant to a query with the given
/// relevant `(table, column)` set?
fn potentially_relevant(
    catalog: &StatsCatalog,
    stat: StatId,
    relevant: &[(TableId, usize)],
) -> bool {
    catalog.statistic(stat).is_some_and(|s| {
        s.descriptor
            .columns
            .iter()
            .any(|&c| relevant.contains(&(s.descriptor.table, c)))
    })
}

/// Shrinking-Set(W, S) per Figure 2, iterated to a fixed point, optimizing
/// every reference and every trial in full.
pub fn shrinking_set_oracle(
    db: &Database,
    catalog: &mut StatsCatalog,
    optimizer: &Optimizer,
    workload: &[BoundSelect],
    initial: &[StatId],
    equivalence: Equivalence,
    apply: bool,
) -> Result<ShrinkingOutcome, PlanError> {
    let all_active: HashSet<StatId> = catalog.active_ids().into_iter().collect();
    let initial_set: HashSet<StatId> = initial.iter().copied().collect();
    let base_ignore: HashSet<StatId> = all_active.difference(&initial_set).copied().collect();

    let mut calls = 0usize;
    let mut optimize = |catalog: &StatsCatalog,
                        q: &BoundSelect,
                        ignore: &HashSet<StatId>|
     -> Result<OptimizedQuery, PlanError> {
        calls += 1;
        optimizer.optimize(db, q, catalog.view(ignore), &OptimizeOptions::default())
    };

    let reference: Vec<OptimizedQuery> = workload
        .iter()
        .map(|q| optimize(catalog, q, &base_ignore))
        .collect::<Result<_, _>>()?;

    let relevant: Vec<Vec<(TableId, usize)>> =
        workload.iter().map(|q| q.relevant_columns()).collect();

    let mut r: Vec<StatId> = initial.to_vec();
    let mut removed: Vec<StatId> = Vec::new();
    let mut ignore = base_ignore.clone();
    loop {
        let mut removed_this_pass = false;
        for &s in &r.clone() {
            ignore.insert(s);
            let mut removable = true;
            for (qi, q) in workload.iter().enumerate() {
                if !potentially_relevant(catalog, s, &relevant[qi]) {
                    continue;
                }
                let trial = optimize(catalog, q, &ignore)?;
                if !equivalence.equivalent(&trial, &reference[qi]) {
                    removable = false;
                    break;
                }
            }
            if removable {
                r.retain(|&x| x != s);
                removed.push(s);
                removed_this_pass = true;
            } else {
                ignore.remove(&s);
            }
        }
        if !removed_this_pass {
            break;
        }
    }

    if apply {
        for &s in &removed {
            catalog.move_to_drop_list(s);
        }
    }
    Ok(ShrinkingOutcome {
        essential: r,
        removed,
        optimizer_calls: calls,
    })
}

/// A selectivity profile as [`build_profile_oracle`] builds it: one hash
/// map of values and one of sources, keyed by variable.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOracle {
    pub values: FxHashMap<PredicateId, f64>,
    pub sources: FxHashMap<PredicateId, SelectivitySource>,
}

impl ProfileOracle {
    /// Selectivity of one variable (1.0 for an id the query does not have —
    /// harmless identity for cardinality products).
    pub fn value(&self, id: PredicateId) -> f64 {
        self.values.get(&id).copied().unwrap_or(1.0)
    }

    pub fn source(&self, id: PredicateId) -> Option<&SelectivitySource> {
        self.sources.get(&id)
    }

    /// The selectivity variables that fell back to magic numbers — the
    /// `{s_1, …, s_k}` set MNSA perturbs.
    pub fn magic_variables(&self) -> Vec<PredicateId> {
        let mut v: Vec<PredicateId> = self
            .sources
            .iter()
            .filter(|(_, s)| matches!(s, SelectivitySource::Magic(_)))
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Canonical content hash of the profile: every `(variable, value,
    /// source)` triple in sorted variable order, with f64 values hashed via
    /// their bit patterns. Two profiles with equal fingerprints drive the
    /// optimizer to the same plan for the same query and table metadata —
    /// this is the *statistics-subset signature* of the optimize cache.
    pub fn fingerprint(&self) -> u64 {
        let mut ids: Vec<PredicateId> = self.values.keys().copied().collect();
        ids.sort();
        let mut h = Fnv::new();
        for id in ids {
            match id {
                PredicateId::Selection(i) => h.write(0).write(i as u64),
                PredicateId::JoinEdge(i) => h.write(1).write(i as u64),
                PredicateId::GroupBy => h.write(2),
            };
            h.write(self.values[&id].to_bits());
            match &self.sources[&id] {
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
}

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
/// untouched — MNSA's probes must pass through exactly.
fn apply_joint_refinement(
    view: &StatsView<'_>,
    query: &BoundSelect,
    values: &mut FxHashMap<PredicateId, f64>,
    sources: &mut FxHashMap<PredicateId, SelectivitySource>,
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
            let (idi, idj) = (PredicateId::Selection(i), PredicateId::Selection(j));
            let stats_sourced = |id: &PredicateId| {
                matches!(sources.get(id), Some(SelectivitySource::Statistics(_)))
            };
            if !stats_sourced(&idi) || !stats_sourced(&idj) {
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
            let marginal_i = values.get(&idi).copied().unwrap_or(1.0);
            if marginal_i > 0.0 {
                values.insert(idj, clamp01(joint / marginal_i));
                if let Some(SelectivitySource::Statistics(ids)) = sources.get_mut(&idj) {
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
/// dot-product `Σ_v p_l(v)·p_r(v)`, which models skewed-key fan-out;
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
        let sel = stats::join_selectivity(&ls.histogram, &rs.histogram)
            * (1.0 - ls.null_fraction)
            * (1.0 - rs.null_fraction);
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
/// (§7.2's modified selectivity-estimation module). `input_rows_for_agg` is
/// the estimated aggregate input cardinality, needed to convert a distinct
/// count into a fraction.
pub fn build_profile_oracle(
    db: &Database,
    view: &StatsView<'_>,
    query: &BoundSelect,
    injected: &FxHashMap<PredicateId, f64>,
) -> ProfileOracle {
    let mut values = FxHashMap::default();
    let mut sources = FxHashMap::default();

    for (i, pred) in query.selections.iter().enumerate() {
        let id = PredicateId::Selection(i);
        if let Some(&v) = injected.get(&id) {
            values.insert(id, clamp01(v));
            sources.insert(id, SelectivitySource::Injected);
        } else if let Some((v, ids)) = selection_from_stats(view, query, pred) {
            values.insert(id, v.max(MIN_STATS_SELECTIVITY));
            sources.insert(id, SelectivitySource::Statistics(ids));
        } else {
            let class = pred.op.class();
            values.insert(id, magic_number(class));
            sources.insert(id, SelectivitySource::Magic(class));
        }
    }

    // Joint 2-D histograms refine pairs of selection estimates, when built.
    apply_joint_refinement(view, query, &mut values, &mut sources);

    for (i, edge) in query.join_edges.iter().enumerate() {
        let id = PredicateId::JoinEdge(i);
        if let Some(&v) = injected.get(&id) {
            values.insert(id, clamp01(v));
            sources.insert(id, SelectivitySource::Injected);
        } else if let Some((v, ids)) = join_from_stats(view, query, edge) {
            values.insert(id, v.max(MIN_STATS_SELECTIVITY / 10.0));
            sources.insert(id, SelectivitySource::Statistics(ids));
        } else {
            values.insert(id, magic_number(PredClass::Join));
            sources.insert(id, SelectivitySource::Magic(PredClass::Join));
        }
    }

    if !query.group_by.is_empty() {
        let id = PredicateId::GroupBy;
        // Aggregate input cardinality under the values chosen so far.
        let mut input_rows = 1.0f64;
        for (rel, (tid, _)) in query.relations.iter().enumerate() {
            // A stale table id contributes no rows here; the planner proper
            // reports it as a typed error.
            let base = db.try_table(*tid).map_or(0.0, |t| t.row_count() as f64);
            let filter: f64 = query
                .selections_on(rel)
                .map(|(i, _)| {
                    values
                        .get(&PredicateId::Selection(i))
                        .copied()
                        .unwrap_or(1.0)
                })
                .product();
            input_rows *= base * filter;
        }
        for (i, _) in query.join_edges.iter().enumerate() {
            input_rows *= values
                .get(&PredicateId::JoinEdge(i))
                .copied()
                .unwrap_or(1.0);
        }
        if let Some(&v) = injected.get(&id) {
            values.insert(id, clamp01(v));
            sources.insert(id, SelectivitySource::Injected);
        } else if let Some((v, ids)) = group_by_from_stats(view, query, input_rows) {
            values.insert(id, v);
            sources.insert(id, SelectivitySource::Statistics(ids));
        } else {
            values.insert(id, magic_number(PredClass::GroupBy));
            sources.insert(id, SelectivitySource::Magic(PredClass::GroupBy));
        }
    }

    ProfileOracle { values, sources }
}
