//! The retained row-at-a-time reference interpreter.
//!
//! This is the original plan interpreter, kept after the columnar batch
//! engine in [`crate::exec`] replaced it on the hot path; its one change
//! since is that a join key's components compare their types (`JoinKey`).
//! It exists as the differential oracle: the columnar engine must be
//! *bit-identical* to this implementation — same `ExecOutput.rows`, same
//! `work` — and `tests/columnar_equivalence.rs` proves it by running both on
//! random plans and databases.
//!
//! Its per-row costs are exactly the ones the columnar engine removes: every
//! value access re-resolves relation → table, and every join/group key is a
//! freshly materialized `Vec<Value>` (a reference-count bump per `Str`
//! column, since string cells are shared) used as a `HashMap` key.

use crate::error::ExecError;
use crate::exec::ExecOutput;
use crate::predicate::{filter_table, row_matches};
use optimizer::{CostParams, Operator, PlanNode};
use query::{AggFunc, BoundColumn, BoundSelect, OutputItem, Projection, SelectionPredicate};
use std::collections::HashMap;
use storage::{Database, Value};

/// An intermediate result: which relation ordinals are present, plus one
/// base-table row index per present relation for every tuple.
struct Intermediate {
    rels: Vec<usize>,
    tuples: Vec<Vec<usize>>,
}

impl Intermediate {
    fn slot_of(&self, rel: usize) -> Option<usize> {
        self.rels.iter().position(|&r| r == rel)
    }
}

/// A join key as the hash maps below hold it: equal when every component
/// has the same type and value. `Value`'s equality calls `Int(5)` equal to
/// `Date(5)` while its hash keeps them apart, so over bare `Vec<Value>` keys
/// a mixed-type key matched only when two hashes happened to meet in one
/// probe group — by chance, and differently in each process. Here a
/// mixed-type key never matches, as in the columnar engine.
struct JoinKey(Vec<Value>);

impl std::hash::Hash for JoinKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialEq for JoinKey {
    fn eq(&self, other: &JoinKey) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| std::mem::discriminant(a) == std::mem::discriminant(b) && a == b)
    }
}

impl Eq for JoinKey {}

struct Interp<'a> {
    db: &'a Database,
    query: &'a BoundSelect,
    work: f64,
}

impl<'a> Interp<'a> {
    fn value_of(
        &self,
        inter: &Intermediate,
        tuple: &[usize],
        col: BoundColumn,
    ) -> Result<Value, ExecError> {
        let missing = ExecError::MissingRelation {
            relation: col.relation,
        };
        let slot = inter.slot_of(col.relation).ok_or_else(|| missing.clone())?;
        let &(tid, _) = self.query.relations.get(col.relation).ok_or(missing)?;
        let table = self.db.try_table(tid)?;
        Ok(table.value(tuple[slot], col.column))
    }

    /// The query's selection predicates at the given plan-node ordinals, or
    /// `MalformedPlan` if an ordinal is out of range.
    fn selections(&self, idxs: &[usize]) -> Result<Vec<&'a SelectionPredicate>, ExecError> {
        idxs.iter()
            .map(|&i| {
                self.query
                    .selections
                    .get(i)
                    .ok_or_else(|| ExecError::MalformedPlan {
                        detail: format!(
                            "plan references selection predicate #{i}, but the query \
                             defines only {}",
                            self.query.selections.len()
                        ),
                    })
            })
            .collect()
    }

    fn edge(&self, e: usize) -> Result<&'a query::JoinEdge, ExecError> {
        self.query
            .join_edges
            .get(e)
            .ok_or_else(|| ExecError::MalformedPlan {
                detail: format!(
                    "plan references join edge #{e}, but the query defines only {}",
                    self.query.join_edges.len()
                ),
            })
    }

    fn run(&mut self, node: &PlanNode) -> Result<Intermediate, ExecError> {
        match &node.op {
            Operator::SeqScan { rel, table, preds } => {
                let t = self.db.try_table(*table)?;
                self.work += CostParams::seq_scan(t.row_count() as f64);
                let pred_refs = self.selections(preds)?;
                let rows = filter_table(t, &pred_refs);
                Ok(Intermediate {
                    rels: vec![*rel],
                    tuples: rows.into_iter().map(|r| vec![r]).collect(),
                })
            }
            Operator::IndexScan {
                rel,
                table,
                seek_preds,
                residual,
                ..
            } => {
                let t = self.db.try_table(*table)?;
                // Rows reachable through the index seek.
                let seek_refs = self.selections(seek_preds)?;
                let seek_rows = filter_table(t, &seek_refs);
                self.work += CostParams::index_scan(t.row_count() as f64, seek_rows.len() as f64);
                let residual_refs = self.selections(residual)?;
                let rows: Vec<usize> = seek_rows
                    .into_iter()
                    .filter(|&r| residual_refs.iter().all(|p| row_matches(t, r, p)))
                    .collect();
                Ok(Intermediate {
                    rels: vec![*rel],
                    tuples: rows.into_iter().map(|r| vec![r]).collect(),
                })
            }
            Operator::HashJoin { edges } => {
                let left = self.run(&node.children[0])?;
                let right = self.run(&node.children[1])?;
                let out = self.equi_join(&left, &right, edges)?;
                self.work += CostParams::hash_join(
                    left.tuples.len() as f64,
                    right.tuples.len() as f64,
                    out.tuples.len() as f64,
                );
                Ok(out)
            }
            Operator::MergeJoin { edges } => {
                let left = self.run(&node.children[0])?;
                let right = self.run(&node.children[1])?;
                let out = self.equi_join(&left, &right, edges)?;
                self.work += CostParams::merge_join(
                    left.tuples.len() as f64,
                    right.tuples.len() as f64,
                    out.tuples.len() as f64,
                );
                Ok(out)
            }
            Operator::NestedLoopJoin { edges } => {
                let left = self.run(&node.children[0])?;
                let right = self.run(&node.children[1])?;
                let out = if edges.is_empty() {
                    self.cartesian(&left, &right)
                } else {
                    self.equi_join(&left, &right, edges)?
                };
                // A nested-loop join re-walks the inner input once per outer
                // row; meter it that way even though we materialize.
                self.work += CostParams::nested_loop(
                    left.tuples.len() as f64,
                    CostParams::SEQ_ROW * right.tuples.len() as f64,
                    out.tuples.len() as f64,
                );
                Ok(out)
            }
            Operator::IndexNLJoin {
                edges,
                inner_rel,
                inner_table,
                inner_preds,
                ..
            } => {
                let outer = self.run(&node.children[0])?;
                let table = self.db.try_table(*inner_table)?;
                // Outer-side and inner-side key columns per crossing edge.
                let mut outer_keys: Vec<BoundColumn> = Vec::new();
                let mut inner_cols: Vec<usize> = Vec::new();
                for &e in edges {
                    let edge = self.edge(e)?;
                    for &(lc, rc) in &edge.pairs {
                        if edge.left_rel == *inner_rel {
                            inner_cols.push(lc);
                            outer_keys.push(BoundColumn::new(edge.right_rel, rc));
                        } else {
                            inner_cols.push(rc);
                            outer_keys.push(BoundColumn::new(edge.left_rel, lc));
                        }
                    }
                }
                let inner_pred_refs = self.selections(inner_preds)?;
                // The "index": inner rows keyed by the joined columns.
                let mut by_key: HashMap<JoinKey, Vec<usize>> = HashMap::new();
                for r in 0..table.row_count() {
                    let key: Vec<Value> = inner_cols.iter().map(|&c| table.value(r, c)).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    by_key.entry(JoinKey(key)).or_default().push(r);
                }
                let mut rels = outer.rels.clone();
                rels.push(*inner_rel);
                let mut tuples = Vec::new();
                let mut fetched_total = 0usize;
                for tup in &outer.tuples {
                    let mut key = Vec::with_capacity(outer_keys.len());
                    for &c in &outer_keys {
                        key.push(self.value_of(&outer, tup, c)?);
                    }
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    if let Some(matches) = by_key.get(&JoinKey(key)) {
                        fetched_total += matches.len();
                        for &r in matches {
                            if inner_pred_refs.iter().all(|p| row_matches(table, r, p)) {
                                let mut t = tup.clone();
                                t.push(r);
                                tuples.push(t);
                            }
                        }
                    }
                }
                // Metering mirrors the optimizer's model: one index descent
                // per outer tuple plus a random access per fetched row.
                self.work += outer.tuples.len() as f64 * CostParams::INDEX_LOOKUP
                    + fetched_total as f64 * CostParams::INDEX_ROW
                    + CostParams::JOIN_OUTPUT * tuples.len() as f64;
                Ok(Intermediate { rels, tuples })
            }
            Operator::HashAggregate { .. } | Operator::Sort { .. } => {
                // Aggregation and final ordering are handled at the top
                // level in execute_plan; running them standalone passes the
                // input through.
                match node.children.first() {
                    Some(child) => self.run(child),
                    None => Err(ExecError::MalformedPlan {
                        detail: "aggregate/sort node has no input".to_string(),
                    }),
                }
            }
        }
    }

    /// The (left col, right col) pairs of the given edge ordinals oriented so
    /// the first element belongs to `left`.
    fn oriented_keys(
        &self,
        left: &Intermediate,
        edges: &[usize],
    ) -> Result<(Vec<BoundColumn>, Vec<BoundColumn>), ExecError> {
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        for &e in edges {
            let edge = self.edge(e)?;
            let left_has = left.rels.contains(&edge.left_rel);
            for &(lc, rc) in &edge.pairs {
                if left_has {
                    lk.push(BoundColumn::new(edge.left_rel, lc));
                    rk.push(BoundColumn::new(edge.right_rel, rc));
                } else {
                    lk.push(BoundColumn::new(edge.right_rel, rc));
                    rk.push(BoundColumn::new(edge.left_rel, lc));
                }
            }
        }
        Ok((lk, rk))
    }

    fn equi_join(
        &self,
        left: &Intermediate,
        right: &Intermediate,
        edges: &[usize],
    ) -> Result<Intermediate, ExecError> {
        let (lk, rk) = self.oriented_keys(left, edges)?;
        // Build on the right.
        let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
        for (i, tuple) in right.tuples.iter().enumerate() {
            let mut key = Vec::with_capacity(rk.len());
            for &c in &rk {
                key.push(self.value_of(right, tuple, c)?);
            }
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never join
            }
            table.entry(JoinKey(key)).or_default().push(i);
        }
        let mut rels = left.rels.clone();
        rels.extend(&right.rels);
        let mut tuples = Vec::new();
        for ltuple in &left.tuples {
            let mut key = Vec::with_capacity(lk.len());
            for &c in &lk {
                key.push(self.value_of(left, ltuple, c)?);
            }
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = table.get(&JoinKey(key)) {
                for &ri in matches {
                    let mut t = ltuple.clone();
                    t.extend(&right.tuples[ri]);
                    tuples.push(t);
                }
            }
        }
        Ok(Intermediate { rels, tuples })
    }

    fn cartesian(&self, left: &Intermediate, right: &Intermediate) -> Intermediate {
        let mut rels = left.rels.clone();
        rels.extend(&right.rels);
        let mut tuples = Vec::with_capacity(left.tuples.len() * right.tuples.len());
        for l in &left.tuples {
            for r in &right.tuples {
                let mut t = l.clone();
                t.extend(r);
                tuples.push(t);
            }
        }
        Intermediate { rels, tuples }
    }
}

/// One group's output row, in the SELECT list's order (`items`).
fn agg_output(
    interp: &Interp<'_>,
    inter: &Intermediate,
    query: &BoundSelect,
    items: &[OutputItem],
    group_tuples: &[&Vec<usize>],
    key: &[Value],
) -> Result<Vec<Value>, ExecError> {
    let mut aggs = Vec::with_capacity(query.aggregates.len());
    for agg in &query.aggregates {
        let vals: Vec<Value> = match agg.input {
            None => Vec::new(),
            Some(col) => {
                let mut vals = Vec::with_capacity(group_tuples.len());
                for t in group_tuples {
                    let v = interp.value_of(inter, t, col)?;
                    if !v.is_null() {
                        vals.push(v);
                    }
                }
                vals
            }
        };
        let out = match agg.func {
            AggFunc::Count => Value::Int(match agg.input {
                None => group_tuples.len() as i64,
                Some(_) => vals.len() as i64,
            }),
            AggFunc::Min => vals.iter().min().cloned().unwrap_or(Value::Null),
            AggFunc::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
            AggFunc::Sum | AggFunc::Avg => {
                if vals.is_empty() {
                    Value::Null
                } else {
                    let sum: f64 = vals.iter().map(Value::numeric_key).sum();
                    if agg.func == AggFunc::Sum {
                        Value::Float(sum)
                    } else {
                        Value::Float(sum / vals.len() as f64)
                    }
                }
            }
        };
        aggs.push(out);
    }
    Ok(items
        .iter()
        .map(|&item| match item {
            OutputItem::Key(k) => key[k].clone(),
            OutputItem::Aggregate(a) => aggs[a].clone(),
        })
        .collect())
}

/// Execute a physical plan with the row-at-a-time reference interpreter.
///
/// Semantically identical to [`crate::exec::execute_plan`] — bit-identical
/// rows and work — just slower. See the module docs for why it is retained.
pub fn execute_plan_reference(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
) -> Result<ExecOutput, ExecError> {
    let mut interp = Interp {
        db,
        query,
        work: 0.0,
    };

    let has_agg = !query.group_by.is_empty() || !query.aggregates.is_empty();
    let mut input = interp.run(plan)?;

    if has_agg {
        // Group by the grouping key values.
        let mut groups: HashMap<Vec<Value>, Vec<&Vec<usize>>> = HashMap::new();
        for tuple in &input.tuples {
            let mut key = Vec::with_capacity(query.group_by.len());
            for &g in &query.group_by {
                key.push(interp.value_of(&input, tuple, g)?);
            }
            groups.entry(key).or_default().push(tuple);
        }
        interp.work += CostParams::hash_aggregate(input.tuples.len() as f64, groups.len() as f64);
        let mut keys: Vec<&Vec<Value>> = groups.keys().collect();
        keys.sort();
        // ORDER BY over aggregate output: keys must be grouping columns, so
        // the groups are (stably) sorted by their key values.
        if !query.order_by.is_empty() {
            interp.work += CostParams::sort(keys.len() as f64);
            let positions: Vec<(usize, bool)> = query
                .order_by
                .iter()
                .filter_map(|&(col, desc)| {
                    query
                        .group_by
                        .iter()
                        .position(|&g| g == col)
                        .map(|p| (p, desc))
                })
                .collect();
            keys.sort_by(|a, b| {
                for &(p, desc) in &positions {
                    let ord = a[p].total_cmp(&b[p]);
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let Projection::Grouped(items) = &query.projection else {
            return Err(ExecError::projection_mismatch());
        };
        let mut rows = Vec::with_capacity(keys.len());
        for k in keys {
            rows.push(agg_output(&interp, &input, query, items, &groups[k], k)?);
        }
        // Without GROUP BY, SQL aggregates even no input into one row.
        if rows.is_empty() && query.group_by.is_empty() {
            rows.push(agg_output(&interp, &input, query, items, &[], &[])?);
        }
        return Ok(ExecOutput {
            rows,
            work: interp.work,
        });
    }

    // ORDER BY on plain queries sorts the tuples before projection (the sort
    // key need not be projected).
    if !query.order_by.is_empty() {
        interp.work += CostParams::sort(input.tuples.len() as f64);
        let mut keyed: Vec<(Vec<Value>, Vec<usize>)> = Vec::with_capacity(input.tuples.len());
        for t in &input.tuples {
            let mut k = Vec::with_capacity(query.order_by.len());
            for &(col, _) in &query.order_by {
                k.push(interp.value_of(&input, t, col)?);
            }
            keyed.push((k, t.clone()));
        }
        let descs: Vec<bool> = query.order_by.iter().map(|&(_, d)| d).collect();
        keyed.sort_by(|a, b| {
            for (i, (x, y)) in a.0.iter().zip(&b.0).enumerate() {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return if descs[i] { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
        input.tuples = keyed.into_iter().map(|(_, t)| t).collect();
    }

    // Plain projection.
    let cols: Vec<BoundColumn> = match &query.projection {
        Projection::Columns(cols) => cols.clone(),
        Projection::Grouped(_) => return Err(ExecError::projection_mismatch()),
        Projection::Star => {
            let mut all = Vec::new();
            for (rel, (tid, _)) in query.relations.iter().enumerate() {
                for c in 0..db.try_table(*tid)?.schema().len() {
                    all.push(BoundColumn::new(rel, c));
                }
            }
            all
        }
    };
    let mut rows = Vec::with_capacity(input.tuples.len());
    for t in &input.tuples {
        let mut row = Vec::with_capacity(cols.len());
        for &c in &cols {
            row.push(interp.value_of(&input, t, c)?);
        }
        rows.push(row);
    }
    Ok(ExecOutput {
        rows,
        work: interp.work,
    })
}
