//! The columnar batch plan executor.
//!
//! Intermediate results are kept as tuples of base-table row indices (one
//! per relation present in the subtree) so joins never copy column data;
//! values are materialized only at the very end for the projection and
//! aggregates.
//!
//! This engine is bit-identical to the retained row-at-a-time interpreter in
//! [`crate::reference`] — same `ExecOutput.rows`, same `work` — but removes
//! its per-row costs:
//!
//! * **Selections** are evaluated as selection vectors over typed column
//!   slices ([`filter_table_columnar`]): each predicate is compiled once
//!   against its column, so the per-row check is a primitive compare instead
//!   of a `Value` materialization.
//! * **Hash joins and group-bys** key on fixed-seed 64-bit fingerprints of
//!   the key columns (an `FxHasher` fed each component as [`ValueRef`], and
//!   so [`Value`], hashes) instead of `HashMap<Vec<Value>, _>`. A
//!   fingerprint bucket may mix distinct keys, so every probe hit is
//!   verified with a column-to-column equality check — results stay exact
//!   even under 64-bit collisions.
//! * **Column resolution is hoisted**: relation → slot → table → column is
//!   resolved once per operator, not once per value.
//! * **Projections materialize column-wise**: one pass per output column
//!   over the surviving tuples, under an `exec.project` span (the largest
//!   phase of most statements).
//! * **A result row copies no string**: a string cell is a shared, immutable
//!   `Arc<str>` in storage and in [`Value`], so the projection, a group key
//!   and a MIN/MAX result hand out the stored cell itself — a pointer and a
//!   reference-count bump where an owned `String` cost a `malloc`, a
//!   `memcpy` and later a `free` per cell (four fifths of the allocations a
//!   result made). An UPDATE replaces the column's `Arc`, so rows a client
//!   still holds never change under a later write. Cells are deliberately
//!   *not* interned: with one `Arc` per distinct value, concurrent clients
//!   bump the same few counters, which measured no faster in `stmt_per_s`
//!   and 6 % dearer in CPU per statement than one cell per row.
//!
//! The interpreter never trusts the plan tree: a node that reads a relation
//! its input does not produce, or references a predicate/join-edge ordinal
//! the query does not define, yields a typed [`ExecError`] identifying the
//! inconsistency instead of panicking.

use crate::error::ExecError;
use crate::predicate::{filter_table_columnar, CompiledPred};
use optimizer::{CostParams, Operator, PlanNode};
use query::{AggFunc, BoundColumn, BoundSelect, CmpOp, PredOp, Projection, SelectionPredicate};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use storage::{ColumnData, DataType, Database, PayloadRef, TableId, Value, ValueRef};

/// Hash-join build side: build ordinals chained by fingerprint.
///
/// Flat arrays sized at build time stand in for a `FxHashMap<u64, chain>`:
/// fingerprints live in one vector indexed by build ordinal, and a
/// power-of-two bucket array heads intrusive chains over the ordinals. Chains
/// are built by prepending in *reverse* input order, so every probe walks
/// matches in input order — exactly the bucket order of the reference
/// interpreter's `HashMap<Vec<Value>, Vec<usize>>`. A bucket (and even one
/// fingerprint) may mix distinct keys; callers verify every hit with
/// [`KeySet::keys_equal`].
struct FpTable {
    /// Fingerprint per build ordinal; unspecified where the key was NULL.
    fps: Vec<u64>,
    /// Bucket count - 1 (bucket count is a power of two).
    mask: usize,
    /// Bucket → first build ordinal, `usize::MAX` when empty.
    head: Vec<usize>,
    /// Build ordinal → next ordinal in its bucket's chain.
    next: Vec<usize>,
}

impl FpTable {
    /// Build over ordinals `0..n`; `fingerprint(i)` returns `None` for keys
    /// that can never match (NULL components).
    fn build(n: usize, fingerprint: impl Fn(usize) -> Option<u64>) -> FpTable {
        let mask = n.next_power_of_two().max(1) - 1;
        let mut table = FpTable {
            fps: vec![0; n],
            mask,
            head: vec![usize::MAX; mask + 1],
            next: vec![usize::MAX; n],
        };
        for i in (0..n).rev() {
            if let Some(fp) = fingerprint(i) {
                let b = table.bucket(fp);
                table.fps[i] = fp;
                table.next[i] = table.head[b];
                table.head[b] = i;
            }
        }
        table
    }

    #[inline]
    fn bucket(&self, fp: u64) -> usize {
        // An Fx fingerprint ends in a multiply: its low bits depend on the
        // key's low bits alone. Spread before masking so they don't chain up.
        ((fp.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    /// Ordinals whose fingerprint equals `fp`, in input order.
    #[inline]
    fn probe(&self, fp: u64) -> FpIter<'_> {
        FpIter {
            table: self,
            at: self.head[self.bucket(fp)],
            fp,
        }
    }
}

struct FpIter<'a> {
    table: &'a FpTable,
    at: usize,
    fp: u64,
}

impl Iterator for FpIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.at != usize::MAX {
            let i = self.at;
            self.at = self.table.next[i];
            if self.table.fps[i] == self.fp {
                return Some(i);
            }
        }
        None
    }
}

/// The result of executing one query plan.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Materialized output rows (projection or aggregate results).
    pub rows: Vec<Vec<Value>>,
    /// Deterministic execution work in the optimizer's cost-model units, but
    /// computed from **actual** row counts.
    pub work: f64,
}

impl ExecOutput {
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// The most row ordinals one cross product may hold: 2 GiB of them, over ten
/// times the largest resident set any `benchmark/` workload reaches. A
/// comma-join past it is refused; an unchecked one asks the allocator for
/// whatever the product comes to, and a failed allocation aborts the process.
const MAX_CARTESIAN_ORDINALS: usize = 1 << 28;

/// An intermediate result: which relation ordinals are present, plus one
/// base-table row index per present relation for every tuple. Tuples live
/// back-to-back in one flat buffer (`rels.len()` indices per tuple) so
/// operators never allocate per tuple — a scan's output *is* its selection
/// vector, and a join appends two slices per match.
struct Intermediate {
    rels: Vec<usize>,
    data: Vec<usize>,
}

impl Intermediate {
    fn slot_of(&self, rel: usize) -> Option<usize> {
        self.rels.iter().position(|&r| r == rel)
    }

    #[inline]
    fn arity(&self) -> usize {
        self.rels.len()
    }

    #[inline]
    fn count(&self) -> usize {
        if self.rels.is_empty() {
            0
        } else {
            self.data.len() / self.rels.len()
        }
    }

    #[inline]
    fn tuple(&self, i: usize) -> &[usize] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    #[inline]
    fn tuples(&self) -> std::slice::ChunksExact<'_, usize> {
        self.data.chunks_exact(self.arity().max(1))
    }
}

/// A bound column resolved against an intermediate: the tuple slot holding
/// the row index, and the column storage itself. Resolving once per operator
/// replaces the reference interpreter's per-value relation → table → column
/// chain.
#[derive(Clone, Copy)]
struct ResolvedCol<'a> {
    slot: usize,
    col: &'a ColumnData,
}

impl<'a> ResolvedCol<'a> {
    #[inline]
    fn row(&self, tuple: &[usize]) -> usize {
        tuple[self.slot]
    }
}

/// One join/group key column, borrowed once per operator: the tuple slot,
/// the validity bitmap and the typed payload, so fingerprinting and equality
/// in the per-tuple loops index slices and never walk back through the table.
struct KeyCol<'a> {
    slot: usize,
    valid: &'a [bool],
    xs: PayloadRef<'a>,
}

impl<'a> KeyCol<'a> {
    fn new(rc: ResolvedCol<'a>) -> KeyCol<'a> {
        KeyCol {
            slot: rc.slot,
            valid: rc.col.validity(),
            xs: rc.col.payload(),
        }
    }

    /// This key component of `tuple`, as [`ColumnData::get_ref`] reads it.
    #[inline]
    fn value_ref(&self, tuple: &[usize]) -> ValueRef<'a> {
        let r = tuple[self.slot];
        if self.valid[r] {
            self.xs.value(r)
        } else {
            ValueRef::Null
        }
    }
}

/// The key columns of one join side (or of a GROUP BY), typed once per
/// operator via [`KeyCol`].
struct KeySet<'a> {
    cols: Vec<KeyCol<'a>>,
}

impl<'a> KeySet<'a> {
    fn new(cols: Vec<ResolvedCol<'a>>) -> KeySet<'a> {
        KeySet {
            cols: cols.into_iter().map(KeyCol::new).collect(),
        }
    }

    /// 64-bit fingerprint of a join key: `None` when any component is NULL
    /// (NULL keys never join). Each component is hashed as [`ValueRef`]
    /// hashes — and so as [`Value`] does — into the fixed-seed `FxHasher`,
    /// so equal same-typed keys always collide and the map behaves like the
    /// reference `HashMap<Vec<Value>, _>`.
    #[inline]
    fn join_fp(&self, tuple: &[usize]) -> Option<u64> {
        let mut h = FxHasher::default();
        for kc in &self.cols {
            let r = tuple[kc.slot];
            if !kc.valid[r] {
                return None;
            }
            kc.xs.value(r).hash(&mut h);
        }
        Some(h.finish())
    }

    /// Fingerprint of a grouping key; unlike join keys, NULLs participate
    /// (they form their own group, under the tag `ValueRef::Null` hashes).
    #[inline]
    fn group_fp(&self, tuple: &[usize]) -> u64 {
        let mut h = FxHasher::default();
        for kc in &self.cols {
            kc.value_ref(tuple).hash(&mut h);
        }
        h.finish()
    }

    /// Exact equality of this side's key tuple against `other`'s — the
    /// collision fallback behind the fingerprints. [`ValueRef`]'s equality:
    /// for a same-typed pair that is payload equality (floats by bit
    /// pattern, dates narrowed to `i32`). Callers only invoke this after
    /// both fingerprints matched, so every component is known non-NULL.
    #[inline]
    fn keys_equal(&self, tuple: &[usize], other: &KeySet<'a>, otuple: &[usize]) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(a, b)| a.xs.value(tuple[a.slot]) == b.xs.value(otuple[b.slot]))
    }
}

/// Static span name per operator (`exec.op.<Operator>`): span names are
/// `&'static str` by the tracer's contract, so the taxonomy is spelled out
/// here rather than formatted at runtime.
fn op_span_name(op: &Operator) -> &'static str {
    match op {
        Operator::SeqScan { .. } => "exec.op.SeqScan",
        Operator::IndexScan { .. } => "exec.op.IndexScan",
        Operator::HashJoin { .. } => "exec.op.HashJoin",
        Operator::MergeJoin { .. } => "exec.op.MergeJoin",
        Operator::NestedLoopJoin { .. } => "exec.op.NestedLoopJoin",
        Operator::IndexNLJoin { .. } => "exec.op.IndexNLJoin",
        Operator::HashAggregate { .. } => "exec.op.HashAggregate",
        Operator::Sort { .. } => "exec.op.Sort",
    }
}

struct Interp<'a> {
    db: &'a Database,
    query: &'a BoundSelect,
    params: &'a CostParams,
    work: f64,
    /// Execution-feedback channel: scans with a single supported predicate
    /// report (template, est, actual) records here. Disabled by default —
    /// one branch per scan, and never any effect on rows or work.
    feedback: &'a obsv::FeedbackLog,
}

/// The numeric key of a literal, for feedback ranges. Strings are excluded:
/// their histogram keys depend on a stored common prefix the executor cannot
/// know, so a raw `numeric_key` would not align with the histogram domain.
fn feedback_key(v: &Value) -> Option<f64> {
    match v {
        Value::Int(_) | Value::Float(_) => {
            let k = v.numeric_key();
            k.is_finite().then_some(k)
        }
        _ => None,
    }
}

/// The inclusive numeric-key range a predicate selects. `None` for
/// predicates feedback cannot describe as one interval (Ne, string
/// literals).
fn feedback_range(op: &PredOp) -> Option<(f64, f64)> {
    match op {
        PredOp::Cmp(CmpOp::Eq, v) => {
            let k = feedback_key(v)?;
            Some((k, k))
        }
        PredOp::Cmp(CmpOp::Lt, v) | PredOp::Cmp(CmpOp::Le, v) => {
            Some((f64::NEG_INFINITY, feedback_key(v)?))
        }
        PredOp::Cmp(CmpOp::Gt, v) | PredOp::Cmp(CmpOp::Ge, v) => {
            Some((feedback_key(v)?, f64::INFINITY))
        }
        PredOp::Cmp(CmpOp::Ne, _) => None,
        PredOp::Between(a, b) => {
            let (ka, kb) = (feedback_key(a)?, feedback_key(b)?);
            (ka <= kb).then_some((ka, kb))
        }
    }
}

impl<'a> Interp<'a> {
    /// Resolve bound columns against an intermediate, once per operator.
    /// The per-column checks (slot, relation, table) run in the same order
    /// as the reference interpreter's `value_of`, so a malformed plan
    /// surfaces the same error.
    fn resolve_cols(
        &self,
        inter: &Intermediate,
        cols: &[BoundColumn],
    ) -> Result<Vec<ResolvedCol<'a>>, ExecError> {
        cols.iter()
            .map(|&c| {
                let missing = ExecError::MissingRelation {
                    relation: c.relation,
                };
                let slot = inter.slot_of(c.relation).ok_or_else(|| missing.clone())?;
                let &(tid, _) = self.query.relations.get(c.relation).ok_or(missing)?;
                let table = self.db.try_table(tid)?;
                Ok(ResolvedCol {
                    slot,
                    col: table.column(c.column),
                })
            })
            .collect()
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

    /// Report one scan's observed cardinality to the feedback log, when the
    /// scan is a clean feedback template: exactly one predicate, describable
    /// as a single numeric-key interval. Anything else is skipped — partial
    /// feedback on a conjunction would mis-attribute the filtering.
    fn record_scan_feedback(
        &self,
        table: TableId,
        preds: &[&SelectionPredicate],
        rows_out: usize,
        input_rows: usize,
    ) {
        if !self.feedback.is_enabled() || preds.len() != 1 {
            return;
        }
        let Some(&pred) = preds.first() else { return };
        let Some((lo, hi)) = feedback_range(&pred.op) else {
            return;
        };
        self.feedback.push(obsv::FeedbackRecord {
            table: table.0 as u64,
            column: pred.column.column as u32,
            lo,
            hi,
            rows_out: rows_out as f64,
            input_rows: input_rows as f64,
        });
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

    /// Run one plan node under an operator span. Each operator records its
    /// actual output cardinality next to the optimizer's estimate, so a
    /// trace shows exactly where cardinality estimation went wrong — the
    /// feedback signal the whole statistics-selection loop exists to serve.
    fn run(
        &mut self,
        node: &PlanNode,
        parent: &obsv::SpanGuard,
    ) -> Result<Intermediate, ExecError> {
        let mut span = parent.child(op_span_name(&node.op));
        let out = self.run_node(node, &span)?;
        span.arg("rows_out", out.count());
        span.arg("est_rows", node.est_rows);
        Ok(out)
    }

    fn run_node(
        &mut self,
        node: &PlanNode,
        span: &obsv::SpanGuard,
    ) -> Result<Intermediate, ExecError> {
        match &node.op {
            Operator::SeqScan { rel, table, preds } => {
                let t = self.db.try_table(*table)?;
                self.work += self.params.seq_scan(t.row_count() as f64);
                let pred_refs = self.selections(preds)?;
                let rows = filter_table_columnar(t, &pred_refs);
                self.record_scan_feedback(*table, &pred_refs, rows.len(), t.row_count());
                Ok(Intermediate {
                    rels: vec![*rel],
                    data: rows,
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
                let mut rows = filter_table_columnar(t, &seek_refs);
                self.work += self
                    .params
                    .index_scan(t.row_count() as f64, rows.len() as f64);
                let residual_refs = self.selections(residual)?;
                if !rows.is_empty() && !residual_refs.is_empty() {
                    for pred in &residual_refs {
                        CompiledPred::new(t, pred).refine(&mut rows);
                    }
                }
                let all_refs: Vec<&SelectionPredicate> =
                    seek_refs.iter().chain(&residual_refs).copied().collect();
                self.record_scan_feedback(*table, &all_refs, rows.len(), t.row_count());
                Ok(Intermediate {
                    rels: vec![*rel],
                    data: rows,
                })
            }
            Operator::HashJoin { edges } => {
                let left = self.run(&node.children[0], span)?;
                let right = self.run(&node.children[1], span)?;
                let out = self.equi_join(&left, &right, edges)?;
                self.work += self.params.hash_join(
                    left.count() as f64,
                    right.count() as f64,
                    out.count() as f64,
                );
                Ok(out)
            }
            Operator::MergeJoin { edges } => {
                let left = self.run(&node.children[0], span)?;
                let right = self.run(&node.children[1], span)?;
                let out = self.equi_join(&left, &right, edges)?;
                self.work += self.params.merge_join(
                    left.count() as f64,
                    right.count() as f64,
                    out.count() as f64,
                );
                Ok(out)
            }
            Operator::NestedLoopJoin { edges } => {
                let left = self.run(&node.children[0], span)?;
                let right = self.run(&node.children[1], span)?;
                let out = if edges.is_empty() {
                    self.cartesian(&left, &right)?
                } else {
                    self.equi_join(&left, &right, edges)?
                };
                // A nested-loop join re-walks the inner input once per outer
                // row; meter it that way even though we materialize.
                self.work += self.params.nested_loop(
                    left.count() as f64,
                    self.params.seq_row * right.count() as f64,
                    out.count() as f64,
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
                let outer = self.run(&node.children[0], span)?;
                let table = self.db.try_table(*inner_table)?;
                // Outer-side and inner-side key columns per crossing edge.
                let mut outer_keys: Vec<BoundColumn> = Vec::new();
                let mut inner_ords: Vec<usize> = Vec::new();
                for &e in edges {
                    let edge = self.edge(e)?;
                    for &(lc, rc) in &edge.pairs {
                        if edge.left_rel == *inner_rel {
                            inner_ords.push(lc);
                            outer_keys.push(BoundColumn::new(edge.right_rel, rc));
                        } else {
                            inner_ords.push(rc);
                            outer_keys.push(BoundColumn::new(edge.left_rel, lc));
                        }
                    }
                }
                let inner_pred_refs = self.selections(inner_preds)?;
                // The "index": inner rows keyed by fingerprints of the joined
                // columns. Inner-side key columns resolve directly against
                // the base table (every tuple is its own row index).
                let inner_rows = table.row_count();
                let mut inner_cols: Vec<ResolvedCol<'a>> = Vec::new();
                let mut compiled_inner: Vec<CompiledPred<'a>> = Vec::new();
                if inner_rows > 0 {
                    inner_cols = inner_ords
                        .iter()
                        .map(|&c| ResolvedCol {
                            slot: 0,
                            col: table.column(c),
                        })
                        .collect();
                    compiled_inner = inner_pred_refs
                        .iter()
                        .map(|p| CompiledPred::new(table, p))
                        .collect();
                }
                let inner_key = KeySet::new(inner_cols);
                let by_key = FpTable::build(inner_rows, |r| inner_key.join_fp(&[r]));
                let mut rels = outer.rels.clone();
                rels.push(*inner_rel);
                let outer_cols = if outer.data.is_empty() {
                    Vec::new()
                } else {
                    self.resolve_cols(&outer, &outer_keys)?
                };
                let outer_key = KeySet::new(outer_cols);
                let mut data = Vec::new();
                let mut fetched_total = 0usize;
                for tup in outer.tuples() {
                    let Some(fp) = outer_key.join_fp(tup) else {
                        continue;
                    };
                    for r in by_key.probe(fp) {
                        // Collision fallback: only exact key matches count
                        // as fetched (mirrors the reference's exact-key map).
                        if !outer_key.keys_equal(tup, &inner_key, &[r]) {
                            continue;
                        }
                        fetched_total += 1;
                        if compiled_inner.iter().all(|p| p.matches(r)) {
                            data.extend_from_slice(tup);
                            data.push(r);
                        }
                    }
                }
                // Metering mirrors the optimizer's model: one index descent
                // per outer tuple plus a random access per fetched row.
                let out_count = data.len() / rels.len();
                self.work += outer.count() as f64 * self.params.index_lookup
                    + fetched_total as f64 * self.params.index_row
                    + self.params.join_output * out_count as f64;
                Ok(Intermediate { rels, data })
            }
            Operator::HashAggregate { .. } | Operator::Sort { .. } => {
                // Aggregation and final ordering are handled at the top
                // level in execute_plan; running them standalone passes the
                // input through.
                match node.children.first() {
                    Some(child) => self.run(child, span),
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
        // Build on the right: fingerprint → chained right tuple ordinals, in
        // input order (which is what makes the output order match the
        // reference).
        let r_cols = if right.data.is_empty() {
            Vec::new()
        } else {
            self.resolve_cols(right, &rk)?
        };
        let r_key = KeySet::new(r_cols);
        let table = FpTable::build(right.count(), |i| r_key.join_fp(right.tuple(i)));
        let mut rels = left.rels.clone();
        rels.extend(&right.rels);
        let l_cols = if left.data.is_empty() {
            Vec::new()
        } else {
            self.resolve_cols(left, &lk)?
        };
        let l_key = KeySet::new(l_cols);
        let mut data = Vec::new();
        for ltuple in left.tuples() {
            let Some(fp) = l_key.join_fp(ltuple) else {
                continue; // NULL keys never join
            };
            for ri in table.probe(fp) {
                let rtuple = right.tuple(ri);
                if l_key.keys_equal(ltuple, &r_key, rtuple) {
                    data.extend_from_slice(ltuple);
                    data.extend_from_slice(rtuple);
                }
            }
        }
        Ok(Intermediate { rels, data })
    }

    fn cartesian(
        &self,
        left: &Intermediate,
        right: &Intermediate,
    ) -> Result<Intermediate, ExecError> {
        let mut rels = left.rels.clone();
        rels.extend(&right.rels);
        let too_large = || ExecError::ResultTooLarge {
            tuples: left.count().saturating_mul(right.count()),
        };
        let ordinals = left
            .count()
            .checked_mul(right.count())
            .and_then(|tuples| tuples.checked_mul(rels.len()))
            .filter(|&n| n <= MAX_CARTESIAN_ORDINALS)
            .ok_or_else(too_large)?;
        let mut data = Vec::new();
        data.try_reserve_exact(ordinals).map_err(|_| too_large())?;
        for l in left.tuples() {
            for r in right.tuples() {
                data.extend_from_slice(l);
                data.extend_from_slice(r);
            }
        }
        Ok(Intermediate { rels, data })
    }
}

/// One aggregation group: its materialized key and member tuple ordinals
/// (into the input intermediate), in input order.
struct Group {
    key: Vec<Value>,
    members: Vec<usize>,
}

fn agg_output(
    query: &BoundSelect,
    agg_cols: &[Option<ResolvedCol<'_>>],
    input: &Intermediate,
    group: &Group,
) -> Vec<Value> {
    let mut row: Vec<Value> = group.key.clone();
    for (agg, rc) in query.aggregates.iter().zip(agg_cols) {
        let Some(rc) = rc else {
            // No input column: COUNT(*) counts the members, and any other
            // function folds nothing.
            row.push(match agg.func {
                AggFunc::Count => Value::Int(group.members.len() as i64),
                _ => Value::Null,
            });
            continue;
        };
        // The aggregate's non-NULL inputs as base-table rows, in member
        // order. Every fold below walks them as borrowed values; only a
        // MIN/MAX winner is materialized, as the stored cell itself.
        let live = || {
            group
                .members
                .iter()
                .map(|&ti| rc.row(input.tuple(ti)))
                .filter(|&r| rc.col.is_valid(r))
        };
        let by_value = |a: &usize, b: &usize| rc.col.get_ref(*a).total_cmp(&rc.col.get_ref(*b));
        let out = match agg.func {
            AggFunc::Count => Value::Int(live().count() as i64),
            // Of equal values `min_by` keeps the first and `max_by` the
            // last, as `Iterator::min` / `max` over owned values did.
            AggFunc::Min => live()
                .min_by(by_value)
                .map_or(Value::Null, |r| rc.col.get(r)),
            AggFunc::Max => live()
                .max_by(by_value)
                .map_or(Value::Null, |r| rc.col.get(r)),
            AggFunc::Sum | AggFunc::Avg => match live().count() {
                0 => Value::Null,
                n => {
                    // `Iterator::sum` and no hand-written fold: std's
                    // identity element is part of the float's bits.
                    let sum: f64 = live().map(|r| rc.col.get_ref(r).numeric_key()).sum();
                    Value::Float(if agg.func == AggFunc::Sum {
                        sum
                    } else {
                        sum / n as f64
                    })
                }
            },
        };
        row.push(out);
    }
    row
}

/// Execute a physical plan for `query` against `db`, returning materialized
/// output rows and the deterministic work metric. Errors if the plan tree is
/// inconsistent with the query or references a stale table.
pub fn execute_plan(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
    params: &CostParams,
) -> Result<ExecOutput, ExecError> {
    execute_plan_observed(
        db,
        query,
        plan,
        params,
        &obsv::Tracer::disabled(),
        &obsv::FeedbackLog::disabled(),
    )
}

/// [`execute_plan`] under a tracer and an execution-feedback channel. The
/// query gets an `exec.query` span with one `exec.op.*` child span per plan
/// node (actual vs estimated rows on each), and scans with a single
/// supported predicate push (predicate template, est_rows, rows_out) records
/// into `feedback`. Both are write-only here: rows and work are
/// bit-identical to the unobserved call, and a disabled tracer or log costs
/// one branch per operator or scan.
pub fn execute_plan_observed(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
    params: &CostParams,
    tracer: &obsv::Tracer,
    feedback: &obsv::FeedbackLog,
) -> Result<ExecOutput, ExecError> {
    let mut span = tracer.span("exec.query");
    let out = execute_impl(db, query, plan, params, &span, feedback)?;
    span.arg("rows_out", out.rows.len());
    span.arg("work", out.work);
    Ok(out)
}

fn execute_impl(
    db: &Database,
    query: &BoundSelect,
    plan: &PlanNode,
    params: &CostParams,
    span: &obsv::SpanGuard,
    feedback: &obsv::FeedbackLog,
) -> Result<ExecOutput, ExecError> {
    let mut interp = Interp {
        db,
        query,
        params,
        work: 0.0,
        feedback,
    };

    // Aggregation and final ordering execute at this level, not in
    // `run_node`, so the top-level Sort/HashAggregate wrappers are peeled
    // here and given spans of their own: each records its *post*-operator
    // cardinality. Running them through `run` would pass through the input
    // count, and any consumer joining estimated vs actual rows per operator
    // (the cardbench harness) would read a pre-aggregation count as the
    // aggregate's truth.
    let mut tree = plan;
    fn first_child(n: &PlanNode) -> Result<&PlanNode, ExecError> {
        n.children.first().ok_or_else(|| ExecError::MalformedPlan {
            detail: "aggregate/sort node has no input".to_string(),
        })
    }
    let mut sort_node: Option<&PlanNode> = None;
    let mut agg_node: Option<&PlanNode> = None;
    if matches!(tree.op, Operator::Sort { .. }) {
        sort_node = Some(tree);
        tree = first_child(tree)?;
    }
    if matches!(tree.op, Operator::HashAggregate { .. }) {
        agg_node = Some(tree);
        tree = first_child(tree)?;
    }
    let mut sort_span = sort_node.map(|n| span.child(op_span_name(&n.op)));
    let mut agg_span = agg_node.map(|n| {
        sort_span
            .as_ref()
            .unwrap_or(span)
            .child(op_span_name(&n.op))
    });

    let has_agg = !query.group_by.is_empty() || !query.aggregates.is_empty();
    let mut input = {
        let tree_parent = agg_span.as_ref().or(sort_span.as_ref()).unwrap_or(span);
        interp.run(tree, tree_parent)?
    };
    // Close each wrapper span with its actual output cardinality alongside
    // the optimizer's estimate, mirroring `Interp::run`. A Sort never
    // changes the cardinality of its input; an aggregate's output is its
    // group count, finalized below.
    let mut close_wrappers = |rows_out: usize| {
        if let (Some(s), Some(n)) = (agg_span.as_mut(), agg_node) {
            s.arg("rows_out", rows_out);
            s.arg("est_rows", n.est_rows);
        }
        drop(agg_span.take());
        if let (Some(s), Some(n)) = (sort_span.as_mut(), sort_node) {
            s.arg("rows_out", rows_out);
            s.arg("est_rows", n.est_rows);
        }
        drop(sort_span.take());
    };

    if has_agg {
        // Group by fingerprints of the grouping key values, with exact-key
        // verification inside each fingerprint bucket.
        let g_cols = if input.data.is_empty() {
            Vec::new()
        } else {
            interp.resolve_cols(&input, &query.group_by)?
        };
        let g_key = KeySet::new(g_cols.clone());
        let mut groups: Vec<Group> = Vec::new();
        let mut buckets: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for (ti, tuple) in input.tuples().enumerate() {
            let fp = g_key.group_fp(tuple);
            let bucket = buckets.entry(fp).or_default();
            let found = bucket.iter().copied().find(|&g| {
                groups[g]
                    .key
                    .iter()
                    .zip(&g_cols)
                    .all(|(k, rc)| k.as_ref() == rc.col.get_ref(rc.row(tuple)))
            });
            match found {
                Some(g) => groups[g].members.push(ti),
                None => {
                    let key: Vec<Value> =
                        g_cols.iter().map(|rc| rc.col.get(rc.row(tuple))).collect();
                    bucket.push(groups.len());
                    groups.push(Group {
                        key,
                        members: vec![ti],
                    });
                }
            }
        }
        interp.work += interp
            .params
            .hash_aggregate(input.count() as f64, groups.len() as f64);
        // Deterministic output: groups ordered by key, exactly as the
        // reference sorts its map keys.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| groups[a].key.cmp(&groups[b].key));
        let agg_cols: Vec<Option<ResolvedCol<'_>>> = if groups.is_empty() {
            Vec::new()
        } else {
            query
                .aggregates
                .iter()
                .map(|agg| match agg.input {
                    None => Ok(None),
                    Some(col) => Ok(Some(
                        interp.resolve_cols(&input, std::slice::from_ref(&col))?[0],
                    )),
                })
                .collect::<Result<_, ExecError>>()?
        };
        let mut rows = Vec::with_capacity(order.len());
        for g in order {
            rows.push(agg_output(query, &agg_cols, &input, &groups[g]));
        }
        // ORDER BY over aggregate output: keys must be grouping columns;
        // their output position is their position in the GROUP BY list.
        if !query.order_by.is_empty() {
            interp.work += interp.params.sort(rows.len() as f64);
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
            rows.sort_by(|a, b| {
                for &(p, desc) in &positions {
                    let ord = a[p].total_cmp(&b[p]);
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        close_wrappers(rows.len());
        return Ok(ExecOutput {
            rows,
            work: interp.work,
        });
    }

    // ORDER BY on plain queries sorts the tuples before projection (the sort
    // key need not be projected). Sorting tuple ordinals with a comparator
    // over resolved columns skips the reference's per-tuple key
    // materialization; the stable sort keeps tie order identical.
    if !query.order_by.is_empty() {
        interp.work += interp.params.sort(input.count() as f64);
        if !input.data.is_empty() {
            let order_cols: Vec<BoundColumn> = query.order_by.iter().map(|&(c, _)| c).collect();
            let o_cols = interp.resolve_cols(&input, &order_cols)?;
            let descs: Vec<bool> = query.order_by.iter().map(|&(_, d)| d).collect();
            let mut order: Vec<usize> = (0..input.count()).collect();
            order.sort_by(|&a, &b| {
                let (ta, tb) = (input.tuple(a), input.tuple(b));
                for (rc, &desc) in o_cols.iter().zip(&descs) {
                    let ord = rc
                        .col
                        .get_ref(rc.row(ta))
                        .total_cmp(&rc.col.get_ref(rc.row(tb)));
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut sorted = Vec::with_capacity(input.data.len());
            for i in order {
                sorted.extend_from_slice(input.tuple(i));
            }
            input.data = sorted;
        }
    }

    close_wrappers(input.count());

    // Plain projection, materialized column-wise: one pass per output
    // column over the surviving tuples.
    let cols: Vec<BoundColumn> = match &query.projection {
        Projection::Columns(cols) => cols.clone(),
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
    let mut project_span = span.child("exec.project");
    let p_cols = if input.data.is_empty() {
        Vec::new()
    } else {
        interp.resolve_cols(&input, &cols)?
    };
    let str_cols = p_cols
        .iter()
        .filter(|rc| rc.col.data_type() == DataType::Str);
    project_span.arg("rows", input.count());
    project_span.arg("cols", cols.len());
    project_span.arg("str_cols", str_cols.count());
    let mut rows: Vec<Vec<Value>> = (0..input.count())
        .map(|_| Vec::with_capacity(cols.len()))
        .collect();
    if !rows.is_empty() {
        let arity = input.arity();
        for (part, tuples) in rows
            .chunks_mut(PROJECT_ROWS)
            .zip(input.data.chunks(PROJECT_ROWS * arity))
        {
            for rc in &p_cols {
                project_column(rc, tuples.chunks_exact(arity), part);
            }
        }
    }
    Ok(ExecOutput {
        rows,
        work: interp.work,
    })
}

/// Rows materialized per projection block. Every output column is one pass
/// over the block's row vectors, so the block has to stay cache-resident
/// between passes: one pass per column over the *whole* result measured 14%
/// fewer statements per second and a 24% higher SELECT p99 on the
/// benchmark's `steady-simple` workload (five alternating 20 s runs).
const PROJECT_ROWS: usize = 4096;

/// Append one projected column's values to the per-row output vectors of one
/// block, with the column's type dispatch hoisted out of the row loop so
/// each iteration is a slot load, a validity load, and a typed `Value` push.
fn project_column(
    rc: &ResolvedCol<'_>,
    tuples: std::slice::ChunksExact<'_, usize>,
    rows: &mut [Vec<Value>],
) {
    /// The row loop, compiled once per payload type with `cell` inlined.
    fn fill(
        rc: &ResolvedCol<'_>,
        tuples: std::slice::ChunksExact<'_, usize>,
        rows: &mut [Vec<Value>],
        cell: impl Fn(usize) -> Value,
    ) {
        let valid = rc.col.validity();
        for (row, t) in rows.iter_mut().zip(tuples) {
            let r = t[rc.slot];
            row.push(if valid[r] { cell(r) } else { Value::Null });
        }
    }
    match rc.col.payload() {
        PayloadRef::Int(xs) => fill(rc, tuples, rows, |r| Value::Int(xs[r])),
        PayloadRef::Date(xs) => fill(rc, tuples, rows, |r| Value::Date(xs[r] as i32)),
        PayloadRef::Float(xs) => fill(rc, tuples, rows, |r| Value::Float(xs[r])),
        PayloadRef::Str(xs) => fill(rc, tuples, rows, |r| Value::Str(Arc::clone(&xs[r]))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::execute_plan_reference;
    use optimizer::{OptimizeOptions, Optimizer};
    use query::{bind_statement, parse_statement, BoundStatement};
    use stats::StatsCatalog;
    use storage::{ColumnDef, DataType, Schema};

    fn setup() -> Database {
        let mut db = Database::new();
        let emp = db
            .create_table(
                "emp",
                Schema::new(vec![
                    ColumnDef::new("empid", DataType::Int),
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("salary", DataType::Float),
                ]),
            )
            .unwrap();
        let dept = db
            .create_table(
                "dept",
                Schema::new(vec![
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("dname", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..100i64 {
            db.table_mut(emp)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 5),
                    Value::Float((i * 10) as f64),
                ])
                .unwrap();
        }
        for d in 0..5i64 {
            db.table_mut(dept)
                .insert(vec![Value::Int(d), Value::Str(format!("d{d}").into())])
                .unwrap();
        }
        db
    }

    fn bind(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => panic!(),
        }
    }

    fn run(db: &Database, sql: &str) -> ExecOutput {
        let q = bind(db, sql);
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let r = opt
            .optimize(db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let out = execute_plan(db, &q, &r.plan, &opt.params).unwrap();
        // Every test doubles as a differential check against the retained
        // row-at-a-time reference.
        let ref_out = execute_plan_reference(db, &q, &r.plan, &opt.params).unwrap();
        assert_eq!(out.rows, ref_out.rows, "columnar rows diverge on {sql}");
        assert_eq!(
            out.work.to_bits(),
            ref_out.work.to_bits(),
            "columnar work diverges on {sql}"
        );
        out
    }

    #[test]
    fn key_fingerprints_hash_what_the_materialized_values_hash() {
        // One column per type; row 0 holds the awkward payloads (an integer
        // past `i32::MAX` in the date column, `-0.0`), row 1 plain ones (and
        // NaN), rows 2..6 a NULL in one column each, row 6 in all four.
        let types = [
            DataType::Int,
            DataType::Date,
            DataType::Float,
            DataType::Str,
        ];
        let rows: [[Value; 4]; 2] = [
            [
                Value::Int(i64::MIN),
                Value::Int((1 << 40) + 5),
                Value::Float(-0.0),
                "".into(),
            ],
            [
                Value::Int(7),
                Value::Date(9000),
                Value::Float(f64::NAN),
                "Supplier#000000042".into(),
            ],
        ];
        let mut cols = types.map(ColumnData::new);
        for row in &rows {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v.clone());
            }
        }
        for null_at in 0..5 {
            for (c, col) in cols.iter_mut().enumerate() {
                let null = c == null_at || null_at == 4;
                col.push(if null {
                    Value::Null
                } else {
                    rows[1][c].clone()
                });
            }
        }
        let key_over = |of: &[usize]| {
            KeySet::new(
                of.iter()
                    .map(|&c| ResolvedCol {
                        slot: 0,
                        col: &cols[c],
                    })
                    .collect(),
            )
        };
        // Every single column, and all four as one composite key.
        let mut group_fps = Vec::new();
        for of in [&[0][..], &[1], &[2], &[3], &[0, 1, 2, 3]] {
            let keys = key_over(of);
            for r in 0..cols[0].len() {
                let values: Vec<Value> = of.iter().map(|&c| cols[c].get(r)).collect();
                let mut h = FxHasher::default();
                for v in &values {
                    v.hash(&mut h);
                }
                let want = h.finish();
                assert_eq!(keys.group_fp(&[r]), want, "group {of:?} row {r}");
                let no_null = values.iter().all(|v| !v.is_null());
                assert_eq!(
                    keys.join_fp(&[r]),
                    no_null.then_some(want),
                    "join {of:?} row {r}"
                );
                if of.len() == 4 {
                    group_fps.push(want);
                }
            }
        }
        // A NULL component is a group of its own: the seven composite keys
        // are seven fingerprints.
        group_fps.sort_unstable();
        group_fps.dedup();
        assert_eq!(group_fps.len(), 7);

        // The date stored past `i32::MAX` is the date it narrows to: same
        // fingerprint, and equal when the fingerprints are verified.
        assert_eq!(cols[1].get_ref(0), ValueRef::Date(5));
        let mut narrow = ColumnData::new(DataType::Date);
        narrow.push(Value::Date(5));
        let (wide, narrow) = (
            key_over(&[1]),
            KeySet::new(vec![ResolvedCol {
                slot: 0,
                col: &narrow,
            }]),
        );
        assert_eq!(wide.join_fp(&[0]), narrow.join_fp(&[0]));
        assert!(wide.keys_equal(&[0], &narrow, &[0]));
        assert!(!wide.keys_equal(&[1], &narrow, &[0]));
    }

    #[test]
    fn filtered_scan() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp WHERE empid < 10");
        assert_eq!(out.row_count(), 10);
        assert!(out.work > 0.0);
    }

    #[test]
    fn traced_execution_is_bit_identical_and_well_formed() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let r = opt
            .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let plain = execute_plan(&db, &q, &r.plan, &opt.params).unwrap();
        let tracer = obsv::Tracer::enabled();
        let traced = execute_plan_observed(
            &db,
            &q,
            &r.plan,
            &opt.params,
            &tracer,
            &obsv::FeedbackLog::disabled(),
        )
        .unwrap();
        assert_eq!(plain.rows, traced.rows);
        assert_eq!(plain.work.to_bits(), traced.work.to_bits());
        let events = tracer.flush();
        assert!(obsv::trace::validate(&events).is_empty());
        // One span per plan node plus the exec.query root and its
        // exec.project child, which comes last and counts what it built.
        let begins: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == obsv::EventKind::Begin)
            .map(|e| e.name)
            .collect();
        assert_eq!(begins.len(), r.plan.nodes().len() + 2);
        assert_eq!(begins[0], "exec.query");
        assert!(begins.iter().any(|n| n.starts_with("exec.op.")));
        assert_eq!(begins.last(), Some(&"exec.project"));
        let project = |kind| {
            events
                .iter()
                .find(|e| e.kind == kind && e.name == "exec.project")
                .expect("a projection span")
        };
        assert_eq!(project(obsv::EventKind::Begin).parent, events[0].id);
        let project_end = project(obsv::EventKind::End);
        for (key, want) in [("rows", plain.rows.len()), ("cols", 5), ("str_cols", 1)] {
            assert!(
                project_end
                    .args
                    .iter()
                    .any(|(k, v)| *k == key && *v == obsv::ArgValue::Int(want as i64)),
                "exec.project {key} = {want}: {:?}",
                project_end.args
            );
        }
        // The join span reports the actual output cardinality.
        let join_end = events
            .iter()
            .find(|e| e.kind == obsv::EventKind::End && e.name.contains("Join"))
            .expect("a join span");
        assert!(join_end
            .args
            .iter()
            .any(|(k, v)| *k == "rows_out" && *v == obsv::ArgValue::Int(100)));
    }

    #[test]
    fn aggregate_and_sort_spans_report_actual_output_counts() {
        // Regression: the top-level HashAggregate/Sort wrappers execute in
        // `execute_impl`, and their spans used to pass through the *input*
        // cardinality. Per-operator truth capture needs the group count.
        let db = setup();
        let q = bind(
            &db,
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid ORDER BY deptid DESC",
        );
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let r = opt
            .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let tracer = obsv::Tracer::enabled();
        let out = execute_plan_observed(
            &db,
            &q,
            &r.plan,
            &opt.params,
            &tracer,
            &obsv::FeedbackLog::disabled(),
        )
        .unwrap();
        assert_eq!(out.row_count(), 5);
        let events = tracer.flush();
        assert!(obsv::trace::validate(&events).is_empty());
        let begins: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == obsv::EventKind::Begin)
            .map(|e| e.name)
            .collect();
        // An aggregate's rows are built under its HashAggregate span, so
        // there is no projection and no exec.project.
        assert_eq!(begins.len(), r.plan.nodes().len() + 1);
        assert_eq!(
            &begins[..3],
            &["exec.query", "exec.op.Sort", "exec.op.HashAggregate"],
            "wrapper spans keep the plan's pre-order"
        );
        for name in ["exec.op.HashAggregate", "exec.op.Sort"] {
            let end = events
                .iter()
                .find(|e| e.kind == obsv::EventKind::End && e.name == name)
                .expect("wrapper span present");
            assert!(
                end.args
                    .iter()
                    .any(|(k, v)| *k == "rows_out" && *v == obsv::ArgValue::Int(5)),
                "{name} must report the 5 groups, not the 100 input rows: {:?}",
                end.args
            );
        }
    }

    #[test]
    fn wrapper_span_chains_differential_against_reference() {
        // Audit of the wrapper-peeling path: for every top-level wrapper
        // chain the planner can emit (Sort over HashAggregate, each alone,
        // neither), the traced execution must (a) stay bit-identical to the
        // row-at-a-time reference in rows and work, and (b) stamp each
        // wrapper span with its *post*-operator cardinality — the final
        // output count, never the pre-aggregation input count.
        let db = setup();
        let cases: [(&str, bool, bool); 4] = [
            (
                "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid",
                false,
                true,
            ),
            (
                "SELECT deptid, COUNT(*) FROM emp WHERE empid < 37 \
                 GROUP BY deptid ORDER BY deptid DESC",
                true,
                true,
            ),
            (
                "SELECT * FROM emp WHERE deptid = 2 ORDER BY salary",
                true,
                false,
            ),
            ("SELECT * FROM emp WHERE empid < 12", false, false),
        ];
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        for (sql, want_sort, want_agg) in cases {
            let q = bind(&db, sql);
            let r = opt
                .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
                .unwrap();
            let reference = execute_plan_reference(&db, &q, &r.plan, &opt.params).unwrap();
            let tracer = obsv::Tracer::enabled();
            let traced = execute_plan_observed(
                &db,
                &q,
                &r.plan,
                &opt.params,
                &tracer,
                &obsv::FeedbackLog::disabled(),
            )
            .unwrap();
            assert_eq!(traced.rows, reference.rows, "rows diverge on {sql}");
            assert_eq!(
                traced.work.to_bits(),
                reference.work.to_bits(),
                "work diverges on {sql}"
            );
            let events = tracer.flush();
            assert!(obsv::trace::validate(&events).is_empty(), "{sql}");
            for (name, wanted) in [
                ("exec.op.Sort", want_sort),
                ("exec.op.HashAggregate", want_agg),
            ] {
                let end = events
                    .iter()
                    .find(|e| e.kind == obsv::EventKind::End && e.name == name);
                assert_eq!(end.is_some(), wanted, "{sql}: span {name}");
                if let Some(end) = end {
                    let expected = obsv::ArgValue::Int(traced.row_count() as i64);
                    assert!(
                        end.args
                            .iter()
                            .any(|(k, v)| *k == "rows_out" && *v == expected),
                        "{sql}: {name} must report the post-operator count \
                         {}: {:?}",
                        traced.row_count(),
                        end.args
                    );
                }
            }
        }
    }

    #[test]
    fn feedback_log_captures_single_predicate_scans() {
        let db = setup();
        let opt = Optimizer::default();
        let cat = StatsCatalog::new();
        let run_observed = |sql: &str, log: &obsv::FeedbackLog| {
            let q = bind(&db, sql);
            let r = opt
                .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
                .unwrap();
            let plain = execute_plan(&db, &q, &r.plan, &opt.params).unwrap();
            let observed = execute_plan_observed(
                &db,
                &q,
                &r.plan,
                &opt.params,
                &obsv::Tracer::disabled(),
                log,
            )
            .unwrap();
            // The write-only channel may never perturb execution.
            assert_eq!(plain.rows, observed.rows);
            assert_eq!(plain.work.to_bits(), observed.work.to_bits());
            observed
        };

        let log = obsv::FeedbackLog::enabled();
        run_observed("SELECT * FROM emp WHERE empid < 10", &log);
        let records = log.drain();
        assert_eq!(records.len(), 1, "one single-predicate scan, one record");
        let r = records[0];
        assert_eq!(r.column, 0);
        assert_eq!(r.rows_out, 10.0);
        assert_eq!(r.input_rows, 100.0);
        assert_eq!(r.lo, f64::NEG_INFINITY);
        assert_eq!(r.hi, 10.0);

        // Conjunctions and string literals are not clean templates: skipped.
        run_observed("SELECT * FROM emp WHERE empid < 10 AND deptid = 3", &log);
        run_observed("SELECT * FROM dept WHERE dname = 'd2'", &log);
        assert!(log.is_empty(), "unsupported scans must record nothing");

        // A disabled log costs one branch and stays empty.
        let disabled = obsv::FeedbackLog::disabled();
        run_observed("SELECT * FROM emp WHERE empid = 7", &disabled);
        assert!(disabled.is_empty());
    }

    #[test]
    fn equi_join_counts() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        assert_eq!(out.row_count(), 100, "every emp matches exactly one dept");
        // Projection covers both tables' columns.
        assert_eq!(out.rows[0].len(), 5);
    }

    #[test]
    fn join_with_filter() {
        let db = setup();
        let out = run(
            &db,
            "SELECT e.empid, d.dname FROM emp e, dept d \
             WHERE e.deptid = d.deptid AND e.salary >= 900.0",
        );
        assert_eq!(out.row_count(), 10);
        assert_eq!(out.rows[0].len(), 2);
    }

    #[test]
    fn group_by_with_aggregates() {
        let db = setup();
        let out = run(
            &db,
            "SELECT deptid, COUNT(*), SUM(salary), MIN(empid), MAX(empid), AVG(salary) \
             FROM emp GROUP BY deptid",
        );
        assert_eq!(out.row_count(), 5);
        // deptid = 0 group: empids 0,5,...,95 → count 20
        let g0 = out.rows.iter().find(|r| r[0] == Value::Int(0)).unwrap();
        assert_eq!(g0[1], Value::Int(20));
        assert_eq!(g0[3], Value::Int(0));
        assert_eq!(g0[4], Value::Int(95));
    }

    #[test]
    fn scalar_aggregate_without_group_by() {
        let db = setup();
        let out = run(&db, "SELECT COUNT(*) FROM emp WHERE deptid = 3");
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.rows[0][0], Value::Int(20));
    }

    #[test]
    fn cartesian_product() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp, dept");
        assert_eq!(out.row_count(), 500);
    }

    #[test]
    fn oversized_cartesian_product_is_refused_before_allocating() {
        // 20 000 × 20 000 tuples of two ordinals each: 6.4 GB of intermediate
        // result, which is an abort in the allocator if it is ever asked for.
        let mut db = Database::new();
        for name in ["a", "b"] {
            let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]);
            let t = db.create_table(name, schema).unwrap();
            for k in 0..20_000 {
                db.table_mut(t).insert(vec![Value::Int(k)]).unwrap();
            }
        }
        let q = bind(&db, "SELECT * FROM a, b");
        let opt = Optimizer::default();
        let r = opt
            .optimize(
                &db,
                &q,
                StatsCatalog::new().full_view(),
                &OptimizeOptions::default(),
            )
            .unwrap();
        assert_eq!(
            execute_plan(&db, &q, &r.plan, &opt.params).unwrap_err(),
            ExecError::ResultTooLarge {
                tuples: 400_000_000
            }
        );
    }

    #[test]
    fn empty_result() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp WHERE empid = -1");
        assert_eq!(out.row_count(), 0);
    }

    #[test]
    fn between_predicate_execution() {
        let db = setup();
        let out = run(&db, "SELECT * FROM emp WHERE empid BETWEEN 10 AND 19");
        assert_eq!(out.row_count(), 10);
    }

    #[test]
    fn order_by_sorts_output() {
        let db = setup();
        let out = run(
            &db,
            "SELECT empid FROM emp WHERE empid < 5 ORDER BY empid DESC",
        );
        let ids: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            ids,
            vec![
                Value::Int(4),
                Value::Int(3),
                Value::Int(2),
                Value::Int(1),
                Value::Int(0)
            ]
        );
    }

    #[test]
    fn order_by_unprojected_column() {
        // Sorting by a column that is not in the projection.
        let db = setup();
        let out = run(&db, "SELECT dname FROM dept ORDER BY deptid DESC");
        assert_eq!(out.rows[0][0], Value::Str("d4".into()));
        assert_eq!(out.rows[4][0], Value::Str("d0".into()));
    }

    #[test]
    fn order_by_on_aggregate_output() {
        let db = setup();
        let out = run(
            &db,
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid ORDER BY deptid DESC",
        );
        assert_eq!(out.rows[0][0], Value::Int(4));
        assert_eq!(out.rows[4][0], Value::Int(0));
    }

    #[test]
    fn work_is_deterministic() {
        let db = setup();
        let a = run(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        let b = run(&db, "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid");
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new();
        let a = db
            .create_table(
                "a",
                Schema::new(vec![ColumnDef::new("k", DataType::Int).nullable()]),
            )
            .unwrap();
        let b = db
            .create_table(
                "b",
                Schema::new(vec![ColumnDef::new("k", DataType::Int).nullable()]),
            )
            .unwrap();
        for v in [Value::Int(1), Value::Null, Value::Int(2)] {
            db.table_mut(a).insert(vec![v.clone()]).unwrap();
            db.table_mut(b).insert(vec![v]).unwrap();
        }
        let out = run(&db, "SELECT * FROM a, b WHERE a.k = b.k");
        assert_eq!(out.row_count(), 2, "NULL keys must not join");
    }

    #[test]
    fn null_group_keys_form_their_own_group() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("g", DataType::Int).nullable(),
                    ColumnDef::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        for (g, v) in [
            (Value::Int(1), 10),
            (Value::Null, 20),
            (Value::Int(1), 30),
            (Value::Null, 40),
        ] {
            db.table_mut(t).insert(vec![g, Value::Int(v)]).unwrap();
        }
        let out = run(&db, "SELECT g, COUNT(*) FROM t GROUP BY g");
        assert_eq!(out.row_count(), 2);
        // NULL sorts first.
        assert_eq!(out.rows[0][0], Value::Null);
        assert_eq!(out.rows[0][1], Value::Int(2));
    }

    #[test]
    fn string_join_keys_match_exactly() {
        let db = setup();
        let out = run(
            &db,
            "SELECT e.empid FROM emp e, dept d WHERE e.deptid = d.deptid AND d.dname = 'd2'",
        );
        assert_eq!(out.row_count(), 20);
    }

    #[test]
    fn mixed_query_shapes_match_the_reference() {
        // Scan, join, aggregate + sort, and sorted scan in one place; `run`
        // compares rows and work bits against the reference interpreter.
        let db = setup();
        for sql in [
            "SELECT * FROM emp WHERE empid < 10",
            "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid",
            "SELECT deptid, COUNT(*), SUM(salary) FROM emp GROUP BY deptid ORDER BY deptid",
            "SELECT * FROM emp WHERE salary >= 250.0 ORDER BY empid DESC",
        ] {
            run(&db, sql);
        }
    }

    #[test]
    fn inconsistent_plan_reports_missing_relation() {
        // A hand-built plan whose scan produces relation ordinal 1 while the
        // query's projection reads relation 0: the executor must name the
        // missing relation instead of panicking.
        let db = setup();
        let q = bind(&db, "SELECT * FROM emp");
        let t = db.table_id("emp").unwrap();
        let plan = PlanNode::leaf(
            Operator::SeqScan {
                rel: 1,
                table: t,
                preds: vec![],
            },
            100.0,
            100.0,
        );
        let err = execute_plan(&db, &q, &plan, &Optimizer::default().params).unwrap_err();
        assert_eq!(err, ExecError::MissingRelation { relation: 0 });
        assert!(err.to_string().contains("relation #0"), "{err}");
    }

    #[test]
    fn out_of_range_predicate_is_malformed_plan() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM emp");
        let t = db.table_id("emp").unwrap();
        let plan = PlanNode::leaf(
            Operator::SeqScan {
                rel: 0,
                table: t,
                preds: vec![9],
            },
            100.0,
            100.0,
        );
        let err = execute_plan(&db, &q, &plan, &Optimizer::default().params).unwrap_err();
        assert!(matches!(err, ExecError::MalformedPlan { .. }), "{err:?}");
    }
}
