//! The Shrinking Set algorithm (§5.2, Figure 2).
//!
//! Given a workload and an initial statistics set S known to contain an
//! essential set (e.g. the output of vanilla MNSA), Shrinking Set removes
//! every statistic whose absence leaves the plan of *each* query for which
//! it is potentially relevant unchanged. Unlike MNSA/D it **guarantees** the
//! result is an essential set: after one pass, removing any remaining
//! statistic would change some plan.
//!
//! Worst-case optimizer calls per pass: `|S| * |W|` (plus `|W|` to record
//! the reference plans); the pass repeats until it removes nothing, which
//! rarely takes more than two rounds. The §5.2 efficiency refinement is
//! implemented, and made exact:
//!
//! * queries whose plan is already insensitive to a statistic's table are
//!   filtered by the relevance test before any optimizer call is spent;
//! * a statistic matters to Q only if hiding it changes a value Q's
//!   selectivity profile holds, since a plan is a function of those values
//!   ([`Optimizer::plan`]). So every call builds the profile first, and a
//!   trial whose profile equals its reference's takes the reference's plan
//!   and cost without running the DP; a reference whose profile equals that
//!   of a plan the caller already holds (MNSA's final plan for the query)
//!   does the same.
//!
//! Either way the call counts as one of Figure 2's optimizer calls, and the
//! outcome is the one planning every call would give.

use crate::equivalence::Equivalence;
use optimizer::{OptimizeOptions, OptimizedQuery, Optimizer, PlanError, SelectivityProfile};
use query::BoundSelect;
use stats::{StatId, StatsCatalog};
use std::borrow::Cow;
use std::collections::HashSet;
use storage::{Database, TableId};

/// The result of a Shrinking Set pass.
#[derive(Debug, Clone)]
pub struct ShrinkingOutcome {
    /// The essential set R ⊆ S that survived.
    pub essential: Vec<StatId>,
    /// Statistics removed (moved to the drop-list when `apply` was set).
    pub removed: Vec<StatId>,
    pub optimizer_calls: usize,
}

/// Is statistic `stat` potentially relevant to a query with the given
/// relevant `(table, column)` set? (Figure 2 only re-optimizes queries
/// passing this test.) A statistic is potentially relevant when at least one
/// of its columns is among the query's relevant columns — which implies the
/// query references its table.
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

/// Run Shrinking-Set(W, S) per Figure 2.
///
/// `initial` is S; statistics of the catalog outside `initial` are ignored
/// throughout (they are neither tested nor visible — the algorithm reasons
/// about S only). When `apply` is true, removed statistics are moved to the
/// catalog's drop-list.
pub fn shrinking_set(
    db: &Database,
    catalog: &mut StatsCatalog,
    optimizer: &Optimizer,
    workload: &[BoundSelect],
    initial: &[StatId],
    equivalence: Equivalence,
    apply: bool,
) -> Result<ShrinkingOutcome, PlanError> {
    shrinking_set_traced(
        db,
        catalog,
        optimizer,
        workload,
        &[],
        initial,
        equivalence,
        apply,
        &obsv::Obs::disabled(),
    )
}

/// [`shrinking_set`] under an observability context, starting from the plans
/// the caller already holds.
///
/// `known` is indexed like `workload` and may be shorter (`&[]` when the
/// caller holds none). Precondition: `known[i]` was produced by this
/// `optimizer` over this `db` for `workload[i]`, under any statistics. A
/// reference plan whose profile has `known[i]`'s values is `known[i]`;
/// otherwise it is planned. The outcome does not depend on `known`.
///
/// Traced as a `shrink.run` span with one `shrink.pass` child per
/// fixed-point pass, and `shrink.*` counters. Purely observational — the
/// outcome is bit-identical to the untraced call.
#[allow(clippy::too_many_arguments)]
pub fn shrinking_set_traced(
    db: &Database,
    catalog: &mut StatsCatalog,
    optimizer: &Optimizer,
    workload: &[BoundSelect],
    known: &[OptimizedQuery],
    initial: &[StatId],
    equivalence: Equivalence,
    apply: bool,
    obs: &obsv::Obs,
) -> Result<ShrinkingOutcome, PlanError> {
    let mut run_span = obs.tracer.span("shrink.run");
    run_span.arg("initial", initial.len());
    run_span.arg("queries", workload.len());
    let all_active: HashSet<StatId> = catalog.active_ids().into_iter().collect();
    let initial_set: HashSet<StatId> = initial.iter().copied().collect();
    // Statistics outside S stay hidden for every optimization in this pass.
    let base_ignore: HashSet<StatId> = all_active.difference(&initial_set).copied().collect();

    // Every optimizer call of Figure 2 builds the profile and is counted;
    // only those whose profile is new run `plan`. Cells so the per-pass
    // spans can read the running counts while the closures hold borrows.
    let calls = std::cell::Cell::new(0usize);
    let planned = std::cell::Cell::new(0usize);
    let profile =
        |catalog: &StatsCatalog, q: &BoundSelect, ignore: &HashSet<StatId>| -> SelectivityProfile {
            calls.set(calls.get() + 1);
            optimizer.profile(db, catalog.view(ignore), q, &OptimizeOptions::default())
        };
    let plan = |q: &BoundSelect, p: SelectivityProfile| {
        planned.set(planned.get() + 1);
        optimizer.plan(db, q, p)
    };

    // Reference plans: Plan(Q, S) — the plan held for Q when it was made
    // from the values Q's profile has under S.
    let references: Vec<Cow<'_, OptimizedQuery>> = workload
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let p = profile(catalog, q, &base_ignore);
            match known.get(qi) {
                Some(k) if k.profile.same_values(&p) => Ok(Cow::Borrowed(k)),
                _ => plan(q, p).map(Cow::Owned),
            }
        })
        .collect::<Result<_, _>>()?;

    let relevant: Vec<Vec<(TableId, usize)>> =
        workload.iter().map(|q| q.relevant_columns()).collect();

    let mut r: Vec<StatId> = initial.to_vec();
    let mut removed: Vec<StatId> = Vec::new();
    // What a trial optimization must not see: everything outside S, every
    // removal so far (Figure 2 line 5 mutates R in place), and the
    // statistic on trial, which joins the set for good only if removed.
    let mut ignore = base_ignore.clone();

    // Figure 2 is a single pass; we iterate it to a fixed point. A statistic
    // kept early in the pass can become removable after later removals when
    // plan dependence on statistics is non-monotone, and the essential-set
    // guarantee ("removing any remaining statistic breaks equivalence")
    // only holds once a full pass removes nothing.
    loop {
        let mut pass_span = run_span.child("shrink.pass");
        let calls_at_pass_start = calls.get();
        let planned_at_pass_start = planned.get();
        let removed_at_pass_start = removed.len();
        let mut removed_this_pass = false;
        for &s in &r.clone() {
            // Trial set: R - {s}.
            ignore.insert(s);

            let mut removable = true;
            for (qi, q) in workload.iter().enumerate() {
                if !potentially_relevant(catalog, s, &relevant[qi]) {
                    continue;
                }
                let trial = profile(catalog, q, &ignore);
                let reference = &*references[qi];
                // An unchanged profile plans to the reference's plan and cost.
                let equivalent = if trial.same_values(&reference.profile) {
                    equivalence.equivalent(reference, reference)
                } else {
                    equivalence.equivalent(&plan(q, trial)?, reference)
                };
                if !equivalent {
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
        pass_span.arg("removed", removed.len() - removed_at_pass_start);
        pass_span.arg("optimizer_calls", calls.get() - calls_at_pass_start);
        pass_span.arg("planned", planned.get() - planned_at_pass_start);
        if !removed_this_pass {
            break;
        }
    }

    if apply {
        for &s in &removed {
            catalog.move_to_drop_list(s);
        }
    }

    run_span.arg("essential", r.len());
    run_span.arg("removed", removed.len());
    run_span.arg("optimizer_calls", calls.get());
    run_span.arg("planned", planned.get());
    obs.metrics
        .counter("shrink.optimizer_calls")
        .add(calls.get() as u64);
    obs.metrics
        .counter("shrink.plans_known")
        .add((calls.get() - planned.get()) as u64);
    obs.metrics
        .counter("shrink.removed")
        .add(removed.len() as u64);

    Ok(ShrinkingOutcome {
        essential: r,
        removed,
        optimizer_calls: calls.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnsa::{MnsaConfig, MnsaEngine};
    use query::{bind_statement, parse_statement, BoundStatement};
    use stats::StatDescriptor;
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "facts",
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        let d = db
            .create_table(
                "dim",
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("label", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..2000i64 {
            let a = if i % 50 == 0 { 1 } else { 0 }; // a = 1 is rare
            db.table_mut(t)
                .insert(vec![Value::Int(i % 40), Value::Int(a), Value::Int(i % 7)])
                .unwrap();
        }
        for i in 0..40i64 {
            db.table_mut(d)
                .insert(vec![Value::Int(i), Value::Str(format!("x{i}").into())])
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

    /// The defining property: the result is equivalent to the initial set,
    /// and removing any single remaining statistic breaks equivalence.
    #[test]
    fn result_is_an_essential_set() {
        let db = setup();
        let workload = vec![
            bind(
                &db,
                "SELECT * FROM facts, dim WHERE facts.k = dim.k AND a = 1",
            ),
            bind(&db, "SELECT b, COUNT(*) FROM facts WHERE a = 1 GROUP BY b"),
        ];
        // Start from ALL candidate statistics (a superset of essential).
        let mut catalog = StatsCatalog::new();
        let engine = MnsaEngine::new(MnsaConfig::default());
        for q in &workload {
            for d in engine.candidates(q) {
                catalog.create_statistic(&db, d).unwrap();
            }
        }
        let initial = catalog.active_ids();
        let optimizer = Optimizer::default();
        let equiv = Equivalence::ExecutionTree;
        let out = shrinking_set(
            &db,
            &mut catalog,
            &optimizer,
            &workload,
            &initial,
            equiv,
            false,
        )
        .unwrap();

        assert_eq!(out.essential.len() + out.removed.len(), initial.len());

        // (1) R is equivalent to S for every query.
        let all: HashSet<StatId> = catalog.active_ids().into_iter().collect();
        let r_set: HashSet<StatId> = out.essential.iter().copied().collect();
        let ignore_to_r: HashSet<StatId> = all.difference(&r_set).copied().collect();
        for q in &workload {
            let with_s = optimizer
                .optimize(
                    &db,
                    q,
                    catalog.view(&HashSet::new()),
                    &OptimizeOptions::default(),
                )
                .unwrap();
            let with_r = optimizer
                .optimize(
                    &db,
                    q,
                    catalog.view(&ignore_to_r),
                    &OptimizeOptions::default(),
                )
                .unwrap();
            assert!(equiv.equivalent(&with_s, &with_r), "R not equivalent to S");
        }

        // (2) minimality: removing any statistic of R changes some plan.
        for &s in &out.essential {
            let mut ignore = ignore_to_r.clone();
            ignore.insert(s);
            let mut any_changed = false;
            for q in &workload {
                let with_r = optimizer
                    .optimize(
                        &db,
                        q,
                        catalog.view(&ignore_to_r),
                        &OptimizeOptions::default(),
                    )
                    .unwrap();
                let without = optimizer
                    .optimize(&db, q, catalog.view(&ignore), &OptimizeOptions::default())
                    .unwrap();
                if !equiv.equivalent(&with_r, &without) {
                    any_changed = true;
                    break;
                }
            }
            assert!(
                any_changed,
                "statistic {s} in R is removable — R not minimal"
            );
        }
    }

    #[test]
    fn apply_moves_removed_to_drop_list() {
        let db = setup();
        let workload = vec![bind(&db, "SELECT * FROM facts WHERE a = 1 AND b = 3")];
        let mut catalog = StatsCatalog::new();
        let facts = db.table_id("facts").unwrap();
        for c in [1usize, 2] {
            catalog
                .create_statistic(&db, StatDescriptor::single(facts, c))
                .unwrap();
        }
        let initial = catalog.active_ids();
        let out = shrinking_set(
            &db,
            &mut catalog,
            &Optimizer::default(),
            &workload,
            &initial,
            Equivalence::ExecutionTree,
            true,
        )
        .unwrap();
        for id in &out.removed {
            assert!(catalog.is_drop_listed(*id));
        }
        assert_eq!(catalog.active_count(), out.essential.len());
    }

    #[test]
    fn irrelevant_statistics_need_no_optimizer_calls() {
        let db = setup();
        // Workload touches only `facts.a`; a statistic on dim.label is
        // irrelevant to it and must be removed by the relevance pre-filter.
        let workload = vec![bind(&db, "SELECT * FROM facts WHERE a = 1")];
        let mut catalog = StatsCatalog::new();
        let dim = db.table_id("dim").unwrap();
        let irrelevant = catalog
            .create_statistic(&db, StatDescriptor::single(dim, 1))
            .unwrap();
        let initial = vec![irrelevant];
        let out = shrinking_set(
            &db,
            &mut catalog,
            &Optimizer::default(),
            &workload,
            &initial,
            Equivalence::ExecutionTree,
            false,
        )
        .unwrap();
        assert_eq!(out.removed, vec![irrelevant]);
        // Only the reference plan needed an optimizer call.
        assert_eq!(out.optimizer_calls, workload.len());
    }

    #[test]
    fn call_count_bounded_by_s_times_w() {
        let db = setup();
        let workload = vec![
            bind(&db, "SELECT * FROM facts WHERE a = 1"),
            bind(&db, "SELECT * FROM facts WHERE b < 3"),
        ];
        let mut catalog = StatsCatalog::new();
        let facts = db.table_id("facts").unwrap();
        for c in [0usize, 1, 2] {
            catalog
                .create_statistic(&db, StatDescriptor::single(facts, c))
                .unwrap();
        }
        let initial = catalog.active_ids();
        let out = shrinking_set(
            &db,
            &mut catalog,
            &Optimizer::default(),
            &workload,
            &initial,
            Equivalence::TCost(20.0),
            false,
        )
        .unwrap();
        // Per-pass bound |S|*|W|, at most |S|+1 passes, plus the references.
        assert!(
            out.optimizer_calls
                <= initial.len() * workload.len() * (initial.len() + 1) + workload.len()
        );
    }
}
