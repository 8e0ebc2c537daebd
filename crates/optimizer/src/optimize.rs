//! The optimizer proper: access-path selection, then dynamic-programming
//! join enumeration (Selinger-style, over relation subsets; the
//! `enumerate` module), then aggregation placement.

use crate::cost::CostParams;
use crate::enumerate::{best_join_tree, BaseRelation, MAX_DP_RELATIONS};
use crate::error::PlanError;
use crate::magic::MagicNumbers;
use crate::plan::{Operator, PlanNode};
use crate::selectivity::{build_profile, SelectivityProfile};
use query::{BoundSelect, CmpOp, PredOp, PredicateId};
use rustc_hash::FxHashMap;
use stats::StatsView;
use storage::Database;

/// Per-call optimization options.
#[derive(Debug, Clone, Default)]
pub struct OptimizeOptions {
    /// Forced selectivity values per variable — the §7.2 server extension
    /// ("accept the selectivity of such predicates as a parameter rather
    /// than using the default magic number"). Values are clamped to [0, 1].
    pub injected: FxHashMap<PredicateId, f64>,
}

impl OptimizeOptions {
    /// Inject the same selectivity for every listed variable (how MNSA
    /// builds `P_low` and `P_high`).
    pub fn inject_all(vars: &[PredicateId], value: f64) -> Self {
        OptimizeOptions {
            injected: vars.iter().map(|&v| (v, value)).collect(),
        }
    }
}

/// The result of one optimizer call.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    pub plan: PlanNode,
    /// Optimizer-estimated cost of the chosen plan (`Estimated-Cost(Q, S)`
    /// in the paper's notation).
    pub cost: f64,
    /// Selectivity variables that fell back to magic numbers.
    pub magic_variables: Vec<PredicateId>,
    /// The full selectivity profile used.
    pub profile: SelectivityProfile,
}

/// The query optimizer. Stateless apart from configuration; every call is a
/// pure function of `(query, statistics view, options)`.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    pub magic: MagicNumbers,
    pub params: CostParams,
}

impl Optimizer {
    /// Optimize a bound query against the visible statistics: [`plan`] of
    /// the [`profile`].
    ///
    /// [`plan`]: Optimizer::plan
    /// [`profile`]: Optimizer::profile
    ///
    /// # Errors
    /// Returns [`PlanError`] for degenerate input: a query with no relations
    /// or more than [`MAX_DP_RELATIONS`], or one whose table ids are stale.
    pub fn optimize(
        &self,
        db: &Database,
        query: &BoundSelect,
        stats: StatsView<'_>,
        options: &OptimizeOptions,
    ) -> Result<OptimizedQuery, PlanError> {
        self.plan(db, query, self.profile(db, stats, query, options))
    }

    /// The first half of [`optimize`](Optimizer::optimize): the selectivity
    /// of every variable of `query` under the visible statistics, the
    /// injected values and this optimizer's magic numbers.
    pub fn profile(
        &self,
        db: &Database,
        view: StatsView<'_>,
        query: &BoundSelect,
        options: &OptimizeOptions,
    ) -> SelectivityProfile {
        build_profile(db, &view, query, &self.magic, &options.injected)
    }

    /// The second half of [`optimize`](Optimizer::optimize): plan `query`
    /// under a selectivity profile. The profile is the only channel through
    /// which statistics reach plan selection, and only its values are read,
    /// so the plan and its cost are a pure function of `(query, profile
    /// values, table metadata, optimizer config)`: two profiles for which
    /// [`SelectivityProfile::same_values`] holds yield the same plan.
    ///
    /// # Errors
    /// As [`optimize`](Optimizer::optimize).
    pub fn plan(
        &self,
        db: &Database,
        query: &BoundSelect,
        profile: SelectivityProfile,
    ) -> Result<OptimizedQuery, PlanError> {
        let n = query.relations.len();
        if n == 0 {
            return Err(PlanError::NoRelations);
        }
        if n > MAX_DP_RELATIONS {
            return Err(PlanError::TooManyRelations {
                n,
                max: MAX_DP_RELATIONS,
            });
        }

        let relations: Vec<BaseRelation> = (0..n)
            .map(|rel| self.best_access_path(db, query, &profile, rel))
            .collect::<Result<_, _>>()?;
        let mut plan = best_join_tree(&self.params, db, query, &profile, &relations)?;

        // Aggregation on top.
        if !query.group_by.is_empty() || !query.aggregates.is_empty() {
            let input_rows = plan.est_rows;
            let groups = if query.group_by.is_empty() {
                1.0
            } else {
                (input_rows * profile.value(PredicateId::GroupBy)).max(1.0)
            };
            let cost = plan.est_cost + self.params.hash_aggregate(input_rows, groups);
            plan = PlanNode {
                op: Operator::HashAggregate {
                    group: query.group_by.clone(),
                },
                est_rows: groups,
                est_cost: cost,
                children: vec![plan],
            };
        }

        // Final ORDER BY sort. Note that sort cost depends only on the input
        // cardinality — statistics on the sort keys cannot change the plan
        // (the paper's footnote 1).
        if !query.order_by.is_empty() {
            let rows = plan.est_rows;
            let cost = plan.est_cost + self.params.sort(rows);
            plan = PlanNode {
                op: Operator::Sort {
                    keys: query.order_by.clone(),
                },
                est_rows: rows,
                est_cost: cost,
                children: vec![plan],
            };
        }

        // Under the `strict-finite` feature every chosen plan's cost and
        // cardinality must be finite; a violation is a cost-model bug, not a
        // recoverable input condition.
        #[cfg(feature = "strict-finite")]
        assert!(
            plan.est_cost.is_finite() && plan.est_rows.is_finite(),
            "non-finite plan estimate: cost={} rows={}",
            plan.est_cost,
            plan.est_rows
        );

        Ok(OptimizedQuery {
            cost: plan.est_cost,
            magic_variables: profile.magic_variables(),
            plan,
            profile,
        })
    }

    /// Best access path (seq scan vs index seek) for one relation.
    fn best_access_path(
        &self,
        db: &Database,
        query: &BoundSelect,
        profile: &SelectivityProfile,
        rel: usize,
    ) -> Result<BaseRelation, PlanError> {
        let table_id = query.table_of(rel);
        let table = db.try_table(table_id)?;
        let n = table.row_count() as f64;
        let filter = profile.relation_filter(query, rel);
        let out_rows = n * filter;
        let all_preds: Vec<usize> = query.selections_on(rel).map(|(i, _)| i).collect();

        let mut best = PlanNode::leaf(
            Operator::SeqScan {
                rel,
                table: table_id,
                preds: all_preds.clone(),
            },
            out_rows,
            self.params.seq_scan(n),
        );

        for index in db.indexes_on(table_id) {
            // Seekable predicates: comparisons (except <>) and BETWEEN on the
            // index's leading column.
            let seek_preds: Vec<usize> = query
                .selections_on(rel)
                .filter(|(_, p)| p.column.column == index.leading_column())
                .filter(|(_, p)| !matches!(p.op, PredOp::Cmp(CmpOp::Ne, _)))
                .map(|(i, _)| i)
                .collect();
            if seek_preds.is_empty() {
                continue;
            }
            let seek_sel: f64 = seek_preds
                .iter()
                .map(|&i| profile.value(PredicateId::Selection(i)))
                .product();
            let residual: Vec<usize> = all_preds
                .iter()
                .copied()
                .filter(|i| !seek_preds.contains(i))
                .collect();
            let cost = self.params.index_scan(n, n * seek_sel);
            if cost < best.est_cost {
                best = PlanNode::leaf(
                    Operator::IndexScan {
                        rel,
                        table: table_id,
                        index: index.name.clone(),
                        seek_preds: seek_preds.clone(),
                        residual,
                    },
                    out_rows,
                    cost,
                );
            }
        }
        Ok(BaseRelation {
            raw_rows: n,
            access: best,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement, BoundStatement};
    use stats::{StatDescriptor, StatsCatalog};
    use storage::{ColumnDef, DataType, Schema, Value};

    /// emp(1000 rows: empid unique, deptid ∈ 0..10, age ∈ 0..100 skewed,
    /// salary ∈ 0..500) and dept(10 rows).
    fn setup() -> (Database, StatsCatalog) {
        let mut db = Database::new();
        let emp = db
            .create_table(
                "emp",
                Schema::new(vec![
                    ColumnDef::new("empid", DataType::Int),
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("age", DataType::Int),
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
        for i in 0..1000i64 {
            // Nearly everyone is young: age < 30 is ~95% selective the other way
            let age = if i % 20 == 0 { 30 + (i % 40) } else { i % 30 };
            db.table_mut(emp)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Int(age),
                    Value::Float((i % 500) as f64),
                ])
                .unwrap();
        }
        for d in 0..10i64 {
            db.table_mut(dept)
                .insert(vec![Value::Int(d), Value::Str(format!("d{d}").into())])
                .unwrap();
        }
        db.create_index("idx_emp_empid", emp, vec![0]).unwrap();
        (db, StatsCatalog::new())
    }

    fn bind(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => panic!("not a select"),
        }
    }

    fn optimize(db: &Database, cat: &StatsCatalog, sql: &str) -> OptimizedQuery {
        let q = bind(db, sql);
        Optimizer::default()
            .optimize(db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap()
    }

    #[test]
    fn single_table_scan() {
        let (db, cat) = setup();
        let r = optimize(&db, &cat, "SELECT * FROM dept");
        assert!(matches!(r.plan.op, Operator::SeqScan { .. }));
        assert_eq!(r.plan.est_rows, 10.0);
        assert!(r.magic_variables.is_empty());
    }

    #[test]
    fn magic_variables_reported_without_stats() {
        let (db, cat) = setup();
        let r = optimize(
            &db,
            &cat,
            "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid AND e.age < 30",
        );
        assert_eq!(
            r.magic_variables,
            vec![PredicateId::Selection(0), PredicateId::JoinEdge(0)]
        );
    }

    #[test]
    fn stale_statistics_floor_out_of_domain_plan_estimates() {
        // Regression (plan level): a histogram built before a bulk append
        // used to estimate exactly zero selectivity for predicates beyond
        // its key domain, zeroing `est_rows` for the whole plan and letting
        // the optimizer treat the scan as free. With the out-of-domain
        // floor, probes into the appended region keep a non-degenerate
        // estimate: positive, finite, and carrying real plan cost.
        let (mut db, mut cat) = setup();
        let emp = db.table_id("emp").unwrap();
        cat.create_statistic(&db, StatDescriptor::single(emp, 0))
            .unwrap(); // empid, domain [0, 999] at build time
        for i in 1000..1400i64 {
            db.table_mut(emp)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Int(i % 30),
                    Value::Float(0.0),
                ])
                .unwrap();
        }
        for sql in [
            "SELECT * FROM emp WHERE empid = 1200",
            "SELECT * FROM emp WHERE empid > 1100",
            "SELECT * FROM emp WHERE empid BETWEEN 1050 AND 1350",
        ] {
            let r = optimize(&db, &cat, sql);
            assert!(
                r.plan.est_rows > 0.0 && r.plan.est_rows.is_finite(),
                "{sql}: degenerate estimate {}",
                r.plan.est_rows
            );
            assert!(r.cost > 0.0, "{sql}: free plan");
            // The stale statistic still answers — no magic-number fallback.
            assert!(r.magic_variables.is_empty(), "{sql}");
        }
    }

    #[test]
    fn statistics_remove_magic_variables() {
        let (db, mut cat) = setup();
        let emp = db.table_id("emp").unwrap();
        let dept = db.table_id("dept").unwrap();
        cat.create_statistic(&db, StatDescriptor::single(emp, 2))
            .unwrap(); // age
        cat.create_statistic(&db, StatDescriptor::single(emp, 1))
            .unwrap(); // deptid
        cat.create_statistic(&db, StatDescriptor::single(dept, 0))
            .unwrap(); // deptid
        let r = optimize(
            &db,
            &cat,
            "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid AND e.age < 30",
        );
        assert!(r.magic_variables.is_empty());
        // join sel should be 1/max(10,10) = 0.1 and age<30 ≈ 0.95
        let jsel = r.profile.value(PredicateId::JoinEdge(0));
        assert!((jsel - 0.1).abs() < 1e-6, "jsel={jsel}");
        let asel = r.profile.value(PredicateId::Selection(0));
        assert!(asel > 0.8, "asel={asel}");
    }

    #[test]
    fn index_seek_chosen_for_selective_predicate() {
        let (db, mut cat) = setup();
        let emp = db.table_id("emp").unwrap();
        cat.create_statistic(&db, StatDescriptor::single(emp, 0))
            .unwrap();
        let r = optimize(&db, &cat, "SELECT * FROM emp WHERE empid = 17");
        assert!(
            matches!(r.plan.op, Operator::IndexScan { .. }),
            "plan: {}",
            r.plan
        );
        // And an unselective predicate sticks with the sequential scan.
        let r2 = optimize(&db, &cat, "SELECT * FROM emp WHERE empid >= 0");
        assert!(matches!(r2.plan.op, Operator::SeqScan { .. }));
    }

    #[test]
    fn injection_overrides_magic_and_changes_cost_monotonically() {
        let (db, cat) = setup();
        let q = bind(
            &db,
            "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid AND e.age < 30",
        );
        let opt = Optimizer::default();
        let vars = [PredicateId::Selection(0), PredicateId::JoinEdge(0)];
        let mut prev = 0.0;
        for (i, s) in [0.001, 0.1, 0.5, 0.999].iter().enumerate() {
            let r = opt
                .optimize(
                    &db,
                    &q,
                    cat.full_view(),
                    &OptimizeOptions::inject_all(&vars, *s),
                )
                .unwrap();
            assert!(
                r.magic_variables.is_empty(),
                "injected variables are not magic"
            );
            if i > 0 {
                assert!(
                    r.cost >= prev - 1e-9,
                    "cost must be monotone in injected selectivity: {} < {prev}",
                    r.cost
                );
            }
            prev = r.cost;
        }
    }

    #[test]
    fn join_plan_has_two_scans() {
        let (db, cat) = setup();
        let r = optimize(
            &db,
            &cat,
            "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid",
        );
        assert!(r.plan.op.is_join());
        let scans = r.plan.nodes().iter().filter(|n| n.op.is_scan()).count();
        assert_eq!(scans, 2);
    }

    #[test]
    fn cartesian_product_uses_nested_loops() {
        let (db, cat) = setup();
        let r = optimize(&db, &cat, "SELECT * FROM emp, dept");
        assert!(matches!(r.plan.op, Operator::NestedLoopJoin { ref edges } if edges.is_empty()));
        assert_eq!(r.plan.est_rows, 10_000.0);
    }

    #[test]
    fn group_by_adds_aggregate_node() {
        let (db, cat) = setup();
        let r = optimize(
            &db,
            &cat,
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid",
        );
        assert!(matches!(r.plan.op, Operator::HashAggregate { .. }));
        assert!(r.magic_variables.contains(&PredicateId::GroupBy));
        // With stats, group count is estimated from NDV.
        let (db2, mut cat2) = setup();
        let emp = db2.table_id("emp").unwrap();
        cat2.create_statistic(&db2, StatDescriptor::single(emp, 1))
            .unwrap();
        let r2 = optimize(
            &db2,
            &cat2,
            "SELECT deptid, COUNT(*) FROM emp GROUP BY deptid",
        );
        assert!(r2.magic_variables.is_empty());
        assert!(
            (r2.plan.est_rows - 10.0).abs() < 1.0,
            "groups={}",
            r2.plan.est_rows
        );
    }

    #[test]
    fn ignore_statistics_subset_changes_estimates() {
        use std::collections::HashSet;
        let (db, mut cat) = setup();
        let emp = db.table_id("emp").unwrap();
        let sid = cat
            .create_statistic(&db, StatDescriptor::single(emp, 2))
            .unwrap();
        let q = bind(&db, "SELECT * FROM emp WHERE age < 30");
        let opt = Optimizer::default();
        let with = opt
            .optimize(&db, &q, cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        let ignore: HashSet<_> = [sid].into_iter().collect();
        let without = opt
            .optimize(&db, &q, cat.view(&ignore), &OptimizeOptions::default())
            .unwrap();
        assert!(with.magic_variables.is_empty());
        assert_eq!(without.magic_variables, vec![PredicateId::Selection(0)]);
        assert_ne!(with.plan.est_rows, without.plan.est_rows);
    }

    /// Correlated predicates: without a joint histogram the optimizer
    /// multiplies marginals (attribute-value independence); with one, the
    /// pair estimate reflects the actual joint distribution.
    #[test]
    fn joint_histogram_breaks_independence_assumption() {
        use stats::BuildOptions;
        let mut db = Database::new();
        let t = db
            .create_table(
                "m",
                Schema::new(vec![
                    ColumnDef::new("x", DataType::Int),
                    ColumnDef::new("y", DataType::Int),
                ]),
            )
            .unwrap();
        // y == x: perfectly correlated.
        for i in 0..2000i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i % 100), Value::Int(i % 100)])
                .unwrap();
        }
        let q = bind(&db, "SELECT * FROM m WHERE x < 50 AND y >= 50");
        let opt = Optimizer::default();

        // Independence: ~0.5 * 0.5 = 0.25 of rows survive the (empty) filter.
        let mut marginal_cat = StatsCatalog::new();
        marginal_cat
            .create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        marginal_cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        marginal_cat
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        let r1 = opt
            .optimize(
                &db,
                &q,
                marginal_cat.full_view(),
                &OptimizeOptions::default(),
            )
            .unwrap();
        assert!(
            r1.plan.est_rows > 300.0,
            "independence estimate: {}",
            r1.plan.est_rows
        );

        // Joint: the contradiction is visible — almost nothing survives.
        let mut joint_cat =
            StatsCatalog::new().with_build_options(BuildOptions::default().with_joint_histograms());
        joint_cat
            .create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        joint_cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        joint_cat
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        let r2 = opt
            .optimize(&db, &q, joint_cat.full_view(), &OptimizeOptions::default())
            .unwrap();
        assert!(
            r2.plan.est_rows < 120.0,
            "joint estimate should be near zero: {}",
            r2.plan.est_rows
        );
        assert!(r1.magic_variables.is_empty() && r2.magic_variables.is_empty());
    }

    /// Injected selectivities bypass the joint refinement (MNSA's probes
    /// must reach the cost model exactly).
    #[test]
    fn injection_bypasses_joint_refinement() {
        use stats::BuildOptions;
        let mut db = Database::new();
        let t = db
            .create_table(
                "m",
                Schema::new(vec![
                    ColumnDef::new("x", DataType::Int),
                    ColumnDef::new("y", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..500i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i % 10), Value::Int(i % 10)])
                .unwrap();
        }
        let q = bind(&db, "SELECT * FROM m WHERE x < 5 AND y >= 5");
        let mut cat =
            StatsCatalog::new().with_build_options(BuildOptions::default().with_joint_histograms());
        cat.create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        let opt = Optimizer::default();
        let vars = q.predicate_ids();
        let r = opt
            .optimize(
                &db,
                &q,
                cat.full_view(),
                &OptimizeOptions::inject_all(&vars, 0.5),
            )
            .unwrap();
        for id in vars {
            assert_eq!(r.profile.value(id), 0.5, "{id} was not passed through");
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let (db, cat) = setup();
        let sql = "SELECT * FROM emp e, dept d WHERE e.deptid = d.deptid AND e.age < 30";
        let a = optimize(&db, &cat, sql);
        let b = optimize(&db, &cat, sql);
        assert!(a.plan.same_tree(&b.plan));
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn eight_way_join_optimizes() {
        // Chain of 8 relations — the paper's "Complex" workload bound.
        let mut db = Database::new();
        let mut ids = Vec::new();
        for t in 0..8 {
            let id = db
                .create_table(
                    format!("t{t}"),
                    Schema::new(vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("fk", DataType::Int),
                    ]),
                )
                .unwrap();
            for i in 0..50i64 {
                db.table_mut(id)
                    .insert(vec![Value::Int(i), Value::Int(i % 10)])
                    .unwrap();
            }
            ids.push(id);
        }
        let cat = StatsCatalog::new();
        let mut sql = String::from("SELECT * FROM t0");
        for t in 1..8 {
            sql.push_str(&format!(", t{t}"));
        }
        sql.push_str(" WHERE ");
        let conds: Vec<String> = (1..8)
            .map(|t| format!("t{}.fk = t{}.k", t - 1, t))
            .collect();
        sql.push_str(&conds.join(" AND "));
        let r = optimize(&db, &cat, &sql);
        assert_eq!(r.plan.nodes().iter().filter(|n| n.op.is_scan()).count(), 8);
        assert!(r.cost > 0.0);
    }
}
