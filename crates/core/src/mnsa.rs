//! Magic Number Sensitivity Analysis (MNSA) — §4 of the paper, Figure 1 —
//! and its drop-detecting variant MNSA/D (§5.1).
//!
//! MNSA sidesteps the chicken-and-egg problem of statistics selection
//! ("usefulness can be determined only after construction"): instead of
//! building a statistic to see whether it matters, it asks the optimizer how
//! *sensitive* the plan cost is to the selectivity variables that currently
//! fall back to magic numbers. It forces all of them to ε (plan `P_low`) and
//! to 1−ε (plan `P_high`); under the cost-monotonicity assumption these
//! bound every cost reachable with real statistics, so if the two costs are
//! within t% the existing statistics already include an essential set and no
//! more need be built.
//!
//! When the test fails, `FindNextStatToBuild` (§4.2) picks the next
//! statistic: the candidates relevant to the **most expensive operator** of
//! the current (magic-number) plan, where an operator's own cost is its
//! subtree cost minus its children's subtree costs. Join-column statistics
//! are created in **pairs** (the dependency noted in §4.2).
//!
//! MNSA/D additionally compares the plan after each creation with the plan
//! before it; if they are execution-tree-equivalent the new statistic is
//! heuristically marked non-essential and moved to the drop-list (§5.1).

use crate::candidates::{candidate_statistics, single_column_candidates};
use crate::error::TuneError;
use optimizer::{
    costs_within_t, Operator, OptimizeOptions, OptimizedQuery, Optimizer, PlanError, PlanNode,
};
use query::{BoundSelect, PredicateId};
use stats::{AgingPolicy, StatDescriptor, StatId, StatsCatalog};
use storage::Database;

/// Which candidate-statistics strategy feeds MNSA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateMode {
    /// The §7.1 heuristic (default).
    #[default]
    Heuristic,
    /// Single-column statistics only (the §8.2 variant).
    SingleColumnOnly,
}

/// Order in which `FindNextStatToBuild` walks the plan — the §4.2 heuristic
/// and two ablation baselines (the Figure 4 `--ablation` mode compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NextStatOrder {
    /// The paper's heuristic: most expensive operator first, by own cost
    /// (subtree − children).
    #[default]
    MostExpensiveNode,
    /// Plan order (pre-order traversal) — ignores costs entirely.
    Syntactic,
    /// Cheapest operator first — the adversarial baseline.
    CheapestNode,
}

/// MNSA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MnsaConfig {
    /// t-Optimizer-Cost threshold in percent (paper: 20%).
    pub t_percent: f64,
    /// The ε of the sensitivity probe (paper: 0.0005). MNSA guarantees an
    /// essential set only when real predicate selectivities lie within
    /// [ε, 1−ε].
    pub epsilon: f64,
    pub candidate_mode: CandidateMode,
    /// Enable MNSA/D drop detection (§5.1).
    pub drop_detection: bool,
    /// Skip candidates dampened by the aging registry (§6); `None` disables
    /// aging checks.
    pub aging: Option<AgingPolicy>,
    /// Node-ranking order used by `FindNextStatToBuild` (ablation knob).
    pub next_stat_order: NextStatOrder,
}

impl Default for MnsaConfig {
    fn default() -> Self {
        MnsaConfig {
            t_percent: 20.0,
            epsilon: 0.0005,
            candidate_mode: CandidateMode::Heuristic,
            drop_detection: false,
            aging: None,
            next_stat_order: NextStatOrder::MostExpensiveNode,
        }
    }
}

impl MnsaConfig {
    /// MNSA/D: MNSA with drop detection enabled.
    pub fn with_drop_detection(mut self) -> Self {
        self.drop_detection = true;
        self
    }
}

/// Why MNSA stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// `P_low` and `P_high` became t-Optimizer-Cost equivalent — the
    /// existing statistics include an essential set.
    CostConverged,
    /// No candidate statistics remain to build.
    NoMoreCandidates,
}

/// What one MNSA run did for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct MnsaOutcome {
    /// Statistics created (in creation order), including both members of
    /// join pairs.
    pub created: Vec<StatId>,
    /// Statistics moved to the drop-list by MNSA/D.
    pub drop_listed: Vec<StatId>,
    /// Candidates never built because the sensitivity test passed first.
    pub skipped: Vec<StatDescriptor>,
    /// Candidates skipped due to aging.
    pub aged_out: Vec<StatDescriptor>,
    pub optimizer_calls: usize,
    pub terminated_by: Termination,
    /// Sensitivity-probe iterations that went on to build statistics.
    pub rounds: usize,
    /// Estimated plan cost under the final statistics when MNSA stopped.
    pub final_cost: f64,
}

impl MnsaOutcome {
    fn new() -> Self {
        MnsaOutcome {
            created: Vec::new(),
            drop_listed: Vec::new(),
            skipped: Vec::new(),
            aged_out: Vec::new(),
            optimizer_calls: 0,
            terminated_by: Termination::CostConverged,
            rounds: 0,
            final_cost: 0.0,
        }
    }
}

/// The MNSA engine: wraps an optimizer and applies Figure 1.
#[derive(Debug, Clone, Default)]
pub struct MnsaEngine {
    pub optimizer: Optimizer,
    pub config: MnsaConfig,
    /// Observability context. Disabled by default; purely observational —
    /// enabling it may never change an outcome (`tests/trace_determinism.rs`
    /// enforces bit-identical results with tracing on vs off).
    pub obs: obsv::Obs,
}

impl MnsaEngine {
    pub fn new(config: MnsaConfig) -> Self {
        MnsaEngine {
            optimizer: Optimizer::default(),
            config,
            obs: obsv::Obs::disabled(),
        }
    }

    /// Record spans and counters into `obs` while tuning.
    pub fn with_obs(mut self, obs: obsv::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The candidate set for a query under the configured mode.
    pub fn candidates(&self, query: &BoundSelect) -> Vec<StatDescriptor> {
        match self.config.candidate_mode {
            CandidateMode::Heuristic => candidate_statistics(query),
            CandidateMode::SingleColumnOnly => single_column_candidates(query),
        }
    }

    /// One optimizer call, counted in `outcome` and on the
    /// `mnsa.optimizer_calls` counter, recorded as an `optimizer.call` child
    /// span (phase label, resulting cost).
    #[allow(clippy::too_many_arguments)]
    fn optimize(
        &self,
        db: &Database,
        catalog: &StatsCatalog,
        query: &BoundSelect,
        options: &OptimizeOptions,
        outcome: &mut MnsaOutcome,
        parent: &obsv::SpanGuard,
        calls: &obsv::Counter,
        phase: &'static str,
    ) -> Result<OptimizedQuery, PlanError> {
        outcome.optimizer_calls += 1;
        calls.inc();
        let mut span = parent.child("optimizer.call");
        let result = self
            .optimizer
            .optimize(db, query, catalog.full_view(), options);
        if span.is_enabled() {
            span.arg("phase", phase);
            if let Ok(optimized) = &result {
                span.arg("cost", optimized.cost);
            }
        }
        result
    }

    /// Run MNSA (Figure 1) for one query, creating statistics in `catalog`.
    pub fn run_query(
        &self,
        db: &Database,
        catalog: &mut StatsCatalog,
        query: &BoundSelect,
    ) -> Result<MnsaOutcome, TuneError> {
        self.run_query_planned(db, catalog, query)
            .map(|(outcome, _)| outcome)
    }

    /// [`run_query`](Self::run_query), also returning the final plan: the
    /// query optimized under the catalog's active statistics as MNSA left
    /// them.
    fn run_query_planned(
        &self,
        db: &Database,
        catalog: &mut StatsCatalog,
        query: &BoundSelect,
    ) -> Result<(MnsaOutcome, OptimizedQuery), TuneError> {
        let mut outcome = MnsaOutcome::new();
        let mut query_span = self.obs.tracer.span("mnsa.query");
        query_span.arg("relations", query.relations.len());
        // One registry lookup per run, not per optimizer call.
        let calls = self.obs.metrics.counter("mnsa.optimizer_calls");
        // A drop-listed statistic is invisible to the optimizer, so for
        // candidate purposes it counts as unbuilt: if this query's
        // sensitivity loop picks it again, `create_statistic` reactivates it
        // from the drop-list for free (§5). Candidates whose table vanished
        // under us (a concurrent drop) are not tunable and are filtered out.
        let mut remaining: Vec<StatDescriptor> = self
            .candidates(query)
            .into_iter()
            .filter(|d| catalog.find_active(d).is_none())
            .filter(|d| db.try_table(d.table).is_ok())
            .collect();

        // Step 2: P = plan of Q with default magic numbers.
        let mut current = self.optimize(
            db,
            catalog,
            query,
            &OptimizeOptions::default(),
            &mut outcome,
            &query_span,
            &calls,
            "initial",
        )?;

        loop {
            // Step 4: the selectivity variables still on magic numbers.
            let magic: Vec<PredicateId> = current.profile.magic_variables();

            // Steps 5–7: P_low / P_high sensitivity probe.
            if magic.is_empty() {
                outcome.terminated_by = Termination::CostConverged;
                break;
            }
            let mut round_span = query_span.child("mnsa.round");
            round_span.arg("magic_vars", magic.len());
            let p_low = self.optimize(
                db,
                catalog,
                query,
                &OptimizeOptions::inject_all(&magic, self.config.epsilon),
                &mut outcome,
                &round_span,
                &calls,
                "probe_low",
            )?;
            let p_high = self.optimize(
                db,
                catalog,
                query,
                &OptimizeOptions::inject_all(&magic, 1.0 - self.config.epsilon),
                &mut outcome,
                &round_span,
                &calls,
                "probe_high",
            )?;
            let lo = p_low.cost.min(p_high.cost);
            let hi = p_low.cost.max(p_high.cost);
            round_span.arg("p_low_cost", lo);
            round_span.arg("p_high_cost", hi);
            if lo <= 0.0 || costs_within_t(lo, hi, self.config.t_percent) {
                round_span.arg("converged", true);
                outcome.terminated_by = Termination::CostConverged;
                break;
            }

            // Step 8: FindNextStatToBuild on the magic-number plan P.
            let Some(group) = self.find_next_stats(
                catalog,
                query,
                &current.plan,
                &mut remaining,
                &mut outcome,
                &round_span,
            ) else {
                round_span.arg("converged", false);
                outcome.terminated_by = Termination::NoMoreCandidates;
                break;
            };

            // Step 10: build the statistic(s). A round group may pair
            // statistics across two joined tables; each table is read once.
            let before_plan = current.plan.clone();
            let round_ids = catalog.create_statistics(db, &group)?;
            outcome.created.extend(&round_ids);
            outcome.rounds += 1;
            round_span.arg("built", round_ids.len());

            // Steps 11–12: re-optimize with the new statistics.
            current = self.optimize(
                db,
                catalog,
                query,
                &OptimizeOptions::default(),
                &mut outcome,
                &round_span,
                &calls,
                "rebuild",
            )?;
            round_span.arg("new_cost", current.cost);

            // MNSA/D (§5.1): if the plan did not change, the statistics just
            // built are heuristically non-essential. The heuristic alone can
            // misfire when the new statistics interact with earlier ones
            // (dropping them would change the plan even though adding them
            // did not), so the drop is verified: hide the statistics,
            // re-optimize, and keep the drop only if the plan tree is still
            // unchanged.
            if self.config.drop_detection && current.plan.same_tree(&before_plan) {
                if round_span.is_enabled() {
                    round_span.instant(
                        "mnsad.drop_probe",
                        vec![("n", obsv::ArgValue::Int(round_ids.len() as i64))],
                    );
                }
                for &id in &round_ids {
                    catalog.move_to_drop_list(id);
                }
                let without = self.optimize(
                    db,
                    catalog,
                    query,
                    &OptimizeOptions::default(),
                    &mut outcome,
                    &round_span,
                    &calls,
                    "drop_verify",
                )?;
                if without.plan.same_tree(&current.plan) {
                    if round_span.is_enabled() {
                        round_span.instant("mnsad.dropped", Vec::new());
                    }
                    outcome.drop_listed.extend(&round_ids);
                    // The loop invariant (current == plan under active stats)
                    // holds with the re-optimized plan.
                    current = without;
                } else {
                    if round_span.is_enabled() {
                        round_span.instant("mnsad.reactivated", Vec::new());
                    }
                    self.obs.metrics.counter("mnsa.drop_reactivated").inc();
                    for &id in &round_ids {
                        catalog.reactivate(id);
                    }
                }
            }
        }

        outcome.skipped = remaining;
        outcome.final_cost = current.cost;
        if query_span.is_enabled() {
            query_span.arg("optimizer_calls", outcome.optimizer_calls);
            query_span.arg("rounds", outcome.rounds);
            query_span.arg("created", outcome.created.len());
            query_span.arg("drop_listed", outcome.drop_listed.len());
            query_span.arg("skipped", outcome.skipped.len());
            query_span.arg("final_cost", outcome.final_cost);
            query_span.arg(
                "terminated_by",
                match outcome.terminated_by {
                    Termination::CostConverged => "converged",
                    Termination::NoMoreCandidates => "no_more_candidates",
                },
            );
        }
        self.obs.metrics.counter("mnsa.queries").inc();
        self.obs
            .metrics
            .counter("mnsa.rounds")
            .add(outcome.rounds as u64);
        self.obs
            .metrics
            .counter("mnsa.stats_created")
            .add(outcome.created.len() as u64);
        self.obs
            .metrics
            .counter("mnsa.stats_drop_listed")
            .add(outcome.drop_listed.len() as u64);
        Ok((outcome, current))
    }

    /// §4.2: rank plan operators by own cost (subtree − children) and return
    /// the unbuilt candidate statistics relevant to the most expensive
    /// operator that has any — as a group, so join statistics come in pairs.
    fn find_next_stats(
        &self,
        catalog: &StatsCatalog,
        query: &BoundSelect,
        plan: &PlanNode,
        remaining: &mut Vec<StatDescriptor>,
        outcome: &mut MnsaOutcome,
        span: &obsv::SpanGuard,
    ) -> Option<Vec<StatDescriptor>> {
        let mut nodes = plan.nodes();
        match self.config.next_stat_order {
            NextStatOrder::MostExpensiveNode => {
                nodes.sort_by(|a, b| b.own_cost().total_cmp(&a.own_cost()))
            }
            NextStatOrder::Syntactic => {} // pre-order as returned by nodes()
            NextStatOrder::CheapestNode => {
                nodes.sort_by(|a, b| a.own_cost().total_cmp(&b.own_cost()))
            }
        }

        for node in nodes {
            let group = self.stats_for_node(query, node, remaining);
            if group.is_empty() {
                continue;
            }
            // Aging (§6): dampen re-creation of recently dropped statistics.
            let mut usable = Vec::with_capacity(group.len());
            for d in group {
                let aged = self
                    .config
                    .aging
                    .map(|policy| catalog.is_aged_out(&d, &policy, plan.est_cost))
                    .unwrap_or(false);
                if aged {
                    remaining.retain(|r| r != &d);
                    outcome.aged_out.push(d);
                } else {
                    usable.push(d);
                }
            }
            if usable.is_empty() {
                continue;
            }
            for d in &usable {
                remaining.retain(|r| r != d);
            }
            // The chosen statistic and why: the ranked operator's own cost is
            // the §4.2 selection criterion.
            if let (true, Some(first)) = (span.is_enabled(), usable.first()) {
                span.instant(
                    "mnsa.next_stat",
                    vec![
                        ("op_own_cost", obsv::ArgValue::Float(node.own_cost())),
                        ("group_size", obsv::ArgValue::Int(usable.len() as i64)),
                        ("table", obsv::ArgValue::Int(first.table.0 as i64)),
                        ("columns", obsv::ArgValue::Int(first.columns.len() as i64)),
                    ],
                );
            }
            return Some(usable);
        }
        None
    }

    /// The unbuilt candidates relevant to one plan node.
    fn stats_for_node(
        &self,
        query: &BoundSelect,
        node: &PlanNode,
        remaining: &[StatDescriptor],
    ) -> Vec<StatDescriptor> {
        match &node.op {
            Operator::SeqScan { rel, preds, .. }
            | Operator::IndexScan {
                rel,
                seek_preds: preds,
                ..
            } => {
                let Some(&(table, _)) = query.relations.get(*rel) else {
                    return Vec::new();
                };
                let pred_cols: Vec<usize> = preds
                    .iter()
                    .chain(match &node.op {
                        Operator::IndexScan { residual, .. } => residual.iter(),
                        _ => [].iter(),
                    })
                    .filter_map(|&i| query.selections.get(i).map(|s| s.column.column))
                    .collect();
                // First matching candidate (candidate order: singles first).
                remaining
                    .iter()
                    .find(|d| d.table == table && d.columns.iter().all(|c| pred_cols.contains(c)))
                    .cloned()
                    .into_iter()
                    .collect()
            }
            Operator::HashJoin { edges }
            | Operator::MergeJoin { edges }
            | Operator::NestedLoopJoin { edges }
            | Operator::IndexNLJoin { edges, .. } => {
                // Join statistics come in pairs: propose the matching
                // candidate on each side of the first edge with any unbuilt.
                for &e in edges {
                    let Some(edge) = query.join_edges.get(e) else {
                        continue;
                    };
                    let (Some(&(lt, _)), Some(&(rt, _))) = (
                        query.relations.get(edge.left_rel),
                        query.relations.get(edge.right_rel),
                    ) else {
                        continue;
                    };
                    let lcols: Vec<usize> = edge.pairs.iter().map(|&(l, _)| l).collect();
                    let rcols: Vec<usize> = edge.pairs.iter().map(|&(_, r)| r).collect();
                    let matches = |d: &&StatDescriptor, t: storage::TableId, cols: &[usize]| {
                        d.table == t
                            && d.columns.len() == cols.len()
                            && d.columns.iter().all(|c| cols.contains(c))
                    };
                    let left = remaining.iter().find(|d| matches(d, lt, &lcols)).cloned();
                    let right = remaining.iter().find(|d| matches(d, rt, &rcols)).cloned();
                    let group: Vec<StatDescriptor> = left.into_iter().chain(right).collect();
                    if !group.is_empty() {
                        return group;
                    }
                }
                Vec::new()
            }
            // Footnote 1 of the paper: ORDER BY columns are not relevant —
            // no statistics are proposed for a sort node.
            Operator::Sort { .. } => Vec::new(),
            Operator::HashAggregate { group } => {
                let cols: Vec<(storage::TableId, usize)> = group
                    .iter()
                    .filter_map(|g| query.relations.get(g.relation).map(|&(t, _)| (t, g.column)))
                    .collect();
                remaining
                    .iter()
                    .find(|d| d.columns.iter().all(|c| cols.contains(&(d.table, *c))))
                    .cloned()
                    .into_iter()
                    .collect()
            }
        }
    }

    /// Run MNSA over a whole workload (§4.3: "a sufficient set of statistics
    /// for a workload can be obtained by invoking MNSA for each query").
    pub fn run_workload(
        &self,
        db: &Database,
        catalog: &mut StatsCatalog,
        queries: &[BoundSelect],
    ) -> Result<Vec<MnsaOutcome>, TuneError> {
        self.run_workload_planned(db, catalog, queries)
            .map(|(outcomes, _)| outcomes)
    }

    /// [`run_workload`](Self::run_workload), also returning each query's
    /// final plan — the plans Shrinking Set can start from
    /// ([`crate::shrinking_set_traced`]'s `known`).
    pub(crate) fn run_workload_planned(
        &self,
        db: &Database,
        catalog: &mut StatsCatalog,
        queries: &[BoundSelect],
    ) -> Result<(Vec<MnsaOutcome>, Vec<OptimizedQuery>), TuneError> {
        queries
            .iter()
            .map(|q| self.run_query_planned(db, catalog, q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement, BoundStatement};
    use storage::{ColumnDef, DataType, Schema, Value};

    /// employees(age skewed, salary skewed) + departments, Example 2 style.
    fn setup() -> Database {
        let mut db = Database::new();
        let emp = db
            .create_table(
                "employees",
                Schema::new(vec![
                    ColumnDef::new("empid", DataType::Int),
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("age", DataType::Int),
                    ColumnDef::new("salary", DataType::Int),
                ]),
            )
            .unwrap();
        let dept = db
            .create_table(
                "departments",
                Schema::new(vec![
                    ColumnDef::new("deptid", DataType::Int),
                    ColumnDef::new("dname", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..3000i64 {
            // salary > 200 is rare (~1%), age < 30 is common (~60%).
            let salary = if i % 100 == 0 { 250 } else { i % 200 };
            let age = 20 + (i % 50);
            db.table_mut(emp)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 20),
                    Value::Int(age),
                    Value::Int(salary),
                ])
                .unwrap();
        }
        for d in 0..20i64 {
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

    const EXAMPLE2_SQL: &str = "SELECT e.empid, d.dname FROM employees e, departments d \
        WHERE e.deptid = d.deptid AND e.age < 30 AND e.salary > 200";

    #[test]
    fn mnsa_builds_fewer_than_all_candidates() {
        let db = setup();
        let q = bind(&db, EXAMPLE2_SQL);
        let engine = MnsaEngine::new(MnsaConfig::default());
        let all = engine.candidates(&q).len();
        let mut catalog = StatsCatalog::new();
        let outcome = engine.run_query(&db, &mut catalog, &q).unwrap();
        assert!(
            outcome.created.len() < all,
            "MNSA built all {all} candidates — no pruning happened"
        );
        assert!(
            !outcome.skipped.is_empty() || outcome.terminated_by == Termination::NoMoreCandidates
        );
    }

    #[test]
    fn mnsa_converges_and_reports_three_calls_per_round() {
        let db = setup();
        let q = bind(&db, EXAMPLE2_SQL);
        let engine = MnsaEngine::new(MnsaConfig::default());
        let mut catalog = StatsCatalog::new();
        let outcome = engine.run_query(&db, &mut catalog, &q).unwrap();
        // Figure 1: 1 initial call + 2 probe calls per round + 1 re-optimize
        // per creation round.
        assert!(outcome.optimizer_calls >= 3);
        assert_eq!(outcome.terminated_by, Termination::CostConverged);
    }

    #[test]
    fn mnsa_noop_when_no_candidates() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM departments");
        let engine = MnsaEngine::new(MnsaConfig::default());
        let mut catalog = StatsCatalog::new();
        let outcome = engine.run_query(&db, &mut catalog, &q).unwrap();
        assert!(outcome.created.is_empty());
        assert_eq!(catalog.active_count(), 0);
    }

    #[test]
    fn mnsa_skips_everything_when_insensitive() {
        // A predicate on a one-row table: plan cost barely moves between
        // P_low and P_high, so MNSA should create nothing.
        let mut db = Database::new();
        let t = db
            .create_table(
                "tiny",
                Schema::new(vec![ColumnDef::new("a", DataType::Int)]),
            )
            .unwrap();
        db.table_mut(t).insert(vec![Value::Int(1)]).unwrap();
        let q = bind(&db, "SELECT * FROM tiny WHERE a = 1");
        let engine = MnsaEngine::new(MnsaConfig::default());
        let mut catalog = StatsCatalog::new();
        let outcome = engine.run_query(&db, &mut catalog, &q).unwrap();
        assert_eq!(outcome.terminated_by, Termination::CostConverged);
        assert!(outcome.created.is_empty());
        assert_eq!(outcome.skipped.len(), 1);
    }

    #[test]
    fn join_statistics_created_in_pairs() {
        let mut db = Database::new();
        // Two mid-size tables joined on a column; no selection predicates, so
        // the join edge is the only magic variable and the join node the most
        // expensive operator.
        for name in ["r1", "r2"] {
            let t = db
                .create_table(
                    name,
                    Schema::new(vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("v", DataType::Int),
                    ]),
                )
                .unwrap();
            for i in 0..2000i64 {
                db.table_mut(t)
                    .insert(vec![Value::Int(i % 100), Value::Int(i)])
                    .unwrap();
            }
        }
        let q = bind(&db, "SELECT * FROM r1, r2 WHERE r1.k = r2.k");
        let engine = MnsaEngine::new(MnsaConfig::default());
        let mut catalog = StatsCatalog::new();
        let outcome = engine.run_query(&db, &mut catalog, &q).unwrap();
        if !outcome.created.is_empty() {
            assert_eq!(outcome.created.len(), 2, "join stats must come in pairs");
            let tables: Vec<_> = outcome
                .created
                .iter()
                .map(|&id| catalog.statistic(id).unwrap().descriptor.table)
                .collect();
            assert_ne!(tables[0], tables[1]);
        }
    }

    #[test]
    fn mnsad_drop_lists_useless_statistics() {
        let db = setup();
        // age < 90 is always true: its statistic will not change the plan.
        let q = bind(
            &db,
            "SELECT e.empid FROM employees e, departments d \
             WHERE e.deptid = d.deptid AND e.age < 90 AND e.salary > 200",
        );
        let engine = MnsaEngine::new(MnsaConfig::default().with_drop_detection());
        let mut catalog = StatsCatalog::new();
        let outcome = engine.run_query(&db, &mut catalog, &q).unwrap();
        // MNSA/D may or may not fire depending on creation order, but every
        // drop-listed statistic must actually be on the catalog's drop-list.
        for id in &outcome.drop_listed {
            assert!(catalog.is_drop_listed(*id));
        }
        assert!(outcome.created.len() >= outcome.drop_listed.len());
    }

    #[test]
    fn aging_suppresses_recreation() {
        let db = setup();
        let q = bind(&db, EXAMPLE2_SQL);
        let aging = AgingPolicy {
            window_epochs: 10,
            expensive_query_cost: f64::INFINITY,
        };
        // First run creates statistics; physically drop them all.
        let engine = MnsaEngine::new(MnsaConfig::default());
        let mut catalog = StatsCatalog::new();
        let first = engine.run_query(&db, &mut catalog, &q).unwrap();
        assert!(!first.created.is_empty());
        for id in first.created.clone() {
            catalog.physically_drop(id);
        }
        // Second run with aging: the dropped statistics are dampened.
        let engine2 = MnsaEngine::new(MnsaConfig {
            aging: Some(aging),
            ..Default::default()
        });
        let second = engine2.run_query(&db, &mut catalog, &q).unwrap();
        assert!(
            !second.aged_out.is_empty(),
            "aging should have suppressed at least one re-creation"
        );
        assert!(second.created.len() < first.created.len() + 1);
    }

    #[test]
    fn workload_runner_shares_catalog() {
        let db = setup();
        let q1 = bind(&db, EXAMPLE2_SQL);
        let q2 = bind(&db, EXAMPLE2_SQL);
        let engine = MnsaEngine::new(MnsaConfig::default());
        let mut catalog = StatsCatalog::new();
        let outcomes = engine.run_workload(&db, &mut catalog, &[q1, q2]).unwrap();
        assert_eq!(outcomes.len(), 2);
        // The second identical query must not rebuild anything.
        assert!(outcomes[1].created.is_empty());
        assert!(outcomes[1].optimizer_calls <= 3);
    }
}
