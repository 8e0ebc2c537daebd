//! Estimation-quality benchmark: q-error and plan-cost regret on
//! adversarial workloads.
//!
//! The paper scores MNSA by plan cost on TPC-D-style data; the cardinality-
//! estimation benchmark literature (PAPERS.md) argues the sharper lens is
//! **q-error against ground truth**, measured per operator, on the regimes
//! where estimation actually breaks: heavy skew, correlated columns, and
//! many-way star joins. This experiment runs the four adversarial regimes
//! of [`datagen::adversarial`] under three statistics configurations and
//! reports, per `(regime, catalog)` cell:
//!
//! * **q-error quantiles** (p50/p90/p99/max) pooled over every plan
//!   operator of every query. Truth comes from the executor's `exec.op.*`
//!   spans (each carries `est_rows` and the observed `rows_out`), so the
//!   comparison is per-operator, not just at the root.
//! * **plan-cost regret**: executed work of the chosen plan divided by the
//!   executed work of the *true-cardinality plan* — the plan the optimizer
//!   picks when every selectivity variable is injected with its measured
//!   ground-truth value ([`optimizer::OptimizeOptions`]'s §7.2 extension).
//!   Regret is a pure plan-choice metric: both plans are executed on the
//!   same data, so estimation errors only matter where they change the
//!   plan. It can fall below 1: the true-cardinality plan is the cheapest
//!   under the cost model, which tracks executed work only to first order,
//!   so a plan chosen from wrong estimates can do less work (on `star`,
//!   one query's plan does 163 work units against its true-cardinality
//!   plan's 270).
//!
//! The three catalogs ladder the statistics investment: `bare` (magic
//! numbers only), `heuristic` (every single-column candidate of every
//! query, built unconditionally), and `mnsa` (the paper's sensitivity-
//! driven tuner with joint 2-D histograms enabled, so correlated pairs can
//! be refined).
//!
//! Ground truth for the injected plan is computed from the data itself —
//! selection selectivities by scanning with the executor's predicate
//! kernels, join selectivities by exact key-pair counting, and the GROUP BY
//! distinct fraction from the aggregate's observed input/output rows —
//! making the true plan independent of any catalog under test.

use crate::common::ExperimentScale;
use autostats::policy::{apply_policy, CreationPolicy};
use autostats::{MnsaConfig, MnsaEngine};
use datagen::{adversarial_queries, build_adversarial, AdversarialConfig, Regime, FACTS};
use executor::{execute_plan, execute_plan_observed, predicate::row_matches};
use obsv::json::Object;
use obsv::{ArgValue, EventKind};
use optimizer::{OptimizeOptions, Optimizer};
use query::{
    bind_select, BoundSelect, CmpOp, ColumnRef, Condition, JoinEdge, PredOp, PredicateId,
    SelectItem, SelectStmt, TableRef,
};
use rustc_hash::FxHashMap;
use stats::{BuildOptions, FeedbackStore, StatDescriptor, StatId, StatsCatalog};
use std::collections::HashMap;
use storage::{Database, TableId, Value};

/// The statistics configurations, in reporting order.
pub const CATALOGS: [&str; 3] = ["bare", "heuristic", "mnsa"];

/// Per-operator q-errors pooled over a workload's traced executions.
#[derive(Debug, Clone, PartialEq)]
pub struct QErrors {
    /// Number of `(est, actual)` operator pairs pooled into the quantiles.
    pub operators: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl QErrors {
    fn of(mut q_errors: Vec<f64>) -> QErrors {
        q_errors.sort_by(f64::total_cmp);
        QErrors {
            operators: q_errors.len(),
            p50: quantile(&q_errors, 0.50),
            p90: quantile(&q_errors, 0.90),
            p99: quantile(&q_errors, 0.99),
            max: q_errors.last().copied().unwrap_or(f64::NAN),
        }
    }

    fn to_json(&self) -> Object {
        Object::new()
            .field("p50", self.p50)
            .field("p90", self.p90)
            .field("p99", self.p99)
            .field("max", self.max)
    }
}

/// One `(regime, catalog)` measurement cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogCell {
    pub catalog: &'static str,
    /// Active statistics in the catalog after tuning/building.
    pub stats_built: usize,
    pub q_error: QErrors,
    /// Geometric mean over queries of `work_chosen / work_true`.
    pub regret_mean: f64,
    pub regret_max: f64,
}

/// All catalogs for one workload regime.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeResult {
    pub regime: &'static str,
    pub cells: Vec<CatalogCell>,
}

/// The refresh strategies of the drift regime, in reporting order.
pub const DRIFT_STRATEGIES: [&str; 3] = ["bare", "scan-refresh", "feedback-refresh"];

/// One refresh strategy's post-drift measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCell {
    pub strategy: &'static str,
    /// Statistics refreshed/corrected after the drift (0 for `bare`).
    pub refreshed: usize,
    /// Total statistics work charged by the refresh, in the same
    /// deterministic units as `build_cost` — the "total build work" axis of
    /// the comparison.
    pub refresh_work: f64,
    pub q_error: QErrors,
}

/// The drift regime: build → bulk DML shifting the distribution → re-query,
/// under three catalog-refresh strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftResult {
    /// Rows appended by the drift DML (all in a previously-unseen key
    /// range, so stale histograms are out-of-domain for half the data).
    pub drift_rows: usize,
    /// Scan-built statistics shared by every strategy before the drift.
    pub stats_built: usize,
    pub cells: Vec<DriftCell>,
}

impl DriftResult {
    pub fn cell(&self, strategy: &str) -> Option<&DriftCell> {
        self.cells.iter().find(|c| c.strategy == strategy)
    }
}

/// The whole run, as serialized to `BENCH_cardbench.json`.
#[derive(Debug, Clone)]
pub struct CardbenchResult {
    pub rows: usize,
    pub queries_per_regime: usize,
    pub seed: u64,
    /// Whether re-running a regime (and the drift pass) reproduced its
    /// cells bit-identically.
    pub deterministic: bool,
    pub regimes: Vec<RegimeResult>,
    /// The statistics-lifecycle regime: post-drift estimation quality vs
    /// refresh cost for bare / scan-refresh / feedback-refresh catalogs.
    pub drift: DriftResult,
}

impl CardbenchResult {
    pub fn cell(&self, regime: &str, catalog: &str) -> Option<&CatalogCell> {
        self.regimes
            .iter()
            .find(|r| r.regime == regime)?
            .cells
            .iter()
            .find(|c| c.catalog == catalog)
    }
}

/// The q-error of one estimate, with the benchmark literature's degenerate
/// conventions: both sides are floored at 0.5 so `est = 0` vs `actual = 0`
/// gives exactly 1 (a correct empty estimate), and an empty-vs-nonempty
/// mismatch stays finite.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let e = est.max(0.5);
    let a = actual.max(0.5);
    (e / a).max(a / e)
}

/// The adversarial generator configuration for a bench scale: the paper-
/// style `scale` knob maps to fact rows (0.001 → 1 000).
pub fn config_for(scale: &ExperimentScale) -> AdversarialConfig {
    let rows = ((scale.scale * 1_000_000.0).round() as usize).max(200);
    let base = if rows <= 1_200 {
        AdversarialConfig::tiny()
    } else {
        AdversarialConfig::default()
    };
    AdversarialConfig {
        rows,
        seed: scale.seed,
        ..base
    }
}

/// Run the full benchmark: four regimes × three catalogs, then the drift
/// regime. `obs` gets one `cardbench.regime` span per regime pass (cells
/// recorded as args) and per-regime query counters, so the driver's
/// `--trace-out` export has a validated span tree. Purely observational —
/// results are bit-identical with tracing on or off.
pub fn run(scale: &ExperimentScale, obs: &obsv::Obs) -> CardbenchResult {
    let cfg = config_for(scale);
    let mut root = obs.tracer.span("cardbench.run");
    root.arg("rows", cfg.rows as i64);
    root.arg("queries_per_regime", scale.workload_len as i64);
    let regimes: Vec<RegimeResult> = Regime::ALL
        .iter()
        .map(|&r| {
            let mut span = root.child("cardbench.regime");
            span.arg("regime", r.name());
            obs.metrics
                .counter("cardbench.queries")
                .add(scale.workload_len as u64);
            let result = run_regime(&cfg, r, scale.workload_len);
            for cell in &result.cells {
                span.arg(cell.catalog, cell.q_error.p50);
            }
            result
        })
        .collect();
    let drift = {
        let mut span = root.child("cardbench.regime");
        span.arg("regime", "drift");
        obs.metrics
            .counter("cardbench.queries")
            .add(scale.workload_len as u64);
        let result = run_drift(&cfg, scale.workload_len);
        for cell in &result.cells {
            span.arg(cell.strategy, cell.q_error.p50);
        }
        result
    };
    // Determinism audit: a regime re-run from the same seed must reproduce
    // every cell bit-identically (the whole pipeline is seeded, feedback
    // corrections apply in ingest order, and the executor's work metric is
    // deterministic).
    let again = {
        let mut span = root.child("cardbench.regime");
        span.arg("regime", "zipf-recheck");
        run_regime(&cfg, Regime::Zipf, scale.workload_len)
    };
    let drift_again = {
        let mut span = root.child("cardbench.regime");
        span.arg("regime", "drift-recheck");
        run_drift(&cfg, scale.workload_len)
    };
    let deterministic = regimes
        .iter()
        .find(|r| r.regime == Regime::Zipf.name())
        .map(|r| *r == again)
        .unwrap_or(false)
        && drift == drift_again;
    root.arg("deterministic", deterministic);
    CardbenchResult {
        rows: cfg.rows,
        queries_per_regime: scale.workload_len,
        seed: cfg.seed,
        deterministic,
        regimes,
        drift,
    }
}

/// Everything measured about one query that does not depend on the catalog
/// under test: the bound query, its ground-truth selectivities, and the
/// executed work of the true-cardinality plan.
struct QueryCase {
    query: BoundSelect,
    work_true: f64,
}

fn run_regime(cfg: &AdversarialConfig, regime: Regime, n_queries: usize) -> RegimeResult {
    let db = build_adversarial(cfg, regime);
    let optimizer = Optimizer::default();
    let queries: Vec<BoundSelect> = adversarial_queries(&db, cfg, regime, n_queries)
        .into_iter()
        .map(|q| bind_select(&db, &q).expect("adversarial query binds"))
        .collect();

    let cases: Vec<QueryCase> = queries
        .into_iter()
        .map(|q| {
            let truth = true_selectivities(&db, &q, &optimizer);
            let injected = OptimizeOptions { injected: truth };
            let true_plan = optimizer
                .optimize(&db, &q, StatsCatalog::new().full_view(), &injected)
                .expect("true-cardinality optimization succeeds");
            let work_true = execute_plan(&db, &q, &true_plan.plan, &optimizer.params)
                .expect("true plan executes")
                .work;
            QueryCase {
                query: q,
                work_true,
            }
        })
        .collect();

    let cells = CATALOGS
        .iter()
        .map(|&name| {
            let catalog = build_catalog(name, &db, &cases);
            measure_catalog(name, &db, &catalog, &cases, &optimizer)
        })
        .collect();
    RegimeResult {
        regime: regime.name(),
        cells,
    }
}

/// Build one of the three statistics configurations for a regime's workload.
fn build_catalog(name: &str, db: &Database, cases: &[QueryCase]) -> StatsCatalog {
    match name {
        "bare" => StatsCatalog::new(),
        "heuristic" => {
            let mut catalog = StatsCatalog::new();
            for case in cases {
                apply_policy(
                    db,
                    &mut catalog,
                    &CreationPolicy::CreateAllSyntactic,
                    &case.query,
                )
                .expect("heuristic statistics build");
            }
            catalog
        }
        "mnsa" => {
            // Joint 2-D histograms let MNSA's multi-column candidates refine
            // correlated predicate pairs — the §3.1 case the correlated
            // regime is built to stress.
            let mut catalog = StatsCatalog::new()
                .with_build_options(BuildOptions::default().with_joint_histograms());
            let engine = MnsaEngine::new(MnsaConfig::default());
            for case in cases {
                engine
                    .run_query(db, &mut catalog, &case.query)
                    .expect("mnsa tuning succeeds");
            }
            catalog
        }
        other => panic!("unknown catalog configuration {other}"),
    }
}

/// Optimize every query under `catalog` and execute its plan traced: the
/// executed work per query, and the per-operator q-errors of them all.
fn traced_runs<'q>(
    db: &Database,
    catalog: &StatsCatalog,
    queries: impl IntoIterator<Item = &'q BoundSelect>,
    optimizer: &Optimizer,
) -> (Vec<f64>, QErrors) {
    let mut works = Vec::new();
    let mut q_errors = Vec::new();
    for query in queries {
        let chosen = optimizer
            .optimize(db, query, catalog.full_view(), &OptimizeOptions::default())
            .expect("optimization succeeds");
        let tracer = obsv::Tracer::enabled();
        let out = execute_plan_observed(db, query, &chosen.plan, &tracer).expect("plan executes");
        q_errors.extend(operator_q_errors(&tracer.flush()));
        works.push(out.work);
    }
    (works, QErrors::of(q_errors))
}

/// Optimize and execute every query under `catalog`, pooling per-operator
/// q-errors and per-query regret into one cell.
fn measure_catalog(
    name: &'static str,
    db: &Database,
    catalog: &StatsCatalog,
    cases: &[QueryCase],
    optimizer: &Optimizer,
) -> CatalogCell {
    let (works, q_error) = traced_runs(db, catalog, cases.iter().map(|c| &c.query), optimizer);
    // Floor the denominator: a true plan with (near-)zero work would
    // otherwise make the ratio blow up on trivial queries.
    let regrets: Vec<f64> = works
        .iter()
        .zip(cases)
        .map(|(work, case)| work / case.work_true.max(1.0))
        .collect();
    let geomean = if regrets.is_empty() {
        1.0
    } else {
        (regrets.iter().map(|r| r.max(1e-9).ln()).sum::<f64>() / regrets.len() as f64).exp()
    };
    CatalogCell {
        catalog: name,
        stats_built: catalog.active_count(),
        q_error,
        regret_mean: geomean,
        regret_max: regrets.iter().copied().fold(f64::NAN, f64::max),
    }
}

/// The drifting columns of `facts`: the four data columns every strategy
/// keeps a scan-built statistic on.
const DRIFT_COLUMNS: [&str; 4] = ["c_a", "c_b", "c_c", "c_d"];

/// Build the shared pre-drift catalog: one scan-built histogram per data
/// column. Rebuilt per strategy (the catalog is deliberately not `Clone`);
/// creation is deterministic, so every strategy starts bit-identical.
fn pre_drift_catalog(db: &Database, table: TableId) -> (StatsCatalog, Vec<StatId>) {
    let mut catalog = StatsCatalog::new();
    let ids = DRIFT_COLUMNS
        .iter()
        .map(|col| {
            let c = db
                .table(table)
                .schema()
                .index_of(col)
                .expect("facts column exists");
            catalog
                .create_statistic(db, StatDescriptor::single(table, c))
                .expect("pre-drift statistic builds")
        })
        .collect();
    (catalog, ids)
}

/// Append `cfg.rows` rows whose data columns draw from the previously-unseen
/// range `[domain, 2 × domain)` — the bulk-load / new-partition drift case:
/// afterwards half of every column's values lie beyond the stale histograms'
/// key domain. Plain arithmetic (no RNG), so the drift is trivially
/// deterministic and independent of the generator's seed stream.
fn apply_drift(db: &mut Database, table: TableId, cfg: &AdversarialConfig) -> usize {
    let base = db.table(table).row_count();
    let d = cfg.domain.max(1);
    let rows: Vec<Vec<Value>> = (0..cfg.rows)
        .map(|i| {
            let v = |salt: usize| (d + (i * 7919 + salt * 104_729) % d) as i64;
            vec![
                Value::Int((base + i) as i64),
                Value::Int(v(1)),
                Value::Int(v(2)),
                Value::Int(v(3)),
                Value::Int(v(4)),
                Value::Float((i % 1000) as f64 / 10.0),
            ]
        })
        .collect();
    db.table_mut(table)
        .insert_many(rows)
        .expect("drift rows insert");
    cfg.rows
}

/// The post-drift correction workload: single-predicate range probes per
/// drifting column, spanning the full (drifted) key domain. Each probe is
/// one observation ([`observe_probes`]), with enough per column (6; a
/// correction needs 4) to make every statistic feedback-refreshable, and
/// finite upper bounds so out-of-domain observations can extend the stale
/// histograms.
fn drift_probes(cfg: &AdversarialConfig) -> Vec<SelectStmt> {
    let d = cfg.domain.max(1) as i64;
    let mut probes = Vec::new();
    for col in DRIFT_COLUMNS {
        let column = ColumnRef::new(FACTS, col);
        let mut conditions: Vec<Condition> = (1..=4)
            .map(|k| Condition::Compare {
                column: column.clone(),
                op: CmpOp::Le,
                value: Value::Int(2 * d * k / 4),
            })
            .collect();
        conditions.push(Condition::Between {
            column: column.clone(),
            low: Value::Int(d),
            high: Value::Int(2 * d),
        });
        conditions.push(Condition::Between {
            column,
            low: Value::Int(0),
            high: Value::Int(d / 2),
        });
        probes.extend(conditions.into_iter().map(|c| SelectStmt {
            items: vec![SelectItem::Star],
            from: vec![TableRef::new(FACTS)],
            conditions: vec![c],
            group_by: Vec::new(),
            order_by: Vec::new(),
        }));
    }
    probes
}

/// The drift regime: a zipf `facts` table with scan-built statistics, a bulk
/// DML burst shifting half the data into an unseen key range, then a
/// post-drift evaluation workload under three refresh strategies:
///
/// * `bare` — never refreshes; stale histograms estimate the new range at
///   the out-of-domain floor.
/// * `scan-refresh` — rebuilds every statistic with a full scan, paying the
///   full `build_cost` again.
/// * `feedback-refresh` — runs a probe workload (plans still come from its
///   own stale catalog), files each probe as an observation and refreshes
///   with them: histograms they correct cost correction work, any they
///   cannot are rebuilt by a scan.
fn run_drift(cfg: &AdversarialConfig, n_queries: usize) -> DriftResult {
    let optimizer = Optimizer::default();
    let mut db = build_adversarial(cfg, Regime::Zipf);
    let table = db.table_id(FACTS).expect("facts table exists");
    let (bare_cat, _) = pre_drift_catalog(&db, table);
    let (mut scan_cat, scan_ids) = pre_drift_catalog(&db, table);
    let (mut fb_cat, fb_ids) = pre_drift_catalog(&db, table);
    let stats_built = scan_ids.len();

    let drift_rows = apply_drift(&mut db, table, cfg);

    let scan_refreshed = scan_cat.refresh(&db, table, &scan_ids, None);
    let scan_work: f64 = scan_refreshed.iter().map(|r| r.work).sum();

    let probes: Vec<BoundSelect> = drift_probes(cfg)
        .into_iter()
        .map(|q| bind_select(&db, &q).expect("drift query binds"))
        .collect();
    let mut store = FeedbackStore::new();
    observe_probes(&db, &fb_cat, &probes, &optimizer, &mut store);
    let corrected = fb_cat.refresh(&db, table, &fb_ids, Some(&mut store));
    let fb_work: f64 = corrected.iter().map(|r| r.work).sum();

    // The evaluation workload samples its constants from the *drifted*
    // data, so roughly half the predicates land in the new key range.
    let eval_cfg = AdversarialConfig {
        seed: cfg.seed.wrapping_add(0xD1F7),
        ..cfg.clone()
    };
    let eval: Vec<BoundSelect> = adversarial_queries(&db, &eval_cfg, Regime::Zipf, n_queries)
        .into_iter()
        .map(|q| bind_select(&db, &q).expect("drift query binds"))
        .collect();

    let cells = vec![
        measure_drift("bare", &db, &bare_cat, 0, 0.0, &eval, &optimizer),
        measure_drift(
            "scan-refresh",
            &db,
            &scan_cat,
            scan_refreshed.len(),
            scan_work,
            &eval,
            &optimizer,
        ),
        measure_drift(
            "feedback-refresh",
            &db,
            &fb_cat,
            corrected.len(),
            fb_work,
            &eval,
            &optimizer,
        ),
    ];
    DriftResult {
        drift_rows,
        stats_built,
        cells,
    }
}

/// Execute each drift probe under a plan from `catalog` and file it as one
/// observation: its predicate's column, the numeric-key range of its
/// constants (`<=` leaves the low end open, at −∞), the rows it returned
/// and the rows of the table it scanned. Every probe is a `SELECT *` with
/// one range predicate on an integer column, so each yields exactly one
/// observation.
fn observe_probes(
    db: &Database,
    catalog: &StatsCatalog,
    probes: &[BoundSelect],
    optimizer: &Optimizer,
    store: &mut FeedbackStore,
) {
    for q in probes {
        let [pred] = q.selections.as_slice() else {
            panic!("a drift probe has one predicate");
        };
        let (lo, hi) = match &pred.op {
            PredOp::Cmp(CmpOp::Le, v) => (f64::NEG_INFINITY, v.numeric_key()),
            PredOp::Between(a, b) => (a.numeric_key(), b.numeric_key()),
            other => panic!("a drift probe is `<=` or BETWEEN, not {other:?}"),
        };
        let plan = optimizer
            .optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
            .expect("probe optimization succeeds");
        let out = execute_plan(db, q, &plan.plan, &optimizer.params).expect("probe executes");
        let table = q.table_of(pred.column.relation);
        let input_rows = db.table(table).row_count();
        store.observe(
            table,
            pred.column.column,
            lo,
            hi,
            out.row_count(),
            input_rows,
        );
    }
}

/// Optimize and execute the evaluation workload under one strategy's
/// catalog, pooling per-operator q-errors.
fn measure_drift(
    strategy: &'static str,
    db: &Database,
    catalog: &StatsCatalog,
    refreshed: usize,
    refresh_work: f64,
    eval: &[BoundSelect],
    optimizer: &Optimizer,
) -> DriftCell {
    DriftCell {
        strategy,
        refreshed,
        refresh_work,
        q_error: traced_runs(db, catalog, eval, optimizer).1,
    }
}

/// Per-operator `(est, actual)` q-errors from one traced execution: every
/// `exec.op.*` End span carries `est_rows` (the optimizer's estimate for
/// that node) and `rows_out` (the observed cardinality).
pub fn operator_q_errors(events: &[obsv::Event]) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::End && e.name.starts_with("exec.op."))
        .filter_map(|e| {
            let est = arg_f64(e, "est_rows")?;
            let actual = arg_f64(e, "rows_out")?;
            Some(q_error(est, actual))
        })
        .collect()
}

fn arg_f64(e: &obsv::Event, key: &str) -> Option<f64> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            ArgValue::Int(i) => *i as f64,
            ArgValue::Float(f) => *f,
            ArgValue::Bool(b) => f64::from(u8::from(*b)),
            ArgValue::Str(_) => f64::NAN,
        })
}

/// Nearest-rank quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Measure every selectivity variable of `query` directly against the data.
fn true_selectivities(
    db: &Database,
    query: &BoundSelect,
    optimizer: &Optimizer,
) -> FxHashMap<PredicateId, f64> {
    let mut truth = FxHashMap::default();
    for (i, pred) in query.selections.iter().enumerate() {
        let table = db
            .try_table(query.table_of(pred.column.relation))
            .expect("bound relation exists");
        let n = table.row_count();
        let sel = if n == 0 {
            0.0
        } else {
            (0..n).filter(|&r| row_matches(table, r, pred)).count() as f64 / n as f64
        };
        truth.insert(PredicateId::Selection(i), sel);
    }
    for (i, edge) in query.join_edges.iter().enumerate() {
        truth.insert(PredicateId::JoinEdge(i), join_selectivity(db, query, edge));
    }
    if !query.group_by.is_empty() {
        truth.insert(
            PredicateId::GroupBy,
            group_by_fraction(db, query, optimizer),
        );
    }
    truth
}

/// Exact join selectivity: matching key pairs over the cross-product size.
/// NULL keys never match (SQL equi-join semantics).
fn join_selectivity(db: &Database, query: &BoundSelect, edge: &JoinEdge) -> f64 {
    let left = db
        .try_table(query.table_of(edge.left_rel))
        .expect("bound relation exists");
    let right = db
        .try_table(query.table_of(edge.right_rel))
        .expect("bound relation exists");
    let (nl, nr) = (left.row_count(), right.row_count());
    if nl == 0 || nr == 0 {
        return 0.0;
    }
    let mut build: HashMap<Vec<Value>, usize> = HashMap::new();
    'rows: for r in 0..nr {
        let mut key = Vec::with_capacity(edge.pairs.len());
        for &(_, rc) in &edge.pairs {
            let v = right.value(r, rc);
            if v == Value::Null {
                continue 'rows;
            }
            key.push(v);
        }
        *build.entry(key).or_insert(0) += 1;
    }
    let mut matches = 0usize;
    'probe: for r in 0..nl {
        let mut key = Vec::with_capacity(edge.pairs.len());
        for &(lc, _) in &edge.pairs {
            let v = left.value(r, lc);
            if v == Value::Null {
                continue 'probe;
            }
            key.push(v);
        }
        matches += build.get(&key).copied().unwrap_or(0);
    }
    matches as f64 / (nl as f64 * nr as f64)
}

/// Ground-truth GROUP BY distinct fraction: observed groups over observed
/// aggregate input rows, read off the `exec.op.HashAggregate` span of one
/// traced execution (both counts are plan-invariant, so any plan serves).
fn group_by_fraction(db: &Database, query: &BoundSelect, optimizer: &Optimizer) -> f64 {
    let plan = optimizer
        .optimize(
            db,
            query,
            StatsCatalog::new().full_view(),
            &OptimizeOptions::default(),
        )
        .expect("probe optimization succeeds");
    let tracer = obsv::Tracer::enabled();
    execute_plan_observed(db, query, &plan.plan, &tracer).expect("probe execution succeeds");
    let events = tracer.flush();
    // Spans: End events carry counts, Begin events carry parent linkage.
    let mut rows_out: FxHashMap<u64, f64> = FxHashMap::default();
    for e in &events {
        if e.kind == EventKind::End {
            if let Some(v) = arg_f64(e, "rows_out") {
                rows_out.insert(e.id, v);
            }
        }
    }
    let agg = events
        .iter()
        .find(|e| e.kind == EventKind::Begin && e.name == "exec.op.HashAggregate");
    let Some(agg) = agg else {
        return 1.0;
    };
    let groups = rows_out.get(&agg.id).copied().unwrap_or(0.0);
    let input: f64 = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::Begin && e.parent == agg.id && e.name.starts_with("exec.op.")
        })
        .filter_map(|e| rows_out.get(&e.id))
        .sum();
    if input <= 0.0 {
        1.0
    } else {
        (groups / input).clamp(0.0, 1.0)
    }
}

impl CardbenchResult {
    /// The `BENCH_cardbench.json` document.
    pub fn to_json(&self) -> String {
        let regimes: Vec<Object> = self
            .regimes
            .iter()
            .map(|regime| {
                let catalogs: Vec<Object> = regime
                    .cells
                    .iter()
                    .map(|c| {
                        Object::new()
                            .field("catalog", c.catalog)
                            .field("stats_built", c.stats_built)
                            .field("operators", c.q_error.operators)
                            .field("q_error", c.q_error.to_json())
                            .field(
                                "regret",
                                Object::new()
                                    .field("geomean", c.regret_mean)
                                    .field("max", c.regret_max),
                            )
                    })
                    .collect();
                Object::new()
                    .field("regime", regime.regime)
                    .field("catalogs", catalogs)
            })
            .collect();
        let strategies: Vec<Object> = self
            .drift
            .cells
            .iter()
            .map(|c| {
                Object::new()
                    .field("strategy", c.strategy)
                    .field("refreshed", c.refreshed)
                    .field("refresh_work", c.refresh_work)
                    .field("operators", c.q_error.operators)
                    .field("q_error", c.q_error.to_json())
            })
            .collect();
        Object::new()
            .field("experiment", "cardbench")
            .field("rows", self.rows)
            .field("queries_per_regime", self.queries_per_regime)
            .field("seed", self.seed)
            .field("deterministic", self.deterministic)
            .field("regimes", regimes)
            .field(
                "drift",
                Object::new()
                    .field("drift_rows", self.drift.drift_rows)
                    .field("stats_built", self.drift.stats_built)
                    .field("strategies", strategies),
            )
            .block()
    }

    pub fn print(&self) {
        println!(
            "cardbench: {} rows, {} queries/regime, seed {} (deterministic: {})",
            self.rows, self.queries_per_regime, self.seed, self.deterministic
        );
        println!(
            "{:<12} {:<10} {:>6} {:>5} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}",
            "regime",
            "catalog",
            "stats",
            "ops",
            "q-p50",
            "q-p90",
            "q-p99",
            "q-max",
            "regret",
            "rgt-max"
        );
        for regime in &self.regimes {
            for c in &regime.cells {
                println!(
                    "{:<12} {:<10} {:>6} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>8.3} {:>8.3}",
                    regime.regime,
                    c.catalog,
                    c.stats_built,
                    c.q_error.operators,
                    c.q_error.p50,
                    c.q_error.p90,
                    c.q_error.p99,
                    c.q_error.max,
                    c.regret_mean,
                    c.regret_max
                );
            }
        }
        println!(
            "drift: {} rows appended, {} stats per strategy",
            self.drift.drift_rows, self.drift.stats_built
        );
        println!(
            "{:<18} {:>9} {:>12} {:>5} {:>9} {:>9} {:>9} {:>10}",
            "strategy", "refreshed", "refresh-work", "ops", "q-p50", "q-p90", "q-p99", "q-max"
        );
        for c in &self.drift.cells {
            println!(
                "{:<18} {:>9} {:>12.1} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>10.2}",
                c.strategy,
                c.refreshed,
                c.refresh_work,
                c.q_error.operators,
                c.q_error.p50,
                c.q_error.p90,
                c.q_error.p99,
                c.q_error.max
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_conventions() {
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(1.0, 100.0), 100.0);
        assert_eq!(q_error(100.0, 1.0), 100.0);
        // est = 0 vs actual = 8: floored at 0.5, finite.
        assert_eq!(q_error(0.0, 8.0), 16.0);
        assert!(q_error(1e9, 0.0).is_finite());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn every_drift_probe_files_one_observation_on_its_column() {
        let cfg = config_for(&ExperimentScale::tiny());
        let optimizer = Optimizer::default();
        let mut db = build_adversarial(&cfg, Regime::Zipf);
        let table = db.table_id(FACTS).unwrap();
        let (catalog, _) = pre_drift_catalog(&db, table);
        apply_drift(&mut db, table, &cfg);
        let probes: Vec<BoundSelect> = drift_probes(&cfg)
            .into_iter()
            .map(|q| bind_select(&db, &q).expect("drift query binds"))
            .collect();
        let mut store = FeedbackStore::new();
        observe_probes(&db, &catalog, &probes, &optimizer, &mut store);
        assert_eq!(store.total(), probes.len());

        // The k-th probe on a column is that column's k-th observation, and
        // it records the rows the probe returned out of the whole table.
        let input_rows = db.table(table).row_count();
        let mut per_column: HashMap<usize, usize> = HashMap::new();
        for q in &probes {
            let column = q.selections[0].column.column;
            let k = per_column.entry(column).or_default();
            let observed = store.observations(table, column)[*k];
            *k += 1;
            let plan = optimizer
                .optimize(&db, q, catalog.full_view(), &OptimizeOptions::default())
                .unwrap();
            let rows_out = execute_plan(&db, q, &plan.plan, &optimizer.params)
                .unwrap()
                .row_count();
            let fraction = rows_out as f64 / input_rows as f64;
            assert_eq!(observed.fraction.to_bits(), fraction.to_bits());
            assert_eq!(observed.input_rows, input_rows as f64);
        }
        assert_eq!(per_column.len(), DRIFT_COLUMNS.len());
        for (column, n) in per_column {
            assert_eq!(store.count(table, column), n);
        }
    }

    #[test]
    fn tiny_run_is_deterministic_and_mnsa_beats_bare_where_it_matters() {
        let result = run(&ExperimentScale::tiny(), &obsv::Obs::disabled());
        assert!(result.deterministic, "regime re-run changed the numbers");
        assert_eq!(result.regimes.len(), 4);
        for regime in &result.regimes {
            assert_eq!(regime.cells.len(), 3);
            for c in &regime.cells {
                assert!(
                    c.q_error.operators > 0,
                    "{}/{}: no operator pairs",
                    regime.regime,
                    c.catalog
                );
                assert!(
                    c.q_error.p50 >= 1.0,
                    "{}/{}: q-error below 1",
                    regime.regime,
                    c.catalog
                );
                assert!(c.q_error.max.is_finite());
            }
        }
        // The acceptance bar: tuned statistics must strictly cut the median
        // per-operator q-error on the skewed and correlated regimes.
        for regime in ["zipf", "correlated"] {
            let bare = result.cell(regime, "bare").unwrap();
            let mnsa = result.cell(regime, "mnsa").unwrap();
            assert!(
                mnsa.q_error.p50 < bare.q_error.p50,
                "{regime}: mnsa p50 {} not below bare p50 {}",
                mnsa.q_error.p50,
                bare.q_error.p50
            );
            assert!(mnsa.stats_built > 0, "{regime}: mnsa built nothing");
        }
        // The drift regime: feedback correction must be far cheaper than a
        // scan rebuild while keeping post-drift estimates comparable.
        let drift = &result.drift;
        assert_eq!(drift.cells.len(), 3);
        assert!(drift.drift_rows > 0);
        for c in &drift.cells {
            assert!(c.q_error.operators > 0, "{}: no operator pairs", c.strategy);
            assert!(
                c.q_error.p50 >= 1.0 && c.q_error.max.is_finite(),
                "{}",
                c.strategy
            );
        }
        let bare = drift.cell("bare").unwrap();
        let scan = drift.cell("scan-refresh").unwrap();
        let feedback = drift.cell("feedback-refresh").unwrap();
        assert_eq!(bare.refreshed, 0);
        assert_eq!(bare.refresh_work, 0.0);
        assert_eq!(scan.refreshed, drift.stats_built);
        assert_eq!(feedback.refreshed, drift.stats_built);
        assert!(
            feedback.refresh_work < scan.refresh_work / 10.0,
            "feedback work {} not well below scan work {}",
            feedback.refresh_work,
            scan.refresh_work
        );
        // Post-drift estimation: both refresh strategies must clearly beat
        // the stale catalog at the median, and feedback must stay in the
        // same band as the full rebuild.
        assert!(
            scan.q_error.p50 < bare.q_error.p50,
            "scan refresh did not improve on stale stats: {} vs {}",
            scan.q_error.p50,
            bare.q_error.p50
        );
        assert!(
            feedback.q_error.p50 < bare.q_error.p50,
            "feedback refresh did not improve on stale stats: {} vs {}",
            feedback.q_error.p50,
            bare.q_error.p50
        );
        assert!(
            feedback.q_error.p50 <= scan.q_error.p50 * 2.0,
            "feedback p50 {} not comparable to scan p50 {}",
            feedback.q_error.p50,
            scan.q_error.p50
        );
        // JSON artifact parses.
        let json = result.to_json();
        obsv::json::parse(&json).expect("BENCH_cardbench.json parses");
    }
}
