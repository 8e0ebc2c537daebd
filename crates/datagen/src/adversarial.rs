//! Adversarial data + workload generation for the estimation-quality
//! harness (`exp cardbench`).
//!
//! The paper evaluates MNSA on TPC-D-style data, where estimation is
//! comparatively easy. The cardinality-estimation benchmark literature
//! (PAPERS.md) shows that q-error only degrades meaningfully on *skewed*,
//! *correlated*, many-way-join workloads — exactly the regimes a statistics
//! advisor must earn its keep on. This module builds those regimes:
//!
//! * [`Regime::Uniform`] — a control: independent uniform columns.
//! * [`Regime::Zipf`] — heavy-tail columns via [`Zipf`] with a configurable
//!   `z`, so equality predicates on hot values are badly served by the
//!   uniform magic numbers.
//! * [`Regime::Correlated`] — pairwise-correlated column groups with a
//!   controllable correlation coefficient `rho`: with probability `rho` the
//!   second column repeats the first, otherwise it draws independently.
//!   Conjunctions over a pair break the attribute-value-independence
//!   assumption by a factor of roughly `rho / P(b = x)`.
//! * [`Regime::Star`] — a parameterized star/snowflake schema: one fact
//!   table, `dims` dimension tables joined by PK–FK equi-joins (FK draws
//!   are Zipf-skewed so some dimension rows are hot), plus an optional
//!   sub-dimension off `dim0` turning the star into a snowflake.
//!
//! [`adversarial_queries`] generates a seeded query workload over each
//! regime, with selection constants sampled from the live data. Everything
//! is deterministic under a fixed seed, and — unlike the grandfathered
//! TPC-D/Rags generators — this module is covered by the workspace's
//! panic-free clippy gate: degenerate knobs (empty tables, NaN skew,
//! all-NULL columns) are sanitized, never unwrapped.

use crate::zipf::Zipf;
use query::{AggFunc, CmpOp, ColumnRef, Condition, SelectItem, SelectStmt, TableRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use storage::{ColumnDef, DataType, Database, Schema, TableId, Value};

/// One of the four workload regimes of the estimation-quality bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Uniform,
    Zipf,
    Correlated,
    Star,
}

impl Regime {
    pub const ALL: [Regime; 4] = [
        Regime::Uniform,
        Regime::Zipf,
        Regime::Correlated,
        Regime::Star,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Regime::Uniform => "uniform",
            Regime::Zipf => "zipf",
            Regime::Correlated => "correlated",
            Regime::Star => "star",
        }
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Generator knobs. All fields are sanitized before use (`Self::sane`),
/// so arbitrary (proptest-supplied) values build valid databases.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Fact-table rows (single-table regimes use the same count).
    pub rows: usize,
    /// Distinct values per generated data column.
    pub domain: usize,
    /// Zipf parameter for the skewed regime and star FK draws.
    pub zipf_z: f64,
    /// Correlation coefficient `rho ∈ [0, 1]` for correlated column pairs.
    pub correlation: f64,
    /// NULL share in the nullable member of each correlated pair.
    pub null_fraction: f64,
    /// Star: number of dimension tables (clamped to `1..=6`).
    pub dims: usize,
    /// Star: rows per dimension table.
    pub dim_rows: usize,
    /// Star: add a sub-dimension off `dim0` (snowflake).
    pub snowflake: bool,
    pub seed: u64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            rows: 4_000,
            domain: 50,
            zipf_z: 2.0,
            correlation: 0.9,
            null_fraction: 0.05,
            dims: 4,
            dim_rows: 100,
            snowflake: true,
            seed: 42,
        }
    }
}

impl AdversarialConfig {
    /// A smaller configuration for smoke tests of the harness itself.
    pub fn tiny() -> Self {
        AdversarialConfig {
            rows: 600,
            domain: 30,
            dims: 3,
            dim_rows: 40,
            ..AdversarialConfig::default()
        }
    }

    /// Clamp every knob into its valid range (NaN/∞ fall back to safe
    /// defaults); the constructors below only ever see sane values.
    fn sane(&self) -> AdversarialConfig {
        let clamp01 = |x: f64| {
            if x.is_finite() {
                x.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        AdversarialConfig {
            rows: self.rows,
            domain: self.domain.max(1),
            zipf_z: if self.zipf_z.is_finite() {
                self.zipf_z.clamp(0.0, 8.0)
            } else {
                0.0
            },
            correlation: clamp01(self.correlation),
            null_fraction: clamp01(self.null_fraction),
            dims: self.dims.clamp(1, 6),
            dim_rows: self.dim_rows.max(1),
            snowflake: self.snowflake,
            seed: self.seed,
        }
    }
}

/// The single data table of the non-star regimes.
pub const FACTS: &str = "facts";
/// The star fact table.
pub const FACT: &str = "fact";
/// The snowflake sub-dimension.
pub const SUBDIM: &str = "subdim";

/// Name of star dimension table `i`.
pub fn dim_name(i: usize) -> String {
    format!("dim{i}")
}

fn new_table(db: &mut Database, name: &str, cols: Vec<ColumnDef>) -> TableId {
    match db.create_table(name, Schema::new(cols)) {
        Ok(id) => id,
        // Fresh database, generator-chosen distinct names: cannot collide.
        Err(e) => unreachable!("adversarial schema creation failed: {e}"),
    }
}

fn bulk_load(db: &mut Database, id: TableId, rows: Vec<Vec<Value>>) {
    if let Err(e) = db.table_mut(id).insert_many(rows) {
        unreachable!("adversarial generator produced an invalid row: {e}");
    }
    // Bulk load: the generated data is the staleness baseline.
    db.table_mut(id).reset_modification_counter();
}

/// Index `column` of `table`. Without indexes every single-table query has
/// exactly one access path, so misestimates would be invisible in plan
/// choice (and MNSA's P_low/P_high probe would trivially converge: a pure
/// seq-scan cost does not depend on selectivity at all). The harness
/// therefore indexes the filtered columns, making access-path and join-order
/// decisions — and thus plan-cost regret — selectivity-dependent.
fn index_column(db: &mut Database, table: TableId, name: &str, column: &str) {
    let Some(col) = db.table(table).schema().index_of(column) else {
        unreachable!("adversarial index on unknown column {column}");
    };
    if let Err(e) = db.create_index(name, table, vec![col]) {
        unreachable!("adversarial index creation failed: {e}");
    }
}

/// Draw one correlated pair: `b` repeats `a` with probability `rho`,
/// otherwise draws independently from the same base distribution; `b` is
/// NULL with probability `null_fraction` (applied after the draw, so
/// `null_fraction = 1` yields an all-NULL column without panicking).
fn correlated_draw(rng: &mut StdRng, base: &Zipf, rho: f64, null_fraction: f64) -> (Value, Value) {
    let a = base.sample(rng) as i64;
    let b = if rho > 0.0 && rng.gen_bool(rho) {
        a
    } else {
        base.sample(rng) as i64
    };
    let b = if null_fraction > 0.0 && rng.gen_bool(null_fraction) {
        Value::Null
    } else {
        Value::Int(b)
    };
    (Value::Int(a), b)
}

/// Build the single-table database of the uniform / zipf / correlated
/// regimes: `facts(f_id, c_a, c_b, c_c, c_d, f_val)`. All three regimes
/// share the schema so the same query shapes apply; only the column
/// distributions differ.
fn build_single(cfg: &AdversarialConfig, regime: Regime) -> Database {
    let mut db = Database::new();
    let t = new_table(
        &mut db,
        FACTS,
        vec![
            ColumnDef::new("f_id", DataType::Int),
            ColumnDef::new("c_a", DataType::Int),
            ColumnDef::new("c_b", DataType::Int).nullable(),
            ColumnDef::new("c_c", DataType::Int),
            ColumnDef::new("c_d", DataType::Int).nullable(),
            ColumnDef::new("f_val", DataType::Float),
        ],
    );
    let z = match regime {
        Regime::Uniform => 0.0,
        Regime::Zipf => cfg.zipf_z,
        // Mild base skew: the correlation, not the marginals, is the trap.
        Regime::Correlated | Regime::Star => 1.0,
    };
    let dist = Zipf::clamped(cfg.domain, z);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut rows = Vec::with_capacity(cfg.rows);
    for i in 0..cfg.rows {
        let (a, b, c, d) = if regime == Regime::Correlated {
            let (a, b) = correlated_draw(&mut rng, &dist, cfg.correlation, cfg.null_fraction);
            let (c, d) = correlated_draw(&mut rng, &dist, cfg.correlation, cfg.null_fraction);
            (a, b, c, d)
        } else {
            (
                Value::Int(dist.sample(&mut rng) as i64),
                Value::Int(dist.sample(&mut rng) as i64),
                Value::Int(dist.sample(&mut rng) as i64),
                Value::Int(dist.sample(&mut rng) as i64),
            )
        };
        rows.push(vec![
            Value::Int(i as i64),
            a,
            b,
            c,
            d,
            Value::Float(rng.gen::<f64>() * 100.0),
        ]);
    }
    bulk_load(&mut db, t, rows);
    // One indexed column per correlated pair; c_b/c_d stay unindexed so
    // both access paths occur in the workload.
    index_column(&mut db, t, "ix_facts_c_a", "c_a");
    index_column(&mut db, t, "ix_facts_c_c", "c_c");
    db
}

/// Build the star/snowflake database: `fact(f_id, f_dim0.., f_val)` with
/// Zipf-skewed FK draws, `dim{i}(d{i}_id, d{i}_attr, d{i}_flag)` with a
/// skewed low-cardinality attribute (so equality filters range from
/// selective to hot), and under `snowflake` a `subdim` referenced from
/// `dim0`.
fn build_star(cfg: &AdversarialConfig) -> Database {
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let attr_domain = (cfg.dim_rows / 5).clamp(2, 25);
    let attr_dist = Zipf::clamped(attr_domain, 1.5);

    let sub_rows = (cfg.dim_rows / 4).max(1);
    let sub = if cfg.snowflake {
        let id = new_table(
            &mut db,
            SUBDIM,
            vec![
                ColumnDef::new("s_id", DataType::Int),
                ColumnDef::new("s_attr", DataType::Int),
            ],
        );
        let rows = (0..sub_rows)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(attr_dist.sample(&mut rng) as i64),
                ]
            })
            .collect();
        bulk_load(&mut db, id, rows);
        index_column(&mut db, id, "ix_subdim_s_id", "s_id");
        Some(id)
    } else {
        None
    };

    let sub_fk = Zipf::clamped(sub_rows, 1.0);
    for i in 0..cfg.dims {
        let mut cols = vec![
            ColumnDef::new(format!("d{i}_id"), DataType::Int),
            ColumnDef::new(format!("d{i}_attr"), DataType::Int),
            ColumnDef::new(format!("d{i}_flag"), DataType::Int),
        ];
        if i == 0 && sub.is_some() {
            cols.push(ColumnDef::new("d0_sub", DataType::Int));
        }
        let id = new_table(&mut db, &dim_name(i), cols);
        let rows = (0..cfg.dim_rows)
            .map(|r| {
                let mut row = vec![
                    Value::Int(r as i64),
                    Value::Int(attr_dist.sample(&mut rng) as i64),
                    Value::Int(i64::from(rng.gen_bool(0.5))),
                ];
                if i == 0 && sub.is_some() {
                    row.push(Value::Int(sub_fk.sample(&mut rng) as i64));
                }
                row
            })
            .collect();
        bulk_load(&mut db, id, rows);
        index_column(&mut db, id, &format!("ix_dim{i}_id"), &format!("d{i}_id"));
        index_column(
            &mut db,
            id,
            &format!("ix_dim{i}_attr"),
            &format!("d{i}_attr"),
        );
    }

    let mut fact_cols = vec![ColumnDef::new("f_id", DataType::Int)];
    for i in 0..cfg.dims {
        fact_cols.push(ColumnDef::new(format!("f_dim{i}"), DataType::Int));
    }
    fact_cols.push(ColumnDef::new("f_val", DataType::Float));
    let fact = new_table(&mut db, FACT, fact_cols);
    let fk_dist = Zipf::clamped(cfg.dim_rows, cfg.zipf_z.max(1.0));
    let rows = (0..cfg.rows)
        .map(|r| {
            let mut row = vec![Value::Int(r as i64)];
            for _ in 0..cfg.dims {
                row.push(Value::Int(fk_dist.sample(&mut rng) as i64));
            }
            row.push(Value::Float(rng.gen::<f64>() * 100.0));
            row
        })
        .collect();
    bulk_load(&mut db, fact, rows);
    for i in 0..cfg.dims {
        index_column(
            &mut db,
            fact,
            &format!("ix_fact_dim{i}"),
            &format!("f_dim{i}"),
        );
    }
    db
}

/// Build the adversarial database for one regime. Deterministic under
/// `cfg.seed`; any degenerate knob is sanitized rather than rejected.
pub fn build_adversarial(cfg: &AdversarialConfig, regime: Regime) -> Database {
    let cfg = cfg.sane();
    match regime {
        Regime::Star => build_star(&cfg),
        _ => build_single(&cfg, regime),
    }
}

/// Seeded query generator over an adversarial database.
struct QueryGen<'a> {
    db: &'a Database,
    cfg: AdversarialConfig,
    rng: StdRng,
}

impl<'a> QueryGen<'a> {
    /// A non-NULL constant sampled from the live column, so predicate
    /// selectivities reflect the data's skew. Falls back to a harmless
    /// constant on empty or all-NULL columns (the query stays valid, it
    /// just selects nothing).
    fn sample_value(&mut self, table: &str, column: &str) -> Value {
        let Ok(t) = self.db.table_by_name(table) else {
            return Value::Int(0);
        };
        let Some(col) = t.schema().index_of(column) else {
            return Value::Int(0);
        };
        if t.row_count() == 0 {
            return Value::Int(0);
        }
        for _ in 0..8 {
            let v = t.value(self.rng.gen_range(0..t.row_count()), col);
            if v != Value::Null {
                return v;
            }
        }
        (0..t.row_count())
            .map(|r| t.value(r, col))
            .find(|v| *v != Value::Null)
            .unwrap_or(Value::Int(0))
    }

    /// One range-representable selection on `(table, column)`: equality
    /// half the time, otherwise a one-sided range or a BETWEEN. Keeping
    /// every shape range-representable lets joint 2-D histograms refine
    /// predicate pairs.
    fn selection(&mut self, table: &str, column: &str) -> Condition {
        let col = ColumnRef::new(table, column);
        let v = self.sample_value(table, column);
        match self.rng.gen_range(0..10) {
            0..=4 => Condition::Compare {
                column: col,
                op: CmpOp::Eq,
                value: v,
            },
            5..=7 => {
                let op = match self.rng.gen_range(0..4) {
                    0 => CmpOp::Lt,
                    1 => CmpOp::Le,
                    2 => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                Condition::Compare {
                    column: col,
                    op,
                    value: v,
                }
            }
            _ => {
                let w = self.sample_value(table, column);
                let (lo, hi) = if v <= w { (v, w) } else { (w, v) };
                Condition::Between {
                    column: col,
                    low: lo,
                    high: hi,
                }
            }
        }
    }

    /// Single-table query over `facts`. The correlated-pair probe (both
    /// columns of one pair constrained together) dominates, because that is
    /// the shape on which independence-assuming estimation fails.
    fn single_table_query(&mut self) -> SelectStmt {
        const PAIRS: [(&str, &str); 2] = [("c_a", "c_b"), ("c_c", "c_d")];
        const COLS: [&str; 4] = ["c_a", "c_b", "c_c", "c_d"];
        let mut conditions = Vec::new();
        let roll = self.rng.gen_range(0..10);
        let mut group_by = Vec::new();
        let mut items = vec![SelectItem::Star];
        if roll < 4 {
            let (x, y) = PAIRS[self.rng.gen_range(0..PAIRS.len())];
            conditions.push(self.selection(FACTS, x));
            conditions.push(self.selection(FACTS, y));
        } else if roll < 7 {
            let c = COLS[self.rng.gen_range(0..COLS.len())];
            conditions.push(self.selection(FACTS, c));
        } else if roll < 9 {
            for _ in 0..3 {
                let c = COLS[self.rng.gen_range(0..COLS.len())];
                conditions.push(self.selection(FACTS, c));
            }
        } else {
            let g = COLS[self.rng.gen_range(0..COLS.len())];
            let gcol = ColumnRef::new(FACTS, g);
            items = vec![
                SelectItem::Column(gcol.clone()),
                SelectItem::Aggregate(AggFunc::Count, None),
            ];
            group_by = vec![gcol];
            conditions.push(self.selection(FACTS, "f_val"));
        }
        SelectStmt {
            items,
            from: vec![TableRef::new(FACTS)],
            conditions,
            group_by,
            order_by: Vec::new(),
        }
    }

    /// Star/snowflake query: the fact table joined to a random subset of
    /// dimensions, selective equality filters on some joined dimensions'
    /// attributes, occasionally a fact-measure range, the snowflake
    /// extension through `dim0`, or a GROUP BY over a dimension attribute.
    fn star_query(&mut self) -> SelectStmt {
        let dims = self.cfg.dims;
        let k = self.rng.gen_range(1..=dims);
        let mut pool: Vec<usize> = (0..dims).collect();
        let mut joined = Vec::with_capacity(k);
        for _ in 0..k {
            let i = self.rng.gen_range(0..pool.len());
            joined.push(pool.swap_remove(i));
        }
        joined.sort_unstable();

        let mut from = vec![TableRef::new(FACT)];
        let mut conditions = Vec::new();
        for &d in &joined {
            let dname = dim_name(d);
            from.push(TableRef::new(&dname));
            conditions.push(Condition::Join {
                left: ColumnRef::new(FACT, format!("f_dim{d}")),
                right: ColumnRef::new(&dname, format!("d{d}_id")),
            });
        }

        // Selective dimension filters: equality on the skewed attribute.
        let n_filters = self.rng.gen_range(1..=joined.len().min(2));
        for f in 0..n_filters {
            let d = joined[(f * 7919 + self.rng.gen_range(0..joined.len())) % joined.len()];
            let dname = dim_name(d);
            let attr = format!("d{d}_attr");
            let v = self.sample_value(&dname, &attr);
            conditions.push(Condition::Compare {
                column: ColumnRef::new(&dname, &attr),
                op: CmpOp::Eq,
                value: v,
            });
        }
        if self.rng.gen_bool(0.25) {
            conditions.push(self.selection(FACT, "f_val"));
        }
        // Snowflake arm: extend through dim0 to the sub-dimension.
        if self.cfg.snowflake && joined.contains(&0) && self.rng.gen_bool(0.5) {
            from.push(TableRef::new(SUBDIM));
            conditions.push(Condition::Join {
                left: ColumnRef::new(dim_name(0), "d0_sub"),
                right: ColumnRef::new(SUBDIM, "s_id"),
            });
            if self.rng.gen_bool(0.7) {
                let v = self.sample_value(SUBDIM, "s_attr");
                conditions.push(Condition::Compare {
                    column: ColumnRef::new(SUBDIM, "s_attr"),
                    op: CmpOp::Eq,
                    value: v,
                });
            }
        }

        let (items, group_by) = if self.rng.gen_bool(0.15) {
            let d = joined[self.rng.gen_range(0..joined.len())];
            let gcol = ColumnRef::new(dim_name(d), format!("d{d}_attr"));
            (
                vec![
                    SelectItem::Column(gcol.clone()),
                    SelectItem::Aggregate(AggFunc::Count, None),
                ],
                vec![gcol],
            )
        } else {
            (vec![SelectItem::Star], Vec::new())
        };
        SelectStmt {
            items,
            from,
            conditions,
            group_by,
            order_by: Vec::new(),
        }
    }
}

/// Generate `count` queries over an adversarial database of the given
/// regime. Deterministic under `(cfg.seed, regime)`: the stream is
/// independent of the data-generation RNG, so data and workload can be
/// rebuilt separately.
pub fn adversarial_queries(
    db: &Database,
    cfg: &AdversarialConfig,
    regime: Regime,
    count: usize,
) -> Vec<SelectStmt> {
    let cfg = cfg.sane();
    let seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(regime as u64 + 1);
    let mut g = QueryGen {
        db,
        cfg,
        rng: StdRng::seed_from_u64(seed),
    };
    (0..count)
        .map(|_| match regime {
            Regime::Star => g.star_query(),
            _ => g.single_table_query(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use query::{bind_statement, Statement};

    fn binds_all(db: &Database, queries: &[SelectStmt]) {
        for (i, q) in queries.iter().enumerate() {
            bind_statement(db, &Statement::Select(q.clone()))
                .unwrap_or_else(|e| panic!("query {i} failed to bind: {e}\n{q:?}"));
        }
    }

    #[test]
    fn every_regime_builds_and_binds() {
        let cfg = AdversarialConfig::tiny();
        for regime in Regime::ALL {
            let db = build_adversarial(&cfg, regime);
            let queries = adversarial_queries(&db, &cfg, regime, 30);
            assert_eq!(queries.len(), 30);
            binds_all(&db, &queries);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = AdversarialConfig::tiny();
        for regime in Regime::ALL {
            let d1 = build_adversarial(&cfg, regime);
            let d2 = build_adversarial(&cfg, regime);
            for id in d1.table_ids() {
                let (t1, t2) = (d1.try_table(id).unwrap(), d2.try_table(id).unwrap());
                assert_eq!(t1.row_count(), t2.row_count());
                for r in 0..t1.row_count() {
                    for c in 0..t1.schema().len() {
                        assert_eq!(t1.value(r, c), t2.value(r, c), "{regime} r{r} c{c}");
                    }
                }
            }
            let q1 = adversarial_queries(&d1, &cfg, regime, 20);
            let q2 = adversarial_queries(&d2, &cfg, regime, 20);
            assert_eq!(q1, q2, "{regime} queries must be seed-deterministic");
            let other = AdversarialConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            };
            let q3 = adversarial_queries(&d1, &other, regime, 20);
            assert_ne!(q1, q3, "{regime} queries must vary with the seed");
        }
    }

    #[test]
    fn correlation_knob_controls_pair_agreement() {
        let base = AdversarialConfig {
            rows: 3_000,
            null_fraction: 0.0,
            ..AdversarialConfig::tiny()
        };
        let agreement = |rho: f64| -> f64 {
            let cfg = AdversarialConfig {
                correlation: rho,
                ..base.clone()
            };
            let db = build_adversarial(&cfg, Regime::Correlated);
            let t = db.table_by_name(FACTS).unwrap();
            let (a, b) = (
                t.schema().index_of("c_a").unwrap(),
                t.schema().index_of("c_b").unwrap(),
            );
            let same = (0..t.row_count())
                .filter(|&r| t.value(r, a) == t.value(r, b))
                .count();
            same as f64 / t.row_count() as f64
        };
        let low = agreement(0.0);
        let high = agreement(0.95);
        assert!(
            high > low + 0.3,
            "correlation knob had no effect: rho=0 → {low:.2}, rho=0.95 → {high:.2}"
        );
        assert!(high > 0.9, "rho=0.95 should agree almost always: {high:.2}");
    }

    #[test]
    fn star_schema_has_fact_and_dims_with_valid_fks() {
        let cfg = AdversarialConfig::tiny();
        let db = build_adversarial(&cfg, Regime::Star);
        let fact = db.table_by_name(FACT).unwrap();
        assert_eq!(fact.row_count(), cfg.rows);
        for i in 0..cfg.dims {
            let dim = db.table_by_name(&dim_name(i)).unwrap();
            assert_eq!(dim.row_count(), cfg.dim_rows);
            let fk = fact.schema().index_of(&format!("f_dim{i}")).unwrap();
            for r in 0..fact.row_count() {
                let Value::Int(v) = fact.value(r, fk) else {
                    panic!("non-int FK")
                };
                assert!((v as usize) < cfg.dim_rows, "dangling FK {v}");
            }
        }
        // Snowflake: dim0's sub-FK lands in subdim.
        let sub = db.table_by_name(SUBDIM).unwrap();
        let dim0 = db.table_by_name(&dim_name(0)).unwrap();
        let fk = dim0.schema().index_of("d0_sub").unwrap();
        for r in 0..dim0.row_count() {
            let Value::Int(v) = dim0.value(r, fk) else {
                panic!("non-int sub FK")
            };
            assert!((v as usize) < sub.row_count());
        }
    }

    #[test]
    fn filtered_columns_are_indexed() {
        // Without these, every single-table plan is the same seq scan and
        // the harness could not observe plan-choice consequences of
        // misestimation (nor would MNSA's sensitivity probe ever fire).
        let cfg = AdversarialConfig::tiny();
        let db = build_adversarial(&cfg, Regime::Zipf);
        let t = db.table_id(FACTS).unwrap();
        let leads: Vec<usize> = db.indexes_on(t).map(|i| i.leading_column()).collect();
        let schema = db.table(t).schema();
        assert!(leads.contains(&schema.index_of("c_a").unwrap()));
        assert!(leads.contains(&schema.index_of("c_c").unwrap()));

        let star = build_adversarial(&cfg, Regime::Star);
        let fact = star.table_id(FACT).unwrap();
        assert_eq!(star.indexes_on(fact).count(), cfg.dims);
        for i in 0..cfg.dims {
            let dim = star.table_id(&dim_name(i)).unwrap();
            assert_eq!(star.indexes_on(dim).count(), 2, "dim{i}");
        }
        let sub = star.table_id(SUBDIM).unwrap();
        assert_eq!(star.indexes_on(sub).count(), 1);
    }

    #[test]
    fn zipf_regime_is_skewed_and_uniform_is_not() {
        let cfg = AdversarialConfig {
            rows: 5_000,
            zipf_z: 2.5,
            ..AdversarialConfig::tiny()
        };
        let hot_share = |regime: Regime| -> f64 {
            let db = build_adversarial(&cfg, regime);
            let t = db.table_by_name(FACTS).unwrap();
            let a = t.schema().index_of("c_a").unwrap();
            let mut counts = std::collections::HashMap::new();
            for r in 0..t.row_count() {
                *counts.entry(t.value(r, a)).or_insert(0usize) += 1;
            }
            *counts.values().max().unwrap() as f64 / t.row_count() as f64
        };
        let uniform = hot_share(Regime::Uniform);
        let zipf = hot_share(Regime::Zipf);
        assert!(
            zipf > uniform * 3.0,
            "zipf hot value share {zipf:.3} not clearly above uniform {uniform:.3}"
        );
    }

    #[test]
    fn all_null_correlated_column_still_generates_valid_queries() {
        // Regression (edge case from the issue): null_fraction = 1 makes
        // c_b/c_d all NULL; the generator must neither panic nor emit a
        // NULL constant in a predicate.
        let cfg = AdversarialConfig {
            null_fraction: 1.0,
            ..AdversarialConfig::tiny()
        };
        let db = build_adversarial(&cfg, Regime::Correlated);
        let t = db.table_by_name(FACTS).unwrap();
        let b = t.schema().index_of("c_b").unwrap();
        assert!((0..t.row_count()).all(|r| t.value(r, b) == Value::Null));
        let queries = adversarial_queries(&db, &cfg, Regime::Correlated, 40);
        binds_all(&db, &queries);
        for q in &queries {
            for c in &q.conditions {
                match c {
                    Condition::Compare { value, .. } => assert_ne!(*value, Value::Null),
                    Condition::Between { low, high, .. } => {
                        assert_ne!(*low, Value::Null);
                        assert_ne!(*high, Value::Null);
                    }
                    Condition::Join { .. } => {}
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Regression harness for the datagen edge cases named in the
        /// issue: zero/one-row tables, alpha=0 uniform fallback, NaN and
        /// negative skew, full-NULL columns. Every combination must build
        /// a database whose queries all bind.
        #[test]
        fn degenerate_knobs_never_panic(
            (rows, domain) in (0usize..40, 0usize..6),
            z in prop_oneof![Just(f64::NAN), Just(-2.0), Just(0.0), 0.0..6.0],
            rho in prop_oneof![Just(-1.0), Just(2.0), 0.0..1.0],
            nulls in prop_oneof![Just(1.0), 0.0..1.0],
            (dims, dim_rows, snowflake) in (0usize..8, 1usize..8, any::<bool>()),
            seed in 0u64..1000,
        ) {
            let cfg = AdversarialConfig {
                rows, domain, zipf_z: z, correlation: rho,
                null_fraction: nulls, dims, dim_rows, snowflake, seed,
            };
            for regime in Regime::ALL {
                let db = build_adversarial(&cfg, regime);
                let queries = adversarial_queries(&db, &cfg, regime, 6);
                for q in &queries {
                    prop_assert!(
                        bind_statement(&db, &Statement::Select(q.clone())).is_ok(),
                        "{regime}: query failed to bind under {cfg:?}"
                    );
                }
            }
        }
    }
}
