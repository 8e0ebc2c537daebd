//! Running whole statements and workloads.
//!
//! `run_statement` executes any bound statement: SELECTs go through the
//! optimizer and the plan interpreter; DML mutates the store (and thereby
//! the modification counters). Summing [`StatementOutcome::work`] over a
//! statement list gives the paper's "execution cost of the workload".

use crate::error::ExecError;
use crate::exec::{execute_plan_observed, ExecOutput};
use crate::predicate::filter_table_columnar;
use optimizer::{CostParams, OptimizeOptions, Optimizer};
use query::{BoundDelete, BoundInsert, BoundStatement, BoundUpdate};
use stats::StatsView;
use storage::Database;

/// What executing one statement produced.
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// A query: materialized output and the plan's estimated cost.
    Query {
        output: ExecOutput,
        estimated_cost: f64,
    },
    /// DML: rows affected.
    Dml { rows_affected: usize, work: f64 },
}

impl StatementOutcome {
    /// Deterministic execution work of this statement.
    pub fn work(&self) -> f64 {
        match self {
            StatementOutcome::Query { output, .. } => output.work,
            StatementOutcome::Dml { work, .. } => *work,
        }
    }
}

fn run_insert(db: &mut Database, ins: &BoundInsert) -> Result<StatementOutcome, ExecError> {
    let table = db.try_table_mut(ins.table)?;
    table.insert(ins.values.clone())?;
    Ok(StatementOutcome::Dml {
        rows_affected: 1,
        work: CostParams::SEQ_ROW, // append cost
    })
}

fn run_update(db: &mut Database, upd: &BoundUpdate) -> Result<StatementOutcome, ExecError> {
    let table = db.try_table_mut(upd.table)?;
    let scan_work = CostParams::seq_scan(table.row_count() as f64);
    let preds: Vec<_> = upd.selections.iter().collect();
    let rows = filter_table_columnar(table, &preds);
    let n = table.update_rows(&rows, upd.set_column, &upd.set_value)?;
    Ok(StatementOutcome::Dml {
        rows_affected: n,
        work: scan_work + n as f64,
    })
}

fn run_delete(db: &mut Database, del: &BoundDelete) -> Result<StatementOutcome, ExecError> {
    let table = db.try_table_mut(del.table)?;
    let scan_work = CostParams::seq_scan(table.row_count() as f64);
    let preds: Vec<_> = del.selections.iter().collect();
    let rows = filter_table_columnar(table, &preds);
    let n = table.delete_rows(rows);
    Ok(StatementOutcome::Dml {
        rows_affected: n,
        work: scan_work + n as f64,
    })
}

/// Execute one bound statement. Queries are optimized against `stats` and
/// then interpreted; DML mutates `db`.
pub fn run_statement(
    db: &mut Database,
    stats: StatsView<'_>,
    optimizer: &Optimizer,
    stmt: &BoundStatement,
) -> Result<StatementOutcome, ExecError> {
    run_statement_observed(db, stats, optimizer, stmt, &obsv::Tracer::disabled())
}

/// [`run_statement`] under a tracer: SELECTs get an `exec.query` span tree
/// with per-operator child spans, DML an `exec.dml` span with the rows
/// affected. Outcomes are bit-identical to the untraced call.
pub fn run_statement_observed(
    db: &mut Database,
    stats: StatsView<'_>,
    optimizer: &Optimizer,
    stmt: &BoundStatement,
    tracer: &obsv::Tracer,
) -> Result<StatementOutcome, ExecError> {
    match stmt {
        BoundStatement::Select(q) => {
            let optimized = optimizer.optimize(db, q, stats, &OptimizeOptions::default())?;
            let output = execute_plan_observed(db, q, &optimized.plan, tracer)?;
            Ok(StatementOutcome::Query {
                output,
                estimated_cost: optimized.cost,
            })
        }
        BoundStatement::Insert(i) => traced_dml(tracer, || run_insert(db, i)),
        BoundStatement::Update(u) => traced_dml(tracer, || run_update(db, u)),
        BoundStatement::Delete(d) => traced_dml(tracer, || run_delete(db, d)),
    }
}

fn traced_dml(
    tracer: &obsv::Tracer,
    f: impl FnOnce() -> Result<StatementOutcome, ExecError>,
) -> Result<StatementOutcome, ExecError> {
    let mut span = tracer.span("exec.dml");
    let outcome = f()?;
    if let StatementOutcome::Dml {
        rows_affected,
        work,
    } = &outcome
    {
        span.arg("rows_affected", *rows_affected);
        span.arg("work", *work);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement};
    use stats::StatsCatalog;
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..50i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i % 5)])
                .unwrap();
        }
        db.table_mut(t).reset_modification_counter();
        db
    }

    fn bound(db: &Database, sql: &str) -> BoundStatement {
        bind_statement(db, &parse_statement(sql).unwrap()).unwrap()
    }

    #[test]
    fn dml_mutates_and_meters() {
        let mut db = setup();
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let t = db.table_id("t").unwrap();

        let ins = bound(&db, "INSERT INTO t VALUES (100, 9)");
        let o = run_statement(&mut db, cat.full_view(), &opt, &ins).unwrap();
        assert!(matches!(
            o,
            StatementOutcome::Dml {
                rows_affected: 1,
                ..
            }
        ));
        assert_eq!(db.table(t).row_count(), 51);

        let upd = bound(&db, "UPDATE t SET b = 0 WHERE a >= 45");
        let o = run_statement(&mut db, cat.full_view(), &opt, &upd).unwrap();
        match o {
            StatementOutcome::Dml {
                rows_affected,
                work,
            } => {
                assert_eq!(rows_affected, 6);
                assert!(work > 0.0);
            }
            _ => panic!(),
        }

        let del = bound(&db, "DELETE FROM t WHERE a < 10");
        let o = run_statement(&mut db, cat.full_view(), &opt, &del).unwrap();
        assert!(matches!(
            o,
            StatementOutcome::Dml {
                rows_affected: 10,
                ..
            }
        ));
        assert_eq!(db.table(t).row_count(), 41);
        assert_eq!(db.table(t).modification_counter(), 1 + 6 + 10);
    }

    #[test]
    fn traced_dml_reports_post_operator_rows_and_matches_untraced() {
        // Audit of the UPDATE/DELETE paths: the `exec.dml` span must carry
        // the rows the statement actually affected (post-operator, after the
        // filter and the mutation), and tracing may not perturb the
        // mutation — same outcome, work, and final table state as the
        // untraced path, including the zero-match edge.
        let base = setup();
        let cases: [(&str, usize); 4] = [
            ("UPDATE t SET b = 9 WHERE a >= 40", 10),
            ("DELETE FROM t WHERE b = 1", 10),
            ("UPDATE t SET b = 7 WHERE a < 0", 0),
            ("DELETE FROM t WHERE a >= 999", 0),
        ];
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let t = base.table_id("t").unwrap();
        for (sql, expected) in cases {
            let stmt = bound(&base, sql);
            let mut db_plain = base.clone();
            let mut db_traced = base.clone();
            let plain = run_statement(&mut db_plain, cat.full_view(), &opt, &stmt).unwrap();
            let tracer = obsv::Tracer::enabled();
            let traced =
                run_statement_observed(&mut db_traced, cat.full_view(), &opt, &stmt, &tracer)
                    .unwrap();
            let (
                StatementOutcome::Dml {
                    rows_affected: n_plain,
                    work: w_plain,
                },
                StatementOutcome::Dml {
                    rows_affected: n_traced,
                    work: w_traced,
                },
            ) = (plain, traced)
            else {
                panic!("{sql}: expected DML outcomes");
            };
            assert_eq!(n_plain, expected, "{sql}");
            assert_eq!(n_plain, n_traced, "{sql}: tracing changed the outcome");
            assert_eq!(w_plain.to_bits(), w_traced.to_bits(), "{sql}");
            let (a, b) = (db_plain.table(t), db_traced.table(t));
            assert_eq!(a.row_count(), b.row_count(), "{sql}");
            for r in 0..a.row_count() {
                for c in 0..a.schema().len() {
                    assert_eq!(a.value(r, c), b.value(r, c), "{sql} r{r} c{c}");
                }
            }
            assert_eq!(a.modification_counter(), b.modification_counter());
            let events = tracer.flush();
            assert!(obsv::trace::validate(&events).is_empty());
            let end = events
                .iter()
                .find(|e| e.kind == obsv::EventKind::End && e.name == "exec.dml")
                .expect("exec.dml span present");
            assert!(
                end.args
                    .iter()
                    .any(|(k, v)| *k == "rows_affected"
                        && *v == obsv::ArgValue::Int(expected as i64)),
                "{sql}: span must report the post-operator count {expected}: {:?}",
                end.args
            );
        }
    }

    #[test]
    fn query_outcome_carries_estimate_and_output() {
        let mut db = setup();
        let cat = StatsCatalog::new();
        let opt = Optimizer::default();
        let sel = bound(&db, "SELECT * FROM t WHERE b = 1");
        match run_statement(&mut db, cat.full_view(), &opt, &sel).unwrap() {
            StatementOutcome::Query {
                output,
                estimated_cost,
            } => {
                assert_eq!(output.row_count(), 10);
                assert!(estimated_cost > 0.0);
            }
            _ => panic!(),
        }
    }
}
