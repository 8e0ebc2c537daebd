//! Round-trip tests of the SQL parser/renderer: `parse(render(stmt))` is
//! `stmt`, compared by `Debug` so a literal's type counts (`Value`'s own
//! equality holds `Int(25)` equal to `Float(25.0)`). Over randomly
//! constructed ASTs, and over every statement the system benchmark's four
//! workloads send. Those statements, the TPC-D queries and the examples'
//! SQL text also bind under the binder's grouping rules.

use datagen::{
    build_tpcd, tpcd_benchmark_queries, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec,
    ZipfSpec,
};
use proptest::prelude::*;
use query::ast::OrderKey;
use query::{
    bind_select, bind_statement, parse_statement, render, AggFunc, CmpOp, ColumnRef, Condition,
    DeleteStmt, InsertStmt, SelectItem, SelectStmt, Statement, TableRef, UpdateStmt,
};
use storage::Value;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| {
        ![
            "select", "from", "where", "group", "by", "and", "between", "insert", "into", "values",
            "update", "set", "delete", "as", "date", "null", "count", "sum", "avg", "min", "max",
        ]
        .contains(&s.as_str())
    })
}

fn literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1000i64..1000, 1u32..100).prop_map(|(m, d)| Value::Float(m as f64 / d as f64)),
        (-1000i64..1000).prop_map(|m| Value::Float(m as f64)),
        "[a-zA-Z' ]{0,12}".prop_map(Value::from),
        (-10000i32..10000).prop_map(Value::Date),
        Just(Value::Null),
    ]
}

fn column_ref() -> impl Strategy<Value = ColumnRef> {
    (prop::option::of(ident()), ident()).prop_map(|(q, c)| ColumnRef {
        qualifier: q,
        column: c,
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn condition() -> impl Strategy<Value = Condition> {
    prop_oneof![
        (
            column_ref(),
            cmp_op(),
            literal().prop_filter("no null cmp", |v| !v.is_null())
        )
            .prop_map(|(column, op, value)| Condition::Compare { column, op, value }),
        (column_ref(), -100i64..100, 0i64..100).prop_map(|(column, lo, w)| Condition::Between {
            column,
            low: Value::Int(lo),
            high: Value::Int(lo + w),
        }),
        (column_ref(), column_ref()).prop_map(|(left, right)| Condition::Join { left, right }),
    ]
}

fn select_item() -> impl Strategy<Value = SelectItem> {
    prop_oneof![
        Just(SelectItem::Star),
        column_ref().prop_map(SelectItem::Column),
        (
            prop_oneof![
                Just(AggFunc::Count),
                Just(AggFunc::Sum),
                Just(AggFunc::Avg),
                Just(AggFunc::Min),
                Just(AggFunc::Max)
            ],
            prop::option::of(column_ref())
        )
            .prop_map(|(f, c)| SelectItem::Aggregate(f, c)),
    ]
}

fn table_ref() -> impl Strategy<Value = TableRef> {
    (ident(), prop::option::of(ident())).prop_map(|(t, a)| TableRef { table: t, alias: a })
}

fn order_key() -> impl Strategy<Value = OrderKey> {
    (column_ref(), any::<bool>()).prop_map(|(column, descending)| OrderKey { column, descending })
}

fn select_stmt() -> impl Strategy<Value = Statement> {
    (
        prop::collection::vec(select_item(), 1..4),
        prop::collection::vec(table_ref(), 1..4),
        prop::collection::vec(condition(), 0..4),
        prop::collection::vec(column_ref(), 0..3),
        prop::collection::vec(order_key(), 0..3),
    )
        .prop_map(|(items, from, conditions, group_by, order_by)| {
            Statement::Select(SelectStmt {
                items,
                from,
                conditions,
                group_by,
                order_by,
            })
        })
}

fn statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        select_stmt(),
        (ident(), prop::collection::vec(literal(), 1..5))
            .prop_map(|(table, values)| Statement::Insert(InsertStmt { table, values })),
        (
            ident(),
            ident(),
            literal().prop_filter("set value non-null str ok", |_| true),
            prop::collection::vec(condition(), 0..3)
        )
            .prop_map(|(table, set_column, set_value, conditions)| {
                Statement::Update(UpdateStmt {
                    table,
                    set_column,
                    set_value,
                    conditions,
                })
            }),
        (ident(), prop::collection::vec(condition(), 0..3))
            .prop_map(|(table, conditions)| Statement::Delete(DeleteStmt { table, conditions })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_roundtrip(stmt in statement()) {
        let sql = render(&stmt);
        match parse_statement(&sql) {
            Ok(reparsed) => prop_assert_eq!(
                format!("{stmt:?}"),
                format!("{reparsed:?}"),
                "round-trip mismatch for: {}",
                sql
            ),
            Err(e) => prop_assert!(false, "rendered SQL failed to parse: {e}\n{}", sql),
        }
    }
}

/// Every statement of the system benchmark's four workloads — `steady-simple`,
/// `steady-complex`, `online-mixed` and `offline-tune`: scale, update share,
/// complexity and count, over TPC-D `Mixed` in universe 7 — reparses from its
/// rendered text to the same statement, literal types included.
#[test]
fn benchmark_statements_roundtrip_with_their_literal_types() {
    let workloads = [
        (0.005, 0, Complexity::Simple, 200),
        (0.001, 0, Complexity::Complex, 200),
        (0.005, 25, Complexity::Simple, 600),
        (0.02, 0, Complexity::Complex, 1000),
    ];
    for (scale, update_pct, complexity, count) in workloads {
        let db = build_tpcd(&TpcdConfig {
            scale,
            zipf: ZipfSpec::Mixed,
            seed: 7,
        });
        let spec = WorkloadSpec::new(update_pct, complexity, count).with_seed(7);
        let statements = RagsGenerator::generate(&db, &spec);
        assert_eq!(statements.len(), count);
        let mismatches: Vec<String> = statements
            .iter()
            .map(render)
            .zip(&statements)
            .filter(|(sql, stmt)| {
                parse_statement(sql).map(|s| format!("{s:?}")) != Ok(format!("{stmt:?}"))
            })
            .map(|(sql, _)| sql)
            .collect();
        assert!(
            mismatches.is_empty(),
            "{} of {count} statements ({scale}, U{update_pct}, {complexity:?}) do not \
             round-trip, first: {}",
            mismatches.len(),
            mismatches[0]
        );
    }
}

/// Every statement the benchmark's four workloads send at `--seconds 20`
/// (`online-mixed` sends 600 a second), the 17 TPC-D queries and the SQL
/// text of the examples and of CI's `sql_shell` run binds: none breaks the
/// grouping rules `bind_select` enforces.
#[test]
fn workload_tpcd_and_example_statements_bind() {
    let workloads = [
        (0.005, 0, Complexity::Simple, 200),
        (0.001, 0, Complexity::Complex, 200),
        (0.005, 25, Complexity::Simple, 12_000),
        (0.02, 0, Complexity::Complex, 1000),
    ];
    for (scale, update_pct, complexity, count) in workloads {
        let db = build_tpcd(&TpcdConfig {
            scale,
            zipf: ZipfSpec::Mixed,
            seed: 7,
        });
        let spec = WorkloadSpec::new(update_pct, complexity, count).with_seed(7);
        for stmt in RagsGenerator::generate(&db, &spec) {
            if let Err(e) = bind_statement(&db, &stmt) {
                panic!("{} ({scale}, U{update_pct}): {e}", render(&stmt));
            }
        }
    }
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed: 42,
    });
    let tpcd = tpcd_benchmark_queries();
    assert_eq!(tpcd.len(), 17);
    for q in &tpcd {
        if let Err(e) = bind_select(&db, q) {
            panic!("{}: {e}", render(&Statement::Select(q.clone())));
        }
    }
    for sql in [
        // examples/quickstart.rs
        "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem \
         WHERE l_orderkey = o_orderkey AND o_orderdate < 9000 AND l_quantity < 5.0 \
           AND l_tax >= 0.0 AND o_shippriority <= 1 \
         GROUP BY o_orderpriority",
        // examples/sql_shell.rs's docs and CI's run of it
        "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority",
        "SELECT * FROM lineitem WHERE l_quantity < 5.0",
        "SELECT COUNT(*) FROM orders",
        "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate < 9000 \
         GROUP BY o_orderpriority",
        "DELETE FROM orders WHERE o_orderkey < 10",
    ] {
        if let Err(e) = bind_statement(&db, &parse_statement(sql).unwrap()) {
            panic!("{sql}: {e}");
        }
    }
}
