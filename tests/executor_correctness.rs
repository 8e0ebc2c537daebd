//! Differential testing of the executor: every random query is evaluated
//! twice — once through the optimizer + plan interpreter, once through a
//! naive reference evaluator (filtered cartesian product + hash grouping) —
//! and the results must match exactly. This is the guard that plan choice
//! (which statistics influence) can never change query *answers*.

use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, ZipfSpec};
use executor::execute_plan;
use optimizer::{OptimizeOptions, Optimizer};
use query::{
    bind_statement, AggFunc, BoundColumn, BoundSelect, BoundStatement, OutputItem, PredOp,
    Projection, Statement,
};
use stats::{StatDescriptor, StatsCatalog};
use std::collections::HashMap;
use storage::{Database, Value};

/// Reference evaluator: filtered cartesian product, no optimizer involved.
fn reference_eval(db: &Database, q: &BoundSelect) -> Vec<Vec<Value>> {
    // Enumerate all tuples (row index per relation) by nested products,
    // filtering with selections and join predicates.
    let mut tuples: Vec<Vec<usize>> = vec![vec![]];
    for (rel, (tid, _)) in q.relations.iter().enumerate() {
        let table = db.table(*tid);
        let mut next = Vec::new();
        for t in &tuples {
            'rows: for r in 0..table.row_count() {
                // Selections on this relation.
                for p in q.selections.iter().filter(|p| p.column.relation == rel) {
                    let v = table.value(r, p.column.column);
                    let ok = match &p.op {
                        PredOp::Cmp(op, rhs) => v
                            .sql_cmp(rhs)
                            .map(|o| match op {
                                query::CmpOp::Eq => o == std::cmp::Ordering::Equal,
                                query::CmpOp::Ne => o != std::cmp::Ordering::Equal,
                                query::CmpOp::Lt => o == std::cmp::Ordering::Less,
                                query::CmpOp::Le => o != std::cmp::Ordering::Greater,
                                query::CmpOp::Gt => o == std::cmp::Ordering::Greater,
                                query::CmpOp::Ge => o != std::cmp::Ordering::Less,
                            })
                            .unwrap_or(false),
                        PredOp::Between(lo, hi) => {
                            v.sql_cmp(lo)
                                .map(|o| o != std::cmp::Ordering::Less)
                                .unwrap_or(false)
                                && v.sql_cmp(hi)
                                    .map(|o| o != std::cmp::Ordering::Greater)
                                    .unwrap_or(false)
                        }
                    };
                    if !ok {
                        continue 'rows;
                    }
                }
                // Join edges between this relation and earlier ones.
                for e in &q.join_edges {
                    let (erel, orel, flip) = if e.right_rel == rel && e.left_rel < rel {
                        (rel, e.left_rel, true)
                    } else if e.left_rel == rel && e.right_rel < rel {
                        (rel, e.right_rel, false)
                    } else {
                        continue;
                    };
                    let _ = erel;
                    let other_table = db.table(q.table_of(orel));
                    for &(lc, rc) in &e.pairs {
                        let (my_col, other_col) = if flip { (rc, lc) } else { (lc, rc) };
                        let mine = table.value(r, my_col);
                        let theirs = other_table.value(t[orel], other_col);
                        if mine.is_null()
                            || theirs.is_null()
                            || mine.sql_cmp(&theirs) != Some(std::cmp::Ordering::Equal)
                        {
                            continue 'rows;
                        }
                    }
                }
                let mut nt = t.clone();
                nt.push(r);
                next.push(nt);
            }
        }
        tuples = next;
    }

    let value_of = |t: &[usize], c: BoundColumn| -> Value {
        db.table(q.table_of(c.relation))
            .value(t[c.relation], c.column)
    };

    if !q.group_by.is_empty() || !q.aggregates.is_empty() {
        let mut groups: HashMap<Vec<Value>, Vec<&Vec<usize>>> = HashMap::new();
        for t in &tuples {
            let key: Vec<Value> = q.group_by.iter().map(|&g| value_of(t, g)).collect();
            groups.entry(key).or_default().push(t);
        }
        // Without GROUP BY, no input still makes one (empty) group.
        if q.group_by.is_empty() {
            groups.entry(Vec::new()).or_default();
        }
        let mut keys: Vec<&Vec<Value>> = groups.keys().collect();
        keys.sort();
        return keys
            .into_iter()
            .map(|k| {
                let members = &groups[k];
                let mut aggs = Vec::new();
                for agg in &q.aggregates {
                    let vals: Vec<Value> = match agg.input {
                        None => vec![],
                        Some(c) => members
                            .iter()
                            .map(|t| value_of(t, c))
                            .filter(|v| !v.is_null())
                            .collect(),
                    };
                    aggs.push(match agg.func {
                        AggFunc::Count => Value::Int(match agg.input {
                            None => members.len() as i64,
                            Some(_) => vals.len() as i64,
                        }),
                        AggFunc::Min => vals.iter().min().cloned().unwrap_or(Value::Null),
                        AggFunc::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
                        AggFunc::Sum | AggFunc::Avg => {
                            if vals.is_empty() {
                                Value::Null
                            } else {
                                let s: f64 = vals.iter().map(Value::numeric_key).sum();
                                if agg.func == AggFunc::Sum {
                                    Value::Float(s)
                                } else {
                                    Value::Float(s / vals.len() as f64)
                                }
                            }
                        }
                    });
                }
                let Projection::Grouped(items) = &q.projection else {
                    panic!("a grouped query binds to a grouped projection")
                };
                items
                    .iter()
                    .map(|&item| match item {
                        OutputItem::Key(g) => k[g].clone(),
                        OutputItem::Aggregate(a) => aggs[a].clone(),
                    })
                    .collect()
            })
            .collect();
    }

    let cols: Vec<BoundColumn> = match &q.projection {
        Projection::Columns(c) => c.clone(),
        Projection::Grouped(_) => unreachable!("a grouped query returned above"),
        Projection::Star => {
            let mut all = Vec::new();
            for (rel, (tid, _)) in q.relations.iter().enumerate() {
                for c in 0..db.table(*tid).schema().len() {
                    all.push(BoundColumn::new(rel, c));
                }
            }
            all
        }
    };
    tuples
        .iter()
        .map(|t| cols.iter().map(|&c| value_of(t, c)).collect())
        .collect()
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            match x.total_cmp(y) {
                std::cmp::Ordering::Equal => continue,
                o => return o,
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

#[test]
fn executor_matches_reference_on_random_queries() {
    let mut db = build_tpcd(&TpcdConfig {
        scale: 0.001,
        zipf: ZipfSpec::Mixed,
        seed: 31,
    });
    // Indexes so index scans and index nested-loop joins are exercised too.
    datagen::create_tuned_indexes(&mut db);
    let db = db;
    // Statistics present for half the runs so both magic-number plans and
    // statistics-informed plans are exercised.
    let mut catalog = StatsCatalog::new();
    let optimizer = Optimizer::default();
    let mut gen = RagsGenerator::new(&db, 555);
    let mut checked = 0usize;
    for i in 0..40 {
        // Keep reference evaluation tractable: at most 3 relations.
        let ast = gen.gen_query(if i % 3 == 0 {
            Complexity::Simple
        } else {
            Complexity::Complex
        });
        let BoundStatement::Select(q) =
            bind_statement(&db, &Statement::Select(ast.clone())).unwrap()
        else {
            unreachable!()
        };
        if q.relations.len() > 3 {
            continue;
        }
        let product: usize = q
            .relations
            .iter()
            .map(|(t, _)| db.table(*t).row_count().max(1))
            .product();
        if product > 3_000_000 {
            continue;
        }
        if i % 2 == 0 {
            for (t, c) in q.relevant_columns() {
                catalog
                    .create_statistic(&db, StatDescriptor::single(t, c))
                    .unwrap();
            }
        }
        let plan = optimizer
            .optimize(&db, &q, catalog.full_view(), &OptimizeOptions::default())
            .unwrap();
        let out = execute_plan(&db, &q, &plan.plan, &optimizer.params).unwrap();
        let expected = reference_eval(&db, &q);
        assert_eq!(
            sorted(out.rows.clone()),
            sorted(expected),
            "query {i} diverged: {}\nplan:\n{}",
            query::render(&Statement::Select(ast)),
            plan.plan
        );
        checked += 1;
    }
    assert!(checked >= 15, "too few queries were checkable: {checked}");
}
