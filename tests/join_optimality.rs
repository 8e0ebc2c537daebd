//! The join enumerator is optimal over its search space: on every
//! generated query its plan's join tree lies in that space, every node's
//! estimates are its children's priced by `CostParams` to the bit, and its
//! cost equals, to the bit, the cheapest of every join tree the brute-force
//! search in `tests/support` prices one by one.
//!
//! The queries join 2–5 relations: Rags complex queries over TPC-D, the
//! adversarial star and snowflake, random join graphs with cycles, a
//! disconnected graph and an edge-less one, each with indexes and without,
//! under the default profile and with every variable injected at ε and at
//! 1 − ε (MNSA's probes). A debug build checks at least 300 queries, a
//! release build at least 2 000.

mod support;

use datagen::{
    adversarial_queries, build_adversarial, build_tpcd, create_tuned_indexes, AdversarialConfig,
    Complexity, RagsGenerator, Regime, TpcdConfig, ZipfSpec,
};
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement, Statement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, Value};
use support::join_oracle::{join_tree, JoinSpace};

const EPSILON: f64 = 0.0005;

/// Queries of each generated family: a release build checks the larger
/// count.
fn scaled(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn bind_select(db: &Database, stmt: &Statement) -> Option<BoundSelect> {
    match bind_statement(db, stmt) {
        Ok(BoundStatement::Select(q)) => Some(q),
        _ => None,
    }
}

fn bind(db: &Database, sql: &str) -> BoundSelect {
    bind_select(db, &parse_statement(sql).unwrap()).expect("a SELECT")
}

/// Plans `q` under the default profile and MNSA's two probes and holds
/// each plan to the brute-force search: a tree outside the search space or
/// priced off its children panics, a cost above the cheapest tree's is
/// pushed onto `misses`.
fn check(db: &Database, q: &BoundSelect, label: &str, misses: &mut Vec<String>) {
    let optimizer = Optimizer::default();
    let empty = StatsCatalog::new();
    let vars = q.predicate_ids();
    for (name, options) in [
        ("default", OptimizeOptions::default()),
        ("ε", OptimizeOptions::inject_all(&vars, EPSILON)),
        ("1 − ε", OptimizeOptions::inject_all(&vars, 1.0 - EPSILON)),
    ] {
        let profile = optimizer.profile(db, empty.full_view(), q, &options);
        let space = JoinSpace::new(db, q, &profile);
        let plan = optimizer.plan(db, q, profile).unwrap().plan;
        let tree = join_tree(&plan);
        let context = format!("{label} under {name}: {}", plan.signature());
        let covered = space.check_tree(tree, &context);
        assert_eq!(
            covered,
            (1 << q.relations.len()) - 1,
            "{context}: relations"
        );
        let cheapest = space.cheapest();
        if tree.est_cost.to_bits() != cheapest.to_bits() {
            misses.push(format!("{context}: {} > {cheapest}", tree.est_cost));
        }
    }
}

/// A small xorshift stream: the generated graphs do not depend on any
/// library's random numbers.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Tables `t0..t4` with columns `(k, fk, v)`, `rows[i]` rows each, `k`
/// unique, `fk` in `0..7`, `v` in `0..3`.
fn tables(rows: &[i64]) -> Database {
    let mut db = Database::new();
    for (t, &n) in rows.iter().enumerate() {
        let id = db
            .create_table(
                format!("t{t}"),
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("fk", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..n {
            db.table_mut(id)
                .insert(vec![Value::Int(i), Value::Int(i % 7), Value::Int(i % 3)])
                .unwrap();
        }
    }
    db
}

/// A random connected join graph over `n` of the tables (a random spanning
/// tree plus extra edges, so most graphs have cycles), with a random
/// selection on some relations.
fn random_graph_sql(rng: &mut Rng, n: usize) -> String {
    const COLS: [&str; 3] = ["k", "fk", "v"];
    let mut conds = Vec::new();
    for t in 1..n {
        let other = rng.below(t);
        conds.push(format!(
            "t{t}.{} = t{other}.{}",
            COLS[rng.below(3)],
            COLS[rng.below(3)]
        ));
    }
    for _ in 0..rng.below(n + 1) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            conds.push(format!("t{a}.fk = t{b}.k"));
        }
    }
    for t in 0..n {
        match rng.below(4) {
            0 => conds.push(format!("t{t}.v = {}", rng.below(3))),
            1 => conds.push(format!("t{t}.k < {}", rng.below(60))),
            _ => {}
        }
    }
    let from: Vec<String> = (0..n).map(|t| format!("t{t}")).collect();
    format!(
        "SELECT * FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    )
}

/// The same tables, sharing their columns, with no index.
fn without_indexes(db: &Database) -> Database {
    let mut bare = Database::new();
    for id in db.table_ids() {
        let table = db.shared_table(id);
        let copy = bare
            .create_table(table.name(), table.schema().clone())
            .unwrap();
        bare.set_shared_table(copy, table);
    }
    bare
}

fn assert_no_misses(misses: &[String], checked: usize) {
    assert!(
        misses.is_empty(),
        "{} of {} plans ({checked} queries, three profiles each) cost more than the \
         cheapest tree; first: {}",
        misses.len(),
        3 * checked,
        misses[0]
    );
}

#[test]
fn rags_queries_over_tpcd_plan_the_cheapest_tree() {
    let mut checked = 0;
    let mut misses = Vec::new();
    for indexed in [false, true] {
        let mut db = build_tpcd(&TpcdConfig {
            scale: 0.002,
            zipf: ZipfSpec::Mixed,
            seed: 13,
        });
        if indexed {
            create_tuned_indexes(&mut db);
        }
        let mut gen = RagsGenerator::new(&db, 49);
        let wanted = scaled(60, 300);
        let mut kept = 0;
        while kept < wanted {
            let stmt = Statement::Select(gen.gen_query(Complexity::Complex));
            let Some(q) = bind_select(&db, &stmt) else {
                continue;
            };
            if !(2..=5).contains(&q.relations.len()) {
                continue;
            }
            check(&db, &q, &format!("rags #{kept}"), &mut misses);
            kept += 1;
        }
        checked += kept;
    }
    assert_no_misses(&misses, checked);
}

#[test]
fn adversarial_stars_plan_the_cheapest_tree() {
    let mut checked = 0;
    let mut misses = Vec::new();
    for snowflake in [false, true] {
        let cfg = AdversarialConfig {
            snowflake,
            ..AdversarialConfig::tiny()
        };
        let indexed = build_adversarial(&cfg, Regime::Star);
        for db in [without_indexes(&indexed), indexed] {
            for (i, stmt) in adversarial_queries(&db, &cfg, Regime::Star, scaled(25, 125))
                .into_iter()
                .enumerate()
            {
                let q = bind_select(&db, &Statement::Select(stmt)).expect("star queries bind");
                assert!((2..=5).contains(&q.relations.len()), "{i}");
                check(&db, &q, &format!("star #{i}"), &mut misses);
                checked += 1;
            }
        }
    }
    assert_no_misses(&misses, checked);
}

#[test]
fn random_graphs_with_cycles_plan_the_cheapest_tree() {
    let mut rng = Rng(0x005E_ED0F_C0FF_EE00);
    let mut checked = 0;
    let mut misses = Vec::new();
    for round in 0..scaled(100, 1000) {
        let rows: Vec<i64> = (0..5)
            .map(|_| [0, 1, 3, 12, 40, 200, 900][rng.below(7)])
            .collect();
        let mut db = tables(&rows);
        for t in 0..5 {
            // Indexes on no column, on the key, or on the foreign key.
            let id = db.table_id(&format!("t{t}")).unwrap();
            let col = rng.below(3);
            if col > 0 {
                db.create_index(format!("ix_t{t}"), id, vec![col - 1])
                    .unwrap();
            }
        }
        let n = 2 + rng.below(4);
        let sql = random_graph_sql(&mut rng, n);
        check(
            &db,
            &bind(&db, &sql),
            &format!("graph #{round} {sql}"),
            &mut misses,
        );
        checked += 1;
    }
    assert_no_misses(&misses, checked);
}

/// A disconnected graph joins whole components by cartesian products, and
/// an edge-less one is all cartesian products; both are held to the search.
#[test]
fn disconnected_and_edge_less_graphs_plan_the_cheapest_tree() {
    let mut misses = Vec::new();
    for indexed in [false, true] {
        let mut db = tables(&[200, 30, 150, 20, 7]);
        if indexed {
            for t in 0..5 {
                let id = db.table_id(&format!("t{t}")).unwrap();
                db.create_index(format!("ix_t{t}"), id, vec![0]).unwrap();
            }
        }
        for sql in [
            "SELECT * FROM t0, t1, t2, t3, t4 WHERE t0.fk = t1.k AND t2.fk = t3.k AND t1.v = 1",
            "SELECT * FROM t0, t1, t2, t3 WHERE t0.fk = t1.k AND t1.fk = t2.k AND t3.v = 2",
            "SELECT * FROM t0, t1, t2, t3, t4",
        ] {
            check(&db, &bind(&db, sql), sql, &mut misses);
        }
    }
    assert_no_misses(&misses, 6);
}
