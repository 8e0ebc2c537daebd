//! The join enumerator's contract (DESIGN.md, "Join enumeration"): which
//! splits it visits, in which order, and how ties break decide every plan
//! the system runs, so a rewrite of the enumerator must reproduce every
//! plan bit for bit. The digest and every pinned signature below were
//! recorded on the commit before the allocation-free enumerator (PR 14's
//! parent) and must not change.

use autostats::policy::{apply_policy, CreationPolicy};
use datagen::{build_tpcd, create_tuned_indexes, Complexity, RagsGenerator, TpcdConfig, ZipfSpec};
use optimizer::cache::Fnv;
use optimizer::{
    Operator, OptimizeOptions, OptimizedQuery, Optimizer, PlanError, PlanNode, MAX_DP_RELATIONS,
};
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement, Statement};
use stats::StatsCatalog;
use storage::{ColumnDef, DataType, Database, Schema, Value};

/// Everything a caller can observe of one optimizer call: the rendered
/// tree, every node's operator and estimate bits, the magic variables and
/// the selectivity profile's values.
fn digest_into(h: &mut Fnv, q: &BoundSelect, r: &OptimizedQuery) {
    h.write_bytes(r.plan.to_string().as_bytes());
    r.plan.walk(&mut |n| {
        h.write_bytes(format!("{:?}", n.op).as_bytes())
            .write(n.est_cost.to_bits())
            .write(n.est_rows.to_bits());
    });
    h.write(r.cost.to_bits())
        .write_bytes(format!("{:?}", r.magic_variables).as_bytes());
    for id in q.predicate_ids() {
        h.write(r.profile.value(id).to_bits());
    }
}

fn bind_select(db: &Database, stmt: &Statement) -> BoundSelect {
    match bind_statement(db, stmt).unwrap() {
        BoundStatement::Select(q) => q,
        _ => panic!("not a select"),
    }
}

fn bind(db: &Database, sql: &str) -> BoundSelect {
    bind_select(db, &parse_statement(sql).unwrap())
}

fn plan(db: &Database, sql: &str) -> OptimizedQuery {
    let q = bind(db, sql);
    Optimizer::default()
        .optimize(
            db,
            &q,
            StatsCatalog::new().full_view(),
            &OptimizeOptions::default(),
        )
        .unwrap()
}

/// The plan's structure and its cost to the bit, as one comparable string.
fn pinned(r: &OptimizedQuery) -> String {
    format!("{} @ {:#018x}", r.plan.signature(), r.cost.to_bits())
}

fn join_names(plan: &PlanNode) -> Vec<&'static str> {
    plan.nodes()
        .iter()
        .filter(|n| n.op.is_join())
        .map(|n| n.op.name())
        .collect()
}

/// 60 seeded Rags complex queries (≤ 8 tables) over a TPC-D database with
/// and without the 13 tuned indexes, each optimized under an empty
/// catalog, the all-candidates catalog, and MNSA's two probes (every
/// variable injected at ε and at 1 − ε).
#[test]
fn plan_digest_matches_parent_commit() {
    const EPSILON: f64 = 0.0005;
    let optimizer = Optimizer::default();
    let mut h = Fnv::new();
    let mut joins: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut widest = 0;
    for indexed in [false, true] {
        let mut db = build_tpcd(&TpcdConfig {
            scale: 0.002,
            zipf: ZipfSpec::Mixed,
            seed: 13,
        });
        if indexed {
            create_tuned_indexes(&mut db);
        }
        let mut gen = RagsGenerator::new(&db, 1401);
        let queries: Vec<BoundSelect> = (0..60)
            .map(|_| bind_select(&db, &Statement::Select(gen.gen_query(Complexity::Complex))))
            .collect();
        let empty = StatsCatalog::new();
        let mut all = StatsCatalog::new();
        for q in &queries {
            apply_policy(&db, &mut all, &CreationPolicy::CreateAllCandidates, q).unwrap();
        }
        for q in &queries {
            widest = widest.max(q.relations.len());
            let vars = q.predicate_ids();
            let runs = [
                (&empty, OptimizeOptions::default()),
                (&all, OptimizeOptions::default()),
                (&empty, OptimizeOptions::inject_all(&vars, EPSILON)),
                (&empty, OptimizeOptions::inject_all(&vars, 1.0 - EPSILON)),
            ];
            for (catalog, options) in &runs {
                let r = optimizer
                    .optimize(&db, q, catalog.full_view(), options)
                    .unwrap();
                for name in join_names(&r.plan) {
                    *joins.entry(name).or_default() += 1;
                }
                digest_into(&mut h, q, &r);
            }
        }
    }
    // The workload reaches the widest query class and three of the four
    // join operators (a merge join wins only between inputs of about three
    // rows; `small_filtered_inputs_prefer_merge_join` covers it).
    assert_eq!(widest, 8);
    for op in ["HashJoin", "IndexNLJoin", "NestedLoopJoin"] {
        assert!(joins.contains_key(op), "no {op} in {joins:?}");
    }
    let h = h.finish();
    assert_eq!(
        h, 0x8570_6e45_4bbd_3061,
        "plan digest {h:#018x} over {joins:?}"
    );
}

/// Tables `t0..tN` with columns `(k, fk, v)`; table `i` has `rows[i]` rows.
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

fn from_list(n: usize) -> String {
    (0..n)
        .map(|t| format!("t{t}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn chain_sql(n: usize) -> String {
    let conds: Vec<String> = (1..n)
        .map(|t| format!("t{}.fk = t{}.k", t - 1, t))
        .collect();
    format!(
        "SELECT * FROM {} WHERE {}",
        from_list(n),
        conds.join(" AND ")
    )
}

/// No join edge at all: only the cartesian pass produces plans, every join
/// is an edge-less nested loop, and the cheapest product order is found.
#[test]
fn fully_disconnected_query_is_all_cartesian_nested_loops() {
    let db = tables(&[40, 5, 300]);
    let r = plan(&db, "SELECT * FROM t0, t1, t2");
    assert_eq!(
        pinned(&r),
        "nl[][nl[][seq(1;[]),seq(0;[])],seq(2;[])] @ 0x40f02b1000000000"
    );
    for n in r.plan.nodes().iter().filter(|n| n.op.is_join()) {
        assert!(matches!(&n.op, Operator::NestedLoopJoin { edges } if edges.is_empty()));
    }
    assert_eq!(r.plan.est_rows, 40.0 * 5.0 * 300.0);
}

/// Two components `t0–t1` and `t2–t3` meet in exactly one cartesian
/// product, and it need not be the top join: the product of the two small
/// tables is a disconnected subset that still gets a plan, and the rest
/// joins onto it edge by edge.
#[test]
fn two_components_meet_in_one_cartesian_product() {
    let db = tables(&[200, 30, 150, 20]);
    let r = plan(
        &db,
        "SELECT * FROM t0, t1, t2, t3 WHERE t0.fk = t1.k AND t2.fk = t3.k",
    );
    assert_eq!(
        pinned(&r),
        "hj[0][hj[1][nl[][seq(3;[]),seq(1;[])],seq(2;[])],seq(0;[])] @ 0x40df658000000000"
    );
    let cartesian = r
        .plan
        .nodes()
        .iter()
        .filter(|n| matches!(&n.op, Operator::NestedLoopJoin { edges } if edges.is_empty()))
        .count();
    assert_eq!(cartesian, 1);
}

/// Every pair of six relations joined: all 15 edges appear exactly once
/// across the five joins, each at the lowest join that spans it.
#[test]
fn six_clique_places_every_edge_once() {
    let db = tables(&[90, 10, 400, 35, 8, 120]);
    let mut conds = Vec::new();
    for a in 0..6 {
        for b in a + 1..6 {
            conds.push(format!("t{a}.fk = t{b}.k"));
        }
    }
    let r = plan(
        &db,
        &format!(
            "SELECT * FROM {} WHERE {}",
            from_list(6),
            conds.join(" AND ")
        ),
    );
    assert_eq!(
        pinned(&r),
        "nl[1, 5, 9, 10, 11][nl[4, 8, 13, 14][hj[0, 2, 3][seq(0;[]),hj[6, 12][seq(3;[]),hj[7][seq(1;[]),seq(4;[])]]],seq(5;[])],seq(2;[])] @ 0x408afda4df139389"
    );
    let mut edges: Vec<usize> = r
        .plan
        .nodes()
        .iter()
        .flat_map(|n| match &n.op {
            Operator::HashJoin { edges }
            | Operator::MergeJoin { edges }
            | Operator::NestedLoopJoin { edges }
            | Operator::IndexNLJoin { edges, .. } => edges.clone(),
            _ => Vec::new(),
        })
        .collect();
    edges.sort_unstable();
    assert_eq!(edges, (0..15).collect::<Vec<_>>());
}

/// A small hub probing a large indexed spoke: the index nested-loop join
/// wins, keeps the index's name, and has the outer input as its only child.
#[test]
fn star_with_indexed_spoke_uses_index_nested_loop() {
    let mut db = tables(&[1, 1000, 5]);
    let spoke = db.table_id("t1").unwrap();
    db.create_index("idx_t1_v", spoke, vec![2]).unwrap();
    db.create_index("idx_t1_k", spoke, vec![0]).unwrap();
    let r = plan(
        &db,
        "SELECT * FROM t0, t1, t2 WHERE t0.fk = t1.k AND t0.k = t2.fk",
    );
    assert_eq!(
        pinned(&r),
        "inl(1;idx_t1_k;[0];[])[nl[1][seq(0;[]),seq(2;[])]] @ 0x407a30cccccccccd"
    );
    let inl: Vec<&PlanNode> = r
        .plan
        .nodes()
        .into_iter()
        .filter(|n| matches!(n.op, Operator::IndexNLJoin { .. }))
        .collect();
    assert_eq!(inl.len(), 1);
    assert_eq!(inl[0].children.len(), 1);
    match &inl[0].op {
        Operator::IndexNLJoin {
            index,
            inner_rel,
            inner_table,
            edges,
            ..
        } => {
            assert_eq!(index, "idx_t1_k");
            assert_eq!((*inner_rel, *inner_table), (1, spoke));
            assert_eq!(edges, &vec![0]);
        }
        _ => unreachable!(),
    }
}

/// One edge carrying two column pairs, the index on the second pair's
/// column: the probe finds it through any pair of a crossing edge.
#[test]
fn multi_pair_edge_probes_index_on_any_pair() {
    let mut db = tables(&[4, 3000]);
    let big = db.table_id("t1").unwrap();
    db.create_index("idx_t1_fk", big, vec![1]).unwrap();
    let q = bind(
        &db,
        "SELECT * FROM t0, t1 WHERE t0.k = t1.k AND t0.fk = t1.fk",
    );
    assert_eq!(q.join_edges.len(), 1);
    assert_eq!(q.join_edges[0].pairs.len(), 2);
    let r = plan(
        &db,
        "SELECT * FROM t0, t1 WHERE t0.k = t1.k AND t0.fk = t1.fk",
    );
    assert_eq!(
        pinned(&r),
        "inl(1;idx_t1_fk;[0];[])[seq(0;[])] @ 0x40b35c0000000000"
    );
}

/// The same table bound twice is two relations with one raw row count.
#[test]
fn same_table_bound_twice() {
    let mut db = tables(&[2000, 12]);
    let t0 = db.table_id("t0").unwrap();
    db.create_index("idx_t0_k", t0, vec![0]).unwrap();
    let r = plan(
        &db,
        "SELECT * FROM t0 a, t0 b, t1 WHERE a.fk = b.k AND t1.fk = a.k AND t1.v = 1",
    );
    assert_eq!(
        pinned(&r),
        "hj[0][seq(1;[]),inl(0;idx_t0_k;[1];[])[seq(2;[0])]] @ 0x40c4deccccccccce"
    );
}

/// Two inputs filtered down to three rows each out of thirty: sorting six
/// rows is cheaper than building a hash table, and rescanning thirty rows
/// per outer row rules the nested loop out.
#[test]
fn small_filtered_inputs_prefer_merge_join() {
    let db = tables(&[30, 30]);
    let r = plan(
        &db,
        "SELECT * FROM t0, t1 WHERE t0.fk = t1.k AND t0.v = 1 AND t1.v = 2",
    );
    assert_eq!(
        pinned(&r),
        "mj[0][seq(1;[1]),seq(0;[0])] @ 0x40513c59018fda4a"
    );
    assert_eq!(join_names(&r.plan), vec!["MergeJoin"]);
}

/// Every table empty: scans cost nothing, every cardinality is zero, so
/// hash and nested-loop joins of every split tie at cost 0 and the first
/// split considered (largest left mask, hash join) must win at every level.
#[test]
fn all_tie_keeps_the_first_split_considered() {
    let db = tables(&[0, 0, 0, 0]);
    let r = plan(&db, &chain_sql(4));
    assert_eq!(
        pinned(&r),
        "hj[0][hj[1][hj[2][seq(3;[]),seq(2;[])],seq(1;[])],seq(0;[])] @ 0x0000000000000000"
    );
    assert_eq!(r.cost, 0.0);
    assert_eq!(join_names(&r.plan), vec!["HashJoin"; 3]);
}

/// `MAX_DP_RELATIONS` is the one relation cap, and it is inclusive: a chain
/// of that many tables plans, one more is refused, and so is a query past
/// the mask width (33 relations used to overflow `1u32 << n`).
#[test]
fn relation_limits() {
    let empty = StatsCatalog::new();
    let db = tables(&[9; MAX_DP_RELATIONS]);
    let at = bind(&db, &chain_sql(MAX_DP_RELATIONS));
    let r = Optimizer::default()
        .optimize(&db, &at, empty.full_view(), &OptimizeOptions::default())
        .unwrap();
    assert_eq!(join_names(&r.plan).len(), MAX_DP_RELATIONS - 1);

    for n in [MAX_DP_RELATIONS + 1, 33] {
        let db = tables(&vec![1; n]);
        let q = bind(&db, &chain_sql(n));
        assert_eq!(
            Optimizer::default()
                .optimize(&db, &q, empty.full_view(), &OptimizeOptions::default())
                .unwrap_err(),
            PlanError::TooManyRelations {
                n,
                max: MAX_DP_RELATIONS
            }
        );
    }
}
