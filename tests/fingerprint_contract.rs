//! `BoundSelect::fingerprint` keys the workload monitor's templates, the
//! plan memo's entries and the optimizer cache. It is a structural hash, and
//! it must split queries exactly where their `Debug` renderings split (the
//! key it replaced): on generated bound queries, on every SELECT the system
//! benchmark's four workloads send, and on the 17 TPC-D queries.

use datagen::{
    build_tpcd, tpcd_benchmark_queries, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec,
    ZipfSpec,
};
use query::{
    bind_select, AggFunc, BoundAggregate, BoundColumn, BoundSelect, CmpOp, JoinEdge, OutputItem,
    PredOp, Projection, SelectionPredicate, Statement,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use storage::{TableId, Value};

/// Asserts that, over `queries`, two share a fingerprint exactly when they
/// share a `Debug` rendering; returns how many distinct renderings there
/// were.
fn assert_contract(what: &str, queries: impl IntoIterator<Item = BoundSelect>) -> usize {
    let mut by_text: HashMap<String, u64> = HashMap::new();
    let mut by_fp: HashMap<u64, String> = HashMap::new();
    for q in queries {
        let text = format!("{q:?}");
        let fp = q.fingerprint();
        if let Some(&seen) = by_text.get(&text) {
            assert_eq!(seen, fp, "{what}: one rendering, two fingerprints: {text}");
        }
        match by_fp.entry(fp) {
            Entry::Occupied(e) => {
                assert_eq!(e.get(), &text, "{what}: two renderings share {fp:#x}")
            }
            Entry::Vacant(e) => {
                e.insert(text.clone());
            }
        }
        by_text.insert(text, fp);
    }
    by_text.len()
}

/// The literals queries are drawn with: every type tag, an equal number
/// under three of them, both zeros, three NaNs of different bits (which
/// `Debug` prints alike) and strings a byte apart. 15 distinct renderings.
fn literals() -> Vec<Value> {
    let nan = f64::NAN;
    vec![
        Value::Null,
        Value::Int(2),
        Value::Int(-1),
        Value::Int(0),
        Value::Float(2.0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(nan),
        Value::Float(-nan),
        Value::Float(f64::from_bits(nan.to_bits() | 1)),
        Value::Date(2),
        Value::Date(-1),
        Value::Str("".into()),
        Value::Str("a".into()),
        Value::Str("b".into()),
        Value::Str("ab".into()),
        Value::Str("a\u{e9}".into()),
    ]
}

/// SplitMix64: a seeded stream of draws.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Draws) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| item(self)).collect()
    }

    fn column(&mut self) -> BoundColumn {
        BoundColumn::new(self.below(2), self.below(2))
    }

    fn literal(&mut self) -> Value {
        let domain = literals();
        domain[self.below(domain.len())].clone()
    }

    fn query(&mut self) -> BoundSelect {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        const FUNCS: [AggFunc; 5] = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        const NAMES: [&str; 4] = ["a", "b", "ab", ""];
        let relations = (0..1 + self.below(2))
            .map(|_| {
                (
                    TableId(self.below(2) as u32),
                    NAMES[self.below(4)].to_string(),
                )
            })
            .collect();
        let projection = match self.below(3) {
            0 => Projection::Star,
            1 => Projection::Columns(self.vec(2, Draws::column)),
            _ => Projection::Grouped(self.vec(2, |d| match d.below(2) {
                0 => OutputItem::Key(d.below(2)),
                _ => OutputItem::Aggregate(d.below(2)),
            })),
        };
        BoundSelect {
            relations,
            projection,
            aggregates: self.vec(1, |d| BoundAggregate {
                func: FUNCS[d.below(5)],
                input: (d.below(2) == 0).then(|| d.column()),
            }),
            selections: self.vec(2, |d| SelectionPredicate {
                column: d.column(),
                op: match d.below(4) {
                    0 => PredOp::Between(d.literal(), d.literal()),
                    _ => PredOp::Cmp(OPS[d.below(6)], d.literal()),
                },
            }),
            join_edges: self.vec(1, |d| JoinEdge {
                left_rel: d.below(2),
                right_rel: d.below(2),
                pairs: d.vec(2, |d| (d.below(2), d.below(2))),
            }),
            group_by: self.vec(1, Draws::column),
            order_by: self.vec(1, |d| (d.column(), d.below(2) == 0)),
        }
    }
}

#[test]
fn generated_queries_split_exactly_where_their_renderings_split() {
    let mut draws = Draws(11);
    let queries: Vec<BoundSelect> = (0..20_000).map(|_| draws.query()).collect();
    assert_contract("generated", queries.iter().cloned());
    // Queries that differ in one literal only, every literal case against
    // every other: each query's first predicate set to each literal in turn
    // gives 15 renderings, and so must give 15 fingerprints.
    let with_selection = queries.iter().filter(|q| !q.selections.is_empty());
    let mut varied = Vec::new();
    for q in with_selection.clone().take(2_000) {
        for v in literals() {
            let mut q = q.clone();
            q.selections[0].op = PredOp::Cmp(CmpOp::Eq, v);
            varied.push(q);
        }
    }
    let bases = assert_contract(
        "bases",
        with_selection.take(2_000).map(|q| {
            let mut q = q.clone();
            q.selections[0].op = PredOp::Cmp(CmpOp::Eq, Value::Null);
            q
        }),
    );
    assert_eq!(assert_contract("one literal varied", varied), bases * 15);
}

/// Every SELECT the system benchmark's four workloads send at `--seconds 20`
/// (universe 7), and the 17 TPC-D queries. The workloads' counts of distinct
/// templates are ROADMAP's: 197, 200, 8 615 and 999.
#[test]
fn workload_and_tpcd_queries_split_exactly_where_their_renderings_split() {
    let workloads = [
        ("steady-simple", 0.005, 0, Complexity::Simple, 200, 197),
        ("steady-complex", 0.001, 0, Complexity::Complex, 200, 200),
        ("online-mixed", 0.005, 25, Complexity::Simple, 12_000, 8_615),
        ("offline-tune", 0.02, 0, Complexity::Complex, 1000, 999),
    ];
    for (name, scale, update_pct, complexity, count, templates) in workloads {
        let db = build_tpcd(&TpcdConfig {
            scale,
            zipf: ZipfSpec::Mixed,
            seed: 7,
        });
        let spec = WorkloadSpec::new(update_pct, complexity, count).with_seed(7);
        let selects =
            RagsGenerator::generate(&db, &spec)
                .into_iter()
                .filter_map(|stmt| match stmt {
                    Statement::Select(q) => Some(bind_select(&db, &q).expect("binds")),
                    _ => None,
                });
        assert_eq!(assert_contract(name, selects), templates, "{name}");
    }
    let db = build_tpcd(&TpcdConfig {
        scale: 0.004,
        zipf: ZipfSpec::Mixed,
        seed: 42,
    });
    let tpcd = tpcd_benchmark_queries()
        .iter()
        .map(|q| bind_select(&db, q).expect("binds"))
        .collect::<Vec<_>>();
    assert_eq!(assert_contract("TPC-D", tpcd), 17);
}
