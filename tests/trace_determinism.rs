//! The observability cost contract, tested differentially: **enabling
//! tracing may never change a tuning outcome.**
//!
//! Catalogs (descriptors, `StatId`s, drop-lists, work meters), tuning
//! reports, session journals, and the plans the optimizer picks afterwards
//! must be bit-identical with tracing on vs off, and the untraced tuner must
//! reproduce a recorded session. On top of that, every flushed trace must be
//! structurally well-formed — all spans closed, children enclosed by their
//! parents, monotone sequence numbers — including under the fault-injection
//! schedules of `tests/fault_injection.rs`, where tuning takes its error
//! paths and spans unwind through early returns.

use autostats::{Fault, FaultPlan, MnsaConfig, MnsaEngine, OfflineTuner};
use datagen::{build_tpcd, Complexity, RagsGenerator, TpcdConfig, WorkloadSpec, ZipfSpec};
use obsv::trace::validate;
use obsv::Obs;
use optimizer::{OptimizeOptions, Optimizer};
use proptest::prelude::*;
use query::{bind_statement, parse_statement, BoundSelect, BoundStatement};
use stats::{StatDescriptor, StatsCatalog};
use storage::{ColumnDef, DataType, Database, Fnv, Schema, TableId, Value};

fn test_db(scale: f64, seed: u64) -> Database {
    build_tpcd(&TpcdConfig {
        scale,
        zipf: ZipfSpec::Mixed,
        seed,
    })
}

fn workload(db: &Database, n: usize, seed: u64) -> Vec<BoundSelect> {
    let spec = WorkloadSpec::new(0, Complexity::Complex, n).with_seed(seed);
    RagsGenerator::generate(db, &spec)
        .iter()
        .filter_map(|stmt| match bind_statement(db, stmt) {
            Ok(BoundStatement::Select(q)) => Some(q),
            _ => None,
        })
        .collect()
}

/// Catalog state relevant to equivalence: active descriptors with their
/// ids, plus the drop-list, plus the creation-work meter (bit-compared).
fn catalog_state(catalog: &StatsCatalog) -> (Vec<(u32, StatDescriptor)>, Vec<u32>, u64) {
    let mut active: Vec<(u32, StatDescriptor)> = catalog
        .active()
        .map(|s| (s.id.0, s.descriptor.clone()))
        .collect();
    active.sort_by_key(|(id, _)| *id);
    (
        active,
        catalog.drop_list().map(|id| id.0).collect(),
        catalog.creation_work().to_bits(),
    )
}

/// One full offline tuning session under `obs`, returning everything an
/// outcome comparison cares about: final catalog state, report, journal,
/// and the (fingerprint, cost-bits) of every plan picked afterwards.
type SessionFingerprint = (
    (Vec<(u32, StatDescriptor)>, Vec<u32>, u64),
    autostats::TuningReport,
    autostats::SessionReport,
    Vec<(u64, u64)>,
);

fn tune_under(db: &Database, queries: &[BoundSelect], obs: &Obs) -> SessionFingerprint {
    let mut catalog = StatsCatalog::new();
    catalog.set_obs(obs);
    let (report, session) = OfflineTuner::default()
        .tune_session(db, &mut catalog, queries, obs)
        .expect("tuning succeeds");
    let optimizer = Optimizer::default();
    let plans = queries
        .iter()
        .map(|q| {
            let r = optimizer
                .optimize(db, q, catalog.full_view(), &OptimizeOptions::default())
                .expect("tuned catalog optimizes");
            (r.plan.structural_fingerprint(), r.cost.to_bits())
        })
        .collect();
    (catalog_state(&catalog), report, session, plans)
}

#[test]
fn tracing_on_off_and_thread_counts_bit_identical() {
    let db = test_db(0.004, 7);
    let queries = workload(&db, 14, 11);
    assert!(
        queries.len() > 4,
        "workload generator produced too few queries"
    );

    let reference = tune_under(&db, &queries, &Obs::disabled());

    let obs = Obs::enabled();
    let traced = tune_under(&db, &queries, &obs);
    assert_eq!(reference.0, traced.0, "catalog divergence with tracing on");
    assert_eq!(reference.1, traced.1, "report divergence with tracing on");
    assert_eq!(reference.2, traced.2, "journal divergence with tracing on");
    assert_eq!(reference.3, traced.3, "plan divergence with tracing on");

    // And the trace the run produced is non-trivial and well-formed.
    let events = obs.tracer.flush();
    assert!(
        events.iter().any(|e| e.name == "tuner.session")
            && events.iter().any(|e| e.name == "mnsa.query")
            && events.iter().any(|e| e.name == "optimizer.call")
            && events.iter().any(|e| e.name == "shrink.run"),
        "expected span taxonomy missing"
    );
    let defects = validate(&events);
    assert!(defects.is_empty(), "malformed trace: {defects:?}");
}

/// The `offline-tune` benchmark inputs (TPC-D 0.02, `U0-C-1000`, seed 7):
/// a change detector for the one tuning path. First recorded before the
/// parallel and memoized tuning paths were removed, and re-recorded when
/// the join enumerator stopped planning subsets whose join graph is
/// disconnected (132 more optimizer calls, the same 47 statistics created
/// and 3 drop-listed).
#[test]
fn offline_tune_reproduces_its_recorded_session() {
    let db = test_db(0.02, 7);
    let queries = workload(&db, 1000, 7);
    assert_eq!(queries.len(), 1000);
    let digest = |text: String| Fnv::new().write_bytes(text.as_bytes()).finish();

    let (catalog, report, session, _) = tune_under(&db, &queries, &Obs::disabled());
    assert_eq!(report.optimizer_calls, 3926);
    assert_eq!(report.statistics_created, 47);
    assert_eq!(report.statistics_drop_listed, 3);
    assert_eq!(catalog.0.len(), 44, "active statistics");
    assert_eq!(digest(session.to_json()), 0x03b0_7e47_27d0_e9a4);

    let outcomes = MnsaEngine::new(MnsaConfig::default())
        .run_workload(&db, &mut StatsCatalog::new(), &queries)
        .expect("tuning succeeds");
    assert_eq!(digest(format!("{outcomes:?}")), 0xc897_0c68_2920_4577);
}

#[test]
fn metrics_counters_agree_with_outcomes() {
    // The registry is shared observability state, not the source of truth —
    // but its counters must agree exactly with the accumulated outcome
    // totals.
    let db = test_db(0.004, 13);
    let queries = workload(&db, 10, 17);
    let obs = Obs::enabled();
    let (_, report, session, _) = tune_under(&db, &queries, &obs);

    let snapshot = obs.metrics.snapshot();
    let counter = |name: &str| match snapshot.entries.get(name) {
        Some(obsv::MetricValue::Counter(v)) => *v as usize,
        other => panic!("metric {name} missing or wrong kind: {other:?}"),
    };
    assert_eq!(
        counter("mnsa.optimizer_calls") + counter("shrink.optimizer_calls"),
        report.optimizer_calls,
        "optimizer-call counters disagree with the report"
    );
    assert_eq!(counter("mnsa.queries"), queries.len());
    assert_eq!(counter("mnsa.stats_created"), report.statistics_created);
    assert_eq!(counter("shrink.removed"), session.shrink_removed);
}

// ---- fault-injection schedules (mirrors tests/fault_injection.rs) ----

fn build_small_db(rows: usize) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "facts",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ]),
        )
        .unwrap();
    let d = db
        .create_table(
            "dim",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("label", DataType::Str),
            ]),
        )
        .unwrap();
    for i in 0..rows as i64 {
        db.table_mut(t)
            .insert(vec![
                Value::Int(i % 40),
                Value::Int(if i % 50 == 0 { 1 } else { 0 }),
                Value::Int(i % 7),
            ])
            .unwrap();
    }
    for i in 0..(rows as i64 / 10).max(1) {
        db.table_mut(d)
            .insert(vec![Value::Int(i), Value::Str(format!("x{i}").into())])
            .unwrap();
    }
    db
}

fn small_workload(db: &Database) -> Vec<BoundSelect> {
    [
        "SELECT * FROM facts WHERE a = 1",
        "SELECT * FROM facts, dim WHERE facts.k = dim.k AND a = 1",
        "SELECT b, COUNT(*) FROM facts WHERE a = 1 GROUP BY b",
        "SELECT * FROM facts WHERE b < 3 AND a = 0",
    ]
    .iter()
    .map(
        |sql| match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => unreachable!(),
        },
    )
    .collect()
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::TruncateTable(TableId(0))),
        Just(Fault::TruncateTable(TableId(1))),
        Just(Fault::TruncateTable(TableId(99))), // unknown table
        Just(Fault::TruncateAllTables),
        Just(Fault::DropAllStatistics),
    ]
}

fn arb_plan() -> impl Strategy<Value = Vec<Fault>> {
    prop::collection::vec(arb_fault(), 0..4)
}

/// One fault-injected tuning sequence: per-query MNSA/D with faults between
/// queries, then an offline pass. Returns the final catalog state; errors
/// along the way are tolerated (that is the point), panics are not.
fn faulted_sequence(
    pre: &[Fault],
    mid: &[Fault],
    rows: usize,
    obs: &Obs,
) -> (Vec<(u32, StatDescriptor)>, Vec<u32>, u64) {
    let mut db = build_small_db(rows);
    let queries = small_workload(&db);
    let mut catalog = StatsCatalog::new();
    catalog.set_obs(obs);

    let pre_plan = pre.iter().fold(FaultPlan::new(), |p, f| p.with(f.clone()));
    pre_plan.inject(&mut db, &mut catalog);

    let engine = MnsaEngine::new(MnsaConfig::default().with_drop_detection()).with_obs(obs.clone());
    let mid_plan = mid.iter().fold(FaultPlan::new(), |p, f| p.with(f.clone()));
    for (i, q) in queries.iter().enumerate() {
        let _ = engine.run_query(&db, &mut catalog, q);
        if i == 1 {
            mid_plan.inject(&mut db, &mut catalog);
        }
    }
    let _ = OfflineTuner::default().tune_session(&db, &mut catalog, &queries, obs);
    catalog_state(&catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary fault schedules, the flushed span tree stays
    /// well-formed (spans unwind through error paths via RAII) and the
    /// tuning outcome stays bit-identical to the untraced run of the same
    /// schedule.
    #[test]
    fn traces_well_formed_and_outcomes_unchanged_under_faults(
        pre in arb_plan(),
        mid in arb_plan(),
        rows in 0usize..300,
    ) {
        let untraced = faulted_sequence(&pre, &mid, rows, &Obs::disabled());

        let obs = Obs::enabled();
        let traced = faulted_sequence(&pre, &mid, rows, &obs);
        prop_assert_eq!(untraced, traced);

        let events = obs.tracer.flush();
        let defects = validate(&events);
        prop_assert!(defects.is_empty(), "trace defects under faults: {:?}", defects);
    }
}
