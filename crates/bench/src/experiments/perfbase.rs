//! Performance baseline: columnar batch execution against the retained
//! reference interpreter, and shared-scan statistic builds against one scan
//! per statistic.
//!
//! Unlike the paper-figure experiments, this one measures the *harness
//! itself*: how fast the deterministic interpreter executes a workload and
//! how fast the catalog builds a round of statistics. Both sides of each
//! pair are alive in the tree — the row-at-a-time reference interpreter
//! ([`executor::execute_plan_reference`]) beside the columnar one, and a
//! serial `create_statistic` loop (the typed builder, a scan per statistic)
//! beside `create_statistics_batch` (the same builder, a scan per table) —
//! so both numbers are measured live in one run and recorded side by side
//! in `BENCH_exec.json`.
//!
//! A third block, `optimize`, is the optimizer's own line in the per-layer
//! budget (ROADMAP item 1): median microseconds per `Optimizer::optimize`
//! call at 2/4/6/8 relations, with and without statistics, and a digest of
//! every plan's cost and cardinality bits. The digest is a pure function of
//! `(scale, seed)`: `--check` compares it exactly, so a change that speeds
//! the optimizer up by planning differently is caught at once.
//!
//! Every timed pair is also verified on the spot: identical `ExecOutput`
//! rows and bit-identical `work` for the two executors, identical catalog
//! snapshots and bit-identical creation work for the two build paths. The
//! speedups are real only because the results are provably the same.

use crate::common::{bind_all, queries_of, ExperimentScale};
use autostats::candidate_statistics;
use datagen::{Complexity, RagsGenerator, WorkloadSpec};
use executor::{execute_plan, execute_plan_observed, execute_plan_reference};
use optimizer::{OptimizeOptions, Optimizer, PlanNode};
use query::BoundSelect;
use stats::{StatDescriptor, StatsCatalog};
use std::time::Instant;
use storage::{Database, TableId};

/// The measured baseline, one struct per run.
#[derive(Debug, Clone)]
pub struct PerfbaseResult {
    pub scale: f64,
    pub queries: usize,
    pub reps: usize,
    /// Median wall-clock milliseconds to execute the workload row-at-a-time
    /// (pre-tentpole path).
    pub exec_reference_ms: f64,
    /// Median wall-clock milliseconds for the columnar batch engine.
    pub exec_columnar_ms: f64,
    /// Milliseconds the columnar engine spent copying answers out: the
    /// `exec.project` spans of the traced verification pass (one pass, not a
    /// median, and with tracing on).
    pub exec_materialize_ms: f64,
    /// Rows the workload returns, summed over its queries.
    pub exec_rows_out: usize,
    /// Total deterministic execution work (identical for both engines,
    /// verified to the bit).
    pub exec_work: f64,
    pub build_tables: usize,
    pub build_statistics: usize,
    /// Median wall-clock milliseconds for one-at-a-time statistic creation.
    pub build_serial_ms: f64,
    /// Median wall-clock milliseconds for shared-scan batched creation.
    pub build_batched_ms: f64,
    /// Total deterministic creation work (identical for both paths,
    /// verified to the bit).
    pub build_creation_work: f64,
    /// One entry per relation count in [`OPTIMIZE_SIZES`].
    pub optimize: Vec<OptimizeTiming>,
    /// FNV-1a over the `est_cost` and `est_rows` bits of every node of every
    /// plan the `optimize` block produced.
    pub optimize_cost_digest: u64,
    /// Span events from the columnar verification pass — exportable
    /// via `obsv::export::to_chrome` so the CI smoke run can schema-check
    /// the trace with `obsv_check`. Not part of the JSON baseline.
    pub trace_events: Vec<obsv::Event>,
}

/// Relation counts the `optimize` block times.
pub const OPTIMIZE_SIZES: [usize; 4] = [2, 4, 6, 8];
/// Queries timed per relation count.
const OPTIMIZE_QUERIES_PER_SIZE: usize = 8;
/// Back-to-back calls per query inside one timed repetition: a single
/// two-relation call takes a few microseconds, too little to time alone.
const OPTIMIZE_CALLS_PER_QUERY: usize = 20;

/// Median cost of one `Optimizer::optimize` call at one relation count.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeTiming {
    pub relations: usize,
    /// Queries of that size the workload generator produced (at most
    /// `OPTIMIZE_QUERIES_PER_SIZE`).
    pub queries: usize,
    /// Microseconds per call under an empty catalog (all magic numbers).
    pub no_stats_us: f64,
    /// Microseconds per call under every candidate statistic of the query.
    pub with_stats_us: f64,
}

impl PerfbaseResult {
    pub fn exec_speedup(&self) -> f64 {
        self.exec_reference_ms / self.exec_columnar_ms.max(1e-9)
    }

    pub fn build_speedup(&self) -> f64 {
        self.build_serial_ms / self.build_batched_ms.max(1e-9)
    }

    /// The whole result as one JSON object (hand-rolled; no serde_json
    /// offline).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"perfbase\",\n",
                "  \"scale\": {},\n",
                "  \"queries\": {},\n",
                "  \"reps\": {},\n",
                "  \"exec\": {{\n",
                "    \"reference_ms\": {:.3},\n",
                "    \"columnar_ms\": {:.3},\n",
                "    \"speedup\": {:.2},\n",
                "    \"materialize_ms\": {:.3},\n",
                "    \"rows_out\": {},\n",
                "    \"work\": {}\n",
                "  }},\n",
                "  \"build\": {{\n",
                "    \"tables\": {},\n",
                "    \"statistics\": {},\n",
                "    \"serial_ms\": {:.3},\n",
                "    \"batched_ms\": {:.3},\n",
                "    \"speedup\": {:.2},\n",
                "    \"creation_work\": {}\n",
                "  }},\n",
                "  \"optimize\": {{\n",
                "    \"calls_per_query\": {},\n",
                "    \"cost_bits_digest\": \"{:#018x}\",\n",
                "    \"per_call\": [\n{}\n    ]\n",
                "  }}\n",
                "}}\n"
            ),
            self.scale,
            self.queries,
            self.reps,
            self.exec_reference_ms,
            self.exec_columnar_ms,
            self.exec_speedup(),
            self.exec_materialize_ms,
            self.exec_rows_out,
            self.exec_work,
            self.build_tables,
            self.build_statistics,
            self.build_serial_ms,
            self.build_batched_ms,
            self.build_speedup(),
            self.build_creation_work,
            OPTIMIZE_CALLS_PER_QUERY,
            self.optimize_cost_digest,
            self.optimize
                .iter()
                .map(|t| format!(
                    "      {{\"relations\": {}, \"queries\": {}, \"no_stats_us\": {:.2}, \"with_stats_us\": {:.2}}}",
                    t.relations, t.queries, t.no_stats_us, t.with_stats_us
                ))
                .collect::<Vec<_>>()
                .join(",\n"),
        )
    }

    pub fn print(&self) {
        println!(
            "exec   ({} queries): reference {:>9.3} ms | columnar {:>9.3} ms | {:>5.2}x  (work {:.0})",
            self.queries,
            self.exec_reference_ms,
            self.exec_columnar_ms,
            self.exec_speedup(),
            self.exec_work
        );
        println!(
            "       materializing {} rows: {:>9.3} ms in exec.project (the traced verification pass)",
            self.exec_rows_out, self.exec_materialize_ms
        );
        let per_stat = |ms: f64| ms / self.build_statistics.max(1) as f64;
        println!(
            "build  ({} stats on {} tables): serial {:>9.3} ms ({:.3} ms/stat) | batched {:>9.3} ms ({:.3} ms/stat) | {:>5.2}x  (work {:.0})",
            self.build_statistics,
            self.build_tables,
            self.build_serial_ms,
            per_stat(self.build_serial_ms),
            self.build_batched_ms,
            per_stat(self.build_batched_ms),
            self.build_speedup(),
            self.build_creation_work
        );
        for t in &self.optimize {
            println!(
                "optimize ({} relations, {} queries): no stats {:>8.2} us/call | with stats {:>8.2} us/call",
                t.relations, t.queries, t.no_stats_us, t.with_stats_us
            );
        }
        println!(
            "optimize cost-bits digest {:#018x}",
            self.optimize_cost_digest
        );
    }
}

/// Milliseconds spent inside spans called `name`: a span is one Begin and
/// one End, so the total is the Ends' timestamps less the Begins'.
fn span_total_ms(events: &[obsv::Event], name: &str) -> f64 {
    let stamps = |kind: obsv::EventKind| -> u64 {
        events
            .iter()
            .filter(|e| e.name == name && e.kind == kind)
            .map(|e| e.ts_ns)
            .sum()
    };
    stamps(obsv::EventKind::End).saturating_sub(stamps(obsv::EventKind::Begin)) as f64 / 1e6
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Compare a fresh result against a previously recorded `BENCH_exec.json`,
/// returning one warning line per deterministic work counter that regressed
/// by more than 25%. Wall-clock medians are not compared — they move with
/// the machine; the work counters may not. `Err` explains why the comparison
/// was skipped (unparseable baseline, different scale or workload).
pub fn check_against(previous_json: &str, current: &PerfbaseResult) -> Result<Vec<String>, String> {
    let prev = obsv::json::parse(previous_json)
        .map_err(|e| format!("previous baseline unparseable: {e}"))?;
    let num = |path: &[&str]| -> Option<f64> {
        let mut v = &prev;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    let prev_scale =
        num(&["scale"]).ok_or_else(|| "previous baseline missing scale".to_string())?;
    let prev_queries =
        num(&["queries"]).ok_or_else(|| "previous baseline missing queries".to_string())?;
    if prev_scale != current.scale || prev_queries != current.queries as f64 {
        return Err(format!(
            "previous baseline is a different run (scale={prev_scale} queries={prev_queries} vs \
             scale={} queries={})",
            current.scale, current.queries
        ));
    }
    let mut warnings = Vec::new();
    for (what, previous, measured) in [
        ("exec work", num(&["exec", "work"]), current.exec_work),
        (
            "build creation work",
            num(&["build", "creation_work"]),
            current.build_creation_work,
        ),
    ] {
        let Some(previous) = previous else { continue };
        if previous > 0.0 && measured > previous * 1.25 {
            warnings.push(format!(
                "{what} regressed {previous:.0} -> {measured:.0} (+{:.1}%, budget 25%)",
                (measured / previous - 1.0) * 100.0
            ));
        }
    }
    // Plans are a pure function of the run's scale and seed: any other
    // digest means the optimizer now plans differently.
    let digest = format!("{:#018x}", current.optimize_cost_digest);
    if let Some(previous) = prev
        .get("optimize")
        .and_then(|o| o.get("cost_bits_digest"))
        .and_then(|d| d.as_str())
    {
        if previous != digest {
            warnings.push(format!(
                "optimize cost-bits digest changed {previous} -> {digest} (must be identical)"
            ));
        }
    }
    Ok(warnings)
}

/// Workload queries with their optimized plans (plan choice is fixed up
/// front so the timed loops measure execution only).
fn planned_workload(
    db: &Database,
    catalog: &StatsCatalog,
    scale: &ExperimentScale,
) -> Vec<(BoundSelect, PlanNode)> {
    let spec = WorkloadSpec::new(0, Complexity::Complex, scale.workload_len).with_seed(scale.seed);
    let bound = bind_all(db, &RagsGenerator::generate(db, &spec));
    let optimizer = Optimizer::default();
    queries_of(&bound)
        .into_iter()
        .filter_map(|q| {
            optimizer
                .optimize(db, &q, catalog.full_view(), &OptimizeOptions::default())
                .ok()
                .map(|o| (q, o.plan))
        })
        .collect()
}

/// Unique candidate descriptors of the workload, grouped per table — the
/// shape of a `CreateAll*` pass or a sequence of MNSA rounds.
fn build_round(queries: &[(BoundSelect, PlanNode)]) -> Vec<(TableId, Vec<StatDescriptor>)> {
    let mut by_table: Vec<(TableId, Vec<StatDescriptor>)> = Vec::new();
    for (q, _) in queries {
        for d in candidate_statistics(q) {
            match by_table.iter_mut().find(|(t, _)| *t == d.table) {
                Some((_, ds)) => {
                    if !ds.contains(&d) {
                        ds.push(d);
                    }
                }
                None => by_table.push((d.table, vec![d])),
            }
        }
    }
    by_table
}

/// Run the baseline at `scale`, timing `reps` repetitions of each side and
/// reporting medians.
pub fn run(scale: &ExperimentScale, reps: usize) -> PerfbaseResult {
    let db = scale.tpcd_mix();

    // Statistics-informed plans: build the workload's candidate set first so
    // the timed plans include index paths and informed join orders.
    let prep = planned_workload(&db, &StatsCatalog::new(), scale);
    let mut catalog = StatsCatalog::new();
    for (q, _) in &prep {
        for d in candidate_statistics(q) {
            let _ = catalog.create_statistic(&db, d);
        }
    }
    let planned = planned_workload(&db, &catalog, scale);
    let optimizer = Optimizer::default();

    // Verify once: identical rows, bit-identical work. The columnar side
    // runs traced (observation-only) so the pass doubles as the source of
    // the exported span events.
    let tracer = obsv::Tracer::enabled();
    let mut exec_work = 0.0;
    let mut exec_rows_out = 0;
    for (q, plan) in &planned {
        let b = execute_plan_observed(
            &db,
            q,
            plan,
            &optimizer.params,
            &tracer,
            &obsv::FeedbackLog::disabled(),
        )
        .expect("columnar executes");
        let r =
            execute_plan_reference(&db, q, plan, &optimizer.params).expect("reference executes");
        assert_eq!(b.rows, r.rows, "row divergence in bench workload");
        assert_eq!(b.work.to_bits(), r.work.to_bits(), "work divergence");
        exec_work += b.work;
        exec_rows_out += b.rows.len();
    }
    let trace_events = tracer.flush();

    let time_all = |f: &dyn Fn(&BoundSelect, &PlanNode)| -> f64 {
        let t0 = Instant::now();
        for (q, plan) in &planned {
            f(q, plan);
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    let mut ref_ms = Vec::with_capacity(reps);
    let mut col_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        ref_ms.push(time_all(&|q, plan| {
            execute_plan_reference(&db, q, plan, &optimizer.params).expect("reference executes");
        }));
        col_ms.push(time_all(&|q, plan| {
            execute_plan(&db, q, plan, &optimizer.params).expect("columnar executes");
        }));
    }
    // Statistics build round: serial one-at-a-time vs shared-scan batches.
    let round = build_round(&planned);
    let n_stats: usize = round.iter().map(|(_, ds)| ds.len()).sum();
    let build_serial = || -> StatsCatalog {
        let mut cat = StatsCatalog::new();
        for (_, ds) in &round {
            for d in ds {
                cat.create_statistic(&db, d.clone()).expect("serial build");
            }
        }
        cat
    };
    let build_batched = || -> StatsCatalog {
        let mut cat = StatsCatalog::new();
        for (table, ds) in &round {
            cat.create_statistics_batch(&db, *table, ds)
                .expect("batched build");
        }
        cat
    };
    // Verify once: identical snapshots, bit-identical creation work.
    let serial_cat = build_serial();
    let batched_cat = build_batched();
    assert_eq!(
        serial_cat.snapshot(),
        batched_cat.snapshot(),
        "batched build diverged from serial"
    );
    assert_eq!(
        serial_cat.creation_work().to_bits(),
        batched_cat.creation_work().to_bits()
    );

    let mut serial_ms = Vec::with_capacity(reps);
    let mut batched_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = build_serial();
        serial_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let _ = build_batched();
        batched_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let (optimize, optimize_cost_digest) = optimize_block(&db, scale.seed, reps);

    PerfbaseResult {
        scale: scale.scale,
        queries: planned.len(),
        reps,
        exec_reference_ms: median(ref_ms),
        exec_columnar_ms: median(col_ms),
        exec_materialize_ms: span_total_ms(&trace_events, "exec.project"),
        exec_rows_out,
        exec_work,
        build_tables: round.len(),
        build_statistics: n_stats,
        build_serial_ms: median(serial_ms),
        build_batched_ms: median(batched_ms),
        build_creation_work: serial_cat.creation_work(),
        optimize,
        optimize_cost_digest,
        trace_events,
    }
}

/// Time `Optimizer::optimize` by relation count: up to
/// [`OPTIMIZE_QUERIES_PER_SIZE`] Rags complex queries of each size in
/// [`OPTIMIZE_SIZES`], under an empty catalog and under all of their
/// candidate statistics. Returns the timings and the cost-bits digest of
/// every plan produced (one untimed pass, sizes ascending, empty catalog
/// first).
fn optimize_block(db: &Database, seed: u64, reps: usize) -> (Vec<OptimizeTiming>, u64) {
    let mut by_size: Vec<Vec<BoundSelect>> = vec![Vec::new(); OPTIMIZE_SIZES.len()];
    let mut gen = RagsGenerator::new(db, seed);
    for _ in 0..4000 {
        let stmt = query::Statement::Select(gen.gen_query(Complexity::Complex));
        for q in queries_of(&bind_all(db, &[stmt])) {
            if let Some(slot) = OPTIMIZE_SIZES.iter().position(|&n| n == q.relations.len()) {
                if by_size[slot].len() < OPTIMIZE_QUERIES_PER_SIZE {
                    by_size[slot].push(q);
                }
            }
        }
        if by_size.iter().all(|b| b.len() == OPTIMIZE_QUERIES_PER_SIZE) {
            break;
        }
    }

    let empty = StatsCatalog::new();
    let mut full = StatsCatalog::new();
    for q in by_size.iter().flatten() {
        for d in candidate_statistics(q) {
            let _ = full.create_statistic(db, d);
        }
    }
    let optimizer = Optimizer::default();
    let options = OptimizeOptions::default();

    let mut digest = optimizer::cache::Fnv::new();
    // One untimed pass feeding the digest, then `reps` timed ones.
    let mut us_per_call = |catalog: &StatsCatalog, queries: &[BoundSelect]| -> f64 {
        for q in queries {
            let planned = optimizer
                .optimize(db, q, catalog.full_view(), &options)
                .expect("bench query optimizes");
            planned.plan.walk(&mut |node| {
                digest
                    .write(node.est_cost.to_bits())
                    .write(node.est_rows.to_bits());
            });
        }
        let calls = (queries.len() * OPTIMIZE_CALLS_PER_QUERY).max(1);
        let samples = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for q in queries {
                    for _ in 0..OPTIMIZE_CALLS_PER_QUERY {
                        let _ = std::hint::black_box(optimizer.optimize(
                            db,
                            std::hint::black_box(q),
                            catalog.full_view(),
                            &options,
                        ));
                    }
                }
                t0.elapsed().as_secs_f64() * 1e6 / calls as f64
            })
            .collect();
        median(samples)
    };
    let timings = OPTIMIZE_SIZES
        .iter()
        .zip(&by_size)
        .map(|(&relations, queries)| OptimizeTiming {
            relations,
            queries: queries.len(),
            no_stats_us: us_per_call(&empty, queries),
            with_stats_us: us_per_call(&full, queries),
        })
        .collect();
    (timings, digest.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfbaseResult {
        PerfbaseResult {
            scale: 0.004,
            queries: 42,
            reps: 5,
            exec_reference_ms: 10.0,
            exec_columnar_ms: 5.0,
            exec_materialize_ms: 2.0,
            exec_rows_out: 300,
            exec_work: 1000.0,
            build_tables: 4,
            build_statistics: 20,
            build_serial_ms: 8.0,
            build_batched_ms: 4.0,
            build_creation_work: 500.0,
            optimize: vec![OptimizeTiming {
                relations: 8,
                queries: 8,
                no_stats_us: 200.0,
                with_stats_us: 220.0,
            }],
            optimize_cost_digest: 0x1234,
            trace_events: Vec::new(),
        }
    }

    #[test]
    fn check_passes_against_own_json() {
        let r = sample();
        assert_eq!(check_against(&r.to_json(), &r), Ok(Vec::new()));
    }

    #[test]
    fn check_warns_on_work_regression() {
        let r = sample();
        let mut worse = r.clone();
        worse.exec_work = r.exec_work * 1.5; // +50%, over the 25% budget
        let warnings = check_against(&r.to_json(), &worse).expect("comparable runs");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("exec work"), "{warnings:?}");
        // Within budget: no warning.
        let mut ok = r.clone();
        ok.build_creation_work = r.build_creation_work * 1.2;
        assert_eq!(check_against(&r.to_json(), &ok), Ok(Vec::new()));
    }

    #[test]
    fn check_flags_any_change_of_the_plan_digest() {
        let r = sample();
        let mut other = r.clone();
        other.optimize_cost_digest ^= 1;
        let warnings = check_against(&r.to_json(), &other).expect("comparable runs");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("digest"), "{warnings:?}");
        // Timings are not compared: they move with the machine.
        let mut slower = r.clone();
        slower.optimize[0].no_stats_us *= 10.0;
        assert_eq!(check_against(&r.to_json(), &slower), Ok(Vec::new()));
    }

    #[test]
    fn check_skips_mismatched_runs() {
        let r = sample();
        let mut other = r.clone();
        other.scale = 0.01;
        assert!(check_against(&r.to_json(), &other).is_err());
        assert!(check_against("not json", &r).is_err());
    }
}
