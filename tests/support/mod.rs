//! Oracles: the slow, obviously right code the library shipped before a
//! faster kernel replaced it, kept verbatim to hold the kernel to. Do not
//! optimise them.
//!
//! * [`build_statistic_oracle`] (`tests/stat_build_equivalence.rs`) is the
//!   `Value`-boxed statistic builder the typed column scan
//!   (`stats::statistic::TableScan`) replaced: every cell is read into a
//!   `Value`, the leading column goes through `Histogram::build` and
//!   `estimate_ndv`, and each prefix density counts `Vec<&Value>` tuples in
//!   a hash map.
//! * [`join_selectivity_oracle`] (`tests/histogram_properties.rs`) is the
//!   loop over all `B_a × B_b` bucket pairs that `stats::join_selectivity`'s
//!   sorted sweep replaced.
//! * [`shrinking_set_oracle`] (`tests/shrinking_known_plans.rs`) is Figure
//!   2's loop as it was before `autostats::shrinking_set_traced` learned to
//!   skip `plan` for a profile it has already planned: every reference and
//!   every trial is a full `Optimizer::optimize`.

// Each test file that mounts this module uses one of them.
#![allow(dead_code)]

use autostats::{Equivalence, ShrinkingOutcome};
use optimizer::{OptimizeOptions, OptimizedQuery, Optimizer, PlanError};
use query::BoundSelect;
use rustc_hash::FxHashMap;
use stats::histogram::Bucket;
use stats::statistic::build_work;
use stats::{
    estimate_ndv, BuildOptions, Histogram, Histogram2d, StatDescriptor, StatId, Statistic,
    StatsCatalog,
};
use std::collections::HashSet;
use storage::{Database, Table, TableId, Value};

/// Build a [`Statistic`] over `descriptor.columns` of `table`, reading the
/// rows `options.sample` picks under `seed`.
pub fn build_statistic_oracle(
    id: StatId,
    table: &Table,
    descriptor: StatDescriptor,
    options: &BuildOptions,
    seed: u64,
    epoch: u64,
) -> Statistic {
    let total_rows = table.row_count();
    let rows = options.sample.pick_rows(total_rows, seed);
    let rows_read = rows.len();

    // Extract sampled column values.
    let mut cols: Vec<Vec<Value>> = Vec::with_capacity(descriptor.columns.len());
    for &c in &descriptor.columns {
        let mut vals = Vec::with_capacity(rows_read);
        for &r in &rows {
            vals.push(table.value(r, c));
        }
        cols.push(vals);
    }

    // Leading column: histogram over non-null values + null fraction.
    let leading: Vec<Value> = cols[0].iter().filter(|v| !v.is_null()).cloned().collect();
    let null_fraction = if rows_read == 0 {
        0.0
    } else {
        (rows_read - leading.len()) as f64 / rows_read as f64
    };
    let mut histogram = Histogram::build(&leading, options.max_buckets);
    // Scale the sample NDV up to the table with the jackknife estimator.
    if rows_read < total_rows {
        histogram.set_ndv(estimate_ndv(&leading, total_rows));
    }

    // Prefix densities.
    let mut prefix_densities = Vec::with_capacity(descriptor.columns.len());
    for k in 1..=descriptor.columns.len() {
        let slices: Vec<&[Value]> = cols[..k].iter().map(|c| c.as_slice()).collect();
        let ndv = estimate_tuple_ndv(&slices, total_rows);
        prefix_densities.push(if ndv <= 0.0 { 0.0 } else { 1.0 / ndv });
    }

    // Optional joint (2-D) histogram over the first two columns.
    let joint = if options.joint_histograms && descriptor.columns.len() >= 2 {
        Some(Histogram2d::build(&cols[0], &cols[1], 16, 8))
    } else {
        None
    };

    let col_bytes: usize = descriptor
        .columns
        .iter()
        .map(|&c| table.schema().column(c).data_type.byte_width())
        .sum();
    let mut build_cost = build_work(rows_read, col_bytes, descriptor.columns.len());
    if joint.is_some() {
        // The second phase of the Phased construction is one more sort.
        build_cost += build_work(rows_read, 0, 1);
    }

    Statistic {
        id,
        descriptor,
        histogram,
        prefix_densities,
        null_fraction,
        row_count_at_build: total_rows,
        build_cost,
        update_count: 0,
        mods_at_build: table.modification_counter(),
        created_epoch: epoch,
        joint,
    }
}

/// Estimate the NDV of value *tuples* (multi-column combinations) from
/// parallel sample columns: `columns[c][i]` is column `c` of sample row `i`.
fn estimate_tuple_ndv(columns: &[&[Value]], total_rows: usize) -> f64 {
    if columns.is_empty() || columns[0].is_empty() {
        return 0.0;
    }
    let n = columns[0].len();
    debug_assert!(columns.iter().all(|c| c.len() == n));
    let mut freq: FxHashMap<Vec<&Value>, usize> =
        FxHashMap::with_capacity_and_hasher(n, Default::default());
    for i in 0..n {
        let tuple: Vec<&Value> = columns.iter().map(|c| &c[i]).collect();
        *freq.entry(tuple).or_insert(0) += 1;
    }
    let d = freq.len() as f64;
    if n >= total_rows {
        return d;
    }
    let f1 = freq.values().filter(|&&c| c == 1).count() as f64;
    let q = n as f64 / total_rows as f64;
    let denom = 1.0 - f1 * (1.0 - q) / n as f64;
    let est = if denom <= 0.0 {
        total_rows as f64
    } else {
        d / denom
    };
    est.clamp(d, total_rows as f64)
}

/// The string prefix a histogram stripped before keying, as its `Debug`
/// rendering shows it (the field is private, and last).
fn str_prefix(h: &Histogram) -> String {
    let rendered = format!("{h:?}");
    let (_, prefix) = rendered.rsplit_once("str_prefix: ").unwrap();
    prefix.to_string()
}

/// Equi-join selectivity of two histograms, every bucket of `a` against
/// every bucket of `b`.
pub fn join_selectivity_oracle(a: &Histogram, b: &Histogram) -> f64 {
    if a.rows() == 0.0 || b.rows() == 0.0 {
        return 0.0;
    }
    if str_prefix(a) != str_prefix(b) {
        return (1.0 / a.ndv().max(b.ndv()).max(1.0)).clamp(0.0, 1.0);
    }
    let mut sel = 0.0;
    for ba in a.buckets() {
        for bb in b.buckets() {
            let lo = ba.lo.max(bb.lo);
            let hi = ba.hi.min(bb.hi);
            if hi < lo {
                continue;
            }
            let count_in = |b: &Bucket| -> f64 {
                let w = b.hi - b.lo;
                let d = b.distinct.max(1.0);
                if w <= 0.0 {
                    return d;
                }
                let s = w / (d - 1.0).max(1.0);
                (d * ((hi - lo) + s) / (w + s)).min(d)
            };
            let common = count_in(ba).min(count_in(bb));
            if common <= 0.0 {
                continue;
            }
            let mass_a = ba.fraction / ba.distinct.max(1.0);
            let mass_b = bb.fraction / bb.distinct.max(1.0);
            sel += common * mass_a * mass_b;
        }
    }
    if sel.is_nan() {
        0.0
    } else {
        sel.clamp(0.0, 1.0)
    }
}

/// Is statistic `stat` potentially relevant to a query with the given
/// relevant `(table, column)` set?
fn potentially_relevant(
    catalog: &StatsCatalog,
    stat: StatId,
    relevant: &[(TableId, usize)],
) -> bool {
    catalog.statistic(stat).is_some_and(|s| {
        s.descriptor
            .columns
            .iter()
            .any(|&c| relevant.contains(&(s.descriptor.table, c)))
    })
}

/// Shrinking-Set(W, S) per Figure 2, iterated to a fixed point, optimizing
/// every reference and every trial in full.
pub fn shrinking_set_oracle(
    db: &Database,
    catalog: &mut StatsCatalog,
    optimizer: &Optimizer,
    workload: &[BoundSelect],
    initial: &[StatId],
    equivalence: Equivalence,
    apply: bool,
) -> Result<ShrinkingOutcome, PlanError> {
    let all_active: HashSet<StatId> = catalog.active_ids().into_iter().collect();
    let initial_set: HashSet<StatId> = initial.iter().copied().collect();
    let base_ignore: HashSet<StatId> = all_active.difference(&initial_set).copied().collect();

    let mut calls = 0usize;
    let mut optimize = |catalog: &StatsCatalog,
                        q: &BoundSelect,
                        ignore: &HashSet<StatId>|
     -> Result<OptimizedQuery, PlanError> {
        calls += 1;
        optimizer.optimize(db, q, catalog.view(ignore), &OptimizeOptions::default())
    };

    let reference: Vec<OptimizedQuery> = workload
        .iter()
        .map(|q| optimize(catalog, q, &base_ignore))
        .collect::<Result<_, _>>()?;

    let relevant: Vec<Vec<(TableId, usize)>> =
        workload.iter().map(|q| q.relevant_columns()).collect();

    let mut r: Vec<StatId> = initial.to_vec();
    let mut removed: Vec<StatId> = Vec::new();
    let mut ignore = base_ignore.clone();
    loop {
        let mut removed_this_pass = false;
        for &s in &r.clone() {
            ignore.insert(s);
            let mut removable = true;
            for (qi, q) in workload.iter().enumerate() {
                if !potentially_relevant(catalog, s, &relevant[qi]) {
                    continue;
                }
                let trial = optimize(catalog, q, &ignore)?;
                if !equivalence.equivalent(&trial, &reference[qi]) {
                    removable = false;
                    break;
                }
            }
            if removable {
                r.retain(|&x| x != s);
                removed.push(s);
                removed_this_pass = true;
            } else {
                ignore.remove(&s);
            }
        }
        if !removed_this_pass {
            break;
        }
    }

    if apply {
        for &s in &removed {
            catalog.move_to_drop_list(s);
        }
    }
    Ok(ShrinkingOutcome {
        essential: r,
        removed,
        optimizer_calls: calls,
    })
}
