//! The statistic object and its construction from table data.
//!
//! There is one builder, `TableScan`: a pass over a fixed set of rows of
//! one table — all of them, or one statistic's seeded sample — that reads
//! the typed column slices directly and never boxes a cell into a
//! [`Value`]. Each column is partitioned by value once (`ndv::Groups`): the
//! leading column's histogram keys, sorts and buckets the distinct values
//! with their group sizes, and every prefix density is the group count of a
//! partition refining the one before it. [`build_statistic`] is one
//! statistic from a scan of its own; the catalog keeps a full scan open
//! across the statistics of a batch or a refresh so that they share what
//! they have in common.

use crate::histogram::Histogram;
use crate::mhist::Histogram2d;
use crate::ndv::Groups;
use crate::sampler::{iter_rows, SampleSpec};
use rustc_hash::FxHashMap;
use std::fmt;
use storage::{Table, TableId, Value};

/// Identifier of a statistic within a [`StatsCatalog`](crate::StatsCatalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatId(pub u32);

impl fmt::Display for StatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// What a statistic is *on*: a table and an ordered column list. Two
/// statistics with the same descriptor are the same statistic for the
/// purposes of candidate matching and the aging registry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatDescriptor {
    pub table: TableId,
    /// Column ordinals, leading column first. Single-column statistics have
    /// exactly one entry.
    pub columns: Vec<usize>,
}

impl StatDescriptor {
    pub fn single(table: TableId, column: usize) -> Self {
        StatDescriptor {
            table,
            columns: vec![column],
        }
    }

    pub fn multi(table: TableId, columns: Vec<usize>) -> Self {
        assert!(!columns.is_empty());
        StatDescriptor { table, columns }
    }

    pub fn leading_column(&self) -> usize {
        self.columns[0]
    }

    pub fn is_multi_column(&self) -> bool {
        self.columns.len() > 1
    }

    /// True if equality predicates on exactly `set` (unordered) can be
    /// answered by a prefix density of this statistic: `set` must equal the
    /// set of the first `set.len()` columns.
    pub fn prefix_covers_set(&self, set: &[usize]) -> bool {
        if set.is_empty() || set.len() > self.columns.len() {
            return false;
        }
        let prefix = &self.columns[..set.len()];
        set.iter().all(|c| prefix.contains(c)) && prefix.iter().all(|c| set.contains(c))
    }
}

/// How a statistic should be built.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOptions {
    /// Histogram buckets per statistic, and the ceiling feedback corrections
    /// restructure under.
    pub max_buckets: usize,
    pub sample: SampleSpec,
    /// Also build a Phased 2-D histogram over the first two columns of
    /// multi-column statistics (§3's MHIST reference; off by default since
    /// SQL Server 7.0 carried only the asymmetric histogram+density form).
    pub joint_histograms: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            max_buckets: 64,
            sample: SampleSpec::FullScan,
            joint_histograms: false,
        }
    }
}

impl BuildOptions {
    /// Enable Phased 2-D histograms on multi-column statistics.
    pub fn with_joint_histograms(mut self) -> Self {
        self.joint_histograms = true;
        self
    }
}

/// A built statistic: histogram on the leading column plus density
/// information on every leading prefix — the SQL Server 7.0 asymmetric
/// multi-column structure described in §7.1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Statistic {
    pub id: StatId,
    pub descriptor: StatDescriptor,
    /// Histogram over the leading column's non-null values.
    pub histogram: Histogram,
    /// `prefix_densities[k-1]` = average fraction of rows per distinct
    /// combination of the first `k` columns, i.e. `1 / NDV(prefix_k)`.
    pub prefix_densities: Vec<f64>,
    /// Fraction of rows where the leading column is NULL.
    pub null_fraction: f64,
    /// Table row count at build time.
    pub row_count_at_build: usize,
    /// Deterministic work units spent building this statistic.
    pub build_cost: f64,
    /// Times this statistic has been updated since creation (drives the
    /// auto-drop policy of §6).
    pub update_count: u32,
    /// Value of the table's row-modification counter when this statistic was
    /// (re)built. Staleness is `counter_now - mods_at_build`, so two
    /// statistics on one table age independently instead of sharing an
    /// all-or-nothing counter reset.
    pub mods_at_build: u64,
    /// Catalog epoch at which this statistic was created.
    pub created_epoch: u64,
    /// Optional Phased 2-D histogram over the first two columns (only on
    /// multi-column statistics built with `joint_histograms`).
    pub joint: Option<Histogram2d>,
}

impl Statistic {
    /// NDV of the leading `k`-column prefix implied by the stored density.
    pub fn prefix_ndv(&self, k: usize) -> f64 {
        let d = self.prefix_densities[k - 1];
        if d <= 0.0 {
            0.0
        } else {
            1.0 / d
        }
    }

    /// NDV of the leading column.
    pub fn leading_ndv(&self) -> f64 {
        self.histogram.ndv()
    }
}

/// Deterministic work-unit cost of building a statistic on `columns` of a
/// table with `rows` rows, reading `rows_read` of them.
///
/// Model: the builder scans `rows_read` rows paying for the referenced column
/// bytes, then sorts the extracted rows once per column of the statistic
/// (`n log n` comparisons each). This makes multi-column statistics and
/// statistics on wide/large tables proportionally more expensive, which is
/// all the paper's relative "statistics creation time" results require.
pub fn build_work(rows_read: usize, col_bytes: usize, n_cols: usize) -> f64 {
    let n = rows_read as f64;
    let scan = n * (col_bytes as f64 / 8.0);
    let sort = n_cols as f64 * n * (n.max(2.0)).log2();
    scan + sort
}

/// Build a [`Statistic`] over `descriptor.columns` of `table`.
///
/// `seed` keys the row sample so rebuilds are reproducible but different
/// statistics draw different samples (see module docs of [`crate::sampler`]).
pub fn build_statistic(
    id: StatId,
    table: &Table,
    descriptor: StatDescriptor,
    options: &BuildOptions,
    seed: u64,
    epoch: u64,
) -> Statistic {
    let sample = (options.sample != SampleSpec::FullScan)
        .then(|| options.sample.pick_rows(table.row_count(), seed));
    TableScan::new(table, options, sample.as_deref()).build(id, descriptor, epoch)
}

/// One pass over a fixed set of rows of one table that any number of
/// statistics can be built from — the only statistic builder.
///
/// Everything is computed from the typed column slices
/// ([`storage::ColumnData::payload`] and `validity`) through a dense group
/// id per row ([`Groups`]): a column's partition by value gives the leading
/// column's histogram its distinct values and their row counts, a prefix's
/// partition its density. The intermediates are memoized —
///
/// * the histogram and null fraction per leading column,
/// * the row partition per column prefix (a one-column prefix is the
///   column's value codes; a longer one refines the prefix before it),
/// * the Phased 2-D histogram per leading column pair,
///
/// — so statistics on one table that share leading columns or prefixes (the
/// common case in an MNSA round) pay for each once. What a statistic comes
/// out as does not depend on what the scan served before it, and
/// `build_cost` is charged per statistic as if it had been built alone.
///
/// `rows` is the ascending sample to read, `None` for every row. A scan is
/// shared only under [`SampleSpec::FullScan`]: each sampled statistic draws
/// its own rows from its own seed, so it gets a scan of its own.
pub(crate) struct TableScan<'a> {
    table: &'a Table,
    options: BuildOptions,
    rows: Option<&'a [usize]>,
    /// leading column → (histogram over non-null values, null fraction)
    leading: FxHashMap<usize, (Histogram, f64)>,
    prefixes: FxHashMap<Vec<usize>, Groups>,
    joints: FxHashMap<(usize, usize), Histogram2d>,
    served: usize,
}

impl<'a> TableScan<'a> {
    pub(crate) fn new(table: &'a Table, options: &BuildOptions, rows: Option<&'a [usize]>) -> Self {
        TableScan {
            table,
            options: options.clone(),
            rows,
            leading: FxHashMap::default(),
            prefixes: FxHashMap::default(),
            joints: FxHashMap::default(),
            served: 0,
        }
    }

    /// Statistics built from this scan so far.
    pub(crate) fn served(&self) -> usize {
        self.served
    }

    /// The row partition by the tuples of `prefix`, built on the partition
    /// of the prefix one column shorter.
    fn ensure_prefix(&mut self, prefix: &[usize]) {
        if self.prefixes.contains_key(prefix) {
            return;
        }
        let Some((&last, head)) = prefix.split_last() else {
            return;
        };
        let groups = if head.is_empty() {
            Groups::of_column(self.table.column(last), self.rows)
        } else {
            self.ensure_prefix(head);
            self.ensure_prefix(&[last]);
            self.prefixes[head].refine(&self.prefixes[&[last][..]])
        };
        self.prefixes.insert(prefix.to_vec(), groups);
    }

    /// Build one statistic. The caller must have validated the descriptor
    /// (non-empty, in-range columns) as
    /// [`StatsCatalog::create_statistic`](crate::StatsCatalog::create_statistic)
    /// does.
    pub(crate) fn build(
        &mut self,
        id: StatId,
        descriptor: StatDescriptor,
        epoch: u64,
    ) -> Statistic {
        let total_rows = self.table.row_count();
        let rows_read = self.rows.map_or(total_rows, <[usize]>::len);
        let sampled = rows_read < total_rows;
        for k in 1..=descriptor.columns.len() {
            self.ensure_prefix(&descriptor.columns[..k]);
        }

        // Leading column: histogram over non-null values + null fraction.
        let lead = descriptor.leading_column();
        if !self.leading.contains_key(&lead) {
            let groups = &self.prefixes[&[lead][..]];
            let (mut histogram, non_null) = Histogram::from_groups(
                self.table.column(lead),
                self.rows,
                groups,
                self.options.max_buckets,
            );
            let null_fraction = if rows_read == 0 {
                0.0
            } else {
                (rows_read - non_null) as f64 / rows_read as f64
            };
            // Scale the sample NDV up to the table with the jackknife
            // estimator; a full scan's own distinct count is exact.
            if sampled {
                histogram.set_ndv(groups.non_null_ndv(total_rows));
            }
            self.leading.insert(lead, (histogram, null_fraction));
        }
        let (histogram, null_fraction) = self.leading[&lead].clone();

        let prefix_densities = (1..=descriptor.columns.len())
            .map(|k| {
                let ndv = self.prefixes[&descriptor.columns[..k]].ndv(total_rows);
                if ndv <= 0.0 {
                    0.0
                } else {
                    1.0 / ndv
                }
            })
            .collect();

        // Optional joint (2-D) histogram over the first two columns, the one
        // structure still built from `Value`s.
        let joint = if self.options.joint_histograms && descriptor.columns.len() >= 2 {
            let pair = (descriptor.columns[0], descriptor.columns[1]);
            if !self.joints.contains_key(&pair) {
                let values = |c: usize| -> Vec<Value> {
                    let col = self.table.column(c);
                    iter_rows(self.rows, total_rows)
                        .map(|r| col.get(r))
                        .collect()
                };
                let h = Histogram2d::build(&values(pair.0), &values(pair.1), 16, 8);
                self.joints.insert(pair, h);
            }
            Some(self.joints[&pair].clone())
        } else {
            None
        };

        // Work is charged per statistic exactly as a standalone build would:
        // the shared pass is a wall-clock optimization, not a discount in
        // the deterministic cost model.
        let col_bytes: usize = descriptor
            .columns
            .iter()
            .map(|&c| self.table.schema().column(c).data_type.byte_width())
            .sum();
        let mut build_cost = build_work(rows_read, col_bytes, descriptor.columns.len());
        if joint.is_some() {
            // The second phase of the Phased construction is one more sort.
            build_cost += build_work(rows_read, 0, 1);
        }

        self.served += 1;
        Statistic {
            id,
            descriptor,
            histogram,
            prefix_densities,
            null_fraction,
            row_count_at_build: total_rows,
            build_cost,
            update_count: 0,
            mods_at_build: self.table.modification_counter(),
            created_epoch: epoch,
            joint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema};

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
                ColumnDef::new("c", DataType::Int).nullable(),
            ]),
        );
        for i in 0..1000i64 {
            let c = if i % 10 == 0 {
                Value::Null
            } else {
                Value::Int(i % 7)
            };
            t.insert(vec![Value::Int(i % 100), Value::Int(i % 4), c])
                .unwrap();
        }
        t
    }

    fn build(desc: StatDescriptor) -> Statistic {
        build_statistic(StatId(0), &table(), desc, &BuildOptions::default(), 7, 0)
    }

    #[test]
    fn single_column_statistic() {
        let t = table();
        let s = build(StatDescriptor::single(TableId(0), 0));
        assert_eq!(s.leading_ndv(), 100.0);
        assert_eq!(s.prefix_densities.len(), 1);
        assert!((s.prefix_densities[0] - 0.01).abs() < 1e-9);
        assert_eq!(s.row_count_at_build, t.row_count());
        assert_eq!(s.null_fraction, 0.0);
    }

    #[test]
    fn multi_column_prefix_densities() {
        let s = build(StatDescriptor::multi(TableId(0), vec![0, 1]));
        // a has 100 distincts; (a, b): i%100 determines i%4 unless 100 % 4 !=0
        // 100 is divisible by 4 so (i%100, i%4) has exactly 100 combinations.
        assert_eq!(s.prefix_ndv(1), 100.0);
        assert_eq!(s.prefix_ndv(2), 100.0);
    }

    #[test]
    fn null_fraction_measured() {
        let s = build(StatDescriptor::single(TableId(0), 2));
        assert!((s.null_fraction - 0.1).abs() < 1e-9);
        assert_eq!(s.leading_ndv(), 7.0);
    }

    #[test]
    fn sampled_build_costs_less() {
        let t = table();
        let full = build_statistic(
            StatId(0),
            &t,
            StatDescriptor::single(TableId(0), 0),
            &BuildOptions::default(),
            1,
            0,
        );
        let sampled = build_statistic(
            StatId(1),
            &t,
            StatDescriptor::single(TableId(0), 0),
            &BuildOptions {
                sample: SampleSpec::Fraction {
                    fraction: 0.1,
                    min_rows: 10,
                },
                ..Default::default()
            },
            1,
            0,
        );
        assert!(sampled.build_cost < full.build_cost / 5.0);
        // Sampled NDV estimate should be in a sane band around 100.
        assert!(sampled.leading_ndv() >= 50.0 && sampled.leading_ndv() <= 400.0);
    }

    #[test]
    fn prefix_covers_set_semantics() {
        let d = StatDescriptor::multi(TableId(0), vec![2, 0, 1]);
        assert!(d.prefix_covers_set(&[2]));
        assert!(d.prefix_covers_set(&[0, 2]));
        assert!(d.prefix_covers_set(&[1, 0, 2]));
        assert!(!d.prefix_covers_set(&[0]));
        assert!(!d.prefix_covers_set(&[0, 1]));
        assert!(!d.prefix_covers_set(&[]));
        assert!(!d.prefix_covers_set(&[0, 1, 2, 3]));
    }

    #[test]
    fn build_work_scales_with_columns_and_rows() {
        assert!(build_work(1000, 8, 2) > build_work(1000, 8, 1));
        assert!(build_work(2000, 8, 1) > 2.0 * build_work(1000, 8, 1) * 0.9);
        assert!(build_work(0, 8, 1) == 0.0);
    }
}
