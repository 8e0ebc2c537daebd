//! The statistic object and its construction from table data.
//!
//! There is one builder, `TableScan`: a pass over every row of one table
//! that reads the typed column slices directly and never boxes a cell into a
//! [`Value`]. The leading column is counted by value once
//! (`ndv::ValueCounts`): its histogram keys, sorts and buckets the distinct
//! values with their row counts, and its density and null fraction come from
//! the same counts. Every longer prefix density is the group count of a
//! partition refining the one before it (`ndv::Groups`). [`build_statistic`]
//! is one statistic from a scan of its own; the catalog keeps one scan per
//! table open across the statistics of a
//! [`create_statistics`](crate::StatsCatalog::create_statistics) call or a
//! refresh so that they share what they have in common. What a build costs
//! is [`build_price`], whichever of them charges it.

use crate::histogram::Histogram;
use crate::mhist::Histogram2d;
use crate::ndv::{Groups, RowKeys, ValueCounts};
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

/// Histogram buckets per statistic, and the ceiling feedback corrections
/// restructure under.
pub const MAX_BUCKETS: usize = 64;

/// How a statistic should be built. Every build reads every row of its
/// table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildOptions {
    /// Also build a Phased 2-D histogram over the first two columns of
    /// multi-column statistics (§3's MHIST reference; off by default since
    /// SQL Server 7.0 carried only the asymmetric histogram+density form).
    pub joint_histograms: bool,
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

/// Deterministic work-unit cost of building a statistic on `n_cols`
/// columns, `col_bytes` wide together, of a table with `rows` rows.
///
/// Model: the builder scans the `rows` rows paying for the referenced column
/// bytes, then sorts the extracted rows once per column of the statistic
/// (`n log n` comparisons each). This makes multi-column statistics and
/// statistics on wide/large tables proportionally more expensive, which is
/// all the paper's relative "statistics creation time" results require.
pub fn build_work(rows: usize, col_bytes: usize, n_cols: usize) -> f64 {
    let n = rows as f64;
    let scan = n * (col_bytes as f64 / 8.0);
    let sort = n_cols as f64 * n * (n.max(2.0)).log2();
    scan + sort
}

/// What building `descriptor` on `table` at its current size is charged:
/// [`build_work`] over the descriptor's column bytes, plus one
/// more sort when it carries a `joint` histogram (the second phase of the
/// Phased construction). Every build and every rebuild estimate is priced
/// here, so a statistic's `build_cost` and
/// [`update_cost_of`](crate::StatsCatalog::update_cost_of) agree.
pub fn build_price(table: &Table, descriptor: &StatDescriptor, joint: bool) -> f64 {
    let rows = table.row_count();
    let col_bytes: usize = descriptor
        .columns
        .iter()
        .map(|&c| table.schema().column(c).data_type.byte_width())
        .sum();
    let work = build_work(rows, col_bytes, descriptor.columns.len());
    if joint {
        work + build_work(rows, 0, 1)
    } else {
        work
    }
}

/// The density of `ndv` distinct values: the fraction of rows per value.
fn density(ndv: f64) -> f64 {
    if ndv <= 0.0 {
        0.0
    } else {
        1.0 / ndv
    }
}

/// Build a [`Statistic`] over `descriptor.columns` of `table`.
pub fn build_statistic(
    id: StatId,
    table: &Table,
    descriptor: StatDescriptor,
    options: &BuildOptions,
    epoch: u64,
) -> Statistic {
    TableScan::new(table, options).build(id, descriptor, epoch)
}

/// One pass over every row of one table that any number of statistics can
/// be built from — the only statistic builder.
///
/// Everything is computed from the typed column slices
/// ([`storage::ColumnData::payload`] and `validity`). The leading column is
/// counted by value ([`ValueCounts`]), with no id per row; only the columns
/// of a multi-column prefix are given a key per row ([`RowKeys`]), and a
/// prefix's partition ([`Groups`]) gives its density. The intermediates are
/// memoized —
///
/// * the histogram, null fraction and density per leading column, all from
///   one counting pass,
/// * the row keys per column of a multi-column prefix,
/// * the row partition per prefix of two or more columns, refining the
///   prefix one column shorter,
/// * the Phased 2-D histogram per leading column pair,
///
/// — so statistics on one table that share leading columns or prefixes (the
/// common case in an MNSA round) pay for each once. What a statistic comes
/// out as does not depend on what the scan served before it, and
/// `build_cost` is charged per statistic as if it had been built alone.
pub(crate) struct TableScan<'a> {
    table: &'a Table,
    joint_histograms: bool,
    /// leading column → (histogram over non-null values, null fraction,
    /// density)
    leading: FxHashMap<usize, (Histogram, f64, f64)>,
    columns: FxHashMap<usize, RowKeys<'a>>,
    /// Prefixes of two or more columns.
    prefixes: FxHashMap<Vec<usize>, Groups>,
    joints: FxHashMap<(usize, usize), Histogram2d>,
    served: usize,
    tally: BuildTally,
}

/// What a scan's passes did since last asked
/// ([`TableScan::take_tally`]).
#[derive(Debug, Default)]
pub(crate) struct BuildTally {
    /// Columns counted by value, with no id per row.
    pub(crate) counted_columns: u64,
    /// Leading columns whose counts the scan found on the column, so that
    /// it counted none of their rows.
    pub(crate) counts_reused: u64,
    /// Rows given an id per row for a multi-column prefix.
    pub(crate) prefix_rows: u64,
}

impl<'a> TableScan<'a> {
    pub(crate) fn new(table: &'a Table, options: &BuildOptions) -> Self {
        TableScan {
            table,
            joint_histograms: options.joint_histograms,
            leading: FxHashMap::default(),
            columns: FxHashMap::default(),
            prefixes: FxHashMap::default(),
            joints: FxHashMap::default(),
            served: 0,
            tally: BuildTally::default(),
        }
    }

    /// Statistics built from this scan so far.
    pub(crate) fn served(&self) -> usize {
        self.served
    }

    /// What the scan did since the last call.
    pub(crate) fn take_tally(&mut self) -> BuildTally {
        std::mem::take(&mut self.tally)
    }

    /// The row keys of `column`.
    fn ensure_column(&mut self, column: usize) {
        if !self.columns.contains_key(&column) {
            let keys = RowKeys::of_column(self.table.column(column));
            self.columns.insert(column, keys);
        }
    }

    /// The row partition by the tuples of `prefix`, two or more columns,
    /// refining the prefix one column shorter.
    fn ensure_prefix(&mut self, prefix: &[usize]) {
        if self.prefixes.contains_key(prefix) {
            return;
        }
        let Some((&last, head)) = prefix.split_last() else {
            return;
        };
        self.ensure_column(last);
        let groups = if let &[lead] = head {
            self.ensure_column(lead);
            Groups::refine(&self.columns[&lead], &self.columns[&last])
        } else {
            self.ensure_prefix(head);
            Groups::refine(self.prefixes[head].keys(), &self.columns[&last])
        };
        self.tally.prefix_rows += self.table.row_count() as u64;
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
        for k in 2..=descriptor.columns.len() {
            self.ensure_prefix(&descriptor.columns[..k]);
        }

        // Leading column: histogram over non-null values, null fraction and
        // density, from one count of its values.
        let lead = descriptor.leading_column();
        if !self.leading.contains_key(&lead) {
            let counts = ValueCounts::of_column(self.table.column(lead));
            if counts.reused() {
                self.tally.counts_reused += 1;
            } else {
                self.tally.counted_columns += 1;
            }
            let histogram = Histogram::from_counts(&counts, MAX_BUCKETS);
            let null_fraction = if total_rows == 0 {
                0.0
            } else {
                counts.nulls() as f64 / total_rows as f64
            };
            let density = density(counts.ndv());
            self.leading
                .insert(lead, (histogram, null_fraction, density));
        }
        let (histogram, null_fraction, lead_density) = self.leading[&lead].clone();

        let prefix_densities = std::iter::once(lead_density)
            .chain(
                (2..=descriptor.columns.len())
                    .map(|k| density(self.prefixes[&descriptor.columns[..k]].ndv())),
            )
            .collect();

        // Optional joint (2-D) histogram over the first two columns, the one
        // structure still built from `Value`s.
        let joint = if self.joint_histograms && descriptor.columns.len() >= 2 {
            let pair = (descriptor.columns[0], descriptor.columns[1]);
            if !self.joints.contains_key(&pair) {
                let values = |c: usize| -> Vec<Value> {
                    let col = self.table.column(c);
                    (0..total_rows).map(|r| col.get(r)).collect()
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
        let build_cost = build_price(self.table, &descriptor, joint.is_some());

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
        build_statistic(StatId(0), &table(), desc, &BuildOptions::default(), 0)
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

    /// A table of no rows and one of a single row, NULL or not, still give
    /// statistics whose densities, null fraction, selectivities and cost are
    /// finite and in range.
    #[test]
    fn empty_and_one_row_tables_give_valid_statistics() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int).nullable(),
            ColumnDef::new("b", DataType::Str),
            ColumnDef::new("c", DataType::Float),
        ]);
        let one = |a: Value| vec![a, Value::from("x"), Value::Float(0.5)];
        for rows in [vec![], vec![one(Value::Int(7))], vec![one(Value::Null)]] {
            let mut t = Table::new("t", schema.clone());
            for row in rows {
                t.insert(row).unwrap();
            }
            for columns in [vec![0], vec![1], vec![2], vec![0, 1, 2], vec![2, 0]] {
                let descriptor = StatDescriptor::multi(TableId(0), columns);
                let options = BuildOptions::default().with_joint_histograms();
                let s = build_statistic(StatId(0), &t, descriptor, &options, 0);
                assert!((0.0..=1.0).contains(&s.null_fraction), "{s:?}");
                for &d in &s.prefix_densities {
                    assert!(d.is_finite() && (0.0..=1.0).contains(&d), "{s:?}");
                }
                for v in [Value::Int(7), Value::from("x"), Value::Float(0.5)] {
                    let sel = s.histogram.selectivity_le(&v);
                    assert!((0.0..=1.0).contains(&sel), "{s:?}");
                }
                assert!(s.build_cost.is_finite() && s.build_cost >= 0.0);
            }
        }
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
