//! The statistics catalog: creation, lookup, ignore-views, the drop-list,
//! aging, snapshots and the join-selectivity memo. What happens to a
//! statistic after it is built — refresh, auto-drop — is
//! [`crate::maintenance`].

use crate::error::StatsError;
use crate::histogram::join_selectivity;
use crate::statistic::{build_price, BuildOptions, StatDescriptor, StatId, Statistic, TableScan};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use storage::{Database, Table, TableId};

/// Aging (§6): a statistic that was recently dropped as non-essential should
/// not be immediately re-created when a similar workload repeats — unless
/// the query at hand is expensive enough that a bad plan would hurt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingPolicy {
    /// A dropped statistic is dampened for this many catalog epochs.
    pub window_epochs: u64,
    /// Queries whose optimizer-estimated cost exceeds this value override
    /// aging and may re-create the statistic anyway.
    pub expensive_query_cost: f64,
}

impl Default for AgingPolicy {
    fn default() -> Self {
        AgingPolicy {
            window_epochs: 5,
            expensive_query_cost: f64::INFINITY,
        }
    }
}

/// Serializable catalog state (see [`StatsCatalog::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogSnapshot {
    pub stats: Vec<Statistic>,
    pub drop_list: Vec<StatId>,
    pub next_id: u32,
    pub epoch: u64,
    pub creation_work: f64,
    pub update_work: f64,
    pub build_options: BuildOptions,
}

/// Cached observability handles. Disabled by default: the tracer no-ops
/// and the counters are detached (never snapshotted). All of it is
/// observation-only — nothing here feeds back into build results, id
/// allocation, or work accounting, so catalogs are bit-identical with
/// observability on or off.
#[derive(Debug, Default)]
pub(crate) struct CatalogObs {
    pub(crate) tracer: obsv::Tracer,
    builds: obsv::Counter,
    shared_builds: obsv::Counter,
    counted_columns: obsv::Counter,
    counts_reused: obsv::Counter,
    prefix_rows: obsv::Counter,
    build_work: obsv::FloatCounter,
    pub(crate) feedback_refreshes: obsv::Counter,
    pub(crate) feedback_work: obsv::FloatCounter,
    join_memo_hits: obsv::Counter,
    join_memo_misses: obsv::Counter,
}

/// The join selectivity of every ordered statistic pair a profile has asked
/// for, keyed by id (see [`StatsView::join_selectivity`]). An id names one
/// histogram until that histogram changes: the three writes that change one
/// under an existing id — a rebuild, a feedback correction, a physical drop
/// — [`forget`](JoinMemo::forget) it, and ids are never reused.
#[derive(Debug, Default)]
pub(crate) struct JoinMemo(Mutex<FxHashMap<(StatId, StatId), f64>>);

impl JoinMemo {
    /// Drop every entry `id` takes part in. `&mut self`: no lock is taken.
    pub(crate) fn forget(&mut self, id: StatId) {
        self.0.get_mut().retain(|&(a, b), _| a != id && b != id);
    }

    #[cfg(test)]
    pub(crate) fn len(&mut self) -> usize {
        self.0.get_mut().len()
    }
}

/// The statistics catalog.
///
/// Statistics are **active** (visible to the optimizer), **drop-listed**
/// (built but hidden — candidates for physical deletion, reactivatable for
/// free, §5), or physically absent. All creation/update work is accumulated
/// in deterministic work units.
#[derive(Debug)]
pub struct StatsCatalog {
    pub(crate) stats: BTreeMap<StatId, Statistic>,
    by_descriptor: FxHashMap<StatDescriptor, StatId>,
    pub(crate) drop_list: BTreeSet<StatId>,
    /// Physically dropped descriptors → the epoch they were dropped in.
    aging: FxHashMap<StatDescriptor, u64>,
    next_id: u32,
    epoch: u64,
    creation_work: f64,
    pub(crate) update_work: f64,
    build_options: BuildOptions,
    pub(crate) obs: CatalogObs,
    /// Not part of a snapshot: a restored catalog starts with none.
    pub(crate) join_memo: JoinMemo,
}

impl Default for StatsCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsCatalog {
    pub fn new() -> Self {
        StatsCatalog {
            stats: BTreeMap::new(),
            by_descriptor: FxHashMap::default(),
            drop_list: BTreeSet::new(),
            aging: FxHashMap::default(),
            next_id: 0,
            epoch: 0,
            creation_work: 0.0,
            update_work: 0.0,
            build_options: BuildOptions::default(),
            obs: CatalogObs::default(),
            join_memo: JoinMemo::default(),
        }
    }

    /// Attach an observability context: statistic builds get `stats.build`
    /// spans and feed the `stats.builds` / `stats.shared_scan_builds` /
    /// `stats.build_work` metrics, and the build passes three more:
    /// `stats.build.counted_columns`, the leading columns counted by value
    /// with no id per row, `stats.build.counts_reused`, the leading columns
    /// whose counts a full scan found on the column and so counted no row
    /// of, and `stats.build.prefix_rows`, the rows given an id per row for a
    /// multi-column prefix. Feedback corrections feed the
    /// `stats.feedback.refreshes` / `stats.feedback.work` ones, and
    /// [`StatsView::join_selectivity`] the `stats.join_memo.{hits,misses}`
    /// ones. Not persisted by [`StatsCatalog::snapshot`].
    pub fn set_obs(&mut self, obs: &obsv::Obs) {
        self.obs = CatalogObs {
            tracer: obs.tracer.clone(),
            builds: obs.metrics.counter("stats.builds"),
            shared_builds: obs.metrics.counter("stats.shared_scan_builds"),
            counted_columns: obs.metrics.counter("stats.build.counted_columns"),
            counts_reused: obs.metrics.counter("stats.build.counts_reused"),
            prefix_rows: obs.metrics.counter("stats.build.prefix_rows"),
            build_work: obs.metrics.float_counter("stats.build_work"),
            feedback_refreshes: obs.metrics.counter("stats.feedback.refreshes"),
            feedback_work: obs.metrics.float_counter("stats.feedback.work"),
            join_memo_hits: obs.metrics.counter("stats.join_memo.hits"),
            join_memo_misses: obs.metrics.counter("stats.join_memo.misses"),
        };
    }

    pub fn with_build_options(mut self, options: BuildOptions) -> Self {
        self.build_options = options;
        self
    }

    /// Current catalog epoch (advanced by the policy layer once per workload
    /// pass or tuning round).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Total deterministic work spent creating statistics.
    pub fn creation_work(&self) -> f64 {
        self.creation_work
    }

    /// Total deterministic work spent updating (rebuilding) statistics.
    pub fn update_work(&self) -> f64 {
        self.update_work
    }

    /// Number of active (optimizer-visible) statistics.
    pub fn active_count(&self) -> usize {
        self.stats.len() - self.drop_list.len()
    }

    /// Number of built statistics including drop-listed ones.
    pub fn total_count(&self) -> usize {
        self.stats.len()
    }

    /// Create (and build) the statistics `descriptors` name, in order, and
    /// return their ids. Each descriptor is handled as
    /// [`StatsCatalog::create_statistic`] handles it:
    ///
    /// * If an active statistic with this descriptor exists, its id is
    ///   returned and no work is charged.
    /// * If a drop-listed statistic with this descriptor exists, it is
    ///   reactivated for free (§5: "instead of re-creating the statistic, it
    ///   can simply be removed from the drop-list").
    /// * Otherwise the statistic is built from the table data and charged to
    ///   the creation-work meter.
    ///
    /// Errors (rather than panics) when a descriptor is degenerate: a stale
    /// table id, an empty column list, or a column ordinal the table does
    /// not have. The call stops at the first such descriptor; statistics
    /// created before it remain.
    ///
    /// The ids, the catalog left behind and every `build_cost` are those of
    /// a `create_statistic` loop over the list, to the bit. Only wall clock
    /// differs: each table is read by one `TableScan`, whatever the order
    /// of the list, so each histogram, column key, prefix partition and
    /// joint is computed once per table per call. A table's scan is dropped
    /// after its last descriptor.
    pub fn create_statistics(
        &mut self,
        db: &Database,
        descriptors: &[StatDescriptor],
    ) -> Result<Vec<StatId>, StatsError> {
        let mut last = FxHashMap::default();
        for (i, d) in descriptors.iter().enumerate() {
            last.insert(d.table, i);
        }
        let mut scans: FxHashMap<TableId, Option<TableScan<'_>>> = FxHashMap::default();
        let mut ids = Vec::with_capacity(descriptors.len());
        for (i, descriptor) in descriptors.iter().enumerate() {
            let scan = scans.entry(descriptor.table).or_default();
            ids.push(self.create_with_scan(db, descriptor, scan)?);
            if last.get(&descriptor.table) == Some(&i) {
                scans.remove(&descriptor.table);
            }
        }
        Ok(ids)
    }

    /// [`StatsCatalog::create_statistics`] of one descriptor.
    pub fn create_statistic(
        &mut self,
        db: &Database,
        descriptor: StatDescriptor,
    ) -> Result<StatId, StatsError> {
        self.create_with_scan(db, &descriptor, &mut None)
    }

    /// [`StatsCatalog::create_statistics`]; `table` is not read.
    pub fn create_statistics_batch(
        &mut self,
        db: &Database,
        _table: TableId,
        descriptors: &[StatDescriptor],
    ) -> Result<Vec<StatId>, StatsError> {
        self.create_statistics(db, descriptors)
    }

    /// The body of every creation, reading through the caller's per-table
    /// `scan` as [`StatsCatalog::build`] does.
    fn create_with_scan<'a>(
        &mut self,
        db: &'a Database,
        descriptor: &StatDescriptor,
        scan: &mut Option<TableScan<'a>>,
    ) -> Result<StatId, StatsError> {
        let (table, built) = self.resolve(db, descriptor)?;
        if let Some(id) = built {
            self.drop_list.remove(&id);
            return Ok(id);
        }
        let id = self.next_stat_id();
        let mut span = self.obs.tracer.span("stats.build");
        span.arg("table", descriptor.table.0 as i64);
        span.arg("columns", descriptor.columns.len());
        // True when this build could reuse what an earlier one computed.
        let shared = scan.as_ref().is_some_and(|scan| scan.served() > 0);
        span.arg("shared", shared);
        if shared {
            self.obs.shared_builds.inc();
        }
        let stat = self.build(table, scan, id, descriptor.clone(), self.epoch);
        span.arg("rows", table.row_count());
        span.arg("build_work", stat.build_cost);
        drop(span);
        self.obs.builds.inc();
        self.obs.build_work.add(stat.build_cost);
        Ok(self.insert_created(stat))
    }

    /// Validate `descriptor` — a live table, a non-empty column list, only
    /// columns the table has — and look it up: its table, and the statistic
    /// already built on it (active or drop-listed), if any.
    fn resolve<'a>(
        &self,
        db: &'a Database,
        descriptor: &StatDescriptor,
    ) -> Result<(&'a Table, Option<StatId>), StatsError> {
        let table = db.try_table(descriptor.table)?;
        if descriptor.columns.is_empty() {
            return Err(StatsError::EmptyColumnSet);
        }
        if let Some(&c) = descriptor
            .columns
            .iter()
            .find(|&&c| c >= table.schema().len())
        {
            return Err(StatsError::UnknownColumn {
                table: table.name().to_string(),
                column: c,
            });
        }
        Ok((table, self.by_descriptor.get(descriptor).copied()))
    }

    fn next_stat_id(&mut self) -> StatId {
        self.next_id += 1;
        StatId(self.next_id - 1)
    }

    /// Build `descriptor` from `table` as statistic `id`, reading through
    /// `scan`, opening it when the caller has none yet (the caller keeps one
    /// scan per table), and file what its passes did with the metrics.
    pub(crate) fn build<'a>(
        &self,
        table: &'a Table,
        scan: &mut Option<TableScan<'a>>,
        id: StatId,
        descriptor: StatDescriptor,
        epoch: u64,
    ) -> Statistic {
        let scan = scan.get_or_insert_with(|| TableScan::new(table, &self.build_options));
        let stat = scan.build(id, descriptor, epoch);
        let tally = scan.take_tally();
        self.obs.counted_columns.add(tally.counted_columns);
        self.obs.counts_reused.add(tally.counts_reused);
        self.obs.prefix_rows.add(tally.prefix_rows);
        stat
    }

    /// Charge a new statistic's build to the creation meter and file it.
    fn insert_created(&mut self, stat: Statistic) -> StatId {
        let id = stat.id;
        self.creation_work += stat.build_cost;
        self.by_descriptor.insert(stat.descriptor.clone(), id);
        self.stats.insert(id, stat);
        id
    }

    /// Look up an **active** statistic by descriptor.
    pub fn find_active(&self, descriptor: &StatDescriptor) -> Option<StatId> {
        self.by_descriptor
            .get(descriptor)
            .copied()
            .filter(|id| !self.drop_list.contains(id))
    }

    /// Look up any built statistic (active or drop-listed) by descriptor.
    pub fn find_built(&self, descriptor: &StatDescriptor) -> Option<StatId> {
        self.by_descriptor.get(descriptor).copied()
    }

    pub fn statistic(&self, id: StatId) -> Option<&Statistic> {
        self.stats.get(&id)
    }

    /// Iterate over active statistics.
    pub fn active(&self) -> impl Iterator<Item = &Statistic> {
        self.stats
            .values()
            .filter(move |s| !self.drop_list.contains(&s.id))
    }

    /// Iterate over active statistics on one table.
    pub fn active_on_table(&self, table: TableId) -> impl Iterator<Item = &Statistic> {
        self.active().filter(move |s| s.descriptor.table == table)
    }

    /// Iterate over **all built** statistics on one table (active and
    /// drop-listed), in id order.
    pub fn built_on_table(&self, table: TableId) -> impl Iterator<Item = &Statistic> {
        self.stats
            .values()
            .filter(move |s| s.descriptor.table == table)
    }

    /// All active statistic ids.
    pub fn active_ids(&self) -> Vec<StatId> {
        self.active().map(|s| s.id).collect()
    }

    /// Move a statistic to the drop-list (mark non-essential, §5). The
    /// statistic stays built but becomes invisible to the optimizer.
    pub fn move_to_drop_list(&mut self, id: StatId) {
        if self.stats.contains_key(&id) {
            self.drop_list.insert(id);
        }
    }

    /// Remove a statistic from the drop-list, making it optimizer-visible
    /// again at zero cost.
    pub fn reactivate(&mut self, id: StatId) {
        self.drop_list.remove(&id);
    }

    pub fn is_drop_listed(&self, id: StatId) -> bool {
        self.drop_list.contains(&id)
    }

    pub fn drop_list(&self) -> impl Iterator<Item = StatId> + '_ {
        self.drop_list.iter().copied()
    }

    /// Physically delete a statistic and record it in the aging registry.
    pub fn physically_drop(&mut self, id: StatId) -> bool {
        let Some(stat) = self.stats.remove(&id) else {
            return false;
        };
        self.drop_list.remove(&id);
        self.by_descriptor.remove(&stat.descriptor);
        self.join_memo.forget(id);
        self.aging.insert(stat.descriptor, self.epoch);
        true
    }

    /// Aging test (§6): true when re-creating `descriptor` should be
    /// dampened — it was physically dropped within the policy window and the
    /// requesting query's estimated cost does not qualify as "expensive".
    pub fn is_aged_out(
        &self,
        descriptor: &StatDescriptor,
        policy: &AgingPolicy,
        query_cost: f64,
    ) -> bool {
        let Some(&dropped_epoch) = self.aging.get(descriptor) else {
            return false;
        };
        if query_cost >= policy.expensive_query_cost {
            return false;
        }
        self.epoch.saturating_sub(dropped_epoch) < policy.window_epochs
    }

    /// Sum of what rebuilding the given statistics would be charged now, at
    /// the table's current size and under the current build options — the
    /// "cost of updating the set of statistics left behind" metric of §8.2
    /// (Table 1).
    pub fn update_cost_of(&self, db: &Database, ids: impl IntoIterator<Item = StatId>) -> f64 {
        let mut total = 0.0;
        for id in ids {
            if let Some(s) = self.stats.get(&id) {
                let Ok(table) = db.try_table(s.descriptor.table) else {
                    continue; // stale table id: no rebuild cost to charge
                };
                let joint = self.build_options.joint_histograms && s.descriptor.is_multi_column();
                total += build_price(table, &s.descriptor, joint);
            }
        }
        total
    }

    /// Serializable snapshot of the catalog (statistics, drop-list, epoch,
    /// work meters). Lets a deployment persist tuned statistics across
    /// restarts instead of re-learning the workload from scratch.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            stats: self.stats.values().cloned().collect(),
            drop_list: self.drop_list.iter().copied().collect(),
            next_id: self.next_id,
            epoch: self.epoch,
            creation_work: self.creation_work,
            update_work: self.update_work,
            build_options: self.build_options.clone(),
        }
    }

    /// Rebuild a catalog from a snapshot. The aging registry is not
    /// persisted (it dampens only the recent past), nor are memoized join
    /// selectivities.
    pub fn restore(snapshot: CatalogSnapshot) -> StatsCatalog {
        let mut cat = StatsCatalog::new().with_build_options(snapshot.build_options);
        for stat in snapshot.stats {
            cat.by_descriptor.insert(stat.descriptor.clone(), stat.id);
            cat.stats.insert(stat.id, stat);
        }
        cat.drop_list = snapshot.drop_list.into_iter().collect();
        cat.next_id = snapshot.next_id;
        cat.epoch = snapshot.epoch;
        cat.creation_work = snapshot.creation_work;
        cat.update_work = snapshot.update_work;
        cat
    }

    /// A read view with an ignore set — the `Ignore_Statistics_Subset`
    /// server extension of §7.2.
    pub fn view<'a>(&'a self, ignore: &'a HashSet<StatId>) -> StatsView<'a> {
        StatsView {
            catalog: self,
            ignore,
        }
    }

    /// A view that ignores nothing.
    pub fn full_view(&self) -> StatsView<'_> {
        static EMPTY: std::sync::OnceLock<HashSet<StatId>> = std::sync::OnceLock::new();
        StatsView {
            catalog: self,
            ignore: EMPTY.get_or_init(HashSet::new),
        }
    }
}

/// Read-only view of the catalog with a subset of statistics hidden — the
/// optimizer-side embodiment of `Ignore_Statistics_Subset(db_id,
/// stat_id_list)` from §7.2 of the paper.
///
/// Every estimate the optimizer draws from statistics goes through a view.
/// The histogram join selectivity of a statistic pair, the one costly
/// estimate, is memoized in the catalog behind
/// [`join_selectivity`](StatsView::join_selectivity): views with different
/// ignore sets share it, since hiding a statistic changes which pair is
/// asked for, never a pair's value.
#[derive(Clone, Copy)]
pub struct StatsView<'a> {
    catalog: &'a StatsCatalog,
    ignore: &'a HashSet<StatId>,
}

impl<'a> StatsView<'a> {
    fn visible(&self, s: &Statistic) -> bool {
        !self.ignore.contains(&s.id) && !self.catalog.is_drop_listed(s.id)
    }

    /// Best statistic whose histogram can answer a predicate on
    /// `(table, column)`: an exact single-column statistic wins, otherwise a
    /// multi-column statistic with this leading column (its histogram is on
    /// the leading column, per the SQL Server asymmetry).
    pub fn histogram_for(&self, table: TableId, column: usize) -> Option<&'a Statistic> {
        let mut fallback = None;
        for s in self.catalog.active_on_table(table) {
            if !self.visible(s) || s.descriptor.leading_column() != column {
                continue;
            }
            if !s.descriptor.is_multi_column() {
                return Some(s);
            }
            fallback.get_or_insert(s);
        }
        fallback
    }

    /// Statistic providing a prefix density for an (unordered) equality
    /// column set; prefers the tightest statistic (fewest total columns).
    pub fn density_for_set(&self, table: TableId, set: &[usize]) -> Option<(&'a Statistic, f64)> {
        let mut best: Option<&Statistic> = None;
        for s in self.catalog.active_on_table(table) {
            if self.visible(s) && s.descriptor.prefix_covers_set(set) {
                match best {
                    Some(b) if b.descriptor.columns.len() <= s.descriptor.columns.len() => {}
                    _ => best = Some(s),
                }
            }
        }
        // `.get` tolerates hand-built statistics (snapshot injection) whose
        // density list is shorter than the descriptor claims.
        best.and_then(|s| s.prefix_densities.get(set.len() - 1).map(|&d| (s, d)))
    }

    pub fn statistic(&self, id: StatId) -> Option<&'a Statistic> {
        self.catalog.statistic(id).filter(|s| self.visible(s))
    }

    /// [`join_selectivity`]`(&a.histogram, &b.histogram)` to the bit,
    /// computed once per ordered pair `(a.id, b.id)` for the life of the
    /// catalog: `(a, b)` and `(b, a)` sum in different orders and are kept
    /// apart. `a` and `b` must be statistics of this view's catalog, as its
    /// lookups return them. Thread-safe; a miss computes under the lock, so
    /// the hit and miss counts do not depend on how threads interleave.
    pub fn join_selectivity(&self, a: &Statistic, b: &Statistic) -> f64 {
        let cat = self.catalog;
        debug_assert!(
            [a, b].iter().all(|s| cat
                .stats
                .get(&s.id)
                .is_some_and(|own| std::ptr::eq(own, *s))),
            "join_selectivity of a statistic from another catalog"
        );
        let mut memo = cat.join_memo.0.lock();
        match memo.entry((a.id, b.id)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                cat.obs.join_memo_hits.inc();
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                cat.obs.join_memo_misses.inc();
                *e.insert(join_selectivity(&a.histogram, &b.histogram))
            }
        }
    }

    /// A visible multi-column statistic carrying a Phased 2-D histogram over
    /// exactly the unordered column pair `(a, b)`. The returned flag is true
    /// when `(a, b)` is flipped relative to the statistic's column order.
    pub fn joint_for(&self, table: TableId, a: usize, b: usize) -> Option<(&'a Statistic, bool)> {
        for s in self.catalog.active_on_table(table) {
            if !self.visible(s) || s.joint.is_none() || s.descriptor.columns.len() < 2 {
                continue;
            }
            let c0 = s.descriptor.columns[0];
            let c1 = s.descriptor.columns[1];
            if c0 == a && c1 == b {
                return Some((s, false));
            }
            if c0 == b && c1 == a {
                return Some((s, true));
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema, Value};

    pub(crate) fn test_db() -> (Database, TableId) {
        db_with(2000)
    }

    pub(crate) fn db_with(rows: i64) -> (Database, TableId) {
        let mut db = Database::new();
        let id = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        insert_rows(&mut db, id, rows);
        (db, id)
    }

    pub(crate) fn insert_rows(db: &mut Database, t: TableId, n: i64) {
        for i in 0..n {
            db.table_mut(t)
                .insert(vec![Value::Int(i % 50), Value::Int(i % 8)])
                .unwrap();
        }
    }

    #[test]
    fn create_is_idempotent_and_charges_once() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let s1 = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let work = cat.creation_work();
        assert!(work > 0.0);
        let s2 = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(cat.creation_work(), work);
    }

    #[test]
    fn batch_create_matches_serial_exactly() {
        let (db, t) = test_db();
        let descs = vec![
            StatDescriptor::single(t, 0),
            StatDescriptor::multi(t, vec![0, 1]),
            StatDescriptor::single(t, 1),
            StatDescriptor::single(t, 0), // duplicate: dedup inside the batch
        ];

        let mut serial = StatsCatalog::new();
        let serial_ids: Vec<StatId> = descs
            .iter()
            .map(|d| serial.create_statistic(&db, d.clone()).unwrap())
            .collect();

        let mut batched = StatsCatalog::new();
        let batch_ids = batched.create_statistics(&db, &descs).unwrap();

        assert_eq!(batch_ids, serial_ids);
        assert_eq!(batched.snapshot(), serial.snapshot());
        assert_eq!(
            batched.creation_work().to_bits(),
            serial.creation_work().to_bits()
        );
    }

    #[test]
    fn batch_create_with_joint_histograms_matches_serial() {
        let (db, t) = test_db();
        let descs = vec![
            StatDescriptor::multi(t, vec![0, 1]),
            StatDescriptor::multi(t, vec![1, 0]),
        ];
        let options = BuildOptions::default().with_joint_histograms();
        let mut serial = StatsCatalog::new().with_build_options(options.clone());
        for d in &descs {
            serial.create_statistic(&db, d.clone()).unwrap();
        }
        let mut batched = StatsCatalog::new().with_build_options(options);
        batched.create_statistics(&db, &descs).unwrap();
        assert_eq!(batched.snapshot(), serial.snapshot());
    }

    #[test]
    fn batch_create_reactivates_droplisted_for_free() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        cat.move_to_drop_list(id);
        let work = cat.creation_work();
        let ids = cat
            .create_statistics(&db, &[StatDescriptor::single(t, 0)])
            .unwrap();
        assert_eq!(ids, vec![id]);
        assert_eq!(cat.creation_work(), work, "reactivation must be free");
        assert_eq!(cat.active_count(), 1);
    }

    #[test]
    fn batch_create_rejects_bad_descriptors_like_serial() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let err = cat
            .create_statistics(
                &db,
                &[StatDescriptor::single(t, 0), StatDescriptor::single(t, 99)],
            )
            .unwrap_err();
        assert!(matches!(err, StatsError::UnknownColumn { .. }));
        // The statistic created before the failing descriptor remains, as in
        // a serial ?-propagating loop.
        assert_eq!(cat.active_count(), 1);
    }

    /// An interleaved two-table list reads each table once: every build
    /// after a table's first shares its scan, and each leading column is
    /// counted once however many statistics lead with it.
    #[test]
    fn interleaved_tables_are_each_read_once() {
        let (mut db, a) = test_db();
        let b = db
            .create_table(
                "u",
                storage::Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        insert_rows(&mut db, b, 700);
        let descs = vec![
            StatDescriptor::single(a, 0),
            StatDescriptor::single(b, 0),
            StatDescriptor::multi(a, vec![0, 1]),
            StatDescriptor::multi(b, vec![0, 1]),
            StatDescriptor::single(a, 1),
            StatDescriptor::multi(b, vec![1, 0]),
        ];
        let obs = obsv::Obs::enabled();
        let mut cat = StatsCatalog::new();
        cat.set_obs(&obs);
        let ids = cat.create_statistics(&db, &descs).unwrap();
        let mut serial = StatsCatalog::new();
        for d in &descs {
            serial.create_statistic(&db, d.clone()).unwrap();
        }
        assert_eq!(ids, serial.active_ids());
        assert_eq!(cat.snapshot(), serial.snapshot());
        let counter = |name| obs.metrics.counter(name).get();
        assert_eq!(counter("stats.builds"), 6);
        assert_eq!(counter("stats.shared_scan_builds"), 4);
        // Columns 0 and 1 of each table, each counted by one pass.
        assert_eq!(counter("stats.build.counted_columns"), 4);
    }

    /// A rebuild estimate is priced as the build it estimates: with joint
    /// histograms, one more sort than the plain multi-column formula.
    #[test]
    fn update_cost_of_a_fresh_statistic_is_its_build_cost() {
        let (db, t) = test_db();
        for options in [
            BuildOptions::default(),
            BuildOptions::default().with_joint_histograms(),
        ] {
            let mut cat = StatsCatalog::new().with_build_options(options);
            for d in [
                StatDescriptor::single(t, 1),
                StatDescriptor::multi(t, vec![0, 1]),
            ] {
                let id = cat.create_statistic(&db, d).unwrap();
                let built = cat.statistic(id).unwrap().build_cost;
                assert_eq!(cat.update_cost_of(&db, [id]).to_bits(), built.to_bits());
            }
        }
    }

    #[test]
    fn obs_records_builds_without_changing_outcomes() {
        let (db, t) = test_db();
        let descs = vec![
            StatDescriptor::single(t, 0),
            StatDescriptor::multi(t, vec![0, 1]),
        ];
        let mut plain = StatsCatalog::new();
        for d in &descs {
            plain.create_statistic(&db, d.clone()).unwrap();
        }
        let obs = obsv::Obs::enabled();
        let mut observed = StatsCatalog::new();
        observed.set_obs(&obs);
        observed.create_statistics(&db, &descs).unwrap();
        // Observation never changes the catalog.
        assert_eq!(observed.snapshot(), plain.snapshot());
        // Metrics mirror the work meter bit-for-bit.
        assert_eq!(obs.metrics.counter("stats.builds").get(), 2,);
        // The second build found the scan the first one opened.
        assert_eq!(obs.metrics.counter("stats.shared_scan_builds").get(), 1);
        // Column 0 was read once for both, from the counts `plain`'s build
        // left on it; only the pair's prefix gave its rows ids.
        let counter = |name| obs.metrics.counter(name).get();
        assert_eq!(counter("stats.build.counted_columns"), 0);
        assert_eq!(counter("stats.build.counts_reused"), 1);
        assert_eq!(counter("stats.build.prefix_rows"), 2000);
        assert_eq!(
            obs.metrics
                .float_counter("stats.build_work")
                .get()
                .to_bits(),
            observed.creation_work().to_bits()
        );
        // Spans are well-formed, say how many rows they read, and flag the
        // build that shared a scan.
        let events = obs.tracer.flush();
        assert!(obsv::trace::validate(&events).is_empty());
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == obsv::EventKind::Begin && e.name == "stats.build")
                .count(),
            2
        );
        let with_arg = |key: &str, value: obsv::ArgValue| {
            events
                .iter()
                .filter(|e| e.args.iter().any(|(k, v)| *k == key && *v == value))
                .count()
        };
        assert_eq!(with_arg("shared", obsv::ArgValue::Bool(false)), 1);
        assert_eq!(with_arg("shared", obsv::ArgValue::Bool(true)), 1);
        assert_eq!(with_arg("rows", obsv::ArgValue::Int(2000)), 2);

        // A refresh is one span carrying the work it charged.
        observed.refresh(&db, t, &observed.active_ids(), None);
        let events = obs.tracer.flush();
        assert!(obsv::trace::validate(&events).is_empty());
        let refresh = events
            .iter()
            .find(|e| e.kind == obsv::EventKind::End && e.name == "stats.refresh")
            .expect("refresh span");
        assert!(refresh
            .args
            .contains(&("work", obsv::ArgValue::Float(observed.update_work()))));
    }

    /// A full scan counts a leading column only when no build since its
    /// last write has: a second catalog reads the counts the first left, a
    /// write to the column makes the next build count again, and a write
    /// to another column does not.
    #[test]
    fn a_column_keeps_its_counts_until_it_is_written() {
        let (mut db, t) = test_db();
        let lead = StatDescriptor::single(t, 0);
        // (counted, reused) by one build on a new catalog, and its histogram.
        let build = |db: &Database, options: BuildOptions| {
            let obs = obsv::Obs::enabled();
            let mut cat = StatsCatalog::new().with_build_options(options);
            cat.set_obs(&obs);
            let id = cat.create_statistic(db, lead.clone()).unwrap();
            let counter = |name| obs.metrics.counter(name).get();
            let counts = (
                counter("stats.build.counted_columns"),
                counter("stats.build.counts_reused"),
            );
            (counts, cat.statistic(id).unwrap().histogram.clone())
        };
        let full = BuildOptions::default;
        let (counts, first) = build(&db, full());
        assert_eq!(counts, (1, 0));
        let (counts, second) = build(&db, full());
        assert_eq!(counts, (0, 1));
        assert_eq!(second, first);
        // A row rewritten with its own value is still a write.
        db.table_mut(t)
            .update_rows(&[0], 0, &Value::Int(0))
            .unwrap();
        let (counts, written) = build(&db, full());
        assert_eq!(counts, (1, 0));
        assert_eq!(written, first);
        db.table_mut(t)
            .update_rows(&[0], 1, &Value::Int(0))
            .unwrap();
        assert_eq!(build(&db, full()).0, (0, 1));
    }

    #[test]
    fn drop_list_hides_and_reactivates_free() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        cat.move_to_drop_list(id);
        assert_eq!(cat.active_count(), 0);
        assert!(cat.find_active(&StatDescriptor::single(t, 0)).is_none());
        assert!(cat.find_built(&StatDescriptor::single(t, 0)).is_some());
        let work = cat.creation_work();
        let again = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        assert_eq!(again, id);
        assert_eq!(cat.creation_work(), work, "reactivation must be free");
        assert_eq!(cat.active_count(), 1);
    }

    #[test]
    fn physical_drop_registers_aging() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let desc = StatDescriptor::single(t, 0);
        assert!(cat.physically_drop(id));
        assert!(!cat.physically_drop(id));
        let policy = AgingPolicy {
            window_epochs: 3,
            expensive_query_cost: 1000.0,
        };
        assert!(cat.is_aged_out(&desc, &policy, 10.0));
        assert!(
            !cat.is_aged_out(&desc, &policy, 5000.0),
            "expensive query overrides aging"
        );
        cat.advance_epoch();
        cat.advance_epoch();
        cat.advance_epoch();
        assert!(!cat.is_aged_out(&desc, &policy, 10.0), "window expired");
    }

    #[test]
    fn ignore_view_hides_statistics() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        assert!(cat.full_view().histogram_for(t, 0).is_some());
        let ignore: HashSet<StatId> = [id].into_iter().collect();
        assert!(cat.view(&ignore).histogram_for(t, 0).is_none());
    }

    #[test]
    fn histogram_prefers_exact_single_column() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let multi = cat
            .create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        let single = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let view = cat.full_view();
        assert_eq!(view.histogram_for(t, 0).unwrap().id, single);
        // For leading column of only the multi stat, fallback applies.
        let ignore: HashSet<StatId> = [single].into_iter().collect();
        assert_eq!(cat.view(&ignore).histogram_for(t, 0).unwrap().id, multi);
        // Column 1 is not the leading column of any stat: no histogram.
        assert!(view.histogram_for(t, 1).is_none());
    }

    #[test]
    fn density_for_set_prefers_tightest() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        cat.create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        let pair = cat.full_view().density_for_set(t, &[1, 0]).unwrap();
        // (a, b) over i%50, i%8 has lcm(50,8)=200 combos in 2000 rows.
        assert!((pair.1 - 1.0 / 200.0).abs() < 1e-9);
        assert!(cat.full_view().density_for_set(t, &[1]).is_none());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let a = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let b = cat
            .create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        cat.move_to_drop_list(b);
        cat.advance_epoch();

        let snap = cat.snapshot();
        let restored = StatsCatalog::restore(snap);
        assert_eq!(restored.active_count(), 1);
        assert_eq!(restored.total_count(), 2);
        assert!(restored.is_drop_listed(b));
        assert_eq!(restored.epoch(), 1);
        assert_eq!(restored.creation_work(), cat.creation_work());
        // Lookups and histograms survive.
        assert_eq!(restored.find_active(&StatDescriptor::single(t, 0)), Some(a));
        let s = restored.statistic(a).unwrap();
        assert_eq!(s.leading_ndv(), 50.0);
        // New statistics continue from the persisted id counter.
        let mut restored = restored;
        let c = restored
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        assert!(c.0 >= 2);
    }

    /// `join_selectivity(a, b)` and `(b, a)` add their bucket pairs in
    /// different orders; on these two columns they differ in the last bit,
    /// and the memo answers each order with its own.
    #[test]
    fn join_memo_keeps_the_pair_order() {
        let mut db = Database::new();
        let mut column = |name: &str, rows: i64, value: &dyn Fn(i64) -> f64| {
            let t = db
                .create_table(
                    name,
                    Schema::new(vec![ColumnDef::new("x", DataType::Float)]),
                )
                .unwrap();
            for i in 0..rows {
                db.table_mut(t)
                    .insert(vec![Value::Float(value(i))])
                    .unwrap();
            }
            t
        };
        let s = column("s", 3000, &|i| (i % 13) as f64 + (i / 200) as f64 * 1.1);
        let t = column("t", 1777, &|i| ((i * 37 + 1) % 101) as f64 * 0.37);
        let mut cat = StatsCatalog::new();
        let a = cat
            .create_statistic(&db, StatDescriptor::single(s, 0))
            .unwrap();
        let b = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let (sa, sb) = (cat.statistic(a).unwrap(), cat.statistic(b).unwrap());
        let ab = join_selectivity(&sa.histogram, &sb.histogram);
        let ba = join_selectivity(&sb.histogram, &sa.histogram);
        assert_ne!(ab.to_bits(), ba.to_bits());
        let view = cat.full_view();
        for _ in 0..2 {
            assert_eq!(view.join_selectivity(sa, sb).to_bits(), ab.to_bits());
            assert_eq!(view.join_selectivity(sb, sa).to_bits(), ba.to_bits());
        }
    }

    #[test]
    fn update_cost_of_reflects_table_growth() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let before = cat.update_cost_of(&db, [id]);
        for i in 0..2000 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let after = cat.update_cost_of(&db, [id]);
        assert!(after > before * 1.5);
    }
}
