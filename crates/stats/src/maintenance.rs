//! The maintenance half of the catalog (§6): the staleness rule, scan and
//! feedback refreshes of built statistics, the auto-drop of over-updated
//! ones, and the `maintain` pass that strings them together.

use crate::catalog::StatsCatalog;
use crate::feedback::{build_from_feedback, correct_histogram, FeedbackConfig, FeedbackStore};
use crate::sampler::SampleSpec;
use crate::statistic::{build_statistic, StatDescriptor, StatId, Statistic, TableScan};
use crate::StatsError;
use std::collections::BTreeMap;
use storage::{Database, TableId};

/// The SQL Server 7.0 maintenance policy (§6): statistics on a table are
/// updated when the table's modification counter exceeds a fraction of its
/// size; a statistic updated more than `max_updates` times is physically
/// dropped. Our modification restricts the physical drop to statistics on
/// the drop-list (`drop_only_droplisted = true`), which is exactly the
/// improvement the paper proposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenancePolicy {
    /// Update statistics when `modification_counter > update_fraction * rows`.
    pub update_fraction: f64,
    /// Minimum modified-row count before an update can trigger.
    pub min_modified_rows: u64,
    /// Physically drop a statistic after this many updates.
    pub max_updates: u32,
    /// If true (the paper's improved policy) only drop-listed statistics are
    /// physically dropped; if false (vanilla SQL Server 7.0) any statistic
    /// hitting `max_updates` is dropped.
    pub drop_only_droplisted: bool,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy {
            update_fraction: 0.2,
            min_modified_rows: 500,
            max_updates: 4,
            drop_only_droplisted: true,
        }
    }
}

impl MaintenancePolicy {
    /// Modified-row threshold for a table with `rows` rows — the SQL
    /// Server-style `max(500, 20% of rows)` rule. A statistic is stale when
    /// the modifications since its build are **strictly greater** than this
    /// (exactly the threshold is still fresh).
    pub fn threshold(&self, rows: usize) -> u64 {
        ((rows as f64 * self.update_fraction) as u64).max(self.min_modified_rows)
    }
}

/// What one `maintain` pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintenanceReport {
    pub tables_updated: Vec<TableId>,
    pub statistics_updated: usize,
    pub statistics_dropped: usize,
    pub update_work: f64,
}

impl StatsCatalog {
    /// Rebuild the given built statistics on `table`, charging the
    /// update-work meter and bumping per-statistic update counts. Each
    /// rebuilt statistic records the table's *current* modification counter
    /// as its new staleness baseline (`mods_at_build`); the shared table
    /// counter itself is left untouched, so other statistics on the table
    /// keep aging independently.
    ///
    /// Ids that are not built statistics on `table` are silently skipped.
    /// Under full-scan build options the rebuilds share one `TableScan`;
    /// sampled rebuilds each draw their own seeded rows.
    ///
    /// Returns `(id, work)` per refreshed statistic, in the order given.
    pub fn refresh_statistics(
        &mut self,
        db: &Database,
        table: TableId,
        ids: &[StatId],
    ) -> Vec<(StatId, f64)> {
        let Ok(t) = db.try_table(table) else {
            return Vec::new(); // stale table id (e.g. restored snapshot)
        };
        let targets: Vec<StatId> = ids
            .iter()
            .copied()
            .filter(|id| {
                self.stats
                    .get(id)
                    .is_some_and(|s| s.descriptor.table == table)
            })
            .collect();
        if targets.is_empty() {
            return Vec::new();
        }
        let mut span = self.obs.tracer.span("stats.refresh");
        span.arg("table", table.0 as u64);
        span.arg("count", targets.len());
        let mut scan = (self.build_options.sample == SampleSpec::FullScan)
            .then(|| TableScan::new(t, &self.build_options, None));
        let mut refreshed = Vec::with_capacity(targets.len());
        for id in targets {
            let Some((descriptor, update_count, created_epoch)) = self
                .stats
                .get(&id)
                .map(|s| (s.descriptor.clone(), s.update_count, s.created_epoch))
            else {
                continue;
            };
            let mut rebuilt = match &mut scan {
                Some(scan) => scan.build(id, descriptor, created_epoch),
                None => {
                    let seed = self.seed
                        ^ ((id.0 as u64) << 17)
                        ^ table.0 as u64
                        ^ (update_count as u64 + 1);
                    build_statistic(id, t, descriptor, &self.build_options, seed, created_epoch)
                }
            };
            rebuilt.update_count = update_count + 1;
            self.update_work += rebuilt.build_cost;
            refreshed.push((id, rebuilt.build_cost));
            self.stats.insert(id, rebuilt);
        }
        span.arg("work", refreshed.iter().map(|&(_, work)| work).sum::<f64>());
        refreshed
    }

    /// True when `id` is a built statistic that could be refreshed from
    /// feedback instead of a scan: single-column, numeric histogram with at
    /// least one bucket, and `store` holds at least
    /// `config.min_observations` observations for its (table, column).
    pub fn feedback_refreshable(
        &self,
        id: StatId,
        store: &FeedbackStore,
        config: &FeedbackConfig,
    ) -> bool {
        let Some(s) = self.stats.get(&id) else {
            return false;
        };
        !s.descriptor.is_multi_column()
            && crate::feedback::correctable(&s.histogram)
            && store.count(
                s.descriptor.table.0 as u64,
                s.descriptor.leading_column() as u32,
            ) >= config.min_observations
    }

    /// Feedback-correct the given built statistics on `table` in place —
    /// the STGrid-style cheap refresh path. Instead of re-scanning the
    /// table, each statistic's histogram is corrected from the observed
    /// cardinalities accumulated in `store` (which are consumed). The
    /// corrected statistic records the table's current modification counter
    /// as its new staleness baseline, exactly like a scan refresh, but the
    /// work charged to the update meter is the tiny correction work (bucket
    /// touches), not a table scan.
    ///
    /// Ids that are not feedback-refreshable (see
    /// [`StatsCatalog::feedback_refreshable`]) or whose observations fail to
    /// apply are silently skipped — callers fall back to
    /// [`StatsCatalog::refresh_statistics`] for those.
    ///
    /// Returns `(id, work)` per corrected statistic, in the order given.
    pub fn feedback_refresh(
        &mut self,
        db: &Database,
        table: TableId,
        ids: &[StatId],
        store: &mut FeedbackStore,
        config: &FeedbackConfig,
    ) -> Vec<(StatId, f64)> {
        let Ok(t) = db.try_table(table) else {
            return Vec::new();
        };
        let mut refreshed = Vec::new();
        for &id in ids {
            if !self.feedback_refreshable(id, store, config) {
                continue;
            }
            let Some(s) = self.stats.get(&id) else {
                continue;
            };
            if s.descriptor.table != table {
                continue;
            }
            let column = s.descriptor.leading_column() as u32;
            let observations = store.take(table.0 as u64, column);
            let Some(s) = self.stats.get_mut(&id) else {
                continue;
            };
            let mut span = self.obs.tracer.span("stats.feedback_refresh");
            span.arg("table", table.0 as u64);
            span.arg("stat", id.0 as u64);
            span.arg("observations", observations.len());
            let outcome = correct_histogram(&mut s.histogram, &observations, config);
            span.arg("applied", outcome.applied);
            span.arg("work", outcome.work);
            drop(span);
            if outcome.applied == 0 {
                continue;
            }
            s.update_count += 1;
            s.mods_at_build = t.modification_counter();
            s.row_count_at_build = t.row_count();
            self.update_work += outcome.work;
            self.obs.feedback_refreshes.inc();
            self.obs.feedback_work.add(outcome.work);
            refreshed.push((id, outcome.work));
        }
        refreshed
    }

    /// Create a single-column statistic synthesized purely from feedback
    /// observations — no table scan at all. Used when `FindNextStatToBuild`
    /// selects a candidate whose (table, column) already has enough observed
    /// cardinalities: the build cost is the correction work, which is orders
    /// of magnitude below a scan build.
    ///
    /// Returns `Ok(None)` when the store lacks `config.min_observations`
    /// observations for the column or no usable histogram can be seeded from
    /// them (the caller should fall back to a scan build). Like
    /// [`StatsCatalog::create_statistic`], an existing statistic with this
    /// descriptor is reused/reactivated for free.
    pub fn create_statistic_from_feedback(
        &mut self,
        db: &Database,
        descriptor: StatDescriptor,
        store: &mut FeedbackStore,
        config: &FeedbackConfig,
    ) -> Result<Option<StatId>, StatsError> {
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
        if let Some(&id) = self.by_descriptor.get(&descriptor) {
            self.drop_list.remove(&id);
            return Ok(Some(id));
        }
        if descriptor.is_multi_column() {
            return Ok(None); // density prefixes need a real scan
        }
        let column = descriptor.leading_column() as u32;
        if store.count(descriptor.table.0 as u64, column) < config.min_observations {
            return Ok(None);
        }
        let observations = store.take(descriptor.table.0 as u64, column);
        let Some((histogram, outcome)) = build_from_feedback(&observations, config) else {
            return Ok(None);
        };
        let id = StatId(self.next_id);
        self.next_id += 1;
        let ndv = histogram.ndv();
        let stat = Statistic {
            id,
            descriptor: descriptor.clone(),
            histogram,
            prefix_densities: vec![if ndv > 0.0 { 1.0 / ndv } else { 0.0 }],
            null_fraction: 0.0,
            row_count_at_build: table.row_count(),
            build_cost: outcome.work,
            update_count: 0,
            mods_at_build: table.modification_counter(),
            created_epoch: self.epoch,
            joint: None,
        };
        let mut span = self.obs.tracer.span("stats.feedback_build");
        span.arg("table", descriptor.table.0 as i64);
        span.arg("observations", observations.len());
        span.arg("build_work", stat.build_cost);
        drop(span);
        self.obs.feedback_builds.inc();
        self.obs.feedback_work.add(stat.build_cost);
        self.creation_work += stat.build_cost;
        self.by_descriptor.insert(descriptor, id);
        self.stats.insert(id, stat);
        Ok(Some(id))
    }

    /// Built statistics (active and drop-listed) that are stale under
    /// `policy`: more table modifications since their build than
    /// `max(min_modified_rows, update_fraction × rows)`, strictly greater.
    /// Returned in id order so scans are deterministic.
    pub fn stale_statistics(&self, db: &Database, policy: &MaintenancePolicy) -> Vec<StatId> {
        self.stats
            .values()
            .filter(|s| {
                let Ok(t) = db.try_table(s.descriptor.table) else {
                    return false;
                };
                t.modification_counter().saturating_sub(s.mods_at_build)
                    > policy.threshold(t.row_count())
            })
            .map(|s| s.id)
            .collect()
    }

    /// [`StatsCatalog::stale_statistics`] grouped by table, so each table's
    /// refreshes can share one scan.
    pub fn stale_by_table(
        &self,
        db: &Database,
        policy: &MaintenancePolicy,
    ) -> BTreeMap<TableId, Vec<StatId>> {
        let mut by_table: BTreeMap<TableId, Vec<StatId>> = BTreeMap::new();
        for id in self.stale_statistics(db, policy) {
            if let Some(s) = self.stats.get(&id) {
                by_table.entry(s.descriptor.table).or_default().push(id);
            }
        }
        by_table
    }

    /// §6 auto-drop: physically drop every statistic refreshed more than
    /// `policy.max_updates` times — under the paper's improved policy
    /// (`drop_only_droplisted`) only those on the drop-list, which no plan
    /// can see. Each goes through [`StatsCatalog::physically_drop`] and so
    /// into the aging registry. Returns `(id, table, update_count)` per
    /// dropped statistic, in id order.
    pub fn drop_over_updated(&mut self, policy: &MaintenancePolicy) -> Vec<(StatId, TableId, u32)> {
        let dropped: Vec<(StatId, TableId, u32)> = self
            .stats
            .values()
            .filter(|s| s.update_count > policy.max_updates)
            .filter(|s| !policy.drop_only_droplisted || self.drop_list.contains(&s.id))
            .map(|s| (s.id, s.descriptor.table, s.update_count))
            .collect();
        for &(id, ..) in &dropped {
            self.physically_drop(id);
        }
        dropped
    }

    /// One pass of the auto-maintenance policy (§6) over every table:
    /// refresh what is stale, then drop what has been refreshed too often.
    pub fn maintain(&mut self, db: &Database, policy: &MaintenancePolicy) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        let before_update_work = self.update_work;
        for (table, ids) in self.stale_by_table(db, policy) {
            report.statistics_updated += self.refresh_statistics(db, table, &ids).len();
            report.tables_updated.push(table);
        }
        report.statistics_dropped = self.drop_over_updated(policy).len();
        report.update_work = self.update_work - before_update_work;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::{db_with, insert_rows, test_db};
    use storage::Value;

    #[test]
    fn maintenance_updates_and_drops() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // Simulate heavy modification.
        let policy = MaintenancePolicy {
            update_fraction: 0.1,
            min_modified_rows: 10,
            max_updates: 1,
            drop_only_droplisted: true,
        };
        for i in 0..500 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let r1 = cat.maintain(&db, &policy);
        assert_eq!(r1.statistics_updated, 1);
        assert!(r1.update_work > 0.0);
        assert_eq!(r1.statistics_dropped, 0);
        // The shared table counter is no longer reset; the refreshed
        // statistic instead records it as its new staleness baseline.
        let counter = db.table(t).modification_counter();
        assert!(counter > 0);
        assert_eq!(cat.statistic(id).unwrap().mods_at_build, counter);
        assert!(cat.stale_statistics(&db, &policy).is_empty());

        // Second heavy modification round: update_count exceeds max_updates,
        // but the stat is not drop-listed, so the improved policy keeps it.
        for i in 0..500 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let r2 = cat.maintain(&db, &policy);
        assert_eq!(r2.statistics_dropped, 0);

        // Drop-list it; the next maintenance pass may drop it physically.
        cat.move_to_drop_list(id);
        let r3 = cat.maintain(&db, &policy);
        assert_eq!(r3.statistics_dropped, 1);
        assert_eq!(cat.total_count(), 0);
    }

    #[test]
    fn statistics_on_one_table_age_independently() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let policy = MaintenancePolicy {
            update_fraction: 0.1,
            min_modified_rows: 10,
            max_updates: 10,
            drop_only_droplisted: true,
        };
        let s1 = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // DML between the two builds: only s1 sees it as aging.
        for i in 0..500 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let s2 = cat
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        assert_eq!(cat.stale_statistics(&db, &policy), vec![s1]);
        let r = cat.maintain(&db, &policy);
        assert_eq!(r.statistics_updated, 1);
        assert_eq!(cat.statistic(s1).unwrap().update_count, 1);
        assert_eq!(cat.statistic(s2).unwrap().update_count, 0);
    }

    /// Modifications of `t` since `id` was built.
    fn mods_since_build(db: &Database, cat: &StatsCatalog, t: TableId, id: StatId) -> u64 {
        db.table(t).modification_counter() - cat.statistic(id).unwrap().mods_at_build
    }

    #[test]
    fn exactly_at_min_modified_rows_is_fresh_one_more_is_stale() {
        let policy = MaintenancePolicy::default();
        // Empty, single-row and small tables: the fraction term (never NaN,
        // never a division by the row count) stays below the 500-row floor.
        for rows in [0, 1, 100] {
            let (mut db, t) = db_with(rows);
            let mut cat = StatsCatalog::new();
            let id = cat
                .create_statistic(&db, StatDescriptor::single(t, 0))
                .unwrap();
            assert!(cat.stale_statistics(&db, &policy).is_empty());
            insert_rows(&mut db, t, 500);
            assert_eq!(policy.threshold(db.table(t).row_count()), 500);
            assert!(
                cat.stale_statistics(&db, &policy).is_empty(),
                "{rows} rows: exactly the threshold is still fresh"
            );
            insert_rows(&mut db, t, 1);
            assert_eq!(cat.stale_statistics(&db, &policy), vec![id], "{rows} rows");
            assert_eq!(mods_since_build(&db, &cat, t, id), 501);
        }
    }

    #[test]
    fn twenty_percent_edge_moves_with_a_large_table() {
        let policy = MaintenancePolicy::default();
        let (mut db, t) = db_with(10_000);
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // Rows grow as we insert, so the threshold is the one at scan time:
        // after 2000 inserts rows = 12_000 → threshold 2400.
        insert_rows(&mut db, t, 2000);
        assert!(cat.stale_statistics(&db, &policy).is_empty());
        // 2481 in all: rows = 12_481 → threshold 2496, still not exceeded.
        insert_rows(&mut db, t, 481);
        assert_eq!(policy.threshold(db.table(t).row_count()), 2496);
        assert!(cat.stale_statistics(&db, &policy).is_empty());
        // 120 more outrun the moving threshold.
        insert_rows(&mut db, t, 120);
        assert_eq!(cat.stale_statistics(&db, &policy), vec![id]);
        assert!(mods_since_build(&db, &cat, t, id) > policy.threshold(db.table(t).row_count()));
    }

    #[test]
    fn table_emptied_after_the_build_is_stale_and_refreshes_cleanly() {
        let policy = MaintenancePolicy::default();
        let (mut db, t) = db_with(1000);
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // Deleting every row counts 1000 modifications against a now-empty
        // table: threshold(0) = 500, so the statistic is stale — and the
        // math must not divide by the zero row count anywhere.
        db.table_mut(t).delete_rows((0..1000).collect());
        assert_eq!(db.table(t).row_count(), 0);
        assert_eq!(cat.stale_statistics(&db, &policy), vec![id]);
        assert_eq!(mods_since_build(&db, &cat, t, id), 1000);
        assert_eq!(policy.threshold(0), 500);
        // A refresh over the empty table succeeds and restores freshness —
        // no starvation loop where the statistic stays stale forever.
        assert_eq!(cat.refresh_statistics(&db, t, &[id]).len(), 1);
        assert!(cat.stale_statistics(&db, &policy).is_empty());
        let s = cat.statistic(id).unwrap();
        assert_eq!(s.row_count_at_build, 0);
        // Estimates on the empty statistic stay finite.
        assert!(s.histogram.selectivity_lt(&Value::Int(10)).is_finite());
    }

    #[test]
    fn vanilla_policy_drops_useful_statistics() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        cat.create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let policy = MaintenancePolicy {
            update_fraction: 0.01,
            min_modified_rows: 1,
            max_updates: 0,
            drop_only_droplisted: false,
        };
        for i in 0..500 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let r = cat.maintain(&db, &policy);
        assert_eq!(
            r.statistics_dropped, 1,
            "vanilla policy drops regardless of usefulness"
        );
    }

    fn feedback_records(t: TableId, column: u32, n: usize) -> Vec<obsv::FeedbackRecord> {
        (0..n)
            .map(|i| obsv::FeedbackRecord {
                fingerprint: obsv::template_fingerprint(t.0 as u64, column, 2),
                table: t.0 as u64,
                column,
                lo: 0.0,
                hi: 10.0 + (i % 3) as f64,
                est_rows: 400.0,
                rows_out: 440.0,
                input_rows: 2000.0,
            })
            .collect()
    }

    #[test]
    fn feedback_refresh_corrects_in_place_and_resets_staleness() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // Age the statistic with DML so it shows up stale.
        for i in 0..600 {
            db.table_mut(t)
                .insert(vec![Value::Int(i % 50), Value::Int(i)])
                .unwrap();
        }
        let policy = MaintenancePolicy::default();
        assert_eq!(cat.stale_statistics(&db, &policy), vec![id]);

        let mut store = FeedbackStore::new();
        store.ingest(&feedback_records(t, 0, 6));
        let config = FeedbackConfig::default();
        assert!(cat.feedback_refreshable(id, &store, &config));
        let scan_cost = cat.update_cost_of(&db, [id]);
        let refreshed = cat.feedback_refresh(&db, t, &[id], &mut store, &config);
        assert_eq!(refreshed.len(), 1);
        let (rid, work) = refreshed[0];
        assert_eq!(rid, id);
        assert!(
            work > 0.0 && work < scan_cost / 100.0,
            "feedback work {work} must be far below scan cost {scan_cost}"
        );
        // Observations are consumed; staleness baseline reset like a rebuild.
        assert_eq!(store.total(), 0);
        let s = cat.statistic(id).unwrap();
        assert_eq!(s.update_count, 1);
        assert_eq!(s.mods_at_build, db.table(t).modification_counter());
        assert!(cat.stale_statistics(&db, &policy).is_empty());
        assert_eq!(cat.update_work(), work);
        // The baseline moved forward, not to infinity: once drift resumes
        // the statistic is eligible for a refresh again (no starvation).
        insert_rows(&mut db, t, 700);
        assert_eq!(cat.stale_statistics(&db, &policy), vec![id]);
    }

    #[test]
    fn feedback_refresh_skips_ineligible_statistics() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let multi = cat
            .create_statistic(&db, StatDescriptor::multi(t, vec![0, 1]))
            .unwrap();
        let mut store = FeedbackStore::new();
        store.ingest(&feedback_records(t, 0, 6));
        let config = FeedbackConfig::default();
        // Multi-column statistics need scans (prefix densities).
        assert!(!cat.feedback_refreshable(multi, &store, &config));
        assert!(cat
            .feedback_refresh(&db, t, &[multi], &mut store, &config)
            .is_empty());
        // Too few observations.
        let single = cat
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        let mut sparse = FeedbackStore::new();
        sparse.ingest(&feedback_records(t, 1, 2));
        assert!(!cat.feedback_refreshable(single, &sparse, &config));
        assert_eq!(cat.update_work(), 0.0);
    }

    #[test]
    fn create_statistic_from_feedback_is_near_free_and_idempotent() {
        let (db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let mut store = FeedbackStore::new();
        store.ingest(&feedback_records(t, 1, 8));
        let config = FeedbackConfig::default();
        let desc = StatDescriptor::single(t, 1);

        let id = cat
            .create_statistic_from_feedback(&db, desc.clone(), &mut store, &config)
            .unwrap()
            .expect("enough observations to synthesize");
        let s = cat.statistic(id).unwrap();
        assert!(s.build_cost > 0.0);
        assert!(s.build_cost < cat.update_cost_of(&db, [id]) / 100.0);
        assert!(s.histogram.selectivity_lt(&Value::Int(11)) > 0.0);
        assert_eq!(cat.find_active(&desc), Some(id));
        // Observations were consumed; a second call reuses the built stat.
        let again = cat
            .create_statistic_from_feedback(&db, desc, &mut store, &config)
            .unwrap();
        assert_eq!(again, Some(id));
        // Insufficient observations: decline rather than build garbage.
        let none = cat
            .create_statistic_from_feedback(&db, StatDescriptor::single(t, 0), &mut store, &config)
            .unwrap();
        assert_eq!(none, None);
    }
}
