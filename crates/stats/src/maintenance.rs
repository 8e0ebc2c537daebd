//! The maintenance half of the catalog (§6): the staleness rule, the one
//! refresh of built statistics — a feedback correction where one applies, a
//! rebuild otherwise — and the auto-drop of over-updated ones. The daemon's
//! tick strings them together.

use crate::catalog::StatsCatalog;
use crate::feedback::{correct_histogram, correctable, FeedbackStore, MIN_OBSERVATIONS};
use crate::statistic::StatId;
use std::collections::BTreeMap;
use storage::{Database, Table, TableId};

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

/// One statistic [`StatsCatalog::refresh`] brought up to date.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refreshed {
    pub id: StatId,
    /// Work charged to the update meter.
    pub work: f64,
    /// `Some(n)` when corrected in place from the `n` feedback observations
    /// it took; `None` when rebuilt from the table.
    pub observations: Option<usize>,
}

impl StatsCatalog {
    /// Refresh the given built statistics on `table`, charging the
    /// update-work meter and bumping each one's update count. A refreshed
    /// statistic records the table's *current* modification counter as its
    /// new staleness baseline (`mods_at_build`); the shared table counter
    /// itself is left untouched, so other statistics on the table keep aging
    /// independently. Ids that are not built statistics on `table` are
    /// skipped.
    ///
    /// With `feedback`, a single-column statistic with a correctable
    /// histogram and at least four observations on its column is corrected
    /// in place from them (the STGrid-style cheap refresh: bucket touches, no
    /// scan) under the catalog's bucket ceiling. It takes its observations
    /// even when none applies, and is then rebuilt like the rest. The
    /// rebuilds share one full scan of the table, or each draws its own
    /// seeded sample under sampled build options.
    ///
    /// Returns the corrections, then the rebuilds, each in the order given.
    pub fn refresh(
        &mut self,
        db: &Database,
        table: TableId,
        ids: &[StatId],
        mut feedback: Option<&mut FeedbackStore>,
    ) -> Vec<Refreshed> {
        let Ok(t) = db.try_table(table) else {
            return Vec::new(); // stale table id (e.g. restored snapshot)
        };
        let mut refreshed = Vec::with_capacity(ids.len());
        let mut rebuild = Vec::with_capacity(ids.len());
        for &id in ids {
            if self
                .stats
                .get(&id)
                .is_none_or(|s| s.descriptor.table != table)
            {
                continue;
            }
            let corrected = feedback
                .as_deref_mut()
                .and_then(|store| self.correct(t, id, store));
            match corrected {
                Some(corrected) => refreshed.push(corrected),
                None => rebuild.push(id),
            }
        }
        if rebuild.is_empty() {
            return refreshed;
        }
        let corrections = refreshed.len();
        let mut span = self.obs.tracer.span("stats.refresh");
        span.arg("table", table.0 as u64);
        span.arg("count", rebuild.len());
        let mut scan = None;
        for id in rebuild {
            let Some(stale) = self.stats.get(&id) else {
                continue;
            };
            let update_count = stale.update_count + 1;
            let (descriptor, epoch) = (stale.descriptor.clone(), stale.created_epoch);
            let mut rebuilt = self.build(t, &mut scan, id, descriptor, epoch, update_count.into());
            rebuilt.update_count = update_count;
            self.update_work += rebuilt.build_cost;
            refreshed.push(Refreshed {
                id,
                work: rebuilt.build_cost,
                observations: None,
            });
            self.stats.insert(id, rebuilt);
        }
        span.arg(
            "work",
            refreshed[corrections..].iter().map(|r| r.work).sum::<f64>(),
        );
        refreshed
    }

    /// Correct `id` in place from the observations on its column if it
    /// qualifies for a feedback refresh, taking them. `None` when it does
    /// not qualify or none of them applied.
    fn correct(&mut self, t: &Table, id: StatId, store: &mut FeedbackStore) -> Option<Refreshed> {
        let max_buckets = self.build_options().max_buckets;
        let s = self.stats.get_mut(&id)?;
        let (table, column) = (
            s.descriptor.table.0 as u64,
            s.descriptor.leading_column() as u32,
        );
        if s.descriptor.is_multi_column()
            || !correctable(&s.histogram)
            || store.count(table, column) < MIN_OBSERVATIONS
        {
            return None;
        }
        let observations = store.take(table, column);
        let mut span = self.obs.tracer.span("stats.feedback_refresh");
        span.arg("table", table);
        span.arg("stat", id.0 as u64);
        span.arg("observations", observations.len());
        let outcome = correct_histogram(&mut s.histogram, &observations, max_buckets);
        span.arg("applied", outcome.applied);
        span.arg("work", outcome.work);
        drop(span);
        if outcome.applied == 0 {
            return None;
        }
        s.update_count += 1;
        s.mods_at_build = t.modification_counter();
        s.row_count_at_build = t.row_count();
        self.update_work += outcome.work;
        self.obs.feedback_refreshes.inc();
        self.obs.feedback_work.add(outcome.work);
        Some(Refreshed {
            id,
            work: outcome.work,
            observations: Some(observations.len()),
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::{db_with, insert_rows, test_db};
    use crate::statistic::StatDescriptor;
    use storage::{ColumnDef, DataType, Schema, Value};

    /// One §6 pass as the daemon's tick composes it: refresh what is stale,
    /// table by table, then drop what was refreshed too often. Returns the
    /// statistics refreshed and dropped and the update work charged.
    fn one_pass(
        cat: &mut StatsCatalog,
        db: &Database,
        policy: &MaintenancePolicy,
    ) -> (usize, usize, f64) {
        let before = cat.update_work();
        let mut refreshed = 0;
        for (table, ids) in cat.stale_by_table(db, policy) {
            refreshed += cat.refresh(db, table, &ids, None).len();
        }
        let dropped = cat.drop_over_updated(policy).len();
        (refreshed, dropped, cat.update_work() - before)
    }

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
        let (updated, dropped, work) = one_pass(&mut cat, &db, &policy);
        assert_eq!(updated, 1);
        assert!(work > 0.0);
        assert_eq!(dropped, 0);
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
        assert_eq!(one_pass(&mut cat, &db, &policy).1, 0);

        // Drop-list it; the next maintenance pass may drop it physically.
        cat.move_to_drop_list(id);
        assert_eq!(one_pass(&mut cat, &db, &policy).1, 1);
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
        assert_eq!(one_pass(&mut cat, &db, &policy).0, 1);
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
        assert_eq!(cat.refresh(&db, t, &[id], None).len(), 1);
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
        assert_eq!(
            one_pass(&mut cat, &db, &policy).1,
            1,
            "vanilla policy drops regardless of usefulness"
        );
    }

    fn feedback_records(t: TableId, column: u32, n: usize) -> Vec<obsv::FeedbackRecord> {
        (0..n)
            .map(|i| obsv::FeedbackRecord {
                table: t.0 as u64,
                column,
                lo: 0.0,
                hi: 10.0 + (i % 3) as f64,
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
        let scan_cost = cat.update_cost_of(&db, [id]);
        let refreshed = cat.refresh(&db, t, &[id], Some(&mut store));
        assert_eq!(refreshed.len(), 1);
        let Refreshed {
            id: rid,
            work,
            observations,
        } = refreshed[0];
        assert_eq!((rid, observations), (id, Some(6)));
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

    /// One refresh over a table whose five stale statistics cover every
    /// branch: corrected; observations taken but none applied; and
    /// multi-column, string-keyed and too few observations, which keep
    /// theirs. Corrections come first, then the rebuilds in the order given,
    /// each statistic refreshed once; the obs-attached catalog counts
    /// exactly the corrections it returns.
    #[test]
    fn one_refresh_corrects_first_and_rebuilds_the_rest_once() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "mixed",
                Schema::new(vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                    ColumnDef::new("c", DataType::Int),
                    ColumnDef::new("d", DataType::Int),
                    ColumnDef::new("s", DataType::Str),
                ]),
            )
            .unwrap();
        let insert = |db: &mut Database, from: i64, n: i64| {
            for i in from..from + n {
                db.table_mut(t)
                    .insert(vec![
                        Value::Int(i % 100),
                        Value::Int(i % 40),
                        Value::Int(i % 7),
                        Value::Int(i % 13),
                        Value::Str(format!("name-{}", i % 30).into()),
                    ])
                    .unwrap();
            }
        };
        insert(&mut db, 0, 1000);
        let obs = obsv::Obs::enabled();
        let mut cat = StatsCatalog::new();
        cat.set_obs(&obs);
        let mut create = |columns: Vec<usize>| {
            cat.create_statistic(&db, StatDescriptor::multi(t, columns))
                .unwrap()
        };
        let corrected = create(vec![0]);
        let all_miss = create(vec![1]);
        let multi = create(vec![2, 3]);
        let string = create(vec![4]);
        let too_few = create(vec![3]);
        insert(&mut db, 1000, 600);
        let all = [all_miss, multi, corrected, string, too_few];
        assert_eq!(
            cat.stale_statistics(&db, &MaintenancePolicy::default())
                .len(),
            all.len()
        );

        let record = |column: u32, lo: f64, hi: f64, rows_out: f64| obsv::FeedbackRecord {
            table: t.0 as u64,
            column,
            lo,
            hi,
            rows_out,
            input_rows: 1600.0,
        };
        let mut store = FeedbackStore::new();
        for i in 0..6 {
            store.ingest(&[
                record(0, 0.0, 10.0 + i as f64, 300.0),
                record(1, 1e6, 2e6, 0.0),
                record(2, 0.0, 3.0, 900.0),
                record(4, 0.0, 1.0, 50.0),
            ]);
        }
        store.ingest(&[record(3, 0.0, 5.0, 700.0); 2]);

        let refreshed = cat.refresh(&db, t, &all, Some(&mut store));
        let order: Vec<(StatId, Option<usize>)> =
            refreshed.iter().map(|r| (r.id, r.observations)).collect();
        assert_eq!(
            order,
            vec![
                (corrected, Some(6)),
                (all_miss, None),
                (multi, None),
                (string, None),
                (too_few, None),
            ]
        );
        for id in all {
            assert_eq!(cat.statistic(id).unwrap().update_count, 1);
        }
        assert!(cat
            .stale_statistics(&db, &MaintenancePolicy::default())
            .is_empty());

        let raw = t.0 as u64;
        assert_eq!(store.count(raw, 0), 0);
        assert_eq!(store.count(raw, 1), 0, "taken even though none applied");
        assert_eq!(store.count(raw, 2), 6);
        assert_eq!(store.count(raw, 3), 2);
        assert_eq!(store.count(raw, 4), 6);

        let total = refreshed.iter().fold(0.0, |sum, r| sum + r.work);
        assert_eq!(cat.update_work().to_bits(), total.to_bits());
        let correction = refreshed[0].work;
        let scans = refreshed[1..].iter().fold(0.0, |sum, r| sum + r.work);
        assert!(correction > 0.0 && correction < scans);
        // The catalog is the only counter of its corrections.
        assert_eq!(obs.metrics.counter("stats.feedback.refreshes").get(), 1);
        assert_eq!(
            obs.metrics
                .float_counter("stats.feedback.work")
                .get()
                .to_bits(),
            correction.to_bits()
        );
    }

    /// An empty feedback store is no feedback: the same rebuilds and the
    /// same catalog as a refresh without one.
    #[test]
    fn empty_feedback_store_changes_nothing() {
        let (mut db, t) = test_db();
        let build = || {
            let mut cat = StatsCatalog::new();
            for d in [
                StatDescriptor::single(t, 0),
                StatDescriptor::multi(t, vec![0, 1]),
            ] {
                cat.create_statistic(&db, d).unwrap();
            }
            cat
        };
        let (mut with, mut without) = (build(), build());
        insert_rows(&mut db, t, 700);
        let ids = with.active_ids();
        let mut store = FeedbackStore::new();
        assert_eq!(
            with.refresh(&db, t, &ids, Some(&mut store)),
            without.refresh(&db, t, &ids, None)
        );
        assert_eq!(with.snapshot(), without.snapshot());
        assert_eq!(
            with.update_work().to_bits(),
            without.update_work().to_bits()
        );
    }
}
