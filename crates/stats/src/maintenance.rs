//! The maintenance half of the catalog (§6): the staleness rule, the one
//! refresh of built statistics — a feedback correction where one applies, a
//! rebuild otherwise — and the auto-drop of over-updated ones. The daemon's
//! tick strings them together.

use crate::catalog::StatsCatalog;
use crate::feedback::{correct_histogram, correctable, FeedbackStore, MIN_OBSERVATIONS};
use crate::statistic::{StatId, MAX_BUCKETS};
use std::collections::BTreeMap;
use storage::{Database, Table, TableId};

/// The floor of §6's refresh rule, SQL Server 7.0's: a statistic is stale
/// only after more than this many modifications since its build.
pub const STALE_MIN_ROWS: u64 = 500;

/// The fraction of §6's refresh rule: on a table of more than 2 500 rows a
/// statistic is stale after modifications of more than this share of them.
pub const STALE_FRACTION: f64 = 0.2;

/// §6's auto-drop limit: a statistic refreshed more than this many times is
/// physically dropped ([`StatsCatalog::drop_over_updated`]).
pub const MAX_UPDATES: u32 = 4;

/// The modified-row threshold for a table with `rows` rows — the SQL
/// Server-style `max(500, 20% of rows)` rule. A statistic is stale when the
/// modifications since its build are **strictly greater** than this (exactly
/// the threshold is still fresh).
pub fn staleness_threshold(rows: usize) -> u64 {
    ((rows as f64 * STALE_FRACTION) as u64).max(STALE_MIN_ROWS)
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
    /// scan) under [`MAX_BUCKETS`]. It takes its observations
    /// even when none applies, and is then rebuilt like the rest. The
    /// rebuilds share one scan of the table.
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
            let mut rebuilt = self.build(t, &mut scan, id, descriptor, epoch);
            rebuilt.update_count = update_count;
            self.update_work += rebuilt.build_cost;
            refreshed.push(Refreshed {
                id,
                work: rebuilt.build_cost,
                observations: None,
            });
            self.stats.insert(id, rebuilt);
            self.join_memo.forget(id);
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
        let s = self.stats.get_mut(&id)?;
        let (table, column) = (s.descriptor.table, s.descriptor.leading_column());
        if s.descriptor.is_multi_column()
            || !correctable(&s.histogram)
            || store.count(table, column) < MIN_OBSERVATIONS
        {
            return None;
        }
        let observations = store.take(table, column);
        let mut span = self.obs.tracer.span("stats.feedback_refresh");
        span.arg("table", table.0 as u64);
        span.arg("stat", id.0 as u64);
        span.arg("observations", observations.len());
        let outcome = correct_histogram(&mut s.histogram, &observations, MAX_BUCKETS);
        self.join_memo.forget(id);
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

    /// Built statistics (active and drop-listed) that are stale: more table
    /// modifications since their build than [`staleness_threshold`] of the
    /// table's rows, strictly greater. Returned in id order so scans are
    /// deterministic.
    pub fn stale_statistics(&self, db: &Database) -> Vec<StatId> {
        self.stats
            .values()
            .filter(|s| {
                let Ok(t) = db.try_table(s.descriptor.table) else {
                    return false;
                };
                t.modification_counter().saturating_sub(s.mods_at_build)
                    > staleness_threshold(t.row_count())
            })
            .map(|s| s.id)
            .collect()
    }

    /// [`StatsCatalog::stale_statistics`] grouped by table, so each table's
    /// refreshes can share one scan.
    pub fn stale_by_table(&self, db: &Database) -> BTreeMap<TableId, Vec<StatId>> {
        let mut by_table: BTreeMap<TableId, Vec<StatId>> = BTreeMap::new();
        for id in self.stale_statistics(db) {
            if let Some(s) = self.stats.get(&id) {
                by_table.entry(s.descriptor.table).or_default().push(id);
            }
        }
        by_table
    }

    /// §6 auto-drop: physically drop every statistic refreshed more than
    /// [`MAX_UPDATES`] times. With `only_droplisted` — the paper's improved
    /// policy, and the daemon's — only those on the drop-list go, which no
    /// plan can see; without it, SQL Server 7.0's, any statistic does. Each
    /// goes through [`StatsCatalog::physically_drop`] and so into the aging
    /// registry. Returns `(id, table, update_count)` per dropped statistic,
    /// in id order.
    pub fn drop_over_updated(&mut self, only_droplisted: bool) -> Vec<(StatId, TableId, u32)> {
        let dropped: Vec<(StatId, TableId, u32)> = self
            .stats
            .values()
            .filter(|s| s.update_count > MAX_UPDATES)
            .filter(|s| !only_droplisted || self.drop_list.contains(&s.id))
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
        only_droplisted: bool,
    ) -> (usize, usize, f64) {
        let before = cat.update_work();
        let mut refreshed = 0;
        for (table, ids) in cat.stale_by_table(db) {
            refreshed += cat.refresh(db, table, &ids, None).len();
        }
        let dropped = cat.drop_over_updated(only_droplisted).len();
        (refreshed, dropped, cat.update_work() - before)
    }

    /// Rewrite one cell more than `t`'s staleness threshold, each with the
    /// value it holds: modifications that leave the rows as they were.
    fn age(db: &mut Database, t: TableId) {
        let rows = db.table(t).row_count();
        for i in 0..=staleness_threshold(rows) as usize {
            let v = db.table(t).value(i % rows, 0);
            db.table_mut(t).update_rows(&[i % rows], 0, &v).unwrap();
        }
    }

    #[test]
    fn maintenance_updates_and_drops() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // Heavy modification, one refresh per round. The shared table
        // counter is never reset; the refreshed statistic instead records it
        // as its new staleness baseline. Past `MAX_UPDATES` refreshes the
        // statistic is not drop-listed, so the improved policy keeps it.
        for round in 1..=MAX_UPDATES + 1 {
            age(&mut db, t);
            let (updated, dropped, work) = one_pass(&mut cat, &db, true);
            assert_eq!((updated, dropped), (1, 0), "round {round}");
            assert!(work > 0.0);
            let counter = db.table(t).modification_counter();
            assert_eq!(cat.statistic(id).unwrap().mods_at_build, counter);
            assert_eq!(cat.statistic(id).unwrap().update_count, round);
            assert!(cat.stale_statistics(&db).is_empty());
        }

        // Drop-list it; the next maintenance pass drops it physically.
        cat.move_to_drop_list(id);
        assert_eq!(one_pass(&mut cat, &db, true).1, 1);
        assert_eq!(cat.total_count(), 0);
    }

    #[test]
    fn statistics_on_one_table_age_independently() {
        let (mut db, t) = test_db();
        let mut cat = StatsCatalog::new();
        let s1 = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // DML between the two builds: only s1 sees it as aging.
        age(&mut db, t);
        let s2 = cat
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        assert_eq!(cat.stale_statistics(&db), vec![s1]);
        assert_eq!(one_pass(&mut cat, &db, true).0, 1);
        assert_eq!(cat.statistic(s1).unwrap().update_count, 1);
        assert_eq!(cat.statistic(s2).unwrap().update_count, 0);
    }

    /// Modifications of `t` since `id` was built.
    fn mods_since_build(db: &Database, cat: &StatsCatalog, t: TableId, id: StatId) -> u64 {
        db.table(t).modification_counter() - cat.statistic(id).unwrap().mods_at_build
    }

    #[test]
    fn exactly_at_stale_min_rows_is_fresh_one_more_is_stale() {
        // Empty, single-row and small tables: the fraction term (never NaN,
        // never a division by the row count) stays below the 500-row floor.
        for rows in [0, 1, 100] {
            let (mut db, t) = db_with(rows);
            let mut cat = StatsCatalog::new();
            let id = cat
                .create_statistic(&db, StatDescriptor::single(t, 0))
                .unwrap();
            assert!(cat.stale_statistics(&db).is_empty());
            insert_rows(&mut db, t, 500);
            assert_eq!(staleness_threshold(db.table(t).row_count()), 500);
            assert!(
                cat.stale_statistics(&db).is_empty(),
                "{rows} rows: exactly the threshold is still fresh"
            );
            insert_rows(&mut db, t, 1);
            assert_eq!(cat.stale_statistics(&db), vec![id], "{rows} rows");
            assert_eq!(mods_since_build(&db, &cat, t, id), 501);
        }
    }

    #[test]
    fn twenty_percent_edge_moves_with_a_large_table() {
        let (mut db, t) = db_with(10_000);
        let mut cat = StatsCatalog::new();
        let id = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        // Rows grow as we insert, so the threshold is the one at scan time:
        // after 2000 inserts rows = 12_000 → threshold 2400.
        insert_rows(&mut db, t, 2000);
        assert!(cat.stale_statistics(&db).is_empty());
        // 2481 in all: rows = 12_481 → threshold 2496, still not exceeded.
        insert_rows(&mut db, t, 481);
        assert_eq!(staleness_threshold(db.table(t).row_count()), 2496);
        assert!(cat.stale_statistics(&db).is_empty());
        // 120 more outrun the moving threshold.
        insert_rows(&mut db, t, 120);
        assert_eq!(cat.stale_statistics(&db), vec![id]);
        assert!(mods_since_build(&db, &cat, t, id) > staleness_threshold(db.table(t).row_count()));
    }

    #[test]
    fn table_emptied_after_the_build_is_stale_and_refreshes_cleanly() {
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
        assert_eq!(cat.stale_statistics(&db), vec![id]);
        assert_eq!(mods_since_build(&db, &cat, t, id), 1000);
        assert_eq!(staleness_threshold(0), 500);
        // A refresh over the empty table succeeds and restores freshness —
        // no starvation loop where the statistic stays stale forever.
        assert_eq!(cat.refresh(&db, t, &[id], None).len(), 1);
        assert!(cat.stale_statistics(&db).is_empty());
        let s = cat.statistic(id).unwrap();
        assert_eq!(s.row_count_at_build, 0);
        // Estimates on the empty statistic stay finite.
        assert!(s.histogram.selectivity_lt(&Value::Int(10)).is_finite());
    }

    /// SQL Server 7.0's auto-drop takes a statistic no plan has given up on
    /// after its `MAX_UPDATES + 1`-th refresh; the improved policy keeps it
    /// through the same refreshes.
    #[test]
    fn vanilla_policy_drops_useful_statistics() {
        let (mut db, t) = test_db();
        let mut vanilla = StatsCatalog::new();
        let id = vanilla
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let mut improved = StatsCatalog::restore(vanilla.snapshot());
        for round in 1..=MAX_UPDATES + 1 {
            age(&mut db, t);
            let (refreshed, dropped, _) = one_pass(&mut vanilla, &db, false);
            let last = usize::from(round > MAX_UPDATES);
            assert_eq!((refreshed, dropped), (1, last), "round {round}");
            assert_eq!(one_pass(&mut improved, &db, true).1, 0, "round {round}");
        }
        assert_eq!(
            vanilla.total_count(),
            0,
            "vanilla policy drops regardless of usefulness"
        );
        assert_eq!(
            improved.statistic(id).unwrap().update_count,
            MAX_UPDATES + 1
        );
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
        assert_eq!(cat.stale_statistics(&db), vec![id]);

        let mut store = FeedbackStore::new();
        for i in 0..6 {
            store.observe(t, 0, 0.0, 10.0 + (i % 3) as f64, 440, 2000);
        }
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
        assert!(cat.stale_statistics(&db).is_empty());
        assert_eq!(cat.update_work(), work);
        // The baseline moved forward, not to infinity: once drift resumes
        // the statistic is eligible for a refresh again (no starvation).
        insert_rows(&mut db, t, 700);
        assert_eq!(cat.stale_statistics(&db), vec![id]);
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
        assert_eq!(cat.stale_statistics(&db).len(), all.len());

        let mut store = FeedbackStore::new();
        for i in 0..6 {
            store.observe(t, 0, 0.0, 10.0 + i as f64, 300, 1600);
            store.observe(t, 1, 1e6, 2e6, 0, 1600);
            store.observe(t, 2, 0.0, 3.0, 900, 1600);
            store.observe(t, 4, 0.0, 1.0, 50, 1600);
        }
        for _ in 0..2 {
            store.observe(t, 3, 0.0, 5.0, 700, 1600);
        }

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
        assert!(cat.stale_statistics(&db).is_empty());

        assert_eq!(store.count(t, 0), 0);
        assert_eq!(store.count(t, 1), 0, "taken even though none applied");
        assert_eq!(store.count(t, 2), 6);
        assert_eq!(store.count(t, 3), 2);
        assert_eq!(store.count(t, 4), 6);

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

    /// Every ordered pair of `ids` that `StatsView::join_selectivity`
    /// answers equals `join_selectivity` on the two current histograms, bit
    /// for bit.
    fn assert_memo_exact(cat: &StatsCatalog, ids: &[StatId]) {
        let view = cat.full_view();
        for &a in ids {
            for &b in ids {
                let (sa, sb) = (cat.statistic(a).unwrap(), cat.statistic(b).unwrap());
                assert_eq!(
                    view.join_selectivity(sa, sb).to_bits(),
                    crate::join_selectivity(&sa.histogram, &sb.histogram).to_bits(),
                    "({a:?}, {b:?})"
                );
            }
        }
    }

    fn join_bits(cat: &StatsCatalog, a: StatId, b: StatId) -> u64 {
        let (sa, sb) = (cat.statistic(a).unwrap(), cat.statistic(b).unwrap());
        cat.full_view().join_selectivity(sa, sb).to_bits()
    }

    /// The memo answers for the histograms a statistic has now: a rebuild, a
    /// feedback correction and a physical drop forget the id, drop-listing
    /// and reactivation keep its entries, and a restored catalog starts
    /// with none.
    #[test]
    fn join_memo_stays_exact_through_every_write() {
        let (mut db, t) = test_db();
        let obs = obsv::Obs::enabled();
        let mut cat = StatsCatalog::new();
        cat.set_obs(&obs);
        let a = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        let b = cat
            .create_statistic(&db, StatDescriptor::single(t, 1))
            .unwrap();
        let counts = || {
            (
                obs.metrics.counter("stats.join_memo.hits").get(),
                obs.metrics.counter("stats.join_memo.misses").get(),
            )
        };
        assert_memo_exact(&cat, &[a, b]);
        assert_eq!(counts(), (0, 4));
        assert_memo_exact(&cat, &[a, b]);
        assert_eq!(counts(), (4, 4));
        assert_eq!(cat.join_memo.len(), 4);

        // A rebuild over rows that widen `a`'s domain.
        let before = join_bits(&cat, a, b);
        for i in 0..1000 {
            db.table_mut(t)
                .insert(vec![Value::Int(i % 500), Value::Int(i % 8)])
                .unwrap();
        }
        assert_eq!(cat.refresh(&db, t, &[a], None)[0].observations, None);
        assert_ne!(
            join_bits(&cat, a, b),
            before,
            "a rebuilt pair kept its value"
        );
        assert_memo_exact(&cat, &[a, b]);

        // A feedback correction of `b`.
        let before = join_bits(&cat, a, b);
        let mut store = FeedbackStore::new();
        for _ in 0..6 {
            store.observe(t, 1, 0.0, 3.0, 900, 3000);
        }
        assert_eq!(
            cat.refresh(&db, t, &[b], Some(&mut store))[0].observations,
            Some(6)
        );
        assert_ne!(
            join_bits(&cat, a, b),
            before,
            "a corrected pair kept its value"
        );
        assert_memo_exact(&cat, &[a, b]);

        // Hiding a statistic leaves its histogram, and its entries, alone.
        let held = cat.join_memo.len();
        let misses = counts().1;
        cat.move_to_drop_list(a);
        cat.reactivate(a);
        assert_eq!(cat.join_memo.len(), held);
        assert_memo_exact(&cat, &[a, b]);
        assert_eq!(counts().1, misses, "drop-listing forgot an entry");

        let mut restored = StatsCatalog::restore(cat.snapshot());
        assert_eq!(restored.join_memo.len(), 0);
        assert_memo_exact(&restored, &[a, b]);

        // A physical drop forgets every pair `a` was in; its descriptor comes
        // back under a new id.
        assert!(cat.physically_drop(a));
        assert_eq!(cat.join_memo.len(), 1, "only (b, b) is left");
        let again = cat
            .create_statistic(&db, StatDescriptor::single(t, 0))
            .unwrap();
        assert_ne!(again, a);
        assert_memo_exact(&cat, &[again, b]);
    }
}
