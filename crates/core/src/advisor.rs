//! A what-if statistics advisor.
//!
//! §2 of the paper connects statistics selection to index-tuning tools
//! ("the new generation of index tuning tools builds statistics to determine
//! the appropriate choice of indexes … such tools will directly benefit from
//! the techniques proposed in this paper"). This module packages the same
//! machinery — the [`OfflineTuner`]'s MNSA followed by Shrinking Set — as a
//! *read-only advisor*: it tunes a snapshot of the current catalog for a
//! workload and reports which statistics are worth creating and which
//! existing ones are non-essential, with estimated build/update work
//! attached, without touching the live catalog.

use crate::error::TuneError;
use crate::mnsa::MnsaConfig;
use crate::policy::OfflineTuner;
use query::BoundSelect;
use stats::{StatDescriptor, StatsCatalog};
use storage::Database;

/// One recommended action.
#[derive(Debug, Clone, PartialEq)]
pub enum Recommendation {
    /// Build this statistic; MNSA found the plan cost sensitive to it.
    Create {
        descriptor: StatDescriptor,
        /// Deterministic work the build would cost now.
        build_work: f64,
    },
    /// An existing statistic the workload does not need (Shrinking Set
    /// verified removing it leaves every plan equivalent).
    Drop {
        descriptor: StatDescriptor,
        /// Update work saved per refresh cycle by dropping it.
        update_work_saved: f64,
    },
}

/// The advisor's output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdvisorReport {
    pub recommendations: Vec<Recommendation>,
    pub queries_analyzed: usize,
    /// Total build work of all Create recommendations.
    pub total_build_work: f64,
    /// Total per-cycle update work saved by all Drop recommendations.
    pub total_update_savings: f64,
    pub optimizer_calls: usize,
}

impl AdvisorReport {
    pub fn creates(&self) -> impl Iterator<Item = &Recommendation> {
        self.recommendations
            .iter()
            .filter(|r| matches!(r, Recommendation::Create { .. }))
    }

    pub fn drops(&self) -> impl Iterator<Item = &Recommendation> {
        self.recommendations
            .iter()
            .filter(|r| matches!(r, Recommendation::Drop { .. }))
    }

    /// Human-readable rendering (column names resolved against `db`).
    pub fn render(&self, db: &Database) -> String {
        let name = |d: &StatDescriptor| -> String {
            // The table may have been dropped since the report was produced;
            // fall back to raw ids rather than failing the rendering.
            let Ok(table) = db.try_table(d.table) else {
                let cols: Vec<String> = d.columns.iter().map(|c| format!("#{c}")).collect();
                return format!("<dropped table {}>({})", d.table.0, cols.join(", "));
            };
            let cols: Vec<String> = d
                .columns
                .iter()
                .map(|&c| {
                    table
                        .schema()
                        .columns()
                        .get(c)
                        .map(|col| col.name.clone())
                        .unwrap_or_else(|| format!("#{c}"))
                })
                .collect();
            format!("{}({})", table.name(), cols.join(", "))
        };
        let mut out = format!(
            "statistics advisor: {} queries analyzed, {} optimizer calls\n",
            self.queries_analyzed, self.optimizer_calls
        );
        for r in &self.recommendations {
            match r {
                Recommendation::Create {
                    descriptor,
                    build_work,
                } => {
                    out.push_str(&format!(
                        "  CREATE STATISTICS ON {:<40} (build work {:.0})\n",
                        name(descriptor),
                        build_work
                    ));
                }
                Recommendation::Drop {
                    descriptor,
                    update_work_saved,
                } => {
                    out.push_str(&format!(
                        "  DROP   STATISTICS ON {:<40} (saves {:.0}/refresh)\n",
                        name(descriptor),
                        update_work_saved
                    ));
                }
            }
        }
        out.push_str(&format!(
            "  total: build work {:.0}, update savings {:.0}/refresh\n",
            self.total_build_work, self.total_update_savings
        ));
        out
    }
}

/// Analyze `workload` against a snapshot of `catalog` and recommend
/// creations and drops: an [`OfflineTuner`] pass over the snapshot, diffed
/// against `catalog`, which is never modified.
pub fn advise(
    db: &Database,
    catalog: &StatsCatalog,
    workload: &[BoundSelect],
    config: MnsaConfig,
) -> Result<AdvisorReport, TuneError> {
    let mut scratch = StatsCatalog::restore(catalog.snapshot());
    let tuned = OfflineTuner { mnsa: config }.tune(db, &mut scratch, workload)?;
    let mut report = AdvisorReport {
        queries_analyzed: workload.len(),
        optimizer_calls: tuned.optimizer_calls,
        ..Default::default()
    };

    // Diff the surviving essential set against the original catalog.
    let original_active: Vec<StatDescriptor> =
        catalog.active().map(|s| s.descriptor.clone()).collect();
    let essential: Vec<&stats::Statistic> = scratch.active().collect();
    for s in &essential {
        if !original_active.contains(&s.descriptor) {
            report.total_build_work += s.build_cost;
            report.recommendations.push(Recommendation::Create {
                descriptor: s.descriptor.clone(),
                build_work: s.build_cost,
            });
        }
    }
    for d in &original_active {
        if !essential.iter().any(|s| &s.descriptor == d) {
            let saved = catalog
                .find_active(d)
                .map(|id| catalog.update_cost_of(db, [id]))
                .unwrap_or(0.0);
            report.total_update_savings += saved;
            report.recommendations.push(Recommendation::Drop {
                descriptor: d.clone(),
                update_work_saved: saved,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{bind_statement, parse_statement, BoundStatement};
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "events",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("kind", DataType::Int),
                    ColumnDef::new("severity", DataType::Int),
                    ColumnDef::new("unused", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..3000i64 {
            let sev = if i % 70 == 0 { 99 } else { i % 5 };
            db.table_mut(t)
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i % 11),
                    Value::Int(sev),
                    Value::Int(i % 3),
                ])
                .unwrap();
        }
        // An index on severity gives the optimizer a real choice, so
        // statistics on it are essential (not merely cost-cosmetic).
        db.create_index("idx_events_severity", t, vec![2]).unwrap();
        db
    }

    fn bind(db: &Database, sql: &str) -> BoundSelect {
        match bind_statement(db, &parse_statement(sql).unwrap()).unwrap() {
            BoundStatement::Select(q) => q,
            _ => panic!(),
        }
    }

    #[test]
    fn advisor_recommends_creates_without_mutating_catalog() {
        let db = setup();
        let workload = vec![
            bind(&db, "SELECT * FROM events WHERE severity = 99"),
            bind(
                &db,
                "SELECT kind, COUNT(*) FROM events WHERE severity = 99 GROUP BY kind",
            ),
        ];
        let catalog = StatsCatalog::new();
        let report = advise(&db, &catalog, &workload, MnsaConfig::default()).unwrap();
        assert_eq!(catalog.total_count(), 0, "live catalog must stay untouched");
        assert!(report.creates().count() > 0, "no creates recommended");
        assert_eq!(report.drops().count(), 0);
        assert!(report.total_build_work > 0.0);
        let text = report.render(&db);
        assert!(text.contains("CREATE STATISTICS ON events"), "{text}");
    }

    #[test]
    fn advisor_recommends_dropping_irrelevant_statistics() {
        let db = setup();
        let t = db.table_id("events").unwrap();
        let mut catalog = StatsCatalog::new();
        // A statistic on a column no workload query touches.
        catalog
            .create_statistic(&db, StatDescriptor::single(t, 3))
            .unwrap();
        let workload = vec![bind(&db, "SELECT * FROM events WHERE severity = 99")];
        let report = advise(&db, &catalog, &workload, MnsaConfig::default()).unwrap();
        assert!(
            report
                .drops()
                .any(|r| matches!(r, Recommendation::Drop { descriptor, .. }
                    if descriptor == &StatDescriptor::single(t, 3))),
            "unused statistic not flagged for dropping"
        );
        assert!(report.total_update_savings > 0.0);
        // The live catalog still holds it, active.
        assert_eq!(catalog.active_count(), 1);
    }

    #[test]
    fn advisor_keeps_needed_existing_statistics() {
        let db = setup();
        let t = db.table_id("events").unwrap();
        let mut catalog = StatsCatalog::new();
        catalog
            .create_statistic(&db, StatDescriptor::single(t, 2))
            .unwrap(); // severity
        let workload = vec![bind(&db, "SELECT * FROM events WHERE severity = 99")];
        let report = advise(&db, &catalog, &workload, MnsaConfig::default()).unwrap();
        // severity stat is needed (plan-changing) — must not be dropped.
        assert!(!report
            .drops()
            .any(|r| matches!(r, Recommendation::Drop { descriptor, .. }
                if descriptor == &StatDescriptor::single(t, 2))),);
    }
}
