//! The `AutoStatsManager` facade: a self-tuning mini database.
//!
//! Ties together the storage engine, the statistics catalog, the optimizer,
//! the executor and the §6 policies behind an `execute_sql` API, so the
//! examples and experiments can drive the whole system the way an
//! application would drive a server.

use crate::error::TuneError;
use crate::policy::{apply_policy, CreationPolicy, TuningReport};
use executor::{run_statement, ExecError, StatementOutcome};
use optimizer::PlanError;
use optimizer::{OptimizeOptions, Optimizer};
use query::{bind_statement, parse_statement, BindError, BoundStatement, ParseError, Statement};
use stats::{MaintenancePolicy, MaintenanceReport, StatsCatalog};
use std::fmt;
use storage::Database;

/// Errors surfaced by the manager: every stage of the
/// parse → bind → tune → optimize → execute funnel has a typed variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerError {
    Parse(ParseError),
    Bind(BindError),
    /// Statistics tuning (the creation policy) failed.
    Tune(TuneError),
    /// Optimizing or executing the statement failed.
    Exec(ExecError),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::Parse(e) => write!(f, "{e}"),
            ManagerError::Bind(e) => write!(f, "{e}"),
            ManagerError::Tune(e) => write!(f, "{e}"),
            ManagerError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagerError::Parse(_) | ManagerError::Bind(_) => None,
            ManagerError::Tune(e) => Some(e),
            ManagerError::Exec(e) => Some(e),
        }
    }
}

impl From<ParseError> for ManagerError {
    fn from(e: ParseError) -> Self {
        ManagerError::Parse(e)
    }
}

impl From<BindError> for ManagerError {
    fn from(e: BindError) -> Self {
        ManagerError::Bind(e)
    }
}

impl From<TuneError> for ManagerError {
    fn from(e: TuneError) -> Self {
        ManagerError::Tune(e)
    }
}

impl From<ExecError> for ManagerError {
    fn from(e: ExecError) -> Self {
        ManagerError::Exec(e)
    }
}

impl From<PlanError> for ManagerError {
    fn from(e: PlanError) -> Self {
        ManagerError::Exec(ExecError::Plan(e))
    }
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// How statistics are created for incoming queries.
    pub creation: CreationPolicy,
    /// Auto-update/auto-drop policy for the maintenance loop.
    pub maintenance: MaintenancePolicy,
    /// Run the maintenance loop automatically after every DML statement.
    pub auto_maintain: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            creation: CreationPolicy::default(),
            maintenance: MaintenancePolicy::default(),
            auto_maintain: true,
        }
    }
}

/// A self-tuning database: storage + statistics + optimizer + policy.
pub struct AutoStatsManager {
    db: Database,
    catalog: StatsCatalog,
    optimizer: Optimizer,
    config: ManagerConfig,
    /// Cumulative tuning activity.
    tuning: TuningReport,
    /// Cumulative execution work.
    execution_work: f64,
}

impl AutoStatsManager {
    pub fn new(db: Database, config: ManagerConfig) -> Self {
        AutoStatsManager {
            db,
            catalog: StatsCatalog::new(),
            optimizer: Optimizer::default(),
            config,
            tuning: TuningReport::default(),
            execution_work: 0.0,
        }
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut StatsCatalog {
        &mut self.catalog
    }

    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Cumulative tuning report (statistics created, overhead, …).
    pub fn tuning_report(&self) -> &TuningReport {
        &self.tuning
    }

    /// Total execution work across all statements run through the manager.
    pub fn execution_work(&self) -> f64 {
        self.execution_work
    }

    /// Parse, bind, tune (per policy), and execute one SQL statement.
    pub fn execute_sql(&mut self, sql: &str) -> Result<StatementOutcome, ManagerError> {
        let stmt = parse_statement(sql)?;
        self.execute(&stmt)
    }

    /// Bind, tune, and execute a parsed statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<StatementOutcome, ManagerError> {
        let bound = bind_statement(&self.db, stmt)?;
        self.execute_bound(&bound)
    }

    /// Execute a pre-bound statement.
    pub fn execute_bound(
        &mut self,
        bound: &BoundStatement,
    ) -> Result<StatementOutcome, ManagerError> {
        if let BoundStatement::Select(q) = bound {
            let (report, _, _) =
                apply_policy(&self.db, &mut self.catalog, &self.config.creation, q)?;
            self.tuning.absorb(&report);
        }
        let outcome = run_statement(
            &mut self.db,
            self.catalog.full_view(),
            &self.optimizer,
            bound,
        )?;
        self.execution_work += outcome.work();
        if self.config.auto_maintain && !matches!(bound, BoundStatement::Select(_)) {
            self.maintain();
        }
        Ok(outcome)
    }

    /// One pass of the §6 auto-update/auto-drop maintenance policy.
    pub fn maintain(&mut self) -> MaintenanceReport {
        self.catalog.maintain(&self.db, &self.config.maintenance)
    }

    /// EXPLAIN: the plan the optimizer currently picks for a query, without
    /// executing it or tuning statistics.
    pub fn explain_sql(&self, sql: &str) -> Result<String, ManagerError> {
        let stmt = parse_statement(sql)?;
        let bound = bind_statement(&self.db, &stmt)?;
        match bound {
            BoundStatement::Select(q) => {
                let r = self.optimizer.optimize(
                    &self.db,
                    &q,
                    self.catalog.full_view(),
                    &OptimizeOptions::default(),
                )?;
                Ok(format!(
                    "{}magic variables: {:?}\n",
                    r.plan, r.magic_variables
                ))
            }
            _ => Ok("DML statement (no plan)\n".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "items",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("cat", DataType::Int),
                    ColumnDef::new("price", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..3000i64 {
            let price = if i % 60 == 0 { 2000 } else { i % 300 };
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Int(i % 9), Value::Int(price)])
                .unwrap();
        }
        #[allow(deprecated)]
        db.table_mut(t).reset_modification_counter();
        db
    }

    #[test]
    fn query_execution_with_auto_tuning() {
        let mut mgr = AutoStatsManager::new(setup(), ManagerConfig::default());
        let out = mgr
            .execute_sql("SELECT * FROM items WHERE price > 1500 AND cat = 3")
            .unwrap();
        match out {
            StatementOutcome::Query { output, .. } => {
                assert!(output.row_count() > 0);
            }
            _ => panic!(),
        }
        // MNSA ran and may have created statistics; overhead was charged.
        assert!(mgr.tuning_report().optimizer_calls >= 3);
        assert!(mgr.execution_work() > 0.0);
    }

    #[test]
    fn repeated_query_does_not_retune() {
        let mut mgr = AutoStatsManager::new(setup(), ManagerConfig::default());
        let sql = "SELECT * FROM items WHERE price > 1500";
        mgr.execute_sql(sql).unwrap();
        let created_once = mgr.tuning_report().statistics_created;
        mgr.execute_sql(sql).unwrap();
        assert_eq!(mgr.tuning_report().statistics_created, created_once);
    }

    #[test]
    fn dml_triggers_auto_maintenance() {
        let mut mgr = AutoStatsManager::new(
            setup(),
            ManagerConfig {
                maintenance: MaintenancePolicy {
                    update_fraction: 0.0,
                    min_modified_rows: 0,
                    max_updates: 100,
                    drop_only_droplisted: true,
                },
                ..Default::default()
            },
        );
        mgr.execute_sql("SELECT * FROM items WHERE price > 1500")
            .unwrap();
        let stats_before = mgr.catalog().total_count();
        mgr.execute_sql("DELETE FROM items WHERE id < 30").unwrap();
        // Maintenance ran: every statistic on items was refreshed (its
        // staleness baseline is the current, never-reset counter value).
        let t = mgr.database().table_id("items").unwrap();
        let counter = mgr.database().table(t).modification_counter();
        assert!(counter > 0);
        assert!(mgr
            .catalog()
            .built_on_table(t)
            .all(|s| s.update_count >= 1 && s.mods_at_build == counter));
        assert_eq!(mgr.catalog().total_count(), stats_before);
    }

    #[test]
    fn parse_and_bind_errors_surface() {
        let mut mgr = AutoStatsManager::new(setup(), ManagerConfig::default());
        assert!(matches!(
            mgr.execute_sql("SELEC oops"),
            Err(ManagerError::Parse(_))
        ));
        assert!(matches!(
            mgr.execute_sql("SELECT * FROM missing"),
            Err(ManagerError::Bind(_))
        ));
    }

    #[test]
    fn explain_renders_plan() {
        let mgr = AutoStatsManager::new(setup(), ManagerConfig::default());
        let text = mgr
            .explain_sql("SELECT cat, COUNT(*) FROM items WHERE price > 100 GROUP BY cat")
            .unwrap();
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("SeqScan"));
        assert!(text.contains("magic variables"));
    }

    #[test]
    fn manual_policy_never_creates() {
        let mut mgr = AutoStatsManager::new(
            setup(),
            ManagerConfig {
                creation: CreationPolicy::Manual,
                ..Default::default()
            },
        );
        mgr.execute_sql("SELECT * FROM items WHERE price > 1500")
            .unwrap();
        assert_eq!(mgr.catalog().total_count(), 0);
    }
}
