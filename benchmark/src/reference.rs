//! The oracle: one unsharded database holding every candidate statistic of the
//! workload (the paper's "all candidates" catalog, Figs. 3-4).
//!
//! It gives the denominators of `tune_work_ratio` and `exec_work_ratio` and
//! the rows every other catalog must reproduce. Under `online-mixed` it is
//! also the single-database mirror the sharded cluster must agree with.

use autostats::policy::apply_policy;
use autostats::CreationPolicy;
use executor::{run_statement, StatementOutcome};
use optimizer::Optimizer;
use query::{bind_statement, BoundStatement, Statement};
use stats::StatsCatalog;
use std::time::Instant;
use storage::Database;

pub struct Reference {
    db: Database,
    catalog: StatsCatalog,
    optimizer: Optimizer,
    /// Wall time of creating every candidate statistic.
    pub create_all_s: f64,
    /// Creation work of the same (the tuner's alternative, Fig. 3).
    pub create_all_work: f64,
    /// Distinct candidate statistics of the workload.
    pub candidates: usize,
}

impl Reference {
    /// Create all candidate statistics of every SELECT in `statements` over
    /// `db`, with `CreationPolicy::CreateAllCandidates`.
    pub fn build(db: Database, statements: &[Statement]) -> Result<Reference, String> {
        let mut catalog = StatsCatalog::new();
        let start = Instant::now();
        for stmt in statements {
            if !matches!(stmt, Statement::Select(_)) {
                continue;
            }
            let bound = bind_statement(&db, stmt).map_err(|e| format!("reference bind: {e}"))?;
            if let BoundStatement::Select(query) = bound {
                apply_policy(
                    &db,
                    &mut catalog,
                    &CreationPolicy::CreateAllCandidates,
                    &query,
                )
                .map_err(|e| format!("create all candidates: {e}"))?;
            }
        }
        Ok(Reference {
            create_all_s: start.elapsed().as_secs_f64(),
            create_all_work: catalog.creation_work(),
            candidates: catalog.total_count(),
            db,
            catalog,
            optimizer: Optimizer::default(),
        })
    }

    /// Run one statement: a SELECT is optimized against the all-candidates
    /// catalog and executed, DML mutates the reference database.
    pub fn run(&mut self, stmt: &Statement) -> Result<StatementOutcome, String> {
        let bound = bind_statement(&self.db, stmt).map_err(|e| format!("reference bind: {e}"))?;
        run_statement(
            &mut self.db,
            self.catalog.full_view(),
            &self.optimizer,
            &bound,
        )
        .map_err(|e| format!("reference run: {e}"))
    }
}
