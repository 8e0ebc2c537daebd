//! Tuning-level and statement-level errors.
//!
//! Every §4–§6 algorithm (MNSA, MNSA/D, Shrinking Set, the policy layer)
//! returns [`TuneError`] instead of panicking, so a degenerate input — an
//! empty table, a statistic dropped mid-tune, a malformed query — surfaces
//! as a typed, recoverable failure at the tuning loop's caller. A client
//! statement fails with a [`StatementError`].

use executor::ExecError;
use optimizer::PlanError;
use query::{BindError, ParseError};
use stats::StatsError;
use std::fmt;
use storage::StorageError;

/// Errors raised by the statistics-tuning algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// Statistics creation or catalog manipulation failed.
    Stats(StatsError),
    /// An optimizer call inside the tuning loop failed.
    Plan(PlanError),
    /// Executing a statement during tuning failed.
    Exec(ExecError),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Stats(e) => write!(f, "statistics error during tuning: {e}"),
            TuneError::Plan(e) => write!(f, "optimizer error during tuning: {e}"),
            TuneError::Exec(e) => write!(f, "execution error during tuning: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Stats(e) => Some(e),
            TuneError::Plan(e) => Some(e),
            TuneError::Exec(e) => Some(e),
        }
    }
}

impl From<StatsError> for TuneError {
    fn from(e: StatsError) -> Self {
        TuneError::Stats(e)
    }
}

impl From<PlanError> for TuneError {
    fn from(e: PlanError) -> Self {
        TuneError::Plan(e)
    }
}

impl From<ExecError> for TuneError {
    fn from(e: ExecError) -> Self {
        TuneError::Exec(e)
    }
}

impl From<StorageError> for TuneError {
    fn from(e: StorageError) -> Self {
        TuneError::Stats(StatsError::Storage(e))
    }
}

/// Why one client statement failed — what `autod::QueryHandle::run` and
/// `serve::ClusterClient::run_sql` return: a typed variant per stage of the
/// parse → bind → optimize → execute funnel.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementError {
    Parse(ParseError),
    Bind(BindError),
    /// Optimizing or executing the statement failed.
    Exec(ExecError),
}

impl fmt::Display for StatementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementError::Parse(e) => write!(f, "{e}"),
            StatementError::Bind(e) => write!(f, "{e}"),
            StatementError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StatementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatementError::Parse(_) | StatementError::Bind(_) => None,
            StatementError::Exec(e) => Some(e),
        }
    }
}

impl From<ParseError> for StatementError {
    fn from(e: ParseError) -> Self {
        StatementError::Parse(e)
    }
}

impl From<BindError> for StatementError {
    fn from(e: BindError) -> Self {
        StatementError::Bind(e)
    }
}

impl From<ExecError> for StatementError {
    fn from(e: ExecError) -> Self {
        StatementError::Exec(e)
    }
}

impl From<PlanError> for StatementError {
    fn from(e: PlanError) -> Self {
        StatementError::Exec(ExecError::Plan(e))
    }
}
