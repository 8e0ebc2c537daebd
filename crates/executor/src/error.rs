//! Executor-level errors.
//!
//! Plan interpretation returns [`ExecError`] instead of panicking so that a
//! malformed or stale plan — one whose tree is inconsistent with the bound
//! query it is executed against — surfaces as a typed, recoverable failure
//! naming the offending relation rather than crashing the tuning loop.

use optimizer::PlanError;
use std::fmt;
use storage::StorageError;

/// Errors raised while interpreting a physical plan or running a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A plan node (or the final projection) reads relation ordinal
    /// `relation`, but the intermediate result feeding it does not produce
    /// that relation — the plan tree is inconsistent with the query.
    MissingRelation { relation: usize },
    /// A plan node references a selection predicate or join edge ordinal
    /// that the bound query does not define.
    MalformedPlan { detail: String },
    /// Plan search failed before execution could start.
    Plan(PlanError),
    /// A table referenced by the plan or statement no longer exists, or a
    /// write the store refused.
    Storage(StorageError),
    /// A cross product of `tuples` tuples (saturating) is more than the
    /// executor materializes; refused before anything is allocated.
    ResultTooLarge { tuples: usize },
}

impl ExecError {
    /// A query whose projection is `Projection::Grouped` when it has no
    /// GROUP BY and no aggregate, or is not when it has one: built by hand,
    /// since the binder gives every grouped query a grouped projection.
    pub(crate) fn projection_mismatch() -> ExecError {
        ExecError::MalformedPlan {
            detail: "the projection does not match the query's grouping".to_string(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingRelation { relation } => write!(
                f,
                "plan reads relation #{relation}, which its input does not \
                 produce; the plan tree is inconsistent with the query"
            ),
            ExecError::MalformedPlan { detail } => {
                write!(f, "malformed plan: {detail}")
            }
            ExecError::Plan(e) => write!(f, "optimization failed: {e}"),
            ExecError::Storage(e) => write!(f, "storage error during execution: {e}"),
            ExecError::ResultTooLarge { tuples } => write!(
                f,
                "cross product of {tuples} tuples is too large to materialize; \
                 add a join predicate"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Plan(e) => Some(e),
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}
