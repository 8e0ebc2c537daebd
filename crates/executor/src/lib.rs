//! Physical-plan execution over the columnar store.
//!
//! The paper measures "execution cost of the workload" on real hardware
//! (§8.2). Our substitute is a deterministic interpreter: every operator is
//! actually evaluated against the stored data, and the work it performs
//! (rows scanned, hashed, probed, sorted, joined, aggregated) is metered with
//! the same weights the optimizer's cost model uses — so a plan that the
//! optimizer mispriced because statistics were missing really does execute
//! with a different (usually larger) measured cost, which is the effect all
//! of the paper's execution-cost experiments quantify.
//!
//! The executor also runs INSERT/UPDATE/DELETE statements, which drive the
//! per-table modification counters that the §6 auto-maintenance policy
//! consumes.
//!
//! Two entry points, each with a traced twin: [`execute_plan`] runs one
//! physical plan, [`run_statement`] optimizes and runs one bound statement,
//! and `*_observed` runs either under an `obsv::Tracer`. A workload's
//! execution cost is the sum of [`StatementOutcome::work`] over its
//! statements. Nothing here records cardinality feedback: a caller that
//! wants observations reads them off the [`ExecOutput`] it gets back (as the
//! cardinality benchmark's drift regime does).

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod exec;
mod kernels;
pub mod predicate;
pub mod reference;
pub mod runner;

pub use error::ExecError;
pub use exec::{execute_plan, execute_plan_observed, ExecOutput};
pub use reference::execute_plan_reference;
pub use runner::{run_statement, run_statement_observed, StatementOutcome};
