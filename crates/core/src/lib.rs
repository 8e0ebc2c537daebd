//! # autostats — Automating Statistics Management for Query Optimizers
//!
//! A faithful reproduction of Chaudhuri & Narasayya, *Automating Statistics
//! Management for Query Optimizers* (ICDE 2000), over the pure-Rust database
//! substrate in this workspace (`storage`, `query`, `stats`, `optimizer`,
//! `executor`).
//!
//! The paper's problem: which statistics (histograms / multi-column
//! densities) should a database build and maintain so the optimizer picks
//! (nearly) the plans it would pick with *all* syntactically relevant
//! statistics — without paying for all of them? Its answers, all here:
//!
//! * [`candidates`] — the candidate-statistics algorithm of §7.1 (and the
//!   Exhaustive strategy it is evaluated against in Figure 3);
//! * [`equivalence`] — Execution-Tree / Optimizer-Cost / t-Optimizer-Cost
//!   equivalence of statistics sets (§3.2) and essential-set checking (§3.3);
//! * [`mnsa`] — **Magic Number Sensitivity Analysis** (§4, Figure 1) with
//!   `FindNextStatToBuild` (§4.2), plus the MNSA/D drop-detection variant
//!   (§5.1);
//! * [`shrinking`] — the **Shrinking Set** algorithm (§5.2, Figure 2) that
//!   guarantees an essential set;
//! * [`policy`] — the §6 policy layer: on-the-fly tuning per incoming query,
//!   periodic offline tuning and aging. The `autod` tick runs the same
//!   [`MnsaEngine`] and [`policy::shrinking_pass`] in budgeted increments
//!   beside the auto-update/auto-drop loop, and `autod::OnlineService` is
//!   the front door that serves statements over all of it.
//!
//! ## Quickstart
//!
//! ```
//! use autostats::policy::{apply_policy, CreationPolicy};
//! use datagen::{build_tpcd, TpcdConfig, ZipfSpec};
//! use query::{bind_statement, parse_statement, BoundStatement};
//!
//! let mut db = build_tpcd(&TpcdConfig { scale: 0.002, zipf: ZipfSpec::Mixed, seed: 42 });
//! let stmt = bind_statement(&db, &parse_statement(
//!     "SELECT o_orderpriority, COUNT(*) FROM orders \
//!      WHERE o_orderdate < 9000 GROUP BY o_orderpriority",
//! )?)?;
//! let BoundStatement::Select(query) = &stmt else { unreachable!() };
//!
//! // §6's on-the-fly policy: before the query is optimized, MNSA decides
//! // which of its candidate statistics are worth building.
//! let mut catalog = stats::StatsCatalog::new();
//! let (report, _, _) = apply_policy(&db, &mut catalog, &CreationPolicy::default(), query)?;
//! assert!(report.optimizer_calls >= 3);
//!
//! let optimizer = optimizer::Optimizer::default();
//! let out = executor::run_statement(&mut db, catalog.full_view(), &optimizer, &stmt)?;
//! assert!(out.work() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A running system does not call these by hand: `autod::OnlineService`
//! serves statements and runs the whole lifecycle — create, refresh, drop,
//! age — on its tick (see `examples/quickstart.rs`).

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod advisor;
mod batch;
pub mod candidates;
pub mod equivalence;
pub mod error;
pub mod faults;
pub mod journal;
pub mod mnsa;
pub mod policy;
pub mod shrinking;

pub use advisor::{advise, AdvisorReport, Recommendation};
pub use candidates::{candidate_statistics, exhaustive_candidates, single_column_candidates};
pub use equivalence::Equivalence;
pub use error::{StatementError, TuneError};
pub use faults::{Fault, FaultPlan};
pub use journal::{OnlineEvent, QueryRecord, SessionReport};
pub use mnsa::{CandidateMode, MnsaConfig, MnsaEngine, MnsaOutcome, NextStatOrder, Termination};
pub use policy::{CreationPolicy, OfflineTuner, TuningReport};
pub use shrinking::{shrinking_set, shrinking_set_traced, ShrinkingOutcome};
