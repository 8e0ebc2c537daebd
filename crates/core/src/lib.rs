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
//!   periodic offline tuning, aging, and the auto-update/auto-drop loop;
//! * [`manager`] — an `AutoStatsManager` facade tying a database, a
//!   statistics catalog, the optimizer and a policy together behind a
//!   `execute_sql`-style API.
//!
//! ## Quickstart
//!
//! ```
//! use autostats::manager::{AutoStatsManager, ManagerConfig};
//! use datagen::{build_tpcd, TpcdConfig, ZipfSpec};
//!
//! // A small, skewed TPC-D instance and a self-tuning manager whose default
//! // policy runs MNSA before optimizing each incoming query.
//! let db = build_tpcd(&TpcdConfig { scale: 0.002, zipf: ZipfSpec::Mixed, seed: 42 });
//! let mut mgr = AutoStatsManager::new(db, ManagerConfig::default());
//!
//! let out = mgr.execute_sql(
//!     "SELECT o_orderpriority, COUNT(*) FROM orders \
//!      WHERE o_orderdate < 9000 GROUP BY o_orderpriority",
//! )?;
//! assert!(out.work() > 0.0);
//! // MNSA decided which of the candidate statistics were worth building:
//! assert!(mgr.tuning_report().optimizer_calls >= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod advisor;
mod batch;
pub mod candidates;
pub mod equivalence;
pub mod error;
pub mod faults;
pub mod journal;
pub mod manager;
pub mod mnsa;
pub mod online;
pub mod policy;
pub mod shrinking;

pub use advisor::{advise, AdvisorReport, Recommendation};
pub use candidates::{candidate_statistics, exhaustive_candidates, single_column_candidates};
pub use equivalence::Equivalence;
pub use error::TuneError;
pub use faults::{Fault, FaultPlan};
pub use journal::{OnlineEvent, QueryRecord, SessionReport};
pub use manager::{AutoStatsManager, ManagerConfig, ManagerError};
pub use mnsa::{
    CandidateMode, FeedbackSource, MnsaConfig, MnsaEngine, MnsaOutcome, NextStatOrder, Termination,
};
pub use online::{OnlineStep, OnlineTuner};
pub use policy::{CreationPolicy, OfflineTuner, TuningReport};
pub use shrinking::{shrinking_set, shrinking_set_traced, ShrinkingOutcome};
