//! The statistics subsystem.
//!
//! A *statistic* (§3 of the paper) is a summary structure on one or more
//! columns of a relation. Mirroring Microsoft SQL Server 7.0 as described in
//! §7.1, a multi-column statistic on `(a, b, c)` is **asymmetric**: it holds
//! a full histogram on the leading column `a` plus *density* information
//! (average fraction of rows per distinct combination, i.e. `1/NDV`) for each
//! leading prefix `(a)`, `(a, b)`, `(a, b, c)`.
//!
//! The [`StatsCatalog`] stores built statistics, supports the
//! `Ignore_Statistics_Subset` server extension (§7.2) via [`StatsView`],
//! maintains the **drop-list** of statistics identified as non-essential
//! (§5), the **aging registry** that dampens re-creation of recently dropped
//! statistics (§6), and the per-table auto-update/auto-drop counters of the
//! SQL Server policy (§6).
//!
//! All creation and update work is metered through a deterministic cost model
//! ([`statistic::build_work`]) so that the paper's "statistics creation time"
//! and "update cost" results can be reproduced as ratios without hardware
//! timing noise.

#![forbid(unsafe_code)]
// Library code must stay panic-free on arbitrary input; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod error;
pub mod feedback;
pub mod histogram;
pub mod maintenance;
pub mod mhist;
pub mod ndv;
pub mod sampler;
pub mod statistic;

pub use catalog::{AgingPolicy, CatalogSnapshot, StatsCatalog, StatsView};
pub use error::StatsError;
pub use feedback::{correct_histogram, CorrectionOutcome, FeedbackStore, Observation};
pub use histogram::{join_selectivity, Histogram};
pub use maintenance::{MaintenancePolicy, Refreshed};
pub use mhist::{Histogram2d, RangeQuery};
pub use ndv::estimate_ndv;
pub use sampler::SampleSpec;
pub use statistic::{BuildOptions, StatDescriptor, StatId, Statistic};
